"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 7-9 are multi-hour training reproductions and are marked slow
(run them with ``pytest -m slow``); they train into runs/acceptance/ and
resume from checkpoints if interrupted, so repeated invocations continue
rather than restart. Everything else runs in the default suite.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from coopgraph.env import EnvConfig, PrimitiveSet, reset
from coopgraph.graph import build_targets, random_topology, select_initial_topology, topology_entropy
from coopgraph.policy import NodeBatch, act_batch, init_params, layout_for
from coopgraph.runner import (
    cmd_eval,
    cmd_oracle,
    cmd_train,
    cmd_transfer,
    parse_run_config,
)

from test_autodiff import run_gradient_oracle
from test_commands import run_gather_scatter_properties, test_discretize_brute_force_oracle
from test_graph import run_closure_suite
from test_policy import run_policy_loss_gradcheck
from test_training import run_bandit

REPO = Path(__file__).resolve().parents[1]
DESK_CONFIG = json.loads((REPO / "configs" / "desk-csi12.json").read_text())
DESK_OUT = REPO / DESK_CONFIG["out_dir"]


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_01_graph_invariant_suite():
    t0 = time.perf_counter()
    run_closure_suite(n_topologies=100, actions_per_topology=1000, seed=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"invariant suite took {elapsed:.1f}s >= 10s"
    report(1, f"10^5 random operator actions, zero invariant violations, "
              f"no-op flags exact, {elapsed:.1f}s < 10s")


def test_criterion_02_masking_soundness():
    rng = np.random.default_rng(2)
    total = 0
    for combo in range(100):
        cfg = EnvConfig(n_agents=int(rng.integers(2, 10)), k_threshold=1,
                        m_invaders=int(rng.integers(1, 4)), n_bases=2)
        targets = build_targets(PrimitiveSet.SIX, True, cfg.m_invaders, cfg.n_bases)
        graph = random_topology(rng, cfg.n_agents, int(rng.integers(2, 7)), targets)
        params = init_params(layout_for(graph, cfg, hidden=8), np.random.default_rng(combo))
        state = reset(cfg, rng)
        from coopgraph.env import stack_states
        from coopgraph.graph import stack_graphs
        from coopgraph.policy import node_batch

        nb1 = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
        B = 1000
        nb = NodeBatch(
            obs=np.repeat(nb1.obs, B, axis=0) + rng.normal(scale=0.1, size=(B,) + nb1.obs.shape[1:]),
            target_reps=np.repeat(nb1.target_reps, B, axis=0),
            agent_to_cluster=np.repeat(nb1.agent_to_cluster, B, axis=0),
            cluster_to_target=np.repeat(nb1.cluster_to_target, B, axis=0),
        )
        rngs = [np.random.default_rng(1000 * combo + b) for b in range(B)]
        actions, _, _ = act_batch(nb, params, rngs)
        assert np.isin(actions[:, 0], graph.agent_to_cluster).all(), "op1 picked an empty cluster"
        assert np.isin(actions[:, 2], graph.cluster_to_target).all(), "op3 picked an unconnected target"
        total += B
    report(2, f"{total} sampled decisions: op1 always a nonempty cluster, "
              f"op3 always a connected target")


def test_criterion_03_gradient_oracle():
    worst_ops = run_gradient_oracle(instances=100, seed=3)
    worst_loss = run_policy_loss_gradcheck(instances=100, coords_per_tensor=3, seed=3)
    assert worst_ops < 1e-3 and worst_loss < 1e-3
    report(3, f"central-difference oracle: ops max rel err {worst_ops:.2e}, "
              f"full policy loss {worst_loss:.2e} (both < 1e-3, 100 instances)")


def test_criterion_04_coop_action_oracles():
    test_discretize_brute_force_oracle()
    run_gather_scatter_properties(n_clusters=1000)
    report(4, "move snapping matches brute-force argmax on 10^4 directions; "
              "gather contraction and scatter expansion hold on 1000 clusters")


def test_criterion_05_environment_solvability():
    t0 = time.perf_counter()
    rc = parse_run_config({"task": "CSI-27/3/9", "eval_episodes": 100})
    result = cmd_oracle(rc)
    elapsed = time.perf_counter() - t0
    assert result["success"] >= 0.95, f"oracle success {result['success']:.2f} < 0.95"
    assert elapsed < 120.0, f"oracle run took {elapsed:.0f}s >= 2min"
    report(5, f"scripted oracle on CSI-27/3/9: success {result['success']:.2f} >= 0.95 "
              f"over 100 episodes in {elapsed:.0f}s")


def test_criterion_06_ppo_sanity_bandit():
    t0 = time.perf_counter()
    used = []
    for seed in (0, 1, 2):
        accuracy = run_bandit(seed=seed, updates=200)
        assert max(accuracy) >= 0.95, f"seed {seed} topped out at {max(accuracy):.2f}"
        used.append(len(accuracy))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(6, f"contextual bandit >= 0.95 greedy accuracy on 3 seeds within "
              f"{max(used)} updates (limit 200), {elapsed:.0f}s < 5min")


def test_criterion_10_initialization_and_interference():
    rng = np.random.default_rng(10)
    targets = build_targets(PrimitiveSet.SIX, True, 3, 2)
    picked = select_initial_topology(np.random.default_rng(5), 100, 20, 6, targets)
    probe = np.random.default_rng(5)
    candidates = [topology_entropy(random_topology(probe, 20, 6, targets)) for _ in range(100)]
    assert all(topology_entropy(picked) >= h for h in candidates)

    count = int((rng.random(10**6) < 0.005).sum())
    assert 4600 <= count <= 5400, count
    report(10, f"selected topology entropy {topology_entropy(picked):.3f} >= all 100 candidates; "
               f"interference triggers {count} in 10^6 steps (window [4600, 5400])")


def test_criterion_11_determinism():
    """Byte-identical metrics for two same-seed runs (first 10 updates).

    Uses a small task and batch so the check stays minutes-scale; the
    determinism machinery (per-episode seed streams, ordered merges, fixed
    reduction orders) is configuration-independent.
    """
    import tempfile

    def run(tag):
        out = Path(tempfile.mkdtemp(prefix=f"det_{tag}_"))
        rc = parse_run_config({
            "task": "CSI-4/1/2", "n_clusters": 3, "seeds": [7],
            "env": {"n_bases": 2, "t_max": 20},
            "train": {"batch_episodes": 32, "ppo_epochs": 4},
            "run": {"total_updates": 10, "eval_every": 0, "checkpoint_every": 0},
            "out_dir": str(out),
        })
        cmd_train(rc)
        return (out / "seed_7" / "metrics.jsonl").read_bytes()

    a, b = run("a"), run("b")
    assert a == b, "metric streams diverged"
    assert len(a.splitlines()) == 10
    report(11, "two same-seed runs: metrics JSONL byte-identical over 10 updates")


# ---------------------------------------------------------------------------
# training reproductions (hours-scale, resumable)
# ---------------------------------------------------------------------------


def _desk_seed_run(seed: int) -> dict:
    """Train (or resume) one desk-scale seed to the stop threshold and
    return its final 100-episode evaluation of the best checkpoint."""
    rc = parse_run_config({**DESK_CONFIG, "seeds": [seed]})
    seed_dir = DESK_OUT / f"seed_{seed}"
    summary = cmd_train(rc)[0]  # resumes from the seed dir's checkpoint_last
    best = seed_dir / "checkpoint_best.ckpt"
    ckpt = best if best.exists() else seed_dir / "checkpoint_last.ckpt"
    final = cmd_eval(rc, str(ckpt))["success_mean"]
    updates = len((seed_dir / "metrics.jsonl").read_text().splitlines())
    return {"seed": seed, "updates": updates, "final_success": final,
            "checkpoint": str(ckpt), **summary}


@pytest.mark.slow
def test_criterion_07_desk_scale_training():
    results = [_desk_seed_run(seed) for seed in DESK_CONFIG["seeds"]]
    passing = [r for r in results if r["final_success"] >= 0.80 and r["updates"] <= 2000]
    detail = ", ".join(
        f"seed {r['seed']}: {r['final_success']:.2f} in {r['updates']} updates" for r in results
    )
    assert len(passing) >= 2, f"only {len(passing)}/3 seeds reached 0.80: {detail}"
    report(7, f"desk-scale CSI-12/2/3 >= 0.80 on {len(passing)}/3 seeds ({detail})")


@pytest.mark.slow
def test_criterion_08_transfer():
    sources = []
    for seed in DESK_CONFIG["seeds"]:
        best = DESK_OUT / f"seed_{seed}" / "checkpoint_best.ckpt"
        metrics = DESK_OUT / f"seed_{seed}" / "metrics.jsonl"
        if best.exists() and metrics.exists():
            rc = parse_run_config({**DESK_CONFIG, "seeds": [seed]})
            success = cmd_eval(rc, str(best))["success_mean"]
            updates = len(metrics.read_text().splitlines())
            sources.append((success, updates, seed, best))
    assert sources, "run criterion 7 first: no desk checkpoints found"
    src_success, src_updates, src_seed, src_ckpt = max(sources)
    assert src_success >= 0.80, "no source policy at >= 0.80 to transfer"

    budget = max(1, src_updates // 2)
    rc = parse_run_config({
        **DESK_CONFIG,
        "task": "CSI-24/4/3",
        "seeds": [src_seed],
        "out_dir": str(REPO / "runs" / "acceptance" / "transfer"),
        "run": {**DESK_CONFIG["run"], "total_updates": budget,
                "stop_success": 0.92 * src_success},
    })
    report_doc = cmd_transfer(rc, str(src_ckpt), "CSI-24/4/3", fan_out=2)
    zero_shot = report_doc["zero_shot_mean"]
    final = report_doc["final_success"]
    assert zero_shot >= 0.5 * src_success, (
        f"zero-shot {zero_shot:.2f} < 0.5 x source {src_success:.2f}"
    )
    assert final >= 0.9 * src_success, (
        f"recovered {final:.2f} < 0.9 x source {src_success:.2f} within {budget} updates"
    )
    report(8, f"transfer CSI-12/2/3 -> CSI-24/4/3 (g=2): zero-shot {zero_shot:.2f} "
              f">= 0.5 x {src_success:.2f}; recovered {final:.2f} >= 0.9 x source "
              f"within {report_doc['retrain_updates']} <= {budget} updates")


def _ablation_run(tag: str, seed: int, **overrides) -> float:
    """One budget-capped ablation training run; resumable like the desk runs."""
    out = REPO / "runs" / "acceptance" / "ablation" / f"{tag}_seed{seed}"
    doc = {
        **DESK_CONFIG,
        "seeds": [seed],
        "out_dir": str(out),
        "run": {**DESK_CONFIG["run"], "total_updates": 400},
        **overrides,
    }
    rc = parse_run_config(doc)
    seed_dir = out / f"seed_{seed}"
    cmd_train(rc)
    best = seed_dir / "checkpoint_best.ckpt"
    ckpt = best if best.exists() else seed_dir / "checkpoint_last.ckpt"
    return cmd_eval(rc, str(ckpt))["success_mean"]


@pytest.mark.slow
def test_criterion_09_ablation_directions():
    seeds = DESK_CONFIG["seeds"]
    good_nk = np.mean([_ablation_run("nk5", s, n_clusters=5) for s in seeds])
    tiny_nk = np.mean([_ablation_run("nk2", s, n_clusters=2) for s in seeds])
    assert good_nk >= tiny_nk - 0.1, (
        f"n_clusters=invaders+bases scored {good_nk:.2f} < {tiny_nk:.2f} - 0.1"
    )
    six = np.mean([_ablation_run("six", s) for s in seeds])
    none = np.mean([_ablation_run("none", s, primitive_set="none") for s in seeds])
    assert six >= none, f"six primitives {six:.2f} < none {none:.2f}"
    report(9, f"ablations: n_k=5 mean {good_nk:.2f} >= n_k=2 mean {tiny_nk:.2f} - 0.1; "
              f"six primitives {six:.2f} >= none {none:.2f} (3 seeds each)")
