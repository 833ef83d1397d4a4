"""Run configs, command orchestration, the scripted oracle, topology export."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from coopgraph.graph import from_json
from coopgraph.training import evaluate_policy, load_run_checkpoint
from coopgraph.runner import (
    ConfigError,
    build_env_config,
    build_run_targets,
    cmd_eval,
    cmd_export_topology,
    cmd_oracle,
    cmd_train,
    cmd_transfer,
    frozen_topology,
    load_run_config,
    parse_overrides,
    parse_run_config,
    resolved_dict,
)


NANO = dict(
    task="CSI-4/1/2",
    n_clusters=3,
    seeds=[0],
    env={"n_bases": 2, "t_max": 20},
    train={"batch_episodes": 4, "ppo_epochs": 2},
    run={"total_updates": 2, "eval_every": 2, "eval_episodes": 2, "checkpoint_every": 10},
    eval_episodes=4,
)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_defaults_follow_experiment_setup():
    rc = parse_run_config({})
    assert rc.n_clusters == 14
    assert rc.task == "CSI-27/3/9"
    assert rc.eval_episodes == 100


def test_target_count_arithmetic():
    rc = parse_run_config({"task": "CSI-27/3/9"})
    targets = build_run_targets(rc, build_env_config(rc))
    assert len(targets) == 6 + 9 + 4  # six moves, one intercept per invader, one defend per base


def test_no_targets_is_config_error():
    with pytest.raises(ConfigError, match="no targets"):
        rc = parse_run_config({"primitive_set": "none", "coop_actions": False})
        build_run_targets(rc, build_env_config(rc))


def test_primitive_set_none_with_coop_is_valid():
    rc = parse_run_config({"primitive_set": "none"})
    targets = build_run_targets(rc, build_env_config(rc))
    assert len(targets) == 13  # 9 intercepts + 4 defends, no primitive nodes
    assert all(not t.is_primitive for t in targets)


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError, match="unknown config field"):
        parse_run_config({"lr": 1e-4})
    with pytest.raises(ConfigError, match="env.bogus"):
        parse_run_config({"env": {"bogus": 1}})
    with pytest.raises(ConfigError, match="train.clip"):
        parse_run_config({"train": {"clip": 0.2}})
    with pytest.raises(ConfigError, match="task"):
        parse_run_config({"task": "CSI-1/2"})
    with pytest.raises(ConfigError, match="seeds"):
        parse_run_config({"seeds": []})


def test_config_value_validation():
    with pytest.raises(ConfigError, match="train"):
        parse_run_config({"train": {"p_interference": 2.0}})
    for run, error in [
        ({"eval_episodes": 0}, "run: eval_episodes must be >= 1"),
        ({"total_updates": -1}, "run: total_updates must be >= 0"),
        ({"stop_success": 1.5}, "run: stop_success must be a success rate"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(error)):
            parse_run_config({"run": run})
    assert parse_run_config({"run": {"stop_success": None}}).run == {"stop_success": None}
    with pytest.raises(ConfigError, match="n_clusters must be an integer >= 1"):
        parse_run_config({"n_clusters": 0})
    with pytest.raises(ConfigError, match="n_clusters must be an integer, got 'x'"):
        parse_run_config({"n_clusters": "x"})
    with pytest.raises(ConfigError, match="env"):
        parse_run_config({"env": {"v_def": 0.1}})  # slower than a slowed invader


@pytest.mark.parametrize(
    "doc,error",
    [
        ({"seeds": 3}, "seeds must be a nonempty list of integers, got 3"),
        ({"seeds": [0, "1"]}, "seeds must be a nonempty list of integers"),
        ({"env": 5}, "env must be a JSON object, got 5"),
        ({"train": [1]}, "train must be a JSON object"),
        ({"run": "x"}, "run must be a JSON object"),
        ({"run": {"total_updates": "x"}}, "run: total_updates must be an integer, got 'x'"),
        ({"run": {"stop_success": True}}, "run: stop_success must be a number or null, got True"),
        ({"train": {"lr": "fast"}}, "train: lr must be a number, got 'fast'"),
        ({"env": {"t_max": 20.5}}, "env: t_max must be an integer, got 20.5"),
        ({"env": {"n_bases": True}}, "env: n_bases must be an integer, got True"),
        ({"env": {"slow_count": 1.5}}, "env: slow_count must be an integer, got 1.5"),
        ({"env": {"n_bases": 2.5}}, "env: n_bases must be an integer, got 2.5"),
        ({"env": {"v_def": "fast"}}, "env: v_def must be a number, got 'fast'"),
        ({"env": {"world_extent": None}}, "env: world_extent must be a number, got None"),
        ({"coop_actions": 5}, "coop_actions must be true or false, got 5"),
        ({"out_dir": 5}, "out_dir must be a string, got 5"),
        ({"task": 5}, "task must be a string, got 5"),
        ({"primitive_set": 5}, "primitive_set must be a string, got 5"),
    ],
    ids=["seeds_int", "seeds_str_item", "env_int", "train_list", "run_str", "run_field_str",
         "run_field_bool", "train_field_str", "env_int_field_float", "env_int_field_bool",
         "env_slow_count_float", "env_n_bases_float", "env_float_field_str", "env_float_field_null",
         "coop_actions_int", "out_dir_int", "task_int", "primitive_set_int"],
)
def test_config_type_validation(doc, error):
    """A value of the wrong JSON type is a ConfigError naming its field, not
    an exception from deeper in the program."""
    with pytest.raises(ConfigError, match=re.escape(error)):
        parse_run_config(doc)


def test_overrides_parse_dotted_and_json():
    doc = parse_overrides(["env.t_max=99", "train.lr=0.001", "coop_actions=false", "task=CSI-4/1/2"])
    assert doc == {
        "env": {"t_max": 99},
        "train": {"lr": 0.001},
        "coop_actions": False,
        "task": "CSI-4/1/2",
    }
    with pytest.raises(ConfigError):
        parse_overrides(["notanoverride"])


def test_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(NANO))
    rc = load_run_config(str(path), ["env.t_max=25"])
    assert rc.env["t_max"] == 25
    # serialize -> parse is semantically identity
    doc = resolved_dict(rc, build_env_config(rc))
    rc2 = parse_run_config(doc["run_config"])
    assert rc2 == rc
    assert doc["resolved"]["env"]["t_max"] == 25
    assert doc["resolved"]["train"]["lr"] == 1e-4


def test_frozen_topology_deterministic():
    rc = parse_run_config(NANO)
    env_config = build_env_config(rc)
    a = frozen_topology(rc, env_config, seed=3)
    b = frozen_topology(rc, env_config, seed=3)
    assert np.array_equal(a.agent_to_cluster, b.agent_to_cluster)
    assert np.array_equal(a.cluster_to_target, b.cluster_to_target)


# ---------------------------------------------------------------------------
# train / eval / transfer / export round trip
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nano_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("nano_run")
    rc = parse_run_config({**NANO, "out_dir": str(out)})
    summaries = cmd_train(rc)
    return rc, out, summaries


def test_train_run_directory_contents(nano_run):
    rc, out, summaries = nano_run
    assert (out / "resolved_config.json").exists()
    assert (out / "manifest.json").exists()
    seed_dir = out / "seed_0"
    lines = (seed_dir / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert (seed_dir / "checkpoint_last.ckpt").exists()
    manifest = json.loads((seed_dir / "manifest.json").read_text())
    assert manifest["master_seed"] == 0
    assert summaries[0]["updates"] == 2


def test_eval_checkpoint(nano_run, tmp_path):
    rc, out, _ = nano_run
    ckpt = out / "seed_0" / "checkpoint_last.ckpt"
    before = ckpt.read_bytes()
    report = cmd_eval(rc, str(ckpt), dump_trajectory=str(tmp_path / "t.jsonl"))
    assert 0.0 <= report["success_mean"] <= 1.0
    assert report["success_std"] == 0.0  # single seed
    assert ckpt.read_bytes() == before  # evaluation never mutates checkpoints
    assert (tmp_path / "t.jsonl").read_text().strip()


def test_eval_shape_mismatch_diagnostic(nano_run):
    rc, out, _ = nano_run
    bad = dataclasses.replace(rc, task="CSI-5/1/2")
    with pytest.raises(ConfigError, match=re.escape("n_agents (checkpoint 4, config 5)")):
        cmd_eval(bad, str(out / "seed_0" / "checkpoint_last.ckpt"))


def test_eval_and_export_reject_other_physics(nano_run, tmp_path):
    """A run config whose env settings differ from those the checkpoint
    trained under is refused, naming every differing field."""
    rc, out, _ = nano_run
    ckpt = str(out / "seed_0" / "checkpoint_last.ckpt")
    other = dataclasses.replace(rc, env={**rc.env, "t_max": 25, "v_inv": 0.5})
    with pytest.raises(ConfigError, match=r"env\.v_inv \(checkpoint 0.8, config 0.5\), env\.t_max \(checkpoint 20, config 25\)$"):
        cmd_eval(other, ckpt)
    with pytest.raises(ConfigError, match="v_inv.*t_max"):
        cmd_export_topology(other, ckpt, episode_seed=5, steps=[0], out_dir=str(tmp_path))


def test_transfer_identity_fan_out(nano_run, tmp_path):
    """g=1 transfer: surgery at fan-out 1 copies the policy unchanged, so the
    zero-shot success equals the source evaluation."""
    rc, out, _ = nano_run
    ckpt = out / "seed_0" / "checkpoint_last.ckpt"
    sub = dataclasses.replace(rc, out_dir=str(tmp_path / "tf1"), run={**rc.run, "total_updates": 1})
    report = cmd_transfer(sub, str(ckpt), "CSI-4/1/2", fan_out=1, surgery_seeds=2)
    src = cmd_eval(dataclasses.replace(rc, seeds=[rc.seeds[0]]), str(ckpt))
    assert report["zero_shot_per_seed"][0] == pytest.approx(src["success_mean"])
    assert report["zero_shot_std"] == pytest.approx(0.0)


def test_transfer_scaling_validation(nano_run, tmp_path):
    rc, out, _ = nano_run
    ckpt = out / "seed_0" / "checkpoint_last.ckpt"
    sub = dataclasses.replace(rc, out_dir=str(tmp_path / "tfbad"))
    with pytest.raises(ConfigError, match="need N'=gN"):
        cmd_transfer(sub, str(ckpt), "CSI-8/1/2", fan_out=2)  # k not scaled


def test_transfer_doubles_team(nano_run, tmp_path):
    rc, out, _ = nano_run
    ckpt = out / "seed_0" / "checkpoint_last.ckpt"
    # no eval during the retrain, so it writes no checkpoint_best
    sub = dataclasses.replace(
        rc, out_dir=str(tmp_path / "tf2"),
        run={**rc.run, "total_updates": 1, "eval_every": 0}, eval_episodes=2,
    )
    report = cmd_transfer(sub, str(ckpt), "CSI-8/2/2", fan_out=2, surgery_seeds=2)
    assert report["fan_out"] == 2
    assert 0.0 <= report["zero_shot_mean"] <= 1.0
    retrain_ckpt = tmp_path / "tf2" / "retrain" / "checkpoint_last.ckpt"
    assert not retrain_ckpt.with_name("checkpoint_best.ckpt").exists()
    retrained = load_run_checkpoint(retrain_ckpt)
    assert retrained.params.layout.fan_out == 2
    assert retrained.graph0.n_env_agents == 8 and retrained.graph0.n_agents == 4
    # the final success is the last checkpoint's greedy evaluation
    assert report["final_success"] == evaluate_policy(
        retrained.graph0, retrained.params, retrained.env_config, rc.seeds[0] + 100, sub.eval_episodes
    )
    # the transfer directory describes the retrain: target task and physics
    resolved = json.loads((tmp_path / "tf2" / "resolved_config.json").read_text())
    assert resolved["run_config"]["task"] == "CSI-8/2/2"
    assert resolved["resolved"]["env"] == retrained.env_config.to_json_dict()
    assert json.loads((tmp_path / "tf2" / "manifest.json").read_text())["task"] == "CSI-8/2/2"


def test_export_topology(nano_run, tmp_path):
    rc, out, _ = nano_run
    ckpt = out / "seed_0" / "checkpoint_last.ckpt"
    dest = tmp_path / "snapshots"
    written = cmd_export_topology(rc, str(ckpt), episode_seed=5, steps=[0, 3, 999], out_dir=str(dest))
    names = sorted(p.name for p in written)
    assert names == [
        "topology_step_0000.dot", "topology_step_0000.json",
        "topology_step_0003.dot", "topology_step_0003.json",
    ]  # step 999 past the end was skipped
    # step 0 is the frozen topology, identical for any episode seed
    dest2 = tmp_path / "snapshots2"
    cmd_export_topology(rc, str(ckpt), episode_seed=77, steps=[0], out_dir=str(dest2))
    assert (dest / "topology_step_0000.json").read_text() == (dest2 / "topology_step_0000.json").read_text()
    # exported JSON round-trips through the importer
    g = from_json((dest / "topology_step_0003.json").read_text())
    assert g.n_agents == 4


# recorded when export still wrote each snapshot from a pre-step hook
EXPORT_END_SHA256 = "8e8d462382aeeba042d7c5d50577826e0152086a27d7451fcbf7f0b8ab7a2394"


def test_export_topology_at_the_episode_end(nano_run, tmp_path, capsys):
    """Episode seed 5 runs to the t_max = 20 cap: its last step starts at
    t = 19, whose snapshot is written; steps 20 and 21 lie beyond the end."""
    rc, out, _ = nano_run
    ckpt = out / "seed_0" / "checkpoint_last.ckpt"
    written = cmd_export_topology(rc, str(ckpt), episode_seed=5, steps=[0, 3, 19, 20, 21], out_dir=str(tmp_path))
    assert [p.name for p in written] == [
        f"topology_step_{t:04d}.{ext}" for t in (0, 3, 19) for ext in ("dot", "json")
    ]
    h = hashlib.sha256()
    for path in written:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == EXPORT_END_SHA256
    assert capsys.readouterr().err.splitlines() == [
        f"warning: step {t} is beyond the episode end; skipped" for t in (20, 21)
    ]


def test_export_topology_rejects_a_negative_step(nano_run, tmp_path):
    """Refused before the checkpoint is read or an episode replayed."""
    rc, out, _ = nano_run
    for ckpt in (out / "seed_0" / "checkpoint_last.ckpt", tmp_path / "missing.ckpt"):
        with pytest.raises(ConfigError, match="steps count from 0, not -1"):
            cmd_export_topology(rc, str(ckpt), episode_seed=5, steps=[0, -1], out_dir=str(tmp_path / "snaps"))
    assert not (tmp_path / "snaps").exists()


# ---------------------------------------------------------------------------
# scripted oracle
# ---------------------------------------------------------------------------


def test_oracle_requires_coop_targets():
    rc = parse_run_config({**NANO, "coop_actions": False})
    with pytest.raises(ConfigError):
        cmd_oracle(rc)


def test_oracle_trivial_threshold_task():
    """k=1 tasks: a single pursuing defender suffices, success ~ 1."""
    rc = parse_run_config({**NANO, "eval_episodes": 20})
    report = cmd_oracle(rc)
    assert report["success"] >= 0.95


def test_oracle_threshold_comparative():
    """Higher per-invader thresholds with the same team are harder."""
    base = {"n_clusters": 6, "seeds": [0], "eval_episodes": 30, "env": {"n_bases": 2}}
    easy = cmd_oracle(parse_run_config({**base, "task": "CSI-12/2/3"}))
    hard = cmd_oracle(parse_run_config({**base, "task": "CSI-12/4/3"}))
    assert easy["success"] >= hard["success"]
