"""Trainer: GAE, rollout collection, PPO update mechanics, toy learning."""

import json

import numpy as np
import pytest

from coopgraph.autodiff import Adam
from coopgraph.policy import (
    NodeBatch,
    PolicyLayout,
    act_batch,
    evaluate_actions,
    init_params,
)
from coopgraph.training import (
    RolloutBatch,
    TrainConfig,
    TrainSettings,
    Trainer,
    collect,
    compute_gae,
    evaluate_policy,
    ppo_update,
)
from coopgraph.runner import frozen_topology, RunConfig, build_env_config


# ---------------------------------------------------------------------------
# GAE
# ---------------------------------------------------------------------------


def test_gae_single_step_episode():
    adv, ret = compute_gae(np.array([1.0]), np.array([0.0]), np.array([True]), 0.99, 0.95)
    # raw advantage is 1; with one sample the normalized value is 0
    assert ret[0] == pytest.approx(1.0)
    assert adv[0] == pytest.approx(0.0)


def test_gae_all_zero():
    adv, ret = compute_gae(np.zeros(5), np.zeros(5), np.array([0, 0, 0, 0, 1], dtype=bool), 0.99, 0.95)
    assert np.abs(adv).max() == 0.0
    assert np.abs(ret).max() == 0.0


def test_gae_three_step_hand_unrolled():
    """Independent hand recursion for gamma=0.99, lambda=0.95,
    r=(0,0,1), v=(0.2,0.5,0.9)."""
    gamma, lam = 0.99, 0.95
    r = np.array([0.0, 0.0, 1.0])
    v = np.array([0.2, 0.5, 0.9])
    dones = np.array([False, False, True])

    d2 = r[2] - v[2]                      # terminal: no bootstrap
    a2 = d2
    d1 = r[1] + gamma * v[2] - v[1]
    a1 = d1 + gamma * lam * a2
    d0 = r[0] + gamma * v[1] - v[0]
    a0 = d0 + gamma * lam * a1
    raw = np.array([a0, a1, a2])

    adv, ret = compute_gae(r, v, dones, gamma, lam)
    expected = (raw - raw.mean()) / (raw.std() + 1e-8)
    np.testing.assert_allclose(adv, expected, atol=1e-12)
    np.testing.assert_allclose(ret, raw + v, atol=1e-12)


def test_gae_resets_across_episodes():
    # two single-step episodes: the second's reward must not leak into the first
    r = np.array([0.0, 1.0])
    v = np.array([0.0, 0.0])
    dones = np.array([True, True])
    adv, ret = compute_gae(r, v, dones, 0.99, 0.95)
    assert ret.tolist() == [0.0, 1.0]


def test_advantage_normalization_moments():
    rng = np.random.default_rng(0)
    T = 512
    r = rng.normal(size=T)
    v = rng.normal(size=T)
    dones = np.zeros(T, dtype=bool)
    dones[np.cumsum(rng.integers(10, 30, size=40))[:-1].clip(0, T - 1)] = True
    dones[-1] = True
    adv, _ = compute_gae(r, v, dones, 0.99, 0.95)
    assert abs(adv.mean()) < 1e-8
    assert abs(adv.var() - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------


def desk_nano():
    """Smallest meaningful training task for fast loop tests."""
    rc = RunConfig(task="CSI-4/1/2", n_clusters=3, seeds=[0],
                   env={"n_bases": 2, "t_max": 20}, eval_episodes=4)
    env_config = build_env_config(rc)
    graph = frozen_topology(rc, env_config, seed=0)
    from coopgraph.policy import layout_for

    params = init_params(layout_for(graph, env_config, hidden=16), np.random.default_rng(1))
    return env_config, graph, params


def test_collect_no_interference_when_p_zero():
    env_config, graph, params = desk_nano()
    cfg = TrainConfig(batch_episodes=4, p_interference=0.0)
    batch = collect(graph, params, env_config, cfg, master_seed=0, episode_offset=0)
    assert batch.interference_count == 0
    assert batch.n_steps == sum(batch.episode_lengths)
    assert batch.dones.sum() == 4  # one terminal per episode


def test_collect_deterministic():
    env_config, graph, params = desk_nano()
    cfg = TrainConfig(batch_episodes=4, p_interference=0.3)
    b1 = collect(graph, params, env_config, cfg, master_seed=3, episode_offset=0)
    b2 = collect(graph, params, env_config, cfg, master_seed=3, episode_offset=0)
    assert b1.n_steps == b2.n_steps
    for field in ("obs", "actions", "log_probs", "values", "rewards", "interfered"):
        assert np.array_equal(getattr(b1, field), getattr(b2, field)), field


def test_collect_reward_structure():
    env_config, graph, params = desk_nano()
    cfg = TrainConfig(batch_episodes=4, p_interference=0.0)
    batch = collect(graph, params, env_config, cfg, master_seed=1, episode_offset=0)
    nonzero = np.flatnonzero(batch.rewards)
    assert set(nonzero) <= set(np.flatnonzero(batch.dones))
    assert 0.0 <= batch.success_rate <= 1.0


def test_ratio_is_one_at_epoch_zero():
    """Re-evaluating a fresh batch under unchanged parameters reproduces the
    sampling-time log-probs to ~1e-10."""
    env_config, graph, params = desk_nano()
    cfg = TrainConfig(batch_episodes=4, p_interference=0.0)
    batch = collect(graph, params, env_config, cfg, master_seed=5, episode_offset=0)
    out = evaluate_actions(
        NodeBatch(batch.obs, batch.target_reps, batch.agent_to_cluster, batch.cluster_to_target),
        batch.actions, batch.cluster_masks, batch.target_masks, params,
    )
    diff = np.abs(out["log_prob"].data.sum(axis=1) - batch.log_probs.sum(axis=1))
    assert diff.max() < 1e-10


def test_interfered_steps_do_not_move_action_heads():
    env_config, graph, params = desk_nano()
    cfg = TrainConfig(batch_episodes=2, p_interference=1.0, ppo_epochs=2)
    batch = collect(graph, params, env_config, cfg, master_seed=7, episode_offset=0)
    assert batch.interfered.all()
    adv, ret = compute_gae(batch.rewards, batch.values, batch.dones, cfg.gamma, cfg.gae_lambda)
    before = {k: t.data.copy() for k, t in params.tensors.items()}
    opt = Adam(dict(params.tensors), lr=1e-2)
    report = ppo_update(params, opt, batch, adv, ret, cfg, np.random.default_rng(0))
    assert report["L_policy"] == 0.0
    assert report["entropy"] == 0.0
    for name, arr in before.items():
        if name.startswith("head"):
            assert np.array_equal(params.tensors[name].data, arr), name
    assert not np.array_equal(params.tensors["value.fc2.W"].data, before["value.fc2.W"])


def test_ppo_update_reports_components():
    env_config, graph, params = desk_nano()
    cfg = TrainConfig(batch_episodes=2, ppo_epochs=2, p_interference=0.0)
    batch = collect(graph, params, env_config, cfg, master_seed=2, episode_offset=0)
    adv, ret = compute_gae(batch.rewards, batch.values, batch.dones, cfg.gamma, cfg.gae_lambda)
    opt = Adam(dict(params.tensors), lr=cfg.lr)
    report = ppo_update(params, opt, batch, adv, ret, cfg, np.random.default_rng(1))
    assert set(report) == {"L_policy", "L_value", "L_ae", "entropy"}
    assert report["entropy"] > 0.0
    assert report["L_ae"] > 0.0


# ---------------------------------------------------------------------------
# toy contextual bandit
# ---------------------------------------------------------------------------


def bandit_layout(hidden=16):
    return PolicyLayout(
        n_lower=2, fan_out=1, d_obs=4, n_clusters=2, n_targets=2, d_raw=8, hidden=hidden
    )


# both clusters nonempty and both targets connected: no head is masked
BANDIT_MASK = np.ones((1, 2), dtype=bool)


def _bandit_node_batch(contexts: np.ndarray) -> NodeBatch:
    B = len(contexts)
    obs = np.repeat(contexts[:, None, None].astype(np.float64), 2, axis=1)
    obs = np.repeat(obs, 4, axis=2)  # (B, 2 agents, 4 dims) all equal to context
    treps = np.zeros((B, 2, 8))
    treps[:, 0, 0] = 1.0
    treps[:, 1, 1] = 1.0
    return NodeBatch(
        obs=obs,
        target_reps=treps,
        agent_to_cluster=np.tile(np.array([0, 1]), (B, 1)),
        cluster_to_target=np.tile(np.array([0, 1]), (B, 1)),
    )


def bandit_greedy_accuracy(params) -> float:
    hits = 0
    for c in (0, 1):
        nb = _bandit_node_batch(np.array([c]))
        actions, _, _ = act_batch(nb, BANDIT_MASK, BANDIT_MASK, params, [None], mode="argmax")
        hits += int(actions[0, 0] == c)
    return hits / 2.0


def run_bandit(seed: int, updates: int = 200, episodes: int = 128, target: float = 0.95):
    """Contextual 2-armed bandit through the real policy + PPO update:
    reward = 1 when op1 picks the cluster named by the context."""
    params = init_params(bandit_layout(), np.random.default_rng(seed))
    cfg = TrainConfig(batch_episodes=episodes, p_interference=0.0)
    opt = Adam(dict(params.tensors), lr=cfg.lr)
    rng = np.random.default_rng(seed + 1000)
    accuracy = []
    for update in range(updates):
        contexts = rng.integers(0, 2, size=episodes)
        nb = _bandit_node_batch(contexts)
        actions = np.zeros((episodes, 4), dtype=np.int64)
        log_probs = np.zeros((episodes, 4))
        values = np.zeros(episodes)
        rewards = np.zeros(episodes)
        for e in range(episodes):
            single = NodeBatch(nb.obs[e:e + 1], nb.target_reps[e:e + 1],
                               nb.agent_to_cluster[e:e + 1], nb.cluster_to_target[e:e + 1])
            a, lp, v = act_batch(single, BANDIT_MASK, BANDIT_MASK, params, [rng])
            actions[e] = a[0]
            log_probs[e] = lp[0]
            values[e] = v[0]
            rewards[e] = 1.0 if a[0, 0] == contexts[e] else 0.0
        batch = RolloutBatch(
            obs=nb.obs, target_reps=nb.target_reps,
            agent_to_cluster=nb.agent_to_cluster, cluster_to_target=nb.cluster_to_target,
            cluster_masks=np.ones((episodes, 2), dtype=bool),
            target_masks=np.ones((episodes, 2), dtype=bool),
            actions=actions, log_probs=log_probs, values=values, rewards=rewards,
            dones=np.ones(episodes, dtype=bool),
            interfered=np.zeros(episodes, dtype=bool),
            episode_lengths=[1] * episodes,
            success_rate=float(rewards.mean()),
            mean_return=float(rewards.mean()),
        )
        adv, ret = compute_gae(batch.rewards, batch.values, batch.dones, cfg.gamma, cfg.gae_lambda)
        ppo_update(params, opt, batch, adv, ret, cfg, rng)
        acc = bandit_greedy_accuracy(params)
        accuracy.append(acc)
        if acc >= target and update >= 3:
            break
    return accuracy


def test_bandit_learns_one_seed():
    accuracy = run_bandit(seed=0, updates=200)
    assert max(accuracy) >= 0.95, f"final accuracy trace tail: {accuracy[-5:]}"


def test_bandit_accuracy_monotone_after_convergence():
    """Greedy accuracy is non-decreasing over 5-update windows past update 50."""
    accuracy = run_bandit(seed=3, updates=60, target=2.0)  # no early stop
    assert len(accuracy) == 60
    windows = [max(accuracy[i:i + 5]) for i in range(45, 55, 5)]
    tail = [max(accuracy[i:i + 5]) for i in range(50, 60, 5)]
    assert all(b >= a for a, b in zip(windows, tail))
    assert accuracy[-1] >= 0.95


# ---------------------------------------------------------------------------
# trainer orchestration
# ---------------------------------------------------------------------------


def nano_trainer(tmp_path, seed=0, total=2, name="run", batch_episodes=4):
    env_config, graph, params = desk_nano()
    cfg = TrainConfig(batch_episodes=batch_episodes, ppo_epochs=2)
    settings = TrainSettings(total_updates=total, eval_every=2, eval_episodes=2, checkpoint_every=10)
    return Trainer(graph, params, env_config, cfg, settings, seed, tmp_path / name)


def test_trainer_smoke_and_metrics_schema(tmp_path):
    trainer = nano_trainer(tmp_path, total=2)
    summary = trainer.run()
    assert summary["updates"] == 2
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert list(record) == [
        "update", "episodes", "success_rate", "mean_return",
        "L_policy", "L_value", "L_ae", "entropy", "interference_count",
    ]
    assert (tmp_path / "run" / "checkpoint_last.ckpt").exists()


def test_trainer_resume_is_bit_deterministic(tmp_path):
    full = nano_trainer(tmp_path, total=4, name="full")
    full.run()
    full_lines = (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()

    half = nano_trainer(tmp_path, total=2, name="half")
    half.run()
    resumed = Trainer.restore(
        tmp_path / "half" / "checkpoint_last.ckpt",
        TrainSettings(total_updates=4, eval_every=2, eval_episodes=2, checkpoint_every=10),
        tmp_path / "resumed",
    )
    resumed.run()
    resumed_lines = (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()
    assert full_lines[2:] == resumed_lines


def test_resume_in_own_directory_matches_uninterrupted_logs(tmp_path):
    """A run stopped after update 5 and resumed from its update-4 checkpoint
    in its own directory leaves the logs of a run that was never stopped."""

    def settings(total):
        return TrainSettings(total_updates=total, eval_every=2, eval_episodes=2, checkpoint_every=4)

    for name, total in (("full", 6), ("cut", 5)):
        env_config, graph, params = desk_nano()
        cfg = TrainConfig(batch_episodes=4, ppo_epochs=2)
        Trainer(graph, params, env_config, cfg, settings(total), 0, tmp_path / name).run()
    Trainer.restore(tmp_path / "cut" / "checkpoint_000004.ckpt", settings(6), tmp_path / "cut").run()
    for log in ("metrics.jsonl", "eval.jsonl"):
        assert (tmp_path / "cut" / log).read_bytes() == (tmp_path / "full" / log).read_bytes(), log


def test_evaluate_policy_deterministic():
    env_config, graph, params = desk_nano()
    a = evaluate_policy(graph, params, env_config, seed=4, episodes=3)
    b = evaluate_policy(graph, params, env_config, seed=4, episodes=3)
    assert a == b


def test_trajectory_dump(tmp_path):
    env_config, graph, params = desk_nano()
    path = tmp_path / "traj.jsonl"
    evaluate_policy(graph, params, env_config, seed=4, episodes=1, trajectory_path=path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows, "no trajectory rows written"
    assert set(rows[0]) == {"t", "agent_pos", "invader_pos", "invader_status", "reward"}
    assert rows[0]["t"] == 1
    assert all(r["reward"] == 0 for r in rows[:-1])
