"""Trainer: GAE, rollout collection, PPO update mechanics, toy learning."""

import dataclasses
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from coopgraph import autodiff as ad
from coopgraph import training
from coopgraph.autodiff import Adam
from coopgraph.graph import extend
from coopgraph.policy import (
    NodeBatch,
    PolicyLayout,
    act_batch,
    evaluate_actions,
    fold,
    init_params,
    layout_for,
    surgery_for_extension,
)
from coopgraph.training import (
    RolloutBatch,
    TrainConfig,
    TrainSettings,
    Trainer,
    collect,
    compute_gae,
    evaluate_policy,
    load_run_checkpoint,
    ppo_update,
)
from coopgraph.runner import frozen_topology, RunConfig, build_env_config, cmd_eval

from conftest import float64_params, rewrite_checkpoint


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


def nano_run_config():
    return RunConfig(task="CSI-4/1/2", n_clusters=3, seeds=[0],
                     env={"n_bases": 2, "t_max": 20}, eval_episodes=4)


def desk_nano():
    """Smallest meaningful training task for fast loop tests."""
    rc = nano_run_config()
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
    out = evaluate_actions(batch, batch.actions, params)
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


# sha256 over every parameter gradient (sorted names, shapes, little-endian
# float64 bytes) of one evaluate_actions -> backward on a fixed 4-episode
# batch, with one BLAS thread: any change to a gradient bit fails. Recorded
# again when the encoder and decoders began to run on folded weights, which
# reassociates their products (the folded network's exact-math agreement
# with the unfolded one is test_policy's reference test)
PPO_GRADIENT_GOLDENS = [
    # the desk task at full width (hidden 64)
    ("CSI-12/2/3", 1, 64, "0789659b5b87dd586a2dd087017a1ef3777bcd6898cd81b5a2ac8ca3c95d175c"),
    # an extended policy: the merge block's attention
    ("CSI-4/1/2", 2, 16, "875d1b13478ad3972bb1b2953705626f4ef5e09e0aec4791f10139dbd1bd9364"),
]


def ppo_gradient_digest(task, fan_out, hidden) -> str:
    rc = RunConfig(task=task, n_clusters=6, seeds=[0], env={"n_bases": 2})
    env_config = build_env_config(rc)
    graph = frozen_topology(rc, env_config, seed=0)
    params = init_params(layout_for(graph, env_config, hidden=hidden), np.random.default_rng([0, 2]))
    if fan_out > 1:
        graph = extend(graph, fan_out)
        params = surgery_for_extension(params, fan_out, np.random.default_rng(5))
        env_config = dataclasses.replace(
            env_config, n_agents=env_config.n_agents * fan_out,
            k_threshold=env_config.k_threshold * fan_out, slow_count=0,
        )
    batch = collect(graph, params, env_config, TrainConfig(batch_episodes=4), master_seed=0, episode_offset=0)
    out = evaluate_actions(batch, batch.actions, params)
    ad.backward(ad.add(
        ad.add(ad.sum_(out["log_prob"]), ad.sum_(out["entropy"])),
        ad.add(ad.sum_(out["value"]), out["l_ae"]),
    ))
    h = hashlib.sha256()
    for name, t in sorted(params.tensors.items()):
        grad = np.ascontiguousarray(t.grad, dtype="<f8")
        h.update(name.encode())
        h.update(str(grad.shape).encode())
        h.update(grad.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("task,fan_out,hidden,digest", PPO_GRADIENT_GOLDENS, ids=["desk", "extended"])
def test_ppo_gradients_match_recorded_digest(task, fan_out, hidden, digest):
    """Taken in a child process with one BLAS thread: OpenBLAS splits the
    reduction of some weight-gradient GEMM shapes (in float32, (64, k) @
    (k, 64) at k of about 600-2000) over its threads, so those bits depend
    on the thread count."""
    code = f"from test_training import ppo_gradient_digest; print(ppo_gradient_digest({task!r}, {fan_out}, {hidden}))"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == digest


@pytest.mark.parametrize("wide", [False, True], ids=["float32", "float64"])
def test_tape_keeps_the_parameters_dtype(monkeypatch, wide):
    """Through collect and a PPO update, every tape node's data, every
    gradient that reaches a node, every leaf gradient and Adam's moments are
    in the parameters' dtype: float32 as initialized, float64 when widened."""
    env_config, graph, params = desk_nano()
    dtype = np.float64 if wide else np.float32
    if wide:
        params = float64_params(params)
    made, arriving = set(), set()
    make, accumulate = ad._make, ad._accumulate

    def recording_make(data, *rest):
        out = make(data, *rest)
        made.add(out.data.dtype)
        return out

    def recording_accumulate(t, g):
        arriving.add((t.data.dtype, g.dtype))
        accumulate(t, g)

    monkeypatch.setattr(ad, "_make", recording_make)
    monkeypatch.setattr(ad, "_accumulate", recording_accumulate)
    cfg = TrainConfig(batch_episodes=2, ppo_epochs=2, n_minibatches=2)
    batch = collect(graph, params, env_config, cfg, master_seed=0, episode_offset=0)
    assert batch.log_probs.dtype == batch.values.dtype == dtype
    adv, ret = compute_gae(batch.rewards, batch.values, batch.dones, cfg.gamma, cfg.gae_lambda)
    assert adv.dtype == ret.dtype == np.float64
    opt = Adam(dict(params.tensors), lr=cfg.lr)
    ppo_update(params, opt, batch, adv, ret, cfg, np.random.default_rng(0))
    assert made == {np.dtype(dtype)}
    assert arriving == {(np.dtype(dtype), np.dtype(dtype))}
    for name, t in params.tensors.items():
        assert t.data.dtype == t.grad.dtype == opt.m[name].dtype == opt.v[name].dtype == dtype, name


def test_float64_checkpoint_loads_rounded(tmp_path):
    """A trainer checkpoint of the float64 engine (the same format, holding
    values float32 cannot) loads rounded to float32, Adam's moments too;
    ``cmd_eval`` runs on it and training resumes from it."""
    trainer = nano_trainer(tmp_path, total=1)
    trainer.run()
    rng = np.random.default_rng(0)
    old = float64_params(trainer.params)
    for t in old.tensors.values():
        t.data += rng.normal(scale=1e-3, size=t.shape)
    trainer.params = old
    for moments in (trainer.optimizer.m, trainer.optimizer.v):
        for name, moment in moments.items():
            moments[name] = np.abs(moment + rng.normal(scale=1e-6, size=moment.shape))
    path = tmp_path / "float64.ckpt"
    trainer.save(path)

    loaded = load_run_checkpoint(path).params
    for name, t in old.tensors.items():
        assert not np.array_equal(t.data.astype(np.float32).astype(np.float64), t.data), name
        assert loaded.tensors[name].data.dtype == np.float32
        assert np.array_equal(loaded.tensors[name].data, t.data.astype(np.float32)), name
    report = cmd_eval(nano_run_config(), str(path))
    assert 0.0 <= report["success_mean"] <= 1.0
    resumed = Trainer.restore(path, trainer.settings, tmp_path / "resumed")
    for saved, moments in ((trainer.optimizer.m, resumed.optimizer.m), (trainer.optimizer.v, resumed.optimizer.v)):
        for name, moment in moments.items():
            assert saved[name].dtype == np.float64
            assert moment.dtype == np.float32
            assert np.array_equal(moment, saved[name].astype(np.float32)), name
    resumed.settings.total_updates = 2
    assert resumed.run()["updates"] == 2


def _nano_update_inputs():
    """A desk_nano batch of 80 steps with its GAE and a fresh optimizer, and
    a config of two epochs of two minibatches."""
    env_config, graph, params = desk_nano()
    cfg = TrainConfig(batch_episodes=4, ppo_epochs=2, n_minibatches=2)
    batch = collect(graph, params, env_config, cfg, master_seed=0, episode_offset=0)
    advantages, returns = compute_gae(batch.rewards, batch.values, batch.dones, cfg.gamma, cfg.gae_lambda)
    return params, Adam(dict(params.tensors), lr=cfg.lr), batch, advantages, returns, cfg


def test_ppo_update_frees_each_minibatch_tape_before_the_next(monkeypatch):
    """With the cycle collector off, every earlier minibatch's loss and
    forward outputs are gone when the next evaluate_actions starts:
    reference counting alone frees each tape. A tensor's data array lives
    as long as the tensor, so a weak reference to it watches the tensor."""
    params, optimizer, batch, advantages, returns, cfg = _nano_update_inputs()
    spent: list[weakref.ref] = []
    starts = []
    real_evaluate, real_backward = training.evaluate_actions, ad.backward

    def watched_evaluate(*args):
        starts.append(sum(ref() is not None for ref in spent))
        out = real_evaluate(*args)
        spent.extend(weakref.ref(t.data) for t in out.values())
        return out

    def watched_backward(loss):
        spent.append(weakref.ref(loss.data))
        real_backward(loss)

    monkeypatch.setattr(training, "evaluate_actions", watched_evaluate)
    monkeypatch.setattr(ad, "backward", watched_backward)
    gc.disable()
    try:
        ppo_update(params, optimizer, batch, advantages, returns, cfg, np.random.default_rng(0))
    finally:
        gc.enable()
    assert len(spent) == 4 * 5
    assert starts == [0, 0, 0, 0]


def _optimizer_state(optimizer):
    """Adam's step count and the bytes of every parameter and moment."""
    arrays = [p.data for p in optimizer.params.values()] + [*optimizer.m.values(), *optimizer.v.values()]
    return optimizer.t, [a.tobytes() for a in arrays]


def test_ppo_update_names_the_op_of_an_inf_parameter():
    """An inf value bias makes the loss inf; backward names the layer that
    produced it before any gradient, and Adam never steps."""
    params, optimizer, batch, advantages, returns, cfg = _nano_update_inputs()
    ppo_update(params, optimizer, batch, advantages, returns, cfg, np.random.default_rng(0))
    params.tensors["value.fc2.b"].data[:] = np.inf
    before = _optimizer_state(optimizer)
    with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError, match="op 'linear'"):
        ppo_update(params, optimizer, batch, advantages, returns, cfg, np.random.default_rng(1))
    assert _optimizer_state(optimizer) == before


def test_ppo_update_stops_a_nan_gradient_before_adam():
    """Old log-probabilities far below the new ones overflow the ratio to
    inf on the positive-advantage steps, where the clipped branch wins: the
    loss stays finite, but exp's backward makes 0 * inf = nan. The update
    raises before Adam steps on that gradient."""
    params, optimizer, batch, advantages, returns, cfg = _nano_update_inputs()
    ppo_update(params, optimizer, batch, advantages, returns, cfg, np.random.default_rng(0))
    batch.log_probs[(advantages > 0) & ~batch.interfered, 0] = -1e4
    before = _optimizer_state(optimizer)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ad.NonFiniteError, match="non-finite gradient norm of .*head"):
            ppo_update(params, optimizer, batch, advantages, returns, cfg, np.random.default_rng(1))
    assert _optimizer_state(optimizer) == before


# peak traced memory of a two-minibatch update over one minibatch's forward
# tape: 2.86 with the previous tape and every interior gradient kept, 1.85
# with only the tape freed, 2.12 with only the gradients freed, and 1.27 with
# both (2.88 and 1.29 for a 4,238-step desk minibatch)
UPDATE_PEAK_PER_TAPE = 1.6


def test_ppo_update_peak_memory_is_about_one_tape():
    params, optimizer, batch, advantages, returns, cfg = _nano_update_inputs()
    mb = np.arange(batch.n_steps - batch.n_steps // 2)  # the larger minibatch
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = evaluate_actions(batch.rows(mb), batch.actions[mb], params)
        tape = tracemalloc.get_traced_memory()[0] - base
        out.clear()  # the outputs held the whole tape
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ppo_update(params, optimizer, batch, advantages, returns, cfg, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < UPDATE_PEAK_PER_TAPE * tape, f"update peak {peak} B is {peak / tape:.2f} forward tapes"


# ---------------------------------------------------------------------------
# toy contextual bandit
# ---------------------------------------------------------------------------


def bandit_layout(hidden=16):
    return PolicyLayout(
        n_lower=2, fan_out=1, d_obs=4, n_clusters=2, n_targets=2, d_raw=8, hidden=hidden
    )


def _bandit_node_batch(contexts: np.ndarray) -> NodeBatch:
    """Both clusters nonempty and both targets connected: no head is masked."""
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
    with ad.no_grad():
        folded = fold(params)
    for c in (0, 1):
        nb = _bandit_node_batch(np.array([c]))
        actions, _, _ = act_batch(nb, folded, [None], mode="argmax")
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
        with ad.no_grad():
            folded = fold(params)
        for e in range(episodes):
            a, lp, v = act_batch(nb.rows(slice(e, e + 1)), folded, [rng])
            actions[e] = a[0]
            log_probs[e] = lp[0]
            values[e] = v[0]
            rewards[e] = 1.0 if a[0, 0] == contexts[e] else 0.0
        batch = RolloutBatch(
            **vars(nb), actions=actions, log_probs=log_probs, values=values, rewards=rewards,
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


def test_restore_rejects_missing_optimizer_moment(tmp_path):
    """A moment restarted at 0 would break the bit-exact resume silently."""
    trainer = nano_trainer(tmp_path, total=1)
    trainer.run()
    cut = tmp_path / "cut.ckpt"
    rewrite_checkpoint(tmp_path / "run" / "checkpoint_last.ckpt", cut, drop={"extra.adam.m.ct.Wv"})
    with pytest.raises(ValueError, match=re.escape(str(cut)) + ".*adam.m.ct.Wv"):
        Trainer.restore(cut, trainer.settings, tmp_path / "resumed")


def test_restore_rejects_misshaped_optimizer_moment(tmp_path):
    """A moment of another shape would broadcast or fail inside Adam.step."""
    trainer = nano_trainer(tmp_path, total=1)
    trainer.run()
    bad = tmp_path / "bad.ckpt"
    moment = trainer.optimizer.v["trunk.W"]
    rewrite_checkpoint(tmp_path / "run" / "checkpoint_last.ckpt", bad, swap={"extra.adam.v.trunk.W": moment.T})
    with pytest.raises(ValueError, match=re.escape(f"{bad}: tensor extra.adam.v.trunk.W has shape (16, 32)")):
        Trainer.restore(bad, trainer.settings, tmp_path / "resumed")


@pytest.mark.parametrize(
    "name", ["extra.adam.m.bogus", "extra.adam.v.head5.fc1.W", "extra.lr", "ac.bk", "extra.adam.m.ct.Wq"]
)
def test_load_rejects_a_tensor_of_no_parameter(tmp_path, name):
    """A moment of a parameter the layout does not have, or any other
    unknown tensor, is refused at load, naming the path and the tensor; so
    is a retired parameter (an attention key bias, the cluster->target
    query) or its moment."""
    trainer = nano_trainer(tmp_path, total=1)
    trainer.run()
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint(tmp_path / "run" / "checkpoint_last.ckpt", bad, swap={name: np.zeros(3)})
    with pytest.raises(ValueError, match=re.escape(f"{bad}: unexpected tensor {name} for layout")):
        load_run_checkpoint(bad)
    with pytest.raises(ValueError, match=re.escape(f"{bad}: unexpected tensor {name}")):
        Trainer.restore(bad, trainer.settings, tmp_path / "resumed")


def test_load_rejects_an_env_config_key_it_does_not_have(tmp_path):
    """The retired ``env_config.seed`` is refused like any unknown key, as a
    ValueError naming the path and the key."""
    trainer = nano_trainer(tmp_path, total=1)
    trainer.run()
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint(
        tmp_path / "run" / "checkpoint_last.ckpt", bad,
        edit_header=lambda h: {**h, "env_config": {**h["env_config"], "seed": 0}},
    )
    with pytest.raises(ValueError, match=re.escape(f"{bad}: ") + ".*'seed'"):
        load_run_checkpoint(bad)


def test_restore_then_save_is_byte_identical(tmp_path):
    """A trainer checkpoint with its moments, trainer state and normalizer
    round-trips through restore and save to the same bytes."""
    trainer = nano_trainer(tmp_path, total=3)
    trainer.run()
    last = tmp_path / "run" / "checkpoint_last.ckpt"
    resumed = Trainer.restore(last, trainer.settings, tmp_path / "resumed")
    assert resumed.optimizer.t == trainer.optimizer.t > 0
    resumed.save(tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == last.read_bytes()


def test_killed_run_resumes_from_checkpoint_last(tmp_path, monkeypatch):
    """A run killed inside collect at update 3, one update after its eval,
    resumes from its own checkpoint_last to the logs of a run never stopped."""

    class Killed(Exception):
        pass

    real_collect = training.collect

    def dying_collect(*args):
        if args[-1] == 2 * 4:  # episode offset of update 3 at 4 episodes per batch
            raise Killed
        return real_collect(*args)

    nano_trainer(tmp_path, total=4, name="full").run()
    cut = nano_trainer(tmp_path, total=4, name="cut")
    monkeypatch.setattr(training, "collect", dying_collect)
    with pytest.raises(Killed):
        cut.run()
    monkeypatch.undo()
    Trainer.restore(cut.out_dir / "checkpoint_last.ckpt", cut.settings, cut.out_dir).run()
    for log in ("metrics.jsonl", "eval.jsonl"):
        assert (cut.out_dir / log).read_bytes() == (tmp_path / "full" / log).read_bytes(), log


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
