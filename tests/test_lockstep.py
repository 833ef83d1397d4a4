"""The lockstep paths step every episode once per episode step.

``env_steps_per_s`` in the benchmark counts ``env.step`` calls, so each of
``collect``, ``evaluate_policy`` and ``cmd_oracle`` must call it exactly
sum(episode lengths) times; ``cmd_export_topology`` steps only as far as
its last wanted snapshot. The lockstep oracle must also play the same
episodes as the scripted operator run one episode at a time, and every one
of its ``env.step`` calls, in call order, must match a recorded digest.
"""

import dataclasses
import hashlib
import sys

import numpy as np
import pytest

from coopgraph import env
from coopgraph.graph import apply_operator_action, resolve_agent_actions, stack_graphs
from coopgraph.runner import (
    build_env_config,
    cmd_export_topology,
    cmd_oracle,
    frozen_topology,
    parse_run_config,
    scripted_operator_action,
)
from coopgraph.training import (
    EPISODE_SEED_STRIDE, TrainConfig, collect, evaluate_policy, policy_operator, rollout,
)

from test_training import desk_nano, nano_run_config, nano_trainer


def wrap_step(monkeypatch, wrapper):
    """Put ``wrapper(env.step)`` under every name a coopgraph module holds ``env.step`` by."""
    original = env.step
    wrapped = wrapper(original)
    for name, module in list(sys.modules.items()):
        if name.startswith("coopgraph") and getattr(module, "step", None) is original:
            monkeypatch.setattr(module, "step", wrapped)


@pytest.fixture
def env_steps(monkeypatch):
    """Count ``env.step`` calls."""
    calls = []

    def counting(original):
        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return counted

    wrap_step(monkeypatch, counting)
    return calls


@pytest.fixture
def step_digest(monkeypatch):
    """A sha256 over every ``env.step`` call in call order: the action ids,
    every field of the post-step state (dtype, shape and bytes) and the
    (reward, done) outcome."""
    h = hashlib.sha256()

    def hashing(original):
        def hashed(state, actions, config):
            new, outcome = original(state, actions, config)
            actions = np.ascontiguousarray(actions)
            h.update(str(actions.dtype).encode())
            h.update(actions.tobytes())
            for f in dataclasses.fields(env.EnvState):
                value = np.asarray(getattr(new, f.name))
                h.update(f"{f.name} {value.dtype} {value.shape}".encode())
                h.update(value.tobytes())
            h.update(repr((outcome.reward, outcome.done)).encode())
            return new, outcome
        return hashed

    wrap_step(monkeypatch, hashing)
    return h


def long_desk_nano():
    """desk_nano with the step cap lifted, so episodes end at different steps."""
    env_config, graph, params = desk_nano()
    return dataclasses.replace(env_config, t_max=200), graph, params


def test_collect_steps_once_per_episode_step(env_steps):
    env_config, graph, params = long_desk_nano()
    batch = collect(graph, params, env_config, TrainConfig(batch_episodes=5), master_seed=1, episode_offset=0)
    assert len(set(batch.episode_lengths)) > 1  # episodes leave the lockstep at different steps
    assert len(env_steps) == sum(batch.episode_lengths) == batch.n_steps


def test_evaluate_policy_steps_once_per_episode_step(env_steps):
    env_config, graph, params = long_desk_nano()
    evaluate_policy(graph, params, env_config, seed=4, episodes=5)
    calls = len(env_steps)
    rngs = [np.random.default_rng(4 * EPISODE_SEED_STRIDE + e) for e in range(5)]
    lengths = np.zeros(5, dtype=int)
    for alive, *_ in rollout(graph, env_config, rngs, policy_operator(params, env_config, rngs, "argmax", 0.0)):
        lengths[alive] += 1
    assert len(set(lengths)) > 1
    assert calls == sum(lengths)


@pytest.mark.parametrize("steps,calls", [([0], 0), ([3], 3)])
def test_export_topology_stops_after_its_last_wanted_step(env_steps, tmp_path, steps, calls):
    """Step 0 is the frozen topology, which needs no replay; step 3 is the
    graph the fourth step starts from, known after the third."""
    ckpt = tmp_path / "policy.ckpt"
    nano_trainer(tmp_path).save(ckpt)
    written = cmd_export_topology(nano_run_config(), str(ckpt), episode_seed=77, steps=steps, out_dir=str(tmp_path))
    assert [p.name for p in written] == [f"topology_step_{steps[0]:04d}.{ext}" for ext in ("dot", "json")]
    assert len(env_steps) == calls


def serial_oracle(rc):
    """Episode lengths and success rate of the scripted operator, one episode at a time."""
    env_config = build_env_config(rc)
    graph0 = frozen_topology(rc, env_config, rc.seeds[0])
    lengths, wins = [], 0
    for e in range(rc.eval_episodes):
        state = env.reset(env_config, np.random.default_rng(rc.seeds[0] * EPISODE_SEED_STRIDE + e))
        graph, done = graph0, False
        while not done:
            graph, _ = apply_operator_action(graph, scripted_operator_action(graph, state, env_config))
            actions = resolve_agent_actions(stack_graphs([graph]), env.stack_states([state]), env_config)[0]
            state, outcome = env.step(state, actions, env_config)
            done = outcome.done
        lengths.append(state.t)
        wins += outcome.reward > 0
    return lengths, wins / rc.eval_episodes


def test_oracle_steps_once_per_episode_step(env_steps):
    rc = parse_run_config({"task": "CSI-12/2/3", "n_clusters": 6, "eval_episodes": 5, "seeds": [3]})
    report = cmd_oracle(rc)
    calls = len(env_steps)
    lengths, success = serial_oracle(rc)
    assert len(set(lengths)) > 1
    assert calls == sum(lengths)
    assert report["success"] == success


# recorded before the scripted operator ran through ``training.rollout``
ORACLE_STEP_SHA256 = {
    ("CSI-12/2/3", 0): "f472edcd6323512e65a846df3a558338d6664ebac5928ab38cb728ccbe2ef16d",
    ("CSI-12/2/3", 1): "21060391efad6ee0d82470aafdc106908d4cde9ff4d026353c2c94c46514827d",
    ("CSI-12/2/3", 2): "867fc36a469b3daac4479433274232d7c258c53688cb763d5b3447036e45c389",
    ("CSI-27/3/9", 0): "fe90e4cc338d8580ef28f86f1a6fffbdec2aed453ef35e002e23830213db658a",
    ("CSI-27/3/9", 1): "03fb9c0442cbf23269a789d12dea55177d28952ca24171f512edc563c01e8dcb",
    ("CSI-27/3/9", 2): "dd2df62f147029939d4a56d8596739fd702e80b6190ef584ebfd8deacbc767ce",
}
ORACLE_CLUSTERS = {"CSI-12/2/3": 6, "CSI-27/3/9": 14}


@pytest.mark.parametrize("task,seed", sorted(ORACLE_STEP_SHA256))
def test_oracle_steps_match_recorded_digest(step_digest, task, seed):
    rc = parse_run_config({"task": task, "n_clusters": ORACLE_CLUSTERS[task], "eval_episodes": 12, "seeds": [seed]})
    assert cmd_oracle(rc)["success"] == 1.0
    assert step_digest.hexdigest() == ORACLE_STEP_SHA256[(task, seed)]
