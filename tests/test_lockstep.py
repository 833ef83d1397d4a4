"""The lockstep paths step every episode once per episode step.

``env_steps_per_s`` in the benchmark counts ``env.step`` calls, so each of
``collect``, ``evaluate_policy`` and ``cmd_oracle`` must call it exactly
sum(episode lengths) times. The lockstep oracle must also play the same
episodes as the scripted operator run one episode at a time.
"""

import dataclasses
import sys

import numpy as np
import pytest

from coopgraph import env
from coopgraph.graph import apply_operator_action, resolve_agent_actions
from coopgraph.runner import (
    build_env_config,
    cmd_oracle,
    frozen_topology,
    parse_run_config,
    scripted_operator_action,
)
from coopgraph.training import EPISODE_SEED_STRIDE, TrainConfig, collect, evaluate_policy, rollout

from test_training import desk_nano


@pytest.fixture
def env_steps(monkeypatch):
    """Count ``env.step`` calls under every name a coopgraph module holds it by."""
    calls = []
    original = env.step

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("coopgraph") and getattr(module, "step", None) is original:
            monkeypatch.setattr(module, "step", counted)
    return calls


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
    _, _, lengths = rollout(graph, params, env_config, rngs, mode="argmax", record_steps=False)
    assert len(set(lengths)) > 1
    assert calls == sum(lengths)


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
            state, outcome = env.step(state, resolve_agent_actions(graph, state, env_config), env_config)
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
