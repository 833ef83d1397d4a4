"""Rollout engine pins: collection and greedy evaluation reproduce recorded
digests bit for bit, and an episode's trajectory does not depend on how many
episodes run beside it."""

import hashlib
import json

import numpy as np

from coopgraph.training import TrainConfig, collect, evaluate_policy

from test_training import desk_nano

COLLECT_FIELDS = ("obs", "actions", "log_probs", "values", "rewards", "interfered")
# re-recorded when the parameters became float32: log_probs and values are
# float32 columns now; the greedy trajectory kept its bytes
COLLECT_SHA256 = "cf42887159752fbb042a188ae53fd84b24b05b0cd6fa155bb6183111016099c8"
EVAL_TRAJECTORY_SHA256 = "216c2317e219dce2582fa39df3d6e817def51e0b6a0f44872e91db7342fe9f9f"


def collect_digest(batch) -> str:
    h = hashlib.sha256()
    for name in COLLECT_FIELDS:
        arr = np.ascontiguousarray(getattr(batch, name))
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def trajectory_rows(tmp_path, name: str, episodes: int, seed: int = 4) -> list[str]:
    env_config, graph, params = desk_nano()
    path = tmp_path / name
    evaluate_policy(graph, params, env_config, seed=seed, episodes=episodes, trajectory_path=path)
    return path.read_text().splitlines()


def test_collect_matches_recorded_digest():
    env_config, graph, params = desk_nano()
    cfg = TrainConfig(batch_episodes=4, p_interference=0.3)
    batch = collect(graph, params, env_config, cfg, master_seed=3, episode_offset=0)
    assert batch.interference_count > 0
    assert collect_digest(batch) == COLLECT_SHA256


def test_eval_trajectory_matches_recorded_digest(tmp_path):
    rows = trajectory_rows(tmp_path, "traj.jsonl", episodes=8)
    text = "".join(row + "\n" for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == EVAL_TRAJECTORY_SHA256


def test_eval_trajectory_is_batching_invariant(tmp_path):
    """Episode 0's rows are the same whether it runs alone or among eight."""
    many = [json.loads(r) for r in trajectory_rows(tmp_path, "many.jsonl", episodes=8)]
    alone = [json.loads(r) for r in trajectory_rows(tmp_path, "alone.jsonl", episodes=1)]
    first_end = next(i for i, r in enumerate(many) if r["t"] == 1 and i > 0)
    assert many[:first_end] == alone
