"""Learning gate: Probe B on five seeds, read as an interquartile mean.

Probe B is the train-desk shape of ``configs/desk-csi12.json`` (CSI-12/2/3,
32 episodes, one minibatch, 4 epochs) at lr 1e-3 for 100 updates, trained
through ``cmd_train``. A seed's curve is its collect success per update; the
gate reads the interquartile mean (IQM) of the curves over updates 76-100,
pooled over seeds 0-4, with a 95 % bootstrap interval over seeds (Agarwal et
al., *Deep RL at the Edge of the Statistical Precipice*, NeurIPS 2021).

It takes 30-45 min on one core, so it is marked ``slow``. Its bits, and so
the IQM, depend on the BLAS thread count; the recorded bound below was taken
with one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -m slow tests/test_learning.py -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from coopgraph.runner import cmd_train, load_run_config

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk-csi12.json"
PROBE_OVERRIDES = [
    "train.batch_episodes=32",
    "train.n_minibatches=1",
    "train.ppo_epochs=4",
    "train.lr=0.001",
    "run.total_updates=100",
    "run.eval_every=25",
    "run.checkpoint_every=0",
    "run.stop_success=null",
]
SEEDS = (0, 1, 2, 3, 4)
WINDOW = (76, 100)  # updates the gate reads, both ends included
BOOTSTRAP_REPS = 2000

# Lower end of the 95 % interval of the float64 engine's IQM: this probe, run
# on the last commit with float64 parameters, read IQM 0.1811 with the
# interval 0.0799-0.3026 (per-seed table in CHANGES.md). The float32 engine
# must reach at least this.
FLOAT64_IQM_LOWER = 0.0799


def probe_b(seed: int, out_dir: Path) -> dict:
    """One Probe B run: its collect and greedy success curves and wall time."""
    rc = load_run_config(str(DESK_CONFIG), PROBE_OVERRIDES, seeds=[seed], out_dir=str(out_dir))
    start = time.perf_counter()
    cmd_train(rc)
    wall = time.perf_counter() - start
    seed_dir = out_dir / f"seed_{seed}"
    metrics = [json.loads(line) for line in (seed_dir / "metrics.jsonl").read_text().splitlines()]
    evals = [json.loads(line) for line in (seed_dir / "eval.jsonl").read_text().splitlines()]
    return {
        "seed": seed,
        "collect": [r["success_rate"] for r in metrics],
        "greedy": {r["update"]: r["eval_success"] for r in evals},
        "wall_s": wall,
    }


def iqm(values: np.ndarray) -> float:
    """Mean of the middle half of the pooled values (25 % cut from each end)."""
    v = np.sort(np.ravel(values))
    cut = int(0.25 * len(v))
    return float(v[cut:len(v) - cut].mean())


def bootstrap_interval(scores: np.ndarray, reps: int = BOOTSTRAP_REPS, level: float = 0.95) -> tuple[float, float]:
    """Percentile interval of the IQM over seeds drawn with replacement;
    ``scores`` is (seeds, updates)."""
    rng = np.random.default_rng(0)
    stats = [iqm(scores[rng.integers(0, len(scores), len(scores))]) for _ in range(reps)]
    tail = 100 * (1 - level) / 2
    lo, hi = np.percentile(stats, [tail, 100 - tail])
    return float(lo), float(hi)


def test_iqm_cuts_a_quarter_from_each_end():
    assert iqm(np.arange(8.0)) == 3.5
    assert iqm(np.array([[0.0, 1.0], [1.0, 100.0]])) == 1.0


def test_bootstrap_interval_holds_the_iqm_of_equal_seeds():
    scores = np.tile(np.linspace(0.0, 1.0, 25), (5, 1))
    lo, hi = bootstrap_interval(scores, reps=50)
    assert lo == hi == iqm(scores)


@pytest.mark.slow
def test_probe_b_learns_no_worse_than_float64(tmp_path):
    runs = [probe_b(seed, tmp_path) for seed in SEEDS]
    first, last = WINDOW
    scores = np.array([run["collect"][first - 1:last] for run in runs])
    value = iqm(scores)
    lo, hi = bootstrap_interval(scores)
    print("\nseed | collect success by quarter       | greedy at 25/50/75/100 | wall")
    for run in runs:
        quarters = " / ".join(f"{np.mean(run['collect'][q:q + 25]):.3f}" for q in range(0, 100, 25))
        greedy = " / ".join(f"{run['greedy'][u]:.2f}" for u in (25, 50, 75, 100))
        print(f"{run['seed']:4d} | {quarters} | {greedy:22s} | {run['wall_s']:.0f} s")
    print(f"IQM of collect success, updates {first}-{last}: {value:.4f} (95 % CI {lo:.4f}-{hi:.4f})")
    print(json.dumps({"iqm": value, "ci95": [lo, hi], "runs": runs}))
    assert value >= FLOAT64_IQM_LOWER, (
        f"IQM {value:.4f} is below the float64 interval's lower end {FLOAT64_IQM_LOWER:.4f}"
    )
