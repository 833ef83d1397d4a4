"""The three closed-loop workloads, each driven through coopgraph's public API.

Each workload is built from its seed alone (constructing it is the set-up
the benchmark times) and then repeats one operation, a closed loop with a
single client: the next operation starts when the previous one returns.

- train-desk: one ``Trainer.run`` update on the desk task, the path
  ``coopgraph train`` takes. One 32-episode minibatch gives the same GEMM
  shapes as the real desk minibatch (128 episodes / 4), so autodiff and
  policy do most of the work.
- eval-desk: one ``evaluate_policy`` call of 50 greedy episodes: the serial
  B=1 path, where per-op overhead dominates rather than GEMM throughput.
- oracle-csi27: one ``cmd_oracle`` call of 100 scripted episodes on
  CSI-27/3/9: no policy or autodiff calls, nearly all env.step, command
  translation and the scripted operator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# operations are called as module attributes (runner.cmd_oracle, ...), so
# that the traced run sees them through the names it rebinds
from coopgraph import runner, training
from coopgraph.policy import init_params, layout_for
from coopgraph.runner import build_env_config, frozen_topology, load_run_config, parse_run_config
from coopgraph.training import TrainConfig, Trainer, TrainSettings

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "desk-csi12.json"

# one minibatch of 32 episodes, 4 epochs; eval and periodic checkpoints off
TRAIN_OVERRIDES = [
    "train.batch_episodes=32",
    "train.n_minibatches=1",
    "train.ppo_epochs=4",
    "run.eval_every=0",
    "run.checkpoint_every=0",
]
LOSS_KEYS = ("L_policy", "L_value", "L_ae", "entropy")
# warm-up update plus the two timed updates every run makes
DIGEST_UPDATES = 3
EVAL_EPISODES = 50
EVAL_PARAMS_SEED = 7
ORACLE_EPISODES = 100
ORACLE_GATE = 0.95  # acceptance criterion 5


class TrainDesk:
    name = "train-desk"
    unit = "update"
    units_per_op = 1
    episodes_per_op = 32
    rollout_is_collect = True

    def __init__(self, seed: int, out_dir: Path):
        rc = load_run_config(str(DESK_CONFIG), TRAIN_OVERRIDES, seeds=[seed], out_dir=str(out_dir))
        env_config = build_env_config(rc)
        graph0 = frozen_topology(rc, env_config, seed)
        params = init_params(layout_for(graph0, env_config), np.random.default_rng([seed, 2]))
        self.metrics_path = out_dir / "metrics.jsonl"
        self.trainer = Trainer(
            graph0, params, env_config, TrainConfig(**rc.train), TrainSettings(**rc.run), seed, out_dir
        )
        self.records: list[dict] = []
        self.input_seeds = {
            "master_seed": seed, "topology_rng": [seed, 0], "init_params_rng": [seed, 2],
            "episodes": f"{seed} * 10**6 + episode index",
        }

    def warm_up(self) -> None:
        self.op()

    def op(self) -> None:
        self.trainer.settings.total_updates = self.trainer.update + 1
        self.trainer.run()
        record = json.loads(self.metrics_path.read_text().splitlines()[-1])
        self.records.append(record)
        bad = [k for k in LOSS_KEYS if not math.isfinite(record[k])]
        if bad:
            raise FloatingPointError(f"update {record['update']}: non-finite {bad}")

    def outputs(self):
        return self.records

    def problems(self) -> list[str]:
        return [
            f"update {r['update']}: success_rate {r['success_rate']} outside [0, 1]"
            for r in self.records if not 0.0 <= r["success_rate"] <= 1.0
        ]

    def recorded_value(self):
        """Digest of the first learning records: same seed, same bits."""
        if len(self.records) < DIGEST_UPDATES:
            return None
        text = json.dumps(self.records[:DIGEST_UPDATES], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def report_lines(self) -> list[str]:
        return [
            "update {update}: success_rate={success_rate} L_policy={L_policy:.6g} "
            "L_value={L_value:.6g} L_ae={L_ae:.6g} entropy={entropy:.6g}".format(**r)
            for r in self.records
        ]


class _SuccessWorkload:
    """Every operation returns the success rate of the same fixed episodes."""

    unit = "episode"
    rollout_is_collect = False
    gate = 0.0

    def outputs(self):
        return self.successes

    def problems(self) -> list[str]:
        out = [f"success {s} outside [{self.gate}, 1]" for s in self.successes if not self.gate <= s <= 1.0]
        if len(set(self.successes)) > 1:
            out.append(f"repeated operations on fixed inputs gave different success rates {self.successes}")
        return out

    def recorded_value(self):
        return self.successes[0] if self.successes else None

    def report_lines(self) -> list[str]:
        return [f"success over {self.episodes_per_op} episodes: {s}" for s in self.successes[:1]]


class EvalDesk(_SuccessWorkload):
    name = "eval-desk"
    units_per_op = EVAL_EPISODES
    episodes_per_op = EVAL_EPISODES

    def __init__(self, seed: int, out_dir: Path):
        rc = load_run_config(str(DESK_CONFIG), [], seeds=[seed], out_dir=str(out_dir))
        self.seed = seed
        self.env_config = build_env_config(rc)
        self.graph0 = frozen_topology(rc, self.env_config, seed)
        self.params = init_params(
            layout_for(self.graph0, self.env_config), np.random.default_rng(EVAL_PARAMS_SEED)
        )
        self.successes: list[float] = []
        self.input_seeds = {
            "topology_rng": [seed, 0], "init_params_rng": EVAL_PARAMS_SEED,
            "episodes": f"{seed} * 10**6 + episode index",
        }

    def _evaluate(self, episodes: int) -> float:
        return training.evaluate_policy(
            self.graph0, self.params, self.env_config, self.seed, episodes
        )

    def warm_up(self) -> None:
        self._evaluate(2)

    def op(self) -> None:
        self.successes.append(self._evaluate(EVAL_EPISODES))


class OracleCsi27(_SuccessWorkload):
    name = "oracle-csi27"
    units_per_op = ORACLE_EPISODES
    episodes_per_op = ORACLE_EPISODES
    gate = ORACLE_GATE

    def __init__(self, seed: int, out_dir: Path):
        self.rc = parse_run_config(
            {"task": "CSI-27/3/9", "eval_episodes": ORACLE_EPISODES, "seeds": [seed],
             "out_dir": str(out_dir)}
        )
        self.successes: list[float] = []
        self.input_seeds = {"topology_rng": [seed, 0], "episodes": f"{seed} * 10**6 + episode index"}

    def warm_up(self) -> None:
        runner.cmd_oracle(dataclasses.replace(self.rc, eval_episodes=2))

    def op(self) -> None:
        self.successes.append(runner.cmd_oracle(self.rc)["success"])


WORKLOADS = {w.name: w for w in (TrainDesk, EvalDesk, OracleCsi27)}
