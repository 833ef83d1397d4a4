"""A miniature end-to-end training run (minutes, not hours).

Uses a toy task so the whole collect / GAE / clipped-update cycle and the
metrics stream can be watched quickly. The real experiments run through the
CLI, e.g.:  coopgraph train --config configs/desk-csi12.json
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from coopgraph import TrainConfig, Trainer, TrainSettings, init_params, layout_for
from coopgraph.runner import RunConfig, build_env_config, frozen_topology

rc = RunConfig(task="CSI-4/1/2", n_clusters=3, env={"n_bases": 2, "t_max": 25}, seeds=[0])
env_config = build_env_config(rc)
graph = frozen_topology(rc, env_config, seed=0)
params = init_params(layout_for(graph, env_config), np.random.default_rng([0, 2]))

with tempfile.TemporaryDirectory(prefix="smoke_") as tmp:
    out = Path(tmp)
    trainer = Trainer(
        graph, params, env_config,
        TrainConfig(batch_episodes=16, ppo_epochs=4),
        TrainSettings(total_updates=8, eval_every=4, eval_episodes=8, checkpoint_every=4),
        master_seed=0, out_dir=out,
    )
    summary = trainer.run()
    print(f"ran {summary['updates']} updates over {summary['episodes']} episodes; "
          f"best greedy success {summary['best_success']:.2f}")

    print("\nmetrics stream (one JSON record per update):")
    for line in (out / "metrics.jsonl").read_text().splitlines():
        r = json.loads(line)
        print(f"  update {r['update']}: success {r['success_rate']:.2f} "
              f"return {r['mean_return']:+.2f} entropy {r['entropy']:.2f} "
              f"interfered {r['interference_count']}")

    print("\nrun directory:", sorted(p.name for p in out.iterdir()))
    print("checkpoints carry the frozen topology and full trainer state, so a")
    print("restored run reproduces the uninterrupted metric stream bit-for-bit.")
