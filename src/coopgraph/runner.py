"""Experiment orchestration: configs, run layout and the command entry points.

A run config is a JSON document; every effective value (including defaults)
is resolved up front, logged into the run directory and echoed back on
request, so a run directory plus the package version reproduces the run
bit-exactly. The commands that start from a trained policy read its
checkpoint through ``training.load_run_checkpoint``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .commands import DEFEND, INTERCEPT
from .env import EnvConfig, PrimitiveSet, TaskNameError, check_field_types, parse_task_name, row_norms
from .graph import (
    CooperationGraph,
    OperatorAction,
    TargetNode,
    apply_operator_action,
    build_targets,
    extend,
    select_initial_topology,
    to_dot,
    to_json,
    to_json_dict,
)
from .policy import (
    PolicyParams,
    init_params,
    layout_for,
    surgery_for_extension,
)
from .training import (
    RunCheckpoint,
    TrainConfig,
    TrainSettings,
    Trainer,
    episode_rngs,
    evaluate_policy,
    load_run_checkpoint,
    policy_operator,
    rollout,
)


class ConfigError(ValueError):
    """Invalid run configuration; messages carry the offending field path."""


@dataclass
class RunConfig:
    task: str = "CSI-27/3/9"
    n_clusters: int = 14
    primitive_set: str = "six"
    coop_actions: bool = True
    env: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str = "runs/latest"
    eval_episodes: int = 100
    init_candidates: int = 100


# the task name fixes the first three; primitive_set has its own key
_ENV_OVERRIDE_FIELDS = {f.name for f in dataclasses.fields(EnvConfig)} - {
    "n_agents", "k_threshold", "m_invaders", "primitive_set",
}
_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}
_RUN_FIELDS = {f.name for f in dataclasses.fields(TrainSettings)}


def _set_dotted(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {dotted!r}: {p!r} is not a section")
    node[parts[-1]] = value


def parse_overrides(pairs: list[str]) -> dict:
    doc: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_dotted(doc, key, value)
    return doc


def parse_run_config(doc: dict) -> RunConfig:
    """Validate a raw config document into a RunConfig.

    Raises ConfigError naming the offending field for unknown keys, a value
    of the wrong type (a field, a section or a section entry), a bad
    section entry, an unparsable task, or seeds that are not a nonempty
    list of integers.
    """
    known = {f.name for f in dataclasses.fields(RunConfig)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
    rc = RunConfig(**{k: v for k, v in doc.items() if k in known})

    try:
        check_field_types(rc)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    for name in ("n_clusters", "eval_episodes", "init_candidates"):
        if getattr(rc, name) < 1:
            raise ConfigError(f"{name} must be an integer >= 1")
    if type(rc.seeds) is not list or not rc.seeds or any(type(s) is not int for s in rc.seeds):
        raise ConfigError(f"seeds must be a nonempty list of integers, got {rc.seeds!r}")
    try:
        parse_task_name(rc.task)
    except TaskNameError as e:
        raise ConfigError(f"task: {e}") from None
    try:
        PrimitiveSet.from_name(rc.primitive_set)
    except ValueError as e:
        raise ConfigError(f"primitive_set: {e}") from None
    for key in rc.env:
        if key not in _ENV_OVERRIDE_FIELDS:
            raise ConfigError(f"env.{key} is not an overridable environment field")
    for key in rc.train:
        if key not in _TRAIN_FIELDS:
            raise ConfigError(f"train.{key} is not a training hyperparameter")
    for key in rc.run:
        if key not in _RUN_FIELDS:
            raise ConfigError(f"run.{key} is not a run setting")
    try:
        TrainConfig(**rc.train)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"train: {e}") from None
    try:
        TrainSettings(**rc.run)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"run: {e}") from None
    # the env overrides against the physics constraints, and a graph with targets
    build_run_targets(rc, build_env_config(rc))
    return rc


def load_run_config(path: str | None, overrides: list[str], **direct) -> RunConfig:
    doc: dict = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
    for dotted, value in _flatten(parse_overrides(overrides)):
        _set_dotted(doc, dotted, value)
    for key, value in direct.items():
        if value is not None:
            doc[key] = value
    return parse_run_config(doc)


def _flatten(doc: dict, prefix: str = "") -> list[tuple[str, object]]:
    out = []
    for k, v in doc.items():
        dotted = f"{prefix}{k}"
        if isinstance(v, dict):
            out.extend(_flatten(v, dotted + "."))
        else:
            out.append((dotted, v))
    return out


def build_env_config(rc: RunConfig) -> EnvConfig:
    n, k, m = parse_task_name(rc.task)
    try:
        return EnvConfig(
            n_agents=n,
            k_threshold=k,
            m_invaders=m,
            primitive_set=PrimitiveSet.from_name(rc.primitive_set),
            **rc.env,
        )
    except ValueError as e:
        raise ConfigError(f"env: {e}") from None


def build_run_targets(rc: RunConfig, env_config: EnvConfig) -> tuple[TargetNode, ...]:
    try:
        return build_targets(
            env_config.primitive_set, rc.coop_actions,
            env_config.m_invaders, env_config.n_bases,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


def frozen_topology(rc: RunConfig, env_config: EnvConfig, seed: int) -> CooperationGraph:
    targets = build_run_targets(rc, env_config)
    rng = np.random.default_rng([seed, 0])
    return select_initial_topology(
        rng, rc.init_candidates, env_config.n_agents, rc.n_clusters, targets
    )


def resolved_dict(rc: RunConfig, env_config: EnvConfig) -> dict:
    """Every effective value with defaults expanded.

    The ``run_config`` section parses back into an identical RunConfig; the
    ``resolved`` section logs the fully expanded env/train/run parameters,
    the env ones from ``env_config``, the physics the run runs under.
    """
    return {
        "run_config": dataclasses.asdict(rc),
        "resolved": {
            "env": env_config.to_json_dict(),
            "train": dataclasses.asdict(TrainConfig(**rc.train)),
            "run": dataclasses.asdict(TrainSettings(**rc.run)),
            "n_targets": len(build_run_targets(rc, env_config)),
        },
    }


def _write_run_metadata(rc: RunConfig, env_config: EnvConfig, out_root: Path) -> None:
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "resolved_config.json").write_text(json.dumps(resolved_dict(rc, env_config), indent=2))
    manifest = {"package": "coopgraph", "version": __version__, "task": rc.task, "seeds": rc.seeds}
    (out_root / "manifest.json").write_text(json.dumps(manifest, indent=2))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(rc: RunConfig) -> list[dict]:
    """Train one run per seed; returns the per-seed summaries.

    A seed directory that already holds ``checkpoint_last.ckpt`` resumes
    from it, so rerunning a killed command continues its runs and leaves
    logs byte-identical to an uninterrupted run's.
    """
    env_config = build_env_config(rc)
    train_config = TrainConfig(**rc.train)
    settings = TrainSettings(**rc.run)
    out_root = Path(rc.out_dir)
    graphs = [frozen_topology(rc, env_config, seed) for seed in rc.seeds]
    # every resume is checked before anything is written
    for seed, graph0 in zip(rc.seeds, graphs):
        last = out_root / f"seed_{seed}" / "checkpoint_last.ckpt"
        if last.exists():
            _load_fitting(last, env_config, graph0, train_config)
    _write_run_metadata(rc, env_config, out_root)

    summaries = []
    for seed, graph0 in zip(rc.seeds, graphs):
        seed_dir = out_root / f"seed_{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        (seed_dir / "manifest.json").write_text(
            json.dumps({"version": __version__, "master_seed": seed, "task": rc.task}, indent=2)
        )
        last = seed_dir / "checkpoint_last.ckpt"
        if last.exists():
            trainer = Trainer.restore(last, settings, seed_dir)
        else:
            params = init_params(layout_for(graph0, env_config), np.random.default_rng([seed, 2]))
            trainer = Trainer(graph0, params, env_config, train_config, settings, seed, seed_dir)
        summary = trainer.run()
        summary["seed"] = seed
        summaries.append(summary)
        print(f"seed {seed}: updates={summary['updates']} best_success={summary['best_success']:.3f}")
    return summaries


def _differing(trained: dict, config: dict, prefix: str = "") -> list[str]:
    """Each field whose value in a checkpoint differs from the run config's,
    with both values."""
    return [f"{prefix}{k} (checkpoint {trained[k]!r}, config {config[k]!r})"
            for k in config if trained[k] != config[k]]


def _final_checkpoint(seed_dir: Path) -> Path:
    """The best checkpoint of a run, or its last when no eval ever ran."""
    best = seed_dir / "checkpoint_best.ckpt"
    return best if best.exists() else seed_dir / "checkpoint_last.ckpt"


def _load_fitting(
    checkpoint: str | Path,
    env_config: EnvConfig,
    graph0: CooperationGraph | None = None,
    train_config: TrainConfig | None = None,
) -> RunCheckpoint:
    """The checkpoint, refused unless it trained under ``env_config`` and, to
    resume it, under ``train_config`` from ``graph0``; the refusal names each
    differing field."""
    run = load_run_checkpoint(checkpoint)
    differ = _differing(run.env_config.to_json_dict(), env_config.to_json_dict(), "env.")
    if train_config is not None:
        differ += _differing(dataclasses.asdict(run.train_config), dataclasses.asdict(train_config), "train.")
        if to_json_dict(run.graph0) != to_json_dict(graph0):
            differ.append("the initial topology")
    if differ:
        hint = "; use another out_dir to start over" if train_config is not None else ""
        raise ConfigError(f"{checkpoint} was trained under another config: {', '.join(differ)}{hint}")
    return run


def cmd_eval(
    rc: RunConfig, checkpoint: str, dump_trajectory: str | None = None
) -> dict:
    """Greedy evaluation of a checkpoint: mean and sample std across seeds."""
    run = _load_fitting(checkpoint, build_env_config(rc))
    rates = []
    for i, seed in enumerate(rc.seeds):
        traj = dump_trajectory if (dump_trajectory and i == 0) else None
        rates.append(
            evaluate_policy(run.graph0, run.params, run.env_config, seed, rc.eval_episodes, trajectory_path=traj)
        )
    mean = float(np.mean(rates))
    std = 0.0 if len(rates) < 2 else float(np.std(rates, ddof=1))
    return {"success_mean": mean, "success_std": std, "per_seed": rates}


def cmd_transfer(
    rc: RunConfig,
    checkpoint: str,
    target_task: str,
    fan_out: int,
    surgery_seeds: int = 3,
) -> dict:
    """Zero-shot then resumed-training transfer to a scaled-up task.

    The target must scale both the team and the threshold by the same
    factor: N' = g N and k' = g k with m unchanged.
    """
    source = load_run_checkpoint(checkpoint)
    src_config = source.env_config

    n_t, k_t, m_t = parse_task_name(target_task)
    if fan_out < 1:
        raise ConfigError("fan_out must be >= 1")
    if (n_t, k_t, m_t) != (src_config.n_agents * fan_out, src_config.k_threshold * fan_out, src_config.m_invaders):
        raise ConfigError(
            f"target {target_task} incompatible with source N={src_config.n_agents}, "
            f"k={src_config.k_threshold}, m={src_config.m_invaders} at fan-out {fan_out}: "
            "need N'=gN, k'=gk, m unchanged"
        )
    env_overrides = {"slow_count": 0, **rc.env}  # rescale slow_count with k unless pinned
    target_config = dataclasses.replace(src_config, n_agents=n_t, k_threshold=k_t, **env_overrides)
    ext_graph = source.graph0 if fan_out == 1 else extend(source.graph0, fan_out)

    out_root = Path(rc.out_dir)
    _write_run_metadata(dataclasses.replace(rc, task=target_task), target_config, out_root)
    master = rc.seeds[0]

    zero_shot = []
    surgeries: list[PolicyParams] = []
    for i in range(surgery_seeds):
        p_i = surgery_for_extension(source.params, fan_out, np.random.default_rng([master, 3, i]))
        surgeries.append(p_i)
        zero_shot.append(
            evaluate_policy(ext_graph, p_i, target_config, master + i, rc.eval_episodes)
        )
    zs_mean = float(np.mean(zero_shot))
    zs_std = 0.0 if len(zero_shot) < 2 else float(np.std(zero_shot, ddof=1))

    settings = TrainSettings(**rc.run)
    retrain_dir = out_root / "retrain"
    trainer = Trainer(
        ext_graph, surgeries[0], target_config, TrainConfig(**rc.train),
        settings, master, retrain_dir,
    )
    summary = trainer.run()
    final_run = load_run_checkpoint(_final_checkpoint(retrain_dir))
    final = evaluate_policy(final_run.graph0, final_run.params, target_config, master + 100, rc.eval_episodes)
    report = {
        "source_task": f"CSI-{src_config.n_agents}/{src_config.k_threshold}/{src_config.m_invaders}",
        "target_task": target_task,
        "fan_out": fan_out,
        "zero_shot_mean": zs_mean,
        "zero_shot_std": zs_std,
        "zero_shot_per_seed": zero_shot,
        "final_success": final,
        "retrain_updates": summary["updates"],
    }
    (out_root / "transfer_report.json").write_text(json.dumps(report, indent=2))
    return report


def cmd_ablate(rc: RunConfig, sweep: str, values: list) -> Path:
    """Train each sweep setting with the shared seeds; emit a CSV table.

    A setting reads as a ``--set`` value does (JSON, else a string), and
    every setting's run config is validated before the first one trains.
    """
    swept = {"clusters": "n_clusters", "primitives": "primitive_set"}
    if sweep not in swept:
        raise ConfigError("sweep must be 'clusters' or 'primitives'")
    out_root = Path(rc.out_dir)
    subs = []
    for value in values:
        doc = {
            **dataclasses.asdict(rc), **parse_overrides([f"{swept[sweep]}={value}"]),
            "out_dir": str(out_root / f"{sweep}_{value}"),
        }
        try:
            subs.append(parse_run_config(doc))
        except ConfigError as e:
            raise ConfigError(f"{sweep} setting {value!r}: {e}") from None
    _write_run_metadata(rc, build_env_config(rc), out_root)
    csv_path = out_root / "ablation.csv"
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["setting", "seed", "success"])
        for value, sub in zip(values, subs):
            summaries = cmd_train(sub)
            env_config = build_env_config(sub)
            for seed, summary in zip(sub.seeds, summaries):
                run = load_run_checkpoint(_final_checkpoint(Path(sub.out_dir) / f"seed_{seed}"))
                success = evaluate_policy(run.graph0, run.params, env_config, seed + 900, rc.eval_episodes)
                writer.writerow([value, seed, f"{success:.4f}"])
    return csv_path


# ---------------------------------------------------------------------------
# scripted oracle
# ---------------------------------------------------------------------------


def scripted_operator_action(
    graph: CooperationGraph, state, env_config: EnvConfig
) -> OperatorAction:
    """Hand-written operator policy: one intercept cluster per active invader,
    agents spread evenly over the intercept clusters.

    Emits at most one corrective move per edge layer per step, which is all
    the operator action space allows. Used as the environment solvability
    oracle and as an untrained baseline.
    """
    intercept_tid = graph.targets.command_ids(INTERCEPT)
    defend_tid = graph.targets.command_ids(DEFEND)
    active = [j for j in range(env_config.m_invaders) if state.invader_active[j]]
    if not active or not intercept_tid:
        return OperatorAction(0, 0, 0, 0)

    c2t = graph.cluster_to_target
    counts = np.bincount(graph.agent_to_cluster, minlength=graph.n_clusters)
    active_tids = {intercept_tid[j] for j in active}
    # the clusters on each target in ascending order: one stable sort, cut
    # at the target boundaries
    by_target = np.argsort(c2t, kind="stable")
    bounds = np.searchsorted(c2t[by_target], np.arange(graph.n_targets + 1)).tolist()
    clusters_on = {t: by_target[bounds[t]:bounds[t + 1]] for t in range(graph.n_targets)}

    # every cluster on an invader's intercept chases the same point, so only
    # per-invader chaser totals matter
    chasers = {j: int(counts[clusters_on[intercept_tid[j]]].sum()) for j in active}
    quota = math.ceil(graph.n_agents / len(active))
    setup = state.t < 25

    dist = row_norms(state.base_pos[state.invader_target] - state.invader_pos)
    time_to_base = (dist / env_config.v_inv).tolist().__getitem__

    def movable(t):  # the cluster op3/op4 would actually move off target t
        return int(clusters_on[t][0]) if len(clusters_on[t]) else None

    spare_tids = [
        t for t in range(graph.n_targets)
        if t not in active_tids and movable(t) is not None and counts[movable(t)] > 0
    ]

    src_t = dst_t = 0
    src_c = dst_c = 0

    # emergency: an invader closing on its base gets met head-on by the
    # garrison (or any idle cluster parked nearby)
    emergencies = sorted(
        (j for j in active if time_to_base(j) < 28.0), key=time_to_base
    )
    conversion = None
    for j in emergencies:
        base = state.base_pos[state.invader_target[j]]
        candidates = []
        for t in spare_tids:
            members = np.flatnonzero(graph.agent_to_cluster == movable(t))
            gap = float(np.linalg.norm(state.agent_pos[members].mean(axis=0) - base))
            if gap < 32.0:
                candidates.append((gap, t))
        if candidates:
            conversion = (min(candidates)[1], intercept_tid[j])
            break
    if conversion is not None:
        src_t, dst_t = conversion
    elif setup:
        # setup phase: cover every invader, then keep chaser counts even
        uncovered = [j for j in active if chasers[j] == 0]
        oversup = [
            j for j in active
            if chasers[j] > quota and len(clusters_on[intercept_tid[j]]) >= 2
            and counts[movable(intercept_tid[j])] > 0
        ]
        if uncovered:
            j_star = min(uncovered, key=time_to_base)
            donors = spare_tids + [intercept_tid[j] for j in oversup]
            donors = [t for t in donors if counts[movable(t)] > 0]
            if donors:
                src_t = max(donors, key=lambda t: counts[movable(t)])
                dst_t = intercept_tid[j_star]
        elif spare_tids:
            needy = [j for j in active if chasers[j] < quota] or active
            dst_t = intercept_tid[min(needy, key=time_to_base)]
            src_t = max(spare_tids, key=lambda t: counts[movable(t)])
    elif spare_tids and defend_tid:
        # after setup: freed clusters garrison the most threatened alive base
        garrison = {
            b: int(counts[clusters_on[defend_tid[b]]].sum()) for b in defend_tid
        }
        threats = {}
        for j in active:
            b = int(state.invader_target[j])
            if state.base_alive[b] and b in defend_tid:
                threats[b] = min(threats.get(b, 1e9), time_to_base(j))
        wanting = [b for b in threats if garrison[b] < env_config.k_threshold + 3]
        if wanting:
            b_star = min(wanting, key=lambda b: threats[b])
            src_t = max(spare_tids, key=lambda t: counts[movable(t)])
            dst_t = defend_tid[b_star]

    # agent layer runs only while setting up; established chases are never
    # raided afterwards (a cross-arena tail chase at 0.2 closing speed loses)
    if setup:
        weakest = min(active, key=lambda j: (chasers[j], time_to_base(j)))
        dst_candidates = clusters_on[intercept_tid[weakest]]
        idle = [
            k for k in range(graph.n_clusters)
            if counts[k] > 0 and int(c2t[k]) not in active_tids
        ]
        donor_cluster = None
        if idle:
            donor_cluster = max(idle, key=lambda k: counts[k])
        else:
            over = [j for j in active if chasers[j] > quota and j != weakest]
            if over and chasers[weakest] < quota:
                j_over = max(over, key=lambda j: chasers[j])
                ks = [k for k in clusters_on[intercept_tid[j_over]] if counts[k] > 0]
                donor_cluster = max(ks, key=lambda k: counts[k])
        if donor_cluster is not None and len(dst_candidates):
            nonempty = [k for k in dst_candidates if counts[k] > 0]
            dst_c = int(max(nonempty, key=lambda k: counts[k]) if nonempty else dst_candidates[0])
            src_c = int(donor_cluster)
            if src_c == dst_c:
                src_c = dst_c = 0
    return OperatorAction(src_c, dst_c, src_t, dst_t)


def cmd_oracle(rc: RunConfig) -> dict:
    """Success rate of the scripted operator policy over eval_episodes.

    The scripted operator is the operator stage of ``training.rollout``, so
    the episodes run in the same lockstep loop as the learned policy's. It
    draws nothing from an episode's generator after ``reset``.
    """
    if not rc.coop_actions:
        raise ConfigError("the scripted oracle needs cooperative intercept targets")
    env_config = build_env_config(rc)
    graph0 = frozen_topology(rc, env_config, rc.seeds[0])

    def operate(alive, graphs, states, stack):
        for e in alive:
            graphs[e], _ = apply_operator_action(graphs[e], scripted_operator_action(graphs[e], states[e], env_config))

    rngs = episode_rngs(rc.seeds[0], rc.eval_episodes)
    # only the terminal step pays
    wins = sum(o.reward > 0 for *_, outcomes, _ in rollout(graph0, env_config, rngs, operate) for o in outcomes)
    return {"success": wins / rc.eval_episodes, "episodes": rc.eval_episodes}


def cmd_export_topology(
    rc: RunConfig,
    checkpoint: str,
    episode_seed: int,
    steps: list[int],
    out_dir: str | None = None,
) -> list[Path]:
    """Replay one greedy episode and dump DOT + JSON graph snapshots.

    Step t's snapshot is the graph step t starts from: step 0 is the frozen
    initial topology (identical across episodes); steps beyond the episode
    end are skipped with a warning. The replay stops once every wanted
    snapshot is written.
    """
    negative = [t for t in steps if t < 0]
    if negative:
        raise ConfigError(f"steps count from 0, not {negative[0]}")
    run = _load_fitting(checkpoint, build_env_config(rc))
    out = Path(out_dir or rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    wanted = set(steps)
    written: list[Path] = []

    def write(t, graph):
        if t in wanted:
            dot_path = out / f"topology_step_{t:04d}.dot"
            json_path = out / f"topology_step_{t:04d}.json"
            dot_path.write_text(to_dot(graph))
            json_path.write_text(to_json(graph))
            written.extend([dot_path, json_path])
            wanted.discard(t)

    write(0, run.graph0)
    if not wanted:  # the frozen topology needs no replay
        return written
    rngs = episode_rngs(episode_seed, 1)
    operate = policy_operator(run.params, run.env_config, rngs, "argmax", 0.0)
    for _, graphs, states, outcomes, _ in rollout(run.graph0, run.env_config, rngs, operate):
        # the graph that acted in this step is the one the next step starts from
        if not outcomes[0].done:
            write(states[0].t, graphs[0])
        if not wanted:
            break
    for t in sorted(wanted):
        print(f"warning: step {t} is beyond the episode end; skipped", file=sys.stderr)
    return written
