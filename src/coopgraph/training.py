"""PPO training loop over the four graph operators.

Rollouts treat the operator quadruple as the learning agent: per environment
step the operators rewire one agent edge and one cluster edge, the graph is
resolved into primitive actions, and the simulator advances. ``rollout`` is
the one episode loop: episodes start from one frozen initial topology and
run in lockstep, and each step an operator stage rewires every alive graph
(``policy_operator``, or the scripted oracle of ``runner.cmd_oracle``), one
array pass translates them and each episode steps. The policy stage builds
the node inputs in one pass and runs one batched forward on them; its
moves and interference stay per episode, so each episode's generator is
consumed in its own order. A small per-step probability replaces the
learned operator action with a random fake one (interference); those steps
are excluded from the policy surrogate but keep feeding the value targets.

Updates are clipped PPO with GAE, an entropy bonus and the auxiliary
reconstruction loss, over minibatches of shuffled timesteps.

``Trainer.save`` writes the trainer checkpoint (policy, frozen topology,
configs, trainer state, Adam's moments) that eval, transfer, topology export
and resumed training start from; ``load_run_checkpoint`` is its one reader.
The checkpoint is an npz archive: a JSON header entry, then the tensors,
each in its own dtype. This module is the only one that knows its layout.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor
from .env import EnvConfig, check_field_types, reset, stack_states, step, trajectory_record
from .graph import (
    CooperationGraph,
    GraphInvariantError,
    OperatorAction,
    apply_operator_action,
    from_json_dict,
    interfere,
    resolve_agent_actions,
    stack_graphs,
    to_json_dict,
)
from .policy import (
    PARAM_DTYPE,
    NodeBatch,
    ObsNormalizer,
    PolicyParams,
    act_batch,
    evaluate_actions,
    fold,
    init_params,
    layout_for,
    node_batch,
)

EPISODE_SEED_STRIDE = 10**6
PPO_REPORT_KEYS = ("L_policy", "L_value", "L_ae", "entropy")


def episode_rngs(seed: int, episodes: int, first: int = 0) -> list[np.random.Generator]:
    """One generator per episode: episode e's is seeded with
    seed * 10^6 + first + e, so an episode's stream does not depend on how
    many episodes run beside it or how they interleave."""
    return [np.random.default_rng(seed * EPISODE_SEED_STRIDE + first + e) for e in range(episodes)]


@dataclass(frozen=True)
class TrainConfig:
    """PPO hyperparameters; the stated defaults are the experiment settings."""

    lr: float = 1e-4
    ppo_epochs: int = 16
    entropy_coef: float = 0.01
    clip_eps: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    value_coef: float = 0.5
    ae_coef: float = 0.1
    grad_clip_norm: float = 10.0
    p_interference: float = 0.005
    batch_episodes: int = 128
    n_minibatches: int = 4

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.p_interference <= 1.0:
            raise ValueError("p_interference must be a probability")
        for name in ("lr", "ppo_epochs", "clip_eps", "gamma", "gae_lambda",
                     "batch_episodes", "n_minibatches", "grad_clip_norm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class RolloutBatch(NodeBatch):
    """Flat per-step arrays for one batch of episodes (episode order): the
    policy inputs of every step (the ``NodeBatch`` fields, T rows) and what
    followed from them.

    ``policy_operator`` records each step's columns by field name;
    ``collect`` takes rewards and dones from the step outcomes.
    """

    actions: np.ndarray            # (T, 4)
    log_probs: np.ndarray          # (T, 4) zero rows on interfered steps
    values: np.ndarray             # (T,)
    rewards: np.ndarray            # (T,)
    dones: np.ndarray              # (T,) bool
    interfered: np.ndarray         # (T,) bool
    episode_lengths: list[int]
    success_rate: float
    mean_return: float

    @property
    def n_steps(self) -> int:
        return len(self.rewards)

    @property
    def interference_count(self) -> int:
        return int(self.interfered.sum())


def rollout(
    graph0: CooperationGraph,
    env_config: EnvConfig,
    rngs: list[np.random.Generator],
    operate,
):
    """Run one episode per generator in lockstep from the frozen start topology.

    Each step stacks the alive states once and calls ``operate(alive,
    graphs, states, stack)``, which rewires ``graphs[e]`` for every alive e
    and returns the step's record; one ``resolve_agent_actions`` pass and one
    ``step`` per alive episode follow. Episode e draws from rngs[e] only at
    ``reset`` and in ``operate``. Yields ``(alive, graphs, states, outcomes,
    record)`` after each step, with the graphs that acted, the post-step
    states and one ``StepOutcome`` per alive episode.
    """
    states = [reset(env_config, rng) for rng in rngs]
    graphs: list[CooperationGraph] = [graph0] * len(rngs)
    alive = list(range(len(rngs)))
    while alive:
        stack = stack_states([states[e] for e in alive])
        record = operate(alive, graphs, states, stack)
        env_actions = resolve_agent_actions(stack_graphs([graphs[e] for e in alive]), stack, env_config)
        outcomes = []
        for row, e in enumerate(alive):
            states[e], outcome = step(states[e], env_actions[row], env_config)
            outcomes.append(outcome)
        yield alive, graphs, states, outcomes, record
        alive = [e for e, outcome in zip(alive, outcomes) if not outcome.done]


def policy_operator(
    params: PolicyParams,
    env_config: EnvConfig,
    rngs: list[np.random.Generator],
    mode: str,
    p_interference: float,
):
    """The learned operator stage of ``rollout``: one batched policy forward,
    then per episode the interference draw and the policy's or a fake move.

    Episode e consumes rngs[e] in a fixed order per step (four head samples
    in sample mode, the interference draw, any fake-action indices), so its
    result does not depend on which episodes run beside it. The record maps
    each ``RolloutBatch`` column the policy fills to the step's rows; an
    interfered row holds the fake action and zero log probabilities.

    The parameters are fixed for the whole rollout, so their folded weights
    are computed once, here.
    """
    with ad.no_grad():
        folded = fold(params)

    def operate(alive, graphs, states, stack):
        batch = node_batch(stack_graphs([graphs[e] for e in alive]), stack, env_config)
        actions, log_probs, values = act_batch(batch, folded, [rngs[e] for e in alive], mode=mode)
        interfered = np.zeros(len(alive), dtype=bool)
        for row, e in enumerate(alive):
            # drawn even at p=0, so every mode consumes the same stream
            if rngs[e].random() < p_interference:
                graphs[e], fake = interfere(graphs[e], rngs[e])
                actions[row] = fake.as_tuple()
                log_probs[row] = 0.0
                interfered[row] = True
            else:
                graphs[e], _ = apply_operator_action(graphs[e], OperatorAction(*actions[row]))
        return dict(vars(batch), actions=actions, log_probs=log_probs, values=values, interfered=interfered)
    return operate


def collect(
    graph0: CooperationGraph,
    params: PolicyParams,
    env_config: EnvConfig,
    config: TrainConfig,
    master_seed: int,
    episode_offset: int,
) -> RolloutBatch:
    """Roll out one batch of full episodes with the current policy snapshot.

    Runs the lockstep engine with the policy operator in sample mode with
    interference. Episode e uses ``episode_rngs(master_seed,
    batch_episodes, episode_offset)[e]``, so batches are reproducible no
    matter how the episodes are interleaved.
    """
    rngs = episode_rngs(master_seed, config.batch_episodes, episode_offset)
    operate = policy_operator(params, env_config, rngs, "sample", config.p_interference)
    ids, records, rewards, dones = [], [], [], []
    for alive, _, _, outcomes, record in rollout(graph0, env_config, rngs, operate):
        ids += alive
        records.append(record)
        rewards += [outcome.reward for outcome in outcomes]
        dones += [outcome.done for outcome in outcomes]
    # step-major rows to episode order; a stable sort keeps each episode's
    # steps in time order
    order = np.argsort(ids, kind="stable")
    columns = {name: np.concatenate([record[name] for record in records])[order] for name in records[0]}
    rewards, dones = np.array(rewards)[order], np.array(dones)[order]
    terminals = rewards[dones]
    return RolloutBatch(
        **columns, rewards=rewards, dones=dones,
        episode_lengths=np.bincount(ids, minlength=len(rngs)).tolist(),
        success_rate=float(np.mean(terminals > 0)),
        mean_return=float(np.mean(terminals)),
    )


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    gae_lambda: float,
) -> tuple[np.ndarray, np.ndarray]:
    """GAE(gamma, lambda) over episodes concatenated in order.

    Episodes always terminate, so the bootstrap value beyond a terminal step
    is 0. Returns (normalized advantages, value targets); the raw advantage
    plus the stored value gives the return target. Float32 values are
    widened, so the recursion runs in float64.
    """
    values = np.asarray(values, dtype=np.float64)
    T = len(rewards)
    adv = np.zeros(T, dtype=np.float64)
    last = 0.0
    for t in range(T - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        next_value = values[t + 1] if t + 1 < T else 0.0
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last = delta + gamma * gae_lambda * nonterminal * last
        adv[t] = last
    returns = adv + values
    normalized = (adv - adv.mean()) / (adv.std() + 1e-8)
    return normalized, returns


def ppo_update(
    params: PolicyParams,
    optimizer: Adam,
    batch: RolloutBatch,
    advantages: np.ndarray,
    returns: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Clipped-surrogate PPO over shuffled timestep minibatches.

    Interfered steps carry no learned action: they are dropped from the
    surrogate and the entropy bonus but still train the value head and the
    reconstruction branch. A non-finite loss or gradient raises
    NonFiniteError before Adam steps on it, so the parameters and Adam's
    state keep the values of the last finite step.
    """
    old_logp_sum = batch.log_probs.sum(axis=1)
    report = dict.fromkeys(PPO_REPORT_KEYS, 0.0)
    passes = 0
    for _ in range(config.ppo_epochs):
        perm = rng.permutation(batch.n_steps)
        for mb in np.array_split(perm, config.n_minibatches):
            if len(mb) == 0:
                continue
            losses = _minibatch_step(params, optimizer, batch, mb, advantages, returns, old_logp_sum, config)
            for key, loss in zip(PPO_REPORT_KEYS, losses):
                report[key] += loss
            passes += 1
    return {k: v / passes for k, v in report.items()}


def _minibatch_step(params, optimizer, batch, mb, advantages, returns, old_logp_sum, config):
    """One clipped-PPO gradient step on the timesteps ``mb``; returns the
    four losses in ``PPO_REPORT_KEYS`` order.

    Only floats leave this function, so the minibatch's tape and its
    gradients are freed on return, before the next minibatch builds its own.
    """
    const = params.constant
    out = evaluate_actions(batch.rows(mb), batch.actions[mb], params)
    valid = const(~batch.interfered[mb])
    n_valid = max(float(valid.data.sum()), 1.0)
    adv = const(advantages[mb])

    logp_new = ad.sum_(out["log_prob"], axis=1)
    ratio = ad.exp(ad.sub(logp_new, const(old_logp_sum[mb])))
    clipped = ad.clip(ratio, 1.0 - config.clip_eps, 1.0 + config.clip_eps)
    surrogate = ad.minimum(ad.mul(ratio, adv), ad.mul(clipped, adv))
    policy_loss = ad.mul(
        ad.sum_(ad.mul(surrogate, valid)), const(-1.0 / n_valid)
    )

    v_old = const(batch.values[mb])
    ret = const(returns[mb])
    v_new = out["value"]
    v_clipped = ad.add(v_old, ad.clip(ad.sub(v_new, v_old), -config.clip_eps, config.clip_eps))
    value_loss = ad.mean(
        ad.maximum(ad.square(ad.sub(v_new, ret)), ad.square(ad.sub(v_clipped, ret)))
    )

    ent_per_step = ad.sum_(out["entropy"], axis=1)
    entropy = ad.mul(ad.sum_(ad.mul(ent_per_step, valid)), const(1.0 / n_valid))

    total = ad.add(
        ad.add(policy_loss, ad.mul(value_loss, const(config.value_coef))),
        ad.add(
            ad.mul(entropy, const(-config.entropy_coef)),
            ad.mul(out["l_ae"], const(config.ae_coef)),
        ),
    )
    optimizer.zero_grad()
    ad.backward(total)
    ad.clip_grad_norm(optimizer.params, config.grad_clip_norm)
    optimizer.step()
    return (float(policy_loss.data), float(value_loss.data), float(out["l_ae"].data), float(entropy.data))


def evaluate_policy(
    graph0: CooperationGraph,
    params: PolicyParams,
    env_config: EnvConfig,
    seed: int,
    episodes: int,
    trajectory_path: str | Path | None = None,
) -> float:
    """Greedy success rate over seeded episodes.

    Runs the lockstep engine with the policy operator in argmax mode with no
    interference and the frozen normalizer, dropping its step records.
    Episode e uses ``episode_rngs(seed, episodes)[e]``. With a path, writes
    the per-step trajectory rows as JSONL in episode order.
    """
    rngs = episode_rngs(seed, episodes)
    operate = policy_operator(params, env_config, rngs, "argmax", 0.0)
    trajectories = [[] for _ in range(episodes)]
    wins = 0
    for alive, _, states, outcomes, _ in rollout(graph0, env_config, rngs, operate):
        for e, outcome in zip(alive, outcomes):
            if trajectory_path:
                trajectories[e].append(trajectory_record(states[e], outcome.reward))
            wins += outcome.reward > 0  # only the terminal step pays
    if trajectory_path:
        with open(trajectory_path, "w") as traj_file:
            for rows in trajectories:
                for row in rows:
                    traj_file.write(json.dumps(row) + "\n")
    return wins / episodes


# ---------------------------------------------------------------------------
# the trainer checkpoint
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 2
# the header keys, in the order they are written
HEADER_KEYS = (
    "format_version", "hidden", "normalizer", "initial_topology", "env_config", "train_config", "trainer_state",
)
# the trainer_state keys, in the order they are written; Trainer.restore reads each
TRAINER_STATE_KEYS = ("master_seed", "update", "episodes", "best_success", "rng_update", "adam_t")
# the archive names of Adam's first and second moment of a parameter
MOMENT_PREFIXES = ("extra.adam.m.", "extra.adam.v.")


@dataclass(frozen=True)
class RunCheckpoint:
    """A trainer checkpoint read back; ``adam_m`` and ``adam_v`` are Adam's
    moments by parameter name, in the parameters' dtype; ``trainer_state``
    holds the ``TRAINER_STATE_KEYS``: the master seed, counters, shuffle-rng
    state and Adam step."""

    params: PolicyParams
    graph0: CooperationGraph
    env_config: EnvConfig
    train_config: TrainConfig
    trainer_state: dict
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]


def load_run_checkpoint(path: str | Path) -> RunCheckpoint:
    """The one reader of the checkpoints ``Trainer.save`` writes.

    Rejects a file that is no npz archive with a ``header`` entry, and a
    cut or damaged one: every entry's CRC-32 is checked before any entry
    is parsed. Then the header:
    it must be a JSON object of this format version, holding every
    ``HEADER_KEYS`` key and every ``TRAINER_STATE_KEYS`` key in its trainer
    state, whose topology, env and train configs and normalizer decode,
    with no config key their types lack. The layout is not stored: it is
    the one the topology and env config give at the header's ``hidden``.
    Then one schema check: every tensor of ``init_params`` for that layout
    is there with its two Adam moments, all of its shape, and nothing else
    is. Every refusal is a ``ValueError`` naming the path. Tensors come back
    rounded to ``PARAM_DTYPE``.
    """
    with open(path, "rb") as f:
        try:
            archive = np.load(f)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            if "header" not in archive.files:
                raise ValueError("no header entry")
            # before any parsing: a damaged npy header can raise a bare
            # tokenize.TokenError
            damaged = archive.zip.testzip()
            if damaged is not None:
                raise ValueError(f"entry {damaged} is damaged")
            found = {name: archive[name] for name in archive.files}
        # besides BadZipFile, zipfile raises RuntimeError (NotImplementedError
        # among them) for a flag or method it does not support and OSError
        # for an offset before the file's start
        except (EOFError, OSError, RuntimeError, ValueError, zipfile.BadZipFile) as e:
            raise ValueError(f"{path} is not a trainer checkpoint ({e})") from None
    try:
        header = json.loads(str(found.pop("header")))
        if not isinstance(header, dict):
            raise ValueError("checkpoint header is not a JSON object")
        version = header["format_version"]
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"checkpoint format version {version!r}, expected {CHECKPOINT_VERSION}")
        trainer_state = {key: header["trainer_state"][key] for key in TRAINER_STATE_KEYS}
        graph0 = from_json_dict(header["initial_topology"])
        env_config = EnvConfig.from_json_dict(header["env_config"])
        train_config = TrainConfig(**header["train_config"])
        normalizer = ObsNormalizer.from_state(header["normalizer"])
        layout = layout_for(graph0, env_config, hidden=header["hidden"])
        schema = init_params(layout, np.random.default_rng(0)).tensors
    except KeyError as e:
        raise ValueError(f"{path}: checkpoint header lacks {e}") from None
    except (GraphInvariantError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None

    # parameters first, so a missing parameter is named before its moments
    expected = {
        prefix + name: schema[name].shape for prefix in ("", *MOMENT_PREFIXES) for name in sorted(schema)
    }
    unexpected = [name for name in found if name not in expected]
    if unexpected:
        raise ValueError(f"{path}: unexpected tensor {unexpected[0]} for layout {layout}")
    for name, shape in expected.items():
        if name not in found:
            raise ValueError(f"{path}: tensor {name} is missing")
        if found[name].shape != shape:
            raise ValueError(f"{path}: tensor {name} has shape {found[name].shape}, its layout needs {shape}")

    # in archive order: clip_grad_norm sums the gradient norms in this order
    tensors = {
        name: Tensor(arr.astype(PARAM_DTYPE), requires_grad=True) for name, arr in found.items() if name in schema
    }
    m, v = ({name: found[prefix + name].astype(PARAM_DTYPE) for name in tensors} for prefix in MOMENT_PREFIXES)
    params = PolicyParams(layout, tensors, normalizer)
    return RunCheckpoint(params, graph0, env_config, train_config, trainer_state, m, v)


# ---------------------------------------------------------------------------
# training orchestration
# ---------------------------------------------------------------------------


@dataclass
class TrainSettings:
    """Run-length and logging knobs (everything PPO-critical is TrainConfig)."""

    total_updates: int = 2000
    eval_every: int = 10
    eval_episodes: int = 32
    checkpoint_every: int = 50
    stop_success: float | None = None

    def __post_init__(self):
        check_field_types(self)
        # eval_every and checkpoint_every at 0 turn those off
        for name in ("total_updates", "eval_every", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")
        if self.stop_success is not None and not 0.0 <= self.stop_success <= 1.0:
            raise ValueError("stop_success must be a success rate in [0, 1]")


def _truncate_log(path: Path, update: int) -> None:
    """Keep the records of a JSONL log up to ``update``, if the log exists;
    a line cut short by an interruption ends the kept part too."""
    if not path.exists():
        return
    kept = []
    for line in path.read_text().splitlines(keepends=True):
        try:
            if json.loads(line)["update"] > update:
                break
        except ValueError:
            break
        kept.append(line)
    path.write_text("".join(kept))


class Trainer:
    """Alternates collect / ppo_update, logging metrics and checkpoints.

    Checkpoints carry the full trainer state (optimizer moments, episode
    counter, shuffle-rng state, frozen topology), so a resumed run replays
    the exact metric stream of an uninterrupted one. Restoring into the
    run's own directory cuts ``metrics.jsonl`` and ``eval.jsonl`` back to
    the checkpoint's update, so the resumed logs match an uninterrupted
    run's byte for byte. ``checkpoint_last.ckpt`` is rewritten at every eval
    and periodic checkpoint and when the run ends, so a killed run resumes
    from its last eval or checkpoint; a run that reached ``stop_success``
    stays stopped when resumed.
    """

    def __init__(
        self,
        graph0: CooperationGraph,
        params: PolicyParams,
        env_config: EnvConfig,
        train_config: TrainConfig,
        settings: TrainSettings,
        master_seed: int,
        out_dir: str | Path,
    ):
        self.graph0 = graph0
        self.params = params
        self.env_config = env_config
        self.train_config = train_config
        self.settings = settings
        self.master_seed = master_seed
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.optimizer = Adam(dict(params.tensors), lr=train_config.lr)
        self.rng_update = np.random.default_rng([master_seed, 1])
        self.update = 0
        self.episodes = 0
        self.best_success = -1.0

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trainer checkpoint: an npz archive of the JSON header,
        then the parameters by name, then Adam's first and second moments
        by name, each in its own dtype.

        Written beside the target and renamed over it, so a reader never
        sees a partial file.
        """
        names = sorted(self.params.tensors)
        entries = {name: self.params.tensors[name].data for name in names}
        for prefix, moments in zip(MOMENT_PREFIXES, (self.optimizer.m, self.optimizer.v)):
            entries.update((prefix + name, moments[name]) for name in names)
        trainer_state = dict(zip(TRAINER_STATE_KEYS, (
            self.master_seed, self.update, self.episodes, self.best_success,
            self.rng_update.bit_generator.state, self.optimizer.t,
        ), strict=True))
        header = dict(zip(HEADER_KEYS, (
            CHECKPOINT_VERSION, self.params.layout.hidden, self.params.normalizer.state_dict(),
            to_json_dict(self.graph0), self.env_config.to_json_dict(), asdict(self.train_config), trainer_state,
        ), strict=True))
        tmp = Path(f"{path}.tmp")
        try:
            with open(tmp, "wb") as f:
                np.savez(f, header=np.array(json.dumps(header)), **entries)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def restore(
        cls,
        checkpoint: str | Path,
        settings: TrainSettings,
        out_dir: str | Path,
    ) -> "Trainer":
        run = load_run_checkpoint(checkpoint)
        state = run.trainer_state
        trainer = cls(
            run.graph0, run.params, run.env_config, run.train_config,
            settings, master_seed=state["master_seed"], out_dir=out_dir,
        )
        trainer.update = state["update"]
        trainer.episodes = state["episodes"]
        trainer.best_success = state["best_success"]
        trainer.rng_update.bit_generator.state = state["rng_update"]
        trainer.optimizer.t = state["adam_t"]
        trainer.optimizer.m, trainer.optimizer.v = run.adam_m, run.adam_v
        # a run resumed in its own directory rewrites every record after the
        # checkpoint, so those go
        for log in ("metrics.jsonl", "eval.jsonl"):
            _truncate_log(trainer.out_dir / log, trainer.update)
        return trainer

    # -- main loop -----------------------------------------------------------

    def _reached_stop(self) -> bool:
        stop = self.settings.stop_success
        return stop is not None and self.best_success >= stop

    def run(self) -> dict:
        metrics_path = self.out_dir / "metrics.jsonl"
        eval_path = self.out_dir / "eval.jsonl"
        mode = "a" if self.update > 0 else "w"
        with open(metrics_path, mode) as metrics_file, open(eval_path, mode) as eval_file:
            while self.update < self.settings.total_updates and not self._reached_stop():
                batch = collect(
                    self.graph0, self.params, self.env_config, self.train_config,
                    self.master_seed, self.episodes,
                )
                advantages, returns = compute_gae(
                    batch.rewards, batch.values, batch.dones,
                    self.train_config.gamma, self.train_config.gae_lambda,
                )
                report = ppo_update(
                    self.params, self.optimizer, batch, advantages, returns,
                    self.train_config, self.rng_update,
                )
                self.params.normalizer.update(batch.obs)
                self.update += 1
                self.episodes += self.train_config.batch_episodes

                record = {
                    "update": self.update,
                    "episodes": self.episodes,
                    "success_rate": batch.success_rate,
                    "mean_return": batch.mean_return,
                    **report,
                    "interference_count": batch.interference_count,
                }
                metrics_file.write(json.dumps(record) + "\n")
                metrics_file.flush()

                evaluated = self.settings.eval_every and self.update % self.settings.eval_every == 0
                if evaluated:
                    success = evaluate_policy(
                        self.graph0, self.params, self.env_config,
                        seed=self.master_seed + 500_000,
                        episodes=self.settings.eval_episodes,
                    )
                    eval_file.write(json.dumps({"update": self.update, "eval_success": success}) + "\n")
                    eval_file.flush()
                    if success > self.best_success:
                        self.best_success = success
                        self.save(self.out_dir / "checkpoint_best.ckpt")
                    if self._reached_stop():
                        break
                periodic = self.settings.checkpoint_every and self.update % self.settings.checkpoint_every == 0
                if periodic:
                    self.save(self.out_dir / f"checkpoint_{self.update:06d}.ckpt")
                if evaluated or periodic:
                    self.save(self.out_dir / "checkpoint_last.ckpt")

        self.save(self.out_dir / "checkpoint_last.ckpt")
        return {
            "updates": self.update,
            "episodes": self.episodes,
            "best_success": self.best_success,
        }
