"""PPO training loop over the four graph operators.

Rollouts treat the operator quadruple as the learning agent: per environment
step the operators rewire one agent edge and one cluster edge, the graph is
resolved into primitive actions, and the simulator advances. Episodes always
start from one frozen initial topology and run in lockstep: each step stacks
the alive episodes' states and graphs once, builds the node inputs, masks
and primitive actions of all of them in one array pass each, and runs one
batched policy forward; the operator actions, interference and ``env.step``
stay per episode, so each episode's generator is consumed in its own order.
A small per-step probability replaces the learned operator action with a
random fake one (interference); those steps are excluded from the policy
surrogate but keep feeding the value targets.

Updates are clipped PPO with GAE, an entropy bonus and the auxiliary
reconstruction loss, over minibatches of shuffled timesteps.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor
from .env import EnvConfig, PrimitiveSet, reset, stack_states, step, trajectory_record
from .graph import (
    CooperationGraph,
    OperatorAction,
    action_masks,
    apply_operator_action,
    from_json_dict,
    interfere,
    resolve_agent_actions,
    stack_graphs,
    to_json_dict,
)
from .policy import (
    NodeBatch,
    PolicyParams,
    act_batch,
    evaluate_actions,
    load_checkpoint,
    node_batch,
    save_checkpoint,
)

EPISODE_SEED_STRIDE = 10**6


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
        if not 0.0 <= self.p_interference <= 1.0:
            raise ValueError("p_interference must be a probability")
        for name in ("lr", "ppo_epochs", "clip_eps", "gamma", "gae_lambda",
                     "batch_episodes", "n_minibatches", "grad_clip_norm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class RolloutBatch:
    """Flat per-step arrays for one batch of episodes (episode order).

    ``rollout`` records each step as one tuple in this field order.
    """

    obs: np.ndarray                # (T, n_env, d_obs)
    target_reps: np.ndarray        # (T, n_targets, d_raw)
    agent_to_cluster: np.ndarray   # (T, n_lower)
    cluster_to_target: np.ndarray  # (T, n_clusters)
    cluster_masks: np.ndarray      # (T, n_clusters) bool
    target_masks: np.ndarray       # (T, n_targets) bool
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

    def node_slice(self, idx: np.ndarray) -> NodeBatch:
        return NodeBatch(
            obs=self.obs[idx],
            target_reps=self.target_reps[idx],
            agent_to_cluster=self.agent_to_cluster[idx],
            cluster_to_target=self.cluster_to_target[idx],
        )


def rollout(
    graph0: CooperationGraph,
    params: PolicyParams,
    env_config: EnvConfig,
    rngs: list[np.random.Generator],
    mode: str = "sample",
    p_interference: float = 0.0,
    record_steps: bool = True,
    on_step=None,
    trajectories: list[list] | None = None,
):
    """Run one episode per generator in lockstep from the frozen start topology.

    Every step stacks the still-alive episodes (``stack_states``,
    ``stack_graphs``) and builds their node batch, masks and primitive
    actions in one pass each, with one batched policy forward. Episode e
    consumes rngs[e] in a fixed order (reset, then per step: four head
    samples in sample mode, the interference draw and any fake-action
    indices), so its result does not depend on which episodes run beside it.

    ``on_step(t, graph, state)`` fires for each alive episode at the start of
    each step, before the operators act (so t=0 sees the frozen initial
    topology). ``trajectories[e]`` collects episode e's post-step records.
    Returns (per-episode step tuples in RolloutBatch field order, or None;
    terminal rewards; episode lengths).
    """
    B = len(rngs)
    states = [reset(env_config, rng) for rng in rngs]
    graphs: list[CooperationGraph] = [graph0] * B
    steps: list[list[tuple]] | None = [[] for _ in range(B)] if record_steps else None
    terminals = [0.0] * B
    lengths = [0] * B
    alive = list(range(B))

    while alive:
        if on_step is not None:
            for e in alive:
                on_step(states[e].t, graphs[e], states[e])
        stack = stack_states([states[e] for e in alive])
        before = stack_graphs([graphs[e] for e in alive])
        batch = node_batch(before, stack, env_config)
        masks = action_masks(before)
        cmask, tmask = masks.cluster_mask, masks.target_mask
        actions, log_probs, values = act_batch(
            batch, cmask, tmask, params, [rngs[e] for e in alive], mode=mode,
        )

        applied, interfered = [], []
        for row, e in enumerate(alive):
            # drawn even at p=0, so every mode consumes the same stream
            fake = rngs[e].random() < p_interference
            if fake:
                graphs[e], action = interfere(graphs[e], rngs[e])
            else:
                action = OperatorAction(*actions[row])
                graphs[e], _ = apply_operator_action(graphs[e], action)
            applied.append(action)
            interfered.append(fake)
        env_actions = resolve_agent_actions(stack_graphs([graphs[e] for e in alive]), stack, env_config)

        next_alive = []
        for row, e in enumerate(alive):
            states[e], outcome = step(states[e], env_actions[row], env_config)
            if trajectories is not None:
                trajectories[e].append(trajectory_record(states[e], outcome.reward))
            if steps is not None:
                steps[e].append((
                    batch.obs[row], batch.target_reps[row],
                    batch.agent_to_cluster[row], batch.cluster_to_target[row],
                    cmask[row], tmask[row],
                    np.array(applied[row].as_tuple()),
                    np.zeros(4) if interfered[row] else log_probs[row],
                    values[row], outcome.reward, outcome.done, interfered[row],
                ))
            lengths[e] += 1
            if outcome.done:
                terminals[e] = outcome.reward
            else:
                next_alive.append(e)
        alive = next_alive
    return steps, terminals, lengths


def collect(
    graph0: CooperationGraph,
    params: PolicyParams,
    env_config: EnvConfig,
    config: TrainConfig,
    master_seed: int,
    episode_offset: int,
) -> RolloutBatch:
    """Roll out one batch of full episodes with the current policy snapshot.

    Runs the lockstep engine in sample mode with interference and recording
    on. Episode e uses its own generator seeded with
    master_seed * 10^6 + episode_offset + e, so batches are reproducible no
    matter how the episodes are interleaved.
    """
    rngs = [
        np.random.default_rng(master_seed * EPISODE_SEED_STRIDE + episode_offset + e)
        for e in range(config.batch_episodes)
    ]
    steps, terminals, lengths = rollout(
        graph0, params, env_config, rngs, p_interference=config.p_interference,
    )
    columns = zip(*(s for episode in steps for s in episode))
    return RolloutBatch(
        *(np.stack(column) for column in columns),
        episode_lengths=lengths,
        success_rate=float(np.mean([t > 0 for t in terminals])),
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
    plus the stored value gives the return target.
    """
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
    reconstruction branch.
    """
    T = batch.n_steps
    old_logp_sum = batch.log_probs.sum(axis=1)
    report = {"L_policy": 0.0, "L_value": 0.0, "L_ae": 0.0, "entropy": 0.0}

    # per-op finiteness validation is hoisted to the loss level here: the
    # total loss aggregates every branch, so non-finite values still abort,
    # without paying an isfinite scan per op in the hottest loop
    finite_prev = ad.set_finite_checks(False)
    try:
        return _ppo_epochs(params, optimizer, batch, advantages, returns, config, rng,
                           T, old_logp_sum, report)
    finally:
        ad.set_finite_checks(finite_prev)


def _ppo_epochs(params, optimizer, batch, advantages, returns, config, rng,
                T, old_logp_sum, report):
    passes = 0
    for _ in range(config.ppo_epochs):
        perm = rng.permutation(T)
        for mb in np.array_split(perm, config.n_minibatches):
            if len(mb) == 0:
                continue
            out = evaluate_actions(
                batch.node_slice(mb),
                batch.actions[mb],
                batch.cluster_masks[mb],
                batch.target_masks[mb],
                params,
            )
            valid = (~batch.interfered[mb]).astype(np.float64)
            n_valid = max(valid.sum(), 1.0)
            adv = Tensor(advantages[mb])

            logp_new = ad.sum_(out["log_prob"], axis=1)
            ratio = ad.exp(ad.sub(logp_new, Tensor(old_logp_sum[mb])))
            clipped = ad.clip(ratio, 1.0 - config.clip_eps, 1.0 + config.clip_eps)
            surrogate = ad.minimum(ad.mul(ratio, adv), ad.mul(clipped, adv))
            policy_loss = ad.mul(
                ad.sum_(ad.mul(surrogate, Tensor(valid))), Tensor(-1.0 / n_valid)
            )

            v_old = Tensor(batch.values[mb])
            ret = Tensor(returns[mb])
            v_new = out["value"]
            v_clipped = ad.add(v_old, ad.clip(ad.sub(v_new, v_old), -config.clip_eps, config.clip_eps))
            value_loss = ad.mean(
                ad.maximum(ad.square(ad.sub(v_new, ret)), ad.square(ad.sub(v_clipped, ret)))
            )

            ent_per_step = ad.sum_(out["entropy"], axis=1)
            entropy = ad.mul(ad.sum_(ad.mul(ent_per_step, Tensor(valid))), Tensor(1.0 / n_valid))

            total = ad.add(
                ad.add(policy_loss, ad.mul(value_loss, Tensor(config.value_coef))),
                ad.add(
                    ad.mul(entropy, Tensor(-config.entropy_coef)),
                    ad.mul(out["l_ae"], Tensor(config.ae_coef)),
                ),
            )
            if not np.isfinite(total.data):
                raise RuntimeError(
                    "PPO update aborted on non-finite loss: "
                    f"policy={policy_loss.data}, value={value_loss.data}, "
                    f"entropy={entropy.data}, ae={out['l_ae'].data}"
                )
            optimizer.zero_grad()
            ad.backward(total)
            ad.clip_grad_norm(optimizer.params.values(), config.grad_clip_norm)
            optimizer.step()

            report["L_policy"] += float(policy_loss.data)
            report["L_value"] += float(value_loss.data)
            report["L_ae"] += float(out["l_ae"].data)
            report["entropy"] += float(entropy.data)
            passes += 1

    return {k: v / passes for k, v in report.items()}


def evaluate_policy(
    graph0: CooperationGraph,
    params: PolicyParams,
    env_config: EnvConfig,
    seed: int,
    episodes: int,
    trajectory_path: str | Path | None = None,
) -> float:
    """Greedy success rate over seeded episodes.

    Runs the lockstep engine in argmax mode with no interference, the frozen
    normalizer and no step records. Episode e uses the generator seeded with
    seed * 10^6 + e. With a path, writes the per-step trajectory rows as
    JSONL in episode order.
    """
    rngs = [np.random.default_rng(seed * EPISODE_SEED_STRIDE + e) for e in range(episodes)]
    trajectories = [[] for _ in range(episodes)] if trajectory_path else None
    _, terminals, _ = rollout(
        graph0, params, env_config, rngs,
        mode="argmax", record_steps=False, trajectories=trajectories,
    )
    if trajectory_path:
        with open(trajectory_path, "w") as traj_file:
            for rows in trajectories:
                for row in rows:
                    traj_file.write(json.dumps(row) + "\n")
    return sum(t > 0 for t in terminals) / episodes


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
    run's byte for byte.
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

    def _trainer_header(self) -> dict:
        env = asdict(self.env_config)
        env["primitive_set"] = self.env_config.primitive_set.value
        return {
            "initial_topology": to_json_dict(self.graph0),
            "env_config": env,
            "train_config": asdict(self.train_config),
            "trainer_state": {
                "master_seed": self.master_seed,
                "update": self.update,
                "episodes": self.episodes,
                "best_success": self.best_success,
                "rng_update": self.rng_update.bit_generator.state,
                "adam_t": self.optimizer.t,
            },
        }

    def save(self, path: str | Path) -> None:
        extra = {}
        for name in self.optimizer.params:
            extra[f"adam.m.{name}"] = self.optimizer.m[name]
            extra[f"adam.v.{name}"] = self.optimizer.v[name]
        save_checkpoint(path, self.params, extra_tensors=extra, extra_header=self._trainer_header())

    @classmethod
    def restore(
        cls,
        checkpoint: str | Path,
        settings: TrainSettings,
        out_dir: str | Path,
    ) -> "Trainer":
        params, extra, header = load_checkpoint(checkpoint)
        env_kwargs = dict(header["env_config"])
        env_kwargs["primitive_set"] = PrimitiveSet(env_kwargs["primitive_set"])
        env_config = EnvConfig(**env_kwargs)
        train_config = TrainConfig(**header["train_config"])
        graph0 = from_json_dict(header["initial_topology"])
        state = header["trainer_state"]
        trainer = cls(
            graph0, params, env_config, train_config, settings,
            master_seed=state["master_seed"], out_dir=out_dir,
        )
        trainer.update = state["update"]
        trainer.episodes = state["episodes"]
        trainer.best_success = state["best_success"]
        trainer.rng_update.bit_generator.state = state["rng_update"]
        trainer.optimizer.t = state["adam_t"]
        for name in trainer.optimizer.params:
            if f"adam.m.{name}" in extra:
                trainer.optimizer.m[name] = extra[f"adam.m.{name}"].copy()
                trainer.optimizer.v[name] = extra[f"adam.v.{name}"].copy()
        # a run resumed in its own directory rewrites every record after the
        # checkpoint, so those go
        for log in ("metrics.jsonl", "eval.jsonl"):
            _truncate_log(trainer.out_dir / log, trainer.update)
        return trainer

    # -- main loop -----------------------------------------------------------

    def run(self) -> dict:
        metrics_path = self.out_dir / "metrics.jsonl"
        eval_path = self.out_dir / "eval.jsonl"
        mode = "a" if self.update > 0 else "w"
        with open(metrics_path, mode) as metrics_file, open(eval_path, mode) as eval_file:
            while self.update < self.settings.total_updates:
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
                    "L_policy": report["L_policy"],
                    "L_value": report["L_value"],
                    "L_ae": report["L_ae"],
                    "entropy": report["entropy"],
                    "interference_count": batch.interference_count,
                }
                metrics_file.write(json.dumps(record) + "\n")
                metrics_file.flush()

                if self.settings.eval_every and self.update % self.settings.eval_every == 0:
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
                    if (
                        self.settings.stop_success is not None
                        and success >= self.settings.stop_success
                    ):
                        break
                if self.settings.checkpoint_every and self.update % self.settings.checkpoint_every == 0:
                    self.save(self.out_dir / f"checkpoint_{self.update:06d}.ckpt")

        self.save(self.out_dir / "checkpoint_last.ckpt")
        return {
            "updates": self.update,
            "episodes": self.episodes,
            "best_success": self.best_success,
        }
