"""Swarm-interception benchmark environment.

A team of defender agents protects ground bases from invaders descending
through a cubic arena. An invader slows down once enough defenders track it
and turns back for good when the tracker count reaches the task threshold.
The team reward is sparse: +1 when every base survives the episode, -1 the
moment any base is destroyed, 0 otherwise.

Tasks are named ``CSI-<N>/<k>/<m>``: N defenders, k trackers needed to turn
an invader back, m invaders.

``step`` advances one episode per call. Its invader update and its
base-destruction check are each one array pass over all m invaders, with
the same bits as updating the invaders one at a time: each per-invader
norm is a ``row_norms`` row. The move-direction tables are built once and
read-only. Per config, ``step`` builds its ``v_def``-scaled move table and
its three-level invader speed table at its first call, not at import. It
skips work a step does not need: the slow/turn-back update when no active
invader has ``slow_count`` trackers, the guard against a zero norm when
every invader is off its base, the retreat update while every invader is
active, and the copy of ``base_alive`` when no base falls.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import cached_property

import numpy as np


class TaskNameError(ValueError):
    """Raised when a task name does not match the CSI-<N>/<k>/<m> grammar."""


class PrimitiveSet(Enum):
    """Which primitive move actions exist as graph targets.

    NONE keeps the graph free of primitive targets; agents then move only
    through cooperative-command translation, which falls back to the six
    axis directions.
    """

    NONE = "none"
    SIX = "six"
    FOURTEEN = "fourteen"

    @classmethod
    def from_name(cls, name: str) -> "PrimitiveSet":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown primitive set {name!r}; expected none|six|fourteen") from None


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


_AXIS_DIRS = _frozen(np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    dtype=np.float64,
))
_DIAG_DIRS = (
    np.array(
        [
            [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
            [-1, 1, 1], [-1, 1, -1], [-1, -1, 1], [-1, -1, -1],
        ],
        dtype=np.float64,
    )
    / math.sqrt(3.0)
)
_FOURTEEN_DIRS = _frozen(np.concatenate([_AXIS_DIRS, _DIAG_DIRS], axis=0))
_NO_DIRS = _frozen(np.zeros((0, 3), dtype=np.float64))


def primitive_directions(primitive_set: PrimitiveSet) -> np.ndarray:
    """Unit move directions exposed as primitive graph targets (may be empty).

    The table is shared and read-only; copy it before writing.
    """
    if primitive_set is PrimitiveSet.NONE:
        return _NO_DIRS
    if primitive_set is PrimitiveSet.SIX:
        return _AXIS_DIRS
    return _FOURTEEN_DIRS


def move_directions(primitive_set: PrimitiveSet) -> np.ndarray:
    """Physical action directions the environment accepts (shared, read-only).

    With ``NONE`` the graph exposes no primitive targets, but cooperative
    commands still have to be translated into some motion; the six axis
    directions serve as that fallback action space.
    """
    if primitive_set is PrimitiveSet.NONE:
        return _AXIS_DIRS
    return primitive_directions(primitive_set)


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, d) array.

    The sqrt of a matmul row dot, which gives the bits ``np.linalg.norm``
    gives for each row alone (a BLAS dot); ``np.linalg.norm(x, axis=1)``
    sums the squares differently and can differ in the last bit.
    """
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


# a declared field type (an annotation string) -> the value types it
# takes, and their name in a message
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number or null"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "dict": ((dict,), "a JSON object"),
}


def check_field_types(config) -> None:
    """Raise ValueError naming the first field of a dataclass whose value is
    not of its declared type: an int field takes no bool or float, a float
    field an int or a float but no bool, and a ``float | None`` field also
    null. Other types are not checked."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _FIELD_TYPES:
            types, name = _FIELD_TYPES[f.type]
            if type(value) not in types:
                raise ValueError(f"{f.name} must be {name}, got {value!r}")


def parse_task_name(name: str) -> tuple[int, int, int]:
    """Parse ``CSI-<N>/<k>/<m>`` into (n_agents, k_threshold, m_invaders)."""
    m = re.fullmatch(r"CSI-([^/]*)/([^/]*)/([^/]*)", name)
    if m is None:
        raise TaskNameError(f"task {name!r} does not match CSI-<N>/<k>/<m>")
    fields = ("defender count N", "turn-back threshold k", "invader count m")
    values = []
    for label, text in zip(fields, m.groups()):
        if not re.fullmatch(r"\d+", text):
            raise TaskNameError(f"task {name!r}: {label} is not a positive integer (got {text!r})")
        values.append(int(text))
    n, k, mm = values
    if n < 1 or k < 1 or mm < 1:
        bad = fields[values.index(min(values))]
        raise TaskNameError(f"task {name!r}: {bad} must be >= 1")
    return n, k, mm


@dataclass(frozen=True)
class EnvConfig:
    """Environment parameters; defaults give a solvable default physics.

    Invariants enforced at construction: k_threshold >= slow_count >= 1 and
    v_def > v_inv * slow_fraction, so a slowed invader is always catchable.
    """

    n_agents: int
    k_threshold: int
    m_invaders: int
    n_bases: int = 4
    world_extent: float = 100.0
    v_def: float = 1.0
    v_inv: float = 0.8
    r_track: float = 5.0
    r_destroy: float = 2.0
    slow_fraction: float = 0.5
    slow_count: int = 0  # 0 -> ceil(k_threshold / 2)
    t_max: int = 200
    primitive_set: PrimitiveSet = PrimitiveSet.SIX

    def __post_init__(self):
        check_field_types(self)
        if self.slow_count == 0:
            object.__setattr__(self, "slow_count", max(1, math.ceil(self.k_threshold / 2)))
        if not (self.k_threshold >= self.slow_count >= 1):
            raise ValueError(
                f"need k_threshold >= slow_count >= 1, got k={self.k_threshold}, slow_count={self.slow_count}"
            )
        if not self.v_def > self.v_inv * self.slow_fraction:
            raise ValueError("v_def must exceed v_inv * slow_fraction or slowed invaders escape")
        if self.r_track <= 0 or self.t_max < 1 or self.n_bases < 1 or self.world_extent <= 0:
            raise ValueError("r_track, t_max, n_bases, world_extent must be positive")

    @property
    def move_dirs(self) -> np.ndarray:
        return move_directions(self.primitive_set)

    @cached_property
    def _step_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``step``'s read-only tables, built on first use: the agent move
        per action id (``v_def`` times its direction) and the invader speed
        per level (free, slowed, turned back)."""
        speeds = np.array([self.v_inv, self.v_inv * self.slow_fraction, self.v_inv])
        return _frozen(self.v_def * self.move_dirs), _frozen(speeds)

    def to_json_dict(self) -> dict:
        """Every field as plain JSON, the primitive set by its name."""
        doc = asdict(self)
        doc["primitive_set"] = self.primitive_set.value
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EnvConfig":
        """Inverse of ``to_json_dict``."""
        return cls(**{**doc, "primitive_set": PrimitiveSet(doc["primitive_set"])})


@dataclass
class EnvState:
    """Full simulator state. Treated as immutable; step() returns a new one."""

    t: int
    agent_pos: np.ndarray       # (N, 3)
    invader_pos: np.ndarray     # (m, 3)
    invader_target: np.ndarray  # (m,) base index
    invader_active: np.ndarray  # (m,) bool; False = neutralized (absorbing)
    invader_heading: np.ndarray  # (m, 3) frozen retreat heading once neutralized
    base_pos: np.ndarray        # (n_bases, 3)
    base_alive: np.ndarray      # (n_bases,) bool

    @property
    def base_centroid(self) -> np.ndarray:
        return self.base_pos.mean(axis=0)


def stack_states(states: list[EnvState]) -> EnvState:
    """The states of B lockstep episodes of one config as one EnvState whose
    every field carries a leading episode axis (``t`` becomes a (B,) array).

    The observation, translation and target-row passes read such a stack as
    B episodes at once; ``step`` takes one episode's state only.
    """
    return EnvState(*(np.stack([getattr(s, f.name) for s in states]) for f in fields(EnvState)))


@dataclass
class StepOutcome:
    reward: float
    done: bool


def reset(config: EnvConfig, rng: np.random.Generator) -> EnvState:
    """Spawn a new episode; deterministic given the generator state.

    Bases sit on the ground face with pairwise separation of at least a
    quarter of the arena, defenders spawn in a box around the base centroid,
    invaders enter on the top face with uniform (x, y) and a uniformly
    chosen target base.
    """
    ext = config.world_extent

    base_pos = np.zeros((config.n_bases, 3), dtype=np.float64)
    lo, hi = 0.15 * ext, 0.85 * ext
    for i in range(config.n_bases):
        for _ in range(10000):
            xy = rng.uniform(lo, hi, size=2)
            if i == 0 or np.min(np.linalg.norm(base_pos[:i, :2] - xy, axis=1)) >= ext / 4:
                base_pos[i, :2] = xy
                break
        else:
            raise RuntimeError("could not place bases with the required separation")

    centroid = base_pos.mean(axis=0)
    half = 0.15 * ext
    agent_pos = np.empty((config.n_agents, 3), dtype=np.float64)
    agent_pos[:, 0] = rng.uniform(centroid[0] - half, centroid[0] + half, size=config.n_agents)
    agent_pos[:, 1] = rng.uniform(centroid[1] - half, centroid[1] + half, size=config.n_agents)
    agent_pos[:, 2] = rng.uniform(0.0, 0.1 * ext, size=config.n_agents)
    agent_pos = np.clip(agent_pos, 0.0, ext)

    invader_pos = np.empty((config.m_invaders, 3), dtype=np.float64)
    invader_pos[:, 0] = rng.uniform(0.0, ext, size=config.m_invaders)
    invader_pos[:, 1] = rng.uniform(0.0, ext, size=config.m_invaders)
    invader_pos[:, 2] = ext
    invader_target = rng.integers(0, config.n_bases, size=config.m_invaders)

    return EnvState(
        t=0,
        agent_pos=agent_pos,
        invader_pos=invader_pos,
        invader_target=invader_target.astype(np.int64),
        invader_active=np.ones(config.m_invaders, dtype=bool),
        invader_heading=np.zeros((config.m_invaders, 3), dtype=np.float64),
        base_pos=base_pos,
        base_alive=np.ones(config.n_bases, dtype=bool),
    )


_UP = np.array([0.0, 0.0, 1.0])


def step(state: EnvState, actions: np.ndarray, config: EnvConfig) -> tuple[EnvState, StepOutcome]:
    """Advance one episode by one step given a primitive action id per agent.

    Order: agents move, invaders update (neutralize / slow / advance),
    base destruction check, then the success check at all-neutralized or the
    step cap. Positions stay clamped to the arena.

    The invader update and the destruction check are each one array pass
    over all m invaders, bit-equal to updating the invaders one at a time:
    every per-invader norm is a ``row_norms`` row, and each move adds the
    same product to the same position. The shortcuts (no slowed invader, no
    invader on its base, no neutralized invader, no base lost) give the
    same bits as the full update.
    """
    actions = np.asarray(actions)
    if actions.shape != (config.n_agents,):
        raise ValueError(f"need one action per agent, got shape {actions.shape}")
    agent_moves, speeds = config._step_tables
    ids = actions.tolist()
    if min(ids) < 0 or max(ids) >= len(agent_moves):
        raise ValueError(f"action id out of range for {config.primitive_set}")
    ext = config.world_extent

    # ndarray.clip is np.clip without its per-call dispatch
    agent_pos = (state.agent_pos + agent_moves.take(actions, axis=0)).clip(0.0, ext)

    pos = state.invader_pos
    was_active = state.invader_active
    diff = agent_pos[None, :, :] - pos[:, None, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    trackers = np.where(was_active, (dist <= config.r_track).sum(axis=1), 0)

    # an active invader heads for its base (straight up when it sits on it)
    # at full speed, slowed, or, at the turn-back level, along the reverse
    # of that heading, which it keeps from then on
    goal = state.base_pos[state.invader_target]
    to_base = goal - pos
    norm = row_norms(to_base)
    far = norm > 1e-12
    if far.all():
        unit = to_base / norm[:, None]
    else:
        unit = to_base / np.where(far, norm, 1.0)[:, None]
        unit[~far] = _UP
    all_active = np.count_nonzero(was_active) == len(was_active)
    if trackers.max() < config.slow_count:
        invader_active = was_active
        invader_heading = state.invader_heading
        moves = config.v_inv * (unit if all_active else np.where(was_active[:, None], unit, invader_heading))
    else:
        level = (trackers >= config.slow_count).astype(np.intp) + (trackers >= config.k_threshold)
        turned = level == 2
        invader_active = was_active & ~turned
        invader_heading = np.where(turned[:, None], -unit, state.invader_heading)
        moves = speeds[level][:, None] * np.where(invader_active[:, None], unit, invader_heading)
    # a neutralized invader retreats at full speed until it is an arena
    # extent away from the base centroid
    if all_active:
        invader_pos = (pos + moves).clip(0.0, ext)
    else:
        moving = was_active | (row_norms(pos - state.base_centroid) < ext)
        invader_pos = np.where(moving[:, None], pos + moves, pos).clip(0.0, ext)

    # checked against the bases alive before the check: an invader whose base
    # an earlier one just destroyed only clears the same flag again
    hit = invader_active & state.base_alive[state.invader_target]
    hit &= row_norms(invader_pos - goal) <= config.r_destroy
    destroyed = np.count_nonzero(hit) > 0
    base_alive = state.base_alive
    if destroyed:
        base_alive = base_alive.copy()
        base_alive[state.invader_target[hit]] = False

    new_state = EnvState(
        t=state.t + 1,
        agent_pos=agent_pos,
        invader_pos=invader_pos,
        invader_target=state.invader_target,
        invader_active=invader_active,
        invader_heading=invader_heading,
        base_pos=state.base_pos,
        base_alive=base_alive,
    )
    if destroyed:
        return new_state, StepOutcome(reward=-1.0, done=True)
    if new_state.t >= config.t_max or np.count_nonzero(invader_active) == 0:
        reward = 1.0 if base_alive.all() else -1.0
        return new_state, StepOutcome(reward=reward, done=True)
    return new_state, StepOutcome(reward=0.0, done=False)


def obs_dim(config: EnvConfig) -> int:
    return 3 + 4 * config.m_invaders + 4 * config.n_bases


def observe_all(state: EnvState, config: EnvConfig) -> np.ndarray:
    """Observation matrix, one row per agent.

    Row layout: own position / extent, then per invader (relative position /
    extent, active flag), then per base (relative position / extent, alive
    flag). Constant length within a task family, which is what lets a policy
    transfer across team sizes. A ``stack_states`` stack gives one matrix
    per episode, (B, N, d_obs).
    """
    ext = config.world_extent
    pos = state.agent_pos
    blocks = [pos / ext]
    for entity_pos, flag in ((state.invader_pos, state.invader_active), (state.base_pos, state.base_alive)):
        rel = (entity_pos[..., None, :, :] - pos[..., :, None, :]) / ext
        flags = np.broadcast_to(flag.astype(np.float64)[..., None, :, None], rel.shape[:-1] + (1,))
        blocks.append(np.concatenate([rel, flags], axis=-1).reshape(pos.shape[:-1] + (-1,)))
    return np.concatenate(blocks, axis=-1)


def trajectory_record(state: EnvState, reward: float) -> dict:
    """One JSONL-able record of the post-step state, for trajectory dumps."""
    return {
        "t": state.t,
        "agent_pos": state.agent_pos.round(4).tolist(),
        "invader_pos": state.invader_pos.round(4).tolist(),
        "invader_status": ["active" if a else "neutralized" for a in state.invader_active],
        "reward": reward,
    }
