"""Knowledge-coded cluster commands and their per-agent translation.

A cooperative command is executed by a whole cluster: each member agent gets
its own desired direction from a small hand-written controller, which is then
snapped to the nearest primitive move direction. The same command therefore
usually produces different primitive actions for different members.

Translation is one array pass per lockstep step, over every episode at
once. Every member row of every cooperative cluster of every episode carries
a (command kind, entity) code and its episode index into a ``stack_states``
stack; intercept and defend rows are each computed in one array expression,
gather and scatter rows per (episode, cluster) group against its member
rows, and one batched snap turns all directions into move ids. One episode
or one cluster is a stack of one, not a separate entry point.
``command_rows`` builds the command target rows of every episode in one
gather from an anchor-slot table that depends only on the target layer and
the task size.

Controllers never fail: a command aimed at a dead or out-of-range entity
degrades to a zero direction (hold), which the tie rule turns into a dither
around action id 0.

The array forms are chosen to reproduce the one-vector arithmetic bit for
bit: a row dot product is a batched ``matmul`` (a ``(x * y).sum(1)`` or
``einsum`` sum rounds differently), and a norm is the square root of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .env import EnvConfig, EnvState

# Defend holds a ring just outside the tracking radius so defenders meet
# incoming invaders before base contact.
R_DEFEND = 6.0

# Width of the structured part of a command representation:
# kind one-hot (4) + anchor position (3) + alive flag (1).
COMMAND_REPR_WIDTH = 8


class CommandKind(Enum):
    INTERCEPT = "intercept"
    DEFEND = "defend"
    GATHER = "gather"
    SCATTER = "scatter"


# kind codes of the array pass, in CommandKind order (also the one-hot column)
INTERCEPT, DEFEND, GATHER, SCATTER = range(len(CommandKind))
_KIND_INDEX = {k: i for i, k in enumerate(CommandKind)}
_KIND_CODES = np.arange(len(CommandKind))


@dataclass(frozen=True)
class CoopCommand:
    """A cluster-level command; ``entity`` indexes an invader or base."""

    kind: CommandKind
    entity: int | None = None

    def __post_init__(self):
        needs_entity = self.kind in (CommandKind.INTERCEPT, CommandKind.DEFEND)
        if needs_entity and self.entity is None:
            raise ValueError(f"{self.kind.value} requires an entity index")
        if not needs_entity and self.entity is not None:
            raise ValueError(f"{self.kind.value} takes no entity index")

    def label(self) -> str:
        return self.kind.value if self.entity is None else f"{self.kind.value}({self.entity})"

    @property
    def code(self) -> tuple[int, int]:
        """(kind code, entity) of the array pass; entity -1 when there is none."""
        return _KIND_INDEX[self.kind], -1 if self.entity is None else self.entity


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (n, 3) arrays, bit-equal to ``float(x[i] @ y[i])``."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _lead_points(
    pos: np.ndarray, ep: np.ndarray, j: np.ndarray, states: EnvState, config: EnvConfig
) -> np.ndarray:
    """Predicted interception point of invader j[r] of episode ep[r] for the
    pursuer at pos[r].

    The prediction assumes nominal invader speed along its attack line and
    is capped at the target base, so late pursuers cut toward the base
    instead of convoying behind the target.
    """
    p = states.invader_pos[ep, j]
    a = config.v_inv**2 - config.v_def**2
    if a >= 0:  # a pursuer that is not faster: no lead
        return p
    to_base = states.base_pos[ep, states.invader_target[ep, j]] - p
    dist = np.sqrt(_dot(to_base, to_base))
    # every row takes the same arithmetic; the rows that hold (an invader on
    # its base, no real root) are put back to p at the end
    with np.errstate(all="ignore"):
        v = (to_base / dist[:, None]) * config.v_inv
        d = p - pos
        b = 2.0 * _dot(d, v)
        c = _dot(d, d)
        disc = b * b - 4.0 * a * c
        tau = (b + np.sqrt(disc)) / (-2.0 * a)
        tau = np.where(0.0 > tau, 0.0, tau)  # max(tau, 0.0)
        cap = dist / config.v_inv
        tau = np.where(cap < tau, cap, tau)  # min(tau, cap)
        lead = p + v * tau[:, None]
    hold = (dist < 1e-9) | (disc < 0)
    return np.where(hold[:, None], p, lead)


def _formation(kind: np.ndarray, pos: np.ndarray, members: np.ndarray, out: np.ndarray) -> None:
    """Write the gather and scatter rows of ``out`` for rows steering against
    one cluster's (n, 3) member positions, in member order."""
    g = kind == GATHER
    if g.any():
        out[g] = members.mean(axis=0) - pos[g]
    s = np.flatnonzero(kind == SCATTER)
    if s.size and len(members) > 1:
        d = np.linalg.norm(members[None, :, :] - pos[s, None, :], axis=2)
        d[d < 1e-9] = np.inf  # skip self (and co-located copies)
        seen = np.isfinite(d).any(axis=1)
        near = np.argmin(d, axis=1)[seen]
        out[s[seen]] = pos[s[seen]] - members[near]


def _live(
    selected: np.ndarray, ep: np.ndarray, entity: np.ndarray, alive: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the selected rows whose entity is in range and alive in the
    row's episode (``alive`` is (B, count)), and those entities; every other
    command row holds."""
    r = selected.nonzero()[0]
    if not r.size:
        return r, r
    e = entity[r]
    ok = (0 <= e) & (e < alive.shape[1])
    ok[ok] = alive[ep[r[ok]], e[ok]]
    return r[ok], e[ok]


def _steer(
    kind: np.ndarray,
    entity: np.ndarray,
    ep: np.ndarray,
    pos: np.ndarray,
    states: EnvState,
    config: EnvConfig,
    formations,
) -> np.ndarray:
    """Raw steering vector of each row (kind code, entity, episode, agent
    position) against a ``stack_states`` stack.

    Gather pulls toward the member centroid, Scatter pushes away from the
    nearest other member, Intercept leads an invader's predicted path,
    Defend closes on a base until inside the R_DEFEND ring. Gather and
    scatter rows read ``formations``: (row slice, member positions) pairs,
    one per (episode, cluster) group.
    """
    out = np.zeros_like(pos)
    r, j = _live(kind == INTERCEPT, ep, entity, states.invader_active)
    if r.size:
        out[r] = _lead_points(pos[r], ep[r], j, states, config) - pos[r]
    r, b = _live(kind == DEFEND, ep, entity, states.base_alive)
    if r.size:
        to_base = states.base_pos[ep[r], b] - pos[r]
        far = ~(np.sqrt(_dot(to_base, to_base)) <= R_DEFEND)
        out[r[far]] = to_base[far]
    for rows, members in formations:
        _formation(kind[rows], pos[rows], members, out[rows])
    return out


def snap(directions: np.ndarray, move_dirs: np.ndarray) -> np.ndarray:
    """Best-aligned move id per direction row; ties pick the lowest id."""
    return np.argmax(np.matmul(move_dirs[None], directions[:, :, None])[..., 0], axis=1)


def steer_rows(
    kind: np.ndarray,
    entity: np.ndarray,
    episode: np.ndarray,
    cluster: np.ndarray,
    pos: np.ndarray,
    states: EnvState,
    config: EnvConfig,
) -> np.ndarray:
    """Raw steering vector for each member row of any number of clusters of
    any number of episodes.

    Row r is an agent at ``pos[r]`` of episode ``episode[r]`` of the
    ``stack_states`` stack, executing the command coded (``kind[r]``,
    ``entity[r]``) in cluster ``cluster[r]``. The rows of one (episode,
    cluster) group are contiguous and in member order; gather and scatter
    read them as the member set.
    """
    groups = []
    formation = kind >= GATHER
    if formation.any():
        split = (episode[1:] != episode[:-1]) | (cluster[1:] != cluster[:-1])
        edges = (np.flatnonzero(split) + 1).tolist()
        groups = [
            (slice(lo, hi), pos[lo:hi])
            for lo, hi in zip([0] + edges, edges + [len(cluster)])
            if formation[lo]
        ]
    return _steer(kind, entity, episode, pos, states, config, groups)


def translate_rows(
    kind: np.ndarray,
    entity: np.ndarray,
    episode: np.ndarray,
    cluster: np.ndarray,
    pos: np.ndarray,
    states: EnvState,
    config: EnvConfig,
) -> np.ndarray:
    """Primitive action id for each row of ``steer_rows``, in one snap."""
    return snap(steer_rows(kind, entity, episode, cluster, pos, states, config), config.move_dirs)


def anchor_slots(kind: np.ndarray, entity: np.ndarray, m: int, n_bases: int) -> np.ndarray:
    """Row of the ``command_rows`` anchor table each coded command reads.

    Slots: invaders, then bases, then the alive-only slot of gather and
    scatter, then the all-zero slot of an out-of-range entity or of no
    command (kind -1). Depends only on the codes, m and n_bases, so a target
    layer computes it once.
    """
    defend = kind == DEFEND
    in_range = (0 <= entity) & (entity < np.where(defend, n_bases, m))
    slot = np.where(in_range, entity + m * defend, m + n_bases + 1)
    slot[kind >= GATHER] = m + n_bases
    return slot


def command_rows(
    kind: np.ndarray, slot: np.ndarray, state: EnvState, config: EnvConfig, width: int
) -> np.ndarray:
    """Structured node representation of each coded command: kind one-hot,
    anchor position, alive flag; a row of kind -1 (no command) stays zero.

    ``slot`` is the rows' ``anchor_slots``. Padded with zeros to ``width``
    so cooperative and primitive target rows stack into one rectangular
    matrix. A ``stack_states`` stack gives one matrix per episode.
    """
    if width < COMMAND_REPR_WIDTH:
        raise ValueError(f"repr width {width} < {COMMAND_REPR_WIDTH}")
    lead = state.invader_pos.shape[:-2]
    anchor = np.concatenate(
        (state.invader_pos, state.base_pos, np.zeros(lead + (2, 3))), axis=-2
    ) / config.world_extent
    alive = np.concatenate(
        (state.invader_active, state.base_alive, np.broadcast_to((True, False), lead + (2,))), axis=-1
    )
    rep = np.zeros(lead + (len(kind), width), dtype=np.float64)
    rep[..., :4] = kind[:, None] == _KIND_CODES
    rep[..., 4:7] = anchor[..., slot, :]
    rep[..., 7] = alive[..., slot]
    return rep
