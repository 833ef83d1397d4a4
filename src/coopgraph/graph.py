"""Three-layer cooperation graph and its edge-rewiring operators.

The graph has agent nodes at the bottom, cluster nodes in the middle and
target nodes on top. Every agent belongs to exactly one cluster and every
cluster executes exactly one target, so the two edge maps fully determine
every agent's primitive action: primitive targets broadcast their action id
to all member agents, cooperative targets run a command controller per
member (one array pass over every cooperative member, see ``commands``).

A lockstep rollout stacks the graphs of its B alive episodes into one graph
whose edge maps carry a leading episode axis (``stack_graphs``).
``action_masks`` and ``resolve_agent_actions`` take such a stack in one
array pass; one graph is the B = 1 case of the same pass.

Four operator choices form one joint action: (src_cluster, dst_cluster)
moves one agent between clusters and (src_target, dst_target) moves one
cluster between targets. Invalid pairs (empty source, or source == dest)
are silent no-ops. After a curriculum extension, the bottom layer entries
stand for fixed groups of environment agents instead of single agents; the
group binding itself is never rewired.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .commands import CommandKind, CoopCommand, anchor_slots, translate_rows
from .env import EnvConfig, EnvState, stack_states


@dataclass(frozen=True)
class TargetNode:
    """A primitive move (action_id) or a cooperative command node."""

    id: int
    action_id: int | None = None
    command: CoopCommand | None = None

    def __post_init__(self):
        if (self.action_id is None) == (self.command is None):
            raise ValueError("target node needs exactly one of action_id or command")

    @property
    def is_primitive(self) -> bool:
        return self.action_id is not None

    def label(self) -> str:
        return f"move{self.action_id}" if self.is_primitive else self.command.label()


class TargetLayer(tuple):
    """A graph's target nodes in id order, with their code table.

    ``codes`` is an (n_targets, 3) int array of action id, command kind code
    and entity per target, -1 where a field does not apply (see
    ``CoopCommand.code``). Rewiring never changes the target layer, so every
    graph rewired from one shares it and the table is built once, not on
    every step; so is each task size's anchor-slot table.
    """

    codes: np.ndarray

    def __new__(cls, nodes: Sequence[TargetNode]):
        layer = super().__new__(cls, nodes)
        layer.codes = np.array(
            [(t.action_id, -1, -1) if t.is_primitive else (-1, *t.command.code) for t in layer],
            dtype=np.int64,
        ).reshape(-1, 3)
        layer.codes.setflags(write=False)
        layer._slots = {}
        return layer

    def anchor_slots(self, m: int, n_bases: int) -> np.ndarray:
        """``commands.anchor_slots`` of every target for m invaders and
        n_bases bases, built on first use."""
        slots = self._slots.get((m, n_bases))
        if slots is None:
            slots = anchor_slots(self.codes[:, 1], self.codes[:, 2], m, n_bases)
            slots.setflags(write=False)
            self._slots[m, n_bases] = slots
        return slots


@dataclass(frozen=True)
class OperatorAction:
    """Joint quadruple produced by the four operators, already index-decoded."""

    src_cluster: int
    dst_cluster: int
    src_target: int
    dst_target: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.src_cluster, self.dst_cluster, self.src_target, self.dst_target)


@dataclass
class ActionMasks:
    cluster_mask: np.ndarray  # (n_clusters,) bool, True = nonempty, selectable as source
    target_mask: np.ndarray   # (n_targets,) bool, True = has a connected cluster


@dataclass(frozen=True)
class CooperationGraph:
    """Immutable snapshot of the graph; rewiring returns a new instance.

    ``agent_to_cluster`` maps the controllable bottom-layer nodes. Without an
    extension those are the environment agents themselves; with one, entry i
    is a group node statically bound to the environment agents in
    ``extension[i]``. A ``stack_graphs`` stack holds B graphs at once: its
    two edge maps carry a leading episode axis.
    """

    n_clusters: int
    targets: TargetLayer  # any sequence of nodes is wrapped on construction
    agent_to_cluster: np.ndarray
    cluster_to_target: np.ndarray
    extension: np.ndarray | None = None  # (n_agents, fan_out) env agent ids

    def __post_init__(self):
        if not isinstance(self.targets, TargetLayer):
            object.__setattr__(self, "targets", TargetLayer(self.targets))
        self.agent_to_cluster.setflags(write=False)
        self.cluster_to_target.setflags(write=False)
        if self.extension is not None:
            self.extension.setflags(write=False)

    @property
    def n_agents(self) -> int:
        """Controllable bottom-layer node count (group nodes once extended)."""
        return self.agent_to_cluster.shape[-1]

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def fan_out(self) -> int:
        return 1 if self.extension is None else self.extension.shape[1]

    @property
    def n_env_agents(self) -> int:
        return self.n_agents if self.extension is None else self.extension.size

    def members_of(self, cluster_id: int) -> np.ndarray:
        """Bottom-layer node ids currently mapped to a cluster (sorted)."""
        return np.flatnonzero(self.agent_to_cluster == cluster_id)

    def env_agents_of(self, cluster_id: int) -> np.ndarray:
        """Environment agent ids a cluster controls, through any extension."""
        lower = self.members_of(cluster_id)
        if self.extension is None:
            return lower
        return self.extension[lower].reshape(-1)


def stack_graphs(graphs: Sequence[CooperationGraph]) -> CooperationGraph:
    """B graphs as one graph whose edge maps carry a leading episode axis.

    The graphs must share the target layer and the extension, as every graph
    rewired from one start topology does. ``action_masks`` and
    ``resolve_agent_actions`` read such a stack as B episodes at once.
    """
    return replace(
        graphs[0],
        agent_to_cluster=np.stack([g.agent_to_cluster for g in graphs]),
        cluster_to_target=np.stack([g.cluster_to_target for g in graphs]),
    )


class GraphInvariantError(AssertionError):
    """A structural invariant of the cooperation graph was violated."""


def validate(graph: CooperationGraph) -> None:
    """Check all structural invariants; raises GraphInvariantError."""
    a2c, c2t = graph.agent_to_cluster, graph.cluster_to_target
    if a2c.ndim != 1 or c2t.ndim != 1 or len(c2t) != graph.n_clusters:
        raise GraphInvariantError("edge maps have wrong shape")
    if len(a2c) and (a2c.min() < 0 or a2c.max() >= graph.n_clusters):
        raise GraphInvariantError("agent mapped to out-of-range cluster")
    if c2t.min() < 0 or c2t.max() >= graph.n_targets:
        raise GraphInvariantError("cluster mapped to out-of-range target")
    ids = [t.id for t in graph.targets]
    if ids != list(range(graph.n_targets)):
        raise GraphInvariantError("target ids are not dense")
    kinds = [t.is_primitive for t in graph.targets]
    if any(kinds[i] and not kinds[i - 1] for i in range(1, len(kinds))):
        raise GraphInvariantError("primitive targets must precede cooperative targets")
    if graph.extension is not None:
        flat = np.sort(graph.extension.reshape(-1))
        if not np.array_equal(flat, np.arange(graph.n_env_agents)):
            raise GraphInvariantError("extension groups do not partition the agent ids")


def apply_operator_action(
    graph: CooperationGraph, action: OperatorAction
) -> tuple[CooperationGraph, tuple[bool, bool]]:
    """Apply one joint operator action; invalid pairs no-op independently.

    The agent pair moves the lowest-indexed member of src_cluster to
    dst_cluster iff the source is nonempty and differs from the destination.
    The target pair moves the lowest-indexed cluster on src_target likewise.
    Returns the new graph and an (agent_moved, cluster_moved) flag pair.
    """
    sc, dc, st, dt = action.as_tuple()
    if not (0 <= sc < graph.n_clusters and 0 <= dc < graph.n_clusters):
        raise ValueError(f"cluster index out of range in {action}")
    if not (0 <= st < graph.n_targets and 0 <= dt < graph.n_targets):
        raise ValueError(f"target index out of range in {action}")

    a2c = graph.agent_to_cluster
    moved_agent = False
    if sc != dc:
        members = np.flatnonzero(a2c == sc)
        if members.size:
            a2c = a2c.copy()
            a2c[members[0]] = dc
            moved_agent = True

    c2t = graph.cluster_to_target
    moved_cluster = False
    if st != dt:
        linked = np.flatnonzero(c2t == st)
        if linked.size:
            c2t = c2t.copy()
            c2t[linked[0]] = dt
            moved_cluster = True

    if not (moved_agent or moved_cluster):
        return graph, (False, False)
    return replace(graph, agent_to_cluster=a2c, cluster_to_target=c2t), (moved_agent, moved_cluster)


def action_masks(graph: CooperationGraph) -> ActionMasks:
    """Source masks: nonempty clusters and targets with a connected cluster.

    A ``stack_graphs`` stack gives (B, n) masks, one row per episode.
    """
    a2c, c2t = graph.agent_to_cluster, graph.cluster_to_target
    return ActionMasks(
        cluster_mask=(a2c[..., None] == np.arange(graph.n_clusters)).any(axis=-2),
        target_mask=(c2t[..., None] == np.arange(graph.n_targets)).any(axis=-2),
    )


def resolve_agent_actions(
    graph: CooperationGraph, state: EnvState, config: EnvConfig
) -> np.ndarray:
    """Primitive action id for every environment agent under the current graph.

    ``graph`` and ``state`` may also be a ``stack_graphs`` and a
    ``stack_states`` stack of B episodes; the result is then (B, n_env),
    and one episode is the B = 1 case of the same pass. Each episode's env
    agents are laid out cluster by cluster, each cluster's members in
    ``env_agents_of`` order; primitive rows take their target's action id
    and all cooperative rows of all episodes are translated in one pass,
    each row carrying its episode index.
    """
    if graph.agent_to_cluster.ndim == 1:
        return resolve_agent_actions(stack_graphs([graph]), stack_states([state]), config)[0]
    a2c = graph.agent_to_cluster
    order = np.argsort(a2c, axis=1, kind="stable")
    cluster = np.take_along_axis(a2c, order, axis=1)
    if graph.extension is not None:
        order = graph.extension[order].reshape(len(a2c), -1)
        cluster = np.repeat(cluster, graph.fan_out, axis=1)
    codes = graph.targets.codes[np.take_along_axis(graph.cluster_to_target, cluster, axis=1)]
    chosen = codes[..., 0]
    ep, row = (chosen < 0).nonzero()
    if ep.size:
        chosen[ep, row] = translate_rows(
            codes[ep, row, 1], codes[ep, row, 2], ep, cluster[ep, row],
            state.agent_pos[ep, order[ep, row]], state, config,
        )
    actions = np.empty_like(chosen)
    np.put_along_axis(actions, order, chosen, axis=1)
    return actions


def random_topology(
    rng: np.random.Generator,
    n_agents: int,
    n_clusters: int,
    targets: Sequence[TargetNode],
) -> CooperationGraph:
    """Independently uniform edge maps; deterministic given the generator."""
    if n_clusters < 1 or len(targets) < 1:
        raise ValueError("need at least one cluster and one target")
    return CooperationGraph(
        n_clusters=n_clusters,
        targets=tuple(targets),
        agent_to_cluster=rng.integers(0, n_clusters, size=n_agents).astype(np.int64),
        cluster_to_target=rng.integers(0, len(targets), size=n_clusters).astype(np.int64),
    )


def _entropy(counts: np.ndarray, total: int) -> float:
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def topology_entropy(graph: CooperationGraph) -> float:
    """Shannon entropy (nats) of both empirical edge distributions, summed."""
    h_a = _entropy(np.bincount(graph.agent_to_cluster, minlength=graph.n_clusters), graph.n_agents)
    h_c = _entropy(np.bincount(graph.cluster_to_target, minlength=graph.n_targets), graph.n_clusters)
    return h_a + h_c


def select_initial_topology(
    rng: np.random.Generator,
    n_candidates: int,
    n_agents: int,
    n_clusters: int,
    targets: Sequence[TargetNode],
) -> CooperationGraph:
    """Max-entropy pick among random candidates (ties: lowest index).

    The result is meant to be frozen and reused as the episode-start
    topology for an entire training run, keeping operators far from
    degenerate configurations at episode start.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    best, best_h = None, -1.0
    for _ in range(n_candidates):
        cand = random_topology(rng, n_agents, n_clusters, targets)
        h = topology_entropy(cand)
        if h > best_h:
            best, best_h = cand, h
    return best


def interfere(
    graph: CooperationGraph, rng: np.random.Generator
) -> tuple[CooperationGraph, OperatorAction]:
    """Apply a uniformly random (unmasked) fake operator action.

    The caller decides when to trigger this; each trigger replaces the
    operators' learned action for that step.
    """
    fake = OperatorAction(
        src_cluster=int(rng.integers(0, graph.n_clusters)),
        dst_cluster=int(rng.integers(0, graph.n_clusters)),
        src_target=int(rng.integers(0, graph.n_targets)),
        dst_target=int(rng.integers(0, graph.n_targets)),
    )
    new_graph, _ = apply_operator_action(graph, fake)
    return new_graph, fake


def extend(graph: CooperationGraph, fan_out: int) -> CooperationGraph:
    """Turn each bottom-layer agent node into a group of ``fan_out`` agents.

    Former agent node i becomes a group node statically bound to environment
    agents [fan_out*i, fan_out*(i+1)); the cluster and target layers are
    untouched, so the operators keep acting on the same index spaces.
    """
    if graph.extension is not None:
        raise ValueError("graph already extended")
    if fan_out < 2:
        raise ValueError("fan_out must be >= 2")
    ext = np.arange(graph.n_agents * fan_out, dtype=np.int64).reshape(graph.n_agents, fan_out)
    return replace(graph, extension=ext)


# ---------------------------------------------------------------------------
# snapshot export / import
# ---------------------------------------------------------------------------


def to_json_dict(graph: CooperationGraph) -> dict:
    targets = []
    for t in graph.targets:
        if t.is_primitive:
            targets.append({"id": t.id, "kind": "primitive", "params": {"action_id": t.action_id}})
        else:
            params = {"command": t.command.kind.value}
            if t.command.entity is not None:
                params["entity"] = t.command.entity
            targets.append({"id": t.id, "kind": "cooperative", "params": params})
    return {
        "n_agents": graph.n_agents,
        "n_clusters": graph.n_clusters,
        "targets": targets,
        "agent_to_cluster": graph.agent_to_cluster.tolist(),
        "cluster_to_target": graph.cluster_to_target.tolist(),
        "extension": None
        if graph.extension is None
        else {str(i): row.tolist() for i, row in enumerate(graph.extension)},
    }


def to_json(graph: CooperationGraph) -> str:
    return json.dumps(to_json_dict(graph), indent=2)


def from_json_dict(doc: dict) -> CooperationGraph:
    targets = []
    for td in doc["targets"]:
        if td["kind"] == "primitive":
            targets.append(TargetNode(id=td["id"], action_id=td["params"]["action_id"]))
        else:
            cmd = CoopCommand(CommandKind(td["params"]["command"]), td["params"].get("entity"))
            targets.append(TargetNode(id=td["id"], command=cmd))
    ext = doc.get("extension")
    extension = None
    if ext is not None:
        rows = [ext[str(i)] for i in range(len(ext))]
        if len({len(r) for r in rows}) != 1:
            raise ValueError("extension groups must have equal size")
        extension = np.asarray(rows, dtype=np.int64)
    graph = CooperationGraph(
        n_clusters=doc["n_clusters"],
        targets=tuple(targets),
        agent_to_cluster=np.asarray(doc["agent_to_cluster"], dtype=np.int64),
        cluster_to_target=np.asarray(doc["cluster_to_target"], dtype=np.int64),
        extension=extension,
    )
    validate(graph)
    return graph


def from_json(text: str) -> CooperationGraph:
    return from_json_dict(json.loads(text))


def to_dot(graph: CooperationGraph) -> str:
    """Graphviz snapshot: agents red (bottom), clusters blue, targets green (top)."""
    lines = ["digraph topology {", "  rankdir=BT;", "  node [style=filled];"]
    env_agents = [f"a{i}" for i in range(graph.n_env_agents)]
    lines.append("  { rank=same; " + " ".join(f'{a} [fillcolor=red];' for a in env_agents) + " }")
    if graph.extension is not None:
        groups = [f"s{i}" for i in range(graph.n_agents)]
        lines.append("  { rank=same; " + " ".join(f'{s} [fillcolor=orange];' for s in groups) + " }")
        for i, row in enumerate(graph.extension):
            for a in row:
                lines.append(f"  a{a} -> s{i};")
    lines.append(
        "  { rank=same; "
        + " ".join(f'c{k} [fillcolor=lightblue];' for k in range(graph.n_clusters))
        + " }"
    )
    lines.append(
        "  { rank=same; "
        + " ".join(
            f't{t.id} [fillcolor=green, label="{t.label()}"];' for t in graph.targets
        )
        + " }"
    )
    lower_name = "s" if graph.extension is not None else "a"
    for i, k in enumerate(graph.agent_to_cluster):
        lines.append(f"  {lower_name}{i} -> c{k};")
    for k, t in enumerate(graph.cluster_to_target):
        lines.append(f"  c{k} -> t{t};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# target-set construction
# ---------------------------------------------------------------------------


def build_targets(
    primitive_set,
    include_coop: bool,
    m_invaders: int,
    n_bases: int,
) -> tuple[TargetNode, ...]:
    """Target layer in the stable order: primitives, intercepts, defends.

    The fixed ordering keeps one-hot target codes stable across runs and
    transfer sizes.
    """
    from .env import primitive_directions

    targets: list[TargetNode] = []
    n_prim = len(primitive_directions(primitive_set))
    for a in range(n_prim):
        targets.append(TargetNode(id=a, action_id=a))
    if include_coop:
        for j in range(m_invaders):
            targets.append(
                TargetNode(id=len(targets), command=CoopCommand(CommandKind.INTERCEPT, j))
            )
        for b in range(n_bases):
            targets.append(
                TargetNode(id=len(targets), command=CoopCommand(CommandKind.DEFEND, b))
            )
    if not targets:
        raise ValueError("no targets: enable primitive actions or cooperative commands")
    return tuple(targets)
