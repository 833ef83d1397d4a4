"""The array translation pass against the per-member controllers it replaced.

``reference_*`` below is the one-agent-at-a-time code that translated
commands (and the one-target-at-a-time code that built target rows) before
both became one array pass. The pass must give the same directions and
rows bit for bit and the same action ids exactly, on random graphs that
reach every branch of the controllers. A lockstep stack of such graphs
must give, in row e of every batched pass, what episode e gives in a
stack of its own.
"""

import dataclasses
import math

import numpy as np
import pytest

from coopgraph.commands import (
    R_DEFEND,
    CommandKind,
    CoopCommand,
    steer_rows,
    translate_rows,
)
from coopgraph.env import EnvConfig, PrimitiveSet, reset, stack_states
from coopgraph.graph import (
    TargetNode,
    build_targets,
    random_topology,
    resolve_agent_actions,
    stack_graphs,
)
from coopgraph.policy import agent_rows, node_batch, target_raw_reps

# ---------------------------------------------------------------------------
# reference: one member at a time
# ---------------------------------------------------------------------------


def reference_lead_point(agent_pos, j, state, config):
    p = state.invader_pos[j]
    to_base = state.base_pos[state.invader_target[j]] - p
    dist = np.linalg.norm(to_base)
    if dist < 1e-9:
        return p
    v = (to_base / dist) * config.v_inv
    d = p - agent_pos
    a = config.v_inv**2 - config.v_def**2
    b = 2.0 * float(d @ v)
    c = float(d @ d)
    disc = b * b - 4.0 * a * c
    if a >= 0 or disc < 0:
        return p
    tau = (b + math.sqrt(disc)) / (-2.0 * a)
    tau = min(max(tau, 0.0), dist / config.v_inv)
    return p + v * tau


def reference_direction(command, agent_pos, members, state, config):
    if command.kind is CommandKind.GATHER:
        return members.mean(axis=0) - agent_pos
    if command.kind is CommandKind.SCATTER:
        if len(members) == 1:
            return np.zeros(3)
        d = np.linalg.norm(members - agent_pos, axis=1)
        d[d < 1e-9] = np.inf
        if not np.isfinite(d).any():
            return np.zeros(3)
        return agent_pos - members[int(np.argmin(d))]
    if command.kind is CommandKind.INTERCEPT:
        j = command.entity
        if not 0 <= j < len(state.invader_pos) or not state.invader_active[j]:
            return np.zeros(3)
        return reference_lead_point(agent_pos, j, state, config) - agent_pos
    b = command.entity
    if not 0 <= b < len(state.base_pos) or not state.base_alive[b]:
        return np.zeros(3)
    to_base = state.base_pos[b] - agent_pos
    if np.linalg.norm(to_base) <= R_DEFEND:
        return np.zeros(3)
    return to_base


def reference_discretize(direction, move_dirs):
    return int(np.argmax(move_dirs @ direction))


def reference_env_agents(graph, cluster_id):
    """Environment agent ids a cluster controls, in member order: its
    bottom-layer nodes ascending, each group node's agents in extension row
    order."""
    lower = np.flatnonzero(graph.agent_to_cluster == cluster_id)
    return lower if graph.extension is None else graph.extension[lower].reshape(-1)


def reference_target_rows(graph, state, config):
    width = max(graph.n_targets, 8)
    reps = np.zeros((graph.n_targets, width))
    for t in graph.targets:
        if t.is_primitive:
            reps[t.id, t.id] = 1.0
            continue
        rep = reps[t.id]
        rep[list(CommandKind).index(t.command.kind)] = 1.0
        if t.command.kind is CommandKind.INTERCEPT:
            j = t.command.entity
            if 0 <= j < len(state.invader_pos):
                rep[4:7] = state.invader_pos[j] / config.world_extent
                rep[7] = 1.0 if state.invader_active[j] else 0.0
        elif t.command.kind is CommandKind.DEFEND:
            b = t.command.entity
            if 0 <= b < len(state.base_pos):
                rep[4:7] = state.base_pos[b] / config.world_extent
                rep[7] = 1.0 if state.base_alive[b] else 0.0
        else:
            rep[7] = 1.0
    return reps


# ---------------------------------------------------------------------------
# random scenarios that reach every controller branch
# ---------------------------------------------------------------------------

EXTRA_COMMANDS = (
    CoopCommand(CommandKind.GATHER),
    CoopCommand(CommandKind.SCATTER),
)


def random_case(rng, trial):
    primitive_set = (PrimitiveSet.SIX, PrimitiveSet.FOURTEEN, PrimitiveSet.NONE)[trial % 3]
    v_inv = (0.8, 1.0, 1.2)[trial % 4 % 3]  # 1.0 and 1.2: a = v_inv^2 - v_def^2 >= 0
    n_lower, fan_out = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    m, n_bases = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    cfg = EnvConfig(
        n_agents=n_lower * fan_out, k_threshold=1, m_invaders=m, n_bases=n_bases,
        v_inv=v_inv, primitive_set=primitive_set,
    )
    state = random_state(rng, cfg, trial)
    targets = list(build_targets(primitive_set, True, m, n_bases))
    out_of_range = (
        CoopCommand(CommandKind.INTERCEPT, m),
        CoopCommand(CommandKind.INTERCEPT, -2),
        CoopCommand(CommandKind.DEFEND, n_bases),
        CoopCommand(CommandKind.DEFEND, -2),
    )
    for command in EXTRA_COMMANDS + out_of_range:
        targets.append(TargetNode(id=len(targets), command=command))
    graph = random_topology(rng, n_lower, int(rng.integers(1, 7)), targets)
    if fan_out > 1:  # groups bound to scrambled, non-ascending agent ids
        graph = dataclasses.replace(
            graph, extension=rng.permutation(cfg.n_agents).reshape(n_lower, fan_out).astype(np.int64)
        )
    return cfg, state, graph


def random_state(rng, cfg, trial):
    """A fresh episode, bent by the trial number toward the rarer branches."""
    state = reset(cfg, rng)
    n, n_bases = cfg.n_agents, cfg.n_bases
    if trial % 2:  # co-located members, one of them off by less than 1e-9
        state.agent_pos[: max(2, n // 2)] = state.agent_pos[0]
        state.agent_pos[1 % n, 0] += 1e-10
    if trial % 5 == 0:
        state.invader_active[0] = False
    if trial % 6 == 0:
        state.base_alive[0] = False
    if trial % 7 == 0:  # an invader sitting on its base
        state.invader_pos[0] = state.base_pos[state.invader_target[0]]
    if trial % 3 != 2:  # a defender inside the defend ring
        state.agent_pos[n - 1] = state.base_pos[trial % n_bases] + rng.uniform(-3, 3, size=3)
    return state


def random_batch(rng, trial, size):
    """``size`` episodes of one config, target layer and extension, each
    with its own state and topology, as a lockstep step has them."""
    cfg, state, graph = random_case(rng, trial)
    states, graphs = [state], [graph]
    for e in range(1, size):
        states.append(random_state(rng, cfg, trial + e))
        graphs.append(dataclasses.replace(
            graph,
            agent_to_cluster=rng.integers(0, graph.n_clusters, size=graph.n_agents),
            cluster_to_target=rng.integers(0, graph.n_targets, size=graph.n_clusters),
        ))
    return cfg, states, graphs


def coverage(command, members, state, cfg):
    """Controller branches one cluster's members reach."""
    hits = {command.kind.value, cfg.primitive_set.value}
    if command.kind is CommandKind.SCATTER:
        if len(members) == 1:
            hits.add("scatter singleton")
        elif len(np.unique(members, axis=0)) < len(members):
            hits.add("scatter co-located")
    if command.kind is CommandKind.INTERCEPT:
        j = command.entity
        if not 0 <= j < len(state.invader_pos):
            hits.add("invader out of range")
        elif not state.invader_active[j]:
            hits.add("invader neutralised")
        elif np.linalg.norm(state.base_pos[state.invader_target[j]] - state.invader_pos[j]) < 1e-9:
            hits.add("invader on its base")
        elif cfg.v_inv >= cfg.v_def:
            hits.add("invader not slower")
        else:
            hits.add("lead point")
    if command.kind is CommandKind.DEFEND:
        b = command.entity
        if not 0 <= b < len(state.base_pos):
            hits.add("base out of range")
        elif not state.base_alive[b]:
            hits.add("base dead")
        elif (np.linalg.norm(state.base_pos[b] - members, axis=1) <= R_DEFEND).any():
            hits.add("inside defend ring")
    return hits


BRANCHES = {
    "intercept", "defend", "gather", "scatter", "six", "fourteen", "none",
    "scatter singleton", "scatter co-located", "invader out of range",
    "invader neutralised", "invader on its base", "invader not slower", "lead point",
    "base out of range", "base dead", "inside defend ring", "scrambled extension",
}


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@pytest.mark.filterwarnings("error")
def test_array_pass_matches_per_member_reference():
    """Also fails on any warning: the array pass computes held rows too and
    must keep their divisions by zero quiet, as the per-member code did."""
    rng = np.random.default_rng(2024)
    seen = set()
    for trial in range(300):
        cfg, state, graph = random_case(rng, trial)
        dirs = cfg.move_dirs
        stack = stack_states([state])
        zero = np.zeros(1, dtype=np.int64)  # episode 0, cluster 0
        expected_actions = np.zeros(graph.n_env_agents, dtype=np.int64)
        rows, kinds, entities, clusters, expected_dirs = [], [], [], [], []
        for k in range(graph.n_clusters):
            env_ids = reference_env_agents(graph, k)
            if env_ids.size == 0:
                continue
            target = graph.targets[graph.cluster_to_target[k]]
            if target.is_primitive:
                expected_actions[env_ids] = target.action_id
                continue
            command = target.command
            members = state.agent_pos[env_ids]
            seen |= coverage(command, members, state, cfg)
            if graph.extension is not None and not np.all(np.diff(env_ids) > 0):
                seen.add("scrambled extension")
            cluster_dirs = [reference_direction(command, p, members, state, cfg) for p in members]
            expected_actions[env_ids] = [reference_discretize(d, dirs) for d in cluster_dirs]
            lone = state.invader_pos[:1]  # a one-agent cluster sitting on invader 0
            kind, entity = (np.array([c]) for c in command.code)
            assert same_bits(
                steer_rows(kind, entity, zero, zero, lone, stack, cfg),
                reference_direction(command, lone[0], lone, state, cfg),
            )
            rows.extend(env_ids.tolist())
            kinds.extend([command.code[0]] * env_ids.size)
            entities.extend([command.code[1]] * env_ids.size)
            clusters.extend([k] * env_ids.size)
            expected_dirs.extend(cluster_dirs)
        if rows:
            episode = np.zeros(len(rows), dtype=np.int64)
            coded = (np.array(kinds), np.array(entities), episode, np.array(clusters), state.agent_pos[rows])
            assert same_bits(steer_rows(*coded, stack, cfg), expected_dirs), f"trial {trial}"
            assert translate_rows(*coded, stack, cfg).tolist() == expected_actions[rows].tolist()
        graphs = stack_graphs([graph])
        assert resolve_agent_actions(graphs, stack, cfg)[0].tolist() == expected_actions.tolist()
        assert same_bits(target_raw_reps(graphs, stack, cfg)[0], reference_target_rows(graph, state, cfg))
    assert BRANCHES <= seen, f"never reached: {sorted(BRANCHES - seen)}"


@pytest.mark.filterwarnings("error")
def test_batched_passes_match_each_episode_alone():
    """Row e of every lockstep pass over a stack of mixed topologies equals
    episode e run alone (the B = 1 case), bit for bit: actions, target rows,
    observation rows, node batch and masks."""
    rng = np.random.default_rng(2025)
    seen = set()
    for trial in range(200):
        cfg, states, graphs = random_batch(rng, trial, size=int(rng.integers(1, 6)))
        graph, state = stack_graphs(graphs), stack_states(states)
        actions = resolve_agent_actions(graph, state, cfg)
        batch = node_batch(graph, state, cfg)
        masks = batch.head_masks()
        assert same_bits(batch.target_reps, target_raw_reps(graph, state, cfg))
        assert same_bits(batch.obs, agent_rows(graph, state, cfg))
        for e, (g, s) in enumerate(zip(graphs, states)):
            g1, s1 = stack_graphs([g]), stack_states([s])
            assert actions[e].tolist() == resolve_agent_actions(g1, s1, cfg)[0].tolist(), f"trial {trial}"
            alone = node_batch(g1, s1, cfg)
            for name in ("obs", "target_reps", "agent_to_cluster", "cluster_to_target"):
                assert same_bits(getattr(batch, name)[e], getattr(alone, name)[0]), name
            assert same_bits(batch.obs[e], agent_rows(g1, s1, cfg)[0])
            assert same_bits(batch.target_reps[e], target_raw_reps(g1, s1, cfg)[0])
            for mask, one in zip(masks, alone.head_masks()):
                assert mask[e].tolist() == one[0].tolist()
            for k in range(g.n_clusters):
                target = g.targets[g.cluster_to_target[k]]
                env_ids = reference_env_agents(g, k)
                if env_ids.size and not target.is_primitive:
                    seen |= coverage(target.command, s.agent_pos[env_ids], s, cfg)
            if g.extension is not None and not np.array_equal(np.sort(g.extension, axis=None), g.extension.ravel()):
                seen.add("scrambled extension")
        seen.add(f"batch of {min(len(states), 3)}+")
    assert BRANCHES | {"batch of 1+", "batch of 3+"} <= seen, f"never reached: {sorted(BRANCHES - seen)}"


@pytest.mark.parametrize(
    "extension,flee",
    [
        # the two agents tied nearest to agent 0 sit in one group, listed high id first
        ([[2, 1], [0, 3]], 1),
        # ... or in different groups, the higher id in the later group
        ([[1, 3], [0, 2]], 0),
    ],
)
def test_scatter_tie_follows_member_order(extension, flee):
    """Agent 0 sits between agents 1 and 2 at equal distance; scatter flees
    the first of them in member order, which the extension sets."""
    cfg = EnvConfig(n_agents=4, k_threshold=1, m_invaders=1, n_bases=1)
    state = reset(cfg, np.random.default_rng(0))
    state.agent_pos[:] = [[11, 10, 10], [10, 10, 10], [12, 10, 10], [60, 60, 60]]
    graph = dataclasses.replace(
        random_topology(np.random.default_rng(0), 2, 1, [TargetNode(0, command=CoopCommand(CommandKind.SCATTER))]),
        extension=np.array(extension, dtype=np.int64),
    )
    assert resolve_agent_actions(stack_graphs([graph]), stack_states([state]), cfg)[0, 0] == flee  # 0: +x, 1: -x
