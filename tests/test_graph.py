"""Cooperation graph: rewiring rules, the head masks its edge maps give,
entropy, extension, export."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopgraph.commands import CommandKind, CoopCommand
from coopgraph.env import EnvConfig, PrimitiveSet, reset, stack_states
from coopgraph.graph import (
    CooperationGraph,
    GraphInvariantError,
    OperatorAction,
    TargetNode,
    apply_operator_action,
    apply_operator_actions,
    build_targets,
    extend,
    from_json,
    interfere,
    random_topology,
    resolve_agent_actions,
    select_initial_topology,
    stack_graphs,
    to_dot,
    to_json,
    topology_entropy,
    validate,
)
from coopgraph.policy import node_batch

from test_env import hover_state


def six_targets(n=2):
    return tuple(TargetNode(id=i, action_id=i) for i in range(n))


def head_masks(g):
    """The op1/op3 source masks the policy derives from the node inputs of
    graph g alone: (cluster mask, target mask), one row each."""
    cfg = EnvConfig(n_agents=g.n_env_agents, k_threshold=1, m_invaders=1, n_bases=1)
    state = reset(cfg, np.random.default_rng(0))
    cluster_mask, target_mask = node_batch(stack_graphs([g]), stack_states([state]), cfg).head_masks()
    return cluster_mask[0], target_mask[0]


def small_graph():
    """agents 0,1 -> c0; 2 -> c1; c0 -> t0, c1 -> t1."""
    return CooperationGraph(
        n_clusters=2,
        targets=six_targets(2),
        agent_to_cluster=np.array([0, 0, 1], dtype=np.int64),
        cluster_to_target=np.array([0, 1], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# operator action application
# ---------------------------------------------------------------------------


def test_apply_moves_lowest_agent_and_cluster():
    g = small_graph()
    g2, flags = apply_operator_action(g, OperatorAction(0, 1, 0, 1))
    assert flags == (True, True)
    assert g2.agent_to_cluster.tolist() == [1, 0, 1]  # agent 0 (lowest in c0) moved
    assert g2.cluster_to_target.tolist() == [1, 1]    # c0 (lowest on t0) retargeted
    # input untouched
    assert g.agent_to_cluster.tolist() == [0, 0, 1]
    # the target layer and its code table carry over unchanged
    assert g2.targets is g.targets and not g2.targets.codes.flags.writeable


def test_apply_same_cluster_is_noop():
    g = small_graph()
    g2, flags = apply_operator_action(g, OperatorAction(0, 0, 0, 1))
    assert flags[0] is False
    assert g2.agent_to_cluster.tolist() == g.agent_to_cluster.tolist()


def test_apply_empty_source_is_noop():
    g = CooperationGraph(
        n_clusters=2,
        targets=six_targets(2),
        agent_to_cluster=np.array([0, 0, 0], dtype=np.int64),
        cluster_to_target=np.array([0, 1], dtype=np.int64),
    )
    g2, flags = apply_operator_action(g, OperatorAction(1, 0, 0, 1))
    assert flags[0] is False
    assert g2.agent_to_cluster.tolist() == [0, 0, 0]


def test_apply_full_identity():
    g = small_graph()
    g2, flags = apply_operator_action(g, OperatorAction(0, 0, 1, 1))
    assert flags == (False, False)
    assert g2 is g  # bit-identical no-op returns the same snapshot


def test_apply_rejects_out_of_range():
    g = small_graph()
    with pytest.raises(ValueError):
        apply_operator_action(g, OperatorAction(5, 0, 0, 1))
    with pytest.raises(ValueError):
        apply_operator_action(g, OperatorAction(0, 1, 0, 9))


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def test_masks_single_occupied_cluster():
    g = CooperationGraph(
        n_clusters=3,
        targets=six_targets(2),
        agent_to_cluster=np.zeros(4, dtype=np.int64),
        cluster_to_target=np.array([0, 0, 0], dtype=np.int64),
    )
    cluster_mask, target_mask = head_masks(g)
    assert cluster_mask.tolist() == [True, False, False]
    assert target_mask.tolist() == [True, False]


def test_masks_spread_and_concentrated():
    targets = six_targets(6)
    g = CooperationGraph(
        n_clusters=14,
        targets=targets,
        agent_to_cluster=np.arange(14, dtype=np.int64),
        cluster_to_target=np.full(14, 5, dtype=np.int64),
    )
    cluster_mask, target_mask = head_masks(g)
    assert cluster_mask.all()
    assert target_mask.tolist() == [False] * 5 + [True]


# ---------------------------------------------------------------------------
# action resolution
# ---------------------------------------------------------------------------


def test_resolve_broadcast_primitive():
    cfg = EnvConfig(n_agents=3, k_threshold=1, m_invaders=1, n_bases=1)
    state = hover_state(cfg, [[1, 1, 1], [2, 2, 2], [3, 3, 3]], [[90, 90, 90]])
    g = CooperationGraph(
        n_clusters=1,
        targets=six_targets(6),
        agent_to_cluster=np.zeros(3, dtype=np.int64),
        cluster_to_target=np.array([0], dtype=np.int64),
    )
    acts = resolve_agent_actions(stack_graphs([g]), stack_states([state]), cfg)[0]
    assert acts.tolist() == [0, 0, 0]


def test_resolve_cooperative_gather():
    cfg = EnvConfig(n_agents=2, k_threshold=1, m_invaders=1, n_bases=1)
    state = hover_state(cfg, [[0, 0, 0], [4, 0, 0]], [[90, 90, 90]])
    targets = (TargetNode(id=0, action_id=0), TargetNode(id=1, command=CoopCommand(CommandKind.GATHER)))
    g = CooperationGraph(
        n_clusters=1,
        targets=targets,
        agent_to_cluster=np.zeros(2, dtype=np.int64),
        cluster_to_target=np.array([1], dtype=np.int64),
    )
    acts = resolve_agent_actions(stack_graphs([g]), stack_states([state]), cfg)[0]
    assert acts.tolist() == [0, 1]  # +x toward centroid, -x back


def test_resolve_total_with_empty_cluster():
    cfg = EnvConfig(n_agents=3, k_threshold=1, m_invaders=1, n_bases=1)
    state = reset(cfg, np.random.default_rng(0))
    g = CooperationGraph(
        n_clusters=3,
        targets=six_targets(6),
        agent_to_cluster=np.array([0, 0, 2], dtype=np.int64),
        cluster_to_target=np.array([3, 1, 4], dtype=np.int64),
    )
    acts = resolve_agent_actions(stack_graphs([g]), stack_states([state]), cfg)[0]
    assert acts.shape == (3,)
    assert acts.tolist() == [3, 3, 4]


# ---------------------------------------------------------------------------
# random topology / entropy / initialization
# ---------------------------------------------------------------------------


def test_random_topology_single_cluster():
    g = random_topology(np.random.default_rng(0), 10, 1, six_targets(3))
    assert (g.agent_to_cluster == 0).all()
    validate(g)


def test_random_topology_deterministic():
    a = random_topology(np.random.default_rng(42), 20, 5, six_targets(4))
    b = random_topology(np.random.default_rng(42), 20, 5, six_targets(4))
    assert np.array_equal(a.agent_to_cluster, b.agent_to_cluster)
    assert np.array_equal(a.cluster_to_target, b.cluster_to_target)


def test_random_topology_rejects_degenerate():
    with pytest.raises(ValueError):
        random_topology(np.random.default_rng(0), 5, 0, six_targets(2))
    with pytest.raises(ValueError):
        random_topology(np.random.default_rng(0), 5, 2, ())


def test_random_topology_multinomial_counts():
    """Per-cluster counts stay within 4 sigma of n/k under the multinomial:
    n=1000, p=1/10 -> sigma = sqrt(1000 * .1 * .9) ~ 9.487, band 100 +/- 37.9."""
    sigma = math.sqrt(1000 * 0.1 * 0.9)
    for seed in range(20):
        g = random_topology(np.random.default_rng(seed), 1000, 10, six_targets(3))
        counts = np.bincount(g.agent_to_cluster, minlength=10)
        assert (np.abs(counts - 100) <= 4 * sigma).all(), f"seed {seed}: {counts}"


def test_entropy_degenerate_zero():
    g = CooperationGraph(
        n_clusters=3,
        targets=six_targets(4),
        agent_to_cluster=np.zeros(6, dtype=np.int64),
        cluster_to_target=np.full(3, 2, dtype=np.int64),
    )
    assert topology_entropy(g) == 0.0


def test_entropy_uniform_maximum():
    n_k, n_t = 4, 4
    g = CooperationGraph(
        n_clusters=n_k,
        targets=six_targets(n_t),
        agent_to_cluster=np.repeat(np.arange(n_k), 3).astype(np.int64),
        cluster_to_target=np.arange(n_k, dtype=np.int64) % n_t,
    )
    assert topology_entropy(g) == pytest.approx(math.log(n_k) + math.log(n_t))


def test_entropy_two_two_split():
    g = CooperationGraph(
        n_clusters=2,
        targets=six_targets(2),
        agent_to_cluster=np.array([0, 0, 1, 1], dtype=np.int64),
        cluster_to_target=np.array([0, 1], dtype=np.int64),
    )
    assert topology_entropy(g) == pytest.approx(2 * math.log(2))
    assert topology_entropy(g) == pytest.approx(1.3863, abs=1e-4)


def test_entropy_bounds_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_topology(rng, 12, 5, six_targets(7))
        h = topology_entropy(g)
        assert 0.0 <= h <= math.log(5) + math.log(7) + 1e-12


def test_select_initial_topology():
    targets = six_targets(5)
    picked = select_initial_topology(np.random.default_rng(9), 100, 30, 6, targets)
    # regenerate the same candidate stream and compare entropies
    rng = np.random.default_rng(9)
    entropies = [topology_entropy(random_topology(rng, 30, 6, targets)) for _ in range(100)]
    assert topology_entropy(picked) == pytest.approx(max(entropies))
    # K=1 equals plain random_topology
    one = select_initial_topology(np.random.default_rng(3), 1, 30, 6, targets)
    raw = random_topology(np.random.default_rng(3), 30, 6, targets)
    assert np.array_equal(one.agent_to_cluster, raw.agent_to_cluster)
    # byte-identical across invocations
    a = select_initial_topology(np.random.default_rng(4), 100, 30, 6, targets)
    b = select_initial_topology(np.random.default_rng(4), 100, 30, 6, targets)
    assert to_json(a) == to_json(b)


class _StubRng:
    """Deterministic integer feeder standing in for a Generator."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, lo, hi):
        return self.values.pop(0)


def test_interfere_doubly_invalid_leaves_topology():
    g = small_graph()
    fake = interfere(g, _StubRng([0, 0, 1, 1]))
    assert fake == OperatorAction(0, 0, 1, 1)
    g2, _ = apply_operator_action(g, fake)
    assert g2.agent_to_cluster.tolist() == g.agent_to_cluster.tolist()
    assert g2.cluster_to_target.tolist() == g.cluster_to_target.tolist()


def test_interfere_preserves_invariants():
    rng = np.random.default_rng(0)
    g = random_topology(rng, 9, 4, six_targets(5))
    for _ in range(500):
        g, _ = apply_operator_action(g, interfere(g, rng))
        validate(g)


def test_interference_trigger_rate():
    """Binomial 99.9% interval for 10^6 Bernoulli(0.005) trials."""
    rng = np.random.default_rng(2024)
    count = int((rng.random(10**6) < 0.005).sum())
    assert 4600 <= count <= 5400, count


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------


def make_27_graph():
    return random_topology(np.random.default_rng(1), 27, 14, six_targets(6))


def test_extend_doubles_team():
    g = extend(make_27_graph(), 2)
    assert g.n_env_agents == 54
    assert g.n_agents == 27
    assert g.n_clusters == 14 and g.n_targets == 6
    validate(g)


def test_extend_fan_out_eight():
    g = extend(make_27_graph(), 8)
    assert g.n_env_agents == 216


def test_extend_rejects_bad_input():
    g = make_27_graph()
    with pytest.raises(ValueError):
        extend(g, 1)
    with pytest.raises(ValueError):
        extend(extend(g, 2), 2)


def test_extend_resolution_total_and_neutral():
    cfg = EnvConfig(n_agents=54, k_threshold=2, m_invaders=2, n_bases=2)
    g = extend(random_topology(np.random.default_rng(3), 27, 14, six_targets(6)), 2)
    state = reset(cfg, np.random.default_rng(0))
    acts = resolve_agent_actions(stack_graphs([g]), stack_states([state]), cfg)[0]
    assert acts.shape == (54,)
    # all-primitive targets: sibling agents of each group act identically
    for i in range(27):
        group = acts[g.extension[i]]
        assert (group == group[0]).all()


def test_extension_rewires_groups_not_members():
    g = extend(make_27_graph(), 2)
    g2, flags = apply_operator_action(g, OperatorAction(g.agent_to_cluster[0], (g.agent_to_cluster[0] + 1) % 14, 0, 0))
    assert flags[0]
    assert np.array_equal(g2.extension, g.extension)  # static lower layer


# ---------------------------------------------------------------------------
# closure / no-op soundness / conservation properties
# ---------------------------------------------------------------------------


def run_closure_suite(n_topologies: int, actions_per_topology: int, seed: int = 0) -> None:
    """Random operator actions never break an invariant, flags match the
    empty-source/same-node rules exactly, and each map changes by at most
    one entry."""
    rng = np.random.default_rng(seed)
    for _ in range(n_topologies):
        n_agents = int(rng.integers(1, 40))
        n_k = int(rng.integers(1, 15))
        n_t = int(rng.integers(1, 12))
        g = random_topology(rng, n_agents, n_k, six_targets(n_t))
        for _ in range(actions_per_topology):
            action = OperatorAction(
                int(rng.integers(n_k)), int(rng.integers(n_k)),
                int(rng.integers(n_t)), int(rng.integers(n_t)),
            )
            counts = np.bincount(g.agent_to_cluster, minlength=n_k)
            expect_agent = action.src_cluster != action.dst_cluster and counts[action.src_cluster] > 0
            linked = np.bincount(g.cluster_to_target, minlength=n_t)
            expect_cluster = action.src_target != action.dst_target and linked[action.src_target] > 0

            g2, flags = apply_operator_action(g, action)
            assert flags == (expect_agent, expect_cluster)
            assert (g2.agent_to_cluster != g.agent_to_cluster).sum() == (1 if flags[0] else 0)
            assert (g2.cluster_to_target != g.cluster_to_target).sum() == (1 if flags[1] else 0)
            if not flags[0]:
                assert g2.agent_to_cluster.tobytes() == g.agent_to_cluster.tobytes()
            if not flags[1]:
                assert g2.cluster_to_target.tobytes() == g.cluster_to_target.tobytes()
            validate(g2)
            g = g2


def test_closure_smoke():
    run_closure_suite(n_topologies=20, actions_per_topology=50)


@pytest.mark.parametrize("fan_out", [1, 2])
def test_batched_operator_pass_matches_per_graph(fan_out):
    """``apply_operator_actions`` on a stack gives the edge maps of one
    ``apply_operator_action`` call per row, and leaves its input as it was.
    The rows mix a full source cluster and target with src == dst pairs, an
    empty source cluster and a target with no cluster."""
    rng = np.random.default_rng(fan_out)
    for _ in range(50):
        n_agents, n_k, n_t, B = int(rng.integers(1, 12)), int(rng.integers(1, 8)), int(rng.integers(2, 9)), 6
        graphs = [random_topology(rng, n_agents, n_k, six_targets(n_t)) for _ in range(B)]
        if fan_out > 1:
            graphs = [extend(g, fan_out) for g in graphs]
        actions = np.column_stack([
            rng.integers(0, n_k, size=B), rng.integers(0, n_k, size=B),
            rng.integers(0, n_t, size=B), rng.integers(0, n_t, size=B),
        ])
        # row 0 moves from an occupied source, row 1 pairs each node with itself
        actions[0, 0], actions[0, 2] = graphs[0].agent_to_cluster[0], graphs[0].cluster_to_target[0]
        actions[1, 1], actions[1, 3] = actions[1, 0], actions[1, 2]
        stack = stack_graphs(graphs)
        before = (stack.agent_to_cluster.copy(), stack.cluster_to_target.copy())
        out = apply_operator_actions(stack, actions)
        expect = stack_graphs([apply_operator_action(g, OperatorAction(*a))[0] for g, a in zip(graphs, actions)])
        assert np.array_equal(out.agent_to_cluster, expect.agent_to_cluster)
        assert np.array_equal(out.cluster_to_target, expect.cluster_to_target)
        assert out.extension is stack.extension and out.targets is stack.targets
        assert np.array_equal(stack.agent_to_cluster, before[0])
        assert np.array_equal(stack.cluster_to_target, before[1])
    # an empty source cluster (c2) and a target with no cluster (t2..t5)
    g = CooperationGraph(3, six_targets(6), np.array([0, 0, 1]), np.array([0, 1, 0]))
    out = apply_operator_actions(stack_graphs([g, g]), [[2, 0, 2, 0], [0, 2, 0, 3]])
    assert out.agent_to_cluster.tolist() == [[0, 0, 1], [2, 0, 1]]
    assert out.cluster_to_target.tolist() == [[0, 1, 0], [3, 1, 0]]


def test_batched_operator_pass_rejects_out_of_range():
    stack = stack_graphs([small_graph()] * 2)
    for bad in ([0, 0, 0, 2], [0, 2, 0, 0], [-1, 0, 0, 0]):
        with pytest.raises(ValueError):
            apply_operator_actions(stack, [[0, 1, 0, 1], bad])


@settings(max_examples=200, deadline=None)
@given(
    n_agents=st.integers(1, 12),
    n_k=st.integers(1, 6),
    n_t=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_mask_completeness_property(n_agents, n_k, n_t, seed, data):
    """An action passing the source masks with distinct nodes always applies."""
    g = random_topology(np.random.default_rng(seed), n_agents, n_k, six_targets(n_t))
    cluster_mask, target_mask = head_masks(g)
    src_c = data.draw(st.integers(0, n_k - 1))
    dst_c = data.draw(st.integers(0, n_k - 1))
    src_t = data.draw(st.integers(0, n_t - 1))
    dst_t = data.draw(st.integers(0, n_t - 1))
    _, flags = apply_operator_action(g, OperatorAction(src_c, dst_c, src_t, dst_t))
    if cluster_mask[src_c] and src_c != dst_c:
        assert flags[0]
    if target_mask[src_t] and src_t != dst_t:
        assert flags[1]


# ---------------------------------------------------------------------------
# snapshot export
# ---------------------------------------------------------------------------


def coop_graph():
    targets = build_targets(PrimitiveSet.SIX, True, 2, 2)
    return random_topology(np.random.default_rng(8), 6, 3, targets)


def test_json_round_trip():
    g = coop_graph()
    g2 = from_json(to_json(g))
    assert to_json(g2) == to_json(g)
    assert np.array_equal(g2.agent_to_cluster, g.agent_to_cluster)
    assert np.array_equal(g2.cluster_to_target, g.cluster_to_target)
    ext = extend(g, 3)
    ext2 = from_json(to_json(ext))
    assert np.array_equal(ext2.extension, ext.extension)


def test_json_schema_fields():
    import json

    doc = json.loads(to_json(coop_graph()))
    assert set(doc) == {
        "n_agents", "n_clusters", "targets", "agent_to_cluster", "cluster_to_target", "extension",
    }
    kinds = [t["kind"] for t in doc["targets"]]
    assert kinds[:6] == ["primitive"] * 6
    assert kinds[6:] == ["cooperative"] * 4


def test_dot_export_layers_and_colors():
    dot = to_dot(coop_graph())
    assert dot.startswith("digraph")
    assert "fillcolor=red" in dot and "fillcolor=lightblue" in dot and "fillcolor=green" in dot
    assert "a0 -> c" in dot and "c0 -> t" in dot


def test_validate_catches_violations():
    g = small_graph()
    bad = CooperationGraph(
        n_clusters=2,
        targets=six_targets(2),
        agent_to_cluster=np.array([0, 0, 5], dtype=np.int64),
        cluster_to_target=np.array([0, 1], dtype=np.int64),
    )
    with pytest.raises(GraphInvariantError):
        validate(bad)
    validate(g)
    with pytest.raises(ValueError):
        TargetNode(id=0)  # neither primitive nor cooperative


def test_head_mask_shapes():
    """One bool row per episode of a stack, over the clusters and the targets."""
    cfg = EnvConfig(n_agents=3, k_threshold=1, m_invaders=1, n_bases=1)
    g = small_graph()
    emptied, _ = apply_operator_action(g, OperatorAction(1, 0, 1, 0))  # c1 and t1 lose their edge
    states = [reset(cfg, np.random.default_rng(e)) for e in range(3)]
    cluster_mask, target_mask = node_batch(stack_graphs([g, emptied, g]), stack_states(states), cfg).head_masks()
    assert cluster_mask.dtype == bool and target_mask.dtype == bool
    assert cluster_mask.tolist() == [[True, True], [True, False], [True, True]]
    assert target_mask.tolist() == [[True, True], [True, False], [True, True]]
