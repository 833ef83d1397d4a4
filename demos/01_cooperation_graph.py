"""Tour of the cooperation graph: topology, operator moves, extension.

The graph has three layers. Agents (bottom) each belong to one cluster;
clusters (middle) each execute one target; targets (top) are primitive moves
or cluster-level commands. One operator action moves at most one agent edge
and one cluster edge per step.
"""

import numpy as np

from coopgraph import (
    OperatorAction,
    apply_operator_action,
    build_targets,
    extend,
    interfere,
    random_topology,
    select_initial_topology,
    topology_entropy,
)
from coopgraph.env import PrimitiveSet
from coopgraph.graph import to_dot, to_json

rng = np.random.default_rng(0)

# six primitive moves plus one intercept per invader and one defend per base
targets = build_targets(PrimitiveSet.SIX, include_coop=True, m_invaders=3, n_bases=2)
print(f"target layer ({len(targets)} nodes):", [t.label() for t in targets])

graph = random_topology(rng, n_agents=8, n_clusters=4, targets=targets)
print("\nagent -> cluster:", graph.agent_to_cluster)
print("cluster -> target:", graph.cluster_to_target)
print(f"edge entropy: {topology_entropy(graph):.3f} nats")

# a high-entropy start keeps the operators far from degenerate layouts;
# this exact pick is frozen as the episode-start topology for a whole run
frozen = select_initial_topology(rng, 100, 8, 4, targets)
print(f"frozen start entropy: {topology_entropy(frozen):.3f} nats")

# move the lowest agent of cluster 0 into cluster 2, and retarget whichever
# cluster currently sits on target 0
action = OperatorAction(src_cluster=0, dst_cluster=2, src_target=0, dst_target=7)
graph2, applied = apply_operator_action(graph, action)
print(f"\napplied {action.as_tuple()} -> flags {applied}")
print("agent -> cluster:", graph2.agent_to_cluster)

# invalid pairs (same node, or an empty source) are silent no-ops
noop, flags = apply_operator_action(graph2, OperatorAction(1, 1, 3, 3))
print("same-node pairs:", flags, "(nothing changed)")

# only a nonempty source can move, which is what the policy masks op1/op3 to
# (demo 05): clusters with a member agent, targets with a cluster
print("\noccupied sources -- clusters:", np.unique(graph2.agent_to_cluster),
      " targets:", np.unique(graph2.cluster_to_target))

# random interference used during training to harden the operators
fake = interfere(graph2, rng)
graph3, _ = apply_operator_action(graph2, fake)
print("interference applied fake action", fake.as_tuple())

# curriculum extension: each agent node becomes a group of 3 new agents
big = extend(graph2, fan_out=3)
print(f"\nextended: {big.n_agents} group nodes drive {big.n_env_agents} agents,"
      f" clusters/targets unchanged ({big.n_clusters}/{big.n_targets})")

print("\nDOT snippet:")
print("\n".join(to_dot(graph2).splitlines()[:6]), "...")
print("\nJSON snippet:", to_json(graph2)[:120], "...")
