"""Cluster commands: one order, different primitive moves per member.

A cluster connected to a command node translates it per member: gather
contracts the cluster, scatter expands it, intercept leads a moving invader,
defend holds a ring around a base. Directions snap to the nearest primitive
move. Translation is one array pass over member rows, each coded with its
command, episode and cluster; here one cluster of one episode.
"""

import numpy as np

from coopgraph.commands import CommandKind, CoopCommand, snap, steer_rows, translate_rows
from coopgraph.env import EnvConfig, EnvState, move_directions, stack_states

cfg = EnvConfig(n_agents=4, k_threshold=2, m_invaders=1, n_bases=1)
state = EnvState(
    t=0,
    agent_pos=np.array([[10.0, 10, 0], [18, 10, 0], [10, 18, 0], [18, 18, 0]]),
    invader_pos=np.array([[40.0, 40, 60]]),
    invader_target=np.array([0]),
    invader_active=np.array([True]),
    invader_heading=np.zeros((1, 3)),
    base_pos=np.array([[30.0, 30, 0]]),
    base_alive=np.array([True]),
)
dirs = move_directions(cfg.primitive_set)
labels = ["+x", "-x", "+y", "-y", "+z", "-z"]


def cluster_rows(cmd):
    """All four agents as one cluster executing ``cmd`` in a one-episode
    stack: (kind, entity, episode, cluster, positions, stack)."""
    kind, entity = (np.full(4, c) for c in cmd.code)
    zeros = np.zeros(4, dtype=np.int64)
    return kind, entity, zeros, zeros, state.agent_pos, stack_states([state])


print("four agents in a square; the same command lands differently on each:\n")
for kind, entity in [(CommandKind.GATHER, None), (CommandKind.SCATTER, None),
                     (CommandKind.INTERCEPT, 0), (CommandKind.DEFEND, 0)]:
    cmd = CoopCommand(kind, entity)
    acts = translate_rows(*cluster_rows(cmd), cfg)
    print(f"{cmd.label():<13} -> {[labels[a] for a in acts]}")

print("\nintercept leads the target: the invader dives toward the base, so the")
print("steering point sits ahead of it along its attack line:")
d = steer_rows(*cluster_rows(CoopCommand(CommandKind.INTERCEPT, 0)), cfg)[0]
print("agent 0 raw steering vector:", d.round(2))
print("snapped to:", labels[snap(d[None], dirs)[0]])

print("\na dead or out-of-range entity degrades to a hold (zero direction):")
state.invader_active[0] = False
d = steer_rows(*cluster_rows(CoopCommand(CommandKind.INTERCEPT, 0)), cfg)[0]
print("after neutralization:", d, "-> action", labels[snap(d[None], dirs)[0]], "(tie rule)")
