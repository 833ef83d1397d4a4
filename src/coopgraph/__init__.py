"""Cooperation-graph control for swarm teams.

Agents are steered by a three-layer action graph (agents, clusters,
targets) instead of per-agent policy networks; four learned graph operators
rewire its edges each step and are trained with multi-agent PPO on a sparse
swarm-interception benchmark. The package bundles the graph machinery, the
benchmark simulator, hand-coded cluster commands, a small autodiff engine,
the operator policy network and the training / evaluation / transfer
tooling.
"""

__version__ = "0.1.0"

from .commands import CommandKind, CoopCommand
from .env import EnvConfig, EnvState, PrimitiveSet, parse_task_name
from .graph import (
    CooperationGraph,
    OperatorAction,
    TargetNode,
    apply_operator_action,
    build_targets,
    extend,
    interfere,
    random_topology,
    resolve_agent_actions,
    select_initial_topology,
    topology_entropy,
)
from .policy import PolicyParams, init_params, layout_for, surgery_for_extension
from .training import TrainConfig, Trainer, TrainSettings, collect, compute_gae, ppo_update

__all__ = [
    "CommandKind",
    "CooperationGraph",
    "CoopCommand",
    "EnvConfig",
    "EnvState",
    "OperatorAction",
    "PolicyParams",
    "PrimitiveSet",
    "TargetNode",
    "TrainConfig",
    "TrainSettings",
    "Trainer",
    "apply_operator_action",
    "build_targets",
    "collect",
    "compute_gae",
    "extend",
    "init_params",
    "interfere",
    "layout_for",
    "parse_task_name",
    "ppo_update",
    "random_topology",
    "resolve_agent_actions",
    "select_initial_topology",
    "surgery_for_extension",
    "topology_entropy",
]
