"""Inside the operator policy: member attention, target gather, masked heads, decoder.

Cluster rows attend over their member agents and gather the value row of
their one selected target, so the per-cluster embeddings carry the live
topology. Four sequential heads pick the rewiring action; an attention
decoder reconstructs the raw node representations as an auxiliary loss.
The encoder and decoders run on weights folded from the parameters
(``fold``): a rollout folds once, a PPO update once per minibatch.
"""

import numpy as np

from coopgraph import build_targets, init_params, layout_for, random_topology
from coopgraph.env import EnvConfig, parse_task_name, reset, stack_states
from coopgraph.graph import stack_graphs
from coopgraph.policy import act_batch, encode, fold, latent, node_batch, reconstruct, value

cfg = EnvConfig(*parse_task_name("CSI-12/2/3"), n_bases=2)
targets = build_targets(cfg.primitive_set, True, cfg.m_invaders, cfg.n_bases)
rng = np.random.default_rng(3)
graph = random_topology(rng, cfg.n_agents, 6, targets)
params = init_params(layout_for(graph, cfg), rng)
state = reset(cfg, rng)

# the network reads a stack of lockstep episodes; here a stack of one
batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
print("network inputs:")
print("  agent rows    ", batch.obs.shape, "(raw observations)")
print("  target rows   ", batch.target_reps.shape, "(one-hot moves / command descriptors)")
print("  cluster rows  : one-hot, built into the parameters")

folded = fold(params)
e_h = encode(batch, folded)
z = latent(e_h, params)
print(f"\nper-cluster embeddings e_h {e_h.shape} -> shared latent z {z.shape}")
print(f"critic value: {float(value(z, params).data[0]):+.4f}")

# op1/op3 are masked to nonempty sources, read off the batch's edge maps
cluster_mask, target_mask = batch.head_masks()
print(f"\nhead masks: {cluster_mask.sum()} of {graph.n_clusters} clusters, "
      f"{target_mask.sum()} of {graph.n_targets} targets selectable as sources")
actions, log_probs, _ = act_batch(batch, folded, [np.random.default_rng(0)])
print(f"sampled operator action: {tuple(actions[0].tolist())}")
print(f"  per-head log-probs {log_probs[0].round(2)}")
print(f"  op1 respected the nonempty-cluster mask: {bool(cluster_mask[0, actions[0, 0]])}")

agent_hat, cluster_hat, target_hat, l_ae = reconstruct(e_h, batch, folded)
print(f"\ndecoder reconstructions: agents {agent_hat.shape}, clusters {cluster_hat.shape}, "
      f"targets {target_hat.shape}")
print(f"reconstruction loss at init: {float(l_ae.data):.4f}")

# greedy mode is deterministic, used for evaluation
again, _, _ = act_batch(batch, folded, [None], mode="argmax")
assert (again == act_batch(batch, folded, [None], mode="argmax")[0]).all()
print("\nargmax decisions are reproducible:", tuple(again[0].tolist()))
