"""The swarm-interception benchmark, driven by hand.

Defenders protect ground bases from descending invaders. An invader slows
once slow_count defenders track it and turns back for good at k trackers.
Rewards are sparse: one +/-1 at the episode end.
"""

import numpy as np

from coopgraph.env import EnvConfig, observe_all, parse_task_name, reset, stack_states, step

cfg = EnvConfig(*parse_task_name("CSI-12/2/3"), n_bases=2)
print(f"task: N={cfg.n_agents} defenders, k={cfg.k_threshold} trackers to turn back, "
      f"m={cfg.m_invaders} invaders, arena {cfg.world_extent}^3")

rng = np.random.default_rng(7)
state = reset(cfg, rng)
print("\nbases on the ground plane:\n", state.base_pos.round(1))
print("invaders enter at the top face:\n", state.invader_pos.round(1))
print("invader -> base assignments:", state.invader_target)

# the observation pass reads a stack of lockstep episodes; here a stack of one
obs = observe_all(stack_states([state]), cfg)[0]
print(f"\nobservation matrix {obs.shape}: own position, then 4 numbers per "
      f"invader (relative position + active flag), then 4 per base")
print("agent 0 row:", obs[0].round(2))

# drive everyone straight up (+z is action id 4) and watch the threat close in
total = 0.0
for t in range(cfg.t_max):
    state, out = step(state, np.full(cfg.n_agents, 4), cfg)
    total += out.reward
    if t % 40 == 0:
        heights = state.invader_pos[:, 2].round(1)
        print(f"t={state.t:3d} invader z: {heights} active: {state.invader_active}")
    if out.done:
        break
print(f"\nepisode over at t={state.t}: reward {out.reward:+.0f} "
      f"({np.count_nonzero(~state.invader_active)} neutralized, "
      f"{np.count_nonzero(~state.base_alive)} bases destroyed)")
print("only the terminal step pays:", total == out.reward)
