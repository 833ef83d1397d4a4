"""Simulator: task grammar, spawn layout, step rules, observations."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from coopgraph.env import (
    EnvConfig,
    EnvState,
    PrimitiveSet,
    StepOutcome,
    TaskNameError,
    config_for_task,
    move_directions,
    obs_dim,
    observe,
    observe_all,
    parse_task_name,
    primitive_directions,
    reset,
    row_norms,
    step,
)


# ---------------------------------------------------------------------------
# task grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [
        ("CSI-54/6/9", (54, 6, 9)),
        ("CSI-27/3/9", (27, 3, 9)),
        ("CSI-1/1/1", (1, 1, 1)),
    ],
)
def test_parse_task_name(name, expected):
    assert parse_task_name(name) == expected


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("CSI-54/6", "does not match"),
        ("csi-54/6/9", "does not match"),
        ("CSI-x/6/9", "defender count"),
        ("CSI-54/y/9", "threshold k"),
        ("CSI-54/6/", "invader count"),
        ("CSI-0/6/9", "must be >= 1"),
    ],
)
def test_parse_task_name_errors(bad, fragment):
    with pytest.raises(TaskNameError, match=fragment):
        parse_task_name(bad)


def test_config_invariants():
    with pytest.raises(ValueError):
        EnvConfig(n_agents=4, k_threshold=1, m_invaders=1, slow_count=2)  # slow_count > k
    with pytest.raises(ValueError):
        EnvConfig(n_agents=4, k_threshold=2, m_invaders=1, v_def=0.3)  # slowed invader faster
    cfg = config_for_task("CSI-27/3/9")
    assert (cfg.n_agents, cfg.k_threshold, cfg.m_invaders) == (27, 3, 9)
    assert cfg.slow_count == 2  # ceil(3/2)


def test_move_directions_none_falls_back_to_six():
    assert move_directions(PrimitiveSet.NONE).shape == (6, 3)
    assert move_directions(PrimitiveSet.FOURTEEN).shape == (14, 3)
    norms = np.linalg.norm(move_directions(PrimitiveSet.FOURTEEN), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("primitive_set", list(PrimitiveSet))
def test_direction_tables_are_shared_and_read_only(primitive_set):
    cfg = EnvConfig(n_agents=2, k_threshold=1, m_invaders=1, primitive_set=primitive_set)
    assert cfg.move_dirs is cfg.move_dirs
    with pytest.raises(ValueError, match="read-only"):
        cfg.move_dirs[0, 0] = 2.0
    table = primitive_directions(primitive_set)
    assert table is primitive_directions(primitive_set) and not table.flags.writeable


def test_row_norms_match_one_vector_norm_bits():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(-3, 3, size=(20_000, 1))
    expected = np.array([np.linalg.norm(row) for row in x])
    assert row_norms(x).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# reset
# ---------------------------------------------------------------------------


def test_reset_deterministic(tiny_env_config):
    s1 = reset(tiny_env_config, np.random.default_rng(5))
    s2 = reset(tiny_env_config, np.random.default_rng(5))
    assert np.array_equal(s1.agent_pos, s2.agent_pos)
    assert np.array_equal(s1.invader_pos, s2.invader_pos)
    assert np.array_equal(s1.invader_target, s2.invader_target)
    assert np.array_equal(s1.base_pos, s2.base_pos)


def test_reset_layout(tiny_env_config):
    state = reset(tiny_env_config, np.random.default_rng(0))
    ext = tiny_env_config.world_extent
    assert (state.base_pos[:, 2] == 0).all()
    assert (state.invader_pos[:, 2] == ext).all()
    assert state.invader_active.all() and state.base_alive.all()
    d = np.linalg.norm(state.base_pos[0] - state.base_pos[1])
    assert d >= ext / 4


def test_reset_single_base_targets():
    cfg = EnvConfig(n_agents=3, k_threshold=1, m_invaders=5, n_bases=1)
    state = reset(cfg, np.random.default_rng(1))
    assert (state.invader_target == 0).all()


def test_invader_spawn_uniformity():
    """Chi-squared uniformity of invader (x, y) over many resets.

    10 bins per axis; dof = 9; chi2 critical value at p = 0.001 is 27.877.
    """
    cfg = EnvConfig(n_agents=1, k_threshold=1, m_invaders=1)
    xs, ys = [], []
    for seed in range(10_000):
        s = reset(cfg, np.random.default_rng(seed))
        xs.append(s.invader_pos[0, 0])
        ys.append(s.invader_pos[0, 1])
    for vals in (xs, ys):
        counts, _ = np.histogram(vals, bins=10, range=(0, cfg.world_extent))
        expected = len(vals) / 10
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 27.877, f"chi2={chi2:.1f} rejects uniformity at p=0.001"


# ---------------------------------------------------------------------------
# step rules
# ---------------------------------------------------------------------------


def hover_state(cfg, agent_pos, invader_pos, invader_target=None):
    """Hand-built state with bases pinned for precise scenario tests."""
    n_b = cfg.n_bases
    base_pos = np.array([[20.0 + 30 * i, 50.0, 0.0] for i in range(n_b)])
    m = cfg.m_invaders
    from coopgraph.env import EnvState

    return EnvState(
        t=0,
        agent_pos=np.asarray(agent_pos, dtype=np.float64),
        invader_pos=np.asarray(invader_pos, dtype=np.float64),
        invader_target=np.zeros(m, dtype=np.int64) if invader_target is None else np.asarray(invader_target),
        invader_active=np.ones(m, dtype=bool),
        invader_heading=np.zeros((m, 3)),
        base_pos=base_pos,
        base_alive=np.ones(n_b, dtype=bool),
    )


def test_neutralization_at_threshold():
    cfg = EnvConfig(n_agents=2, k_threshold=2, m_invaders=1, n_bases=1)
    state = hover_state(cfg, [[50, 50, 50], [52, 50, 50]], [[51, 50, 52]])
    new, out = step(state, np.array([4, 4]), cfg)  # both climb toward it
    assert not new.invader_active[0]
    assert out.done and out.reward == 1.0  # the only invader turned back


def test_neutralized_is_absorbing_and_retreats():
    cfg = EnvConfig(n_agents=2, k_threshold=2, m_invaders=2, n_bases=1, t_max=50)
    state = hover_state(cfg, [[50, 50, 50], [52, 50, 50]], [[51, 50, 52], [90, 90, 90]])
    new, out = step(state, np.array([4, 4]), cfg)
    assert not new.invader_active[0] and new.invader_active[1]
    assert not out.done
    z0 = new.invader_pos[0, 2]
    later = new
    for _ in range(3):
        later, _ = step(later, np.array([0, 0]), cfg)
        assert not later.invader_active[0]
    assert later.invader_pos[0, 2] > z0  # moving away from its ground target


def test_base_destruction():
    cfg = EnvConfig(n_agents=1, k_threshold=2, m_invaders=1, n_bases=1)
    state = hover_state(cfg, [[0, 0, 0]], [[20, 50, 2.5]])
    new, out = step(state, np.array([0]), cfg)  # invader descends within r_destroy
    assert out.done and out.reward == -1.0
    assert not new.base_alive[0]


def test_timeout_success():
    cfg = EnvConfig(n_agents=1, k_threshold=2, m_invaders=1, n_bases=1, t_max=3)
    state = hover_state(cfg, [[0, 0, 0]], [[90, 90, 90]])
    done = False
    for _ in range(3):
        assert not done
        state, out = step(state, np.array([0]), cfg)
        done = out.done
    assert done and out.reward == 1.0


def test_boundary_clamp():
    cfg = EnvConfig(n_agents=1, k_threshold=1, m_invaders=1, n_bases=1)
    state = hover_state(cfg, [[cfg.world_extent, 50, 50]], [[90, 90, 90]])
    new, _ = step(state, np.array([0]), cfg)  # +x into the wall
    assert new.agent_pos[0, 0] == cfg.world_extent


def test_slowed_invader_moves_slower():
    cfg = EnvConfig(n_agents=1, k_threshold=2, m_invaders=2, n_bases=1, slow_count=1)
    # invader 0 has one tracker nearby (slowed), invader 1 is free
    state = hover_state(cfg, [[50, 50, 48]], [[50, 50, 50], [20, 50, 50]])
    new, _ = step(state, np.array([5]), cfg)
    moved0 = np.linalg.norm(new.invader_pos[0] - state.invader_pos[0])
    moved1 = np.linalg.norm(new.invader_pos[1] - state.invader_pos[1])
    assert moved0 == pytest.approx(cfg.v_inv * cfg.slow_fraction)
    assert moved1 == pytest.approx(cfg.v_inv)


def test_reward_sparsity_and_monotone_threat(tiny_env_config):
    cfg = tiny_env_config
    rng = np.random.default_rng(2)
    state = reset(cfg, rng)
    active_counts = [state.invader_active.sum()]
    rewards = []
    done = False
    while not done:
        state, out = step(state, rng.integers(0, 6, size=cfg.n_agents), cfg)
        rewards.append(out.reward)
        active_counts.append(state.invader_active.sum())
        done = out.done
    assert all(r == 0.0 for r in rewards[:-1])
    assert rewards[-1] in (-1.0, 1.0)
    assert all(a >= b for a, b in zip(active_counts, active_counts[1:]))


def test_trajectory_determinism(tiny_env_config):
    cfg = tiny_env_config

    def roll():
        rng = np.random.default_rng(9)
        state = reset(cfg, rng)
        frames = []
        for _ in range(cfg.t_max):
            state, out = step(state, rng.integers(0, 6, size=cfg.n_agents), cfg)
            frames.append((state.agent_pos.copy(), state.invader_pos.copy(), out.reward))
            if out.done:
                break
        return frames

    for (a1, i1, r1), (a2, i2, r2) in zip(roll(), roll()):
        assert np.array_equal(a1, a2) and np.array_equal(i1, i2) and r1 == r2


def test_slowed_invader_is_overtaken_under_pursuit():
    """v_def > v_inv * slow_fraction makes a slowed invader catchable even in
    a tail chase with axis-discretized pursuit."""
    from coopgraph.commands import CommandKind, CoopCommand, translate

    cfg = EnvConfig(n_agents=1, k_threshold=99, m_invaders=1, n_bases=1, slow_count=1, t_max=400)
    state = hover_state(cfg, [[47, 47, 96]], [[50, 50, 98]], invader_target=[0])
    chase = CoopCommand(CommandKind.INTERCEPT, 0)
    dists = []
    for _ in range(300):
        action = translate(chase, np.array([0]), state, cfg)
        state, out = step(state, action, cfg)
        dists.append(float(np.linalg.norm(state.agent_pos[0] - state.invader_pos[0])))
        if out.done:
            break
    assert min(dists) < 2.0
    assert max(dists) <= cfg.r_track  # never escapes the tracking radius


# ---------------------------------------------------------------------------
# the array-pass step against the per-invader loop it replaced
# ---------------------------------------------------------------------------


def reference_step(state: EnvState, actions: np.ndarray, config: EnvConfig) -> tuple[EnvState, StepOutcome]:
    """``step`` as it was before the invader update became one array pass:
    one Python iteration per invader, one ``np.linalg.norm`` per vector."""
    actions = np.asarray(actions)
    if actions.shape != (config.n_agents,):
        raise ValueError(f"need one action per agent, got shape {actions.shape}")
    dirs = config.move_dirs
    if actions.min() < 0 or actions.max() >= len(dirs):
        raise ValueError(f"action id out of range for {config.primitive_set}")
    ext = config.world_extent

    agent_pos = np.clip(state.agent_pos + config.v_def * dirs[actions], 0.0, ext)

    invader_pos = state.invader_pos.copy()
    invader_active = state.invader_active.copy()
    invader_heading = state.invader_heading.copy()
    diff = agent_pos[None, :, :] - invader_pos[:, None, :]
    dist = np.linalg.norm(diff, axis=2)
    trackers = np.where(invader_active, (dist <= config.r_track).sum(axis=1), 0)

    centroid = state.base_centroid
    for j in range(config.m_invaders):
        if invader_active[j]:
            to_base = state.base_pos[state.invader_target[j]] - invader_pos[j]
            norm = np.linalg.norm(to_base)
            unit = to_base / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
            if trackers[j] >= config.k_threshold:
                invader_active[j] = False
                invader_heading[j] = -unit
                invader_pos[j] += config.v_inv * invader_heading[j]
            elif trackers[j] >= config.slow_count:
                invader_pos[j] += config.v_inv * config.slow_fraction * unit
            else:
                invader_pos[j] += config.v_inv * unit
        elif np.linalg.norm(invader_pos[j] - centroid) < ext:
            invader_pos[j] += config.v_inv * invader_heading[j]
    invader_pos = np.clip(invader_pos, 0.0, ext)

    base_alive = state.base_alive.copy()
    destroyed = False
    for j in range(config.m_invaders):
        if invader_active[j]:
            b = state.invader_target[j]
            if base_alive[b] and np.linalg.norm(invader_pos[j] - state.base_pos[b]) <= config.r_destroy:
                base_alive[b] = False
                destroyed = True

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
    info = {
        "bases_destroyed": int((~base_alive).sum()),
        "invaders_neutralized": int((~invader_active).sum()),
        "trackers": trackers.tolist(),
    }
    if destroyed:
        return new_state, StepOutcome(reward=-1.0, done=True, info=info)
    if new_state.t >= config.t_max or not invader_active.any():
        reward = 1.0 if base_alive.all() else -1.0
        return new_state, StepOutcome(reward=reward, done=True, info=info)
    return new_state, StepOutcome(reward=0.0, done=False, info=info)


def assert_same_step(got, expected):
    """Every state field with the same dtype, shape and bytes; the outcome
    with the same values and Python types."""
    (state, outcome), (ref_state, ref_outcome) = got, expected
    for f in dataclasses.fields(EnvState):
        a, b = getattr(state, f.name), getattr(ref_state, f.name)
        assert type(a) is type(b), f.name
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
    assert repr(dataclasses.astuple(outcome)) == repr(dataclasses.astuple(ref_outcome))
    assert [type(v) for v in outcome.info.values()] == [type(v) for v in ref_outcome.info.values()]


def fuzz_state(cfg, rng, focus):
    """A reset state pushed into the parts of the step rules a fresh episode
    takes long to reach: defenders on top of the first ``focus`` invaders,
    invaders low, near or exactly on their base, neutralized ones with a
    retreat heading (in some states nearly all of them), a dead base, a
    clock close to the cap."""
    state = reset(cfg, rng)
    m, ext = cfg.m_invaders, cfg.world_extent
    p_neutralized = rng.choice([0.2, 0.8])
    state.t = int(rng.choice([0, cfg.t_max - rng.integers(1, 30)]))
    state.invader_pos[:, 2] = rng.uniform(0.0, ext, size=m)
    near = rng.random(cfg.n_agents) < 0.7
    picks = rng.integers(0, focus, size=cfg.n_agents)
    jitter = state.invader_pos[picks] + rng.normal(0.0, 4.0, size=(cfg.n_agents, 3))
    state.agent_pos[near] = np.clip(jitter, 0.0, ext)[near]
    for j, u in enumerate(rng.random(m)):
        base = state.base_pos[state.invader_target[j]]
        if u < p_neutralized:
            state.invader_active[j] = False
            heading = rng.normal(size=3)
            state.invader_heading[j] = heading / np.linalg.norm(heading)
        elif u < p_neutralized + 0.05:
            state.invader_pos[j] = base + rng.normal(0.0, 1.5, size=3) * [1, 1, 0] + [0, 0, rng.uniform(0, 3)]
        elif u < p_neutralized + 0.07:
            state.invader_pos[j] = base
    if rng.random() < 0.05:
        state.base_alive[rng.integers(cfg.n_bases)] = False
    state.invader_pos[:] = np.clip(state.invader_pos, 0.0, ext)
    return state


def chase_actions(state, cfg, rng, focus):
    """Most defenders head for invader ``i % focus``, the rest move at random."""
    dirs = cfg.move_dirs
    chased = state.invader_pos[np.arange(cfg.n_agents) % focus]
    toward = np.argmax((chased - state.agent_pos) @ dirs.T, axis=1)
    return np.where(rng.random(cfg.n_agents) < 0.8, toward, rng.integers(0, len(dirs), size=cfg.n_agents))


def branches_taken(state, ref_state, outcome, cfg):
    """Which rules of the per-invader loop one reference step went through."""
    trackers = np.array(outcome.info["trackers"])
    was = state.invader_active
    on_base = row_norms(state.base_pos[state.invader_target] - state.invader_pos) <= 1e-12
    near = row_norms(state.invader_pos - state.base_centroid) < cfg.world_extent
    hits = {
        "turned": was & (trackers >= cfg.k_threshold),
        "slowed": was & (trackers >= cfg.slow_count) & (trackers < cfg.k_threshold),
        "free": was & (trackers < cfg.slow_count),
        "on_base": was & on_base,
        "retreating": ~was & near,
        "parked": ~was & ~near,
    }
    taken = [name for name, mask in hits.items() if mask.any()]
    if outcome.done:
        lost_base = np.count_nonzero(ref_state.base_alive) < np.count_nonzero(state.base_alive)
        if lost_base:
            taken.append("destroyed")
        elif not ref_state.invader_active.any():
            taken.append("all_neutralized_win" if outcome.reward > 0 else "all_neutralized_loss")
        else:
            taken.append("timeout")
    return taken


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "task,overrides",
    [("CSI-12/2/3", {"n_bases": 2}), ("CSI-27/3/9", {}), ("CSI-6/1/9", {}), ("CSI-8/4/5", {})],
)
def test_step_matches_per_invader_loop(task, overrides):
    cfg = config_for_task(task, **overrides)
    rng = np.random.default_rng(sum(map(ord, task)))
    taken = Counter()
    for _ in range(150):
        focus = int(rng.integers(1, cfg.m_invaders + 1))
        state = fuzz_state(cfg, rng, focus)
        for _ in range(40):
            actions = chase_actions(state, cfg, rng, focus)
            expected = reference_step(state, actions, cfg)
            assert_same_step(step(state, actions, cfg), expected)
            taken.update(branches_taken(state, expected[0], expected[1], cfg))
            state = expected[0]
            if expected[1].done:
                break
    wanted = {
        "turned", "free", "on_base", "retreating", "parked", "destroyed", "all_neutralized_win", "timeout",
    }
    if cfg.slow_count < cfg.k_threshold:
        wanted.add("slowed")
    assert wanted <= set(taken), sorted(wanted - set(taken))


def test_two_invaders_destroy_one_base_in_the_same_step():
    cfg = EnvConfig(n_agents=1, k_threshold=2, m_invaders=3, n_bases=2)
    state = hover_state(cfg, [[90, 90, 90]], [[20, 50, 2.5], [20.5, 50, 2.6], [50, 50, 2.5]], [0, 0, 1])
    got = step(state, np.array([0]), cfg)
    assert_same_step(got, reference_step(state, np.array([0]), cfg))
    new, out = got
    assert out.done and out.reward == -1.0
    assert new.base_alive.tolist() == [False, False]
    assert new.invader_active.all() and out.info["bases_destroyed"] == 2


@pytest.mark.parametrize(
    "primitive_set,actions,fragment",
    [
        (PrimitiveSet.SIX, [0, 1, 2], "one action per agent"),
        (PrimitiveSet.SIX, [[0, 1]], "one action per agent"),
        (PrimitiveSet.SIX, [0, -1], "out of range"),
        (PrimitiveSet.SIX, [6, 0], "out of range"),
        (PrimitiveSet.NONE, [0, 6], "out of range"),
        (PrimitiveSet.FOURTEEN, [14, 13], "out of range"),
    ],
)
def test_step_rejects_bad_actions(primitive_set, actions, fragment):
    cfg = EnvConfig(n_agents=2, k_threshold=1, m_invaders=1, primitive_set=primitive_set)
    state = reset(cfg, np.random.default_rng(0))
    for stepper in (step, reference_step):
        with pytest.raises(ValueError, match=fragment):
            stepper(state, np.array(actions), cfg)
    if primitive_set is PrimitiveSet.FOURTEEN:
        assert_same_step(step(state, np.array([13, 0]), cfg), reference_step(state, np.array([13, 0]), cfg))


def test_step_rules_at_their_boundaries():
    """An invader landing at exactly r_destroy destroys its base; a neutralized
    one exactly an extent from the base centroid stays put, and one that stays
    put keeps its bits, a -0.0 included."""
    cfg = EnvConfig(n_agents=1, k_threshold=2, m_invaders=3, n_bases=2, v_inv=1.0)
    # bases at x = 20 and 50, so the centroid is (35, 50, 0)
    state = hover_state(cfg, [[90, 90, 90]], [[20, 50, 3], [35, 50, 100], [-0.0, 0.0, 100]])
    state.invader_active[1:] = False
    state.invader_heading[1:] = [0.0, 1.0, 0.0]
    got = step(state, np.array([0]), cfg)
    assert_same_step(got, reference_step(state, np.array([0]), cfg))
    new, out = got
    assert out.done and out.reward == -1.0 and not new.base_alive[0]
    assert new.invader_pos[1:].tobytes() == state.invader_pos[1:].tobytes()


def test_invader_on_its_base_heads_straight_up_without_warnings():
    cfg = EnvConfig(n_agents=2, k_threshold=2, m_invaders=2, n_bases=1, r_destroy=0.5)
    state = hover_state(cfg, [[20, 50, 1], [21, 50, 0]], [[20, 50, 0], [20, 50, 0]])
    state.invader_active[1] = False
    state.invader_heading[1] = [0.0, -1.0, 0.0]
    with np.errstate(all="raise"):
        got = step(state, np.array([5, 5]), cfg)  # both defenders track invader 0
        assert_same_step(got, reference_step(state, np.array([5, 5]), cfg))
        new, _ = got
        # turned back on the spot: heading (-0, -0, -1), pinned to the ground
        assert new.invader_heading[0].tobytes() == np.array([-0.0, -0.0, -1.0]).tobytes()
        assert new.invader_pos[0].tolist() == [20.0, 50.0, 0.0] and not new.invader_active[0]
        state.agent_pos[:] = [[90, 90, 90], [91, 90, 90]]  # now nobody tracks it
        new, out = step(state, np.array([0, 0]), cfg)
        assert_same_step((new, out), reference_step(state, np.array([0, 0]), cfg))
    assert new.invader_pos[0].tolist() == [20.0, 50.0, cfg.v_inv] and not out.done


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------


def test_observation_length_formula():
    cfg = EnvConfig(n_agents=2, k_threshold=1, m_invaders=9, n_bases=4)
    assert obs_dim(cfg) == 3 + 36 + 16 == 55
    state = reset(cfg, np.random.default_rng(0))
    assert observe_all(state, cfg).shape == (2, 55)


def test_observation_blocks(tiny_env_config):
    cfg = tiny_env_config
    state = reset(cfg, np.random.default_rng(3))
    state.agent_pos[0] = state.base_pos[0]
    obs = observe(state, 0, cfg)
    m = cfg.m_invaders
    base_block = obs[3 + 4 * m: 3 + 4 * m + 4]
    np.testing.assert_allclose(base_block, [0, 0, 0, 1], atol=1e-12)

    state.invader_active[1] = False
    obs = observe(state, 0, cfg)
    assert obs[3 + 4 * 1 + 3] == 0.0  # invader 1 flag cleared

    assert np.all(np.abs(obs) <= 1.0 + 1e-12)
    assert np.isfinite(obs).all()


def test_observe_range_check(tiny_env_config):
    state = reset(tiny_env_config, np.random.default_rng(0))
    with pytest.raises(ValueError):
        observe(state, 99, tiny_env_config)
