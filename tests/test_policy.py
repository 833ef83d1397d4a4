"""Policy network: encoding, masked sequential heads, decoder, surgery."""

import hashlib
import re

import numpy as np
import pytest

from coopgraph import autodiff as ad
from coopgraph import policy as policy_module
from coopgraph.autodiff import Tensor
from coopgraph.env import EnvConfig, PrimitiveSet, obs_dim, reset, stack_states
from coopgraph.graph import (
    action_masks,
    build_targets,
    extend,
    random_topology,
    stack_graphs,
)
from coopgraph.policy import (
    RETIRED_TENSORS,
    NodeBatch,
    PolicyLayout,
    act_batch,
    encode,
    evaluate_actions,
    init_params,
    latent,
    layout_for,
    load_checkpoint,
    node_batch,
    raw_repr_width,
    reconstruct,
    save_checkpoint,
    surgery_for_extension,
    value,
)

from conftest import numeric_gradient, relative_error


def make_setup(seed=0, n_agents=6, n_clusters=3, m=2, n_bases=2, hidden=16, fan_out=1):
    cfg = EnvConfig(n_agents=n_agents * fan_out, k_threshold=1, m_invaders=m, n_bases=n_bases)
    targets = build_targets(PrimitiveSet.SIX, True, m, n_bases)
    graph = random_topology(np.random.default_rng(seed), n_agents, n_clusters, targets)
    if fan_out > 1:
        graph = extend(graph, fan_out)
    params = init_params(layout_for(graph, cfg, hidden=hidden), np.random.default_rng(seed + 1))
    state = reset(cfg, np.random.default_rng(seed + 2))
    return cfg, graph, params, state


def test_paper_scale_dimensions():
    """n_k=14, hidden 64: pre-trunk width 128, flattened latent input 896."""
    cfg, graph, params, state = make_setup(n_agents=27, n_clusters=14, m=9, n_bases=4, hidden=64)
    assert params.tensors["trunk.W"].shape == (128, 64)
    assert params.tensors["latent.W"].shape == (14 * 64, 64)
    batch = node_batch(graph, state, cfg)
    e_h = encode(batch, params)
    assert e_h.shape == (1, 14, 64)
    assert latent(e_h, params).shape == (1, 64)
    # target layer: 6 primitives + 9 intercepts + 4 defends = 19
    assert graph.n_targets == 19
    assert batch.target_reps.shape == (1, 19, raw_repr_width(19))


def test_identical_agent_rows_give_identical_cluster_mixes():
    cfg, graph, params, state = make_setup(seed=3)
    # all agents share one observation row and all clusters share one target
    state.agent_pos[:] = state.agent_pos[0]
    graph = type(graph)(
        n_clusters=graph.n_clusters,
        targets=graph.targets,
        agent_to_cluster=np.array([0, 0, 1, 1, 2, 2], dtype=np.int64),
        cluster_to_target=np.zeros(3, dtype=np.int64),
    )
    e_h = encode(node_batch(graph, state, cfg), params).data[0]
    for k in range(1, 3):
        np.testing.assert_allclose(e_h[k], e_h[0], atol=1e-12)


def test_zero_params_give_zero_embeddings_and_value():
    cfg, graph, params, state = make_setup(seed=4)
    for t in params.tensors.values():
        t.data[:] = 0.0
    batch = node_batch(graph, state, cfg)
    e_h = encode(batch, params)
    assert np.abs(e_h.data).max() == 0.0
    z = latent(e_h, params)
    assert float(value(z, params).data[0]) == 0.0


def test_empty_cluster_rows_are_zero():
    cfg, graph, params, state = make_setup(seed=5)
    g = type(graph)(
        n_clusters=3,
        targets=graph.targets,
        agent_to_cluster=np.zeros(6, dtype=np.int64),  # clusters 1, 2 empty
        cluster_to_target=np.array([0, 1, 2], dtype=np.int64),
    )
    batch = node_batch(g, state, cfg)
    member_contrib = _attention_ac_rows(batch, params)
    assert np.abs(member_contrib[1]).max() == 0.0
    assert np.abs(member_contrib[2]).max() == 0.0
    assert np.abs(member_contrib[0]).max() > 0.0


def _attention_ac_rows(batch, params):
    """The member-side attention block in isolation (via a zeroed target path)."""
    p2 = params.copy()
    for name, t in p2.tensors.items():
        if name.startswith(("ct.", "proj.target")):
            t.data[:] = 0.0
        if name == "trunk.W":
            # pass through the agent-side half of the concat
            t.data[:] = 0.0
            h = params.layout.hidden
            t.data[:h, :h] = np.eye(h)
        if name == "trunk.b":
            t.data[:] = 0.0
    return encode(batch, p2).data[0]


def test_encode_reads_only_selected_target_rows():
    """Each cluster sees exactly the target row its one edge selects."""
    cfg, graph, params, state = make_setup(seed=41)
    steps = [
        type(graph)(
            n_clusters=3,
            targets=graph.targets,
            agent_to_cluster=graph.agent_to_cluster,
            cluster_to_target=np.array(c2t, dtype=np.int64),
        )
        for c2t in ([4, 4, 1], [0, 2, 2])
    ]
    batch = node_batch(stack_graphs(steps), stack_states([state, state]), cfg)
    base = encode(batch, params).data

    def perturbed(b, t):
        reps = batch.target_reps.copy()
        reps[b, t] += 3.0
        return encode(NodeBatch(batch.obs, reps, batch.agent_to_cluster, batch.cluster_to_target), params).data

    # target 3 is selected in neither step; target 4 only in step 0
    assert np.array_equal(perturbed(0, 3), base)
    assert np.array_equal(perturbed(1, 4), base)
    for b, t in ((0, 4), (0, 1), (1, 2)):
        out = perturbed(b, t)
        selecting = batch.cluster_to_target[b] == t
        changed = (out != base).any(axis=-1)
        assert not changed[1 - b].any()
        np.testing.assert_array_equal(changed[b], selecting)


# sha256 of init_params' tensors (sorted names and little-endian float64
# bytes) recorded before the cluster->target query/key parameters were
# retired: dropping them must leave every other tensor of a seed unchanged
INIT_DIGESTS = [
    (PolicyLayout(6, 1, 14, 3, 9, 9, 16), 1,
     "800283428662e46f8eb7ab5b809086993447a8d4f02da7c291f84398fc3b25aa"),
    (PolicyLayout(6, 2, 14, 3, 9, 9, 16), 41,
     "f62507d9564dd11693dca72bcf247c04e69475defe67dcc9c67c087fad57a519"),
    (PolicyLayout(12, 1, 20, 6, 11, 11, 64), 3,
     "500dab72ba92cf6d68c62474eeaa2a12a09cd1953c711732d050920eda48be90"),
]


@pytest.mark.parametrize("layout,seed,digest", INIT_DIGESTS)
def test_init_params_digest(layout, seed, digest):
    params = init_params(layout, np.random.default_rng(seed))
    assert not {"ct.Wq", "ct.Wk", "ct.bq", "ct.bk"} & params.tensors.keys()
    assert {"ct.Wv", "ct.bv"} <= params.tensors.keys()
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params.tensors[name].data, "<f8").tobytes())
    assert h.hexdigest() == digest


def test_act_masking_forces_single_choice():
    cfg, graph, params, state = make_setup(seed=6)
    g = type(graph)(
        n_clusters=3,
        targets=graph.targets,
        agent_to_cluster=np.full(6, 2, dtype=np.int64),
        cluster_to_target=np.full(3, 4, dtype=np.int64),
    )
    batch = node_batch(g, state, cfg)
    masks = action_masks(g)
    rng = np.random.default_rng(0)
    for _ in range(20):
        actions, _, _ = act_batch(batch, masks.cluster_mask[None], masks.target_mask[None], params, [rng])
        assert actions[0, 0] == 2
        assert actions[0, 2] == 4


def test_act_argmax_deterministic():
    cfg, graph, params, state = make_setup(seed=7)
    batch = node_batch(graph, state, cfg)
    masks = action_masks(graph)
    cm, tm = masks.cluster_mask[None], masks.target_mask[None]
    a1, lp1, v1 = act_batch(batch, cm, tm, params, [None], mode="argmax")
    a2, lp2, v2 = act_batch(batch, cm, tm, params, [None], mode="argmax")
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(lp1, lp2)
    np.testing.assert_array_equal(v1, v2)


def test_masked_probability_exactly_zero():
    cfg, graph, params, state = make_setup(seed=8)
    g = type(graph)(
        n_clusters=3,
        targets=graph.targets,
        agent_to_cluster=np.full(6, 1, dtype=np.int64),  # only cluster 1 nonempty
        cluster_to_target=graph.cluster_to_target,
    )
    batch = node_batch(g, state, cfg)
    masks = action_masks(g)
    actions = np.array([[0, 0, int(g.cluster_to_target[0]), 0]])  # a1=0 is masked
    out = evaluate_actions(batch, actions, masks.cluster_mask[None], masks.target_mask[None], params)
    assert np.exp(out["log_prob"].data[0, 0]) == 0.0


def test_mask_soundness_sampled():
    rng = np.random.default_rng(9)
    for trial in range(5):
        cfg, graph, params, state = make_setup(seed=20 + trial)
        batch = node_batch(graph, state, cfg)
        masks = action_masks(graph)
        for _ in range(200):
            actions, _, _ = act_batch(batch, masks.cluster_mask[None], masks.target_mask[None], params, [rng])
            assert masks.cluster_mask[actions[0, 0]]
            assert masks.target_mask[actions[0, 2]]


def test_act_and_evaluate_logprobs_agree():
    """The factorized log-probs seen at sampling time match the tape path."""
    cfg, graph, params, state = make_setup(seed=10)
    batch = node_batch(graph, state, cfg)
    masks = action_masks(graph)
    cm, tm = masks.cluster_mask[None], masks.target_mask[None]
    actions, log_probs, values = act_batch(batch, cm, tm, params, [np.random.default_rng(1)])
    out = evaluate_actions(batch, actions, cm, tm, params)
    np.testing.assert_allclose(out["log_prob"].data[0], log_probs[0], atol=1e-10)
    assert float(out["value"].data[0]) == pytest.approx(values[0], abs=1e-12)


def test_sequential_conditioning_sensitivity():
    """Changing op1's choice shifts op2's distribution."""
    cfg, graph, params, state = make_setup(seed=11)
    batch = node_batch(graph, state, cfg)
    masks = action_masks(graph)
    base = np.array([[0, 1, 0, 1]])
    alt = np.array([[1, 1, 0, 1]])
    cm, tm = masks.cluster_mask[None], masks.target_mask[None]
    lp_base = evaluate_actions(batch, base, cm, tm, params)["log_prob"].data[0, 1]
    lp_alt = evaluate_actions(batch, alt, cm, tm, params)["log_prob"].data[0, 1]
    assert lp_base != lp_alt


def test_value_permutation_invariance():
    """Permuting agents together with their graph labels leaves e_h alone."""
    cfg, graph, params, state = make_setup(seed=12)
    batch = node_batch(graph, state, cfg)
    perm = np.random.default_rng(2).permutation(graph.n_agents)
    state2_pos = state.agent_pos[perm]
    state.agent_pos = state2_pos
    g2 = type(graph)(
        n_clusters=graph.n_clusters,
        targets=graph.targets,
        agent_to_cluster=graph.agent_to_cluster[perm].copy(),
        cluster_to_target=graph.cluster_to_target,
    )
    batch2 = node_batch(g2, state, cfg)
    e1 = encode(batch, params).data
    e2 = encode(batch2, params).data
    np.testing.assert_allclose(e2, e1, atol=1e-10)
    z1 = latent(encode(batch, params), params)
    z2 = latent(encode(batch2, params), params)
    assert float(value(z1, params).data[0]) == pytest.approx(float(value(z2, params).data[0]), abs=1e-10)


def test_reconstruct_zero_decoder_closed_form():
    cfg, graph, params, state = make_setup(seed=13)
    for name, t in params.tensors.items():
        if name.startswith("ae_"):
            t.data[:] = 0.0
    batch = node_batch(graph, state, cfg)
    e_h = encode(batch, params)
    _, _, _, l_ae = reconstruct(e_h, batch, params)
    expected = (
        np.mean(batch.obs**2)
        + np.mean(np.eye(graph.n_clusters) ** 2)
        + np.mean(batch.target_reps**2)
    ) / 3.0
    assert float(l_ae.data) == pytest.approx(expected, rel=1e-12)


def test_value_finite_on_random_inputs():
    cfg, graph, params, state = make_setup(seed=14)
    rng = np.random.default_rng(3)
    batch = node_batch(graph, state, cfg)
    for _ in range(200):
        b = NodeBatch(
            obs=rng.normal(size=batch.obs.shape),
            target_reps=rng.normal(size=batch.target_reps.shape),
            agent_to_cluster=batch.agent_to_cluster,
            cluster_to_target=batch.cluster_to_target,
        )
        v = value(latent(encode(b, params), params), params)
        assert np.isfinite(v.data).all()


# ---------------------------------------------------------------------------
# surgery and transfer plumbing
# ---------------------------------------------------------------------------


def test_surgery_inherits_bit_exact():
    cfg, graph, params, state = make_setup(seed=15)
    before = {k: t.data.copy() for k, t in params.tensors.items()}
    new = surgery_for_extension(params, 2, np.random.default_rng(0))
    for k, arr in before.items():
        assert np.array_equal(new.tensors[k].data, arr), k
    assert new.has_merge and not params.has_merge
    assert new.layout.fan_out == 2
    # output head shapes unchanged
    for i in (1, 2, 3, 4):
        assert new.tensors[f"head{i}.fc2.W"].shape == params.tensors[f"head{i}.fc2.W"].shape
    with pytest.raises(ValueError):
        surgery_for_extension(new, 2, np.random.default_rng(0))


def test_surgery_identity_at_fan_out_one():
    """Merge attention over a single member reproduces its embedding exactly."""
    cfg, graph, params, state = make_setup(seed=16)
    batch = node_batch(graph, state, cfg)
    before = encode(batch, params).data
    merged = surgery_for_extension(params, 1, np.random.default_rng(4))
    after = encode(batch, merged).data
    np.testing.assert_array_equal(after, before)


def test_extended_forward_needs_merge_block():
    cfg, graph, params, state = make_setup(seed=17, fan_out=2)
    batch = node_batch(graph, state, cfg)
    assert params.has_merge  # init_params added it for an extended layout
    e_h = encode(batch, params)
    assert e_h.shape == (1, 3, 16)
    stripped = params.copy()
    del stripped.tensors["merge.q"], stripped.tensors["merge.Wk"], stripped.tensors["merge.bk"]
    with pytest.raises(ValueError, match="merge"):
        encode(batch, stripped)


def test_noncontiguous_extension_groups_are_gathered():
    """Imported graphs may bind group nodes to arbitrary agent ids; the
    network input rows must follow extension order, not env order."""
    import dataclasses

    from coopgraph.policy import agent_rows

    cfg, graph, params, state = make_setup(seed=40, fan_out=2)
    scrambled = dataclasses.replace(
        graph, extension=np.array([[11, 0], [1, 10], [2, 9], [3, 8], [4, 7], [5, 6]])
    )
    rows = agent_rows(scrambled, state, cfg)
    from coopgraph.env import observe_all

    obs = observe_all(state, cfg)
    np.testing.assert_array_equal(rows[0], obs[11])
    np.testing.assert_array_equal(rows[1], obs[0])
    # encode consumes the gathered layout without error and differs from the
    # contiguous grouping (different group compositions)
    e1 = encode(node_batch(graph, state, cfg), params).data
    e2 = encode(node_batch(scrambled, state, cfg), params).data
    assert not np.allclose(e1, e2)


def test_extended_reconstruction_targets_group_means():
    cfg, graph, params, state = make_setup(seed=18, fan_out=2)
    batch = node_batch(graph, state, cfg)
    for name, t in params.tensors.items():
        if name.startswith("ae_"):
            t.data[:] = 0.0
    e_h = encode(batch, params)
    agent_hat, _, _, l_ae = reconstruct(e_h, batch, params)
    assert agent_hat.shape == (1, 6, obs_dim(cfg))
    group_means = batch.obs.reshape(1, 6, 2, -1).mean(axis=2)
    expected = (
        np.mean(group_means**2)
        + 1.0 / graph.n_clusters
        + np.mean(batch.target_reps**2)
    ) / 3.0
    assert float(l_ae.data) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    cfg, graph, params, state = make_setup(seed=19)
    params.normalizer.update(np.random.default_rng(0).normal(size=(50, obs_dim(cfg))))
    path = tmp_path / "policy.ckpt"
    save_checkpoint(path, params, extra_tensors={"adam.m.x": np.arange(4.0)}, extra_header={"note": 1})
    loaded, extra, header = load_checkpoint(path)
    assert header["note"] == 1
    assert loaded.layout == params.layout
    for k, t in params.tensors.items():
        assert np.array_equal(loaded.tensors[k].data, t.data)
    np.testing.assert_array_equal(extra["adam.m.x"], np.arange(4.0))
    np.testing.assert_allclose(loaded.normalizer.mean, params.normalizer.mean)
    assert loaded.normalizer.count == params.normalizer.count
    # round-trip stability: identical bytes when saved again
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, loaded, extra_tensors={"adam.m.x": extra["adam.m.x"]}, extra_header={"note": 1})
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_drops_retired_tensors(tmp_path):
    """A checkpoint from before the cluster->target gather still holds the
    retired query/key tensors; loading drops them, so saving again (and an
    optimizer built on the loaded tensors) no longer carries them."""
    cfg, graph, params, state = make_setup(seed=21)
    old = params.copy()
    h = params.layout.hidden
    for name in RETIRED_TENSORS:
        old.tensors[name] = Tensor(np.ones((h, h) if "W" in name else h), requires_grad=True)
    save_checkpoint(tmp_path / "old.ckpt", old)
    loaded, _, _ = load_checkpoint(tmp_path / "old.ckpt")
    assert loaded.tensors.keys() == params.tensors.keys()
    save_checkpoint(tmp_path / "again.ckpt", loaded)
    save_checkpoint(tmp_path / "fresh.ckpt", params)
    assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "fresh.ckpt").read_bytes()


def test_checkpoint_rejects_other_format_version(tmp_path):
    cfg, graph, params, state = make_setup(seed=22)
    path = tmp_path / "future.ckpt"
    save_checkpoint(path, params, extra_header={"format_version": 2})
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*version 2"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [6, 20, -8])
def test_checkpoint_rejects_truncated_file(tmp_path, keep):
    """Cut inside the header length, inside the header or inside the tensor data."""
    cfg, graph, params, state = make_setup(seed=23)
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*truncated"):
        load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    """A save that fails before the rename leaves the previous checkpoint
    whole and no temporary file behind."""
    cfg, graph, params, state = make_setup(seed=24)
    path = tmp_path / "policy.ckpt"
    save_checkpoint(path, params)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(policy_module.os, "replace", fail)
    changed = params.copy()
    changed.tensors["trunk.b"] = Tensor(changed.tensors["trunk.b"].data + 1.0)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, changed)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["policy.ckpt"]


# ---------------------------------------------------------------------------
# full-loss gradient oracle at reduced width
# ---------------------------------------------------------------------------


def _loss_from_params(params, batch, actions, cmask, tmask, adv, old_logp, v_old, returns):
    clip_eps = 0.2
    out = evaluate_actions(batch, actions, cmask, tmask, params)
    logp_new = ad.sum_(out["log_prob"], axis=1)
    ratio = ad.exp(ad.sub(logp_new, Tensor(old_logp)))
    clipped = ad.clip(ratio, 1 - clip_eps, 1 + clip_eps)
    adv_t = Tensor(adv)
    surrogate = ad.minimum(ad.mul(ratio, adv_t), ad.mul(clipped, adv_t))
    policy_loss = ad.mul(ad.mean(surrogate), Tensor(-1.0))
    v_new = out["value"]
    v_clip = ad.add(Tensor(v_old), ad.clip(ad.sub(v_new, Tensor(v_old)), -clip_eps, clip_eps))
    ret = Tensor(returns)
    value_loss = ad.mean(ad.maximum(ad.square(ad.sub(v_new, ret)), ad.square(ad.sub(v_clip, ret))))
    entropy = ad.mean(ad.sum_(out["entropy"], axis=1))
    return ad.add(
        ad.add(policy_loss, ad.mul(value_loss, Tensor(0.5))),
        ad.add(ad.mul(entropy, Tensor(-0.01)), ad.mul(out["l_ae"], Tensor(0.1))),
    )


def run_policy_loss_gradcheck(instances: int, coords_per_tensor: int = 2, seed: int = 0) -> float:
    """Full PPO loss at hidden width 8 vs central finite differences on
    randomly sampled parameter coordinates."""
    worst = 0.0
    rng = np.random.default_rng(seed)
    for inst in range(instances):
        cfg, graph, params, state = make_setup(seed=100 + inst, hidden=8)
        for t in params.tensors.values():
            # zero-initialized biases put relu pre-activations exactly on the
            # kink, where no finite-difference oracle is defined; jitter off it
            t.data += rng.uniform(-0.05, 0.05, size=t.shape)
        B = 4
        lay = params.layout
        batch = NodeBatch(
            obs=rng.normal(scale=0.5, size=(B, lay.n_lower, lay.d_obs)),
            target_reps=rng.normal(scale=0.5, size=(B, lay.n_targets, lay.d_raw)),
            agent_to_cluster=rng.integers(0, lay.n_clusters, size=(B, lay.n_lower)),
            cluster_to_target=rng.integers(0, lay.n_targets, size=(B, lay.n_clusters)),
        )
        cmask = np.zeros((B, lay.n_clusters))
        for b in range(B):
            cmask[b, batch.agent_to_cluster[b]] = 1.0
        tmask = np.zeros((B, lay.n_targets))
        for b in range(B):
            tmask[b, batch.cluster_to_target[b]] = 1.0
        actions = np.stack([
            np.array([np.flatnonzero(cmask[b])[0], rng.integers(lay.n_clusters),
                      np.flatnonzero(tmask[b])[0], rng.integers(lay.n_targets)])
            for b in range(B)
        ])
        adv = rng.normal(size=B)
        v_old = rng.normal(scale=0.1, size=B)
        returns = rng.normal(scale=0.5, size=B)

        def loss_value():
            return _loss_from_params(
                params, batch, actions, cmask, tmask, adv, old_logp, v_old, returns
            )

        # keep every ratio strictly inside the trust region: smooth loss
        probe = evaluate_actions(batch, actions, cmask, tmask, params)
        old_logp = probe["log_prob"].data.sum(axis=1) + rng.uniform(-0.05, 0.05, size=B)

        params.zero_grad()
        loss = loss_value()
        ad.backward(loss)

        def fd(flat, j, h):
            orig = flat[j]
            flat[j] = orig + h
            up = float(loss_value().data)
            flat[j] = orig - h
            down = float(loss_value().data)
            flat[j] = orig
            return (up - down) / (2 * h)

        probes = skipped = 0
        for name, t in params.tensors.items():
            flat = t.data.reshape(-1)
            g_analytic = np.zeros_like(flat) if t.grad is None else t.grad.reshape(-1)
            for _ in range(coords_per_tensor):
                j = int(rng.integers(flat.size))
                numeric = fd(flat, j, 1e-5)
                scale = max(abs(numeric), np.abs(g_analytic).max(), 1e-6)
                # central differences are only a valid oracle where the loss is
                # locally smooth; a relu kink inside the probe interval makes
                # the estimate step-size-dependent, so such probes are voided
                probes += 1
                if abs(numeric - fd(flat, j, 5e-6)) > 1e-3 * scale:
                    skipped += 1
                    continue
                err = abs(g_analytic[j] - numeric) / scale
                worst = max(worst, err)
                assert err < 1e-3, f"{name}[{j}]: analytic {g_analytic[j]:.3e} vs fd {numeric:.3e}"
        assert skipped <= max(2, probes // 50), f"too many non-smooth probes: {skipped}/{probes}"
    return worst


def test_full_policy_loss_gradient_oracle():
    worst = run_policy_loss_gradcheck(instances=3, coords_per_tensor=2, seed=5)
    assert worst < 1e-3


def test_layer_gradcheck_encode_path():
    """Direct finite differences through encode -> value on a tiny setup."""
    cfg, graph, params, state = make_setup(seed=31, hidden=8)
    batch = node_batch(graph, state, cfg)

    names = ["proj.agent.W", "ac.Wq", "ct.Wv", "trunk.W", "latent.W", "value.fc2.W"]

    def f(arrays):
        for n, a in zip(names, arrays):
            params.tensors[n].data = a
        with ad.no_grad():
            v = value(latent(encode(batch, params), params), params)
        return float(v.data[0])

    arrays = [params.tensors[n].data.copy() for n in names]
    params.zero_grad()
    ad.backward(value(latent(encode(batch, params), params), params))
    numeric = numeric_gradient(f, [a.copy() for a in arrays], h=1e-6)
    for n, num in zip(names, numeric):
        ana = params.tensors[n].grad
        assert ana is not None
        assert relative_error(ana, num) < 1e-3, n
    f(arrays)  # restore
