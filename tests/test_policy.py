"""Policy network: encoding, masked sequential heads, decoder, surgery."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from coopgraph import autodiff as ad
from coopgraph import policy as policy_module
from coopgraph import training as training_module
from coopgraph.autodiff import Tensor
from coopgraph.env import EnvConfig, PrimitiveSet, obs_dim, reset, stack_states
from coopgraph.graph import (
    build_targets,
    extend,
    random_topology,
    stack_graphs,
)
from coopgraph.policy import (
    NodeBatch,
    PolicyLayout,
    act_batch,
    encode,
    evaluate_actions,
    fold,
    init_params,
    latent,
    layout_for,
    node_batch,
    raw_repr_width,
    reconstruct,
    surgery_for_extension,
    value,
)
from coopgraph.training import TrainConfig, Trainer, TrainSettings, load_run_checkpoint

from conftest import float64_params, numeric_gradient, relative_error, rewrite_checkpoint
from test_autodiff import reference_transpose_last


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
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
    e_h = encode(batch, fold(params))
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
    e_h = encode(node_batch(stack_graphs([graph]), stack_states([state]), cfg), fold(params)).data[0]
    for k in range(1, 3):
        np.testing.assert_allclose(e_h[k], e_h[0], atol=1e-12)


def test_zero_params_give_zero_embeddings_and_value():
    cfg, graph, params, state = make_setup(seed=4)
    for t in params.tensors.values():
        t.data[:] = 0.0
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
    e_h = encode(batch, fold(params))
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
    batch = node_batch(stack_graphs([g]), stack_states([state]), cfg)
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
    return encode(batch, fold(p2)).data[0]


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
    base = encode(batch, fold(params)).data

    def perturbed(b, t):
        reps = batch.target_reps.copy()
        reps[b, t] += 3.0
        return encode(NodeBatch(batch.obs, reps, batch.agent_to_cluster, batch.cluster_to_target), fold(params)).data

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
# bytes). The draws are those of the float64 parameters, rounded to float32.
# Re-recorded when the attention key biases were retired: they were zeros
# and took no draws, so every other tensor of a seed kept its bits; so did
# dropping the retired cluster->target query/key parameters before
INIT_DIGESTS = [
    (PolicyLayout(6, 1, 14, 3, 9, 9, 16), 1,
     "d4cb410c1886c47465ba22c0ab9f4c0962b4bc0feb4892f4d5bbe9e6722c2bea"),
    (PolicyLayout(6, 2, 14, 3, 9, 9, 16), 41,
     "5c5d10eecf5ca7cd34d7f6ce8f163213d743cd19d54aa671b39ae8d6dbffff87"),
    (PolicyLayout(12, 1, 20, 6, 11, 11, 64), 3,
     "1e976eb6fe325f759d9faf59ea74d95ff81f8e911e6dd0a9790aa8552260bdcd"),
]
# parameters of earlier versions that checkpoints may still hold: the
# cluster->target query/key projections and the attention key biases
RETIRED = {
    "ct.Wq": "hh", "ct.Wk": "hh", "ct.bq": "h", "ct.bk": "h",
    "ac.bk": "h", "ae_a.bk": "h", "ae_c.bk": "h", "ae_t.bk": "h", "merge.bk": "h",
}


@pytest.mark.parametrize(
    "layout,seed,digest", INIT_DIGESTS,
    ids=[f"lower{lay.n_lower}-fan{lay.fan_out}-seed{seed}" for lay, seed, _ in INIT_DIGESTS],
)
def test_init_params_digest(layout, seed, digest):
    params = init_params(layout, np.random.default_rng(seed))
    assert not RETIRED.keys() & params.tensors.keys()
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
    batch = node_batch(stack_graphs([g]), stack_states([state]), cfg)
    rng = np.random.default_rng(0)
    for _ in range(20):
        actions, _, _ = act_batch(batch, fold(params), [rng])
        assert actions[0, 0] == 2
        assert actions[0, 2] == 4


def test_act_argmax_deterministic():
    cfg, graph, params, state = make_setup(seed=7)
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
    a1, lp1, v1 = act_batch(batch, fold(params), [None], mode="argmax")
    a2, lp2, v2 = act_batch(batch, fold(params), [None], mode="argmax")
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
    batch = node_batch(stack_graphs([g]), stack_states([state]), cfg)
    actions = np.array([[0, 0, int(g.cluster_to_target[0]), 0]])  # a1=0 is masked
    out = evaluate_actions(batch, actions, params)
    assert np.exp(out["log_prob"].data[0, 0]) == 0.0


def test_mask_soundness_sampled():
    rng = np.random.default_rng(9)
    for trial in range(5):
        cfg, graph, params, state = make_setup(seed=20 + trial)
        batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
        for _ in range(200):
            actions, _, _ = act_batch(batch, fold(params), [rng])
            assert (graph.agent_to_cluster == actions[0, 0]).any()
            assert (graph.cluster_to_target == actions[0, 2]).any()


def test_act_and_evaluate_logprobs_agree():
    """The log-probs and values seen at sampling time are the tape path's,
    bit for bit: one head chain serves both, in sample and argmax mode, over
    a stack of episodes with different topologies, unextended and extended."""
    for fan_out in (1, 2):
        cfg, graph, params, state = make_setup(seed=10, fan_out=fan_out)
        rng = np.random.default_rng(7)
        graphs = [graph] + [
            dataclasses.replace(
                graph,
                agent_to_cluster=rng.integers(0, graph.n_clusters, graph.n_agents),
                cluster_to_target=rng.integers(0, graph.n_targets, graph.n_clusters),
            )
            for _ in range(4)
        ]
        states = [reset(cfg, np.random.default_rng(30 + e)) for e in range(len(graphs))]
        batch = node_batch(stack_graphs(graphs), stack_states(states), cfg)
        for mode in ("sample", "argmax"):
            rngs = [np.random.default_rng(e) for e in range(len(graphs))]
            actions, log_probs, values = act_batch(batch, fold(params), rngs, mode=mode)
            out = evaluate_actions(batch, actions, params)
            np.testing.assert_array_equal(out["log_prob"].data, log_probs)
            np.testing.assert_array_equal(out["value"].data, values)


def test_sequential_conditioning_sensitivity():
    """Changing op1's choice shifts op2's distribution."""
    cfg, graph, params, state = make_setup(seed=11)
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
    base = np.array([[0, 1, 0, 1]])
    alt = np.array([[1, 1, 0, 1]])
    lp_base = evaluate_actions(batch, base, params)["log_prob"].data[0, 1]
    lp_alt = evaluate_actions(batch, alt, params)["log_prob"].data[0, 1]
    assert lp_base != lp_alt


def test_value_permutation_invariance():
    """Permuting agents together with their graph labels leaves e_h alone."""
    cfg, graph, params, state = make_setup(seed=12)
    params = float64_params(params)
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
    perm = np.random.default_rng(2).permutation(graph.n_agents)
    state2_pos = state.agent_pos[perm]
    state.agent_pos = state2_pos
    g2 = type(graph)(
        n_clusters=graph.n_clusters,
        targets=graph.targets,
        agent_to_cluster=graph.agent_to_cluster[perm].copy(),
        cluster_to_target=graph.cluster_to_target,
    )
    batch2 = node_batch(stack_graphs([g2]), stack_states([state]), cfg)
    e1 = encode(batch, fold(params)).data
    e2 = encode(batch2, fold(params)).data
    np.testing.assert_allclose(e2, e1, atol=1e-10)
    z1 = latent(encode(batch, fold(params)), params)
    z2 = latent(encode(batch2, fold(params)), params)
    assert float(value(z1, params).data[0]) == pytest.approx(float(value(z2, params).data[0]), abs=1e-10)


def test_reconstruct_zero_decoder_closed_form():
    cfg, graph, params, state = make_setup(seed=13)
    params = float64_params(params)
    for name, t in params.tensors.items():
        if name.startswith("ae_"):
            t.data[:] = 0.0
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
    e_h = encode(batch, fold(params))
    _, _, _, l_ae = reconstruct(e_h, batch, fold(params))
    expected = (
        np.mean(batch.obs**2)
        + np.mean(np.eye(graph.n_clusters) ** 2)
        + np.mean(batch.target_reps**2)
    ) / 3.0
    assert float(l_ae.data) == pytest.approx(expected, rel=1e-12)


def test_value_finite_on_random_inputs():
    cfg, graph, params, state = make_setup(seed=14)
    rng = np.random.default_rng(3)
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
    for _ in range(200):
        b = NodeBatch(
            obs=rng.normal(size=batch.obs.shape),
            target_reps=rng.normal(size=batch.target_reps.shape),
            agent_to_cluster=batch.agent_to_cluster,
            cluster_to_target=batch.cluster_to_target,
        )
        v = value(latent(encode(b, fold(params)), params), params)
        assert np.isfinite(v.data).all()


# ---------------------------------------------------------------------------
# the folded network against the unfolded one
# ---------------------------------------------------------------------------


def reference_attention(q, k, v, key_mask=None):
    """Attention as an op chain, scaled by the query width: the network
    computed this before its projections were folded."""
    scores = ad.mul(ad.matmul(q, reference_transpose_last(k)), Tensor(1.0 / math.sqrt(q.data.shape[-1])))
    if key_mask is not None:
        m = np.asarray(key_mask, dtype=np.float64)
        scores = ad.add(scores, Tensor((1.0 - m) * ad.MASK_FILL))
    out = ad.matmul(ad.softmax(scores, axis=-1), v)
    if key_mask is not None:
        live = (np.broadcast_to(m, scores.data.shape).max(axis=-1) > 0.0).astype(np.float64)
        out = ad.mul(out, Tensor(live[..., None]))
    return out


def reference_encode(batch, params, key_bias):
    """``encode`` before the fold: agent, cluster and target rows projected
    to the hidden width, keys and values projected from them (with the key
    biases ``key_bias``), and each cluster's target picked from the
    projected rows by a one-hot product."""
    lay, p = params.layout, params.tensors
    B = batch.obs.shape[0]
    member_mask = batch.agent_to_cluster[:, None, :] == np.arange(lay.n_clusters)[None, :, None]
    agents = ad.linear(params.constant(params.normalizer.normalize(batch.obs)), p["proj.agent.W"], p["proj.agent.b"])
    if lay.fan_out > 1:
        grouped = ad.reshape(agents, (B * lay.n_lower, lay.fan_out, lay.hidden))
        keys = ad.linear(grouped, p["merge.Wk"], key_bias["merge.bk"])
        agents = ad.reshape(reference_attention(p["merge.q"], keys, grouped), (B, lay.n_lower, lay.hidden))
    clusters = ad.add(p["proj.cluster.W"], p["proj.cluster.b"])
    h_ac = reference_attention(
        ad.linear(clusters, p["ac.Wq"], p["ac.bq"]),
        ad.linear(agents, p["ac.Wk"], key_bias["ac.bk"]),
        ad.linear(agents, p["ac.Wv"], p["ac.bv"]),
        key_mask=member_mask,
    )
    targets = ad.linear(params.constant(batch.target_reps), p["proj.target.W"], p["proj.target.b"])
    target_values = ad.linear(targets, p["ct.Wv"], p["ct.bv"])
    one_hot = params.constant(batch.cluster_to_target[..., None] == np.arange(lay.n_targets))
    h_ct = ad.matmul(one_hot, target_values)
    return ad.relu(ad.linear(ad.concat([h_ac, h_ct], axis=-1), p["trunk.W"], p["trunk.b"]))


def reference_reconstruct(e_h, batch, params, key_bias):
    """``reconstruct`` before the fold: keys and values projected from e_h,
    the output layer after the attention."""
    lay, p = params.layout, params.tensors
    B = e_h.data.shape[0]

    def decode(name):
        keys = ad.linear(e_h, p[f"{name}.Wk"], key_bias[f"{name}.bk"])
        values = ad.linear(e_h, p[f"{name}.Wv"], p[f"{name}.bv"])
        return ad.linear(reference_attention(p[f"{name}.Q"], keys, values), p[f"{name}.out.W"], p[f"{name}.out.b"])

    agent_target = batch.obs
    if lay.fan_out > 1:
        agent_target = batch.obs.reshape(B, lay.n_lower, lay.fan_out, lay.d_obs).mean(axis=2)
    cluster_target = np.broadcast_to(np.eye(lay.n_clusters), (B, lay.n_clusters, lay.n_clusters))
    hats = [decode(name) for name in ("ae_a", "ae_c", "ae_t")]
    mses = [
        ad.mean(ad.square(ad.sub(hat, params.constant(target))))
        for hat, target in zip(hats, (agent_target, cluster_target, batch.target_reps))
    ]
    return (*hats, ad.mul(ad.add(ad.add(mses[0], mses[1]), mses[2]), params.constant(1.0 / 3.0)))


@pytest.mark.parametrize("fan_out", [1, 2])
def test_folded_network_matches_unfolded_reference(fan_out):
    """On float64 parameters, ``encode`` and ``reconstruct`` on folded
    weights give the unfolded network's outputs and every parameter
    gradient to 1e-10 relative, whatever the retired key biases are: over a
    batch with an empty cluster and clusters that pick the same target."""
    cfg, graph, params, state = make_setup(seed=50, fan_out=fan_out)
    rng = np.random.default_rng(51)
    params = float64_params(params)
    for t in params.tensors.values():
        t.data += rng.uniform(-0.05, 0.05, size=t.shape)  # biases off zero
    params.normalizer.update(rng.normal(size=(40, params.layout.d_obs)))
    lay = params.layout
    key_bias = {
        name: Tensor(rng.normal(size=lay.hidden), requires_grad=True)
        for name in ("ac.bk", "merge.bk", "ae_a.bk", "ae_c.bk", "ae_t.bk")
    }
    B = 4
    batch = NodeBatch(
        obs=rng.normal(size=(B, lay.n_lower * lay.fan_out, lay.d_obs)),
        target_reps=rng.normal(size=(B, lay.n_targets, lay.d_raw)),
        agent_to_cluster=rng.integers(0, lay.n_clusters, size=(B, lay.n_lower)),
        cluster_to_target=rng.integers(0, lay.n_targets, size=(B, lay.n_clusters)),
    )
    batch.agent_to_cluster[0] = 0  # clusters 1 and 2 empty
    batch.cluster_to_target[1] = 4  # every cluster on one target
    weights = [rng.normal(size=shape) for shape in (
        (B, lay.n_clusters, lay.hidden), (B, lay.n_lower, lay.d_obs),
        (B, lay.n_clusters, lay.n_clusters), (B, lay.n_targets, lay.d_raw),
    )]

    def run(encoder, decoder):
        for t in params.tensors.values():
            t.grad = None
        e_h = encoder(batch)
        *hats, l_ae = decoder(e_h, batch)
        loss = l_ae
        for out, w in zip([e_h, *hats], weights):
            loss = ad.add(loss, ad.sum_(ad.mul(out, Tensor(w))))
        ad.backward(loss)
        return [e_h.data, *(hat.data for hat in hats), l_ae.data], {k: t.grad for k, t in params.tensors.items()}

    folded_out, folded_grads = run(
        lambda b: encode(b, fold(params)), lambda e_h, b: reconstruct(e_h, b, fold(params))
    )
    ref_out, ref_grads = run(
        lambda b: reference_encode(b, params, key_bias),
        lambda e_h, b: reference_reconstruct(e_h, b, params, key_bias),
    )
    for got, want in zip(folded_out, ref_out):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    checked = 0
    for name, want in ref_grads.items():
        got = folded_grads[name]
        if want is None:
            assert got is None, name
            continue
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name
        checked += 1
    assert checked == len([n for n in params.tensors if not n.startswith(("latent", "value", "head"))])


@pytest.mark.parametrize("fan_out", [1, 2])
def test_forward_builds_no_hidden_width_rows_but_e_h(monkeypatch, fan_out):
    """On the PPO tape, the only per-row tensors of the hidden width are
    e_h and its pre-activation (B, n_clusters, hidden): no key, value,
    agent-projection or target-projection rows. And every parameter gets a
    gradient from the loss."""
    cfg, graph, params, state = make_setup(seed=52, fan_out=fan_out)
    lay = params.layout
    B = 3
    batch = node_batch(stack_graphs([graph] * B), stack_states([state] * B), cfg)
    actions = np.stack([batch.agent_to_cluster[:, 0], np.zeros(B, int), batch.cluster_to_target[:, 0], np.zeros(B, int)], axis=1)
    shapes = []
    make = ad._make

    def recording_make(data, *rest):
        shapes.append(data.shape)
        return make(data, *rest)

    monkeypatch.setattr(ad, "_make", recording_make)
    out = evaluate_actions(batch, actions, params)
    wide = {shape for shape in shapes if len(shape) >= 3 and shape[-1] == lay.hidden}
    assert wide == {(B, lay.n_clusters, lay.hidden)}
    ad.backward(ad.add(ad.add(ad.sum_(out["log_prob"]), ad.sum_(out["value"])), out["l_ae"]))
    assert [name for name, t in params.tensors.items() if t.grad is None or not t.grad.any()] == []


# ---------------------------------------------------------------------------
# surgery and transfer plumbing
# ---------------------------------------------------------------------------


def test_surgery_inherits_bit_exact():
    cfg, graph, params, state = make_setup(seed=15)
    before = {k: t.data.copy() for k, t in params.tensors.items()}
    new = surgery_for_extension(params, 2, np.random.default_rng(0))
    for k, arr in before.items():
        assert np.array_equal(new.tensors[k].data, arr), k
    assert "merge.q" in new.tensors and "merge.q" not in params.tensors
    assert new.layout.fan_out == 2
    # output head shapes unchanged
    for i in (1, 2, 3, 4):
        assert new.tensors[f"head{i}.fc2.W"].shape == params.tensors[f"head{i}.fc2.W"].shape
    with pytest.raises(ValueError):
        surgery_for_extension(new, 2, np.random.default_rng(0))


def test_surgery_identity_at_fan_out_one():
    """At fan-out 1 there is nothing to merge: surgery returns a copy with
    the same layout and tensors and no merge block, so the embeddings stay."""
    cfg, graph, params, state = make_setup(seed=16)
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
    before = encode(batch, fold(params)).data
    same = surgery_for_extension(params, 1, np.random.default_rng(4))
    assert same.layout == params.layout
    assert same.tensors.keys() == params.tensors.keys()
    for name, t in params.tensors.items():
        assert same.tensors[name] is not t and np.array_equal(same.tensors[name].data, t.data), name
    np.testing.assert_array_equal(encode(batch, fold(same)).data, before)


def test_extended_forward_needs_merge_block():
    cfg, graph, params, state = make_setup(seed=17, fan_out=2)
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
    assert "merge.q" in params.tensors  # init_params added it for an extended layout
    e_h = encode(batch, fold(params))
    assert e_h.shape == (1, 3, 16)
    stripped = params.copy()
    del stripped.tensors["merge.q"], stripped.tensors["merge.Wk"]
    with pytest.raises(ValueError, match="merge"):
        encode(batch, fold(stripped))


def test_noncontiguous_extension_groups_are_gathered():
    """Imported graphs may bind group nodes to arbitrary agent ids; the
    network input rows must follow extension order, not env order."""
    from coopgraph.policy import agent_rows

    cfg, graph, params, state = make_setup(seed=40, fan_out=2)
    scrambled = dataclasses.replace(
        graph, extension=np.array([[11, 0], [1, 10], [2, 9], [3, 8], [4, 7], [5, 6]])
    )
    rows = agent_rows(stack_graphs([scrambled]), stack_states([state]), cfg)[0]
    from coopgraph.env import observe_all

    obs = observe_all(stack_states([state]), cfg)[0]
    np.testing.assert_array_equal(rows[0], obs[11])
    np.testing.assert_array_equal(rows[1], obs[0])
    # encode consumes the gathered layout without error and differs from the
    # contiguous grouping (different group compositions)
    e1 = encode(node_batch(stack_graphs([graph]), stack_states([state]), cfg), fold(params)).data
    e2 = encode(node_batch(stack_graphs([scrambled]), stack_states([state]), cfg), fold(params)).data
    assert not np.allclose(e1, e2)


def test_extended_reconstruction_targets_group_means():
    cfg, graph, params, state = make_setup(seed=18, fan_out=2)
    params = float64_params(params)
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)
    for name, t in params.tensors.items():
        if name.startswith("ae_"):
            t.data[:] = 0.0
    e_h = encode(batch, fold(params))
    agent_hat, _, _, l_ae = reconstruct(e_h, batch, fold(params))
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


def trainer_for(tmp_path, cfg, graph, params):
    """A fresh trainer on ``params``: the one checkpoint writer."""
    return Trainer(graph, params, cfg, TrainConfig(), TrainSettings(), 0, tmp_path)


def test_checkpoint_round_trip(tmp_path):
    cfg, graph, params, state = make_setup(seed=19)
    params.normalizer.update(np.random.default_rng(0).normal(size=(50, obs_dim(cfg))))
    trainer = trainer_for(tmp_path, cfg, graph, params)
    rng = np.random.default_rng(1)
    for moments in (trainer.optimizer.m, trainer.optimizer.v):
        for moment in moments.values():
            moment[...] = rng.random(moment.shape)
    path = tmp_path / "policy.ckpt"
    trainer.save(path)
    run = load_run_checkpoint(path)
    assert run.params.layout == params.layout
    for k, t in params.tensors.items():
        assert np.array_equal(run.params.tensors[k].data, t.data)
        assert np.array_equal(run.adam_m[k], trainer.optimizer.m[k])
        assert np.array_equal(run.adam_v[k], trainer.optimizer.v[k])
    np.testing.assert_allclose(run.params.normalizer.mean, params.normalizer.mean)
    assert run.params.normalizer.count == params.normalizer.count
    # round-trip stability: identical bytes when saved again
    path2 = tmp_path / "again.ckpt"
    Trainer.restore(path, trainer.settings, tmp_path).save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError, match=re.escape(f"{path} is not a trainer checkpoint")):
        load_run_checkpoint(path)


def test_checkpoint_drops_retired_tensors(tmp_path):
    """A checkpoint from before the cluster->target gather, or from before
    the key biases were retired, still holds those tensors and their Adam
    moments; loading drops them, so saving again (and an optimizer built on
    the loaded tensors) no longer carries them, unextended or extended.
    Likewise the env-config codec drops the retired ``seed`` key of older
    headers."""
    for fan_out in (1, 2):
        cfg, graph, params, state = make_setup(seed=21, fan_out=fan_out)
        doc = cfg.to_json_dict()
        assert "seed" not in doc
        assert EnvConfig.from_json_dict({**doc, "seed": 0}) == EnvConfig.from_json_dict(doc) == cfg
        old = params.copy()
        h = params.layout.hidden
        retired = [name for name in RETIRED if fan_out > 1 or not name.startswith("merge.")]
        for name in retired:
            old.tensors[name] = Tensor(np.ones((h,) * len(RETIRED[name])), requires_grad=True)
        out = tmp_path / f"fan{fan_out}"
        trainer_for(out, cfg, graph, old).save(out / "old.ckpt")
        saved = (out / "old.ckpt").read_bytes()
        for name in retired:
            assert f'"extra.adam.v.{name}"'.encode() in saved, name
        run = load_run_checkpoint(out / "old.ckpt")
        assert run.params.tensors.keys() == run.adam_m.keys() == run.adam_v.keys() == params.tensors.keys()
        Trainer.restore(out / "old.ckpt", TrainSettings(), out).save(out / "again.ckpt")
        trainer_for(out, cfg, graph, params).save(out / "fresh.ckpt")
        assert (out / "again.ckpt").read_bytes() == (out / "fresh.ckpt").read_bytes()


@pytest.mark.parametrize(
    "edit,error",
    [
        (lambda tensors: tensors.pop("head1.fc1.W"), "tensor head1.fc1.W is missing"),
        (lambda tensors: tensors.update({"head5.fc1.W": Tensor(np.zeros((16, 2)))}), "unexpected tensor head5.fc1.W"),
        (
            lambda tensors: tensors.update({"trunk.W": Tensor(tensors["trunk.W"].data.T.copy())}),
            "tensor trunk.W has shape (16, 32), its layout needs (32, 16)",
        ),
        # what a fan-out-1 surgery used to add: an unextended layout has no merge block
        (lambda tensors: policy_module._init_merge(tensors, np.random.default_rng(0), 16), "unexpected tensor merge.Wk"),
    ],
    ids=["missing", "unexpected", "misshaped", "merge_at_fan_out_one"],
)
def test_checkpoint_rejects_tensors_its_layout_does_not_have(tmp_path, edit, error):
    """Checked against ``init_params`` of the header's layout, before any
    forward pass could fail on it."""
    cfg, graph, params, state = make_setup(seed=25)
    bad = params.copy()
    edit(bad.tensors)
    path = tmp_path / "bad.ckpt"
    trainer_for(tmp_path, cfg, graph, bad).save(path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
        load_run_checkpoint(path)


def test_checkpoint_rejects_other_format_version(tmp_path):
    cfg, graph, params, state = make_setup(seed=22)
    path = tmp_path / "future.ckpt"
    trainer_for(tmp_path, cfg, graph, params).save(path)
    rewrite_checkpoint(path, path, edit_header=lambda header: {**header, "format_version": 2})
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*version 2"):
        load_run_checkpoint(path)


@pytest.mark.parametrize("missing", ["layout", "manifest", "normalizer", None, "trainer_state"])
def test_checkpoint_rejects_malformed_header(tmp_path, missing):
    """A header without one of the keys the loader reads, or one that is not
    a JSON object (``None``), is refused with the path and the key."""
    cfg, graph, params, state = make_setup(seed=26)
    path = tmp_path / "bad.ckpt"
    trainer_for(tmp_path, cfg, graph, params).save(path)
    if missing is None:
        edit, error = (lambda header: [header]), "checkpoint header is not a JSON object"
    else:
        edit, error = (lambda header: {k: v for k, v in header.items() if k != missing}), f"checkpoint header lacks {missing!r}"
    rewrite_checkpoint(path, path, edit_header=edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
        load_run_checkpoint(path)


@pytest.mark.parametrize("keep", [6, 20, -8])
def test_checkpoint_rejects_truncated_file(tmp_path, keep):
    """Cut inside the header length, inside the header or inside the tensor data."""
    cfg, graph, params, state = make_setup(seed=23)
    path = tmp_path / "cut.ckpt"
    trainer_for(tmp_path, cfg, graph, params).save(path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*truncated"):
        load_run_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    """A save that fails before the rename leaves the previous checkpoint
    whole and no temporary file behind."""
    cfg, graph, params, state = make_setup(seed=24)
    path = tmp_path / "policy.ckpt"
    trainer = trainer_for(tmp_path, cfg, graph, params)
    trainer.save(path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(training_module.os, "replace", fail)
    trainer.params.tensors["trunk.b"].data += 1.0
    with pytest.raises(OSError, match="disk full"):
        trainer.save(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["policy.ckpt"]


# ---------------------------------------------------------------------------
# full-loss gradient oracle at reduced width
# ---------------------------------------------------------------------------


def _loss_from_params(params, batch, actions, adv, old_logp, v_old, returns):
    clip_eps = 0.2
    const = params.constant
    out = evaluate_actions(batch, actions, params)
    logp_new = ad.sum_(out["log_prob"], axis=1)
    ratio = ad.exp(ad.sub(logp_new, const(old_logp)))
    clipped = ad.clip(ratio, 1 - clip_eps, 1 + clip_eps)
    adv_t = const(adv)
    surrogate = ad.minimum(ad.mul(ratio, adv_t), ad.mul(clipped, adv_t))
    policy_loss = ad.mul(ad.mean(surrogate), const(-1.0))
    v_new = out["value"]
    v_clip = ad.add(const(v_old), ad.clip(ad.sub(v_new, const(v_old)), -clip_eps, clip_eps))
    ret = const(returns)
    value_loss = ad.mean(ad.maximum(ad.square(ad.sub(v_new, ret)), ad.square(ad.sub(v_clip, ret))))
    entropy = ad.mean(ad.sum_(out["entropy"], axis=1))
    return ad.add(
        ad.add(policy_loss, ad.mul(value_loss, const(0.5))),
        ad.add(ad.mul(entropy, const(-0.01)), ad.mul(out["l_ae"], const(0.1))),
    )


def _jittered_loss_inputs(rng, params, B=4):
    """Jitter params in place and draw a random B-step batch with its PPO
    inputs: (batch, actions, adv, old_logp, v_old, returns)."""
    for t in params.tensors.values():
        # zero-initialized biases put relu pre-activations exactly on the
        # kink, where no finite-difference oracle is defined; jitter off it
        t.data += rng.uniform(-0.05, 0.05, size=t.shape)
    lay = params.layout
    batch = NodeBatch(
        obs=rng.normal(scale=0.5, size=(B, lay.n_lower, lay.d_obs)),
        target_reps=rng.normal(scale=0.5, size=(B, lay.n_targets, lay.d_raw)),
        agent_to_cluster=rng.integers(0, lay.n_clusters, size=(B, lay.n_lower)),
        cluster_to_target=rng.integers(0, lay.n_targets, size=(B, lay.n_clusters)),
    )
    # op1/op3 pick an occupied source: the lowest cluster with a member
    # and the lowest target with a cluster
    actions = np.stack([
        np.array([batch.agent_to_cluster[b].min(), rng.integers(lay.n_clusters),
                  batch.cluster_to_target[b].min(), rng.integers(lay.n_targets)])
        for b in range(B)
    ])
    adv = rng.normal(size=B)
    v_old = rng.normal(scale=0.1, size=B)
    returns = rng.normal(scale=0.5, size=B)
    # keep every ratio strictly inside the trust region: smooth loss
    probe = evaluate_actions(batch, actions, params)
    old_logp = probe["log_prob"].data.sum(axis=1) + rng.uniform(-0.05, 0.05, size=B)
    return batch, actions, adv, old_logp, v_old, returns


def run_policy_loss_gradcheck(instances: int, coords_per_tensor: int = 2, seed: int = 0) -> float:
    """Full PPO loss at hidden width 8, on float64 parameters, vs central
    finite differences on randomly sampled parameter coordinates."""
    worst = 0.0
    rng = np.random.default_rng(seed)
    for inst in range(instances):
        cfg, graph, params, state = make_setup(seed=100 + inst, hidden=8)
        params = float64_params(params)
        inputs = _jittered_loss_inputs(rng, params)

        def loss_value():
            return _loss_from_params(params, *inputs)

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


def test_float32_gradient_matches_float64_oracle():
    """The float32 tape's full PPO-loss gradient agrees with the float64
    tape's on the same parameters to 1e-3 relative, each coordinate scaled
    as in ``run_policy_loss_gradcheck``."""
    rng = np.random.default_rng(8)
    for inst in range(3):
        cfg, graph, params, state = make_setup(seed=200 + inst)
        assert params.tensors["trunk.W"].data.dtype == np.float32
        inputs = _jittered_loss_inputs(rng, params)
        wide = float64_params(params)
        for p in (params, wide):
            ad.backward(_loss_from_params(p, *inputs))
        for name, t in wide.tensors.items():
            g32 = params.tensors[name].grad
            assert g32.dtype == np.float32 and t.grad.dtype == np.float64, name
            scale = np.maximum(np.abs(t.grad), max(np.abs(g32).max(), 1e-6))
            err = (np.abs(g32 - t.grad) / scale).max()
            assert err < 1e-3, f"{name}: float32 vs float64 relative error {err:.2e}"


def test_layer_gradcheck_encode_path():
    """Direct finite differences through encode -> value on a tiny setup,
    on float64 parameters."""
    cfg, graph, params, state = make_setup(seed=31, hidden=8)
    params = float64_params(params)
    batch = node_batch(stack_graphs([graph]), stack_states([state]), cfg)

    names = ["proj.agent.W", "ac.Wq", "ct.Wv", "trunk.W", "latent.W", "value.fc2.W"]

    def f(arrays):
        for n, a in zip(names, arrays):
            params.tensors[n].data = a
        with ad.no_grad():
            v = value(latent(encode(batch, fold(params)), params), params)
        return float(v.data[0])

    arrays = [params.tensors[n].data.copy() for n in names]
    ad.backward(value(latent(encode(batch, fold(params)), params), params))
    numeric = numeric_gradient(f, [a.copy() for a in arrays], h=1e-6)
    for n, num in zip(names, numeric):
        ana = params.tensors[n].grad
        assert ana is not None
        assert relative_error(ana, num) < 1e-3, n
    f(arrays)  # restore
