"""Shared policy network of the four graph operators.

The network reads the graph as three node families. Agent rows are the raw
per-agent observations, cluster rows are one-hot codes, target rows carry a
one-hot (primitive) or a structured command descriptor (cooperative). The
encoder follows the graph edges: each cluster attends over its member agents
and gathers the value row of its one selected target (attention over a
single live key is exactly that row), so the resulting per-cluster
embeddings encode the live topology. A trunk then produces per-cluster
embeddings e_h, which feed

  1. a flattened shared latent z for the critic and the four action heads
     (each head conditions on the choices of the heads before it), and
  2. an attention decoder per node family that reconstructs the raw node
     representations, giving the auxiliary reconstruction loss.

The network runs on weights folded from the parameters (``fold``), so no
(rows, hidden) key, value or projected-target tensor is ever built. Each
fold is exact math: a key projection only meets a parameter-only query in a
dot product, and a value projection only feeds a linear layer. With x the
normalized observations, T the target rows and ``proj.agent`` = (Wpa, bpa):

- member attention ``ac``: its scores are x @ (Wpa Wk q^T) plus one
  constant per query, which the softmax cancels, so it attends over x
  itself with the query table q Wk^T Wpa^T; its output is (weights @ x) @
  (Wpa Wv) + (bpa Wv + bv) on a cluster with members, 0 on one without;
- merge block: likewise its query table is merge.q merge.Wk^T Wpa^T over a
  group's rows of x, and a group's merged row stays in observation space
  (weights @ x_group), which the member attention then reads as x;
- cluster->target edge: pick(T) @ (Wpt Wct) + (bpt Wct + bct), picking the
  constant target rows first;
- trunk: the two products above meet the trunk's two row blocks, so e_h =
  relu([member mix, live flag, pick(T)] @ M + c), one small linear; the
  live flag carries (bpa Wv + bv) on a cluster with members;
- decoders ``ae_a``/``ae_c``/``ae_t``: scores e_h @ (Wk Q^T), and the
  weights sum to 1, so the output is weights @ (e_h @ (Wv Wo) + (bv Wo +
  bo)).

Every bias lands in a product above, except the attention key biases,
which the softmax cancels: the network has none. A rollout folds once under
``no_grad`` (the parameters are fixed while it runs) and ``act_batch``
takes the result; ``evaluate_actions`` folds on the tape for each
minibatch, so gradients reach the parameters. Both run the same numpy
arithmetic, so the folded weights agree bit for bit, and so do the
log-probabilities and values of rows evaluated together. Across row counts
they can differ in the last float32 bit, as GEMM rounding depends on the
row count, so ``collect``'s and a minibatch's need not agree exactly.

The node inputs of a lockstep step are built in one pass over a
``stack_graphs`` and a ``stack_states`` stack of its B episodes
(``node_batch``); one episode is a stack of one. That NodeBatch is the
policy's whole input: the op1/op3 head masks follow from its edge maps.
Sampling (``act_batch``) and the PPO re-evaluation (``evaluate_actions``)
run one head chain, off and on the tape.

The parameters are float32 (``PARAM_DTYPE``), and every numpy input of the
forward goes to the tape in the parameters' dtype (``PolicyParams.constant``),
so the forward, backward and Adam all run in float32; the same parameters
widened to float64 run a float64 tape. Observation statistics stay float64.

After a curriculum extension, each bottom-layer node stands for a fixed
group of agents; a small merge-attention block (added by surgery, everything
else inherited bit-exact) compresses the group's observations into one row
before the cluster attention.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Literal

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .commands import COMMAND_REPR_WIDTH, command_rows
from .env import EnvConfig, EnvState, obs_dim, observe_all
from .graph import CooperationGraph

# the one dtype of the parameters, and so of the forward, backward and Adam
PARAM_DTYPE = np.float32


def raw_repr_width(n_targets: int) -> int:
    """Common width of target raw representations (one-hot and command rows)."""
    return max(n_targets, COMMAND_REPR_WIDTH)


@dataclass(frozen=True)
class PolicyLayout:
    """Structural dimensions the parameter shapes depend on."""

    n_lower: int        # bottom-layer controllable nodes (constant across transfer)
    fan_out: int        # env agents per bottom node; 1 = unextended
    d_obs: int
    n_clusters: int
    n_targets: int
    d_raw: int
    hidden: int = 64


def layout_for(graph: CooperationGraph, config: EnvConfig, hidden: int = 64) -> PolicyLayout:
    return PolicyLayout(
        n_lower=graph.n_agents,
        fan_out=graph.fan_out,
        d_obs=obs_dim(config),
        n_clusters=graph.n_clusters,
        n_targets=graph.n_targets,
        d_raw=raw_repr_width(graph.n_targets),
        hidden=hidden,
    )


class ObsNormalizer:
    """Running mean/variance of agent observations.

    Updated from collected batches during training, frozen at evaluation.
    """

    def __init__(self, dim: int):
        self.mean = np.zeros(dim, dtype=np.float64)
        self.var = np.ones(dim, dtype=np.float64)
        self.count = 1e-4

    def update(self, rows: np.ndarray) -> None:
        rows = rows.reshape(-1, rows.shape[-1])
        n = rows.shape[0]
        if n == 0:
            return
        batch_mean = rows.mean(axis=0)
        batch_var = rows.var(axis=0)
        delta = batch_mean - self.mean
        total = self.count + n
        self.mean = self.mean + delta * n / total
        m2 = self.var * self.count + batch_var * n + delta**2 * self.count * n / total
        self.var = m2 / total
        self.count = total

    def normalize(self, rows: np.ndarray) -> np.ndarray:
        return (rows - self.mean) / np.sqrt(self.var + 1e-8)

    def state_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "var": self.var.tolist(), "count": self.count}

    @classmethod
    def from_state(cls, state: dict) -> "ObsNormalizer":
        norm = cls(len(state["mean"]))
        norm.mean = np.asarray(state["mean"], dtype=np.float64)
        norm.var = np.asarray(state["var"], dtype=np.float64)
        norm.count = float(state["count"])
        return norm


@dataclass
class PolicyParams:
    """All learnable tensors plus the observation normalizer."""

    layout: PolicyLayout
    tensors: dict[str, Tensor]
    normalizer: ObsNormalizer

    def constant(self, value) -> Tensor:
        """value as a constant Tensor in the parameters' dtype: every numpy
        input of the forward goes through here, so the tape keeps that dtype."""
        return Tensor(np.asarray(value, dtype=self.tensors["proj.agent.W"].data.dtype))

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            layout=self.layout,
            tensors={k: Tensor(t.data.copy(), requires_grad=t.requires_grad) for k, t in self.tensors.items()},
            normalizer=ObsNormalizer.from_state(self.normalizer.state_dict()),
        )


def _param(data: np.ndarray) -> Tensor:
    return Tensor(np.asarray(data, dtype=PARAM_DTYPE), requires_grad=True)


def _init_linear(tensors, rng, name, fan_in, fan_out, w_scale=None):
    scale = (1.0 / np.sqrt(fan_in)) if w_scale is None else w_scale
    tensors[f"{name}.W"] = _param(rng.normal(0.0, scale, size=(fan_in, fan_out)))
    tensors[f"{name}.b"] = _param(np.zeros(fan_out))


# An attention has no key bias: it shifts every score of a query by the same
# amount, which the softmax cancels. Biases are zeros and take no draws.


def _init_attention(tensors, rng, name, h):
    for part in ("Wq", "Wk", "Wv"):
        tensors[f"{name}.{part}"] = _param(rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h)))
    for part in ("bq", "bv"):
        tensors[f"{name}.{part}"] = _param(np.zeros(h))


def _init_merge(tensors, rng, h):
    tensors["merge.q"] = _param(rng.normal(0.0, 1.0 / np.sqrt(h), size=(1, h)))
    tensors["merge.Wk"] = _param(rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h)))


def _init_decoder(tensors, rng, name, n_queries, h, d_out):
    tensors[f"{name}.Q"] = _param(rng.normal(0.0, 1.0 / np.sqrt(h), size=(n_queries, h)))
    for part in ("Wk", "Wv"):
        tensors[f"{name}.{part}"] = _param(rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h)))
    tensors[f"{name}.bv"] = _param(np.zeros(h))
    _init_linear(tensors, rng, f"{name}.out", h, d_out)


def init_params(layout: PolicyLayout, rng: np.random.Generator) -> PolicyParams:
    """Fresh parameters; head output layers start small so the initial
    operator policy is near uniform. Each tensor is drawn in float64 and
    stored rounded to ``PARAM_DTYPE``."""
    h = layout.hidden
    n_k, n_t = layout.n_clusters, layout.n_targets
    tensors: dict[str, Tensor] = {}
    _init_linear(tensors, rng, "proj.agent", layout.d_obs, h)
    _init_linear(tensors, rng, "proj.cluster", n_k, h)
    _init_linear(tensors, rng, "proj.target", layout.d_raw, h)
    _init_attention(tensors, rng, "ac", h)
    # the cluster->target edge keeps only its value projection; draw and
    # drop the two retired query/key matrices so every seed's other tensors
    # stay what they were
    rng.normal(0.0, 1.0 / np.sqrt(h), size=(2, h, h))
    tensors["ct.Wv"] = _param(rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h)))
    tensors["ct.bv"] = _param(np.zeros(h))
    _init_linear(tensors, rng, "trunk", 2 * h, h)
    _init_linear(tensors, rng, "latent", n_k * h, h)
    _init_linear(tensors, rng, "value.fc1", h, h)
    _init_linear(tensors, rng, "value.fc2", h, 1)
    head_inputs = (h, h + n_k, h + 2 * n_k, h + 2 * n_k + n_t)
    head_outputs = (n_k, n_k, n_t, n_t)
    for i, (d_in, d_out) in enumerate(zip(head_inputs, head_outputs), start=1):
        _init_linear(tensors, rng, f"head{i}.fc1", d_in, h)
        _init_linear(tensors, rng, f"head{i}.fc2", h, d_out, w_scale=0.01)
    _init_decoder(tensors, rng, "ae_a", layout.n_lower, h, layout.d_obs)
    _init_decoder(tensors, rng, "ae_c", n_k, h, n_k)
    _init_decoder(tensors, rng, "ae_t", n_t, h, layout.d_raw)
    if layout.fan_out > 1:
        _init_merge(tensors, rng, h)
    return PolicyParams(layout=layout, tensors=tensors, normalizer=ObsNormalizer(layout.d_obs))


def surgery_for_extension(
    params: PolicyParams, fan_out: int, rng: np.random.Generator
) -> PolicyParams:
    """Add a randomly initialized merge-attention block for group inputs.

    Every inherited tensor is copied bit-exact; only the merge block is new.
    At fan-out 1 there are no groups to merge, so the result is a plain copy.
    """
    if params.layout.fan_out != 1:
        raise ValueError("params already carry a merge block")
    if fan_out < 1:
        raise ValueError("fan_out must be >= 1")
    new = params.copy()
    if fan_out > 1:
        new.layout = PolicyLayout(**{**asdict(params.layout), "fan_out": fan_out})
        _init_merge(new.tensors, rng, params.layout.hidden)
    return new


# ---------------------------------------------------------------------------
# network inputs
# ---------------------------------------------------------------------------


@dataclass
class NodeBatch:
    """Raw network inputs for a batch of steps (leading axis B).

    ``obs`` holds one row per environment agent; with an extension present
    the rows of each group are consecutive. ``agent_to_cluster`` builds the
    member attention mask; ``cluster_to_target`` picks each cluster's target
    row. The two edge maps also fix the head masks (``head_masks``), so a
    NodeBatch is the policy's whole input.
    """

    obs: np.ndarray                # (B, n_env, d_obs)
    target_reps: np.ndarray        # (B, n_targets, d_raw)
    agent_to_cluster: np.ndarray   # (B, n_lower)
    cluster_to_target: np.ndarray  # (B, n_clusters)

    def rows(self, idx: np.ndarray) -> "NodeBatch":
        """The NodeBatch of the steps ``idx``."""
        return NodeBatch(*(getattr(self, f.name)[idx] for f in fields(NodeBatch)))

    def head_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Source masks of heads op1 and op3, (B, n_clusters) and (B,
        n_targets) bool: the clusters with a member and the targets with a
        cluster, the only sources whose move is not a no-op."""
        n_k, n_t = self.cluster_to_target.shape[-1], self.target_reps.shape[-2]
        return (
            (self.agent_to_cluster[..., None] == np.arange(n_k)).any(axis=-2),
            (self.cluster_to_target[..., None] == np.arange(n_t)).any(axis=-2),
        )


def target_raw_reps(graph: CooperationGraph, state: EnvState, config: EnvConfig) -> np.ndarray:
    """Target rows: one-hot of the target id for primitives, structured
    command descriptors for cooperative nodes, one common width.

    A ``stack_states`` stack gives one (n_targets, d_raw) matrix per episode;
    every episode of a stack shares the graph's target layer.
    """
    codes = graph.targets.codes
    slots = graph.targets.anchor_slots(state.invader_pos.shape[-2], state.base_pos.shape[-2])
    reps = command_rows(codes[:, 1], slots, state, config, raw_repr_width(graph.n_targets))
    prim = np.flatnonzero(codes[:, 0] >= 0)
    reps[..., prim, prim] = 1.0
    return reps


def agent_rows(graph: CooperationGraph, state: EnvState, config: EnvConfig) -> np.ndarray:
    """Observation rows in network order: group members consecutive.

    Without an extension this is plain env-agent order; with one, row
    fan_out*i+j is member j of group node i, whatever the group's actual
    agent ids are. A ``stack_states`` stack gives one matrix per episode.
    """
    obs = observe_all(state, config)
    if graph.extension is None:
        return obs
    return obs[..., graph.extension.reshape(-1), :]


def node_batch(graph: CooperationGraph, state: EnvState, config: EnvConfig) -> NodeBatch:
    """NodeBatch of a lockstep step of B episodes, for a ``stack_graphs``
    and a ``stack_states`` stack."""
    return NodeBatch(
        obs=agent_rows(graph, state, config),
        target_reps=target_raw_reps(graph, state, config),
        agent_to_cluster=graph.agent_to_cluster,
        cluster_to_target=graph.cluster_to_target,
    )


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------


def _linear(x: Tensor, params: PolicyParams, name: str) -> Tensor:
    return ad.linear(x, params.tensors[f"{name}.W"], params.tensors[f"{name}.b"])


DECODERS = ("ae_a", "ae_c", "ae_t")


@dataclass(frozen=True)
class FoldedParams:
    """The encoder and decoder weights of ``params`` folded into products
    of parameters (see the module docstring), by name:

    - ``ac.q`` (n_clusters, d_obs): the member attention's query table in
      observation space; ``merge.q`` (1, d_obs) the merge block's, with an
      extension;
    - ``trunk.W`` (d_obs + 1 + d_raw, hidden) and ``trunk.b``: the trunk
      over [member mix, live flag, selected target row];
    - per decoder ``{name}.Q`` (n_queries, hidden), its query table against
      e_h, and ``{name}.V.W`` (hidden, d_out) with ``{name}.V.b``, the
      value projection carried through its output layer.
    """

    params: PolicyParams
    tensors: dict[str, Tensor]


def fold(params: PolicyParams) -> FoldedParams:
    """The folded weights of ``params``, with ad ops: on the tape (as
    ``evaluate_actions`` calls it) gradients flow back to the parameters;
    under ``no_grad`` the same arithmetic gives the same bits, so a rollout
    folds once and its log-probabilities match the tape's."""
    lay = params.layout
    p = params.tensors
    h = lay.hidden

    def row(vec: Tensor) -> Tensor:
        return ad.reshape(vec, (1, vec.data.shape[-1]))

    def zeros(n: int) -> Tensor:
        return params.constant(np.zeros((n, h)))

    # keys of the member attention: agents = x Wpa + bpa, keys agents Wk;
    # q.(bpa Wk) is one constant per query, which the softmax cancels
    wpa_t = ad.transpose(p["proj.agent.W"])
    clusters = ad.add(p["proj.cluster.W"], p["proj.cluster.b"])
    q = ad.linear(clusters, p["ac.Wq"], p["ac.bq"])
    out = {"ac.q": ad.matmul(ad.matmul(q, ad.transpose(p["ac.Wk"])), wpa_t)}
    if lay.fan_out > 1:
        if "merge.q" not in p:
            raise ValueError("extended inputs need a merge block; run surgery first")
        out["merge.q"] = ad.matmul(ad.matmul(p["merge.q"], ad.transpose(p["merge.Wk"])), wpa_t)
    # values through the trunk's two row blocks: the member values
    # (x Wpa + bpa) Wv + bv, zero on a dead row, and the picked target's
    # (T Wpt + bpt) Wct + bct
    member_v = ad.matmul(p["proj.agent.W"], p["ac.Wv"])
    member_c = ad.linear(row(p["proj.agent.b"]), p["ac.Wv"], p["ac.bv"])
    target_v = ad.matmul(p["proj.target.W"], p["ct.Wv"])
    target_c = ad.linear(row(p["proj.target.b"]), p["ct.Wv"], p["ct.bv"])
    blocks = ad.concat([
        ad.concat([member_v, zeros(lay.d_obs)], axis=-1),
        ad.concat([member_c, zeros(1)], axis=-1),
        ad.concat([zeros(lay.d_raw), target_v], axis=-1),
    ], axis=0)
    out["trunk.W"] = ad.matmul(blocks, p["trunk.W"])
    out["trunk.b"] = ad.reshape(
        ad.linear(ad.concat([zeros(1), target_c], axis=-1), p["trunk.W"], p["trunk.b"]), (h,)
    )
    for name in DECODERS:
        # the weights sum to 1, so the output layer moves inside the weighted sum
        out[f"{name}.Q"] = ad.matmul(p[f"{name}.Q"], ad.transpose(p[f"{name}.Wk"]))
        out[f"{name}.V.W"] = ad.matmul(p[f"{name}.Wv"], p[f"{name}.out.W"])
        out[f"{name}.V.b"] = ad.reshape(
            ad.linear(row(p[f"{name}.bv"]), p[f"{name}.out.W"], p[f"{name}.out.b"]), (-1,)
        )
    return FoldedParams(params, out)


def encode(batch: NodeBatch, folded: FoldedParams) -> Tensor:
    """Per-cluster embeddings e_h, shape (B, n_clusters, hidden).

    A non-finite intermediate raises NonFiniteError naming its op: off the
    tape at that op, on the tape in ``backward`` (see ``autodiff``). The
    observations are normalized in float64, then cast to the parameters'
    dtype.
    """
    params = folded.params
    lay = params.layout
    f = folded.tensors
    B = batch.obs.shape[0]
    scale = 1.0 / np.sqrt(lay.hidden)
    # mask (B, n_k, n_lower): cluster k attends over its member agents
    member_mask = batch.agent_to_cluster[:, None, :] == np.arange(lay.n_clusters)[None, :, None]

    x = params.constant(params.normalizer.normalize(batch.obs))  # (B, n_env, d_obs)
    if lay.fan_out > 1:
        groups = ad.reshape(x, (B * lay.n_lower, lay.fan_out, lay.d_obs))
        merged = ad.scaled_dot_attention(f["merge.q"], groups, groups, scale)
        x = ad.reshape(merged, (B, lay.n_lower, lay.d_obs))
    mix = ad.scaled_dot_attention(f["ac.q"], x, x, scale, key_mask=member_mask)  # (B, n_k, d_obs)
    live = params.constant(member_mask.any(axis=-1)[..., None])
    # a cluster has exactly one target edge: take the selected target row
    picked = params.constant(batch.target_reps[np.arange(B)[:, None], batch.cluster_to_target])
    return ad.relu(ad.linear(ad.concat([mix, live, picked], axis=-1), f["trunk.W"], f["trunk.b"]))


def latent(e_h: Tensor, params: PolicyParams) -> Tensor:
    """Flatten per-cluster embeddings into the shared low-dim latent z."""
    lay = params.layout
    B = e_h.data.shape[0]
    flat = ad.reshape(e_h, (B, lay.n_clusters * lay.hidden))
    return ad.relu(_linear(flat, params, "latent"))


def value(z: Tensor, params: PolicyParams) -> Tensor:
    """Centralized state-value estimate shared by all four operators, (B,)."""
    hid = ad.relu(_linear(z, params, "value.fc1"))
    out = _linear(hid, params, "value.fc2")
    return ad.reshape(out, (out.data.shape[0],))


def _head_logits(z_cond: Tensor, params: PolicyParams, i: int) -> Tensor:
    hid = ad.relu(_linear(z_cond, params, f"head{i}.fc1"))
    return _linear(hid, params, f"head{i}.fc2")


def _one_hot(idx: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((len(idx), n), dtype=bool)
    out[np.arange(len(idx)), idx] = True
    return out


def _head_chain(
    z: Tensor, batch: NodeBatch, params: PolicyParams, choose
) -> list[tuple[Tensor, Tensor, np.ndarray]]:
    """The four sequential heads, op1 to op4.

    Heads op1/op3 are masked to the sources of ``batch.head_masks``;
    op2/op4 are unmasked. ``choose(i, probs)`` gives head i's choice per
    row, and each later head sees the earlier choices as one-hot
    conditioning. Returns each head's (log-probabilities, probabilities,
    choices).
    """
    cluster_mask, target_mask = batch.head_masks()
    assert cluster_mask.any(axis=1).all() and target_mask.any(axis=1).all(), \
        "graph with agents cannot fully mask a head"
    n_k, n_t = params.layout.n_clusters, params.layout.n_targets
    heads = ((cluster_mask, n_k), (None, n_k), (target_mask, n_t), (None, n_t))
    cond = z
    dists = []
    for i, (mask, size) in enumerate(heads):
        logits = _head_logits(cond, params, i + 1)
        if mask is not None:
            logits = ad.add(logits, params.constant((1.0 - mask) * ad.MASK_FILL))
        logp_all = ad.log_softmax(logits, axis=-1)
        p_all = ad.softmax(logits, axis=-1)
        chosen = choose(i, p_all.data)
        dists.append((logp_all, p_all, chosen))
        cond = ad.concat([cond, params.constant(_one_hot(chosen, size))], axis=-1)
    return dists


def act_batch(
    batch: NodeBatch,
    folded: FoldedParams,
    rngs: list[np.random.Generator | None],
    mode: Literal["sample", "argmax"] = "sample",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick an operator action for each of a batch of independent episode
    steps, with the head chain of ``evaluate_actions`` run off the tape, on
    weights folded once for the whole rollout (``fold`` under ``no_grad``).

    In sample mode row i draws its samples from rngs[i] (one uniform per
    head, in head order), so per-episode streams stay reproducible no
    matter how episodes are batched together; argmax mode draws nothing.
    Returns (actions (B, 4), log_probs (B, 4), values (B,)), the last two
    in the parameters' dtype.
    """
    B = batch.obs.shape[0]

    def choose(i: int, probs: np.ndarray) -> np.ndarray:
        if mode == "argmax":
            return np.argmax(probs, axis=1)
        # the left insertion point of each row's uniform in its cumulative
        # probabilities, compared in float64 as searchsorted compares them
        u = np.array([rng.random() for rng in rngs])
        cums = np.cumsum(probs, axis=1)
        return np.minimum((cums < u[:, None]).sum(axis=1), probs.shape[1] - 1)

    params = folded.params
    with ad.no_grad():
        z = latent(encode(batch, folded), params)
        values = value(z, params).data.copy()
        dists = _head_chain(z, batch, params, choose)
    actions = np.stack([chosen for _, _, chosen in dists], axis=1)
    log_probs = np.stack([logp.data[np.arange(B), chosen] for logp, _, chosen in dists], axis=1)
    return actions, log_probs, values


def reconstruct(
    e_h: Tensor, batch: NodeBatch, folded: FoldedParams
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Decode e_h back toward the raw node representations.

    Returns (agent_hat, cluster_hat, target_hat, L_ae) where L_ae is the mean
    of the three per-family mean-squared errors. With an extension present
    the agent-family reconstruction target is each group's mean observation,
    so the decoder keeps a fixed query table across transfers.
    """
    params = folded.params
    lay = params.layout
    f = folded.tensors
    B = e_h.data.shape[0]
    scale = 1.0 / np.sqrt(lay.hidden)

    def decode(name: str) -> Tensor:
        values = ad.linear(e_h, f[f"{name}.V.W"], f[f"{name}.V.b"])  # (B, n_k, d_out)
        return ad.scaled_dot_attention(f[f"{name}.Q"], e_h, values, scale)

    agent_target = batch.obs
    if lay.fan_out > 1:
        agent_target = batch.obs.reshape(B, lay.n_lower, lay.fan_out, lay.d_obs).mean(axis=2)
    cluster_target = np.broadcast_to(np.eye(lay.n_clusters), (B, lay.n_clusters, lay.n_clusters))

    agent_hat, cluster_hat, target_hat = (decode(name) for name in DECODERS)
    mse_a = ad.mean(ad.square(ad.sub(agent_hat, params.constant(agent_target))))
    mse_c = ad.mean(ad.square(ad.sub(cluster_hat, params.constant(cluster_target))))
    mse_t = ad.mean(ad.square(ad.sub(target_hat, params.constant(batch.target_reps))))
    l_ae = ad.mul(ad.add(ad.add(mse_a, mse_c), mse_t), params.constant(1.0 / 3.0))
    return agent_hat, cluster_hat, target_hat, l_ae


def evaluate_actions(
    batch: NodeBatch,
    actions: np.ndarray,
    params: PolicyParams,
) -> dict[str, Tensor]:
    """Differentiable re-evaluation of stored decisions for the PPO update.

    Returns log_prob (B, 4), entropy (B, 4), value (B,) and the scalar
    reconstruction loss, all on the tape. The weights are folded on the
    tape, so gradients reach the parameters they were folded from.
    """
    B = batch.obs.shape[0]
    folded = fold(params)
    e_h = encode(batch, folded)
    z = latent(e_h, params)
    v = value(z, params)
    _, _, _, l_ae = reconstruct(e_h, batch, folded)
    dists = _head_chain(z, batch, params, lambda i, probs: actions[:, i])
    logps = [ad.reshape(ad.take_per_row(logp_all, chosen), (B, 1)) for logp_all, _, chosen in dists]
    ents = [
        ad.mul(ad.sum_(ad.mul(p_all, logp_all), axis=-1, keepdims=True), params.constant(-1.0))
        for logp_all, p_all, _ in dists
    ]
    return {
        "log_prob": ad.concat(logps, axis=-1),
        "entropy": ad.concat(ents, axis=-1),
        "value": v,
        "l_ae": l_ae,
    }
