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

After a curriculum extension, each bottom-layer node stands for a fixed
group of agents; a small merge-attention block (added by surgery, everything
else inherited bit-exact) compresses the group's observation embeddings
into one row before the cluster attention.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .commands import COMMAND_REPR_WIDTH, command_rows
from .env import EnvConfig, EnvState, obs_dim, observe_all, stack_states
from .graph import CooperationGraph, stack_graphs

CHECKPOINT_MAGIC = b"CGCK"
CHECKPOINT_VERSION = 1
# the cluster->target query/key projections, retired when that edge became a
# gather; checkpoints written before still hold them, and loading drops them
RETIRED_TENSORS = frozenset({"ct.Wq", "ct.Wk", "ct.bq", "ct.bk"})


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

    @property
    def has_merge(self) -> bool:
        return "merge.q" in self.tensors

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            layout=self.layout,
            tensors={k: Tensor(t.data.copy(), requires_grad=t.requires_grad) for k, t in self.tensors.items()},
            normalizer=ObsNormalizer.from_state(self.normalizer.state_dict()),
        )

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None


def _init_linear(tensors, rng, name, fan_in, fan_out, w_scale=None):
    scale = (1.0 / np.sqrt(fan_in)) if w_scale is None else w_scale
    tensors[f"{name}.W"] = Tensor(rng.normal(0.0, scale, size=(fan_in, fan_out)), requires_grad=True)
    tensors[f"{name}.b"] = Tensor(np.zeros(fan_out), requires_grad=True)


def _init_attention(tensors, rng, name, h):
    for part in ("Wq", "Wk", "Wv"):
        tensors[f"{name}.{part}"] = Tensor(rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h)), requires_grad=True)
    for part in ("bq", "bk", "bv"):
        tensors[f"{name}.{part}"] = Tensor(np.zeros(h), requires_grad=True)


def _init_merge(tensors, rng, h):
    tensors["merge.q"] = Tensor(rng.normal(0.0, 1.0 / np.sqrt(h), size=(1, h)), requires_grad=True)
    tensors["merge.Wk"] = Tensor(rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h)), requires_grad=True)
    tensors["merge.bk"] = Tensor(np.zeros(h), requires_grad=True)


def _init_decoder(tensors, rng, name, n_queries, h, d_out):
    tensors[f"{name}.Q"] = Tensor(rng.normal(0.0, 1.0 / np.sqrt(h), size=(n_queries, h)), requires_grad=True)
    for part in ("Wk", "Wv"):
        tensors[f"{name}.{part}"] = Tensor(rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h)), requires_grad=True)
    for part in ("bk", "bv"):
        tensors[f"{name}.{part}"] = Tensor(np.zeros(h), requires_grad=True)
    _init_linear(tensors, rng, f"{name}.out", h, d_out)


def init_params(layout: PolicyLayout, rng: np.random.Generator) -> PolicyParams:
    """Fresh parameters; head output layers start small so the initial
    operator policy is near uniform."""
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
    tensors["ct.Wv"] = Tensor(rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h)), requires_grad=True)
    tensors["ct.bv"] = Tensor(np.zeros(h), requires_grad=True)
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
    """
    if params.has_merge or params.layout.fan_out != 1:
        raise ValueError("params already carry a merge block")
    if fan_out < 1:
        raise ValueError("fan_out must be >= 1")
    new = params.copy()
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
    row.
    """

    obs: np.ndarray                # (B, n_env, d_obs)
    target_reps: np.ndarray        # (B, n_targets, d_raw)
    agent_to_cluster: np.ndarray   # (B, n_lower)
    cluster_to_target: np.ndarray  # (B, n_clusters)


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
    """NodeBatch of one step (B = 1) for the current graph and simulator
    state, or of a lockstep step of B episodes for a ``stack_graphs`` and a
    ``stack_states`` stack."""
    if graph.agent_to_cluster.ndim == 1:
        graph, state = stack_graphs([graph]), stack_states([state])
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
    return ad.add(ad.matmul(x, params.tensors[f"{name}.W"]), params.tensors[f"{name}.b"])


def _attend(params: PolicyParams, name: str, q_in: Tensor, kv_in: Tensor, mask) -> Tensor:
    p = params.tensors
    q = ad.add(ad.matmul(q_in, p[f"{name}.Wq"]), p[f"{name}.bq"])
    k = ad.add(ad.matmul(kv_in, p[f"{name}.Wk"]), p[f"{name}.bk"])
    v = ad.add(ad.matmul(kv_in, p[f"{name}.Wv"]), p[f"{name}.bv"])
    return ad.scaled_dot_attention(q, k, v, key_mask=mask)


def encode(batch: NodeBatch, params: PolicyParams) -> Tensor:
    """Per-cluster embeddings e_h, shape (B, n_clusters, hidden).

    Raises NonFiniteError naming the first layer that produces a non-finite
    intermediate (via the op-level checks in the autodiff engine).
    """
    lay = params.layout
    p = params.tensors
    B = batch.obs.shape[0]
    # 0/1 mask (B, n_k, n_lower): cluster k attends over its member agents
    member_mask = (
        batch.agent_to_cluster[:, None, :] == np.arange(lay.n_clusters)[None, :, None]
    ).astype(np.float64)

    obs_n = params.normalizer.normalize(batch.obs)
    agents = _linear(Tensor(obs_n), params, "proj.agent")  # (B, n_env, h)
    if lay.fan_out > 1 and not params.has_merge:
        raise ValueError("extended inputs need a merge block; run surgery first")
    if params.has_merge:
        grouped = ad.reshape(agents, (B * lay.n_lower, lay.fan_out, lay.hidden))
        keys = ad.add(ad.matmul(grouped, p["merge.Wk"]), p["merge.bk"])
        merged = ad.scaled_dot_attention(p["merge.q"], keys, grouped)
        agents = ad.reshape(merged, (B, lay.n_lower, lay.hidden))

    clusters = ad.add(p["proj.cluster.W"], p["proj.cluster.b"])  # (n_k, h)
    targets = _linear(Tensor(batch.target_reps), params, "proj.target")  # (B, n_t, h)

    h_ac = _attend(params, "ac", clusters, agents, member_mask)  # (B, n_k, h)
    # a cluster has exactly one target edge, so attention over it is
    # one-hot: take the selected target's value row. Project all n_t rows
    # before the gather: projecting only the selected rows would change the
    # gradient's summation order, and so the bits of existing seeds' runs.
    v = ad.add(ad.matmul(targets, p["ct.Wv"]), p["ct.bv"])  # (B, n_t, h)
    rows = (np.arange(B)[:, None] * lay.n_targets + batch.cluster_to_target).reshape(-1)
    picked = ad.gather_rows(ad.reshape(v, (B * lay.n_targets, lay.hidden)), rows)
    h_ct = ad.reshape(picked, (B, lay.n_clusters, lay.hidden))
    mixed = ad.concat([h_ac, h_ct], axis=-1)
    return ad.relu(_linear(mixed, params, "trunk"))


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


def _masked(logits: Tensor, mask: np.ndarray | None) -> Tensor:
    if mask is None:
        return logits
    return ad.add(logits, Tensor((1.0 - mask) * ad.MASK_FILL))


def _one_hot(idx: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((len(idx), n), dtype=np.float64)
    out[np.arange(len(idx)), idx] = 1.0
    return out


def _heads(
    layout: PolicyLayout, cluster_masks: np.ndarray, target_masks: np.ndarray
) -> tuple[tuple[np.ndarray | None, int], ...]:
    """(logit mask or None, choice count) of each head, in head order."""
    n_k, n_t = layout.n_clusters, layout.n_targets
    return (
        (cluster_masks.astype(np.float64), n_k),
        (None, n_k),
        (target_masks.astype(np.float64), n_t),
        (None, n_t),
    )


def act_batch(
    batch: NodeBatch,
    cluster_masks: np.ndarray,
    target_masks: np.ndarray,
    params: PolicyParams,
    rngs: list[np.random.Generator | None],
    mode: Literal["sample", "argmax"] = "sample",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the sequential masked heads for a batch of independent episode steps.

    Heads op1/op3 are masked to nonempty sources; op2/op4 are unmasked.
    Each later head sees the earlier choices as one-hot conditioning. In
    sample mode row i draws its samples from rngs[i] (one uniform per head,
    in head order), so per-episode streams stay reproducible no matter how
    episodes are batched together; argmax mode draws nothing. Returns
    (actions (B, 4), log_probs (B, 4), values (B,)).
    """
    B = batch.obs.shape[0]
    assert cluster_masks.any(axis=1).all() and target_masks.any(axis=1).all(), \
        "graph with agents cannot fully mask a head"
    actions = np.empty((B, 4), dtype=np.int64)
    log_probs = np.empty((B, 4))

    with ad.no_grad():
        z = latent(encode(batch, params), params)
        values = value(z, params).data.copy()
        cond = z
        for i, (mask, size) in enumerate(_heads(params.layout, cluster_masks, target_masks)):
            logits = _masked(_head_logits(cond, params, i + 1), mask).data
            shifted = logits - logits.max(axis=1, keepdims=True)
            expo = np.exp(shifted)
            probs = expo / expo.sum(axis=1, keepdims=True)
            logp = shifted - np.log(expo.sum(axis=1, keepdims=True))
            if mode == "argmax":
                chosen = np.argmax(probs, axis=1)
            else:
                cums = np.cumsum(probs, axis=1)
                chosen = np.empty(B, dtype=np.int64)
                for b in range(B):
                    chosen[b] = min(
                        int(np.searchsorted(cums[b], rngs[b].random())), size - 1
                    )
            actions[:, i] = chosen
            log_probs[:, i] = logp[np.arange(B), chosen]
            cond = ad.concat([cond, Tensor(_one_hot(chosen, size))], axis=-1)
    return actions, log_probs, values


def reconstruct(
    e_h: Tensor, batch: NodeBatch, params: PolicyParams
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Decode e_h back toward the raw node representations.

    Returns (agent_hat, cluster_hat, target_hat, L_ae) where L_ae is the mean
    of the three per-family mean-squared errors. With an extension present
    the agent-family reconstruction target is each group's mean observation,
    so the decoder keeps a fixed query table across transfers.
    """
    lay = params.layout
    B = e_h.data.shape[0]

    def decode(name: str) -> Tensor:
        p = params.tensors
        k = ad.add(ad.matmul(e_h, p[f"{name}.Wk"]), p[f"{name}.bk"])
        v_ = ad.add(ad.matmul(e_h, p[f"{name}.Wv"]), p[f"{name}.bv"])
        mixed = ad.scaled_dot_attention(p[f"{name}.Q"], k, v_)
        return _linear(mixed, params, f"{name}.out")

    agent_target = batch.obs
    if lay.fan_out > 1:
        agent_target = batch.obs.reshape(B, lay.n_lower, lay.fan_out, lay.d_obs).mean(axis=2)
    cluster_target = np.broadcast_to(np.eye(lay.n_clusters), (B, lay.n_clusters, lay.n_clusters))

    agent_hat = decode("ae_a")
    cluster_hat = decode("ae_c")
    target_hat = decode("ae_t")
    mse_a = ad.mean(ad.square(ad.sub(agent_hat, Tensor(agent_target))))
    mse_c = ad.mean(ad.square(ad.sub(cluster_hat, Tensor(cluster_target))))
    mse_t = ad.mean(ad.square(ad.sub(target_hat, Tensor(batch.target_reps))))
    l_ae = ad.mul(ad.add(ad.add(mse_a, mse_c), mse_t), Tensor(1.0 / 3.0))
    return agent_hat, cluster_hat, target_hat, l_ae


def evaluate_actions(
    batch: NodeBatch,
    actions: np.ndarray,
    cluster_masks: np.ndarray,
    target_masks: np.ndarray,
    params: PolicyParams,
) -> dict[str, Tensor]:
    """Differentiable re-evaluation of stored decisions for the PPO update.

    Returns log_prob (B, 4), entropy (B, 4), value (B,) and the scalar
    reconstruction loss, all on the tape.
    """
    B = batch.obs.shape[0]
    e_h = encode(batch, params)
    z = latent(e_h, params)
    v = value(z, params)
    _, _, _, l_ae = reconstruct(e_h, batch, params)

    cond = z
    logps: list[Tensor] = []
    ents: list[Tensor] = []
    for i, (mask, size) in enumerate(_heads(params.layout, cluster_masks, target_masks)):
        logits = _masked(_head_logits(cond, params, i + 1), mask)
        logp_all = ad.log_softmax(logits, axis=-1)
        p_all = ad.softmax(logits, axis=-1)
        logps.append(ad.reshape(ad.take_per_row(logp_all, actions[:, i]), (B, 1)))
        ent = ad.mul(ad.sum_(ad.mul(p_all, logp_all), axis=-1, keepdims=True), Tensor(-1.0))
        ents.append(ent)
        cond = ad.concat([cond, Tensor(_one_hot(actions[:, i], size))], axis=-1)

    return {
        "log_prob": ad.concat(logps, axis=-1),
        "entropy": ad.concat(ents, axis=-1),
        "value": v,
        "l_ae": l_ae,
    }


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    params: PolicyParams,
    extra_tensors: dict[str, np.ndarray] | None = None,
    extra_header: dict | None = None,
) -> None:
    """Binary checkpoint: magic, header length, JSON header, float64 blob.

    The header carries the layout, normalizer statistics and a manifest of
    (name, shape, byte offset) entries; the blob is the little-endian
    float64 tensor data in manifest order.
    """
    manifest = []
    blobs = []
    offset = 0
    entries: list[tuple[str, np.ndarray]] = [(k, t.data) for k, t in sorted(params.tensors.items())]
    for name, arr in sorted((extra_tensors or {}).items()):
        entries.append((f"extra.{name}", np.asarray(arr, dtype=np.float64)))
    for name, arr in entries:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "layout": asdict(params.layout),
        "normalizer": params.normalizer.state_dict(),
        "manifest": manifest,
    }
    if extra_header:
        header.update(extra_header)
    head_bytes = json.dumps(header).encode("utf-8")
    # written beside the target and renamed over it, so a reader never sees
    # a partial file
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<Q", len(head_bytes)))
            f.write(head_bytes)
            for raw in blobs:
                f.write(raw)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, dict[str, np.ndarray], dict]:
    """Inverse of save_checkpoint: (params, extra tensors, full header).

    Rejects a foreign file, another format version and a truncated file;
    drops the retired tensors of older checkpoints.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a policy checkpoint")
        length = f.read(8)
        if len(length) < 8:
            raise ValueError(f"{path}: header truncated (no header length)")
        (head_len,) = struct.unpack("<Q", length)
        head_bytes = f.read(head_len)
        if len(head_bytes) < head_len:
            raise ValueError(f"{path}: header truncated ({len(head_bytes)} of {head_len} bytes)")
        header = json.loads(head_bytes.decode("utf-8"))
        blob = f.read()
    version = header.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint format version {version!r}, expected {CHECKPOINT_VERSION}")
    counts = [int(np.prod(entry["shape"])) for entry in header["manifest"]]
    needed = max((e["offset"] + 8 * n for e, n in zip(header["manifest"], counts)), default=0)
    if len(blob) < needed:
        raise ValueError(f"{path}: tensor data truncated ({len(blob)} of {needed} bytes)")
    layout = PolicyLayout(**header["layout"])
    tensors: dict[str, Tensor] = {}
    extra: dict[str, np.ndarray] = {}
    for entry, count in zip(header["manifest"], counts):
        arr = np.frombuffer(
            blob, dtype="<f8", count=count, offset=entry["offset"]
        ).reshape(entry["shape"]).astype(np.float64)
        if entry["name"].startswith("extra."):
            extra[entry["name"][len("extra."):]] = arr
        elif entry["name"] not in RETIRED_TENSORS:
            tensors[entry["name"]] = Tensor(arr, requires_grad=True)
    params = PolicyParams(
        layout=layout,
        tensors=tensors,
        normalizer=ObsNormalizer.from_state(header["normalizer"]),
    )
    return params, extra, header
