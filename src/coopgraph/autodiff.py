"""Minimal reverse-mode autodiff on dense float32 or float64 numpy arrays.

Every value is a :class:`Tensor` wrapping a ``float32`` or ``float64``
ndarray, kept in the dtype it came in (anything else becomes ``float64``).
A tape follows its data's dtype: a gradient reaching a node takes that
node's dtype, so a float32 tape stays in float32 GEMMs end to end and a
float64 tape in float64 ones. Ops record their inputs on an implicit tape
(the parent links of each output tensor); ``backward(loss)`` walks the
graph in reverse topological order and accumulates gradients into
``.grad``. Shapes follow numpy broadcasting; gradients of broadcast
operands are summed back to the operand shape.

Only leaf gradients survive ``backward``: an interior node's ``.grad`` is
dropped as soon as its own backward has used it, so a spent gradient is
freed while the rest of the pass runs. A caller that keeps no reference
to a loss frees its whole tape with it; the PPO update keeps one tape
alive per minibatch.

Non-finite values are caught by one rule. An op whose output goes on no
tape (under ``no_grad``, or with only constant inputs) checks that output
and raises :class:`NonFiniteError` naming itself. An op on the tape checks
nothing: ``backward(loss)`` checks the loss once and, if it is non-finite,
names the first op of the tape, in post-order, whose output is non-finite,
and its output shape. So a taped forward pays one scalar check per
backward, not one scan per op.

The engine is deliberately small: only the ops the policy network and the
PPO learner need, batched over a leading axis where it matters. Reduction
order is fixed, so identical inputs give bit-identical outputs.

A dense layer (``linear``: one folded GEMM plus the bias) and a whole
attention (``scaled_dot_attention``, with a hand-written backward) are one
tape node each. ``linear``'s backward repeats, step by step, the arithmetic
of the matmul/add chain it replaces, so its gradients keep the chain's bits.
Attention does not repeat a chain's bits: it takes one shared query table
against batched keys and computes the scores of every episode as one GEMM
over the key rows, and its query and key gradients as one GEMM each. No op
computes a gradient for a constant operand (no ``requires_grad`` and no
parents): such a gradient could reach no parameter.

The backward of a matmul or ``linear`` has two independent GEMMs (input
and weight gradient), an attention's two such pairs (the weights' and the
values' gradient, then the queries' and the keys'). When a pair
has more than ``_HANDOFF_MACS`` multiply-adds and more than one core is
usable, one GEMM runs on a single worker thread, started on the first such
backward, while the other runs on the calling thread; numpy releases the
interpreter lock inside BLAS. Each GEMM is computed by the same BLAS call
either way, and every accumulation into ``.grad`` stays on the calling
thread in the same order, so the thread changes no bit.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

_GRAD_ENABLED = True

MASK_FILL = -1e9

# Gate of the backward's two-GEMM handoff, in multiply-adds of the pair. One
# handoff costs about 60 us. On a 2-core Xeon with one BLAS thread, the
# (rows, 64) x (64, 64) pair of a linear backward took, handed off against
# serial: 125 vs 102 us at 1.6 M MACs, 114 vs 155 us at 2.1 M, 218 vs 310 us
# at 4.2 M and 1.6 vs 3.0 ms at 34 M.
_HANDOFF_MACS = 2_000_000
_worker: ThreadPoolExecutor | None = None


def _forget_worker() -> None:
    # a forked child has no copy of the worker thread; it starts its own
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):  # no fork, no hook on Windows
    os.register_at_fork(after_in_child=_forget_worker)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux: the cores this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class NonFiniteError(FloatingPointError):
    """An op produced nan/inf, or a gradient is nan/inf; the message names
    the op or the parameters."""


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A float32 or float64 ndarray plus the tape links needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_owned", "_op")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._grad_owned = False
        self._op: str | None = None  # the op that put this tensor on the tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def _live(t: Tensor) -> bool:
    """Whether a gradient of t can reach a parameter; a constant's cannot."""
    return t.requires_grad or bool(t._parents)


def _needs_graph(parents: Iterable[Tensor]) -> bool:
    if not _GRAD_ENABLED:
        return False
    return any(_live(p) for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], bwd, op: str) -> Tensor:
    out = Tensor(data)
    if _needs_graph(parents):
        # checked by backward, once, through the loss
        out._parents = parents
        out._backward = bwd
        out._op = op
    elif not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")
    return out


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g into t.grad.

    ``fresh`` promises g is a newly allocated array no other node aliases,
    letting the first accumulation adopt it without a copy; shared arrays
    are copied lazily on the first in-place addition. A None g (a gradient
    nobody needed) adds nothing. A gradient takes the dtype of the node it
    reaches.
    """
    if g is None:
        return
    if not isinstance(g, np.ndarray) or g.dtype != t.data.dtype:
        g = np.asarray(g, dtype=t.data.dtype)
        fresh = True
    if t.grad is None:
        t.grad = g
        t._grad_owned = fresh
    elif t._grad_owned:
        t.grad += g
    else:
        t.grad = t.grad + g
        t._grad_owned = True


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op.

    The leading axes fold into rows that one gemv of a ones row sums. On a
    2-core Xeon with one BLAS thread, a (24846, 64) float32 gradient took
    0.32 ms against 0.97 ms for ``sum(axis=0)``, and a (49692, 64) one
    0.68 against 2.34 ms.
    """
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        rows = g.reshape(-1, math.prod(g.shape[extra:]))
        g = (np.ones(rows.shape[0], dtype=g.dtype) @ rows).reshape(g.shape[extra:])
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _gemm_pair(first, second, macs: int):
    """(first(), second()) for two independent GEMM thunks; None stands for
    a gradient nobody needs and gives None.

    A pair of more than ``_HANDOFF_MACS`` multiply-adds, with more than one
    core usable, runs ``first`` on the backward worker while ``second``
    runs on this thread.
    """
    global _worker
    if first is None or second is None:
        return (first() if first else None), (second() if second else None)
    if macs <= _HANDOFF_MACS or _usable_cores() < 2:
        return first(), second()
    if _worker is None:
        # imported here, so importing the engine stays as fast as before
        from concurrent.futures import ThreadPoolExecutor

        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="autodiff-backward")
    pending = _worker.submit(first)
    try:
        other = second()
    finally:
        done = pending.result()
    return done, other


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        if _live(a):
            ga = _unbroadcast(g, a.data.shape)
            _accumulate(a, ga, fresh=ga is not g)
        if _live(b):
            gb = _unbroadcast(g, b.data.shape)
            _accumulate(b, gb, fresh=gb is not g)

    return _make(data, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def bwd(g):
        if _live(a):
            ga = _unbroadcast(g, a.data.shape)
            _accumulate(a, ga, fresh=ga is not g)
        if _live(b):
            _accumulate(b, _unbroadcast(-g, b.data.shape), fresh=True)

    return _make(data, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        if _live(a):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape), fresh=True)
        if _live(b):
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape), fresh=True)

    return _make(data, (a, b), bwd, "mul")


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def bwd(g):
        _accumulate(a, g * (a.data > 0.0), fresh=True)

    return _make(data, (a,), bwd, "relu")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def bwd(g):
        _accumulate(a, g * data, fresh=True)

    return _make(data, (a,), bwd, "exp")


def square(a: Tensor) -> Tensor:
    data = a.data * a.data

    def bwd(g):
        _accumulate(a, g * 2.0 * a.data, fresh=True)

    return _make(data, (a,), bwd, "square")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    data = np.maximum(a.data, b.data)

    def bwd(g):
        pick_a = a.data >= b.data
        if _live(a):
            _accumulate(a, _unbroadcast(g * pick_a, a.data.shape), fresh=True)
        if _live(b):
            _accumulate(b, _unbroadcast(g * ~pick_a, b.data.shape), fresh=True)

    return _make(data, (a, b), bwd, "maximum")


def minimum(a: Tensor, b: Tensor) -> Tensor:
    data = np.minimum(a.data, b.data)

    def bwd(g):
        pick_a = a.data <= b.data
        if _live(a):
            _accumulate(a, _unbroadcast(g * pick_a, a.data.shape), fresh=True)
        if _live(b):
            _accumulate(b, _unbroadcast(g * ~pick_a, b.data.shape), fresh=True)

    return _make(data, (a, b), bwd, "minimum")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(a.data, lo, hi)

    def bwd(g):
        _accumulate(a, g * ((a.data >= lo) & (a.data <= hi)), fresh=True)

    return _make(data, (a,), bwd, "clip")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(data, (a,), bwd, "reshape")


def transpose(a: Tensor) -> Tensor:
    """The transpose of a 2-d tensor."""

    def bwd(g):
        _accumulate(a, g.T)

    return _make(a.data.T, (a,), bwd, "transpose")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if _live(t):
                _accumulate(t, piece)

    return _make(data, tensors, bwd, "concat")


def take_per_row(a: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = a[i, idx[i]] for a 2-d tensor; returns shape (n,)."""
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(a.data.shape[0])
    data = a.data[rows, idx]

    def bwd(g):
        acc = np.zeros_like(a.data)
        acc[rows, idx] = g
        _accumulate(a, acc, fresh=True)

    return _make(data, (a,), bwd, "take_per_row")


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy(), fresh=True)
            return
        gg = g if keepdims else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, a.data.shape).copy(), fresh=True)

    return _make(data, (a,), bwd, "sum")


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), Tensor(np.asarray(1.0 / count, dtype=a.data.dtype)))


# ---------------------------------------------------------------------------
# matmul with fast paths for weight-shared batches
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == 3 and bd.ndim == 2:
        # fold the batch into one GEMM: (B, n, k) @ (k, m)
        B, n, k = ad.shape
        data = (ad.reshape(B * n, k) @ bd).reshape(B, n, bd.shape[1])

        def bwd(g):
            g2 = g.reshape(B * n, bd.shape[1])
            ga, gb = _gemm_pair(
                (lambda: (g2 @ bd.T).reshape(ad.shape)) if _live(a) else None,
                (lambda: ad.reshape(B * n, k).T @ g2) if _live(b) else None,
                2 * g2.size * k,
            )
            _accumulate(a, ga, fresh=True)
            _accumulate(b, gb, fresh=True)

        return _make(data, (a, b), bwd, "matmul")

    data = np.matmul(ad, bd)

    def bwd(g):
        ga, gb = _gemm_pair(
            (lambda: np.matmul(g, np.swapaxes(bd, -1, -2))) if _live(a) else None,
            (lambda: np.matmul(np.swapaxes(ad, -1, -2), g)) if _live(b) else None,
            2 * g.size * ad.shape[-1],
        )
        if ga is not None:
            _accumulate(a, _unbroadcast_matmul(ga, ad.shape), fresh=True)
        if gb is not None:
            _accumulate(b, _unbroadcast_matmul(gb, bd.shape), fresh=True)

    return _make(data, (a, b), bwd, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a (..., k) input, a (k, m) weight and an (m,) bias, as
    one node.

    The leading axes of x fold into one GEMM, and the bias gradient is the
    gemv ``add``'s reduction makes of the folded incoming gradient, so the
    result keeps the bits of ``add(matmul(x, w), b)``.
    """
    xd, wd = x.data, w.data
    rows = xd.reshape(-1, xd.shape[-1])
    data = rows @ wd
    data += b.data
    data = data.reshape(xd.shape[:-1] + wd.shape[1:])

    def bwd(g):
        g2 = g.reshape(rows.shape[0], wd.shape[1])
        gx, gw = _gemm_pair(
            (lambda: (g2 @ wd.T).reshape(xd.shape)) if _live(x) else None,
            (lambda: rows.T @ g2) if _live(w) else None,
            2 * g2.size * wd.shape[0],
        )
        _accumulate(x, gx, fresh=True)
        _accumulate(w, gw, fresh=True)
        if _live(b):
            _accumulate(b, _unbroadcast(g2, b.data.shape), fresh=True)

    return _make(data, (x, w, b), bwd, "linear")


def _unbroadcast_matmul(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i in range(len(shape) - 2) if shape[i] == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# row-wise normalizations and attention
# ---------------------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (g - dot), fresh=True)

    return _make(data, (a,), bwd, "softmax")


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def bwd(g):
        soft = np.exp(data)
        _accumulate(a, g - soft * g.sum(axis=axis, keepdims=True), fresh=True)

    return _make(data, (a,), bwd, "log_softmax")


def scaled_dot_attention(
    q: Tensor, k: Tensor, v: Tensor, scale: float, key_mask: np.ndarray | None = None
) -> Tensor:
    """softmax(q k^T * scale) v for one (n_q, d) query table shared by every
    episode, keys (..., n_k, d) and values (..., n_k, d_v) with the same
    leading axes; returns (..., n_q, d_v). The scale is the caller's: a
    folded attention keeps the scale of the width it was folded from.

    ``key_mask`` is a 0/1 (or bool) array broadcastable to (..., n_q, n_k);
    1 marks a selectable key, and a masked key's score is pushed to -1e9
    before the softmax. Query rows whose keys are all masked produce zero
    output rows.

    One node. The scores are one GEMM over every episode's key rows, kept
    key-major, (..., n_k, n_q), so the softmax runs over axis -2; in the
    backward the query and key gradients are one GEMM each.
    """
    qd, kd, vd = q.data, k.data, v.data
    n_q, d = qd.shape
    k_rows = kd.reshape(-1, d)
    scores = (k_rows @ qd.T).reshape(kd.shape[:-1] + (n_q,))
    scores *= scale
    live = None
    if key_mask is not None:
        m = np.swapaxes(np.asarray(key_mask, dtype=scores.dtype), -1, -2)
        scores = scores + (1.0 - m) * MASK_FILL
        live = np.swapaxes(np.broadcast_to(m, scores.shape).max(axis=-2, keepdims=True), -1, -2)
    e = np.exp(scores - scores.max(axis=-2, keepdims=True))
    weights = e / e.sum(axis=-2, keepdims=True)  # (..., n_k, n_q)
    data = np.matmul(np.swapaxes(weights, -1, -2), vd)
    if live is not None:
        data *= live

    def bwd(g):
        if live is not None:
            g = g * live
        gw, gv = _gemm_pair(
            (lambda: np.matmul(vd, np.swapaxes(g, -1, -2))) if _live(q) or _live(k) else None,
            (lambda: np.matmul(weights, g)) if _live(v) else None,
            2 * g.size * weights.shape[-2],
        )
        _accumulate(v, gv, fresh=True)
        if gw is None:
            return
        gs = weights * (gw - (gw * weights).sum(axis=-2, keepdims=True))
        gs *= scale
        gs_rows = gs.reshape(-1, n_q)
        gq, gk = _gemm_pair(
            (lambda: gs_rows.T @ k_rows) if _live(q) else None,
            (lambda: (gs_rows @ qd).reshape(kd.shape)) if _live(k) else None,
            2 * gs.size * d,
        )
        _accumulate(q, gq, fresh=True)
        _accumulate(k, gk, fresh=True)

    return _make(data, (q, k, v), bwd, "scaled_dot_attention")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the recorded graph.

    Leaves (tensors with no parents) keep their accumulated ``.grad``; every
    interior node, the loss included, ends with ``.grad`` None.

    A non-finite loss raises NonFiniteError before any gradient is computed,
    naming the first op of the post-order whose output is non-finite: every
    op feeding it produced finite values, so the fault is that op's or in
    one of its leaves (a parameter or constant).
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    if not np.isfinite(loss.data).all():
        for node in order:
            if node._op is not None and not np.isfinite(node.data).all():
                raise NonFiniteError(
                    f"non-finite values produced by op '{node._op}' (output shape {node.data.shape})"
                )
        raise NonFiniteError("non-finite loss")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            # every consumer of an interior node ran before it, so its
            # gradient is spent: drop it, leaving only leaf gradients
            node.grad = None


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    A non-finite norm raises NonFiniteError, naming each parameter whose
    gradient norm is non-finite, and leaves every gradient as it was.
    """
    params = {k: p for k, p in params.items() if p.grad is not None}
    squares = {k: float((p.grad * p.grad).sum()) for k, p in params.items()}
    total = math.sqrt(sum(squares.values()))
    if not math.isfinite(total):
        bad = [k for k, sq in squares.items() if not math.isfinite(sq)]
        raise NonFiniteError(f"non-finite gradient norm of {', '.join(bad)}")
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params.values():
            if p._grad_owned:
                p.grad *= scale
            else:
                p.grad = p.grad * scale
                p._grad_owned = True
    return total


class Adam:
    """Adam with bias correction over a named parameter dict; the moments
    are kept in each parameter's dtype."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

