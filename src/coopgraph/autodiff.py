"""Minimal reverse-mode autodiff on dense float64 numpy arrays.

Every value is a :class:`Tensor` wrapping a ``float64`` ndarray. Ops record
their inputs on an implicit tape (the parent links of each output tensor);
``backward(loss)`` walks the graph in reverse topological order and
accumulates gradients into ``.grad``. Shapes follow numpy broadcasting;
gradients of broadcast operands are summed back to the operand shape.

The engine is deliberately small: only the ops the policy network and the
PPO learner need, batched over a leading axis where it matters. Reduction
order is fixed, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True
_FINITE_CHECKS = True

MASK_FILL = -1e9


class NonFiniteError(FloatingPointError):
    """A forward op produced nan/inf; the message names the op."""


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


def set_finite_checks(enabled: bool) -> bool:
    """Toggle per-op finiteness validation; returns the previous setting."""
    global _FINITE_CHECKS
    prev = _FINITE_CHECKS
    _FINITE_CHECKS = enabled
    return prev


def _check_finite(data: np.ndarray, op: str) -> None:
    if _FINITE_CHECKS and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


class Tensor:
    """A float64 ndarray plus the tape links needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_owned")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._grad_owned = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # operator sugar; constants are wrapped on the fly
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _needs_graph(parents: Iterable[Tensor]) -> bool:
    if not _GRAD_ENABLED:
        return False
    return any(p.requires_grad or p._parents for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], bwd, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    if _needs_graph(parents):
        out._parents = parents
        out._backward = bwd
    return out


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g into t.grad.

    ``fresh`` promises g is a newly allocated array no other node aliases,
    letting the first accumulation adopt it without a copy; shared arrays
    are copied lazily on the first in-place addition.
    """
    if not isinstance(g, np.ndarray):
        g = np.asarray(g, dtype=np.float64)
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
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        ga = _unbroadcast(g, a.data.shape)
        gb = _unbroadcast(g, b.data.shape)
        _accumulate(a, ga, fresh=ga is not g)
        _accumulate(b, gb, fresh=gb is not g)

    return _make(data, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def bwd(g):
        ga = _unbroadcast(g, a.data.shape)
        _accumulate(a, ga, fresh=ga is not g)
        _accumulate(b, _unbroadcast(-g, b.data.shape), fresh=True)

    return _make(data, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape), fresh=True)
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
        _accumulate(a, _unbroadcast(g * pick_a, a.data.shape), fresh=True)
        _accumulate(b, _unbroadcast(g * ~pick_a, b.data.shape), fresh=True)

    return _make(data, (a, b), bwd, "maximum")


def minimum(a: Tensor, b: Tensor) -> Tensor:
    data = np.minimum(a.data, b.data)

    def bwd(g):
        pick_a = a.data <= b.data
        _accumulate(a, _unbroadcast(g * pick_a, a.data.shape), fresh=True)
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


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    data = np.swapaxes(a.data, -1, -2)

    def bwd(g):
        _accumulate(a, np.swapaxes(g, -1, -2))

    return _make(data, (a,), bwd, "transpose_last")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _make(data, tensors, bwd, "concat")


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows along axis 0: out[i] = a[idx[i]]."""
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def bwd(g):
        acc = np.zeros_like(a.data)
        np.add.at(acc, idx, g)
        _accumulate(a, acc, fresh=True)

    return _make(data, (a,), bwd, "gather_rows")


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
    return mul(sum_(a, axis=axis, keepdims=keepdims), _wrap(1.0 / count))


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
            _accumulate(a, (g2 @ bd.T).reshape(ad.shape), fresh=True)
            _accumulate(b, ad.reshape(B * n, k).T @ g2, fresh=True)

        return _make(data, (a, b), bwd, "matmul")

    data = np.matmul(ad, bd)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        _accumulate(a, _unbroadcast_matmul(ga, ad.shape), fresh=True)
        _accumulate(b, _unbroadcast_matmul(gb, bd.shape), fresh=True)

    return _make(data, (a, b), bwd, "matmul")


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
    q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray | None = None
) -> Tensor:
    """softmax(q k^T / sqrt(d)) v, with masked keys pushed to -1e9 pre-softmax.

    ``key_mask`` is a 0/1 (or bool) array broadcastable to the score shape
    (..., n_queries, n_keys); 1 marks a selectable key. Query rows whose keys
    are all masked produce zero output rows.
    """
    d_k = q.data.shape[-1]
    scores = mul(matmul(q, transpose_last(k)), _wrap(1.0 / math.sqrt(d_k)))
    if key_mask is not None:
        m = np.asarray(key_mask, dtype=np.float64)
        scores = add(scores, _wrap((1.0 - m) * MASK_FILL))
    weights = softmax(scores, axis=-1)
    out = matmul(weights, v)
    if key_mask is not None:
        live = (np.broadcast_to(m, scores.data.shape).max(axis=-1) > 0.0).astype(np.float64)
        out = mul(out, _wrap(live[..., None]))
    return out


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the recorded graph."""
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
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    params = [p for p in params if p.grad is not None]
    total = math.sqrt(sum(float((p.grad * p.grad).sum()) for p in params))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            if p._grad_owned:
                p.grad *= scale
            else:
                p.grad = p.grad * scale
                p._grad_owned = True
    return total


class Adam:
    """Adam with bias correction over a named parameter dict."""

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

