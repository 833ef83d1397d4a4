"""Autodiff engine: forward semantics, the finite-difference oracle, the fused
linear against the op chain it replaced, Adam."""

import os
import subprocess
import sys

import numpy as np
import pytest

from coopgraph import autodiff as ad
from coopgraph.autodiff import Adam, Tensor

from conftest import gradcheck


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------


def test_softmax_equal_logits():
    out = ad.softmax(Tensor([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(50, 7)) * 10)
    sums = ad.softmax(x, axis=-1).data.sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_attention_single_key_returns_value_row():
    rng = np.random.default_rng(1)
    v_row = rng.normal(size=(1, 5))
    out = ad.scaled_dot_attention(
        Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(1, 4))), Tensor(v_row), 0.5
    )
    for i in range(3):
        np.testing.assert_allclose(out.data[i], v_row[0], atol=1e-15)


def test_attention_rows_are_convex_combinations():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(6, 3))
    out = ad.scaled_dot_attention(
        Tensor(rng.normal(size=(4, 8))), Tensor(rng.normal(size=(6, 8))), Tensor(v), 0.5
    ).data
    assert (out >= v.min(axis=0) - 1e-12).all()
    assert (out <= v.max(axis=0) + 1e-12).all()


def test_attention_fully_masked_rows_are_zero():
    rng = np.random.default_rng(3)
    mask = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    out = ad.scaled_dot_attention(
        Tensor(rng.normal(size=(2, 4))),
        Tensor(rng.normal(size=(3, 4))),
        Tensor(rng.normal(size=(3, 4))),
        0.5,
        key_mask=mask,
    )
    assert np.abs(out.data[1]).max() == 0.0
    assert np.abs(out.data[0]).max() > 0.0


def test_determinism_bit_identical():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6))

    def run():
        t = ad.scaled_dot_attention(Tensor(a), Tensor(b), Tensor(b), 0.5)
        return ad.mean(ad.exp(ad.matmul(t, Tensor(a)))).data.copy()

    assert np.array_equal(run(), run())


def test_nonfinite_forward_raises():
    x = Tensor([1000.0], requires_grad=True)
    with np.errstate(over="ignore"):
        # off the tape (a constant input, or no_grad) the op itself raises
        with pytest.raises(ad.NonFiniteError, match="exp"):
            ad.exp(Tensor([1000.0]))
        with ad.no_grad(), pytest.raises(ad.NonFiniteError, match="exp"):
            ad.exp(x)
        # on the tape it does not; backward names the first non-finite op,
        # not the later mul on the same path
        loss = ad.sum_(ad.mul(ad.exp(x), Tensor([2.0])))
    with pytest.raises(ad.NonFiniteError, match=r"op 'exp' \(output shape \(1,\)\)"):
        ad.backward(loss)
    assert x.grad is None


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y._parents == ()
    y2 = ad.mul(x, x)
    assert y2._parents != ()


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, x))


def _tape(loss):
    """Every tensor the loss was built from, the loss included."""
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def test_backward_keeps_only_leaf_gradients():
    """An interior gradient is dropped once spent; leaves keep theirs, also
    one reached along several paths."""
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 4, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
    b = Tensor(np.zeros(8), requires_grad=True)
    q = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
    h = ad.linear(x, w, b)
    mixed = ad.concat([ad.scaled_dot_attention(ad.transpose(q), h, h, 0.5), h], axis=1)
    loss = ad.mean(ad.square(ad.relu(ad.reshape(mixed, (18, 8)))))
    interior = [t for t in _tape(loss) if t._parents]
    assert len(interior) == 9
    ad.backward(loss)
    assert all(t.grad is None for t in interior)
    assert all(t.grad is not None for t in (x, w, b, q))


@pytest.mark.parametrize("shared_first", [True, False], ids=["shared_first", "second_first"])
def test_gradient_handed_to_two_leaves_stays_exact(shared_first):
    """``add`` hands its gradient unchanged to both operands, so both leaves
    may hold one array. A second contribution to one leaf, and clipping,
    leave the other leaf's gradient exact, in either order of the loss."""
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    w, v = np.array([0.5, -2.0]), np.array([10.0, 100.0])
    shared = ad.sum_(ad.mul(ad.add(a, b), Tensor(w)))
    second = ad.sum_(ad.mul(b, Tensor(v)))
    ad.backward(ad.add(shared, second) if shared_first else ad.add(second, shared))
    assert np.array_equal(a.grad, w)
    assert np.array_equal(b.grad, w + v)
    held = a.grad
    ad.clip_grad_norm({"a": a, "b": b}, max_norm=1e-3)
    assert np.array_equal(held, w) and not np.array_equal(a.grad, w)


# ---------------------------------------------------------------------------
# gradient oracle
# ---------------------------------------------------------------------------


def test_square_derivative_at_three():
    x = Tensor(np.array(3.0), requires_grad=True)
    ad.backward(ad.square(x))
    assert x.grad == pytest.approx(6.0)


def test_matmul_sum_gradient_closed_form():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = rng.normal(size=(4, 5))
    ad.backward(ad.sum_(ad.matmul(a, Tensor(b))))
    np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.T, atol=1e-12)


def op_cases(rng):
    """One random instance per op, each a (build, arrays) pair.

    Inputs are nudged away from kinks (relu at 0, min/max ties, clip edges)
    so the central differences stay valid.
    """
    def arr(*shape, lo=-2.0, hi=2.0):
        return rng.uniform(lo, hi, size=shape)

    n, m, k = rng.integers(2, 8, size=3)
    batch = int(rng.integers(2, 5))
    idx_cols = rng.integers(0, m, size=n)
    mask = (rng.random((n, k)) < 0.7).astype(float)
    mask[:, 0] = 1.0  # keep every query row alive
    batch_mask = (rng.random((batch, n, k)) < 0.7).astype(float)
    batch_mask[..., 0] = 1.0
    batch_mask[0, 0] = 0.0  # one dead query row: its output and gradients are 0

    cases = {
        "add": (lambda t: ad.sum_(ad.add(t[0], t[1])), [arr(n, m), arr(n, m)]),
        "add_broadcast": (lambda t: ad.sum_(ad.add(t[0], t[1])), [arr(n, m), arr(m)]),
        "sub": (lambda t: ad.sum_(ad.sub(t[0], t[1])), [arr(n, m), arr(n, m)]),
        "mul": (lambda t: ad.sum_(ad.mul(t[0], t[1])), [arr(n, m), arr(n, m)]),
        "matmul2d": (lambda t: ad.sum_(ad.matmul(t[0], t[1])), [arr(n, k), arr(k, m)]),
        "matmul3d_2d": (
            lambda t: ad.sum_(ad.matmul(t[0], t[1])),
            [arr(batch, n, k), arr(k, m)],
        ),
        "matmul2d_3d": (
            lambda t: ad.sum_(ad.matmul(t[0], t[1])),
            [arr(n, k), arr(batch, k, m)],
        ),
        "linear2d": (
            lambda t: ad.sum_(ad.square(ad.linear(t[0], t[1], t[2]))),
            [arr(n, k), arr(k, m), arr(m)],
        ),
        "linear3d": (
            lambda t: ad.sum_(ad.square(ad.linear(t[0], t[1], t[2]))),
            [arr(batch, n, k), arr(k, m), arr(m)],
        ),
        "matmul3d_3d": (
            lambda t: ad.sum_(ad.matmul(t[0], t[1])),
            [arr(batch, n, k), arr(batch, k, m)],
        ),
        "concat": (
            lambda t: ad.sum_(ad.square(ad.concat([t[0], t[1]], axis=-1))),
            [arr(n, m), arr(n, k)],
        ),
        "transpose": (lambda t: ad.sum_(ad.mul(ad.transpose(t[0]), t[1])), [arr(n, m), arr(m, n)]),
        "take_per_row": (
            lambda t: ad.sum_(ad.square(ad.take_per_row(t[0], idx_cols))),
            [arr(n, m)],
        ),
        "reshape": (lambda t: ad.sum_(ad.square(ad.reshape(t[0], (m, n)))), [arr(n, m)]),
        "relu": (
            lambda t: ad.sum_(ad.relu(t[0])),
            [np.where(np.abs(x := arr(n, m)) < 0.1, x + 0.25, x)],
        ),
        "exp": (lambda t: ad.sum_(ad.exp(t[0])), [arr(n, m)]),
        "square": (lambda t: ad.sum_(ad.square(t[0])), [arr(n, m)]),
        "maximum": (lambda t: ad.sum_(ad.maximum(t[0], t[1])), [arr(n, m), arr(n, m) + 0.3]),
        "minimum": (lambda t: ad.sum_(ad.minimum(t[0], t[1])), [arr(n, m), arr(n, m) + 0.3]),
        "clip": (lambda t: ad.sum_(ad.clip(t[0], -1.3333, 1.3333)), [arr(n, m)]),
        "sum_axis": (lambda t: ad.sum_(ad.square(ad.sum_(t[0], axis=0))), [arr(n, m)]),
        "mean": (lambda t: ad.mean(ad.square(t[0])), [arr(n, m)]),
        "softmax": (lambda t: ad.sum_(ad.square(ad.softmax(t[0], axis=-1))), [arr(n, m)]),
        "log_softmax": (
            lambda t: ad.sum_(ad.mul(ad.log_softmax(t[0], axis=-1), t[1])),
            [arr(n, m), arr(n, m)],
        ),
        "attention": (
            lambda t: ad.sum_(ad.square(ad.scaled_dot_attention(t[0], t[1], t[2], 0.7))),
            [arr(n, m), arr(k, m), arr(k, m)],
        ),
        "attention_masked": (
            lambda t: ad.sum_(ad.square(ad.scaled_dot_attention(t[0], t[1], t[2], 0.7, key_mask=mask))),
            [arr(n, m), arr(k, m), arr(k, m)],
        ),
        # a decoder: one (n, h) query table against every batch row's keys,
        # values of another width
        "attention_batched_keys": (
            lambda t: ad.sum_(ad.square(ad.scaled_dot_attention(t[0], t[1], t[2], 0.7))),
            [arr(n, m), arr(batch, k, m), arr(batch, k, n)],
        ),
        # the member attention: a per-row member mask, one row fully masked,
        # keys that are the values
        "attention_batched_keys_masked": (
            lambda t: ad.sum_(ad.square(
                ad.scaled_dot_attention(t[0], t[1], t[1], 0.7, key_mask=batch_mask)
            )),
            [arr(n, m), arr(batch, k, m)],
        ),
        # the merge block: a (1, d) query over each group's rows
        "attention_merge": (
            lambda t: ad.sum_(ad.square(ad.scaled_dot_attention(t[0], t[1], t[1], 0.7))),
            [arr(1, m), arr(batch, k, m)],
        ),
    }
    return cases


def run_gradient_oracle(instances: int, seed: int = 0) -> float:
    """The acceptance gradient suite: every op vs central differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        for name, (build, arrays) in op_cases(rng).items():
            err = gradcheck(build, arrays)
            worst = max(worst, err)
    return worst


def test_gradient_oracle_all_ops():
    worst = run_gradient_oracle(instances=10, seed=12)
    assert worst < 1e-3


def test_attention_gives_constant_keys_and_values_no_gradient():
    """Attention as ``encode`` runs it: one query table against batched keys
    that are also the values, both constant, with a member mask and one dead
    query row. The constant gets no gradient (none could reach a parameter),
    and the query table's gradient still matches the oracle."""
    rng = np.random.default_rng(3)
    n_q, n_k, d, batch = 4, 5, 6, 3
    x = Tensor(rng.normal(size=(batch, n_k, d)))
    mask = (rng.random((batch, n_q, n_k)) < 0.7).astype(float)
    mask[..., 0] = 1.0
    mask[0, 0] = 0.0

    def build(t):
        return ad.sum_(ad.square(ad.scaled_dot_attention(t[0], x, x, 0.7, key_mask=mask)))

    assert gradcheck(build, [rng.normal(size=(n_q, d))]) < 1e-3
    assert x.grad is None


# ---------------------------------------------------------------------------
# the fused linear against the op chain it replaced
# ---------------------------------------------------------------------------


def reference_transpose_last(a):
    """Swap the last two axes and hand the gradient back as the swapped view."""

    def bwd(g):
        ad._accumulate(a, np.swapaxes(g, -1, -2))

    return ad._make(np.swapaxes(a.data, -1, -2), (a,), bwd, "transpose_last")


def reference_linear(x, w, b):
    """The chain a linear replaces: its input's leading axes folded into
    rows, one 2-d matmul, the bias added, the rows unfolded."""
    rows = ad.reshape(x, (-1, x.shape[-1]))
    return ad.reshape(ad.add(ad.matmul(rows, w), b), x.shape[:-1] + w.shape[1:])


def _bits(a):
    return None if a is None else (a.shape, np.ascontiguousarray(a).tobytes())


def _run_both(arrays, constant, seed):
    """Forward bytes and every operand's gradient bytes of a linear under
    the fused op and under the reference chain. The loss reads the output
    through a transpose, so the op's backward gets a non-contiguous
    gradient."""
    results = []
    for linear in (ad.linear, reference_linear):
        tensors = [Tensor(a.copy(), requires_grad=i not in constant) for i, a in enumerate(arrays)]
        out = linear(*tensors)
        weight = np.random.default_rng(seed).normal(size=np.swapaxes(out.data, -1, -2).shape)
        ad.backward(ad.sum_(ad.mul(reference_transpose_last(out), Tensor(weight))))
        results.append((_bits(out.data), [_bits(t.grad) for t in tensors]))
    return results


def _fused_cases(rng, rows):
    """(name, arrays, constant operand indices) of a linear at batch ``rows``."""
    h, n_k = 64, 12

    def arr(*shape):
        return rng.normal(size=shape)

    return [
        ("linear3d", [arr(rows, n_k, h), arr(h, h), arr(h)], ()),
        ("linear2d", [arr(rows * n_k, h), arr(h, h), arr(h)], ()),
        ("linear_constant_input", [arr(rows, n_k, h), arr(h, h), arr(h)], (0,)),
    ]


@pytest.mark.parametrize("rows", [2, 256])
def test_fused_ops_match_reference_chain_bit_for_bit(rows):
    """The fused linear gives the chain's forward and gradients bit for bit,
    on a small and a large batch; a constant operand gets no gradient.
    (Attention keeps no chain's bits: the policy's folded network is checked
    against the unfolded one in ``test_policy``.)"""
    rng = np.random.default_rng(rows)
    for i, (name, arrays, constant) in enumerate(_fused_cases(rng, rows)):
        fused, reference = _run_both(arrays, constant, seed=i)
        assert fused[0] == reference[0], f"{name}: forward"
        for j, (got, want) in enumerate(zip(fused[1], reference[1])):
            assert got == want, f"{name}: gradient of operand {j}"
            assert (got is None) == (j in constant), f"{name}: operand {j}"


LARGE_LINEAR_BACKWARD = """
import threading
import numpy as np
from coopgraph import autodiff as ad
rng = np.random.default_rng(0)
x = ad.Tensor(rng.normal(size=(1024, 64)), requires_grad=True)
w = ad.Tensor(rng.normal(size=(64, 64)), requires_grad=True)
loss = ad.sum_(ad.linear(x, w, ad.Tensor(np.zeros(64))))
before = threading.active_count()
ad.backward(loss)
assert x.grad is not None and w.grad is not None
print(before, threading.active_count())
"""


def test_large_backward_starts_no_thread():
    """The backward runs on the calling thread: a 1024 x 64 linear's backward
    leaves the process's thread count as it found it. Run in a fresh
    interpreter, so no earlier test's backward has started anything."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run([sys.executable, "-c", LARGE_LINEAR_BACKWARD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    assert before == after


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_no_change():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=1e-2)
    p.grad = np.array([0.37, -5.0])
    opt.step()
    np.testing.assert_allclose(p.data, [-1e-2, 1e-2], rtol=1e-6)


def test_adam_quadratic_bowl_converges():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=6), requires_grad=True)
    opt = Adam({"x": x}, lr=1e-2)
    for _ in range(5000):
        x.grad = 2.0 * x.data  # d/dx ||x||^2
        opt.step()
    assert np.linalg.norm(x.data) < 1e-3


def test_clip_grad_norm_scales_to_bound():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 10.0)
    total = ad.clip_grad_norm({"p": p}, max_norm=1.0)
    assert total == pytest.approx(20.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)


def test_nan_gradient_never_reaches_the_parameters():
    """exp(1000 x) overflows and clip cuts it off: the loss is finite, but
    exp's backward makes 0 * inf = nan. clip_grad_norm raises naming x, so
    the step never reaches Adam."""
    x = Tensor(np.array([1.0]), requires_grad=True)
    w = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam({"x": x, "w": w}, lr=0.1)

    def train_step(scale):
        opt.zero_grad()
        with np.errstate(over="ignore"):
            exp = ad.exp(ad.mul(x, Tensor(np.array([scale]))))
        loss = ad.add(ad.sum_(ad.clip(exp, 0.0, 1.0)), ad.sum_(ad.square(w)))
        assert np.isfinite(loss.data).all()
        with np.errstate(invalid="ignore"):
            ad.backward(loss)
        ad.clip_grad_norm(opt.params, max_norm=1.0)
        opt.step()

    train_step(-1.0)  # a finite step, so the moments are not zero
    state = [a.copy() for a in (x.data, w.data, opt.m["x"], opt.m["w"], opt.v["x"], opt.v["w"])]
    with pytest.raises(ad.NonFiniteError, match=r"gradient norm of x$"):
        train_step(1000.0)
    assert np.isnan(x.grad).all() and np.isfinite(w.grad).all()
    assert opt.t == 1
    after = (x.data, w.data, opt.m["x"], opt.m["w"], opt.v["x"], opt.v["w"])
    assert all(np.array_equal(a, b) for a, b in zip(state, after))


def test_gradient_accumulates_for_shared_parameters():
    w = Tensor(np.array([[2.0]]), requires_grad=True)
    x = Tensor(np.array([[3.0]]))
    # loss = (xw)(xw) = 9w^2, so dL/dw = 18w = 36
    loss = ad.sum_(ad.mul(ad.matmul(x, w), ad.matmul(x, w)))
    ad.backward(loss)
    assert w.grad[0, 0] == pytest.approx(36.0)
