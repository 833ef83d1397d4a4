"""Autodiff engine: forward semantics, the finite-difference oracle, Adam."""

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
        Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(1, 4))), Tensor(v_row)
    )
    for i in range(3):
        np.testing.assert_allclose(out.data[i], v_row[0], atol=1e-15)


def test_attention_rows_are_convex_combinations():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(6, 3))
    out = ad.scaled_dot_attention(
        Tensor(rng.normal(size=(4, 8))), Tensor(rng.normal(size=(6, 8))), Tensor(v)
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
        key_mask=mask,
    )
    assert np.abs(out.data[1]).max() == 0.0
    assert np.abs(out.data[0]).max() > 0.0


def test_determinism_bit_identical():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6))

    def run():
        t = ad.scaled_dot_attention(Tensor(a), Tensor(b), Tensor(b))
        return ad.mean(ad.exp(ad.matmul(t, Tensor(a)))).data.copy()

    assert np.array_equal(run(), run())


def test_nonfinite_forward_raises():
    with np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError, match="exp"):
            ad.exp(Tensor([1000.0]))
        prev = ad.set_finite_checks(False)
        try:
            ad.exp(Tensor([1000.0]))  # checks disabled: no error
        finally:
            ad.set_finite_checks(prev)


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
    idx_rows = rng.integers(0, n, size=int(rng.integers(2, 6)))
    idx_cols = rng.integers(0, m, size=n)
    mask = (rng.random((n, k)) < 0.7).astype(float)
    mask[:, 0] = 1.0  # keep every query row alive

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
        "matmul3d_3d": (
            lambda t: ad.sum_(ad.matmul(t[0], t[1])),
            [arr(batch, n, k), arr(batch, k, m)],
        ),
        "concat": (
            lambda t: ad.sum_(ad.square(ad.concat([t[0], t[1]], axis=-1))),
            [arr(n, m), arr(n, k)],
        ),
        "gather_rows": (
            lambda t: ad.sum_(ad.square(ad.gather_rows(t[0], idx_rows))),
            [arr(n, m)],
        ),
        "take_per_row": (
            lambda t: ad.sum_(ad.square(ad.take_per_row(t[0], idx_cols))),
            [arr(n, m)],
        ),
        "reshape": (lambda t: ad.sum_(ad.square(ad.reshape(t[0], (m, n)))), [arr(n, m)]),
        "transpose": (lambda t: ad.sum_(ad.mul(ad.transpose_last(t[0]), t[1])), [arr(n, m), arr(m, n)]),
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
            lambda t: ad.sum_(ad.square(ad.scaled_dot_attention(t[0], t[1], t[2]))),
            [arr(n, m), arr(k, m), arr(k, m)],
        ),
        "attention_masked": (
            lambda t: ad.sum_(ad.square(ad.scaled_dot_attention(t[0], t[1], t[2], key_mask=mask))),
            [arr(n, m), arr(k, m), arr(k, m)],
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
    total = ad.clip_grad_norm([p], max_norm=1.0)
    assert total == pytest.approx(20.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)


def test_gradient_accumulates_for_shared_parameters():
    w = Tensor(np.array([[2.0]]), requires_grad=True)
    x = Tensor(np.array([[3.0]]))
    # loss = (xw)(xw) = 9w^2, so dL/dw = 18w = 36
    loss = ad.sum_(ad.mul(ad.matmul(x, w), ad.matmul(x, w)))
    ad.backward(loss)
    assert w.grad[0, 0] == pytest.approx(36.0)
