"""Shared fixtures and the independent oracles used across the suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from coopgraph import autodiff as ad
from coopgraph.env import EnvConfig, PrimitiveSet, reset
from coopgraph.graph import build_targets, random_topology
from coopgraph.policy import PolicyParams, init_params, layout_for


def numeric_gradient(f, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of a scalar function of numpy arrays.

    Deliberately independent of the autodiff tape: f is re-evaluated from
    plain arrays for every probe.
    """
    grads = []
    for i, arr in enumerate(arrays):
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = f(arrays)
            flat[j] = orig - h
            down = f(arrays)
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-6)
    return float(np.abs(analytic - numeric).max() / scale)


def gradcheck(build, arrays: list[np.ndarray], tol: float = 1e-3) -> float:
    """Compare tape gradients of build(tensors)->scalar against the oracle."""

    def f(raw):
        ts = [ad.Tensor(a.copy()) for a in raw]
        return float(build(ts).data)

    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(tensors)
    ad.backward(loss)
    numeric = numeric_gradient(f, [a.copy() for a in arrays])
    worst = 0.0
    for t, n in zip(tensors, numeric):
        analytic = np.zeros_like(n) if t.grad is None else t.grad
        worst = max(worst, relative_error(analytic, n))
    assert worst < tol, f"gradient mismatch: relative error {worst:.2e} >= {tol}"
    return worst


def float64_params(params: PolicyParams) -> PolicyParams:
    """The same parameters widened to float64 (exact), so the policy runs a
    float64 tape: the gradient oracles and the float64-tolerance property
    tests run on these."""
    return PolicyParams(
        layout=params.layout,
        tensors={k: ad.Tensor(t.data.astype(np.float64), requires_grad=True) for k, t in params.tensors.items()},
        normalizer=params.normalizer,
    )


def rewrite_checkpoint(src, dst, edit_header=None, drop=(), swap=None) -> None:
    """Write the checkpoint ``src`` again as ``dst``, apart from the writer
    under test: without the ``drop`` entries, with the ``swap`` ones (by
    archive name) in place of its own or added at the end, and with the
    header ``edit_header`` returns for the old one."""
    with np.load(src) as archive:
        entries = {name: archive[name] for name in archive.files if name not in drop}
    entries.update(swap or {})
    if edit_header is not None:
        entries["header"] = np.array(json.dumps(edit_header(json.loads(str(entries["header"])))))
    with open(dst, "wb") as f:
        np.savez(f, **entries)


@pytest.fixture
def tiny_env_config() -> EnvConfig:
    """CSI-4/1/2-sized physics with a short step cap, for fast episodes."""
    return EnvConfig(n_agents=4, k_threshold=1, m_invaders=2, n_bases=2, t_max=30)


@pytest.fixture
def tiny_setup(tiny_env_config):
    """(env_config, graph, params) triple at reduced width for fast forward passes."""
    targets = build_targets(PrimitiveSet.SIX, True, tiny_env_config.m_invaders, tiny_env_config.n_bases)
    graph = random_topology(np.random.default_rng(7), tiny_env_config.n_agents, 3, targets)
    params = init_params(layout_for(graph, tiny_env_config, hidden=16), np.random.default_rng(3))
    return tiny_env_config, graph, params


@pytest.fixture
def tiny_state(tiny_env_config):
    return reset(tiny_env_config, np.random.default_rng(11))
