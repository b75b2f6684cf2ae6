"""Tests for the reverse-mode tape: exactness, finite differences, errors.

The tape's one primitive is ``_node``; these tests build graphs of hand-made
nodes, each carrying its exact vector-Jacobian product.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

import vifit.autodiff as ad
from vifit.lowrank import lowrank_logpdf, lowrank_logpdf_and_vjp


def leaf(x):
    """The objective's input as a node: a Var under the tape, else a fresh one."""
    return x if isinstance(x, ad.Var) else ad.Var(x)


def linear(a, x):
    return ad._node("linear", a @ x.value, [(x, lambda g: g @ a)])


def sin(x):
    return ad._node("sin", np.sin(x.value), [(x, lambda g: g * np.cos(x.value))])


def mul(x, y):
    parents = [(x, lambda g: g * y.value), (y, lambda g: g * x.value)]
    return ad._node("mul", x.value * y.value, parents)


def scale(c, x):
    return ad._node("scale", c * x.value, [(x, lambda g: c * g)])


def dot(w, x):
    return ad._node("dot", w @ x.value, [(x, lambda g: g * w)])


def total(nodes):
    return ad._node("add", sum(n.value for n in nodes), [(n, lambda g: g) for n in nodes])


def test_square_value_and_gradient():
    def objective(x):
        x = leaf(x)
        return dot(np.ones(1), mul(x, x))

    report = ad.evaluate_with_gradient(objective, np.array([3.0]))
    assert report.value == 9.0
    np.testing.assert_allclose(report.gradient, [6.0])


def test_product_rule():
    def objective(x):
        x = leaf(x)
        first = linear(np.array([[1.0, 0.0]]), x)
        second = linear(np.array([[0.0, 1.0]]), x)
        return dot(np.ones(1), mul(first, second))

    report = ad.evaluate_with_gradient(objective, np.array([2.0, 5.0]))
    assert report.value == 10.0
    np.testing.assert_allclose(report.gradient, [5.0, 2.0])


def test_logsumexp_of_equal_logits():
    assert ad.logsumexp(np.array([0.0, 0.0])) == np.log(2.0)
    np.testing.assert_allclose(ad.logsumexp(np.full((2, 3), 5.0), axis=0), 5.0 + np.log(2.0))


@pytest.mark.filterwarnings("error")
def test_logsumexp_of_infinite_slices_without_warnings():
    x = np.array([[-np.inf, -np.inf], [np.inf, 0.0], [-np.inf, 1.0], [1000.0, 1000.0]])
    out = ad.logsumexp(x, axis=1)
    np.testing.assert_array_equal(out[:3], [-np.inf, np.inf, 1.0])
    np.testing.assert_allclose(out[3], 1000.0 + np.log(2.0), rtol=1e-15)
    assert ad.logsumexp(np.full(3, -np.inf)) == -np.inf
    assert ad.logsumexp(np.array([np.inf, -np.inf])) == np.inf


def test_finite_difference_on_square():
    grad = ad.finite_difference_gradient(
        lambda x: x[0] * x[0], np.array([3.0]), step=1e-4
    )
    np.testing.assert_allclose(grad, [6.0], atol=1e-6)


def test_finite_difference_constant_objective():
    grad = ad.finite_difference_gradient(lambda x: 4.2, np.zeros(3))
    np.testing.assert_array_equal(grad, np.zeros(3))


def test_constant_objective_gradient_is_zero():
    report = ad.evaluate_with_gradient(lambda x: 4.2, np.zeros(3))
    assert report.value == 4.2
    np.testing.assert_array_equal(report.gradient, np.zeros(3))


def test_structured_logpdf_gradient_matches_finite_differences():
    # Gradient w.r.t. the mean of a rank-2 Gaussian log-density at fixed
    # theta: log q sees the mean through θ − mean, so it is −d_theta.
    rng = np.random.default_rng(7)
    p, k = 5, 2
    theta = rng.standard_normal(p)
    a = np.exp(rng.standard_normal(p) * 0.3)
    u = rng.standard_normal((p, k)) * 0.4

    def objective(mu):
        return lowrank_logpdf(theta, mu, a, u)

    mu0 = rng.standard_normal(p)
    _, vjp = lowrank_logpdf_and_vjp(theta[None, :], mu0, a, u)
    fd = ad.finite_difference_gradient(objective, mu0)
    np.testing.assert_allclose(-vjp(np.ones(1))[0][0], fd, rtol=1e-5, atol=1e-8)


def test_gradient_linearity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    w = rng.standard_normal(4)

    def f(x):
        return dot(w, sin(linear(a, leaf(x))))

    def g(x):
        x = leaf(x)
        return dot(w, mul(x, sin(x)))

    psi = rng.standard_normal(4)
    for c_f, c_g in rng.standard_normal((5, 2)):
        both = ad.evaluate_with_gradient(
            lambda x: total([scale(c_f, f(leaf(x))), scale(c_g, g(leaf(x)))]), psi
        )
        gf = ad.evaluate_with_gradient(f, psi).gradient
        gg = ad.evaluate_with_gradient(g, psi).gradient
        np.testing.assert_allclose(both.gradient, c_f * gf + c_g * gg, rtol=1e-12, atol=1e-15)


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(6)
    a = rng.standard_normal((6, 6))

    def objective(x):
        x = leaf(x)
        hidden = sin(linear(a, x))
        return total([dot(np.ones(6), mul(hidden, x)), dot(psi, hidden), dot(psi, x)])

    first = ad.evaluate_with_gradient(objective, psi)
    second = ad.evaluate_with_gradient(objective, psi)
    assert first.value == second.value
    np.testing.assert_array_equal(first.gradient, second.gradient)


def test_nonfinite_intermediate_names_the_primitive():
    def objective(x):
        x = leaf(x)
        return ad._node("log", np.log(x.value[0] - 1.0), [(x, lambda g: g / (x.value - 1.0))])

    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ad.NonFiniteValueError, match="log"):
            ad.evaluate_with_gradient(objective, np.array([0.0]))


def test_unsupported_primitive_raises():
    # A Var has no operators and takes no numpy ufunc: anything outside
    # ``_node`` fails loudly instead of silently leaving the tape.
    for op in (
        lambda x: x[0],
        lambda x: x * 2.0,
        lambda x: np.array([1.0]) * x,
        lambda x: np.sin(x),
        lambda x: float(x),
    ):
        with pytest.raises(TypeError):
            ad.evaluate_with_gradient(op, np.array([0.5]))


def test_gradient_length_matches_psi_dimension():
    report = ad.evaluate_with_gradient(lambda x: dot(np.eye(5)[0], leaf(x)), np.ones(5))
    assert report.gradient.shape == (5,)
    np.testing.assert_allclose(report.gradient, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_backward_gives_unreached_vars_a_zero_gradient():
    x, y = ad.Var(np.ones(3)), ad.Var(np.ones(2))
    out = dot(np.arange(3.0), x)
    gx, gy = ad.backward(out, [x, y])
    np.testing.assert_array_equal(gx, np.arange(3.0))
    np.testing.assert_array_equal(gy, np.zeros(2))
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(x, [x])


# -----------------------------------------------------------------------
# Generated graphs


@given(
    ops=hst.lists(
        hst.tuples(
            hst.sampled_from(["linear", "sin", "mul"]), hst.integers(0, 8), hst.integers(0, 8)
        ),
        min_size=1,
        max_size=6,
    ),
    p=hst.integers(1, 4),
    seed=hst.integers(0, 2**16),
)
def test_backward_over_generated_graphs_matches_finite_differences(ops, p, seed):
    # Each op reads earlier nodes, repeats allowed, and every node feeds the
    # output: a node's adjoint sums over every path from it, as in a graph
    # with fan-out, shared parents and x * x.
    rng = np.random.default_rng(seed)
    mats = [0.5 * rng.standard_normal((p, p)) for _ in ops]
    weights = rng.standard_normal((len(ops) + 1, p))

    def objective(x):
        nodes = [leaf(x)]
        for (op, i, j), a in zip(ops, mats):
            u, v = nodes[i % len(nodes)], nodes[j % len(nodes)]
            nodes.append(linear(a, u) if op == "linear" else sin(u) if op == "sin" else mul(u, v))
        return total([dot(w, n) for w, n in zip(weights, nodes)])

    psi = rng.standard_normal(p)
    report = ad.evaluate_with_gradient(objective, psi)
    fd = ad.finite_difference_gradient(objective, psi)
    np.testing.assert_allclose(report.gradient, fd, rtol=1e-5, atol=1e-7)


# -----------------------------------------------------------------------
# Cholesky on plain arrays


def ill_conditioned_spd(n: int, log_cond: float, scale: float, rng) -> np.ndarray:
    """A symmetric positive definite n×n matrix with condition number up to
    10**log_cond and eigenvalues up to ``scale``, in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c = (q * (scale * 10.0 ** rng.uniform(-log_cond, 0.0, n))) @ q.T
    return 0.5 * (c + c.T)


@given(
    n=hst.integers(1, 12),
    rhs=hst.sampled_from([None, 1, 4]),
    log_cond=hst.floats(0.0, 12.0),
    scale=hst.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    seed=hst.integers(0, 2**16),
)
def test_cholesky_primitives_factor_with_numpy_and_solve_backward_stably(
    n, rhs, log_cond, scale, seed
):
    # cho_factor is numpy's Cholesky, bit for bit.  cho_solve's residual
    # against c is a backward error of a few eps: ‖c x − b‖ ≤ 4·n·eps·‖c‖‖x‖
    # (measured: at most 2.2·eps over 20000 such draws).
    rng = np.random.default_rng(seed)
    c = ill_conditioned_spd(n, log_cond, scale, rng)
    b = rng.standard_normal((n,) if rhs is None else (n, rhs))
    factor = ad.cho_factor(c)
    assert factor[1] is True
    np.testing.assert_array_equal(factor[0], np.linalg.cholesky(c))
    x = ad.cho_solve(factor, b).reshape(n, -1)
    residual = np.linalg.norm(c @ x - b.reshape(n, -1), axis=0)
    bound = 4 * n * np.finfo(float).eps * np.linalg.norm(c, 2) * np.linalg.norm(x, axis=0)
    assert np.all(residual <= bound)


def test_cholesky_primitives_raise_linalg_and_value_errors():
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        ad.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    factor = ad.cho_factor(np.eye(2))
    for bad in (np.nan, np.inf):
        c = np.eye(2)
        c[1, 0] = c[0, 1] = bad
        # A plain ValueError, not a LinAlgError: the input was never factorized.
        with pytest.raises(ValueError, match="infs or NaNs") as err:
            ad.cho_factor(c)
        assert type(err.value) is ValueError
        with pytest.raises(ValueError, match="infs or NaNs"):
            ad.cho_solve(factor, np.array([1.0, bad]))
