"""Tests for the reverse-mode tape: exactness, finite differences, errors."""

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given
from hypothesis import strategies as hst

import vifit.autodiff as ad
from vifit.lowrank import lowrank_logpdf


def test_square_value_and_gradient():
    report = ad.evaluate_with_gradient(lambda x: x[0] * x[0], np.array([3.0]))
    assert report.value == 9.0
    np.testing.assert_allclose(report.gradient, [6.0])
    assert report.max_abs_component == 6.0


def test_product_rule():
    report = ad.evaluate_with_gradient(lambda x: x[0] * x[1], np.array([2.0, 5.0]))
    assert report.value == 10.0
    np.testing.assert_allclose(report.gradient, [5.0, 2.0])


def test_logsumexp_of_equal_logits():
    report = ad.evaluate_with_gradient(ad.logsumexp, np.array([0.0, 0.0]))
    np.testing.assert_allclose(report.value, np.log(2.0))
    np.testing.assert_allclose(report.gradient, [0.5, 0.5])


@pytest.mark.filterwarnings("error")
def test_logsumexp_of_infinite_slices_without_warnings():
    x = np.array([[-np.inf, -np.inf], [np.inf, 0.0], [-np.inf, 1.0], [1000.0, 1000.0]])
    out = ad.logsumexp(x, axis=1)
    np.testing.assert_array_equal(out[:3], [-np.inf, np.inf, 1.0])
    np.testing.assert_allclose(out[3], 1000.0 + np.log(2.0), rtol=1e-15)
    assert ad.logsumexp(np.full(3, -np.inf)) == -np.inf
    assert ad.logsumexp(np.array([np.inf, -np.inf])) == np.inf


@pytest.mark.filterwarnings("error")
def test_softplus_gradient_is_stable_at_extremes():
    x = np.array([-800.0, -700.0, -30.0, 0.0, 30.0, 800.0])
    report = ad.evaluate_with_gradient(lambda v: ad.sum(ad.softplus(v)), x)
    np.testing.assert_allclose(report.gradient, scipy.special.expit(x), rtol=1e-14)


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
    # Gradient w.r.t. the mean of a rank-2 Gaussian log-density at fixed theta.
    rng = np.random.default_rng(7)
    p, k = 5, 2
    theta = rng.standard_normal(p)
    a = np.exp(rng.standard_normal(p) * 0.3)
    u = rng.standard_normal((p, k)) * 0.4

    def objective(mu):
        return lowrank_logpdf(theta, mu, a, u)

    mu0 = rng.standard_normal(p)
    report = ad.evaluate_with_gradient(objective, mu0)
    fd = ad.finite_difference_gradient(objective, mu0)
    np.testing.assert_allclose(report.gradient, fd, rtol=1e-5, atol=1e-8)


def test_full_primitive_set_against_finite_differences():
    mat = np.array([[1.0, 0.5, -0.2], [0.0, 2.0, 0.3]])

    def objective(x):
        y = ad.matmul(mat, x)
        z = ad.exp(x[0]) + ad.log(1.0 + x[1] * x[1]) + ad.sqrt(2.0 + x[2])
        z = z + ad.tanh(x[0]) + ad.softplus(x[1]) - x[2] / (1.0 + x[0] * x[0])
        z = z + ad.dot(y, y) + ad.logsumexp(x) + ad.sum(x * x)
        z = z + ad.sum(ad.reshape(x, (3, 1)) * mat.T)
        return z + ad.stack([x[0], x[1] * x[2]])[1]

    psi = np.array([0.3, -0.7, 1.1])
    report = ad.evaluate_with_gradient(objective, psi)
    fd = ad.finite_difference_gradient(objective, psi)
    np.testing.assert_allclose(report.gradient, fd, rtol=1e-5, atol=1e-8)


def test_solve_and_logdet_gradients():
    rng = np.random.default_rng(11)
    b = rng.standard_normal(3)

    def objective(x):
        m = ad.reshape(x, (3, 3))
        spd = ad.matmul(m, ad.transpose(m)) + np.eye(3)
        return ad.logdet_spd(spd) + ad.dot(b, ad.solve_spd(spd, b))

    psi = rng.standard_normal(9) * 0.5
    report = ad.evaluate_with_gradient(objective, psi)
    fd = ad.finite_difference_gradient(objective, psi)
    np.testing.assert_allclose(report.gradient, fd, rtol=1e-5, atol=1e-8)


def test_gradient_linearity():
    rng = np.random.default_rng(3)

    def f(x):
        return ad.sum(ad.exp(0.3 * x)) + ad.dot(x, x)

    def g(x):
        return ad.logsumexp(x) - ad.sum(ad.tanh(x))

    psi = rng.standard_normal(4)
    for a, b in rng.standard_normal((5, 2)):
        combo = ad.evaluate_with_gradient(lambda x: a * f(x) + b * g(x), psi)
        gf = ad.evaluate_with_gradient(f, psi).gradient
        gg = ad.evaluate_with_gradient(g, psi).gradient
        np.testing.assert_allclose(combo.gradient, a * gf + b * gg, rtol=1e-12)


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(6)
    z = rng.standard_normal(6)

    def objective(x):
        theta = x + 0.1 * z
        return ad.sum(theta * theta) + ad.logsumexp(theta)

    first = ad.evaluate_with_gradient(objective, psi)
    second = ad.evaluate_with_gradient(objective, psi)
    assert first.value == second.value
    np.testing.assert_array_equal(first.gradient, second.gradient)


def test_nonfinite_intermediate_names_the_primitive():
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ad.NonFiniteValueError, match="log"):
            ad.evaluate_with_gradient(lambda x: ad.log(x[0] - 1.0), np.array([0.0]))


def test_unsupported_primitive_raises():
    with pytest.raises(ad.UnsupportedPrimitiveError):
        ad.evaluate_with_gradient(lambda x: np.sin(x[0]), np.array([0.5]))
    with pytest.raises(ad.UnsupportedPrimitiveError):
        ad.evaluate_with_gradient(lambda x: float(x[0]), np.array([0.5]))


def test_reflected_numpy_operands_route_through_tape():
    # ndarray * Var and np.exp(Var) must both stay differentiable.
    def objective(x):
        scaled = np.array([1.0, 2.0, 3.0]) * x
        return ad.sum(np.exp(scaled))

    psi = np.array([0.1, -0.2, 0.3])
    report = ad.evaluate_with_gradient(objective, psi)
    fd = ad.finite_difference_gradient(objective, psi)
    np.testing.assert_allclose(report.gradient, fd, rtol=1e-6)


def test_gradient_length_matches_psi_dimension():
    report = ad.evaluate_with_gradient(lambda x: x[0] + 0.0 * x[1], np.ones(5))
    assert report.gradient.shape == (5,)
    np.testing.assert_allclose(report.gradient, [1.0, 0.0, 0.0, 0.0, 0.0])


# -----------------------------------------------------------------------
# Elementwise primitives over generated inputs

BINARY = {"add": ad._add, "sub": ad._sub, "mul": ad._mul, "div": ad._div}
UNARY = {
    "neg": (ad._neg, False),
    "exp": (ad.exp, False),
    "log": (ad.log, True),
    "sqrt": (ad.sqrt, True),
    "tanh": (ad.tanh, False),
    "softplus": (ad.softplus, False),
}


def away_from_zero(rng, n):
    """Values of magnitude in [0.5, 2] with random signs: safe divisors."""
    return rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)


@given(
    name=hst.sampled_from(sorted(BINARY)),
    partner=hst.sampled_from(["row", "row_2d", "column", "scalar"]),
    swap=hst.booleans(),
    s=hst.integers(1, 4),
    p=hst.integers(1, 4),
    seed=hst.integers(0, 2**16),
)
def test_binary_broadcast_gradients_match_finite_differences(
    name, partner, swap, s, p, seed
):
    # An (S, P) operand against each broadcast partner, in both orders; both
    # operands are sliced from psi, so each side's unbroadcast adjoint is checked.
    shape = {"row": (p,), "row_2d": (1, p), "column": (s, 1), "scalar": ()}[partner]
    rng = np.random.default_rng(seed)
    n = s * p
    w = rng.standard_normal((s, p))
    op = BINARY[name]

    def objective(x):
        full = ad.reshape(x[:n], (s, p))
        other = ad.reshape(x[n:], shape)
        out = op(other, full) if swap else op(full, other)
        return ad.sum(out * w)

    psi = away_from_zero(rng, n + int(np.prod(shape)))
    report = ad.evaluate_with_gradient(objective, psi)
    fd = ad.finite_difference_gradient(objective, psi)
    np.testing.assert_allclose(report.gradient, fd, rtol=1e-6, atol=1e-9)


@given(
    name=hst.sampled_from(sorted(UNARY)),
    s=hst.integers(1, 4),
    p=hst.integers(1, 4),
    seed=hst.integers(0, 2**16),
)
def test_unary_gradients_match_finite_differences(name, s, p, seed):
    op, positive_only = UNARY[name]
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((s, p))
    psi = away_from_zero(rng, s * p)
    if positive_only:
        psi = np.abs(psi)

    def objective(x):
        return ad.sum(op(ad.reshape(x, (s, p))) * w)

    report = ad.evaluate_with_gradient(objective, psi)
    fd = ad.finite_difference_gradient(objective, psi)
    np.testing.assert_allclose(report.gradient, fd, rtol=1e-6, atol=1e-9)



# -----------------------------------------------------------------------
# Non-elementwise primitives over generated shapes


def assert_tape_matches_finite_differences(objective, psi):
    report = ad.evaluate_with_gradient(objective, psi)
    fd = ad.finite_difference_gradient(objective, psi)
    np.testing.assert_allclose(report.gradient, fd, rtol=1e-5, atol=1e-8)


def spd_from(x, n):
    """M Mᵀ + n I from n² entries of x: every entry of x reaches the matrix."""
    m = ad.reshape(x, (n, n))
    return ad.matmul(m, ad.transpose(m)) + n * np.eye(n)


@given(
    a_2d=hst.booleans(),
    b_2d=hst.booleans(),
    m=hst.integers(1, 4),
    n=hst.integers(1, 4),
    q=hst.integers(1, 4),
    seed=hst.integers(0, 2**16),
)
def test_matmul_gradients_match_finite_differences(a_2d, b_2d, m, n, q, seed):
    a_shape = (m, n) if a_2d else (n,)
    b_shape = (n, q) if b_2d else (n,)
    size_a = int(np.prod(a_shape))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((np.zeros(a_shape) @ np.zeros(b_shape)).shape)

    def objective(x):
        a = ad.reshape(x[:size_a], a_shape)
        b = ad.reshape(x[size_a:], b_shape)
        return ad.sum(ad.matmul(a, b) * w)

    psi = rng.standard_normal(size_a + int(np.prod(b_shape)))
    assert_tape_matches_finite_differences(objective, psi)


@given(
    n=hst.integers(1, 4),
    rhs=hst.sampled_from([None, 1, 3]),
    pass_factor=hst.booleans(),
    seed=hst.integers(0, 2**16),
)
def test_solve_spd_gradients_match_finite_differences(n, rhs, pass_factor, seed):
    # rhs None is a vector right-hand side, otherwise a matrix of rhs columns.
    b_shape = (n,) if rhs is None else (n, rhs)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(b_shape)

    def objective(x):
        c = spd_from(x[: n * n], n)
        factor = scipy.linalg.cho_factor(ad._val(c), lower=True) if pass_factor else None
        b = ad.reshape(x[n * n :], b_shape)
        return ad.sum(ad.solve_spd(c, b, factor) * w)

    psi = rng.standard_normal(n * n + int(np.prod(b_shape)))
    assert_tape_matches_finite_differences(objective, psi)


@given(n=hst.integers(1, 5), pass_factor=hst.booleans(), seed=hst.integers(0, 2**16))
def test_logdet_spd_gradient_matches_finite_differences(n, pass_factor, seed):
    def objective(x):
        c = spd_from(x, n)
        factor = scipy.linalg.cho_factor(ad._val(c), lower=True) if pass_factor else None
        return ad.logdet_spd(c, factor)

    psi = np.random.default_rng(seed).standard_normal(n * n)
    assert_tape_matches_finite_differences(objective, psi)


@given(
    axis=hst.sampled_from([None, 0, 1]),
    s=hst.integers(1, 4),
    p=hst.integers(1, 4),
    seed=hst.integers(0, 2**16),
)
def test_logsumexp_and_sum_gradients_match_finite_differences(axis, s, p, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(np.sum(np.zeros((s, p)), axis=axis).shape)

    def objective(x):
        rows = ad.reshape(x, (s, p))
        out = ad.logsumexp(rows, axis=axis) * w
        return ad.sum(out) + ad.sum(ad.sum(rows * rows, axis=axis) * w)

    assert_tape_matches_finite_differences(objective, rng.standard_normal(s * p))


@given(
    index=hst.sampled_from(["int", "slice", "fancy", "row", "column"]),
    axis=hst.sampled_from([0, 1]),
    s=hst.integers(1, 4),
    p=hst.integers(1, 4),
    seed=hst.integers(0, 2**16),
)
def test_getitem_and_stack_gradients_match_finite_differences(index, axis, s, p, seed):
    # Fancy indices repeat an entry, so its adjoint must accumulate.
    idx = {
        "int": (s - 1, p - 1),
        "slice": (slice(None), slice(0, p, 2)),
        "fancy": ([0, s - 1, 0], [p - 1, 0, p - 1]),
        "row": s - 1,
        "column": (slice(None), 0),
    }[index]
    rng = np.random.default_rng(seed)
    w_item = rng.standard_normal(np.zeros((s, p))[idx].shape)
    w_stack = rng.standard_normal((3, s) if axis == 0 else (s, 3))

    def objective(x):
        rows = ad.reshape(x, (s, p))
        picked = ad.sum(ad.getitem(rows, idx) * w_item)
        columns = [ad.getitem(rows, (slice(None), j % p)) for j in range(3)]
        return picked + ad.sum(ad.stack(columns, axis=axis) * w_stack)

    assert_tape_matches_finite_differences(objective, rng.standard_normal(s * p))
