"""Tests for the reverse-mode tape: exactness, finite differences, errors.

The tape records one node (``_node``), as ``trainer.elbo_graph`` does: its
edges go to leaves and carry exact vector-Jacobian products, and
``backward`` sums them per leaf.  These tests build such nodes by hand,
with repeated edges to one leaf, and check that a deeper graph is refused.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

import vifit.autodiff as ad
import vifit.families as fam
import vifit.models as mod
import vifit.trainer as tr
from vifit.lowrank import lowrank_logpdf, lowrank_logpdf_and_vjp


def one_node(x, value, partials):
    """``value(x)`` recorded as ``trainer.elbo_graph`` records the ELBO: a
    float at a plain x, else one node with an edge to x per entry of
    ``partials``, each carrying g times that partial gradient at x."""
    xv = ad._val(x)
    out = value(xv)
    if not isinstance(x, ad.Var):
        return float(out)
    return ad._node("f", out, [(x, lambda g, d=d: g * d(xv)) for d in partials])


def dot(w, x):
    return ad._node("dot", w @ x.value, [(x, lambda g: g * w)])


def test_square_value_and_gradient():
    # x·x is one node with an edge per factor, both to x: their adjoints sum.
    report = ad.evaluate_with_gradient(
        lambda x: one_node(x, lambda v: v[0] * v[0], [lambda v: v, lambda v: v]),
        np.array([3.0]),
    )
    assert report.value == 9.0
    np.testing.assert_array_equal(report.gradient, [6.0])


def test_product_rule():
    # x₀x₁ with one edge per factor, each carrying the other factor.
    partials = [lambda v: np.array([v[1], 0.0]), lambda v: np.array([0.0, v[0]])]
    report = ad.evaluate_with_gradient(
        lambda x: one_node(x, lambda v: v[0] * v[1], partials), np.array([2.0, 5.0])
    )
    assert report.value == 10.0
    np.testing.assert_array_equal(report.gradient, [5.0, 2.0])


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


# The one NaN arithmetic makes on this machine.  Where two NaNs of different
# payloads meet, which one an add keeps depends on the operand order the
# compiler chose, so only inputs that mix payloads compare NaN for NaN.
with np.errstate(invalid="ignore"):
    DEFAULT_NAN = np.subtract(np.inf, np.inf)
ROW_SUM_SPECIALS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310, -1e-308]


@given(
    n=hst.one_of(hst.integers(1, 16), hst.sampled_from([17, 24, 100, 128, 129, 200])),
    rows=hst.sampled_from([1, 2, 16, ad.ROW_SUMS_MIN_ROWS - 1, ad.ROW_SUMS_MIN_ROWS, 1000]),
    stack=hst.sampled_from([(), (1,), (2,), (3,)]),
    special_frac=hst.sampled_from([0.0, 0.02, 0.3]),
    nan=hst.sampled_from(["default", "mixed"]),
    seed=hst.integers(0, 2**16),
)
def test_row_sums_is_numpys_row_reduce_bit_for_bit(n, rows, stack, special_frac, nan, seed):
    # Magnitudes from 1e-12 to 1e12 of either sign, so that any other order
    # of the additions rounds differently, with signed zeros, infinities,
    # subnormals and NaNs mixed in.  Short rows take the tree, long rows and
    # few rows np.add.reduce itself; every bit agrees either way.
    rng = np.random.default_rng(seed)
    shape = (*stack, rows, n)
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-12.0, 12.0, shape)
    nans = [DEFAULT_NAN] if nan == "default" else [DEFAULT_NAN, np.nan, -np.nan]
    special = rng.random(shape) < special_frac
    x[special] = rng.choice(ROW_SUM_SPECIALS + nans, shape)[special]
    x[..., 0, :] = -0.0  # numpy's sum of −0.0s is +0.0
    with np.errstate(invalid="ignore"):
        expected = np.add.reduce(x, axis=-1)
        got = ad.row_sums(x.copy())
    assert got.shape == expected.shape
    if nan == "mixed":
        got, expected = (np.where(np.isnan(a), DEFAULT_NAN, a) for a in (got, expected))
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def sum_in_sequence(row: list) -> float:
    total = -0.0
    for value in row:
        total += value
    return total


def numpy_pairwise_sum(row: list) -> float:
    """numpy's pairwise_sum of a float64 row, in Python floats: in sequence
    from −0.0 below 8 entries, eight strided accumulators up to 128 with the
    tail added after, and two halves cut at a multiple of 8 above that."""
    n = len(row)
    if n < 8:
        return sum_in_sequence(row)
    if n <= 128:
        r = row[:8]
        whole = n - n % 8
        for i in range(8, whole, 8):
            r = [acc + value for acc, value in zip(r, row[i : i + 8])]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return sum_in_sequence([tree, *row[whole:]])
    half = n // 2 - (n // 2) % 8
    return numpy_pairwise_sum(row[:half]) + numpy_pairwise_sum(row[half:])


def test_numpy_sums_rows_in_the_pairwise_order_row_sums_reproduces():
    # ad.row_sums gives np.add.reduce's bits only while numpy reduces a row
    # of n as 0 + pairwise_sum (see its docstring).  Checked with numpy
    # 2.4.6 only.  The rows mix magnitudes, so a sum in sequence from the
    # last entry rounds differently at every n ≥ 3, and a change of order
    # fails here by name.
    rng = np.random.default_rng(0)
    for n in [*range(1, 140), 200, 256, 300]:
        x = rng.choice([-1.0, 1.0], (32, n)) * 10.0 ** rng.uniform(-12.0, 12.0, (32, n))
        rows = x.tolist()
        expected = [0.0 + numpy_pairwise_sum(row) for row in rows]
        assert np.add.reduce(x, axis=-1).tolist() == expected
        if n >= 3:
            assert expected != [0.0 + sum_in_sequence(row[::-1]) for row in rows]


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
    # A node whose edges carry c_f ∇f and c_g ∇g gives c_f ∇f + c_g ∇g,
    # with f = w·sin(Ax) and g = w·(x ⊙ sin x).
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    w = rng.standard_normal(4)

    def f(v):
        return w @ np.sin(a @ v)

    def grad_f(v):
        return (w * np.cos(a @ v)) @ a

    def g(v):
        return w @ (v * np.sin(v))

    def grad_g(v):
        return w * (np.sin(v) + v * np.cos(v))

    psi = rng.standard_normal(4)
    gf = ad.evaluate_with_gradient(lambda x: one_node(x, f, [grad_f]), psi).gradient
    gg = ad.evaluate_with_gradient(lambda x: one_node(x, g, [grad_g]), psi).gradient
    np.testing.assert_allclose(gf, ad.finite_difference_gradient(f, psi), rtol=1e-6)
    np.testing.assert_allclose(gg, ad.finite_difference_gradient(g, psi), rtol=1e-6)
    for c_f, c_g in rng.standard_normal((5, 2)):
        both = ad.evaluate_with_gradient(
            lambda x: one_node(
                x,
                lambda v: c_f * f(v) + c_g * g(v),
                [lambda v: c_f * grad_f(v), lambda v: c_g * grad_g(v)],
            ),
            psi,
        )
        np.testing.assert_allclose(both.gradient, c_f * gf + c_g * gg, rtol=1e-12, atol=1e-15)


def test_determinism_bit_identical():
    # The node the gate differentiates, for an sN and an sGMM: two
    # evaluations at the same psi and noise give the same bits.
    spec = mod.RbfModelSpec.regular(5, noise_sigma=0.4)
    problem, _ = mod.make_rbf_dataset(spec, 20, seed=5)
    rng = np.random.default_rng(6)
    for tag, kwargs in (
        ("structured_normal", {"rank": 2}),
        ("mixture", {"rank": 2, "components": 2}),
    ):
        state = fam.init_family(tag, problem.model_shape(), rng, **kwargs)
        noise = fam.draw_noise(
            state, "paired", 8, rng, stratify_components=isinstance(state, fam.MixtureState)
        )
        psi = fam.pack(state)
        first, second = (
            ad.evaluate_with_gradient(lambda p: tr.elbo_graph(state, p, noise, problem), psi)
            for _ in range(2)
        )
        assert first.value == second.value
        np.testing.assert_array_equal(first.gradient, second.gradient)


def test_nonfinite_intermediate_names_the_primitive():
    def objective(x):
        return ad._node("log", np.log(x.value[0] - 1.0), [(x, lambda g: g / (x.value - 1.0))])

    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ad.MemberFailure, match="log"):
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
    report = ad.evaluate_with_gradient(lambda x: dot(np.eye(5)[0], x), np.ones(5))
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


def test_backward_rejects_a_deeper_graph():
    # The tape records one node.  A node over a node would need a graph
    # walk, so backward refuses it rather than give a partial gradient,
    # also when the node has an edge to a leaf as well.
    def twice(inner, *edges):
        return ad._node("twice", 2.0 * inner.value, [(inner, lambda g: 2.0 * g), *edges])

    x = ad.Var(np.ones(2))
    for out in (twice(dot(np.arange(2.0), x)), twice(dot(np.arange(2.0), x), (x, lambda g: g))):
        with pytest.raises(ValueError, match="one node"):
            ad.backward(out, [x])
    with pytest.raises(ValueError, match="one node"):
        ad.evaluate_with_gradient(lambda v: twice(dot(np.ones(2), v)), np.ones(2))


TERMS = {
    # name: (value, gradient) of a scalar term of x, given a matrix A and weights w
    "linear": (lambda a, w, x: w @ (a @ x), lambda a, w, x: w @ a),
    "sin": (lambda a, w, x: w @ np.sin(a @ x), lambda a, w, x: (w * np.cos(a @ x)) @ a),
    "quadratic": (lambda a, w, x: x @ (a @ x), lambda a, w, x: (a + a.T) @ x),
}


@given(
    ops=hst.lists(hst.sampled_from(sorted(TERMS)), min_size=1, max_size=6),
    p=hst.integers(1, 4),
    seed=hst.integers(0, 2**16),
)
def test_backward_over_generated_graphs_matches_finite_differences(ops, p, seed):
    # One node whose value sums the generated terms, repeats allowed, with
    # one edge per term, every edge to x: backward sums the edges' adjoints.
    rng = np.random.default_rng(seed)
    terms = [(*TERMS[op], 0.5 * rng.standard_normal((p, p)), rng.standard_normal(p)) for op in ops]

    def objective(x):
        return one_node(
            x,
            lambda v: sum(f(a, w, v) for f, _, a, w in terms),
            [lambda v, d=d, a=a, w=w: d(a, w, v) for _, d, a, w in terms],
        )

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
    # cholesky is numpy's Cholesky, bit for bit.  cho_solve's residual
    # against c is a backward error of a few eps: ‖c x − b‖ ≤ 4·n·eps·‖c‖‖x‖
    # (measured: at most 2.2·eps over 20000 such draws).
    rng = np.random.default_rng(seed)
    c = ill_conditioned_spd(n, log_cond, scale, rng)
    b = rng.standard_normal((n,) if rhs is None else (n, rhs))
    chol = ad.cholesky(c, "c")
    np.testing.assert_array_equal(chol, np.linalg.cholesky(c))
    x = ad.cho_solve(chol, b).reshape(n, -1)
    residual = np.linalg.norm(c @ x - b.reshape(n, -1), axis=0)
    bound = 4 * n * np.finfo(float).eps * np.linalg.norm(c, 2) * np.linalg.norm(x, axis=0)
    assert np.all(residual <= bound)


@given(
    n=hst.integers(1, 12),
    bad=hst.sampled_from([np.nan, np.inf, -np.inf, None]),
    log_neg=hst.floats(-6.0, 0.0),
    what=hst.sampled_from(["covariance", "posterior precision", "marginal covariance"]),
    seed=hst.integers(0, 2**16),
)
def test_cholesky_raises_member_failure_naming_what(n, bad, log_neg, what, seed):
    # A non-finite entry anywhere, the upper triangle that numpy never reads
    # included, fails before factorizing.  Otherwise c is indefinite: its
    # smallest eigenvalue is −10^log_neg of its largest, far beyond the few
    # eps of rounding a Cholesky factorization can absorb.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(1e-3, 1.0, n)
    eigs[rng.integers(n)] = -(10.0**log_neg)
    c = (q * eigs) @ q.T
    c = 0.5 * (c + c.T)
    if bad is None:
        expected = f"{what} is not positive definite: "
    else:
        c[rng.integers(n), rng.integers(n)] = bad
        expected = f"{what} is not finite"
    with pytest.raises(ad.MemberFailure) as err:
        ad.cholesky(c, what)
    assert str(err.value).startswith(expected)
    assert err.value.step is None
