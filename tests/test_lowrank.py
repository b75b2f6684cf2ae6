"""Structured-covariance operations checked against dense factorizations."""

import contextlib

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given
from hypothesis import strategies as hst

from vifit.autodiff import MemberFailure
from vifit.lowrank import (
    CAPACITANCE_ROUNDOFF,
    EPS,
    LOG_TWO_PI,
    StructuredCov,
    _capacitance_cholesky,
    gaussian_draw_rows,
    lowrank_logpdf,
    lowrank_logpdf_and_vjp,
    structured_logpdf,
    woodbury_logdet,
    woodbury_solve,
)


def random_cov(rng, p=None, k=None):
    p = p if p is not None else int(rng.integers(1, 33))
    k = k if k is not None else int(rng.integers(0, min(p, 8) + 1))
    diag = np.exp(rng.standard_normal(p) * 0.7)
    factor = rng.standard_normal((p, k)) * rng.uniform(0.2, 1.5)
    return StructuredCov(diag=diag, factor=factor)


def test_identity_covariance_solve():
    cov = StructuredCov(diag=np.ones(4), factor=np.zeros((4, 0)))
    v = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_array_equal(woodbury_solve(cov, v), v)


def test_rank_one_solve_known_value():
    cov = StructuredCov(diag=np.ones(2), factor=np.array([[1.0], [0.0]]))
    np.testing.assert_allclose(
        woodbury_solve(cov, np.array([1.0, 0.0])), [0.5, 0.0]
    )


def test_logdet_trivial_cases():
    assert woodbury_logdet(StructuredCov(diag=np.ones(3), factor=np.zeros((3, 0)))) == 0.0
    cov = StructuredCov(diag=np.ones(2), factor=np.array([[1.0], [0.0]]))
    np.testing.assert_allclose(woodbury_logdet(cov), np.log(2.0))


def test_solve_logdet_logpdf_match_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        cov = random_cov(rng)
        p = cov.dim
        dense = cov.dense()
        v = rng.standard_normal(p)
        expected = np.linalg.solve(dense, v)
        got = woodbury_solve(cov, v)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

        sign, expected_logdet = np.linalg.slogdet(dense)
        assert sign > 0
        np.testing.assert_allclose(woodbury_logdet(cov), expected_logdet, rtol=1e-10)

        mean = rng.standard_normal(p)
        theta = rng.standard_normal(p)
        expected_pdf = scipy.stats.multivariate_normal(mean=mean, cov=dense).logpdf(theta)
        np.testing.assert_allclose(
            structured_logpdf(theta, mean, cov), expected_pdf, rtol=1e-9, atol=1e-9
        )


def test_solve_is_inverse_of_multiply():
    rng = np.random.default_rng(1)
    for _ in range(20):
        cov = random_cov(rng)
        v = rng.standard_normal(cov.dim)
        sigma_v = cov.dense() @ v
        np.testing.assert_allclose(woodbury_solve(cov, sigma_v), v, rtol=1e-9, atol=1e-11)


def test_logdet_invariant_under_factor_rotation():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cov = random_cov(rng, p=12, k=4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = StructuredCov(diag=cov.diag, factor=cov.factor @ q)
        np.testing.assert_allclose(
            woodbury_logdet(rotated), woodbury_logdet(cov), rtol=1e-9
        )


def test_sample_zero_noise_returns_mean():
    rng = np.random.default_rng(3)
    cov = random_cov(rng, p=6, k=2)
    mean = rng.standard_normal(6)
    theta = gaussian_draw_rows(
        mean, np.sqrt(cov.diag), cov.factor, np.zeros(6), np.zeros(2)
    )
    np.testing.assert_array_equal(theta, mean)


def test_sample_identity_covariance_is_shift():
    cov = StructuredCov(diag=np.ones(5), factor=np.zeros((5, 0)))
    z = np.random.default_rng(4).standard_normal(5)
    theta = gaussian_draw_rows(
        np.zeros(5), np.sqrt(cov.diag), cov.factor, z, np.zeros(0)
    )
    np.testing.assert_array_equal(theta, z)


def test_sample_moments_match_covariance():
    rng = np.random.default_rng(5)
    cov = random_cov(rng, p=6, k=3)
    mean = rng.standard_normal(6)
    n = 200_000
    draws = gaussian_draw_rows(
        mean,
        np.sqrt(cov.diag),
        cov.factor,
        rng.standard_normal((n, 6)),
        rng.standard_normal((n, 3)),
    )
    emp_mean = draws.mean(axis=0)
    emp_cov = np.cov(draws.T)
    dense = cov.dense()
    assert np.linalg.norm(emp_cov - dense) / np.linalg.norm(dense) < 2e-2
    np.testing.assert_allclose(emp_mean, mean, atol=4 * np.sqrt(dense.max() / n) * 3)


def test_logpdf_at_mean():
    np.testing.assert_allclose(
        structured_logpdf(
            np.zeros(1), np.zeros(1), StructuredCov(diag=np.ones(1), factor=np.zeros((1, 0)))
        ),
        -0.5 * np.log(2 * np.pi),
    )
    rng = np.random.default_rng(6)
    cov = random_cov(rng, p=4, k=2)
    mean = rng.standard_normal(4)
    np.testing.assert_allclose(
        structured_logpdf(mean, mean, cov),
        -0.5 * (4 * np.log(2 * np.pi) + woodbury_logdet(cov)),
    )


def test_logpdf_batch_rows_match_single_calls():
    rng = np.random.default_rng(7)
    cov = random_cov(rng, p=5, k=2)
    mean = rng.standard_normal(5)
    thetas = rng.standard_normal((8, 5))
    batch = structured_logpdf(thetas, mean, cov)
    singles = [structured_logpdf(t, mean, cov) for t in thetas]
    np.testing.assert_allclose(batch, singles, rtol=1e-13)


def test_lowrank_logpdf_matches_structured_logpdf():
    rng = np.random.default_rng(8)
    cov = random_cov(rng, p=7, k=3)
    mean = rng.standard_normal(7)
    theta = rng.standard_normal((4, 7))
    np.testing.assert_allclose(
        lowrank_logpdf(theta, mean, cov.diag, cov.factor),
        structured_logpdf(theta, mean, cov),
        rtol=1e-12,
    )


def test_logpdf_integrates_to_one_1d_and_2d():
    # 1-D, diagonal
    cov1 = StructuredCov(diag=np.array([0.7]), factor=np.zeros((1, 0)))
    xs = np.linspace(-8, 8, 4001)
    density = np.exp(structured_logpdf(xs[:, None], np.array([0.3]), cov1))
    assert abs(np.trapezoid(density, xs) - 1.0) < 1e-4

    # 2-D with a rank-1 correction
    cov2 = StructuredCov(diag=np.array([0.5, 1.2]), factor=np.array([[0.8], [-0.6]]))
    grid = np.linspace(-9, 9, 401)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    dens = np.exp(structured_logpdf(pts, np.zeros(2), cov2)).reshape(xx.shape)
    total = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
    assert abs(total - 1.0) < 1e-4


def test_invalid_diag_rejected():
    with pytest.raises(ValueError):
        StructuredCov(diag=np.array([1.0, 0.0]), factor=np.zeros((2, 0)))
    with pytest.raises(ValueError):
        StructuredCov(diag=np.array([1.0, -2.0]), factor=np.zeros((2, 0)))


def test_degenerate_capacitance_surfaces_error():
    # A tiny diagonal against a huge factor drives the capacitance matrix
    # to a non-finite state instead of being silently regularized; so does a
    # diagonal that underflowed to 0 (exp(−800)) in the log-density.
    diag = np.full(3, 1e-320)
    factor = np.full((3, 2), 1e160)
    cov = StructuredCov(diag=diag, factor=factor)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(MemberFailure, match="not finite"):
            woodbury_solve(cov, np.ones(3))
        for u in (np.eye(3, 2), np.zeros((3, 2))):
            with pytest.raises(MemberFailure, match="not finite"):
                lowrank_logpdf(np.ones((2, 3)), np.zeros(3), np.exp(np.full(3, -800.0)), u)


def singular_probe_factor():
    """Two equal columns of norm 1e9 whose entries are not powers of two.

    C = I + UᵀU rounds to a rank-one matrix with entries near 1e18; its
    Cholesky factorization succeeds, with a last pivot that is rounding
    noise rather than anything near the true value.
    """
    w = np.random.default_rng(0).standard_normal(4)
    v = 1e9 * w / np.linalg.norm(w)
    return np.stack([v, v], axis=1)


def test_numerically_singular_capacitance_is_rejected():
    factor = singular_probe_factor()
    cov = StructuredCov(diag=np.ones(4), factor=factor)
    with pytest.raises(MemberFailure, match="singular"):
        structured_logpdf(np.zeros(4), np.zeros(4), cov)
    with pytest.raises(MemberFailure, match="singular"):
        woodbury_logdet(cov)
    # The closed-form gradient path applies the same test.
    rows = np.random.default_rng(1).standard_normal((2, 4))
    with pytest.raises(MemberFailure, match="singular"):
        lowrank_logpdf_and_vjp(rows, np.zeros(4), np.ones(4), factor)


def test_capacitance_too_large_for_working_precision_is_rejected():
    # P = K = 1, a = 1, u = 1e7: Σ = 1 + 1e14 is perfectly conditioned, and
    # C = 1 + u²/a has its only pivot far above the singularity rule, but
    # Woodbury's Σ⁻¹ = a⁻¹ − a⁻¹u C⁻¹ u a⁻¹ cancels 14 digits.
    factor = np.array([[1e7]])
    cov = StructuredCov(diag=np.ones(1), factor=factor)
    assert EPS * cov.dense()[0, 0] > CAPACITANCE_ROUNDOFF
    with pytest.raises(MemberFailure, match="too large"):
        woodbury_solve(cov, np.ones(1))
    with pytest.raises(MemberFailure, match="too large"):
        lowrank_logpdf(np.zeros((2, 1)), np.zeros(1), np.ones(1), factor)
    with pytest.raises(MemberFailure, match="too large"):
        lowrank_logpdf_and_vjp(np.zeros((2, 1)), np.zeros(1), np.ones(1), factor)


@pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stacked"])
@pytest.mark.parametrize("side", [-1, 1], ids=["under", "over"])
def test_capacitance_roundoff_bound_is_pinned(stacked, side):
    # P = K = 1, a = 1 and u² = t − 1 make C = t, with eps·t a millionth
    # under or over CAPACITANCE_ROUNDOFF.  The pivot √t is far from the
    # singularity rule, so only the roundoff bound decides.  Stacked, the
    # first component has C = 2 and only the second one is at the bound.
    t = CAPACITANCE_ROUNDOFF / EPS * (1.0 + side * 1e-6)
    u = np.sqrt(t - 1.0)
    theta, mean, a, factor = np.zeros((2, 1)), np.zeros(1), np.ones(1), np.array([[u]])
    if stacked:
        mean, a, factor = np.zeros((2, 1)), np.ones((2, 1)), np.array([[[1.0]], [[u]]])
    if side < 0:
        log_q, _ = lowrank_logpdf_and_vjp(theta, mean, a, factor)
        assert np.isfinite(log_q).all()
        return
    with pytest.raises(MemberFailure, match="too large for working precision"):
        lowrank_logpdf_and_vjp(theta, mean, a, factor)


def failing_capacitance(kind):
    """(a, U) at P = 4, K = 2 whose capacitance fails in the given way."""
    a, factor = np.ones(4), np.zeros((4, 2))
    if kind == "not finite":  # A underflows to 0, so UᵀA⁻¹U is 0/0
        a = np.exp(np.full(4, -800.0))
    elif kind == "singular":
        factor = singular_probe_factor()
    elif kind == "factorization failed":  # 1 + 2^60 == 2^60: C is exactly singular
        factor[0, :] = 2.0**30
    else:
        factor[0, 0] = 1e7
    return a, factor


CAPACITANCE_FAILURES = {
    "not finite": "capacitance is not finite",
    "singular": "capacitance matrix is singular to working precision",
    "factorization failed": "capacitance factorization failed: Matrix is not positive definite",
    "too large": (  # C = 1 + 1e14 at the bad component
        f"capacitance is too large for working precision: eps·max(diag C) = "
        f"{EPS * (1.0 + 1e14):.1e} exceeds {CAPACITANCE_ROUNDOFF:.0e}"
    ),
}


def stacked_failure(kinds: dict) -> MemberFailure:
    """The error of a three-component stack at P = 4, K = 2 whose component
    j fails as ``kinds[j]`` says, and every other component is sound.

    Only a "not finite" component warns, in the kernel's own arithmetic
    before C is factorized; LAPACK's failure raises no warning, which the
    suite's ``filterwarnings = error`` would turn into a test failure."""
    rng = np.random.default_rng(3)
    theta = rng.standard_normal((3, 4))
    mean = rng.standard_normal((3, 4))
    a = np.exp(rng.uniform(-1.0, 1.0, (3, 4)))
    factor = 0.5 * np.sqrt(a)[..., None] * rng.standard_normal((3, 4, 2))
    for j, kind in kinds.items():
        a[j], factor[j] = failing_capacitance(kind)
    quiet = "not finite" in kinds.values()
    with np.errstate(divide="ignore", invalid="ignore") if quiet else contextlib.nullcontext():
        with pytest.raises(MemberFailure) as stacked:
            lowrank_logpdf_and_vjp(theta, mean, a, factor)
        if len(kinds) == 1:  # one bad component fails as it does alone
            (j,) = kinds
            with pytest.raises(MemberFailure) as alone:
                lowrank_logpdf_and_vjp(theta, mean[j], a[j], factor[j])
            assert str(stacked.value) == str(alone.value)
    return stacked.value


@pytest.mark.parametrize("bad_at", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(CAPACITANCE_FAILURES))
def test_stacked_capacitance_fails_as_its_bad_component_alone(kind, bad_at):
    # Three components with one bad one: the stack raises, whole, the
    # message the bad component raises on its own, wherever it stands.
    assert str(stacked_failure({bad_at: kind})) == CAPACITANCE_FAILURES[kind]


@pytest.mark.parametrize(
    "first,second",
    [(x, y) for x in sorted(CAPACITANCE_FAILURES) for y in sorted(CAPACITANCE_FAILURES) if x != y],
)
def test_stack_names_its_first_failing_component(first, second):
    # Components 1 and 2 fail in different ways: the stack raises component
    # 1's message, also where only component 2 fails LAPACK's factorization
    # and component 1 fails a pivot test after it.
    assert str(stacked_failure({1: first, 2: second})) == CAPACITANCE_FAILURES[first]


@given(
    k=hst.integers(0, 6),
    bad=hst.sampled_from([np.nan, np.inf, -np.inf]),
    where=hst.sampled_from(["theta", "a_diag", "factor"]),
    seed=hst.integers(0, 2**16),
)
@example(k=2, bad=np.nan, where="factor", seed=2)
@example(k=2, bad=np.nan, where="theta", seed=2)
def test_non_finite_input_spoils_its_row_or_fails_the_member(k, bad, where, seed):
    # One rule at every K: a non-finite θ row gets a non-finite log q and
    # leaves every other row as it was; a non-finite covariance parameter
    # may fail the factorization, and then only as MemberFailure.
    assume(k or where != "factor")
    rng = np.random.default_rng(seed)
    p, s = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    mean = rng.standard_normal(p)
    a = np.exp(rng.uniform(-2.0, 2.0, p))
    factor = np.sqrt(a)[:, None] * rng.standard_normal((p, k)) * 0.5
    theta = mean + rng.standard_normal((s, p))
    clean = lowrank_logpdf(theta, mean, a, factor)
    spoiled = {"theta": theta, "a_diag": a, "factor": factor}[where]
    at = int(rng.integers(spoiled.size))
    spoiled.flat[at] = bad
    with np.errstate(all="ignore"):
        if where == "theta":
            row = at // p
            log_q = lowrank_logpdf(theta, mean, a, factor)
            assert not np.isfinite(log_q[row])
            others = np.arange(s) != row
            np.testing.assert_array_equal(log_q[others], clean[others])
            return
        with contextlib.suppress(MemberFailure):
            _, vjp = lowrank_logpdf_and_vjp(theta, mean, a, factor)
            vjp(np.ones(s))


def test_numpy_has_the_lapack_gufuncs_the_kernel_calls():
    # The kernel calls numpy.linalg's private gufuncs, not the public
    # wrappers (see lowrank's module notes).  Checked with numpy 2.4.6
    # only; pyproject's floor, numpy>=1.26, is unverified.
    from numpy.linalg import _umath_linalg

    assert "d->d" in _umath_linalg.cholesky_lo.types
    assert "dd->d" in _umath_linalg.solve.types
    assert (_umath_linalg.cholesky_lo.signature, _umath_linalg.solve.signature) == (
        "(m,m)->(m,m)",
        "(m,m),(m,n)->(m,n)",
    )


@given(
    k=hst.integers(1, 10),
    extra=hst.integers(0, 5),
    m=hst.sampled_from([None, 1, 2, 3]),
    seed=hst.integers(0, 2**16),
)
def test_capacitance_factor_and_solve_equal_numpy_linalg_bit_for_bit(k, extra, m, seed):
    # The kernel's Cholesky factor of C = I + UᵀA⁻¹U and its Σ⁻¹U = BC⁻¹,
    # read as d_factor at θ = mean with log q's adjoint −1, are the bits
    # np.linalg.cholesky and np.linalg.solve give, with and without a
    # leading component axis.
    p = k + extra
    rng = np.random.default_rng(seed)
    lead = () if m is None else (m,)
    at = rng.standard_normal(p)
    mean = np.broadcast_to(at, lead + (p,))
    a = np.exp(rng.uniform(-2.0, 2.0, lead + (p,)))
    factor = np.sqrt(a)[..., None] * rng.standard_normal(lead + (p, k)) * rng.uniform(0.1, 3.0)
    b = factor / a[..., None]
    cap = np.eye(k) + factor.mT @ b
    assert np.array_equal(_capacitance_cholesky(cap), np.linalg.cholesky(cap))
    logq_bar = np.full(lead + (1,), -1.0)
    d_factor = lowrank_logpdf_and_vjp(at[None], mean, a, factor)[1](logq_bar)[2]
    assert np.array_equal(d_factor, np.linalg.solve(cap, b.mT).mT)


# -----------------------------------------------------------------------
# Closed-form log-density and adjoint against dense algebra


@given(
    dims=hst.integers(1, 12).flatmap(lambda p: hst.tuples(hst.just(p), hst.integers(0, p + 2))),
    s=hst.integers(1, 6),
    seed=hst.integers(0, 2**16),
)
def test_logpdf_and_vjp_match_dense_at_unrelated_rows(dims, s, seed):
    # K runs up to P + 2, so over-complete factors are included.  Each row
    # of U is on the scale of its diagonal entry, so C stays well
    # conditioned while the diagonal spans six decades.  The rows come from
    # a wide Student-t, not from the Gaussian evaluated.  The reference is
    # the adjoint formula on the dense Σ: with v_k = Σ⁻¹(θ_k − mean),
    # −v_k, −½(diag Σ⁻¹ − v_k²) and −Σ⁻¹U + v_k v_kᵀU, each weighted by
    # log q's adjoint.
    p, k = dims
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(p)
    a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), p))
    factor = np.sqrt(a)[:, None] * rng.standard_normal((p, k)) * rng.uniform(0.1, 3.0)
    theta = mean + 3.0 * rng.standard_t(3, (s, p))
    logq_bar = rng.standard_normal(s)

    log_q, vjp = lowrank_logpdf_and_vjp(theta, mean, a, factor)
    expected = lowrank_logpdf(theta, mean, a, factor)
    np.testing.assert_allclose(log_q, expected, rtol=1e-12)

    dense = np.diag(a) + factor @ factor.T
    v = np.linalg.solve(dense, (theta - mean).T).T
    sinv_diag = np.diag(np.linalg.solve(dense, np.eye(p)))
    sinv_u = np.linalg.solve(dense, factor)
    want = [
        -logq_bar[:, None] * v,
        -0.5 * (logq_bar.sum() * sinv_diag - logq_bar @ (v * v)),
        -logq_bar.sum() * sinv_u + (logq_bar[:, None] * v).T @ (v @ factor),
    ]
    d_theta, d_a, d_factor = vjp(logq_bar)
    got = [d_theta, d_a, np.zeros((p, 0)) if d_factor is None else d_factor]
    for name, g, w in zip(("theta", "a", "factor"), got, want):
        assert np.linalg.norm(g - w) <= 1e-10 * np.linalg.norm(w), name


@given(
    dims=hst.integers(1, 8).flatmap(lambda p: hst.tuples(hst.just(p), hst.integers(0, p + 1))),
    m=hst.integers(1, 4),
    s=hst.integers(1, 6),
    seed=hst.integers(0, 2**16),
)
@example(dims=(3, 0), m=2, s=4, seed=0)
def test_stacked_kernel_slices_equal_each_component_alone(dims, m, s, seed):
    # Slice m of the stacked log q and of its three adjoints is bit for bit
    # what component m gives on its own, K = 0 included.
    p, k = dims
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal((m, p))
    a = np.exp(rng.uniform(-2.0, 2.0, (m, p)))
    factor = np.sqrt(a)[..., None] * rng.standard_normal((m, p, k)) * rng.uniform(0.1, 2.0)
    theta = rng.standard_normal((s, p)) * 2.0
    logq_bar = rng.standard_normal((m, s))

    log_q, vjp = lowrank_logpdf_and_vjp(theta, mean, a, factor)
    adjoints = vjp(logq_bar)
    assert log_q.shape == (m, s)
    assert [x is None for x in adjoints] == [False, False, k == 0]
    point = lowrank_logpdf(theta[0], mean, a, factor)
    assert point.shape == (m,)
    for j in range(m):
        alone_q, alone_vjp = lowrank_logpdf_and_vjp(theta, mean[j], a[j], factor[j])
        assert np.array_equal(log_q[j], alone_q)
        for got, want in zip(adjoints, alone_vjp(logq_bar[j])):
            assert (got is None and want is None) or np.array_equal(got[j], want)
        assert point[j] == lowrank_logpdf(theta[0], mean[j], a[j], factor[j])


# -----------------------------------------------------------------------
# Woodbury against dense algebra over ill-conditioned inputs


@given(
    dims=hst.integers(1, 8).flatmap(lambda p: hst.tuples(hst.just(p), hst.integers(1, p + 2))),
    factor_scale=hst.floats(-4.0, 4.0),
    collinear=hst.floats(-12.0, 0.0),
    seed=hst.integers(0, 2**16),
)
def test_woodbury_kernels_match_dense_on_ill_conditioned_inputs(
    dims, factor_scale, collinear, seed
):
    # Diagonals span 1e-8 to 1e8 and U's columns are one column plus a
    # 10^collinear relative perturbation.  The Woodbury identity subtracts
    # terms of the size of C = I + UᵀA⁻¹U, so its error grows with both the
    # dense condition number and max diag C, not with cond(Σ) alone: at
    # P = K = 1, u²/a = 1e14 leaves Σ = a + u² perfectly conditioned and the
    # solve off by 1e-2 relative.  Over 8000 random draws the errors stayed
    # below 5.3 eps (cond(Σ) + max diag C).
    p, k = dims
    rng = np.random.default_rng(seed)
    diag = 10.0 ** rng.uniform(-8.0, 8.0, p)
    base = rng.standard_normal(p) * 10.0**factor_scale
    noise = rng.standard_normal((p, k)) * np.abs(base).max() * 10.0**collinear
    factor = base[:, None] * (1.0 + 0.1 * rng.standard_normal(k)) + noise
    cov = StructuredCov(diag=diag, factor=factor)
    cap = np.eye(k) + factor.T @ (factor / diag[:, None])
    dense = cov.dense()
    v = rng.standard_normal(p)
    mean = rng.standard_normal(p)
    rows = mean + rng.standard_normal((3, p)) @ np.linalg.cholesky(dense).T
    try:
        solved, logdet = woodbury_solve(cov, v), woodbury_logdet(cov)
        logpdf = lowrank_logpdf(rows, mean, diag, factor)
    except MemberFailure:
        # The guard fires only where C is singular to working precision or
        # too large for it (eps·max diag C above CAPACITANCE_ROUNDOFF).
        assert (
            np.linalg.cond(cap) > 0.01 / np.finfo(float).eps
            or EPS * cap.diagonal().max() > CAPACITANCE_ROUNDOFF
        )
        return
    tol = 16 * np.finfo(float).eps * (np.linalg.cond(dense) + cap.diagonal().max())
    dense_solved = np.linalg.solve(dense, v)
    assert np.linalg.norm(solved - dense_solved) <= tol * np.linalg.norm(dense_solved)
    sign, dense_logdet = np.linalg.slogdet(dense)
    assert sign > 0 and abs(logdet - dense_logdet) <= tol * max(1.0, abs(dense_logdet))
    r = rows - mean
    quad = np.einsum("ij,ij->i", r, np.linalg.solve(dense, r.T).T)
    dense_logpdf = -0.5 * (p * LOG_TWO_PI + dense_logdet + quad)
    assert np.all(np.abs(logpdf - dense_logpdf) <= tol * np.maximum(1.0, np.abs(dense_logpdf)))
