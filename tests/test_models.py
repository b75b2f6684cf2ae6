"""Model, likelihood, prior, and dataset tests."""

import math

import numpy as np
import pytest

import vifit.autodiff as ad
import vifit.models as mod


def small_problem(seed=0, n=20, k=5, sigma=0.5):
    spec = mod.RbfModelSpec.regular(k, noise_sigma=sigma)
    return mod.make_rbf_dataset(spec, n, seed=seed)


# -----------------------------------------------------------------------
# design matrix


def test_design_entry_at_center_is_one():
    spec = mod.RbfModelSpec.regular(4)
    design = mod.rbf_design_matrix(spec.centers, spec)
    np.testing.assert_allclose(np.diag(design), 1.0)


def test_design_entry_one_bandwidth_away():
    spec = mod.RbfModelSpec(centers=np.array([0.0]), bandwidth=0.3, noise_sigma=0.1)
    val = mod.rbf_design_matrix(np.array([0.3]), spec)[0, 0]
    assert math.isclose(val, math.exp(-0.5), rel_tol=1e-12)


def test_design_matches_scalar_oracle_loop():
    spec = mod.RbfModelSpec.regular(10)
    xs = np.linspace(-1, 1, 5)
    design = mod.rbf_design_matrix(xs, spec)
    for n, x in enumerate(xs):
        for k, c in enumerate(spec.centers):
            expected = math.exp(-((x - c) ** 2) / (2 * spec.bandwidth**2))
            assert math.isclose(design[n, k], expected, rel_tol=1e-14)


def test_design_entries_in_unit_interval():
    spec = mod.RbfModelSpec.regular(8)
    design = mod.rbf_design_matrix(np.linspace(-1, 1, 50), spec)
    assert np.all(design > 0) and np.all(design <= 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        mod.RbfModelSpec(centers=np.array([1.0, 0.5]), bandwidth=0.1, noise_sigma=0.1)
    with pytest.raises(ValueError):
        mod.RbfModelSpec(centers=np.array([0.0]), bandwidth=0.0, noise_sigma=0.1)
    with pytest.raises(ValueError):
        mod.RbfModelSpec(centers=np.array([0.0]), bandwidth=0.1, noise_sigma=0.0)


# -----------------------------------------------------------------------
# likelihood


def test_loglik_zero_residual():
    problem = mod.RegressionProblem(design=np.eye(1), targets=np.zeros(1), noise_sigma=1.0)
    val = problem.loglik_rows(np.zeros(1))
    assert math.isclose(val, -0.5 * math.log(2 * math.pi), rel_tol=1e-12)


def test_loglik_unit_residual():
    problem = mod.RegressionProblem(design=np.eye(1), targets=np.ones(1), noise_sigma=1.0)
    val = problem.loglik_rows(np.zeros(1))
    assert math.isclose(val, -0.5 * math.log(2 * math.pi) - 0.5, rel_tol=1e-12)


def test_loglik_matches_scalar_normal_sum():
    problem, truth = small_problem(seed=1)
    theta = np.random.default_rng(2).standard_normal(problem.dim)
    preds = problem.design @ theta
    expected = sum(
        -0.5 * math.log(2 * math.pi * problem.noise_sigma**2)
        - (t - p) ** 2 / (2 * problem.noise_sigma**2)
        for t, p in zip(problem.targets, preds)
    )
    assert math.isclose(problem.loglik_rows(theta), expected, rel_tol=1e-12)


def test_loglik_gradient_closed_form():
    # log_joint_and_grad's gradient, less the prior's −θ, is the
    # likelihood's; both it and loglik_rows' finite differences must match
    # designᵀ(t − design θ)/σ².
    problem, _ = small_problem(seed=3)
    theta = np.random.default_rng(4).standard_normal(problem.dim)
    expected = problem.design.T @ (problem.targets - problem.design @ theta)
    expected /= problem.noise_sigma**2
    rows, grad = problem.log_joint_and_grad(theta[None, :])
    np.testing.assert_allclose(grad[0] + theta, expected, rtol=1e-12)
    fd = ad.finite_difference_gradient(problem.loglik_rows, theta)
    np.testing.assert_allclose(fd, expected, rtol=1e-6, atol=1e-6)
    both = problem.loglik_rows(theta) + problem.prior_rows(theta)
    assert math.isclose(rows[0], both, rel_tol=1e-12)


# -----------------------------------------------------------------------
# priors


def test_gaussian_prior_at_zero():
    val = mod.prior_logpdf(np.zeros(1))
    assert math.isclose(val, -0.5 * math.log(2 * math.pi), rel_tol=1e-12)


def test_gaussian_prior_gradient_is_minus_lambda_theta():
    # The N(0, I) prior has precision λ = 1.
    theta = np.array([0.3, -1.2, 0.7])
    fd = ad.finite_difference_gradient(mod.prior_logpdf, theta)
    np.testing.assert_allclose(fd, -theta, rtol=1e-9)
    # With no data term left (a zero design row against a zero target),
    # log_joint_and_grad's gradient is the prior's alone.
    problem = mod.RegressionProblem(design=np.zeros((1, 3)), targets=np.zeros(1), noise_sigma=1.0)
    np.testing.assert_array_equal(problem.log_joint_and_grad(theta[None, :])[1][0], -theta)


def test_gaussian_prior_maximized_at_zero():
    fd = ad.finite_difference_gradient(mod.prior_logpdf, np.zeros(4))
    np.testing.assert_array_equal(fd, np.zeros(4))
    rng = np.random.default_rng(13)
    at_zero = mod.prior_logpdf(np.zeros(4))
    assert np.all(mod.prior_logpdf(rng.standard_normal((50, 4))) < at_zero)


# -----------------------------------------------------------------------
# datasets


def test_noise_free_targets_are_clean_predictions():
    spec = mod.RbfModelSpec(
        centers=np.linspace(-1, 1, 6), bandwidth=0.4, noise_sigma=1e-300
    )
    problem, truth = mod.make_rbf_dataset(spec, 30, seed=10)
    np.testing.assert_allclose(problem.targets, problem.design @ truth.theta_star)


def test_dataset_reproducible_by_seed():
    spec = mod.RbfModelSpec.regular(5)
    a, ta = mod.make_rbf_dataset(spec, 25, seed=11)
    b, tb = mod.make_rbf_dataset(spec, 25, seed=11)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(ta.theta_star, tb.theta_star)


def test_noise_std_in_chi_square_band():
    spec = mod.RbfModelSpec.regular(10, noise_sigma=0.25)
    problem, truth = mod.make_rbf_dataset(spec, 200, seed=12)
    resid_std = np.std(problem.targets - truth.clean, ddof=1)
    assert 0.20 <= resid_std <= 0.30
