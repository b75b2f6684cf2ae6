"""Exact-posterior, evidence, KL, and dropout-predictive oracle tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import vifit.autodiff as ad
import vifit.families as fam
import vifit.models as mod
import vifit.oracle as orc


def random_gaussian(rng, p):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=p))
    cov = q @ np.diag(eigs) @ q.T
    return orc.GaussianDist(mean=rng.standard_normal(p), cov=0.5 * (cov + cov.T))


def log_joint(problem, theta):
    """log lik + log prior at (S, P) rows, summed as training sums them."""
    loglik, log_prior, _ = problem.log_joint_and_grad(theta)
    return loglik + log_prior


def structured_from_gaussian(dist):
    """A full-rank sN equal to ``dist``: the smallest eigenvalue split
    between diag(A) and UUᵀ, which reproduces the covariance to round-off."""
    eigvals, eigvecs = np.linalg.eigh(dist.cov)
    base = 0.5 * eigvals[0]
    return fam.StructuredNormalState(
        mu=dist.mean.copy(),
        log_a=np.full(dist.dim, math.log(base)),
        u=eigvecs * np.sqrt(eigvals - base),
    )


# -----------------------------------------------------------------------
# exact posterior


def test_posterior_identity_design():
    problem = mod.RegressionProblem(
        design=np.eye(2),
        targets=np.array([2.0, 0.0]),
        noise_sigma=1.0,
    )
    post = orc.exact_linear_posterior(problem)
    np.testing.assert_allclose(post.cov, 0.5 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(post.mean, [1.0, 0.0], atol=1e-14)


def test_posterior_no_data_limit_recovers_prior():
    rng = np.random.default_rng(0)
    problem = mod.RegressionProblem(
        design=rng.standard_normal((6, 3)),
        targets=rng.standard_normal(6),
        noise_sigma=1e6,
    )
    post = orc.exact_linear_posterior(problem)
    np.testing.assert_allclose(post.mean, 0.0, atol=1e-5)
    np.testing.assert_allclose(post.cov, np.eye(3), atol=1e-5)


def test_posterior_density_proportional_to_joint_on_grid():
    # On a 2-D slice the normalized log posterior must match the normalized
    # log joint (likelihood times prior) point by point.
    spec = mod.RbfModelSpec.regular(5, noise_sigma=0.4)
    problem, _ = mod.make_rbf_dataset(spec, 30, seed=1)
    post = orc.exact_linear_posterior(problem)

    grid = np.linspace(-1.0, 1.0, 21)
    base = post.mean.copy()
    joint = np.empty((21, 21))
    exact = np.empty((21, 21))
    for i, du in enumerate(grid):
        for j, dv in enumerate(grid):
            theta = base.copy()
            theta[0] += du
            theta[1] += dv
            joint[i, j] = log_joint(problem, theta[None, :])[0]
            exact[i, j] = post.log_density(theta)
    joint -= joint.max()
    exact -= exact.max()
    assert np.max(np.abs(joint - exact)) < 1e-6


# -----------------------------------------------------------------------
# evidence


def test_evidence_single_point():
    problem = mod.RegressionProblem(
        design=np.array([[1.0]]),
        targets=np.array([0.0]),
        noise_sigma=1.0,
    )
    assert math.isclose(
        orc.log_evidence(problem), -0.5 * math.log(2 * math.pi * 2.0), rel_tol=1e-12
    )


def test_evidence_conjugacy_identity():
    # log evidence = loglik(mu) + prior(mu) - posterior(mu), any conjugate fit.
    spec = mod.RbfModelSpec.regular(6, noise_sigma=0.3)
    problem, _ = mod.make_rbf_dataset(spec, 40, seed=2)
    post = orc.exact_linear_posterior(problem)
    lhs = orc.log_evidence(problem)
    rhs = log_joint(problem, post.mean[None, :])[0] - post.log_density(post.mean)
    assert math.isclose(lhs, rhs, rel_tol=1e-8)


def test_evidence_matches_brute_force_prior_average():
    rng = np.random.default_rng(3)
    problem = mod.RegressionProblem(
        design=rng.standard_normal((3, 2)),
        targets=rng.standard_normal(3),
        noise_sigma=0.8,
    )
    n = 1_000_000
    thetas = rng.standard_normal((n, 2))
    logliks = problem.loglik_rows(thetas)
    # Average the likelihood itself over prior draws.
    liks = np.exp(logliks)
    estimate = liks.mean()
    se = liks.std(ddof=1) / math.sqrt(n)
    assert abs(estimate - math.exp(orc.log_evidence(problem))) < 3 * se


# -----------------------------------------------------------------------
# KL


def test_kl_zero_for_identical():
    rng = np.random.default_rng(4)
    p = random_gaussian(rng, 4)
    assert abs(orc.kl_gaussian_gaussian(p, p)) < 1e-10


def test_kl_mean_shift():
    p = orc.GaussianDist(mean=np.zeros(1), cov=np.eye(1))
    q = orc.GaussianDist(mean=np.ones(1), cov=np.eye(1))
    assert math.isclose(orc.kl_gaussian_gaussian(p, q), 0.5, rel_tol=1e-12)


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = random_gaussian(rng, 5)
        q = random_gaussian(rng, 5)
        assert orc.kl_gaussian_gaussian(p, q) > 0


def test_kl_matches_mc_estimate_8d():
    rng = np.random.default_rng(6)
    p = random_gaussian(rng, 8)
    q = random_gaussian(rng, 8)
    exact = orc.kl_gaussian_gaussian(p, q)
    n = 1_000_000
    draws = fam.gather_blocks(p.sample_blocks(rng, n), n, p.dim)
    gaps = p.log_density(draws) - q.log_density(draws)
    se = gaps.std(ddof=1) / math.sqrt(n)
    assert abs(gaps.mean() - exact) < 3 * se


def test_kl_p_to_family_routes():
    rng = np.random.default_rng(7)
    p = random_gaussian(rng, 3)

    # Full-rank structured normal set to p itself: zero divergence.
    sn = structured_from_gaussian(p)
    assert abs(orc.kl_gaussian_gaussian(p, orc.family_to_gaussian(sn))) < 1e-9

    # Atomic families: infinite by convention.
    rng = np.random.default_rng(8)
    map_state = fam.MapState(theta_hat=p.mean.copy())
    assert orc.kl_p_to_family_mc(p, map_state, 100, rng) == (math.inf, 0.0)
    drop = fam.DropoutState(
        theta_hat=p.mean.copy(), keep_prob=0.5, droppable=np.ones(3, bool)
    )
    assert orc.kl_p_to_family_mc(p, drop, 100, rng) == (math.inf, 0.0)


def test_kl_mc_cross_check_mean_field_vs_correlated_target():
    rng = np.random.default_rng(8)
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    p = orc.GaussianDist(mean=np.array([0.3, -0.2]), cov=cov)
    mf = fam.MeanFieldState(mu=np.array([0.1, 0.1]), log_sigma=np.log([0.8, 1.1]))
    exact = orc.kl_gaussian_gaussian(p, orc.family_to_gaussian(mf))
    est, se = orc.kl_p_to_family_mc(p, mf, 200_000, rng)
    assert abs(est - exact) < 3 * se


def test_elbo_evidence_kl_identity_for_arbitrary_gaussian_q():
    spec = mod.RbfModelSpec.regular(4, noise_sigma=0.6)
    problem, _ = mod.make_rbf_dataset(spec, 25, seed=9)
    post = orc.exact_linear_posterior(problem)
    rng = np.random.default_rng(10)
    for _ in range(5):
        q = random_gaussian(rng, 4)
        lhs = orc.exact_gaussian_elbo(problem, q)
        rhs = orc.log_evidence(problem) - orc.kl_gaussian_gaussian(q, post)
        assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-8)


def test_log_density_of_truth():
    rng = np.random.default_rng(11)
    p = random_gaussian(rng, 4)
    theta_star = rng.standard_normal(4)
    assert orc.log_density_of_truth(fam.MapState(theta_hat=p.mean.copy()), theta_star) == -math.inf
    drop = fam.DropoutState(
        theta_hat=rng.standard_normal(4), keep_prob=0.5, droppable=np.ones(4, bool)
    )
    assert orc.log_density_of_truth(drop, theta_star) == -math.inf
    sn = structured_from_gaussian(p)
    got = orc.log_density_of_truth(sn, theta_star)
    assert math.isclose(got, float(p.log_density(theta_star)), rel_tol=1e-9)


# -----------------------------------------------------------------------
# dropout predictive


def make_dropout_setup(pd=6, keep=0.5, seed=12):
    spec = mod.RbfModelSpec.regular(pd, noise_sigma=0.25)
    problem, truth = mod.make_rbf_dataset(spec, 40, seed=seed)
    rng = np.random.default_rng(seed + 1)
    state = fam.DropoutState(
        theta_hat=rng.standard_normal(pd), keep_prob=keep, droppable=np.ones(pd, bool)
    )
    return problem, state


def test_predictive_keep_prob_one_is_single_atom():
    problem, state = make_dropout_setup(keep=1.0)
    x_star = np.array([0.2])
    pred = orc.dropout_predictive_exact(state, problem, x_star)
    live = fam.enumerate_dropout(state).weights > 0
    assert live.sum() == 1
    expected = problem.features(x_star) @ state.theta_hat
    np.testing.assert_allclose(pred.mean(), expected)


def test_predictive_keep_prob_zero_is_zero_model():
    problem, state = make_dropout_setup(keep=0.0)
    pred = orc.dropout_predictive_exact(state, problem, np.array([-0.4, 0.1]))
    live = fam.enumerate_dropout(state).weights > 0
    assert live.sum() == 1
    np.testing.assert_allclose(pred.mean(), 0.0)
    np.testing.assert_allclose(pred.variance(), problem.noise_sigma**2)


def test_predictive_mean_matches_mc_draws():
    problem, state = make_dropout_setup(pd=10, keep=0.7, seed=13)
    x_star = np.linspace(-1, 1, 5)
    pred = orc.dropout_predictive_exact(state, problem, x_star)
    assert abs(fam.enumerate_dropout(state).weights.sum() - 1.0) < 1e-12

    rng = np.random.default_rng(14)
    n = 100_000
    batch = fam.sample(state, "naive", n, rng)
    features = problem.features(x_star)
    mc_means = batch.draws @ features.T
    se = mc_means.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mc_means.mean(axis=0) - pred.mean()) < 3 * se)


def test_predictive_mean_linear_in_theta_hat():
    problem, state = make_dropout_setup(pd=5, keep=0.6, seed=15)
    x_star = np.array([0.3])
    base = orc.dropout_predictive_exact(state, problem, x_star).mean()
    scaled_state = fam.DropoutState(
        theta_hat=2.0 * state.theta_hat,
        keep_prob=state.keep_prob,
        droppable=state.droppable,
    )
    doubled = orc.dropout_predictive_exact(scaled_state, problem, x_star).mean()
    np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-12)


def test_predictive_density_integrates_to_one():
    problem, state = make_dropout_setup(pd=4, keep=0.5, seed=16)
    pred = orc.dropout_predictive_exact(state, problem, np.array([0.0]))
    mixture = fam.enumerate_dropout(state)
    features = problem.features(np.array([0.0]))
    atom_means = np.concatenate([images for _, images in mixture.blocks(features)])
    ys = np.linspace(-8, 8, 2001)
    z = (ys[:, None] - atom_means[:, 0]) / pred.noise_sigma
    dens = np.exp(-0.5 * z**2) @ mixture.weights / (pred.noise_sigma * math.sqrt(2 * math.pi))
    assert abs(np.trapezoid(dens, ys) - 1.0) < 1e-4


def test_exact_predictive_memory_scales_with_its_table():
    # Traced Python-heap peak, so the bound does not depend on the host.
    # The moments stream the 2^16 atoms a block at a time, so the bound is a
    # few blocks of images, whatever P_d is.
    problem, state = make_dropout_setup(pd=16, seed=17)
    x_star = np.linspace(-0.9, 0.9, 5)
    block_bytes = fam.BLOCK_ROWS * x_star.size * 8
    tracemalloc.start()
    try:
        pred = orc.dropout_predictive_exact(state, problem, x_star)
        pred.mean()
        pred.variance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * block_bytes


@hst.composite
def streamed_predictive_case(draw):
    """A dropout state over P RBF features with P_d ∈ 0..10 droppable, zeros
    among θ̂, keep_prob including 0 and 1, and a few inputs."""
    p = draw(hst.integers(1, 12))
    droppable = np.zeros(p, bool)
    droppable[draw(hst.permutations(range(p)))[: draw(hst.integers(0, min(p, 10)))]] = True
    coord = hst.sampled_from([0.0]) | hst.floats(-3.0, 3.0, allow_subnormal=False)
    theta_hat = np.array(draw(hst.lists(coord, min_size=p, max_size=p)))
    keep_prob = draw(hst.sampled_from([0.0, 1.0, 0.5]) | hst.floats(0.0, 1.0))
    x_star = np.array(draw(hst.lists(hst.floats(-1.0, 1.0), min_size=1, max_size=4)))
    state = fam.DropoutState(theta_hat=theta_hat, keep_prob=keep_prob, droppable=droppable)
    problem, _ = mod.make_rbf_dataset(mod.RbfModelSpec.regular(p, noise_sigma=0.25), 8, seed=p)
    return state, problem, x_star, draw(hst.sampled_from([1, 2, 8]))


@given(streamed_predictive_case())
def test_streamed_predictive_matches_the_closed_form(case):
    # With blocks of 1, 2 or 8 atoms every P_d above 0, 1 or 3 runs the
    # multi-block path.  Closed form: mean = kept + p·Σ_droppable θ̂_j f_j and
    # variance = σ² + p(1 − p)·Σ_droppable (θ̂_j f_j)².
    state, problem, x_star, block_rows = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fam, "BLOCK_ROWS", block_rows)
        pred = orc.dropout_predictive_exact(state, problem, x_star)
        mixture = fam.enumerate_dropout(state)
        features = problem.features(x_star)
        streamed = np.concatenate([images for _, images in mixture.blocks(features)])
        atoms = mixture.atoms
        assert pred.n_atoms == 2**state.n_droppable == len(streamed)
        assert abs(pred.weight_sum - 1.0) <= 1e-12
        terms = features * state.theta_hat
        p, d = state.keep_prob, state.droppable
        mean = terms[:, ~d].sum(axis=1) + p * terms[:, d].sum(axis=1)
        variance = pred.noise_sigma**2 + p * (1.0 - p) * (terms[:, d] ** 2).sum(axis=1)
        np.testing.assert_allclose(pred.mean(), mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pred.variance(), variance, rtol=0, atol=1e-12)
        np.testing.assert_allclose(streamed, atoms @ features.T, rtol=0, atol=1e-12)
    # Atom r keeps the droppable coordinates at r's set bits, in order.
    bits = (np.arange(len(atoms))[:, None] >> np.arange(state.n_droppable)) & 1
    want = np.tile(state.theta_hat, (len(atoms), 1))
    want[:, d] *= bits
    assert np.all(atoms == want)


def broadcast_blocks(mixture, features):
    """``DropoutMixture.blocks`` by plain broadcasting: block b is the base
    block plus row b of the shift table as a (D,) operand, and its weights
    are gathered afresh by each atom's number of ones."""
    index = np.flatnonzero(mixture.droppable)
    kept = np.flatnonzero(~mixture.droppable)
    split = min(index.size, fam.BLOCK_ROWS.bit_length() - 1)
    steps = [mixture.theta_hat[i] * features[:, i] for i in index]
    base = fam._doubling(features[:, kept] @ mixture.theta_hat[kept], steps[:split])
    shifts = fam._doubling(np.zeros(features.shape[0]), steps[split:])
    p, pd = mixture.keep_prob, index.size
    ones = np.arange(pd + 1, dtype=np.float64)
    by_ones = p**ones * (1.0 - p) ** (pd - ones)
    ones_low = fam._doubling(0, [1] * split)
    for b, shift in enumerate(shifts):
        yield by_ones[ones_low + b.bit_count()], base if b == 0 else base + shift


def broadcast_predictive(mixture, features, noise_sigma):
    """``(weight_sum, mean, variance)`` of the exact predictive, reduced as
    ``dropout_predictive_exact`` reduces ``broadcast_blocks``."""
    weight_sum, mean = 0.0, np.zeros(len(features))
    for weights, images in broadcast_blocks(mixture, features):
        weight_sum += float(weights.sum())
        mean += weights @ images
    second = np.zeros(len(features))
    for weights, images in broadcast_blocks(mixture, features):
        centered = images - mean
        np.square(centered, out=centered)
        second += weights @ centered
    return weight_sum, mean, noise_sigma**2 + second


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return np.array_equal(got.view(np.int64), want.view(np.int64))


@hst.composite
def wide_block_case(draw):
    """A dropout state with P_d ∈ 0..16 droppable among up to two kept
    coordinates, signed zeros among θ̂, |x*| ∈ 0..7 (0 is the path
    ``DropoutMixture.weights`` takes) and blocks of 64 or 256 atoms."""
    pd = draw(hst.integers(0, 16))
    p = max(pd + draw(hst.integers(0, 2)), 1)
    droppable = np.zeros(p, bool)
    droppable[draw(hst.permutations(range(p)))[:pd]] = True
    coord = hst.sampled_from([0.0, -0.0]) | hst.floats(-3.0, 3.0, allow_subnormal=False)
    theta_hat = np.array(draw(hst.lists(coord, min_size=p, max_size=p)))
    keep_prob = draw(hst.sampled_from([0.0, 1.0, 0.5, 0.9]) | hst.floats(0.0, 1.0))
    x_star = np.array(draw(hst.lists(hst.floats(-1.0, 1.0), min_size=0, max_size=7)))
    state = fam.DropoutState(theta_hat=theta_hat, keep_prob=keep_prob, droppable=droppable)
    problem, _ = mod.make_rbf_dataset(mod.RbfModelSpec.regular(p, noise_sigma=0.25), 8, seed=p)
    return state, problem, x_star, draw(hst.sampled_from([64, 256]))


@settings(max_examples=60)
@given(wide_block_case())
def test_wide_blocks_keep_the_bits_of_plain_broadcasting(case):
    # One block (P_d ≤ log2 BLOCK_ROWS), many blocks, and blocks of fewer
    # than WIDE_ROWS atoms (P_d < 6) all occur.  Each block's images and
    # weights, and the predictive's weight sum, mean and variance, equal the
    # (n, D) + (D,) arithmetic bit for bit.
    state, problem, x_star, block_rows = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fam, "BLOCK_ROWS", block_rows)
        features = problem.features(x_star)
        mixture = fam.enumerate_dropout(state)
        got = list(mixture.blocks(features))
        want = list(broadcast_blocks(mixture, features))
        pred = orc.dropout_predictive_exact(state, problem, x_star)
        weight_sum, mean, variance = broadcast_predictive(mixture, features, problem.noise_sigma)
    assert len(got) == len(want) == max(1, mixture.n_atoms // block_rows)
    for (weights, images), (want_weights, want_images) in zip(got, want):
        assert images.shape == want_images.shape == (min(mixture.n_atoms, block_rows), len(x_star))
        assert same_bits(weights, want_weights) and same_bits(images, want_images)
    assert same_bits(pred.weight_sum, weight_sum)
    assert same_bits(pred.mean(), mean) and same_bits(pred.variance(), variance)


def test_blocks_share_read_only_arrays():
    # The base block is what every later block adds to, and each weight
    # vector serves every block with its number of kept high coordinates, so
    # a caller's write would corrupt later blocks: it raises instead.
    rng = np.random.default_rng(3)
    state = fam.DropoutState(theta_hat=rng.standard_normal(9), keep_prob=0.3, droppable=np.ones(9, bool))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fam, "BLOCK_ROWS", 64)
        blocks = list(fam.enumerate_dropout(state).blocks(rng.standard_normal((4, 9))))
    assert len(blocks) == 8
    with pytest.raises(ValueError, match="read-only"):
        blocks[0][1][0, 0] = 1.0
    for weights, _ in blocks:
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 1.0
    # Blocks 1, 2 and 4 each keep one high coordinate: one weight vector.
    assert np.shares_memory(blocks[1][0], blocks[2][0])
    assert np.shares_memory(blocks[1][0], blocks[4][0])


# -----------------------------------------------------------------------
# Monte-Carlo KL audits, streamed a block of rows at a time

BLOCK = fam.BLOCK_ROWS


def whole_batch_gaussian_sample(p, rng, n):
    chol = np.linalg.cholesky(p.cov)
    return p.mean + rng.standard_normal((n, p.dim)) @ chol.T


def whole_batch_target_sample(p, rng, n):
    """The target samplers before blocking: every draw of a component at once."""
    if isinstance(p, orc.GaussianDist):
        return whole_batch_gaussian_sample(p, rng, n)
    idx = rng.choice(len(p.components), size=n, p=p.weights)
    out = np.empty((n, p.dim))
    for m, comp in enumerate(p.components):
        take = idx == m
        if take.any():
            out[take] = whole_batch_gaussian_sample(comp, rng, int(take.sum()))
    return out


def whole_batch_family_sample(state, n, rng):
    """``fam.sample`` before blocking: every row at once, and an sGMM realizes
    every component at every row, keeping each row's own by a 0/1 mask."""
    noise = fam.draw_noise(state, "naive", n, rng)
    if isinstance(state, fam.ATOMIC_STATES):
        return state.theta_hat * noise.masks

    def realize(c):
        if isinstance(c, fam.MeanFieldState):
            return c.mu + np.exp(c.log_sigma) * noise.z_diag
        return c.mu + np.exp(0.5 * c.log_a) * noise.z_diag + noise.z_lowrank @ c.u.T

    if not isinstance(state, fam.MixtureState):
        return realize(state)
    rows = None
    for m in range(state.n_components):
        comp = fam.StructuredNormalState(mu=state.mu[m], log_a=state.log_a[m], u=state.u[m])
        sel = (noise.components == m).astype(float)[:, None]
        if sel.any():
            term = realize(comp) * sel
            rows = term if rows is None else rows + term
    return rows


def whole_batch_kls(target, state, n, rng):
    """KL[p‖q] then KL[q‖p] from one generator, as the audit runs them, before blocking."""
    draws = whole_batch_target_sample(target, rng, n)
    gaps_pq = target.log_density(draws) - fam.log_density(state, draws)
    draws = whole_batch_family_sample(state, n, rng)
    gaps_qp = fam.log_density(state, draws) - target.log_density(draws)
    return [(float(g.mean()), float(g.std(ddof=1) / math.sqrt(n))) for g in (gaps_pq, gaps_qp)]


def audit_case(kind, p, k, target_kind, rng):
    """A fitted-looking q of ``kind`` and a target: Gaussian, a two-mode mixture,
    or one whose second mode has weight 1e-12 and so gets no draws."""

    def sn(spread):
        return fam.StructuredNormalState(
            mu=spread * rng.standard_normal(p),
            log_a=0.5 * rng.standard_normal(p),
            u=0.7 * rng.standard_normal((p, k)),
        )

    if kind == "mf":
        state = fam.MeanFieldState(
            mu=rng.standard_normal(p), log_sigma=0.5 * rng.standard_normal(p)
        )
    elif kind == "sn":
        state = sn(1.0)
    else:
        comps = (sn(2.0), sn(2.0))
        state = fam.MixtureState(
            mu=np.array([c.mu for c in comps]),
            log_a=np.array([c.log_a for c in comps]),
            u=np.array([c.u for c in comps]),
            weight_logits=rng.standard_normal(2),
        )
    if target_kind == "gaussian":
        return state, random_gaussian(rng, p)
    shift = 3.0 * rng.standard_normal(p)
    comps = tuple(
        orc.GaussianDist(mean=c.mean + side * shift, cov=c.cov)
        for c, side in ((random_gaussian(rng, p), 1), (random_gaussian(rng, p), -1))
    )
    weights = [0.4, 0.6] if target_kind == "mixture" else [1.0 - 1e-12, 1e-12]
    return state, orc.GaussianMixtureDist(components=comps, weights=np.array(weights))


@settings(max_examples=60)
@given(
    n_mc=hst.one_of(
        hst.sampled_from([2, 3, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 3 * BLOCK]),
        hst.integers(2, 3 * BLOCK),
    ),
    kind=hst.sampled_from(["mf", "sn", "sgmm"]),
    dims=hst.integers(1, 8).flatmap(lambda p: hst.tuples(hst.just(p), hst.integers(1, p))),
    target_kind=hst.sampled_from(["gaussian", "mixture", "starved_mixture"]),
    seed=hst.integers(0, 2**16),
)
def test_blocked_audits_and_samplers_match_the_whole_batch(n_mc, kind, dims, target_kind, seed):
    state, target = audit_case(kind, *dims, target_kind, np.random.default_rng(seed))
    expected = whole_batch_kls(target, state, n_mc, np.random.default_rng(seed + 1))
    rng = np.random.default_rng(seed + 1)
    got = [
        orc.kl_p_to_family_mc(target, state, n_mc, rng),
        orc.kl_family_to_target_mc(state, target, n_mc, rng),
    ]
    assert got == expected

    def same_draws(sample, reference):
        return np.array_equal(
            sample(np.random.default_rng(seed)), reference(np.random.default_rng(seed))
        )

    assert same_draws(
        lambda r: fam.gather_blocks(target.sample_blocks(r, n_mc), n_mc, target.dim),
        lambda r: whole_batch_target_sample(target, r, n_mc),
    )
    drop = fam.DropoutState(
        theta_hat=np.linspace(-1.0, 1.0, dims[0]), keep_prob=0.5, droppable=np.ones(dims[0], bool)
    )
    for q in (state, drop):
        assert same_draws(
            lambda r: fam.sample(q, "naive", n_mc, r).draws,
            lambda r: whole_batch_family_sample(q, n_mc, r),
        )


@pytest.mark.parametrize("n", [2, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("kind", ["mf", "sn1", "snp", "sgmm"])
@pytest.mark.parametrize("p", [1, 8])
def test_kl_q_to_target_is_log_density_at_fam_sample_draws_bit_for_bit(p, kind, n):
    # The audit reads the log q that draws_logq_vjp gives with each block's
    # draws.  Its mean and standard error are those of fam.log_density at
    # fam.sample's whole batch of draws minus the target's log density, bit
    # for bit.  No case gives a component exactly one row of a block: the
    # realization this audit replaced drew such a row as a pair, one
    # component at a time, and its numbers can differ from these in the
    # last bits (by up to 4.4e-15 relative on one row, with 3 components
    # and K = 1 at P = 8, a model no command builds).  So these cases also
    # hold the audit to the numbers that realization gave.
    family, k = {
        "mf": ("mf", 1), "sn1": ("sn", 1), "snp": ("sn", p), "sgmm": ("sgmm", min(p, 2))
    }[kind]
    seed = 7
    state, target = audit_case(family, p, k, "mixture", np.random.default_rng(seed))
    if kind == "sgmm":
        comps = fam.draw_noise(state, "naive", n, np.random.default_rng(seed)).components
        for block in fam.row_blocks(n):
            assert 1 not in np.bincount(comps[block], minlength=state.n_components)
    draws = fam.sample(state, "naive", n, np.random.default_rng(seed)).draws
    gaps = fam.log_density(state, draws) - target.log_density(draws)
    expected = (float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(n)))
    assert orc.kl_family_to_target_mc(state, target, n, np.random.default_rng(seed)) == expected


@pytest.mark.parametrize(
    "kind,k", [("mf", 1), ("sn", 1), ("sn", 8), ("sgmm", 2)], ids=["mf", "sn1", "sn8", "sgmm"]
)
def test_kl_audits_keep_their_bits_without_the_row_sum_tree(kind, k, monkeypatch):
    # An audit block's Woodbury kernel and mixture target sum their short
    # rows with ad.row_sums.  With that path shut off, every such sum is
    # np.add.reduce's, and both audits return the same (kl, se) exactly.
    n = 2 * BLOCK + 1
    state, target = audit_case(kind, 8, k, "mixture", np.random.default_rng(11))

    def audits():
        rng = np.random.default_rng(12)
        return [
            orc.kl_p_to_family_mc(target, state, n, rng),
            orc.kl_family_to_target_mc(state, target, n, rng),
        ]

    row_sums, shapes = ad.row_sums, []
    monkeypatch.setattr(ad, "row_sums", lambda x: shapes.append(x.shape) or row_sums(x))
    with_tree = audits()
    assert shapes and all(shape[-1] <= 8 for shape in shapes)  # each took the tree
    monkeypatch.setattr(ad, "ROW_SUMS_MIN_ROWS", math.inf)
    shapes.clear()
    assert audits() == with_tree
    assert not shapes


# Traced peak of KL[q‖p] at 200k draws, P = 8: 5.1 MB for mf, 18.8 MB for
# sn8 and 20.5 MB for the sGMM, whose blocks evaluate both components at
# every row.  Keeping a block's adjoint across the yield in
# fam.sample_blocks reads 20.4 and 22.1 MB, and keeping the sGMM's stacked
# draws through the kernel call 21.6 MB.
KL_Q_P_PEAK_BOUND = {"mean_field": 7e6, "structured_normal": 20e6, "mixture": 21e6}


@pytest.mark.parametrize(
    "tag,kwargs",
    [("structured_normal", {"rank": 8}), ("mixture", {"rank": 2}), ("mean_field", {})],
)
def test_kl_audits_hold_one_block_of_temporaries(tag, kwargs):
    # Traced peak, numpy's buffers included, at the bimodal audit's size:
    # 200k draws in 8 dimensions.  The whole-batch audits peaked at 82 MB
    # (p→q) and 106 MB (q→p) on sn8.  Now p→q holds (n,) index and gap
    # arrays plus one block.  q→p holds the gaps and one block, each
    # block's noise drawn as it comes; an sN or sGMM also holds its whole
    # (n, P) z_diag, and an sGMM its (n,) component ids.
    rng = np.random.default_rng(21)
    shift = 2.5 * np.ones(8) / math.sqrt(8)
    cov = 0.16 * np.eye(8)
    target = orc.GaussianMixtureDist(
        components=(orc.GaussianDist(shift, cov), orc.GaussianDist(-shift, cov)),
        weights=np.array([0.5, 0.5]),
    )
    state = fam.init_family(tag, 8, rng, **kwargs)
    q_p_bound = KL_Q_P_PEAK_BOUND[tag]
    for audit, bound in (
        (lambda: orc.kl_p_to_family_mc(target, state, 200_000, rng), 16e6),
        (lambda: orc.kl_family_to_target_mc(state, target, 200_000, rng), q_p_bound),
    ):
        tracemalloc.start()
        try:
            audit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


# -----------------------------------------------------------------------
# mixture target gradient


@given(
    p=hst.integers(1, 5),
    m=hst.integers(1, 4),
    near=hst.integers(1, 4),
    seed=hst.integers(0, 2**16),
)
def test_mixture_log_joint_and_grad_match_log_density_and_finite_differences(p, m, near, seed):
    # Rows near the modes and rows 50σ from every mode, where each weighted
    # component density exp(log w_j + log N_j) underflows to 0 unshifted.
    rng = np.random.default_rng(seed)
    comps = tuple(random_gaussian(rng, p) for _ in range(m))
    target = orc.GaussianMixtureDist(components=comps, weights=rng.dirichlet(np.ones(m)))
    means = np.array([c.mean for c in comps])
    sigma = max(math.sqrt(np.linalg.eigvalsh(c.cov)[-1]) for c in comps)
    reach = 50.0 * sigma + np.max(np.linalg.norm(means - means[0], axis=1))
    directions = rng.standard_normal((2, p))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    far = means[0] + reach * directions
    rows = np.vstack([means[rng.integers(m, size=near)] + rng.standard_normal((near, p)), far])

    value, log_prior, grad = target.log_joint_and_grad(rows)
    assert log_prior is None
    assert np.all(np.isfinite(value)) and np.all(np.isfinite(grad))
    np.testing.assert_allclose(value, target.log_density(rows), rtol=1e-12)

    per = np.array([math.log(w) + c.log_density(rows) for c, w in zip(comps, target.weights)])
    assert np.all(np.exp(per[:, near:]) == 0.0)
    np.testing.assert_allclose(np.exp(per - value).sum(axis=0), 1.0, rtol=1e-12)

    # Central differences of the summed log-density: the rows are
    # independent, so this is every row's gradient.  Each log N_j is
    # quadratic, so the truncation error comes from the log-sum-exp's
    # curvature where responsibilities change, at step 1e-4·max(1, |θ|):
    # 2e-7 of the largest entry at worst over 300 random cases, so 1e-5
    # (criterion 2's bound) leaves room; a wrong weighting is off by O(1).
    fd = ad.finite_difference_gradient(
        lambda v: target.log_density(v.reshape(rows.shape)).sum(), rows.ravel()
    ).reshape(rows.shape)
    assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))


@given(
    p=hst.integers(1, 8),
    m=hst.integers(1, 4),
    s=hst.integers(1, 12),
    seed=hst.integers(0, 2**16),
)
def test_mixture_target_equals_the_per_component_formula_bit_for_bit(p, m, s, seed):
    # The reference is the mixture written out one component at a time:
    # each component's own log-density and gradient, weighted by
    # math.log(w_j), combined by logsumexp and a responsibility-weighted sum.
    rng = np.random.default_rng(seed)
    comps = tuple(random_gaussian(rng, p) for _ in range(m))
    target = orc.GaussianMixtureDist(components=comps, weights=rng.dirichlet(np.ones(m)))
    rows = 3.0 * rng.standard_normal((s, p))
    per, grads = [], []
    for c, w in zip(comps, target.weights):
        log_n, _, grad = c.log_joint_and_grad(rows)
        per.append(math.log(w) + log_n)
        grads.append(grad)
    want = ad.logsumexp(np.stack(per), axis=0)
    want_grad = sum(np.exp(lj - want)[:, None] * g for lj, g in zip(per, grads))

    value, _, grad = target.log_joint_and_grad(rows)
    assert np.array_equal(value, want) and np.array_equal(grad, want_grad)
    assert np.array_equal(target.log_density(rows), want)
    point = [math.log(w) + c.log_density(rows[0]) for c, w in zip(comps, target.weights)]
    assert target.log_density(rows[0]) == ad.logsumexp(np.array(point), axis=0)


# -----------------------------------------------------------------------
# the target protocol


def standard_normal_logpdf(theta):
    """log N(θ; 0, I) per row, written out as the tests' own reference."""
    return -0.5 * theta.shape[-1] * math.log(2 * math.pi) - 0.5 * np.add.reduce(
        theta * theta, axis=-1
    )


@hst.composite
def targets(draw):
    """A regression problem (design, targets, σ), a dense Gaussian or a
    2–3-component mixture of them, of dimension 1 to 6, and a generator."""
    kind = draw(hst.sampled_from(["regression", "gaussian", "mixture"]))
    p = draw(hst.integers(1, 6))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    if kind == "regression":
        n = draw(hst.integers(1, 12))
        sigma = draw(hst.floats(0.1, 2.0))
        return mod.RegressionProblem(
            design=rng.standard_normal((n, p)), targets=rng.standard_normal(n), noise_sigma=sigma
        ), rng
    if kind == "gaussian":
        return random_gaussian(rng, p), rng
    m = draw(hst.integers(2, 3))
    comps = tuple(random_gaussian(rng, p) for _ in range(m))
    return orc.GaussianMixtureDist(components=comps, weights=rng.dirichlet(np.ones(m))), rng


@pytest.mark.parametrize("s", [1, 5], ids=["one-row", "rows"])
@given(case=targets())
def test_log_joint_and_grad_is_the_gradient_of_its_rows(s, case):
    # Every target answers log_joint_and_grad(θ) -> (rows, log-prior rows
    # or None, ∇θ): a regression its log-likelihood and N(0, I) log-prior,
    # a density target its log-density and None.
    target, rng = case
    theta = 2.0 * rng.standard_normal((s, target.dim))
    rows, log_prior, grad = target.log_joint_and_grad(theta)
    assert rows.shape == (s,) and grad.shape == theta.shape

    def joint(flat):
        more, prior, _ = target.log_joint_and_grad(flat.reshape(theta.shape))
        return (more if prior is None else more + prior).sum()

    # Rows are independent, so central differences of their sum give every
    # row's gradient.  The regression and Gaussian joints are quadratic and
    # difference exactly up to round-off (2.3e-12 of the scale at worst over
    # 400 random cases each); a mixture's log-sum-exp adds truncation error
    # (7.9e-8 at worst over 400), so 1e-5 leaves room.  A gradient off by a
    # relative 1e-4 fails.
    fd = ad.finite_difference_gradient(joint, theta.ravel()).reshape(theta.shape)
    scale = max(1.0, abs(float(joint(theta.ravel()))), float(np.max(np.abs(fd))))
    assert np.max(np.abs(grad - fd)) <= 1e-5 * scale

    if isinstance(target, mod.RegressionProblem):
        assert np.array_equal(rows, target.loglik_rows(theta))
        assert np.array_equal(log_prior, standard_normal_logpdf(theta))
    else:
        assert log_prior is None
        assert np.array_equal(target.log_density(theta), rows)


# -----------------------------------------------------------------------
# validation


def test_zero_diagonal_part_fails_before_the_dense_covariance():
    # A = 0 under U = I: Σ = I has no zero variance, but StructuredCov
    # cannot hold A = 0, so the fit fails naming A.
    state = fam.StructuredNormalState(mu=np.zeros(3), log_a=np.full(3, -800.0), u=np.eye(3))
    assert not fam.has_zero_variance(state)
    with pytest.raises(ad.MemberFailure, match="diagonal part A underflows to 0"):
        orc.family_to_gaussian(state)


def test_non_spd_rejected():
    with pytest.raises(ad.MemberFailure, match="covariance is not positive definite"):
        orc.GaussianDist(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
