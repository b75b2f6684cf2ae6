"""ELBO estimator and trainer tests on conjugate ground truth."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import vifit.autodiff as ad
import vifit.families as fam
import vifit.models as mod
import vifit.oracle as orc
import vifit.trainer as tr


def conjugate_problem(seed=0, k=4, n=30, sigma=0.5):
    spec = mod.RbfModelSpec.regular(k, noise_sigma=sigma)
    problem, truth = mod.make_rbf_dataset(spec, n, seed=seed)
    return problem, truth


def posterior_state(problem):
    """The exact posterior as a full-rank sN: the smallest eigenvalue split
    between diag(A) and UUᵀ, which reproduces the covariance to round-off."""
    post = orc.exact_linear_posterior(problem)
    eigvals, eigvecs = np.linalg.eigh(post.cov)
    base = 0.5 * eigvals[0]
    return fam.StructuredNormalState(
        mu=post.mean.copy(),
        log_a=np.full(post.dim, math.log(base)),
        u=eigvecs * np.sqrt(eigvals - base),
    )


# -----------------------------------------------------------------------
# elbo_estimate


def test_map_estimate_is_pointwise_and_deterministic():
    problem, _ = conjugate_problem(seed=1)
    rng = np.random.default_rng(2)
    state = fam.init_family("map", problem.model_shape(), rng)
    config = tr.TrainConfig(mc_samples=16)
    values = [
        tr.elbo_estimate(state, problem, config, np.random.default_rng(s)).total
        for s in range(5)
    ]
    theta = state.theta_hat
    log_prior = -0.5 * (theta.size * math.log(2 * math.pi) + theta @ theta)
    expected = float(problem.loglik_rows(theta) + log_prior)
    np.testing.assert_allclose(values, expected, rtol=1e-12)
    est = tr.elbo_estimate(state, problem, config, rng)
    assert est.neg_mean_logq == 0.0
    assert math.isclose(
        est.total, est.expected_loglik + est.expected_logprior + est.neg_mean_logq
    )


def test_estimate_at_exact_posterior_centers_on_evidence():
    problem, _ = conjugate_problem(seed=3)
    state = posterior_state(problem)
    evidence = orc.log_evidence(problem)
    config = tr.TrainConfig(mc_samples=8)
    rng = np.random.default_rng(4)
    values = np.array(
        [tr.elbo_estimate(state, problem, config, rng).total for _ in range(1000)]
    )
    se = values.std(ddof=1) / math.sqrt(len(values))
    # At the exact posterior the integrand is constant, so se collapses to
    # round-off; the floor keeps the bound meaningful in that regime.
    assert abs(values.mean() - evidence) < 3 * se + 1e-10


def test_estimate_never_exceeds_evidence_bound():
    problem, _ = conjugate_problem(seed=5)
    evidence = orc.log_evidence(problem)
    rng = np.random.default_rng(6)
    config = tr.TrainConfig(mc_samples=32)
    for tag, kwargs in [
        ("mean_field", {}),
        ("structured_normal", {"rank": 2}),
        ("mixture", {"rank": 1}),
    ]:
        state = fam.init_family(tag, problem.model_shape(), rng, **kwargs)
        values = np.array(
            [tr.elbo_estimate(state, problem, config, rng).total for _ in range(200)]
        )
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert values.mean() <= evidence + 3 * se, tag


def test_estimate_terms_sum_to_total():
    problem, _ = conjugate_problem(seed=7)
    rng = np.random.default_rng(8)
    state = fam.init_family("structured_normal", problem.model_shape(), rng, rank=2)
    est = tr.elbo_estimate(state, problem, tr.TrainConfig(mc_samples=4), rng)
    assert math.isclose(
        est.total, est.expected_loglik + est.expected_logprior + est.neg_mean_logq
    )
    assert est.n_samples == 4 and est.mode == "naive"


def test_dropout_elbo_gradient_matches_finite_differences():
    # theta = theta_hat * mask is differentiable in theta_hat for fixed masks.
    problem, _ = conjugate_problem(seed=50)
    state = fam.init_family(
        "mc_dropout", problem.model_shape(), np.random.default_rng(51), keep_prob=0.6
    )
    noise = fam.draw_noise(state, "naive", 8, np.random.default_rng(52))
    objective = lambda p: tr.elbo_graph(state, p, noise, problem)
    psi = fam.pack(state)
    grad = ad.evaluate_with_gradient(objective, psi).gradient
    fd = ad.finite_difference_gradient(objective, psi, step=1e-6)
    mask = np.abs(grad) > 1e-8
    rel = np.abs(grad - fd)[mask] / np.abs(fd)[mask]
    assert rel.max() < 1e-5


def test_estimator_unbiased_across_modes():
    # Mean estimates per sampling mode must agree on a fixed instance.
    problem, _ = conjugate_problem(seed=9, k=3)
    rng = np.random.default_rng(10)
    state = fam.StructuredNormalState(
        mu=rng.standard_normal(3) * 0.3,
        log_a=np.log(np.full(3, 0.2)),
        u=rng.standard_normal((3, 2)) * 0.3,
    )
    repeats = 10_000
    stats = {}
    for mode in ("naive", "paired", "unscented"):
        config = tr.TrainConfig(mc_samples=8, mode=mode)
        values = np.array(
            [tr.elbo_estimate(state, problem, config, rng).total for _ in range(repeats)]
        )
        stats[mode] = (values.mean(), values.std(ddof=1) / math.sqrt(repeats))
    for a in stats:
        for b in stats:
            gap = abs(stats[a][0] - stats[b][0])
            bound = 4 * math.hypot(stats[a][1], stats[b][1])
            assert gap <= bound, (a, b, gap, bound)


# -----------------------------------------------------------------------
# train


def test_map_training_recovers_posterior_mode():
    problem, _ = conjugate_problem(seed=11)
    post = orc.exact_linear_posterior(problem)
    state = fam.init_family("map", problem.model_shape(), np.random.default_rng(12))
    config = tr.TrainConfig(steps=8000, learning_rate=0.05, lr_decay=0.999, seed=0)
    trace = tr.train(state, problem, config)
    rel = np.abs(trace.final_state.theta_hat - post.mean) / np.maximum(
        np.abs(post.mean), 1e-8
    )
    assert rel.max() < 1e-3


def test_mean_field_fits_diagonal_target_marginals():
    rng = np.random.default_rng(13)
    target = orc.GaussianDist(
        mean=np.array([0.5, -1.0, 2.0]), cov=np.diag([0.25, 1.0, 2.25])
    )
    state = fam.init_family("mean_field", 3, rng)
    config = tr.TrainConfig(
        steps=4000, learning_rate=0.03, lr_decay=0.9992, mc_samples=8,
        mode="paired", seed=1,
    )
    trace = tr.train(state, target, config)
    fitted = trace.final_state
    np.testing.assert_allclose(fitted.mu, target.mean, atol=0.05)
    np.testing.assert_allclose(
        np.exp(0.5 * fitted.log_a), np.sqrt(np.diag(target.cov)), rtol=0.05
    )


def test_zero_learning_rate_is_identity():
    problem, _ = conjugate_problem(seed=14)
    state = fam.init_family(
        "structured_normal", problem.model_shape(), np.random.default_rng(15), rank=1
    )
    config = tr.TrainConfig(steps=50, learning_rate=0.0, seed=2)
    trace = tr.train(state, problem, config)
    np.testing.assert_array_equal(fam.pack(trace.final_state), fam.pack(state))


def test_training_deterministic_given_seed():
    problem, _ = conjugate_problem(seed=16)
    state = fam.init_family(
        "mean_field", problem.model_shape(), np.random.default_rng(17)
    )
    config = tr.TrainConfig(steps=200, seed=3, mode="paired")
    a = tr.train(state, problem, config)
    b = tr.train(state, problem, config)
    np.testing.assert_array_equal(fam.pack(a.final_state), fam.pack(b.final_state))
    assert a.elbo == b.elbo


def test_training_does_not_increase_kl_to_posterior():
    problem, _ = conjugate_problem(seed=18)
    post = orc.exact_linear_posterior(problem)
    state = fam.init_family(
        "structured_normal", problem.model_shape(), np.random.default_rng(19), rank=4
    )
    before = orc.kl_gaussian_gaussian(orc.family_to_gaussian(state), post)
    config = tr.TrainConfig(
        steps=4000, learning_rate=0.02, lr_decay=0.9992, mc_samples=16,
        mode="paired", seed=4,
    )
    trace = tr.train(state, problem, config)
    after = orc.kl_gaussian_gaussian(orc.family_to_gaussian(trace.final_state), post)
    assert after <= before + 0.1


def test_divergence_guard_reports_step():
    problem, _ = conjugate_problem(seed=24)
    state = fam.init_family("map", problem.model_shape(), np.random.default_rng(25))
    state.theta_hat[:] = 1e12  # gradient magnitude scales with the residual
    with pytest.raises(ad.MemberFailure, match="exceeded guard at step 0$") as err:
        tr.train(state, problem, tr.TrainConfig(steps=5, learning_rate=0.01, seed=7))
    assert err.value.step == 0


@pytest.mark.parametrize("side", [-1, 1], ids=["under", "over"])
def test_gradient_norm_guard_is_pinned(side):
    # MAP at 0 on N(g e₁, I) has the gradient g e₁ at its one draw: a norm a
    # millionth under or over GRAD_NORM_GUARD.
    g = tr.GRAD_NORM_GUARD * (1.0 + side * 1e-6)
    state = fam.MapState(theta_hat=np.zeros(3))
    target = orc.GaussianDist(mean=np.array([g, 0.0, 0.0]), cov=np.eye(3))
    config = tr.TrainConfig(steps=1, learning_rate=0.01)
    if side < 0:
        assert tr.train(state, target, config).steps_run == 1
        return
    with pytest.raises(ad.MemberFailure, match="exceeded guard at step 0$"):
        tr.train(state, target, config)


def test_numerically_singular_capacitance_fails_at_step_zero():
    # Equal columns of norm 1e9 (see test_lowrank.singular_probe_factor):
    # the capacitance factorization succeeds on rounding noise, and must
    # still be reported as degenerate rather than train on to divergence.
    w = np.random.default_rng(0).standard_normal(4)
    v = 1e9 * w / np.linalg.norm(w)
    state = fam.StructuredNormalState(
        mu=np.zeros(4), log_a=np.zeros(4), u=np.stack([v, v], axis=1)
    )
    target = orc.GaussianDist(mean=np.zeros(4), cov=np.eye(4))
    with pytest.raises(ad.MemberFailure, match="singular") as err:
        tr.train(state, target, tr.TrainConfig(steps=5, mode="paired", seed=3))
    assert err.value.step == 0


def test_capacitance_too_large_for_working_precision_fails_at_step_zero():
    # P = K = 1, a = 1, u = 1e7: u²/a = 1e14 leaves the Woodbury kernels a
    # couple of digits, though Σ is perfectly conditioned.
    state = fam.StructuredNormalState(mu=np.zeros(1), log_a=np.zeros(1), u=np.array([[1e7]]))
    target = orc.GaussianDist(mean=np.zeros(1), cov=np.eye(1))
    with pytest.raises(ad.MemberFailure, match="too large") as err:
        tr.train(state, target, tr.TrainConfig(steps=5, mode="paired", seed=3))
    assert err.value.step == 0


def reference_train(state, problem, config) -> tuple:
    """The plain training loop: fresh noise every step, the gradient from
    ``elbo_value_and_grad``, and out-of-place moment updates, one array
    each for m, v, m̂ and v̂.  Returns (final psi, ELBO trace)."""
    rng = np.random.default_rng(config.seed)
    psi = fam.pack(state)
    m = np.zeros_like(psi)
    v = np.zeros_like(psi)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = config.learning_rate
    elbo = []
    for step in range(config.steps):
        noise = tr._draw_noise(state, config, rng)
        value, grad = tr.elbo_value_and_grad(state, psi, noise, problem)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** (step + 1))
        v_hat = v / (1.0 - beta2 ** (step + 1))
        psi = psi + lr * m_hat / (np.sqrt(v_hat) + eps)
        lr *= config.lr_decay
        elbo.append(value)
    return psi, elbo


STEPS = 2 * tr.NOISE_CHUNK_STEPS + 44  # three noise calls, the last one short


@pytest.mark.parametrize(
    "tag,kwargs,target,config",
    [
        ("map", {}, "regression", {}),
        ("mc_dropout", {"keep_prob": 0.7}, "regression", {}),
        ("mean_field", {}, "regression", {}),
        ("mean_field", {}, "regression", {"mode": "paired"}),
        ("structured_normal", {"rank": 2}, "regression", {}),
        ("structured_normal", {"rank": 2}, "regression", {"mode": "paired"}),
        ("structured_normal", {"rank": 2}, "regression", {"mode": "unscented"}),
        ("mixture", {"rank": 1}, "regression", {}),
        ("mixture", {"rank": 1}, "regression", {"mode": "paired"}),
        ("structured_normal", {"rank": 2}, "gaussian", {}),
        ("mixture", {"rank": 1}, "mixture", {"mode": "paired"}),
        # A decaying learning rate, so the update's every factor moves.
        ("map", {}, "regression", {"lr_decay": 0.995}),
        ("mean_field", {}, "regression", {"lr_decay": 0.995}),
        ("structured_normal", {"rank": 4}, "regression", {"lr_decay": 0.995}),
        ("mixture", {"rank": 2, "components": 2}, "regression", {"lr_decay": 0.995}),
    ],
    ids=[
        "map", "mc_dropout", "mf", "mf-paired", "sn2", "sn2-paired", "sn2-unscented",
        "sgmm", "sgmm-paired", "sn2-gaussian", "sgmm-paired-mixture",
        "map-decay", "mf-decay", "sn4-decay", "sgmm-decay",
    ],
)
def test_train_follows_the_plain_loop_bit_for_bit(monkeypatch, tag, kwargs, target, config):
    problem, _ = conjugate_problem(seed=60)
    if target == "gaussian":
        problem = orc.exact_linear_posterior(problem)
    elif target == "mixture":
        post = orc.exact_linear_posterior(problem)
        shifted = orc.GaussianDist(mean=post.mean + 1.0, cov=post.cov)
        problem = orc.GaussianMixtureDist(components=(post, shifted), weights=np.array([0.4, 0.6]))
    state = fam.init_family(tag, 4, np.random.default_rng(61), **kwargs)
    config = tr.TrainConfig(**{"steps": STEPS, "learning_rate": 0.02, "seed": 62, **config})
    calls = []
    fill_noise = fam.fill_noise

    def counting(*args, **kw):
        calls.append(1)
        return fill_noise(*args, **kw)

    monkeypatch.setattr(fam, "fill_noise", counting)
    trace = tr.train(state, problem, config)
    monkeypatch.setattr(fam, "fill_noise", fill_noise)
    psi, elbo = reference_train(state, problem, config)
    assert np.array_equal(fam.pack(trace.final_state), psi)
    assert trace.elbo == elbo
    assert trace.steps_run == config.steps
    assert len(calls) == math.ceil(config.steps / tr.NOISE_CHUNK_STEPS)


# -----------------------------------------------------------------------
# train_stack


def stack_members(ranks, p, seed) -> list:
    """The initial states of mf (rank 0) and sN{k} over p parameters, each
    from its own seed, as a roster initializes them."""
    return [
        fam.init_family(
            "structured_normal" if k else "mean_field", p, np.random.default_rng(seed + j), rank=k
        )
        for j, k in enumerate(ranks)
    ]


def stack_configs(n, mode, seed, steps=20) -> list:
    """n training configs that differ in their seeds only."""
    return [
        tr.TrainConfig(steps=steps, learning_rate=0.02, lr_decay=0.99, mode=mode, seed=seed + j)
        for j in range(n)
    ]


def generators_of(calls) -> list:
    """A stand-in for ``fam.gaussian_noise``, which a member calls alone
    and in a stack, that lists in ``calls`` each generator it is handed,
    once, in order of first use."""
    gaussian_noise = fam.gaussian_noise

    def recording(rng, *args):
        if not any(rng is seen for seen in calls):
            calls.append(rng)
        return gaussian_noise(rng, *args)

    return recording


def assert_close(actual, expected):
    """Equal within 1e-12, relative to the largest magnitude expected."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = np.abs(expected).max(initial=0.0)
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=40)
@given(
    ranks=hst.lists(hst.integers(0, 5), min_size=1, max_size=4, unique=True),
    p=hst.integers(1, 6),
    seed=hst.integers(0, 2**16),
    mode=hst.sampled_from(["naive", "paired"]),
)
def test_stacked_members_train_as_they_do_alone(ranks, p, seed, mode):
    # Every member of a stack follows the steps it takes alone up to
    # round-off, draws the same noise from its own generator, and keeps
    # its padded U columns at exactly 0.  A stack of one is a group of
    # one, which trains as train does, bit for bit.
    problem, _ = conjugate_problem(seed=seed % 97, k=p)
    states = stack_members(ranks, p, seed)
    configs = stack_configs(len(ranks), mode, seed + 1000)
    value_grad, steps = tr._value_grad, []

    def checking_padding(template, params, *args):
        # A group of one has no member axis.
        u = params["u"] if len(ranks) > 1 else params["u"][None]
        steps.append(all(not u[j, :, k:].any() for j, k in enumerate(ranks)))
        return value_grad(template, params, *args)

    stacked_rngs = []
    with mock.patch.object(tr, "_value_grad", checking_padding), mock.patch.object(
        fam, "gaussian_noise", generators_of(stacked_rngs)
    ):
        stacked = tr.train_stack(states, problem, configs)
    assert steps == [True] * configs[0].steps
    if len(ranks) == 1:
        assert_same_outcomes(stacked, outcomes_alone(states, problem, configs))
    assert len(stacked_rngs) == len(ranks)
    for state, config, trace, stacked_rng in zip(states, configs, stacked, stacked_rngs):
        alone_rngs = []
        with mock.patch.object(fam, "gaussian_noise", generators_of(alone_rngs)):
            alone = tr.train(state, problem, config)
        assert type(trace.final_state) is type(state)
        assert trace.final_state.u.shape == state.u.shape
        assert_close(fam.pack(trace.final_state), fam.pack(alone.final_state))
        assert_close(trace.elbo, alone.elbo)
        assert trace.steps_run == alone.steps_run == config.steps
        assert stacked_rng.bit_generator.state == alone_rngs[0].bit_generator.state


def outcomes_alone(states, problem, configs) -> list:
    """Each member's ``tr.train`` trace, or the ``ad.MemberFailure`` it raises."""
    outcomes = []
    for state, config in zip(states, configs):
        try:
            outcomes.append(tr.train(state, problem, config))
        except ad.MemberFailure as err:
            outcomes.append(err)
    return outcomes


def assert_same_outcomes(actual, expected):
    """Bit for bit the same outcomes: final psi, ELBO trace and step count,
    or failure text and step."""
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert type(got) is type(want)
        if isinstance(want, ad.MemberFailure):
            assert (str(got), got.step) == (str(want), want.step)
        else:
            assert np.array_equal(fam.pack(got.final_state), fam.pack(want.final_state))
            assert got.elbo == want.elbo
            assert got.steps_run == want.steps_run


def _nan_mean(state):
    state.mu[0] = np.nan


def _capacitance_over_roundoff(state):
    # a = 1 and a first column of 1e5: eps·max(diag C) ≈ 1e-5, over
    # CAPACITANCE_ROUNDOFF, with C's pivots far from singular.
    state.log_a[:] = 0.0
    state.u[:, 0] = 1e5


def _steep_mean(state):
    # The regression's gradient grows with the residual: over GRAD_NORM_GUARD.
    state.mu[:] = 1e5


STACK_LABELS = ["mf", "sn1", "sn2", "sn4"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "label,degrade,text",
    [
        ("mf", _nan_mean, "non-finite value produced by 'log joint'"),
        ("sn2", _nan_mean, "non-finite value produced by 'log joint'"),
        ("sn2", _capacitance_over_roundoff, "capacitance is too large for working precision"),
        ("sn4", _capacitance_over_roundoff, "capacitance is too large for working precision"),
        ("mf", _steep_mean, "exceeded guard"),
        ("sn4", _steep_mean, "exceeded guard"),
    ],
    ids=["mf-nan-mean", "sn2-nan-mean", "sn2-capacitance", "sn4-capacitance", "mf-guard", "sn4-guard"],
)
def test_failing_member_leaves_the_stack_as_it_fails_alone(label, degrade, text):
    # A stack with a failing member gives every member what it gets alone,
    # bit for bit: the failing member its error and step, the rest their
    # traces.
    problem, _ = conjugate_problem(seed=70, k=6)
    states = stack_members([0, 1, 2, 4], 6, 71)
    configs = stack_configs(len(states), "paired", 72)
    failing = STACK_LABELS.index(label)
    degrade(states[failing])
    expected = outcomes_alone(states, problem, configs)
    stacked = tr.train_stack(states, problem, configs)
    assert_same_outcomes(stacked, expected)
    failure = stacked[failing]
    assert isinstance(failure, ad.MemberFailure)
    assert failure.step == 0
    assert text in str(failure)
    assert all(isinstance(stacked[j], tr.TrainTrace) for j in range(len(states)) if j != failing)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=30)
@given(
    ranks=hst.lists(hst.integers(0, 5), min_size=1, max_size=4, unique=True),
    p=hst.integers(1, 6),
    fail_at=hst.integers(1, 19),
    member=hst.integers(0, 3),
    how=hst.sampled_from(["raise", "nan value", "over guard"]),
    seed=hst.integers(0, 2**16),
)
def test_stack_failing_at_any_step_gives_every_member_its_outcome_alone(
    ranks, p, fail_at, member, how, seed
):
    # However far the stack got, no member keeps psi, moments or noise
    # from it: every outcome is the member's ``tr.train`` alone.  A stack
    # of one is a group of one, which fails at that step, as train does.
    problem, _ = conjugate_problem(seed=seed % 97, k=p)
    states = stack_members(ranks, p, seed)
    configs = stack_configs(len(ranks), "paired", seed + 1000)
    expected = outcomes_alone(states, problem, configs)
    value_grad, steps = tr._value_grad, []

    def failing_at(template, *args):
        values, grad, sq = value_grad(template, *args)
        if len(ranks) > 1 and template.mu.ndim == 1:
            return values, grad, sq  # a member trained alone after its stack failed
        steps.append(len(steps))
        if steps[-1] == fail_at:
            j = member % len(ranks)
            if how == "raise":
                raise ad.MemberFailure("forced stacked failure")
            if how == "nan value" and len(ranks) == 1:
                values = np.nan
            elif how == "nan value":
                values[j] = np.nan
            elif len(ranks) == 1:
                sq = (2 * tr.GRAD_NORM_GUARD) ** 2
            else:
                sq[j] = (2 * tr.GRAD_NORM_GUARD) ** 2
        return values, grad, sq

    with mock.patch.object(tr, "_value_grad", failing_at):
        stacked = tr.train_stack(states, problem, configs)
    assert steps == list(range(fail_at + 1))
    if len(ranks) > 1:
        assert_same_outcomes(stacked, expected)
    else:
        (failure,) = stacked
        assert isinstance(failure, ad.MemberFailure)
        assert failure.step == fail_at
        text = {"raise": "forced", "nan value": "non-finite value", "over guard": "exceeded guard"}
        assert text[how] in str(failure)


def test_stack_rejects_members_that_cannot_share_a_step():
    problem, _ = conjugate_problem(seed=73)
    states = stack_members([1, 2], 4, 74)
    configs = stack_configs(2, "paired", 75)
    with pytest.raises(ValueError, match="one config"):
        tr.train_stack(states, problem, [configs[0], tr.TrainConfig(steps=5, mode="paired")])
    unscented = [tr.TrainConfig(steps=5, mode="unscented", seed=s) for s in (1, 2)]
    with pytest.raises(ValueError, match="effective sample count"):
        tr.train_stack(stack_members([1, 10], 4, 74), problem, unscented)
    # mf cannot sample in unscented mode: the stack says so before step 0,
    # as fam.draw_noise says so to mf alone, not with the division by its
    # rank 0 that its unscented noise would make.
    with mock.patch.object(tr, "_value_grad") as step:
        with pytest.raises(fam.ModeFamilyError, match="unscented"):
            tr.train_stack(stack_members([1, 0], 4, 74), problem, unscented)
    assert not step.called


@pytest.mark.parametrize("steps", [0, 3])
def test_a_mode_a_member_cannot_sample_in_fails_before_step_zero(steps):
    # One mode rule for every group, at any step budget: MAP alone and a
    # stack holding mf are told that they cannot sample in the mode before
    # step 0, also when no step would draw.
    problem, _ = conjugate_problem(seed=80)
    state = fam.init_family("map", 4, np.random.default_rng(81))
    with pytest.raises(fam.ModeFamilyError, match="naive sampling only"):
        tr.train(state, problem, tr.TrainConfig(steps=steps, mode="paired"))
    unscented = [tr.TrainConfig(steps=steps, mode="unscented", seed=s) for s in (1, 2)]
    with pytest.raises(fam.ModeFamilyError, match="unscented"):
        tr.train_stack(stack_members([1, 0], 4, 82), problem, unscented)


# -----------------------------------------------------------------------
# train_roster


ROSTER_KINDS = [
    ("map", {}),
    ("mc_dropout", {"keep_prob": 0.5}),
    ("mixture", {"rank": 1, "components": 2}),
    *[("structured_normal" if k else "mean_field", {"rank": k}) for k in range(6)],
]


@hst.composite
def rosters(draw):
    """(states, configs) of a roster over p parameters: any of MAP, MC
    dropout, an sGMM and mf or sN of rank 1 to 5, each in a mode it can
    sample in, with configs that differ in their seeds and modes only, and
    perhaps one member whose psi starts with a NaN."""
    p = draw(hst.integers(1, 5))
    kinds = draw(hst.lists(hst.sampled_from(ROSTER_KINDS), min_size=1, max_size=6))
    seed = draw(hst.integers(0, 2**16))
    states, configs = [], []
    for j, (tag, kwargs) in enumerate(kinds):
        modes = [m for m in fam.MODES if _can_sample(tag, m, kwargs.get("rank", 0))]
        mode = draw(hst.sampled_from(modes))
        states.append(fam.init_family(tag, p, np.random.default_rng(seed + j), **kwargs))
        configs.append(
            tr.TrainConfig(
                steps=12, learning_rate=0.02, lr_decay=0.99, mode=mode, seed=seed + 100 + j
            )
        )
    nan_at = draw(hst.one_of(hst.none(), hst.integers(0, len(states) - 1)))
    if nan_at is not None:
        psi = fam.pack(states[nan_at])
        psi[0] = np.nan
        states[nan_at] = fam.unpack(states[nan_at], psi)
    return states, configs


def _can_sample(tag, mode, rank) -> bool:
    try:
        fam.check_mode(tag, mode, rank)
    except fam.ModeFamilyError:
        return False
    return True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40)
@given(roster=rosters())
def test_roster_trains_every_member_as_it_trains_alone(roster):
    # The members alone get train's outcome bit for bit, the stacked ones
    # to round-off (or bit for bit, when their stack fails), and each group
    # of mf and sN members (here configs differ in seed and mode only, so
    # one per mode and effective sample count) is one train_stack call, its
    # members in roster order.
    states, configs = roster
    problem, _ = conjugate_problem(seed=78, k=states[0].dim)
    groups: dict = {}
    for i, (state, config) in enumerate(zip(states, configs)):
        if isinstance(state, fam.StructuredNormalState):
            key = (config.mode, tr._effective_sample_count(state, config))
            groups.setdefault(key, []).append(i)
    train_stack, stacks = tr.train_stack, []

    def recording(members, target, member_configs):
        stacks.append([next(i for i, s in enumerate(states) if s is m) for m in members])
        return train_stack(members, target, member_configs)

    with mock.patch.object(tr, "train_stack", recording):
        outcomes = tr.train_roster(states, problem, configs)
    assert stacks == list(groups.values())
    expected = outcomes_alone(states, problem, configs)
    assert len(outcomes) == len(expected)
    for state, got, want in zip(states, outcomes, expected):
        if not isinstance(state, fam.StructuredNormalState) or isinstance(got, ad.MemberFailure):
            assert_same_outcomes([got], [want])
        else:
            assert isinstance(want, tr.TrainTrace)
            assert_close(fam.pack(got.final_state), fam.pack(want.final_state))
            assert_close(got.elbo, want.elbo)
            assert got.steps_run == want.steps_run


def test_roster_trains_members_whose_configs_differ_apart():
    # Two sN1 members that differ in steps, and an mf that differs in
    # learning rate, share a mode and an effective sample count but no
    # config: each trains as a stack of its own, which is train bit for bit.
    problem, _ = conjugate_problem(seed=79, k=3)
    states = [
        fam.init_family(tag, 3, np.random.default_rng(seed), rank=k)
        for seed, (tag, k) in enumerate(
            [("structured_normal", 1), ("structured_normal", 1), ("mean_field", 0)]
        )
    ]
    configs = [
        tr.TrainConfig(steps=5, learning_rate=0.02, mode="paired", seed=11),
        tr.TrainConfig(steps=6, learning_rate=0.02, mode="paired", seed=12),
        tr.TrainConfig(steps=5, learning_rate=0.03, mode="paired", seed=13),
    ]
    train_stack, stacks = tr.train_stack, []

    def recording(members, target, member_configs):
        stacks.append(len(members))
        return train_stack(members, target, member_configs)

    with mock.patch.object(tr, "train_stack", recording):
        outcomes = tr.train_roster(states, problem, configs)
    assert stacks == [1, 1, 1]
    assert_same_outcomes(outcomes, outcomes_alone(states, problem, configs))


# -----------------------------------------------------------------------
# gradient variance probe


def test_probe_zero_variance_for_map():
    problem, _ = conjugate_problem(seed=26)
    state = fam.init_family("map", problem.model_shape(), np.random.default_rng(27))
    probe = tr.gradient_variance_probe(
        state, problem, "naive", 100, np.random.default_rng(28)
    )
    # The delta mass gives identical gradients every repeat; the variance is
    # zero up to the accumulation round-off of np.var.
    scale = 1.0 + probe.mean**2
    assert np.all(probe.variance <= 1e-18 * scale)


def test_probe_requires_enough_repeats():
    problem, _ = conjugate_problem(seed=29)
    state = fam.init_family("map", problem.model_shape(), np.random.default_rng(30))
    with pytest.raises(ValueError):
        tr.gradient_variance_probe(state, problem, "naive", 10, np.random.default_rng(31))


def test_paired_variance_not_worse_on_mean_coordinates():
    problem, _ = conjugate_problem(seed=32, k=3)
    rng = np.random.default_rng(33)
    state = fam.StructuredNormalState(
        mu=rng.standard_normal(3) * 0.2,
        log_a=np.log(np.full(3, 0.3)),
        u=rng.standard_normal((3, 1)) * 0.4,
    )
    naive = tr.gradient_variance_probe(state, problem, "naive", 300, np.random.default_rng(34))
    paired = tr.gradient_variance_probe(state, problem, "paired", 300, np.random.default_rng(35))
    mean_idx = fam.mean_param_indices(state)
    assert np.all(paired.variance[mean_idx] <= naive.variance[mean_idx])


def test_doubling_samples_halves_variance():
    problem, _ = conjugate_problem(seed=36, k=3)
    rng = np.random.default_rng(37)
    state = fam.StructuredNormalState(
        mu=rng.standard_normal(3) * 0.2,
        log_a=np.log(np.full(3, 0.3)),
        u=rng.standard_normal((3, 1)) * 0.4,
    )
    small = tr.gradient_variance_probe(
        state, problem, "naive", 3000, np.random.default_rng(38), mc_samples=4
    )
    big = tr.gradient_variance_probe(
        state, problem, "naive", 3000, np.random.default_rng(39), mc_samples=8
    )
    ratio = big.variance / small.variance
    # iid averaging: doubling samples halves the variance (within 20%)
    np.testing.assert_allclose(ratio, 0.5, rtol=0.2)


# -----------------------------------------------------------------------
# config and trace plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(mc_samples=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(mode="qmc")
    with pytest.raises(ValueError):
        tr.TrainConfig(learning_rate=-1.0)


def test_trace_csv_and_state_json():
    problem, _ = conjugate_problem(seed=40)
    state = fam.init_family("map", problem.model_shape(), np.random.default_rng(41))
    trace = tr.train(state, problem, tr.TrainConfig(steps=20, seed=10))
    assert len(trace.elbo) == trace.steps_run == 20
    doc = json.loads(json.dumps(fam.state_to_json_dict(trace.final_state)))
    np.testing.assert_array_equal(doc["theta_hat"], trace.final_state.theta_hat)
