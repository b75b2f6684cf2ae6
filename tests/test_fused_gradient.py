"""The closed-form ELBO step against independent checks.

``trainer.elbo_value_and_grad`` is the one implementation of every
family's ELBO value and gradient.  These tests hold it, on generated
parameters and sGMM included, to references that share none of its
adjoint code: its draws against ``families.realize_blocks``, its log q
against ``families.log_density``, its value against the target's own
plain log-densities, and its gradient against central finite differences
of that value.  They also check that training builds no tape, and that
a failed step raises an error naming what failed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import vifit.autodiff as ad
import vifit.families as fam
import vifit.lowrank as lr
import vifit.models as mod
import vifit.oracle as orc
import vifit.trainer as tr

FAMILY_MODES = [
    ("map", "naive"),
    ("mc_dropout", "naive"),
    ("mean_field", "naive"),
    ("mean_field", "paired"),
    ("structured_normal", "naive"),
    ("structured_normal", "paired"),
    ("structured_normal", "unscented"),
]
TARGETS = ("gaussian_prior", "gaussian_dist", "mixture_dist")
N_DATA = 12

# The step along each checked direction, and the bound on |central
# difference − gradient·d| relative to max(1, |ELBO|, ‖gradient‖).  Central
# differences err by h²/6 times the third derivative plus eps·|ELBO|/h;
# over the 825 generated cases below that came to at most 1.2e-10 of the
# scale (ψ entries are at most 1.5 in size, so the third derivatives stay
# moderate).  A wrong adjoint is off by a share of the gradient itself.
FD_STEP = 1e-5
FD_TOL = 1e-7


def regression_target(p):
    spec = mod.RbfModelSpec.regular(p, noise_sigma=0.3)
    problem, _ = mod.make_rbf_dataset(spec, N_DATA, seed=p)
    return problem


def gaussian_target(p, rng):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    cov = q @ np.diag(np.exp(rng.uniform(-1.0, 1.0, p))) @ q.T
    return orc.GaussianDist(mean=rng.standard_normal(p), cov=0.5 * (cov + cov.T))


def mixture_target(p, rng):
    comps = (gaussian_target(p, rng), gaussian_target(p, rng))
    return orc.GaussianMixtureDist(components=comps, weights=np.array([0.3, 0.7]))


def log_joint_rows(target, theta):
    """The target's per-row log joint from its plain-array densities."""
    if hasattr(target, "loglik_rows"):
        return target.loglik_rows(theta) + target.prior_rows(theta)
    return target.log_density(theta)


def assert_matches_references(state, psi, noise, target):
    theta, log_q, coeff, _ = fam.draws_logq_vjp(state, fam.param_views(state, psi), noise)
    draws = fam.gather_blocks(fam.realize_blocks(state, noise), noise.count, state.dim)
    np.testing.assert_allclose(theta, draws, rtol=1e-13, atol=1e-13)
    rows = log_joint_rows(target, theta)
    if state.tag in fam.ATOMIC_TAGS:
        assert log_q is None
    else:
        want_log_q = fam.log_density(state, theta)
        np.testing.assert_allclose(log_q, want_log_q, rtol=1e-12, atol=1e-12)
        rows = rows - want_log_q
    if noise.stratified:  # each draw weighs M·w of its component
        want_coeff = state.n_components * state.weights[noise.components]
        np.testing.assert_allclose(coeff, want_coeff, rtol=1e-12)
        rows = rows * want_coeff
    else:
        assert coeff is None

    value, grad = tr.elbo_value_and_grad(state, psi, noise, target)
    assert abs(value - rows.mean()) <= 1e-12 * max(1.0, abs(value))
    # One random unit direction inside each param_slices block, so that an
    # error in any block shows, and one across all of ψ.
    rng = np.random.default_rng(0)
    slices = [*fam.param_slices(state).values(), slice(0, psi.size)]
    directions = np.zeros((psi.size, len(slices)))
    for j, sl in enumerate(slices):
        d = rng.standard_normal(sl.stop - sl.start)
        directions[sl, j] = d / np.linalg.norm(d)
    fd = ad.finite_difference_gradient(
        lambda t: tr.elbo_value_and_grad(state, psi + directions @ t, noise, target)[0],
        np.zeros(len(slices)),
        step=FD_STEP,
    )
    scale = max(1.0, abs(value), np.linalg.norm(grad))
    assert np.max(np.abs(fd - grad @ directions)) <= FD_TOL * scale


def draw_target(target_kind, p, rng):
    """A generated target of the given kind."""
    if target_kind == "gaussian_dist":
        return gaussian_target(p, rng)
    if target_kind == "mixture_dist":
        return mixture_target(p, rng)
    return regression_target(p)


@st.composite
def elbo_case(draw, tag, mode, target_kind):
    """A family state at generated psi, its noise and a target."""
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kwargs = {}
    if tag == "structured_normal":
        kwargs["rank"] = draw(st.integers(1 if mode == "unscented" else 0, p))
    if tag == "mc_dropout":
        kwargs["keep_prob"] = draw(st.floats(0.0, 1.0))
    state = fam.init_family(tag, p, rng, **kwargs)
    psi = draw(
        hnp.arrays(np.float64, fam.pack(state).size, elements=st.floats(-1.5, 1.5))
    )
    state = fam.unpack(state, psi)
    config = tr.TrainConfig(mc_samples=draw(st.integers(1, 8)), mode=mode)
    noise = fam.draw_noise(state, mode, tr._effective_sample_count(state, config), rng)
    return state, psi, noise, draw_target(target_kind, p, rng)


@pytest.mark.parametrize("target_kind", TARGETS)
@pytest.mark.parametrize("tag,mode", FAMILY_MODES)
def test_fused_matches_tape(tag, mode, target_kind):
    @settings(max_examples=25)
    @given(elbo_case(tag, mode, target_kind))
    def check(case):
        assert_matches_references(*case)

    check()


@st.composite
def mixture_case(draw, mode, stratified, target_kind):
    """An sGMM at generated psi (P ≤ 8, K ≤ P, M ≤ 4), its noise and a target.

    Each component's U rows are scaled by √a, which keeps C = I + UᵀA⁻¹U
    well conditioned.
    """
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = fam.init_family(
        "mixture",
        p,
        rng,
        rank=draw(st.integers(0, p)),
        components=draw(st.integers(1, 4)),
    )
    psi = draw(
        hnp.arrays(np.float64, fam.pack(state).size, elements=st.floats(-1.5, 1.5))
    )
    state = fam.unpack(state, psi)
    for comp in state.components:
        comp.u *= np.exp(0.5 * comp.log_a)[:, None]
    psi = fam.pack(state)
    config = tr.TrainConfig(mc_samples=draw(st.integers(1, 8)), mode=mode)
    count = tr._effective_sample_count(state, config)
    noise = fam.draw_noise(state, mode, count, rng, stratify_components=stratified)
    return state, psi, noise, draw_target(target_kind, p, rng)


@pytest.mark.parametrize("target_kind", TARGETS)
@pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "sampled"])
@pytest.mark.parametrize("mode", ["naive", "paired"])
def test_fused_mixture_matches_tape(mode, stratified, target_kind):
    @settings(max_examples=25)
    @given(mixture_case(mode, stratified, target_kind))
    def check(case):
        assert_matches_references(*case)

    check()


def _count_nodes(monkeypatch) -> list:
    calls = []
    original = ad._node

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ad, "_node", counting)
    return calls


@pytest.mark.parametrize(
    "tag,target_of",
    [
        ("mixture", lambda p, rng: regression_target(p)),
        ("structured_normal", mixture_target),
        ("structured_normal", lambda p, rng: regression_target(p)),
        ("mean_field", gaussian_target),
        ("mc_dropout", lambda p, rng: regression_target(p)),
    ],
    ids=[
        "sgmm-regression", "sn-mixture_target", "sn-regression", "mf-gaussian",
        "dropout-regression",
    ],
)
def test_dispatch_tapes_only_gradient_free_targets(monkeypatch, tag, target_of):
    # Every target has a closed-form gradient, so a step records no node.
    rng = np.random.default_rng(5)
    target = target_of(4, rng)
    kwargs = {"rank": 2} if tag in ("mixture", "structured_normal") else {}
    state = fam.init_family(tag, 4, rng, **kwargs)
    mode = "naive" if tag == "mc_dropout" else "paired"
    count = tr._effective_sample_count(state, tr.TrainConfig(mode=mode))
    noise = fam.draw_noise(
        state, mode, count, rng, stratify_components=isinstance(state, fam.MixtureState)
    )
    calls = _count_nodes(monkeypatch)
    value, grad = tr.elbo_value_and_grad(state, fam.pack(state), noise, target)
    assert calls == []
    assert np.isfinite(value) and np.all(np.isfinite(grad))


FAMILY_KWARGS = {
    "map": {},
    "mc_dropout": {"keep_prob": 0.7},
    "mean_field": {},
    "structured_normal": {"rank": 2},
    "mixture": {"rank": 1},
}


@pytest.mark.parametrize("target_kind", TARGETS)
@pytest.mark.parametrize("tag", sorted(FAMILY_KWARGS))
def test_training_builds_no_tape(monkeypatch, tag, target_kind):
    # ``train`` records no node on any target; the gate's check of the
    # gradient that trains records exactly one, ``elbo_graph``'s.
    rng = np.random.default_rng(10)
    target = {
        "gaussian_prior": lambda: regression_target(3),
        "gaussian_dist": lambda: gaussian_target(3, rng),
        "mixture_dist": lambda: mixture_target(3, rng),
    }[target_kind]()
    state = fam.init_family(tag, 3, rng, **FAMILY_KWARGS[tag])
    config = tr.TrainConfig(steps=20, mode="naive", seed=11)
    calls = _count_nodes(monkeypatch)
    tr.train(state, target, config)
    assert calls == []
    noise = tr._draw_noise(state, config, rng)
    ad.evaluate_with_gradient(lambda p: tr.elbo_graph(state, p, noise, target), fam.pack(state))
    assert len(calls) == 1


def _poisoned(tag, p, rng):
    """A state whose ELBO overflows, and the term and psi blocks that report it."""
    state = fam.init_family(tag, p, rng, rank=2)
    psi = fam.pack(state)
    if tag in ("map", "mc_dropout"):
        psi[:] = 1e200  # the residuals overflow once squared; their gradient does not
        expected = ("log joint", "finite gradient")
    elif tag == "mean_field":
        psi[p:] = 800.0  # exp(log_sigma) overflows: every draw is ±inf
        expected = ("log joint", "gradient not finite in psi blocks mu, log_sigma")
    else:
        psi[:p] = 1e160  # draws this large overflow once squared
        expected = ("log joint", "finite gradient")
    return fam.unpack(state, psi), expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tag", ["map", "mc_dropout", "mean_field", "structured_normal"])
def test_nonfinite_step_raises_what_the_tape_raises(tag):
    rng = np.random.default_rng(7)
    problem = regression_target(4)
    state, (term, detail) = _poisoned(tag, 4, rng)
    mode = "naive" if tag in fam.ATOMIC_TAGS else "paired"
    count = tr._effective_sample_count(state, tr.TrainConfig(mode=mode))
    noise = fam.draw_noise(state, mode, count, rng)
    with pytest.raises(ad.NonFiniteValueError) as step_err:
        tr.elbo_value_and_grad(state, fam.pack(state), noise, problem)
    assert step_err.value.primitive == term
    assert str(step_err.value) == f"non-finite value produced by '{term}' ({detail})"

    with pytest.raises(tr.ElboNotFiniteError) as train_err:
        tr.train(state, problem, tr.TrainConfig(steps=3, mode=mode))
    assert train_err.value.step == 0
    assert str(train_err.value) == f"non-finite ELBO at step 0: {step_err.value}"


def _singular_capacitance_state(tag, p):
    # Two equal columns of length 2^30 with a = 1: 1 + x == x inside
    # C = I + UᵀA⁻¹U, which is then exactly singular.  An sGMM gets it in its
    # last component only.
    state = fam.init_family(tag, p, np.random.default_rng(8), rank=2)
    singular = state.components[-1] if tag == "mixture" else state
    singular.log_a[:] = 0.0
    singular.u[:] = 0.0
    singular.u[0, :] = 2.0**30
    return state


def _assert_fails_at_step_zero(state, problem):
    stratify = isinstance(state, fam.MixtureState)
    noise = fam.draw_noise(
        state, "paired", 8, np.random.default_rng(9), stratify_components=stratify
    )
    with pytest.raises(lr.FactorizationError, match="capacitance factorization failed"):
        tr.elbo_value_and_grad(state, fam.pack(state), noise, problem)

    with pytest.raises(tr.CapacitanceError) as err:
        tr.train(state, problem, tr.TrainConfig(steps=5, mode="paired"))
    assert isinstance(err.value, tr.TrainingError)
    assert err.value.step == 0
    assert "capacitance factorization failed" in str(err.value)


# The failure is the family's, whichever closed form the target has.
CAPACITANCE_TARGETS = {
    "closed_form": lambda: regression_target(4),
    "gaussian_target": lambda: gaussian_target(4, np.random.default_rng(12)),
}


@pytest.mark.parametrize("target_kind", sorted(CAPACITANCE_TARGETS))
def test_degenerate_capacitance_fails_the_family_with_its_step(target_kind):
    state = _singular_capacitance_state("structured_normal", 4)
    _assert_fails_at_step_zero(state, CAPACITANCE_TARGETS[target_kind]())


@pytest.mark.parametrize("target_kind", sorted(CAPACITANCE_TARGETS))
def test_degenerate_component_capacitance_fails_the_sgmm_with_its_step(target_kind):
    state = _singular_capacitance_state("mixture", 4)
    _assert_fails_at_step_zero(state, CAPACITANCE_TARGETS[target_kind]())
