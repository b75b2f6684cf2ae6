"""The closed-form ELBO gradient against the tape it stands in for.

``trainer.elbo_value_and_grad`` splits the estimator at θ for every family
when the target has a closed-form θ-gradient.  These tests hold it to the
tape (``elbo_graph`` under ``evaluate_with_gradient``) on generated
parameters, sGMM included, check which inputs stay on the tape, and check
that failures surface exactly as the tape reports them.
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
TARGETS = ("gaussian_prior", "student_t_prior", "minibatch", "gaussian_dist", "mixture_dist")
N_DATA = 12


class TapeOnly:
    """A regression target that hides its closed-form gradient."""

    def __init__(self, problem):
        self.problem = problem
        self.n = problem.n

    def loglik_rows(self, theta, batch_indices=None):
        return self.problem.loglik_rows(theta, batch_indices)

    def prior_rows(self, theta):
        return self.problem.prior_rows(theta)


def regression_target(p, prior=None):
    spec = mod.RbfModelSpec.regular(p, noise_sigma=0.3)
    problem, _ = mod.make_rbf_dataset(spec, N_DATA, seed=p, prior=prior)
    return problem


def gaussian_target(p, rng):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    cov = q @ np.diag(np.exp(rng.uniform(-1.0, 1.0, p))) @ q.T
    return orc.GaussianDist(mean=rng.standard_normal(p), cov=0.5 * (cov + cov.T))


def mixture_target(p, rng):
    comps = (gaussian_target(p, rng), gaussian_target(p, rng))
    return orc.GaussianMixtureDist(components=comps, weights=np.array([0.3, 0.7]))


def tape_value_and_grad(state, psi, noise, problem, batch=None):
    report = ad.evaluate_with_gradient(
        lambda v: tr.elbo_graph(state, v, noise, problem, batch), psi
    )
    return report.value, report.gradient


def assert_matches_tape(state, psi, noise, target, batch):
    value, grad = tr.elbo_value_and_grad(state, psi, noise, target, batch)
    ref_value, ref_grad = tape_value_and_grad(state, psi, noise, target, batch)
    assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
    scale = max(np.max(np.abs(ref_grad)), np.finfo(float).tiny)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-10 * scale


def draw_target(draw, target_kind, p, rng):
    """A generated target of the given kind and, for "minibatch", its batch."""
    batch = None
    if target_kind == "gaussian_dist":
        target = gaussian_target(p, rng)
    elif target_kind == "mixture_dist":
        target = mixture_target(p, rng)
    elif target_kind == "student_t_prior":
        nu, scale = draw(st.floats(0.5, 10.0)), draw(st.floats(0.3, 3.0))
        target = regression_target(p, mod.StudentTPrior(nu=nu, scale=scale))
    else:
        target = regression_target(p, mod.GaussianPrior(draw(st.floats(0.1, 10.0))))
        if target_kind == "minibatch":
            size = draw(st.integers(1, N_DATA - 1))
            batch = rng.choice(N_DATA, size=size, replace=False)
    return target, batch


@st.composite
def elbo_case(draw, tag, mode, target_kind):
    """A family state at generated psi, its noise, a target and a minibatch."""
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kwargs = {}
    if tag == "structured_normal":
        kwargs["rank"] = draw(st.integers(1 if mode == "unscented" else 0, p))
    if tag == "mc_dropout":
        kwargs["keep_prob"] = draw(st.floats(0.0, 1.0))
    state = fam.init_family(tag, fam.ModelShape.linear(p), rng, **kwargs)
    psi = draw(
        hnp.arrays(np.float64, fam.pack(state).size, elements=st.floats(-1.5, 1.5))
    )
    state = fam.unpack(state, psi)
    config = tr.TrainConfig(mc_samples=draw(st.integers(1, 8)), mode=mode)
    noise = fam.draw_noise(state, mode, tr._effective_sample_count(state, config), rng)
    return (state, psi, noise, *draw_target(draw, target_kind, p, rng))


@pytest.mark.parametrize("target_kind", TARGETS)
@pytest.mark.parametrize("tag,mode", FAMILY_MODES)
def test_fused_matches_tape(tag, mode, target_kind):
    @settings(max_examples=25)
    @given(elbo_case(tag, mode, target_kind))
    def check(case):
        assert_matches_tape(*case)

    check()


@st.composite
def mixture_case(draw, mode, stratified, target_kind):
    """An sGMM at generated psi (P ≤ 8, K ≤ P, M ≤ 4), its noise and a target.

    Each component's U rows are scaled by √a, which keeps C = I + UᵀA⁻¹U
    well conditioned: on an ill-conditioned C the tape's own adjoint of the
    diagonal loses digits, so it stops being a sharp reference.
    """
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = fam.init_family(
        "mixture",
        fam.ModelShape.linear(p),
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
    return (state, psi, noise, *draw_target(draw, target_kind, p, rng))


@pytest.mark.parametrize("target_kind", TARGETS)
@pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "sampled"])
@pytest.mark.parametrize("mode", ["naive", "paired"])
def test_fused_mixture_matches_tape(mode, stratified, target_kind):
    @settings(max_examples=25)
    @given(mixture_case(mode, stratified, target_kind))
    def check(case):
        assert_matches_tape(*case)

    check()


def _count_backward(monkeypatch) -> list:
    calls = []
    original = ad.backward

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ad, "backward", counting)
    return calls


def _mlp_target(rng):
    xs = np.linspace(-1.0, 1.0, 8)
    return mod.MlpProblem(
        mlp=mod.OneHiddenMlp(3), xs=xs, targets=np.sin(3 * xs), prior=mod.GaussianPrior(1.0)
    )


@pytest.mark.parametrize(
    "tag,target_of,on_tape",
    [
        ("mixture", lambda p, rng: regression_target(p), False),
        ("structured_normal", mixture_target, False),
        ("structured_normal", lambda p, rng: _mlp_target(rng), True),
        ("structured_normal", lambda p, rng: TapeOnly(regression_target(p)), True),
        ("structured_normal", lambda p, rng: regression_target(p), False),
        ("mean_field", gaussian_target, False),
        ("mc_dropout", lambda p, rng: regression_target(p), False),
    ],
    ids=[
        "sgmm-regression",
        "sn-mixture_target",
        "sn-mlp",
        "sn-tape_only",
        "sn-regression",
        "mf-gaussian",
        "dropout-regression",
    ],
)
def test_dispatch_tapes_only_gradient_free_targets(monkeypatch, tag, target_of, on_tape):
    rng = np.random.default_rng(5)
    target = target_of(4, rng)
    shape = getattr(target, "model_shape", lambda: fam.ModelShape.linear(4))()
    kwargs = {"rank": 2} if tag in ("mixture", "structured_normal") else {}
    state = fam.init_family(tag, shape, rng, **kwargs)
    mode = "naive" if tag == "mc_dropout" else "paired"
    count = tr._effective_sample_count(state, tr.TrainConfig(mode=mode))
    noise = fam.draw_noise(
        state, mode, count, rng, stratify_components=isinstance(state, fam.MixtureState)
    )
    calls = _count_backward(monkeypatch)
    value, grad = tr.elbo_value_and_grad(state, fam.pack(state), noise, target)
    assert len(calls) == (1 if on_tape else 0)
    assert np.isfinite(value) and np.all(np.isfinite(grad))


def _poisoned(tag, p, rng):
    """A state whose ELBO overflows, with the tape primitive that reports it."""
    state = fam.init_family(tag, fam.ModelShape.linear(p), rng, rank=2)
    psi = fam.pack(state)
    if tag in ("map", "mc_dropout"):
        psi[:] = 1e200
    elif tag == "mean_field":
        psi[p:] = 800.0  # exp(log_sigma) overflows
    else:
        psi[2 * p :] = 1e160  # draws this large overflow once squared
    return fam.unpack(state, psi)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tag", ["map", "mc_dropout", "mean_field", "structured_normal"])
def test_nonfinite_step_raises_what_the_tape_raises(tag):
    rng = np.random.default_rng(7)
    problem = regression_target(4)
    state = _poisoned(tag, 4, rng)
    mode = "naive" if tag in fam.ATOMIC_TAGS else "paired"
    count = tr._effective_sample_count(state, tr.TrainConfig(mode=mode))
    noise = fam.draw_noise(state, mode, count, rng)
    psi = fam.pack(state)
    with pytest.raises(ad.NonFiniteValueError) as tape_err:
        tape_value_and_grad(state, psi, noise, problem)
    with pytest.raises(ad.NonFiniteValueError) as fused_err:
        tr.elbo_value_and_grad(state, psi, noise, problem)
    assert type(fused_err.value) is type(tape_err.value)
    assert str(fused_err.value) == str(tape_err.value)

    with pytest.raises(tr.ElboNotFiniteError) as train_err:
        tr.train(state, problem, tr.TrainConfig(steps=3, mode=mode))
    assert train_err.value.step == 0
    assert f"'{tape_err.value.primitive}'" in str(train_err.value)


def _singular_capacitance_state(tag, p):
    # Two equal columns of length 2^30 with a = 1: 1 + x == x inside
    # C = I + UᵀA⁻¹U, which is then exactly singular.  An sGMM gets it in its
    # last component only.
    state = fam.init_family(tag, fam.ModelShape.linear(p), np.random.default_rng(8), rank=2)
    singular = state.components[-1] if tag == "mixture" else state
    singular.log_a[:] = 0.0
    singular.u[:] = 0.0
    singular.u[0, :] = 2.0**30
    return state


def _assert_fails_at_step_zero_as_on_tape(state, problem):
    stratify = isinstance(state, fam.MixtureState)
    noise = fam.draw_noise(
        state, "paired", 8, np.random.default_rng(9), stratify_components=stratify
    )
    with pytest.raises(lr.FactorizationError) as step_err:
        tr.elbo_value_and_grad(state, fam.pack(state), noise, problem)
    with pytest.raises(lr.FactorizationError) as tape_err:
        tape_value_and_grad(state, fam.pack(state), noise, problem)
    assert str(step_err.value) == str(tape_err.value)

    with pytest.raises(tr.CapacitanceError) as err:
        tr.train(state, problem, tr.TrainConfig(steps=5, mode="paired"))
    assert isinstance(err.value, tr.TrainingError)
    assert err.value.step == 0


@pytest.mark.parametrize("wrap", [lambda t: t, TapeOnly], ids=["closed_form", "tape"])
def test_degenerate_capacitance_fails_the_family_with_its_step(wrap):
    state = _singular_capacitance_state("structured_normal", 4)
    _assert_fails_at_step_zero_as_on_tape(state, wrap(regression_target(4)))


@pytest.mark.parametrize("wrap", [lambda t: t, TapeOnly], ids=["closed_form", "tape"])
def test_degenerate_component_capacitance_fails_the_sgmm_with_its_step(wrap):
    state = _singular_capacitance_state("mixture", 4)
    _assert_fails_at_step_zero_as_on_tape(state, wrap(regression_target(4)))
