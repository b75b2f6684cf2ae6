"""Python-level calls per training step: a host-independent cost check.

A closed-form step costs bookkeeping, not arithmetic, so its time follows
the number of Python and C-function calls it makes rather than the flops.
That number does not depend on the machine.  These tests count, with
``sys.setprofile``, every call event that one ``train`` makes and divide
by its steps, for every member the commands fit, each bounded a little
above its count.  Bounds are only ever lowered.

On the regression target (P = 10, 8 draws) a step of MAP and
``mc_dropout`` makes 15.3 calls, mf 26.3 and sN1 to sN10 48.4; sN4 makes
50.5 on a ``GaussianDist``.  sN made 94.4 and 96.6 when the log-q kernel
went through ``np.linalg.cholesky`` and ``np.linalg.solve``: their
argument checks, casts and error states took 46 calls a step, which the
kernel's direct call of the LAPACK gufuncs under one ``np.errstate`` does
not make.  Redoing the layout walk, the target lookup and the noise draw
every step, with out-of-place updates, took 208 and 182.  ufunc calls
raise no call event, so Adam's update counts the same whether m and v
are two arrays or the rows of one.

On the bimodal target (P = 8, two components) a step of mf, sN4 and a
two-component rank-2 sGMM makes 33.7, 55.4 and 96.7 calls.  Looping
over the target's components, and over the sGMM's in its draw, kernel
and adjoint, took 66.7, 134.4 and 280.7; the numpy wrappers took sN4 and
the sGMM to 101.4 and 142.7.
"""

import sys

import numpy as np
import pytest

import vifit.cli as cli
import vifit.families as fam
import vifit.models as mod
import vifit.oracle as orc
import vifit.trainer as tr

CALLS_PER_STEP_BOUND = 54  # sN at any rank on a regression or Gaussian target


def calls_per_step(state, target, config) -> float:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        trace = tr.train(state, target, config)
    finally:
        sys.setprofile(None)
    return calls / trace.steps_run


def regression_target():
    spec = mod.RbfModelSpec.regular(10, noise_sigma=0.25)
    return mod.make_rbf_dataset(spec, 64, seed=0)[0]


@pytest.mark.parametrize("target_kind", ["regression", "gaussian"])
def test_sn4_step_call_count_is_bounded(target_kind):
    target = regression_target()
    if target_kind == "gaussian":
        target = orc.exact_linear_posterior(target)
    state = fam.init_family(
        "structured_normal", 10, np.random.default_rng(0), rank=4
    )
    config = tr.TrainConfig(steps=4 * tr.NOISE_CHUNK_STEPS, mc_samples=8)
    assert calls_per_step(state, target, config) < CALLS_PER_STEP_BOUND


@pytest.mark.parametrize(
    "tag,kwargs,bound",
    [
        ("map", {}, 17),
        ("mc_dropout", {}, 17),
        ("mean_field", {}, 29),
        ("structured_normal", {"rank": 1}, CALLS_PER_STEP_BOUND),
        ("structured_normal", {"rank": 10}, CALLS_PER_STEP_BOUND),
    ],
    ids=["map", "mc_dropout", "mf", "sn1", "sn10"],
)
def test_step_call_count_on_the_regression_target_is_bounded(tag, kwargs, bound):
    state = fam.init_family(tag, 10, np.random.default_rng(0), **kwargs)
    config = tr.TrainConfig(steps=4 * tr.NOISE_CHUNK_STEPS, mc_samples=8)
    assert calls_per_step(state, regression_target(), config) < bound


@pytest.mark.parametrize(
    "tag,kwargs,bound",
    [
        ("mean_field", {}, 37),
        ("structured_normal", {"rank": 4}, 61),
        ("mixture", {"rank": 2, "components": 2, "mixture_spread": 3.0}, 106),
    ],
    ids=["mf", "sn4", "sgmm"],
)
def test_step_call_count_on_the_bimodal_target_is_bounded(tag, kwargs, bound):
    target = cli.bimodal_target(8, np.random.default_rng(0), 5.0, 0.4)
    state = fam.init_family(tag, 8, np.random.default_rng(0), **kwargs)
    config = tr.TrainConfig(steps=4 * tr.NOISE_CHUNK_STEPS, mc_samples=8)
    assert calls_per_step(state, target, config) < bound
