"""Python-level calls per closed-form training step: a host-independent cost check.

A closed-form step costs bookkeeping, not arithmetic, so its time follows
the number of Python and C-function calls it makes rather than the flops.
That number does not depend on the machine.  These tests count, with
``sys.setprofile``, every call event that one ``train`` makes and divide
by its steps.  An sN4 step at P = 10 with 8 draws makes 94.4 calls on a
``RegressionProblem`` and 96.6 on a ``GaussianDist``; about 50 of them are
inside numpy's ``cholesky`` and ``solve`` wrappers in the log-q kernel.
Redoing the layout walk, the target lookup and the noise draw every step,
with out-of-place updates, took 208 and 182.  The bound
leaves room for small changes inside numpy, not for per-step work that
can be done once per member.

On the bimodal target (P = 8, two components) a step of mf, sN4 and a
two-component rank-2 sGMM makes 33.7, 101.4 and 142.7 calls.  Looping
over the target's components, and over the sGMM's in its draw, kernel
and adjoint, took 66.7, 134.4 and 280.7.
"""


import sys

import numpy as np
import pytest

import vifit.cli as cli
import vifit.families as fam
import vifit.models as mod
import vifit.oracle as orc
import vifit.trainer as tr

CALLS_PER_STEP_BOUND = 120


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


@pytest.mark.parametrize("target_kind", ["regression", "gaussian"])
def test_sn4_step_call_count_is_bounded(target_kind):
    spec = mod.RbfModelSpec.regular(10, noise_sigma=0.25)
    target, _ = mod.make_rbf_dataset(spec, 64, seed=0)
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
        ("mean_field", {}, 37),
        ("structured_normal", {"rank": 4}, 112),
        ("mixture", {"rank": 2, "components": 2, "mixture_spread": 3.0}, 157),
    ],
    ids=["mf", "sn4", "sgmm"],
)
def test_step_call_count_on_the_bimodal_target_is_bounded(tag, kwargs, bound):
    target = cli.bimodal_target(8, np.random.default_rng(0), 5.0, 0.4)
    state = fam.init_family(tag, 8, np.random.default_rng(0), **kwargs)
    config = tr.TrainConfig(steps=4 * tr.NOISE_CHUNK_STEPS, mc_samples=8)
    assert calls_per_step(state, target, config) < bound
