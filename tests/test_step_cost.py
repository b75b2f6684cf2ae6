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
"""

import sys

import numpy as np
import pytest

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
