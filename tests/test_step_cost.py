"""Python-level calls per training step, and per command outside
training: a host-independent cost check.

A closed-form step costs bookkeeping, not arithmetic, so its time follows
the number of Python and C-function calls it makes rather than the flops.
That number does not depend on the machine.  These tests count, with
``sys.setprofile``, every call event that one ``train`` makes and divide
by its steps, for every member the commands fit, each bounded a little
above its count.  Bounds are only ever lowered.

On the regression target (P = 10, 8 draws) a step of MAP and
``mc_dropout`` makes 14.3 calls, mf 25.3 and sN1 to sN10 47.4.  mf is
the rank-0 sN, whose log-q kernel skips the capacitance; it made 25.3
too when it trained log σ in a class of its own.  sN4 makes
47.5 on a ``GaussianDist``, and made 49.5 when that target summed its
quadratic form with ``ndarray.sum``, whose Python wrapper costs two calls
more than ``np.add.reduce``.  Each made one more while the step's value
and gradient were a function of their own beside the one that checks
them.  sN made 94.4 and 96.6 when the log-q kernel went through
``np.linalg.cholesky`` and ``np.linalg.solve``: their argument checks,
casts and error states took 46 calls a step, which the kernel's direct
call of the LAPACK gufuncs under one ``np.errstate`` does not make.
Redoing the layout walk, the target lookup and the noise draw every
step, with out-of-place updates, took 208 and 182.  ufunc calls raise no
call event, so Adam's update counts the same whether m and v are two
arrays or the rows of one.

On the bimodal target (P = 8, two components) a step of mf, sN4 and a
two-component rank-2 sGMM makes 32.7 (as when mf trained log σ), 54.4
and 85.5 calls.  The sGMM
made 95.7 when it stored its components as states of their own and
stacked them every step.  Looping over the target's components, and over
the sGMM's in its draw, kernel and adjoint, took 66.7, 134.4 and 280.7;
the numpy wrappers took sN4 and the sGMM to 101.4 and 142.7.

Outside ``train``, each command at its defaults but 5 steps makes a
fixed number of calls: its setup, audits and report.  They are counted
on a second call in the process, so that no first call's one-time work
(a first call in a fresh interpreter reads 23,371 for ``fit-gaussian
--bimodal`` and 7,915 for ``rbf``) makes the count depend on which tests
ran before.  ``rbf`` makes 4,133,
``fit-gaussian`` 3,323, ``fit-gaussian --bimodal`` 18,526 and
``dropout-audit`` 807, and 1,569 at ``n_droppable`` 20, where the exact
predictive makes two passes over 128 blocks of atoms.  The four made
4,199, 3,380, 19,659 and 809 (1,571 at ``n_droppable`` 20) while the
layout was a walk that called a function per trained array and recursed
into an sGMM's component states, and the sGMM restacked its components
for every block of its audits.  ``fit-gaussian``
made 3,382 while its target summed with ``ndarray.sum``.  ``rbf`` made
4,390 when it built the dropout curves' figure data with no SVG to draw,
and 4,244 when its ELBO audits read the regression's rows through a
second log joint; ``fit-gaussian`` made 3,323 when MAP's ELBO read the
target's log density instead of ``trainer.elbo_estimate``.
``fit-gaussian --bimodal`` and ``dropout-audit`` made 27,582 and 891
when the Monte-Carlo audits realized q's draws apart from training, an
sGMM one component at a time, and read log q by a second evaluation at
them.  ``dropout-audit`` made 790, and 1,679 at ``n_droppable`` 20, when
each block of atoms took its popcount with ``int.bit_count`` and summed
its weights through ``ndarray.sum``'s wrapper; setting up the wide views
and the weights by bit count costs 22 calls more per command.
"""

import sys
from unittest import mock

import numpy as np
import pytest

import vifit.cli as cli
import vifit.families as fam
import vifit.models as mod
import vifit.oracle as orc
import vifit.trainer as tr

CALLS_PER_STEP_BOUND = 53  # sN at any rank on a regression or Gaussian target


def call_counter():
    """A ``sys.setprofile`` function and the one-item list where it counts
    call events."""
    calls = [0]

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    return profile, calls


def calls_per_step(state, target, config) -> float:
    profile, calls = call_counter()
    sys.setprofile(profile)
    try:
        trace = tr.train(state, target, config)
    finally:
        sys.setprofile(None)
    return calls[0] / trace.steps_run


def calls_outside_train(command, config) -> int:
    """Call events of a warm ``command(config)``, not counting those inside
    ``tr.train``.

    The command runs once unprofiled first, so the count leaves out the
    one-time work of a first call in the process (lazy imports, numpy's
    first dispatch of a function) and reads the same alone as after any
    other test."""
    command(config)
    profile, calls = call_counter()
    train = tr.train

    def unprofiled_train(*args):
        sys.setprofile(None)
        try:
            return train(*args)
        finally:
            sys.setprofile(profile)

    with mock.patch.object(cli.tr, "train", unprofiled_train):
        sys.setprofile(profile)
        try:
            command(config)
        finally:
            sys.setprofile(None)
    return calls[0]


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
        ("map", {}, 16),
        ("mc_dropout", {}, 16),
        ("mean_field", {}, 28),
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
        ("mean_field", {}, 36),
        ("structured_normal", {"rank": 4}, 60),
        ("mixture", {"rank": 2, "components": 2, "mixture_spread": 3.0}, 88),
    ],
    ids=["mf", "sn4", "sgmm"],
)
def test_step_call_count_on_the_bimodal_target_is_bounded(tag, kwargs, bound):
    target = cli.bimodal_target(8, np.random.default_rng(0), 5.0, 0.4)
    state = fam.init_family(tag, 8, np.random.default_rng(0), **kwargs)
    config = tr.TrainConfig(steps=4 * tr.NOISE_CHUNK_STEPS, mc_samples=8)
    assert calls_per_step(state, target, config) < bound


@pytest.mark.parametrize(
    "command,config,bound",
    [
        (cli.cmd_rbf, cli.RbfConfig(steps=5), 4400),
        (cli.cmd_fit_gaussian, cli.FitGaussianConfig(steps=5), 3500),
        (cli.cmd_fit_gaussian, cli.FitGaussianConfig(steps=5, bimodal=True), 19000),
        (cli.cmd_dropout_audit, cli.DropoutAuditConfig(steps=5), 830),
        (cli.cmd_dropout_audit, cli.DropoutAuditConfig(steps=5, n_droppable=20), 1650),
    ],
    ids=["rbf", "fit-gaussian", "fit-gaussian-bimodal", "dropout-audit", "dropout-audit-pd20"],
)
def test_command_call_count_outside_training_is_bounded(command, config, bound):
    assert calls_outside_train(command, config) < bound
