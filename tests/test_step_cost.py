"""Python-level calls per training step, and per command outside
training: a host-independent cost check.

A closed-form step costs bookkeeping, not arithmetic, so its time follows
the number of Python and C-function calls it makes rather than the flops.
That number does not depend on the machine.  These tests count, with
``sys.setprofile``, every call event that one ``train`` or
``train_stack`` makes and divide by its steps, for every member the
commands fit alone and for the stacks they train, each bounded a little
above its count.  Bounds are only ever lowered.

On the regression target (P = 10, 8 draws) a step of MAP and
``mc_dropout`` makes 14.3 calls, mf 25.3 and sN1 to sN10 44.3.  mf is
the rank-0 sN, whose log-q kernel skips the capacitance.  sN4 makes
44.5 on a ``GaussianDist``, and made 47.5 before the capacitance's pivot
tests ran as one reduction each over its slices (a loop over the slices
on Python floats took 3 calls more a slice).  Every step alone made 1
call more (MAP 15.3, mf 26.3, sN 45.3) while its checks were a function
of their own, shared with a stack's failing step.  sN4 made 49.5 when
the target summed its quadratic form with ``ndarray.sum``, whose Python
wrapper costs two calls more than ``np.add.reduce``.  sN made 94.4 and 96.6 when the log-q kernel went through
``np.linalg.cholesky`` and ``np.linalg.solve``: their argument checks,
casts and error states took 46 calls a step, which the kernel's direct
call of the LAPACK gufuncs under one ``np.errstate`` does not make.
Redoing the layout walk, the target lookup and the noise draw every
step, with out-of-place updates, took 208 and 182.  ufunc calls raise no
call event, so Adam's update counts the same whether m and v are two
arrays or the rows of one.

On the bimodal target (P = 8, two components) a step of mf, sN4 and a
two-component rank-2 sGMM makes 32.7, 51.3 and 73.4 calls; they made
32.7, 54.4 and 85.5 before the change to the pivot tests above, and
33.7, 52.3 and 74.4 while the step's checks were a function of their
own.  The sGMM
made 95.7 when it stored its components as states of their own and
stacked them every step.  Looping over the target's components, and over
the sGMM's in its draw, kernel and adjoint, took 66.7, 134.4 and 280.7;
the numpy wrappers took sN4 and the sGMM to 101.4 and 142.7.

A command trains its mf and sN members as one stack (``tr.train_stack``):
a step of rbf's five (mf, sN1, sN2, sN4 and sN10, P = 10) makes 45.8
calls, where the five make 25.3 + 4 × 44.3 = 202.5 one after another
(214.9 before the changes above), and a step of bimodal's five (mf, sN1,
sN2, sN4 and sN8, P = 8) makes 53.2, against 32.7 + 4 × 51.3 = 237.9.
About 1 of a stacked step's calls draws its members' noise: each member
calls ``families.gaussian_noise`` every ``NOISE_CHUNK_STEPS // M`` steps,
so that the stack holds one member's worth of noise, and its arrays go
straight into the stack's chunk buffers.  The stack made 54.1 and 61.5
calls, about 9 of them for the noise, when each member drew through
``families.draw_noise`` and built one noise batch a step to be copied
into the buffers; drawing every ``NOISE_CHUNK_STEPS`` steps that way made
50.6 and 57.6 calls, but held M times the noise.

Outside ``train``, each command at its defaults but 5 steps makes a
fixed number of calls: its setup, audits and report.  They are counted
on a second call in the process, so that no first call's one-time work
(a first call in a fresh interpreter reads 23,371 for ``fit-gaussian
--bimodal`` and 7,915 for ``rbf``) makes the count depend on which tests
ran before.  ``rbf`` makes 4,169,
``fit-gaussian`` 3,367, ``fit-gaussian --bimodal`` 17,371 and
``dropout-audit`` 807, and 1,569 at ``n_droppable`` 20, where the exact
predictive makes two passes over 128 blocks of atoms.  They made 4,182,
3,380, 17,384, 808 and 1,570 while the CLI grouped the roster's stacks
itself and ``dropout-audit`` fitted through a function of its own
(``trainer.train_roster`` now groups them).  They made 4,133,
3,323, 18,526, 807 and 1,569 before the roster grouped its mf and sN
members into stacks (about 50 calls for ``rbf`` and ``fit-gaussian``)
and before the capacitance's pivot tests ran as one reduction each,
which the Monte-Carlo audits of ``--bimodal`` take once a block.  The four made
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

CALLS_PER_STEP_BOUND = 52  # sN at any rank on a regression or Gaussian target


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


def calls_per_stacked_step(states, target, configs) -> float:
    """Call events per step of one ``tr.train_stack`` of ``states``."""
    profile, calls = call_counter()
    sys.setprofile(profile)
    try:
        tr.train_stack(states, target, configs)
    finally:
        sys.setprofile(None)
    return calls[0] / configs[0].steps


def calls_outside_train(command, config) -> int:
    """Call events of a warm ``command(config)``, not counting those inside
    ``tr.train`` or ``tr.train_stack``.

    The command runs once unprofiled first, so the count leaves out the
    one-time work of a first call in the process (lazy imports, numpy's
    first dispatch of a function) and reads the same alone as after any
    other test."""
    command(config)
    profile, calls = call_counter()

    def unprofiled(train):
        def run(*args):
            sys.setprofile(None)
            try:
                return train(*args)
            finally:
                sys.setprofile(profile)

        return run

    trainers = {name: unprofiled(getattr(tr, name)) for name in ("train", "train_stack")}
    with mock.patch.multiple(cli.tr, **trainers):
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
        ("map", {}, 15),
        ("mc_dropout", {}, 15),
        ("mean_field", {}, 27),
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
        ("mean_field", {}, 35),
        ("structured_normal", {"rank": 4}, 59),
        ("mixture", {"rank": 2, "components": 2, "mixture_spread": 3.0}, 87),
    ],
    ids=["mf", "sn4", "sgmm"],
)
def test_step_call_count_on_the_bimodal_target_is_bounded(tag, kwargs, bound):
    target = cli.bimodal_target(8, np.random.default_rng(0), 5.0, 0.4)
    state = fam.init_family(tag, 8, np.random.default_rng(0), **kwargs)
    config = tr.TrainConfig(steps=4 * tr.NOISE_CHUNK_STEPS, mc_samples=8)
    assert calls_per_step(state, target, config) < bound


@pytest.mark.parametrize(
    "target_kind,p,ranks,bound",
    [("regression", 10, [0, 1, 2, 4, 10], 48), ("bimodal", 8, [0, 1, 2, 4, 8], 55)],
    ids=["rbf", "bimodal"],
)
def test_stacked_step_call_count_is_bounded(target_kind, p, ranks, bound):
    # A roster's mf and sN members as one stack, at the P of their command.
    if target_kind == "regression":
        target = regression_target()
    else:
        target = cli.bimodal_target(p, np.random.default_rng(0), 5.0, 0.4)
    states = [
        fam.init_family("structured_normal" if k else "mean_field", p, np.random.default_rng(0), rank=k)
        for k in ranks
    ]
    configs = [
        tr.TrainConfig(steps=4 * tr.NOISE_CHUNK_STEPS, mc_samples=8, seed=seed)
        for seed in range(len(ranks))
    ]
    assert calls_per_stacked_step(states, target, configs) < bound


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
