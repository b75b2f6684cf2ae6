"""Python-level calls per training step, and per command outside
training: a host-independent cost check.

A closed-form step costs bookkeeping, not arithmetic, so its time follows
the number of Python and C-function calls it makes rather than the flops.
That number does not depend on the machine.  These tests count, with
``sys.setprofile``, every call event that one ``train`` or
``train_stack`` makes and divide by its steps (512, noise and setup
included), for every member the commands fit alone and for the stacks
they train.  Each per-step bound lies less than one call above its
count, and bounds are only ever lowered.  ufunc calls raise no call event.

On the regression target (P = 10, 8 draws) a step makes 10.6 calls for
MAP and ``mc_dropout`` (bound 11.5), 21.6 for mf, the rank-0 sN whose
log-q kernel skips the capacitance (bound 22.5), and 40.6 for sN1, sN4
and sN10; sN4 makes 40.8 on a ``GaussianDist`` (bound 41.5 for every sN).
On the bimodal target (P = 8, two components) mf, sN4 and a
two-component rank-2 sGMM alone make 29.0, 47.6 and 67.6 calls a step
(bounds 29.5, 48.5 and 68.5).

A command trains its mf and sN members as one stack (``tr.train_stack``):
a step of rbf's five (mf, sN1, sN2, sN4 and sN10, P = 10) makes 45.25
calls (bound 46), and a step of bimodal's five (mf, sN1, sN2, sN4 and
sN8, P = 8) 52.3 (bound 53), or 80.0 (bound 81) with that sGMM as the
stack's sixth member, as ``fit-gaussian --bimodal`` trains it.

Outside training, each command at its defaults but 5 steps makes a fixed
number of calls: its setup, audits and report.  They are counted on a
second call in the process, so that no first call's one-time work makes
the count depend on which tests ran before.  ``rbf`` makes 4,192 (bound
4,400), ``fit-gaussian`` 3,391 (3,500), ``fit-gaussian --bimodal`` 5,988
(6,650) and ``dropout-audit`` 807 (830), and 1,569 (1,650) at
``n_droppable`` 20, where the exact predictive makes two passes over 128
blocks of atoms.
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

CALLS_PER_STEP_BOUND = 41.5  # sN at any rank on a regression or Gaussian target


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
        ("map", {}, 11.5),
        ("mc_dropout", {}, 11.5),
        ("mean_field", {}, 22.5),
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
        ("mean_field", {}, 29.5),
        ("structured_normal", {"rank": 4}, 48.5),
        ("mixture", {"rank": 2, "components": 2, "mixture_spread": 3.0}, 68.5),
    ],
    ids=["mf", "sn4", "sgmm"],
)
def test_step_call_count_on_the_bimodal_target_is_bounded(tag, kwargs, bound):
    target = cli.bimodal_target(8, np.random.default_rng(0), 5.0, 0.4)
    state = fam.init_family(tag, 8, np.random.default_rng(0), **kwargs)
    config = tr.TrainConfig(steps=4 * tr.NOISE_CHUNK_STEPS, mc_samples=8)
    assert calls_per_step(state, target, config) < bound


@pytest.mark.parametrize(
    "target_kind,p,ranks,sgmm,bound",
    [
        ("regression", 10, [0, 1, 2, 4, 10], False, 46),
        ("bimodal", 8, [0, 1, 2, 4, 8], False, 53),
        ("bimodal", 8, [0, 1, 2, 4, 8], True, 81),
    ],
    ids=["rbf", "bimodal", "bimodal-sgmm"],
)
def test_stacked_step_call_count_is_bounded(target_kind, p, ranks, sgmm, bound):
    # A roster's mf and sN members as one stack, at the P of their command,
    # and on the bimodal target with its sGMM as the stack's last member.
    if target_kind == "regression":
        target = regression_target()
    else:
        target = cli.bimodal_target(p, np.random.default_rng(0), 5.0, 0.4)
    states = [
        fam.init_family("structured_normal" if k else "mean_field", p, np.random.default_rng(0), rank=k)
        for k in ranks
    ]
    if sgmm:
        kwargs = {"rank": 2, "components": 2, "mixture_spread": 3.0}
        states.append(fam.init_family("mixture", p, np.random.default_rng(0), **kwargs))
    configs = [
        tr.TrainConfig(steps=4 * tr.NOISE_CHUNK_STEPS, mc_samples=8, seed=seed)
        for seed in range(len(states))
    ]
    assert calls_per_stacked_step(states, target, configs) < bound


@pytest.mark.parametrize(
    "command,config,bound",
    [
        (cli.cmd_rbf, cli.RbfConfig(steps=5), 4400),
        (cli.cmd_fit_gaussian, cli.FitGaussianConfig(steps=5), 3500),
        (cli.cmd_fit_gaussian, cli.FitGaussianConfig(steps=5, bimodal=True), 6650),
        (cli.cmd_dropout_audit, cli.DropoutAuditConfig(steps=5), 830),
        (cli.cmd_dropout_audit, cli.DropoutAuditConfig(steps=5, n_droppable=20), 1650),
    ],
    ids=["rbf", "fit-gaussian", "fit-gaussian-bimodal", "dropout-audit", "dropout-audit-pd20"],
)
def test_command_call_count_outside_training_is_bounded(command, config, bound):
    assert calls_outside_train(command, config) < bound
