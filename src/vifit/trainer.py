"""Stochastic ELBO maximization for any family.

The estimator follows the sampled-log-density form: each Monte-Carlo draw
contributes log lik(theta_k) + log prior(theta_k) − log q(theta_k), with the
full expression differentiated end to end through the sampling rule.  The
entropy term is always the sampled −log q, never the closed form; for the
atomic families (MAP, dropout) it is a constant and is dropped, which makes
their objective penalized likelihood at the sampled atoms.

The estimator is split at θ.  The family gives its draws, their sampled
log q and, for stratified sGMM batches, their per-draw coefficients, with
the closed-form adjoint of all three (``families.draws_logq_vjp``): each
family has this one implementation.  The target answers one method,
``log_joint_and_grad``: per draw, its log-likelihood or log-density, its
N(0, I) log-prior (None on a density target, which has no prior term)
and the closed-form θ-gradient of their sum.  ``_value_grad`` adds the
two and joins the halves into the exact gradient of the sampled-log-q
estimator, in every sampling mode; ``elbo_value_and_grad`` checks it and
``elbo_estimate`` reads its terms from the same calls.  ``elbo_graph`` is
that estimate as one tape node, which the acceptance gate differentiates
and checks against finite differences.

One loop, ``_train_group``, trains a group of M ≥ 1 members.  ``train``
is a group of one, on its member's own psi and parameter views
(``families.param_views``).  ``train_roster`` trains a roster's mf and sN
members that share a config but for its seed, and an effective sample
count, as one stack (``train_stack``), with the first sGMM that shares
them as its last member, and the rest alone.  A stack trains one stacked
state (``_stacked``), laid out as an sGMM is: its members' Gaussians are G
slices, one for each mf or sN member and one for each of the sGMM's C
components, and psi holds mu and log_a as (G, P) arrays and U as a
(G, P, K) one, with U padded by zero columns to the stack's largest rank
K, then the sGMM's C weight logits.  A lone sGMM is the stack of its own
C slices, so one ``families.draws_logq_vjp`` path draws and evaluates
every Gaussian, alone or stacked.  Padded noise columns are zero, so the
padded columns of U get an exactly zero gradient and stay exactly 0.
Padding changes the shapes of the BLAS and LAPACK calls, so a stacked
member agrees with its training alone to round-off, not bit for bit.  The
members of a stack cannot be timed apart: each one's ``runtime_s`` is an
equal share of the stack's training time, and its ``trained_with`` lists
the other members.

A step costs bookkeeping, not arithmetic, so the loop does once per group
what no step changes: psi's views (valid because psi and the moment
estimates are updated in place, in the order of the out-of-place
expressions), log q's adjoint, the 0/1 matrix that sums each member's
squared gradient entries, and the noise buffers of one chunk of
``NOISE_CHUNK_STEPS // M`` steps with a ``NoiseBatch`` view of each step
(``families.noise_chunk``).  Each chunk, every member fills its steps from
its own generator (``families.fill_noise``), a stacked sGMM into each of
its C slices: the numbers that consecutive
per-step ``families.draw_noise`` calls give, so every number is the one a
per-step loop gives.  A step then makes one draw, log-q kernel, target,
adjoint (``_value_grad``) and ``_Adam`` update call for the whole group.
``_Adam``'s moment estimates m and v are the two rows of one
(2, *psi.shape) array, and so are m̂ and v̂, with (β₁, β₂), (1 − β₁, 1 − β₂)
and the bias corrections as rows beside them: decaying the moments,
forming the (1 − β)g terms and correcting the bias take one ufunc call
each, and each element still meets the operations of its own array's
update in the same order.  ``tests/test_step_cost.py`` bounds the calls a
step makes.

A step fails when the kernel raises ``ad.MemberFailure``, or a value is
not finite, or a gradient norm exceeds ``GRAD_NORM_GUARD``; a group of one
checks it on Python floats.  A group of one then raises the step's error
carrying its step.  A stack is abandoned, and each member trains alone
from its initial state through ``train``: it gets ``train``'s trace or
failure, bit for bit, with its own ``runtime_s``, and the stack's time is
in no member's.  Only a degenerate run fails, so it pays twice rather
than every step paying for failure bookkeeping.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import families as fam


GRAD_NORM_GUARD = 1e6

# The moment decays and the denominator's offset of the Adam update.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Steps of noise per chunk of a group of one: at most 160 KB of normals at
# P = K = 10 and 8 draws a step.  A stack of M members holds
# NOISE_CHUNK_STEPS // M steps a member per chunk.
NOISE_CHUNK_STEPS = 128


@dataclass
class TrainConfig:
    steps: int = 2000
    learning_rate: float = 1e-2
    lr_decay: float = 1.0  # multiplicative per-step factor
    mc_samples: int = 8
    mode: str = "naive"
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if not 0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.mode not in fam.MODES:
            raise ValueError(f"unknown sampling mode {self.mode!r}")


@dataclass
class ElboEstimate:
    total: float
    expected_loglik: float
    expected_logprior: float
    neg_mean_logq: float
    n_samples: int
    mode: str


@dataclass
class TrainTrace:
    elbo: list = field(default_factory=list)
    runtime_s: float = 0.0
    steps_run: int = 0
    final_state: fam.FamilyState | None = None
    trained_with: list = field(default_factory=list)  # positions of the members it stepped with


def _effective_sample_count(state: fam.FamilyState, config: TrainConfig) -> int:
    """Round the per-step sample count up to what the mode's groups need."""
    s = config.mc_samples
    if isinstance(state, fam.MapState):
        return 1
    if isinstance(state, fam.MixtureState):
        # Stratified allocation needs a full round over the components
        # (twice that in paired mode so twins stay within one component).
        group = state.n_components * (2 if config.mode == "paired" else 1)
        s = group * max(1, math.ceil(s / group))
    if config.mode == "paired" and s % 2:
        s += 1
    if config.mode == "unscented" and isinstance(state, fam.StructuredNormalState):
        group = 2 * max(state.rank, 1)
        s = group * max(1, math.ceil(s / group))
    return s


def _draw_noise(state, config: TrainConfig, rng) -> fam.NoiseBatch:
    """The noise of one ELBO evaluation (``fam.draw_noise``); mixtures
    stratify components, as in training."""
    count = _effective_sample_count(state, config)
    mixture = isinstance(state, fam.MixtureState)
    return fam.draw_noise(state, config.mode, count, rng, stratify_components=mixture)


def _value_grad(template, params, noise, problem, logq_bar, members=None) -> tuple:
    """(values, gradient, squared gradient norms) of the MC ELBO estimate.

    ``params`` are psi's views (``fam.param_views``) and ``logq_bar`` is
    log q's adjoint, −1/S per draw.  A group of one gets a 0-d value and
    squared norm; a stack of M gets (M,) values and norms, from one draw,
    kernel, target and adjoint call for all M, its (M, S, P) draws meeting
    the target as M·S rows, and ``members`` (M by psi's size, 0 or 1) sums
    each member's squared gradient entries.  The gradient is flat, laid out
    as psi.  Nothing is checked here.
    """
    theta, log_q, coeff, vjp = fam.draws_logq_vjp(template, params, noise)
    rows_in = theta if theta.ndim == 2 else theta.reshape(-1, theta.shape[-1])
    rows, logprior, theta_grad = problem.log_joint_and_grad(rows_in)
    if logprior is not None:
        rows = rows + logprior
    if rows_in is not theta:
        rows, theta_grad = rows.reshape(theta.shape[:-1]), theta_grad.reshape(theta.shape)
    if log_q is not None:
        rows = rows - log_q
    scale = 1.0 / noise.count
    if coeff is None:
        values = np.add.reduce(rows, axis=-1) / noise.count
        grad = vjp(theta_grad * scale, logq_bar, None)
    else:
        # With coefficients the value is Σ_k c_k rows_k / S: rows_k has
        # adjoint c_k / S and c_k has adjoint rows_k / S.
        row_bar = coeff * scale
        values = np.add.reduce(rows * coeff, axis=-1) / noise.count
        grad = vjp(theta_grad * row_bar[..., None], -row_bar, rows * scale)
    return values, grad, np.vecdot(grad, grad) if members is None else members @ (grad * grad)


def _finite(value, grad, sq) -> bool:
    """Whether a group of one's value and gradient are finite.  A NaN or
    ±inf in the gradient makes its squared norm ``sq`` non-finite, so the
    elementwise check runs only when ``sq`` is not (a finite gradient whose
    squares overflow passes it)."""
    return math.isfinite(value) and (math.isfinite(sq) or np.isfinite(grad).all())


def _nonfinite_step(state, params, noise, problem, grad) -> ad.MemberFailure:
    """The error of a step whose value or gradient is not finite.

    Re-evaluates the step's terms and names the first that is not finite
    (log joint, log q or coefficient; "gradient" when all three are
    finite), and the ``param_slices`` blocks whose gradient is not finite.
    """
    theta, log_q, coeff, _ = fam.draws_logq_vjp(state, params, noise)
    rows, logprior, _ = problem.log_joint_and_grad(theta)
    log_joint = rows if logprior is None else rows + logprior
    terms = {"log joint": log_joint, "log q": log_q, "coefficient": coeff}
    term = next(
        (name for name, x in terms.items() if x is not None and not np.isfinite(x).all()),
        "gradient",
    )
    blocks = fam.nonfinite_blocks(state, grad)
    detail = "finite gradient"
    if blocks:
        detail = f"gradient not finite in psi blocks {', '.join(blocks)}"
    return ad.MemberFailure(f"non-finite value produced by '{term}' ({detail})")


def _step_error(template, params, noise, problem, value, grad, sq) -> ad.MemberFailure:
    """A group of one's error for a step that failed its check:
    ``_nonfinite_step``'s when its value or gradient is not finite, else
    the guard's."""
    if _finite(value, grad, sq):
        return ad.MemberFailure(f"gradient norm {math.sqrt(sq):.3e} exceeded guard")
    return _nonfinite_step(template, params, noise, problem, grad)


def elbo_value_and_grad(state: fam.FamilyState, psi, noise: fam.NoiseBatch, problem) -> tuple:
    """(value, gradient) of the MC ELBO estimate at a plain ``psi``.

    Raises ``ad.MemberFailure`` naming the term that is not finite
    (``_nonfinite_step``) or the capacitance factorization that failed.
    """
    params = fam.param_views(state, psi)
    value, grad, sq = _value_grad(
        state, params, noise, problem, np.full(noise.count, -1.0 / noise.count)
    )
    if not _finite(value, grad, sq):
        raise _nonfinite_step(state, params, noise, problem, grad)
    return float(value), grad


def elbo_graph(template: fam.FamilyState, psi, noise: fam.NoiseBatch, problem):
    """The scalar MC ELBO estimate: a float at a plain psi, one tape node at a Var.

    The node's value and VJP are ``elbo_value_and_grad``'s, so the tape
    differentiates through the gradient that trains.
    """
    value, grad = elbo_value_and_grad(template, ad._val(psi), noise, problem)
    if not isinstance(psi, ad.Var):
        return value
    return ad._node("elbo", value, [(psi, lambda g: g * grad)])


def elbo_estimate(
    state: fam.FamilyState, problem, config: TrainConfig, rng: np.random.Generator
) -> ElboEstimate:
    """One Monte-Carlo ELBO estimate with its term decomposition."""
    noise = _draw_noise(state, config, rng)
    params = fam.param_views(state, fam.pack(state))
    theta, log_q, coeff, _ = fam.draws_logq_vjp(state, params, noise)
    loglik, logprior, _ = problem.log_joint_and_grad(theta)
    weigh = (lambda rows: float(np.mean(rows * coeff))) if coeff is not None else (
        lambda rows: float(np.mean(rows))
    )
    loglik = weigh(loglik)
    logprior = weigh(logprior) if logprior is not None else 0.0
    neg_logq = -weigh(log_q) if log_q is not None else 0.0
    return ElboEstimate(
        total=loglik + logprior + neg_logq,
        expected_loglik=loglik,
        expected_logprior=logprior,
        neg_mean_logq=neg_logq,
        n_samples=noise.count,
        mode=config.mode,
    )


class _Adam:
    """Bias-corrected moment averaging of a psi of any shape, in place.

    The moment estimates m and v are the two rows of one (2, *psi.shape)
    array, and so are m̂ and v̂, with (β₁, β₂), (1 − β₁, 1 − β₂) and the bias
    corrections as rows beside them (see module notes).
    """

    def __init__(self, shape: tuple):
        # Rows m and v of the moments, and m̂ and v̂ of the hats, which hold the
        # (1 − β)g terms first.  Each row of the coefficients is one number,
        # repeated so that every ufunc call meets operands of one shape.
        self.moments = np.zeros((2, *shape))
        self.hats = np.empty_like(self.moments)
        self.m_hat, self.v_hat = self.hats
        self.betas = np.empty_like(self.moments)
        self.betas[0], self.betas[1] = BETA1, BETA2
        self.one_minus_betas = 1.0 - self.betas
        self.corrections = np.empty_like(self.moments)  # rows 1 − β₁ᵗ and 1 − β₂ᵗ

    def update(self, psi, grad, step: int, lr: float):
        """ψ += lr·m̂/(√v̂ + ε) after step ``step``'s gradient, in place.

        In the order of m = β₁m + (1 − β₁)g, v = β₂v + (1 − β₂)g·g,
        m̂ = m/(1 − β₁ᵗ), v̂ = v/(1 − β₂ᵗ) and ψ = ψ + lr·m̂/(√v̂ + ε), with m
        and v, and m̂ and v̂, updated as the rows of one array.
        """
        moments, hats, m_hat, v_hat = self.moments, self.hats, self.m_hat, self.v_hat
        moments *= self.betas
        np.multiply(self.one_minus_betas, grad, out=hats)
        v_hat *= grad
        moments += hats
        self.corrections[0] = 1.0 - BETA1 ** (step + 1)
        self.corrections[1] = 1.0 - BETA2 ** (step + 1)
        np.divide(moments, self.corrections, out=hats)
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPS
        m_hat *= lr
        m_hat /= v_hat
        psi += m_hat


def _stacked(states: list) -> tuple:
    """``(template, members)`` of a stack of M members: the state it trains
    and which member owns each entry of that state's psi.

    The template holds the members' Gaussians as G slices of one stacked
    structured normal, mu and log_a (G, P) and U (G, P, K) padded by zero
    columns to the largest rank K: a member's one slice, and an sGMM's
    (last) C slices and weight logits.  ``members`` is M by psi's size, 0
    or 1: row j picks member j's entries, the sGMM's logits included.
    """
    m, p, k = len(states), states[0].dim, max(state.rank for state in states)
    g = m - 1 + states[-1].mu.size // p  # an sGMM, last, takes one slice a component
    mu, log_a, u = np.empty((g, p)), np.empty((g, p)), np.zeros((g, p, k))
    for j, state in enumerate(states):
        at = _member_slices(j, m)
        mu[at], log_a[at], u[at, :, : state.rank] = state.mu, state.log_a, state.u
    template, logits = fam.StructuredNormalState(mu, log_a, u), ()
    if states[-1].tag == fam.MixtureState.tag:
        logits = states[-1].weight_logits.copy()
        template = fam.MixtureState(mu, log_a, u, logits)
    # psi runs over the slices once for each array: slice i is member
    # min(i, M − 1)'s, and the logits after them are the last member's.
    slot = np.minimum(np.arange(g), m - 1)
    owner = np.concatenate(
        (slot.repeat(p), slot.repeat(p), slot.repeat(p * k), [m - 1] * len(logits))
    )
    return template, (owner == np.arange(m)[:, None]).astype(float)


def _member_slices(j: int, m: int) -> slice:
    """Stack member j's slices of M members': its own, and for the last
    member all that are left (an sGMM's components)."""
    return slice(j, None if j == m - 1 else j + 1)


def _member_psi(params: dict, at: slice, state) -> np.ndarray:
    """A stack member's own psi, in its pack order, from the stacked views:
    its slices ``at`` without U's padded columns, and an sGMM's logits."""
    arrays = [params["mu"][at], params["log_a"][at], params["u"][at, :, : state.rank]]
    if state.tag == fam.MixtureState.tag:
        arrays.append(params["weight_logits"])
    return np.concatenate(arrays, axis=None)


def _alone(state, problem, config: TrainConfig):
    """``train``'s trace, or the ``ad.MemberFailure`` it raises."""
    try:
        return train(state, problem, config)
    except ad.MemberFailure as err:
        return err


def _train_group(states: list, problem, configs: list) -> list:
    """Each member's ``TrainTrace``, for a group of M ≥ 1 members trained
    in one loop (see module notes).

    A group of one trains on its own psi; a stack of M structured normals
    and at most one sGMM, last, on the stacked state's psi (``_stacked``).
    Every member's mode is checked before step 0.  A step fails when the
    kernel raises ``ad.MemberFailure``, or a value is not finite, or a
    gradient norm exceeds ``GRAD_NORM_GUARD``.  A group of one then raises
    the step's error (``_nonfinite_step``'s, or the guard's) carrying the
    step; a stack gives each member its ``train`` outcome alone.
    """
    config, alone = configs[0], len(states) == 1
    if any(dataclasses.replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("a stack's members must share one config but for their seeds")
    counts = {_effective_sample_count(state, config) for state in states}
    if len(counts) > 1:
        raise ValueError(f"a stack's members must take one effective sample count, not {counts}")
    (count,) = counts
    if not alone and fam.MixtureState.tag in [state.tag for state in states[:-1]]:
        raise ValueError("a stack holds at most one sGMM, as its last member")
    template, members = states[0], None
    if not alone:
        template, members = _stacked(states)
    psi = fam.pack(template)
    params = fam.param_views(template, psi)
    # One chunk's noise, reused by every chunk.  M members draw 1/M of a
    # member's chunk each, so a stack holds the noise of one member a slot.
    steps_per_chunk = max(1, NOISE_CHUNK_STEPS // len(states))
    chunk, batches = fam.noise_chunk(states, config.mode, count, min(steps_per_chunk, config.steps))
    rngs = [np.random.default_rng(c.seed) for c in configs]
    logq_bar = np.full(count, -1.0 / count)  # every member's, by broadcasting
    adam = _Adam(psi.shape)
    elbo = np.empty((config.steps,) if alone else (config.steps, len(states)))
    lr, guard = config.learning_rate, GRAD_NORM_GUARD**2  # the guard on squared norms
    start = time.perf_counter()
    for step in range(config.steps):
        at = step % steps_per_chunk
        if not at:
            fam.fill_noise(
                chunk, states, config.mode, rngs, min(steps_per_chunk, config.steps - step)
            )
        try:
            values, grad, sq = _value_grad(
                template, params, batches[at], problem, logq_bar, members
            )
            if alone:
                if not (math.isfinite(values) and sq <= guard):
                    raise _step_error(template, params, batches[at], problem, values, grad, sq)
            elif not np.logical_and.reduce(np.isfinite(values) & (sq <= guard)):
                raise ad.MemberFailure("a stacked step failed")
        except ad.MemberFailure as err:
            if not alone:
                return [_alone(state, problem, c) for state, c in zip(states, configs)]
            err.step = step
            raise
        adam.update(psi, grad, step, lr)
        elbo[step] = values
        lr *= config.lr_decay
    share = (time.perf_counter() - start) / len(states)
    rows = [psi] if alone else [
        _member_psi(params, _member_slices(j, len(states)), state) for j, state in enumerate(states)
    ]
    group = () if alone else range(len(states))
    return [
        TrainTrace(
            elbo=trace.tolist(),
            runtime_s=share,
            steps_run=config.steps,
            final_state=fam.unpack(state, row),
            trained_with=[*group[:j], *group[j + 1 :]],
        )
        for j, (state, row, trace) in enumerate(
            zip(states, rows, elbo.reshape(config.steps, len(states)).T)
        )
    ]


def train(state: fam.FamilyState, problem, config: TrainConfig) -> TrainTrace:
    """First-order stochastic ascent with bias-corrected moment averaging.

    Per-coordinate step scaling uses exponential moving averages of the
    gradient (decay 0.9) and its square (decay 0.999), for the full step
    budget.  Deterministic given the seed, and step for step the numbers
    of a per-step loop (see module notes).  A member that cannot sample in
    the mode raises ``fam.ModeFamilyError`` before step 0.  A step whose
    ELBO or gradient is not finite, whose capacitance factorization fails,
    or whose gradient norm exceeds ``GRAD_NORM_GUARD`` raises
    ``ad.MemberFailure`` carrying that step.
    """
    (trace,) = _train_group([state], problem, [config])
    return trace


def train_stack(states: list, problem, configs: list) -> list:
    """``train`` for M structured normals (mf included) and at most one
    sGMM, last, at once, whose ``configs`` differ in their seeds only and
    which take one effective sample count: a step makes one draw, log-q
    kernel, target, adjoint and ``_Adam.update`` call for all M, each
    member on the noise it draws alone (see module notes).  Returns, per
    member in order, its ``TrainTrace``, whose ``runtime_s`` is an equal
    share of the stack's training time and whose ``trained_with`` lists the
    other members' positions; if a stacked step fails, ``train``'s trace or
    ``ad.MemberFailure`` for each member alone.  A stack of one is
    ``train``, its failure returned.  A member that cannot sample in the
    mode raises ``fam.ModeFamilyError`` before step 0.
    """
    try:
        return _train_group(states, problem, configs)
    except ad.MemberFailure as err:  # only a group of one raises it
        return [err]


def train_roster(states: list, problem, configs: list) -> list:
    """Each member's ``train`` outcome, in roster order: its ``TrainTrace`` or
    the ``ad.MemberFailure`` that ``train`` raises.  The mf and sN members
    whose configs agree but for their seeds, and that take one effective
    sample count, train as one stack (``train_stack``) when the first of
    them comes up, with the first sGMM that agrees with them so, last; the
    rest alone.  A trace's ``trained_with`` lists the roster positions of
    the members it stepped with."""
    keys = [
        (dataclasses.replace(config, seed=0), _effective_sample_count(state, config))
        if isinstance(state, (fam.StructuredNormalState, fam.MixtureState))
        else None
        for state, config in zip(states, configs)
    ]
    outcomes: dict = {}
    for i, key in enumerate(keys):
        if key is None:
            outcomes[i] = _alone(states[i], problem, configs[i])
        elif i not in outcomes:
            free = [j for j, other in enumerate(keys) if other == key and j not in outcomes]
            sgmms = [j for j in free if isinstance(states[j], fam.MixtureState)]
            rows = [j for j in free if j not in sgmms] + sgmms[:1]
            stacked = train_stack([states[j] for j in rows], problem, [configs[j] for j in rows])
            for j, outcome in zip(rows, stacked):
                if isinstance(outcome, TrainTrace):
                    outcome.trained_with = [rows[t] for t in outcome.trained_with]
                outcomes[j] = outcome
    return [outcomes[i] for i in range(len(states))]
