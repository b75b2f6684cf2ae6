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
and the closed-form θ-gradient of their sum.  ``_value_grad_norm`` adds
the two and joins the halves into the exact gradient of the sampled-log-q
estimator, in every sampling mode, and checks it; ``elbo_estimate`` reads
its terms from the same call.  ``elbo_graph`` is that estimate as one tape
node, which the acceptance gate differentiates and checks against finite
differences.

A step costs bookkeeping, not arithmetic, so ``train`` does once per
member what no step changes: psi's parameter views
(``families.param_views``, valid because psi and the moment estimates are
updated in place, in the order of the out-of-place expressions) and log
q's adjoint.  It draws the noise of ``NOISE_CHUNK_STEPS`` steps per
``families.draw_noise`` call.  One call gives the same stream as
consecutive per-step calls, so every number is the one a per-step loop
gives.  The update is ``_Adam``'s, one in-place update for a psi of any
shape.  The moment estimates m and v are the two
rows of one (2, *psi.shape) array, and so are m̂ and v̂, with (β₁, β₂),
(1 − β₁, 1 − β₂) and the bias corrections as rows beside them: decaying the
moments, forming the (1 − β)g terms and correcting the bias take one ufunc
call each, on operands of one shape, and each element still meets the
operations of its own array's update in the same order.  On a regression
target with P = 10 and 8 draws, a step of MAP or dropout makes 14.3
Python-level calls, sN of any rank K ≥ 1 44.3, and mf, the rank-0 sN,
whose kernel skips the capacitance, 25.3 (``tests/test_step_cost.py``
counts them).

``train_roster`` trains a roster's mf and sN members that share a sampling
mode and an effective sample count as one stack (``train_stack``) and the
rest alone.  A stack is stored as the sGMM is: psi is M rows, one a
member, each laid out as that member's psi with U padded by zero columns
to the stack's largest rank K, so mu and log_a are (M, P) views and u an
(M, P, K) one.  A step draws (M, S, ·) rows, evaluates the M log-q
kernels and the target at them and takes their adjoint in one call each
(``families.draws_logq_vjp`` on the stacked arrays), then updates all M
rows in one ``_Adam`` call.  Padded noise columns are zero, so the padded
columns of U get an exactly zero gradient and stay exactly 0.  Padding
changes the shapes of the BLAS and LAPACK calls, so a stacked member
agrees with its training alone to round-off (a relative 1e-14 over 300
steps at P = 10), not bit for bit; mf's kernel reads a padded C = I
exactly.  rbf's five Gaussian members make 45.8 calls a stacked step,
against 202.5 one after another.  Each member draws from its own
generator in chunks of ``NOISE_CHUNK_STEPS // M`` steps, so the stack
holds as much noise as one member alone: the arrays of the
``families.gaussian_noise`` calls that ``families.draw_noise`` makes
alone, in the same stream, go straight into the stack's chunk.  The
members of a stack cannot be timed apart: each one's ``runtime_s`` is an
equal share of the stack's training time.

If a stacked step fails (the kernel raises ``ad.MemberFailure``, or a
member's value is not finite or its gradient norm exceeds
``GRAD_NORM_GUARD``), the stack is abandoned and each member trains alone
from its initial state: it gets ``train``'s trace or failure, bit for bit,
with its own ``runtime_s``, and the stack's time is in no member's.  Only
a degenerate run fails, so it pays twice rather than every step paying
for failure bookkeeping.
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

# Steps of noise per ``fam.draw_noise`` call in ``train``: at most 160 KB
# of normals per call at P = K = 10 and 8 draws a step.  A stack of M
# members draws NOISE_CHUNK_STEPS // M steps a member per chunk.
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


def _draw_noise(state, config: TrainConfig, rng, steps=None):
    """The noise of one ELBO evaluation, or a list of ``steps`` of them
    (``fam.draw_noise``); mixtures stratify components."""
    count = _effective_sample_count(state, config)
    mixture = isinstance(state, fam.MixtureState)
    return fam.draw_noise(state, config.mode, count, rng, stratify_components=mixture, steps=steps)


def _value_grad_norm(state, params, noise, problem, logq_bar):
    """(value, gradient, gradient norm) of the MC ELBO estimate.

    ``params`` are psi's ``fam.param_views`` and ``logq_bar`` is log q's
    adjoint, −1/S per draw.  A NaN or ±inf anywhere in the gradient makes
    its norm non-finite, so the elementwise check runs only when the norm
    is not finite (a finite gradient whose squares overflow passes it).
    """
    theta, log_q, coeff, vjp = fam.draws_logq_vjp(state, params, noise)
    rows, logprior, theta_grad = problem.log_joint_and_grad(theta)
    if logprior is not None:
        rows = rows + logprior
    if log_q is not None:
        rows = rows - log_q
    scale = 1.0 / noise.count
    if coeff is None:
        value = float(np.add.reduce(rows, axis=None) / noise.count)
        grad = vjp(theta_grad * scale, logq_bar, None)
    else:
        # With coefficients the value is Σ_k c_k rows_k / S: rows_k has
        # adjoint c_k / S and c_k has adjoint rows_k / S.
        row_bar = coeff * scale
        value = float(np.add.reduce(rows * coeff, axis=None) / noise.count)
        grad = vjp(theta_grad * row_bar[:, None], -row_bar, rows * scale)
    gnorm = math.sqrt(grad.dot(grad))
    if math.isfinite(value) and (math.isfinite(gnorm) or np.isfinite(grad).all()):
        return value, grad, gnorm
    raise _nonfinite_step(state, params, noise, problem, grad)


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


def elbo_value_and_grad(state: fam.FamilyState, psi, noise: fam.NoiseBatch, problem) -> tuple:
    """(value, gradient) of the MC ELBO estimate at a plain ``psi``.

    Raises ``ad.MemberFailure`` naming the term that is not finite
    (``_nonfinite_step``) or the capacitance factorization that failed.
    """
    value, grad, _ = _value_grad_norm(
        state,
        fam.param_views(state, psi),
        noise,
        problem,
        np.full(noise.count, -1.0 / noise.count),
    )
    return value, grad


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


def train(state: fam.FamilyState, problem, config: TrainConfig) -> TrainTrace:
    """First-order stochastic ascent with bias-corrected moment averaging.

    Per-coordinate step scaling uses exponential moving averages of the
    gradient (decay 0.9) and its square (decay 0.999), for the full step
    budget.  Deterministic given the seed, and step for step the numbers
    of a per-step loop (see module notes).  A step whose ELBO or gradient
    is not finite, whose capacitance factorization fails, or whose
    gradient norm exceeds ``GRAD_NORM_GUARD`` raises ``ad.MemberFailure``
    carrying that step.
    """
    rng = np.random.default_rng(config.seed)
    psi = fam.pack(state)
    params = fam.param_views(state, psi)
    count = _effective_sample_count(state, config)
    logq_bar = np.full(count, -1.0 / count)
    adam = _Adam(psi.shape)
    elbo = np.empty(config.steps)
    lr = config.learning_rate
    start = time.perf_counter()
    for step in range(config.steps):
        if step % NOISE_CHUNK_STEPS == 0:
            noises = _draw_noise(
                state, config, rng, steps=min(NOISE_CHUNK_STEPS, config.steps - step)
            )
        noise = noises[step % NOISE_CHUNK_STEPS]
        try:
            elbo[step], grad, gnorm = _value_grad_norm(state, params, noise, problem, logq_bar)
        except ad.MemberFailure as err:
            err.step = step
            raise
        if gnorm > GRAD_NORM_GUARD:
            raise ad.MemberFailure(f"gradient norm {gnorm:.3e} exceeded guard", step)
        adam.update(psi, grad, step, lr)
        lr *= config.lr_decay
    return TrainTrace(
        elbo=elbo.tolist(),
        runtime_s=time.perf_counter() - start,
        steps_run=config.steps,
        final_state=fam.unpack(state, psi),
    )


def _stack_views(psi: np.ndarray, p: int, k: int) -> dict:
    """A stack's mu and log_a (M, P) and u (M, P, K) as views of its (M, ·)
    psi rows, each row laid out as one member's psi with U padded to K columns."""
    u = psi[:, 2 * p :].reshape(len(psi), p, k)
    return {"mu": psi[:, :p], "log_a": psi[:, p : 2 * p], "u": u}


def _stack_noise(states, mode: str, rngs, steps: int, z_diag, z_lowrank):
    """Fill the first ``steps`` entries of a stack's (chunk, M, S, P) z_diag
    and (chunk, M, S, K) z_lowrank in place, each member's by the
    ``fam.gaussian_noise`` call it makes alone.  The padded columns of
    z_lowrank are never written, so they stay at their zeros."""
    count, p = z_diag.shape[2:]
    for j, (state, rng) in enumerate(zip(states, rngs)):
        z_diag[:steps, j], z_lowrank[:steps, j, :, : state.rank] = fam.gaussian_noise(
            rng, mode, steps, count, p, state.rank
        )


def _stack_value_grad(template, params, noise, problem, logq_bar) -> tuple:
    """(values, gradient rows, gradient norms) of a stack's MC ELBO
    estimates: one draw, kernel, target and adjoint call for all M members."""
    theta, log_q, _, vjp = fam.draws_logq_vjp(template, params, noise)
    m, count, p = theta.shape
    rows, logprior, theta_grad = problem.log_joint_and_grad(theta.reshape(m * count, p))
    if logprior is not None:
        rows = rows + logprior
    rows = rows.reshape(m, count) - log_q
    grad = vjp(theta_grad.reshape(m, count, p) * (1.0 / count), logq_bar, None)
    values = np.add.reduce(rows, axis=-1) / count
    return values, grad, np.sqrt(np.vecdot(grad, grad))


def _member_psi(params: dict, j: int, k: int) -> np.ndarray:
    """Stack member ``j``'s own psi: its row without U's padded columns."""
    return np.concatenate((params["mu"][j], params["log_a"][j], params["u"][j, :, :k]), axis=None)


def _alone(state, problem, config: TrainConfig):
    """``train``'s trace, or the ``ad.MemberFailure`` it raises."""
    try:
        return train(state, problem, config)
    except ad.MemberFailure as err:
        return err


def train_stack(states: list, problem, configs: list) -> list:
    """``train`` for M structured normals (mf included) at once, whose
    ``configs`` differ in their seeds only and which take one effective
    sample count: a step makes one draw, log-q kernel, target, adjoint and
    ``_Adam.update`` call for all M, each member on the noise it draws
    alone (see module notes).  Returns, per member in order, its
    ``TrainTrace``, whose ``runtime_s`` is an equal share of the stack's
    training time; if a stacked step fails, ``train``'s trace or
    ``ad.MemberFailure`` for each member alone.  A member that cannot
    sample in the mode raises ``fam.ModeFamilyError`` before step 0.
    """
    config = configs[0]
    if any(dataclasses.replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("a stack's members must share one config but for their seeds")
    counts = {_effective_sample_count(state, config) for state in states}
    if len(counts) > 1:
        raise ValueError(f"a stack's members must take one effective sample count, not {counts}")
    (count,) = counts
    p, k = states[0].dim, max(state.rank for state in states)
    psi = np.zeros((len(states), (2 + k) * p))
    params = _stack_views(psi, p, k)
    for j, state in enumerate(states):
        fam.check_mode(state.tag, config.mode, state.rank)  # what fam.draw_noise checks alone
        params["mu"][j], params["log_a"][j] = state.mu, state.log_a
        params["u"][j, :, : state.rank] = state.u
    template = fam.StructuredNormalState(**params)  # the stacked Gaussian draws_logq_vjp takes
    rngs = [np.random.default_rng(c.seed) for c in configs]
    # One chunk's noise, reused by every chunk.  M members draw 1/M of a
    # member's chunk each, so the stack holds the noise of one member.
    steps_per_chunk = max(1, NOISE_CHUNK_STEPS // len(states))
    chunk_shape = (min(steps_per_chunk, config.steps), len(states), count)
    z_diag, z_lowrank = np.empty((*chunk_shape, p)), np.zeros((*chunk_shape, k))
    logq_bar = np.full(count, -1.0 / count)  # every member's, by broadcasting
    adam = _Adam(psi.shape)
    elbo = np.empty((config.steps, len(states)))
    lr = config.learning_rate
    start = time.perf_counter()
    for step in range(config.steps):
        if step % steps_per_chunk == 0:
            chunk = min(steps_per_chunk, config.steps - step)
            _stack_noise(states, config.mode, rngs, chunk, z_diag, z_lowrank)
        at = step % steps_per_chunk
        noise = fam.NoiseBatch(count, z_diag[at], z_lowrank[at])
        try:
            values, grad, gnorm = _stack_value_grad(template, params, noise, problem, logq_bar)
            failed = not np.logical_and.reduce(np.isfinite(values) & (gnorm <= GRAD_NORM_GUARD))
        except ad.MemberFailure:
            failed = True
        if failed:
            return [_alone(state, problem, c) for state, c in zip(states, configs)]
        adam.update(psi, grad, step, lr)
        elbo[step] = values
        lr *= config.lr_decay
    share = (time.perf_counter() - start) / len(states)
    return [
        TrainTrace(
            elbo=elbo[:, j].tolist(),
            runtime_s=share,
            steps_run=config.steps,
            final_state=fam.unpack(state, _member_psi(params, j, state.rank)),
        )
        for j, state in enumerate(states)
    ]


def train_roster(states: list, problem, configs: list) -> list:
    """Each member's ``train`` outcome, in roster order: its ``TrainTrace`` or
    the ``ad.MemberFailure`` that ``train`` raises.  ``configs`` differ in
    their seeds and modes only, as a roster's do.  The mf and sN members that
    share a mode and an effective sample count train as one stack
    (``train_stack``) when the first of them comes up; the rest alone."""
    keys = [
        (config.mode, _effective_sample_count(state, config))
        if isinstance(state, fam.StructuredNormalState)
        else None
        for state, config in zip(states, configs)
    ]
    outcomes: dict = {}
    for i, key in enumerate(keys):
        if key is None:
            outcomes[i] = _alone(states[i], problem, configs[i])
        elif i not in outcomes:
            rows = [j for j, other in enumerate(keys) if other == key]
            stacked = train_stack([states[j] for j in rows], problem, [configs[j] for j in rows])
            outcomes.update(zip(rows, stacked))
    return [outcomes[i] for i in range(len(states))]


@dataclass
class GradientProbe:
    """Per-coordinate moments of the ELBO gradient estimator at fixed psi."""

    mean: np.ndarray
    variance: np.ndarray
    repeats: int

    def std_error(self) -> np.ndarray:
        return np.sqrt(self.variance / self.repeats)


def gradient_variance_probe(
    state: fam.FamilyState,
    problem,
    mode: str,
    repeats: int,
    rng: np.random.Generator,
    mc_samples: int = 8,
) -> GradientProbe:
    """Empirical gradient mean/variance across repeated noise draws.

    The variational parameters stay fixed; only the sampling noise varies,
    so the numbers isolate the estimator itself.
    """
    if repeats < 100:
        raise ValueError("need at least 100 repeats for a stable variance")
    config = TrainConfig(mc_samples=mc_samples, mode=mode)
    psi = fam.pack(state)
    grads = np.empty((repeats, psi.size))
    for r in range(repeats):
        noise = _draw_noise(state, config, rng)
        grads[r] = elbo_value_and_grad(state, psi, noise, problem)[1]
    return GradientProbe(
        mean=grads.mean(axis=0), variance=grads.var(axis=0, ddof=1), repeats=repeats
    )
