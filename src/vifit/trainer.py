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
gives.  The moment estimates m and v are the two
rows of one (2, n) array, and so are m̂ and v̂, with (β₁, β₂), (1 − β₁,
1 − β₂) and the bias corrections as (2, n) rows beside them: decaying the
moments, forming the (1 − β)g terms and correcting the bias take one ufunc
call each, on operands of one shape, and each element still meets the
operations of its own array's update in the same order.  On a regression
target with P = 10 and 8 draws, a step of MAP or dropout makes 14.3
Python-level calls, sN of any rank K ≥ 1 47.4, and mf, the rank-0 sN,
whose kernel skips the capacitance, 25.3 (``tests/test_step_cost.py``
counts them).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import families as fam


GRAD_NORM_GUARD = 1e6

# Steps of noise per ``fam.draw_noise`` call in ``train``: at most 160 KB
# of normals per call at P = K = 10 and 8 draws a step.
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
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # Rows m and v of the moments, and m̂ and v̂ of the hats, which hold the
    # (1 − β)g terms first.  Each row of the coefficients is one number,
    # repeated so that every ufunc call meets operands of one shape.
    moments = np.zeros((2, psi.size))
    hats = np.empty_like(moments)
    m_hat, v_hat = hats
    betas = np.empty_like(moments)
    betas[0], betas[1] = beta1, beta2
    one_minus_betas = 1.0 - betas
    corrections = np.empty_like(moments)  # rows 1 − β₁ᵗ and 1 − β₂ᵗ
    trace = TrainTrace()
    lr = config.learning_rate
    start = time.perf_counter()
    for step in range(config.steps):
        if step % NOISE_CHUNK_STEPS == 0:
            noises = _draw_noise(
                state, config, rng, steps=min(NOISE_CHUNK_STEPS, config.steps - step)
            )
        noise = noises[step % NOISE_CHUNK_STEPS]
        try:
            value, grad, gnorm = _value_grad_norm(state, params, noise, problem, logq_bar)
        except ad.MemberFailure as err:
            err.step = step
            raise
        if gnorm > GRAD_NORM_GUARD:
            raise ad.MemberFailure(f"gradient norm {gnorm:.3e} exceeded guard", step)
        # In place, in the order of m = β₁m + (1 − β₁)g, v = β₂v + (1 − β₂)g·g,
        # m̂ = m/(1 − β₁ᵗ), v̂ = v/(1 − β₂ᵗ) and ψ = ψ + lr·m̂/(√v̂ + ε),
        # with m and v, and m̂ and v̂, updated as the rows of one array.
        moments *= betas
        np.multiply(one_minus_betas, grad, out=hats)
        v_hat *= grad
        moments += hats
        corrections[0] = 1.0 - beta1 ** (step + 1)
        corrections[1] = 1.0 - beta2 ** (step + 1)
        np.divide(moments, corrections, out=hats)
        np.sqrt(v_hat, out=v_hat)
        v_hat += eps
        m_hat *= lr
        m_hat /= v_hat
        psi += m_hat
        lr *= config.lr_decay
        trace.elbo.append(value)
    trace.steps_run = len(trace.elbo)
    trace.runtime_s = time.perf_counter() - start
    trace.final_state = fam.unpack(state, psi)
    return trace


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
