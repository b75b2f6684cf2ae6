"""Stochastic ELBO maximization for any family.

The estimator follows the sampled-log-density form: each Monte-Carlo draw
contributes log lik(theta_k) + log prior(theta_k) − log q(theta_k), with the
full expression differentiated end to end through the sampling rule.  The
entropy term is always the sampled −log q, never the closed form; for the
atomic families (MAP, dropout) it is a constant and is dropped, which makes
their objective penalized likelihood at the sampled atoms.

Targets are duck-typed: a regression problem exposes ``loglik_rows`` /
``prior_rows`` and a density target exposes ``log_density``; both shapes
accept stacked parameter rows and autodiff Vars.

Two paths compute the same gradient, both behind ``elbo_value_and_grad``.
When the target also has a closed-form θ-gradient (``log_joint_and_grad``
on ``RegressionProblem`` with a Gaussian or Student-t prior, minibatches
included; ``log_density_and_grad`` on ``GaussianDist`` and
``GaussianMixtureDist``), the estimator is split at θ for every family: the
target supplies ∂/∂θ per draw and the family the adjoint of its draws, its
sampled log q and, for stratified sGMM batches, its per-draw coefficients
(``families.draws_logq_vjp``).  That is the exact gradient of the same
sampled-log-q estimator, in every sampling mode.  The reverse-mode tape
(``elbo_graph``) is the reference, the fallback for a closed-form step that
fails, and the path for the MLP and any target without a closed-form
gradient.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import families as fam
from .lowrank import FactorizationError


class TrainingError(RuntimeError):
    pass


class ElboNotFiniteError(TrainingError):
    def __init__(self, step: int, detail: str):
        self.step = step
        super().__init__(f"non-finite ELBO at step {step}: {detail}")


class TrainingDivergedError(TrainingError):
    def __init__(self, step: int, grad_norm: float):
        self.step = step
        self.grad_norm = grad_norm
        super().__init__(f"gradient norm {grad_norm:.3e} exceeded guard at step {step}")


class CapacitanceError(TrainingError):
    """The family's capacitance matrix stopped being positive definite."""

    def __init__(self, step: int, detail: str):
        self.step = step
        super().__init__(f"degenerate covariance at step {step}: {detail}")


GRAD_NORM_GUARD = 1e6


@dataclass
class TrainConfig:
    steps: int = 2000
    learning_rate: float = 1e-2
    lr_decay: float = 1.0  # multiplicative per-step factor
    mc_samples: int = 8
    minibatch: int | None = None
    mode: str = "naive"
    seed: int = 0
    convergence_window: int = 0  # 0 disables early stopping
    convergence_tol: float = 1e-3

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if not 0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.minibatch is not None and self.minibatch < 1:
            raise ValueError("minibatch must be >= 1")
        if self.mode not in fam.MODES:
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.convergence_window < 0 or self.convergence_tol < 0:
            raise ValueError("convergence settings must be nonnegative")


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
    grad_norm: list = field(default_factory=list)
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


def _target_rows(problem, theta, batch_indices):
    """(loglik, logprior) per row for either target flavour."""
    if hasattr(problem, "loglik_rows"):
        return problem.loglik_rows(theta, batch_indices), problem.prior_rows(theta)
    return problem.log_density(theta), 0.0


def _elbo_terms(template, params, noise, problem, batch_indices):
    """Per-draw (loglik, logprior, log q or None, coefficients or None)."""
    theta = fam.draws_rows(template, params, noise)
    loglik, logprior = _target_rows(problem, theta, batch_indices)
    log_q = None
    if template.tag not in fam.ATOMIC_TAGS:
        log_q = fam.log_q_rows(template, params, theta)
    return loglik, logprior, log_q, fam.draw_coefficients(template, params, noise)


def elbo_graph(
    template: fam.FamilyState, psi, noise: fam.NoiseBatch, problem, batch_indices=None
):
    """The scalar MC ELBO estimate; differentiable when psi is a Var."""
    params = fam.unpack_vars(template, psi)
    loglik, logprior, log_q, coeff = _elbo_terms(
        template, params, noise, problem, batch_indices
    )
    rows = loglik + logprior
    if log_q is not None:
        rows = rows - log_q
    if coeff is not None:
        rows = rows * coeff
    return ad.sum(rows) / noise.count


def _closed_form_target(problem, batch_indices):
    """θ ↦ (per-row log joint, its θ-gradient), or None without a closed form."""
    if hasattr(problem, "log_joint_and_grad"):
        return lambda theta: problem.log_joint_and_grad(theta, batch_indices)
    return getattr(problem, "log_density_and_grad", None)


def _fused_value_and_grad(state, psi, noise, log_joint) -> tuple:
    theta, log_q, coeff, vjp = fam.draws_logq_vjp(state, psi, noise)
    rows, theta_grad = log_joint(theta)
    if log_q is not None:
        rows = rows - log_q
    scale = 1.0 / noise.count
    if coeff is None:
        value = float(rows.sum() / noise.count)
        return value, vjp(theta_grad * scale, np.full(noise.count, -scale), None)
    # With coefficients the value is Σ_k c_k rows_k / S: rows_k has adjoint
    # c_k / S and c_k has adjoint rows_k / S.
    row_bar = coeff * scale
    value = float((rows * coeff).sum() / noise.count)
    return value, vjp(theta_grad * row_bar[:, None], -row_bar, rows * scale)


def elbo_value_and_grad(
    state: fam.FamilyState, psi, noise: fam.NoiseBatch, problem, batch_indices=None
) -> tuple:
    """(value, gradient) of the MC ELBO estimate ``elbo_graph`` at ``psi``.

    Takes the closed-form path when the target exposes a θ-gradient;
    otherwise, or when the closed form yields a non-finite number or a
    failed factorization, the step is evaluated on the tape, so errors are
    the tape's (``NonFiniteValueError`` naming the primitive,
    ``FactorizationError``).
    """
    log_joint = _closed_form_target(problem, batch_indices)
    if log_joint is not None:
        try:
            value, grad = _fused_value_and_grad(state, psi, noise, log_joint)
        except np.linalg.LinAlgError:
            pass
        else:
            if np.isfinite(value) and np.all(np.isfinite(grad)):
                return value, grad
    report = ad.evaluate_with_gradient(
        lambda p: elbo_graph(state, p, noise, problem, batch_indices), psi
    )
    return report.value, report.gradient


def elbo_estimate(
    state: fam.FamilyState, problem, config: TrainConfig, rng: np.random.Generator
) -> ElboEstimate:
    """One Monte-Carlo ELBO estimate with its term decomposition."""
    noise, batch = _draw_step(state, problem, config, rng)
    params = fam.unpack_vars(state, fam.pack(state))
    loglik, logprior, log_q, coeff = _elbo_terms(state, params, noise, problem, batch)
    weigh = (lambda rows: float(np.mean(rows * coeff))) if coeff is not None else (
        lambda rows: float(np.mean(rows))
    )
    loglik = weigh(loglik)
    logprior = weigh(np.broadcast_to(np.asarray(logprior, float), (noise.count,)))
    neg_logq = -weigh(log_q) if log_q is not None else 0.0
    return ElboEstimate(
        total=loglik + logprior + neg_logq,
        expected_loglik=loglik,
        expected_logprior=logprior,
        neg_mean_logq=neg_logq,
        n_samples=noise.count,
        mode=config.mode,
    )


def _draw_minibatch(problem, config: TrainConfig, rng: np.random.Generator):
    if config.minibatch is None or not hasattr(problem, "n"):
        return None
    if config.minibatch >= problem.n:
        return None
    return rng.choice(problem.n, size=config.minibatch, replace=False)


def _draw_step(state, problem, config: TrainConfig, rng) -> tuple:
    """(noise, minibatch) for one ELBO evaluation; mixtures stratify components."""
    count = _effective_sample_count(state, config)
    stratify = isinstance(state, fam.MixtureState)
    noise = fam.draw_noise(state, config.mode, count, rng, stratify_components=stratify)
    return noise, _draw_minibatch(problem, config, rng)


def train(state: fam.FamilyState, problem, config: TrainConfig) -> TrainTrace:
    """First-order stochastic ascent with bias-corrected moment averaging.

    Per-coordinate step scaling uses exponential moving averages of the
    gradient (decay 0.9) and its square (decay 0.999).  Stops at the step
    budget, or early once the moving-average ELBO improves by less than the
    configured tolerance over the window.  Deterministic given the seed.
    """
    rng = np.random.default_rng(config.seed)
    psi = fam.pack(state)
    m = np.zeros_like(psi)
    v = np.zeros_like(psi)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    trace = TrainTrace()
    lr = config.learning_rate
    start = time.perf_counter()
    for step in range(config.steps):
        noise, batch = _draw_step(state, problem, config, rng)
        try:
            value, grad = elbo_value_and_grad(state, psi, noise, problem, batch)
        except ad.NonFiniteValueError as err:
            raise ElboNotFiniteError(step, str(err)) from err
        except FactorizationError as err:
            raise CapacitanceError(step, str(err)) from err
        gnorm = float(np.linalg.norm(grad))
        if gnorm > GRAD_NORM_GUARD:
            raise TrainingDivergedError(step, gnorm)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** (step + 1))
        v_hat = v / (1.0 - beta2 ** (step + 1))
        psi = psi + lr * m_hat / (np.sqrt(v_hat) + eps)
        lr *= config.lr_decay
        trace.elbo.append(value)
        trace.grad_norm.append(gnorm)
        if _converged(trace.elbo, config):
            break
    trace.steps_run = len(trace.elbo)
    trace.runtime_s = time.perf_counter() - start
    trace.final_state = fam.unpack(state, psi)
    return trace


def _converged(history: list, config: TrainConfig) -> bool:
    # Stop when the window means have stopped moving; a one-sided rule would
    # fire on downward noise spikes long before the climb is over.
    w = config.convergence_window
    if w == 0 or len(history) < 2 * w:
        return False
    recent = float(np.mean(history[-w:]))
    previous = float(np.mean(history[-2 * w : -w]))
    return abs(recent - previous) < config.convergence_tol


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

    The variational parameters and the (full) batch stay fixed; only the
    sampling noise varies, so the numbers isolate the estimator itself.
    """
    if repeats < 100:
        raise ValueError("need at least 100 repeats for a stable variance")
    config = TrainConfig(mc_samples=mc_samples, mode=mode)
    psi = fam.pack(state)
    grads = np.empty((repeats, psi.size))
    for r in range(repeats):
        noise, batch = _draw_step(state, problem, config, rng)
        grads[r] = elbo_value_and_grad(state, psi, noise, problem, batch)[1]
    return GradientProbe(
        mean=grads.mean(axis=0), variance=grads.var(axis=0, ddof=1), repeats=repeats
    )
