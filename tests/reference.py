"""Test-side readers of vifit: dense covariances, Woodbury checks, finite
differences and the gradient variance probe.

None of this runs in a vifit command.  The Woodbury solve, log-det and
log-density read the kernel that trains (``lowrank_logpdf_and_vjp`` and its
value half), so the checks built on them check that kernel.
"""

from typing import NamedTuple

import numpy as np

import vifit.families as fam
import vifit.trainer as tr
from vifit.lowrank import LOG_TWO_PI, lowrank_logpdf, lowrank_logpdf_and_vjp


class StructuredCov(NamedTuple):
    """Sigma = diag(A) + U Uᵀ, A of shape (P,) and U of shape (P, K)."""

    diag: np.ndarray
    factor: np.ndarray

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    def dense(self) -> np.ndarray:
        return np.diag(self.diag) + self.factor @ self.factor.T


def woodbury_solve(cov: StructuredCov, v: np.ndarray) -> np.ndarray:
    """Sigma⁻¹ v, the kernel's θ-adjoint: ∂ log q/∂θ = −Σ⁻¹(θ − mean), so at
    θ = v and mean 0, with log q's adjoint set to −1, d_theta is Σ⁻¹v."""
    _, vjp = lowrank_logpdf_and_vjp(v[None], np.zeros(cov.dim), cov.diag, cov.factor)
    return vjp(np.full(1, -1.0))[0][0]


def woodbury_logdet(cov: StructuredCov) -> float:
    """log det Sigma = −2 log q − P log 2π, log q the kernel's at θ = mean,
    where the quadratic term is exactly 0."""
    mean = np.zeros(cov.dim)
    log_q = lowrank_logpdf_and_vjp(mean[None], mean, cov.diag, cov.factor)[0]
    return float(-2.0 * log_q[0] - cov.dim * LOG_TWO_PI)


def structured_logpdf(theta, mean, cov: StructuredCov):
    """log N(theta; mean, Sigma) at a point (P,) or at rows (S, P)."""
    return lowrank_logpdf(theta, mean, cov.diag, cov.factor)


def finite_difference_gradient(objective, psi, step=None) -> np.ndarray:
    """Central differences of ``objective`` at psi, with a step of ``step``
    or, by default, 1e-4 · max(1, |psi_i|) in coordinate i."""
    psi = np.asarray(psi, dtype=np.float64)
    if step is None:
        steps = 1e-4 * np.maximum(1.0, np.abs(psi))
    else:
        steps = np.full(psi.shape, float(step))
    grad = np.zeros(psi.shape)
    for i in range(psi.size):
        hi, lo = psi.copy(), psi.copy()
        hi[i] += steps[i]
        lo[i] -= steps[i]
        grad[i] = (float(objective(hi)) - float(objective(lo))) / (2.0 * steps[i])
    return grad


class GradientProbe(NamedTuple):
    """Per-coordinate moments of the ELBO gradient estimator at fixed psi."""

    mean: np.ndarray
    variance: np.ndarray
    repeats: int

    def std_error(self) -> np.ndarray:
        return np.sqrt(self.variance / self.repeats)


def gradient_variance_probe(state, problem, mode, repeats, rng, mc_samples=8) -> GradientProbe:
    """The gradient's mean and variance over ``repeats`` noise draws at the
    state's own psi, so only the sampling noise varies."""
    config = tr.TrainConfig(mc_samples=mc_samples, mode=mode)
    psi = fam.pack(state)
    grads = np.empty((repeats, psi.size))
    for r in range(repeats):
        grads[r] = tr.elbo_value_and_grad(state, psi, tr._draw_noise(state, config, rng), problem)[1]
    return GradientProbe(grads.mean(axis=0), grads.var(axis=0, ddof=1), repeats)
