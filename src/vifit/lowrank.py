"""Covariances of the form diag(A) + U Uᵀ: solve, log-det, sampling, density.

All operations go through the K×K capacitance matrix C = I + Uᵀ diag(A)⁻¹ U,
never through a dense P×P factorization, so the cost is O(P K²).  The
formula-level helpers at the bottom accept autodiff Vars as well as plain
arrays and back the differentiable log-density used during training on the
tape; ``gaussian_draws_logq_vjp`` computes the same draws and log-density
with their adjoint in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import autodiff as ad

LOG_TWO_PI = math.log(2.0 * math.pi)


class FactorizationError(RuntimeError):
    """Capacitance factorization failed; the diagonal is numerically degenerate."""


@dataclass(frozen=True)
class CapacitanceFactor:
    """C = I_K + Uᵀ diag(A)⁻¹ U together with its Cholesky factorization."""

    matrix: np.ndarray
    cho: tuple

    @classmethod
    def build(cls, diag: np.ndarray, factor: np.ndarray) -> "CapacitanceFactor":
        k = factor.shape[1]
        c = np.eye(k) + factor.T @ (factor / diag[:, None])
        try:
            cho = scipy.linalg.cho_factor(c, lower=True)
        except scipy.linalg.LinAlgError as err:
            raise FactorizationError(f"capacitance factorization failed: {err}") from err
        return cls(matrix=c, cho=cho)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(self.cho, rhs)

    @property
    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.cho[0]))))


@dataclass(frozen=True)
class StructuredCov:
    """Sigma = diag(A) + U Uᵀ with A strictly positive and U of shape (P, K).

    Instances are immutable, so the capacitance factorization is computed
    once and cached; K = 0 denotes a purely diagonal covariance.
    """

    diag: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=np.float64)
        factor = np.asarray(self.factor, dtype=np.float64)
        if diag.ndim != 1:
            raise ValueError("diag must be a vector")
        if factor.ndim != 2 or factor.shape[0] != diag.shape[0]:
            raise ValueError("factor must have shape (P, K)")
        if not np.all(diag > 0):
            raise ValueError("all diagonal entries must be strictly positive")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "factor", factor)

    @classmethod
    def diagonal(cls, diag: np.ndarray) -> "StructuredCov":
        diag = np.asarray(diag, dtype=np.float64)
        return cls(diag=diag, factor=np.zeros((diag.shape[0], 0)))

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

    @cached_property
    def capacitance(self) -> CapacitanceFactor | None:
        if self.rank == 0:
            return None
        return CapacitanceFactor.build(self.diag, self.factor)

    def dense(self) -> np.ndarray:
        """Materialize the P×P matrix; intended for diagnostics and tests."""
        return np.diag(self.diag) + self.factor @ self.factor.T


def woodbury_solve(cov: StructuredCov, v: np.ndarray) -> np.ndarray:
    """Sigma⁻¹ v as A⁻¹v − A⁻¹ U C⁻¹ Uᵀ A⁻¹ v, without forming Sigma."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (cov.dim,):
        raise ValueError(f"v must have shape ({cov.dim},)")
    av = v / cov.diag
    if cov.rank == 0:
        return av
    w = cov.capacitance.solve(cov.factor.T @ av)
    return av - (cov.factor @ w) / cov.diag


def woodbury_logdet(cov: StructuredCov) -> float:
    """log det Sigma = log det C + sum_i log A_i (matrix determinant lemma)."""
    base = float(np.sum(np.log(cov.diag)))
    if cov.rank == 0:
        return base
    return base + cov.capacitance.logdet


def structured_sample(
    mean: np.ndarray,
    cov: StructuredCov,
    z_diag: np.ndarray,
    z_lowrank: np.ndarray,
) -> np.ndarray:
    """theta = mean + sqrt(A) ⊙ z_diag + U z_lowrank for external normal draws.

    ``z_diag`` / ``z_lowrank`` may be single draws of shape (P,) / (K,) or
    stacked batches of shape (S, P) / (S, K).
    """
    mean = np.asarray(mean, dtype=np.float64)
    z_diag = np.asarray(z_diag, dtype=np.float64)
    z_lowrank = np.asarray(z_lowrank, dtype=np.float64)
    if z_diag.shape[-1] != cov.dim or z_lowrank.shape[-1] != cov.rank:
        raise ValueError("noise shapes do not match the covariance")
    theta = mean + np.sqrt(cov.diag) * z_diag
    if cov.rank > 0:
        theta = theta + z_lowrank @ cov.factor.T
    return theta


def structured_logpdf(theta, mean: np.ndarray, cov: StructuredCov):
    """Gaussian log-density under N(mean, diag(A) + UUᵀ).

    ``theta`` may be a single point (P,) or a batch of rows (S, P); the
    quadratic form goes through ``woodbury_solve``'s capacitance factor.
    """
    theta = np.asarray(theta, dtype=np.float64)
    r = theta - mean
    ar = r / cov.diag
    quad = np.sum(r * ar, axis=-1)
    logdet = float(np.sum(np.log(cov.diag)))
    if cov.rank > 0:
        cap = cov.capacitance
        t = ar @ cov.factor
        w = cap.solve(t.T if t.ndim == 2 else t)
        quad = quad - np.sum(t * (w.T if t.ndim == 2 else w), axis=-1)
        logdet += cap.logdet
    return -0.5 * (cov.dim * LOG_TWO_PI + logdet + quad)


def gaussian_draw_rows(mean, scale, factor, z_diag, z_lowrank):
    """Differentiable reparametrized draws: mean + scale ⊙ z + U z_lr.

    ``scale`` is the per-coordinate standard deviation.  Any of the
    parameters may be autodiff Vars; the noise arrays are plain constants.
    """
    theta = mean + scale * z_diag
    if z_lowrank is not None and z_lowrank.shape[-1] > 0:
        theta = theta + ad.matmul(z_lowrank, ad.transpose(factor))
    return theta


def lowrank_logpdf(theta, mean, a_diag, factor):
    """Structured-Gaussian log-density written in autodiff-capable primitives.

    Shares the Woodbury/determinant-lemma formulas with the plain-numpy
    path above; raises FactorizationError when the capacitance system is
    degenerate.  ``theta`` rows may be (P,) or (S, P).
    """
    p = _dim_of(mean)
    k = _rank_of(factor)
    r = theta - mean
    ar = r / a_diag
    quad = ad.sum(r * ar, axis=-1)
    logdet = ad.sum(ad.log(a_diag))
    if k > 0:
        scaled = factor / ad.reshape(a_diag, (p, 1))
        cap = np.eye(k) + ad.matmul(ad.transpose(factor), scaled)
        t = ad.matmul(ar, factor)
        try:
            w = ad.solve_spd(cap, ad.transpose(t))
            cap_logdet = ad.logdet_spd(cap)
        except scipy.linalg.LinAlgError as err:
            raise FactorizationError(
                f"capacitance factorization failed: {err}"
            ) from err
        quad = quad - ad.sum(t * ad.transpose(w), axis=-1)
        logdet = logdet + cap_logdet
    return -0.5 * (p * LOG_TWO_PI + logdet + quad)


def gaussian_draws_logq_vjp(mean, scale, factor, z_diag, z_lowrank) -> tuple:
    """Reparametrized draws, their sampled log q, and its adjoint, in closed form.

    Plain-array counterpart of ``gaussian_draw_rows`` followed by
    ``lowrank_logpdf`` on Σ = diag(a) + UUᵀ with a = scale²: θ_k = mean +
    scale ⊙ z_k + U w_k.  Returns ``(theta, log_q, vjp)`` where
    ``vjp(theta_bar, logq_bar)`` maps adjoints of the (S, P) draws and the
    (S,) log-densities to ``(d_mean, d_scale, d_factor)``.  The log q
    adjoint is its total derivative: through θ_k, and through Σ directly
    (Ong, Nott & Smith 2018).  With v_k = Σ⁻¹(θ_k − mean),

        ∂ log q_k / ∂θ_k = −v_k,
        ∂ log q_k / ∂a  = −½ (diag Σ⁻¹ − v_k²),
        ∂ log q_k / ∂U  = −Σ⁻¹U + v_k (Uᵀv_k)ᵀ,

    where Σ⁻¹U = A⁻¹UC⁻¹, Uᵀv_k = C⁻¹UᵀA⁻¹(θ_k − mean) and diag Σ⁻¹ all come
    from the K×K capacitance C, never a P×P factorization.  ``factor`` may be
    None (or have K = 0) for a diagonal covariance.  Raises
    ``numpy.linalg.LinAlgError`` when C is not numerically positive definite.
    """
    p = mean.shape[0]
    k = 0 if factor is None else factor.shape[1]
    theta = mean + scale * z_diag
    if k:
        theta = theta + z_lowrank @ factor.T
    a = scale * scale
    r = theta - mean
    v = r / a
    quad = (r * v).sum(axis=-1)
    logdet = np.log(a).sum()
    sinv_diag = 1.0 / a
    if k:
        b = factor / a[:, None]
        cap = np.eye(k) + factor.T @ b
        chol = np.linalg.cholesky(cap)  # LinAlgError when C is not SPD
        t = v @ factor
        # One solve for both right-hand sides: C⁻¹ t_k and C⁻¹ Bᵀ.
        sol = np.linalg.solve(cap, np.hstack([t.T, b.T]))
        utv = sol[:, : len(t)].T  # rows Uᵀ v_k = C⁻¹ t_k
        sinv_u = sol[:, len(t) :].T  # Σ⁻¹U = A⁻¹ U C⁻¹
        quad = quad - (t * utv).sum(axis=-1)
        logdet = logdet + 2.0 * np.log(chol.diagonal()).sum()
        v = v - utv @ b.T
        sinv_diag = sinv_diag - (b * sinv_u).sum(axis=1)
    log_q = -0.5 * (p * LOG_TWO_PI + logdet + quad)

    def vjp(theta_bar, logq_bar):
        lv = v * logq_bar[:, None]
        via_r = theta_bar - lv  # adjoint reaching r_k = scale ⊙ z_k + U w_k
        lsum = logq_bar.sum()
        d_a = -0.5 * (lsum * sinv_diag - (lv * v).sum(axis=0))
        d_scale = (via_r * z_diag).sum(axis=0) + 2.0 * scale * d_a
        d_factor = None
        if k:
            d_factor = via_r.T @ z_lowrank + lv.T @ utv - lsum * sinv_u
        return theta_bar.sum(axis=0), d_scale, d_factor

    return theta, log_q, vjp


def _dim_of(x) -> int:
    shape = x.shape if hasattr(x, "shape") else np.shape(x)
    return int(shape[-1])


def _rank_of(factor) -> int:
    if factor is None:
        return 0
    shape = factor.shape if hasattr(factor, "shape") else np.shape(factor)
    return int(shape[1]) if len(shape) == 2 else 0
