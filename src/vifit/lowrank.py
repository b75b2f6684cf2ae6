"""Covariances of the form diag(A) + U Uᵀ: solve, log-det, sampling, density.

All operations go through the K×K capacitance matrix C = I + Uᵀ diag(A)⁻¹ U,
never through a dense P×P factorization, so the cost is O(P K²).  There is
one reparametrized draw, ``gaussian_draw_rows``.  ``lowrank_logpdf`` is the
log-density the audits read (``structured_logpdf``, the families'
``log_density``); ``lowrank_logpdf_and_vjp`` is the kernel that trains:
the same log-density at any rows, with its adjoint.

C ⪰ I for any finite covariance, so its Cholesky pivots are at least 1.  A
factorization is treated as failed (``FactorizationError``) when C is not
finite although its inputs are, when its smallest pivot is lost in the
rounding of C's largest entry, min(diag L)² ≤ K·eps·max(diag C), or when
eps·max(diag C) exceeds ``CAPACITANCE_ROUNDOFF``.  The last one fires even
at K = 1, where the pivot rule cannot: the Woodbury identities subtract
terms of the size of C, so they lose relative accuracy in proportion to
eps·max(diag C) however well conditioned Σ is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import autodiff as ad

LOG_TWO_PI = math.log(2.0 * math.pi)
EPS = float(np.finfo(float).eps)


class FactorizationError(RuntimeError):
    """Capacitance factorization failed; the diagonal is numerically degenerate."""


# The largest eps·max(diag C) the Woodbury kernels accept: about 8 digits of
# Σ⁻¹ and log q survive it (see module notes).
CAPACITANCE_ROUNDOFF = 1e-8


def _capacitance_error(c, a_diag, factor, detail) -> Exception:
    """The error a failed factorization of C, built from ``a_diag`` and
    ``factor``, reports.

    FactorizationError when C is not positive definite, or not finite
    although both its inputs are (a diagonal entry underflowed to 0 or U/a
    overflowed).  A non-finite input gives a plain ValueError.
    """
    if np.isfinite(c).all():
        return FactorizationError(f"capacitance factorization failed: {detail}")
    if np.isfinite(a_diag).all() and np.isfinite(factor).all():
        return FactorizationError(f"capacitance is not finite: {detail}")
    return ValueError("array must not contain infs or NaNs")


def _check_capacitance(c, chol_diag, a_diag, factor):
    """Raise unless C = LLᵀ passes the module's three tests.

    On Python floats: this runs on every closed-form step, over only K
    values.  A NaN or ±inf anywhere in C leaves one in diag L or diag C;
    the sum of the pivots catches a NaN that ``min`` passes over.
    """
    top = max(c.diagonal().tolist())
    pivots = chol_diag.tolist()
    singular = min(pivots) ** 2 <= len(pivots) * EPS * top
    if not singular and EPS * top <= CAPACITANCE_ROUNDOFF and math.isfinite(sum(pivots)):
        return
    if not np.isfinite(c).all():
        raise _capacitance_error(c, a_diag, factor, "its Cholesky factor is not finite")
    if singular:
        raise FactorizationError("capacitance matrix is singular to working precision")
    raise FactorizationError(
        f"capacitance is too large for working precision: eps·max(diag C) = "
        f"{EPS * top:.1e} exceeds {CAPACITANCE_ROUNDOFF:.0e}"
    )


def _capacitance_cholesky(c: np.ndarray, a_diag: np.ndarray, factor: np.ndarray) -> tuple:
    """``ad.cho_factor`` of C built from ``a_diag`` and ``factor``, checked
    as the module notes say (``_capacitance_error``)."""
    try:
        cho = ad.cho_factor(c)
    except (scipy.linalg.LinAlgError, ValueError) as err:
        raise _capacitance_error(c, a_diag, factor, err) from err
    _check_capacitance(c, np.diag(cho[0]), a_diag, factor)
    return cho


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
    def capacitance(self) -> tuple | None:
        """``ad.cho_factor`` of C = I_K + Uᵀ diag(A)⁻¹ U; None when K = 0."""
        if self.rank == 0:
            return None
        c = np.eye(self.rank) + self.factor.T @ (self.factor / self.diag[:, None])
        return _capacitance_cholesky(c, self.diag, self.factor)

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
    w = ad.cho_solve(cov.capacitance, cov.factor.T @ av)
    return av - (cov.factor @ w) / cov.diag


def woodbury_logdet(cov: StructuredCov) -> float:
    """log det Sigma = log det C + sum_i log A_i (matrix determinant lemma)."""
    base = float(np.sum(np.log(cov.diag)))
    if cov.rank == 0:
        return base
    return base + 2.0 * float(np.sum(np.log(np.diag(cov.capacitance[0]))))


def structured_logpdf(theta, mean: np.ndarray, cov: StructuredCov):
    """Gaussian log-density under N(mean, diag(A) + UUᵀ) on plain arrays.

    ``theta`` may be a single point (P,) or a batch of rows (S, P).
    """
    theta, mean = (np.asarray(x, dtype=np.float64) for x in (theta, mean))
    return lowrank_logpdf(theta, mean, cov.diag, cov.factor)


def gaussian_draw_rows(mean, scale, factor, z_diag, z_lowrank):
    """Reparametrized draws: mean + scale ⊙ z + U z_lr.

    ``scale`` is the per-coordinate standard deviation; ``factor`` may be
    None for a diagonal covariance.
    """
    theta = mean + scale * z_diag
    if z_lowrank is not None and z_lowrank.shape[-1] > 0:
        theta = theta + z_lowrank @ factor.T
    return theta


def lowrank_logpdf(theta, mean, a_diag, factor):
    """Structured-Gaussian log-density under N(mean, diag(a) + UUᵀ).

    ``factor`` may be None for a diagonal covariance.  Raises
    FactorizationError when the capacitance system is degenerate.
    ``theta`` rows may be (P,) or (S, P).
    """
    p = mean.shape[-1]
    k = 0 if factor is None else factor.shape[1]
    r = theta - mean
    ar = r / a_diag
    quad = np.sum(r * ar, axis=-1)
    logdet = np.sum(np.log(a_diag))
    if k > 0:
        scaled = factor / a_diag.reshape(p, 1)
        cap = np.eye(k) + factor.T @ scaled
        t = ar @ factor
        cho = _capacitance_cholesky(cap, a_diag, factor)
        w = ad.cho_solve(cho, t.T)
        quad = quad - np.sum(t * w.T, axis=-1)
        logdet = logdet + 2.0 * np.sum(np.log(np.diag(cho[0])))
    return -0.5 * (p * LOG_TWO_PI + logdet + quad)


def lowrank_logpdf_and_vjp(theta, mean, a_diag, factor) -> tuple:
    """``lowrank_logpdf`` with its adjoint: the kernel every Gaussian family trains on.

    Evaluates log N(θ_k; mean, Σ) with Σ = diag(a) + UUᵀ at any (S, P) rows
    θ_k and returns ``(log_q, vjp)``, where ``vjp(logq_bar)`` maps the (S,)
    adjoint of log q to ``(d_theta, d_a, d_factor)``.  log q depends on θ
    and the mean only through θ − mean, so the mean's adjoint is −Σ_k
    d_theta_k.  With v_k = Σ⁻¹(θ_k − mean) (Ong, Nott & Smith 2018),

        ∂ log q_k / ∂θ_k = −v_k,
        ∂ log q_k / ∂a  = −½ (diag Σ⁻¹ − v_k²),
        ∂ log q_k / ∂U  = −Σ⁻¹U + v_k (Uᵀv_k)ᵀ,

    where Σ⁻¹U = A⁻¹UC⁻¹, Uᵀv_k = C⁻¹UᵀA⁻¹(θ_k − mean) and diag Σ⁻¹ all come
    from one Cholesky factorization of the K×K capacitance C, never a P×P
    one.  ``factor`` may be None (or have K = 0) for a diagonal covariance;
    ``d_factor`` is then None.  Raises FactorizationError where
    ``lowrank_logpdf`` does.  The two factorize C through different LAPACK
    builds (numpy's and scipy's), whose last bits can differ.
    """
    p = mean.shape[0]
    k = 0 if factor is None else factor.shape[1]
    r = theta - mean
    v = r / a_diag
    quad = (r * v).sum(axis=-1)
    logdet = np.log(a_diag).sum()
    sinv_diag = 1.0 / a_diag
    if k:
        b = factor / a_diag[:, None]
        cap = np.eye(k) + factor.T @ b
        try:
            chol = np.linalg.cholesky(cap)
        except np.linalg.LinAlgError as err:
            raise _capacitance_error(cap, a_diag, factor, err) from err
        _check_capacitance(cap, chol.diagonal(), a_diag, factor)
        t = v @ factor
        # C⁻¹ t_k and C⁻¹ Bᵀ in one LAPACK potrs on that factor: the call that
        # scipy.linalg.cho_solve makes, without its checks, which cost more here.
        sol, _ = scipy.linalg.lapack.dpotrs(chol, np.hstack([t.T, b.T]), lower=True)
        utv = sol[:, : len(t)].T  # rows Uᵀ v_k = C⁻¹ t_k
        sinv_u = sol[:, len(t) :].T  # Σ⁻¹U = A⁻¹ U C⁻¹
        quad = quad - (t * utv).sum(axis=-1)
        logdet = logdet + 2.0 * np.log(chol.diagonal()).sum()
        v = v - utv @ b.T
        sinv_diag = sinv_diag - (b * sinv_u).sum(axis=1)
    log_q = -0.5 * (p * LOG_TWO_PI + logdet + quad)

    def vjp(logq_bar):
        lv = v * logq_bar[:, None]
        lsum = logq_bar.sum()
        d_a = -0.5 * (lsum * sinv_diag - (lv * v).sum(axis=0))
        d_factor = lv.T @ utv - lsum * sinv_u if k else None
        return -lv, d_a, d_factor

    return log_q, vjp
