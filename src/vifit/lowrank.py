"""Covariances diag(A) + U Uᵀ: reparametrized draws, and log q with its adjoint.

All operations go through the K×K capacitance matrix C = I + Uᵀ diag(A)⁻¹ U,
never through a dense P×P factorization, so the cost is O(P K²).  There is
one reparametrized draw, ``gaussian_draw_rows``, and one Woodbury kernel,
``lowrank_logpdf_and_vjp``: log q at any rows with its adjoint, the kernel
that trains.  Everything else reads it.  ``lowrank_logpdf``, what the audits
read through the families' ``log_density``, is its value half.  Every
factorization is numpy's LAPACK, so training and the audits round alike.
The kernel calls the gufuncs behind ``np.linalg.cholesky`` and
``np.linalg.solve`` (``numpy.linalg._umath_linalg.cholesky_lo`` and
``solve``) directly, under the floating-point state those wrappers set:
the wrappers' argument checks and casts made about half of an sN step's
Python-level calls, and skipping them changes no bit.  The kernel takes
an optional leading component axis, M Gaussians at once, as an sGMM needs:
each matmul, factorization and solve then runs slice by slice through the
same BLAS or LAPACK call that one Gaussian makes, so slice m carries the
bits of component m evaluated alone.

A Monte-Carlo audit block (at least ``ad.ROW_SUMS_MIN_ROWS`` rows) sums
the kernel's rows of length P and K with ``ad.row_sums``, which
reproduces numpy's pairwise order by hand across all rows at once for
rows of at most 8; longer rows, and the 8 to 16 rows of a training step,
go to ``np.add.reduce``.  The audits' bits therefore rest on numpy summing
a row in that order, which was checked with numpy 2.4.6 only and which
``tests/test_autodiff.py`` checks by name.

C ⪰ I for any finite covariance, so its Cholesky pivots are at least 1.  A
factorization is treated as failed (``ad.MemberFailure``) when C is not
finite or not positive definite, when its smallest pivot is lost in the
rounding of C's largest entry, min(diag L)² ≤ K·eps·max(diag C), or when
eps·max(diag C) exceeds ``CAPACITANCE_ROUNDOFF``.  The last one fires even
at K = 1, where the pivot rule cannot: the Woodbury identities subtract
terms of the size of C, so they lose relative accuracy in proportion to
eps·max(diag C) however well conditioned Σ is.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg

from . import autodiff as ad

LOG_TWO_PI = math.log(2.0 * math.pi)
EPS = float(np.finfo(float).eps)


# The largest eps·max(diag C) the Woodbury kernels accept: about 8 digits of
# Σ⁻¹ and log q survive it (see module notes).
CAPACITANCE_ROUNDOFF = 1e-8


def _not_positive_definite(err, flag):
    """The ``np.errstate`` callback of ``np.linalg.cholesky``: LAPACK's
    gufunc reports a failed factorization as an invalid value."""
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def _capacitance_cholesky(c: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of C, or of each C in an (M, K, K) stack,
    checked as the module notes say.

    C is factorized without a finiteness pre-check: a NaN or ±inf anywhere
    in C fails the factorization or leaves one in diag L or diag C.  The
    pivot tests run on every slice at once, one reduction each, since this
    runs on every closed-form step; a NaN makes them fail, and so does a
    NaN among the pivots, through their sum.  Only when some slice fails
    are the slices tested one at a time, on Python floats, to raise the
    error of the first slice that fails alone.  Runs inside the kernel's
    ``np.errstate``, which turns LAPACK's failure flag into ``LinAlgError``.
    """
    try:
        chol = _umath_linalg.cholesky_lo(c, signature="d->d")
    except np.linalg.LinAlgError as err:
        for one in c if c.ndim > 2 else ():
            _capacitance_cholesky(one)
        if not np.isfinite(c).all():
            raise ad.MemberFailure("capacitance is not finite") from err
        raise ad.MemberFailure(f"capacitance factorization failed: {err}") from err
    roundoff = EPS * np.maximum.reduce(c.diagonal(0, -2, -1), axis=-1)
    diag_l = chol.diagonal(0, -2, -1)
    smallest = np.minimum.reduce(diag_l, axis=-1)
    passed = (
        (smallest * smallest > c.shape[-1] * roundoff)
        & (roundoff <= CAPACITANCE_ROUNDOFF)
        & np.isfinite(np.add.reduce(diag_l, axis=-1))
    )
    if np.logical_and.reduce(passed, axis=None):
        return chol
    for one, low in zip(c, chol) if c.ndim > 2 else ((c, chol),):
        top = max(one.diagonal().tolist())
        pivots = low.diagonal().tolist()
        singular = min(pivots) ** 2 <= len(pivots) * EPS * top
        if not singular and EPS * top <= CAPACITANCE_ROUNDOFF and math.isfinite(sum(pivots)):
            continue
        if not np.isfinite(one).all():
            raise ad.MemberFailure("capacitance is not finite")
        if singular:
            raise ad.MemberFailure("capacitance matrix is singular to working precision")
        raise ad.MemberFailure(
            f"capacitance is too large for working precision: eps·max(diag C) = "
            f"{EPS * top:.1e} exceeds {CAPACITANCE_ROUNDOFF:.0e}"
        )
    return chol


@cache
def _identity(k: int) -> np.ndarray:
    """The K×K identity, built once per K and read-only."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def gaussian_draw_rows(mean, scale, factor, z_diag, z_lowrank):
    """Reparametrized draws: mean + scale ⊙ z + U z_lr.

    ``scale`` is the per-coordinate standard deviation; a (P, 0) ``factor``
    is a diagonal covariance.  Stacked (M, 1, P) means and scales with
    an (M, P, K) factor give every component's draw at every row, (M, S, P).
    """
    theta = mean + scale * z_diag
    if z_lowrank.shape[-1] > 0:
        theta = theta + z_lowrank @ factor.mT
    return theta


def lowrank_logpdf(theta, mean, a_diag, factor):
    """Structured-Gaussian log-density under N(mean, diag(a) + UUᵀ): the
    value half of ``lowrank_logpdf_and_vjp``, stacked components included.

    ``theta`` may be a single point (P,) or rows (S, P); a (P, 0)
    ``factor`` is a diagonal covariance.  Raises ``ad.MemberFailure`` when
    the capacitance system is degenerate.  A row of θ that is not finite
    gets a log q that is not finite, and so does every row when the mean is
    not finite; the Monte-Carlo audits report that as ``ad.MemberFailure``.
    """
    log_q = lowrank_logpdf_and_vjp(theta.reshape(-1, mean.shape[-1]), mean, a_diag, factor)[0]
    return log_q if theta.ndim > 1 else log_q[..., 0][()]  # a float, or (M,) when stacked


def lowrank_logpdf_and_vjp(theta, mean, a_diag, factor) -> tuple:
    """log N(θ_k; mean, Σ) at (S, P) rows with its adjoint: the one
    Gaussian log-density, which every Gaussian family trains and is audited on.

    Σ = diag(a) + UUᵀ.  Returns ``(log_q, vjp)``, where ``vjp(logq_bar)``
    maps the (S,) adjoint of log q to ``(d_theta, d_a, d_factor)``.  log q
    depends on θ and the mean only through θ − mean, so the mean's adjoint
    is −Σ_k d_theta_k.  With v_k = Σ⁻¹(θ_k − mean) (Ong, Nott & Smith 2018),

        ∂ log q_k / ∂θ_k = −v_k,
        ∂ log q_k / ∂a  = −½ (diag Σ⁻¹ − v_k²),
        ∂ log q_k / ∂U  = −Σ⁻¹U + v_k (Uᵀv_k)ᵀ,

    where Σ⁻¹U = A⁻¹UC⁻¹, Uᵀv_k = C⁻¹UᵀA⁻¹(θ_k − mean) and diag Σ⁻¹ all come
    from the K×K capacitance C, never a P×P matrix: its checked Cholesky
    factor gives log det C, and one LU solve gives Σ⁻¹U = BC⁻¹ with
    B = A⁻¹U.  Uᵀv_k = (BC⁻¹)ᵀ(θ_k − mean) is then a matrix product, so the
    solve's cost does not grow with the number of rows.  v_k and diag Σ⁻¹
    are formed only when the adjoint is asked for.  A ``factor`` with K = 0
    is a diagonal covariance; ``d_factor`` is then None.

    M components at once: with ``mean`` and ``a_diag`` of shape (M, P) and
    ``factor`` (M, P, K), every component is evaluated at the same (S, P)
    rows, or each at its own rows of an (M, S, P) ``theta``.  log q is then
    (M, S), and ``vjp`` maps an (M, S) adjoint to d_theta
    (M, S, P), d_a (M, P) and d_factor (M, P, K); slice m of each is what
    component m alone gives, bit for bit (see module notes).  Raises
    ``ad.MemberFailure`` as the module notes say.
    """
    p = theta.shape[-1]
    k = factor.shape[-1]
    stacked = mean.ndim > 1  # M components: each one's mean and a broadcast over the rows
    a_rows = a_diag[:, None] if stacked else a_diag
    r = theta - (mean[:, None] if stacked else mean)
    v = r / a_rows
    many_rows = theta.shape[-2] >= ad.ROW_SUMS_MIN_ROWS  # audit blocks, not training steps
    quad = ad.row_sums(r * v) if many_rows else np.add.reduce(r * v, axis=-1)
    logdet = np.add.reduce(np.log(a_rows), axis=-1)
    if k:
        b = factor / a_diag[..., None]
        cap = _identity(k) + factor.mT @ b
        # np.linalg's floating-point state, built fresh since an errstate is
        # entered once only.  The LU solve, Σ⁻¹U = A⁻¹ U C⁻¹ = B C⁻¹, runs on a
        # C whose Cholesky passed, so only the factorization can fail.
        with np.errstate(
            call=_not_positive_definite, invalid="call", over="ignore", divide="ignore", under="ignore"
        ):
            chol = _capacitance_cholesky(cap)
            sinv_u = _umath_linalg.solve(cap, b.mT, signature="dd->d").mT
        t = v @ factor  # rows t_k = UᵀA⁻¹(θ_k − mean) = Bᵀ(θ_k − mean)
        utv = r @ sinv_u  # rows Uᵀ v_k = C⁻¹ t_k = (B C⁻¹)ᵀ (θ_k − mean)
        quad = quad - (ad.row_sums(t * utv) if many_rows else np.add.reduce(t * utv, axis=-1))
        logdet = logdet + 2.0 * np.add.reduce(
            np.log(chol.diagonal(0, -2, -1)), axis=-1, keepdims=stacked
        )
    log_q = -0.5 * (p * LOG_TWO_PI + logdet + quad)

    def vjp(logq_bar):
        sinv_diag = 1.0 / a_diag
        w = v
        if k:
            w = v - utv @ b.mT
            sinv_diag = sinv_diag - np.add.reduce(b * sinv_u, axis=-1)
        lv = w * logq_bar[..., None]
        lsum = np.add.reduce(logq_bar, axis=-1, keepdims=stacked)
        d_a = -0.5 * (lsum * sinv_diag - np.add.reduce(lv * w, axis=-2))
        d_factor = lv.mT @ utv - lsum[..., None] * sinv_u if k else None
        return -lv, d_a, d_factor

    return log_q, vjp
