"""Exact ground truth for auditing variational fits.

Conjugate linear-Gaussian posteriors and evidence in closed form, KL
divergences (closed-form Gaussian-Gaussian and Monte Carlo), and the exact
MC-dropout predictive mixture obtained by enumerating every dropout state.
The Monte-Carlo KLs stream their draws in blocks of ``fam.BLOCK_ROWS``
rows: memory is the (n_mc,) gaps, plus q's noise, n_mc·(P + K) numbers,
when sampling from q, and one block of temporaries.

Dense P×P algebra is acceptable throughout: problems audited here have
P ≤ 32 by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import families as fam
from .models import RegressionProblem

LOG_TWO_PI = math.log(2.0 * math.pi)


class NotPositiveDefiniteError(RuntimeError):
    """A matrix that must be SPD failed its Cholesky factorization."""


class AuditError(ArithmeticError):
    """A Monte-Carlo KL audit met a draw that is not finite or a NaN
    log-density gap."""


def _cho(matrix: np.ndarray, what: str):
    """``ad.cho_factor(matrix)``; NotPositiveDefiniteError when the matrix is
    not finite or not positive definite."""
    try:
        return ad.cho_factor(matrix)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(f"{what} is not positive definite: {err}") from err
    except ValueError as err:
        raise NotPositiveDefiniteError(f"{what} is not finite") from err


@dataclass(frozen=True)
class GaussianDist:
    """Dense multivariate normal; doubles as a density target for training."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("mean and covariance shapes disagree")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        self._factor  # force the SPD check at construction

    @cached_property
    def _factor(self):
        return _cho(self.cov, "covariance")

    @cached_property
    def _logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._factor[0]))))

    @cached_property
    def precision(self) -> np.ndarray:
        return ad.cho_solve(self._factor, np.eye(self.dim))

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_density(self, theta):
        """Log-density at a plain (P,) point or stacked (S, P) rows."""
        r = theta - self.mean
        quad = np.sum(r * (r @ self.precision), axis=-1)
        return -0.5 * (self.dim * LOG_TWO_PI + self._logdet + quad)

    def log_density_and_grad(self, theta: np.ndarray) -> tuple:
        """``log_density`` at plain (S, P) rows and its θ-gradient in closed form."""
        r = theta - self.mean
        rp = r @ self.precision
        quad = (r * rp).sum(axis=-1)
        return -0.5 * (self.dim * LOG_TWO_PI + self._logdet + quad), -rp

    def sample_blocks(self, rng: np.random.Generator, n: int):
        """Yield ``(rows, draws)`` over ``fam.row_blocks(n)``, normals in row order."""
        chol = self._factor[0]
        for rows in fam.row_blocks(n):
            z = rng.standard_normal((rows.stop - rows.start, self.dim))
            yield rows, self.mean + z @ chol.T

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return fam.gather_blocks(self.sample_blocks(rng, n), n, self.dim)

    def entropy(self) -> float:
        return 0.5 * (self.dim * (LOG_TWO_PI + 1.0) + self._logdet)


@dataclass(frozen=True)
class GaussianMixtureDist:
    """Finite mixture of dense Gaussians; the bimodal audit target."""

    components: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if not np.isclose(w.sum(), 1.0):
            raise ValueError("weights must sum to one")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @cached_property
    def _log_weights(self) -> tuple:
        return tuple(math.log(w) for w in self.weights)

    def log_density(self, theta):
        per = [
            log_w + c.log_density(theta)
            for c, log_w in zip(self.components, self._log_weights)
        ]
        return ad.logsumexp(np.stack(per), axis=0)

    def log_density_and_grad(self, theta: np.ndarray) -> tuple:
        """``log_density`` at plain (S, P) rows and its θ-gradient in closed form.

        The gradient is the sum of the components' gradients weighted by
        their responsibilities exp(log w_j + log N_j(θ) − log p(θ)), which the
        max-shifted log-sum-exp keeps finite far from every mode.
        """
        per, grads = [], []
        for c, log_w in zip(self.components, self._log_weights):
            log_n, grad = c.log_density_and_grad(theta)
            per.append(log_w + log_n)
            grads.append(grad)
        out = ad.logsumexp(np.stack(per), axis=0)
        return out, sum(np.exp(lj - out)[:, None] * g for lj, g in zip(per, grads))

    def sample_blocks(self, rng: np.random.Generator, n: int):
        """Yield ``(rows, draws)``: every row's component first, then each
        component's draws in row order, a block at a time, at integer rows."""
        idx = rng.choice(len(self.components), size=n, p=self.weights)
        for m, comp in enumerate(self.components):
            own = np.flatnonzero(idx == m)
            for rows, draws in comp.sample_blocks(rng, own.size):
                if own.size == 1 < n:  # a lone row as a pair: see fam.row_blocks
                    rows, draws = [0, 0], np.repeat(draws, 2, axis=0)
                yield own[rows], draws

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return fam.gather_blocks(self.sample_blocks(rng, n), n, self.dim)


def exact_linear_posterior(problem: RegressionProblem) -> GaussianDist:
    """Closed-form conjugate posterior of the linear-Gaussian model.

    Under the N(0, I) prior, Sigma = (sigma⁻² designᵀ design + I)⁻¹ and
    mu = sigma⁻² Sigma designᵀ t.
    """
    design = problem.design
    s2 = problem.noise_sigma**2
    precision = design.T @ design / s2 + np.eye(problem.dim)
    factor = _cho(precision, "posterior precision")
    cov = ad.cho_solve(factor, np.eye(problem.dim))
    cov = 0.5 * (cov + cov.T)
    mean = ad.cho_solve(factor, design.T @ problem.targets / s2)
    return GaussianDist(mean=mean, cov=cov)


def log_evidence(problem: RegressionProblem) -> float:
    """Marginal likelihood log N(t; 0, sigma² I + design designᵀ)."""
    n = problem.n
    gram = problem.design @ problem.design.T + problem.noise_sigma**2 * np.eye(n)
    factor = _cho(gram, "marginal covariance")
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    quad = float(problem.targets @ ad.cho_solve(factor, problem.targets))
    return -0.5 * (n * LOG_TWO_PI + logdet + quad)


def kl_gaussian_gaussian(p: GaussianDist, q: GaussianDist) -> float:
    """KL[p || q] between dense Gaussians of equal dimension."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    qf = _cho(q.cov, "second argument covariance")
    trace = float(np.trace(ad.cho_solve(qf, p.cov)))
    diff = q.mean - p.mean
    quad = float(diff @ ad.cho_solve(qf, diff))
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(qf[0]))))
    sign, logdet_p = np.linalg.slogdet(p.cov)
    if sign <= 0:
        raise NotPositiveDefiniteError("first argument covariance is not SPD")
    return 0.5 * (trace + quad - p.dim + logdet_q - logdet_p)


def family_to_gaussian(state: fam.FamilyState) -> GaussianDist:
    """The dense Gaussian of a Gaussian family.

    NotPositiveDefiniteError when the float64 covariance has a zero
    variance (``fam.has_zero_variance``: q is a point mass along that
    coordinate) or a zero diagonal part, which ``StructuredCov`` rejects.
    """
    if fam.has_zero_variance(state):
        raise NotPositiveDefiniteError("covariance has a zero variance: q is a point mass")
    try:
        mean, cov = fam.dense_moments(state)
    except ValueError as err:
        raise NotPositiveDefiniteError(f"covariance is degenerate: {err}") from err
    return GaussianDist(mean=mean, cov=0.5 * (cov + cov.T))


def _mc_kl(blocks, gap, n_mc: int) -> tuple:
    """Mean and standard error of ``gap(draws)`` over ``(rows, draws)`` blocks.

    Each block's gaps land in one (n_mc,) array, so the reduction is the
    one a whole batch would get.  A block of draws that is not finite, or a
    NaN mean, raises AuditError.
    """
    gaps = np.empty(n_mc)
    for rows, draws in blocks:
        if not np.isfinite(draws).all():
            raise AuditError("a Monte-Carlo KL draw is not finite")
        gaps[rows] = gap(draws)
    kl = float(gaps.mean())
    if math.isnan(kl):
        raise AuditError("a Monte-Carlo KL log-density gap is NaN")
    return kl, float(gaps.std(ddof=1) / math.sqrt(n_mc))


def kl_p_to_family_mc(
    p, state: fam.FamilyState, n_mc: int, rng: np.random.Generator
) -> tuple:
    """Monte-Carlo KL[p || q] with its standard error, sampling from p.

    Atomic families, and Gaussians with a zero variance
    (``fam.has_zero_variance``), assign zero density to continuous draws,
    so the divergence is infinite with probability one.  p's draws stream
    through ``p.sample_blocks``: memory is one block of temporaries plus
    p's component index, the gaps and their rows, each (n_mc,).
    """
    if state.tag in fam.ATOMIC_TAGS or fam.has_zero_variance(state):
        return math.inf, 0.0
    return _mc_kl(
        p.sample_blocks(rng, n_mc),
        lambda draws: p.log_density(draws) - fam.log_density(state, draws),
        n_mc,
    )


def kl_family_to_target_mc(
    state: fam.FamilyState, target, n_mc: int, rng: np.random.Generator
) -> tuple:
    """Monte-Carlo KL[q || target] with standard error, sampling from q.

    A Gaussian q with a zero variance is singular to the target: infinite.
    q's noise is drawn whole, n_mc·(P + K) numbers, and realized a block
    at a time (``fam.realize_blocks``), so memory is that noise plus one
    block of temporaries.
    """
    if state.tag in fam.ATOMIC_TAGS:
        raise ValueError("KL[q || p] is degenerate for atomic families")
    if fam.has_zero_variance(state):
        return math.inf, 0.0
    noise = fam.draw_noise(state, "naive", n_mc, rng)
    return _mc_kl(
        fam.realize_blocks(state, noise),
        lambda draws: fam.log_density(state, draws) - target.log_density(draws),
        n_mc,
    )


def log_density_of_truth(state: fam.FamilyState, theta_star: np.ndarray) -> float:
    """log q(theta*); minus infinity for atomic families off their atoms."""
    return float(fam.log_density(state, np.asarray(theta_star, dtype=np.float64)))


@dataclass
class PredictiveMixture:
    """Exact dropout predictive: one Gaussian per dropout state."""

    atom_means: np.ndarray  # (n_atoms, n_points)
    weights: np.ndarray
    noise_sigma: float

    def mean(self) -> np.ndarray:
        return self.weights @ self.atom_means

    def variance(self) -> np.ndarray:
        centered = self.atom_means - self.mean()
        np.square(centered, out=centered)
        return self.noise_sigma**2 + self.weights @ centered



def dropout_predictive_exact(
    state: fam.DropoutState, problem: RegressionProblem, x_star: np.ndarray
) -> PredictiveMixture:
    """Predictive mixture over all dropout states at the given inputs.

    Holds one predictive mean per atom and input, 2^{P_d} × |x*| numbers,
    projected straight from the enumeration (``DropoutMixture.images``).
    """
    mixture = fam.enumerate_dropout(state)
    features = problem.features(np.atleast_1d(x_star))
    return PredictiveMixture(
        atom_means=mixture.images(features),
        weights=mixture.weights,
        noise_sigma=problem.noise_sigma,
    )


def exact_gaussian_elbo(problem: RegressionProblem, q: GaussianDist) -> float:
    """Closed-form ELBO of a Gaussian q on the conjugate problem.

    E_q[log lik] and E_q[log prior] are Gaussian integrals of quadratics;
    adding the entropy gives the identity ELBO = evidence − KL[q || p*].
    """
    design, t = problem.design, problem.targets
    s2 = problem.noise_sigma**2
    resid = t - design @ q.mean
    e_loglik = -0.5 * problem.n * (LOG_TWO_PI + math.log(s2)) - (
        float(resid @ resid) + float(np.trace(design @ q.cov @ design.T))
    ) / (2.0 * s2)
    e_prior = -0.5 * problem.dim * LOG_TWO_PI - 0.5 * (
        float(q.mean @ q.mean) + float(np.trace(q.cov))
    )
    return e_loglik + e_prior + q.entropy()
