"""Exact ground truth for auditing variational fits.

Conjugate linear-Gaussian posteriors and evidence in closed form, KL
divergences (closed-form Gaussian-Gaussian and Monte Carlo), and the exact
MC-dropout predictive mixture obtained by enumerating every dropout state.

Dense P×P algebra is acceptable throughout: problems audited here have
P ≤ 32 by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import autodiff as ad
from . import families as fam
from .models import GaussianPrior, RegressionProblem

LOG_TWO_PI = math.log(2.0 * math.pi)


class NotPositiveDefiniteError(RuntimeError):
    """A matrix that must be SPD failed its Cholesky factorization."""


def _cho(matrix: np.ndarray, what: str):
    try:
        return scipy.linalg.cho_factor(matrix, lower=True)
    except scipy.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(f"{what} is not positive definite: {err}") from err


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
        return scipy.linalg.cho_solve(self._factor, np.eye(self.dim))

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_density(self, theta):
        """Log-density at (P,) or stacked (S, P) points; autodiff-capable."""
        r = theta - self.mean
        quad = ad.sum(r * ad.matmul(r, self.precision), axis=-1)
        return -0.5 * (self.dim * LOG_TWO_PI + self._logdet + quad)

    def log_density_and_grad(self, theta: np.ndarray) -> tuple:
        """``log_density`` at plain (S, P) rows and its θ-gradient in closed form."""
        r = theta - self.mean
        rp = r @ self.precision
        quad = np.sum(r * rp, axis=-1)
        return -0.5 * (self.dim * LOG_TWO_PI + self._logdet + quad), -rp

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        chol = np.linalg.cholesky(self.cov)
        return self.mean + rng.standard_normal((n, self.dim)) @ chol.T

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

    def log_density(self, theta):
        per = [
            math.log(w) + c.log_density(theta)
            for c, w in zip(self.components, self.weights)
        ]
        return ad.logsumexp(ad.stack(per, axis=0), axis=0)

    def log_density_and_grad(self, theta: np.ndarray) -> tuple:
        """``log_density`` at plain (S, P) rows and its θ-gradient in closed form.

        The gradient is the sum of the components' gradients weighted by
        their responsibilities exp(log w_j + log N_j(θ) − log p(θ)), which the
        max-shifted log-sum-exp keeps finite far from every mode.
        """
        per, grads = [], []
        for c, w in zip(self.components, self.weights):
            log_n, grad = c.log_density_and_grad(theta)
            per.append(math.log(w) + log_n)
            grads.append(grad)
        out = ad.logsumexp(np.stack(per), axis=0)
        return out, sum(np.exp(lj - out)[:, None] * g for lj, g in zip(per, grads))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for m, comp in enumerate(self.components):
            take = idx == m
            if take.any():
                out[take] = comp.sample(rng, int(take.sum()))
        return out


def exact_linear_posterior(problem: RegressionProblem) -> GaussianDist:
    """Closed-form conjugate posterior of the linear-Gaussian model.

    Sigma = (sigma⁻² designᵀ design + lam I)⁻¹ and mu = sigma⁻² Sigma designᵀ t;
    the unit-precision prior (lam = 1) is the default audit setting.
    """
    if not isinstance(problem.prior, GaussianPrior):
        raise ValueError("exact posterior requires a Gaussian prior")
    lam = problem.prior.lam
    design = problem.design
    s2 = problem.noise_sigma**2
    precision = design.T @ design / s2 + lam * np.eye(problem.dim)
    factor = _cho(precision, "posterior precision")
    cov = scipy.linalg.cho_solve(factor, np.eye(problem.dim))
    cov = 0.5 * (cov + cov.T)
    mean = scipy.linalg.cho_solve(factor, design.T @ problem.targets / s2)
    return GaussianDist(mean=mean, cov=cov)


def log_evidence(problem: RegressionProblem) -> float:
    """Marginal likelihood log N(t; 0, sigma² I + design designᵀ / lam)."""
    if not isinstance(problem.prior, GaussianPrior):
        raise ValueError("closed-form evidence requires a Gaussian prior")
    lam = problem.prior.lam
    n = problem.n
    gram = problem.design @ problem.design.T / lam + problem.noise_sigma**2 * np.eye(n)
    factor = _cho(gram, "marginal covariance")
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    quad = float(problem.targets @ scipy.linalg.cho_solve(factor, problem.targets))
    return -0.5 * (n * LOG_TWO_PI + logdet + quad)


def kl_gaussian_gaussian(p: GaussianDist, q: GaussianDist) -> float:
    """KL[p || q] between dense Gaussians of equal dimension."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    qf = _cho(q.cov, "second argument covariance")
    trace = float(np.trace(scipy.linalg.cho_solve(qf, p.cov)))
    diff = q.mean - p.mean
    quad = float(diff @ scipy.linalg.cho_solve(qf, diff))
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(qf[0]))))
    sign, logdet_p = np.linalg.slogdet(p.cov)
    if sign <= 0:
        raise NotPositiveDefiniteError("first argument covariance is not SPD")
    return 0.5 * (trace + quad - p.dim + logdet_q - logdet_p)


def family_to_gaussian(state: fam.FamilyState) -> GaussianDist:
    mean, cov = fam.dense_moments(state)
    return GaussianDist(mean=mean, cov=0.5 * (cov + cov.T))


def structured_from_gaussian(dist: GaussianDist) -> fam.StructuredNormalState:
    """Exact full-rank structured-normal representation of a dense Gaussian.

    Splits the smallest eigenvalue between the diagonal and the factor so
    that diag(A) + UUᵀ reproduces the covariance to round-off.
    """
    eigvals, eigvecs = np.linalg.eigh(dist.cov)
    if eigvals[0] <= 0:
        raise NotPositiveDefiniteError("covariance is not positive definite")
    base = 0.5 * eigvals[0]
    u = eigvecs @ np.diag(np.sqrt(eigvals - base))
    return fam.StructuredNormalState(
        mu=dist.mean.copy(),
        log_a=np.full(dist.dim, math.log(base)),
        u=u,
    )


def kl_p_to_family_mc(
    p, state: fam.FamilyState, n_mc: int, rng: np.random.Generator
) -> tuple:
    """Monte-Carlo KL[p || q] with its standard error, sampling from p.

    Atomic families assign zero density to continuous draws, so the
    divergence is infinite with probability one.
    """
    if state.tag in fam.ATOMIC_TAGS:
        return math.inf, 0.0
    draws = p.sample(rng, n_mc)
    gaps = p.log_density(draws) - fam.log_density(state, draws)
    return float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(n_mc))


def kl_family_to_target_mc(
    state: fam.FamilyState, target, n_mc: int, rng: np.random.Generator
) -> tuple:
    """Monte-Carlo KL[q || target] with standard error, sampling from q."""
    if state.tag in fam.ATOMIC_TAGS:
        raise ValueError("KL[q || p] is degenerate for atomic families")
    batch = fam.sample(state, "naive", n_mc, rng)
    gaps = fam.log_density(state, batch.draws) - target.log_density(batch.draws)
    return float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(n_mc))


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
        return self.noise_sigma**2 + self.weights @ (centered**2)

    def density(self, y: float, point: int) -> float:
        z = (y - self.atom_means[:, point]) / self.noise_sigma
        kernel = np.exp(-0.5 * z**2) / (self.noise_sigma * math.sqrt(2 * math.pi))
        return float(self.weights @ kernel)


def dropout_predictive_exact(
    state: fam.DropoutState, problem: RegressionProblem, x_star: np.ndarray
) -> PredictiveMixture:
    """Predictive mixture over all dropout states at the given inputs."""
    mixture = fam.enumerate_dropout(state)
    features = problem.features(np.atleast_1d(x_star))
    return PredictiveMixture(
        atom_means=mixture.atoms @ features.T,
        weights=mixture.weights,
        noise_sigma=problem.noise_sigma,
    )


def exact_gaussian_elbo(problem: RegressionProblem, q: GaussianDist) -> float:
    """Closed-form ELBO of a Gaussian q on the conjugate problem.

    E_q[log lik] and E_q[log prior] are Gaussian integrals of quadratics;
    adding the entropy gives the identity ELBO = evidence − KL[q || p*].
    """
    if not isinstance(problem.prior, GaussianPrior):
        raise ValueError("closed-form ELBO requires a Gaussian prior")
    lam = problem.prior.lam
    design, t = problem.design, problem.targets
    s2 = problem.noise_sigma**2
    resid = t - design @ q.mean
    e_loglik = -0.5 * problem.n * (LOG_TWO_PI + math.log(s2)) - (
        float(resid @ resid) + float(np.trace(design @ q.cov @ design.T))
    ) / (2.0 * s2)
    e_prior = -0.5 * problem.dim * (LOG_TWO_PI - math.log(lam)) - 0.5 * lam * (
        float(q.mean @ q.mean) + float(np.trace(q.cov))
    )
    return e_loglik + e_prior + q.entropy()
