"""Regression models, likelihoods, priors, and synthetic data.

The workhorse is a linear-in-parameters model y = design @ theta with known
Gaussian observation noise and an N(0, I) prior, fitted on the full data:
the conjugate setting whose exact posterior audits every fit.
The design matrix comes from a squared-exponential RBF layer with regularly
spaced centers.  Likelihood and prior evaluate one parameter row (P,) or
stacked rows (S, P); ``log_joint_and_grad`` gives their sum with its
closed-form θ-gradient, which is what training differentiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LOG_TWO_PI = math.log(2.0 * math.pi)

DATA_INTERVAL = (-1.0, 1.0)


@dataclass(frozen=True)
class RbfModelSpec:
    """Squared-exponential basis layer: K(c, x) = exp(−(x−c)²/(2h²))."""

    centers: np.ndarray
    bandwidth: float
    noise_sigma: float

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        object.__setattr__(self, "centers", centers)
        if centers.ndim != 1 or centers.size < 1:
            raise ValueError("need at least one center")
        if centers.size > 1 and not np.all(np.diff(centers) > 0):
            raise ValueError("centers must be strictly increasing")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.noise_sigma <= 0:
            raise ValueError("noise scale must be positive")

    @classmethod
    def regular(cls, n_centers: int, noise_sigma: float = 0.25) -> "RbfModelSpec":
        """Regularly spaced centers over ``DATA_INTERVAL`` with bandwidth equal
        to their spacing."""
        lo, hi = DATA_INTERVAL
        centers = np.linspace(lo, hi, n_centers)
        spacing = (hi - lo) / (n_centers - 1) if n_centers > 1 else 1.0
        return cls(centers=centers, bandwidth=spacing, noise_sigma=noise_sigma)

    @property
    def n_basis(self) -> int:
        return self.centers.size


def rbf_design_matrix(xs: np.ndarray, spec: RbfModelSpec) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    diff = xs[:, None] - spec.centers[None, :]
    return np.exp(-(diff**2) / (2.0 * spec.bandwidth**2))


def prior_log_const(p: int) -> float:
    """The θ-free part of ``prior_logpdf`` over p coordinates."""
    return -0.5 * p * LOG_TWO_PI


def prior_logpdf(theta):
    """log N(θ; 0, I); rows may be (P,) or (S, P)."""
    return prior_log_const(theta.shape[-1]) - 0.5 * np.add.reduce(theta * theta, axis=-1)


@dataclass
class RegressionProblem:
    """Design matrix, targets and known noise scale; the prior is N(0, I)."""

    design: np.ndarray
    targets: np.ndarray
    noise_sigma: float
    rbf: RbfModelSpec | None = None
    inputs: np.ndarray | None = None

    def __post_init__(self):
        self.design = np.asarray(self.design, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.design.ndim != 2 or self.design.shape[0] != self.targets.shape[0]:
            raise ValueError("design and targets are inconsistent")
        if self.targets.shape[0] < 1:
            raise ValueError("need at least one observation")
        if self.noise_sigma <= 0:
            raise ValueError("noise scale must be positive")

    @property
    def n(self) -> int:
        return self.targets.shape[0]

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def model_shape(self) -> int:
        """The parameter count ``fam.init_family`` takes: ``dim``."""
        return self.dim

    def features(self, xs: np.ndarray) -> np.ndarray:
        """Design rows for new inputs; needs the RBF spec that built us."""
        if self.rbf is None:
            raise ValueError("problem carries no feature map for new inputs")
        return rbf_design_matrix(xs, self.rbf)

    def _loglik_const(self, rows: int) -> float:
        return -0.5 * rows * (LOG_TWO_PI + 2.0 * math.log(self.noise_sigma))

    def loglik_rows(self, theta):
        """Gaussian log-likelihood of the full data per parameter row."""
        resid = self.targets - theta @ self.design.T
        quad = np.add.reduce(resid * resid, axis=-1) / (2.0 * self.noise_sigma**2)
        return self._loglik_const(self.n) - quad

    def prior_rows(self, theta):
        return prior_logpdf(theta)

    @cached_property
    def _full_data(self) -> tuple:
        """(designᵀ, log-lik constant, prior constant), resolved once."""
        return self.design.T, self._loglik_const(self.n), prior_log_const(self.dim)

    def log_joint_and_grad(self, theta: np.ndarray) -> tuple:
        """Per-row log lik + log prior at plain (S, P) rows, and its θ-gradient.

        The closed-form counterpart of ``loglik_rows`` + ``prior_rows``, in
        plain numpy: same values, with ∂/∂θ = residᵀ design / σ² − θ.
        """
        design_t, lik_const, prior_const = self._full_data
        resid = self.targets - theta @ design_t
        quad = np.add.reduce(resid * resid, axis=-1) / (2.0 * self.noise_sigma**2)
        penalty = 0.5 * np.add.reduce(theta * theta, axis=-1)
        rows = (lik_const - quad) + (prior_const - penalty)
        grad = (1.0 / self.noise_sigma**2) * (resid @ self.design)
        return rows, grad - theta


@dataclass
class SyntheticTruth:
    theta_star: np.ndarray
    clean: np.ndarray
    noisy: np.ndarray


def make_rbf_dataset(spec: RbfModelSpec, n: int, seed: int) -> tuple:
    """Inputs equispaced over ``DATA_INTERVAL``, standard-normal true
    weights, noisy targets."""
    if n < 1:
        raise ValueError("need at least one observation")
    rng = np.random.default_rng(seed)
    xs = np.linspace(DATA_INTERVAL[0], DATA_INTERVAL[1], n)
    design = rbf_design_matrix(xs, spec)
    theta_star = rng.standard_normal(spec.n_basis)
    clean = design @ theta_star
    noisy = clean + spec.noise_sigma * rng.standard_normal(n)
    problem = RegressionProblem(
        design=design,
        targets=noisy,
        noise_sigma=spec.noise_sigma,
        rbf=spec,
        inputs=xs,
    )
    return problem, SyntheticTruth(theta_star=theta_star, clean=clean, noisy=noisy)
