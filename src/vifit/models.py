"""Regression models, likelihoods, priors, and synthetic data.

The workhorse is a linear-in-parameters model y = design @ theta with known
Gaussian observation noise and an independent Gaussian prior, fitted on the
full data: the conjugate setting whose exact posterior audits every fit.
The design matrix comes from a squared-exponential RBF layer with regularly
spaced centers.  Likelihood and prior evaluations accept autodiff Vars and
stacked parameter rows, so the same code backs plain evaluation and the
tape, which differentiates the MLP and any target without
``log_joint_and_grad``'s closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .families import ModelShape, ParamBlock

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
    def regular(
        cls,
        n_centers: int,
        interval: tuple = DATA_INTERVAL,
        noise_sigma: float = 0.25,
    ) -> "RbfModelSpec":
        """Regularly spaced centers with bandwidth equal to their spacing."""
        centers = np.linspace(interval[0], interval[1], n_centers)
        spacing = (
            (interval[1] - interval[0]) / (n_centers - 1) if n_centers > 1 else 1.0
        )
        return cls(centers=centers, bandwidth=spacing, noise_sigma=noise_sigma)

    @property
    def n_basis(self) -> int:
        return self.centers.size


def rbf_design_matrix(xs: np.ndarray, spec: RbfModelSpec) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    diff = xs[:, None] - spec.centers[None, :]
    return np.exp(-(diff**2) / (2.0 * spec.bandwidth**2))


@dataclass(frozen=True)
class GaussianPrior:
    """Independent N(0, 1/lam) coordinates; lam is the precision."""

    lam: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("precision must be positive")


def prior_log_const(spec: GaussianPrior, p: int) -> float:
    """The θ-free part of ``prior_logpdf`` over p coordinates."""
    return -0.5 * p * (LOG_TWO_PI - math.log(spec.lam))


def prior_logpdf(spec: GaussianPrior, theta):
    """Sum of per-coordinate prior log-densities; rows may be (P,) or (S, P)."""
    const = prior_log_const(spec, theta.shape[-1])
    return const - 0.5 * spec.lam * ad.sum(theta * theta, axis=-1)


@dataclass
class RegressionProblem:
    """Design matrix, targets, known noise scale, and a Gaussian prior."""

    design: np.ndarray
    targets: np.ndarray
    noise_sigma: float
    prior: GaussianPrior
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

    def model_shape(self) -> ModelShape:
        return ModelShape.linear(self.dim)

    def features(self, xs: np.ndarray) -> np.ndarray:
        """Design rows for new inputs; needs the RBF spec that built us."""
        if self.rbf is None:
            raise ValueError("problem carries no feature map for new inputs")
        return rbf_design_matrix(xs, self.rbf)

    def _loglik_const(self, rows: int) -> float:
        return -0.5 * rows * (LOG_TWO_PI + 2.0 * math.log(self.noise_sigma))

    def loglik_rows(self, theta):
        """Gaussian log-likelihood of the full data per parameter row."""
        resid = self.targets - ad.matmul(theta, ad.transpose(self.design))
        quad = ad.sum(resid * resid, axis=-1) / (2.0 * self.noise_sigma**2)
        return self._loglik_const(self.n) - quad

    def prior_rows(self, theta):
        return prior_logpdf(self.prior, theta)

    @cached_property
    def _full_data(self) -> tuple:
        """(designᵀ, log-lik constant, prior constant), resolved once."""
        return self.design.T, self._loglik_const(self.n), prior_log_const(self.prior, self.dim)

    def log_joint_and_grad(self, theta: np.ndarray) -> tuple:
        """Per-row log lik + log prior at plain (S, P) rows, and its θ-gradient.

        The closed-form counterpart of ``loglik_rows`` + ``prior_rows``, in
        plain numpy: same values, with ∂/∂θ = residᵀ design / σ² − λθ.
        """
        design_t, lik_const, prior_const = self._full_data
        resid = self.targets - theta @ design_t
        quad = np.add.reduce(resid * resid, axis=-1) / (2.0 * self.noise_sigma**2)
        penalty = 0.5 * self.prior.lam * np.add.reduce(theta * theta, axis=-1)
        rows = (lik_const - quad) + (prior_const - penalty)
        grad = (1.0 / self.noise_sigma**2) * (resid @ self.design)
        return rows, grad - self.prior.lam * theta


@dataclass
class SyntheticTruth:
    theta_star: np.ndarray
    clean: np.ndarray
    noisy: np.ndarray


def make_rbf_dataset(
    spec: RbfModelSpec,
    n: int,
    seed: int,
    prior: GaussianPrior | None = None,
    interval: tuple = DATA_INTERVAL,
) -> tuple:
    """Equispaced inputs, standard-normal true weights, noisy targets."""
    if n < 1:
        raise ValueError("need at least one observation")
    rng = np.random.default_rng(seed)
    xs = np.linspace(interval[0], interval[1], n)
    design = rbf_design_matrix(xs, spec)
    theta_star = rng.standard_normal(spec.n_basis)
    clean = design @ theta_star
    noisy = clean + spec.noise_sigma * rng.standard_normal(n)
    problem = RegressionProblem(
        design=design,
        targets=noisy,
        noise_sigma=spec.noise_sigma,
        prior=prior if prior is not None else GaussianPrior(1.0),
        rbf=spec,
        inputs=xs,
    )
    return problem, SyntheticTruth(theta_star=theta_star, clean=clean, noisy=noisy)


class OneHiddenMlp:
    """Tiny tanh-hidden-layer regression model; smoke-test hook only."""

    def __init__(self, n_hidden: int, noise_sigma: float = 0.25):
        self.n_hidden = n_hidden
        self.noise_sigma = noise_sigma

    def model_shape(self) -> ModelShape:
        h = self.n_hidden
        return ModelShape(
            blocks=(
                ParamBlock("w1", h, 1),
                ParamBlock("b1", h, 1, is_bias=True),
                ParamBlock("w2", h, h),
                ParamBlock("b2", 1, h, is_bias=True),
            )
        )

    def predict_rows(self, xs: np.ndarray, theta):
        """Network outputs for all inputs; theta is one flat row."""
        h = self.n_hidden
        w1 = theta[0:h]
        b1 = theta[h : 2 * h]
        w2 = theta[2 * h : 3 * h]
        b2 = theta[3 * h]
        hidden = ad.tanh(np.outer(xs, np.ones(h)) * w1 + b1)
        return ad.matmul(hidden, w2) + b2


@dataclass
class MlpProblem:
    """Nonlinear regression wrapper with the same trainer-facing surface."""

    mlp: OneHiddenMlp
    xs: np.ndarray
    targets: np.ndarray
    prior: GaussianPrior

    @property
    def dim(self) -> int:
        return 3 * self.mlp.n_hidden + 1

    def model_shape(self) -> ModelShape:
        return self.mlp.model_shape()

    def loglik_rows(self, theta):
        xs, ts = self.xs, self.targets
        sigma = self.mlp.noise_sigma
        if getattr(theta, "ndim", 1) == 1:
            resid = ts - self.mlp.predict_rows(xs, theta)
            quad = ad.sum(resid * resid) / (2.0 * sigma**2)
        else:
            per = [
                ad.sum((ts - self.mlp.predict_rows(xs, theta[s])) ** 2)
                for s in range(theta.shape[0])
            ]
            quad = ad.stack(per) / (2.0 * sigma**2)
        const = -0.5 * xs.shape[0] * (LOG_TWO_PI + 2.0 * math.log(sigma))
        return const - quad

    def prior_rows(self, theta):
        return prior_logpdf(self.prior, theta)
