"""Regression models, likelihoods, priors, and synthetic data.

The workhorse is a linear-in-parameters model y = design @ theta with known
Gaussian observation noise; the design matrix comes from a squared-
exponential RBF layer with regularly spaced centers.  Likelihood and prior
evaluations accept autodiff Vars and stacked parameter rows, so the same
code backs plain evaluation and the tape, which differentiates the MLP and
any target without ``log_joint_and_grad``'s closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

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


@dataclass(frozen=True)
class StudentTPrior:
    """Independent scale-s Student-t coordinates with nu degrees of freedom."""

    nu: float
    scale: float = 1.0

    def __post_init__(self):
        if self.nu <= 0 or self.scale <= 0:
            raise ValueError("nu and scale must be positive")


PriorSpec = Union[GaussianPrior, StudentTPrior]


def prior_log_const(spec: PriorSpec, p: int) -> float:
    """The θ-free part of ``prior_logpdf`` over p coordinates."""
    if isinstance(spec, GaussianPrior):
        return -0.5 * p * (LOG_TWO_PI - math.log(spec.lam))
    if isinstance(spec, StudentTPrior):
        nu, s = spec.nu, spec.scale
        return p * (
            math.lgamma((nu + 1.0) / 2.0)
            - math.lgamma(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
            - math.log(s)
        )
    raise TypeError(f"unknown prior spec {spec!r}")


def prior_logpdf(spec: PriorSpec, theta):
    """Sum of per-coordinate prior log-densities; rows may be (P,) or (S, P)."""
    const = prior_log_const(spec, theta.shape[-1])
    if isinstance(spec, GaussianPrior):
        return const - 0.5 * spec.lam * ad.sum(theta * theta, axis=-1)
    scaled = theta / spec.scale
    nu = spec.nu
    return const - 0.5 * (nu + 1.0) * ad.sum(ad.log(1.0 + scaled * scaled / nu), axis=-1)


def prior_penalty_and_grad(spec: PriorSpec, theta: np.ndarray) -> tuple:
    """``prior_log_const`` − ``prior_logpdf`` per plain (S, P) row, and
    ∂ ``prior_logpdf`` / ∂θ, in plain numpy."""
    if isinstance(spec, GaussianPrior):
        return 0.5 * spec.lam * np.add.reduce(theta * theta, axis=-1), -spec.lam * theta
    nu, s = spec.nu, spec.scale
    scaled = theta / s
    penalty = 0.5 * (nu + 1.0) * np.add.reduce(np.log(1.0 + scaled * scaled / nu), axis=-1)
    return penalty, -(nu + 1.0) * theta / (nu * s**2 + theta * theta)


@dataclass
class RegressionProblem:
    """Design matrix, targets, known noise scale, and a prior choice."""

    design: np.ndarray
    targets: np.ndarray
    noise_sigma: float
    prior: PriorSpec
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

    def _batch(self, batch_indices):
        """(design, targets, N/|B| rescaling) of a minibatch or the full data."""
        if batch_indices is None:
            return self.design, self.targets, 1.0
        batch_indices = np.asarray(batch_indices)
        if batch_indices.size == 0:
            raise ValueError("minibatch must be nonempty")
        return (
            self.design[batch_indices],
            self.targets[batch_indices],
            self.n / batch_indices.size,
        )

    def _loglik_const(self, rows: int) -> float:
        return -0.5 * rows * (LOG_TWO_PI + 2.0 * math.log(self.noise_sigma))

    def loglik_rows(self, theta, batch_indices=None):
        """Gaussian log-likelihood per parameter row, minibatch-rescaled."""
        design, targets, scale = self._batch(batch_indices)
        resid = targets - ad.matmul(theta, ad.transpose(design))
        quad = ad.sum(resid * resid, axis=-1) / (2.0 * self.noise_sigma**2)
        return scale * (self._loglik_const(resid.shape[-1]) - quad)

    def prior_rows(self, theta):
        return prior_logpdf(self.prior, theta)

    @cached_property
    def _full_data(self) -> tuple:
        """(designᵀ, log-lik constant, prior constant) of the full data."""
        return self.design.T, self._loglik_const(self.n), prior_log_const(self.prior, self.dim)

    def log_joint_and_grad(self, theta: np.ndarray, batch_indices=None) -> tuple:
        """Per-row log lik + log prior at plain (S, P) rows, and its θ-gradient.

        The closed-form counterpart of ``loglik_rows`` + ``prior_rows``, in
        plain numpy: same values, with ∂/∂θ = (N/|B|) residᵀ design / σ² +
        ∂ log prior / ∂θ.  The full data's constants are resolved once.
        """
        if batch_indices is None:
            design, targets, scale = self.design, self.targets, 1.0
            design_t, lik_const, prior_const = self._full_data
        else:
            design, targets, scale = self._batch(batch_indices)
            design_t = design.T
            lik_const = self._loglik_const(targets.shape[0])
            prior_const = prior_log_const(self.prior, theta.shape[-1])
        resid = targets - theta @ design_t
        quad = np.add.reduce(resid * resid, axis=-1) / (2.0 * self.noise_sigma**2)
        penalty, prior_grad = prior_penalty_and_grad(self.prior, theta)
        rows = scale * (lik_const - quad) + (prior_const - penalty)
        grad = (scale / self.noise_sigma**2) * (resid @ design)
        return rows, grad + prior_grad


@dataclass
class SyntheticTruth:
    theta_star: np.ndarray
    clean: np.ndarray
    noisy: np.ndarray


def make_rbf_dataset(
    spec: RbfModelSpec,
    n: int,
    seed: int,
    prior: PriorSpec | None = None,
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
    prior: PriorSpec

    @property
    def dim(self) -> int:
        return 3 * self.mlp.n_hidden + 1

    @property
    def n(self) -> int:
        return self.targets.shape[0]

    def model_shape(self) -> ModelShape:
        return self.mlp.model_shape()

    def loglik_rows(self, theta, batch_indices=None):
        if batch_indices is None:
            xs, ts, scale = self.xs, self.targets, 1.0
        else:
            xs = self.xs[batch_indices]
            ts = self.targets[batch_indices]
            scale = self.n / len(batch_indices)
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
        return scale * (const - quad)

    def prior_rows(self, theta):
        return prior_logpdf(self.prior, theta)
