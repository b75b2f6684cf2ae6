"""Exact ground truth for auditing variational fits.

Conjugate linear-Gaussian posteriors and evidence in closed form, KL
divergences (closed-form Gaussian-Gaussian, closed-form between a Gaussian
and two equally weighted modes that share σ²I, and Monte Carlo), and the
exact MC-dropout predictive mixture obtained by enumerating every dropout
state.  ``GaussianDist`` and ``GaussianMixtureDist`` are also density
targets: their ``log_joint_and_grad`` gives the log-density rows, None for
the prior term, and the θ-gradient (see ``trainer``).

Against the two-mode target both KLs of a Gaussian q reduce to one 1-D
expectation, E[log cosh x] for a normal x (``expected_log_cosh``), taken
by a trapezoid rule.  The Monte-Carlo KLs, which audit every other q (an
sGMM's), stream their draws in blocks of ``fam.BLOCK_ROWS`` rows, from p
(``sample_blocks``) or from q (``fam.sample_blocks``), each block's noise
drawn as it comes.  q's draws and their log q are those of
``fam.draws_logq_vjp``, the function that trains.  Memory is the (n_mc,)
gaps and one block of temporaries, plus the (n_mc,) component ids of a
mixture p or an sGMM q, and the n_mc·P z_diag of an sN or sGMM q of rank
K ≥ 1.  A q-side sGMM block evaluates every component at every row, so it
holds (M, ``fam.BLOCK_ROWS``, P) kernel temporaries.  The exact predictive
streams its 2^{P_d} atoms in blocks of at most ``fam.BLOCK_ROWS``, so its
memory is one block of atoms and max(1, P_d − 12) weight vectors of a
block's length, however large P_d is.  It subtracts the mixture mean on
each block's wide view (``fam.wide_view``), against the mean tiled once
per pass, so each inner loop covers ``fam.WIDE_ROWS`` atoms.

Dense P×P algebra is acceptable throughout: problems audited here have
P ≤ 32 by construction.  A fit the audits cannot read (a covariance that
is not finite or not positive definite, which ``ad.cholesky`` rejects, or
a Monte-Carlo draw that is not finite) raises ``ad.MemberFailure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import families as fam
from .lowrank import LOG_TWO_PI
from .models import RegressionProblem


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
    def _factor(self) -> np.ndarray:
        return ad.cholesky(self.cov, "covariance")

    @cached_property
    def _logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._factor))))

    @cached_property
    def precision(self) -> np.ndarray:
        return ad.cho_solve(self._factor, np.eye(self.dim))

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_density(self, theta):
        """Log-density at a plain (P,) point or stacked (S, P) rows."""
        return self.log_joint_and_grad(theta)[0]

    def log_joint_and_grad(self, theta: np.ndarray) -> tuple:
        """(log-density, None, θ-gradient) at a plain (P,) point or (S, P)
        rows, in closed form; None: a density target has no prior term."""
        r = theta - self.mean
        rp = r @ self.precision
        quad = np.add.reduce(r * rp, axis=-1)
        return -0.5 * (self.dim * LOG_TWO_PI + self._logdet + quad), None, -rp

    def sample_blocks(self, rng: np.random.Generator, n: int):
        """Yield ``(rows, draws)`` over ``fam.row_blocks(n)``, normals in row order."""
        chol = self._factor
        for rows in fam.row_blocks(n):
            z = rng.standard_normal((rows.stop - rows.start, self.dim))
            yield rows, self.mean + z @ chol.T

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
    def _stacked(self) -> tuple:
        """The components' constants, stacked once: means (M, 1, P), precisions
        (M, P, P), normalizers P log 2π + log det Σ_j and log weights, (M, 1)."""
        comps = self.components
        return (
            np.array([c.mean for c in comps])[:, None],
            np.array([c.precision for c in comps]),
            np.array([[c.dim * LOG_TWO_PI + c._logdet] for c in comps]),
            np.array([[math.log(w)] for w in self.weights]),
        )

    def _per_component(self, theta: np.ndarray) -> tuple:
        """log w_j + log N_j(θ_k) at (S, P) rows, shape (M, S), and the rows
        (θ_k − μ_j) Σ_j⁻¹, shape (M, S, P): every component in one pass."""
        means, precisions, norms, log_w = self._stacked
        r = theta - means
        rp = r @ precisions
        r *= rp  # in place: an audit block holds one (M, S, P) array fewer
        many_rows = theta.shape[0] >= ad.ROW_SUMS_MIN_ROWS  # audit blocks, not training steps
        quad = ad.row_sums(r) if many_rows else np.add.reduce(r, axis=-1)
        return log_w - 0.5 * (norms + quad), rp

    @cached_property
    def _isotropic_pair(self) -> tuple:
        """(c, d, s, σ²) of two equally weighted modes c ± (s/2) d, d a unit
        vector, that share the covariance σ²I; ``ValueError`` for any other
        mixture, whose KLs have no closed form here."""
        comps = self.components
        if len(comps) != 2 or self.weights[0] != self.weights[1]:
            raise ValueError("closed-form KLs need two equally weighted components")
        cov = comps[0].cov
        var = float(cov[0, 0])
        if not (np.array_equal(cov, comps[1].cov) and np.array_equal(cov, var * np.eye(self.dim))):
            raise ValueError("closed-form KLs need one shared isotropic covariance")
        diff = comps[0].mean - comps[1].mean
        s = math.sqrt(diff @ diff)
        return 0.5 * (comps[0].mean + comps[1].mean), diff / s if s else diff, s, var

    @cached_property
    def expected_log_density(self) -> float:
        """E_p[log p] of two equally weighted modes sharing σ²I: under either
        mode t = dᵀ(θ − c) is N(±s/2, σ²), and log cosh is even, so (see
        ``kl_gaussian_bimodal``) it is −(P/2)(log 2πσ² + 1) − s²/4σ² +
        E[log cosh(a t)] with a t ~ N(s²/4σ², s²/4σ²)."""
        _, _, s, var = self._isotropic_pair
        a = s / (2.0 * var)
        return (
            -0.5 * self.dim * (LOG_TWO_PI + math.log(var) + 1.0)
            - s * s / (4.0 * var)
            + expected_log_cosh(0.5 * a * s, a * math.sqrt(var))
        )

    def log_density(self, theta):
        """Log-density at a plain (P,) point or stacked (S, P) rows."""
        out = ad.logsumexp(self._per_component(np.atleast_2d(theta))[0], axis=0)
        return out if np.ndim(theta) > 1 else out[0]

    def log_joint_and_grad(self, theta: np.ndarray) -> tuple:
        """(``log_density``, None, θ-gradient) at plain (S, P) rows, in closed form.

        The gradient is the sum of the components' gradients −Σ_j⁻¹(θ − μ_j)
        weighted by their responsibilities exp(log w_j + log N_j(θ) − log p(θ)),
        which the max-shifted log-sum-exp keeps finite far from every mode.
        """
        per, rp = self._per_component(theta)
        out = ad.logsumexp(per, axis=0)
        return out, None, np.add.reduce(np.exp(per - out)[..., None] * -rp, axis=0)

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


def exact_linear_posterior(problem: RegressionProblem) -> GaussianDist:
    """Closed-form conjugate posterior of the linear-Gaussian model.

    Under the N(0, I) prior, Sigma = (sigma⁻² designᵀ design + I)⁻¹ and
    mu = sigma⁻² Sigma designᵀ t.
    """
    design = problem.design
    s2 = problem.noise_sigma**2
    precision = design.T @ design / s2 + np.eye(problem.dim)
    factor = ad.cholesky(precision, "posterior precision")
    cov = ad.cho_solve(factor, np.eye(problem.dim))
    cov = 0.5 * (cov + cov.T)
    mean = ad.cho_solve(factor, design.T @ problem.targets / s2)
    return GaussianDist(mean=mean, cov=cov)


def log_evidence(problem: RegressionProblem) -> float:
    """Marginal likelihood log N(t; 0, sigma² I + design designᵀ)."""
    n = problem.n
    gram = problem.design @ problem.design.T + problem.noise_sigma**2 * np.eye(n)
    factor = ad.cholesky(gram, "marginal covariance")
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    quad = float(problem.targets @ ad.cho_solve(factor, problem.targets))
    return -0.5 * (n * LOG_TWO_PI + logdet + quad)


def kl_gaussian_gaussian(p: GaussianDist, q: GaussianDist) -> float:
    """KL[p || q] between dense Gaussians of equal dimension."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    trace = float(np.trace(ad.cho_solve(q._factor, p.cov)))
    diff = q.mean - p.mean
    quad = float(diff @ ad.cho_solve(q._factor, diff))
    sign, logdet_p = np.linalg.slogdet(p.cov)
    if sign <= 0:
        raise ad.MemberFailure("first argument covariance is not SPD")
    return 0.5 * (trace + quad - p.dim + q._logdet - logdet_p)


_LOG_2 = math.log(2.0)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    """log cosh x without overflow: log1p(2 sinh²(x/2)) below |x| = 1, where
    it keeps its relative precision near 0, and |x| − log 2 + log1p(e^{−2|x|})
    above."""
    x = np.abs(x)
    near = np.log1p(2.0 * np.sinh(0.5 * np.minimum(x, 1.0)) ** 2)
    return np.where(x < 1.0, near, x - _LOG_2 + np.log1p(np.exp(-2.0 * x)))


def expected_log_cosh(mean: float, sd: float) -> float:
    """E[log cosh x] for x ~ N(mean, sd²).

    For sd ≤ 1, a trapezoid rule in the standard-normal variable z on
    [−10, 10].  For sd > 1, log cosh bends sharply at 0 on the scale of x,
    so the kink is split off: log cosh x = |x| + log1p(e^{−2|x|}) − log 2,
    E|x| is the folded-normal mean, and the log1p term, which decays like
    e^{−2|x|}, is integrated over the half-line u = e^v, v ∈ [−40, 4],
    against the density at ±u.  Both rules step by 0.1; their integrands
    are analytic in a strip about the real axis, so the error falls like
    e^{−2π·width/0.1}, far below round-off.  The nodes are built per call,
    so a command that never calls this never pages in the ufunc loops they
    take (log1p, sinh).  Within 5e-16 relative of a 30-digit reference at
    means from −5 to 1e3 and sd from 1e-3 to 1e2; about 20 µs a call on a
    2-vCPU x86-64 host.
    """
    if sd <= 1.0:
        z = np.arange(-100, 101) / 10.0
        weights = np.exp(-0.5 * z * z)
        return float(weights @ _log_cosh(mean + sd * z)) * 0.1 / math.sqrt(2.0 * math.pi)
    ratio = mean / sd
    folded = sd * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * ratio * ratio) + mean * math.erf(
        ratio / math.sqrt(2.0)
    )
    u = np.exp(np.arange(-400, 41) / 10.0)
    above, below = (u - mean) / sd, (u + mean) / sd
    density = np.exp(-0.5 * above * above) + np.exp(-0.5 * below * below)
    tail = float((u * np.log1p(np.exp(-2.0 * u))) @ density)
    return folded - _LOG_2 + tail * 0.1 / (sd * math.sqrt(2.0 * math.pi))


def kl_gaussian_bimodal(p: GaussianMixtureDist, q: GaussianDist) -> tuple:
    """(KL[p || q], KL[q || p]) between two equally weighted modes c ± (s/2) d
    that share σ²I and a dense Gaussian q = N(μ, Σ), in closed form up to one
    ``expected_log_cosh``; ``ValueError`` for any other mixture.

    With a = s/2σ² and t = dᵀ(θ − c), log p(θ) = −(P/2) log 2πσ² −
    ‖θ − c‖²/2σ² − s²/8σ² + log cosh(a t).  Under q, t is N(dᵀ(μ − c),
    dᵀΣd) and E‖θ − c‖² = ‖μ − c‖² + tr Σ, which gives KL[q || p] =
    −H(q) − E_q[log p].  Under p, E (θ − μ)ᵀΣ⁻¹(θ − μ) is the mean over the
    modes m_j of (m_j − μ)ᵀΣ⁻¹(m_j − μ), plus σ² tr Σ⁻¹, which gives
    E_p[log q]; E_p[log p] is the target's own (``expected_log_density``).
    """
    c, d, s, var = p._isotropic_pair
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    a = s / (2.0 * var)
    r = q.mean - c
    e_q_log_p = (
        -0.5 * q.dim * (LOG_TWO_PI + math.log(var))
        - (r @ r + np.trace(q.cov)) / (2.0 * var)
        - s * s / (8.0 * var)
        + expected_log_cosh(a * (d @ r), a * math.sqrt(d @ q.cov @ d))
    )
    resid = np.array([comp.mean for comp in p.components]) - q.mean
    quad = 0.5 * np.sum(resid * (resid @ q.precision)) + var * np.trace(q.precision)
    e_p_log_q = -0.5 * (q.dim * LOG_TWO_PI + q._logdet + quad)
    return float(p.expected_log_density - e_p_log_q), float(-q.entropy() - e_q_log_p)


def family_to_gaussian(state: fam.FamilyState) -> GaussianDist:
    """The dense Gaussian N(mu, diag(A) + U Uᵀ) of a Gaussian family.

    ``ad.MemberFailure`` when the float64 covariance has a zero
    variance (``fam.has_zero_variance``: q is a point mass along that
    coordinate), or when its diagonal part A underflows to 0 somewhere,
    where the Woodbury kernel's diag(A)⁻¹ fails even if U Uᵀ keeps the
    variance.
    """
    if fam.has_zero_variance(state):
        raise ad.MemberFailure("covariance has a zero variance: q is a point mass")
    if not np.all(state.a_diag > 0):
        raise ad.MemberFailure("covariance's diagonal part A underflows to 0")
    cov = np.diag(state.a_diag) + state.u @ state.u.T
    return GaussianDist(mean=state.mu.copy(), cov=0.5 * (cov + cov.T))


def _mc_kl(blocks, gap, n_mc: int) -> tuple:
    """Mean and standard error of ``gap(draws, *rest)`` over ``(rows, draws,
    *rest)`` blocks.

    Each block's gaps land in one (n_mc,) array, so the reduction is the
    one a whole batch would get.  A block of draws that is not finite, or a
    NaN mean, raises ``ad.MemberFailure``.
    """
    gaps = np.empty(n_mc)
    for rows, draws, *rest in blocks:
        if not np.isfinite(draws).all():
            raise ad.MemberFailure("a Monte-Carlo KL draw is not finite")
        gaps[rows] = gap(draws, *rest)
    kl = float(gaps.mean())
    if math.isnan(kl):
        raise ad.MemberFailure("a Monte-Carlo KL log-density gap is NaN")
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
    q's draws stream through ``fam.sample_blocks``, as p's do in
    ``kl_p_to_family_mc``, and the gap is the log q that
    ``fam.draws_logq_vjp`` gives with them, the one training samples, minus
    the target's log density.  Memory is one block of temporaries plus the
    gaps and what ``fam.sample_blocks`` holds whole (an sN's or sGMM's
    z_diag, an sGMM's component ids).
    """
    if state.tag in fam.ATOMIC_TAGS:
        raise ValueError("KL[q || p] is degenerate for atomic families")
    if fam.has_zero_variance(state):
        return math.inf, 0.0
    return _mc_kl(
        fam.sample_blocks(state, rng, n_mc),
        lambda draws, log_q: log_q - target.log_density(draws),
        n_mc,
    )


def log_density_of_truth(state: fam.FamilyState, theta_star: np.ndarray) -> float:
    """log q(theta*); minus infinity for atomic families off their atoms."""
    return float(fam.log_density(state, np.asarray(theta_star, dtype=np.float64)))


@dataclass(frozen=True)
class PredictiveMixture:
    """Moments of the exact dropout predictive at some inputs.

    The predictive is a mixture of N(image_r, σ²), one per dropout atom r,
    weighted by the atom's weight; image_r is atom r's predictive mean.
    """

    n_atoms: int
    weight_sum: float
    noise_sigma: float
    _mean: np.ndarray  # (n_points,)
    _variance: np.ndarray  # (n_points,)

    def mean(self) -> np.ndarray:
        return self._mean.copy()

    def variance(self) -> np.ndarray:
        return self._variance.copy()


def dropout_predictive_exact(
    state: fam.DropoutState, problem: RegressionProblem, x_star: np.ndarray
) -> PredictiveMixture:
    """Predictive mixture over all dropout states at the given inputs.

    Two passes over the atoms' blocks (``DropoutMixture.blocks``), each
    block reduced as it comes: the first sums the weights and the weighted
    atom means, the second the weighted squared deviations from the
    mixture mean, taken in one buffer of a block's size.  Memory is one
    block of atoms, never a 2^{P_d}-row array.
    """
    mixture = fam.enumerate_dropout(state)
    features = problem.features(np.atleast_1d(x_star))
    weight_sum, mean = 0.0, np.zeros(len(features))
    for weights, images in mixture.blocks(features):
        weight_sum += float(np.add.reduce(weights))
        mean += weights @ images
    second, centered = np.zeros(len(features)), None
    for weights, images in mixture.blocks(features):
        if centered is None:  # one buffer for the pass, and the mean tiled to its wide rows
            centered = np.empty(images.shape)
            wide = fam.wide_view(centered)
            tiled = np.concatenate([mean] * (len(images) // len(wide)))
        np.subtract(images.reshape(wide.shape), tiled, out=wide)
        np.square(centered, out=centered)
        second += weights @ centered
    return PredictiveMixture(
        n_atoms=mixture.n_atoms,
        weight_sum=weight_sum,
        noise_sigma=problem.noise_sigma,
        _mean=mean,
        _variance=problem.noise_sigma**2 + second,
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
