"""Variational families and their sampling modes.

Five families share one contract: initialization from a model shape,
reparametrized sampling (naive / paired / unscented), log-density
evaluation, closed-form entropy where it exists, and a flat-vector
parameter layout that the trainer differentiates through.

Layout rule: each state class lists its trained arrays in pack order in
``TRAINED``, and the flat vector psi is those arrays raveled and
concatenated.  A mixture's ``components`` entry stands for its component
states, packed in turn with their names prefixed ``c{m}.``, before its
``weight_logits``.  One walk over that declaration (``_walk``) drives
``param_slices``, ``pack``, ``unpack``, ``unpack_vars`` and
``state_to_json``; ``state_from_json`` reads the same declaration off the
class.  Fields outside ``TRAINED`` (dropout's ``keep_prob`` and
``droppable``) are carried over from the template.

MAP and MC dropout are atomic: their log-density is defined only on their
atoms and is minus infinity anywhere else.  MAP is MC dropout at keep
probability 1 with nothing droppable, so both share one atomic path:
θ̂ ⊙ mask draws, mask noise and atom weights.  The dropout posterior over the
droppable coordinates is a mixture of 2^{P_d} point masses which
``enumerate_dropout`` materializes exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from . import autodiff as ad
from .lowrank import (
    LOG_TWO_PI,
    StructuredCov,
    gaussian_draw_rows,
    lowrank_logpdf,
    lowrank_logpdf_and_vjp,
    woodbury_logdet,
)

MODES = ("naive", "paired", "unscented")

DROPOUT_ENUMERATION_LIMIT = 24


class ModeFamilyError(ValueError):
    """Requested sampling mode is not defined for the family."""


@dataclass(frozen=True)
class ParamBlock:
    """One named block of the flat parameter vector with its fan-in."""

    name: str
    size: int
    fan_in: int
    is_bias: bool = False


@dataclass(frozen=True)
class ModelShape:
    blocks: tuple

    @classmethod
    def linear(cls, p: int, fan_in: int | None = None) -> "ModelShape":
        return cls(blocks=(ParamBlock("weights", p, fan_in if fan_in else p),))

    @property
    def dim(self) -> int:
        return sum(b.size for b in self.blocks)

    def fan_in_per_coord(self) -> np.ndarray:
        return np.concatenate([np.full(b.size, b.fan_in, dtype=float) for b in self.blocks])

    def droppable_mask(self) -> np.ndarray:
        return np.concatenate(
            [np.full(b.size, not b.is_bias, dtype=bool) for b in self.blocks]
        )


@dataclass
class MapState:
    """The point mass at θ̂: dropout at keep probability 1 with nothing droppable."""

    theta_hat: np.ndarray
    tag = "map"
    TRAINED = ("theta_hat",)
    keep_prob = 1.0

    @property
    def dim(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def droppable(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=bool)


@dataclass
class MeanFieldState:
    mu: np.ndarray
    log_sigma: np.ndarray
    tag = "mean_field"
    TRAINED = ("mu", "log_sigma")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    def cov(self) -> StructuredCov:
        return StructuredCov.diagonal(self.sigma**2)


@dataclass
class StructuredNormalState:
    mu: np.ndarray
    log_a: np.ndarray
    u: np.ndarray
    tag = "structured_normal"
    TRAINED = ("mu", "log_a", "u")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    def cov(self) -> StructuredCov:
        return StructuredCov(diag=np.exp(self.log_a), factor=self.u)


@dataclass
class MixtureState:
    components: tuple
    weight_logits: np.ndarray
    tag = "mixture"
    TRAINED = ("components", "weight_logits")

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def rank(self) -> int:
        return self.components[0].rank

    @property
    def weights(self) -> np.ndarray:
        shifted = self.weight_logits - self.weight_logits.max()
        w = np.exp(shifted)
        return w / w.sum()


@dataclass
class DropoutState:
    theta_hat: np.ndarray
    keep_prob: float
    droppable: np.ndarray
    tag = "mc_dropout"
    TRAINED = ("theta_hat",)

    def __post_init__(self):
        if not 0.0 <= self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in [0, 1]")
        self.droppable = np.array(self.droppable, dtype=bool)

    @property
    def dim(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def n_droppable(self) -> int:
        return int(self.droppable.sum())


FamilyState = Union[MapState, MeanFieldState, StructuredNormalState, MixtureState, DropoutState]
FAMILIES = {cls.tag: cls for cls in get_args(FamilyState)}

ATOMIC_STATES = (MapState, DropoutState)
ATOMIC_TAGS = tuple(cls.tag for cls in ATOMIC_STATES)
GAUSSIAN_STATES = (MeanFieldState, StructuredNormalState)


def init_family(
    tag: str,
    shape: ModelShape,
    rng: np.random.Generator,
    rank: int = 0,
    components: int = 2,
    keep_prob: float = 0.5,
    mixture_spread: float = 1.0,
) -> FamilyState:
    """Initialize a family from the per-block weight-init heuristics.

    Means are uniform in ±1/√fan_in per block, scales start at 0.05/√fan_in,
    low-rank columns at N(0, (0.01/√fan_in)²).  Mixture components are
    perturbed copies of one common init; dropout takes its keep probability
    from the caller and never drops bias blocks.
    """
    p = shape.dim
    fan_in = shape.fan_in_per_coord()
    bound = 1.0 / np.sqrt(fan_in)

    def draw_mean():
        return rng.uniform(-bound, bound)

    if tag == "map":
        return MapState(theta_hat=draw_mean())
    if tag == "mean_field":
        return MeanFieldState(mu=draw_mean(), log_sigma=np.log(0.05 * bound))
    if tag == "structured_normal":
        u = rng.standard_normal((p, rank)) * (0.01 * bound)[:, None]
        return StructuredNormalState(
            mu=draw_mean(), log_a=2.0 * np.log(0.05 * bound), u=u
        )
    if tag == "mixture":
        common = draw_mean()
        comps = []
        for _ in range(components):
            u = rng.standard_normal((p, rank)) * (0.01 * bound)[:, None]
            comps.append(
                StructuredNormalState(
                    mu=common + mixture_spread * bound * rng.standard_normal(p),
                    log_a=2.0 * np.log(0.05 * bound),
                    u=u,
                )
            )
        return MixtureState(components=tuple(comps), weight_logits=np.zeros(components))
    if tag == "mc_dropout":
        return DropoutState(
            theta_hat=draw_mean(),
            keep_prob=keep_prob,
            droppable=shape.droppable_mask(),
        )
    raise ValueError(f"unknown family tag {tag!r}")


# ---------------------------------------------------------------------------
# Flat parameter layout


def _walk(state: FamilyState, leaf, prefix: str = "") -> dict:
    """``{name: leaf(flat name, array)}`` over the trained arrays, in pack order.

    A mixture's ``components`` become a list of such dicts, one per
    component, whose flat names carry the prefix ``c{m}.``.
    """
    out = {}
    for name in state.TRAINED:
        value = getattr(state, name)
        if name == "components":
            out[name] = [_walk(c, leaf, f"{prefix}c{m}.") for m, c in enumerate(value)]
        else:
            out[name] = leaf(prefix + name, value)
    return out


def _flat(state: FamilyState) -> list:
    """(flat name, array) of every trained array, in pack order."""
    out = []
    _walk(state, lambda name, value: out.append((name, value)))
    return out


def _rebuild(template: FamilyState, fields: dict) -> FamilyState:
    """A state like ``template`` with its trained arrays taken from ``fields``."""
    if "components" in fields:
        comps = zip(template.components, fields["components"])
        fields = {**fields, "components": tuple(_rebuild(c, f) for c, f in comps)}
    return dataclasses.replace(template, **fields)


def param_slices(state: FamilyState) -> dict:
    """Named slices of the flat psi vector, in pack order."""
    out, offset = {}, 0
    for name, value in _flat(state):
        out[name] = slice(offset, offset + value.size)
        offset += value.size
    return out


def pack(state: FamilyState) -> np.ndarray:
    return np.concatenate([value.ravel() for _, value in _flat(state)])


def unpack(template: FamilyState, psi: np.ndarray) -> FamilyState:
    """Rebuild a state of the template's type from a flat vector."""
    psi = np.asarray(psi, dtype=np.float64)
    slices = param_slices(template)
    fields = _walk(
        template, lambda name, like: psi[slices[name]].reshape(like.shape).copy()
    )
    return _rebuild(template, fields)


def unpack_vars(template: FamilyState, psi):
    """Split a flat psi (Var or ndarray) into named family parameters.

    Used for graph construction; slicing and reshaping stay on the tape so
    gradients flow back into the flat vector.  A family with a single
    trained vector (MAP, dropout) gets psi itself.
    """
    if template.TRAINED == ("theta_hat",):
        return {"theta_hat": psi}
    offset = 0

    def leaf(_, like):  # _walk visits the arrays in pack order
        nonlocal offset
        part = psi[offset : offset + like.size]
        offset += like.size
        return part if like.ndim == 1 else ad.reshape(part, like.shape)

    return _walk(template, leaf)


def mean_param_indices(state: FamilyState) -> np.ndarray:
    """Flat-psi indices of location parameters (mu / theta_hat)."""
    idx = []
    for name, sl in param_slices(state).items():
        short = name.split(".")[-1]
        if short in ("mu", "theta_hat"):
            idx.extend(range(sl.start, sl.stop))
    return np.array(idx, dtype=int)


# ---------------------------------------------------------------------------
# Sampling


@dataclass
class NoiseBatch:
    """Per-draw noise record; enough to rebuild every draw differentiably.

    ``stratified`` marks mixture batches whose component indices were
    allocated evenly rather than drawn from the weights; such batches must
    be averaged with explicit mixture-weight coefficients.
    """

    mode: str
    count: int
    z_diag: np.ndarray | None = None
    z_lowrank: np.ndarray | None = None
    components: np.ndarray | None = None
    masks: np.ndarray | None = None
    stratified: bool = False


@dataclass
class SampleBatch:
    draws: np.ndarray
    noise: NoiseBatch


def _haar_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((k, k))
    q, r = np.linalg.qr(m)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def _antithetic(rng, half: int, width: int) -> np.ndarray:
    base = rng.standard_normal((half, width))
    out = np.empty((2 * half, width))
    out[0::2] = base
    out[1::2] = -base
    return out


def check_mode(tag: str, mode: str, rank: int = 0):
    """Raise ModeFamilyError unless the family ``tag`` can sample in ``mode``."""
    if mode not in MODES:
        raise ModeFamilyError(f"unknown sampling mode {mode!r}")
    if tag in ATOMIC_TAGS and mode != "naive":
        raise ModeFamilyError(f"{tag} supports naive sampling only")
    if mode == "unscented" and (tag != "structured_normal" or rank < 1):
        raise ModeFamilyError("unscented mode requires a structured normal with rank >= 1")


def _validate_mode(state: FamilyState, mode: str, count: int):
    rank = getattr(state, "rank", 0)
    check_mode(state.tag, mode, rank)
    if count < 1:
        raise ValueError("count must be >= 1")
    if mode == "paired" and count % 2:
        raise ValueError("paired mode requires an even count")
    if mode == "unscented" and count % (2 * rank):
        raise ValueError(f"unscented count must be a multiple of 2K = {2 * rank}")


def draw_noise(
    state: FamilyState,
    mode: str,
    count: int,
    rng: np.random.Generator,
    stratify_components: bool = False,
) -> NoiseBatch:
    _validate_mode(state, mode, count)
    p = state.dim
    if isinstance(state, ATOMIC_STATES):
        masks = np.ones((count, p))
        d = state.droppable
        if d.any():  # MAP has nothing droppable and leaves the generator alone
            masks[:, d] = rng.random((count, np.count_nonzero(d))) < state.keep_prob
        return NoiseBatch(mode=mode, count=count, masks=masks)

    k = getattr(state, "rank", 0)
    comp = None
    stratified = False
    if isinstance(state, MixtureState):
        if stratify_components:
            comp = _stratified_components(state.n_components, mode, count)
            stratified = True
        elif mode == "naive":
            comp = rng.choice(state.n_components, size=count, p=state.weights)
        else:
            half = rng.choice(state.n_components, size=count // 2, p=state.weights)
            comp = np.repeat(half, 2)

    if mode == "naive":
        z_diag = rng.standard_normal((count, p))
        z_lowrank = rng.standard_normal((count, k))
    elif mode == "paired":
        z_diag = _antithetic(rng, count // 2, p)
        z_lowrank = _antithetic(rng, count // 2, k)
    else:  # unscented
        z_diag = np.empty((count, p))
        z_lowrank = np.empty((count, k))
        scale = math.sqrt(k)
        for g in range(count // (2 * k)):
            q = _haar_orthogonal(k, rng)
            for j in range(k):
                row = g * 2 * k + 2 * j
                z_lowrank[row] = scale * q[:, j]
                z_lowrank[row + 1] = -z_lowrank[row]
                z_diag[row] = rng.standard_normal(p)
                z_diag[row + 1] = -z_diag[row]
    return NoiseBatch(
        mode=mode,
        count=count,
        z_diag=z_diag,
        z_lowrank=z_lowrank,
        components=comp,
        stratified=stratified,
    )


def _stratified_components(m: int, mode: str, count: int) -> np.ndarray:
    """Even round-robin component allocation; twins stay in one component."""
    if mode == "paired":
        if (count // 2) % m:
            raise ValueError(f"stratified paired count must be a multiple of {2 * m}")
        return np.repeat(np.repeat(np.arange(m), count // (2 * m)), 2)
    if count % m:
        raise ValueError(f"stratified count must be a multiple of {m}")
    return np.repeat(np.arange(m), count // m)


def _scale_and_factor(params: dict):
    """Per-coordinate std and low-rank factor from unpacked parameters."""
    if "log_sigma" in params:
        return ad.exp(params["log_sigma"]), None
    return ad.exp(0.5 * params["log_a"]), params["u"]


def _gaussian_rows(params: dict, noise: NoiseBatch):
    scale, factor = _scale_and_factor(params)
    return gaussian_draw_rows(params["mu"], scale, factor, noise.z_diag, noise.z_lowrank)


def draws_rows(template: FamilyState, params: dict, noise: NoiseBatch):
    """Realize the draws of a noise batch; differentiable in the parameters."""
    if isinstance(template, ATOMIC_STATES):
        return params["theta_hat"] * noise.masks
    if not isinstance(template, MixtureState):
        return _gaussian_rows(params, noise)
    rows = None
    for m, comp in enumerate(params["components"]):
        sel = (noise.components == m).astype(float)[:, None]
        if not sel.any():
            continue
        term = _gaussian_rows(comp, noise) * sel
        rows = term if rows is None else rows + term
    return rows


def draw_coefficients(template: FamilyState, params: dict, noise: NoiseBatch):
    """Per-draw averaging weights; None (all one) except under stratified allocation.

    With components allocated evenly instead of drawn from the mixture
    weights, each draw carries M * w_m so the average stays an unbiased
    estimate of the mixture expectation -- and the weights become a live
    differentiable path, which is what keeps them trainable.
    """
    if not noise.stratified:
        return None
    logits = params["weight_logits"]
    weights = ad.exp(logits - ad.logsumexp(logits))
    return len(template.components) * weights[noise.components]


def _chain_draw(params: dict, scale, draw_bar, mean_bar, d_a, d_factor, z_diag, z_lowrank):
    """Flat adjoint of one Gaussian's (mu, log-scale, U) block.

    ``draw_bar`` is the adjoint of the rows drawn from it (noise ``z_diag``,
    ``z_lowrank``); ``mean_bar``, ``d_a`` and ``d_factor`` come through its
    log-density.  scale = exp(log_sigma) or exp(½ log_a), and a = scale².
    """
    dscale_dlog = scale if "log_sigma" in params else 0.5 * scale
    d_scale = (draw_bar * z_diag).sum(axis=0) + 2.0 * scale * d_a
    parts = [mean_bar, d_scale * dscale_dlog]
    if d_factor is not None:
        parts.append((draw_bar.T @ z_lowrank + d_factor).ravel())
    return parts


def draws_logq_vjp(template: FamilyState, psi: np.ndarray, noise: NoiseBatch) -> tuple:
    """Closed-form counterpart of ``draws_rows``, ``log_q_rows`` and
    ``draw_coefficients`` on a plain psi.

    Returns ``(theta, log_q, coeff, vjp)``: the draws, their sampled log q
    (None for the atomic families, whose log q is constant), the per-draw
    coefficients (None unless the batch is stratified), and ``vjp(theta_bar,
    logq_bar, coeff_bar)``, the adjoint back to the flat psi.  Atomic draws
    are θ̂ ⊙ mask.  Gaussian draws go through ``gaussian_draw_rows`` and log
    q through ``lowrank_logpdf_and_vjp``, whose adjoint this chains through
    the draw.  A mixture draws each row from its component and evaluates
    every component's log N_m at every row, one ``lowrank_logpdf_and_vjp``
    call each; log q = logsumexp_m(log w_m + log N_m), so each component's
    adjoint is log q's weighted by its responsibilities.  The weight logits
    get gradient through log w_m and, when stratified, through the
    coefficients M·w_m (Morningstar et al., AISTATS 2021).
    """
    if isinstance(template, ATOMIC_STATES):
        masks = noise.masks
        return psi * masks, None, None, lambda theta_bar, *_: (theta_bar * masks).sum(axis=0)
    params = unpack_vars(template, psi)
    if isinstance(template, MixtureState):
        return _mixture_logq_vjp(template, params, noise)
    scale, factor = _scale_and_factor(params)
    theta = gaussian_draw_rows(params["mu"], scale, factor, noise.z_diag, noise.z_lowrank)
    log_q, logq_vjp = lowrank_logpdf_and_vjp(theta, params["mu"], scale * scale, factor)

    def vjp(theta_bar, logq_bar, _):
        d_theta, d_a, d_factor = logq_vjp(logq_bar)
        # log q sees the mean only through θ − mean: its adjoint is Σ_k θ̄_k.
        parts = _chain_draw(
            params, scale, theta_bar + d_theta, theta_bar.sum(axis=0), d_a, d_factor,
            noise.z_diag, noise.z_lowrank,
        )
        return np.concatenate(parts)

    return theta, log_q, None, vjp


def _mixture_logq_vjp(template: MixtureState, params: dict, noise: NoiseBatch) -> tuple:
    """``draws_logq_vjp`` for an sGMM: see there."""
    comps = params["components"]
    scales = [_scale_and_factor(c)[0] for c in comps]
    members = [noise.components == m for m in range(len(comps))]
    theta = np.empty_like(noise.z_diag)
    for c, scale, own in zip(comps, scales, members):
        theta[own] = gaussian_draw_rows(
            c["mu"], scale, c["u"], noise.z_diag[own], noise.z_lowrank[own]
        )
    fits = [
        lowrank_logpdf_and_vjp(theta, c["mu"], scale * scale, c["u"])
        for c, scale in zip(comps, scales)
    ]
    logits = params["weight_logits"]
    log_w = logits - ad.logsumexp(logits)
    weights = np.exp(log_w)
    per = log_w[:, None] + np.stack([log_n for log_n, _ in fits])
    log_q = ad.logsumexp(per, axis=0)
    resp = np.exp(per - log_q)
    coeff = draw_coefficients(template, params, noise)

    def vjp(theta_bar, logq_bar, coeff_bar):
        per_bar = resp * logq_bar  # adjoint of log w_m + log N_m(θ_k)
        adjoints = [logq_vjp(bar) for (_, logq_vjp), bar in zip(fits, per_bar)]
        via = theta_bar + sum(d_theta for d_theta, _, _ in adjoints)  # of every θ_k
        log_w_bar = per_bar.sum(axis=1)
        if coeff is not None:  # coeff_k = M w_{c_k}
            m = len(comps)
            log_w_bar += weights * np.bincount(noise.components, coeff_bar * m, minlength=m)
        parts = []
        for c, scale, own, (d_theta, d_a, d_factor) in zip(comps, scales, members, adjoints):
            # Component m's own draws move with its mean; its log N_m sees the
            # mean through θ − mean at every row.
            draw_bar = via[own]
            mean_bar = draw_bar.sum(axis=0) - d_theta.sum(axis=0)
            parts += _chain_draw(
                c, scale, draw_bar, mean_bar, d_a, d_factor, noise.z_diag[own],
                noise.z_lowrank[own],
            )
        parts.append(log_w_bar - weights * log_w_bar.sum())  # through log-softmax
        return np.concatenate(parts)

    return theta, log_q, coeff, vjp


def sample(
    state: FamilyState, mode: str, count: int, rng: np.random.Generator
) -> SampleBatch:
    """Draw a batch of parameter vectors with full noise records."""
    noise = draw_noise(state, mode, count, rng)
    draws = draws_rows(state, unpack_vars(state, pack(state)), noise)
    return SampleBatch(draws=np.asarray(draws), noise=noise)


# ---------------------------------------------------------------------------
# Densities and entropy


def _gaussian_log_q(params: dict, theta):
    scale, factor = _scale_and_factor(params)
    return lowrank_logpdf(theta, params["mu"], scale * scale, factor)


def log_q_rows(template: FamilyState, params: dict, theta):
    """Differentiable log q(theta) for continuous families, batched over rows."""
    if isinstance(template, ATOMIC_STATES):
        raise ModeFamilyError(f"{template.tag} has no continuous log-density")
    if not isinstance(template, MixtureState):
        return _gaussian_log_q(params, theta)
    logits = params["weight_logits"]
    log_norm = ad.logsumexp(logits)
    per = [
        (logits[m] - log_norm) + _gaussian_log_q(comp, theta)
        for m, comp in enumerate(params["components"])
    ]
    return ad.logsumexp(ad.stack(per, axis=0), axis=0)


def _atom_log_weight(state: FamilyState, rows: np.ndarray) -> np.ndarray:
    """log q of each row under an atomic family: n_on log p + n_off log(1 − p).

    A row is on an atom when every coordinate equals θ̂ or, if droppable,
    0.  A droppable coordinate with θ̂ = 0 gives the same atom under both
    mask values, whose weights sum to 1, so it counts toward neither n_on nor
    n_off.  Off-atom rows get minus infinity.
    """

    def times(n, log_w):  # n log_w, and 0 where n = 0 even when log_w = −∞
        return np.multiply(n, log_w, out=np.zeros(len(rows)), where=n > 0)

    p = state.keep_prob
    on = rows == state.theta_hat
    zero = rows == 0.0
    counted = state.droppable & (state.theta_hat != 0.0)
    n_on = np.count_nonzero(on & counted, axis=1)
    n_off = np.count_nonzero(zero & counted, axis=1)
    out = times(n_on, math.log(p) if p > 0 else -math.inf) + times(
        n_off, math.log1p(-p) if p < 1 else -math.inf
    )
    return np.where(np.all(on | (zero & state.droppable), axis=1), out, -np.inf)


def log_density(state: FamilyState, theta: np.ndarray):
    """log q(theta); scalar for a single point, vector for stacked rows.

    Atomic families return the atom's log-weight (0 for MAP's own point
    estimate) and minus infinity off-atom.
    """
    theta = np.asarray(theta, dtype=np.float64)
    single = theta.ndim == 1
    rows = theta[None, :] if single else theta
    if isinstance(state, ATOMIC_STATES):
        out = _atom_log_weight(state, rows)
    else:
        out = log_q_rows(state, _walk(state, lambda _, value: value), rows)
    out = np.asarray(out, dtype=np.float64)
    return float(out[0]) if single else out


def entropy_closed_form(state: FamilyState) -> float | None:
    """½ log det(2πe Σ) for Gaussian families; None where no closed form exists."""
    if isinstance(state, GAUSSIAN_STATES):
        return 0.5 * (state.dim * (LOG_TWO_PI + 1.0) + woodbury_logdet(state.cov()))
    return None


def dense_moments(state: FamilyState) -> tuple:
    """Mean and dense covariance of a Gaussian family (diagnostic view)."""
    return state.mu.copy(), state.cov().dense()


# ---------------------------------------------------------------------------
# Dropout enumeration


@dataclass
class DropoutMixture:
    """Exact enumeration of the dropout posterior's point masses."""

    weights: np.ndarray  # (2^{P_d},)
    atoms: np.ndarray  # (2^{P_d}, P) parameter vectors theta_hat ⊙ z

    @property
    def n_atoms(self) -> int:
        return self.weights.size


def enumerate_dropout(state: DropoutState) -> DropoutMixture:
    """All 2^{P_d} dropout states with exact weights p^{Σz}(1−p)^{Σ(1−z)}."""
    pd = state.n_droppable
    if pd > DROPOUT_ENUMERATION_LIMIT:
        raise ValueError(
            f"{pd} droppable coordinates exceed the enumeration guard "
            f"({DROPOUT_ENUMERATION_LIMIT})"
        )
    n = 1 << pd
    ints = np.arange(n, dtype=np.uint32)
    bits = ((ints[:, None] >> np.arange(pd, dtype=np.uint32)) & 1).astype(np.float64)
    ones = bits.sum(axis=1)
    weights = state.keep_prob**ones * (1.0 - state.keep_prob) ** (pd - ones)
    atoms = np.tile(state.theta_hat, (n, 1))
    index = np.flatnonzero(state.droppable)
    atoms[:, index] = state.theta_hat[index] * bits
    return DropoutMixture(weights=weights, atoms=atoms)


# ---------------------------------------------------------------------------
# Serialization


def state_to_json(state: FamilyState) -> str:
    doc: dict = {"family": state.tag, "p": state.dim}
    if hasattr(state, "rank"):
        doc["rank"] = state.rank
    doc.update(_walk(state, lambda _, value: value.ravel().tolist()))
    if isinstance(state, DropoutState):
        doc["keep_prob"] = state.keep_prob
        doc["droppable"] = state.droppable.astype(int).tolist()
    return json.dumps(doc)


def _fields_from_doc(cls, doc: dict, p: int, rank) -> dict:
    fields = {}
    for name in cls.TRAINED:
        if name == "components":
            fields[name] = tuple(
                StructuredNormalState(**_fields_from_doc(StructuredNormalState, c, p, rank))
                for c in doc[name]
            )
        else:
            value = np.asarray(doc[name], dtype=np.float64)
            fields[name] = value.reshape(p, rank) if name == "u" else value
    return fields


def state_from_json(text: str) -> FamilyState:
    doc = json.loads(text)
    cls = FAMILIES.get(doc["family"])
    if cls is None:
        raise ValueError(f"unknown family tag {doc['family']!r}")
    fields = _fields_from_doc(cls, doc, doc["p"], doc.get("rank"))
    if cls is DropoutState:
        fields.update(keep_prob=float(doc["keep_prob"]), droppable=doc["droppable"])
    return cls(**fields)
