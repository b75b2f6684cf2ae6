"""Variational families and their sampling modes.

Five families share one contract: initialization from a model shape,
reparametrized sampling (naive / paired / unscented), log-density
evaluation, closed-form entropy where it exists, and a flat-vector
parameter layout that the trainer differentiates through.

MAP and MC dropout are atomic: their log-density is defined only on their
atoms and is minus infinity anywhere else.  The dropout posterior over the
droppable coordinates is a mixture of 2^{P_d} point masses which
``enumerate_dropout`` materializes exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import autodiff as ad
from .lowrank import (
    LOG_TWO_PI,
    StructuredCov,
    gaussian_draw_rows,
    gaussian_draws_logq_vjp,
    lowrank_logpdf,
    structured_logpdf,
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
    theta_hat: np.ndarray
    tag = "map"

    @property
    def dim(self) -> int:
        return self.theta_hat.shape[0]


@dataclass
class MeanFieldState:
    mu: np.ndarray
    log_sigma: np.ndarray
    tag = "mean_field"

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)


@dataclass
class StructuredNormalState:
    mu: np.ndarray
    log_a: np.ndarray
    u: np.ndarray
    tag = "structured_normal"

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

    def __post_init__(self):
        if not 0.0 <= self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in [0, 1]")

    @property
    def dim(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def n_droppable(self) -> int:
        return int(self.droppable.sum())


FamilyState = Union[MapState, MeanFieldState, StructuredNormalState, MixtureState, DropoutState]

ATOMIC_TAGS = ("map", "mc_dropout")


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


def param_slices(state: FamilyState) -> dict:
    """Named slices of the flat psi vector, in pack order."""
    p = state.dim
    if isinstance(state, MapState):
        return {"theta_hat": slice(0, p)}
    if isinstance(state, MeanFieldState):
        return {"mu": slice(0, p), "log_sigma": slice(p, 2 * p)}
    if isinstance(state, StructuredNormalState):
        k = state.rank
        return {
            "mu": slice(0, p),
            "log_a": slice(p, 2 * p),
            "u": slice(2 * p, 2 * p + p * k),
        }
    if isinstance(state, MixtureState):
        out = {}
        offset = 0
        k = state.rank
        per = 2 * p + p * k
        for m in range(state.n_components):
            out[f"c{m}.mu"] = slice(offset, offset + p)
            out[f"c{m}.log_a"] = slice(offset + p, offset + 2 * p)
            out[f"c{m}.u"] = slice(offset + 2 * p, offset + per)
            offset += per
        out["weight_logits"] = slice(offset, offset + state.n_components)
        return out
    if isinstance(state, DropoutState):
        return {"theta_hat": slice(0, p)}
    raise TypeError(f"not a family state: {state!r}")


def pack(state: FamilyState) -> np.ndarray:
    if isinstance(state, MapState):
        return state.theta_hat.copy()
    if isinstance(state, MeanFieldState):
        return np.concatenate([state.mu, state.log_sigma])
    if isinstance(state, StructuredNormalState):
        return np.concatenate([state.mu, state.log_a, state.u.ravel()])
    if isinstance(state, MixtureState):
        parts = []
        for c in state.components:
            parts.extend([c.mu, c.log_a, c.u.ravel()])
        parts.append(state.weight_logits)
        return np.concatenate(parts)
    if isinstance(state, DropoutState):
        return state.theta_hat.copy()
    raise TypeError(f"not a family state: {state!r}")


def unpack(template: FamilyState, psi: np.ndarray) -> FamilyState:
    """Rebuild a state of the template's type from a flat vector."""
    psi = np.asarray(psi, dtype=np.float64)
    p = template.dim
    if isinstance(template, MapState):
        return MapState(theta_hat=psi.copy())
    if isinstance(template, MeanFieldState):
        return MeanFieldState(mu=psi[:p].copy(), log_sigma=psi[p:].copy())
    if isinstance(template, StructuredNormalState):
        k = template.rank
        return StructuredNormalState(
            mu=psi[:p].copy(),
            log_a=psi[p : 2 * p].copy(),
            u=psi[2 * p :].reshape(p, k).copy(),
        )
    if isinstance(template, MixtureState):
        k = template.rank
        per = 2 * p + p * k
        comps = []
        offset = 0
        for _ in range(template.n_components):
            comps.append(
                StructuredNormalState(
                    mu=psi[offset : offset + p].copy(),
                    log_a=psi[offset + p : offset + 2 * p].copy(),
                    u=psi[offset + 2 * p : offset + per].reshape(p, k).copy(),
                )
            )
            offset += per
        return MixtureState(
            components=tuple(comps), weight_logits=psi[offset:].copy()
        )
    if isinstance(template, DropoutState):
        return DropoutState(
            theta_hat=psi.copy(),
            keep_prob=template.keep_prob,
            droppable=template.droppable.copy(),
        )
    raise TypeError(f"not a family state: {template!r}")


def unpack_vars(template: FamilyState, psi):
    """Split a flat psi (Var or ndarray) into named family parameters.

    Used for graph construction; slicing and reshaping stay on the tape so
    gradients flow back into the flat vector.
    """
    slices = param_slices(template)
    p = template.dim
    if isinstance(template, (MapState, DropoutState)):
        return {"theta_hat": psi}
    if isinstance(template, MeanFieldState):
        return {"mu": psi[slices["mu"]], "log_sigma": psi[slices["log_sigma"]]}
    if isinstance(template, StructuredNormalState):
        k = template.rank
        return {
            "mu": psi[slices["mu"]],
            "log_a": psi[slices["log_a"]],
            "u": ad.reshape(psi[slices["u"]], (p, k)),
        }
    if isinstance(template, MixtureState):
        k = template.rank
        comps = []
        for m in range(template.n_components):
            comps.append(
                {
                    "mu": psi[slices[f"c{m}.mu"]],
                    "log_a": psi[slices[f"c{m}.log_a"]],
                    "u": ad.reshape(psi[slices[f"c{m}.u"]], (p, k)),
                }
            )
        return {"components": comps, "weight_logits": psi[slices["weight_logits"]]}
    raise TypeError(f"not a family state: {template!r}")


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

    @property
    def mode(self) -> str:
        return self.noise.mode


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


def _validate_mode(state: FamilyState, mode: str, count: int):
    if mode not in MODES:
        raise ModeFamilyError(f"unknown sampling mode {mode!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(state, (MapState, DropoutState)) and mode != "naive":
        raise ModeFamilyError(f"{state.tag} supports naive sampling only")
    if mode == "paired" and count % 2:
        raise ValueError("paired mode requires an even count")
    if mode == "unscented":
        if not isinstance(state, StructuredNormalState) or state.rank < 1:
            raise ModeFamilyError(
                "unscented mode requires a structured normal with rank >= 1"
            )
        if count % (2 * state.rank):
            raise ValueError(
                f"unscented count must be a multiple of 2K = {2 * state.rank}"
            )


def draw_noise(
    state: FamilyState,
    mode: str,
    count: int,
    rng: np.random.Generator,
    stratify_components: bool = False,
) -> NoiseBatch:
    _validate_mode(state, mode, count)
    p = state.dim
    if isinstance(state, MapState):
        return NoiseBatch(mode=mode, count=count)
    if isinstance(state, DropoutState):
        masks = np.ones((count, p))
        d = state.droppable
        masks[:, d] = (rng.random((count, state.n_droppable)) < state.keep_prob).astype(
            float
        )
        return NoiseBatch(mode=mode, count=count, masks=masks)

    k = state.rank if isinstance(state, (StructuredNormalState, MixtureState)) else 0
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


def draws_rows(template: FamilyState, params: dict, noise: NoiseBatch):
    """Realize the draws of a noise batch; differentiable in the parameters."""
    if isinstance(template, MapState):
        return ad.reshape(params["theta_hat"], (1, template.dim)) * np.ones(
            (noise.count, 1)
        )
    if isinstance(template, DropoutState):
        return params["theta_hat"] * noise.masks
    if isinstance(template, (MeanFieldState, StructuredNormalState)):
        scale, factor = _scale_and_factor(params)
        return gaussian_draw_rows(
            params["mu"], scale, factor, noise.z_diag, noise.z_lowrank
        )
    if isinstance(template, MixtureState):
        rows = None
        for m, comp in enumerate(params["components"]):
            sel = (noise.components == m).astype(float)[:, None]
            if not sel.any():
                continue
            scale, factor = _scale_and_factor(comp)
            comp_rows = gaussian_draw_rows(
                comp["mu"], scale, factor, noise.z_diag, noise.z_lowrank
            )
            term = comp_rows * sel
            rows = term if rows is None else rows + term
        return rows
    raise TypeError(f"not a family state: {template!r}")


def draws_logq_vjp(template: FamilyState, psi: np.ndarray, noise: NoiseBatch) -> tuple:
    """Closed-form counterpart of ``draws_rows`` + ``log_q_rows`` on a plain psi.

    Returns ``(theta, log_q, vjp)``: the draws, their sampled log q (None for
    the atomic families, whose log q is constant), and ``vjp(theta_bar,
    logq_bar)``, the adjoint back to the flat psi.  MAP and dropout draws
    are θ̂ ⊙ mask; mean field is the K = 0 structured normal.  Mixtures have
    no closed form here and stay on the tape.
    """
    if isinstance(template, MapState):
        theta = psi[None, :] * np.ones((noise.count, 1))
        return theta, None, lambda theta_bar, _: theta_bar.sum(axis=0)
    if isinstance(template, DropoutState):
        masks = noise.masks
        return psi * masks, None, lambda theta_bar, _: (theta_bar * masks).sum(axis=0)
    p = template.dim
    if isinstance(template, MeanFieldState):
        scale = np.exp(psi[p:])
        factor, dscale_dlog = None, scale  # scale = exp(log_sigma)
    elif isinstance(template, StructuredNormalState):
        scale = np.exp(0.5 * psi[p : 2 * p])
        factor, dscale_dlog = psi[2 * p :].reshape(p, template.rank), 0.5 * scale
    else:
        raise ModeFamilyError(f"{template.tag} has no closed-form ELBO gradient")
    theta, log_q, gauss_vjp = gaussian_draws_logq_vjp(
        psi[:p], scale, factor, noise.z_diag, noise.z_lowrank
    )

    def vjp(theta_bar, logq_bar):
        d_mean, d_scale, d_factor = gauss_vjp(theta_bar, logq_bar)
        parts = [d_mean, d_scale * dscale_dlog]
        if d_factor is not None:
            parts.append(d_factor.ravel())
        return np.concatenate(parts)

    return theta, log_q, vjp


def sample(
    state: FamilyState, mode: str, count: int, rng: np.random.Generator
) -> SampleBatch:
    """Draw a batch of parameter vectors with full noise records."""
    noise = draw_noise(state, mode, count, rng)
    if isinstance(state, MapState):
        draws = np.tile(state.theta_hat, (count, 1))
    else:
        draws = draws_rows(state, unpack_vars(state, pack(state)), noise)
    return SampleBatch(draws=np.asarray(draws), noise=noise)


# ---------------------------------------------------------------------------
# Densities and entropy


def log_q_rows(template: FamilyState, params: dict, theta):
    """Differentiable log q(theta) for continuous families, batched over rows."""
    if isinstance(template, (MeanFieldState, StructuredNormalState)):
        scale, factor = _scale_and_factor(params)
        a = scale * scale
        if factor is None:
            factor = np.zeros((template.dim, 0))
        return lowrank_logpdf(theta, params["mu"], a, factor)
    if isinstance(template, MixtureState):
        logits = params["weight_logits"]
        log_norm = ad.logsumexp(logits)
        per = []
        for m, comp in enumerate(params["components"]):
            scale, factor = _scale_and_factor(comp)
            per.append(
                (logits[m] - log_norm)
                + lowrank_logpdf(theta, comp["mu"], scale * scale, factor)
            )
        return ad.logsumexp(ad.stack(per, axis=0), axis=0)
    raise ModeFamilyError(f"{template.tag} has no continuous log-density")


def _dropout_atom_log_weight(state: DropoutState, theta_row: np.ndarray) -> float:
    p = state.keep_prob
    n_on = 0
    n_off = 0
    for i in range(state.dim):
        if not state.droppable[i]:
            if theta_row[i] != state.theta_hat[i]:
                return -math.inf
            continue
        if state.theta_hat[i] == 0.0:
            # Both mask values produce the same atom; their weights sum to 1.
            if theta_row[i] != 0.0:
                return -math.inf
            continue
        if theta_row[i] == state.theta_hat[i]:
            n_on += 1
        elif theta_row[i] == 0.0:
            n_off += 1
        else:
            return -math.inf
    out = 0.0
    if n_on:
        out += n_on * (math.log(p) if p > 0 else -math.inf)
    if n_off:
        out += n_off * (math.log1p(-p) if p < 1 else -math.inf)
    return out


def log_density(state: FamilyState, theta: np.ndarray):
    """log q(theta); scalar for a single point, vector for stacked rows.

    Atomic families return the atom's log-weight (0 for MAP's own point
    estimate) and minus infinity off-atom.
    """
    theta = np.asarray(theta, dtype=np.float64)
    single = theta.ndim == 1
    rows = theta[None, :] if single else theta
    if isinstance(state, MapState):
        out = np.where(
            np.all(rows == state.theta_hat, axis=1), 0.0, -np.inf
        )
    elif isinstance(state, DropoutState):
        out = np.array([_dropout_atom_log_weight(state, r) for r in rows])
    elif isinstance(state, MeanFieldState):
        out = structured_logpdf(
            rows, state.mu, StructuredCov.diagonal(state.sigma**2)
        )
    elif isinstance(state, StructuredNormalState):
        out = structured_logpdf(rows, state.mu, state.cov())
    elif isinstance(state, MixtureState):
        log_w = np.log(state.weights)
        per = np.stack(
            [
                log_w[m] + structured_logpdf(rows, c.mu, c.cov())
                for m, c in enumerate(state.components)
            ]
        )
        out = ad.logsumexp(per, axis=0)
    else:
        raise TypeError(f"not a family state: {state!r}")
    out = np.asarray(out, dtype=np.float64)
    return float(out[0]) if single else out


def entropy_closed_form(state: FamilyState) -> float | None:
    """½ log det(2πe Σ) for Gaussian families; None where no closed form exists."""
    if isinstance(state, MeanFieldState):
        return 0.5 * state.dim * (LOG_TWO_PI + 1.0) + float(np.sum(state.log_sigma))
    if isinstance(state, StructuredNormalState):
        from .lowrank import woodbury_logdet

        return 0.5 * (state.dim * (LOG_TWO_PI + 1.0) + woodbury_logdet(state.cov()))
    return None


def dense_moments(state: FamilyState) -> tuple:
    """Mean and dense covariance of a Gaussian family (diagnostic view)."""
    if isinstance(state, MeanFieldState):
        return state.mu.copy(), np.diag(state.sigma**2)
    if isinstance(state, StructuredNormalState):
        return state.mu.copy(), state.cov().dense()
    raise TypeError(f"{state.tag} has no single Gaussian moment pair")


# ---------------------------------------------------------------------------
# Dropout enumeration


@dataclass
class DropoutMixture:
    """Exact enumeration of the dropout posterior's point masses."""

    states: np.ndarray  # (2^{P_d}, P_d) mask bits over droppable coordinates
    weights: np.ndarray  # (2^{P_d},)
    atoms: np.ndarray  # (2^{P_d}, P) parameter vectors theta_hat ⊙ z
    droppable_index: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.states.shape[0]


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
    droppable_index = np.flatnonzero(state.droppable)
    atoms[:, droppable_index] = state.theta_hat[droppable_index] * bits
    return DropoutMixture(
        states=bits.astype(np.uint8),
        weights=weights,
        atoms=atoms,
        droppable_index=droppable_index,
    )


# ---------------------------------------------------------------------------
# Serialization


def state_to_json(state: FamilyState) -> str:
    doc: dict = {"family": state.tag, "p": state.dim}
    if isinstance(state, MapState):
        doc["theta_hat"] = state.theta_hat.tolist()
    elif isinstance(state, MeanFieldState):
        doc["mu"] = state.mu.tolist()
        doc["log_sigma"] = state.log_sigma.tolist()
    elif isinstance(state, StructuredNormalState):
        doc["mu"] = state.mu.tolist()
        doc["log_a"] = state.log_a.tolist()
        doc["rank"] = state.rank
        doc["u"] = state.u.ravel().tolist()
    elif isinstance(state, MixtureState):
        doc["rank"] = state.rank
        doc["weight_logits"] = state.weight_logits.tolist()
        doc["components"] = [
            {
                "mu": c.mu.tolist(),
                "log_a": c.log_a.tolist(),
                "u": c.u.ravel().tolist(),
            }
            for c in state.components
        ]
    elif isinstance(state, DropoutState):
        doc["theta_hat"] = state.theta_hat.tolist()
        doc["keep_prob"] = state.keep_prob
        doc["droppable"] = state.droppable.astype(int).tolist()
    else:
        raise TypeError(f"not a family state: {state!r}")
    return json.dumps(doc)


def state_from_json(text: str) -> FamilyState:
    doc = json.loads(text)
    tag = doc["family"]
    p = doc["p"]
    arr = lambda key: np.asarray(doc[key], dtype=np.float64)
    if tag == "map":
        return MapState(theta_hat=arr("theta_hat"))
    if tag == "mean_field":
        return MeanFieldState(mu=arr("mu"), log_sigma=arr("log_sigma"))
    if tag == "structured_normal":
        return StructuredNormalState(
            mu=arr("mu"), log_a=arr("log_a"), u=arr("u").reshape(p, doc["rank"])
        )
    if tag == "mixture":
        comps = tuple(
            StructuredNormalState(
                mu=np.asarray(c["mu"], dtype=np.float64),
                log_a=np.asarray(c["log_a"], dtype=np.float64),
                u=np.asarray(c["u"], dtype=np.float64).reshape(p, doc["rank"]),
            )
            for c in doc["components"]
        )
        return MixtureState(components=comps, weight_logits=arr("weight_logits"))
    if tag == "mc_dropout":
        return DropoutState(
            theta_hat=arr("theta_hat"),
            keep_prob=float(doc["keep_prob"]),
            droppable=np.asarray(doc["droppable"], dtype=bool),
        )
    raise ValueError(f"unknown family tag {tag!r}")
