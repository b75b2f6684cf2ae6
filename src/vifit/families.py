"""Variational families and their sampling modes.

Five families share one contract: initialization from a parameter count,
reparametrized sampling (naive / paired / unscented), log-density
evaluation and a flat-vector parameter layout.  There is one Gaussian
family, the structured normal N(mu, diag(a) + U Uᵀ), whose scale trains as
log a; mean field (mf) is its K = 0 member, with a (P, 0) U, under its own
tag.  Each family has one implementation of what training needs,
``draws_logq_vjp``: its draws, their sampled log q and, for a stratified
sGMM batch, their coefficients, with the closed-form adjoint of all three
back to psi.  Every Gaussian is a slice of its one Gaussian path: a
structured normal alone, the members of a training stack, and an sGMM's
components, alone or stacked behind mf and sN members; the mixture's own
work (log-sum-exp, responsibilities, coefficients, the logits' adjoint)
runs on its slices only.  It realizes every batch of q's draws, not only training's:
``sample`` realizes a whole batch with it, and ``sample_blocks`` each
block of the Monte-Carlo audits' draws, with that block's log q.

Layout rule: each state class lists its trained arrays in pack order in
``TRAINED``, and the flat vector psi is those arrays raveled and
concatenated.  An sGMM stores its M components stacked, as the log-q
kernel reads them: mu and log_a (M, P), u (M, P, K), then its (M,)
``weight_logits``.  ``_trained`` reads that declaration for
``param_slices``, ``pack``, ``unpack``, ``param_views`` and
``state_to_json_dict``.  Fields outside ``TRAINED`` (dropout's
``keep_prob`` and ``droppable``) are carried over from the template.

MAP and MC dropout are atomic: their log-density is defined only on their
atoms and is minus infinity anywhere else.  MAP is MC dropout at keep
probability 1 with nothing droppable, so both share one atomic path:
θ̂ ⊙ mask draws, mask noise and atom weights.  The dropout posterior over the
droppable coordinates is a mixture of 2^{P_d} point masses:
``enumerate_dropout`` checks P_d and returns them implicitly, and
``DropoutMixture.blocks`` streams their exact weights and their images in
the space a caller reads (predictions at a few inputs), at most
``BLOCK_ROWS`` atoms at a time, never building a 2^{P_d}-row array.  A
block's elementwise arithmetic with a (D,) row runs on its wide view
(``wide_view``), ``WIDE_ROWS`` atoms per inner loop, and its weights are
one of a few vectors built once, by the block's number of kept
coordinates outside the base block.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union, get_args

import numpy as np

from . import autodiff as ad
from .lowrank import gaussian_draw_rows, lowrank_logpdf, lowrank_logpdf_and_vjp

MODES = ("naive", "paired", "unscented")

DROPOUT_ENUMERATION_LIMIT = 24

# Rows per block where a batch of draws is realized or audited a block at a
# time: each (BLOCK_ROWS, P) float64 temporary holds 64 KB per coordinate.
BLOCK_ROWS = 8192

# Atoms per inner loop where a block of dropout atoms meets one (D,) row.
# numpy cannot merge the axes of a broadcast operand, so (n, D) + (D,)
# makes n inner-loop calls of length D; the same add on the block's
# (n / w, w·D) view against the row tiled w times makes n / w.
WIDE_ROWS = 64


class ModeFamilyError(ValueError):
    """Requested sampling mode is not defined for the family."""


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

    @property
    def a_diag(self) -> np.ndarray:
        """The covariance's diagonal part A, beside U Uᵀ."""
        return np.exp(self.log_a)


# Mean field is the rank-0 structured normal, under its own tag.
class MeanFieldState(StructuredNormalState):
    tag = "mean_field"


@dataclass
class MixtureState:
    """M structured normals, stacked on a leading axis, and their weight logits."""

    mu: np.ndarray  # (M, P)
    log_a: np.ndarray  # (M, P)
    u: np.ndarray  # (M, P, K)
    weight_logits: np.ndarray  # (M,)
    tag = "mixture"
    TRAINED = ("mu", "log_a", "u", "weight_logits")

    @property
    def dim(self) -> int:
        return self.mu.shape[1]

    @property
    def n_components(self) -> int:
        return self.mu.shape[0]

    @property
    def rank(self) -> int:
        return self.u.shape[2]

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


def init_family(
    tag: str,
    p: int,
    rng: np.random.Generator,
    rank: int = 0,
    components: int = 2,
    keep_prob: float = 0.5,
    mixture_spread: float = 1.0,
) -> FamilyState:
    """Initialize a family over p parameters with the fan-in heuristics.

    Every coordinate has fan-in p: means are uniform in ±1/√p, scales start
    at 0.05/√p, low-rank columns at N(0, (0.01/√p)²).  Mixture components
    are perturbed copies of one common init; dropout takes its keep
    probability from the caller and may drop every coordinate.
    """
    bound = 1.0 / np.sqrt(np.full(p, p, dtype=float))

    def draw_mean():
        return rng.uniform(-bound, bound)

    if tag == "map":
        return MapState(theta_hat=draw_mean())
    if tag in ("mean_field", "structured_normal"):
        k = rank if tag == "structured_normal" else 0
        u = rng.standard_normal((p, k)) * (0.01 * bound)[:, None]
        return FAMILIES[tag](mu=draw_mean(), log_a=2.0 * np.log(0.05 * bound), u=u)
    if tag == "mixture":
        common = draw_mean()
        mu, u = [], []
        for _ in range(components):
            u.append(rng.standard_normal((p, rank)) * (0.01 * bound)[:, None])
            mu.append(common + mixture_spread * bound * rng.standard_normal(p))
        return MixtureState(
            mu=np.array(mu),
            log_a=np.tile(2.0 * np.log(0.05 * bound), (components, 1)),
            u=np.array(u),
            weight_logits=np.zeros(components),
        )
    if tag == "mc_dropout":
        return DropoutState(
            theta_hat=draw_mean(),
            keep_prob=keep_prob,
            droppable=np.ones(p, bool),
        )
    raise ValueError(f"unknown family tag {tag!r}")


# ---------------------------------------------------------------------------
# Flat parameter layout


def _trained(state: FamilyState) -> dict:
    """``{name: array}`` over the trained arrays, in pack order."""
    return {name: getattr(state, name) for name in state.TRAINED}


def param_slices(state: FamilyState) -> dict:
    """Named slices of the flat psi vector, in pack order."""
    out, offset = {}, 0
    for name, value in _trained(state).items():
        out[name] = slice(offset, offset + value.size)
        offset += value.size
    return out


def nonfinite_blocks(state: FamilyState, vector: np.ndarray) -> list:
    """Names of the ``param_slices`` blocks where a psi-shaped vector is not finite."""
    return [name for name, sl in param_slices(state).items() if not np.isfinite(vector[sl]).all()]


def pack(state: FamilyState) -> np.ndarray:
    return np.concatenate([value.ravel() for value in _trained(state).values()])


def unpack(template: FamilyState, psi: np.ndarray) -> FamilyState:
    """Rebuild a state of the template's type from a flat vector."""
    views = param_views(template, np.asarray(psi, dtype=np.float64))
    return dataclasses.replace(template, **{name: v.copy() for name, v in views.items()})


def param_views(template: FamilyState, psi: np.ndarray) -> dict:
    """The trained arrays of ``template`` as views into a plain flat ``psi``.

    Resolved once from ``param_slices``, as ``{name: array}``.  A caller
    that updates psi in place (the trainer) builds them once per member and
    reads each step's parameters through them.
    """
    slices = param_slices(template)
    return {name: psi[slices[name]].reshape(v.shape) for name, v in _trained(template).items()}


# ---------------------------------------------------------------------------
# Sampling


@dataclass
class NoiseBatch:
    """Per-draw noise record; enough to rebuild every draw differentiably.

    ``stratified`` marks mixture batches whose component indices were
    allocated evenly rather than drawn from the weights; such batches must
    be averaged with explicit mixture-weight coefficients.
    """

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


def haar_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed k×k orthogonal matrix: the Q of a standard normal
    matrix's QR, its columns' signs fixed so that R's diagonal is positive."""
    m = rng.standard_normal((k, k))
    q, r = np.linalg.qr(m)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def _antithetic(base: np.ndarray) -> np.ndarray:
    """(n, 2h, w) rows: each of base's (n, h, w) rows followed by its negation."""
    n, half, width = base.shape
    out = np.empty((n, 2 * half, width))
    out[:, 0::2] = base
    out[:, 1::2] = -base
    return out


def check_mode(tag: str, mode: str, rank: int = 0):
    """Raise ModeFamilyError unless the family ``tag`` can sample in ``mode``."""
    if mode not in MODES:
        raise ModeFamilyError(f"unknown sampling mode {mode!r}")
    if tag in ATOMIC_TAGS and mode != "naive":
        raise ModeFamilyError(f"{tag} supports naive sampling only")
    if mode == "unscented" and (tag != "structured_normal" or rank < 1):
        raise ModeFamilyError("unscented mode requires a structured normal with rank >= 1")


def _validate_mode(state: FamilyState, mode: str, count: int) -> int:
    """Check ``count`` draws in ``mode``; returns the state's rank, 0 if it has none."""
    rank = getattr(state, "rank", 0)
    check_mode(state.tag, mode, rank)
    if count < 1:
        raise ValueError("count must be >= 1")
    if mode == "paired" and count % 2:
        raise ValueError("paired mode requires an even count")
    if mode == "unscented" and count % (2 * rank):
        raise ValueError(f"unscented count must be a multiple of 2K = {2 * rank}")
    return rank


def draw_noise(
    state: FamilyState,
    mode: str,
    count: int,
    rng: np.random.Generator,
    stratify_components: bool = False,
) -> NoiseBatch:
    """Noise for ``count`` draws from ``state``: boolean dropout masks, or
    each draw's z_diag and z_lowrank (in paired mode the halves that are
    then mirrored), taken from ``rng`` in that order.  A mixture's
    components are drawn from its weights before the normals, or with
    ``stratify_components`` allocated evenly without taking anything from
    ``rng``; MAP takes nothing.  Training draws the same numbers for many
    steps at once through ``fill_noise``, and the Monte-Carlo audits a block
    of rows at a time through ``sample_blocks``.
    """
    k = _validate_mode(state, mode, count)
    if isinstance(state, ATOMIC_STATES):
        return NoiseBatch(count, masks=_masks(state, (count,), rng))
    comp, stratified = None, stratify_components and isinstance(state, MixtureState)
    if stratified:
        comp = _stratified_components(state.n_components, mode, count)
    elif isinstance(state, MixtureState) and mode == "naive":
        comp = rng.choice(state.n_components, size=count, p=state.weights)
    elif isinstance(state, MixtureState):  # paired twins share a component
        comp = np.repeat(rng.choice(state.n_components, size=count // 2, p=state.weights), 2)
    (z_diag,), (z_lowrank,) = gaussian_noise(rng, mode, 1, count, state.dim, k)
    return NoiseBatch(count, z_diag, z_lowrank, comp, stratified=stratified)


def noise_chunk(states: list, mode: str, count: int, steps: int) -> tuple:
    """``(chunk, batches)``: buffers for ``steps`` training steps of a
    group's noise, ``count`` draws a member a step, and one NoiseBatch view
    of each step, built once.

    The group is one member, or a stack of structured normals and at most
    one sGMM, last (``trainer.train_stack``).  ``chunk`` is a NoiseBatch
    whose arrays are (steps, G, count, ·): float64 masks for the atomic
    families, else z_diag and z_lowrank, the latter with the group's
    largest rank K columns, zero beyond a member's own rank.  A structured
    normal takes one of the G slots and a stacked sGMM one for each of its
    C components, each holding its noise.  A view drops the slot axis of a
    group of one.  An sGMM's components are allocated evenly, as training
    draws them.  Every member's mode and count are checked as
    ``draw_noise`` checks them; ``fill_noise`` draws the numbers.
    """
    for state in states:
        _validate_mode(state, mode, count)
    state, m = states[0], len(states)
    if isinstance(state, ATOMIC_STATES):
        chunk = NoiseBatch(count, masks=np.empty((steps, m, count, state.dim)))
        masks = chunk.masks if m > 1 else chunk.masks[:, 0]
        return chunk, [NoiseBatch(count, masks=step) for step in masks]
    comp, slots, last = None, m, states[-1]
    if isinstance(last, MixtureState):
        comp = _stratified_components(last.n_components, mode, count)
        if m > 1:  # a stacked sGMM takes one slot a component
            slots += last.n_components - 1
    shape = (steps, slots, count, state.dim)
    k = max(member.rank for member in states)
    z_diag, z_lowrank = np.empty(shape), np.zeros((*shape[:-1], k))
    chunk = NoiseBatch(count, z_diag, z_lowrank, comp, stratified=comp is not None)
    if m == 1:
        z_diag, z_lowrank = z_diag[:, 0], z_lowrank[:, 0]
    batches = [
        NoiseBatch(count, zd, zl, comp, stratified=chunk.stratified)
        for zd, zl in zip(z_diag, z_lowrank)
    ]
    return chunk, batches


def fill_noise(chunk: NoiseBatch, states: list, mode: str, rngs: list, steps: int):
    """Draw the first ``steps`` steps of a ``noise_chunk`` in place, member
    j's from ``rngs[j]`` into its slots: the numbers of ``steps``
    consecutive ``draw_noise`` calls (components stratified), generator
    state afterwards included, from one ``_masks`` or ``gaussian_noise``
    call a member.  numpy's Generator yields the same stream from one call
    as from consecutive calls, and an unscented run's groups of 2K rows run
    on across steps."""
    lo = 0
    for j, (state, rng) in enumerate(zip(states, rngs)):
        if chunk.masks is not None:
            chunk.masks[:steps, j] = _masks(state, (steps, chunk.count), rng)
            continue
        # The sGMM, last, fills the slots that are left: one a component.
        hi = chunk.z_diag.shape[1] if state.tag == MixtureState.tag else lo + 1
        z_diag, z_lowrank = gaussian_noise(rng, mode, steps, chunk.count, state.dim, state.rank)
        chunk.z_diag[:steps, lo:hi] = z_diag[:, None]
        chunk.z_lowrank[:steps, lo:hi, :, : state.rank] = z_lowrank[:, None]
        lo = hi


def _masks(state: FamilyState, shape: tuple, rng) -> np.ndarray:
    """Boolean masks of shape (*shape, P) from one ``random`` call: each droppable
    coordinate kept with probability keep_prob, the rest always.  MAP has
    nothing droppable and leaves the generator alone."""
    masks = np.ones((*shape, state.dim), dtype=bool)
    d = state.droppable
    if d.any():
        masks[..., d] = rng.random((*shape, np.count_nonzero(d))) < state.keep_prob
    return masks


def gaussian_noise(rng, mode: str, n: int, count: int, p: int, k: int) -> tuple:
    """(z_diag, z_lowrank) of shapes (n, count, p) and (n, count, k), taken
    from ``rng`` as n batches drawn one after another take them."""
    if mode == "unscented":  # its groups of 2K rows run on across batches
        z_diag, z_lowrank = _unscented(rng, n * count, p, k)
        return z_diag.reshape(n, count, p), z_lowrank.reshape(n, count, k)
    rows = count // 2 if mode == "paired" else count
    z = rng.standard_normal((n, rows * (p + k)))
    z_diag = z[:, : rows * p].reshape(n, rows, p)
    z_lowrank = z[:, rows * p :].reshape(n, rows, k)
    if mode == "paired":
        return _antithetic(z_diag), _antithetic(z_lowrank)
    return z_diag, z_lowrank


def _unscented(rng, count: int, p: int, k: int) -> tuple:
    """Groups of 2K rows: ±√K times the columns of a Haar orthogonal matrix
    in z_lowrank, each beside a mirrored pair of standard normals in z_diag."""
    z_diag = np.empty((count, p))
    z_lowrank = np.empty((count, k))
    scale = math.sqrt(k)
    for g in range(count // (2 * k)):
        q = haar_orthogonal(k, rng)
        for j in range(k):
            row = g * 2 * k + 2 * j
            z_lowrank[row] = scale * q[:, j]
            z_lowrank[row + 1] = -z_lowrank[row]
            z_diag[row] = rng.standard_normal(p)
            z_diag[row + 1] = -z_diag[row]
    return z_diag, z_lowrank


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
    """Per-coordinate std exp(½ log a) and low-rank factor from ``_trained``
    parameters, (G, ·) stacked for an sGMM or a training stack."""
    return np.exp(0.5 * params["log_a"]), params["u"]


def _chain_draw(scale, draw_bar, mean_bar, d_a, d_factor, z_diag, z_lowrank):
    """The adjoints of one Gaussian's mu, log_a and U (flattened), or of G
    slices' as (G, ·) arrays.

    ``draw_bar`` is the adjoint of the rows drawn from it (noise ``z_diag``,
    ``z_lowrank``); ``mean_bar``, ``d_a`` and ``d_factor`` come through its
    log-density.  scale = exp(½ log_a), and a = scale².  For an sGMM's C
    component slices ``draw_bar`` is (C, S, P), zero at the rows drawn from
    other components: a zero adds nothing to a sum, so each row of the
    result is what that component's own rows alone give.  At K = 0 (mean
    field) the kernel gives no ``d_factor`` and U's block is empty.
    """
    d_scale = np.add.reduce(draw_bar * z_diag, axis=-2) + 2.0 * scale * d_a
    parts = [mean_bar, d_scale * (0.5 * scale)]
    if d_factor is not None:
        parts.append((draw_bar.mT @ z_lowrank + d_factor).reshape(*mean_bar.shape[:-1], -1))
    return parts


def draws_logq_vjp(template: FamilyState, params: dict, noise: NoiseBatch) -> tuple:
    """Draws, sampled log q and coefficients of a noise batch, with their
    adjoint, at ``params = param_views(template, psi)``.

    Returns ``(theta, log_q, coeff, vjp)``: the draws, their sampled log q
    (None for the atomic families, whose log q is constant), the per-draw
    averaging coefficients (None unless the batch is stratified), and
    ``vjp(theta_bar, logq_bar, coeff_bar)``, the adjoint back to the flat
    psi.  Atomic draws are θ̂ ⊙ mask, the same bits for boolean masks
    (``draw_noise``) and float64 ones (``noise_chunk``).

    Every Gaussian is a slice of one path: its draws go through
    ``gaussian_draw_rows`` and log q through ``lowrank_logpdf_and_vjp``,
    whose adjoint this chains through the draw.  Stacked parameters, (G, P)
    means and scales and a (G, P, K) U, are G slices drawn from (G, S, ·)
    noise, or from one (S, ·) noise broadcast, and the adjoint is laid out
    as psi: each trained array over the G slices, flat.  A stack of M > 1
    structured normals (``trainer._train_group``) has one slice a member;
    the trainer hands the target its (M, S, P) draws as M·S rows.

    A mixture's C components are the last C slices, behind the M ≥ 0
    members it is stacked with, and its weight logits the last C entries
    of psi.  Row k takes the draw of its own component c_k, and every
    component is evaluated at those S rows; log q = logsumexp_m(log w_m +
    log N_m), so each component's adjoint is log q's weighted by its
    responsibilities, and the adjoint of row k's draw goes to component c_k
    alone, as (C, S, P) rows that are zero at the other components' rows
    (see ``_chain_draw``).  Alone, its draws, log q and coefficients are
    (S, ·), and the (C, S, P) stack of every component's draw at every row
    is freed before the kernel's temporaries are made.  Stacked, they are
    row M of (M + 1, S, ·), and the members' coefficients are 1.  The logits get gradient through log w_m and, when
    stratified, through the coefficients C·w_m (Morningstar et al.,
    AISTATS 2021): with components allocated evenly instead of drawn from
    the weights, each draw carries C·w_m so the average stays an unbiased
    estimate of the mixture expectation, and the weights stay trainable.
    A lone sGMM's draws and adjoint carry the bits of evaluating each
    component on its own rows, except in the last bits where that
    evaluation is a BLAS matrix-vector product (a component's lone row, or
    K = 1) or, at P = 1, a pairwise sum.
    """
    if template.tag in ATOMIC_TAGS:
        theta_hat, masks = params["theta_hat"], noise.masks
        return theta_hat * masks, None, None, lambda bar, *_: np.add.reduce(bar * masks, axis=0)
    scale, factor = _scale_and_factor(params)
    mean = params["mu"]
    theta = gaussian_draw_rows(
        mean[..., None, :], scale[..., None, :], factor, noise.z_diag, noise.z_lowrank
    )
    draws, mixture = theta, template.tag == MixtureState.tag
    if mixture:
        logits, comp = params["weight_logits"], noise.components
        c = logits.shape[0]
        lo = mean.shape[0] - c  # the sGMM's first slice: 0 alone, M in a stack
        draws = theta[lo + comp, np.arange(noise.count)]
        if lo:  # every component at the sGMM's rows, behind the members' own
            theta[lo:] = draws
            draws = theta[: lo + 1]
        else:
            theta = draws
    log_q, logq_vjp = lowrank_logpdf_and_vjp(theta, mean, scale * scale, factor)
    coeff = None
    if mixture:
        log_w = logits - ad.logsumexp(logits)
        weights = np.exp(log_w)
        per = log_w[:, None] + log_q[lo:]
        mixed = ad.logsumexp(per, axis=0)
        resp = np.exp(per - mixed)
        if noise.stratified:
            coeff = c * weights[comp]
        if lo:
            log_q = log_q[: lo + 1]
            log_q[lo] = mixed
            rows_coeff = np.ones(log_q.shape)
            if coeff is not None:
                rows_coeff[lo] = coeff
            coeff = rows_coeff
        else:
            log_q = mixed

    def vjp(theta_bar, logq_bar, coeff_bar):
        if not mixture:
            d_theta, d_a, d_factor = logq_vjp(logq_bar)
            # log q sees the mean only through θ − mean: its adjoint is Σ_k θ̄_k.
            parts = _chain_draw(
                scale, theta_bar + d_theta, np.add.reduce(theta_bar, axis=-2), d_a, d_factor,
                noise.z_diag, noise.z_lowrank,
            )
            return np.concatenate(parts, axis=None)
        at = (lo,) if lo else ()  # the sGMM's row of a stack's adjoints; alone, all of them
        per_bar = resp * logq_bar[at]  # adjoint of log w_m + log N_m(θ_k)
        d_theta, d_a, d_factor = logq_vjp(
            np.concatenate((logq_bar[:lo], per_bar)) if lo else per_bar
        )
        mix_theta = d_theta[lo:]
        via = theta_bar[at] + np.add.reduce(mix_theta, axis=0)  # of every θ_k
        own = comp == np.arange(c)[:, None]  # (C, S)
        draw_bar = np.where(own[..., None], via, 0.0)
        # Component m's own draws move with its mean; its log N_m sees the
        # mean through θ − mean at every row.
        mean_bar = np.add.reduce(draw_bar, axis=1) - np.add.reduce(mix_theta, axis=1)
        if lo:  # the members' slices, as a stack of structured normals has them
            draw_bar = np.concatenate((theta_bar[:lo] + d_theta[:lo], draw_bar))
            mean_bar = np.concatenate((np.add.reduce(theta_bar[:lo], axis=-2), mean_bar))
        parts = _chain_draw(
            scale, draw_bar, mean_bar, d_a, d_factor, noise.z_diag, noise.z_lowrank
        )
        log_w_bar = np.add.reduce(per_bar, axis=1)
        if noise.stratified:  # coeff_k = C w_{c_k}
            log_w_bar += weights * np.bincount(comp, coeff_bar[at] * c, minlength=c)
        logits_bar = log_w_bar - weights * np.add.reduce(log_w_bar)  # through log-softmax
        return np.concatenate((*parts, logits_bar), axis=None)  # each part raveled

    return draws, log_q, coeff, vjp


def row_blocks(n: int) -> list:
    """Slices covering ``range(n)`` in order, ``BLOCK_ROWS`` rows each but the last.

    numpy hands a one-row matrix product to BLAS gemv, whose last bits can
    differ from the row's in a longer (gemm) product, so a block holds one
    row only when the whole batch does: a remainder of one row joins the
    block before it.  A mixture target that splits a block by component
    (``oracle.GaussianMixtureDist.sample_blocks``) draws a component's lone
    row as a pair of copies for the same reason.
    """
    stops = [*range(BLOCK_ROWS, n - 1, BLOCK_ROWS), n]
    return [slice(a, b) for a, b in zip([0, *stops], stops) if b > a]


def gather_blocks(blocks, n: int, dim: int) -> np.ndarray:
    """The (n, dim) array that ``(rows, draws)`` blocks scatter into."""
    out = np.empty((n, dim))
    for rows, draws in blocks:
        out[rows] = draws
    return out


def sample_blocks(state: FamilyState, rng: np.random.Generator, n: int):
    """Yield ``(rows, draws, log_q)`` over ``row_blocks(n)``: ``sample(state,
    "naive", n, rng)``'s draws and their log q, each block's noise drawn
    just before ``draws_logq_vjp`` realizes it.

    ``rng`` gives what ``draw_noise(state, "naive", n, rng)`` takes, in the
    same order, and is left in the same state.  The dropout masks'
    uniforms and the z_diag of mf, the rank-0 sN, are drawn a block at a
    time.  An sN or sGMM of rank K ≥ 1 draws its component ids and z_diag
    whole, since the stream puts them before z_lowrank and numpy's normals
    take a varying count of raw outputs, so the generator cannot skip to
    z_lowrank; only z_lowrank is drawn a block at a time.  ``log_q`` is
    None for the atomic families.  No block's adjoint is kept, so a caller
    holds one block of the kernel's temporaries at a time.
    """
    p, k = state.dim, _validate_mode(state, "naive", n)
    params = _trained(state)
    comp = None
    if isinstance(state, MixtureState):
        comp = rng.choice(state.n_components, size=n, p=state.weights)
    z_diag = rng.standard_normal((n, p)) if k else None
    for block in row_blocks(n):
        count = block.stop - block.start
        if isinstance(state, ATOMIC_STATES):
            noise = NoiseBatch(count, masks=_masks(state, (count,), rng))
        else:
            noise = NoiseBatch(
                count,
                rng.standard_normal((count, p)) if z_diag is None else z_diag[block],
                rng.standard_normal((count, k)),
                None if comp is None else comp[block],
            )
        yield block, *draws_logq_vjp(state, params, noise)[:2]


def sample(
    state: FamilyState, mode: str, count: int, rng: np.random.Generator
) -> SampleBatch:
    """Draw a batch of parameter vectors with full noise records.

    The noise is drawn whole (``draw_noise``), count·(P + K) numbers, and
    realized by ``draws_logq_vjp``, the draw that trains, into one
    (count, P) array.  The Monte-Carlo audits, which need neither the noise
    nor the array, stream the same naive draws through ``sample_blocks``
    instead.
    """
    noise = draw_noise(state, mode, count, rng)
    draws = draws_logq_vjp(state, _trained(state), noise)[0]
    return SampleBatch(draws=draws, noise=noise)


# ---------------------------------------------------------------------------
# Densities and entropy


def _log_q(params: dict, rows: np.ndarray):
    """log q at plain rows of a Gaussian family or an sGMM, from ``_trained``
    parameters; an sGMM's components are one stacked kernel call."""
    scale, factor = _scale_and_factor(params)
    log_n = lowrank_logpdf(rows, params["mu"], scale * scale, factor)
    if "weight_logits" not in params:
        return log_n
    logits = params["weight_logits"]
    log_w = logits - ad.logsumexp(logits)
    return ad.logsumexp(log_w[:, None] + log_n, axis=0)


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
        out = _log_q(_trained(state), rows)
    out = np.asarray(out, dtype=np.float64)
    return float(out[0]) if single else out


def has_zero_variance(state: FamilyState) -> bool:
    """Whether a Gaussian family's float64 variance is 0 in some coordinate.

    The variance is scale² + Σ_k U_ik² as ``log_density`` computes it;
    where it underflows to 0, q is a point mass along that coordinate and
    has no density.  False for every other family.
    """
    if not isinstance(state, StructuredNormalState):
        return False
    scale, factor = _scale_and_factor(_trained(state))
    return not (scale * scale + (factor * factor).sum(axis=1)).all()


# ---------------------------------------------------------------------------
# Dropout enumeration


def _doubling(start, steps) -> np.ndarray:
    """Every subset sum of ``steps`` added to ``start``, by doubling.

    Row r is ``start`` plus the steps at r's set bits, added in bit order:
    step j fills rows [h, 2h), h = 2^j, as rows [0, h) plus itself.
    """
    start = np.asarray(start)
    out = np.empty((1 << len(steps), *start.shape), dtype=start.dtype)
    out[0] = start
    h = 1
    for step in steps:
        np.add(out[:h], step, out=out[h : 2 * h])
        h *= 2
    return out


def wide_view(block: np.ndarray) -> np.ndarray:
    """A C-contiguous (n, D) block of atoms as its (n / w, w·D) view.

    w = min(n, ``WIDE_ROWS``) divides n, a power of two.  Elementwise
    arithmetic with a (D,) row tiled w times then runs w atoms per inner
    loop, on the same numbers in the same order as with the (D,) row.
    """
    n = block.shape[0]
    return block.reshape(n // min(n, WIDE_ROWS), -1)


@dataclass
class DropoutMixture:
    """Exact enumeration of the dropout posterior's 2^{P_d} point masses.

    Atom r is θ̂ ⊙ z with z_i, for the i-th droppable coordinate, equal to
    bit i of r; coordinates that cannot be dropped are always kept.  Atom r
    weighs p^{n_r} (1 − p)^{P_d − n_r}, n_r the number of ones in r.  The
    atoms stay implicit: ``blocks`` streams them, projected into the space
    a caller reads, at most ``BLOCK_ROWS`` at a time.  Only ``atoms`` and
    ``weights`` tabulate all of them, for the small P_d that the acceptance
    gate and the tests read.
    """

    theta_hat: np.ndarray  # (P,)
    droppable: np.ndarray  # (P,) bool
    keep_prob: float

    @property
    def n_atoms(self) -> int:
        return 1 << int(np.count_nonzero(self.droppable))

    def blocks(self, features: np.ndarray):
        """Yield ``(weights, images)`` for consecutive blocks of atoms, in atom order.

        ``images`` holds the rows (θ̂ ⊙ z_r) @ featuresᵀ of the block's atoms.
        The low log2(BLOCK_ROWS) droppable coordinates are enumerated once,
        by doubling from the kept coordinates' contribution, into one block;
        block b adds row b of the remaining (high) coordinates' doubling
        table to it.  So a caller holds one block of (BLOCK_ROWS, D)
        numbers and the 2^{P_d} / BLOCK_ROWS rows of that table, never a
        2^{P_d}-row array.  With at most log2(BLOCK_ROWS) droppable
        coordinates there is one block, holding every atom.  The add runs
        on the base block's wide view (``wide_view``) against the row
        tiled into one reused (w·D,) buffer, one inner-loop call per w
        atoms, and adds the same numbers as (n, D) + (D,) would.  An atom
        weighs p^n (1 − p)^{P_d − n}, n its number of ones, so a block's
        weights depend only on how many of its high coordinates are kept:
        one vector per such count is built once and yielded for every
        block with that count.  Those vectors and the base block are
        shared across blocks, so they are read-only.
        """
        features = np.asarray(features, dtype=np.float64)
        index = np.flatnonzero(self.droppable)
        kept = np.flatnonzero(~self.droppable)
        split = min(index.size, BLOCK_ROWS.bit_length() - 1)
        steps = [self.theta_hat[i] * features[:, i] for i in index]
        base = _doubling(features[:, kept] @ self.theta_hat[kept], steps[:split])
        shifts = _doubling(np.zeros(features.shape[0]), steps[split:])
        p, pd = self.keep_prob, index.size
        ones = np.arange(pd + 1, dtype=np.float64)
        by_ones = p**ones * (1.0 - p) ** (pd - ones)  # an atom's weight, by its number of ones
        high_ones = _doubling(0, [1] * (pd - split))  # block b's kept high coordinates
        # Row c: the weights of a block with c kept high coordinates.
        by_count = by_ones[_doubling(0, [1] * split) + np.arange(pd - split + 1)[:, None]]
        base.flags.writeable = False
        by_count.flags.writeable = False
        yield by_count[0], base
        wide = wide_view(base)
        row = np.empty(wide.shape[1])
        tiled = row.reshape(len(base) // len(wide), -1)  # row as w copies of a (D,) shift
        for count, shift in zip(high_ones[1:], shifts[1:]):
            tiled[...] = shift
            yield by_count[count], (wide + row).reshape(base.shape)

    @cached_property
    def weights(self) -> np.ndarray:
        """Every atom's weight, shape (2^{P_d},), for small P_d; cached, so read-only."""
        nothing = np.empty((0, self.theta_hat.size))
        weights = np.concatenate([weights for weights, _ in self.blocks(nothing)])
        weights.flags.writeable = False
        return weights

    @cached_property
    def atoms(self) -> np.ndarray:
        """The (2^{P_d}, P) table of parameter vectors θ̂ ⊙ z, for small P_d;
        cached, so read-only."""
        eye = np.eye(self.theta_hat.size)
        atoms = np.concatenate([images for _, images in self.blocks(eye)])
        atoms.flags.writeable = False
        return atoms


def enumerate_dropout(state: DropoutState) -> DropoutMixture:
    """The dropout posterior's 2^{P_d} atoms and weights, left implicit.

    Checks P_d against ``DROPOUT_ENUMERATION_LIMIT`` and copies the state's
    O(P) fields; ``DropoutMixture.blocks`` does the enumeration.
    """
    pd = state.n_droppable
    if pd > DROPOUT_ENUMERATION_LIMIT:
        raise ValueError(
            f"{pd} droppable coordinates exceed the enumeration guard "
            f"({DROPOUT_ENUMERATION_LIMIT})"
        )
    return DropoutMixture(
        theta_hat=state.theta_hat.copy(),
        droppable=state.droppable.copy(),
        keep_prob=state.keep_prob,
    )


# ---------------------------------------------------------------------------
# Serialization


def state_to_json_dict(state: FamilyState) -> dict:
    """The state as plain JSON values: its tag, sizes and trained arrays as
    flat lists, plus dropout's ``keep_prob`` and ``droppable``."""
    doc: dict = {"family": state.tag, "p": state.dim}
    if hasattr(state, "rank"):
        doc["rank"] = state.rank
    doc.update({name: value.ravel().tolist() for name, value in _trained(state).items()})
    if isinstance(state, DropoutState):
        doc["keep_prob"] = state.keep_prob
        doc["droppable"] = state.droppable.astype(int).tolist()
    return doc
