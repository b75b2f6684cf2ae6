"""Variational families and their sampling modes.

Five families share one contract: initialization from a parameter count,
reparametrized sampling (naive / paired / unscented), log-density
evaluation and a flat-vector parameter layout.  Each family has one
implementation of what training needs, ``draws_logq_vjp``: its draws,
their sampled log q and, for a stratified sGMM batch, their coefficients,
with the closed-form adjoint of all three back to psi.

Layout rule: each state class lists its trained arrays in pack order in
``TRAINED``, and the flat vector psi is those arrays raveled and
concatenated.  A mixture's ``components`` entry stands for its component
states, packed in turn with their names prefixed ``c{m}.``, before its
``weight_logits``.  One walk over that declaration (``_walk``) drives
``param_slices``, ``pack``, ``unpack``, ``param_views`` and
``state_to_json``; ``state_from_json`` reads the same declaration off
the class.  Fields outside ``TRAINED`` (dropout's ``keep_prob`` and
``droppable``) are carried over from the template.

MAP and MC dropout are atomic: their log-density is defined only on their
atoms and is minus infinity anywhere else.  MAP is MC dropout at keep
probability 1 with nothing droppable, so both share one atomic path:
θ̂ ⊙ mask draws, mask noise and atom weights.  The dropout posterior over the
droppable coordinates is a mixture of 2^{P_d} point masses:
``enumerate_dropout`` gives their exact weights, and
``DropoutMixture.images`` projects every atom straight into the space a
caller reads (predictions at a few inputs), never building the
(2^{P_d}, P) atom table.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union, get_args

import numpy as np

from . import autodiff as ad
from .lowrank import StructuredCov, gaussian_draw_rows, lowrank_logpdf, lowrank_logpdf_and_vjp

MODES = ("naive", "paired", "unscented")

DROPOUT_ENUMERATION_LIMIT = 24

# Rows per block where a batch of draws is realized or audited a block at a
# time: each (BLOCK_ROWS, P) float64 temporary holds 64 KB per coordinate.
BLOCK_ROWS = 8192


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
            droppable=np.ones(p, bool),
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


def nonfinite_blocks(state: FamilyState, vector: np.ndarray) -> list:
    """Names of the ``param_slices`` blocks where a psi-shaped vector is not finite."""
    return [name for name, sl in param_slices(state).items() if not np.isfinite(vector[sl]).all()]


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


def param_views(template: FamilyState, psi: np.ndarray) -> dict:
    """The trained arrays of ``template`` as views into a plain flat ``psi``.

    Resolved once from ``param_slices``, in ``_walk`` form.  A caller that
    updates psi in place (the trainer) builds them once per member and
    reads each step's parameters through them.
    """
    slices = param_slices(template)
    return _walk(template, lambda name, like: psi[slices[name]].reshape(like.shape))


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
    steps: int | None = None,
) -> NoiseBatch | list:
    """Noise for ``count`` draws from ``state``: one NoiseBatch, or a list of
    ``steps`` of them.

    A list of n batches is exactly what n consecutive single-batch calls
    give, generator state afterwards included.  numpy's Generator yields the
    same stream from one call as from consecutive calls, so the n batches'
    normals come from one ``standard_normal`` call (each batch's z_diag, then
    its z_lowrank; in paired mode the halves that are then mirrored), an
    unscented run's from one pass over its groups, and dropout masks from
    one ``random`` call.  An unstratified mixture draws its components
    between the normals and goes batch by batch.  MAP and stratified
    component allocation take nothing from the generator.
    """
    _validate_mode(state, mode, count)
    n = 1 if steps is None else steps
    p = state.dim
    if isinstance(state, ATOMIC_STATES):
        masks = np.ones((n, count, p))
        d = state.droppable
        if d.any():  # MAP has nothing droppable and leaves the generator alone
            masks[:, :, d] = rng.random((n, count, np.count_nonzero(d))) < state.keep_prob
        batches = [NoiseBatch(mode=mode, count=count, masks=m) for m in masks]
    elif isinstance(state, MixtureState) and not stratify_components:
        batches = []
        for _ in range(n):
            if mode == "naive":
                comp = rng.choice(state.n_components, size=count, p=state.weights)
            else:
                half = rng.choice(state.n_components, size=count // 2, p=state.weights)
                comp = np.repeat(half, 2)
            (z_diag,), (z_lowrank,) = _gaussian_noise(rng, mode, 1, count, p, state.rank)
            batches.append(NoiseBatch(mode, count, z_diag, z_lowrank, comp))
    else:
        comp = None
        if isinstance(state, MixtureState):
            comp = _stratified_components(state.n_components, mode, count)
        z_diag, z_lowrank = _gaussian_noise(
            rng, mode, n, count, p, getattr(state, "rank", 0)
        )
        batches = [
            NoiseBatch(mode, count, zd, zl, comp, stratified=comp is not None)
            for zd, zl in zip(z_diag, z_lowrank)
        ]
    return batches[0] if steps is None else batches


def _gaussian_noise(rng, mode: str, n: int, count: int, p: int, k: int) -> tuple:
    """(z_diag, z_lowrank) of shapes (n, count, p) and (n, count, k), taken
    from ``rng`` as n batches drawn one after another take them."""
    if mode == "unscented":  # its groups of 2K rows run on across batches
        z_diag, z_lowrank = _unscented(rng, n * count, p, k)
        return z_diag.reshape(n, count, p), z_lowrank.reshape(n, count, k)
    rows = count // 2 if mode == "paired" else count
    if n == 1:
        # The same stream in two calls: an audit's batch of n_mc rows peaks
        # lower in resident memory as two arrays than as one of twice the size.
        z_diag = rng.standard_normal((1, rows, p))
        z_lowrank = rng.standard_normal((1, rows, k))
    else:
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
        q = _haar_orthogonal(k, rng)
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
    """Per-coordinate std and low-rank factor from ``_walk`` parameters."""
    if "log_sigma" in params:
        return np.exp(params["log_sigma"]), None
    return np.exp(0.5 * params["log_a"]), params["u"]


def _chain_draw(params: dict, scale, draw_bar, mean_bar, d_a, d_factor, z_diag, z_lowrank):
    """Flat adjoint of one Gaussian's (mu, log-scale, U) block.

    ``draw_bar`` is the adjoint of the rows drawn from it (noise ``z_diag``,
    ``z_lowrank``); ``mean_bar``, ``d_a`` and ``d_factor`` come through its
    log-density.  scale = exp(log_sigma) or exp(½ log_a), and a = scale².
    """
    dscale_dlog = scale if "log_sigma" in params else 0.5 * scale
    d_scale = np.add.reduce(draw_bar * z_diag, axis=0) + 2.0 * scale * d_a
    parts = [mean_bar, d_scale * dscale_dlog]
    if d_factor is not None:
        parts.append((draw_bar.T @ z_lowrank + d_factor).ravel())
    return parts


def draws_logq_vjp(template: FamilyState, params: dict, noise: NoiseBatch) -> tuple:
    """Draws, sampled log q and coefficients of a noise batch, with their
    adjoint, at ``params = param_views(template, psi)``.

    Returns ``(theta, log_q, coeff, vjp)``: the draws, their sampled log q
    (None for the atomic families, whose log q is constant), the per-draw
    averaging coefficients (None unless the batch is stratified), and
    ``vjp(theta_bar, logq_bar, coeff_bar)``, the adjoint back to the flat
    psi.  Atomic draws
    are θ̂ ⊙ mask.  Gaussian draws go through ``gaussian_draw_rows`` and log
    q through ``lowrank_logpdf_and_vjp``, whose adjoint this chains through
    the draw.  A mixture draws each row from its component and evaluates
    every component's log N_m at every row, one ``lowrank_logpdf_and_vjp``
    call each; log q = logsumexp_m(log w_m + log N_m), so each component's
    adjoint is log q's weighted by its responsibilities.  The weight logits
    get gradient through log w_m and, when stratified, through the
    coefficients M·w_m (Morningstar et al., AISTATS 2021): with components
    allocated evenly instead of drawn from the weights, each draw carries
    M·w_m so the average stays an unbiased estimate of the mixture
    expectation, and the weights stay trainable.
    """
    if template.tag in ATOMIC_TAGS:
        theta_hat, masks = params["theta_hat"], noise.masks
        return theta_hat * masks, None, None, lambda bar, *_: (bar * masks).sum(axis=0)
    if template.tag == MixtureState.tag:
        return _mixture_logq_vjp(template, params, noise)
    scale, factor = _scale_and_factor(params)
    theta = gaussian_draw_rows(params["mu"], scale, factor, noise.z_diag, noise.z_lowrank)
    log_q, logq_vjp = lowrank_logpdf_and_vjp(theta, params["mu"], scale * scale, factor)

    def vjp(theta_bar, logq_bar, _):
        d_theta, d_a, d_factor = logq_vjp(logq_bar)
        # log q sees the mean only through θ − mean: its adjoint is Σ_k θ̄_k.
        parts = _chain_draw(
            params, scale, theta_bar + d_theta, np.add.reduce(theta_bar, axis=0), d_a, d_factor,
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
    m = len(comps)
    coeff = m * weights[noise.components] if noise.stratified else None

    def vjp(theta_bar, logq_bar, coeff_bar):
        per_bar = resp * logq_bar  # adjoint of log w_m + log N_m(θ_k)
        adjoints = [logq_vjp(bar) for (_, logq_vjp), bar in zip(fits, per_bar)]
        via = theta_bar + sum(d_theta for d_theta, _, _ in adjoints)  # of every θ_k
        log_w_bar = per_bar.sum(axis=1)
        if coeff is not None:  # coeff_k = M w_{c_k}
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


def row_blocks(n: int) -> list:
    """Slices covering ``range(n)`` in order, ``BLOCK_ROWS`` rows each but the last.

    numpy hands a one-row matrix product to BLAS gemv, whose last bits can
    differ from the row's in a longer (gemm) product, so a block holds one
    row only when the whole batch does: a remainder of one row joins the
    block before it.  Callers that split a batch by component evaluate a
    component's lone row as a pair of copies for the same reason.
    """
    stops = [*range(BLOCK_ROWS, n - 1, BLOCK_ROWS), n]
    return [slice(a, b) for a, b in zip([0, *stops], stops) if b > a]


def gather_blocks(blocks, n: int, dim: int) -> np.ndarray:
    """The (n, dim) array that ``(rows, draws)`` blocks scatter into."""
    out = np.empty((n, dim))
    for rows, draws in blocks:
        out[rows] = draws
    return out


def realize_blocks(state: FamilyState, noise: NoiseBatch):
    """Yield ``(rows, draws)``: the noise batch's draws, a block of rows at a time.

    Atomic and Gaussian families realize ``row_blocks`` slices in turn.  An
    sGMM realizes each component's own rows, as integer indices in row
    order, from that component alone.  Each row comes out as a realization
    of the whole batch would give it, so a caller holds one block of
    temporaries, not a batch-sized array per temporary.
    """
    params = _walk(state, lambda _, value: value)
    if isinstance(state, ATOMIC_STATES):
        for rows in row_blocks(noise.count):
            yield rows, params["theta_hat"] * noise.masks[rows]
        return
    if isinstance(state, MixtureState):
        parts = [
            (np.flatnonzero(noise.components == m), comp)
            for m, comp in enumerate(params["components"])
        ]
    else:
        parts = [(None, params)]
    for own, comp in parts:
        scale, factor = _scale_and_factor(comp)
        if own is None:
            blocks = row_blocks(noise.count)
        elif own.size == 1 < noise.count:  # a lone row as a pair: see row_blocks
            blocks = [np.repeat(own, 2)]
        else:
            blocks = [own[block] for block in row_blocks(own.size)]
        for rows in blocks:
            yield rows, gaussian_draw_rows(
                comp["mu"], scale, factor, noise.z_diag[rows], noise.z_lowrank[rows]
            )


def sample(
    state: FamilyState, mode: str, count: int, rng: np.random.Generator
) -> SampleBatch:
    """Draw a batch of parameter vectors with full noise records.

    The noise is drawn whole (``draw_noise``), count·(P + K) numbers, and
    realized through ``realize_blocks`` into one (count, P) array.  The
    Monte-Carlo KL audit streams the same blocks without gathering them,
    so it holds the noise plus one block of temporaries.
    """
    noise = draw_noise(state, mode, count, rng)
    draws = gather_blocks(realize_blocks(state, noise), count, state.dim)
    return SampleBatch(draws=draws, noise=noise)


# ---------------------------------------------------------------------------
# Densities and entropy


def _log_q(params: dict, rows: np.ndarray):
    """log q at plain rows of a Gaussian family or an sGMM, from ``_walk``
    parameters."""
    if "components" not in params:
        scale, factor = _scale_and_factor(params)
        return lowrank_logpdf(rows, params["mu"], scale * scale, factor)
    logits = params["weight_logits"]
    log_norm = ad.logsumexp(logits)
    per = [
        (logits[m] - log_norm) + _log_q(comp, rows)
        for m, comp in enumerate(params["components"])
    ]
    return ad.logsumexp(np.stack(per), axis=0)


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
        out = _log_q(_walk(state, lambda _, value: value), rows)
    out = np.asarray(out, dtype=np.float64)
    return float(out[0]) if single else out


def has_zero_variance(state: FamilyState) -> bool:
    """Whether a Gaussian family's float64 variance is 0 in some coordinate.

    The variance is scale² (plus Σ_k U_ik² for sN) as ``log_density``
    computes it; where it underflows to 0, q is a point mass along that
    coordinate and has no density.  False for every other family.
    """
    if not isinstance(state, GAUSSIAN_STATES):
        return False
    scale, factor = _scale_and_factor(_walk(state, lambda _, value: value))
    variance = scale * scale
    if factor is not None:
        variance = variance + (factor * factor).sum(axis=1)
    return not variance.all()


def dense_moments(state: FamilyState) -> tuple:
    """Mean and dense covariance of a Gaussian family (diagnostic view)."""
    return state.mu.copy(), state.cov().dense()


# ---------------------------------------------------------------------------
# Dropout enumeration


@dataclass
class DropoutMixture:
    """Exact enumeration of the dropout posterior's 2^{P_d} point masses.

    Atom r is θ̂ ⊙ z with z_i, for the i-th droppable coordinate, equal to
    bit i of r; coordinates that cannot be dropped are always kept.
    """

    weights: np.ndarray  # (2^{P_d},)
    theta_hat: np.ndarray  # (P,)
    droppable: np.ndarray  # (P,) bool

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    def images(self, features: np.ndarray) -> np.ndarray:
        """Rows (θ̂ ⊙ z_r) @ featuresᵀ for every atom r, shape (2^{P_d}, D).

        Built by doubling in one preallocated array: row 0 holds the kept
        coordinates' contribution, and the j-th droppable coordinate k fills
        rows [h, 2h), h = 2^j, as rows [0, h) plus θ̂_k · features[:, k].
        Only 2^{P_d} × D numbers are held, never a (2^{P_d}, P) atom table.
        """
        features = np.asarray(features, dtype=np.float64)
        index = np.flatnonzero(self.droppable)
        kept = np.flatnonzero(~self.droppable)
        out = np.empty((self.n_atoms, features.shape[0]))
        out[0] = features[:, kept] @ self.theta_hat[kept]
        h = 1
        for i in index:
            np.add(out[:h], self.theta_hat[i] * features[:, i], out=out[h : 2 * h])
            h *= 2
        return out

    @cached_property
    def atoms(self) -> np.ndarray:
        """The (2^{P_d}, P) table of parameter vectors θ̂ ⊙ z, for small P_d."""
        return self.images(np.eye(self.theta_hat.size))


def enumerate_dropout(state: DropoutState) -> DropoutMixture:
    """All 2^{P_d} dropout states with exact weights p^{Σz}(1−p)^{Σ(1−z)}.

    The number of ones Σz of every row index is counted by doubling, so no
    (2^{P_d}, P_d) bit table is built; the atoms themselves stay implicit
    (``DropoutMixture.images``).
    """
    pd = state.n_droppable
    if pd > DROPOUT_ENUMERATION_LIMIT:
        raise ValueError(
            f"{pd} droppable coordinates exceed the enumeration guard "
            f"({DROPOUT_ENUMERATION_LIMIT})"
        )
    ones = np.zeros(1 << pd)
    h = 1
    for _ in range(pd):
        ones[h : 2 * h] = ones[:h] + 1.0
        h *= 2
    weights = state.keep_prob**ones * (1.0 - state.keep_prob) ** (pd - ones)
    return DropoutMixture(
        weights=weights, theta_hat=state.theta_hat.copy(), droppable=state.droppable.copy()
    )


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


def _vector(doc: dict, name: str, size: int, prefix: str = "", kinds=(int, float)) -> np.ndarray:
    value = doc.get(name, [])
    if not isinstance(value, list) or not all(type(x) in kinds for x in value):
        raise ValueError(f"field {prefix + name!r} must be a list of numbers, got {value!r}")
    if len(value) != size:
        raise ValueError(f"field {prefix + name!r} must hold {size} numbers, got {len(value)}")
    out = np.array(value, dtype=np.float64)
    if not np.isfinite(out).all():
        raise ValueError(f"field {prefix + name!r} must hold finite numbers, got {value!r}")
    return out


def _state_from_doc(cls, doc: dict, p: int, rank, prefix: str = "") -> FamilyState:
    fields = {}
    for name in cls.TRAINED:
        if name == "components":
            comps = doc.get(name)
            if not (isinstance(comps, list) and comps and all(isinstance(c, dict) for c in comps)):
                raise ValueError("field 'components' must list at least one component object")
            fields[name] = tuple(
                _state_from_doc(StructuredNormalState, c, p, rank, f"c{m}.")
                for m, c in enumerate(comps)
            )
        elif name == "weight_logits":
            fields[name] = _vector(doc, name, len(fields["components"]))
        elif name == "u":
            fields[name] = _vector(doc, name, p * rank, prefix).reshape(p, rank)
        else:
            fields[name] = _vector(doc, name, p, prefix)
    if cls is DropoutState:
        keep_prob = doc.get("keep_prob")
        if type(keep_prob) not in (int, float) or not 0.0 <= keep_prob <= 1.0:
            raise ValueError(f"field 'keep_prob' must be a number in [0, 1], got {keep_prob!r}")
        droppable = _vector(doc, "droppable", p, kinds=(int, float, bool))
        if not np.isin(droppable, (0.0, 1.0)).all():
            raise ValueError("field 'droppable' must hold only 0, 1, true or false")
        fields.update(keep_prob=float(keep_prob), droppable=droppable)
    return cls(**fields)


def state_from_json(text: str) -> FamilyState:
    """A ``state_to_json`` document's state; ValueError names the first field
    that is missing, of the wrong type, or disagrees with the document's p,
    rank or component count."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a family state must be a JSON object, got {type(doc).__name__}")
    tag = doc.get("family")
    cls = FAMILIES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"field 'family' must name a family, got {tag!r}")
    for key in ("p", "rank") if hasattr(cls, "rank") else ("p",):
        if type(doc.get(key)) is not int or doc[key] < 0:
            raise ValueError(f"field {key!r} must be a nonnegative integer, got {doc.get(key)!r}")
    return _state_from_doc(cls, doc, doc["p"], doc.get("rank"))
