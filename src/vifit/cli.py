"""Benchmark harness: fit-gaussian, rbf, and dropout-audit experiments.

Each subcommand trains a roster of variational families, audits them
against exact ground truth, and emits report.json / tables.csv (and,
optionally, SVG figures).  Reruns with the same seed and config are
byte-identical in tables.csv.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import families as fam
from . import models as mod
from . import oracle as orc
from . import trainer as tr
from .reports import FORMATS, ExperimentReport, FamilyResult, emit_report


def _check_ranges(config, minimum: dict, positive=(), probability=(), choices=None):
    """Raise ValueError naming the first key of ``config`` outside its range.

    Every command's config also has the training keys (seed, steps,
    mc_samples, learning_rate, lr_decay), checked here too.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        numbers = value if isinstance(f.default, tuple) else (value,)
        if isinstance(f.default, (float, tuple)) and not all(abs(v) < math.inf for v in numbers):
            raise ValueError(f"config key {f.name!r} must be finite, got {value!r}")
    minimum = {"seed": 0, "steps": 1, "mc_samples": 1, "learning_rate": 0, **minimum}
    checks = [(key, lambda v, m=m: v >= m, f">= {m}") for key, m in minimum.items()]
    checks += [(key, lambda v: v > 0, "> 0") for key in positive]
    checks += [(key, lambda v: 0 <= v <= 1, "in [0, 1]") for key in probability]
    checks.append(("lr_decay", lambda v: 0 < v <= 1, "in (0, 1]"))
    for key, allowed in (choices or {}).items():
        checks.append((key, lambda v, a=allowed: v in a, f"one of {allowed}"))
    for key, ok, bound in checks:
        value = getattr(config, key)
        if not ok(value):
            raise ValueError(f"config key {key!r} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class FitGaussianConfig:
    dim: int = 8
    ranks: tuple = (0, 1, 2, 4, 8)
    seed: int = 0
    steps: int = 4000
    learning_rate: float = 0.02
    lr_decay: float = 0.9995
    mc_samples: int = 8
    mode: str = "paired"
    bimodal: bool = False
    gmm_components: int = 2
    mixture_spread: float = 3.0
    mode_separation: float = 5.0
    target_sigma: float = 0.4
    kl_mc_samples: int = 200_000

    def __post_init__(self):
        _check_ranges(
            self,
            {"dim": 1, "gmm_components": 1, "kl_mc_samples": 2},
            positive=("target_sigma",),
            choices={"mode": fam.MODES},
        )


@dataclass(frozen=True)
class RbfConfig:
    n_basis: int = 10
    n_data: int = 64
    noise_sigma: float = 0.25
    ranks: tuple = (0, 1, 2, 4, 10)
    keep_prob: float = 0.5
    seed: int = 0
    steps: int = 4000
    learning_rate: float = 0.02
    lr_decay: float = 0.9995
    mc_samples: int = 8
    mode: str = "paired"
    grid_points: int = 101

    def __post_init__(self):
        _check_ranges(
            self,
            {"n_basis": 1, "n_data": 1, "grid_points": 2},
            positive=("noise_sigma",),
            probability=("keep_prob",),
            choices={"mode": fam.MODES},
        )


@dataclass(frozen=True)
class DropoutAuditConfig:
    n_droppable: int = 10
    keep_prob: float = 0.5
    n_data: int = 64
    noise_sigma: float = 0.25
    seed: int = 0
    steps: int = 1500
    learning_rate: float = 0.03
    lr_decay: float = 0.999
    mc_samples: int = 8
    x_star: tuple = (-0.9, -0.45, 0.0, 0.45, 0.9)
    mc_draws: int = 100_000

    def __post_init__(self):
        _check_ranges(
            self,
            {"n_droppable": 1, "n_data": 1, "mc_draws": 2},
            positive=("noise_sigma",),
            probability=("keep_prob",),
        )
        if self.n_droppable > fam.DROPOUT_ENUMERATION_LIMIT:
            raise ValueError(
                f"config key 'n_droppable' must be <= {fam.DROPOUT_ENUMERATION_LIMIT} "
                f"(the enumeration guard), got {self.n_droppable!r}"
            )


def _accepts(default, value) -> bool:
    """Whether a JSON value can stand for a config field with this default.

    An int stands for a float, a bool only for a bool, and a list of numbers
    for a tuple.
    """
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_accepts(0.0, v) for v in value)
    return isinstance(value, type(default))


def _load_config(cls, path, overrides: dict):
    doc = {}
    if path:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config file {path} must hold a JSON object, not {doc!r:.40}")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        default = defaults[key]
        if not _accepts(default, value):
            expected = "list of numbers" if isinstance(default, tuple) else type(default).__name__
            raise TypeError(f"config key {key!r} expects {expected}, got {value!r}")
        if isinstance(default, tuple):
            doc[key] = tuple(value)
    return cls(**doc)


def _child_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


class Member(NamedTuple):
    """One roster entry: report label, family tag, init kwargs, sampling mode."""

    label: str
    tag: str
    kwargs: dict
    mode: str = "naive"

    @property
    def rank(self):
        return self.kwargs.get("rank")


def build_roster(ranks, mode: str, head=(), tail=()) -> list:
    """Members ``head``, then mf / sN{rank} for each rank, then ``tail``.

    Atomic families sample in naive mode and the rest in ``mode``; a member
    that cannot, or a rank that is not a nonnegative integer or repeats, is
    rejected here, before any training starts.
    """
    for k in ranks:
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise ValueError(f"ranks must be nonnegative integers, got {k!r}")
    if len(set(ranks)) < len(ranks):
        raise ValueError(f"ranks must not repeat, got {list(ranks)!r}")
    ranked = [
        (f"sn{k}" if k else "mf", "structured_normal" if k else "mean_field", {"rank": k})
        for k in ranks
    ]
    roster = []
    for label, tag, kwargs in [*head, *ranked, *tail]:
        member_mode = "naive" if tag in fam.ATOMIC_TAGS else mode
        try:
            fam.check_mode(tag, member_mode, kwargs.get("rank", 0))
        except fam.ModeFamilyError as err:
            raise fam.ModeFamilyError(
                f"roster member {label!r} cannot sample in mode {member_mode!r}: {err}"
            ) from err
        roster.append(Member(label, tag, kwargs, member_mode))
    return roster


def _train_config(member: Member, config, train_seq) -> tr.TrainConfig:
    return tr.TrainConfig(
        steps=config.steps,
        learning_rate=config.learning_rate,
        lr_decay=config.lr_decay,
        mc_samples=config.mc_samples,
        mode=member.mode,
        seed=_child_seed(train_seq),
    )


def _audited(member: Member, trace, tcfg, audit, audit_seq) -> tuple:
    """(FamilyResult, fitted state) of a trained member: a fitted state that
    is not finite fails naming its non-finite psi blocks before any audit
    runs, and an audit that gives a NaN metric fails naming it."""
    blocks = fam.nonfinite_blocks(trace.final_state, fam.pack(trace.final_state))
    if blocks:
        raise ad.MemberFailure(f"fitted state is not finite in psi blocks {', '.join(blocks)}")
    metrics = audit(trace.final_state, tcfg, audit_seq)
    nan = [name for name, value in metrics.items() if value is not None and math.isnan(value)]
    if nan:
        raise ad.MemberFailure(f"audit metric is NaN: {', '.join(nan)}")
    return FamilyResult(member.label, member.rank, metrics, trace.runtime_s), trace.final_state


def fit_roster(experiment: str, roster, p: int, target, config, seqs, audit) -> list:
    """init → train → audit every member; returns (FamilyResult, fitted
    state) per member, in roster order.

    ``seqs`` are the roster's (init, train, audit) seed sequences, each
    spawned once per member, and ``audit(fitted, train_config, audit_seq)``
    gives a member's metrics.  The roster trains in one ``tr.train_roster``
    call.  A member whose fit raises ``ad.MemberFailure`` (its training
    fails, or its audit meets a numerically degenerate fit) gets an empty
    row and a None state; the rest of the roster still runs.  Other errors
    end the command.
    """
    init_seqs, train_seqs, audit_seqs = (seq.spawn(len(roster)) for seq in seqs)
    states = [
        fam.init_family(member.tag, p, np.random.default_rng(init_seq), **member.kwargs)
        for member, init_seq in zip(roster, init_seqs)
    ]
    configs = [_train_config(member, config, seq) for member, seq in zip(roster, train_seqs)]
    outcomes = tr.train_roster(states, target, configs)
    fits = []
    for member, outcome, tcfg, audit_seq in zip(roster, outcomes, configs, audit_seqs):
        try:
            if isinstance(outcome, ad.MemberFailure):
                raise outcome
            fits.append(_audited(member, outcome, tcfg, audit, audit_seq))
        except ad.MemberFailure as err:
            print(f"[{experiment}] {member.label} failed: {err}", file=sys.stderr)
            fits.append((FamilyResult(member.label, member.rank), None))
    return fits


def random_gaussian_target(dim: int, rng: np.random.Generator) -> orc.GaussianDist:
    """Haar-rotated covariance with log-uniform spectrum in [0.1, 10]."""
    q = fam.haar_orthogonal(dim, rng)
    eigs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=dim))
    cov = q @ np.diag(eigs) @ q.T
    return orc.GaussianDist(mean=rng.standard_normal(dim), cov=0.5 * (cov + cov.T))


def bimodal_target(
    dim: int, rng: np.random.Generator, separation: float, sigma: float
) -> orc.GaussianMixtureDist:
    """Two equally weighted isotropic modes straddling a random center."""
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    center = 0.3 * rng.standard_normal(dim)
    cov = sigma**2 * np.eye(dim)
    comps = (
        orc.GaussianDist(mean=center + 0.5 * separation * direction, cov=cov),
        orc.GaussianDist(mean=center - 0.5 * separation * direction, cov=cov),
    )
    return orc.GaussianMixtureDist(components=comps, weights=np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# fit-gaussian


def cmd_fit_gaussian(config: FitGaussianConfig) -> ExperimentReport:
    root = np.random.SeedSequence(config.seed)
    target_seq, init_seq, train_seq, mc_seq = root.spawn(4)
    target_rng = np.random.default_rng(target_seq)
    if config.bimodal:
        target = bimodal_target(
            config.dim, target_rng, config.mode_separation, config.target_sigma
        )
        sgmm = {
            "rank": min(config.dim, 2),
            "components": config.gmm_components,
            "mixture_spread": config.mixture_spread,
        }
        roster = build_roster(config.ranks, config.mode, tail=[("sgmm", "mixture", sgmm)])
    else:
        target = random_gaussian_target(config.dim, target_rng)
        roster = build_roster(config.ranks, config.mode, head=[("map", "map", {})])

    audit = functools.partial(_density_fit_metrics, target, config.kl_mc_samples)
    fits = fit_roster(
        "fit-gaussian", roster, config.dim, target, config,
        (init_seq, train_seq, mc_seq), audit,
    )
    report = ExperimentReport(
        experiment="fit_gaussian",
        seed=config.seed,
        config=dataclasses.asdict(config),
        families=[result for result, _ in fits],
    )
    # Dropout cannot fit a bare density target; report the row as n/a.
    if not config.bimodal:
        report.families.insert(
            1, FamilyResult(family="mc_dropout", rank=None, metrics={})
        )

    if config.dim == 2 and not config.bimodal:
        gaussians = [f for _, f in fits if isinstance(f, fam.StructuredNormalState)]
        report.figures["isolines"] = functools.partial(_isolines, target, gaussians)
    return report


def _isolines(target, gaussians) -> dict:
    fits = [orc.family_to_gaussian(f) for f in gaussians]
    return {
        "target_mean": target.mean,
        "target_cov": target.cov,
        "fits": [{"mean": q.mean, "cov": q.cov} for q in fits],
    }


def _density_fit_metrics(target, n_mc, fitted, tcfg, mc_seq) -> dict:
    """KL both ways plus an ELBO figure for one fitted family.

    A Gaussian q's KLs are exact: against a Gaussian target by
    ``orc.kl_gaussian_gaussian``, against the two-mode target by
    ``orc.kl_gaussian_bimodal``, where a q with a zero variance is a point
    mass and both KLs are infinite.  Any other q (the sGMM) is audited by
    Monte Carlo over ``n_mc`` draws each way, and each KL also gives its
    standard error (``kl_p_q_se``, ``kl_q_p_se``); an infinite KL has none.
    """
    if isinstance(fitted, fam.MapState):
        elbo = tr.elbo_estimate(fitted, target, tcfg, np.random.default_rng(mc_seq)).total
        return {"kl_p_q": math.inf, "kl_q_p": math.inf, "elbo": elbo}
    if isinstance(fitted, fam.StructuredNormalState):
        if isinstance(target, orc.GaussianDist):
            q = orc.family_to_gaussian(fitted)
            kl_pq, kl_qp = orc.kl_gaussian_gaussian(target, q), orc.kl_gaussian_gaussian(q, target)
        elif fam.has_zero_variance(fitted):
            kl_pq = kl_qp = math.inf
        else:
            kl_pq, kl_qp = orc.kl_gaussian_bimodal(target, orc.family_to_gaussian(fitted))
        return {"kl_p_q": kl_pq, "kl_q_p": kl_qp, "elbo": -kl_qp}
    rng = np.random.default_rng(mc_seq)
    kl_pq, kl_pq_se = orc.kl_p_to_family_mc(target, fitted, n_mc, rng)
    kl_qp, kl_qp_se = orc.kl_family_to_target_mc(fitted, target, n_mc, rng)
    return {
        "kl_p_q": kl_pq,
        "kl_q_p": kl_qp,
        "elbo": -kl_qp,
        "kl_p_q_se": kl_pq_se if math.isfinite(kl_pq) else None,
        "kl_q_p_se": kl_qp_se if math.isfinite(kl_qp) else None,
    }


# ---------------------------------------------------------------------------
# rbf


def cmd_rbf(config: RbfConfig) -> ExperimentReport:
    """Fit the roster to a synthetic RBF regression, audited against the exact
    posterior.  Its figure, built only when its SVG is rendered, is the dropout
    fit's exact predictive on the grid (``orc.dropout_predictive_exact``)."""
    head = [("map", "map", {}), ("mc_dropout", "mc_dropout", {"keep_prob": config.keep_prob})]
    roster = build_roster(config.ranks, config.mode, head=head)
    root = np.random.SeedSequence(config.seed)
    data_seq, init_seq, train_seq, mc_seq = root.spawn(4)

    spec = mod.RbfModelSpec.regular(config.n_basis, noise_sigma=config.noise_sigma)
    problem, truth = mod.make_rbf_dataset(spec, config.n_data, seed=_child_seed(data_seq))
    posterior = orc.exact_linear_posterior(problem)
    evidence = orc.log_evidence(problem)
    audit = functools.partial(
        _posterior_fit_metrics, problem, posterior, evidence, truth.theta_star
    )
    fits = fit_roster(
        "rbf", roster, problem.model_shape(), problem, config,
        (init_seq, train_seq, mc_seq), audit,
    )
    report = ExperimentReport(
        experiment="rbf",
        seed=config.seed,
        config=dataclasses.asdict(config),
        families=[result for result, _ in fits],
        extras={"evidence": evidence, "theta_star": truth.theta_star.tolist()},
    )
    dropout = [f for _, f in fits if isinstance(f, fam.DropoutState)]
    if dropout:
        # The figure's source: θ̂, keep_prob and droppable fix every atom and weight.
        report.extras["dropout_state"] = fam.state_to_json_dict(dropout[-1])
        if dropout[-1].n_droppable <= fam.DROPOUT_ENUMERATION_LIMIT:
            report.figures["dropout_predictive"] = functools.partial(
                _dropout_predictive, problem, truth, dropout[-1], config.grid_points
            )
    return report


def _posterior_fit_metrics(problem, posterior, evidence, theta_star, fitted, tcfg, mc_seq) -> dict:
    metrics = {"logq_theta_star": orc.log_density_of_truth(fitted, theta_star)}
    if isinstance(fitted, fam.StructuredNormalState):
        q = orc.family_to_gaussian(fitted)
        kl_pq = orc.kl_gaussian_gaussian(posterior, q)
        kl_qp = orc.kl_gaussian_gaussian(q, posterior)
        elbo = orc.exact_gaussian_elbo(problem, q)
    else:
        kl_pq = kl_qp = math.inf
        elbo = tr.elbo_estimate(fitted, problem, tcfg, np.random.default_rng(mc_seq)).total
    metrics.update(kl_p_q=kl_pq, kl_q_p=kl_qp, elbo=elbo, evidence_gap=evidence - elbo)
    return metrics


def _dropout_predictive(problem, truth, state: fam.DropoutState, grid_points: int) -> dict:
    grid = np.linspace(mod.DATA_INTERVAL[0], mod.DATA_INTERVAL[1], grid_points)
    predictive = orc.dropout_predictive_exact(state, problem, grid)
    return {
        "x": grid,
        "mean": predictive.mean(),
        "sd": np.sqrt(predictive.variance()),
        "truth": problem.features(grid) @ truth.theta_star,
        "data_x": problem.inputs,
        "data_t": problem.targets,
    }


# ---------------------------------------------------------------------------
# dropout-audit


def _dropout_predictions(state, features, n: int, rng) -> np.ndarray:
    """(n, |x*|) predictions draws @ featuresᵀ of n naive dropout draws.

    Each block's masks are drawn and its draws projected as it comes
    (``fam.sample_blocks``, whose log q, None for dropout, is not read), so
    neither the (n, P) masks nor the draws are built; the rows equal
    ``fam.sample``'s draws @ featuresᵀ bit for bit.
    """
    blocks = ((rows, draws @ features.T) for rows, draws, _ in fam.sample_blocks(state, rng, n))
    return fam.gather_blocks(blocks, n, len(features))


def _variance_in_place(samples: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``samples.var(axis=0, ddof=1)`` bit for bit, given ``samples.mean(axis=0)``.

    ``ndarray.var`` takes the same steps (deviations from the mean, their
    squares, their axis-0 sum over n − 1) but on a second array of the
    samples' size; this overwrites ``samples`` with the squared deviations.
    """
    np.subtract(samples, mean, out=samples)
    np.square(samples, out=samples)
    return np.add.reduce(samples, axis=0) / (len(samples) - 1)


def cmd_dropout_audit(config: DropoutAuditConfig) -> ExperimentReport:
    root = np.random.SeedSequence(config.seed)
    data_seq, init_seq, train_seq, mc_seq = root.spawn(4)

    spec = mod.RbfModelSpec.regular(config.n_droppable, noise_sigma=config.noise_sigma)
    problem, truth = mod.make_rbf_dataset(spec, config.n_data, seed=_child_seed(data_seq))
    member = Member("mc_dropout", "mc_dropout", {"keep_prob": config.keep_prob})
    state = fam.init_family(
        member.tag, problem.model_shape(), np.random.default_rng(init_seq), **member.kwargs
    )
    tcfg = _train_config(member, config, train_seq)
    # The one member is the whole command: a MemberFailure ends it.
    result, fitted = _audited(member, tr.train(state, problem, tcfg), tcfg, lambda *_: {}, None)

    x_star = np.asarray(config.x_star)
    exact = orc.dropout_predictive_exact(fitted, problem, x_star)
    exact_mean = exact.mean()

    rng = np.random.default_rng(mc_seq)
    mc_samples_y = _dropout_predictions(fitted, problem.features(x_star), config.mc_draws, rng)
    for rows in fam.row_blocks(config.mc_draws):  # one call's normals, a block at a time
        mc_noise = rng.standard_normal(mc_samples_y[rows].shape)
        mc_noise *= problem.noise_sigma
        mc_samples_y[rows] += mc_noise
    mc_mean = mc_samples_y.mean(axis=0)
    mc_var = _variance_in_place(mc_samples_y, mc_mean)
    mean_se = np.sqrt(mc_var) / math.sqrt(config.mc_draws)

    report = ExperimentReport(
        experiment="dropout_audit",
        seed=config.seed,
        config=dataclasses.asdict(config),
        families=[result],
        extras={
            "n_atoms": exact.n_atoms,
            "weight_sum": exact.weight_sum,
            "map_atom_weight": config.keep_prob**fitted.n_droppable,
            "x_star": x_star.tolist(),
            "exact_mean": exact_mean.tolist(),
            "exact_variance": exact.variance().tolist(),
            "mc_mean": mc_mean.tolist(),
            "mc_variance": mc_var.tolist(),
            "mc_mean_std_error": mean_se.tolist(),
            "mean_z_scores": ((mc_mean - exact_mean) / mean_se).tolist(),
        },
    )
    return report


# ---------------------------------------------------------------------------
# entry point


def _add_common_flags(sub):
    sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument(
        "--formats",
        default="json,csv",
        help=f"comma-separated outputs: {','.join(FORMATS)}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vifit", description="variational-inference benchmark harness"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit-gaussian", help="fit a random multivariate normal")
    _add_common_flags(p)
    p.add_argument(
        "--bimodal",
        action="store_true",
        default=None,
        help="use a two-mode target and add an sGMM family",
    )

    p = subs.add_parser("rbf", help="RBF regression against the exact posterior")
    _add_common_flags(p)

    p = subs.add_parser("dropout-audit", help="exact dropout enumeration audit")
    _add_common_flags(p)
    return parser


COMMANDS = {
    "fit-gaussian": (FitGaussianConfig, cmd_fit_gaussian),
    "rbf": (RbfConfig, cmd_rbf),
    "dropout-audit": (DropoutAuditConfig, cmd_dropout_audit),
}


def run_command(args) -> ExperimentReport:
    if args.command not in COMMANDS:
        raise ValueError(f"unknown command {args.command!r}")
    config_cls, command = COMMANDS[args.command]
    overrides = {"seed": args.seed, "bimodal": getattr(args, "bimodal", None)}
    return command(_load_config(config_cls, args.config, overrides))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    formats = tuple(s.strip() for s in args.formats.split(",") if s.strip())
    try:
        unknown = set(formats) - set(FORMATS)
        if unknown or not formats:
            raise ValueError(f"--formats must name some of {FORMATS}, got {args.formats!r}")
        report = run_command(args)
        written = emit_report(report, args.out, formats)
    except Exception as err:  # noqa: BLE001 - CLI boundary
        record = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
