"""Benchmark harness: fit-gaussian, rbf, and dropout-audit experiments.

Each subcommand trains a roster of variational families, audits them
against exact ground truth, and emits report.json / tables.csv (and,
optionally, SVG figure data).  Reruns with the same seed and config are
byte-identical in tables.csv.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import families as fam
from . import models as mod
from . import oracle as orc
from . import trainer as tr
from .reports import ExperimentReport, FamilyResult, emit_report


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


def _load_config(cls, path, overrides: dict):
    doc = {}
    if path:
        with open(path) as fh:
            doc = json.load(fh)
    doc.update({k: v for k, v in overrides.items() if v is not None})
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - fields
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("ranks", "x_star"):
        if key in doc and isinstance(doc[key], list):
            doc[key] = tuple(doc[key])
    return cls(**doc)


def _child_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def _train_clocked(state, target, tcfg: tr.TrainConfig):
    start = time.perf_counter()
    trace = tr.train(state, target, tcfg)
    return trace.final_state, time.perf_counter() - start


def random_gaussian_target(dim: int, rng: np.random.Generator) -> orc.GaussianDist:
    """Haar-rotated covariance with log-uniform spectrum in [0.1, 10]."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
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
    else:
        target = random_gaussian_target(config.dim, target_rng)

    shape = fam.ModelShape.linear(config.dim)
    roster = []
    if not config.bimodal:
        roster.append(("map", "map", {}))
    for rank in config.ranks:
        if rank == 0:
            roster.append(("mf", "mean_field", {}))
        else:
            roster.append((f"sn{rank}", "structured_normal", {"rank": rank}))
    if config.bimodal:
        roster.append(
            (
                "sgmm",
                "mixture",
                {
                    "rank": min(config.dim, 2),
                    "components": config.gmm_components,
                    "mixture_spread": config.mixture_spread,
                },
            )
        )

    init_children = init_seq.spawn(len(roster))
    train_children = train_seq.spawn(len(roster))
    mc_children = mc_seq.spawn(len(roster) + 1)

    report = ExperimentReport(
        experiment="fit_gaussian",
        seed=config.seed,
        config=dataclasses.asdict(config),
        families=[],
    )
    fits_for_svg = []
    for i, (label, tag, kwargs) in enumerate(roster):
        state = fam.init_family(tag, shape, np.random.default_rng(init_children[i]), **kwargs)
        tcfg = tr.TrainConfig(
            steps=config.steps,
            learning_rate=config.learning_rate,
            lr_decay=config.lr_decay,
            mc_samples=config.mc_samples,
            mode="naive" if tag == "map" else config.mode,
            seed=_child_seed(train_children[i]),
        )
        metrics: dict = {}
        runtime = None
        try:
            fitted, runtime = _train_clocked(state, target, tcfg)
            metrics.update(
                _density_fit_metrics(
                    target, fitted, config.kl_mc_samples, mc_children[i], tcfg
                )
            )
            if isinstance(fitted, (fam.MeanFieldState, fam.StructuredNormalState)):
                mean, cov = fam.dense_moments(fitted)
                fits_for_svg.append({"mean": mean.tolist(), "cov": cov.tolist()})
        except tr.TrainingError as err:
            print(f"[fit-gaussian] {label} failed: {err}", file=sys.stderr)
        rank = kwargs.get("rank", 0 if tag == "mean_field" else None)
        report.families.append(
            FamilyResult(family=label, rank=rank, metrics=metrics, runtime_s=runtime)
        )

    # Dropout cannot fit a bare density target; report the row as n/a.
    if not config.bimodal:
        report.families.insert(
            1, FamilyResult(family="mc_dropout", rank=None, metrics={})
        )

    if config.dim == 2 and not config.bimodal:
        report.extras["isolines"] = {
            "target_mean": target.mean.tolist(),
            "target_cov": target.cov.tolist(),
            "fits": fits_for_svg,
        }
    return report


def _density_fit_metrics(target, fitted, n_mc, mc_seq, tcfg) -> dict:
    """KL both ways plus an ELBO figure for one fitted family."""
    rng = np.random.default_rng(mc_seq)
    metrics: dict = {}
    gaussian_target = isinstance(target, orc.GaussianDist)
    if isinstance(fitted, fam.MapState):
        metrics["kl_p_q"] = math.inf
        metrics["kl_q_p"] = math.inf
        metrics["elbo"] = float(target.log_density(fitted.theta_hat))
        return metrics
    if isinstance(fitted, (fam.MeanFieldState, fam.StructuredNormalState)) and gaussian_target:
        q = orc.family_to_gaussian(fitted)
        metrics["kl_p_q"] = orc.kl_gaussian_gaussian(target, q)
        metrics["kl_q_p"] = orc.kl_gaussian_gaussian(q, target)
        metrics["elbo"] = -metrics["kl_q_p"]
        return metrics
    kl_pq, _ = orc.kl_p_to_family_mc(target, fitted, n_mc, rng)
    kl_qp, _ = orc.kl_family_to_target_mc(fitted, target, n_mc, rng)
    metrics["kl_p_q"] = kl_pq
    metrics["kl_q_p"] = kl_qp
    metrics["elbo"] = -kl_qp
    return metrics


# ---------------------------------------------------------------------------
# rbf


def cmd_rbf(config: RbfConfig) -> ExperimentReport:
    root = np.random.SeedSequence(config.seed)
    data_seq, init_seq, train_seq, mc_seq = root.spawn(4)

    spec = mod.RbfModelSpec.regular(config.n_basis, noise_sigma=config.noise_sigma)
    problem, truth = mod.make_rbf_dataset(spec, config.n_data, seed=_child_seed(data_seq))
    posterior = orc.exact_linear_posterior(problem)
    evidence = orc.log_evidence(problem)
    shape = problem.model_shape()

    roster = [("map", "map", {}), ("mc_dropout", "mc_dropout", {"keep_prob": config.keep_prob})]
    for rank in config.ranks:
        if rank == 0:
            roster.append(("mf", "mean_field", {}))
        else:
            roster.append((f"sn{rank}", "structured_normal", {"rank": rank}))

    init_children = init_seq.spawn(len(roster))
    train_children = train_seq.spawn(len(roster))
    mc_children = mc_seq.spawn(len(roster))

    report = ExperimentReport(
        experiment="rbf",
        seed=config.seed,
        config=dataclasses.asdict(config),
        families=[],
        extras={"evidence": evidence, "theta_star": truth.theta_star.tolist()},
    )
    dropout_state = None
    for i, (label, tag, kwargs) in enumerate(roster):
        state = fam.init_family(tag, shape, np.random.default_rng(init_children[i]), **kwargs)
        tcfg = tr.TrainConfig(
            steps=config.steps,
            learning_rate=config.learning_rate,
            lr_decay=config.lr_decay,
            mc_samples=config.mc_samples,
            mode="naive" if tag in fam.ATOMIC_TAGS else config.mode,
            seed=_child_seed(train_children[i]),
        )
        metrics: dict = {}
        runtime = None
        try:
            fitted, runtime = _train_clocked(state, problem, tcfg)
            metrics = _posterior_fit_metrics(
                problem, posterior, evidence, truth.theta_star, fitted, tcfg, mc_children[i]
            )
            if isinstance(fitted, fam.DropoutState):
                dropout_state = fitted
        except tr.TrainingError as err:
            print(f"[rbf] {label} failed: {err}", file=sys.stderr)
        rank = kwargs.get("rank", 0 if tag == "mean_field" else None)
        report.families.append(
            FamilyResult(family=label, rank=rank, metrics=metrics, runtime_s=runtime)
        )

    if dropout_state is not None and dropout_state.n_droppable <= fam.DROPOUT_ENUMERATION_LIMIT:
        report.extras["dropout_curves"] = _dropout_curves(
            problem, truth, dropout_state, config.grid_points
        )
    return report


def _posterior_fit_metrics(
    problem, posterior, evidence, theta_star, fitted, tcfg, mc_seq
) -> dict:
    metrics: dict = {}
    metrics["logq_theta_star"] = orc.log_density_of_truth(fitted, theta_star)
    if isinstance(fitted, (fam.MeanFieldState, fam.StructuredNormalState)):
        q = orc.family_to_gaussian(fitted)
        metrics["kl_p_q"] = orc.kl_gaussian_gaussian(posterior, q)
        metrics["kl_q_p"] = orc.kl_gaussian_gaussian(q, posterior)
        metrics["elbo"] = orc.exact_gaussian_elbo(problem, q)
    else:
        metrics["kl_p_q"] = math.inf
        metrics["kl_q_p"] = math.inf
        est = tr.elbo_estimate(fitted, problem, tcfg, np.random.default_rng(mc_seq))
        metrics["elbo"] = est.total
    metrics["evidence_gap"] = evidence - metrics["elbo"]
    return metrics


def _dropout_curves(problem, truth, state: fam.DropoutState, grid_points: int) -> dict:
    mixture = fam.enumerate_dropout(state)
    grid = np.linspace(mod.DATA_INTERVAL[0], mod.DATA_INTERVAL[1], grid_points)
    features = problem.features(grid)
    return {
        "x": grid.tolist(),
        "weights": mixture.weights.tolist(),
        "curves": (mixture.atoms @ features.T).tolist(),
        "truth": (features @ truth.theta_star).tolist(),
        "data_x": problem.inputs.tolist(),
        "data_t": problem.targets.tolist(),
    }


# ---------------------------------------------------------------------------
# dropout-audit


def cmd_dropout_audit(config: DropoutAuditConfig) -> ExperimentReport:
    if config.n_droppable > fam.DROPOUT_ENUMERATION_LIMIT:
        raise ValueError(
            f"n_droppable exceeds the enumeration guard ({fam.DROPOUT_ENUMERATION_LIMIT})"
        )
    root = np.random.SeedSequence(config.seed)
    data_seq, init_seq, train_seq, mc_seq = root.spawn(4)

    spec = mod.RbfModelSpec.regular(config.n_droppable, noise_sigma=config.noise_sigma)
    problem, truth = mod.make_rbf_dataset(spec, config.n_data, seed=_child_seed(data_seq))
    state = fam.init_family(
        "mc_dropout",
        problem.model_shape(),
        np.random.default_rng(init_seq),
        keep_prob=config.keep_prob,
    )
    tcfg = tr.TrainConfig(
        steps=config.steps,
        learning_rate=config.learning_rate,
        lr_decay=config.lr_decay,
        mc_samples=config.mc_samples,
        mode="naive",
        seed=_child_seed(train_seq),
    )
    fitted, runtime = _train_clocked(state, problem, tcfg)

    x_star = np.asarray(config.x_star)
    exact = orc.dropout_predictive_exact(fitted, problem, x_star)

    rng = np.random.default_rng(mc_seq)
    batch = fam.sample(fitted, "naive", config.mc_draws, rng)
    mc_preds = batch.draws @ problem.features(x_star).T
    mc_noise = rng.standard_normal(mc_preds.shape) * problem.noise_sigma
    mc_samples_y = mc_preds + mc_noise
    mc_mean = mc_samples_y.mean(axis=0)
    mc_var = mc_samples_y.var(axis=0, ddof=1)
    mean_se = mc_samples_y.std(axis=0, ddof=1) / math.sqrt(config.mc_draws)

    report = ExperimentReport(
        experiment="dropout_audit",
        seed=config.seed,
        config=dataclasses.asdict(config),
        families=[
            FamilyResult(family="mc_dropout", rank=None, metrics={}, runtime_s=runtime)
        ],
        extras={
            "n_atoms": exact.weights.size,
            "weight_sum": float(exact.weights.sum()),
            "map_atom_weight": config.keep_prob**fitted.n_droppable,
            "x_star": x_star.tolist(),
            "exact_mean": exact.mean().tolist(),
            "exact_variance": exact.variance().tolist(),
            "mc_mean": mc_mean.tolist(),
            "mc_variance": mc_var.tolist(),
            "mc_mean_std_error": mean_se.tolist(),
            "mean_z_scores": ((mc_mean - exact.mean()) / mean_se).tolist(),
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
        help="comma-separated outputs: json,csv,svg",
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


def run_command(args) -> ExperimentReport:
    overrides = {"seed": args.seed}
    if args.command == "fit-gaussian":
        overrides["bimodal"] = args.bimodal
        config = _load_config(FitGaussianConfig, args.config, overrides)
        return cmd_fit_gaussian(config)
    if args.command == "rbf":
        config = _load_config(RbfConfig, args.config, overrides)
        return cmd_rbf(config)
    if args.command == "dropout-audit":
        config = _load_config(DropoutAuditConfig, args.config, overrides)
        return cmd_dropout_audit(config)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    formats = tuple(s.strip() for s in args.formats.split(",") if s.strip())
    try:
        unknown = set(formats) - {"json", "csv", "svg"}
        if unknown:
            raise ValueError(f"unknown output formats: {sorted(unknown)}")
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
