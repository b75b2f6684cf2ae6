"""CLI harness tests: reports, determinism, emission formats."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import vifit.cli as cli
from vifit.reports import (
    CSV_COLUMNS,
    ExperimentReport,
    FamilyResult,
    emit_report,
    fmt_metric,
)

SMALL_FG = {"dim": 3, "ranks": [0, 1, 3], "steps": 250, "kl_mc_samples": 5000}
SMALL_RBF = {"n_basis": 4, "n_data": 30, "ranks": [0, 4], "steps": 250, "grid_points": 21}
SMALL_AUDIT = {"n_droppable": 5, "steps": 120, "mc_draws": 5000}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as JSON does."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


# -----------------------------------------------------------------------
# metric formatting


def test_metric_cell_grammar():
    assert fmt_metric(None) == "na"
    assert fmt_metric(math.inf) == "inf"
    assert fmt_metric(-math.inf) == "-inf"
    assert fmt_metric(1.5) == "1.5"
    with pytest.raises(ValueError):
        fmt_metric(math.nan)


def test_empty_report_is_valid(tmp_path):
    report = ExperimentReport(experiment="empty", seed=0, config={})
    paths = emit_report(report, tmp_path, ("json", "csv"))
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["families"] == []
    csv_lines = (tmp_path / "tables.csv").read_text().strip().splitlines()
    assert csv_lines == [",".join(CSV_COLUMNS)]
    assert len(paths) == 2


def test_report_json_round_trip(tmp_path):
    report = ExperimentReport(
        experiment="demo",
        seed=7,
        config={"alpha": 1},
        families=[
            FamilyResult(
                family="map",
                rank=None,
                metrics={"kl_p_q": math.inf, "elbo": -1.25, "logq_theta_star": None},
                runtime_s=0.5,
            )
        ],
        extras={"note": [1, 2, 3], "spread": {"x": [math.inf, -math.inf]}},
    )
    emit_report(report, tmp_path, ("json",))
    doc = strict_json((tmp_path / "report.json").read_text())
    assert doc == report.to_json_dict()
    assert doc["families"][0]["metrics"] == {
        "kl_p_q": "inf", "elbo": "-1.25", "logq_theta_star": "na"
    }
    assert doc["families"][0]["runtime_s"] == 0.5
    assert doc["extras"] == {"note": [1, 2, 3], "spread": {"x": ["inf", "-inf"]}}


def test_report_json_stays_strict_when_the_audit_overflows(tmp_path):
    # One step at this rate puts θ̂ near 1e200: the predictive variances
    # overflow, and report.json still holds only standard JSON.
    cfg = write_config(tmp_path, {"learning_rate": 1e200, "steps": 1, "mc_draws": 1000})
    with np.errstate(all="ignore"):
        assert cli.main(["dropout-audit", "--config", cfg, "--out", str(tmp_path)]) == 0
    extras = strict_json((tmp_path / "report.json").read_text())["extras"]
    for key in ("exact_variance", "mc_variance", "mc_mean_std_error"):
        assert extras[key] == ["inf"] * 5, key


def test_csv_cells_are_well_formed(tmp_path):
    config = cli._load_config(cli.FitGaussianConfig, None, dict(SMALL_FG, seed=1))
    report = cli.cmd_fit_gaussian(config)
    emit_report(report, tmp_path, ("csv",))
    lines = (tmp_path / "tables.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(report.families)
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(CSV_COLUMNS)
        for cell in cells[2:]:
            assert cell in ("inf", "-inf", "na") or np.isfinite(float(cell))


def test_importing_the_cli_loads_no_scipy():
    # Every factorization goes through numpy's LAPACK; scipy's import alone
    # would cost more start-up time than the rest of vifit's.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, vifit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# -----------------------------------------------------------------------
# subcommands


def test_fit_gaussian_rows(tmp_path):
    config = cli._load_config(cli.FitGaussianConfig, None, dict(SMALL_FG, seed=2))
    report = cli.cmd_fit_gaussian(config)
    rows = {f.family: f for f in report.families}
    assert rows["map"].metrics["kl_p_q"] == math.inf
    assert rows["mc_dropout"].metrics == {}  # n/a row: no native density fit
    assert rows["mf"].rank == 0
    # rank 0 equals mean-field; rank 3 is the full-rank family here
    assert math.isfinite(rows["sn3"].metrics["kl_p_q"])
    assert rows["sn3"].metrics["kl_p_q"] <= rows["mf"].metrics["kl_p_q"]


def test_rbf_rows_and_curve_data(tmp_path):
    config = cli._load_config(cli.RbfConfig, None, dict(SMALL_RBF, seed=3))
    report = cli.cmd_rbf(config)
    rows = {f.family: f for f in report.families}
    for atomic in ("map", "mc_dropout"):
        assert rows[atomic].metrics["logq_theta_star"] == -math.inf
        assert rows[atomic].metrics["kl_p_q"] == math.inf
    for gaussian in ("mf", "sn4"):
        assert math.isfinite(rows[gaussian].metrics["logq_theta_star"])
    curves = report.figures["dropout_curves"]
    assert len(curves["curves"]) == 2**4
    assert math.isclose(sum(curves["weights"]), 1.0, abs_tol=1e-12)


def test_report_json_carries_results_not_figures():
    config = cli._load_config(cli.RbfConfig, None, dict(SMALL_RBF, seed=3))
    report = cli.cmd_rbf(config)
    assert "dropout_curves" in report.figures
    doc = report.to_json_dict()
    assert set(doc) == {"experiment", "seed", "config", "families", "extras", "environment"}
    assert "dropout_curves" not in doc["extras"]
    assert doc["environment"]["numpy"] == np.__version__
    assert {"name", "version"} <= set(doc["environment"]["lapack"])
    # Figures and environment take no part in the comparison.
    assert dataclasses.replace(report, figures={}, environment={}) == report


def test_dropout_curves_rebuild_from_report_json(tmp_path, monkeypatch):
    # report.json keeps the fitted dropout state the curves come from, so
    # the figure can be redrawn from the file without retraining.
    datasets = []
    make_rbf_dataset = cli.mod.make_rbf_dataset

    def recording(*args, **kwargs):
        datasets.append(make_rbf_dataset(*args, **kwargs))
        return datasets[-1]

    monkeypatch.setattr(cli.mod, "make_rbf_dataset", recording)
    config = cli._load_config(cli.RbfConfig, None, dict(SMALL_RBF, seed=5))
    report = cli.cmd_rbf(config)
    emit_report(report, tmp_path, ("json",))
    doc = json.loads((tmp_path / "report.json").read_text())
    state = cli.fam.state_from_json(json.dumps(doc["extras"]["dropout_state"]))
    assert isinstance(state, cli.fam.DropoutState)
    (problem, truth), = datasets
    rebuilt = cli._dropout_curves(problem, truth, state, config.grid_points)
    figure = report.figures["dropout_curves"]
    assert rebuilt.keys() == figure.keys()
    for key, value in figure.items():
        assert np.array_equal(rebuilt[key], value), key


def test_default_rbf_report_json_is_small(tmp_path):
    # 2^10 atoms × 101 grid points of curves stay out of report.json.
    assert cli.main(["rbf", "--out", str(tmp_path), "--formats", "json"]) == 0
    assert (tmp_path / "report.json").stat().st_size < 16 * 1024


def test_monte_carlo_kl_standard_errors_reported(tmp_path):
    cfg = write_config(tmp_path, dict(SMALL_FG, steps=50))
    out = tmp_path / "o"
    assert cli.main(["fit-gaussian", "--bimodal", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert [f["family"] for f in doc["families"]] == ["mf", "sn1", "sn3", "sgmm"]
    for row in doc["families"]:
        for key in ("kl_p_q_se", "kl_q_p_se"):
            se = float(row["metrics"][key])
            assert math.isfinite(se) and se > 0, (row["family"], key)
    # tables.csv keeps its columns; the errors live in report.json only.
    header = (out / "tables.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_dropout_audit_report(monkeypatch):
    calls = []
    enumerate_dropout = cli.fam.enumerate_dropout

    def counting(state):
        calls.append(1)
        return enumerate_dropout(state)

    monkeypatch.setattr(cli.fam, "enumerate_dropout", counting)
    config = cli._load_config(cli.DropoutAuditConfig, None, dict(SMALL_AUDIT, seed=4))
    report = cli.cmd_dropout_audit(config)
    extras = report.extras
    assert len(calls) == 1  # the exact predictive's enumeration serves the counts too
    assert extras["n_atoms"] == 32
    assert math.isclose(extras["weight_sum"], 1.0, abs_tol=1e-12)
    assert math.isclose(extras["map_atom_weight"], 0.5**5, rel_tol=1e-12)
    assert np.all(np.abs(extras["mean_z_scores"]) < 4)


def test_degenerate_member_fails_alone(tmp_path, monkeypatch):
    init_family = cli.fam.init_family

    def init_with_singular_sn2(tag, p, rng, **kwargs):
        state = init_family(tag, p, rng, **kwargs)
        if kwargs.get("rank") == 2:
            # Two equal columns of length 2^30 with a = 1: 1 + x == x inside
            # the capacitance I + UᵀA⁻¹U, so its factorization fails at step 0.
            state.log_a[:] = 0.0
            state.u[:] = 0.0
            state.u[0, :] = 2.0**30
        return state

    monkeypatch.setattr(cli.fam, "init_family", init_with_singular_sn2)
    cfg = write_config(tmp_path, dict(SMALL_RBF, ranks=[0, 2, 4]))
    assert cli.main(["rbf", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "tables.csv").read_text().strip().splitlines()[1:]
    rows = {line.split(",")[0]: line.split(",")[2:6] for line in lines}
    assert sorted(rows) == ["map", "mc_dropout", "mf", "sn2", "sn4"]
    assert rows["sn2"] == ["na"] * 4
    for family in ("mf", "sn4"):
        assert all(math.isfinite(float(cell)) for cell in rows[family]), family


def test_member_with_singular_fitted_covariance_fails_alone(tmp_path, capsys, monkeypatch):
    train = cli.tr.train

    def train_to_singular_sn2(state, target, config):
        trace = train(state, target, config)
        fitted = trace.final_state
        if getattr(fitted, "rank", None) == 2:
            # With a = 1e-300, diag(a) + UUᵀ rounds to UUᵀ, of rank 2 < P = 4:
            # the dense audit's Cholesky factorization meets a zero pivot.
            fitted.log_a[:] = math.log(1e-300)
            fitted.u[:] = np.tile(np.eye(2), (2, 1))
        return trace

    monkeypatch.setattr(cli.tr, "train", train_to_singular_sn2)
    cfg = write_config(tmp_path, dict(SMALL_RBF, ranks=[0, 2, 4]))
    assert cli.main(["rbf", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "[rbf] sn2 failed: " in capsys.readouterr().err
    lines = (tmp_path / "o" / "tables.csv").read_text().strip().splitlines()[1:]
    rows = {line.split(",")[0]: line.split(",")[2:6] for line in lines}
    assert sorted(rows) == ["map", "mc_dropout", "mf", "sn2", "sn4"]
    assert rows["sn2"] == ["na"] * 4
    for family in ("mf", "sn4"):
        assert all(math.isfinite(float(cell)) for cell in rows[family]), family


@pytest.mark.parametrize(
    "command,small", [("fit-gaussian", SMALL_FG), ("rbf", SMALL_RBF)], ids=["fit-gaussian", "rbf"]
)
def test_nonfinite_fitted_state_fails_only_its_member(
    tmp_path, capsys, monkeypatch, command, small
):
    # A NaN in a fitted sN mean is caught once, before any audit: that row
    # is empty, and every other row is the clean run's, byte for byte.
    cfg = write_config(tmp_path, small)

    def rows(out):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 0
        lines = (tmp_path / out / "tables.csv").read_text().splitlines()[1:]
        return {line.split(",")[0]: line for line in lines}

    clean = rows("clean")
    train = cli.tr.train

    def train_to_nan(state, target, config):
        trace = train(state, target, config)
        if trace.final_state.tag == "structured_normal" and trace.final_state.rank > 0:
            trace.final_state.mu[0] = np.nan
        return trace

    monkeypatch.setattr(cli.tr, "train", train_to_nan)
    capsys.readouterr()
    poisoned = rows("nan")
    err = capsys.readouterr().err
    assert sorted(poisoned) == sorted(clean)
    assert any(label.startswith("sn") for label in clean)
    for label, line in clean.items():
        if label.startswith("sn"):
            assert poisoned[label].split(",")[2:] == ["na"] * 5, label
            assert f"] {label} failed: fitted state is not finite in psi blocks mu" in err
        else:
            assert poisoned[label] == line, label


@pytest.mark.parametrize("lr", [1000, 1e100, 1e200, 1e300])
@pytest.mark.parametrize(
    "argv", [["fit-gaussian"], ["fit-gaussian", "--bimodal"], ["rbf"]], ids=" ".join
)
def test_overflowed_fit_fails_only_its_member(tmp_path, argv, lr):
    # One Adam step at this rate overflows exp(log σ), or the audit's draws,
    # while psi stays finite: each Gaussian member's audit fails alone.
    cfg = write_config(tmp_path, {"learning_rate": lr, "steps": 1})
    with np.errstate(all="ignore"):
        assert cli.main([*argv, "--config", cfg, "--out", str(tmp_path)]) == 0
    strict_json((tmp_path / "report.json").read_text())
    lines = (tmp_path / "tables.csv").read_text().splitlines()[1:]
    rows = {line.split(",")[0]: line.split(",")[2:6] for line in lines}
    gaussian = [label for label in rows if label not in ("map", "mc_dropout")]
    assert gaussian
    for label in gaussian:
        assert rows[label] == ["na"] * 4, label


def _point_mass_mf(state):
    # exp(−400)² underflows to 0: a point mass in float64.
    state.log_sigma[:] = -400.0


def _point_mass_sn(state):
    # exp(−800) is 0 and U = 0: a point mass; C = I + Uᵀ(U/a) is 0/0.
    state.log_a[:] = -800.0
    state.u[:] = 0.0


def _zero_diagonal_sn(state):
    # a = 0 under U = I: Σ = I, but C = I + Uᵀ(U/a) is not finite.
    state.log_a[:] = -800.0
    state.u[:] = np.eye(state.dim)


def _point_mass_component(state):
    _point_mass_sn(state.components[0])


def _nan_mean_mf(state):
    state.mu[0] = np.nan


@pytest.mark.parametrize(
    "label,degrade,outcome",
    [
        ("mf", _point_mass_mf, "inf"),
        ("sn3", _point_mass_sn, "inf"),
        ("sn3", _zero_diagonal_sn, "failed"),
        ("sgmm", _point_mass_component, "failed"),
        ("mf", _nan_mean_mf, "failed"),
    ],
)
def test_degenerate_q_in_mc_kl_audit(tmp_path, capsys, monkeypatch, label, degrade, outcome):
    # A q whose variance underflows to 0 is a float64 point mass: both KLs
    # are infinite.  Any other NaN in the audit fails that member alone.
    train = cli.tr.train
    tags = {"mf": "mean_field", "sn3": "structured_normal", "sgmm": "mixture"}

    def train_to_degenerate(state, target, config):
        trace = train(state, target, config)
        if trace.final_state.tag == tags[label]:
            degrade(trace.final_state)
        return trace

    monkeypatch.setattr(cli.tr, "train", train_to_degenerate)
    cfg = write_config(tmp_path, dict(SMALL_FG, ranks=[0, 3], steps=50))
    argv = ["fit-gaussian", "--bimodal", "--config", cfg, "--out", str(tmp_path / "o")]
    with np.errstate(all="ignore"):
        assert cli.main(argv) == 0
    failed = f"[fit-gaussian] {label} failed: " in capsys.readouterr().err
    lines = (tmp_path / "o" / "tables.csv").read_text().strip().splitlines()[1:]
    rows = {line.split(",")[0]: line.split(",")[2:4] for line in lines}
    assert sorted(rows) == ["mf", "sgmm", "sn3"]
    assert rows.pop(label) == (["inf", "inf"] if outcome == "inf" else ["na", "na"])
    assert failed == (outcome == "failed")
    for family, cells in rows.items():
        assert all(math.isfinite(float(cell)) for cell in cells), family


@pytest.mark.parametrize(
    "argv,doc,member,degrade",
    [
        (["rbf"], SMALL_RBF, ("mean_field", 0), _point_mass_mf),
        (["rbf"], SMALL_RBF, ("structured_normal", 4), _point_mass_sn),
        (["fit-gaussian"], SMALL_FG, ("mean_field", 0), _point_mass_mf),
        (["fit-gaussian"], SMALL_FG, ("structured_normal", 3), _point_mass_sn),
        (["fit-gaussian"], SMALL_FG, ("structured_normal", 3), _zero_diagonal_sn),
    ],
    ids=["rbf-mf", "rbf-sn4", "fit-gaussian-mf", "fit-gaussian-sn3", "fit-gaussian-sn3-zero-a"],
)
def test_degenerate_q_in_exact_audit_fails_alone(
    tmp_path, capsys, monkeypatch, argv, doc, member, degrade
):
    # The exact audits take q's dense covariance.  A q whose variance is 0
    # in float64 has none, so that member's row is empty and the rest stand.
    train = cli.tr.train

    def train_to_degenerate(state, target, config):
        trace = train(state, target, config)
        fitted = trace.final_state
        if (fitted.tag, getattr(fitted, "rank", 0)) == member:
            degrade(fitted)
        return trace

    monkeypatch.setattr(cli.tr, "train", train_to_degenerate)
    cfg = write_config(tmp_path, doc)
    with np.errstate(all="ignore"):
        assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 0
    label = "mf" if member[0] == "mean_field" else f"sn{member[1]}"
    assert f"] {label} failed: " in capsys.readouterr().err
    lines = (tmp_path / "o" / "tables.csv").read_text().strip().splitlines()[1:]
    # kl_p_q, kl_q_p, logq_theta_star and elbo; fit-gaussian has no θ*.
    rows = {line.split(",")[0]: line.split(",")[2:6] for line in lines}
    if argv == ["fit-gaussian"]:
        rows = {family: cells[:2] + cells[3:] for family, cells in rows.items()}
    assert rows.pop(label) == ["na"] * len(rows["map"])
    for family, cells in rows.items():
        if family in ("mf", "sn1", "sn3", "sn4"):
            assert all(math.isfinite(float(cell)) for cell in cells), family


def count_train_calls(monkeypatch) -> list:
    calls = []
    train = cli.tr.train

    def counting(state, target, config):
        calls.append(state.tag)
        return train(state, target, config)

    monkeypatch.setattr(cli.tr, "train", counting)
    return calls


@pytest.mark.parametrize(
    "argv,doc,member",
    [
        (["rbf"], {"mode": "unscented"}, "mf"),
        (["fit-gaussian", "--bimodal"], {"mode": "unscented"}, "mf"),
        (["fit-gaussian", "--bimodal"], {"mode": "unscented", "ranks": [1, 2]}, "sgmm"),
    ],
)
def test_impossible_mode_rejected_before_training(
    tmp_path, capsys, monkeypatch, argv, doc, member
):
    calls = count_train_calls(monkeypatch)
    cfg = write_config(tmp_path, doc)
    assert cli.main([*argv, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert calls == []
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ModeFamilyError"
    assert repr(member) in record["message"] and "'unscented'" in record["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["rbf"], ["fit-gaussian"], ["fit-gaussian", "--bimodal"]])
@pytest.mark.parametrize("bad", [-1, 1.5])
def test_bad_rank_rejected_before_training(tmp_path, capsys, monkeypatch, argv, bad):
    calls = count_train_calls(monkeypatch)
    cfg = write_config(tmp_path, {"ranks": [0, bad]})
    assert cli.main([*argv, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert calls == []
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "ranks" in record["message"] and repr(bad) in record["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("rbf", "mc_samples", "8"),
        ("rbf", "steps", True),
        ("rbf", "ranks", [0, True]),
        ("rbf", "mode", 3),
        ("fit-gaussian", "bimodal", 1),
        ("fit-gaussian", "learning_rate", False),
        ("fit-gaussian", "steps", 100.0),
        ("dropout-audit", "keep_prob", "0.5"),
        ("dropout-audit", "x_star", ["0.1"]),
        ("dropout-audit", "x_star", 0.1),
    ],
)
def test_config_value_of_wrong_type_rejected(command, key, value):
    assert repr(key) in assert_rejected_before_training(command, key, value, "TypeError")


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("rbf", "keep_prob", 1.5),
        ("rbf", "grid_points", 0),
        ("rbf", "grid_points", 1),
        ("rbf", "n_basis", 0),
        ("rbf", "noise_sigma", 0.0),
        ("rbf", "steps", 0),
        ("fit-gaussian", "dim", 0),
        ("fit-gaussian", "gmm_components", 0),
        ("fit-gaussian", "kl_mc_samples", 1),
        ("fit-gaussian", "target_sigma", -0.4),
        ("fit-gaussian", "mc_samples", 0),
        ("dropout-audit", "keep_prob", -0.5),
        ("dropout-audit", "mc_draws", 1),
        ("dropout-audit", "n_data", 0),
        ("dropout-audit", "n_droppable", 0),
        ("dropout-audit", "n_droppable", -3),
        ("dropout-audit", "n_droppable", 25),
        ("fit-gaussian", "mode_separation", math.nan),
        ("fit-gaussian", "target_sigma", math.inf),
        ("rbf", "learning_rate", math.inf),
        ("rbf", "noise_sigma", math.inf),
        ("dropout-audit", "lr_decay", -math.inf),
    ],
)
def test_config_value_out_of_range_rejected(command, key, value):
    message = assert_rejected_before_training(command, key, value, "ValueError")
    assert repr(key) in message and repr(value) in message


# What a valid value of each config key is, by kind and, where values of
# the right type can still be wrong, a range.  Every key of every command's
# config is listed (test_every_config_key_has_a_spec).
def at_least(m):
    return lambda v: v >= m


POSITIVE = lambda v: v > 0  # noqa: E731
PROBABILITY = lambda v: 0 <= v <= 1  # noqa: E731
TRAINING = {
    "seed": ("int", at_least(0)),
    "steps": ("int", at_least(1)),
    "learning_rate": ("float", at_least(0)),
    "lr_decay": ("float", lambda v: 0 < v <= 1),
    "mc_samples": ("int", at_least(1)),
}
CONFIG_KEYS = {
    "fit-gaussian": {
        **TRAINING,
        "dim": ("int", at_least(1)),
        "ranks": ("ranks", None),
        "mode": ("mode", None),
        "bimodal": ("bool", None),
        "gmm_components": ("int", at_least(1)),
        "mixture_spread": ("float", None),
        "mode_separation": ("float", None),
        "target_sigma": ("float", POSITIVE),
        "kl_mc_samples": ("int", at_least(2)),
    },
    "rbf": {
        **TRAINING,
        "n_basis": ("int", at_least(1)),
        "n_data": ("int", at_least(1)),
        "noise_sigma": ("float", POSITIVE),
        "ranks": ("ranks", None),
        "keep_prob": ("float", PROBABILITY),
        "mode": ("mode", None),
        "grid_points": ("int", at_least(2)),
    },
    "dropout-audit": {
        **TRAINING,
        "n_droppable": ("int", lambda v: 1 <= v <= 24),
        "keep_prob": ("float", PROBABILITY),
        "n_data": ("int", at_least(1)),
        "noise_sigma": ("float", POSITIVE),
        "x_star": ("numbers", None),
        "mc_draws": ("int", at_least(2)),
    },
}

FINITE = hst.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = hst.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_NUMBER = hst.one_of(
    hst.none(),
    hst.text(max_size=4),
    hst.lists(hst.integers(), max_size=2),
    hst.dictionaries(hst.text(max_size=2), hst.integers(), max_size=1),
)
WRONG_TYPE = {
    "int": hst.one_of(NOT_A_NUMBER, hst.booleans(), FINITE),
    "float": hst.one_of(NOT_A_NUMBER, hst.booleans()),
    "bool": hst.one_of(NOT_A_NUMBER, hst.integers(), FINITE),
    "mode": hst.one_of(
        NOT_A_NUMBER.filter(lambda v: not isinstance(v, str)), hst.booleans(), FINITE
    ),
}


def numbers_with(bad):
    """A list of numbers with one ``bad`` entry somewhere in it."""
    numbers = hst.lists(hst.one_of(hst.integers(0, 8), FINITE), max_size=2)
    return hst.tuples(numbers, bad, numbers).map(lambda t: [*t[0], t[1], *t[2]])


NOT_A_LIST = hst.one_of(hst.none(), hst.booleans(), hst.integers(), FINITE, hst.text(max_size=4))
NOT_A_LIST_ENTRY = hst.one_of(hst.none(), hst.booleans(), hst.text(max_size=3))
WRONG_TYPE["numbers"] = WRONG_TYPE["ranks"] = hst.one_of(NOT_A_LIST, numbers_with(NOT_A_LIST_ENTRY))


def out_of_range(kind, valid):
    """Values of the key's type that its range rejects, or None if it has none.

    NaN and ±inf are outside the range of every float key and list entry.
    """
    if kind == "ranks":  # nonnegative integers only
        return numbers_with(hst.one_of(hst.integers(max_value=-1), FINITE, NON_FINITE))
    if kind == "numbers":
        return numbers_with(NON_FINITE)
    if kind == "mode":
        return hst.text(max_size=10).filter(lambda v: v not in ("naive", "paired", "unscented"))
    if valid is None:
        return NON_FINITE if kind == "float" else None
    values = hst.integers(-(10**6), 10**6)
    if kind == "float":
        values = hst.one_of(hst.floats(-1e6, 1e6), values)
    values = values.filter(lambda v: not valid(v))
    return hst.one_of(NON_FINITE, values) if kind == "float" else values


def assert_rejected_before_training(command, key, value, error) -> str:
    """``command`` with config ``{key: value}`` exits 1 with ``error`` naming
    the key, before any training and without an output directory; returns
    the message."""
    calls = []

    def train(state, *_):
        calls.append(state.tag)
        raise AssertionError("training started")

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli.tr, "train", train):
        cfg = write_config(Path(tmp), {key: value})
        out = Path(tmp) / "o"
        argv = [command, "--config", cfg, "--out", str(out), "--formats", "json,csv,svg"]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert cli.main(argv) == 1
        assert calls == []
        assert not out.exists()
    record = json.loads(stderr.getvalue().strip().splitlines()[-1])
    assert record["error"] == error, record
    assert key in record["message"], record
    return record["message"]


def test_every_config_key_has_a_spec():
    for command, keys in CONFIG_KEYS.items():
        config_cls = cli.COMMANDS[command][0]
        assert set(keys) == {f.name for f in dataclasses.fields(config_cls)}, command


@pytest.mark.parametrize(
    "command,key", [(command, key) for command, keys in CONFIG_KEYS.items() for key in keys]
)
def test_generated_bad_config_value_rejected(command, key):
    kind, valid = CONFIG_KEYS[command][key]
    cases = hst.tuples(hst.just("TypeError"), WRONG_TYPE[kind])
    bad_range = out_of_range(kind, valid)
    if bad_range is not None:
        cases = hst.one_of(cases, hst.tuples(hst.just("ValueError"), bad_range))

    @settings(max_examples=15)
    @given(cases)
    def check(case):
        error, value = case
        assert_rejected_before_training(command, key, value, error)

    check()


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"rbf"', "null"])
def test_config_file_that_is_not_an_object_rejected(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["rbf", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "must hold a JSON object" in record["message"]
    assert not (tmp_path / "o").exists()


def test_config_accepts_int_for_float_and_list_for_tuple():
    config = cli._load_config(cli.DropoutAuditConfig, None, {"keep_prob": 1, "x_star": [0, 0.5]})
    assert config.keep_prob == 1 and config.x_star == (0, 0.5)


def test_unscented_roster_of_structured_members_runs(tmp_path, monkeypatch):
    calls = count_train_calls(monkeypatch)
    cfg = write_config(tmp_path, dict(SMALL_RBF, ranks=[1, 2], mode="unscented"))
    assert cli.main(["rbf", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    # The atomic members keep their forced naive mode.
    assert calls == ["map", "mc_dropout", "structured_normal", "structured_normal"]
    lines = (tmp_path / "o" / "tables.csv").read_text().strip().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == ["map", "mc_dropout", "sn1", "sn2"]


def test_audit_guard_rejected():
    with pytest.raises(ValueError, match="guard"):
        cli.cmd_dropout_audit(cli.DropoutAuditConfig(n_droppable=30))


# -----------------------------------------------------------------------
# main() behaviour


@pytest.mark.parametrize(
    "command,small",
    [
        ("fit-gaussian", SMALL_FG),
        ("rbf", SMALL_RBF),
        ("dropout-audit", SMALL_AUDIT),
    ],
)
def test_rerun_is_byte_identical(tmp_path, command, small):
    cfg = write_config(tmp_path, small)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(
            [command, "--config", cfg, "--seed", "9", "--out", str(out), "--formats", "json,csv"]
        )
        assert rc == 0
        outs.append((out / "tables.csv").read_bytes())
    assert outs[0] == outs[1]


BOUNDARY_RUNS = [
    *(
        pytest.param([command], dict(small, **{key: value}), id=f"{command}-{key}={value}")
        for command, small in (("rbf", SMALL_RBF), ("dropout-audit", SMALL_AUDIT))
        for key, value in (("steps", 1), ("lr_decay", 1), ("keep_prob", 0), ("keep_prob", 1))
    ),
    pytest.param(
        ["fit-gaussian", "--bimodal"], dict(SMALL_FG, steps=1), id="fit-gaussian-bimodal-steps=1"
    ),
]


@pytest.mark.parametrize("argv,doc", BOUNDARY_RUNS)
def test_boundary_config_runs_end_to_end(tmp_path, argv, doc):
    # The edges of each valid range: one step, no decay, every unit
    # always dropped or always kept.
    cfg = write_config(tmp_path, doc)
    tables = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main([*argv, "--config", cfg, "--out", str(out), "--formats", "json,csv,svg"])
        assert rc == 0
        tables.append((out / "tables.csv").read_bytes())
    assert tables[0] == tables[1]
    for line in tables[0].decode().strip().splitlines()[1:]:
        for cell in line.split(",")[1:]:
            assert cell in ("inf", "-inf", "na") or math.isfinite(float(cell)), line


def test_svg_emission(tmp_path):
    cfg = write_config(tmp_path, SMALL_RBF)
    out = tmp_path / "svg_out"
    rc = cli.main(
        ["rbf", "--config", cfg, "--seed", "1", "--out", str(out), "--formats", "json,csv,svg"]
    )
    assert rc == 0
    svg = (out / "posterior_atoms.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2**4 + 1  # one per atom plus the truth line
    assert "dropout_curves" not in (out / "report.json").read_text()


def test_isolines_svg_for_2d_target(tmp_path):
    cfg = write_config(
        tmp_path, {"dim": 2, "ranks": [0, 2], "steps": 200, "kl_mc_samples": 2000}
    )
    out = tmp_path / "iso_out"
    rc = cli.main(
        ["fit-gaussian", "--config", cfg, "--seed", "2", "--out", str(out), "--formats", "json,svg"]
    )
    assert rc == 0
    assert (out / "posterior_isolines.svg").exists()


def test_unknown_format_fails_with_error_record(tmp_path, capsys):
    rc = cli.main(["rbf", "--out", str(tmp_path), "--formats", "json,bogus"])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, {"not_a_key": 1})
    rc = cli.main(["rbf", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "not_a_key" in record["message"]


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, dict(SMALL_AUDIT, seed=1))
    out_a, out_b, out_c = (tmp_path / n for n in ("sa", "sb", "sc"))
    assert cli.main(["dropout-audit", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["dropout-audit", "--config", cfg, "--seed", "2", "--out", str(out_b)]) == 0
    assert cli.main(["dropout-audit", "--config", cfg, "--seed", "1", "--out", str(out_c)]) == 0
    a = json.loads((out_a / "report.json").read_text())
    b = json.loads((out_b / "report.json").read_text())
    c = json.loads((out_c / "report.json").read_text())
    assert a["extras"]["exact_mean"] != b["extras"]["exact_mean"]
    assert a["extras"]["exact_mean"] == c["extras"]["exact_mean"]
