"""CLI harness tests: reports, determinism, emission formats."""

import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    figure = report.figures["dropout_predictive"]()
    for key in ("x", "mean", "sd", "truth"):
        assert figure[key].shape == (config.grid_points,), key
    assert np.all(figure["sd"] >= config.noise_sigma)  # the noise is in the spread


def test_report_json_carries_results_not_figures():
    config = cli._load_config(cli.RbfConfig, None, dict(SMALL_RBF, seed=3))
    report = cli.cmd_rbf(config)
    assert "dropout_predictive" in report.figures
    doc = report.to_json_dict()
    assert set(doc) == {"experiment", "seed", "config", "families", "extras", "environment"}
    assert "dropout_predictive" not in doc["extras"]
    assert doc["environment"]["numpy"] == np.__version__
    assert {"name", "version"} <= set(doc["environment"]["lapack"])
    # Figures and environment take no part in the comparison.
    assert dataclasses.replace(report, figures={}, environment={}) == report


def test_dropout_predictive_rebuilds_from_report_json(tmp_path, monkeypatch):
    # report.json keeps the fitted dropout state the predictive comes from,
    # so the figure can be redrawn from the file without retraining.
    datasets = []
    make_rbf_dataset = cli.mod.make_rbf_dataset

    def recording(*args, **kwargs):
        datasets.append(make_rbf_dataset(*args, **kwargs))
        return datasets[-1]

    monkeypatch.setattr(cli.mod, "make_rbf_dataset", recording)
    config = cli._load_config(cli.RbfConfig, None, dict(SMALL_RBF, seed=5))
    report = cli.cmd_rbf(config)
    emit_report(report, tmp_path, ("json",))
    doc = json.loads((tmp_path / "report.json").read_text())["extras"]["dropout_state"]
    state = cli.fam.DropoutState(
        theta_hat=np.array(doc["theta_hat"]),
        keep_prob=doc["keep_prob"],
        droppable=np.array(doc["droppable"], dtype=bool),
    )
    (problem, truth), = datasets
    rebuilt = cli._dropout_predictive(problem, truth, state, config.grid_points)
    figure = report.figures["dropout_predictive"]()
    assert rebuilt.keys() == figure.keys()
    for key, value in figure.items():
        np.testing.assert_array_equal(rebuilt[key].view(np.int64), value.view(np.int64), key)


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
    # Only the sGMM is audited by Monte Carlo; a Gaussian member's KLs are
    # exact, as on the unimodal target, and an exact value has no error.
    *gaussians, sgmm = doc["families"]
    for key in ("kl_p_q_se", "kl_q_p_se"):
        se = float(sgmm["metrics"][key])
        assert math.isfinite(se) and se > 0, key
    for row in gaussians:
        assert sorted(row["metrics"]) == ["elbo", "kl_p_q", "kl_q_p"], row["family"]
        assert all(math.isfinite(float(value)) for value in row["metrics"].values())
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


def test_dropout_audit_standard_error_is_the_monte_carlo_variance_over_n():
    # The mean's standard error over n draws is √(variance / n), so
    # n · se² = mc_variance; dividing by √(n − 1) would be off by 1/(n − 1).
    config = cli._load_config(cli.DropoutAuditConfig, None, dict(SMALL_AUDIT, seed=2))
    extras = cli.cmd_dropout_audit(config).extras
    n = config.mc_draws
    se, variance = np.array(extras["mc_mean_std_error"]), np.array(extras["mc_variance"])
    np.testing.assert_allclose(n * se**2, variance, rtol=1e-12, atol=0)


def test_dropout_predictions_equal_the_whole_batch_bit_for_bit():
    # 2·BLOCK_ROWS + 1 draws: the last block is BLOCK_ROWS + 1 rows, never a
    # lone row (see fam.row_blocks).  So mc_mean, mc_variance and the Monte-
    # Carlo side of mean_z_scores are what the whole (n, P) batch gave.
    n = 2 * cli.fam.BLOCK_ROWS + 1
    rng = np.random.default_rng(5)
    state = cli.fam.DropoutState(
        theta_hat=rng.standard_normal(12), keep_prob=0.7, droppable=rng.random(12) < 0.8
    )
    features = rng.standard_normal((5, 12))
    streamed = cli._dropout_predictions(state, features, n, np.random.default_rng(6))
    whole = cli.fam.sample(state, "naive", n, np.random.default_rng(6)).draws @ features.T
    assert streamed.shape == (n, 5)
    np.testing.assert_array_equal(streamed.view(np.int64), whole.view(np.int64))


@given(
    hst.sampled_from([2, 3, 8, 9, 1000, 8193, 100_001]) | hst.integers(2, 300),
    hst.integers(1, 7),
    hst.floats(-8.0, 8.0),
    hst.floats(-1e3, 1e3),
    hst.integers(0, 2**16),
)
@example(100_001, 3, 8.0, 1e3, 0)
@example(3, 1, -8.0, 0.0, 1)
def test_variance_in_place_is_ndarray_var_bit_for_bit(n, d, log_scale, offset, seed):
    # From (2, 1) to (100001, 7) samples at scales 1e-8 to 1e8, some far
    # from zero, so that the deviations cancel most of their digits.
    samples = (np.random.default_rng(seed).standard_normal((n, d)) + offset) * 10.0**log_scale
    want = samples.var(axis=0, ddof=1)
    got = cli._variance_in_place(samples, samples.mean(axis=0))
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def traced_peak(command, config):
    """``command(config)``'s report and its traced Python-heap peak in bytes,
    numpy's buffers included; the peak does not depend on the host."""
    tracemalloc.start()
    try:
        report = command(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_dropout_audit_memory_does_not_grow_with_the_atoms():
    # Traced peak at 2^20 atoms and 10⁵ Monte-Carlo draws: the (10⁵, 5)
    # predictions, 4 MB, plus one block of masks, their uniforms and
    # draws; 7.5 MB in all.  No array has 2^20 rows, and no mask or uniform
    # array has 10⁵.  The variance squares the predictions' deviations in
    # place: ndarray.var's second (10⁵, 5) array made the peak 8.2 MB.  A
    # first call in the process reads 0.75 MB more, so the traced call is
    # the second.
    config = cli._load_config(
        cli.DropoutAuditConfig, None, {"n_droppable": 20, "steps": 5, "seed": 1}
    )
    cli.cmd_dropout_audit(config)
    report, peak = traced_peak(cli.cmd_dropout_audit, config)
    assert report.extras["n_atoms"] == 2**20
    assert peak < 7.8e6


def test_bimodal_fit_memory_holds_no_audit_sized_noise():
    # Traced peak of fit-gaussian --bimodal (P = 8): 21.3 MB, all of it in
    # the sGMM's 200k-draw KL[q‖p], mostly its (200k, 8) z_diag and the
    # audit's (200k,) gaps and component ids.  The mf and sN members' KLs
    # are exact and draw nothing; while they were Monte Carlo, sn8's z_diag
    # set the same peak.  Drawing q's noise for all 200k rows at once
    # peaked at 30.5 MB.
    config = cli._load_config(cli.FitGaussianConfig, None, {"steps": 5, "bimodal": True})
    assert config.kl_mc_samples == 200_000
    _, peak = traced_peak(cli.cmd_fit_gaussian, config)
    assert peak < 23e6


def test_rbf_memory_is_small():
    # Traced peak of the default rbf roster: 0.95 MB.  Its audits are exact,
    # so nothing in it grows with a Monte-Carlo sample count.
    config = cli._load_config(cli.RbfConfig, None, {"steps": 5})
    _, peak = traced_peak(cli.cmd_rbf, config)
    assert peak < 2e6


def test_rbf_without_svg_builds_no_figure_data(tmp_path, monkeypatch):
    # The figure's data is the exact predictive over the grid, which
    # streams all 2^{P_d} atoms; it is built only when
    # dropout_predictive.svg is rendered, so here the predictive never runs.
    def predictive(*_):
        raise AssertionError("figure data built")

    monkeypatch.setattr(cli.orc, "dropout_predictive_exact", predictive)
    cfg = write_config(tmp_path, {"n_basis": 16, "steps": 20, "ranks": [0]})
    rc, peak = traced_peak(cli.main, ["rbf", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert peak < 8e6


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


def _nan_mean(state):
    state.mu[0] = np.nan


def _capacitance_over_roundoff(state):
    # a = 1 and a first column of 1e5: eps·max(diag C) ≈ 1e-5.
    state.log_a[:] = 0.0
    state.u[:, 0] = 1e5


def _steep_mean(state):
    # The regression's gradient grows with the residual: over the guard.
    state.mu[:] = 1e5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "label,degrade,text",
    [
        ("sn2", _nan_mean, "non-finite value produced by 'log joint'"),
        ("sn2", _capacitance_over_roundoff, "capacitance is too large for working precision"),
        ("mf", _steep_mean, "exceeded guard"),
    ],
    ids=["nan-mean", "capacitance", "guard"],
)
def test_member_failing_in_its_stack_fails_alone(tmp_path, capsys, monkeypatch, label, degrade, text):
    # One stacked member fails at step 0: its row is empty and stderr names
    # it; every other row, stacked or not, is filled.
    init_family = cli.fam.init_family

    def init_degraded(tag, p, rng, **kwargs):
        state = init_family(tag, p, rng, **kwargs)
        if _member_label(state) == label:
            degrade(state)
        return state

    monkeypatch.setattr(cli.fam, "init_family", init_degraded)
    cfg = write_config(tmp_path, dict(SMALL_RBF, ranks=[0, 1, 2, 4]))
    assert cli.main(["rbf", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err
    assert re.search(rf"\[rbf\] {label} failed: .*{re.escape(text)}.* at step 0\n", err), err
    lines = (tmp_path / "o" / "tables.csv").read_text().strip().splitlines()[1:]
    rows = {line.split(",")[0]: line.split(",")[2:6] for line in lines}
    assert list(rows) == ["map", "mc_dropout", "mf", "sn1", "sn2", "sn4"]
    assert rows.pop(label) == ["na"] * 4
    for family, cells in rows.items():
        finite = cells[3:] if family in ("map", "mc_dropout") else cells  # atomic: the ELBO
        assert all(math.isfinite(float(cell)) for cell in finite), family
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    runtimes = {f["family"]: f["runtime_s"] for f in report["families"]}
    assert runtimes.pop(label) is None
    assert all(runtime > 0 for runtime in runtimes.values()), runtimes
    # The stack fell back, so every member trained alone.
    assert all(f["trained_with"] == [] for f in report["families"])


def test_unscented_roster_trains_as_two_stacks(tmp_path, monkeypatch):
    # Unscented sn10 needs 20 draws a step and sn1, sn2 and sn4 need 8, so
    # they train as two stacks.  Rows keep roster order, and each member's
    # runtime_s is an equal share of its stack's training time, which a
    # clock that moves by 1.0 a reading makes 1.0.
    clock = iter(range(10**6))
    monkeypatch.setattr(cli.tr, "time", SimpleNamespace(perf_counter=lambda: float(next(clock))))
    stacks, train_stack = [], cli.tr.train_stack

    def recording(states, target, configs):
        stacks.append([state.rank for state in states])
        return train_stack(states, target, configs)

    monkeypatch.setattr(cli.tr, "train_stack", recording)
    cfg = write_config(tmp_path, dict(SMALL_RBF, ranks=[10, 1, 2, 4], mode="unscented", steps=20))
    assert cli.main(["rbf", "--config", cfg, "--out", str(tmp_path / "o"), "--formats", "json"]) == 0
    assert stacks == [[10], [1, 2, 4]]
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    runtimes = {f["family"]: f["runtime_s"] for f in report["families"]}
    assert list(runtimes) == ["map", "mc_dropout", "sn10", "sn1", "sn2", "sn4"]
    assert runtimes["sn10"] == 1.0
    assert runtimes["sn1"] == runtimes["sn2"] == runtimes["sn4"]
    assert runtimes["sn1"] + runtimes["sn2"] + runtimes["sn4"] == pytest.approx(1.0, rel=1e-15)
    trained_with = {f["family"]: f["trained_with"] for f in report["families"]}
    assert trained_with == {
        "map": [], "mc_dropout": [], "sn10": [],
        "sn1": ["sn2", "sn4"], "sn2": ["sn1", "sn4"], "sn4": ["sn1", "sn2"],
    }


@pytest.mark.parametrize("components", [2, 3])
def test_bimodal_sgmm_trains_in_the_stack_when_it_takes_its_sample_count(tmp_path, components):
    # Paired, two components take the 8 draws a step that mf and the sN
    # members take, so all four train as one stack; three components take
    # 12, so the sGMM trains alone.  trained_with says which; tables.csv
    # has no such column.
    doc = dict(SMALL_FG, steps=20, gmm_components=components)
    cfg, out = write_config(tmp_path, doc), tmp_path / "o"
    assert cli.main(["fit-gaussian", "--bimodal", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    trained_with = {f["family"]: f["trained_with"] for f in report["families"]}
    labels = ["mf", "sn1", "sn3", "sgmm"] if components == 2 else ["mf", "sn1", "sn3"]
    for family, others in trained_with.items():
        assert others == ([label for label in labels if label != family] if family in labels else [])
    assert "trained_with" not in (out / "tables.csv").read_text()


def training_patches(on_trace) -> dict:
    """Stand-ins for ``tr.train`` and ``tr.train_stack`` that pass each trace
    they return, of a member trained alone or stacked, to ``on_trace``."""
    train, train_stack = cli.tr.train, cli.tr.train_stack

    def train_then(state, target, config):
        trace = train(state, target, config)
        on_trace(trace)
        return trace

    def train_stack_then(states, target, configs):
        traces = train_stack(states, target, configs)
        for trace in traces:
            if not isinstance(trace, cli.ad.MemberFailure):
                on_trace(trace)
        return traces

    return {"train": train_then, "train_stack": train_stack_then}


def test_member_with_singular_fitted_covariance_fails_alone(tmp_path, capsys, monkeypatch):
    def singular_sn2(trace):
        fitted = trace.final_state
        if getattr(fitted, "rank", None) == 2:
            # With a = 1e-300, diag(a) + UUᵀ rounds to UUᵀ, of rank 2 < P = 4:
            # the dense audit's Cholesky factorization meets a zero pivot.
            fitted.log_a[:] = math.log(1e-300)
            fitted.u[:] = np.tile(np.eye(2), (2, 1))

    for name, patched in training_patches(singular_sn2).items():
        monkeypatch.setattr(cli.tr, name, patched)
    cfg = write_config(tmp_path, dict(SMALL_RBF, ranks=[0, 2, 4]))
    assert cli.main(["rbf", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "[rbf] sn2 failed: " in capsys.readouterr().err
    lines = (tmp_path / "o" / "tables.csv").read_text().strip().splitlines()[1:]
    rows = {line.split(",")[0]: line.split(",")[2:6] for line in lines}
    assert sorted(rows) == ["map", "mc_dropout", "mf", "sn2", "sn4"]
    assert rows["sn2"] == ["na"] * 4
    for family in ("mf", "sn4"):
        assert all(math.isfinite(float(cell)) for cell in rows[family]), family


@pytest.mark.parametrize("command", ["fit-gaussian", "rbf"])
def test_nonfinite_fitted_state_fails_only_its_member(command):
    # A NaN in a fitted sN mean is caught once, before any audit: that row
    # is empty, and every other row is the clean run's, byte for byte.
    argv, doc, _ = DEGENERACY_RUNS[command]
    clean = clean_rows(command)
    sn_labels = [label for label in clean if label.startswith("sn")]
    assert sn_labels
    for label in sn_labels:
        code, err, _, rows = _run_with_degraded_member(argv, doc, label, _nan_mean_mf)
        assert code == 0, err
        assert f"] {label} failed: fitted state is not finite in psi blocks mu\n" in err
        assert rows.pop(label).split(",")[2:] == ["na"] * 5, label
        assert rows == {other: line for other, line in clean.items() if other != label}


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


@pytest.mark.parametrize(
    "argv", [["fit-gaussian"], ["fit-gaussian", "--bimodal"], ["rbf"]], ids=" ".join
)
def test_update_that_overflows_psi_fails_only_its_member(tmp_path, capsys, argv):
    # lr·m̂ overflows at this rate, so step 0 leaves psi infinite.  Each
    # member fails at step 1, where an sN's capacitance C, built from that
    # psi, is not finite.
    doc = SMALL_RBF if argv == ["rbf"] else SMALL_FG
    cfg = write_config(tmp_path, dict(doc, learning_rate=1e307, steps=2))
    with np.errstate(all="ignore"):
        assert cli.main([*argv, "--config", cfg, "--out", str(tmp_path)]) == 0
    strict_json((tmp_path / "report.json").read_text())
    err = capsys.readouterr().err
    overflowed = r"sn\d failed: capacitance is not finite at step 1"
    assert re.search(overflowed, err), err
    for line in (tmp_path / "tables.csv").read_text().splitlines()[1:]:
        assert line.split(",")[2:] == ["na"] * 5, line


def _point_mass_mf(state):
    # a = exp(−800) underflows to 0, and so does exp(−400)²: a point mass in float64.
    state.log_a[:] = -800.0


def _point_mass_sn(state):
    # exp(−800) is 0 and U = 0: a point mass; C = I + Uᵀ(U/a) is 0/0.
    state.log_a[:] = -800.0
    state.u[:] = 0.0


def _zero_diagonal_sn(state):
    # a = 0 under U = I: Σ = I, but C = I + Uᵀ(U/a) is not finite.
    state.log_a[:] = -800.0
    state.u[:] = np.eye(state.dim)


def _point_mass_component(state):
    # An sGMM's first component alone is ``_point_mass_sn``'s point mass.
    state.log_a[0] = -800.0
    state.u[0] = 0.0


def _nan_mean_mf(state):
    # Also a NaN mean for an sN: both keep theirs in ``mu``.
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
def test_degenerate_q_in_mc_kl_audit(label, degrade, outcome):
    # A q whose variance underflows to 0 is a float64 point mass: both KLs
    # are infinite.  Any other NaN in the audit fails that member alone.
    argv, doc = ["fit-gaussian", "--bimodal"], dict(SMALL_FG, ranks=[0, 3], steps=50)
    code, err, _, lines = _run_with_degraded_member(argv, doc, label, degrade)
    assert code == 0, err
    rows = {family: line.split(",")[2:4] for family, line in lines.items()}
    assert sorted(rows) == ["mf", "sgmm", "sn3"]
    assert rows.pop(label) == (["inf", "inf"] if outcome == "inf" else ["na", "na"])
    assert (f"[fit-gaussian] {label} failed: " in err) == (outcome == "failed")
    for family, cells in rows.items():
        assert all(math.isfinite(float(cell)) for cell in cells), family


@pytest.mark.parametrize(
    "argv,doc,label,degrade",
    [
        (["rbf"], SMALL_RBF, "mf", _point_mass_mf),
        (["rbf"], SMALL_RBF, "sn4", _point_mass_sn),
        (["fit-gaussian"], SMALL_FG, "mf", _point_mass_mf),
        (["fit-gaussian"], SMALL_FG, "sn3", _point_mass_sn),
        (["fit-gaussian"], SMALL_FG, "sn3", _zero_diagonal_sn),
    ],
    ids=["rbf-mf", "rbf-sn4", "fit-gaussian-mf", "fit-gaussian-sn3", "fit-gaussian-sn3-zero-a"],
)
def test_degenerate_q_in_exact_audit_fails_alone(argv, doc, label, degrade):
    # The exact audits take q's dense covariance.  A q whose variance is 0
    # in float64 has none, so that member's row is empty and the rest stand.
    code, err, _, lines = _run_with_degraded_member(argv, doc, label, degrade)
    assert code == 0, err
    assert f"] {label} failed: " in err
    # kl_p_q, kl_q_p, logq_theta_star and elbo; fit-gaussian has no θ*.
    rows = {family: line.split(",")[2:6] for family, line in lines.items()}
    if argv == ["fit-gaussian"]:
        rows = {family: cells[:2] + cells[3:] for family, cells in rows.items()}
    assert rows.pop(label) == ["na"] * len(rows["map"])
    for family, cells in rows.items():
        if family in ("mf", "sn1", "sn3", "sn4"):
            assert all(math.isfinite(float(cell)) for cell in cells), family


def _member_label(state) -> str:
    """The roster label of a fitted state (sN members carry their rank)."""
    labels = {"map": "map", "mc_dropout": "mc_dropout", "mean_field": "mf", "mixture": "sgmm"}
    return labels.get(state.tag) or f"sn{state.rank}"


def _run_with_degraded_member(argv, doc, label, degrade) -> tuple:
    """Run ``argv`` at config ``doc`` with ``degrade(fitted)`` applied to the
    member ``label``'s fitted state after training; returns (exit code,
    stderr, report.json text, tables.csv rows by label)."""

    def degrade_member(trace):
        if _member_label(trace.final_state) == label:
            degrade(trace.final_state)

    patch = mock.patch.multiple(cli.tr, **training_patches(degrade_member))
    with tempfile.TemporaryDirectory() as tmp, patch:
        cfg = write_config(Path(tmp), doc)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            with np.errstate(all="ignore"):
                code = cli.main([*argv, "--config", cfg, "--out", tmp])
        if code:
            return code, stderr.getvalue(), None, None
        lines = (Path(tmp) / "tables.csv").read_text().splitlines()[1:]
        report = (Path(tmp) / "report.json").read_text()
    return code, stderr.getvalue(), report, {line.split(",")[0]: line for line in lines}


@pytest.mark.parametrize(
    "argv,doc,label,degrade,metric",
    [
        (["rbf"], SMALL_RBF, "sn4", lambda s: s.mu.fill(1e300), "logq_theta_star"),
        (["fit-gaussian"], SMALL_FG, "map", lambda s: s.theta_hat.fill(1e300), "elbo"),
    ],
    ids=["rbf-sn-mean", "fit-gaussian-map"],
)
def test_nan_audit_metric_fails_only_its_member(argv, doc, label, degrade, metric):
    # A fitted state that is finite but far out gets past the finiteness
    # check; its audit then gives a NaN metric, which fails that member alone.
    clean = _run_with_degraded_member(argv, doc, None, None)[3]
    code, err, report, rows = _run_with_degraded_member(argv, doc, label, degrade)
    assert code == 0, err
    strict_json(report)
    assert f"] {label} failed: audit metric is NaN: {metric}" in err
    assert rows.pop(label).split(",")[2:] == ["na"] * 5
    del clean[label]
    assert rows == clean


def test_failed_dropout_audit_fit_is_an_error_record(tmp_path, capsys):
    # dropout-audit's one member is the whole command: its failure ends it.
    cfg = write_config(tmp_path, {"learning_rate": 1e100, "steps": 2})
    assert cli.main(["dropout-audit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "MemberFailure"
    assert record["message"].startswith("gradient norm ")
    assert record["message"].endswith(" exceeded guard at step 1")
    assert not (tmp_path / "o").exists()


BIMODAL = "fit-gaussian --bimodal"
DEGENERACY_RUNS = {
    "fit-gaussian": (["fit-gaussian"], SMALL_FG, ["map", "mf", "sn1", "sn3"]),
    BIMODAL: (["fit-gaussian", "--bimodal"], SMALL_FG, ["mf", "sn1", "sn3", "sgmm"]),
    "rbf": (["rbf"], SMALL_RBF, ["map", "mc_dropout", "mf", "sn4"]),
}


def _gaussian_part(state):
    """The Gaussian a degeneracy writes to: an sGMM's first component, as a
    structured normal over views of its stacked arrays."""
    if state.tag != "mixture":
        return state
    return cli.fam.StructuredNormalState(mu=state.mu[0], log_a=state.log_a[0], u=state.u[0])


def _mean(state):
    return state.theta_hat if state.tag in cli.fam.ATOMIC_TAGS else _gaussian_part(state).mu


def _log_scale(state):
    return _gaussian_part(state).log_a


# name: (members it applies to, the array it writes, the value written)
DEGENERACIES = {
    "nan mean": (None, _mean, math.nan),
    "+inf mean": (None, _mean, math.inf),
    "-inf mean": (None, _mean, -math.inf),
    "far mean": (None, _mean, 1e300),
    "zero variance": (("mf", "sn1", "sn3", "sn4", "sgmm"), _log_scale, -800.0),
    "huge U": (("sn1", "sn3", "sn4", "sgmm"), lambda s: _gaussian_part(s).u, 1e200),
    "+1e308 logit": (("sgmm",), lambda s: s.weight_logits, 1e308),
    "-1e308 logit": (("sgmm",), lambda s: s.weight_logits, -1e308),
}


def expected_outcomes(command, label, name) -> set:
    if name == "far mean":
        return {"failed", "infinite"}  # overflowed KLs are infinite; a NaN audit fails
    if name.endswith("logit"):
        return {"finite"}  # the weights collapse onto components: still a mixture
    if name == "zero variance" and command == BIMODAL and label == "mf":
        return {"infinite"}  # a float64 point mass: both Monte-Carlo KLs infinite
    return {"failed"}


def row_outcome(row: str) -> str:
    kl_p_q, kl_q_p, logq, elbo, runtime = row.split(",")[2:]
    if [kl_p_q, kl_q_p, logq, elbo, runtime] == ["na"] * 5:
        return "failed"
    if (kl_p_q, kl_q_p, elbo) == ("inf", "inf", "-inf"):
        return "infinite"
    assert all(math.isfinite(float(cell)) for cell in (kl_p_q, kl_q_p, elbo)), row
    return "finite"


@functools.cache
def clean_rows(command) -> dict:
    argv, doc, _ = DEGENERACY_RUNS[command]
    code, err, _, rows = _run_with_degraded_member(argv, doc, None, None)
    assert code == 0, err
    return rows


@hst.composite
def degenerate_runs(draw):
    command = draw(hst.sampled_from(sorted(DEGENERACY_RUNS)))
    label = draw(hst.sampled_from(DEGENERACY_RUNS[command][2]))
    names = [name for name, (members, *_) in DEGENERACIES.items() if label in (members or [label])]
    return command, label, draw(hst.sampled_from(names)), draw(hst.sampled_from([0, slice(None)]))


@settings(max_examples=30, deadline=None)
@given(degenerate_runs())
@example(("rbf", "sn4", "far mean", slice(None)))  # log q(θ*) is NaN
@example(("fit-gaussian", "map", "far mean", slice(None)))  # the ELBO is NaN
def test_generated_degenerate_member_fails_alone(run):
    # Whatever the degeneracy, the command exits 0 and writes strict JSON;
    # the degraded row fails alone, or reports what float64 can of it, and
    # every other row is the clean run's, byte for byte.  A fitted state
    # that is not finite fails before any audit, naming its mean's block.
    command, label, name, at = run
    argv, doc, _ = DEGENERACY_RUNS[command]
    _, array_of, value = DEGENERACIES[name]

    def degrade(state):
        array_of(state)[at] = value

    code, err, report, rows = _run_with_degraded_member(argv, doc, label, degrade)
    assert code == 0, err
    strict_json(report)
    outcome = row_outcome(rows[label])
    assert outcome in expected_outcomes(command, label, name), rows[label]
    assert (f"] {label} failed: " in err) == (outcome == "failed")
    if not math.isfinite(value):
        block = "theta_hat" if label in ("map", "mc_dropout") else "mu"
        assert f"] {label} failed: fitted state is not finite in psi blocks {block}\n" in err
    clean = clean_rows(command)
    assert sorted(rows) == sorted(clean)
    for other, line in clean.items():
        if other != label:
            assert rows[other] == line, other


def count_train_calls(monkeypatch) -> list:
    """The tags of the members trained, alone or stacked, in training order."""
    calls = []
    train, train_stack = cli.tr.train, cli.tr.train_stack

    def counting(state, target, config):
        calls.append(state.tag)
        return train(state, target, config)

    def counting_stack(states, target, configs):
        calls.extend(state.tag for state in states)
        return train_stack(states, target, configs)

    monkeypatch.setattr(cli.tr, "train", counting)
    monkeypatch.setattr(cli.tr, "train_stack", counting_stack)
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
        ("dropout-audit", "x_star", []),
    ],
)
def test_config_value_out_of_range_rejected(command, key, value):
    message = assert_rejected_before_training(command, key, value, "ValueError")
    assert repr(key) in message and repr(value) in message


@pytest.mark.parametrize("command", ["rbf", "fit-gaussian"])
@pytest.mark.parametrize("ranks", [[1, 1], [0, 0]], ids=["sn1-twice", "mf-twice"])
def test_repeated_rank_rejected_before_training(command, ranks):
    # Two rows of one label, each with its own numbers, would read as one fit.
    message = assert_rejected_before_training(command, "ranks", ranks, "ValueError")
    assert "repeat" in message and repr(ranks) in message


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
    svg = (out / "dropout_predictive.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # The ±2 sd band, the mean and the truth, and a point per datum, for any P_d.
    assert svg.count("<polyline") == 3
    assert svg.count("<circle") == SMALL_RBF["n_data"]
    assert "dropout_predictive" not in (out / "report.json").read_text()


def test_rbf_svg_is_small_at_many_atoms(tmp_path):
    # At 2^14 atoms the figure's traced peak is 21.1 MB (a few blocks of the
    # streamed predictive) and the SVG 10.5 KB; the bounds add 20% and 50%.
    # One polyline per atom read 98 MB and wrote 27.7 MB, 4x for every two
    # more basis functions.
    cfg = write_config(tmp_path, {"n_basis": 14, "steps": 20, "ranks": [0]})
    argv = ["rbf", "--config", cfg, "--out", str(tmp_path / "o"), "--formats", "json,csv,svg"]
    rc, peak = traced_peak(cli.main, argv)
    assert rc == 0
    assert peak < 25e6
    assert (tmp_path / "o" / "dropout_predictive.svg").stat().st_size < 16 * 1024


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


@pytest.mark.parametrize("formats", ["", ",", " , "])
def test_empty_formats_fail_before_training(tmp_path, capsys, monkeypatch, formats):
    def train(*_):
        raise AssertionError("training started")

    monkeypatch.setattr(cli.tr, "train", train)
    assert cli.main(["rbf", "--out", str(tmp_path / "o"), "--formats", formats]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and "--formats" in record["message"]
    assert not (tmp_path / "o").exists()


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
