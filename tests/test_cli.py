"""CLI harness tests: reports, determinism, emission formats."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import vifit.cli as cli
from vifit.reports import (
    CSV_COLUMNS,
    ExperimentReport,
    FamilyResult,
    emit_report,
    fmt_metric,
    parse_metric,
)

SMALL_FG = {"dim": 3, "ranks": [0, 1, 3], "steps": 250, "kl_mc_samples": 5000}
SMALL_RBF = {"n_basis": 4, "n_data": 30, "ranks": [0, 4], "steps": 250, "grid_points": 21}
SMALL_AUDIT = {"n_droppable": 5, "steps": 120, "mc_draws": 5000}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -----------------------------------------------------------------------
# metric formatting


def test_metric_cell_grammar():
    assert fmt_metric(None) == "na"
    assert fmt_metric(math.inf) == "inf"
    assert fmt_metric(-math.inf) == "-inf"
    assert fmt_metric(1.5) == "1.5"
    assert parse_metric("na") is None
    assert parse_metric("inf") == math.inf
    assert parse_metric("-inf") == -math.inf
    assert parse_metric("1.5") == 1.5
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
        extras={"note": [1, 2, 3]},
    )
    emit_report(report, tmp_path, ("json",))
    doc = json.loads((tmp_path / "report.json").read_text())
    back = ExperimentReport.from_json_dict(doc)
    assert back.to_json_dict() == doc
    assert back.families[0].metrics["kl_p_q"] == math.inf
    assert back.families[0].metrics["logq_theta_star"] is None


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
    curves = report.extras["dropout_curves"]
    assert len(curves["curves"]) == 2**4
    assert math.isclose(sum(curves["weights"]), 1.0, abs_tol=1e-12)


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

    def init_with_singular_sn2(tag, shape, rng, **kwargs):
        state = init_family(tag, shape, rng, **kwargs)
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
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, monkeypatch, command, key, value):
    calls = count_train_calls(monkeypatch)
    cfg = write_config(tmp_path, {key: value})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert calls == []
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "TypeError"
    assert repr(key) in record["message"]
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


def test_svg_emission(tmp_path):
    cfg = write_config(tmp_path, SMALL_RBF)
    out = tmp_path / "svg_out"
    rc = cli.main(
        ["rbf", "--config", cfg, "--seed", "1", "--out", str(out), "--formats", "json,csv,svg"]
    )
    assert rc == 0
    svg = (out / "posterior_atoms.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") >= 2**4  # one per atom plus the truth line


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
