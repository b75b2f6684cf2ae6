"""Self-tests for the benchmark harness, at tiny workload sizes.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import child
import run
import workloads
from spans import Tracer

TINY = {
    "rbf": {"steps": 30, "grid_points": 11},
    "bimodal": {"steps": 30, "kl_mc_samples": 2000},
    "dropout_enum": {"n_droppable": 6, "steps": 30, "mc_draws": 2000},
}
COUNTS = ("trainer.steps", "autodiff.nodes_per_step", "families.enumerate_calls", "families.atoms")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def out_root(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def tiny_run(name, trace):
    return run.run(name, seed=5, seconds=0.0, trace=trace, config_overrides=TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(out_root, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny_run(name, trace)
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        assert result["attempted"] >= len(workloads.WORKLOADS[name].members)
        assert result["env"]["blas_threads"] in (1, None)


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_across_traced_runs(out_root, name):
    first, second = (tiny_run(name, True)["metrics"] for _ in range(2))
    for key in COUNTS:
        assert first[key]["value"] == second[key]["value"], key
    assert first["trainer.steps"]["value"] == 30 * len(workloads.WORKLOADS[name].members)


def test_dropout_enumeration_is_counted_per_call(out_root):
    metrics = tiny_run("dropout_enum", True)["metrics"]
    calls = metrics["families.enumerate_calls"]["value"]
    assert calls >= 1
    assert metrics["families.atoms"]["value"] == calls * 2**6


def _attributes():
    from vifit import autodiff, cli, families, models, oracle, trainer

    return [
        (owner, attr, owner.__dict__[attr])
        for owner, attrs in (
            (autodiff, ("evaluate_with_gradient", "backward", "_node")),
            (trainer, ("train", "elbo_graph")),
            (families, ("draw_noise", "gaussian_draw_rows", "lowrank_logpdf",
                        "enumerate_dropout", "sample")),
            (models.RegressionProblem, ("loglik_rows",)),
            (oracle.GaussianMixtureDist, ("log_density",)),
            (oracle.GaussianDist, ("log_density",)),
            (oracle, ("dropout_predictive_exact", "kl_p_to_family_mc", "kl_family_to_target_mc",
                      "exact_linear_posterior", "log_evidence", "kl_gaussian_gaussian",
                      "exact_gaussian_elbo", "family_to_gaussian", "log_density_of_truth")),
            (cli, ("emit_report",)),
        )
        for attr in attrs
    ]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_self_times_and_restore(tmp_path, name):
    from vifit import cli

    originals = _attributes()
    wl = workloads.WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**wl.config, **TINY[name]}))
    tracer = Tracer(run_id="test")
    child.install(tracer)
    assert set(tracer.installed()) == {(owner, attr) for owner, attr, _ in originals}
    try:
        rc, root = tracer.span(
            "cli.main", cli.main,
            [*wl.command, "--config", str(config), "--seed", "3", "--out", str(tmp_path / "o")],
        )
    finally:
        tracer.restore()
    assert rc == 0
    assert tracer.installed() == []
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left wrapped"
    self_times = tracer.self_times()
    assert min(self_times) >= -1e-6
    _, start, end, _ = tracer.spans[root]
    assert sum(self_times) == pytest.approx(end - start, rel=1e-6)
    assert sorted(set(tracer.labels.values())) == sorted(wl.members)


def test_checks_flag_broken_reports():
    report = {
        "config": {"n_droppable": 20, "keep_prob": 0.5},
        "extras": {"n_atoms": 2**20 - 1, "weight_sum": 1.0 + 1e-9,
                   "map_atom_weight": 0.5**20, "mean_z_scores": [0.1, 7.0]},
    }
    assert len(workloads.check_dropout_enum(report)["mc_dropout"]) == 3
    rbf = {
        "extras": {"evidence": -21.0},
        "families": [
            {"family": "map", "metrics": {"kl_p_q": "inf", "logq_theta_star": "1.0"}},
            {"family": "mf", "metrics": {"kl_p_q": "1", "kl_q_p": "2", "logq_theta_star": "0",
                                         "elbo": "-23", "evidence_gap": "2.5"}},
        ],
    }
    problems = workloads.check_rbf(rbf)
    assert problems["map"] and problems["mf"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rbf", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
