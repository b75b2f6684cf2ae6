"""vifit benchmark: audited roster runs, end to end and layer by layer.

    python3 bench/run.py --workload rbf --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; vifit is imported from ``src/``.
One child process (``bench/child.py``) runs the workload's CLI command as a
closed loop, one roster after another with the same inputs (``--seed`` and
the workload's config), until ``--seconds`` have passed.  Times are totals
over the loop: ``wall_s`` is its mean per roster and ``train_steps_per_s``
all its steps over all its training time.  ``--trace 0`` first starts
import-only children for ``setup_s`` (a median) and prints the end-to-end
metrics.  ``--trace 1`` runs the same untraced loop and then one traced
roster in a second child, and prints the per-layer metrics.  Every report
is checked (see ``workloads.py``); the last line of standard output is the
JSON result.  Outputs go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 10  # import-only children per run, after one discarded warm-up
CHILD_TIMEOUT_S = 150
# Roster labels of every workload, so each traced run reports the same keys.
ALL_MEMBERS = ("map", "mc_dropout", "mf", "sn1", "sn2", "sn4", "sn8", "sn10", "sgmm")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> span name whose summed self time it reports.
PER_STEP_SPANS = {
    "autodiff.backward_ms_per_step": "autodiff.backward",
    "autodiff.evaluate_self_ms_per_step": "autodiff.evaluate_with_gradient",
    "lowrank.logpdf_ms_per_step": "lowrank.lowrank_logpdf",
    "lowrank.draw_rows_ms_per_step": "lowrank.gaussian_draw_rows",
    "models.loglik_ms_per_step": "models.loglik_rows",
    "oracle.target_logdensity_ms_per_step": "oracle.target_log_density",
    "trainer.update_self_ms_per_step": "trainer.train",
    "trainer.graph_self_ms_per_step": "trainer.elbo_graph",
    "families.draw_noise_ms_per_step": "families.draw_noise",
}
WHOLE_RUN_SPANS = {
    "families.enumerate_s": "families.enumerate_dropout",
    "oracle.predictive_s": "oracle.dropout_predictive_exact",
    "oracle.kl_mc_s": "oracle.kl_mc",
    "families.sample_s": "families.sample",
    "oracle.exact_s": "oracle.exact",
    "reports.emit_s": "reports.emit_report",
    "cli.self_s": "cli.main",
}
# Engine layers whose summed self time, as a share of traced wall, should
# cover nearly all of a training-bound run (trace.core_layers_frac).
CORE_LAYERS = ("autodiff", "lowrank", "models", "families", "trainer")


def per_layer_units() -> dict:
    units = {name: "ms" for name in PER_STEP_SPANS}
    units.update({name: "s" for name in WHOLE_RUN_SPANS})
    units.update({f"trainer.step_ms.{m}": "ms" for m in ALL_MEMBERS})
    units.update(
        {
            "autodiff.nodes_per_step": "count",
            "trainer.steps": "count",
            "families.enumerate_calls": "count",
            "families.atoms": "count",
            "trace.wall_s": "s",
            "trace.overhead_frac": "ratio",
            "trace.core_layers_frac": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(result_path: Path, *, argv=(), out=None, seconds=0.0, probe=False, spans_path=None):
    """Run one child to completion; returns its result dict, or an error string."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result_path)]
    if probe:
        cmd.append("--probe")
    else:
        cmd += ["--out", str(out), "--seconds", repr(seconds)]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    stderr_path = result_path.with_suffix(".err")
    with open(stderr_path, "w") as err:
        try:
            proc = subprocess.run(
                [*cmd, "--t0", repr(time.perf_counter()), "--", *argv],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                stderr=err, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.exists():
        tail = stderr_path.read_text()[-400:].strip()
        return f"child exited with code {proc.returncode}: {tail}"
    result = json.loads(result_path.read_text())
    expected = ROOT / "src" / "vifit"
    if Path(result["vifit_file"]).resolve().parent != expected.resolve():
        return f"imported vifit from {result['vifit_file']}, not {expected}"
    return result


def check_roster(workload, out: Path, rc: int, stderr: str) -> dict:
    """Read one roster's report files and check every member."""
    roster = {"report": None, "tables": None}
    if rc != 0:
        roster["problems"] = {m: [f"vifit exited with {rc}: {stderr}"] for m in workload.members}
        return roster
    report = json.loads((out / "report.json").read_text())
    roster["report"] = report
    roster["tables"] = (out / "tables.csv").read_text()
    problems = {m: [] for m in workload.members}
    rows = {f["family"]: f for f in report["families"]}
    for member in workload.members:
        row = rows.get(member)
        if row is None:
            problems[member].append("missing from report.json")
        elif row["runtime_s"] is None:
            problems[member].append("training failed (runtime_s is null)")
    for member, found in workload.check(report).items():
        problems.setdefault(member, []).extend(found)
    roster["problems"] = problems
    return roster


def run_child(workload, argv: list, out: Path, seconds: float, traced: bool) -> tuple:
    """One child running rosters back to back; returns (child result, rosters)."""
    out.mkdir(parents=True)
    child = spawn(
        out / "child.json", argv=argv, out=out, seconds=seconds,
        spans_path=out / "spans.jsonl" if traced else None,
    )
    if isinstance(child, str):
        return None, [{"report": None, "tables": None, "problems": {m: [child] for m in workload.members}}]
    stderr = (out / "child.err").read_text()[-400:].strip()
    rosters = []
    for wall, rc, roster_out in zip(child["walls"], child["rcs"], child["outs"]):
        roster = check_roster(workload, Path(roster_out), rc, stderr)
        roster["wall_s"] = wall
        rosters.append(roster)
    return child, rosters


def check_reproducible(rosters: list) -> None:
    """Same inputs, same tables.csv rows: a differing row fails that member."""
    reference = next((r["tables"] for r in rosters if r["tables"] is not None), None)
    if reference is None:
        return
    ref_rows = {line.split(",")[0]: line for line in reference.splitlines()[1:]}
    for roster in rosters:
        if roster["tables"] is None or roster["tables"] == reference:
            continue
        rows = {line.split(",")[0]: line for line in roster["tables"].splitlines()[1:]}
        for member, found in roster["problems"].items():
            if rows.get(member) != ref_rows.get(member):
                found.append("tables.csv row differs from the first roster of this run")


# ---------------------------------------------------------------------------
# metrics


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def steps_and_runtime(reports: list) -> tuple:
    """Optimizer steps and summed per-family runtime_s over the given rosters."""
    steps = runtime = 0
    for report in reports:
        runtimes = [f["runtime_s"] for f in report["families"] if f["runtime_s"] is not None]
        steps += report["config"]["steps"] * len(runtimes)
        runtime += sum(runtimes)
    return steps, runtime


def step_ms(reports: list, member: str) -> float:
    """Mean training time per step of one roster member, 0 if it never ran."""
    runtimes = [
        f["runtime_s"] / report["config"]["steps"]
        for report in reports
        for f in report["families"]
        if f["family"] == member and f["runtime_s"] is not None
    ]
    return 1000.0 * sum(runtimes) / len(runtimes) if runtimes else 0.0


def mean_wall(rosters: list) -> float:
    walls = [r["wall_s"] for r in rosters if r["report"] is not None]
    return sum(walls) / len(walls) if walls else 0.0


def end_to_end(child: dict | None, rosters: list, setup: list) -> dict:
    steps, runtime = steps_and_runtime([r["report"] for r in rosters if r["report"] is not None])
    return {
        "setup_s": _median(setup + ([child["setup_s"]] if child else [])),
        "wall_s": mean_wall(rosters),
        "train_steps_per_s": steps / runtime if runtime > 0 else 0.0,
        "peak_rss_mb": child["peak_rss_mb"] if child else 0.0,
    }


def per_layer(rosters: list, traced_child: dict | None, traced: list) -> dict:
    out = {name: 0.0 for name in per_layer_units()}
    reports = [r["report"] for r in rosters if r["report"] is not None]
    for member in ALL_MEMBERS:
        out[f"trainer.step_ms.{member}"] = step_ms(reports, member)
    if traced_child is None or not traced or traced[0]["report"] is None:
        return out
    trace = traced_child["trace"]
    self_s, counts = trace["self_s"], trace["counts"]
    steps = counts.get("trainer.steps", 0)
    for name, span in PER_STEP_SPANS.items():
        out[name] = 1000.0 * self_s.get(span, 0.0) / steps if steps else 0.0
    for name, span in WHOLE_RUN_SPANS.items():
        out[name] = self_s.get(span, 0.0)
    wall = traced[0]["wall_s"]
    untraced = mean_wall(rosters)
    core = sum(t for span, t in self_s.items() if span.split(".")[0] in CORE_LAYERS)
    out.update(
        {
            "autodiff.nodes_per_step": counts.get("autodiff.nodes", 0) / steps if steps else 0.0,
            "trainer.steps": steps,
            "families.enumerate_calls": trace["calls"].get("families.enumerate_dropout", 0),
            "families.atoms": counts.get("families.atoms", 0),
            "trace.wall_s": wall,
            "trace.overhead_frac": wall / untraced - 1.0 if untraced else 0.0,
            "trace.core_layers_frac": core / wall if wall > 0 else 0.0,
        }
    )
    return out


# ---------------------------------------------------------------------------
# environment


def environment(child: dict | None) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = None
    cpu_model = None
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    git_rev = git_dirty = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if rev.returncode == 0:
            git_rev = rev.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
            )
            git_dirty = bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas_vendor,
        "blas_threads": child.get("blas_threads") if child else None,
        "thread_pins": THREAD_PINS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_rev": git_rev,
        "git_dirty": git_dirty,
    }


# ---------------------------------------------------------------------------
# entry point


def run(workload_name: str, seed: int, seconds: float, trace: bool, config_overrides=None) -> dict:
    """One benchmark run; returns the full result (printed by ``main``)."""
    workload = WORKLOADS[workload_name]
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = {**workload.config, **(config_overrides or {})}
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    argv = [*workload.command, "--config", str(config_path), "--seed", str(seed)]

    setup = []
    if not trace:
        spawn(out / "warmup.json", probe=True)  # fills __pycache__ and the page cache
        for i in range(SETUP_PROBES):
            probe = spawn(out / f"probe{i}.json", probe=True)
            if isinstance(probe, dict):
                setup.append(probe["setup_s"])

    child, rosters = run_child(workload, argv, out / "untraced", seconds, traced=False)
    traced_child = traced = None
    if trace:
        traced_child, traced = run_child(workload, argv, out / "traced", 0.0, traced=True)
    everything = rosters + (traced or [])
    check_reproducible(everything)

    attempted = failed = 0
    problems = []
    for i, roster in enumerate(everything):
        for member, found in roster["problems"].items():
            attempted += 1
            if found:
                failed += 1
                problems.append({"roster": i, "member": member, "problems": found})

    if trace:
        values = per_layer(rosters, traced_child, traced)
        units = per_layer_units()
    else:
        values = end_to_end(child, rosters, setup)
        units = END_TO_END_UNITS
    gaps = [workload.elbo_gap(r["report"]) for r in rosters if r["report"] and workload.elbo_gap]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": config,
        "rosters": len(rosters),
        "env": environment(child),
        "wall_s_samples": [r.get("wall_s") for r in rosters],
        "setup_s_samples": setup,
        "elbo_gap_best_nat": _median(gaps, None),
        "failed_frac": failed / attempted,
        "problems": problems,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vifit" / "cli.py").is_file():
        print(f"no vifit sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / args.workload / "result.json").write_text(json.dumps(result, indent=2))
    print(f"workload {result['workload']}: {result['rosters']} roster run(s), seed {args.seed}")
    print("env " + json.dumps(result["env"]))
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if result["elbo_gap_best_nat"] is not None:
        print(f"  {'elbo_gap_best_nat':40s} {result['elbo_gap_best_nat']:>14.6g} nat")
    print(f"  {'failed_frac':40s} {result['failed_frac']:>14.6g} ({result['failed']}/{result['attempted']})")
    for p in result["problems"]:
        print(f"  FAILED roster {p['roster']} {p['member']}: {'; '.join(p['problems'])}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
