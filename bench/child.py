"""One benchmark child: import vifit, run one CLI command, report timings.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing
at the checkout's ``src``.  Usage::

    python3 bench/child.py --t0 T --result FILE --out DIR [--seconds S]
                           [--probe] [--trace SPANS] -- ARGV...

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s``
runs from exec until ``import vifit.cli`` has finished.  ``--probe`` stops
there.  Otherwise the child runs ``vifit.cli.main(ARGV + --out DIR/rosterN)``
as a closed loop, one roster after another, until ``--seconds`` have passed
(at least once).  ``--trace`` runs a single roster with every layer wrapped
and writes the spans to ``SPANS``.
"""

import time

import argparse
import json
import os
import resource
import sys

from spans import Tracer

import vifit.cli

T_IMPORTED = time.perf_counter()


def member_label(state) -> str:
    """Roster label of a family state, as the CLI names it in report.json."""
    if state.tag == "structured_normal":
        return f"sn{state.rank}"
    return {"map": "map", "mc_dropout": "mc_dropout", "mean_field": "mf", "mixture": "sgmm"}[
        state.tag
    ]


def _count_atoms(tracer, index, args, result):
    tracer.counts["families.atoms"] += result.n_atoms


def install(tracer):
    """Wrap every layer boundary the benchmark reports on."""
    from vifit import autodiff as ad
    from vifit import cli
    from vifit import families as fam
    from vifit import models as mod
    from vifit import oracle as orc
    from vifit import trainer as tr

    tracer.wrap_train(tr, "train", member_label)
    # Per-step layers.  ``trainer.train`` reaches these through module
    # attributes: ``ad.evaluate_with_gradient``, the module global
    # ``backward``, ``fam.draw_noise``, the global ``elbo_graph`` inside the
    # objective lambda, and the names ``families`` imported from lowrank.
    tracer.wrap(ad, "evaluate_with_gradient", "autodiff.evaluate_with_gradient", step_scoped=True)
    tracer.wrap(ad, "backward", "autodiff.backward", step_scoped=True)
    tracer.count(ad, "_node", "autodiff.nodes")
    tracer.wrap(tr, "elbo_graph", "trainer.elbo_graph", step_scoped=True)
    tracer.wrap(fam, "draw_noise", "families.draw_noise", step_scoped=True)
    tracer.wrap(fam, "gaussian_draw_rows", "lowrank.gaussian_draw_rows", step_scoped=True)
    tracer.wrap(fam, "lowrank_logpdf", "lowrank.lowrank_logpdf", step_scoped=True)
    tracer.wrap(mod.RegressionProblem, "loglik_rows", "models.loglik_rows", step_scoped=True)
    for cls in (orc.GaussianMixtureDist, orc.GaussianDist):
        tracer.wrap(cls, "log_density", "oracle.target_log_density", step_scoped=True)
    # Whole-command layers.
    tracer.wrap(fam, "enumerate_dropout", "families.enumerate_dropout", observe=_count_atoms)
    tracer.wrap(fam, "sample", "families.sample")
    tracer.wrap(orc, "dropout_predictive_exact", "oracle.dropout_predictive_exact")
    for name in ("kl_p_to_family_mc", "kl_family_to_target_mc"):
        tracer.wrap(orc, name, "oracle.kl_mc")
    for name in (
        "exact_linear_posterior",
        "log_evidence",
        "kl_gaussian_gaussian",
        "exact_gaussian_elbo",
        "family_to_gaussian",
        "log_density_of_truth",
    ):
        tracer.wrap(orc, name, "oracle.exact")
    tracer.wrap(cli, "emit_report", "reports.emit_report")


def traced_main(argv: list, spans_path: str) -> tuple:
    """Run the CLI with every layer wrapped; returns (rc, wall_s, trace summary)."""
    tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
    install(tracer)
    try:
        rc, root = tracer.span("cli.main", vifit.cli.main, argv)
    finally:
        tracer.restore()
    _, start, end, _ = tracer.spans[root]
    summary = {
        "self_s": tracer.self_by_name(),
        "calls": dict(tracer.calls_by_name()),
        "counts": dict(tracer.counts),
    }
    tracer.write(spans_path)
    return rc, end - start, summary


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    result = {"setup_s": T_IMPORTED - args.t0, "vifit_file": vifit.cli.__file__}
    if not args.probe:
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        if args.trace:
            out = os.path.join(args.out, "roster0")
            rc, wall, summary = traced_main([*argv, "--out", out], args.trace)
            result.update(rcs=[rc], walls=[wall], outs=[out], trace=summary)
        else:
            result.update(rcs=[], walls=[], outs=[])
            start = time.perf_counter()
            while not result["walls"] or time.perf_counter() - start < args.seconds:
                out = os.path.join(args.out, f"roster{len(result['walls'])}")
                begin = time.perf_counter()
                rc = vifit.cli.main([*argv, "--out", out])
                result["walls"].append(time.perf_counter() - begin)
                result["rcs"].append(rc)
                result["outs"].append(out)
                if rc != 0:
                    break
        result["blas_threads"] = blas_threads()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
