"""Experiment reports: tagged metrics, JSON/CSV emission, SVG figures.

Every metric cell is one of: a finite float, "inf", "-inf", or "na".
tables.csv must be byte-identical across reruns with the same seed and
config, so wall-clock runtimes appear only in report.json and the CSV
runtime column is pinned to "na".  report.json holds results, and the
environment that produced them (``environment``); the data a figure is
drawn from is built by a callable in ``ExperimentReport.figures``, only
when its SVG is rendered.  vifit writes report.json and never reads it
back.  It is strict JSON: an infinite number among the extras is written
as a cell is, "inf" or "-inf" (``_json_extra``), and a NaN is no more
reportable there than in a cell.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FORMATS = ("json", "csv", "svg")
CSV_COLUMNS = ("family", "rank", "kl_p_q", "kl_q_p", "logq_theta_star", "elbo", "runtime_s")


def environment() -> dict:
    """Python, numpy, and the BLAS and LAPACK numpy was built with: every
    factorization goes through that build, and the last digits of the
    numbers depend on it."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    keep = ("name", "version", "openblas configuration")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{lib: {k: deps[lib][k] for k in keep if k in deps[lib]} for lib in ("blas", "lapack")},
    }


def fmt_metric(value) -> str:
    """Canonical cell text: finite decimal, 'inf', '-inf', or 'na'."""
    if value is None:
        return "na"
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        raise ValueError("NaN is not a reportable metric")
    return repr(value)


def _json_extra(value):
    """An extras value with every infinite float as its cell text."""
    if isinstance(value, dict):
        return {k: _json_extra(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_extra(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return fmt_metric(value)
    return value


@dataclass
class FamilyResult:
    """Metrics for one trained family; None encodes 'not applicable'."""

    family: str
    rank: int | None = None
    metrics: dict = field(default_factory=dict)
    runtime_s: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "metrics": {k: fmt_metric(v) for k, v in self.metrics.items()},
            "runtime_s": self.runtime_s,
        }


@dataclass
class ExperimentReport:
    """One command's results.

    ``figures`` maps a figure name to a zero-argument callable that builds
    the arrays its SVG is drawn from; it is called only when that SVG is
    rendered, so a run without SVGs builds no figure data.  It is not a
    result: report.json never carries it, and it takes no part in
    comparing two reports.  ``environment`` is where the results were
    computed (``environment()``); report.json carries it, but it takes no
    part in comparing two reports either.
    """

    experiment: str
    seed: int
    config: dict
    families: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict, compare=False, repr=False)
    environment: dict = field(default_factory=environment, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "config": self.config,
            "families": [f.to_json_dict() for f in self.families],
            "extras": _json_extra(self.extras),
            "environment": self.environment,
        }

    def csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for f in self.families:
            cells = [
                f.family,
                "na" if f.rank is None else str(f.rank),
                fmt_metric(f.metrics.get("kl_p_q")),
                fmt_metric(f.metrics.get("kl_q_p")),
                fmt_metric(f.metrics.get("logq_theta_star")),
                fmt_metric(f.metrics.get("elbo")),
                "na",  # wall-clock lives in report.json; CSV stays reproducible
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, out_dir, formats=("json", "csv")) -> list:
    """Write report.json / tables.csv / figure SVGs; returns written paths.

    ``formats`` is a subset of ``FORMATS``; the CLI checks it before any
    training starts.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out_dir / "report.json"
        path.write_text(json.dumps(report.to_json_dict(), indent=2, allow_nan=False))
        written.append(path)
    if "csv" in formats:
        path = out_dir / "tables.csv"
        path.write_text(report.csv_text())
        written.append(path)
    if "svg" in formats:
        written.extend(_emit_svgs(report, out_dir))
    return written


# ---------------------------------------------------------------------------
# SVG figure data (hand-rolled: deterministic text, no plotting dependency)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class _Frame:
    """Maps data coordinates into a fixed SVG viewport."""

    def __init__(self, xlim, ylim, width=640, height=420, margin=40):
        self.xlim, self.ylim = xlim, ylim
        self.width, self.height, self.margin = width, height, margin

    def x(self, x):
        span = self.xlim[1] - self.xlim[0]
        return self.margin + (x - self.xlim[0]) / span * (self.width - 2 * self.margin)

    def y(self, y):
        span = self.ylim[1] - self.ylim[0]
        return self.height - self.margin - (y - self.ylim[0]) / span * (
            self.height - 2 * self.margin
        )

    def polyline(self, xs, ys, stroke, width="1", opacity="1"):
        pts = " ".join(f"{_fmt(self.x(a))},{_fmt(self.y(b))}" for a, b in zip(xs, ys))
        return (
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}" '
            f'stroke-opacity="{opacity}" points="{pts}"/>'
        )

    def circle(self, x, y, r, fill):
        return f'<circle cx="{_fmt(self.x(x))}" cy="{_fmt(self.y(y))}" r="{r}" fill="{fill}"/>'

    def document(self, body: list) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        )
        frame_rect = (
            f'<rect x="{self.margin}" y="{self.margin}" '
            f'width="{self.width - 2 * self.margin}" '
            f'height="{self.height - 2 * self.margin}" fill="none" stroke="#888"/>'
        )
        return "\n".join([head, frame_rect, *body, "</svg>"]) + "\n"


def svg_atom_curves(doc: dict) -> str:
    """Posterior atom curves over an input grid, truth and data overlaid."""
    xs = np.asarray(doc["x"])
    curves = np.asarray(doc["curves"])
    weights = np.asarray(doc["weights"])
    ys = [curves.min(), curves.max()]
    if "truth" in doc:
        truth = np.asarray(doc["truth"])
        ys = [min(ys[0], truth.min()), max(ys[1], truth.max())]
    pad = 0.05 * (ys[1] - ys[0] + 1e-9)
    frame = _Frame((float(xs.min()), float(xs.max())), (ys[0] - pad, ys[1] + pad))
    body = []
    w_max = weights.max() if weights.size else 1.0
    for curve, w in zip(curves, weights):
        opacity = 0.08 + 0.6 * (w / w_max)
        body.append(frame.polyline(xs, curve, "#3366cc", opacity=f"{opacity:.3f}"))
    if "truth" in doc:
        body.append(frame.polyline(xs, doc["truth"], "#000000", width="2"))
    for x, t in zip(doc.get("data_x", []), doc.get("data_t", [])):
        body.append(frame.circle(x, t, 2.5, "#a0522d"))
    return frame.document(body)


def _ellipse_path(frame, mean, cov, scale, stroke):
    angles = np.linspace(0.0, 2.0 * np.pi, 120)
    vals, vecs = np.linalg.eigh(cov)
    radii = scale * np.sqrt(np.maximum(vals, 0.0))
    circle = np.stack([np.cos(angles), np.sin(angles)])
    pts = (vecs @ (radii[:, None] * circle)).T + mean
    return frame.polyline(pts[:, 0], pts[:, 1], stroke)


def svg_isolines(doc: dict) -> str:
    """1- and 2-sigma isolines of 2-D Gaussian fits around the target."""
    target_mean = np.asarray(doc["target_mean"])[:2]
    target_cov = np.asarray(doc["target_cov"])[:2, :2]
    spread = 2.8 * math.sqrt(float(np.max(np.diag(target_cov))))
    frame = _Frame(
        (target_mean[0] - spread, target_mean[0] + spread),
        (target_mean[1] - spread, target_mean[1] + spread),
    )
    body = []
    for s in (1.0, 2.0):
        body.append(_ellipse_path(frame, target_mean, target_cov, s, "#555555"))
    palette = ("#cc3333", "#2277cc", "#22aa66", "#aa7722", "#7744cc", "#cc44aa")
    for i, fit in enumerate(doc.get("fits", [])):
        mean = np.asarray(fit["mean"])[:2]
        cov = np.asarray(fit["cov"])[:2, :2]
        color = palette[i % len(palette)]
        for s in (1.0, 2.0):
            body.append(_ellipse_path(frame, mean, cov, s, color))
    return frame.document(body)


def _emit_svgs(report: ExperimentReport, out_dir: Path) -> list:
    written = []
    for name, filename, render in (
        ("dropout_curves", "posterior_atoms.svg", svg_atom_curves),
        ("isolines", "posterior_isolines.svg", svg_isolines),
    ):
        if name in report.figures:
            path = out_dir / filename
            path.write_text(render(report.figures[name]()))
            written.append(path)
    return written
