"""The benchmark's workloads: the ``sqzqi`` commands of one pass, each
with the check its outputs must pass.

Why these two (see README.md for the layer table):

* ``closedform`` the closed-form pipeline of scripts/make_figures.py
  without fig 8, then a seeded 5,000-record dataset.  Process start,
  import, closed-form curves, SVG rendering and the per-record loops of
  the meta-analysis dominate; no quadrature runs.
* ``trapezoid``  fig 8, a trapezoid-curve analysis and a trapezoid bound
  CSV.  The quadrature nested in a quadrature takes over 90% of the time.

The figure pipeline and the records dataset share one workload so that
each run is long enough to sample every command several times.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    CheckError,
    check_closed_form_rows,
    check_curve_rows,
    check_figure_points,
    check_fingerprint,
    check_report,
    load_fingerprints,
    parse_curve_csv,
    report_digest,
    sha256_text,
)
from records_gen import generate

DEFAULT_CURVES = ("gaussian-paper", "gaussian-marecki", "lorentzian2-paper", "lorentzian2-marecki")
# Shipped dataset: three records carry a depth and an F_T route.
SHIPPED_CLASSIFIED, SHIPPED_SKIPPED = 3, 13
# Trapezoid side lengths whose analysis does the same quadrature work
# within 4% (counted window evaluations), so the seed does not move the
# timings.
TRAPEZOID_SIDES = (0.1, 0.15, 0.2, 0.25)


@dataclass(frozen=True)
class Op:
    """One CLI command; ``check`` validates its outputs and returns their
    sha256 by name, raising :class:`CheckError` when they are wrong."""

    kind: str
    args: tuple[str, ...]
    check: Callable[[], dict[str, str]]


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _fixed(name: str, path: Path, reference: dict[str, str], digest=sha256_text,
           validate: Callable[[str], None] | None = None) -> Callable[[], dict[str, str]]:
    """Check an output of a fixed input against its reference fingerprint."""
    def check() -> dict[str, str]:
        text = _read(path)
        if validate:
            validate(text)
        got = digest(text)
        check_fingerprint(name, got, reference)
        return {name: got}
    return check


def _has_rows(count: int, curve_id: str) -> Callable[[str], None]:
    return lambda text: check_curve_rows(parse_curve_csv(text), count, curve_id)


def _curve_id(curve: str, scale: float) -> str:
    return curve if scale == 1.0 else f"{curve}-k{scale:.6g}"


def _seeded_curve(path: Path, curve: str, fts: list[float], scale: float):
    window, variant = curve.split("-")

    def check() -> dict[str, str]:
        text = _read(path)
        rows = parse_curve_csv(text)
        check_curve_rows(rows, len(fts), _curve_id(curve, scale))
        check_closed_form_rows(rows, window, variant, fts, scale)
        return {path.name: sha256_text(text)}
    return check


def _bound_args(curve: str, grid: str, scale: float, out: Path) -> tuple[str, ...]:
    window, variant = curve.split("-")
    return ("bound", "--window", window, "--variant", variant, "--scale", f"{scale:g}",
            "--ft", grid, "--out", str(out))


def figures(seed: int, out: Path) -> list[Op]:
    ref = load_fingerprints()
    rng = random.Random(f"figures:{seed}")
    report = out / "report.json"
    ops = [Op("analyze", ("analyze", "--fit", "--report", str(report)),
              _fixed("report.json", report, ref, digest=report_digest))]
    fig4 = out / "fig4.svg"
    ops.append(Op("plot", ("plot", "--fig", "4", "--out", str(fig4)),
                  _fixed("fig4.svg", fig4, ref)))
    for fig in (5, 6, 7):
        svg = out / f"fig{fig}.svg"
        ops.append(Op("plot", ("plot", "--fig", str(fig), "--report", str(report),
                               "--out", str(svg)),
                      _fixed(svg.name, svg, ref)))
    for curve in DEFAULT_CURVES:
        csv = out / f"{curve}.csv"
        ops.append(Op("bound", _bound_args(curve, "0.01:0.5:0.01", 1.0, csv),
                      _fixed(csv.name, csv, ref, validate=_has_rows(50, curve))))
    # the same curves on a seeded 50-point grid and argument scale
    lo = round(rng.uniform(0.005, 0.02), 4)
    step = round(rng.uniform(0.008, 0.0098), 5)
    grid = f"{lo:g}:{lo + 49.5 * step:.6f}:{step:g}"
    fts = [lo + step * i for i in range(50)]
    scale = round(rng.uniform(0.3, 1.0), 4)
    for curve in DEFAULT_CURVES:
        csv = out / f"{curve}-seeded.csv"
        ops.append(Op("bound", _bound_args(curve, grid, scale, csv),
                      _seeded_curve(csv, curve, fts, scale)))
    return ops


def trapezoid(seed: int, out: Path) -> list[Op]:
    ref = load_fingerprints()
    n = random.Random(f"trapezoid:{seed}").choice(TRAPEZOID_SIDES)
    fig8 = out / "fig8.svg"
    report = out / "report.json"
    curves = [f"trapezoid-paper-n{n:g}"]
    csv = out / "trapezoid-paper-n0.001.csv"

    def check_analysis() -> dict[str, str]:
        text = _read(report)
        check_report(json.loads(text), curves, SHIPPED_CLASSIFIED, SHIPPED_SKIPPED)
        return {f"report-n{n:g}": report_digest(text)}

    # Fig 8 on a 0.05 grid and one curve in the analysis keep each
    # command near 7 s, so that a run samples every command several times.
    return [
        Op("plot", ("plot", "--fig", "8", "--grid-step", "0.05", "--out", str(fig8)),
           _fixed("fig8.svg", fig8, ref)),
        Op("analyze", ("analyze", "--fit", "--curves", ",".join(curves), "--report", str(report)),
           check_analysis),
        Op("bound", ("bound", "--window", "trapezoid", "--n", "0.001", "--ft", "0.05:0.5:0.05",
                     "--out", str(csv)),
           _fixed(csv.name, csv, ref, validate=_has_rows(10, "trapezoid-paper-n0.001"))),
    ]


def records(seed: int, out: Path) -> list[Op]:
    rng = random.Random(f"records-curve:{seed}")
    text, expected = generate(seed)
    data = out / "records.csv"
    data.write_text(text, encoding="utf-8")
    report = out / "report.json"
    fig5 = out / "fig5.svg"

    def check_analysis() -> dict[str, str]:
        raw = _read(report)
        rep = json.loads(raw)
        check_report(rep, list(DEFAULT_CURVES), expected.classified, expected.skipped)
        reasons = {reason: 0 for reason in expected.skipped_by_reason}
        for skip in rep["skipped"]:
            reasons[skip["reason"]] = reasons.get(skip["reason"], 0) + 1
        if reasons != expected.skipped_by_reason:
            raise CheckError(f"skip reasons {reasons}, expected {expected.skipped_by_reason}")
        assumed = {name: 0 for name in expected.assumed_fields}
        averaged = 0
        for rec in rep["per_record"]:
            for name in rec["assumed_error_fields"]:
                assumed[name] += 1
            averaged += rec["ft_method"] == "average"
            depth, ft = expected.depth_and_ft[rec["record_id"]]
            if abs(rec["r_db_used"] - depth) > 1e-9 or abs(rec["ft_used"] - ft) > 1e-5 * ft:
                raise CheckError(f"record {rec['record_id']}: (r_db, F_T) = "
                                 f"({rec['r_db_used']}, {rec['ft_used']}), "
                                 f"expected ({depth}, {ft:.6g})")
        if assumed != expected.assumed_fields or averaged != expected.averaged:
            raise CheckError(f"defaults applied {assumed}, averaged {averaged}; expected "
                             f"{expected.assumed_fields}, {expected.averaged}")
        return {"records.csv": sha256_text(text), "report.json": report_digest(raw)}

    def check_figure() -> dict[str, str]:
        svg = _read(fig5)
        check_figure_points(svg, json.loads(_read(report)))
        return {fig5.name: sha256_text(svg)}

    # the envelope family sampled at the dataset's resolution, 5000 rows
    curve = rng.choice(DEFAULT_CURVES)
    scale = round(rng.uniform(0.1, 0.5), 4)
    csv = out / "envelope.csv"
    fts = [1e-4 * (i + 1) for i in range(5000)]
    return [
        Op("analyze", ("analyze", "--data", str(data), "--fit", "--report", str(report)),
           check_analysis),
        Op("plot", ("plot", "--fig", "5", "--report", str(report), "--out", str(fig5)),
           check_figure),
        Op("bound", _bound_args(curve, "0.0001:0.5:0.0001", scale, csv),
           _seeded_curve(csv, curve, fts, scale)),
    ]


def closedform(seed: int, out: Path) -> list[Op]:
    parts = out / "figures", out / "records"
    for part in parts:
        part.mkdir(parents=True, exist_ok=True)
    return figures(seed, parts[0]) + records(seed, parts[1])


WORKLOADS = {"closedform": closedform, "trapezoid": trapezoid}
