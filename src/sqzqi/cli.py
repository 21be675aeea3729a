"""Command-line front end.

Subcommands::

    sqzqi bound    sample a bound curve over F_T, or evaluate one phase argument
    sqzqi opa      evaluate the OPA variance model
    sqzqi analyze  classify a squeezing dataset against bound curves
    sqzqi plot     emit a deterministic SVG figure (presets 4-8)

Exit codes: 0 success, 2 usage/domain error, 3 numeric failure (no
convergence or a failed self-check), 4 dataset error.  A ``--config``
file (``key=value`` lines) understands ``quad.max_nodes`` (the quadrature
subdivision limit) and ``plot.db_floor``; a missing file, or a value that
does not parse or is out of range, is a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import meta, opa, qi_bound, svgfig
from .qi_bound import QiCurve, Variant, parse_curve_id
from .units import format_db, to_db
from .windows import QuadratureConfig, QuadratureError, WindowKind, resolve_method

DEFAULT_DB_FLOOR = -25.0
DEFAULT_CURVES = "gaussian-paper,gaussian-marecki,lorentzian2-paper,lorentzian2-marecki"
TRAPEZOID_FAMILY = (0.001, 0.2, 0.5, 1.0, 3.0, 5.0)
MAX_GRID_POINTS = 1_000_000


class UsageError(ValueError):
    pass


@dataclass
class Config:
    quad: QuadratureConfig
    db_floor: float


def _load_config(path: str | None) -> Config:
    quad = QuadratureConfig()
    db_floor = DEFAULT_DB_FLOOR
    if path:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc.strerror}") from None
        for line_no, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in ("quad.max_nodes", "plot.db_floor"):
                raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                if key == "quad.max_nodes":
                    quad = QuadratureConfig(max_subdivisions=int(value))
                else:
                    db_floor = float(value)
                    if not (math.isfinite(db_floor) and db_floor < 0.0):
                        raise ValueError(f"must be finite and negative, got {value!r}")
            except ValueError as exc:
                raise UsageError(f"{path}:{line_no}: {key}: {exc}") from None
    return Config(quad=quad, db_floor=db_floor)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(s) for s in spec.split(":"))
    except ValueError:
        raise UsageError(f"grid must be lo:hi:step, got {spec!r}") from None
    if not (0.0 < lo <= hi <= 1.0 and 0.0 < step < math.inf):
        raise UsageError(f"grid {spec!r} must satisfy 0 < lo <= hi <= 1 and 0 < step < inf")
    _check_grid_size(hi - lo, step)
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return np.round(lo + step * np.arange(count), 12)


def _plot_grid(step: float | None, default: float) -> np.ndarray:
    step = default if step is None else step
    if not 0.0 < step <= 0.5:
        raise UsageError(f"--grid-step must lie in (0, 0.5], got {step:g}")
    _check_grid_size(0.5, step)
    return np.round(np.arange(step, 0.5 + step * 1e-6, step), 10)


def _check_grid_size(span: float, step: float) -> None:
    if span / step >= MAX_GRID_POINTS:  # before any array is built
        raise UsageError(f"a step of {step:g} gives more than {MAX_GRID_POINTS} grid points")


def _shipped_dataset() -> Path:
    return Path(__file__).parent / "data" / "records.csv"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqzqi", description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="sample a bound curve or evaluate one argument")
    p.add_argument("--window", required=True, choices=[k.value for k in WindowKind])
    p.add_argument("--n", type=float, help="trapezoid side length in units of the flat top")
    p.add_argument("--variant", choices=[v.value for v in Variant], default="paper")
    p.add_argument("--scale", type=float, default=1.0, help="argument scale k (default 1)")
    p.add_argument("--ft", help="F_T grid as lo:hi:step")
    p.add_argument("--omega-t0", type=float, help="evaluate a single phase argument instead")
    p.add_argument("--numeric", action="store_true", help="force numeric bound evaluation")
    p.add_argument("--allow-square", action="store_true",
                   help="opt in to the mathematically unstable square window")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("opa", help="evaluate the OPA variance model")
    p.add_argument("--x", type=float, help="pump ratio P/P_th in (0,1)")
    p.add_argument("--beta", type=float, help="optical efficiency in (0,1]")
    p.add_argument("--w", type=float, default=0.0, help="sideband frequency omega/gamma")
    p.add_argument("--theta", type=float, help="quadrature phase (rad)")
    p.add_argument("--extremes", action="store_true",
                   help="print extremal variances, their product, and F_T")
    p.add_argument("--ft", action="store_true", help="print the squeezed fraction")
    p.add_argument("--ideal-bound", type=float, metavar="FT",
                   help="deepest lossless-OPA squeezing at this F_T")
    p.set_defaults(func=cmd_opa)

    p = sub.add_parser("analyze", help="classify a squeezing dataset")
    p.add_argument("--data", help="dataset CSV (default: shipped records)")
    p.add_argument("--curves", default=DEFAULT_CURVES, help="comma-separated curve ids")
    p.add_argument("--no-ideal", action="store_true", help="skip the lossless-OPA comparison")
    p.add_argument("--fit", action="store_true", help="fit envelope scales for each curve")
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plot", help="emit an SVG figure")
    p.add_argument("--fig", type=int, choices=[4, 5, 6, 7, 8], help="figure preset")
    p.add_argument("--curve", action="append", default=[], help="curve id (repeatable)")
    p.add_argument("--report", help="JSON report supplying data points")
    p.add_argument("--grid-step", type=float, help="F_T sampling step for curves")
    p.add_argument("--db-floor", type=float, help="clip level in dB (default config/-25)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except (QuadratureError, qi_bound.ConsistencyError) as exc:
        print(f"sqzqi: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (meta.DatasetError, meta.FitError) as exc:
        print(f"sqzqi: dataset error: {exc}", file=sys.stderr)
        return 4
    except (UsageError, ValueError) as exc:
        print(f"sqzqi: {exc}", file=sys.stderr)
        return 2


def _curve_from_args(args) -> QiCurve:
    kind = WindowKind(args.window)
    n = args.n if kind is WindowKind.TRAPEZOID else None
    if kind is not WindowKind.TRAPEZOID and args.n is not None:
        raise UsageError("--n only applies to the trapezoid window")
    if kind is WindowKind.SQUARE and not args.allow_square:
        raise UsageError("the square window is mathematically unstable; pass --allow-square")
    return QiCurve(
        window=kind,
        variant=Variant(args.variant),
        scale=args.scale,
        n=n,
        method=resolve_method(kind, numeric=True) if args.numeric else None,
        allow_unstable=args.allow_square,
    )


def cmd_bound(args, config: Config) -> int:
    if (args.ft is None) == (args.omega_t0 is None):
        raise UsageError("pass exactly one of --ft or --omega-t0")
    curve = _curve_from_args(args)
    if args.omega_t0 is not None:
        r = qi_bound.bound_value(curve.window, curve.n, args.omega_t0, curve.method, config.quad)
        print(f"R = {format_db(r)} dB  (window={curve.window.value}, omega_t0={args.omega_t0:g})")
        return 0
    grid = _parse_grid(args.ft)
    csv_text = qi_bound.curve_csv([curve], grid, config.quad)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_opa(args, config: Config) -> int:
    did_something = False
    if args.ideal_bound is not None:
        ft = args.ideal_bound
        # the library keeps the open domain; the CLI accepts the 0.5
        # boundary where the bound closes at exactly 0 dB
        if not (0.0 < ft <= 0.5):
            raise UsageError(f"--ideal-bound takes F_T in (0, 0.5], got {ft}")
        s = 1.0 if ft == 0.5 else opa.ideal_bound(ft)
        print(f"ideal OPA bound at F_T={ft:g}: S- = {s:.6g} ({format_db(to_db(s))} dB)")
        did_something = True
    if args.extremes or args.ft or args.theta is not None:
        if args.x is None or args.beta is None:
            raise UsageError("--x and --beta are required for model evaluation")
    if args.theta is not None:
        p = opa.OpaParams(x=args.x, beta=args.beta, w=args.w, theta=args.theta)
        s = opa.variance(p)
        print(f"S(theta={args.theta:g}) = {s:.6g} ({format_db(to_db(s))} dB)")
        did_something = True
    if args.extremes:
        point = opa.extremes(args.x, args.beta, args.w)
        product = opa.extremal_product(args.x, args.beta, args.w)
        print(f"S- = {point.s_minus:.6g} ({format_db(to_db(point.s_minus))} dB)")
        print(f"S+ = {point.s_plus:.6g} ({format_db(to_db(point.s_plus))} dB)")
        print(f"S-*S+ = {product:.6g}")
        print(f"F_T = {point.ft:.6g}")
        did_something = True
    elif args.ft:
        ft = opa.squeezed_fraction(args.x, args.beta, args.w)
        print(f"F_T = {ft:.6g}")
        did_something = True
    if not did_something:
        raise UsageError("nothing to do: pass --extremes, --ft, --theta or --ideal-bound")
    return 0


def _parse_curves(spec: str) -> list[QiCurve]:
    curves = []
    for token in spec.split(","):
        token = token.strip()
        if token:
            curves.append(parse_curve_id(token))
    if not curves:
        raise UsageError("empty curve list")
    return curves


def cmd_analyze(args, config: Config) -> int:
    data = Path(args.data) if args.data else _shipped_dataset()
    try:
        records = meta.load_records(data)
    except OSError as exc:
        raise meta.DatasetError(f"cannot read {data}: {exc.strerror}") from None
    curves = _parse_curves(args.curves)
    fit_curves = curves if args.fit else None
    report = meta.classify(
        records, curves,
        include_ideal=not args.no_ideal,
        fit_curves=fit_curves,
        cfg=config.quad,
    )
    if not records:
        print("warning: dataset is empty", file=sys.stderr)
    for skip in report.skipped:
        print(f"warning: skipped record {skip['id']}: {skip['reason']}", file=sys.stderr)
    print(f"records: {len(report.per_record)} classified, {len(report.skipped)} skipped")
    for curve in curves:
        count = sum(1 for r in report.per_record if r.violations[curve.curve_id])
        print(f"violations[{curve.curve_id}]: {count}/{len(report.per_record)}")
    if not args.no_ideal:
        exceeded = sum(1 for r in report.per_record if r.ideal_opa_exceeded)
        print(f"ideal-opa exceeded: {exceeded}/{len(report.per_record)}")
    if report.method_agreement_rms is not None:
        print(f"F_T method agreement (rms): {100 * report.method_agreement_rms:.1f}%")
    for cid, fit in report.fitted_scales.items():
        print(f"fit[{cid}]: envelope k = {fit.envelope_k:.6g}, "
              f"least-squares k = {fit.least_squares_k:.6g}")
    if args.report:
        Path(args.report).write_text(report.to_json(), encoding="utf-8")
        print(f"report written to {args.report}")
    return 0


def _points(xs: np.ndarray, ys: np.ndarray):
    return tuple(xs.tolist()), tuple(ys.tolist())


def _curve_points(curve: QiCurve, grid: np.ndarray, quad: QuadratureConfig):
    return _points(grid, qi_bound.sample_curve(curve, grid, quad))


def _report_points(path: str) -> svgfig.PointSet:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise meta.DatasetError(f"cannot read report {path}: {exc.strerror}") from None
    try:
        report = meta.AnalysisReport.from_json(text)
        rows = [r for r in report.per_record if math.isfinite(r.r_db_used)]
    except (KeyError, TypeError, ValueError) as exc:
        raise meta.DatasetError(f"malformed report {path}: {type(exc).__name__}: {exc}") from None
    return svgfig.PointSet(
        label="experimental points",
        x=tuple(r.ft_used for r in rows),
        y=tuple(r.r_db_used for r in rows),
        x_err=tuple(r.ft_err_used for r in rows),
        y_err=tuple(r.s_err_db_used for r in rows),
    )


def _fig_spec(fig: int, grid_step: float | None, db_floor: float,
              quad: QuadratureConfig) -> svgfig.PlotSpec:
    if fig == 4:
        xs = np.round(np.arange(0.005, 0.9951, 0.005), 10)
        return svgfig.PlotSpec(
            title="Deepest squeezing vs pump ratio (lossless, on resonance)",
            x_label="x = P/P_th", y_label="S- (dB)",
            x_range=(0.0, 1.0), y_range=(db_floor, 0.0),
            curves=[svgfig.CurveTrace("S-(x, 0), beta = 1",
                                      *_points(xs, to_db(opa.s_minus(xs, 1.0, 0.0))))],
        )
    grid = _plot_grid(grid_step, 0.02 if fig == 8 else 0.005)
    spec = svgfig.PlotSpec(
        title="", x_label="F_T", y_label="R (dB)",
        x_range=(0.0, 0.5), y_range=(db_floor, 0.0),
    )
    ideal = svgfig.CurveTrace("ideal OPA", *_points(grid, opa.ideal_r_db(grid)), width=2.2)
    if fig == 5:
        spec.title = "Gaussian-window bound vs squeezed fraction"
        g1 = QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI)
        g2 = QiCurve(WindowKind.GAUSSIAN, Variant.NO_PI)
        spec.curves = [
            svgfig.CurveTrace(g1.curve_id, *_curve_points(g1, grid, quad), style="dotted"),
            svgfig.CurveTrace(g2.curve_id, *_curve_points(g2, grid, quad), style="dotted",
                              color="#666666"),
            ideal,
        ]
    elif fig == 6:
        spec.title = "Squared-Lorentzian-window bound vs squeezed fraction"
        l1 = QiCurve(WindowKind.LORENTZIAN_SQ, Variant.WITH_PI)
        l2 = QiCurve(WindowKind.LORENTZIAN_SQ, Variant.NO_PI)
        spec.curves = [
            svgfig.CurveTrace(l1.curve_id, *_curve_points(l1, grid, quad), style="solid"),
            svgfig.CurveTrace(l2.curve_id, *_curve_points(l2, grid, quad), style="dashed",
                              color="#666666"),
            replace(ideal, style="dashed"),
        ]
    elif fig == 7:
        spec.title = "Best-fit argument scales"
        lf = QiCurve(WindowKind.LORENTZIAN_SQ, Variant.WITH_PI, scale=1.0 / (3.0 * math.pi))
        gf = QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI, scale=1.0 / (4.0 * math.pi))
        spec.curves = [
            svgfig.CurveTrace(lf.curve_id, *_curve_points(lf, grid, quad), style="solid"),
            svgfig.CurveTrace(gf.curve_id, *_curve_points(gf, grid, quad), style="dashed"),
        ]
    elif fig == 8:
        spec.title = "Trapezoid-window bounds vs squeezed fraction"
        curves = []
        for n in TRAPEZOID_FAMILY:
            cp = QiCurve(WindowKind.TRAPEZOID, Variant.WITH_PI, n=n)
            cm = QiCurve(WindowKind.TRAPEZOID, Variant.NO_PI, n=n)
            curves.append(svgfig.CurveTrace("", *_curve_points(cp, grid, quad), style="dashed"))
            curves.append(svgfig.CurveTrace("", *_curve_points(cm, grid, quad), style="solid",
                                            color="#888888"))
        curves.append(ideal)
        spec.curves = curves
        spec.legend = False
    else:
        raise UsageError(f"unknown figure preset {fig}")
    return spec


def cmd_plot(args, config: Config) -> int:
    db_floor = args.db_floor if args.db_floor is not None else config.db_floor
    if args.fig is not None:
        spec = _fig_spec(args.fig, args.grid_step, db_floor, config.quad)
    elif args.curve:
        grid = _plot_grid(args.grid_step, 0.005)
        spec = svgfig.PlotSpec(
            title="Bound curves", x_label="F_T", y_label="R (dB)",
            x_range=(0.0, 0.5), y_range=(db_floor, 0.0),
        )
        for cid in args.curve:
            curve = parse_curve_id(cid)
            spec.curves.append(
                svgfig.CurveTrace(curve.curve_id, *_curve_points(curve, grid, config.quad)))
    else:
        raise UsageError("pass --fig or at least one --curve")
    if args.report:
        spec.points.append(_report_points(args.report))
    svgfig.save_svg(spec, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
