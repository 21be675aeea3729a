"""Command-line front end.

Subcommands::

    sqzqi bound    sample a bound curve over F_T, or evaluate one phase argument
    sqzqi opa      evaluate the OPA variance model
    sqzqi analyze  classify a squeezing dataset against bound curves
    sqzqi plot     emit a deterministic SVG figure (presets 4-8)

Exit codes: 0 success, 2 usage/domain error, 3 numeric failure (no
convergence or a failed self-check), 4 dataset error.  An output file
that cannot be written, or an option that the command would ignore, is a
usage error.  A ``--data`` or ``plot --report`` file that cannot
be read, is not UTF-8 or is malformed is a dataset error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path

# Only what every command needs loads here; each command imports ``meta``, ``opa``
# and ``svgfig`` when it runs them.
from . import qi_bound
from .qi_bound import (ConsistencyError, DatasetError, FitError, QiCurve, QuadratureError,
                       Variant, parse_curve_id)
from .units import format_db, rounded_grid, to_db
from .windows import WindowKind

DEFAULT_DB_FLOOR = -25.0
DEFAULT_CURVES = "gaussian-paper,gaussian-marecki,lorentzian2-paper,lorentzian2-marecki"
TRAPEZOID_FAMILY = (0.001, 0.2, 0.5, 1.0, 3.0, 5.0)
MAX_GRID_POINTS = 1_000_000


class UsageError(ValueError):
    pass


def _read_text(path: str | Path, name: str) -> str:
    """The UTF-8 text of ``path``, a leading byte-order mark skipped; a file
    that cannot be read, or is not UTF-8, is a dataset error naming it ``name``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = str(exc)
    raise DatasetError(f"cannot read {name}: {reason}") from None


@contextmanager
def _writing(path: str):
    """A failed write of ``path`` becomes a usage error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _check_output(path: str | None) -> None:
    """Refuse, before any work, an output path that names a directory or
    lies in a missing directory, with the error its write would give."""
    if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        with _writing(path):
            open(path, "r+").close()  # raises; "r+" never creates or truncates


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(s) for s in spec.split(":"))
    except ValueError:
        raise UsageError(f"grid must be lo:hi:step, got {spec!r}") from None
    if not (0.0 < lo <= hi <= 1.0 and 0.0 < step < math.inf):
        raise UsageError(f"grid {spec!r} must satisfy 0 < lo <= hi <= 1 and 0 < step < inf")
    _check_grid_size(hi - lo, step)
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return rounded_grid(lo, step, count, 12)


def _plot_grid(step: float | None, default: float) -> list[float]:
    step = default if step is None else step
    if not 0.0 < step <= 0.5:
        raise UsageError(f"--grid-step must lie in (0, 0.5], got {step:g}")
    _check_grid_size(0.5, step)
    # the points of np.arange(step, 0.5 + step * 1e-6, step)
    return rounded_grid(step, step, math.ceil((0.5 + step * 1e-6 - step) / step), 10)


def _check_grid_size(span: float, step: float) -> None:
    if span / step >= MAX_GRID_POINTS:  # before any array is built
        raise UsageError(f"a step of {step:g} gives more than {MAX_GRID_POINTS} grid points")


def _shipped_dataset() -> Path:
    return Path(__file__).parent / "data" / "records.csv"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqzqi", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="sample a bound curve or evaluate one argument")
    p.add_argument("--window", required=True, choices=[k.value for k in WindowKind])
    p.add_argument("--n", type=float, help="trapezoid side length in units of the flat top")
    p.add_argument("--variant", choices=[v.value for v in Variant],
                   help="argument convention (default paper)")
    p.add_argument("--scale", type=float, help="argument scale k (default 1)")
    p.add_argument("--ft", help="F_T grid as lo:hi:step")
    p.add_argument("--omega-t0", type=float, help="evaluate a single phase argument instead")
    p.add_argument("--allow-square", action="store_true",
                   help="opt in to the mathematically unstable square window")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("opa", help="evaluate the OPA variance model")
    p.add_argument("--x", type=float, help="pump ratio P/P_th in (0,1)")
    p.add_argument("--beta", type=float, help="optical efficiency in (0,1]")
    p.add_argument("--w", type=float, help="sideband frequency omega/gamma (default 0)")
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
    p.add_argument("--fit", action="store_true", help="fit envelope scales for each curve")
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plot", help="emit an SVG figure")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--fig", type=int, choices=[4, 5, 6, 7, 8], help="figure preset")
    target.add_argument("--curve", action="append", help="curve id (repeatable)")
    p.add_argument("--report", help="JSON report supplying data points (not with --fig 4)")
    p.add_argument("--grid-step", type=float, help="F_T sampling step (not with --fig 4)")
    p.add_argument("--db-floor", type=float, default=DEFAULT_DB_FLOOR,
                   help="clip level in dB (default -25)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--opt -1e-3`` as ``--opt=-1e-3``: argparse takes a negative number
    in exponent form, or ``-inf``, for an option name.  No option of this
    CLI looks like a number, so such a token can only be a value."""
    out: list[str] = []
    for token in argv:
        option = out[-1] if out else ""
        if (option.startswith("--") and option != "--" and "=" not in option
                and token.startswith("-")):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QuadratureError, ConsistencyError) as exc:
        print(f"sqzqi: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DatasetError, FitError) as exc:
        print(f"sqzqi: dataset error: {exc}", file=sys.stderr)
        return 4
    except (UsageError, ValueError) as exc:
        print(f"sqzqi: {exc}", file=sys.stderr)
        return 2


def _curve_from_args(args) -> QiCurve:
    kind = WindowKind(args.window)
    if kind is not WindowKind.TRAPEZOID and args.n is not None:
        raise UsageError("--n only applies to the trapezoid window")
    if kind is WindowKind.SQUARE and not args.allow_square:
        raise UsageError("the square window is mathematically unstable; pass --allow-square")
    if kind is not WindowKind.SQUARE and args.allow_square:
        raise UsageError("--allow-square only applies to the square window")
    return QiCurve(
        window=kind,
        variant=Variant(args.variant or "paper"),
        scale=1.0 if args.scale is None else args.scale,
        n=args.n,
        allow_unstable=args.allow_square,
    )


def cmd_bound(args) -> int:
    if (args.ft is None) == (args.omega_t0 is None):
        raise UsageError("pass exactly one of --ft or --omega-t0")
    if args.omega_t0 is not None:
        for name, value in (("--variant", args.variant), ("--scale", args.scale),
                            ("--out", args.out)):
            if value is not None:
                raise UsageError(f"{name} applies to --ft only; --omega-t0 prints one value")
    curve = _curve_from_args(args)
    if args.omega_t0 is not None:
        r = qi_bound.bound_value(curve.window, curve.n, args.omega_t0)
        print(f"R = {format_db(r)} dB  (window={curve.window.value}, omega_t0={args.omega_t0:g})")
        return 0
    grid = _parse_grid(args.ft)
    _check_output(args.out)
    csv_text = qi_bound.curve_csv(curve, grid)
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_opa(args) -> int:
    from . import opa

    if args.extremes or args.ft or args.theta is not None:
        if args.x is None or args.beta is None:
            raise UsageError("--x and --beta are required for model evaluation")
    elif (args.x, args.beta, args.w) != (None, None, None):
        raise UsageError("--x, --beta and --w apply only with --theta, --extremes or --ft")
    elif args.ideal_bound is None:
        raise UsageError("nothing to do: pass --extremes, --ft, --theta or --ideal-bound")
    w = 0.0 if args.w is None else args.w

    if args.ideal_bound is not None:
        ft = args.ideal_bound
        # the library keeps the open domain; the CLI accepts the 0.5
        # boundary where the bound closes at exactly 0 dB
        if not (0.0 < ft <= 0.5):
            raise UsageError(f"--ideal-bound takes F_T in (0, 0.5], got {ft}")
        s = 1.0 if ft == 0.5 else opa.ideal_bound(ft)
        print(f"ideal OPA bound at F_T={ft:g}: S- = {s:.6g} ({format_db(to_db(s))} dB)")
    if args.theta is not None:
        s = opa.variance(args.x, args.beta, w, args.theta)
        print(f"S(theta={args.theta:g}) = {s:.6g} ({format_db(to_db(s))} dB)")
    if args.extremes:
        point = opa.extremes(args.x, args.beta, w)
        product = opa.extremal_product(args.x, args.beta, w)
        print(f"S- = {point.s_minus:.6g} ({format_db(to_db(point.s_minus))} dB)")
        print(f"S+ = {point.s_plus:.6g} ({format_db(to_db(point.s_plus))} dB)")
        print(f"S-*S+ = {product:.6g}")
        print(f"F_T = {point.ft:.6g}")
    elif args.ft:
        ft = opa.squeezed_fraction(args.x, args.beta, w)
        print(f"F_T = {ft:.6g}")
    return 0


def _parse_curves(ids) -> list[QiCurve]:
    """The curves of ``analyze --curves`` and ``plot --curve``, blank ids
    skipped; a square id, or two ids of one curve, is a usage error."""
    curves = {}
    for token in ids:
        token = token.strip()
        if not token:
            continue
        if token.split("-")[0] == WindowKind.SQUARE.value:
            raise UsageError("the square window is mathematically unstable; square curves are "
                             "available only through `bound --window square --allow-square`")
        curve = parse_curve_id(token)
        if curve.curve_id in curves:
            raise UsageError(f"curve {curve.curve_id} is named more than once")
        curves[curve.curve_id] = curve
    if not curves:
        raise UsageError("empty curve list")
    return list(curves.values())


def cmd_analyze(args) -> int:
    from . import meta

    _check_output(args.report)
    data = Path(args.data) if args.data else _shipped_dataset()
    records = meta.load_records(_read_text(data, str(data)))
    curves = _parse_curves(args.curves.split(","))
    report = meta.classify(records, curves, fit_curves=curves if args.fit else None)
    if not records:
        print("warning: dataset is empty", file=sys.stderr)
    for skip in report.skipped:
        print(f"warning: skipped record {skip['id']}: {skip['reason']}", file=sys.stderr)
    print(f"records: {len(report.per_record)} classified, {len(report.skipped)} skipped")
    for cid in (curve.curve_id for curve in curves):
        count = sum(1 for r in report.per_record if r.violations[cid])
        print(f"violations[{cid}]: {count}/{len(report.per_record)}")
    exceeded = sum(1 for r in report.per_record if r.ideal_opa_exceeded)
    print(f"ideal-opa exceeded: {exceeded}/{len(report.per_record)}")
    if report.method_agreement_rms is not None:
        print(f"F_T method agreement (rms): {100 * report.method_agreement_rms:.1f}%")
    for cid, fit in report.fitted_scales.items():
        print(f"fit[{cid}]: envelope k = {fit.envelope_k:.6g}, "
              f"least-squares k = {fit.least_squares_k:.6g}")
    if args.report:
        with _writing(args.report):
            Path(args.report).write_text(report.to_json(), encoding="utf-8")
        print(f"report written to {args.report}")
    return 0


_ERROR_FIELDS = ("ft_err_used", "s_err_db_used")
_POINT_FIELDS = ("ft_used", "r_db_used", *_ERROR_FIELDS)


def _report_points(path: str) -> svgfig.PointSet:
    from . import meta, svgfig

    text = _read_text(path, f"report {path}")
    try:
        report = meta.AnalysisReport.from_json(text)
        # a record at the -inf squeezing sentinel has no point to draw
        rows = [r for r in report.per_record if r.r_db_used != -math.inf]
        for r in rows:
            for name in _POINT_FIELDS:
                value = getattr(r, name)
                if type(value) not in (int, float) or not math.isfinite(value):
                    raise ValueError(f"record {r.record_id!r}: {name} is not a finite number: "
                                     f"{value!r}")
                if value < 0 and name in _ERROR_FIELDS:
                    raise ValueError(f"record {r.record_id!r}: {name} is negative: {value!r}")
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise DatasetError(f"malformed report {path}: {type(exc).__name__}: {exc}") from None
    return svgfig.PointSet(
        label="experimental points",
        x=tuple(r.ft_used for r in rows),
        y=tuple(r.r_db_used for r in rows),
        x_err=tuple(r.ft_err_used for r in rows),
        y_err=tuple(r.s_err_db_used for r in rows),
    )


class _BoundFigure(namedtuple("_BoundFigure", "title grid_step traces ideal")):
    """An R-against-F_T figure: its default F_T sampling step, a (curve,
    stroke style, colour) per bound trace, and the ideal-OPA trace's stroke
    style (None: not drawn)."""

    __slots__ = ()


_G, _L, _T = WindowKind.GAUSSIAN, WindowKind.LORENTZIAN_SQ, WindowKind.TRAPEZOID
_PAPER, _MARECKI = Variant.WITH_PI, Variant.NO_PI
_FIGURES = {
    5: _BoundFigure("Gaussian-window bound vs squeezed fraction", 0.005, (
        (QiCurve(_G, _PAPER), "dotted", "#000000"),
        (QiCurve(_G, _MARECKI), "dotted", "#666666")), ideal="solid"),
    6: _BoundFigure("Squared-Lorentzian-window bound vs squeezed fraction", 0.005, (
        (QiCurve(_L, _PAPER), "solid", "#000000"),
        (QiCurve(_L, _MARECKI), "dashed", "#666666")), ideal="dashed"),
    7: _BoundFigure("Best-fit argument scales", 0.005, (
        (QiCurve(_L, _PAPER, scale=1.0 / (3.0 * math.pi)), "solid", "#000000"),
        (QiCurve(_G, _PAPER, scale=1.0 / (4.0 * math.pi)), "dashed", "#000000")), ideal=None),
    8: _BoundFigure("Trapezoid-window bounds vs squeezed fraction", 0.02, tuple(
        trace for n in TRAPEZOID_FAMILY for trace in (
            (QiCurve(_T, _PAPER, n=n), "dashed", "#000000"),
            (QiCurve(_T, _MARECKI, n=n), "solid", "#888888"))), ideal="solid"),
}


def cmd_plot(args) -> int:
    from . import opa, svgfig

    if not (math.isfinite(args.db_floor) and args.db_floor < 0.0):
        raise UsageError(f"--db-floor must be a finite negative dB value, got {args.db_floor:g}")
    if args.db_floor > -sys.float_info.min:  # a subnormal span leaves the axis no tick step
        raise UsageError(f"--db-floor must be at most {-sys.float_info.min!r} dB (a normal "
                         f"float), got {args.db_floor!r}")
    _check_output(args.out)
    if args.fig == 4:  # S- against the pump ratio: no F_T grid
        if args.grid_step is not None:
            raise UsageError("--grid-step applies to F_T plots only; fig 4 has no F_T grid")
        if args.report is not None:
            raise UsageError("--report draws (F_T, R) points; fig 4 has no F_T axis")
        xs = rounded_grid(0.005, 0.005, 199, 10)  # 0.005, 0.01, ..., 0.995
        spec = svgfig.PlotSpec(
            title="Deepest squeezing vs pump ratio (lossless, on resonance)",
            x_label="x = P/P_th", y_label="S- (dB)",
            x_range=(0.0, 1.0), y_range=(args.db_floor, 0.0),
            curves=[svgfig.CurveTrace("S-(x, 0), beta = 1", tuple(xs),
                                      tuple(to_db(opa.s_minus(x, 1.0, 0.0)) for x in xs))],
        )
    else:
        fig = _FIGURES[args.fig] if args.fig is not None else _BoundFigure(
            "Bound curves", 0.005,
            tuple((curve, "solid", "#000000") for curve in _parse_curves(args.curve)),
            ideal=None)
        grid = _plot_grid(args.grid_step, fig.grid_step)
        curves = [svgfig.CurveTrace(curve.curve_id, tuple(grid), tuple(
            qi_bound.sample_curve(curve, grid)),
            style=style, color=color) for curve, style, color in fig.traces]
        if fig.ideal is not None:
            curves.append(svgfig.CurveTrace("ideal OPA", tuple(grid),
                                            tuple(opa.ideal_r_db(ft) for ft in grid),
                                            style=fig.ideal, width=2.2))
        spec = svgfig.PlotSpec(
            title=fig.title, x_label="F_T", y_label="R (dB)",
            x_range=(0.0, 0.5), y_range=(args.db_floor, 0.0), curves=curves)
    if args.report:
        spec = spec._replace(points=[_report_points(args.report)])
    with _writing(args.out):
        svgfig.save_svg(spec, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
