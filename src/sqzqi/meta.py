"""Ingestion and classification of published squeezing records.

A record carries whatever a publication actually printed: extremal
variances in dB, a squeezed fraction read off a phase-sweep plot, or
both.  The pipeline reconciles the two F_T routes (arctangent formula
versus graphical), classifies each record against a set of bound curves
and the lossless-OPA limit, and fits the largest argument-scale factor
for which a curve family excludes nothing (the envelope fit).

Dataset format: CSV with header

    id,ref_label,x,omega_over_gamma,beta,s_minus_db,s_plus_db,s_err_db,ft_formula,ft_graphical,ft_err

UTF-8 (a leading BOM is skipped), ``#`` comment lines permitted, absent values are empty fields.
Reports serialize to JSON with all numbers quantized to 6 significant
digits at assembly time, so serialization round-trips losslessly.  A
numeric field at the -inf squeezing sentinel is carried as the string
"-inf", and only a numeric field reads that string back as -inf: a
record id or a reason "-inf" stays a string.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import operator
from collections import namedtuple
from pathlib import Path

from .opa import ideal_r_db
from .qi_bound import DatasetError, FitError, QiCurve, curve_csv, curve_value, samples_csv
from .units import round_sig, rounded_grid

# Applied when a source gives no uncertainty; always flagged in the report.
DEFAULT_S_ERR_DB = 0.5
DEFAULT_FT_ERR = 0.02

DATASET_COLUMNS = (
    "id", "ref_label", "x", "omega_over_gamma", "beta",
    "s_minus_db", "s_plus_db", "s_err_db",
    "ft_formula", "ft_graphical", "ft_err",
)

_CAVEATS = (
    "phase-noise corrections applied in some source fits are not modeled",
    "absent uncertainties default to 0.5 dB / 0.02 in F_T and are flagged per record",
)


class FtMethod(enum.Enum):
    FORMULA = "formula"
    GRAPHICAL = "graphical"
    AVERAGE = "average"


class RecordFlag(enum.Enum):
    VIOLATES = "violates"
    CONSISTENT = "consistent"
    WITHIN_ERROR = "within-error"


class SqueezingRecord(namedtuple(
        "SqueezingRecord", "id ref_label x w beta s_minus_db s_plus_db s_err_db "
        "ft_formula ft_graphical ft_err ft_extremes")):
    """One experimental data point, fields as printed in the source, and
    ``ft_extremes``, which the record derives when it is built (no argument):
    F_T from the extremes when both are given, else None."""

    __slots__ = ()

    def __new__(cls, id, ref_label="", x=None, w=None, beta=None, s_minus_db=None,
                s_plus_db=None, s_err_db=None, ft_formula=None, ft_graphical=None, ft_err=None):
        given = (id, ref_label, x, w, beta, s_minus_db, s_plus_db, s_err_db,
                 ft_formula, ft_graphical, ft_err)
        for name, v in zip(cls._fields, given):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"record {id}: {name}={v} is not a finite number")
        if not id:
            raise ValueError("record id must be non-empty")
        ft = None
        if s_minus_db is not None and s_plus_db is not None:
            try:
                ft = ft_from_extremes(s_minus_db, s_plus_db)
            except ValueError as exc:
                raise ValueError(f"record {id}: {exc}") from None
        if x is not None and not (0.0 < x < 1.0):
            raise ValueError(f"record {id}: x={x} outside (0, 1)")
        if beta is not None and not (0.0 < beta <= 1.0):
            raise ValueError(f"record {id}: beta={beta} outside (0, 1]")
        if w is not None and w < 0:
            raise ValueError(f"record {id}: omega_over_gamma must be >= 0")
        for name, v in (("ft_formula", ft_formula), ("ft_graphical", ft_graphical)):
            if v is not None and not (0.0 < v < 1.0):
                raise ValueError(f"record {id}: {name}={v} outside (0, 1)")
        for name, v in (("s_err_db", s_err_db), ("ft_err", ft_err)):
            if v is not None and v < 0:
                raise ValueError(f"record {id}: {name} must be non-negative")
        return tuple.__new__(cls, (*given, ft))

    # ``_replace``, ``_make`` and copies build through ``__new__``: a changed
    # field is checked again, and ft_extremes derived again, never given
    def _replace(self, /, **changes):
        return type(self)(**dict(zip(self._fields[:-1], self), **changes))

    _make = classmethod(lambda cls, values: cls(*tuple(values)[:-1]))

    def __getnewargs__(self):
        return self[:-1]

    @property
    def is_stub(self) -> bool:
        return (self.s_minus_db is None and self.s_plus_db is None
                and self.ft_formula is None and self.ft_graphical is None)


def _parse_field(raw: str, line: int, name: str) -> float | None:
    raw = raw.strip()
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise DatasetError(f"field {name!r} is not a number: {raw!r}", line) from None


def load_records(source: str | Path) -> list[SqueezingRecord]:
    """Read a dataset CSV from a path (any ``os.PathLike``) or from CSV text (a ``str``)."""
    text = source if isinstance(source, str) else Path(source).read_text(encoding="utf-8-sig")
    records, first_line = [], {}  # record id -> the line that gave it
    header_seen = False
    reader = csv.reader(io.StringIO(text))
    for line_no, row in enumerate(reader, start=1):
        if not row or (row[0].lstrip().startswith("#")):
            continue
        if not header_seen:
            got = tuple(c.strip() for c in row)
            if got != DATASET_COLUMNS:
                raise DatasetError(f"bad header {got!r}, expected {DATASET_COLUMNS!r}", line_no)
            header_seen = True
            continue
        if len(row) != len(DATASET_COLUMNS):
            raise DatasetError(f"expected {len(DATASET_COLUMNS)} fields, got {len(row)}", line_no)
        rid, ref = row[0].strip(), row[1].strip()
        # the numeric columns are SqueezingRecord's fields after id and ref_label, in order
        vals = [_parse_field(raw, line_no, name)
                for raw, name in zip(row[2:], DATASET_COLUMNS[2:])]
        try:
            records.append(SqueezingRecord(rid, ref, *vals))
        except ValueError as exc:
            raise DatasetError(str(exc), line_no) from None
        if first_line.setdefault(rid, line_no) != line_no:
            raise DatasetError(f"record id {rid!r} repeats line {first_line[rid]}", line_no)
    if not header_seen:
        raise DatasetError("dataset has no header row")
    return records


def ft_from_extremes(s_minus_db: float, s_plus_db: float) -> float:
    """Squeezed fraction from extremal variances given in dB.

    Converts to linear ratios and applies
    F_T = 1 - (2/pi) * arctan sqrt((S+ - 1)/(1 - S-)), which must lie in
    (0, 1) as an explicit ``ft_formula`` must.
    """
    if not (s_minus_db < 0.0 < s_plus_db):
        raise ValueError(f"need s_minus_db < 0 < s_plus_db, got ({s_minus_db}, {s_plus_db})")
    try:
        sm = 10.0 ** (s_minus_db / 10.0)
        sp = 10.0 ** (s_plus_db / 10.0)
        ft = 1.0 - (2.0 / math.pi) * math.atan(math.sqrt((sp - 1.0) / (1.0 - sm)))
    except (ZeroDivisionError, OverflowError):  # S- rounds to 1, or S+ overflows
        ft = 0.0
    if not (0.0 < ft < 1.0):
        raise ValueError(f"extremes ({s_minus_db}, {s_plus_db}) dB give no F_T in (0, 1)")
    return ft


# discrepancy: |formula - graphical| / mean, when both exist
Reconciled = namedtuple("Reconciled", "ft method discrepancy")


def reconcile_ft(record: SqueezingRecord) -> Reconciled | None:
    """Pick the F_T to use for one record; None when no route exists.

    The formula route is the explicit ft_formula field, or the arctangent
    conversion of the extremal variances when both are present.  When the
    formula and graphical routes are both available their arithmetic mean
    is used and the relative discrepancy is reported.
    """
    formula = record.ft_extremes if record.ft_formula is None else record.ft_formula
    graphical = record.ft_graphical
    if formula is not None and graphical is not None:
        mean = 0.5 * (formula + graphical)
        return Reconciled(ft=mean, method=FtMethod.AVERAGE,
                          discrepancy=abs(formula - graphical) / mean)
    if formula is not None:
        return Reconciled(ft=formula, method=FtMethod.FORMULA, discrepancy=None)
    if graphical is not None:
        return Reconciled(ft=graphical, method=FtMethod.GRAPHICAL, discrepancy=None)
    return None


RecordResult = namedtuple(
    "RecordResult", "record_id ft_used ft_method r_db_used s_err_db_used ft_err_used violations "
    "flags ideal_opa_exceeded ft_discrepancy assumed_error_fields")

ScaleFit = namedtuple("ScaleFit", "curve_id envelope_k least_squares_k")


class AnalysisReport(namedtuple("AnalysisReport", "per_record skipped method_agreement_rms "
                                "fitted_scales curve_samples caveats")):
    __slots__ = ()

    def __new__(cls, per_record=None, skipped=None, method_agreement_rms=None,
                fitted_scales=None, curve_samples=None, caveats=None):
        # None: a new empty list or dict for each report (the caveats: a new copy)
        return super().__new__(
            cls, [] if per_record is None else per_record, [] if skipped is None else skipped,
            method_agreement_rms, {} if fitted_scales is None else fitted_scales,
            {} if curve_samples is None else curve_samples,
            list(_CAVEATS) if caveats is None else caveats)

    def to_json(self) -> str:
        """The report as ``json.dumps(..., indent=2, sort_keys=True)`` writes
        it, plus a newline; a -inf numeric field as the sentinel "-inf"."""
        fits = {cid: {k: _sentinel(v) for k, v in fit._asdict().items()}
                for cid, fit in self.fitted_scales.items()}
        text = json.dumps(dict(self._asdict(), per_record=[], fitted_scales=fits,
                               method_agreement_rms=_sentinel(self.method_agreement_rms)),
                          indent=2, sort_keys=True) + "\n"
        if not self.per_record:
            return text
        # Each row fills the template of its layout (its curve ids in order
        # and its count of assumed fields): json.dumps of such a row with
        # every value 0, each 0 that ends a line made a %s slot (no key ends
        # a line, and no encoded text holds a newline).
        head, tail = text.split('\n  "per_record": []')
        templates = {}
        rows = []
        for r in self.per_record:
            layout = (tuple(r.flags), tuple(r.violations), len(r.assumed_error_fields))
            if layout not in templates:
                skeleton = json.dumps(dict(
                    dict.fromkeys(r._fields, 0), flags=dict.fromkeys(r.flags, 0),
                    violations=dict.fromkeys(r.violations, 0),
                    assumed_error_fields=[0] * layout[2]), indent=2, sort_keys=True)
                templates[layout] = sorted(r.flags), sorted(r.violations), "    " + (
                    skeleton.replace("%", "%%").replace("0,\n", "%s,\n")
                    .replace("0\n", "%s\n").replace("\n", "\n    "))
            flags, violations, template = templates[layout]
            rows.append(template % tuple(_value_lines([
                *r.assumed_error_fields, *map(r.flags.get, flags),
                *map(_sentinel, (r.ft_discrepancy, r.ft_err_used, r.ft_method, r.ft_used,
                                 r.ideal_opa_exceeded, r.r_db_used, r.record_id,
                                 r.s_err_db_used)),
                *map(r.violations.get, violations)])[1:-1].split("\n")))
        rows[0] = head + '\n  "per_record": [\n' + rows[0]
        rows[-1] += "\n  ]" + tail
        return ",\n".join(rows)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        raw = _numbers(json.loads(text))
        return cls(
            skipped=raw["skipped"],
            method_agreement_rms=raw["method_agreement_rms"],
            curve_samples=raw["curve_samples"],
            caveats=raw["caveats"],
            per_record=[RecordResult(**_numbers(r)) for r in raw["per_record"]],
            fitted_scales={k: ScaleFit(**_numbers(v)) for k, v in raw["fitted_scales"].items()},
        )


# The numeric fields, the only ones that carry the -inf sentinel.
_NUMBERS = ("ft_discrepancy", "ft_err_used", "ft_used", "r_db_used", "s_err_db_used",
            "method_agreement_rms", "envelope_k", "least_squares_k")

# Values one a line: the C encoder, since no encoded value holds a newline.
_value_lines = json.JSONEncoder(separators=("\n", ":")).encode


def _sentinel(value):
    return "-inf" if value == -math.inf else value


def _numbers(obj: dict) -> dict:
    """A decoded object, its numeric fields read back from the sentinel."""
    for name in _NUMBERS:
        if obj.get(name) == "-inf":
            obj[name] = -math.inf
    return obj


def _q(x: float | None) -> float | None:
    return None if x is None else round_sig(x, 6)


def _flags(r, s_err, ft, ft_err, curve: QiCurve) -> list[str]:
    # Bound curves increase with ft, so the error rectangle sits entirely
    # below the curve iff its top-left corner does (and the bound diverges
    # to -inf as ft -> 0, so a rectangle reaching ft <= 0 can never be
    # entirely below).
    lo_ft = [f - e for f, e in zip(ft, ft_err)]
    hi_ft = [min(f + e, 1.0) for f, e in zip(ft, ft_err)]
    reached = iter(curve_value(curve, [f for f in lo_ft if f > 0]))
    r_at_lo = [next(reached) if f > 0 else -math.inf for f in lo_ft]
    r_at_hi = curve_value(curve, hi_ft)
    # values in RecordFlag's order, so that every row shares its value strings
    violates, consistent, within = (flag.value for flag in RecordFlag)
    return [violates if x + e < lo else consistent if x - e >= hi else within
            for x, e, lo, hi in zip(r, s_err, r_at_lo, r_at_hi)]


DEFAULT_FT_GRID = tuple(rounded_grid(0.01, 0.01, 50, 6))  # 0.01, 0.02, ..., 0.5
FIT_TOL = 1e-6


def classify(
    records: list[SqueezingRecord],
    curves: list[QiCurve],
    fit_curves: list[QiCurve] | None = None,
) -> AnalysisReport:
    """Classify every record against every curve; assemble the report.

    A record *violates* a curve when its measured squeezing is strictly
    more negative than the bound at its F_T; the three-state flag folds in
    the +-s_err_db / +-ft_err error rectangle.  Record ids must be unique
    (ValueError otherwise).  Classification is per record and
    order-independent; the report is ordered by record id.
    """
    rows, skipped, discrepancies, columns = [], [], [], []
    ordered = sorted(records, key=lambda record: record.id)
    for a, b in zip(ordered, ordered[1:]):
        if a.id == b.id:
            raise ValueError(f"record id {a.id!r} repeats")
    for record in ordered:
        rec = reconcile_ft(record)
        if rec is None:
            reason = "no measurements" if record.is_stub else "no F_T route available"
            skipped.append({"id": record.id, "reason": reason})
            continue
        if record.s_minus_db is None:
            skipped.append({"id": record.id, "reason": "no squeezing depth (s_minus_db)"})
            continue
        if rec.discrepancy is not None:
            discrepancies.append(rec.discrepancy)
        assumed = [name for name in ("s_err_db", "ft_err") if getattr(record, name) is None]
        s_err = DEFAULT_S_ERR_DB if record.s_err_db is None else record.s_err_db
        ft_err = DEFAULT_FT_ERR if record.ft_err is None else record.ft_err
        r = record.s_minus_db
        columns += (r, rec.ft, s_err, ft_err)
        # each curve fills the violations and flags below
        rows.append(RecordResult(
            record_id=record.id,
            ft_used=_q(rec.ft),
            ft_method=rec.method.value,
            r_db_used=_q(r),
            s_err_db_used=_q(s_err),
            ft_err_used=_q(ft_err),
            violations={},
            flags={},
            ideal_opa_exceeded=r < ideal_r_db(rec.ft),
            ft_discrepancy=_q(rec.discrepancy),
            assumed_error_fields=assumed,
        ))
    # each curve is evaluated once per column
    r, ft, s_err, ft_err = (columns[i::4] for i in range(4))
    samples = {}
    for curve in curves:
        cid = curve.curve_id
        below = map(operator.lt, r, curve_value(curve, ft))
        flags = _flags(r, s_err, ft, ft_err, curve)
        for row, violates, flag in zip(rows, below, flags):
            row.violations[cid] = violates
            row.flags[cid] = flag
        samples[cid] = curve_csv(curve, DEFAULT_FT_GRID)
    ideal = [ideal_r_db(f) for f in DEFAULT_FT_GRID]
    samples["ideal-opa"] = samples_csv(DEFAULT_FT_GRID, ideal, "ideal-opa", "ideal-opa", "", 1.0)
    rms = _q(math.sqrt(math.fsum(d * d for d in discrepancies) / len(discrepancies))
             if discrepancies else None)
    fits = {}
    for curve in (fit_curves or []):
        fit = fit_scale(ft, r, curve)
        fits[curve.curve_id] = ScaleFit(fit.curve_id, _q(fit.envelope_k), _q(fit.least_squares_k))
    return AnalysisReport(rows, skipped, rms, fits, samples)


def fit_scale(ft, r, curve: QiCurve) -> ScaleFit:
    """Fit the argument scale of a curve family to the data.

    ``ft`` and ``r`` are sequences of floats, the F_T and depth (dB) columns
    of the classifiable records, in any one order: ``reconcile_ft(record).ft``
    and ``record.s_minus_db`` of each record that has both.
    The primary result is the envelope scale: the largest k in (0, 1]
    such that no record falls below the scaled curve, found by bisection
    to :data:`FIT_TOL`.  (Shrinking k drags the curve toward -inf everywhere, so
    some feasible k always exists for finite data.)  A least-squares k
    minimizing the squared dB residuals is returned alongside as a
    diagnostic; it is not constrained to exclude nothing.
    """
    if len(ft) == 0:
        raise FitError("no classifiable records to fit")

    def violations(k: float) -> int:
        return sum(map(operator.lt, r, curve_value(curve._replace(scale=k), ft)))

    if violations(1.0) == 0:
        envelope = 1.0
    else:
        lo, hi = 1e-9, 1.0
        if violations(lo) > 0:
            raise FitError("no feasible envelope scale at k -> 0 (malformed data)")
        while hi - lo > FIT_TOL:
            mid = 0.5 * (lo + hi)
            if violations(mid) == 0:
                lo = mid
            else:
                hi = mid
        envelope = lo

    def cost(k: float) -> float:
        # fsum: correctly rounded, so no order of summation moves the minimum
        res = [x - (b if b > -60.0 else -60.0)
               for x, b in zip(r, curve_value(curve._replace(scale=k), ft))]
        return math.fsum(map(operator.mul, res, res))

    return ScaleFit(curve_id=curve.curve_id, envelope_k=envelope,
                    least_squares_k=_minimize_bounded(cost, 1e-4, 2.0, xatol=1e-8))


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _minimize_bounded(f, lo: float, hi: float, xatol: float, maxfun: int = 500) -> float:
    """The x in [lo, hi] that Brent's bounded minimization (Forsythe, Malcolm
    & Moler's ``fmin``) finds for ``f``: golden-section steps, replaced by a
    parabolic step through the three best points whenever the parabola's
    minimum falls inside the bracket and the step shrinks fast enough.

    Step for step the algorithm of ``scipy.optimize.minimize_scalar(f,
    bounds=(lo, hi), method="bounded", options={"xatol": xatol})`` (same
    constants, tolerance updates, acceptance test and ``maxfun``), so it
    returns the same float.
    """
    a, b = lo, hi
    xf = nfc = fulc = a + _GOLDEN * (b - a)  # best, second-best, third-best x
    fx = fnfc = ffulc = f(xf)
    num = 1
    rat = e = 0.0  # the last step, and the one before it
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf
