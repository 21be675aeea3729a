"""Lower bounds R (dB) on time-sampled squeezing, per window family.

For a normalized window f(t) and a measurement frequency response sharply
peaked at omega0, the admissible squeezing in decibels is bounded below by

    R = 10*log10[ 1 - 4pi * integral_0^inf |(f^{1/2})_FT(omega + omega0)|^2 d omega ]

so a measured value of -X dB is inconsistent with the bound whenever
X > |R|.  The Gaussian, squared-Lorentzian and square bounds are closed
forms (an error function, an exponential and a sine integral in
omega0*t0, :data:`_CLOSED_FORMS`).  The trapezoid bound is a quadrature:
its closed-form spectrum integrated in the complement form 4pi *
integral_0^{omega0} |(f^{1/2})_FT|^2, with an adaptive 21-point
Gauss-Kronrod rule that takes each omega0 of a call within
:data:`MAX_INTERVALS` intervals, and once more within
:data:`RETRY_INTERVALS` if that is not enough; only it can fail to
converge.  :func:`numeric_bound_detail` takes that quadrature for every
family: it is the slow reference the closed forms are checked against.

Bound *curves* map the squeezed fraction of a cycle F_T to R through a
phase argument omega0*t0.  Two published argument conventions are carried
side by side: ``paper`` sets omega0*t0 = pi*F_T, while ``marecki`` drops
the pi (and, for the Gaussian family only, doubles the argument).  Both
are first-class; no attempt is made to adjudicate between them.

A bracket at or below 1e-15 is reported as the -inf sentinel ("unbounded
squeezing"), serialized as the literal string "-inf", closed form or not.

:func:`bound_value` and :func:`curve_value` take a float, and give a float,
or a sequence of floats (a list, a tuple or a 1-d array), which they turn
into a list of floats once, and give a list; :func:`phase_argument` takes
a float.  Everything runs on Python floats in ``math``.
"""

from __future__ import annotations

import enum
import math
import numbers
import re
import sys
from collections import namedtuple
from itertools import chain

# sqzqi has no runtime dependency: the closed forms use math (erf, expm1 and
# _si below), every quadrature bracket the Gauss-Kronrod rule below.  NumPy
# and SciPy are test dependencies, for the references the tests compare against.

from .units import HBAR, C_LIGHT, to_db
from .windows import SamplingWindow, WindowKind, spectrum

# Brackets at or below this are reported as the -inf sentinel.
BRACKET_FLOOR = 1e-15
# The absolute error a bracket's quadrature aims for, and the largest
# error estimate a bracket may carry (QuadratureError above it).
ABS_TOL = 1e-12
BOUND_TOL = 5e-8


class QuadratureError(RuntimeError):
    """A quadrature did not reach the requested tolerance.

    The achieved error estimate is always attached; results are never
    silently truncated.
    """

    def __init__(self, message: str, achieved: float | None = None):
        if achieved is not None:
            message = f"{message} (achieved error estimate {achieved:.3e})"
        super().__init__(message)
        self.achieved = achieved


# The Gauss-Kronrod intervals, of 21 nodes each, one element of an omega0
# array may use in the first pass of a quadrature bracket, and in its retry.
MAX_INTERVALS = 200
RETRY_INTERVALS = 100_000


class ConsistencyError(RuntimeError):
    """The bound bracket left its mathematically admissible range."""


# Raised by the meta-analysis; defined here so that the CLI maps them to
# exit 4 without importing ``meta``.
class DatasetError(ValueError):
    """Malformed dataset row; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FitError(RuntimeError):
    """No feasible envelope scale exists (malformed data)."""


class Variant(enum.Enum):
    """Argument convention of the F_T -> omega0*t0 mapping."""

    WITH_PI = "paper"
    NO_PI = "marecki"


class SpectralShape(enum.Enum):
    DELTA_LIMIT = "delta"
    GAUSSIAN = "gaussian"


class SpectralFunction(namedtuple("SpectralFunction", "omega0 delta_omega shape",
                                  defaults=(0.0, SpectralShape.DELTA_LIMIT))):
    """Frequency response of the variance measurement, peaked at omega0.

    The Gaussian shape needs 0 < delta_omega < 0.1*omega0, the narrow regime
    delta_omega << omega0 where it is meaningful; the delta limit takes no width.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.omega0) and self.omega0 >= 0):
            raise ValueError(f"omega0 must be a non-negative real, got {self.omega0}")
        if self.shape is SpectralShape.GAUSSIAN:
            if not self.delta_omega > 0:  # NaN too; the ceiling refuses inf
                raise ValueError("gaussian spectral shape needs delta_omega > 0")
            if self.omega0 <= 0 or self.delta_omega / self.omega0 >= 0.1:
                raise ValueError("gaussian spectral shape requires delta_omega/omega0 < 0.1")
        elif self.delta_omega != 0:
            raise ValueError(f"the delta-limit shape takes no width, got delta_omega="
                             f"{self.delta_omega}; pass shape=SpectralShape.GAUSSIAN")
        return self

    # ``_replace`` builds through ``_make``: a changed field is checked again
    _make = classmethod(lambda cls, values: cls(*values))


class QiCurve(namedtuple("QiCurve", "window variant scale n allow_unstable",
                         defaults=(1.0, None, False))):
    """One bound curve: window kind x argument convention x argument scale.

    ``scale`` multiplies F_T before the convention mapping (1.0 is the
    theoretical curve; fitted envelopes use smaller values).  Trapezoid
    curves need ``n``; square curves must opt in explicitly: the sharp
    window is mathematically unstable in the bound integrals (its spectrum
    decays only like 1/omega^2).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be a positive real, got {self.scale}")
        SamplingWindow(self.window, 1.0, self.n)  # checks n
        if self.window is WindowKind.SQUARE and not self.allow_unstable:
            raise ValueError(
                "the square window is mathematically unstable in the bound "
                "integrals; pass allow_unstable=True to use it anyway"
            )
        return self

    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def curve_id(self) -> str:
        parts = [self.window.value, self.variant.value]
        if self.window is WindowKind.TRAPEZOID:
            parts.append(f"n{self.n:g}")
        if self.scale != 1.0:
            parts.append(f"k{self.scale:.6g}")
        return "-".join(parts)


def parse_curve_id(curve_id: str) -> QiCurve:
    """Inverse of :attr:`QiCurve.curve_id` (e.g. ``gaussian-paper``,
    ``trapezoid-marecki-n0.2``, ``lorentzian2-paper-k0.106103``,
    ``gaussian-paper-k5e-05``); ``n`` and ``k`` may come in either order,
    each at most once."""
    # a hyphen before a digit is an exponent's sign, not a separator
    parts = re.split(r"-(?![0-9])", curve_id)
    if len(parts) < 2:
        raise ValueError(f"malformed curve id {curve_id!r}")
    try:
        window = WindowKind(parts[0])
        variant = Variant(parts[1])
    except ValueError as exc:
        raise ValueError(f"malformed curve id {curve_id!r}: {exc}") from None
    values = {}
    for tok in parts[2:]:
        key = tok[:1]
        if key not in ("n", "k"):
            raise ValueError(f"malformed curve id token {tok!r} in {curve_id!r}")
        if key in values:
            raise ValueError(f"repeated curve id token {tok!r} in {curve_id!r}")
        try:
            values[key] = float(tok[1:])
        except ValueError:
            raise ValueError(f"malformed curve id token {tok!r} in {curve_id!r}") from None
    return QiCurve(window=window, variant=variant, scale=values.get("k", 1.0), n=values.get("n"))


class BoundResult(namedtuple("BoundResult", "r_db bracket bracket_error")):
    """A bound evaluation with its diagnostics.

    ``bracket`` is the linear variance-ratio bound before the dB
    conversion; ``bracket_error`` is the accumulated quadrature error
    estimate.  ``r_db`` is -inf when the bracket sits at or below the
    sentinel floor.
    """

    __slots__ = ()


def _check_bracket(bracket: list, err: list) -> None:
    """ConsistencyError if a bracket exceeds 1, QuadratureError if an error
    estimate exceeds :data:`BOUND_TOL` or is NaN, or a bracket is not finite
    (its error then counts as infinite); two lists of floats, one pass over
    them when every element passes."""
    failed = [b for b, e in zip(bracket, err)
              if not (e <= BOUND_TOL and -math.inf < b <= 1.0 + 1e-9 + e)]
    if not failed:
        return
    if any(b > 1.0 + 1e-9 + e for b, e in zip(bracket, err)):
        raise ConsistencyError(f"bound bracket {max(bracket)!r} exceeds 1; the window "
                               "spectrum is inconsistent with unit normalization")
    errors = [e if math.isfinite(b) else math.inf for b, e in zip(bracket, err)]
    worst = math.nan if any(map(math.isnan, errors)) else max(errors)
    raise QuadratureError("bound quadrature did not converge", achieved=float(worst))


# QUADPACK dqk21 on [-1, 1]: the non-negative Kronrod nodes, largest first
# (every second one, from the second, is a node of the 10-point Gauss rule),
# their Kronrod weights and those Gauss nodes' Gauss weights.  _K21_NODES
# holds all 21 nodes in ascending order; _G10_WEIGHTS is zero at the 11
# nodes Kronrod added, the centre among them.
_KRONROD_X = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
              0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
              0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
              0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
              0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_KRONROD_W = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
              0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
              0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
              0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
              0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
              0.149445554002916905664936468389821)
_GAUSS_W = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
            0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
            0.295524224714752870173892994651338)
_K21_NODES = tuple(-x for x in _KRONROD_X[:-1]) + _KRONROD_X[::-1]
_K21_WEIGHTS = _KRONROD_W[:-1] + _KRONROD_W[::-1]
_G10_WEIGHTS = tuple(_GAUSS_W[min(j, 20 - j) // 2] if j % 2 else 0.0 for j in range(21))
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _kronrod21(f, lo: float, hi: float) -> tuple[float, float, float]:
    """QUADPACK ``dqk21`` on [lo, hi]: the 21-point Kronrod integral, its
    error estimate (QUADPACK's transform of |K21 - G10|), and the rounding
    floor 50*eps*resabs that the estimate is not allowed below.  The G10
    sum runs over all 21 nodes too, so a non-finite node makes it NaN.
    """
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = [f(center + half * x) for x in _K21_NODES]
    resk = resg = resabs = 0.0
    for fj, wk, wg in zip(fx, _K21_WEIGHTS, _G10_WEIGHTS):
        resk = resk + wk * fj
        resg = resg + wg * fj
        resabs = resabs + wk * abs(fj)
    reskh = 0.5 * resk
    resasc = 0.0
    for fj, wk in zip(fx, _K21_WEIGHTS):
        resasc = resasc + wk * abs(fj - reskh)
    resabs, resasc = resabs * half, resasc * half
    est = abs((resk - resg) * half)
    if resasc != 0.0 and est != 0.0:
        ratio = 200.0 * est / resasc
        est = resasc * (ratio ** 1.5 if not ratio >= 1.0 else 1.0)  # min(1, ratio^1.5), NaN kept
    floor = 50.0 * _EPS * resabs if resabs > _TINY / (50.0 * _EPS) else 0.0
    return resk * half, est, floor


def _bracket_spectrum(w: SamplingWindow, omega0: list):
    """4pi * integral_0^{omega0} V of the family's closed-form spectrum, for
    every element of the list ``omega0``: (bracket, error), two lists.

    Each element gets a first pass within :data:`MAX_INTERVALS`; then each
    one whose error is finite and above :data:`BOUND_TOL` is retried, in
    order, within :data:`RETRY_INTERVALS` (see :func:`_gauss_kronrod`), until
    one retry fails, as ``_check_bracket`` then fails the whole call anyway.
    """
    bracket, error = [], []
    for o in omega0:
        b, e = _gauss_kronrod(w, o, MAX_INTERVALS)
        bracket.append(b)
        error.append(e)
    for i, e in enumerate(error):
        if math.isfinite(e) and e > BOUND_TOL:
            bracket[i], error[i] = _gauss_kronrod(w, omega0[i], RETRY_INTERVALS, retry=True)
            if not error[i] <= BOUND_TOL:
                break
    return bracket, error


def _gauss_kronrod(w: SamplingWindow, omega0: float, max_intervals: int, retry: bool = False):
    """(bracket, error) of :func:`_bracket_spectrum` at one omega0.

    Globally adaptive 21-point Gauss-Kronrod.  It starts from breakpoints at
    the spectrum's own scale, pi/c * 2^k below omega0 with c the half
    support (t0 for the unbounded families), so no rule straddles a peak
    that is narrow next to [0, omega0].  They stop at pi/c * 2^53, so a
    huge omega0 keeps its budget to refine in: the tail past that point
    holds less than eps of the bracket (the square and trapezoid spectra
    obey V(u) <= f_max / (pi*u)^2, a tail of at most 4 / (pi^2 * 2^53); the
    smooth families decay exponentially).  Each pass evaluates the spectrum
    once, on every new interval, and, while the summed error (summed left
    to right) exceeds max(ABS_TOL, 1e-11 * |integral|), splits into its two
    halves each interval whose error exceeds its share of that tolerance
    (by length) and is not the rounding floor: largest errors first (ties
    in interval order), as many as ``max_intervals`` has room for.  It stops
    with the error it has when only floors are left or its budget is spent.

    A ``retry`` aims at BOUND_TOL / 10, not ABS_TOL, as it runs only to
    certify the gate, and counts at least its own value as the error of an
    interval wider than 4 periods pi/c of the spectrum: across more periods
    K21 and G10 can alias to one wrong value, and an aliased sum of V >= 0
    is off by about its own size.  (Without that, a retry of the trapezoid
    at n = 1, omega0*t0 = 3.3e3 claimed an error of 1.5e-9, off by 3.5e-9.)
    """
    c = w.half_support if math.isfinite(w.half_support) else w.t0
    step = math.pi / c
    last = step * 2.0**53
    points, p = [0.0], step
    while p < omega0 and p <= last:
        points.append(p)
        p *= 2.0
    points.append(omega0)
    # the tolerance (the error sums carry no 4pi) and the widest trusted interval
    abs_tol, wide = (BOUND_TOL / (40.0 * math.pi), 4.0 * step) if retry else (ABS_TOL, math.inf)
    f = spectrum(w)

    def rule(lo, hi):
        res, est, floor = _kronrod21(f, lo, hi)
        # max with the maybe-NaN value first keeps a NaN, as a NaN res means a NaN est
        return lo, hi, res, max(est, res) if hi - lo > wide else est, floor

    parts = [rule(lo, hi) for lo, hi in zip(points, points[1:])]
    while True:
        total = error = 0.0
        for _, _, res, est, floor in parts:
            total += res
            error += max(est, floor)
        tol = max(1e-11 * abs(total), abs_tol)
        split = [i for i, (lo, hi, _, est, floor) in enumerate(parts)
                 if est > floor and est * omega0 > tol * (hi - lo)] if error > tol else []
        split.sort(key=lambda i: -parts[i][3])
        del split[max(0, max_intervals - len(parts)):]
        if not split:
            break
        halve = set(split)
        new = []
        for i, part in enumerate(parts):
            if i in halve:
                lo, hi = part[0], part[1]
                mid = 0.5 * (lo + hi)
                new += (rule(lo, mid), rule(mid, hi))
            else:
                new.append(part)
        parts = new
    return min(4.0 * math.pi * total, 1.0), 4.0 * math.pi * error


def _si(x: float) -> float:
    """The sine integral Si(x) of a float x >= 0 (A&S 5.2.1): its power
    series below x = 2, above it pi/2 + Im[e^{-ix} E1(ix)] by the continued
    fraction of E1(ix) (modified Lentz, as Numerical Recipes' ``cisi``).
    Each loop stops once its step is at most eps relative; a strict test
    would never stop at x = 5e-324, where eps*x underflows to 0."""
    if x < 2.0:
        p = total = x  # p = (-1)^k x^(2k+1) / (2k+1)!
        k = 0
        while abs(p) > _EPS * abs(total):
            k += 1
            p *= -x * x / ((2 * k) * (2 * k + 1))
            total += p / (2 * k + 1)
        return total
    b = complex(1.0, x)
    c, d = 1.0 / _TINY, 1.0 / b
    h = d
    for k in range(1, 1000):  # at most 99 steps were seen on [2, 1e308]
        b += 2.0
        d = 1.0 / (b - k * k * d)
        c = b - k * k / c
        h *= c * d
        if abs(c * d - 1.0) <= _EPS:
            break
    return math.pi / 2.0 + (complex(math.cos(x), -math.sin(x)) * h).imag


# The families whose bracket is a closed form in x = omega0*t0: erf(sqrt(2)*x)
# (Gaussian), 1 - exp(-2x) (Lorentzian^2), (2/pi)(Si(x) - 2 sin^2(x/2)/x) (square,
# 0 at x = 0; sin^2 is not formed, as it underflows for x below 1e-154), each
# over a list of omega0 at width t0.
_SQRT2 = math.sqrt(2.0)
_CLOSED_FORMS = {
    WindowKind.GAUSSIAN: lambda omega0, t0: [math.erf(_SQRT2 * (o * t0)) for o in omega0],
    WindowKind.LORENTZIAN_SQ: lambda omega0, t0: [-math.expm1(-2.0 * (o * t0)) for o in omega0],
    WindowKind.SQUARE: lambda omega0, t0: [
        x and 2.0 / math.pi * (_si(x) - 2.0 * math.sin(x / 2.0) / x * math.sin(x / 2.0))
        for x in (o * t0 for o in omega0)],
}


def _bracket(w: SamplingWindow, omega0: list):
    """(brackets, error estimates), two lists, at each omega0 of a list.

    A family in :data:`_CLOSED_FORMS` gets its closed form, with a zero
    error estimate; every other family the adaptive quadrature of the
    closed-form spectrum, :func:`_bracket_spectrum`.
    """
    form = _CLOSED_FORMS.get(w.kind)
    if form is None:
        return _bracket_spectrum(w, omega0)
    return form(omega0, w.t0), [0.0] * len(omega0)


# The spectral weight's nodes x = j/4, |j| <= 26, at omega_p = omega0 + delta_omega*x,
# weighted exp(-x^2)*omega_p^3: the trapezoid rule on an even grid sums exp(-x^2)
# times a smooth function to rounding error (Trefethen & Weideman, SIAM Review 56(3),
# 2014), and past |x| = 6.5 the weight holds under exp(-42) of its mass.  Under the
# 10% ceiling every omega_p exceeds 0.35*omega0.
_WEIGHT_NODES = tuple(j / 4.0 for j in range(-26, 27))


def numeric_bound_detail(w: SamplingWindow, mu: SpectralFunction) -> BoundResult:
    """Bound evaluation with bracket diagnostics, by quadrature, which
    every family supports.

    In the delta limit the spectral weight collapses onto omega0: the
    weight appears with identical omega_p^3-weighted integrals in the
    numerator and denominator of the bound ratio, so for a weight sharply
    peaked at omega0 those factors cancel and only the bracket at omega0
    survives.  That reduction is the default path.

    The Gaussian shape keeps the weight explicit and evaluates both
    integrals (an even-grid sum over omega_p, :data:`_WEIGHT_NODES`), confirming
    numerically that the cancellation holds to lowest order in delta_omega.
    """
    if mu.shape is SpectralShape.DELTA_LIMIT:
        (bracket,), (err,) = _bracket_spectrum(w, [mu.omega0])
    else:
        omega_p = [mu.omega0 + mu.delta_omega * x for x in _WEIGHT_NODES]
        brackets, errs = _bracket_spectrum(w, omega_p)
        num = den = 0.0
        for x, o, b in zip(_WEIGHT_NODES, omega_p, brackets):
            weight = math.exp(-x * x) * (o * o * o)
            num += weight * b
            den += weight
        bracket = num / den
        err = math.nan if any(map(math.isnan, errs)) else max(errs)
    _check_bracket([bracket], [err])
    return BoundResult(r_db=to_db(bracket, BRACKET_FLOOR), bracket=bracket, bracket_error=err)


def bound_value(kind: WindowKind, n: float | None, omega_t0):
    """R (dB) of a window family at the phase argument omega0*t0, a float (a
    float comes out) or a sequence (a list comes out), in closed form where
    the family has one, else by quadrature; a bracket at or below the floor
    gives the -inf sentinel either way."""
    one = isinstance(omega_t0, numbers.Real)
    omegas = [float(omega_t0)] if one else list(map(float, omega_t0))
    bad = [o for o in omegas if not 0.0 <= o < math.inf]
    if bad:
        raise ValueError(f"omega0 must be a non-negative real, got {bad[0]}")
    r = _r_db(kind, n, omegas)
    return r[0] if one else r


def _r_db(kind: WindowKind, n: float | None, omega_t0: list) -> list[float]:
    """R (dB) at each phase argument of a list, all checked to lie in [0, inf)."""
    # The bound depends on omega0 and t0 only through their product, so
    # evaluate a unit-width window at omega0 = omega_t0.
    bracket, err = _bracket(SamplingWindow(kind, 1.0, n), omega_t0)
    _check_bracket(bracket, err)
    return [to_db(b, BRACKET_FLOOR) for b in bracket]


def _phase_factor(variant: Variant, window: WindowKind) -> float:
    """omega0*t0 / (F_T*scale) of a convention and family (see :func:`phase_argument`)."""
    return math.pi if variant is Variant.WITH_PI else 2.0 if window is WindowKind.GAUSSIAN else 1.0


def phase_argument(variant: Variant, window: WindowKind, ft: float, scale: float = 1.0) -> float:
    """Map a squeezed fraction F_T to the phase argument omega0*t0.

    ``paper``: omega0*t0 = pi*F_T*scale for every family.  ``marecki``:
    omega0*t0 = F_T*scale, except the Gaussian family where the
    transcribed result doubles the argument (2*F_T*scale).
    """
    return _phase_factor(variant, window) * (ft * scale)


def curve_value(curve: QiCurve, ft):
    """R (dB) of a bound curve at squeezed fraction ft in (0, 1], a float (a
    float comes out) or a sequence (a list comes out); an F_T whose phase
    argument overflows is a ValueError naming the curve and the F_T."""
    one = isinstance(ft, numbers.Real)
    fts = [float(ft)] if one else list(map(float, ft))
    factor, scale = _phase_factor(curve.variant, curve.window), curve.scale
    args = [factor * (f * scale) for f in fts if 0.0 < f <= 1.0]
    if len(args) < len(fts):
        bad = next(f for f in fts if not 0.0 < f <= 1.0)
        raise ValueError(f"ft must lie in (0, 1], got {bad}")
    if math.inf in args:
        raise ValueError(f"the phase argument of curve {curve.curve_id} at F_T = "
                         f"{fts[args.index(math.inf)]:g} overflows")
    r = _r_db(curve.window, curve.n, args)
    return r[0] if one else r


def sample_curve(curve: QiCurve, fts) -> list[float]:
    """R (dB) of a curve at each F_T of the grid ``fts``, a sequence, in input
    order: a list of floats, from one validated call."""
    return curve_value(curve, list(fts))


CURVE_CSV_HEADER = "ft,r_db,curve_id,window,variant,scale"


def samples_csv(fts, values, curve_id: str, window: str, variant: str, scale: float) -> str:
    """CSV of one curve's ``values`` (floats, -inf rendered as "-inf") on the grid
    ``fts``, one row per point: a row template, repeated, filled in one ``%`` pass."""
    row = "%.6g,%.4f" + f",{curve_id},{window},{variant},{scale:.6g}\n".replace("%", "%%")
    cells = tuple(chain.from_iterable(zip(fts, values)))
    return f"{CURVE_CSV_HEADER}\n" + row * (len(cells) // 2) % cells


def curve_csv(curve: QiCurve, fts) -> str:
    """CSV sampling of a curve on the grid ``fts`` (as for :func:`sample_curve`), one row per point."""
    return samples_csv(fts, sample_curve(curve, fts), curve.curve_id, curve.window.value,
                       curve.variant.value, curve.scale)


def ford_bound(t0: float) -> float:
    """Free-field lower bound on sampled energy density, J/m^3 (negative).

    For a Lorentzian time sampling of width t0 the sampled renormalized
    energy density cannot fall below -(3/16pi^2) * hbar*c / (c*t0)^4.
    """
    if not (math.isfinite(t0) and t0 > 0):
        raise ValueError(f"t0 must be a positive real, got {t0}")
    return -(3.0 / (16.0 * math.pi**2)) * HBAR * C_LIGHT / (C_LIGHT * t0) ** 4


def casimir_density(a: float) -> float:
    """Vacuum energy density of an ideal parallel-plate cavity, J/m^3.

    rho = -(pi^2/720) * hbar*c / a^4 for plate separation a.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"a must be a positive real, got {a}")
    return -(math.pi**2 / 720.0) * HBAR * C_LIGHT / a**4
