"""Lower bounds R (dB) on time-sampled squeezing, per window family.

For a normalized window f(t) and a measurement frequency response sharply
peaked at omega0, the admissible squeezing in decibels is bounded below by

    R = 10*log10[ 1 - 4pi * integral_0^inf |(f^{1/2})_FT(omega + omega0)|^2 d omega ]

so a measured value of -X dB is inconsistent with the bound whenever
X > |R|.  By default (:data:`sqzqi.windows.METHODS`) the Gaussian and
squared-Lorentzian bounds are closed forms (an error function and an
exponential in omega0*t0); the trapezoid integrates its closed-form
Fresnel spectrum with one adaptive quadrature, in the complement form
4pi * integral_0^{omega0} |(f^{1/2})_FT|^2; the square window alone nests
a quadrature of its spectrum inside it.  ``Method.NESTED`` selects that
nested path for any family, as a cross-check.

Bound *curves* map the squeezed fraction of a cycle F_T to R through a
phase argument omega0*t0.  Two published argument conventions are carried
side by side: ``paper`` sets omega0*t0 = pi*F_T, while ``marecki`` drops
the pi (and, for the Gaussian family only, doubles the argument).  Both
are first-class; no attempt is made to adjudicate between them.

A bracket at or below 1e-15 is reported as the -inf sentinel ("unbounded
squeezing"), serialized as the literal string "-inf", whatever the method.

:func:`bound_value`, :func:`phase_argument`, :func:`curve_value` (and
:func:`sqzqi.units.to_db`) take a float or an array: a float in gives a
float out, an array an array of the same shape.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# scipy.integrate (and, for the trapezoid spectrum, scipy.special) is
# imported inside the quadrature functions that use it, here and in
# windows, so only a quadrature path loads SciPy: the closed-form bounds
# run on NumPy and math.erf, and meta's least-squares fit has its own
# bounded minimizer.

from .units import HBAR, C_LIGHT, checked, float_or_array, format_db, to_db
from .windows import (
    DEFAULT_QUADRATURE,
    Method,
    QuadratureConfig,
    QuadratureError,
    SamplingWindow,
    WindowKind,
    _analytic_sqrt_ft_squared,
    _sqrt_ft_numeric,
    resolve_method,
)

# Brackets at or below this are reported as the -inf sentinel.
BRACKET_FLOOR = 1e-15


def _erf(z: np.ndarray) -> np.ndarray:
    """math.erf element by element, in the shape of ``z`` (0-d included)."""
    return np.fromiter(map(math.erf, z.ravel().tolist()), float, z.size).reshape(z.shape)


class ConsistencyError(RuntimeError):
    """The bound bracket left its mathematically admissible range."""


class Variant(enum.Enum):
    """Argument convention of the F_T -> omega0*t0 mapping."""

    WITH_PI = "paper"
    NO_PI = "marecki"


class SpectralShape(enum.Enum):
    DELTA_LIMIT = "delta"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class SpectralFunction:
    """Frequency response of the variance measurement, peaked at omega0.

    The Gaussian shape is only meaningful in the narrow regime
    delta_omega << omega0; the constructor enforces a 10% ceiling.
    """

    omega0: float
    delta_omega: float = 0.0
    shape: SpectralShape = SpectralShape.DELTA_LIMIT

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 >= 0):
            raise ValueError(f"omega0 must be a non-negative real, got {self.omega0}")
        if self.shape is SpectralShape.GAUSSIAN:
            if self.delta_omega <= 0:
                raise ValueError("gaussian spectral shape needs delta_omega > 0")
            if self.omega0 <= 0 or self.delta_omega / self.omega0 >= 0.1:
                raise ValueError("gaussian spectral shape requires delta_omega/omega0 < 0.1")


@dataclass(frozen=True)
class QiCurve:
    """One bound curve: window kind x argument convention x argument scale.

    ``scale`` multiplies F_T before the convention mapping (1.0 is the
    theoretical curve; fitted envelopes use smaller values).  Trapezoid
    curves need ``n``; square curves must opt in to the numerically
    unstable family explicitly.  ``method`` is resolved once, here.
    """

    window: WindowKind
    variant: Variant
    scale: float = 1.0
    n: float | None = None
    method: Method | None = None
    allow_unstable: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be a positive real, got {self.scale}")
        SamplingWindow(self.window, 1.0, self.n)  # checks n
        if self.window is WindowKind.SQUARE and not self.allow_unstable:
            raise ValueError(
                "the square window is mathematically unstable in the bound "
                "integrals; pass allow_unstable=True to use it anyway"
            )
        object.__setattr__(self, "method", resolve_method(self.window, self.method))

    @property
    def curve_id(self) -> str:
        parts = [self.window.value, self.variant.value]
        if self.window is WindowKind.TRAPEZOID:
            parts.append(f"n{self.n:g}")
        if self.scale != 1.0:
            parts.append(f"k{self.scale:.6g}")
        return "-".join(parts)


def parse_curve_id(curve_id: str, allow_unstable: bool = False) -> QiCurve:
    """Inverse of :attr:`QiCurve.curve_id` (e.g. ``gaussian-paper``,
    ``trapezoid-marecki-n0.2``, ``lorentzian2-paper-k0.106103``)."""
    parts = curve_id.split("-")
    if len(parts) < 2:
        raise ValueError(f"malformed curve id {curve_id!r}")
    try:
        window = WindowKind(parts[0])
        variant = Variant(parts[1])
    except ValueError as exc:
        raise ValueError(f"malformed curve id {curve_id!r}: {exc}") from None
    n = None
    scale = 1.0
    for tok in parts[2:]:
        if tok.startswith("n"):
            n = float(tok[1:])
        elif tok.startswith("k"):
            scale = float(tok[1:])
        else:
            raise ValueError(f"malformed curve id token {tok!r} in {curve_id!r}")
    return QiCurve(window=window, variant=variant, scale=scale, n=n,
                   allow_unstable=allow_unstable)


@dataclass(frozen=True)
class BoundResult:
    """A bound evaluation with its diagnostics.

    ``bracket`` is the linear variance-ratio bound before the dB
    conversion; ``bracket_error`` is the accumulated quadrature error
    estimate.  ``r_db`` is -inf when the bracket sits at or below the
    sentinel floor.
    """

    r_db: float
    bracket: float
    bracket_error: float


def _check_bracket(bracket, err, cfg: QuadratureConfig) -> None:
    """ConsistencyError if a bracket exceeds 1, QuadratureError if an error
    estimate exceeds ``cfg.bound_tol``; floats or arrays."""
    bracket, err = np.asarray(bracket), np.asarray(err)
    if (bracket > 1.0 + 1e-9 + err).any():
        raise ConsistencyError(f"bound bracket {float(bracket.max())!r} exceeds 1; the window "
                               "spectrum is inconsistent with unit normalization")
    if (err > cfg.bound_tol).any():
        raise QuadratureError("bound quadrature did not converge", achieved=float(err.max()))


def _floored_db(bracket):
    """R (dB) of a bracket, a float or an array; at or below the floor, -inf."""
    return to_db(np.where(bracket <= BRACKET_FLOOR, 0.0, bracket))


def _bracket_analytic(w: SamplingWindow, omega0: float, cfg: QuadratureConfig) -> tuple[float, float]:
    # Direct form 1 - 4pi * integral_{omega0}^inf V(u) du with the
    # closed-form spectrum V; both families decay fast, so the semi-infinite
    # rule converges without truncation.  (Their complement form can round
    # above 1, by up to two ulps, where the bracket saturates.)
    from scipy import integrate
    V = lambda u: _analytic_sqrt_ft_squared(w, u)
    tail, err = integrate.quad(V, omega0, np.inf, epsabs=cfg.abs_tol, epsrel=1e-12,
                               limit=cfg.max_subdivisions, full_output=1)[:2]
    return 1.0 - 4.0 * math.pi * tail, 4.0 * math.pi * err


def _bracket_numeric(V, omega0: float, cfg: QuadratureConfig) -> tuple[float, float]:
    # Complement form: unit window normalization fixes the half-line
    # spectrum integral at exactly 1/(4pi), so
    #     1 - 4pi * integral_{omega0}^inf V = 4pi * integral_0^{omega0} V.
    # This trades the slowly decaying oscillatory tail (the square
    # window's spectrum falls only like 1/u^2) for a finite interval, and
    # evaluates small brackets without cancellation.
    from scipy import integrate
    val, err = integrate.quad(V, 0.0, omega0, epsabs=cfg.abs_tol, epsrel=1e-11,
                              limit=cfg.max_subdivisions, full_output=1)[:2]
    return 4.0 * math.pi * val, 4.0 * math.pi * err


def _bracket_nested(w: SamplingWindow, omega0: float, cfg: QuadratureConfig) -> tuple[float, float]:
    # The spectrum itself by oscillatory quadrature at every outer node;
    # its worst pointwise error is charged over the whole interval.
    inner_err = 0.0

    def V(u: float) -> float:
        nonlocal inner_err
        amp, err = _sqrt_ft_numeric(w, u, cfg)
        inner_err = max(inner_err, 2.0 * abs(amp) * err)
        return amp * amp

    bracket, err = _bracket_numeric(V, omega0, cfg)
    return bracket, err + 4.0 * math.pi * inner_err * omega0


def _bracket(w: SamplingWindow, omega0, cfg: QuadratureConfig, method: Method):
    """(bracket, error estimate) at omega0, a float or an array, each of the
    same shape; ``method`` is resolved (supported by the family, never None).

    A closed form is one NumPy expression with a zero error estimate; every
    other method runs one quadrature per element of ``omega0``.
    """
    omega0 = checked(omega0, lambda o: np.isfinite(o) & (o >= 0), "omega0 must be a non-negative real")
    if method is Method.CLOSED_FORM:
        # erf(sqrt(2)*omega0*t0) for the Gaussian, 1 - exp(-2*omega0*t0) for the Lorentzian^2
        x = omega0 * w.t0
        if w.kind is WindowKind.GAUSSIAN:
            return _erf(math.sqrt(2.0) * x), 0.0
        return -np.expm1(-2.0 * x), 0.0
    if method is Method.NESTED:
        one = lambda o: _bracket_nested(w, o, cfg)
    elif w.kind is WindowKind.TRAPEZOID:
        # compact support: the complement form over a finite interval
        one = lambda o: _bracket_numeric(lambda u: _analytic_sqrt_ft_squared(w, u), o, cfg)
    else:
        one = lambda o: _bracket_analytic(w, o, cfg)
    out = np.array([one(o) for o in omega0.ravel().tolist()]).reshape(*omega0.shape, 2)
    return out[..., 0], out[..., 1]


def numeric_bound_detail(
    w: SamplingWindow,
    mu: SpectralFunction,
    cfg: QuadratureConfig | None = None,
    method: Method | None = None,
) -> BoundResult:
    """Bound evaluation with bracket diagnostics; ``method`` defaults to
    the family's fastest method that is not a closed-form bound.

    In the delta limit the spectral weight collapses onto omega0: the
    weight appears with identical omega_p^3-weighted integrals in the
    numerator and denominator of the bound ratio, so for a weight sharply
    peaked at omega0 those factors cancel and only the bracket at omega0
    survives.  That reduction is the default path.

    The Gaussian shape keeps the weight explicit and evaluates both
    integrals (a Gauss-Hermite sum over one array of omega_p), confirming
    numerically that the cancellation holds to lowest order in delta_omega.
    """
    cfg = cfg or DEFAULT_QUADRATURE
    method = resolve_method(w.kind, method, numeric=True)
    if mu.shape is SpectralShape.DELTA_LIMIT:
        bracket, err = _bracket(w, mu.omega0, cfg, method)
    else:
        nodes, weights = np.polynomial.hermite.hermgauss(61)
        omega_p = mu.omega0 + mu.delta_omega * nodes
        if np.any(omega_p <= 0):
            raise ValueError("gaussian spectral weight leaks to omega_p <= 0")
        brackets, errs = _bracket(w, omega_p, cfg, method)
        wp3 = weights * omega_p**3
        bracket, err = np.sum(wp3 * brackets) / np.sum(wp3), np.max(errs)
    _check_bracket(bracket, err, cfg)
    return BoundResult(r_db=_floored_db(bracket), bracket=float(bracket),
                       bracket_error=float(err))


def bound_value(
    kind: WindowKind,
    n: float | None,
    omega_t0,
    method: Method | None = None,
    cfg: QuadratureConfig | None = None,
):
    """R (dB) of a window family at the phase argument omega0*t0, by the
    family's fastest method unless ``method`` is given; a bracket at or
    below the floor gives the -inf sentinel, whatever the method."""
    cfg = cfg or DEFAULT_QUADRATURE
    # The bound depends on omega0 and t0 only through their product, so
    # evaluate a unit-width window at omega0 = omega_t0.
    bracket, err = _bracket(SamplingWindow(kind, 1.0, n), omega_t0, cfg,
                            resolve_method(kind, method))
    _check_bracket(bracket, err, cfg)
    return _floored_db(bracket)


def phase_argument(variant: Variant, window: WindowKind, ft, scale: float = 1.0):
    """Map a squeezed fraction F_T to the phase argument omega0*t0.

    ``paper``: omega0*t0 = pi*F_T*scale for every family.  ``marecki``:
    omega0*t0 = F_T*scale, except the Gaussian family where the
    transcribed result doubles the argument (2*F_T*scale).
    """
    base = np.asarray(ft, dtype=float) * scale
    if variant is Variant.WITH_PI:
        base = math.pi * base
    elif window is WindowKind.GAUSSIAN:
        base = 2.0 * base
    return float_or_array(base)


def curve_value(curve: QiCurve, ft, cfg: QuadratureConfig | None = None):
    """R (dB) of a bound curve at squeezed fraction ft in (0, 1]."""
    ft = checked(ft, lambda f: (f > 0.0) & (f <= 1.0), "ft must lie in (0, 1]")
    arg = phase_argument(curve.variant, curve.window, ft, curve.scale)
    return bound_value(curve.window, curve.n, arg, curve.method, cfg)


def sample_curve(curve: QiCurve, fts, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Evaluate a curve on a grid of F_T values, in input order."""
    return curve_value(curve, np.atleast_1d(fts), cfg)


CURVE_CSV_HEADER = "ft,r_db,curve_id,window,variant,scale"


def curve_csv(curves, fts, cfg: QuadratureConfig | None = None) -> str:
    """CSV sampling of one or more curves, one row per grid point."""
    lines = [CURVE_CSV_HEADER]
    for curve in curves:
        values = sample_curve(curve, fts, cfg)
        for ft, r in zip(np.atleast_1d(fts), values):
            lines.append(
                f"{float(ft):.6g},{format_db(r)},{curve.curve_id},"
                f"{curve.window.value},{curve.variant.value},{curve.scale:.6g}"
            )
    return "\n".join(lines) + "\n"


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
