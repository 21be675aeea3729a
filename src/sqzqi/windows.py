"""Normalized time-sampling windows and the spectra of their square roots.

The bound machinery downstream consumes ``|(f^{1/2})_FT(omega)|^2``, the
squared magnitude of the Fourier transform of sqrt(f(t)) under the
convention

    g_FT(omega) = (1/2pi) * integral g(t) exp(-i*omega*t) dt .

Every window integrates to exactly 1 over the real line, which pins the
spectrum normalization: the full-line integral of ``|(f^{1/2})_FT|^2``
equals 1/(2pi).

Four even families are provided:

* ``gaussian``     -- f(t) = exp(-t^2/(2 t0^2)) / (t0 sqrt(2pi))
* ``lorentzian2``  -- f(t) = (2/pi) t0^3 / (t^2 + t0^2)^2
* ``square``       -- flat top of full width t0, sharp corners
* ``trapezoid``    -- flat top of full length t0, linear sides of
                      horizontal extent n*t0 each

The Gaussian, squared-Lorentzian and trapezoid spectra have closed forms
(the trapezoid's through Fresnel integrals, Abramowitz & Stegun 7.3).  The
square window alone is evaluated by oscillatory quadrature over its
compact support; ``Method.NESTED`` selects that quadrature for every
family, as the independent cross-check of the closed forms.  The square
window is numerically ill-behaved in the bound integrals -- its spectrum
decays only like 1/omega^2 -- so building bound curves from it requires an
explicit opt-in at the curve level.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .units import float_or_array


class WindowKind(enum.Enum):
    GAUSSIAN = "gaussian"
    LORENTZIAN_SQ = "lorentzian2"
    SQUARE = "square"
    TRAPEZOID = "trapezoid"


class Method(enum.Enum):
    """How a bound is evaluated."""

    CLOSED_FORM = "closed_form"  # the bound itself in closed form
    SPECTRUM = "spectrum"        # one quadrature of the closed-form spectrum
    NESTED = "nested"            # a quadrature of the spectrum's quadrature


# The methods each family supports, fastest first; the first is its default.
METHODS = {
    WindowKind.GAUSSIAN: (Method.CLOSED_FORM, Method.SPECTRUM, Method.NESTED),
    WindowKind.LORENTZIAN_SQ: (Method.CLOSED_FORM, Method.SPECTRUM, Method.NESTED),
    WindowKind.TRAPEZOID: (Method.SPECTRUM, Method.NESTED),
    WindowKind.SQUARE: (Method.NESTED,),
}


def resolve_method(kind: WindowKind, method: Method | None = None,
                   numeric: bool = False) -> Method:
    """``method`` if ``kind`` supports it, else ValueError; when ``method``
    is None, the family's fastest method, or with ``numeric`` its fastest
    method that is not a closed-form bound."""
    supported = METHODS[kind]
    if method is None:
        return supported[1] if numeric and supported[0] is Method.CLOSED_FORM else supported[0]
    if method not in supported:
        names = ", ".join(m.value for m in supported)
        raise ValueError(f"{kind.value} window supports {names}, not {method.value}")
    return method


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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the numeric spectrum and bound integrals.

    ``rel_tol``/``abs_tol`` gate the per-point spectrum evaluation;
    ``bound_tol`` gates the accumulated error of a bound bracket.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    # On the nested path (the square window, or any family under
    # Method.NESTED) the bracket error accumulates the
    # worst per-point spectrum estimate over the whole integration range,
    # which overstates the true error by orders of magnitude; the gate
    # leaves headroom for that while staying far below any stated
    # tolerance.  A closed-form spectrum (the trapezoid's included) adds
    # nothing to the single bracket quadrature's own estimate.
    bound_tol: float = 5e-8

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.bound_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")
        # QUADPACK allocates workspace in proportion to the limit
        if self.max_subdivisions > 100_000:
            raise ValueError("max_subdivisions must be at most 100000")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class SamplingWindow:
    """A normalized time-sampling function f(t).

    ``t0`` is the width parameter: the Gaussian/squared-Lorentzian scale,
    the full width of the square window, or the full length of the
    trapezoid flat top.  ``n`` (trapezoid only) is the side length in
    units of ``t0``.
    """

    kind: WindowKind
    t0: float
    n: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t0) and self.t0 > 0):
            raise ValueError(f"t0 must be a positive real, got {self.t0}")
        if self.kind is WindowKind.TRAPEZOID:
            if self.n is None or not (math.isfinite(self.n) and self.n > 0):
                raise ValueError(f"trapezoid requires side-length ratio n > 0, got {self.n}")
        elif self.n is not None:
            raise ValueError(f"{self.kind.value} window takes no side parameter n")

    @property
    def half_support(self) -> float:
        """Half-width of the support (inf for the unbounded families)."""
        if self.kind is WindowKind.SQUARE:
            return 0.5 * self.t0
        if self.kind is WindowKind.TRAPEZOID:
            return 0.5 * self.t0 + self.n * self.t0
        return math.inf

    @property
    def segment_edges(self) -> tuple[float, ...]:
        """Breakpoints of f on t >= 0, used to split quadratures at kinks."""
        if self.kind is WindowKind.SQUARE:
            return (0.0, 0.5 * self.t0)
        if self.kind is WindowKind.TRAPEZOID:
            return (0.0, 0.5 * self.t0, self.half_support)
        return (0.0,)


def gaussian_window(t0: float) -> SamplingWindow:
    return SamplingWindow(WindowKind.GAUSSIAN, t0)


def lorentzian_sq_window(t0: float) -> SamplingWindow:
    return SamplingWindow(WindowKind.LORENTZIAN_SQ, t0)


def square_window(delta_t: float) -> SamplingWindow:
    return SamplingWindow(WindowKind.SQUARE, delta_t)


def trapezoid_window(ts: float, n: float) -> SamplingWindow:
    return SamplingWindow(WindowKind.TRAPEZOID, ts, n)


def _trapezoid_height(w: SamplingWindow) -> float:
    # unit area: h * (flat top + two triangular sides) = h * t0 * (1 + n)
    return 1.0 / (w.t0 * (1.0 + w.n))


def evaluate_window(w: SamplingWindow, t):
    """Evaluate f(t); accepts scalars or arrays, returns matching shape."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    if w.kind is WindowKind.GAUSSIAN:
        out = np.exp(-(t * t) / (2.0 * w.t0 * w.t0)) / (w.t0 * math.sqrt(2.0 * math.pi))
    elif w.kind is WindowKind.LORENTZIAN_SQ:
        out = (2.0 / math.pi) * w.t0**3 / (t * t + w.t0 * w.t0) ** 2
    elif w.kind is WindowKind.SQUARE:
        out = np.where(at <= 0.5 * w.t0, 1.0 / w.t0, 0.0)
    else:
        b = 0.5 * w.t0
        c = w.half_support
        h = _trapezoid_height(w)
        slope = np.clip((c - at) / (w.n * w.t0), 0.0, 1.0)
        out = h * np.where(at <= b, 1.0, slope)
    return float_or_array(out)


def sqrt_window(w: SamplingWindow, t):
    """sqrt(f(t)) with the piecewise pieces taken exactly (no sqrt of -0)."""
    return np.sqrt(evaluate_window(w, t))


def _trapezoid_sqrt_ft(w: SamplingWindow, u: float) -> float:
    """(f^{1/2})_FT of the trapezoid at u >= 0, through Fresnel integrals.

    The flat top contributes sqrt(h)*sin(u b)/u.  Each sloping side is the
    integral of sqrt(h s/L) cos(u(c - s)) over 0 <= s <= L, which the
    substitution s = v^2 reduces to Fresnel C/S (A&S 7.3).  The one
    cancellation, in the cosine term as u -> 0, is multiplied by
    sin(u c) ~ u c, so the absolute error stays at rounding level.
    """
    b = 0.5 * w.t0
    L = w.n * w.t0
    c = b + L
    h = _trapezoid_height(w)
    if u == 0.0:
        return math.sqrt(h) * (b + 2.0 * L / 3.0) / math.pi
    from scipy import special
    S, C = special.fresnel(math.sqrt(2.0 * u * L / math.pi))
    pref = math.sqrt(math.pi / (2.0 * u))
    A = (math.sqrt(L) * math.sin(u * L) - pref * S) / u
    B = (pref * C - math.sqrt(L) * math.cos(u * L)) / u
    side = math.sqrt(h / L) * (math.cos(u * c) * A + math.sin(u * c) * B)
    return float(math.sqrt(h) * math.sin(u * b) / u + side) / math.pi


def _analytic_sqrt_ft_squared(w: SamplingWindow, omega: float) -> float:
    """Closed-form |(f^{1/2})_FT|^2 for every family but the square."""
    if w.kind is WindowKind.GAUSSIAN:
        return w.t0 / (math.pi * math.sqrt(2.0 * math.pi)) * math.exp(-2.0 * (w.t0 * omega) ** 2)
    if w.kind is WindowKind.LORENTZIAN_SQ:
        return w.t0 / (2.0 * math.pi) * math.exp(-2.0 * w.t0 * abs(omega))
    if w.kind is WindowKind.TRAPEZOID:
        amp = _trapezoid_sqrt_ft(w, abs(omega))
        return amp * amp
    raise ValueError(f"no analytic spectrum for {w.kind.value}")


def _sqrt_ft_numeric(w: SamplingWindow, omega: float, cfg: QuadratureConfig) -> tuple[float, float]:
    """Cosine transform of sqrt(f) over t >= 0, with an error estimate.

    Windows are even, so (f^{1/2})_FT(omega) is real and equals
    (1/pi) * integral_0^inf sqrt(f(t)) cos(omega t) dt.  Compact supports
    are integrated segment by segment (exact truncation); the unbounded
    families go through the semi-infinite oscillatory rule, so no tail is
    ever dropped.
    """
    from scipy import integrate
    u = abs(omega)
    edges = w.segment_edges if math.isfinite(w.half_support) else (0.0, np.inf)
    total = 0.0
    total_err = 0.0
    g = lambda t: float(sqrt_window(w, t))
    for lo, hi in zip(edges[:-1], edges[1:]):
        if u < 1e-300:
            val, err = integrate.quad(g, lo, hi,
                                      epsabs=cfg.abs_tol, epsrel=1e-12,
                                      limit=cfg.max_subdivisions)
        else:
            # limlst bounds the cycles of the semi-infinite rule only
            val, err = integrate.quad(g, lo, hi, weight="cos", wvar=u,
                                      epsabs=cfg.abs_tol, limlst=100,
                                      limit=cfg.max_subdivisions, full_output=1)[:2]
        total += val
        total_err += err
    return total / math.pi, total_err / math.pi


def sqrt_ft_squared(
    w: SamplingWindow,
    omega: float,
    cfg: QuadratureConfig | None = None,
    method: Method | None = None,
) -> float:
    """|(f^{1/2})_FT(omega)|^2 in seconds (for t0 in seconds).

    ``NESTED`` (the square family's only method) evaluates it by numeric
    quadrature, every other method by its closed form; ``NESTED`` on a
    closed-form family is the standard cross-check of the closed forms.

    Raises :class:`QuadratureError` when the numeric path cannot certify
    the requested tolerance; the achieved estimate rides on the exception.
    """
    cfg = cfg or DEFAULT_QUADRATURE
    if resolve_method(w.kind, method) is not Method.NESTED:
        return _analytic_sqrt_ft_squared(w, omega)
    amp, amp_err = _sqrt_ft_numeric(w, omega, cfg)
    value = amp * amp
    value_err = 2.0 * abs(amp) * amp_err
    # gate against the spectral scale (values run ~ t0/(2pi) at the peak
    # and fall over many decades), not just the pointwise value
    scale = w.t0 / (2.0 * math.pi)
    if value_err > max(cfg.abs_tol, cfg.rel_tol * abs(value), cfg.rel_tol * scale):
        raise QuadratureError(
            f"spectrum quadrature did not converge for {w.kind.value} at omega={omega:g}",
            achieved=value_err,
        )
    return value

