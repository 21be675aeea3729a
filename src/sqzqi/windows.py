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
(the trapezoid's through Fresnel integrals, Abramowitz & Stegun 7.3, by a
NumPy port of Cephes' ``fresnl``, so it takes arrays and loads no SciPy).
The square window alone is evaluated by oscillatory quadrature over its
compact support (SciPy's ``quad``); ``Method.NESTED`` selects that
quadrature for every family, as the independent cross-check of the closed
forms.  The square window is numerically ill-behaved in the bound
integrals -- its spectrum decays only like 1/omega^2 -- so building bound
curves from it requires an explicit opt-in at the curve level.
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
    # The QUADPACK workspace of each scipy.integrate.quad call (the nested
    # path and the Gaussian/Lorentzian^2 spectrum); for the trapezoid
    # spectrum, the Gauss-Kronrod intervals allowed per bracket (per
    # element of an omega0 array).
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
        # QUADPACK's workspace and the Gauss-Kronrod interval arrays both
        # grow in proportion to the limit
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


# Cephes ``fresnl`` (S. L. Moshier), the routine behind scipy.special.fresnel:
# rational approximations in x^4 for x^2 < 2.5625, the auxiliary functions f
# and g as rationals in 1/(pi x^2)^2 up to x = 36974, the leading asymptotic
# terms beyond.  Coefficients highest power first.
_FRESNEL_SN = (-2.99181919401019853726e3, 7.08840045257738576863e5, -6.29741486205862506537e7,
               2.54890880573376359104e9, -4.42979518059697779103e10, 3.18016297876567817986e11)
_FRESNEL_SD = (2.81376268889994315696e2, 4.55847810806532581675e4, 5.17343888770096400730e6,
               4.19320245898111231129e8, 2.24411795645340920940e10, 6.07366389490084639049e11)
_FRESNEL_CN = (-4.98843114573573548651e-8, 9.50428062829859605134e-6, -6.45191435683965050962e-4,
               1.88843319396703850064e-2, -2.05525900955013891793e-1, 9.99999999999999998822e-1)
_FRESNEL_CD = (3.99982968972495980367e-12, 9.15439215774657478799e-10, 1.25001862479598821474e-7,
               1.22262789024179030997e-5, 8.68029542941784300606e-4, 4.12142090722199792936e-2,
               1.00000000000000000118e0)
_FRESNEL_FN = (4.21543555043677546506e-1, 1.43407919780758885261e-1, 1.15220955073585758835e-2,
               3.45017939782574027900e-4, 4.63613749287867322088e-6, 3.05568983790257605827e-8,
               1.02304514164907233465e-10, 1.72010743268161828879e-13, 1.34283276233062758925e-16,
               3.76329711269987889006e-20)
_FRESNEL_FD = (7.51586398353378947175e-1, 1.16888925859191382142e-1, 6.44051526508858611005e-3,
               1.55934409164153020873e-4, 1.84627567348930545870e-6, 1.12699224763999035261e-8,
               3.60140029589371370404e-11, 5.88754533621578410010e-14, 4.52001434074129701496e-17,
               1.25443237090011264384e-20)
_FRESNEL_GN = (5.04442073643383265887e-1, 1.97102833525523411709e-1, 1.87648584092575249293e-2,
               6.84079380915393090172e-4, 1.15138826111884280931e-5, 9.82852443688422223854e-8,
               4.45344415861750144738e-10, 1.08268041139020870318e-12, 1.37555460633261799868e-15,
               8.36354435630677421531e-19, 1.86958710162783235106e-22)
_FRESNEL_GD = (1.47495759925128324529e0, 3.37748989120019970451e-1, 2.53603741420338795122e-2,
               8.14679107184306179049e-4, 1.27545075667729118702e-5, 1.04314589657571990585e-7,
               4.60680728146520428211e-10, 1.10273215066240270757e-12, 1.38796531259578871258e-15,
               8.39158816283118707363e-19, 1.86958710162783236342e-22)


def _polevl(x, coef):
    """Horner's rule, highest power first (Cephes ``polevl``; ``p1evl`` is
    this with a leading 1.0, since 1.0*x rounds to x)."""
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _fresnel(z):
    """(S(z), C(z)) = integral_0^z (sin, cos)(pi t^2/2) dt for z >= 0, a
    float or an array, element by element in Cephes' order of operations.

    Every branch is evaluated on every element and the right one kept, so
    an element's value does not depend on its neighbours.
    """
    x = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x2 = x * x
        t = x2 * x2
        s_series = x * x2 * _polevl(t, _FRESNEL_SN) / _polevl(t, (1.0,) + _FRESNEL_SD)
        c_series = x * _polevl(t, _FRESNEL_CN) / _polevl(t, _FRESNEL_CD)
        t = math.pi * x2
        u = 1.0 / (t * t)
        t = 1.0 / t
        f = 1.0 - u * _polevl(u, _FRESNEL_FN) / _polevl(u, (1.0,) + _FRESNEL_FD)
        g = t * _polevl(u, _FRESNEL_GN) / _polevl(u, (1.0,) + _FRESNEL_GD)
        t = (math.pi / 2.0) * x2
        cos, sin = np.cos(t), np.sin(t)
        t = math.pi * x
        s_aux = 0.5 - (f * cos + g * sin) / t
        c_aux = 0.5 + (f * sin - g * cos) / t
        phase = math.pi * x * x / 2.0
        s_far = 0.5 - 1.0 / (math.pi * x) * np.cos(phase)
        c_far = 0.5 + 1.0 / (math.pi * x) * np.sin(phase)
    series, far = x2 < 2.5625, x > 36974.0
    S = np.where(series, s_series, np.where(far, s_far, s_aux))
    C = np.where(series, c_series, np.where(far, c_far, c_aux))
    return float_or_array(S), float_or_array(C)


def _trapezoid_sqrt_ft(w: SamplingWindow, u):
    """(f^{1/2})_FT of the trapezoid at u >= 0, a float or an array, through
    Fresnel integrals.

    The flat top contributes sqrt(h)*sin(u b)/u.  Each sloping side is the
    integral of sqrt(h s/L) cos(u(c - s)) over 0 <= s <= L, which the
    substitution s = v^2 reduces to Fresnel C/S (A&S 7.3).  The one
    cancellation, in the cosine term as u -> 0, is multiplied by
    sin(u c) ~ u c, so the absolute error stays at rounding level.  Below
    u c = 1e-100 an element takes the u = 0 limit, which it equals in double
    precision (the first correction is of order (u c)^2) and which keeps
    the 1/u factors from overflowing near the bottom of the float range.
    """
    u = np.asarray(u, dtype=float)
    b = 0.5 * w.t0
    L = w.n * w.t0
    c = b + L
    h = _trapezoid_height(w)
    limit = u * c < 1e-100
    safe = np.where(limit, 1.0, u)
    S, C = _fresnel(np.sqrt(2.0 * safe * L / math.pi))
    pref = np.sqrt(math.pi / (2.0 * safe))
    A = (math.sqrt(L) * np.sin(safe * L) - pref * S) / safe
    B = (pref * C - math.sqrt(L) * np.cos(safe * L)) / safe
    side = math.sqrt(h / L) * (np.cos(safe * c) * A + np.sin(safe * c) * B)
    amp = (math.sqrt(h) * np.sin(safe * b) / safe + side) / math.pi
    return float_or_array(np.where(limit, math.sqrt(h) * (b + 2.0 * L / 3.0) / math.pi, amp))


def _analytic_sqrt_ft_squared(w: SamplingWindow, omega):
    """Closed-form |(f^{1/2})_FT|^2 for every family but the square; the
    trapezoid's takes a float or an array, the others a float."""
    if w.kind is WindowKind.GAUSSIAN:
        return w.t0 / (math.pi * math.sqrt(2.0 * math.pi)) * math.exp(-2.0 * (w.t0 * omega) ** 2)
    if w.kind is WindowKind.LORENTZIAN_SQ:
        return w.t0 / (2.0 * math.pi) * math.exp(-2.0 * w.t0 * abs(omega))
    if w.kind is WindowKind.TRAPEZOID:
        amp = _trapezoid_sqrt_ft(w, np.abs(omega))
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

