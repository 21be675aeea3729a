"""The window definitions and their quadrature: the reference the closed
forms are tested against.

Nothing here uses a closed-form spectrum.  Windows are even, so
(f^{1/2})_FT(omega) is real and equals (1/pi) * integral_0^inf sqrt(f(t))
cos(omega t) dt; that cosine transform is computed from the window itself
with SciPy's QUADPACK, and the bound bracket 4pi * integral_0^{omega0}
|(f^{1/2})_FT|^2 by a second quadrature over it.  Every result carries its
error estimate, and one that cannot be certified raises QuadratureError
rather than being returned.
"""

import math

import numpy as np
from scipy import integrate

from sqzqi.qi_bound import BOUND_TOL, QuadratureError
from sqzqi.windows import SamplingWindow, WindowKind

ABS_TOL = 1e-12
# a spectrum value is certified to REL_TOL of itself or of the spectral
# scale t0/(2pi), whichever is larger
REL_TOL = 1e-8
LIMIT = 200


def evaluate_window(w: SamplingWindow, t):
    """Evaluate f(t); accepts scalars or arrays, returns matching shape."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    with np.errstate(over="ignore"):  # t*t overflows to inf far in a tail, giving f = 0
        if w.kind is WindowKind.GAUSSIAN:
            out = np.exp(-(t * t) / (2.0 * w.t0 * w.t0)) / (w.t0 * math.sqrt(2.0 * math.pi))
        elif w.kind is WindowKind.LORENTZIAN_SQ:
            out = (2.0 / math.pi) * w.t0**3 / (t * t + w.t0 * w.t0) ** 2
        elif w.kind is WindowKind.SQUARE:
            out = np.where(at <= 0.5 * w.t0, 1.0 / w.t0, 0.0)
        else:
            b = 0.5 * w.t0
            c = w.half_support
            h = 1.0 / (w.t0 * (1.0 + w.n))  # unit area: h * t0 * (1 + n)
            slope = np.clip((c - at) / (w.n * w.t0), 0.0, 1.0)
            out = h * np.where(at <= b, 1.0, slope)
    return float(out) if out.ndim == 0 else out


def sqrt_window(w: SamplingWindow, t):
    """sqrt(f(t)); accepts scalars or arrays."""
    return np.sqrt(evaluate_window(w, t))


def segment_edges(w: SamplingWindow) -> tuple[float, ...]:
    """The kinks of a compact window's f on t >= 0, up to its support's edge."""
    if w.kind is WindowKind.SQUARE:
        return (0.0, 0.5 * w.t0)
    return (0.0, 0.5 * w.t0, w.half_support)


def _pieces(w: SamplingWindow, u: float) -> tuple[float, ...]:
    """Where the cosine transform at u is split: at the kinks of a compact
    window; for an unbounded one, so that a finite rule covers the spectral
    peak before the semi-infinite rule takes the rest.

    The semi-infinite rule alone integrates cycle by cycle, each pi/u long;
    at small u the window's mass sits in a sliver of the first cycle and is
    missed, with a small error estimate (the Gaussian's bracket at
    omega0*t0 = 1e-3 read 2.8e-42 instead of 1.6e-3).  The squared
    Lorentzian's root decays only like 1/t^2, so its finite part runs past
    20pi/u, ten cycles, in decades from 50*t0: one finite rule from 50*t0
    to 20pi/u missed that tail (5e-3 of the amplitude) below u*t0 = 1e-8.
    """
    if math.isfinite(w.half_support):
        return segment_edges(w)
    if u < 1e-300:
        return (0.0, math.inf)
    if w.kind is WindowKind.GAUSSIAN:
        return (0.0, 12.0 * w.t0, math.inf)
    edges = [0.0, 50.0 * w.t0]
    while edges[-1] < 20.0 * math.pi / u:
        edges.append(10.0 * edges[-1])
    return (*edges, math.inf)


def sqrt_ft(w: SamplingWindow, omega: float) -> tuple[float, float]:
    """(f^{1/2})_FT(omega) and its error estimate, from the window's definition."""
    u = abs(omega)
    g = lambda t: float(sqrt_window(w, t))
    total = total_err = 0.0
    edges = _pieces(w, u)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if u < 1e-300:
            val, err = integrate.quad(g, lo, hi, epsabs=ABS_TOL, epsrel=1e-12, limit=LIMIT)
        else:
            # limlst bounds the cycles of the semi-infinite rule only
            val, err = integrate.quad(g, lo, hi, weight="cos", wvar=u, epsabs=ABS_TOL,
                                      epsrel=1e-12, limlst=100, limit=LIMIT, full_output=1)[:2]
        total += val
        total_err += err
    return total / math.pi, total_err / math.pi


def sqrt_ft_squared(w: SamplingWindow, omega: float) -> float:
    """|(f^{1/2})_FT(omega)|^2; QuadratureError when it cannot be certified."""
    amp, amp_err = sqrt_ft(w, omega)
    value, value_err = amp * amp, 2.0 * abs(amp) * amp_err
    scale = w.t0 / (2.0 * math.pi)
    if not value_err <= max(ABS_TOL, REL_TOL * abs(value), REL_TOL * scale):
        raise QuadratureError(f"oracle spectrum did not converge for {w.kind.value} "
                              f"at omega={omega:g}", achieved=value_err)
    return value


def bracket(w: SamplingWindow, omega0: float) -> tuple[float, float]:
    """(4pi * integral_0^{omega0} |(f^{1/2})_FT|^2, its error estimate).

    The spectrum is a quadrature at every outer node, and its worst
    pointwise error is charged over the whole interval.  An error estimate
    above the library's bound gate raises QuadratureError.
    """
    inner_err = 0.0

    def V(u: float) -> float:
        nonlocal inner_err
        amp, err = sqrt_ft(w, u)
        inner_err = max(inner_err, 2.0 * abs(amp) * err)
        return amp * amp

    val, err = integrate.quad(V, 0.0, omega0, epsabs=ABS_TOL, epsrel=1e-11,
                              limit=LIMIT, full_output=1)[:2]
    value, error = 4.0 * math.pi * val, 4.0 * math.pi * (err + inner_err * omega0)
    if not error <= BOUND_TOL:
        raise QuadratureError(f"oracle bracket did not converge for {w.kind.value} "
                              f"at omega0={omega0:g}", achieved=error)
    return value, error
