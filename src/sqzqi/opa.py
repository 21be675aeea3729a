"""Below-threshold OPA quadrature variance with balanced homodyne readout.

The lumped-parameter model for the measured variance relative to vacuum is

    S(theta, x, w) = 1 + 4*beta*x * [ cos^2(theta) / ((1-x)^2 + w^2)
                                     - sin^2(theta) / ((1+x)^2 + w^2) ]

with pump ratio x = P/P_th in (0, 1), optical efficiency beta in (0, 1],
normalized sideband frequency w = omega/gamma >= 0, and local-oscillator
phase theta.  Conventions: squeezing is deepest at w = 0 and theta = pi/2,
antisqueezing peaks at theta = 0.

The endpoints x = 0 and x = 1 are excluded -- the antisqueezing diverges
at x -> 1, w = 0, and the squeezed-fraction ratio degenerates to 0/0 at
x -> 0.  Callers probing the limits pass values arbitrarily close to the
endpoints instead.

For context only (no operation consumes it): the cavity half-width is
gamma = c*(T + L)/l for coupling-mirror transmissivity T, round-trip loss
L, and round-trip length l; published experiments span full widths
2*gamma/2pi of roughly 9 to 84 MHz, so omega/gamma stays below ~1 in the
measurement band.

The functions of x, beta, w or ft take floats or arrays that broadcast
together, each array element equal to its scalar call bit for bit; only
``OpaParams``, ``variance``, ``extremes`` and ``effective_ft`` describe one
operating point.  All dB conversions go through :mod:`sqzqi.units`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qi_bound import ConsistencyError
from .units import checked, float_or_array, to_db


class NoSqueezingError(RuntimeError):
    """No squeezing anywhere in the requested range (zero total weight)."""


@dataclass(frozen=True)
class OpaParams:
    x: float
    beta: float
    w: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        _validate(self.x, self.beta, self.w)
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


@dataclass(frozen=True)
class SqueezingPoint:
    """Extremal variances and squeezed fraction at one operating point.

    With losses (beta < 1) the product s_minus*s_plus exceeds 1: the
    antisqueezed excess survives attenuation better than the squeezed
    deficit.  Equality holds only for beta = 1.
    """

    s_minus: float
    s_plus: float
    ft: float

    def __post_init__(self):
        if not (0.0 < self.s_minus <= 1.0 <= self.s_plus):
            raise ValueError("require 0 < s_minus <= 1 <= s_plus")
        if self.s_minus * self.s_plus < 1.0 - 1e-12:
            raise ValueError("s_minus*s_plus below the lossless minimum of 1")
        if not (0.0 < self.ft < 0.5):
            raise ValueError(f"squeezed fraction must lie in (0, 0.5), got {self.ft}")


def variance(p: OpaParams) -> float:
    """Relative variance S(theta, x, w) at one operating point; < 1 means squeezing.

    Written as cos^2(theta)*S+ + sin^2(theta)*S-, so the extremal phases
    reproduce :func:`s_plus` / :func:`s_minus` bit for bit.
    """
    a, b = _widths(p.x, p.w)
    return (math.cos(p.theta) ** 2 * float(_s_plus(p.x, p.beta, b))
            + math.sin(p.theta) ** 2 * float(_s_minus(p.x, p.beta, a, b)))


def s_minus(x, beta, w=0.0):
    """Deepest squeezing, attained at theta = pi/2."""
    x, beta, w = _validate(x, beta, w)
    return float_or_array(_s_minus(x, beta, *_widths(x, w)))


def s_plus(x, beta, w=0.0):
    """Peak antisqueezing, attained at theta = 0 (or pi)."""
    x, beta, w = _validate(x, beta, w)
    return float_or_array(_s_plus(x, beta, _widths(x, w)[1]))


def extremal_product(x, beta, w=0.0):
    """Closed form of s_minus*s_plus.

    Expanding the product of the two extremal variances gives

        1 + 16*beta*(1-beta)*x^2 / [((1+x)^2+w^2) * ((1-x)^2+w^2)]

    which is 1 exactly at beta = 1, as the uncertainty principle demands
    for a lossless system, and above 1 otherwise.
    """
    x, beta, w = _validate(x, beta, w)
    a, b = _widths(x, w)
    return float_or_array(1.0 + 16.0 * beta * (1.0 - beta) * x * x / (a * b))


def squeezed_fraction(x, beta=1.0, w=0.0):
    """Fraction F_T of the cycle with variance below vacuum.

        F_T = 1 - (2/pi) * arctan sqrt( (S+ - 1) / (1 - S-) )

    The ratio under the root reduces to ((1+x)^2+w^2)/((1-x)^2+w^2),
    independent of beta; every call verifies that, element by element
    (ConsistencyError naming the first element that fails).
    """
    x, beta, w = _validate(x, beta, w)
    a, b = _widths(x, w)
    return float_or_array(_fraction(_s_minus(x, beta, a, b), _s_plus(x, beta, b), a, b))


def _fraction(sm, sp, a, b):
    """:func:`squeezed_fraction` from the extremes and the widths of
    validated arrays, with its consistency check."""
    if not (np.all(sp > 1.0) and np.all(sm < 1.0)):
        raise ValueError("squeezed fraction needs s_plus > 1 and s_minus < 1")
    ratio, ratio_reduced = np.broadcast_arrays((sp - 1.0) / (1.0 - sm), a / b)
    # the extremes route computes S+- 1 by cancellation, so allow it the
    # rounding slack its conditioning implies
    eps = 2.220446049250313e-16
    slack = 64.0 * eps * ratio_reduced * (1.0 + 1.0 / (sp - 1.0) + 1.0 / (1.0 - sm))
    # math.isclose(ratio, ratio_reduced, rel_tol=1e-12, abs_tol=slack), elementwise
    close = np.abs(ratio - ratio_reduced) <= np.maximum(
        1e-12 * np.maximum(np.abs(ratio), np.abs(ratio_reduced)), slack)
    if not close.all():
        i = np.argmin(close)  # the first element that fails
        raise ConsistencyError(
            f"extremal-variance ratio {float(ratio.flat[i])!r} disagrees with its "
            f"beta-free reduction {float(ratio_reduced.flat[i])!r}"
        )
    return _ft_from_ratio(ratio_reduced)


def extremes(x: float, beta: float, w: float = 0.0) -> SqueezingPoint:
    """Extremal variances and squeezed fraction at one operating point."""
    x, beta, w = _validate(x, beta, w)
    a, b = _widths(x, w)
    sm, sp = _s_minus(x, beta, a, b), _s_plus(x, beta, b)
    return SqueezingPoint(s_minus=float_or_array(sm), s_plus=float_or_array(sp),
                          ft=float_or_array(_fraction(sm, sp, a, b)))


def ideal_bound(ft):
    """Deepest squeezing a lossless OPA allows at squeezed fraction ft.

    s_minus = tan^2(ft * pi/2), valid on 0 < ft < 0.5.
    """
    ft = checked(ft, lambda f: (0.0 < f) & (f < 0.5), "ft must lie in (0, 0.5)")
    return float_or_array(np.square(np.tan(ft * math.pi / 2.0)))


def ideal_r_db(ft):
    """:func:`ideal_bound` in dB, saturating at 0 dB for ft >= 0.5
    (squeezing can never occupy more than half the cycle)."""
    half = np.asarray(ft, dtype=float) >= 0.5
    return float_or_array(np.where(half, 0.0, to_db(ideal_bound(np.where(half, 0.25, ft)))))


def ideal_ft(s_min):
    """Squeezed fraction of a lossless OPA at squeezing depth s_min.

    Exact inverse of :func:`ideal_bound` on 0 < s_min < 1, obtained by
    substituting s_plus = 1/s_minus into the fraction formula.
    """
    s_min = checked(s_min, lambda s: (0.0 < s) & (s < 1.0), "s_minus must lie in (0, 1)")
    return float_or_array(_ft_from_ratio(1.0 / s_min))


def effective_ft(x: float, beta: float, w_max: float) -> float:
    """Frequency-weighted effective squeezed fraction over w in [0, w_max].

    The squeezing spectrum is Lorentzian, so measurements off the optimal
    sideband see a larger squeezed fraction; this averages F_T(x, w) over
    the band, weighted by the squeezing depth 1 - S-(x, beta, w), by the
    trapezoidal rule on 2001 points.
    """
    if not (math.isfinite(w_max) and w_max > 0):
        raise ValueError(f"w_max must be positive, got {w_max}")
    ws = np.linspace(0.0, w_max, 2001)
    ft = squeezed_fraction(x, beta, ws)
    weight = _depth_weight(x, beta, ws)
    total = np.trapezoid(weight, ws)
    if total <= 0.0:
        raise NoSqueezingError(f"no squeezing anywhere in [0, {w_max}]")
    return float(np.trapezoid(weight * ft, ws) / total)


def _depth_weight(x, beta, w):
    """Squeezing depth 1 - S-(x, beta, w), the averaging weight of :func:`effective_ft`."""
    return 1.0 - s_minus(x, beta, w)


def _validate(x, beta, w):
    """x, beta and w as float arrays; ValueError naming the first bad element."""
    return (checked(x, lambda v: (0.0 < v) & (v < 1.0), "pump ratio x must lie in (0, 1)"),
            checked(beta, lambda v: (0.0 < v) & (v <= 1.0), "efficiency beta must lie in (0, 1]"),
            checked(w, lambda v: np.isfinite(v) & (v >= 0), "normalized frequency w must be >= 0"))


def _widths(x, w):
    """((1+x)^2 + w^2, (1-x)^2 + w^2), squaring by products so floats and arrays round alike."""
    with np.errstate(over="ignore"):  # w^2 -> inf is the far-off-resonance limit
        return (1.0 + x) * (1.0 + x) + w * w, (1.0 - x) * (1.0 - x) + w * w


def _s_minus(x, beta, a, b):
    """S- of validated arrays, given the widths a and b of :func:`_widths`.

    1 - 4*beta*x/a cancels as x -> 1, where squeezing is deepest; with
    a = b + 4*x it is (b + 4*x*(1 - beta))/a, which does not.  Where w^2
    overflows, a = b = inf and S- takes its far-off-resonance limit 1.
    """
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(a), 1.0, (b + 4.0 * x * (1.0 - beta)) / a)


def _s_plus(x, beta, b):
    """S+ of validated arrays, given b = (1-x)^2 + w^2."""
    return 1.0 + 4.0 * beta * x / b


def _ft_from_ratio(ratio):
    """F_T = 1 - (2/pi) * arctan sqrt(ratio), with ratio = (S+ - 1)/(1 - S-)."""
    return 1.0 - (2.0 / math.pi) * np.arctan(np.sqrt(ratio))
