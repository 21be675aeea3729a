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

Every function takes and returns floats, one operating point (or one F_T)
per call, in ``math``, :func:`effective_ft`'s band integral included: a
caller with a grid writes a comprehension.
All dB conversions go through :mod:`sqzqi.units`.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .qi_bound import ConsistencyError
from .units import to_db


class NoSqueezingError(RuntimeError):
    """No squeezing anywhere in the requested range (zero total weight)."""


class SqueezingPoint(namedtuple("SqueezingPoint", "s_minus s_plus ft")):
    """Extremal variances and squeezed fraction at one operating point.

    With losses (beta < 1) the product s_minus*s_plus exceeds 1: the
    antisqueezed excess survives attenuation better than the squeezed
    deficit.  Equality holds only for beta = 1.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 < self.s_minus <= 1.0 <= self.s_plus):
            raise ValueError("require 0 < s_minus <= 1 <= s_plus")
        if self.s_minus * self.s_plus < 1.0 - 1e-12:
            raise ValueError("s_minus*s_plus below the lossless minimum of 1")
        if not (0.0 < self.ft < 0.5):
            raise ValueError(f"squeezed fraction must lie in (0, 0.5), got {self.ft}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))


def variance(x: float, beta: float, w: float, theta: float) -> float:
    """Relative variance S(theta, x, w) at one operating point; < 1 means squeezing.

    Written as cos^2(theta)*S+ + sin^2(theta)*S-, so the extremal phases
    reproduce :func:`s_plus` / :func:`s_minus` bit for bit.
    """
    x, beta, w = _validate(x, beta, w)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return math.cos(theta) ** 2 * _s_plus(x, beta, w) + math.sin(theta) ** 2 * _s_minus(x, beta, w)


def s_minus(x: float, beta: float, w: float = 0.0) -> float:
    """Deepest squeezing, attained at theta = pi/2."""
    return _s_minus(*_validate(x, beta, w))


def s_plus(x: float, beta: float, w: float = 0.0) -> float:
    """Peak antisqueezing, attained at theta = 0 (or pi)."""
    return _s_plus(*_validate(x, beta, w))


def extremal_product(x: float, beta: float, w: float = 0.0) -> float:
    """Closed form of s_minus*s_plus.

    Expanding the product of the two extremal variances gives

        1 + 16*beta*(1-beta)*x^2 / [((1+x)^2+w^2) * ((1-x)^2+w^2)]

    which is 1 exactly at beta = 1, as the uncertainty principle demands
    for a lossless system, and above 1 otherwise.
    """
    x, beta, w = _validate(x, beta, w)
    a, b = _widths(x, w)
    return 1.0 + 16.0 * beta * (1.0 - beta) * x * x / (a * b)


def squeezed_fraction(x: float, beta: float = 1.0, w: float = 0.0) -> float:
    """Fraction F_T of the cycle with variance below vacuum.

        F_T = 1 - (2/pi) * arctan sqrt( (S+ - 1) / (1 - S-) )

    The ratio under the root reduces to a/b = ((1+x)^2+w^2)/((1-x)^2+w^2),
    independent of beta; every call verifies that (ConsistencyError).  F_T
    is evaluated as (2/pi) * arctan sqrt(b/a), which equals the above and
    keeps full relative accuracy as x -> 1, where the subtraction cancels.
    """
    x, beta, w = _validate(x, beta, w)
    sm, sp = _s_minus(x, beta, w), _s_plus(x, beta, w)
    if not (sp > 1.0 and sm < 1.0):
        raise ValueError("squeezed fraction needs s_plus > 1 and s_minus < 1")
    a, b = _widths(x, w)
    ratio, ratio_reduced = (sp - 1.0) / (1.0 - sm), a / b
    # the extremes route computes S+- 1 by cancellation, so allow it the
    # rounding slack its conditioning implies
    eps = 2.220446049250313e-16
    slack = 64.0 * eps * ratio_reduced * (1.0 + 1.0 / (sp - 1.0) + 1.0 / (1.0 - sm))
    if not math.isclose(ratio, ratio_reduced, rel_tol=1e-12, abs_tol=slack):
        raise ConsistencyError(
            f"extremal-variance ratio {ratio!r} disagrees with its "
            f"beta-free reduction {ratio_reduced!r}"
        )
    return (2.0 / math.pi) * math.atan(math.sqrt(b / a))


def extremes(x: float, beta: float, w: float = 0.0) -> SqueezingPoint:
    """Extremal variances and squeezed fraction at one operating point."""
    return SqueezingPoint(s_minus(x, beta, w), s_plus(x, beta, w), squeezed_fraction(x, beta, w))


def ideal_bound(ft: float) -> float:
    """Deepest squeezing a lossless OPA allows at squeezed fraction ft.

    s_minus = tan^2(ft * pi/2), valid on 0 < ft < 0.5.
    """
    ft = float(ft)
    if not 0.0 < ft < 0.5:
        raise ValueError(f"ft must lie in (0, 0.5), got {ft}")
    t = math.tan(ft * math.pi / 2.0)
    return t * t


def ideal_r_db(ft: float) -> float:
    """:func:`ideal_bound` in dB, saturating at 0 dB for ft >= 0.5
    (squeezing can never occupy more than half the cycle)."""
    return 0.0 if ft >= 0.5 else to_db(ideal_bound(ft))


def effective_ft(x: float, beta: float, w_max: float) -> float:
    """Frequency-weighted effective squeezed fraction over w in [0, w_max].

    The squeezing spectrum is Lorentzian, so measurements off the optimal
    sideband see a larger squeezed fraction; this averages F_T(x, w) over
    the band, weighted by the squeezing depth 1 - S-(x, beta, w), by the
    trapezoidal rule on 2001 points, each sum correctly rounded (``fsum``).
    """
    if not (math.isfinite(w_max) and w_max > 0):
        raise ValueError(f"w_max must be positive, got {w_max}")
    ws = [w_max * i / 2000 for i in range(2001)]
    weight = [1.0 - s_minus(x, beta, w) for w in ws]
    moment = [d * squeezed_fraction(x, beta, w) for d, w in zip(weight, ws)]
    # the trapezoidal rule, without its step w_max/2000, which cancels
    total, first = (math.fsum(y) - (y[0] + y[-1]) / 2.0 for y in (weight, moment))
    if total <= 0.0:
        raise NoSqueezingError(f"no squeezing anywhere in [0, {w_max}]")
    return first / total


def _validate(x: float, beta: float, w: float) -> tuple[float, float, float]:
    """x, beta and w as floats; ValueError naming the first out of range
    (NaN fails every range)."""
    x, beta, w = float(x), float(beta), float(w)
    if not 0.0 < x < 1.0:
        raise ValueError(f"pump ratio x must lie in (0, 1), got {x}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"efficiency beta must lie in (0, 1], got {beta}")
    if not 0.0 <= w < math.inf:
        raise ValueError(f"normalized frequency w must be >= 0, got {w}")
    return x, beta, w


def _widths(x: float, w: float) -> tuple[float, float]:
    """((1+x)^2 + w^2, (1-x)^2 + w^2), squaring by products; w^2 may
    overflow to inf, the far-off-resonance limit."""
    return (1.0 + x) * (1.0 + x) + w * w, (1.0 - x) * (1.0 - x) + w * w


def _s_minus(x: float, beta: float, w: float) -> float:
    """S- of one validated operating point, from its widths a and b.

    1 - 4*beta*x/a cancels as x -> 1, where squeezing is deepest; with
    a = b + 4*x it is (b + 4*x*(1 - beta))/a, which does not.  Where w^2
    overflows, a = b = inf and S- takes its far-off-resonance limit 1.
    """
    a, b = _widths(x, w)
    return 1.0 if a == math.inf else (b + 4.0 * x * (1.0 - beta)) / a


def _s_plus(x: float, beta: float, w: float) -> float:
    """S+ of one validated operating point."""
    return 1.0 + 4.0 * beta * x / _widths(x, w)[1]
