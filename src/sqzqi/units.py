"""Physical constants and decibel helpers shared across the package.

All variance ratios are linear (relative to the vacuum level); public
reporting converts through :func:`to_db`, so that the ``-inf`` sentinel for
unbounded squeezing is handled in exactly one place.  Each helper takes and
returns floats; a caller with a grid writes a comprehension.
"""

from __future__ import annotations

import math

# CODATA 2018; c is exact by definition of the metre.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m/s


def rounded_grid(start: float, step: float, count: int, decimals: int) -> list[float]:
    """start + i*step for i < count, rounded as ``np.round`` rounds: rint(x * 10**decimals)
    / 10**decimals.  For start = step these are the points of ``np.round(np.arange(step,
    stop, step), decimals)``: arange fills start + i*delta, delta = (step + step) - step = step."""
    scale = 10.0 ** decimals
    return [round((start + i * step) * scale) / scale for i in range(count)]


def to_db(ratio: float, floor: float = 0.0) -> float:
    """10*log10 of one linear variance ratio; -inf at or below ``floor`` (0 or above)."""
    return -math.inf if ratio <= floor else 10.0 * math.log10(ratio)


def format_db(db: float) -> str:
    """Fixed-width dB rendering, 4 decimals; -inf renders as "-inf"."""
    return f"{db:.4f}"


def round_sig(x: float, digits: int = 6) -> float:
    """Round to a number of significant digits (used by report serialization)."""
    if x == 0.0 or not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")
