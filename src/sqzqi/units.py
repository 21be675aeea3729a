"""Physical constants and decibel helpers shared across the package.

All variance ratios are linear (relative to the vacuum level); public
reporting converts through the helpers here so that the
``-inf`` sentinel for unbounded squeezing is handled in exactly one place.
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018; c is exact by definition of the metre.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m/s


def float_or_array(values):
    """A float for a 0-d result, else the array: what float-or-array functions return."""
    return float(values) if np.ndim(values) == 0 else values


def checked(values, ok, what: str) -> np.ndarray:
    """``values`` as a float array; ValueError "<what>, got <v>" for the first
    element ``v`` that fails the elementwise test ``ok`` (NaN fails every test)."""
    values = np.asarray(values, dtype=float)
    good = ok(values)
    if not good.all():
        raise ValueError(f"{what}, got {values[~good][0]}")
    return values


def to_db(ratio):
    """10*log10 of a linear variance ratio, a float or an array; 0 or below maps to -inf."""
    ratio = np.asarray(ratio, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.where(ratio <= 0.0, -np.inf, 10.0 * np.log10(ratio))
    return float_or_array(db)


def format_db(db: float) -> str:
    """Fixed-width dB rendering, 4 decimals, with the "-inf" literal."""
    if db == -math.inf:
        return "-inf"
    return f"{db:.4f}"


def round_sig(x: float, digits: int = 6) -> float:
    """Round to a number of significant digits (used by report serialization)."""
    if x == 0.0 or not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")
