"""Physical constants, decibel helpers and element-by-element evaluation
shared across the package.

All variance ratios are linear (relative to the vacuum level); public
reporting converts through the helpers here so that the
``-inf`` sentinel for unbounded squeezing is handled in exactly one place.
The package's formulas are functions of one float, in ``math``, and only
an array argument loads NumPy.
"""

from __future__ import annotations

import math
from itertools import filterfalse, repeat, starmap

# CODATA 2018; c is exact by definition of the metre.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m/s

_NUMBER, _SEQUENCE = (int, float), (list, tuple)


def elementwise(f, *args):
    """``f``, a function of floats, applied element by element, in order:
    numbers give a float; lists or tuples of one length (numbers among them
    standing for every element) a list; arrays, broadcast together, an
    array of their shape."""
    if all(isinstance(a, _NUMBER) for a in args):
        return f(*map(float, args))
    if all(isinstance(a, _NUMBER + _SEQUENCE) for a in args):
        n = max(len(a) for a in args if isinstance(a, _SEQUENCE))
        cols = (map(float, a) if isinstance(a, _SEQUENCE) else repeat(float(a), n) for a in args)
        return list(starmap(f, zip(*cols, strict=True)))
    import numpy as np
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    out = np.fromiter(map(f, *(a.ravel().tolist() for a in arrays)), float, arrays[0].size)
    return out.reshape(arrays[0].shape)


def arithmetic(f, values):
    """``f``, arithmetic alone, applied to a number or an array at once (an
    array stays one, 0-d included), to a list or tuple element by element."""
    if isinstance(values, _SEQUENCE):
        return [f(float(v)) for v in values]
    if isinstance(values, _NUMBER):
        return f(values)
    import numpy as np
    return np.asarray(f(np.asarray(values, dtype=float)))


def float_or_array(values):
    """A float for a 0-d result, else the array: what float-or-array functions return."""
    return values if getattr(values, "ndim", 0) else float(values)


def checked(values, ok, what: str):
    """``values`` as floats (a float, a list or an array), after ValueError
    "<what>, got <v>" for the first element ``v`` failing ``ok``, comparisons
    joined by ``&`` that take a float or an array alike (NaN fails them)."""
    if isinstance(values, _NUMBER):
        values = float(values)
        bad = None if ok(values) else values
    elif isinstance(values, _SEQUENCE):
        values = list(map(float, values))
        bad = next(filterfalse(ok, values), None)
    else:
        import numpy as np
        values = np.asarray(values, dtype=float)
        good = ok(values)
        bad = None if good.all() else float(values[~good][0])
    if bad is not None:
        raise ValueError(f"{what}, got {bad}")
    return values


def rounded_grid(start: float, step: float, count: int, decimals: int) -> list[float]:
    """start + i*step for i < count, rounded as ``np.round`` rounds: rint(x * 10**decimals)
    / 10**decimals.  For start = step these are the points of ``np.round(np.arange(step,
    stop, step), decimals)``: arange fills start + i*delta, delta = (step + step) - step = step."""
    scale = 10.0 ** decimals
    return [round((start + i * step) * scale) / scale for i in range(count)]


def db(ratio: float, floor: float = 0.0) -> float:
    """10*log10 of one linear variance ratio; -inf at or below ``floor`` (0 or above)."""
    return -math.inf if ratio <= floor else 10.0 * math.log10(ratio)


def to_db(ratio):
    """:func:`db` of a float, a list or tuple, or an array, element by element."""
    return elementwise(db, ratio)


def format_db(db: float) -> str:
    """Fixed-width dB rendering, 4 decimals; -inf renders as "-inf"."""
    return f"{db:.4f}"


def round_sig(x: float, digits: int = 6) -> float:
    """Round to a number of significant digits (used by report serialization)."""
    if x == 0.0 or not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")
