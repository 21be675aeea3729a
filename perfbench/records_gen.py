"""Seeded synthetic squeezing dataset for the ``records`` workload.

Written with the standard library only: the records come from the
below-threshold OPA model (extremal variances and squeezed fraction), so
the generator shares no code with the program under test.  The mix of
record kinds is fixed and only the values depend on the seed, so every
seed asks the meta-analysis for the same amount of work and hits every
branch of its classifier:

* ``extremes``            S-/S+ in dB with both uncertainties
* ``extremes_graphical``  the above plus a graphical F_T (the two routes average)
* ``formula``             S- and an explicit ``ft_formula`` field
* ``missing_errors``      S-/S+ with one or both uncertainties absent (defaults applied)
* ``graphical_only``      F_T without a depth: skipped, no squeezing depth
* ``depth_only``          S- without an F_T route: skipped, no F_T route
* ``stub``                no measurements at all: skipped
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

COLUMNS = ("id", "ref_label", "x", "omega_over_gamma", "beta", "s_minus_db", "s_plus_db",
           "s_err_db", "ft_formula", "ft_graphical", "ft_err")

N_RECORDS = 5000
# Share of each kind, per 1000 records.
KIND_SHARES = {
    "extremes": 400,
    "extremes_graphical": 250,
    "formula": 50,
    "missing_errors": 150,
    "graphical_only": 50,
    "depth_only": 50,
    "stub": 50,
}
CLASSIFIED_KINDS = ("extremes", "extremes_graphical", "formula", "missing_errors")
SKIP_REASONS = {
    "graphical_only": "no squeezing depth (s_minus_db)",
    "depth_only": "no F_T route available",
    "stub": "no measurements",
}


@dataclass
class Expected:
    """What a correct classification of the generated dataset must report."""

    classified: int = 0
    skipped_by_reason: dict[str, int] = field(default_factory=dict)
    assumed_fields: dict[str, int] = field(default_factory=lambda: {"s_err_db": 0, "ft_err": 0})
    averaged: int = 0
    # record id -> (s_minus_db as written, F_T the reconciliation must give)
    depth_and_ft: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def skipped(self) -> int:
        return sum(self.skipped_by_reason.values())


def _opa_point(x: float, beta: float, w: float) -> tuple[float, float]:
    """Extremal variances S-, S+ of a below-threshold OPA (linear units)."""
    s_minus = 1.0 - 4.0 * beta * x / ((1.0 + x) ** 2 + w * w)
    s_plus = 1.0 + 4.0 * beta * x / ((1.0 - x) ** 2 + w * w)
    return s_minus, s_plus


def ft_from_db(s_minus_db: float, s_plus_db: float) -> float:
    """F_T = 1 - (2/pi) atan sqrt((S+ - 1)/(1 - S-)), from dB values."""
    sm = 10.0 ** (s_minus_db / 10.0)
    sp = 10.0 ** (s_plus_db / 10.0)
    return 1.0 - (2.0 / math.pi) * math.atan(math.sqrt((sp - 1.0) / (1.0 - sm)))


def _fmt(v: float | None, digits: int) -> str:
    return "" if v is None else f"{v:.{digits}f}"


def generate(seed: int) -> tuple[str, Expected]:
    """Return the dataset CSV text and the counts a correct analysis reports.

    The same seed gives the same bytes.
    """
    rng = random.Random(f"records:{seed}")
    kinds = [kind for kind, share in KIND_SHARES.items()
             for _ in range(share * N_RECORDS // 1000)]
    rng.shuffle(kinds)
    expected = Expected(skipped_by_reason={reason: 0 for reason in SKIP_REASONS.values()})
    lines = [f"# synthetic OPA records, seed {seed}", ",".join(COLUMNS)]
    for i, kind in enumerate(kinds):
        rid = f"r{i:05d}"
        x = rng.uniform(0.1, 0.95)
        beta = rng.uniform(0.5, 0.99)
        w = rng.uniform(0.0, 0.8)
        s_minus, s_plus = _opa_point(x, beta, w)
        # measured depth scatters around the model; it always stays squeezed
        sm_db = round(min(10.0 * math.log10(s_minus) + rng.gauss(0.0, 0.2), -0.05), 4)
        sp_db = round(10.0 * math.log10(s_plus), 4)
        s_err = round(rng.uniform(0.1, 0.6), 2)
        ft_err = round(rng.uniform(0.005, 0.03), 3)
        row = dict(x=None, w=None, beta=None, sm=None, sp=None, s_err=None,
                   ft_formula=None, ft_graphical=None, ft_err=None)
        if kind in ("extremes", "extremes_graphical", "missing_errors"):
            row.update(x=x, w=w, beta=beta, sm=sm_db, sp=sp_db, s_err=s_err, ft_err=ft_err)
        elif kind == "formula":
            row.update(sm=sm_db, s_err=s_err, ft_err=ft_err,
                       ft_formula=round(ft_from_db(sm_db, sp_db), 5))
        elif kind == "graphical_only":
            row.update(ft_graphical=round(rng.uniform(0.05, 0.45), 4), ft_err=ft_err)
        elif kind == "depth_only":
            row.update(sm=sm_db, s_err=s_err)
        if kind == "extremes_graphical":
            ft = ft_from_db(sm_db, sp_db)
            graphical = ft * (1.0 + rng.gauss(0.0, 0.05))
            row["ft_graphical"] = round(min(max(graphical, 0.005), 0.995), 4)
        if kind == "missing_errors":
            drop = rng.choice((("s_err",), ("ft_err",), ("s_err", "ft_err")))
            for name in drop:
                row[name] = None
                expected.assumed_fields["s_err_db" if name == "s_err" else "ft_err"] += 1

        if kind in CLASSIFIED_KINDS:
            expected.classified += 1
            expected.averaged += kind == "extremes_graphical"
            ft_used = row["ft_formula"] if kind == "formula" else ft_from_db(sm_db, sp_db)
            if row["ft_graphical"] is not None:
                ft_used = 0.5 * (ft_used + row["ft_graphical"])
            expected.depth_and_ft[rid] = (sm_db, ft_used)
        else:
            expected.skipped_by_reason[SKIP_REASONS[kind]] += 1
        lines.append(",".join((
            rid, "synthetic" if kind != "stub" else "",
            _fmt(row["x"], 5), _fmt(row["w"], 5), _fmt(row["beta"], 5),
            _fmt(row["sm"], 4), _fmt(row["sp"], 4), _fmt(row["s_err"], 2),
            _fmt(row["ft_formula"], 5), _fmt(row["ft_graphical"], 4), _fmt(row["ft_err"], 3),
        )))
    return "\n".join(lines) + "\n", expected
