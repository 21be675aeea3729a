"""Output checks: reference fingerprints for fixed inputs, structural
checks for seeded ones.  Every check raises :class:`CheckError` on a
wrong output.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

CURVE_HEADER = "ft,r_db,curve_id,window,variant,scale"
# The report keys that carry results; provenance or other metadata added
# later does not count as a changed result.
REPORT_RESULT_KEYS = ("per_record", "skipped", "method_agreement_rms", "fitted_scales",
                      "curve_samples")
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


class CheckError(Exception):
    """An output is wrong."""


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(text: str) -> str:
    """sha256 of the canonical result subset of a JSON analysis report."""
    report = json.loads(text)
    subset = {key: report[key] for key in REPORT_RESULT_KEYS}
    return sha256_text(json.dumps(subset, sort_keys=True, separators=(",", ":")))


def load_fingerprints() -> dict[str, str]:
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))


def check_fingerprint(name: str, digest: str, reference: dict[str, str]) -> None:
    if reference.get(name) != digest:
        raise CheckError(f"{name}: sha256 {digest} differs from reference {reference.get(name)}")


def parse_curve_csv(text: str) -> list[tuple[float, float, str, str, str, float]]:
    """Rows of a curve CSV as (ft, r_db, curve_id, window, variant, scale)."""
    lines = text.strip().split("\n")
    if lines[0] != CURVE_HEADER:
        raise CheckError(f"bad curve CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        ft, r_db, curve_id, window, variant, scale = line.split(",")
        rows.append((float(ft), float(r_db), curve_id, window, variant, float(scale)))
    return rows


def check_curve_rows(rows, count: int, curve_id: str) -> None:
    """A bound curve has ``count`` rows, stays at or below 0 dB and does
    not decrease in F_T."""
    if len(rows) != count:
        raise CheckError(f"{curve_id}: {len(rows)} rows, expected {count}")
    window, variant = curve_id.split("-")[:2]
    if any(row[2:5] != (curve_id, window, variant) for row in rows):
        raise CheckError(f"{curve_id}: rows carry another curve id, window or variant")
    values = [row[1] for row in rows]
    if any(not v <= 0.0 for v in values):
        raise CheckError(f"{curve_id}: r_db above 0 dB")
    if any(b < a for a, b in zip(values, values[1:])):
        raise CheckError(f"{curve_id}: r_db decreases in F_T")
    fts = [row[0] for row in rows]
    if any(b <= a for a, b in zip(fts, fts[1:])):
        raise CheckError(f"{curve_id}: F_T grid not increasing")


def closed_form_r_db(window: str, variant: str, ft: float, scale: float) -> float:
    """The Gaussian and squared-Lorentzian bounds, computed independently."""
    base = ft * scale
    if variant == "paper":
        arg = math.pi * base
    else:
        arg = 2.0 * base if window == "gaussian" else base
    if window == "gaussian":
        bracket = math.erf(math.sqrt(2.0) * arg)
    else:
        bracket = -math.expm1(-2.0 * arg)
    return 10.0 * math.log10(bracket) if bracket > 0 else -math.inf


def check_closed_form_rows(rows, window: str, variant: str, fts, scale: float) -> None:
    # values are printed with 4 decimals: allow their rounding, no more
    for (ft, r_db, curve_id, _, _, row_scale), want_ft in zip(rows, fts):
        if not math.isclose(ft, want_ft, rel_tol=1e-5):
            raise CheckError(f"{curve_id}: F_T {ft} where {want_ft} was asked")
        if not math.isclose(row_scale, scale, rel_tol=1e-5):
            raise CheckError(f"{curve_id}: scale {row_scale} where {scale} was asked")
        want = closed_form_r_db(window, variant, want_ft, scale)
        if not abs(r_db - want) <= 6e-5:
            raise CheckError(f"{curve_id}: r_db {r_db} at F_T {ft}, closed form gives {want:.6f}")


def check_report(report: dict, fitted: list[str], classified: int, skipped: int) -> None:
    """Counts, envelope scales in (0, 1] and the sampled curves of a report
    (50 rows each, the analysis' default F_T grid)."""
    if len(report["per_record"]) != classified or len(report["skipped"]) != skipped:
        raise CheckError(f"report has {len(report['per_record'])} classified and "
                         f"{len(report['skipped'])} skipped records, expected "
                         f"{classified} and {skipped}")
    for curve_id in fitted:
        k = report["fitted_scales"][curve_id]["envelope_k"]
        if not 0.0 < k <= 1.0:
            raise CheckError(f"{curve_id}: envelope k = {k} outside (0, 1]")
        check_curve_rows(parse_curve_csv(report["curve_samples"][curve_id]), 50, curve_id)


def count_data_points(svg_text: str) -> int:
    """Experimental points drawn in a figure (filled, unstroked markers)."""
    root = ET.fromstring(svg_text)
    return sum(1 for el in root.iter("{http://www.w3.org/2000/svg}circle")
               if el.get("r") == "3.2" and el.get("stroke") == "none")


def check_figure_points(svg_text: str, report: dict) -> None:
    """A bound figure drawn with ``--report`` shows every report record
    inside its default window: F_T in [0, 0.5], R down to -25 dB."""
    want = sum(1 for r in report["per_record"]
               if 0.0 <= r["ft_used"] <= 0.5
               and isinstance(r["r_db_used"], float) and r["r_db_used"] >= -25.0)
    got = count_data_points(svg_text)
    if got != want:
        raise CheckError(f"figure shows {got} data points, report has {want} in range")
