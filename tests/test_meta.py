"""Dataset ingestion, F_T reconciliation, classification, envelope fits."""

import json
import math
import random
import tracemalloc
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from sqzqi import meta
from sqzqi.cli import DEFAULT_CURVES
from sqzqi.meta import (
    DATASET_COLUMNS,
    DEFAULT_FT_ERR,
    DEFAULT_S_ERR_DB,
    AnalysisReport,
    DatasetError,
    FitError,
    FtMethod,
    RecordFlag,
    RecordResult,
    ScaleFit,
    SqueezingRecord,
    classify,
    fit_scale,
    ft_from_extremes,
    load_records,
    reconcile_ft,
)
from sqzqi.opa import extremes, squeezed_fraction
from sqzqi.qi_bound import QiCurve, Variant, curve_value, parse_curve_id
from sqzqi.units import to_db
from sqzqi.windows import WindowKind
from test_opa import ideal_ft

DATASET = Path(__file__).resolve().parent.parent / "src" / "sqzqi" / "data" / "records.csv"

GAUSS_PAPER = QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI)
GAUSS_MARECKI = QiCurve(WindowKind.GAUSSIAN, Variant.NO_PI)
LOR2_PAPER = QiCurve(WindowKind.LORENTZIAN_SQ, Variant.WITH_PI)


# --- ft_from_extremes --------------------------------------------------------

def test_ft_from_extremes_vahlbruch_style():
    assert ft_from_extremes(-14.31, 18.98) == pytest.approx(0.0705, abs=1e-3)


def test_ft_from_extremes_symmetric_equals_ideal():
    for x_db in (1.0, 3.0, 10.0):
        ft = ft_from_extremes(-x_db, x_db)
        assert ft == pytest.approx(ideal_ft(10.0 ** (-x_db / 10.0)), abs=1e-12)


def test_ft_from_extremes_weak_limit():
    ft = ft_from_extremes(-0.01, 0.01)
    assert 0.49 < ft < 0.5


def test_ft_from_extremes_rejects_nonphysical():
    for bad in ((0.5, 3.0), (-3.0, -0.5), (0.0, 3.0), (-3.0, 0.0)):
        with pytest.raises(ValueError):
            ft_from_extremes(*bad)


# S- that rounds to 1 in linear units, S+ that overflows, and F_T that
# rounds to 0 or to 1
EXTREMES_WITHOUT_FT = [(-1e-17, 3.0), (-1e-320, 1e-320), (-3.0, 4000.0), (-3.0, 400.0),
                       (-3.0, 1e-17)]


@pytest.mark.parametrize("s_minus_db, s_plus_db", EXTREMES_WITHOUT_FT)
def test_ft_from_extremes_refuses_a_derived_ft_outside_the_open_interval(s_minus_db, s_plus_db):
    # the rule an explicit ft_formula follows: F_T in (0, 1)
    with pytest.raises(ValueError, match=r"give no F_T in \(0, 1\)"):
        ft_from_extremes(s_minus_db, s_plus_db)
    with pytest.raises(ValueError, match=r"^record edge: extremes "):
        SqueezingRecord(id="edge", s_minus_db=s_minus_db, s_plus_db=s_plus_db)


@settings(max_examples=60)
@given(x=st.floats(1e-3, 0.99), beta=st.floats(0.1, 1.0), w=st.floats(0.0, 10.0))
def test_round_trip_with_opa_extremes(x, beta, w):
    # module boundary: dB conversion and back recovers the model fraction
    point = extremes(x, beta, w)
    ft = ft_from_extremes(to_db(point.s_minus), to_db(point.s_plus))
    assert ft == pytest.approx(squeezed_fraction(x, beta, w), abs=1e-10)


# --- reconcile_ft ------------------------------------------------------------

def test_reconcile_both_routes_averages():
    rec = SqueezingRecord(id="r", ft_formula=0.070, ft_graphical=0.080)
    out = reconcile_ft(rec)
    assert out.method is FtMethod.AVERAGE
    assert out.ft == pytest.approx(0.075, abs=1e-12)
    assert out.discrepancy == pytest.approx(0.10 / 0.75, abs=1e-3)  # ~13.3%


def test_reconcile_single_routes():
    only_graph = reconcile_ft(SqueezingRecord(id="g", ft_graphical=0.14))
    assert only_graph.method is FtMethod.GRAPHICAL
    assert only_graph.ft == 0.14
    assert only_graph.discrepancy is None
    only_formula = reconcile_ft(SqueezingRecord(id="f", ft_formula=0.77))
    assert only_formula.method is FtMethod.FORMULA


def test_reconcile_computes_formula_from_extremes():
    rec = SqueezingRecord(id="v", s_minus_db=-14.3136, s_plus_db=18.9763)
    out = reconcile_ft(rec)
    assert out.method is FtMethod.FORMULA
    assert out.ft == pytest.approx(0.07045, abs=1e-4)


def test_reconcile_takes_the_ft_the_record_derived(monkeypatch):
    # the record derives F_T from its extremes once, when it is built;
    # reconcile_ft reads that value, bit for bit, and derives nothing
    rec = SqueezingRecord(id="v", s_minus_db=-14.3136, s_plus_db=18.9763, ft_graphical=0.08)
    want = ft_from_extremes(-14.3136, 18.9763)
    assert rec.ft_extremes == want
    assert SqueezingRecord(id="f", s_minus_db=-3.0, ft_formula=0.2).ft_extremes is None
    alone = replace(rec, ft_graphical=None)
    monkeypatch.setattr(meta, "ft_from_extremes", lambda *a: pytest.fail("F_T derived again"))
    out = reconcile_ft(rec)
    assert out.method is FtMethod.AVERAGE
    assert out.ft == 0.5 * (want + 0.08)
    assert reconcile_ft(alone).ft == want


def test_reconcile_nothing_available():
    assert reconcile_ft(SqueezingRecord(id="stub")) is None


# --- record validation and loading -------------------------------------------

def test_record_validation():
    with pytest.raises(ValueError):
        SqueezingRecord(id="")
    with pytest.raises(ValueError):
        SqueezingRecord(id="r", s_minus_db=3.0, s_plus_db=5.0)
    with pytest.raises(ValueError):
        SqueezingRecord(id="r", x=1.5)
    with pytest.raises(ValueError):
        SqueezingRecord(id="r", ft_graphical=1.5)
    with pytest.raises(ValueError):
        SqueezingRecord(id="r", s_err_db=-0.1)


def test_load_shipped_dataset():
    records = load_records(DATASET)
    assert len(records) == 16
    by_id = {r.id: r for r in records}
    vah = by_id["vah_x0.8"]
    assert vah.x == 0.8
    assert vah.beta == 0.975
    assert vah.s_minus_db == pytest.approx(-14.3136)
    assert by_id["vah_fig3"].ft_graphical == 0.14
    assert by_id["vah_best"].s_minus_db == -15.0
    stubs = [r for r in records if r.is_stub]
    assert len(stubs) == 11


def test_load_from_text_with_comments():
    text = (
        "# comment line\n"
        + ",".join(DATASET_COLUMNS) + "\n"
        "a,lab,0.5,0,0.9,-3.0,4.0,0.2,,,\n"
        "# another comment\n"
        "b,lab,,,,,,,0.1,0.12,0.01\n"
    )
    records = load_records(text)
    assert [r.id for r in records] == ["a", "b"]
    assert records[1].ft_err == 0.01
    # a str is CSV text even without a newline: a header alone is an empty dataset
    assert load_records(",".join(DATASET_COLUMNS)) == []


def test_load_errors_carry_line_numbers():
    header = ",".join(DATASET_COLUMNS)
    with pytest.raises(DatasetError, match="line 3"):
        load_records(header + "\na,l,,,,,,,,,\nb,l,broken\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_records(header + "\na,l,,,,not_a_number,,,,,\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_records(header + "\na,l,,,,3.0,5.0,,,,\n")  # wrong signs
    with pytest.raises(DatasetError, match="line 1"):
        load_records("id,wrong,header\na,b,c\n")
    with pytest.raises(DatasetError, match="header"):
        load_records("# only a comment\n")
    with pytest.raises(DatasetError, match="line 1"):
        load_records("id,wrong,header")  # text, not a file name, without a newline


def test_load_refuses_a_repeated_record_id():
    header = ",".join(DATASET_COLUMNS)
    text = header + "\na,l,,,,-3.0,,,0.1,,\n# note\nb,l,,,,-2.0,,,0.2,,\na,m,,,,-4.0,,,0.3,,\n"
    with pytest.raises(DatasetError, match="^line 5: record id 'a' repeats line 2$"):
        load_records(text)


@pytest.mark.parametrize("row", [
    "a,l,,,,nan,,,,,",          # once classified as "0 violations"
    "a,l,,,,-inf,3.0,,,,",
    "a,l,,,,-3.0,3.0,inf,,,",
    "a,l,NaN,,,,,,,,",
])
def test_load_rejects_non_finite_fields(row):
    header = ",".join(DATASET_COLUMNS)
    with pytest.raises(DatasetError, match="line 2: .* is not a finite number"):
        load_records(header + "\n" + row + "\n")


@pytest.mark.parametrize("field, value", [
    ("s_minus_db", math.nan),   # once classified "within-error" with r_db_used nan
    ("s_plus_db", math.inf),
    ("ft_err", math.nan),
    ("w", -math.inf),
])
def test_record_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"record a: {field}={value} is not a finite number"):
        SqueezingRecord(id="a", ft_formula=0.2, **{field: value})


# --- classification ----------------------------------------------------------

def vah_like_records():
    return [r for r in load_records(DATASET) if not r.is_stub]


def test_classify_vahlbruch_point():
    report = classify(vah_like_records(), [GAUSS_PAPER, GAUSS_MARECKI])
    rows = {r.record_id: r for r in report.per_record}
    row = rows["vah_x0.8"]
    assert row.ft_used == pytest.approx(0.07045, abs=1e-4)
    assert row.r_db_used == pytest.approx(-14.3136, abs=1e-4)
    assert row.ft_method == "formula"
    assert row.violations["gaussian-paper"] is True
    assert row.violations["gaussian-marecki"] is True
    assert row.flags["gaussian-paper"] == RecordFlag.VIOLATES.value
    assert row.ideal_opa_exceeded is False
    assert row.assumed_error_fields == ["s_err_db", "ft_err"]
    assert row.s_err_db_used == DEFAULT_S_ERR_DB
    assert row.ft_err_used == DEFAULT_FT_ERR


def test_classify_skips_with_reasons():
    report = classify(load_records(DATASET), [GAUSS_PAPER])
    reasons = {s["id"]: s["reason"] for s in report.skipped}
    assert reasons["study_02"] == "no measurements"
    assert "no squeezing depth" in reasons["vah_fig3"]
    assert "no F_T route" in reasons["vah_best"]
    assert len(report.per_record) == 3


def test_classify_point_exactly_on_curve_is_within_error():
    ft = 0.2
    on_curve = curve_value(GAUSS_PAPER, ft)
    rec = SqueezingRecord(id="sync", s_minus_db=on_curve, s_plus_db=5.0,
                          ft_formula=ft, s_err_db=0.5, ft_err=0.0)
    report = classify([rec], [GAUSS_PAPER])
    row = report.per_record[0]
    assert row.violations["gaussian-paper"] is False  # strict inequality
    assert row.flags["gaussian-paper"] == RecordFlag.WITHIN_ERROR.value


def test_classify_three_state_flags():
    ft = 0.2
    bound = curve_value(GAUSS_PAPER, ft)
    far_below = SqueezingRecord(id="below", s_minus_db=bound - 5.0, s_plus_db=5.0,
                                ft_formula=ft, s_err_db=0.3, ft_err=0.01)
    far_above = SqueezingRecord(id="above", s_minus_db=max(bound + 0.8, -0.01), s_plus_db=5.0,
                                ft_formula=ft, s_err_db=0.3, ft_err=0.01)
    report = classify([far_below, far_above], [GAUSS_PAPER])
    rows = {r.record_id: r for r in report.per_record}
    assert rows["below"].flags["gaussian-paper"] == RecordFlag.VIOLATES.value
    assert rows["above"].flags["gaussian-paper"] == RecordFlag.CONSISTENT.value


def test_classify_order_independent():
    records = vah_like_records()
    curves = [GAUSS_PAPER, LOR2_PAPER]
    base = classify(records, curves).to_json()
    for seed in (1, 2):
        shuffled = records[:]
        random.Random(seed).shuffle(shuffled)
        assert classify(shuffled, curves).to_json() == base


def test_classify_refuses_a_repeated_record_id():
    # with two records "a", the report's order would follow the input's
    a1 = SqueezingRecord(id="a", s_minus_db=-3.0, ft_formula=0.1)
    a2 = SqueezingRecord(id="a", s_minus_db=-4.0, ft_formula=0.3)
    b = SqueezingRecord(id="b", s_minus_db=-2.0, ft_formula=0.2)
    for records in ([a1, b, a2], [a2, a1]):
        with pytest.raises(ValueError, match="record id 'a' repeats"):
            classify(records, [GAUSS_PAPER])


@settings(max_examples=10, deadline=None)
@given(st.lists(st.fixed_dictionaries({
    "s_minus_db": st.floats(-20.0, -0.01),
    "ft_formula": st.floats(0.005, 0.995),
    "ft_graphical": st.none() | st.floats(0.005, 0.995),
    "s_err_db": st.none() | st.floats(0.0, 2.0),
    "ft_err": st.none() | st.floats(0.0, 0.1),
}), max_size=6))
def test_classify_rows_equal_single_record_classification(rows):
    records = [SqueezingRecord(id=f"h{i}", **fields) for i, fields in enumerate(rows)] + [
        SqueezingRecord(id="low", s_minus_db=-3.0, ft_formula=0.01, ft_err=0.05),  # ft - ft_err < 0
        SqueezingRecord(id="edge", s_minus_db=-3.0, ft_formula=0.03, ft_err=0.03),  # = 0
        SqueezingRecord(id="high", s_minus_db=-0.1, ft_formula=0.98, ft_err=0.05),  # > 1
        SqueezingRecord(id="stub"),
        SqueezingRecord(id="depthless", ft_formula=0.2),
    ]
    curves = [GAUSS_PAPER, GAUSS_MARECKI, LOR2_PAPER,
              QiCurve(WindowKind.TRAPEZOID, Variant.WITH_PI, n=0.2)]
    report = classify(records, curves)
    assert len(report.per_record) == len(records) - 2
    by_id = {r.id: r for r in records}
    for row in report.per_record:
        assert classify([by_id[row.record_id]], curves).per_record == [row]


def test_classify_empty_dataset():
    report = classify([], [GAUSS_PAPER])
    assert report.per_record == []
    assert report.skipped == []
    assert report.method_agreement_rms is None
    round_trip = AnalysisReport.from_json(report.to_json())
    assert round_trip == report


def test_method_agreement_rms():
    recs = [
        SqueezingRecord(id="a", s_minus_db=-6.0, s_plus_db=6.0,
                        ft_formula=0.10, ft_graphical=0.12),
        SqueezingRecord(id="b", s_minus_db=-6.0, s_plus_db=6.0,
                        ft_formula=0.30, ft_graphical=0.27),
    ]
    report = classify(recs, [GAUSS_PAPER])
    d1 = 0.02 / 0.11
    d2 = 0.03 / 0.285
    expected = math.sqrt((d1 * d1 + d2 * d2) / 2.0)
    assert report.method_agreement_rms == pytest.approx(expected, rel=1e-4)
    rows = {r.record_id: r for r in report.per_record}
    assert rows["a"].ft_method == "average"
    assert rows["a"].ft_used == pytest.approx(0.11, abs=1e-6)


def test_ideal_clamps_at_half_cycle():
    rec = SqueezingRecord(id="wide", s_minus_db=-1.0, s_plus_db=1.0,
                          ft_formula=0.6, s_err_db=0.1, ft_err=0.01)
    report = classify([rec], [GAUSS_PAPER])
    assert report.per_record[0].ideal_opa_exceeded is True  # -1 dB < 0 dB bound


# --- report serialization ------------------------------------------------------

def test_report_round_trips_losslessly():
    report = classify(vah_like_records(), [GAUSS_PAPER, GAUSS_MARECKI],
                      fit_curves=[GAUSS_PAPER])
    text = report.to_json()
    parsed = AnalysisReport.from_json(text)
    assert parsed == report
    assert parsed.to_json() == text


def test_report_serializes_sentinel_as_string():
    report = AnalysisReport()
    report.per_record.append(RecordResult(
        record_id="s", ft_used=0.1, ft_method="formula", r_db_used=-math.inf,
        s_err_db_used=0.5, ft_err_used=0.02, violations={}, flags={},
        ideal_opa_exceeded=None, ft_discrepancy=None, assumed_error_fields=[]))
    text = report.to_json()
    assert '"-inf"' in text
    parsed = AnalysisReport.from_json(text)
    assert parsed.per_record[0].r_db_used == -math.inf


def test_report_sentinel_is_read_only_in_numeric_fields():
    report = classify([SqueezingRecord(id="-inf", s_minus_db=-3.0, s_plus_db=3.0)], [GAUSS_PAPER])
    report.skipped.append({"id": "-inf", "reason": "-inf"})
    report.caveats.append("-inf")
    parsed = AnalysisReport.from_json(report.to_json())
    assert parsed == report
    assert parsed.per_record[0].record_id == "-inf"
    assert parsed.skipped[-1] == {"id": "-inf", "reason": "-inf"}


def json_module_report(report: AnalysisReport) -> str:
    """The report as the json module writes it, the reference for ``to_json``:
    its dataclasses as dicts, each -inf float as the sentinel "-inf"."""
    def sentinel(obj):
        if isinstance(obj, dict):
            return {k: sentinel(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [sentinel(v) for v in obj]
        return "-inf" if isinstance(obj, float) and obj == -math.inf else obj

    return json.dumps(sentinel(asdict(report)), indent=2, sort_keys=True) + "\n"


# ids, reasons and caveats: the sentinel's own text, quotes, backslashes,
# control and non-ASCII characters, and "%", "0", ":" and "," (the row
# templates are %-formats made from a row of zeros)
texts = st.just("-inf") | st.text(
    st.sampled_from('"\\\n\t\x00\x1f\x7f%0:,-é€\U0001f600') | st.characters(), max_size=8)
# -inf is the sentinel; NaN would defeat the round trip's equality
numbers = st.none() | st.just(-math.inf) | st.integers(-10**20, 10**20) | st.floats(allow_nan=False)


@st.composite
def reports(draw) -> AnalysisReport:
    # curve ids in drawn order, unsorted; each row keys its flags and
    # violations by some of them, in an order of its own
    curve_ids = draw(st.lists(texts, unique=True, max_size=4))
    some_ids = st.lists(st.sampled_from(curve_ids), unique=True) if curve_ids else st.just([])
    rows = draw(st.lists(st.builds(
        RecordResult,
        record_id=texts, ft_used=numbers, ft_method=texts, r_db_used=numbers,
        s_err_db_used=numbers, ft_err_used=numbers,
        violations=some_ids.flatmap(lambda ids: st.fixed_dictionaries(
            {cid: st.booleans() for cid in ids})),
        flags=some_ids.flatmap(lambda ids: st.fixed_dictionaries({cid: texts for cid in ids})),
        ideal_opa_exceeded=st.none() | st.booleans(), ft_discrepancy=numbers,
        assumed_error_fields=st.lists(texts, max_size=2)), max_size=4))
    return AnalysisReport(
        per_record=rows,
        skipped=draw(st.lists(st.fixed_dictionaries({"id": texts, "reason": texts}), max_size=2)),
        method_agreement_rms=draw(numbers),
        fitted_scales=draw(st.dictionaries(texts, st.builds(
            ScaleFit, curve_id=texts, envelope_k=numbers, least_squares_k=numbers), max_size=2)),
        curve_samples=draw(st.dictionaries(texts, texts, max_size=2)),
        caveats=draw(st.lists(texts, max_size=2)),
    )


@settings(max_examples=200, deadline=None)
@given(reports())
def test_report_writer_matches_the_json_module(report):
    text = report.to_json()
    assert text == json_module_report(report)
    assert AnalysisReport.from_json(text) == report


@pytest.mark.parametrize("value, written", [
    (math.nan, "NaN"), (math.inf, "Infinity"), (np.float64(0.1), "0.1"), (True, "true")])
def test_report_writer_scalars_match_the_json_module(value, written):
    report = AnalysisReport(per_record=[RecordResult(
        record_id="a", ft_used=value, ft_method="formula", r_db_used=-3.0, s_err_db_used=0.5,
        ft_err_used=0.02, violations={}, flags={}, ideal_opa_exceeded=None,
        ft_discrepancy=None, assumed_error_fields=[])])
    text = report.to_json()
    assert f'"ft_used": {written},' in text
    assert text == json_module_report(report)


def test_report_writer_refuses_what_json_cannot_write():
    report = classify(vah_like_records(), [GAUSS_PAPER])
    report.per_record[0].violations["gaussian-paper"] = np.bool_(True)
    with pytest.raises(TypeError, match="not JSON serializable"):
        report.to_json()


def test_shipped_dataset_fit_report_bytes_are_pinned():
    # contract.py pins these bytes by digest; here they are pinned to json's
    curves = [parse_curve_id(cid) for cid in DEFAULT_CURVES.split(",")]
    report = classify(load_records(DATASET), curves, fit_curves=curves)
    assert report.to_json() == json_module_report(report)


def test_report_writer_peak_memory_is_a_small_multiple_of_its_text():
    rng = random.Random(7)
    curve_ids = DEFAULT_CURVES.split(",")
    report = AnalysisReport(per_record=[RecordResult(
        record_id=f"r{i:05d}", ft_used=round(rng.uniform(0.01, 0.5), 6), ft_method="formula",
        r_db_used=round(rng.uniform(-12.0, -0.1), 6), s_err_db_used=0.5, ft_err_used=0.02,
        violations={cid: rng.random() < 0.5 for cid in curve_ids},
        flags={cid: rng.choice(list(RecordFlag)).value for cid in curve_ids},
        ideal_opa_exceeded=False, ft_discrepancy=None,
        assumed_error_fields=["s_err_db", "ft_err"][:i % 3]) for i in range(5000)])
    tracemalloc.start()
    try:
        text = report.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_report_numbers_have_six_significant_digits():
    report = classify(vah_like_records(), [GAUSS_PAPER])
    data = json.loads(report.to_json())
    ft = data["per_record"][0]["ft_used"]
    assert ft == float(f"{ft:.6g}")


# --- envelope fit ---------------------------------------------------------------

def single_record(ft: float, r_db: float) -> SqueezingRecord:
    return SqueezingRecord(id="one", s_minus_db=r_db, s_plus_db=20.0, ft_formula=ft)


def envelope_oracle_gaussian_paper(ft: float, r_db: float) -> float:
    # bisection against the 40-digit series for erf
    with mpmath.workdps(40):
        target = mpmath.mpf(10) ** (mpmath.mpf(str(r_db)) / 10)
        lo, hi = mpmath.mpf("1e-12"), mpmath.mpf(1)
        for _ in range(200):
            mid = (lo + hi) / 2
            if mpmath.erf(mpmath.sqrt(2) * mpmath.pi * mpmath.mpf(str(ft)) * mid) < target:
                lo = mid
            else:
                hi = mid
        return float(lo)


def columns(records):
    """The F_T and depth columns of the classifiable records, in input order."""
    points = [(rec.ft, record.s_minus_db) for record in records
              if (rec := reconcile_ft(record)) is not None and record.s_minus_db is not None]
    return [ft for ft, _ in points], [r for _, r in points]


def test_fit_scale_single_record_pinned():
    fit = fit_scale(*columns([single_record(0.0705, -14.31)]), GAUSS_PAPER)
    oracle = envelope_oracle_gaussian_paper(0.0705, -14.31)
    assert oracle == pytest.approx(0.1049173, abs=1e-6)  # frozen regression value
    assert fit.envelope_k == pytest.approx(oracle, abs=2e-6)


def test_fit_scale_envelope_property():
    records = vah_like_records()
    for curve in (GAUSS_PAPER, GAUSS_MARECKI, LOR2_PAPER):
        fit = fit_scale(*columns(records), curve)
        k = fit.envelope_k

        def violations(scale: float) -> int:
            c = QiCurve(curve.window, curve.variant, scale=scale)
            count = 0
            for rec in records:
                out = reconcile_ft(rec)
                if out is None or rec.s_minus_db is None:
                    continue
                if rec.s_minus_db < curve_value(c, out.ft):
                    count += 1
            return count

        assert violations(k) == 0
        if 1.01 * k <= 1.0:
            assert violations(1.01 * k) >= 1
        else:
            assert k == 1.0


def test_fit_scale_shipped_dataset_regressions():
    records = vah_like_records()
    # frozen after first computation
    fit_g = fit_scale(*columns(records), GAUSS_PAPER)
    assert fit_g.envelope_k == pytest.approx(0.104910, abs=2e-5)
    assert fit_g.least_squares_k == pytest.approx(0.186189, abs=2e-4)
    fit_l = fit_scale(*columns(records), LOR2_PAPER)
    assert fit_l.envelope_k == pytest.approx(0.085264, abs=2e-5)
    assert fit_l.least_squares_k == pytest.approx(0.162068, abs=2e-4)


def test_fit_scale_no_violation_at_unity():
    # generous measurement: the theoretical curve already excludes nothing
    rec = single_record(0.3, -0.1)
    fit = fit_scale(*columns([rec]), GAUSS_PAPER)
    assert fit.envelope_k == 1.0


@pytest.mark.parametrize("curve", [GAUSS_PAPER, parse_curve_id("trapezoid-paper-n0.2")],
                         ids=lambda curve: curve.curve_id)
def test_fit_scale_does_not_depend_on_row_order(curve):
    # it counts violations and sums its cost with math.fsum, so every order
    # of the rows gives the same fit, to the bit
    rows = list(zip(*columns(vah_like_records())))
    shuffled = rows[:]
    random.Random(5).shuffle(shuffled)
    want = fit_scale(*zip(*rows), curve)
    for order in (rows[::-1], shuffled):
        assert fit_scale(*zip(*order), curve) == want


def test_fit_scale_requires_classifiable_records():
    with pytest.raises(FitError):
        fit_scale([], [], GAUSS_PAPER)
    with pytest.raises(FitError):
        classify([SqueezingRecord(id="stub")], [GAUSS_PAPER], fit_curves=[GAUSS_PAPER])


def test_classify_fits_from_its_own_columns(monkeypatch):
    # classify reconciles each record once and hands its own columns, in
    # record-id order, to the module's fit_scale, once per fit curve: a
    # wrapper set on meta.fit_scale sees every fit, equal to the fit of the
    # columns in input order
    rng = random.Random(3)
    records = [SqueezingRecord(id=f"r{rng.randrange(10**6):06d}", s_minus_db=-rng.uniform(0.1, 15.0),
                               ft_formula=rng.uniform(0.01, 0.99)) for _ in range(200)]
    records += [SqueezingRecord(id="stub"), SqueezingRecord(id="g", ft_graphical=0.3)]
    rng.shuffle(records)
    curves = [GAUSS_PAPER, LOR2_PAPER]
    want = [fit_scale(*columns(records), curve) for curve in curves]
    fits, reconciled = [], []
    fit, reconcile = meta.fit_scale, meta.reconcile_ft
    monkeypatch.setattr(meta, "fit_scale", lambda *a: fits.append(fit(*a)) or fits[-1])
    monkeypatch.setattr(meta, "reconcile_ft", lambda r: reconciled.append(r.id) or reconcile(r))
    classify(records, curves, fit_curves=curves)
    assert sorted(reconciled) == sorted(r.id for r in records)
    assert [f.curve_id for f in fits] == [curve.curve_id for curve in curves]
    assert [(f.envelope_k.hex(), f.least_squares_k.hex()) for f in fits] == [
        (f.envelope_k.hex(), f.least_squares_k.hex()) for f in want]


def test_fsum_reductions_give_numpys_quantized_results(monkeypatch):
    # fit_scale's cost and classify's RMS sum with math.fsum; quantized, the
    # least-squares k and the RMS are those of NumPy's pairwise sums, and the
    # cost is the correctly rounded sum of its squared residuals
    costs, minimize = [], meta._minimize_bounded
    monkeypatch.setattr(meta, "_minimize_bounded",
                        lambda f, *args, **kw: costs.append(f) or minimize(f, *args, **kw))

    def np_cost(ft, r, curve):
        r = np.asarray(r)
        return lambda k: float(np.sum(
            (r - np.maximum(curve_value(replace(curve, scale=k), ft), -60.0)) ** 2))

    datasets = [load_records(DATASET)]
    for seed in range(10):
        rng = random.Random(seed)
        records = []
        for i in range(200):
            ft = rng.uniform(0.01, 0.9)
            graphical = ft * rng.uniform(0.9, 1.1) if rng.random() < 0.5 else None
            records.append(SqueezingRecord(id=f"r{i:03d}", s_minus_db=-rng.uniform(0.1, 15.0),
                                           ft_formula=ft, ft_graphical=graphical))
        datasets.append(records)
    averaged = 0
    for records in datasets:
        ft, r = columns(records)
        for curve in (GAUSS_PAPER, GAUSS_MARECKI, LOR2_PAPER):
            want = minimize(np_cost(ft, r, curve), 1e-4, 2.0, xatol=1e-8)
            assert meta._q(fit_scale(ft, r, curve).least_squares_k) == meta._q(want)
            for k in (0.05, 0.3, 1.7):
                bound = curve_value(replace(curve, scale=k), ft)
                res = [x - max(b, -60.0) for x, b in zip(r, bound)]
                assert costs[-1](k) == float(sum(Fraction(d * d) for d in res))
        d = [rec.discrepancy for record in records if record.s_minus_db is not None
             and (rec := reconcile_ft(record)) is not None and rec.discrepancy is not None]
        want = meta._q(float(np.sqrt(np.mean(np.square(d))))) if d else None
        assert classify(records, [GAUSS_PAPER]).method_agreement_rms == want
        averaged += bool(d)
    assert averaged == 10  # every seeded set, not the shipped one, has an RMS


# --- least-squares minimizer against SciPy's bounded Brent ------------------------

def replay(f, lo, hi, xatol, maxfun=500):
    """Run meta's minimizer and scipy.optimize.minimize_scalar(method="bounded")
    on f; both must evaluate the same points and return the same float."""
    ours, theirs = [], []
    got = meta._minimize_bounded(lambda x: ours.append(x) or f(float(x)), lo, hi, xatol, maxfun)
    want = optimize.minimize_scalar(lambda x: theirs.append(float(x)) or f(float(x)),
                                    bounds=(lo, hi), method="bounded",
                                    options={"xatol": xatol, "maxiter": maxfun})
    assert [x.hex() for x in ours] == [x.hex() for x in theirs]
    assert got.hex() == float(want.x).hex()
    return ours


@pytest.mark.parametrize("curve_id", ["gaussian-paper", "gaussian-marecki",
                                      "lorentzian2-paper", "lorentzian2-marecki"])
def test_least_squares_k_replays_scipy_on_the_shipped_dataset(monkeypatch, curve_id):
    calls, minimize = [], meta._minimize_bounded

    def spy(f, lo, hi, xatol, maxfun=500):
        calls.append((f, lo, hi, xatol, maxfun))
        return minimize(f, lo, hi, xatol, maxfun)

    monkeypatch.setattr(meta, "_minimize_bounded", spy)
    fit = fit_scale(*columns(load_records(DATASET)), parse_curve_id(curve_id))
    [(cost, lo, hi, xatol, maxfun)] = calls
    assert (lo, hi, xatol, maxfun) == (1e-4, 2.0, 1e-8, 500)
    want = optimize.minimize_scalar(cost, bounds=(lo, hi), method="bounded",
                                    options={"xatol": xatol})
    assert fit.least_squares_k.hex() == float(want.x).hex()


bounds = st.tuples(st.floats(-5.0, 5.0), st.floats(1e-3, 10.0)).map(lambda b: (b[0], b[0] + b[1]))
xatols = st.sampled_from([1e-8, 1e-5, 1e-3])


@settings(max_examples=60, deadline=None)
@given(bounds, xatols, st.floats(-8.0, 8.0), st.floats(0.5, 4.0), st.floats(1e-3, 1e3))
def test_minimizer_replays_scipy_on_unimodal_functions(b, xatol, c, power, height):
    replay(lambda x: height * abs(x - c) ** power, *b, xatol)


@settings(max_examples=20, deadline=None)
@given(bounds, xatols, st.floats(-1e3, 1e3))
def test_minimizer_replays_scipy_on_flat_functions(b, xatol, level):
    replay(lambda x: level, *b, xatol)


@settings(max_examples=60, deadline=None)
@given(bounds, xatols, st.floats(-5.0, 5.0), st.floats(0.1, 5.0), st.floats(-2.0, 2.0))
def test_minimizer_replays_scipy_on_two_well_functions(b, xatol, c, gap, tilt):
    replay(lambda x: (x - c) ** 2 * (x - c - gap) ** 2 + tilt * x, *b, xatol)


def test_minimizer_replays_scipy_on_a_zero_parabolic_step():
    # the parabola through the three best points has its vertex on the best
    # point itself, so the step is 0 and its sign rule decides the direction
    replay(lambda x: (x - 0.49992499999999995) ** 2, -1.0, 0.9999, 1e-3)


def test_minimizer_stops_at_maxfun_like_scipy():
    # with xatol = 0 the tolerance shrinks with |x| as x -> 0, so it never converges
    assert len(replay(abs, -1.0, 1.5, 0.0)) == 500
    assert len(replay(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-8, maxfun=5)) == 5
