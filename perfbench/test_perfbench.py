"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json

import pytest

import checks
import run
import tracing
from records_gen import CLASSIFIED_KINDS, KIND_SHARES, SKIP_REASONS, generate
import workloads

from sqzqi import cli, meta, windows


def inprocess_pass(build, seed, out, tracer=None):
    return [run.run_inprocess(op, cli.main, tracer) for op in build(seed, out)]


def test_generator_is_deterministic():
    text, expected = generate(7)
    again, _ = generate(7)
    assert text == again
    assert generate(8)[0] != text
    assert expected.classified == sum(KIND_SHARES[k] for k in CLASSIFIED_KINDS) * 5
    assert expected.skipped_by_reason == {reason: KIND_SHARES[kind] * 5
                                          for kind, reason in SKIP_REASONS.items()}
    assert all(n > 0 for n in expected.assumed_fields.values())
    assert len(text.strip().split("\n")) == 5000 + 2  # comment + header


def test_records_outputs_pass_their_checks(tmp_path):
    results = inprocess_pass(workloads.records, 3, tmp_path)
    assert [r.message for r in results if not r.ok] == []
    assert {"records.csv", "report.json", "fig5.svg", "envelope.csv"} <= set().union(
        *(r.hashes for r in results))


def test_figures_match_fingerprints_and_one_byte_change_fails(tmp_path):
    ops = workloads.figures(5, tmp_path)
    results = inprocess_pass(workloads.figures, 5, tmp_path)
    assert [r.message for r in results if not r.ok] == []
    by_out = {op.args[-1]: op for op in ops}
    for name in ("fig5.svg", "gaussian-paper.csv", "gaussian-paper-seeded.csv"):
        path = tmp_path / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2 + 3] ^= 0x01  # a digit or letter changes
        path.write_bytes(bytes(data))
        with pytest.raises((checks.CheckError, ValueError)):
            by_out[str(path)].check()


def test_report_digest_ignores_metadata_only():
    report = {key: [] for key in checks.REPORT_RESULT_KEYS}
    base = checks.report_digest(json.dumps(report))
    assert checks.report_digest(json.dumps({**report, "provenance": {"v": 1}})) == base
    assert checks.report_digest(json.dumps({**report, "skipped": [{"id": "a"}]})) != base


def test_closed_form_check_catches_a_wrong_value():
    r_db = checks.closed_form_r_db("gaussian", "paper", 0.1, 1.0)
    cid = ("gaussian-paper", "gaussian", "paper", 1.0)
    checks.check_closed_form_rows([(0.1, r_db, *cid)], "gaussian", "paper", [0.1], 1.0)
    with pytest.raises(checks.CheckError):
        checks.check_closed_form_rows([(0.1, r_db + 1e-4, *cid)], "gaussian", "paper",
                                      [0.1], 1.0)
    with pytest.raises(checks.CheckError):  # decreasing in F_T
        checks.check_curve_rows([(0.1, -1.0, *cid), (0.2, -2.0, *cid)], 2, "gaussian-paper")


def test_tracer_records_spans_and_counts(tmp_path):
    original = meta.classify
    tracer = tracing.Tracer()
    results = inprocess_pass(workloads.figures, 1, tmp_path, tracer)
    assert meta.classify is original
    assert all(r.ok for r in results)
    names = {s.name for s in tracer.spans}
    assert {"cli.analyze", "cli.plot", "cli.bound", "meta.classify", "meta.fit_scale",
            "qi_bound.sample_curve", "svgfig.save_svg"} <= names
    fit = next(s for s in tracer.spans if s.name == "meta.fit_scale")
    assert tracer.spans[fit.parent].name == "meta.classify"
    metrics = tracer.layer_metrics()
    assert metrics["qi_bound.curve_value.calls"][0] > 0
    assert metrics["meta.classify_self_s"][0] >= 0


def test_missing_functions_are_reported_absent(monkeypatch):
    monkeypatch.delattr(meta, "fit_scale")
    monkeypatch.delattr(windows, "sqrt_ft_squared")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["meta.fit_scale"]
    assert "meta.fit_scale_s" not in tracer.layer_metrics()
    assert "meta.classify_self_s" in tracer.layer_metrics()

    spectra = [c for c in tracing._isolated_cases() if c[0].startswith("windows.spectrum.")]
    monkeypatch.setattr(tracing, "_isolated_cases", lambda: spectra)
    measured, absent = tracing.isolated_metrics()
    assert measured == {}
    assert len(absent) == 4


def test_refuses_to_run_without_program_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "closedform", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
