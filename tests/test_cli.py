"""End-to-end command-line coverage, exit-code contract included.

Every subcommand runs against the shipped dataset or its own inputs via
``main(argv)``.  The bytes of the pinned outputs are checked by
``test_contract.py``.
"""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sqzqi
from sqzqi import cli, meta, opa, qi_bound, svgfig
from sqzqi.cli import main
from sqzqi.units import format_db, rounded_grid
from sqzqi.meta import DATASET_COLUMNS, AnalysisReport
from sqzqi.qi_bound import QiCurve, SpectralFunction, Variant
from sqzqi.windows import SamplingWindow, WindowKind

HEADER = ",".join(DATASET_COLUMNS)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- bound ---------------------------------------------------------------------

def reference_r_db(window: str, omega_t0: float) -> float:
    """R (dB) of a closed-form family by quadrature, the closed forms' reference."""
    w = SamplingWindow(WindowKind(window), 1.0)
    return qi_bound.numeric_bound_detail(w, SpectralFunction(omega0=omega_t0)).r_db


def test_bound_single_argument_numeric():
    # the value that contract.py pins for `bound --window gaussian --omega-t0 1`
    assert format_db(reference_r_db("gaussian", 1.0)) == "-0.2022"


@pytest.mark.parametrize("window", ["gaussian", "lorentzian2"])
def test_bound_closed_form_prints_the_quadratures_bytes(capsys, monkeypatch, window):
    # bound takes the closed form, and prints what the quadrature gives
    grid = cli._parse_grid("0.01:1:0.01")
    expected = {}
    for variant in Variant:
        curve = QiCurve(WindowKind(window), variant)
        r = [reference_r_db(window, qi_bound.phase_argument(variant, curve.window, ft))
             for ft in grid]
        expected[variant.value] = qi_bound.samples_csv(grid, r, curve.curve_id, window,
                                                       variant.value, 1.0)
    r_at_1 = reference_r_db(window, 1.0)

    def never(*args):
        raise AssertionError("a closed-form bound took the quadrature")

    monkeypatch.setattr(qi_bound, "_bracket_spectrum", never)
    for variant, csv_text in expected.items():
        argv = ("bound", "--window", window, "--variant", variant, "--ft", "0.01:1:0.01")
        assert run(capsys, *argv) == (0, csv_text, "")
    code, out, _ = run(capsys, "bound", "--window", window, "--omega-t0", "1")
    assert (code, out) == (0, f"R = {format_db(r_at_1)} dB  (window={window}, omega_t0=1)\n")


@pytest.mark.parametrize("window", ["gaussian", "lorentzian2"])
@pytest.mark.parametrize("omega_t0", ["1e155", "1e300"])
def test_bound_numeric_at_a_huge_phase_argument(capsys, window, omega_t0):
    # past the float range of (omega*t0)^2 the Gaussian spectrum is 0 (it
    # raised OverflowError); the quadrature's bracket saturates at 1 within
    # the budget, as the closed form's does
    assert format_db(reference_r_db(window, float(omega_t0))) == "0.0000"
    code, out, err = run(capsys, "bound", "--window", window, "--omega-t0", omega_t0)
    assert (code, err) == (0, "")
    assert out.startswith("R = 0.0000 dB")


def test_bound_square_requires_opt_in(capsys):
    code, _, err = run(capsys, "bound", "--window", "square", "--ft", "0.1:0.2:0.1")
    assert code == 2
    assert "allow-square" in err
    code, out, _ = run(capsys, "bound", "--window", "square", "--allow-square",
                       "--ft", "0.1:0.2:0.1")
    assert code == 0
    assert "square-paper" in out


def no_grid(*args, **kwargs):
    raise AssertionError("the grid was built before its size was checked")


def test_bound_omega_t0_refuses_out(capsys, monkeypatch, tmp_path):
    # --omega-t0 prints one value; an --out it ignored would write nothing
    def never(*args, **kwargs):
        raise AssertionError("work done before the options were checked")

    monkeypatch.setattr(qi_bound, "bound_value", never)
    path = tmp_path / "o.csv"
    code, out, err = run(capsys, "bound", "--window", "gaussian", "--omega-t0", "1",
                         "--out", str(path))
    assert (code, out) == (2, "")
    assert err == "sqzqi: --out applies to --ft only; --omega-t0 prints one value\n"
    assert not path.exists()


@pytest.mark.parametrize("argv, message", [
    (("--window", "gaussian", "--scale", "0.5", "--omega-t0", "1"),
     "--scale applies to --ft only; --omega-t0 prints one value"),
    (("--window", "gaussian", "--variant", "marecki", "--omega-t0", "1"),
     "--variant applies to --ft only; --omega-t0 prints one value"),
    (("--window", "gaussian", "--allow-square", "--omega-t0", "1"),
     "--allow-square only applies to the square window"),
    (("--window", "lorentzian2", "--allow-square", "--ft", "0.1:0.2:0.1"),
     "--allow-square only applies to the square window"),
], ids=["scale", "variant", "allow-square", "allow-square-ft"])
def test_bound_refuses_an_option_it_would_ignore(capsys, monkeypatch, argv, message):
    def never(*args, **kwargs):
        raise AssertionError("work done before the options were checked")

    monkeypatch.setattr(qi_bound, "bound_value", never)
    monkeypatch.setattr(qi_bound, "curve_csv", never)
    code, out, err = run(capsys, "bound", *argv)
    assert (code, out) == (2, "")
    assert err == f"sqzqi: {message}\n"


def test_bound_usage_errors(capsys, monkeypatch):
    assert run(capsys, "bound", "--window", "gaussian")[0] == 2  # no grid/arg
    assert run(capsys, "bound", "--window", "gaussian",
               "--ft", "0.1:0.2:0.1", "--omega-t0", "1")[0] == 2  # both
    assert run(capsys, "bound", "--window", "gaussian", "--ft", "0:0.5:0.1")[0] == 2
    assert run(capsys, "bound", "--window", "gaussian", "--ft", "nonsense")[0] == 2
    assert run(capsys, "bound", "--window", "bogus", "--ft", "0.1:0.2:0.1")[0] == 2
    assert run(capsys, "bound", "--window", "gaussian", "--n", "2",
               "--ft", "0.1:0.2:0.1")[0] == 2
    for grid in ("0.1:0.2:nan", "0.1:0.2:inf", "0.1:0.2:-0.1", "nan:0.2:0.1", "0.1:inf:0.1"):
        code, out, err = run(capsys, "bound", "--window", "gaussian", "--ft", grid)
        assert code == 2 and out == ""
        assert err == f"sqzqi: grid {grid!r} must satisfy 0 < lo <= hi <= 1 and 0 < step < inf\n"
    # the user set --scale and --ft, so an overflowing pi*F_T*scale names those
    code, out, err = run(capsys, "bound", "--window", "gaussian", "--scale", "1e308",
                         "--ft", "1:1:0.1")
    assert (code, out) == (2, "")
    assert err == ("sqzqi: the phase argument of curve gaussian-paper-k1e+308 at F_T = 1 "
                   "overflows\n")
    # 990,000,001 points would take gigabytes: refused before any array exists
    monkeypatch.setattr(cli, "rounded_grid", no_grid)
    code, out, err = run(capsys, "bound", "--window", "gaussian", "--ft", "0.01:1:1e-9")
    assert code == 2 and out == ""
    assert err == "sqzqi: a step of 1e-09 gives more than 1000000 grid points\n"


@settings(max_examples=150, deadline=None)
@given(lo=st.floats(1e-6, 1.0), span=st.floats(0.0, 1.0), step=st.floats(1e-5, 1.0))
def test_ft_grid_is_numpys_rounded_grid_bit_for_bit(lo, span, step):
    # the list grid keeps the points of the NumPy expression it replaced
    hi = min(lo + span, 1.0)
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    grid = cli._parse_grid(f"{lo!r}:{hi!r}:{step!r}")
    assert grid == np.round(lo + step * np.arange(count), 12).tolist()
    assert all(type(ft) is float for ft in grid)


@settings(max_examples=150, deadline=None)
@given(step=st.floats(2e-4, 0.5))
@example(step=1e-6)  # 500,000 points
@example(step=0.005)
def test_plot_grid_is_numpys_rounded_arange_bit_for_bit(step):
    want = np.round(np.arange(step, 0.5 + step * 1e-6, step), 10).tolist()
    assert cli._plot_grid(step, 0.005) == want
    assert cli._plot_grid(None, step) == want


def test_fixed_grids_are_numpys_rounded_aranges():
    # fig 4's pump ratios and the F_T grid of the report's curve samples
    want = np.round(np.arange(0.005, 0.9951, 0.005), 10).tolist()
    assert rounded_grid(0.005, 0.005, 199, 10) == want
    assert meta.DEFAULT_FT_GRID == tuple(np.round(np.arange(0.01, 0.5001, 0.01), 6).tolist())
    assert all(type(ft) is float for ft in meta.DEFAULT_FT_GRID)


def spy_budgets(monkeypatch) -> list:
    """The interval budget of each Gauss-Kronrod call, in call order."""
    budgets = []
    gauss_kronrod = qi_bound._gauss_kronrod

    def spy(w, omega0, max_intervals, **options):
        budgets.append(max_intervals)
        return gauss_kronrod(w, omega0, max_intervals, **options)

    monkeypatch.setattr(qi_bound, "_gauss_kronrod", spy)
    return budgets


# A retry cut to 400 intervals cannot certify the trapezoid's narrow peak at
# n = 0.2 and omega0*t0 = 1e7, nor at any point of pi*1e4*[0.5, 1]: each
# keeps a finite error estimate near 3e-7.  No input is known to fail the
# 100,000-interval retry with a finite estimate.
SHORT_RETRY = 400


def test_bound_numeric_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(qi_bound, "RETRY_INTERVALS", SHORT_RETRY)
    code, out, err = run(capsys, "bound", "--window", "trapezoid", "--n", "0.2",
                         "--omega-t0", "1e7")
    assert (code, out) == (3, "")
    assert "numeric failure" in err
    assert "achieved error estimate 2.952e-07" in err


@pytest.mark.parametrize("n, omega_t0, code, expected, budgets", [
    # the spectral peak is about 4.5 wide against [0, 1e7]: 200 intervals
    # cannot certify the bracket, the retry does; the bracket is 1 - 1e-14,
    # within the retry's error of 1, so the zero's sign is not fixed
    ("0.2", "1e7", 0, r"R = -?0\.0000 dB  \(window=trapezoid, omega_t0=1e\+07\)\n",
     [200, 100_000]),
    # u*L passes the float range inside [0, omega0]: the NaN spectrum is a
    # numeric failure, not "R = nan dB" (and raises no warning on the way),
    # and more intervals cannot help it
    ("1e10", "1e300", 3, re.escape("sqzqi: numeric failure: bound quadrature did not converge "
                                   "(achieved error estimate inf)\n"), [200]),
], ids=["narrow-peak", "overflow"])
def test_bound_trapezoid_narrow_peak_exit_code(capsys, monkeypatch, n, omega_t0, code,
                                               expected, budgets):
    calls = spy_budgets(monkeypatch)
    got, out, err = run(capsys, "bound", "--window", "trapezoid", "--n", n,
                        "--omega-t0", omega_t0)
    assert (got, calls) == (code, budgets)
    assert re.fullmatch(expected, out + err), out + err


def test_uncertifiable_grid_fails_after_one_retry(capsys, monkeypatch, tmp_path):
    # every point of this trapezoid grid, omega0*t0 = pi*5e3 .. pi*1e4, fails
    # the first pass and the short retry: the first failed retry ends the run
    monkeypatch.setattr(qi_bound, "RETRY_INTERVALS", SHORT_RETRY)
    calls = spy_budgets(monkeypatch)
    out = tmp_path / "grid.csv"
    code, stdout, err = run(capsys, "bound", "--window", "trapezoid", "--n", "0.2",
                            "--scale", "1e4", "--ft", "0.5:1:0.1", "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err.startswith("sqzqi: numeric failure: bound quadrature did not converge")
    assert calls.count(SHORT_RETRY) == 1 and set(calls) == {200, SHORT_RETRY}
    assert not out.exists()


# --- opa -----------------------------------------------------------------------

def test_opa_lossless_product(capsys):
    code, out, _ = run(capsys, "opa", "--x", "0.8", "--beta", "1", "--w", "0",
                       "--extremes")
    assert code == 0
    assert "S-*S+ = 1\n" in out


def test_opa_ideal_bound_boundary(capsys):
    code, out, _ = run(capsys, "opa", "--ideal-bound", "0.5")
    assert code == 0
    assert "0.0000 dB" in out


def test_opa_theta_and_ft(capsys):
    code, out, _ = run(capsys, "opa", "--x", "0.8", "--beta", "0.975", "--theta", "0")
    assert code == 0
    assert "S(theta=0) = 79" in out
    code, out, _ = run(capsys, "opa", "--x", "0.8", "--beta", "0.975", "--ft")
    assert "F_T = 0.0704466" in out


def test_opa_failed_self_check_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(opa, "_s_plus", lambda x, beta, b: 2.0)
    code, out, err = run(capsys, "opa", "--x", "0.8", "--beta", "0.975", "--ft")
    assert code == 3 and out == ""
    assert err.startswith("sqzqi: numeric failure: extremal-variance ratio ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_opa_usage_errors(capsys):
    assert run(capsys, "opa")[0] == 2  # nothing requested
    assert run(capsys, "opa", "--extremes")[0] == 2  # missing x/beta
    assert run(capsys, "opa", "--x", "1.5", "--beta", "1", "--extremes")[0] == 2
    assert run(capsys, "opa", "--ideal-bound", "0.7")[0] == 2


@pytest.mark.parametrize("options", [
    ("--x", "0.5", "--beta", "0.9"), ("--x", "0.5"), ("--beta", "0.9"), ("--w", "0"),
    ("--x", "0.5", "--beta", "0.9", "--w", "0.3")])
@pytest.mark.parametrize("ideal", [("--ideal-bound", "0.2"), ()], ids=["ideal-bound", "alone"])
def test_opa_refuses_model_options_with_no_model_evaluation(capsys, options, ideal):
    # --x, --beta and --w feed --theta, --extremes and --ft only
    code, out, err = run(capsys, "opa", *ideal, *options)
    assert (code, out) == (2, "")
    assert err == "sqzqi: --x, --beta and --w apply only with --theta, --extremes or --ft\n"


@pytest.mark.parametrize("evaluation", [("--theta", "0.3"), ("--extremes",), ("--ft",)])
def test_opa_ideal_bound_with_a_model_evaluation(capsys, evaluation):
    ideal = "ideal OPA bound at F_T=0.2: S- = 0.105573 (-9.7645 dB)\n"
    model = ("--x", "0.5", "--beta", "0.9")
    code, out, _ = run(capsys, "opa", "--ideal-bound", "0.2", *model, "--w", "0.3", *evaluation)
    assert code == 0
    assert out.startswith(ideal)
    # --w applies, and an absent --w is 0
    assert out != run(capsys, "opa", "--ideal-bound", "0.2", *model, *evaluation)[1]
    assert run(capsys, "opa", "--ideal-bound", "0.2", *model, *evaluation)[1] == run(
        capsys, "opa", "--ideal-bound", "0.2", *model, "--w", "0", *evaluation)[1]


# --- analyze ---------------------------------------------------------------------

def test_analyze_shipped_dataset(capsys, tmp_path):
    # contract.py pins what it prints and writes; the report reads back
    report_path = tmp_path / "report.json"
    assert run(capsys, "analyze", "--fit", "--report", str(report_path))[0] == 0
    report = AnalysisReport.from_json(report_path.read_text())
    assert len(report.per_record) == 3
    assert report.fitted_scales["gaussian-paper"].envelope_k == pytest.approx(0.10491, abs=1e-4)
    assert "ideal-opa" in report.curve_samples


def test_analyze_custom_curves(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "--curves",
                       "lorentzian2-marecki,trapezoid-paper-n0.2")
    assert code == 0
    assert "violations[lorentzian2-marecki]: 2/3" in out
    assert "violations[trapezoid-paper-n0.2]:" in out


def test_analyze_empty_dataset(capsys, tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text(HEADER + "\n")
    report_path = tmp_path / "empty.json"
    code, out, err = run(capsys, "analyze", "--data", str(data),
                         "--report", str(report_path))
    assert code == 0
    assert "dataset is empty" in err
    assert "records: 0 classified" in out
    report = AnalysisReport.from_json(report_path.read_text())
    assert report.per_record == []


def test_analyze_parse_error_exit_4(capsys, tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text(HEADER + "\nok,l,,,,-3.0,3.0,,,,\nbad,l,oops\n")
    code, _, err = run(capsys, "analyze", "--data", str(data))
    assert code == 4
    assert "line 3" in err
    data.write_text(HEADER + "\nnan,l,,,,nan,,,,,\n")
    code, out, err = run(capsys, "analyze", "--data", str(data))
    assert code == 4
    assert "line 2" in err and "violations" not in out


def test_analyze_refuses_a_repeated_record_id_exit_4(capsys, tmp_path):
    data = tmp_path / "dup.csv"
    data.write_text(HEADER + "\na,l,,,,-3.0,6.0,,,,\na,m,,,,-4.0,7.0,,,,\n")
    report = tmp_path / "r.json"
    code, out, err = run(capsys, "analyze", "--fit", "--data", str(data), "--report", str(report))
    assert (code, out) == (4, "")
    assert "line 3: record id 'a' repeats line 2" in err and "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("extremes", ["-1e-17,3", "-1e-320,1e-320", "-3,4000", "-3,400",
                                      "-3,1e-17"])
def test_analyze_refuses_extremes_without_an_ft_in_the_open_interval(capsys, tmp_path, extremes):
    # a derived F_T of 0 or 1, or none at all (S- rounds to 1, S+ overflows)
    data = tmp_path / "edge.csv"
    data.write_text(HEADER + f"\nedge,l,,,,{extremes},,,,\n")
    code, out, err = run(capsys, "analyze", "--fit", "--data", str(data))
    assert (code, out) == (4, "")
    assert "line 2" in err and "record edge" in err and "Traceback" not in err


def test_analyze_fit_without_usable_records_exit_4(capsys, tmp_path):
    data = tmp_path / "stub.csv"
    data.write_text(HEADER + "\nstub,l,,,,,,,,,\n")
    code, _, err = run(capsys, "analyze", "--fit", "--data", str(data))
    assert code == 4
    assert err.startswith("sqzqi: dataset error: ")
    assert "Traceback" not in err


# values of every kind a field may hold: in and out of range, wrong sign,
# non-finite, not a number, empty
FIELD_VALUES = ["", " ", "0", "0.02", "0.1", "0.5", "0.9", "1", "1.5", "-0.5", "-3.0",
                "4.0", "12", "nan", "inf", "-inf", "1e400", "abc", "a", '"q']
BAD_HEADERS = [HEADER.replace("beta", "b"), HEADER + ",extra",
               ",".join(DATASET_COLUMNS[:-1]), "# comment only", ""]
# each column's well-formed values, so that some datasets parse and classify
GOOD_ROW = st.tuples(
    st.sampled_from(["a", "b"]), st.just("lab"), st.sampled_from(["", "0.5", "0.8"]),
    st.sampled_from(["", "0", "0.3"]), st.sampled_from(["", "0.9", "1"]),
    st.sampled_from(["", "-3.0", "-10"]), st.sampled_from(["", "4.0", "12"]),
    st.sampled_from(["", "0.2"]), st.sampled_from(["", "0.1", "0.3"]),
    st.sampled_from(["", "0.12"]), st.sampled_from(["", "0.01"]),
)
BAD_ROW = st.lists(st.sampled_from(FIELD_VALUES), max_size=len(DATASET_COLUMNS) + 2)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.one_of(st.just(HEADER), st.sampled_from(BAD_HEADERS)),
    rows=st.lists(st.one_of(GOOD_ROW, BAD_ROW), max_size=5),
    fit=st.booleans(),
)
def test_analyze_malformed_csv_exits_0_2_or_4(capsys, tmp_path, header, rows, fit):
    data = tmp_path / "fuzz.csv"
    data.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
    code, _, err = run(capsys, "analyze", "--data", str(data), *(["--fit"] if fit else []))
    assert code in (0, 2, 4)
    assert "Traceback" not in err


def test_analyze_missing_data_file_exit_4(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--data", str(tmp_path / "absent.csv"))
    assert code == 4
    assert err.startswith("sqzqi: dataset error: ")
    assert "absent.csv" in err
    assert "Traceback" not in err


def test_analyze_rejects_square_curve_without_opt_in(capsys):
    code, _, err = run(capsys, "analyze", "--curves", "square-paper")
    assert code == 2
    assert "unstable" in err


@pytest.mark.parametrize("argv", [("analyze", "--curves", "gaussian-paper,square-marecki"),
                                  ("plot", "--curve", "square-paper", "--out", "x.svg")],
                         ids=["analyze", "plot"])
def test_square_curve_id_names_the_command_that_opts_in(capsys, tmp_path, monkeypatch, argv):
    # a shell user is pointed at the CLI opt-in, not at a library keyword
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("sqzqi: the square window is mathematically unstable; square curves are "
                   "available only through `bound --window square --allow-square`\n")
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("argv", [
    ("analyze", "--curves", "trapezoid-paper-n0.2,gaussian-paper,trapezoid-paper-n0.20"),
    ("plot", "--curve", "gaussian-paper-k0.5", "--curve", "gaussian-paper-k0.50",
     "--out", "x.svg"),
    ("plot", "--curve", "gaussian-paper", "--curve", "gaussian-paper-k1", "--out", "x.svg"),
], ids=["analyze", "plot", "plot-unit-scale"])
def test_curve_named_twice_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # two ids of one curve would print its violations twice, or draw it twice
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"sqzqi: curve \S+ is named more than once\n", err)
    assert not (tmp_path / "x.svg").exists()


# --- plot ------------------------------------------------------------------------

def test_plot_missing_report_file_exit_4(capsys, tmp_path):
    code, _, err = run(capsys, "plot", "--fig", "5", "--report", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "x.svg"))
    assert code == 4
    assert err.startswith("sqzqi: dataset error: ")
    assert "absent.json" in err
    assert not (tmp_path / "x.svg").exists()
    assert run(capsys, "analyze", "--report", str(tmp_path / "r.json"))[0] == 0
    good = json.loads((tmp_path / "r.json").read_text())
    listed = dict(good, fitted_scales=[])
    malformed = [("empty.json", "{}"), ("text.json", "not json"),
                 ("listed.json", json.dumps(listed)),
                 ("deep.json", "[" * 100000 + "]" * 100000)]  # deeper than the decoder recurses
    # a drawn field that is not a finite number (JSON as Python writes it), or
    # a negative error
    for field, value in (("ft_used", "0.3"), ("r_db_used", None), ("ft_used", math.nan),
                         ("ft_err_used", math.inf), ("s_err_db_used", True),
                         ("ft_used", "-inf"), ("s_err_db_used", "-inf"),
                         ("ft_err_used", -0.01), ("s_err_db_used", -1e308)):
        bad = json.loads(json.dumps(good))
        bad["per_record"][0][field] = value
        malformed.append((f"{field}-{value}.json", json.dumps(bad)))
    for name, text in malformed:
        (tmp_path / name).write_text(text)
        code, _, err = run(capsys, "plot", "--fig", "5", "--report", str(tmp_path / name),
                           "--out", str(tmp_path / "x.svg"))
        assert code == 4
        assert err.startswith(f"sqzqi: dataset error: malformed report {tmp_path / name}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.svg").exists()


def test_point_set_refuses_a_negative_or_nan_error():
    # the first drew an error rectangle of width -223.20
    with pytest.raises(ValueError, match=r"^x_err must be non-negative, got -0\.1$"):
        svgfig.PointSet("p", (0.2,), (-3.0,), (-0.1,), (0.5,))
    with pytest.raises(ValueError, match=r"^y_err must be non-negative, got nan$"):
        svgfig.PointSet("p", (0.2, 0.3), (-3.0, -2.0), (0.1, 0.1), (0.5, math.nan))
    svgfig.PointSet("p", (0.2,), (-3.0,), (0.0,), (0.0,))


def test_plot_usage_errors(capsys, tmp_path, monkeypatch):
    assert run(capsys, "plot", "--out", str(tmp_path / "x.svg"))[0] == 2
    assert run(capsys, "plot", "--fig", "9", "--out", str(tmp_path / "x.svg"))[0] == 2
    assert run(capsys, "plot", "--fig", "5")[0] == 2  # missing --out
    for step in ("-0.01", "0", "nan", "inf", "0.6"):
        for target in (("--fig", "5"), ("--curve", "gaussian-paper")):
            code, _, err = run(capsys, "plot", *target, "--grid-step", step,
                               "--out", str(tmp_path / "x.svg"))
            assert code == 2
            assert err.startswith("sqzqi: --grid-step must lie in (0, 0.5], got ")
    with monkeypatch.context() as m:
        m.setattr(cli, "rounded_grid", no_grid)
        code, _, err = run(capsys, "plot", "--curve", "gaussian-paper", "--grid-step", "1e-9",
                           "--out", str(tmp_path / "x.svg"))
    assert code == 2
    assert err == "sqzqi: a step of 1e-09 gives more than 1000000 grid points\n"
    assert not (tmp_path / "x.svg").exists()


def test_plot_fig_and_curve_are_exclusive(capsys, tmp_path):
    # a preset draws its own curves; an added --curve would be dropped unseen
    out = tmp_path / "x.svg"
    code, _, err = run(capsys, "plot", "--fig", "5", "--curve", "trapezoid-paper-n0.2",
                       "--out", str(out))
    assert code == 2
    assert "argument --curve: not allowed with argument --fig" in err
    assert not out.exists()


@pytest.mark.parametrize("step", ["1e-9", "nan", "0.01"])
def test_plot_fig4_rejects_grid_step(capsys, tmp_path, step):
    # fig 4 is drawn against the pump ratio: there is no F_T grid to refine
    out = tmp_path / "x.svg"
    code, _, err = run(capsys, "plot", "--fig", "4", "--grid-step", step, "--out", str(out))
    assert code == 2
    assert err == "sqzqi: --grid-step applies to F_T plots only; fig 4 has no F_T grid\n"
    assert not out.exists()


def test_plot_fig4_rejects_report(capsys, tmp_path):
    # a report's points are (F_T, R dB); fig 4's axes are the pump ratio and S-
    report, out = tmp_path / "r.json", tmp_path / "x.svg"
    assert run(capsys, "analyze", "--report", str(report))[0] == 0
    code, _, err = run(capsys, "plot", "--fig", "4", "--report", str(report), "--out", str(out))
    assert code == 2
    assert err == "sqzqi: --report draws (F_T, R) points; fig 4 has no F_T axis\n"
    assert not out.exists()


def test_plot_db_floor_changes_output(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "plot", "--fig", "5", "--out", str(a))
    run(capsys, "plot", "--fig", "5", "--db-floor", "-20", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("floor", ["nan", "-inf", "0", "5"])
def test_plot_db_floor_must_be_finite_and_negative(capsys, tmp_path, floor):
    out = tmp_path / "x.svg"
    code, _, err = run(capsys, "plot", "--fig", "5", f"--db-floor={floor}", "--out", str(out))
    assert code == 2
    assert err == f"sqzqi: --db-floor must be a finite negative dB value, got {floor}\n"
    assert not out.exists()


# argparse alone reads a negative value in exponent form, or -inf, as an
# option name; written with a space it must reach the option all the same
@pytest.mark.parametrize("argv, code, expected", [
    (("opa", "--x", "0.5", "--beta", "0.9", "--theta", "-1e-3"), 0,
     ("opa", "--x", "0.5", "--beta", "0.9", "--theta=-1e-3")),
    (("plot", "--fig", "5", "--db-floor", "-inf", "--out", "{svg}"), 2,
     "sqzqi: --db-floor must be a finite negative dB value, got -inf\n"),
    # a floor too close to 0 dB leaves the axis no tick step
    (("plot", "--fig", "4", "--db-floor", "-4e-323", "--out", "{svg}"), 2,
     "sqzqi: --db-floor must be at most -2.2250738585072014e-308 dB (a normal float), "
     "got -4e-323\n"),
    (("plot", "--fig", "5", "--db-floor", "-5e-324", "--out", "{svg}"), 2,
     "sqzqi: --db-floor must be at most -2.2250738585072014e-308 dB (a normal float), "
     "got -5e-324\n"),
    (("bound", "--window", "gaussian", "--scale", "-1e-3", "--ft", "0.1:0.2:0.1"), 2,
     "sqzqi: scale must be a positive real, got -0.001\n"),
], ids=["theta", "db-floor", "db-floor-subnormal", "db-floor-smallest", "scale"])
def test_negative_value_after_a_space(capsys, tmp_path, argv, code, expected):
    svg = tmp_path / "x.svg"
    got, out, err = run(capsys, *(a.format(svg=svg) for a in argv))
    assert got == code
    if code == 0:
        assert (out, err) == run(capsys, *expected)[1:]
        assert out.startswith("S(theta=-0.001) = ")
    else:
        assert (out, err) == ("", expected)
        assert not svg.exists()


# --- quadrature budget -------------------------------------------------------------
# The quadrature sets its own budget: 200 intervals per phase argument, and
# one retry at 100,000 for an error estimate that 200 leave above the gate.
# Neither `--max-intervals` nor `bound --numeric` is an option any more.

@pytest.mark.parametrize("argv", [
    ("--max-intervals=300", "bound", "--window", "gaussian", "--omega-t0", "1"),
    ("bound", "--window", "gaussian", "--omega-t0", "1", "--numeric"),
], ids=["max-intervals", "numeric"])
def test_removed_option_is_refused_before_any_work(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("work done for a command with a removed option")

    monkeypatch.setattr(qi_bound, "bound_value", never)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --" in err and "Traceback" not in err


def test_square_bound_takes_no_quadrature(capsys, monkeypatch):
    # the square's bracket is a closed form: at omega0*t0 = 2500, where the
    # quadrature needed its retry, and on a grid, no Gauss-Kronrod call runs
    calls = spy_budgets(monkeypatch)
    code, out, _ = run(capsys, "bound", "--window", "square", "--allow-square",
                       "--omega-t0", "2500")
    assert code == 0
    assert out.startswith("R = -0.0011 dB")
    code, out, _ = run(capsys, "bound", "--window", "square", "--allow-square",
                       "--scale", "1000", "--ft", "0.01:1:0.01")
    assert code == 0 and out.count("\n") == 101
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("bound", "--window", "trapezoid", "--n", "0.2", "--ft", "0.1:0.3:0.1"),
    ("bound", "--window", "trapezoid", "--n", "0.2", "--omega-t0", "1"),
    # classify, its flags, the fit and the report's curve samples
    ("analyze", "--fit", "--curves", "trapezoid-paper-n0.2"),
    ("plot", "--curve", "trapezoid-paper-n0.2", "--out", "{svg}"),
    ("plot", "--fig", "8", "--grid-step", "0.1", "--out", "{svg}"),
], ids=["bound-ft", "bound-omega-t0", "analyze", "plot-curve", "plot-fig8"])
def test_every_quadrature_certifies_in_its_first_pass(capsys, tmp_path, monkeypatch, argv):
    # every bracket of these commands certifies at 200 intervals: none is retried
    budgets = spy_budgets(monkeypatch)
    code, _, _ = run(capsys, *(a.format(svg=tmp_path / "x.svg") for a in argv))
    assert (code, set(budgets)) == (0, {200})


def test_inputs_with_a_byte_order_mark(capsys, tmp_path):
    # spreadsheet exports begin UTF-8 text with a byte-order mark
    bom = "\ufeff"
    shipped = Path(sqzqi.__file__).parent / "data" / "records.csv"
    data = tmp_path / "records.csv"
    data.write_text(bom + shipped.read_text(encoding="utf-8"), encoding="utf-8")
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--data", str(data), "--report", str(report))
    assert code == 0
    assert "records: 3 classified, 13 skipped" in out
    plain = tmp_path / "plain.svg"
    assert run(capsys, "plot", "--fig", "5", "--report", str(report),
               "--out", str(plain))[0] == 0
    report.write_text(bom + report.read_text(encoding="utf-8"), encoding="utf-8")
    marked = tmp_path / "marked.svg"
    code, _, err = run(capsys, "plot", "--fig", "5", "--report", str(report),
                       "--out", str(marked))
    assert (code, err) == (0, "")
    assert marked.read_bytes() == plain.read_bytes()


# --- files ------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("bound", "--window", "gaussian", "--ft", "0.1:0.2:0.1", "--out"),
    ("plot", "--fig", "5", "--out"),
    ("analyze", "--report"),
], ids=["bound", "plot", "analyze"])
@pytest.mark.parametrize("target", ["absent/x.out", "."], ids=["no-dir", "a-dir"])
def test_unwritable_output_exit_2(capsys, monkeypatch, tmp_path, argv, target):
    # a missing directory, and a directory in place of a file, are refused
    # before any work: nothing is classified, sampled or printed
    def never(*args, **kwargs):
        raise AssertionError("work done before the output was checked")

    monkeypatch.setattr(meta, "classify", never)
    monkeypatch.setattr(qi_bound, "sample_curve", never)
    path = str(tmp_path / target)
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"sqzqi: cannot write {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code, message", [
    (("analyze", "--data", "{bad}"), 4, "dataset error: cannot read {bad}"),
    (("plot", "--fig", "5", "--report", "{bad}", "--out", "{svg}"), 4,
     "dataset error: cannot read report {bad}"),
])
def test_non_utf8_input_names_the_file(capsys, tmp_path, argv, code, message):
    bad, svg = tmp_path / "latin1.txt", tmp_path / "x.svg"
    bad.write_bytes(HEADER.encode() + b"\nid,caf\xe9,,,,-3.0,3.0,,,,\n")
    got, out, err = run(capsys, *(a.format(bad=bad, svg=svg) for a in argv))
    assert (got, out) == (code, "")
    assert err.startswith(f"sqzqi: {message.format(bad=bad)}: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1
    assert not svg.exists()


@pytest.mark.parametrize("argv, code", [
    # no point of this grid converges in the short retry (SHORT_RETRY)
    (("bound", "--window", "trapezoid", "--n", "0.2", "--scale", "1e4", "--ft", "0.5:1:0.1",
      "--out", "{out}"), 3),
    (("analyze", "--data", "{bad}", "--report", "{out}"), 4),
    (("plot", "--fig", "5", "--report", "{bad}", "--out", "{out}"), 4),
], ids=["bound", "analyze", "plot"])
@pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
def test_failed_run_leaves_its_output_alone(capsys, monkeypatch, tmp_path, argv, code,
                                           existing):
    # an output is written whole or not at all: a failed run neither
    # truncates an existing file nor creates a missing one
    monkeypatch.setattr(qi_bound, "RETRY_INTERVALS", SHORT_RETRY)
    bad, target = tmp_path / "bad.csv", tmp_path / "out.txt"
    bad.write_text(HEADER + "\nr1,ref,abc,,,-3.0,3.0,,,,\n")  # neither a dataset nor a report
    before = b"an earlier output\n\x00\xff"
    if existing:
        target.write_bytes(before)
    got, out, err = run(capsys, *(a.format(bad=bad, out=target) for a in argv))
    assert (got, out) == (code, "")
    assert "Traceback" not in err
    if existing:
        assert target.read_bytes() == before
    else:
        assert not target.exists()


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "bound", "--help")[0] == 0


# --- extreme values ----------------------------------------------------------------

# Non-finite, subnormal and near-overflow numbers, with ordinary ones.
EDGE_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "5e-324", "-5e-324", "-4e-323", "1e-320",
                     "2.2e-308", "1e308", "-1e308", "1.7976931348623157e308", "0", "-0"]),
    st.floats(-2.0, 2.0).map(repr))
# One command per template, the value in place of {}; the plot grids stay
# coarse enough that a run takes well under a second.
EDGE_COMMANDS = [
    "bound --window {w} --scale {} --ft 0.1:0.5:0.1",
    "bound --window {w} --omega-t0 {}",
    "bound --window square --allow-square --omega-t0 {}",
    "bound --window {w} --ft {}:0.5:0.1",
    "bound --window {w} --ft 0.1:{}:0.1",
    "bound --window {w} --ft 0.1:0.5:{}",
    "plot --curve {w}-paper-k{} --grid-step 0.25 --out {out}",
    "plot --curve trapezoid-marecki-n{} --grid-step 0.5 --out {out}",
    "plot --curve trapezoid-paper-k{0}-n{0} --grid-step 0.5 --out {out}",
    "plot --fig 6 --db-floor {} --grid-step 0.1 --out {out}",
    "plot --fig 4 --db-floor {} --out {out}",
    "opa --x {} --beta 0.9 --extremes",
    "opa --x 0.5 --beta {} --ft",
    "opa --x 0.5 --beta 0.9 --w {} --extremes",
    "opa --x 0.5 --beta 0.9 --theta {}",
    "opa --ideal-bound {}",
]
# One record with every field set; the test puts the value in one numeric column.
EDGE_RECORD = dict(zip(DATASET_COLUMNS, ("r1", "ref", "0.8", "0.1", "0.975", "-14.3136",
                                         "18.9763", "0.2", "0.07", "0.071", "0.01")))
# The fields of a report that `plot --report` draws; the test puts the value in one.
DRAWN_FIELDS = ("ft_used", "r_db_used", "ft_err_used", "s_err_db_used")
FRAME = re.compile(r'<rect x="([^"]*)" y="([^"]*)" width="([^"]*)" height="([^"]*)" '
                   r'fill="none" stroke="#000000" stroke-width="1"/>')
DATA_POINT = re.compile(r'<circle cx="([^"]*)" cy="([^"]*)" r="3.2" fill="#000000" stroke="none"/>')


def assert_drawable(svg: str) -> None:
    """No non-finite coordinate, no negative extent, no data point off the frame."""
    assert "inf" not in svg and "nan" not in svg, svg
    assert not re.search(r'(width|height)="-', svg), svg
    left, top, width, height = map(float, FRAME.search(svg).groups())
    for cx, cy in DATA_POINT.findall(svg):
        assert left <= float(cx) <= left + width and top <= float(cy) <= top + height, svg


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(template=st.sampled_from(EDGE_COMMANDS), value=EDGE_VALUES,
       window=st.sampled_from(["gaussian", "lorentzian2"]),
       step=st.one_of(st.sampled_from(["nan", "inf", "-0", "5e-324", "1e308"]),
                      st.floats(2e-3, 1.0).map(repr)),
       column=st.sampled_from(DATASET_COLUMNS[2:]), drawn=st.sampled_from(DRAWN_FIELDS))
@example(template="opa --x {} --beta 0.9 --extremes", value="nan", window="gaussian",
         step="0.1", column="x", drawn="ft_used")
@example(template="opa --x 0.5 --beta {} --ft", value="nan", window="gaussian",
         step="0.1", column="beta", drawn="ft_used")
@example(template="opa --x 0.5 --beta 0.9 --w {} --extremes", value="nan", window="gaussian",
         step="0.1", column="omega_over_gamma", drawn="ft_used")
@example(template="plot --fig 6 --db-floor {} --grid-step 0.1 --out {out}", value="-4e-323",
         window="gaussian", step="0.1", column="x", drawn="ft_used")  # no tick step
@example(template="opa --ideal-bound {}", value="1e308", window="gaussian", step="0.1",
         column="x", drawn="r_db_used")  # a point above the frame
@example(template="opa --ideal-bound {}", value="-1e308", window="gaussian", step="0.1",
         column="x", drawn="ft_err_used")  # an error rectangle of negative width
def test_extreme_values_exit_cleanly(capsys, tmp_path, template, value, window, step, column,
                                    drawn):
    # a usage error, a numeric failure or an answer: never a traceback or a
    # NaN, and a failed command leaves no output file behind
    here = Path(tempfile.mkdtemp(dir=tmp_path))  # tmp_path is shared across examples
    data = here / "data.csv"
    data.write_text(HEADER + "\n" + ",".join({**EDGE_RECORD, column: value}.values()) + "\n")
    # a report of the unchanged record, the value in one drawn field (JSON as
    # Python writes it, NaN and Infinity included)
    edge = meta.load_records(HEADER + "\n" + ",".join(EDGE_RECORD.values()) + "\n")
    drawn_report = json.loads(meta.classify(edge, [qi_bound.parse_curve_id("gaussian-paper")])
                              .to_json())
    drawn_report["per_record"][0][drawn] = float(value)
    (here / "d.json").write_text(json.dumps(drawn_report))
    commands = [(template.format(value, w=window, out=here / "a.svg"), here / "a.svg"),
                (f"plot --fig 5 --grid-step {step} --out {here / 'b.svg'}", here / "b.svg"),
                (f"analyze --data {data} --report {here / 'c.json'}", here / "c.json"),
                (f"plot --fig 5 --report {here / 'd.json'} --out {here / 'd.svg'}",
                 here / "d.svg")]
    for command, output in commands:
        code, out, err = run(capsys, *command.split())
        assert code in (0, 2, 3, 4), (command, err)
        assert "Traceback" not in err and "nan" not in out.lower(), (command, out, err)
        assert code == 0 or not output.exists(), (command, err)
    report = here / "c.json"
    assert not report.exists() or "nan" not in report.read_text().lower()
    if (here / "d.svg").exists():
        assert_drawable((here / "d.svg").read_text())


# --- start-up ----------------------------------------------------------------------

# Runs a statement that sets ``code`` (by default one command of the CLI) in
# a fresh interpreter, then prints the SciPy modules it loaded, the sqzqi
# modules it loaded and, on the last line of stdout, whether NumPy loaded.
MODULE_PROBE = """
import sys
{statement}
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
print(" ".join(sorted(m.removeprefix("sqzqi.") for m in sys.modules if m.startswith("sqzqi."))))
print("numpy" in sys.modules)
sys.exit(code)
"""
CLI_COMMAND = """
from sqzqi.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
"""


def modules_loaded_by(tmp_path, *argv, statement=CLI_COMMAND) -> tuple[set[str], set[str], bool]:
    """(SciPy modules, sqzqi submodules without the package prefix, whether
    NumPy) loaded."""
    src = str(Path(sqzqi.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = MODULE_PROBE.format(statement=statement)
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    scipy, own, numpy = proc.stdout.splitlines()[-3:]
    return set(scipy.split()), set(own.split()), numpy == "True"


CLI_MODULES = {"cli", "qi_bound", "windows", "units"}  # import sqzqi.cli; every command


# No command loads SciPy or NumPy: the closed forms and the Gauss-Kronrod
# bracket of the trapezoid spectrum run in math.  The same probe checks
# that each command loads only the sqzqi modules it runs: `bound` needs
# neither the meta-analysis nor the SVG writer.
@pytest.mark.parametrize("argv, extra", [
    ((), set()),  # import sqzqi.cli alone
    (("bound", "--window", "lorentzian2", "--ft", "0.01:0.5:0.01"), set()),
    (("plot", "--fig", "4", "--out", "fig.svg"), {"opa", "svgfig"}),
    (("plot", "--fig", "6", "--out", "fig.svg"), {"opa", "svgfig"}),
    (("opa", "--x", "0.8", "--beta", "0.975", "--extremes"), {"opa"}),
    (("bound", "--window", "gaussian", "--ft", "0.01:0.5:0.01"), set()),
    (("plot", "--fig", "5", "--out", "fig.svg"), {"opa", "svgfig"}),
    (("plot", "--fig", "5", "--report", "report.json", "--out", "fig.svg"),
     {"opa", "svgfig", "meta"}),
    (("plot", "--fig", "7", "--out", "fig.svg"), {"opa", "svgfig"}),
    (("analyze", "--report", "report.json"), {"opa", "meta"}),
    (("analyze", "--fit", "--report", "report.json"), {"opa", "meta"}),
    (("plot", "--fig", "8", "--grid-step", "0.05", "--out", "fig.svg"), {"opa", "svgfig"}),
    (("plot", "--curve", "gaussian-paper", "--out", "fig.svg"), {"opa", "svgfig"}),
    (("analyze", "--fit", "--curves", "trapezoid-paper-n0.2", "--report", "report.json"),
     {"opa", "meta"}),
    (("bound", "--window", "trapezoid", "--n", "0.001", "--ft", "0.05:0.5:0.05"), set()),
    (("bound", "--window", "square", "--allow-square", "--ft", "0.01:0.5:0.01"), set()),
    (("bound", "--window", "lorentzian2", "--omega-t0", "1"), set()),
], ids=["import", "bound-lorentzian2", "plot-4", "plot-6", "opa-extremes", "bound-gaussian",
        "plot-5", "plot-5-report", "plot-7", "analyze", "analyze-fit", "plot-8", "plot-curve",
        "analyze-fit-trapezoid", "bound-trapezoid", "bound-square",
        "bound-omega-t0"])
def test_startup_loads_only_the_scipy_its_path_needs(capsys, tmp_path, argv, extra):
    if "--report" in argv and argv[0] == "plot":
        assert run(capsys, "analyze", "--report", str(tmp_path / "report.json"))[0] == 0
    assert modules_loaded_by(tmp_path, *argv) == (set(), CLI_MODULES | extra, False)


def test_importing_the_package_loads_no_module(tmp_path):
    assert modules_loaded_by(tmp_path, statement="import sqzqi\ncode = 0") == (set(), set(), False)


def test_dataset_errors_are_defined_once():
    # the CLI maps them to exit 4 through qi_bound, without loading meta
    assert meta.DatasetError is qi_bound.DatasetError
    assert meta.FitError is qi_bound.FitError


def test_startup_probe_sees_a_quadrature_path_load_scipy(tmp_path):
    # the tests' window-definition quadrature runs on scipy.integrate
    scipy, _, _ = modules_loaded_by(tmp_path, statement=f"""
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from oracles import bracket
from sqzqi.windows import gaussian_window
code = 0 if 0.0 < bracket(gaussian_window(1.0), 1.0)[0] < 1.0 else 1
""")
    assert "scipy.integrate" in scipy


# --- README ----------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each ``sqzqi`` line in the README's "Command line" sh block."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sqzqi ")]


def test_readme_command_block_runs(capsys, monkeypatch, tmp_path):
    # the documented commands run in order, each with exit 0, and write
    # every file they name
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
        for option in ("--out", "--report"):
            if option in argv:
                assert (tmp_path / argv[argv.index(option) + 1]).is_file(), argv
        capsys.readouterr()
