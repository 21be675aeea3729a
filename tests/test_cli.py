"""End-to-end command-line coverage, exit-code contract included.

Every subcommand runs against the shipped dataset or its own inputs via
``main(argv)``; figure output is checked byte for byte for determinism.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sqzqi
from sqzqi import opa
from sqzqi.cli import main
from sqzqi.meta import DATASET_COLUMNS, AnalysisReport

HEADER = ",".join(DATASET_COLUMNS)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- bound ---------------------------------------------------------------------

def test_bound_grid_row_count(capsys):
    code, out, _ = run(capsys, "bound", "--window", "gaussian", "--variant", "paper",
                       "--ft", "0.01:1.0:0.01")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "ft,r_db,curve_id,window,variant,scale"
    assert len(lines) == 101  # header + 100 grid rows


def test_bound_single_argument_numeric(capsys):
    code, out, _ = run(capsys, "bound", "--window", "gaussian", "--omega-t0", "1",
                       "--numeric")
    assert code == 0
    assert "R = -0.2022 dB" in out


def test_bound_trapezoid_family_member(capsys, tmp_path):
    out_path = tmp_path / "trap.csv"
    code, _, _ = run(capsys, "bound", "--window", "trapezoid", "--n", "0.001",
                     "--ft", "0.05:0.5:0.05", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 11
    assert "trapezoid-paper-n0.001" in lines[1]
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a < b for a, b in zip(values, values[1:]))  # rising toward 0 dB


def test_bound_square_requires_opt_in(capsys):
    code, _, err = run(capsys, "bound", "--window", "square", "--ft", "0.1:0.2:0.1")
    assert code == 2
    assert "allow-square" in err
    code, out, _ = run(capsys, "bound", "--window", "square", "--allow-square",
                       "--ft", "0.1:0.2:0.1")
    assert code == 0
    assert "square-paper" in out


def no_arange(*args, **kwargs):
    raise AssertionError("the grid was built before its size was checked")


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
    # 990,000,001 points would take gigabytes: refused before any array exists
    monkeypatch.setattr(np, "arange", no_arange)
    code, out, err = run(capsys, "bound", "--window", "gaussian", "--ft", "0.01:1:1e-9")
    assert code == 2 and out == ""
    assert err == "sqzqi: a step of 1e-09 gives more than 1000000 grid points\n"


def test_bound_numeric_failure_exit_code(capsys, tmp_path):
    # a long oscillatory range with almost no subdivision budget cannot
    # certify its error estimate
    config = tmp_path / "strict.cfg"
    config.write_text("quad.max_nodes=10\n")
    code, _, err = run(capsys, "--config", str(config), "bound", "--window", "square",
                       "--allow-square", "--omega-t0", "200", "--numeric")
    assert code == 3
    assert "numeric failure" in err
    assert "achieved error estimate" in err


@pytest.mark.parametrize("n, omega_t0, achieved", [
    # the spectral peak is about 4.5 wide against [0, 1e7]: the bracket
    # cannot be certified within the interval budget, and says so
    ("0.2", "1e7", r"\d\.\d{3}e-0\d"),
    # u*L passes the float range inside [0, omega0]: the NaN spectrum is a
    # numeric failure, not "R = nan dB" (and raises no warning on the way)
    ("1e10", "1e300", "inf"),
], ids=["narrow-peak", "overflow"])
def test_bound_trapezoid_narrow_peak_exit_code(capsys, n, omega_t0, achieved):
    code, out, err = run(capsys, "bound", "--window", "trapezoid", "--n", n,
                         "--omega-t0", omega_t0)
    assert (code, out) == (3, "")
    assert re.search(rf"bound quadrature did not converge \(achieved error estimate {achieved}\)", err)


# --- opa -----------------------------------------------------------------------

def test_opa_extremes(capsys):
    code, out, _ = run(capsys, "opa", "--x", "0.8", "--beta", "0.975", "--w", "0",
                       "--extremes")
    assert code == 0
    assert "S- = 0.037037 (-14.3136 dB)" in out
    assert "S+ = 79 (18.9763 dB)" in out
    assert "F_T = 0.0704466" in out


def test_opa_lossless_product(capsys):
    code, out, _ = run(capsys, "opa", "--x", "0.8", "--beta", "1", "--w", "0",
                       "--extremes")
    assert code == 0
    assert "S-*S+ = 1\n" in out


def test_opa_ideal_bound_boundary(capsys):
    code, out, _ = run(capsys, "opa", "--ideal-bound", "0.5")
    assert code == 0
    assert "0.0000 dB" in out
    code, out, _ = run(capsys, "opa", "--ideal-bound", "0.14")
    assert "-13.0134 dB" in out


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


# --- analyze ---------------------------------------------------------------------

def test_analyze_shipped_dataset(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", "--fit", "--report", str(report_path))
    assert code == 0
    assert "records: 3 classified, 13 skipped" in out
    assert "violations[gaussian-paper]: 3/3" in out
    assert "violations[gaussian-marecki]: 3/3" in out
    assert "ideal-opa exceeded: 0/3" in out
    assert "fit[gaussian-paper]: envelope k = 0.10491" in out
    assert "skipped record study_02" in err
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


# --- plot ------------------------------------------------------------------------

def test_plot_fig5_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "plot", "--fig", "5", "--out", str(a))[0] == 0
    assert run(capsys, "plot", "--fig", "5", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg ")
    assert "gaussian-paper" in text and "gaussian-marecki" in text and "ideal OPA" in text


@pytest.mark.parametrize("fig", [4, 6, 7])
def test_plot_other_presets(capsys, tmp_path, fig):
    out = tmp_path / f"fig{fig}.svg"
    assert run(capsys, "plot", "--fig", str(fig), "--out", str(out))[0] == 0
    assert out.read_text().startswith("<svg ")


def test_plot_fig8_with_coarse_grid(capsys, tmp_path):
    out = tmp_path / "fig8.svg"
    code, _, _ = run(capsys, "plot", "--fig", "8", "--grid-step", "0.1",
                     "--out", str(out))
    assert code == 0
    # 12 trapezoid traces (six n values, two argument conventions) + ideal
    assert out.read_text().count("<polyline") >= 13


def test_plot_points_from_report(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    run(capsys, "analyze", "--report", str(report_path))
    out = tmp_path / "fig5.svg"
    code, _, _ = run(capsys, "plot", "--fig", "5", "--report", str(report_path),
                     "--out", str(out))
    assert code == 0
    text = out.read_text()
    # three classified records: markers plus their error rectangles
    assert text.count("<rect") >= 3 + 2  # background + frame + error boxes
    assert text.count("<circle") >= 3


def test_plot_inline_curves(capsys, tmp_path):
    out = tmp_path / "inline.svg"
    code, _, _ = run(capsys, "plot", "--curve", "gaussian-paper",
                     "--curve", "lorentzian2-marecki", "--out", str(out))
    assert code == 0
    assert out.read_text().count("<polyline") == 2


def test_plot_missing_report_file_exit_4(capsys, tmp_path):
    code, _, err = run(capsys, "plot", "--fig", "5", "--report", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "x.svg"))
    assert code == 4
    assert err.startswith("sqzqi: dataset error: ")
    assert "absent.json" in err
    assert not (tmp_path / "x.svg").exists()
    for name, text in (("empty.json", "{}"), ("text.json", "not json")):
        (tmp_path / name).write_text(text)
        code, _, err = run(capsys, "plot", "--fig", "5", "--report", str(tmp_path / name),
                           "--out", str(tmp_path / "x.svg"))
        assert code == 4
        assert err.startswith(f"sqzqi: dataset error: malformed report {tmp_path / name}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.svg").exists()


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
        m.setattr(np, "arange", no_arange)
        code, _, err = run(capsys, "plot", "--curve", "gaussian-paper", "--grid-step", "1e-9",
                           "--out", str(tmp_path / "x.svg"))
    assert code == 2
    assert err == "sqzqi: a step of 1e-09 gives more than 1000000 grid points\n"
    assert not (tmp_path / "x.svg").exists()


def test_plot_db_floor_changes_output(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "plot", "--fig", "5", "--out", str(a))
    run(capsys, "plot", "--fig", "5", "--db-floor", "-20", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


# --- config ------------------------------------------------------------------------

def test_config_plot_floor_applies(capsys, tmp_path):
    config = tmp_path / "sqzqi.cfg"
    config.write_text("# plotting\nplot.db_floor = -20\n")
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "plot", "--fig", "5", "--out", str(a))
    run(capsys, "--config", str(config), "plot", "--fig", "5", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()
    floored = run(capsys, "plot", "--fig", "5", "--db-floor", "-20", "--out",
                  str(tmp_path / "c.svg"))
    assert floored[0] == 0
    assert (tmp_path / "c.svg").read_bytes() == b.read_bytes()


def test_config_unknown_key_rejected(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    # quad.rel_tol is not a key: no bound integral reads a relative tolerance
    for line in ("quad.bogus=1\n", "quad.rel_tol=0.1\n"):
        config.write_text(line)
        code, _, err = run(capsys, "--config", str(config), "opa", "--ideal-bound", "0.2")
        assert code == 2
        assert "unknown config key" in err


@pytest.mark.parametrize("line, message", [
    ("quad.max_nodes=abc", "quad.max_nodes: invalid literal for int()"),
    ("quad.max_nodes=5", "quad.max_nodes: max_subdivisions must be at least 10"),
    # QUADPACK would overflow, or ask for gigabytes of workspace
    ("quad.max_nodes=99999999999", "quad.max_nodes: max_subdivisions must be at most 100000"),
    ("plot.db_floor=deep", "plot.db_floor: could not convert"),
    ("plot.db_floor=nan", "plot.db_floor: must be finite and negative, got 'nan'"),
    ("plot.db_floor=-inf", "plot.db_floor: must be finite and negative, got '-inf'"),
    ("plot.db_floor=0", "plot.db_floor: must be finite and negative, got '0'"),
])
def test_config_bad_value_names_file_line_and_key(capsys, tmp_path, line, message):
    config = tmp_path / "bad.cfg"
    config.write_text(f"# quadrature\n{line}\n")
    code, out, err = run(capsys, "--config", str(config), "bound", "--window", "gaussian",
                         "--omega-t0", "1", "--numeric")
    assert (code, out) == (2, "")
    assert err.startswith(f"sqzqi: {config}:2: {message}")
    assert err.count("\n") == 1


def test_config_max_nodes_upper_limit_accepted(capsys, tmp_path):
    config = tmp_path / "wide.cfg"
    config.write_text("quad.max_nodes=100000\n")
    code, out, _ = run(capsys, "--config", str(config), "bound", "--window", "gaussian",
                       "--omega-t0", "1", "--numeric")
    assert code == 0
    assert "R = -0.2022 dB" in out


def test_config_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "--config", str(tmp_path / "absent.cfg"),
                       "opa", "--ideal-bound", "0.2")
    assert code == 2
    assert "absent.cfg" in err
    assert "Traceback" not in err


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
    assert run(capsys, "plot", "--fig", "5", "--db-floor", "-20", "--report", str(report),
               "--out", str(plain))[0] == 0
    report.write_text(bom + report.read_text(encoding="utf-8"), encoding="utf-8")
    config = tmp_path / "sqzqi.cfg"
    config.write_text(bom + "plot.db_floor = -20\n", encoding="utf-8")
    marked = tmp_path / "marked.svg"
    code, _, err = run(capsys, "--config", str(config), "plot", "--fig", "5",
                       "--report", str(report), "--out", str(marked))
    assert (code, err) == (0, "")
    assert marked.read_bytes() == plain.read_bytes()


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "bound", "--help")[0] == 0


# --- start-up ----------------------------------------------------------------------

# Runs one command in a fresh interpreter, then prints the SciPy modules it
# loaded as the last line of stdout.
SCIPY_PROBE = """
import sys
from sqzqi.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
sys.exit(code)
"""


def scipy_loaded_by(tmp_path, *argv) -> set[str]:
    src = str(Path(sqzqi.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


# Only the paths that run scipy.integrate.quad (the square window, --numeric
# and Method.NESTED) load SciPy; the closed forms and the trapezoid's own
# Gauss-Kronrod bracket run on NumPy.
@pytest.mark.parametrize("argv", [
    (),  # import sqzqi.cli alone
    ("bound", "--window", "lorentzian2", "--ft", "0.01:0.5:0.01"),
    ("plot", "--fig", "4", "--out", "fig.svg"),
    ("plot", "--fig", "6", "--out", "fig.svg"),
    ("opa", "--x", "0.8", "--beta", "0.975", "--extremes"),
    ("bound", "--window", "gaussian", "--ft", "0.01:0.5:0.01"),
    ("plot", "--fig", "5", "--out", "fig.svg"),
    ("plot", "--fig", "7", "--out", "fig.svg"),
    ("analyze", "--report", "report.json"),
    ("analyze", "--fit", "--report", "report.json"),
    ("plot", "--fig", "8", "--grid-step", "0.05", "--out", "fig.svg"),
    ("analyze", "--fit", "--curves", "trapezoid-paper-n0.2", "--report", "report.json"),
    ("bound", "--window", "trapezoid", "--n", "0.001", "--ft", "0.05:0.5:0.05"),
], ids=["import", "bound-lorentzian2", "plot-4", "plot-6", "opa-extremes", "bound-gaussian",
        "plot-5", "plot-7", "analyze", "analyze-fit", "plot-8", "analyze-fit-trapezoid",
        "bound-trapezoid"])
def test_startup_loads_only_the_scipy_its_path_needs(tmp_path, argv):
    assert scipy_loaded_by(tmp_path, *argv) == set()


def test_startup_probe_sees_a_quadrature_path_load_scipy(tmp_path):
    loaded = scipy_loaded_by(tmp_path, "bound", "--window", "gaussian", "--omega-t0", "1",
                             "--numeric")
    assert "scipy.integrate" in loaded
