"""Bound evaluation: closed forms, numeric paths, curves, context values.

The error function is checked against its own Maclaurin series evaluated
in 40-digit arithmetic; the numeric bound brackets are checked against
independently derived special-function forms (Si for the square window,
Fresnel quadrature for the trapezoid), and the trapezoid's closed-form
spectrum path against its nested-quadrature path and, for its own
Gauss-Kronrod rule, against SciPy's ``quad`` on the same spectrum.
"""

import math
import re
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from sqzqi.qi_bound import (
    BRACKET_FLOOR,
    ConsistencyError,
    QiCurve,
    SpectralFunction,
    SpectralShape,
    Variant,
    _G10_WEIGHTS,
    _K21_NODES,
    _K21_WEIGHTS,
    _KRONROD_ROWS,
    _bracket,
    _check_bracket,
    _kronrod21,
    bound_value,
    casimir_density,
    curve_csv,
    curve_value,
    ford_bound,
    numeric_bound_detail,
    parse_curve_id,
    phase_argument,
    sample_curve,
)
from sqzqi.cli import TRAPEZOID_FAMILY
from sqzqi.units import C_LIGHT, HBAR, format_db, to_db
from sqzqi.windows import (
    DEFAULT_QUADRATURE,
    Method,
    QuadratureConfig,
    QuadratureError,
    SamplingWindow,
    WindowKind,
    _analytic_sqrt_ft_squared,
    gaussian_window,
    lorentzian_sq_window,
    sqrt_ft_squared,
    square_window,
    trapezoid_window,
)
from test_windows import trapezoid_spectrum_oracle


def erf_series(z: float) -> float:
    """erf by its Maclaurin series in 40-digit arithmetic.

    erf(z) = (2/sqrt(pi)) * sum_n (-1)^n z^(2n+1) / (n! (2n+1)); the high
    working precision absorbs the alternating-series cancellation up to
    z ~ 10, beyond which erf is 1 to well below 1e-30.
    """
    if z > 10.0:
        return 1.0
    with mpmath.workdps(40):
        zm = mpmath.mpf(z)
        total = mpmath.mpf(0)
        term = zm
        n = 0
        while abs(term) > mpmath.mpf("1e-38"):
            total += term / (2 * n + 1)
            n += 1
            term = -term * zm * zm / n
        return float(2 / mpmath.sqrt(mpmath.pi) * total)


def db(x: float) -> float:
    return 10.0 * math.log10(x)


ARGS = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0]


# --- closed forms ----------------------------------------------------------

@pytest.mark.parametrize("arg", ARGS + [0.6220])
def test_closed_form_gaussian_vs_series(arg):
    # the library's closed-form bracket, erf(sqrt(2)*arg), to 1e-14 absolute
    z = math.sqrt(2.0) * arg
    bracket, err = _bracket(gaussian_window(1.0), arg, DEFAULT_QUADRATURE, Method.CLOSED_FORM)
    assert float(bracket) == pytest.approx(erf_series(z), abs=1e-14) and err == 0.0
    expected = db(erf_series(z))
    assert bound_value(WindowKind.GAUSSIAN, None, arg) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("shape", [(), (0,), (7,), (2, 3)])
def test_closed_form_gaussian_keeps_the_shape(shape):
    omega0 = np.linspace(0.0, 3.0, math.prod(shape)).reshape(shape)
    bracket, _ = _bracket(gaussian_window(1.0), omega0, DEFAULT_QUADRATURE, Method.CLOSED_FORM)
    assert bracket.shape == shape
    want = [math.erf(math.sqrt(2.0) * o) for o in omega0.ravel().tolist()]
    assert bracket.ravel().tolist() == want


@pytest.mark.parametrize("variant", list(Variant))
def test_closed_form_gaussian_db_strings_match_scipy_erf(variant):
    # math.erf and scipy.special.erf differ by an ulp or two at some points;
    # no 4-decimal dB string on the grid may show it
    grid = np.round(np.arange(0.005, 1.0001, 0.005), 10)
    for scale in np.round(np.arange(0.1, 1.0001, 0.05), 10):
        curve = QiCurve(WindowKind.GAUSSIAN, variant, scale=float(scale))
        got = [format_db(r) for r in sample_curve(curve, grid)]
        erf = special.erf(math.sqrt(2.0) * phase_argument(variant, WindowKind.GAUSSIAN, grid, scale))
        want = [format_db(to_db(e)) if e > BRACKET_FLOOR else "-inf" for e in erf.tolist()]
        assert got == want, scale


def test_closed_form_gaussian_examples():
    assert bound_value(WindowKind.GAUSSIAN, None, 0.0) == -math.inf
    assert abs(bound_value(WindowKind.GAUSSIAN, None, 10.0)) < 1e-10
    assert bound_value(WindowKind.GAUSSIAN, None, 1.0) == pytest.approx(-0.2022, abs=5e-4)
    # erf argument 0.6220 (i.e. omega0*t0 = 0.6220/sqrt(2)): erf ~ 0.621
    assert erf_series(0.6220) == pytest.approx(0.620946, abs=1e-6)
    assert bound_value(WindowKind.GAUSSIAN, None, 0.6220 / math.sqrt(2.0)) == pytest.approx(
        -2.07, abs=5e-3)
    with pytest.raises(ValueError):
        bound_value(WindowKind.GAUSSIAN, None, -0.1)


def test_closed_form_lorentzian_examples():
    assert bound_value(WindowKind.LORENTZIAN_SQ, None, 0.0) == -math.inf
    assert bound_value(WindowKind.LORENTZIAN_SQ, None, math.pi / 2) == pytest.approx(
        db(1.0 - math.exp(-math.pi)), abs=1e-12)
    assert bound_value(WindowKind.LORENTZIAN_SQ, None, math.pi / 2) == pytest.approx(
        -0.1919, abs=5e-4)
    assert bound_value(WindowKind.LORENTZIAN_SQ, None, 0.5) == pytest.approx(-1.9921, abs=5e-4)
    assert abs(bound_value(WindowKind.LORENTZIAN_SQ, None, 50.0)) < 1e-12
    with pytest.raises(ValueError):
        bound_value(WindowKind.LORENTZIAN_SQ, None, -1.0)


@pytest.mark.parametrize("arg", ARGS)
def test_closed_form_lorentzian_vs_mpmath(arg):
    with mpmath.workdps(40):
        expected = float(10 * mpmath.log10(1 - mpmath.exp(-2 * mpmath.mpf(arg))))
    assert bound_value(WindowKind.LORENTZIAN_SQ, None, arg) == pytest.approx(expected, abs=1e-12)


# --- numeric bound vs closed forms ----------------------------------------

@pytest.mark.parametrize("arg", ARGS)
def test_numeric_bound_matches_gaussian_closed_form(arg):
    r = numeric_bound_detail(gaussian_window(1.0), SpectralFunction(omega0=arg)).r_db
    assert r == pytest.approx(bound_value(WindowKind.GAUSSIAN, None, arg), abs=1e-6)


@pytest.mark.parametrize("arg", ARGS)
def test_numeric_bound_matches_lorentzian_closed_form(arg):
    r = numeric_bound_detail(lorentzian_sq_window(1.0), SpectralFunction(omega0=arg)).r_db
    assert r == pytest.approx(bound_value(WindowKind.LORENTZIAN_SQ, None, arg), abs=1e-6)


def test_numeric_bound_scale_invariance():
    # depends on omega0 and t0 only through their product
    r1 = numeric_bound_detail(gaussian_window(2.0), SpectralFunction(omega0=0.5)).r_db
    r2 = numeric_bound_detail(gaussian_window(0.25), SpectralFunction(omega0=4.0)).r_db
    assert r1 == pytest.approx(bound_value(WindowKind.GAUSSIAN, None, 1.0), abs=1e-9)
    assert r2 == pytest.approx(bound_value(WindowKind.GAUSSIAN, None, 1.0), abs=1e-9)


def test_numeric_bound_saturates_for_long_observation():
    res = numeric_bound_detail(gaussian_window(1.0), SpectralFunction(omega0=20.0))
    assert abs(res.r_db) < 1e-6


def test_forced_numeric_spectrum_path():
    res = numeric_bound_detail(gaussian_window(1.0), SpectralFunction(omega0=1.0),
                               method=Method.NESTED)
    assert res.r_db == pytest.approx(bound_value(WindowKind.GAUSSIAN, None, 1.0), abs=1e-7)
    assert 0.0 < res.bracket < 1.0
    assert res.bracket_error < 1e-7


@settings(max_examples=12, deadline=None)
@given(arg=st.floats(1e-3, 50.0))
def test_bracket_stays_in_unit_interval(arg):
    for maker in (gaussian_window, lorentzian_sq_window):
        res = numeric_bound_detail(maker(1.0), SpectralFunction(omega0=arg))
        assert 0.0 < res.bracket <= 1.0


@pytest.mark.parametrize("kind", [WindowKind.GAUSSIAN, WindowKind.LORENTZIAN_SQ],
                         ids=lambda k: k.value)
def test_floor_holds_for_every_method(kind):
    # Method.NESTED is left out: its semi-infinite spectrum quadrature reads
    # 0, with a zero error estimate, at frequencies this small.
    w = SamplingWindow(kind, 1.0)
    brackets = []
    for method in (Method.CLOSED_FORM, Method.SPECTRUM):
        assert bound_value(kind, None, 1e-16, method) == -math.inf
        r = bound_value(kind, None, 1e-15, method)
        detail = numeric_bound_detail(w, SpectralFunction(omega0=1e-15), method=method)
        assert math.isfinite(r) and detail.r_db == r
        brackets.append(detail.bracket)
    # the direct form 1 - 4pi*tail rounds in steps of eps/2 this close to 0
    assert brackets[1] == pytest.approx(brackets[0], abs=2 * np.finfo(float).eps)


def test_zero_omega_gives_sentinel():
    res = numeric_bound_detail(gaussian_window(1.0), SpectralFunction(omega0=0.0))
    assert res.r_db == -math.inf
    res = numeric_bound_detail(square_window(1.0), SpectralFunction(omega0=0.0))
    assert res.r_db == -math.inf
    assert res.bracket <= BRACKET_FLOOR


# --- spectral-weight robustness --------------------------------------------

@pytest.mark.parametrize("omega0", [0.5, 1.0, 2.0])
def test_gaussian_weight_matches_delta_limit(omega0):
    w = gaussian_window(1.0)
    delta = numeric_bound_detail(w, SpectralFunction(omega0=omega0)).r_db
    mu = SpectralFunction(omega0=omega0, delta_omega=0.01 * omega0,
                          shape=SpectralShape.GAUSSIAN)
    full = numeric_bound_detail(w, mu).r_db
    assert full == pytest.approx(delta, abs=1e-3)


def test_spectral_function_validation():
    SpectralFunction(omega0=1.0)  # delta limit, fine
    with pytest.raises(ValueError):
        SpectralFunction(omega0=1.0, delta_omega=0.2, shape=SpectralShape.GAUSSIAN)
    with pytest.raises(ValueError):
        SpectralFunction(omega0=1.0, shape=SpectralShape.GAUSSIAN)  # missing width
    with pytest.raises(ValueError):
        SpectralFunction(omega0=-1.0)


# --- square and trapezoid brackets vs independent oracles -------------------

def square_bracket_oracle(omega0_dt: float) -> float:
    # 4pi * int_0^{omega0} V = (2/pi) * (Si(2x) - sin(x)^2/x), x = omega0*dt/2
    x = omega0_dt / 2.0
    si, _ = special.sici(2.0 * x)
    return (2.0 / math.pi) * (si - math.sin(x) ** 2 / x)


@pytest.mark.parametrize("omega0_dt", [0.01, 0.5, 3.0, 30.0])
def test_square_bracket_vs_si_oracle(omega0_dt):
    res = numeric_bound_detail(square_window(1.0), SpectralFunction(omega0=omega0_dt))
    assert res.bracket == pytest.approx(square_bracket_oracle(omega0_dt), abs=1e-9)


@pytest.mark.parametrize("n", [0.001, 0.2, 5.0])
@pytest.mark.parametrize("ft", [0.05, 0.25, 0.45])
def test_trapezoid_bracket_vs_fresnel_quadrature(n, ft):
    omega0 = math.pi * ft
    oracle, _ = integrate.quad(lambda u: trapezoid_spectrum_oracle(u, 1.0, n),
                               0.0, omega0, epsabs=1e-14, epsrel=1e-12, limit=200)
    res = numeric_bound_detail(trapezoid_window(1.0, n), SpectralFunction(omega0=omega0))
    assert res.bracket == pytest.approx(4.0 * math.pi * oracle, abs=1e-9)


def test_trapezoid_approaches_square_as_sides_vanish():
    omega0 = 1.0
    sq = numeric_bound_detail(square_window(1.0), SpectralFunction(omega0=omega0)).bracket
    tr = numeric_bound_detail(trapezoid_window(1.0, 1e-4), SpectralFunction(omega0=omega0)).bracket
    assert tr == pytest.approx(sq, rel=1e-3)


@pytest.mark.parametrize("omega0", [0.05, 1.0, 3.0])
def test_trapezoid_side_term_has_no_cancellation_as_n_vanishes(omega0):
    # The relative gap to the square bracket is O(n); cancellation in the
    # Fresnel side term would show as a gap that stops shrinking.
    sq = square_bracket_oracle(omega0)
    gaps = []
    for n in (1e-2, 1e-4, 1e-6, 1e-8):
        res = numeric_bound_detail(trapezoid_window(1.0, n), SpectralFunction(omega0=omega0))
        assert res.bracket_error < 1e-12
        gap = abs(res.bracket - sq) / sq
        assert gap < 2.0 * n
        gaps.append(gap)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("n", [0.001, 0.2, 1.0, 5.0])
def test_trapezoid_closed_form_bracket_matches_nested_quadrature(n):
    w = trapezoid_window(1.0, n)
    for omega0 in (0.01, 0.3, 1.0, math.pi / 2, math.pi):
        mu = SpectralFunction(omega0=omega0)
        fast = numeric_bound_detail(w, mu)
        nested = numeric_bound_detail(w, mu, method=Method.NESTED)
        assert fast.bracket == pytest.approx(nested.bracket, rel=0, abs=1e-12)
        assert 0.0 < fast.bracket_error < nested.bracket_error


# --- the trapezoid's Gauss-Kronrod bracket ------------------------------------

@pytest.mark.parametrize("weights, degree", [(_K21_WEIGHTS, 31), (_G10_WEIGHTS, 19)],
                         ids=["K21", "G10"])
def test_gauss_kronrod_rules_integrate_polynomials_exactly(weights, degree):
    # int_{-1}^{1} x^d dx = 2/(d+1) for even d, 0 for odd d; exact up to
    # the rule's degree and no further
    def error(d):
        return abs(math.fsum(w * x**d for w, x in zip(weights, _K21_NODES.tolist()))
                   - (2.0 / (d + 1) if d % 2 == 0 else 0.0))
    for d in range(degree + 1):
        assert error(d) <= 4 * np.finfo(float).eps, d
    assert error(degree + 1) > 1e-13


def test_trapezoid_bracket_matches_scipy_quad_on_the_fig8_grid():
    # the same closed-form spectrum through QUADPACK's qags, on every n of
    # fig 8 and both argument conventions of its F_T grid
    fts = np.round(np.arange(0.02, 0.5001, 0.02), 10)
    omega0 = np.concatenate((math.pi * fts, fts))
    for n in TRAPEZOID_FAMILY:
        w = trapezoid_window(1.0, n)
        bracket, err = _bracket(w, omega0, DEFAULT_QUADRATURE, Method.SPECTRUM)
        for o, b in zip(omega0.tolist(), bracket.tolist()):
            val, _ = integrate.quad(lambda u: _analytic_sqrt_ft_squared(w, u), 0.0, o,
                                    epsabs=1e-15, epsrel=1e-13, limit=200)
            assert b == pytest.approx(4.0 * math.pi * val, rel=0, abs=1e-13), (n, o)
        assert np.all(err < 1e-12)


def split_quad_bracket(n: float, omega0: float) -> tuple[float, float]:
    """4pi * int_0^omega0 of the Fresnel oracle spectrum by scipy.integrate.quad,
    split at pi/c * 2^k so that every piece holds a few spectral widths."""
    edges, p = [0.0], math.pi / (0.5 + n)
    while p < omega0:
        edges.append(p)
        p *= 2.0
    edges.append(omega0)
    total = total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = integrate.quad(lambda u: trapezoid_spectrum_oracle(u, 1.0, n), lo, hi,
                                  epsabs=1e-16, epsrel=1e-13, limit=2000)
        total, total_err = total + val, total_err + err
    return 4.0 * math.pi * total, 4.0 * math.pi * total_err


@settings(max_examples=25, deadline=None)
@given(log_omega0=st.floats(-6.0, 8.0), log_n=st.floats(-3.0, 10.0))
def test_trapezoid_bracket_is_right_or_raises_when_the_peak_is_narrow(log_omega0, log_n):
    # The spectrum's peak is about pi/c wide (c the half support), so for
    # large n or omega0 it is narrow next to [0, omega0]; the oscillating
    # tail then needs more intervals than the budget, which must raise.
    omega0, n = 10.0**log_omega0, 10.0**log_n
    try:
        res = numeric_bound_detail(trapezoid_window(1.0, n), SpectralFunction(omega0=omega0))
    except QuadratureError as exc:
        assert exc.achieved > QuadratureConfig().bound_tol
        return
    assert 0.0 <= res.bracket <= 1.0
    ref, ref_err = split_quad_bracket(n, omega0)
    assert abs(res.bracket - ref) <= res.bracket_error + ref_err


@pytest.mark.parametrize("n, omega0", [(0.2, 1e7), (1e9, 0.5), (1e10, 0.5)])
def test_trapezoid_bracket_with_a_narrow_peak_raises(n, omega0):
    # QUADPACK's qags once returned -75.4, -113.2 and -131.8 dB here with
    # small error estimates; the true brackets are within 1e-5 of 1
    with pytest.raises(QuadratureError, match="bound quadrature did not converge") as exc:
        bound_value(WindowKind.TRAPEZOID, n, omega0)
    assert exc.value.achieved > QuadratureConfig().bound_tol


def test_trapezoid_bracket_spends_its_whole_budget():
    # at n = 1, omega0 = 1186 the last pass wants more bisections than the
    # 200-interval budget has room for; bisecting the largest errors first
    # still certifies the bracket, where skipping the whole pass left an
    # error of 2.4e-7, above the bound gate
    res = numeric_bound_detail(trapezoid_window(1.0, 1.0), SpectralFunction(omega0=1186.0))
    ref, ref_err = split_quad_bracket(1.0, 1186.0)
    assert res.bracket_error <= QuadratureConfig().bound_tol
    assert abs(res.bracket - ref) <= res.bracket_error + ref_err


def test_trapezoid_bracket_memory_does_not_grow_with_the_grid():
    # elements are integrated in blocks: one array call over the whole grid
    # peaked near 190 MB here, and chunked spectrum calls alone near 15 MB
    omega = np.linspace(1e-6, math.pi, 50_000)
    tracemalloc.start()
    try:
        r = bound_value(WindowKind.TRAPEZOID, 0.2, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    # blocks change no bit
    for i in range(0, omega.size, 4999):
        assert r[i] == bound_value(WindowKind.TRAPEZOID, 0.2, float(omega[i]))


def test_kronrod21_evaluates_a_few_thousand_intervals_at_a_time():
    rows = []

    def f(u):
        rows.append(u.shape[0])
        return np.cos(u) ** 2

    lo = np.linspace(0.0, 100.0, 5001)
    out = _kronrod21(f, lo[:-1], lo[1:])
    assert max(rows) <= _KRONROD_ROWS < lo.size - 1
    for i in (0, _KRONROD_ROWS - 1, _KRONROD_ROWS, 4999):
        assert [a[i] for a in out] == [a[0] for a in _kronrod21(f, lo[i:i + 1], lo[i + 1:i + 2])]


def test_non_finite_bracket_raises():
    # a NaN bracket, or a NaN error estimate, fails the gate instead of
    # printing "R = nan dB"
    with pytest.raises(QuadratureError, match="achieved error estimate inf"):
        _check_bracket(np.array([0.5, np.nan]), np.zeros(2), DEFAULT_QUADRATURE)
    with pytest.raises(QuadratureError, match="achieved error estimate nan"):
        _check_bracket(0.5, np.nan, DEFAULT_QUADRATURE)


def test_trapezoid_bracket_interval_budget():
    # too few intervals leave an honest, large error estimate, which the
    # bound gate turns into QuadratureError
    w = trapezoid_window(1.0, 5.0)
    bracket, err = _bracket(w, 50.0, DEFAULT_QUADRATURE, Method.SPECTRUM)
    small = QuadratureConfig(max_subdivisions=10)
    coarse, coarse_err = _bracket(w, 50.0, small, Method.SPECTRUM)
    assert err < 1e-12 and small.bound_tol < coarse_err
    assert abs(coarse - bracket) <= coarse_err
    with pytest.raises(QuadratureError) as exc:
        bound_value(WindowKind.TRAPEZOID, 5.0, 50.0, cfg=small)
    assert exc.value.achieved == pytest.approx(float(coarse_err))


def test_square_window_bracket_convergence_diagnostic():
    """Diagnostic, not an assertion of the unbounded-squeezing claim.

    The claim that the sharp window admits perfect squeezing independent
    of its width is not what the evaluated bracket shows: the bracket
    depends on omega0*dt and only tends to zero as that product shrinks.
    This records the convergence behavior (monotone decrease toward the
    sentinel) with its quadrature error estimates.
    """
    brackets = []
    for dt in (1.0, 0.1, 0.01, 0.001):
        res = numeric_bound_detail(square_window(dt), SpectralFunction(omega0=1.0))
        assert res.bracket_error < 1e-8
        brackets.append(res.bracket)
    assert all(b > 0 for b in brackets)
    assert all(a > b for a, b in zip(brackets, brackets[1:]))
    assert brackets[-1] < 1e-3
    # small-width asymptote: bracket -> omega0*dt/pi
    assert brackets[-1] == pytest.approx(0.001 / math.pi, rel=1e-3)


# --- curves -----------------------------------------------------------------

def test_phase_argument_conventions():
    assert phase_argument(Variant.WITH_PI, WindowKind.GAUSSIAN, 0.14) == pytest.approx(
        math.pi * 0.14)
    assert phase_argument(Variant.NO_PI, WindowKind.GAUSSIAN, 0.14) == pytest.approx(2 * 0.14)
    assert phase_argument(Variant.NO_PI, WindowKind.LORENTZIAN_SQ, 0.14) == pytest.approx(0.14)
    assert phase_argument(Variant.NO_PI, WindowKind.TRAPEZOID, 0.14) == pytest.approx(0.14)
    assert phase_argument(Variant.WITH_PI, WindowKind.GAUSSIAN, 0.14, scale=0.5) == pytest.approx(
        math.pi * 0.07)


def test_curve_value_examples():
    g_paper = QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI)
    g_marecki = QiCurve(WindowKind.GAUSSIAN, Variant.NO_PI)
    l_paper = QiCurve(WindowKind.LORENTZIAN_SQ, Variant.WITH_PI)
    assert curve_value(g_paper, 0.14) == pytest.approx(
        db(erf_series(math.sqrt(2) * math.pi * 0.14)), abs=1e-9)
    assert curve_value(g_paper, 0.14) == pytest.approx(-2.07, abs=5e-3)
    assert curve_value(g_marecki, 0.14) == pytest.approx(
        db(erf_series(2 * math.sqrt(2) * 0.14)), abs=1e-9)
    assert curve_value(g_marecki, 0.14) == pytest.approx(-3.72, abs=5e-3)
    assert curve_value(l_paper, 0.14) == pytest.approx(
        db(1 - math.exp(-2 * math.pi * 0.14)), abs=1e-12)
    assert curve_value(l_paper, 0.14) == pytest.approx(-2.33, abs=5e-3)


def test_curve_domain():
    curve = QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI)
    with pytest.raises(ValueError):
        curve_value(curve, 0.0)
    with pytest.raises(ValueError):
        curve_value(curve, 1.2)
    with pytest.raises(ValueError):
        curve_value(curve, -0.1)
    curve_value(curve, 1.0)  # boundary allowed


@settings(max_examples=40)
@given(
    ft=st.floats(0.005, 0.995),
    delta=st.floats(0.004, 0.3),
    window=st.sampled_from([WindowKind.GAUSSIAN, WindowKind.LORENTZIAN_SQ]),
    variant=st.sampled_from(list(Variant)),
)
def test_curve_strictly_increasing_in_ft(ft, delta, window, variant):
    curve = QiCurve(window, variant)
    hi = min(ft + delta, 1.0)
    lo_val, hi_val = curve_value(curve, ft), curve_value(curve, hi)
    assert lo_val < hi_val
    assert hi_val <= 0.0  # bound curves never allow amplification


def test_curve_validation():
    with pytest.raises(ValueError):
        QiCurve(WindowKind.TRAPEZOID, Variant.WITH_PI)  # missing n
    with pytest.raises(ValueError):
        QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI, n=0.5)  # spurious n
    with pytest.raises(ValueError):
        QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI, scale=0.0)
    with pytest.raises(ValueError):
        QiCurve(WindowKind.SQUARE, Variant.WITH_PI)  # no unstable opt-in
    QiCurve(WindowKind.SQUARE, Variant.WITH_PI, allow_unstable=True)
    with pytest.raises(ValueError):
        QiCurve(WindowKind.SQUARE, Variant.WITH_PI, allow_unstable=True,
                method=Method.CLOSED_FORM)


# Written out apart from windows.METHODS, which these tests check.
SUPPORTED_METHODS = {
    WindowKind.GAUSSIAN: {Method.CLOSED_FORM, Method.SPECTRUM, Method.NESTED},
    WindowKind.LORENTZIAN_SQ: {Method.CLOSED_FORM, Method.SPECTRUM, Method.NESTED},
    WindowKind.TRAPEZOID: {Method.SPECTRUM, Method.NESTED},
    WindowKind.SQUARE: {Method.NESTED},
}


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", list(WindowKind), ids=lambda k: k.value)
def test_method_table(kind, method):
    n = 0.2 if kind is WindowKind.TRAPEZOID else None
    w = SamplingWindow(kind, 1.0, n)
    mu = SpectralFunction(omega0=1.0)
    calls = (
        lambda: QiCurve(kind, Variant.WITH_PI, n=n, method=method, allow_unstable=True),
        lambda: sqrt_ft_squared(w, 1.0, method=method),
        lambda: numeric_bound_detail(w, mu, method=method),
    )
    if method not in SUPPORTED_METHODS[kind]:
        for call in calls:
            with pytest.raises(ValueError):
                call()
        return
    curve, value, detail = (call() for call in calls)
    assert curve.method is method
    assert value == pytest.approx(sqrt_ft_squared(w, 1.0), rel=1e-8)
    assert detail.bracket == pytest.approx(numeric_bound_detail(w, mu).bracket, abs=1e-9)
    assert (detail.bracket_error == 0.0) == (method is Method.CLOSED_FORM)


def test_method_defaults():
    # curves take the fastest method; numeric_bound_detail the fastest numeric one
    curve_default = {WindowKind.GAUSSIAN: Method.CLOSED_FORM,
                     WindowKind.LORENTZIAN_SQ: Method.CLOSED_FORM,
                     WindowKind.TRAPEZOID: Method.SPECTRUM, WindowKind.SQUARE: Method.NESTED}
    for kind, method in curve_default.items():
        n = 0.2 if kind is WindowKind.TRAPEZOID else None
        assert QiCurve(kind, Variant.WITH_PI, n=n, allow_unstable=True).method is method
        detail = numeric_bound_detail(SamplingWindow(kind, 1.0, n), SpectralFunction(omega0=1.0))
        assert detail.bracket_error > 0.0


def test_curve_id_round_trip():
    cases = [
        QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI),
        QiCurve(WindowKind.LORENTZIAN_SQ, Variant.NO_PI, scale=1.0 / (3.0 * math.pi)),
        QiCurve(WindowKind.TRAPEZOID, Variant.WITH_PI, n=0.2),
        QiCurve(WindowKind.TRAPEZOID, Variant.NO_PI, n=0.001, scale=0.25),
    ]
    for curve in cases:
        parsed = parse_curve_id(curve.curve_id)
        assert parsed.window is curve.window
        assert parsed.variant is curve.variant
        assert parsed.n == curve.n
        # ids carry the scale at 6 significant digits
        assert parsed.scale == pytest.approx(curve.scale, rel=1e-5)
    assert parse_curve_id("gaussian-paper").curve_id == "gaussian-paper"
    for bad in ("gaussian", "gaussian-paperx", "box-paper", "gaussian-paper-z3",
                "trapezoid-paper-nnan", "trapezoid-paper-ninf"):
        with pytest.raises(ValueError):
            parse_curve_id(bad)


def test_curve_csv_format_and_sentinel():
    curve = QiCurve(WindowKind.SQUARE, Variant.WITH_PI, allow_unstable=True)
    text = curve_csv([curve], [1e-16, 0.1])
    lines = text.strip().split("\n")
    assert lines[0] == "ft,r_db,curve_id,window,variant,scale"
    assert lines[1].startswith("1e-16,-inf,square-paper,square,paper,1")
    ft, r, cid, window, variant, scale = lines[2].split(",")
    assert (ft, cid, window, variant, scale) == ("0.1", "square-paper", "square", "paper", "1")
    assert float(r) == pytest.approx(-10.0119, abs=2e-3)


def test_sample_curve_preserves_order():
    curve = QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI)
    grid = [0.3, 0.1, 0.2]
    vals = sample_curve(curve, grid)
    assert vals[0] == curve_value(curve, 0.3)
    assert vals[1] == curve_value(curve, 0.1)
    assert vals[2] == curve_value(curve, 0.2)


# --- arrays through the one evaluation core -----------------------------------

# one member of each family, each by its default method
FAMILIES = [(WindowKind.GAUSSIAN, None), (WindowKind.LORENTZIAN_SQ, None),
            (WindowKind.TRAPEZOID, 0.2), (WindowKind.SQUARE, None)]
FAMILY_IDS = [kind.value for kind, _ in FAMILIES]


@pytest.mark.parametrize("kind, n", FAMILIES, ids=FAMILY_IDS)
@settings(max_examples=8, deadline=None)
@given(args=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=6))
def test_bound_value_array_matches_scalar_calls(kind, n, args):
    args = np.sort(args)
    r = bound_value(kind, n, args)
    assert isinstance(r, np.ndarray) and r.shape == args.shape
    scalars = [bound_value(kind, n, float(a)) for a in args]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_array_equal(r, scalars)
    np.testing.assert_array_equal(bound_value(kind, n, args.reshape(-1, 1)), r.reshape(-1, 1))
    assert np.all(r <= 0.0)
    # every bracket is certified to within bound_tol, so two neighbours
    # may invert by at most twice that
    bracket = 10.0 ** (r / 10.0)
    assert np.all(np.diff(bracket) >= -2.0 * QuadratureConfig().bound_tol)


@pytest.mark.parametrize("kind, n", FAMILIES, ids=FAMILY_IDS)
@settings(max_examples=8, deadline=None)
@given(
    good=st.lists(st.floats(1e-3, 1.0), max_size=4),
    bad=st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
                  st.just(math.nan)),
    where=st.integers(0, 4),
)
def test_curve_value_names_first_element_outside_unit_interval(kind, n, good, bad, where):
    curve = QiCurve(kind, Variant.WITH_PI, n=n, allow_unstable=True)
    fts = good[:where] + [bad] + good[where:] + [0.0]
    with pytest.raises(ValueError, match=re.escape(f"ft must lie in (0, 1], got {bad}")):
        curve_value(curve, np.array(fts))


# --- variant and family orderings -------------------------------------------

def test_variant_ordering_gaussian():
    g_paper = QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI)
    g_marecki = QiCurve(WindowKind.GAUSSIAN, Variant.NO_PI)
    for ft in np.arange(0.05, 0.50, 0.05):
        assert curve_value(g_paper, float(ft)) > curve_value(g_marecki, float(ft))


def test_trapezoid_more_negative_for_smaller_n():
    for ft in (0.1, 0.3):
        values = [
            curve_value(QiCurve(WindowKind.TRAPEZOID, Variant.WITH_PI, n=n), ft)
            for n in (0.001, 0.2, 1.0, 5.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


# --- error handling ----------------------------------------------------------

def test_bound_nonconvergence_reports_achieved():
    cfg = QuadratureConfig(bound_tol=1e-18)
    with pytest.raises(QuadratureError) as err:
        numeric_bound_detail(trapezoid_window(1.0, 0.001), SpectralFunction(omega0=1.0), cfg).r_db
    assert err.value.achieved is not None
    assert err.value.achieved > 1e-18


def test_bracket_consistency_guard():
    cfg = QuadratureConfig()
    with pytest.raises(ConsistencyError):
        _check_bracket(1.5, 0.0, cfg)
    _check_bracket(0.999999999, 0.0, cfg)  # fine


# --- context quantities -------------------------------------------------------

def test_ford_casimir_numeric_factor_ratio():
    ratio = (3.0 / (16.0 * math.pi**2)) / (math.pi**2 / 720.0)
    assert ratio == pytest.approx(1.386, abs=1e-3)
    assert f"{ratio:.2g}" == "1.4"
    # the same ratio realized through the two operations at t0 = a/c
    a = 100e-9
    assert ford_bound(a / C_LIGHT) / casimir_density(a) == pytest.approx(ratio, rel=1e-12)


def test_ford_bound_value_and_scaling():
    t0 = 1e-15
    expected = -(3.0 / (16.0 * math.pi**2)) * HBAR * C_LIGHT / (C_LIGHT * t0) ** 4
    assert ford_bound(t0) == pytest.approx(expected, rel=1e-15)
    assert ford_bound(t0) < 0
    assert ford_bound(2 * t0) == pytest.approx(ford_bound(t0) / 16.0, rel=1e-14)
    with pytest.raises(ValueError):
        ford_bound(0.0)


def test_casimir_density_value_and_scaling():
    a = 1e-6
    assert casimir_density(a) == pytest.approx(-(math.pi**2 / 720.0) * HBAR * C_LIGHT / a**4,
                                               rel=1e-15)
    assert casimir_density(2 * a) == pytest.approx(casimir_density(a) / 16.0, rel=1e-14)
    with pytest.raises(ValueError):
        casimir_density(-1.0)


def test_casimir_equivalence_time_scale():
    # a ~ 100 nm cavity corresponds to a sampling time of about 3e-16 s
    t0 = 100e-9 / C_LIGHT
    assert 3.0e-16 < t0 < 3.5e-16
