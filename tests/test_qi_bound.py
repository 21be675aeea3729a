"""Bound evaluation: closed forms, numeric paths, curves, context values.

The error function is checked against its own Maclaurin series evaluated
in 40-digit arithmetic; the numeric bound brackets are checked against
independently derived special-function forms (Si for the square window,
Fresnel quadrature for the trapezoid) and against a quadrature of the
window's own definition (``oracles``), and the Gauss-Kronrod rule of every
family against SciPy's ``quad`` on the same spectrum.
"""

import math
import re
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import oracles
from sqzqi import qi_bound
from sqzqi.qi_bound import (
    BOUND_TOL,
    BRACKET_FLOOR,
    MAX_INTERVALS,
    RETRY_INTERVALS,
    ConsistencyError,
    QiCurve,
    QuadratureError,
    SpectralFunction,
    SpectralShape,
    Variant,
    _G10_WEIGHTS,
    _K21_NODES,
    _K21_WEIGHTS,
    _bracket,
    _bracket_spectrum,
    _check_bracket,
    _gauss_hermite,
    _gauss_kronrod,
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
    SamplingWindow,
    WindowKind,
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
    (bracket,), (err,) = _bracket(gaussian_window(1.0), [arg])
    assert bracket == pytest.approx(erf_series(z), abs=1e-14) and err == 0.0
    expected = db(erf_series(z))
    assert bound_value(WindowKind.GAUSSIAN, None, arg) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("variant", list(Variant))
def test_closed_form_gaussian_db_strings_match_scipy_erf(variant):
    # math.erf and scipy.special.erf differ by an ulp or two at some points;
    # no 4-decimal dB string on the grid may show it
    grid = np.round(np.arange(0.005, 1.0001, 0.005), 10)
    for scale in np.round(np.arange(0.1, 1.0001, 0.05), 10):
        curve = QiCurve(WindowKind.GAUSSIAN, variant, scale=float(scale))
        got = [format_db(r) for r in sample_curve(curve, grid)]
        args = [phase_argument(variant, WindowKind.GAUSSIAN, ft, scale) for ft in grid.tolist()]
        erf = special.erf(math.sqrt(2.0) * np.array(args))
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
    # the Gaussian bound from the window's definition, by quadrature
    bracket, err = oracles.bracket(gaussian_window(1.0), 1.0)
    assert to_db(bracket) == pytest.approx(bound_value(WindowKind.GAUSSIAN, None, 1.0), abs=1e-7)
    assert 0.0 < bracket < 1.0
    assert err < 1e-7


@pytest.mark.parametrize("kind", [WindowKind.GAUSSIAN, WindowKind.LORENTZIAN_SQ],
                         ids=lambda k: k.value)
def test_oracle_bracket_matches_closed_form_or_raises(kind):
    # The window-definition quadrature is right within its own error
    # estimate, or raises, down to omega0*t0 = 1e-6, where the spectrum
    # is sampled at frequencies whose first cosine cycle is far wider than
    # the window.
    w = SamplingWindow(kind, 1.0)
    omega0 = np.logspace(-6.0, math.log10(50.0), 15)
    closed, _ = _bracket(w, omega0.tolist())
    certified = 0
    for o, want in zip(omega0.tolist(), closed):
        try:
            got, err = oracles.bracket(w, o)
        except QuadratureError as exc:
            assert exc.achieved > BOUND_TOL
            continue
        assert abs(got - want) <= err, o
        certified += 1
    assert certified > 0


@settings(max_examples=12, deadline=None)
@given(arg=st.floats(1e-3, 50.0))
def test_bracket_stays_in_unit_interval(arg):
    for maker in (gaussian_window, lorentzian_sq_window, square_window):
        res = numeric_bound_detail(maker(1.0), SpectralFunction(omega0=arg))
        assert 0.0 < res.bracket <= 1.0


# each closed-form family with a phase argument whose bracket is just above
# the floor (the square's bracket is about omega0*t0/pi there)
@pytest.mark.parametrize("kind, finite", [(WindowKind.GAUSSIAN, 1e-15),
                                          (WindowKind.LORENTZIAN_SQ, 1e-15),
                                          (WindowKind.SQUARE, 4e-15)],
                         ids=["gaussian", "lorentzian2", "square"])
def test_floor_holds_for_every_method(kind, finite):
    # the closed form and the quadrature reference alike
    w = SamplingWindow(kind, 1.0)
    assert bound_value(kind, None, 1e-16) == -math.inf
    assert numeric_bound_detail(w, SpectralFunction(omega0=1e-16)).r_db == -math.inf
    r = bound_value(kind, None, finite)
    (bracket,), _ = _bracket(w, [finite])
    assert math.isfinite(r) and to_db(bracket) == r
    detail = numeric_bound_detail(w, SpectralFunction(omega0=finite))
    assert math.isfinite(detail.r_db) and to_db(detail.bracket) == detail.r_db
    assert detail.bracket == pytest.approx(bracket, rel=4 * np.finfo(float).eps, abs=0)


@pytest.mark.parametrize("omega_t0", [1e-300, 1e-160, 1e-15, 3.14e-15])
def test_square_sentinel_edge(omega_t0):
    # the square's bracket is omega0*t0/pi to rounding up to the floor, so
    # it reads -inf up to omega0*t0 = pi*1e-15, about 3.14e-15
    (bracket,), _ = _bracket(square_window(1.0), [omega_t0])
    assert bracket == pytest.approx(omega_t0 / math.pi, rel=4 * np.finfo(float).eps, abs=0)
    assert bound_value(WindowKind.SQUARE, None, omega_t0) == -math.inf
    assert bound_value(WindowKind.SQUARE, None, [0.0, 5e-324]) == [-math.inf] * 2
    assert math.isfinite(bound_value(WindowKind.SQUARE, None, 3.15e-15))


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
    # the window-definition quadrature against the Si formula, and the
    # SPECTRUM bracket against both; the sweep below covers SPECTRUM alone
    quadrature, _ = oracles.bracket(square_window(1.0), omega0_dt)
    assert quadrature == pytest.approx(square_bracket_oracle(omega0_dt), abs=1e-9)
    res = numeric_bound_detail(square_window(1.0), SpectralFunction(omega0=omega0_dt))
    assert res.bracket == pytest.approx(quadrature, abs=1e-9)


@pytest.mark.parametrize("omega0_dt", [2400.0, 2500.0, 3000.0, 1e4, 1e5, 1e6])
def test_square_far_field_bracket_vs_si_oracle(omega0_dt):
    # 200 intervals leave an error estimate above the gate here, though the
    # bracket is right to 1e-15; the retry's estimate holds the true error
    w = square_window(1.0)
    _, first_err = _gauss_kronrod(w, omega0_dt, MAX_INTERVALS)
    assert first_err > BOUND_TOL
    res = numeric_bound_detail(w, SpectralFunction(omega0=omega0_dt))
    assert res.bracket_error <= BOUND_TOL
    assert abs(res.bracket - square_bracket_oracle(omega0_dt)) <= res.bracket_error


def test_square_spectrum_bracket_vs_si_oracle_sweep():
    omega0 = np.logspace(-3.0, math.log10(50.0), 60)
    bracket, _ = _bracket_spectrum(square_window(1.0), omega0.tolist())
    for o, b in zip(omega0.tolist(), bracket):
        assert b == pytest.approx(square_bracket_oracle(o), rel=1e-13), o


# Si's power series runs below 2 and its continued fraction from 2 on: the
# points straddle that split and reach both ends of the float range.
SI_POINTS = [5e-324, 1e-300, 1e-8, 0.5, 1.0, 1.9999999999999998, 2.0, 2.0000000000000004,
             2.5, 10.0, 1e3, 2e6, 1e17, 1e100, 1e300]


def test_si_vs_sici_and_mpmath():
    eps = np.finfo(float).eps
    for x in SI_POINTS + np.logspace(-8.0, 9.0, 171).tolist():
        with mpmath.workdps(40):
            want = float(mpmath.si(x))
        got = qi_bound._si(x)
        assert got == pytest.approx(want, rel=8 * eps, abs=0), x
        assert got == pytest.approx(special.sici(x)[0], rel=8 * eps, abs=0), x


def test_square_closed_form_vs_si_oracle_to_the_float_range():
    # where the quadrature could not certify (past about 1.6e6) as well
    omega0 = np.logspace(-10.0, 300.0, 311).tolist()
    bracket, err = _bracket(square_window(1.0), omega0)
    assert err == [0.0] * len(omega0)
    for o, b in zip(omega0, bracket):
        assert b == pytest.approx(square_bracket_oracle(o), rel=8 * np.finfo(float).eps, abs=0), o


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
        nested, nested_err = oracles.bracket(w, omega0)
        assert fast.bracket == pytest.approx(nested, rel=0, abs=1e-12)
        assert 0.0 < fast.bracket_error < nested_err


# --- the trapezoid's Gauss-Kronrod bracket ------------------------------------

@pytest.mark.parametrize("weights, degree", [(_K21_WEIGHTS, 31), (_G10_WEIGHTS, 19)],
                         ids=["K21", "G10"])
def test_gauss_kronrod_rules_integrate_polynomials_exactly(weights, degree):
    # int_{-1}^{1} x^d dx = 2/(d+1) for even d, 0 for odd d; exact up to
    # the rule's degree and no further
    def error(d):
        return abs(math.fsum(w * x**d for w, x in zip(weights, _K21_NODES))
                   - (2.0 / (d + 1) if d % 2 == 0 else 0.0))
    for d in range(degree + 1):
        assert error(d) <= 4 * np.finfo(float).eps, d
    assert error(degree + 1) > 1e-13


def test_trapezoid_bracket_matches_scipy_quad_on_the_fig8_grid():
    # the same closed-form spectrum through QUADPACK's qags, on every n of
    # fig 8 and both argument conventions of its F_T grid, and on the other
    # three families, whose SPECTRUM brackets run on the same engine
    fts = np.round(np.arange(0.02, 0.5001, 0.02), 10)
    omega0 = np.concatenate((math.pi * fts, fts))
    windows = [trapezoid_window(1.0, n) for n in TRAPEZOID_FAMILY]
    windows += [gaussian_window(1.0), lorentzian_sq_window(1.0), square_window(1.0)]
    for w in windows:
        bracket, err = _bracket_spectrum(w, omega0.tolist())
        for o, b in zip(omega0.tolist(), bracket):
            val, _ = integrate.quad(lambda u: sqrt_ft_squared(w, u), 0.0, o,
                                    epsabs=1e-15, epsrel=1e-13, limit=200)
            assert b == pytest.approx(4.0 * math.pi * val, rel=0, abs=1e-13), (w, o)
        assert max(err) < 1e-12


def panel_bracket(n: float, omega0: float) -> tuple[float, float]:
    """(bracket, error) of the trapezoid with a unit flat top: 4pi * int_0^omega0
    of the Fresnel oracle spectrum as Gauss-Legendre sums over equal panels
    at most pi/(2c) wide (c the half support), half a period of the
    spectrum's oscillation, so that every panel is smooth; the panels are
    summed exactly (math.fsum).  The error is the difference between the
    20- and the 12-node sums, plus 8 eps of the bracket for rounding.

    SciPy's adaptive quad, split only at pi/c * 2^k, was the reference
    once: at omega0 = 1e3, n = 10^1.5 it returned a bracket 2.6e-12 below
    this sum, with an error estimate of 8.8e-13 and an IntegrationWarning.
    """
    c = 0.5 + n
    edges = np.linspace(0.0, omega0, math.ceil(2.0 * omega0 * c / math.pi) + 1)
    half = 0.5 * np.diff(edges)
    sums = []
    for nodes in (20, 12):
        x, w = np.polynomial.legendre.leggauss(nodes)
        v = trapezoid_spectrum_oracle((edges[:-1] + half)[:, None] + half[:, None] * x, 1.0, n)
        sums.append(4.0 * math.pi * math.fsum((half * (v @ w)).tolist()))
    return sums[0], abs(sums[0] - sums[1]) + 8.0 * np.finfo(float).eps * sums[0]


def tail_bracket(n: float, omega0: float) -> tuple[float, float]:
    """(bracket, error bound) of the trapezoid with a unit flat top, from the
    leading term of its tail, for omega0 large against 1/L (L = n the side
    length, h = 1/(1 + n) the height).

    At large u the side terms of the root's spectrum leave
    sqrt(h/(8 pi L)) u^(-3/2) (sin uc - cos uc), whose square integrates to
    1 - bracket = h / (4 L omega0^2).  The next terms are of relative order
    2/(omega0 c), the oscillation of that square, and 0.21/(omega0 L), the
    square of the u^-2 term sqrt(h) cos(ub) / (2 pi L u^2) from the corner at
    the flat top's edge (b = 1/2); since L < c, 3/(omega0 L) of the leading
    term bounds them, plus eps for the rounding of 1 - tail.
    """
    tail = 1.0 / (4.0 * n * (1.0 + n) * omega0**2)
    return 1.0 - tail, 3.0 * tail / (omega0 * n) + np.finfo(float).eps


def trapezoid_bracket_reference(n: float, omega0: float) -> tuple[float, float]:
    """The panel sum up to omega0*c = 2e4 (c the half support), where it takes
    at most about 0.1 s; the tail term past it (omega0 * L >= 40 there for
    the n >= 1e-3 the tests draw)."""
    if omega0 * (0.5 + n) <= 2e4:
        return panel_bracket(n, omega0)
    return tail_bracket(n, omega0)


@pytest.mark.parametrize("n, omega0", [(1e-3, 3e4), (1.0, 1e4), (10**1.5, 600.0)])
def test_trapezoid_tail_term_matches_the_panel_sum(n, omega0):
    # the two branches of the reference agree where both apply
    panel, panel_err = panel_bracket(n, omega0)
    tail, tail_err = tail_bracket(n, omega0)
    assert abs(panel - tail) <= panel_err + tail_err


@settings(max_examples=25, deadline=None)
@given(log_omega0=st.floats(-6.0, 8.0), log_n=st.floats(-3.0, 10.0))
@example(log_omega0=3.0, log_n=1.5)  # the old quad reference was 2.6e-12 off here
@example(log_omega0=4.0, log_n=0.0)  # and 3.3e-11 here
# a retry that trusted every interval's estimate claimed 1.5e-9 here, off by 3.5e-9
@example(log_omega0=3.515625, log_n=0.0)
def test_trapezoid_bracket_is_right_or_raises_when_the_peak_is_narrow(log_omega0, log_n):
    # The spectrum's peak is about pi/c wide (c the half support), so for
    # large n or omega0 it is narrow next to [0, omega0]; the oscillating
    # tail then needs more intervals than the first pass has, and the
    # retry must certify the bracket or raise.
    omega0, n = 10.0**log_omega0, 10.0**log_n
    try:
        res = numeric_bound_detail(trapezoid_window(1.0, n), SpectralFunction(omega0=omega0))
    except QuadratureError as exc:
        assert exc.achieved > BOUND_TOL
        return
    assert 0.0 <= res.bracket <= 1.0
    ref, ref_err = trapezoid_bracket_reference(n, omega0)
    assert abs(res.bracket - ref) <= res.bracket_error + ref_err


@pytest.mark.parametrize("n, omega0", [(0.2, 1e7), (1e9, 0.5), (1e10, 0.5)])
def test_trapezoid_bracket_with_a_narrow_peak_certifies(n, omega0):
    # QUADPACK's qags once returned -75.4, -113.2 and -131.8 dB here with
    # small error estimates; the true brackets are within 1e-5 of 1.  200
    # intervals leave an error estimate above the gate, the retry certifies
    w = trapezoid_window(1.0, n)
    _, first_err = _gauss_kronrod(w, omega0, MAX_INTERVALS)
    assert first_err > BOUND_TOL
    res = numeric_bound_detail(w, SpectralFunction(omega0=omega0))
    assert res.bracket_error <= BOUND_TOL
    assert abs(res.bracket - 1.0) <= 1e-5
    assert bound_value(WindowKind.TRAPEZOID, n, omega0) == to_db(res.bracket)


def test_trapezoid_bracket_spends_its_whole_budget():
    # at n = 1, omega0 = 1186 the last pass wants more bisections than the
    # 200-interval budget has room for; bisecting the largest errors first
    # still certifies the bracket, where skipping the whole pass left an
    # error of 2.4e-7, above the bound gate
    w = trapezoid_window(1.0, 1.0)
    bracket, err = _gauss_kronrod(w, 1186.0, MAX_INTERVALS)
    ref, ref_err = panel_bracket(1.0, 1186.0)
    assert err <= BOUND_TOL
    assert abs(bracket - ref) <= err + ref_err


def test_trapezoid_bracket_memory_does_not_grow_with_the_grid():
    # elements are integrated one at a time, on floats: one array call over
    # a 50,000-point grid once peaked near 190 MB here.  Each added element
    # may grow the traced peak by 160 bytes at most, its input and output
    # floats included.
    def traced(omega):
        tracemalloc.start()
        try:
            r = bound_value(WindowKind.TRAPEZOID, 0.2, omega)
            return r, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 300
    _, peak = traced(np.linspace(1e-6, math.pi, n))
    omega = np.linspace(1e-6, math.pi, 4 * n)
    r, grown = traced(omega)
    assert grown - peak <= 3 * n * 160
    # neighbours change no bit
    for i in range(0, omega.size, 199):
        assert r[i] == bound_value(WindowKind.TRAPEZOID, 0.2, float(omega[i]))


def test_kronrod21_is_the_array_implementation_bit_for_bit():
    # one interval at a time on floats against all of them in one array
    # call: the same integral, error estimate and floor, bit for bit, up to
    # the estimate's power 1.5, which NumPy and libm may round 1 ulp apart
    # (the integrand uses only operations both round alike)
    def f(u):
        return 1.0 / (1.0 + u * u) + u

    lo = np.concatenate(([0.0], np.geomspace(1e-300, 1e3, 400)))
    want = oracles.kronrod21(f, lo[:-1], lo[1:])
    for i, (a, b) in enumerate(zip(lo[:-1].tolist(), lo[1:].tolist())):
        res, est, floor = _kronrod21(f, a, b)
        assert (res, floor) == (want[0][i], want[2][i]), (a, b)
        assert est == pytest.approx(want[1][i], rel=1e-12, abs=0), (a, b)


@settings(max_examples=40, deadline=None)
@given(log_n=st.floats(-3.0, 3.0), log_omega0=st.floats(-6.0, 3.0))
@example(log_n=0.0, log_omega0=math.log10(1186.0))  # spends its whole budget
@example(log_n=3.0, log_omega0=3.0)  # the narrowest peak drawn: a retry
def test_trapezoid_bracket_is_the_array_implementation_bit_for_bit(log_n, log_omega0):
    # the float quadrature against the NumPy one it replaced, first pass and
    # retry: equal brackets, error estimates within 1e-12 (the power 1.5 of
    # an interval's estimate may round 1 ulp apart)
    w = trapezoid_window(1.0, 10.0**log_n)
    omega0 = 10.0**log_omega0
    for budget, retry in ((MAX_INTERVALS, False), (RETRY_INTERVALS, True)):
        bracket, err = _gauss_kronrod(w, omega0, budget, retry=retry)
        (want,), (want_err,) = oracles.gauss_kronrod(w, np.array([omega0]), budget, retry=retry)
        assert bracket == want
        assert err == pytest.approx(want_err, rel=1e-12, abs=0)
        if err <= BOUND_TOL:
            break


def test_gauss_hermite_nodes_match_numpy():
    x, w = _gauss_hermite(61)
    want_x, want_w = np.polynomial.hermite.hermgauss(61)
    np.testing.assert_allclose(x[::-1], want_x, rtol=0, atol=1e-13)
    np.testing.assert_allclose(w[::-1], want_w, rtol=1e-11, atol=0)
    assert math.fsum(w) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("kind, n", [(WindowKind.GAUSSIAN, None), (WindowKind.TRAPEZOID, 0.2)])
def test_sequences_become_lists_of_floats(kind, n):
    # a NumPy array or NumPy scalars are turned into Python floats once, at
    # entry, so the evaluation never runs on NumPy scalar arithmetic
    args = [0.1, 0.5, 2.0]
    for given_args in (np.array(args), [np.float64(a) for a in args], tuple(args)):
        r = bound_value(kind, n, given_args)
        assert type(r) is list and all(type(v) is float for v in r)
        assert r == bound_value(kind, n, args)
    curve = QiCurve(kind, Variant.WITH_PI, n=n)
    r = curve_value(curve, np.array([0.1, 0.3]))
    assert r == curve_value(curve, [0.1, 0.3]) and all(type(v) is float for v in r)
    assert type(curve_value(curve, np.float64(0.3))) is float
    assert type(bound_value(kind, n, np.float64(0.5))) is float


def test_non_finite_bracket_raises():
    # a NaN bracket, or a NaN error estimate, fails the gate instead of
    # printing "R = nan dB"
    with pytest.raises(QuadratureError, match="achieved error estimate inf"):
        _check_bracket([0.5, math.nan], [0.0, 0.0])
    with pytest.raises(QuadratureError, match="achieved error estimate nan"):
        _check_bracket([0.5], [math.nan])
    with pytest.raises(QuadratureError, match="achieved error estimate nan"):
        _check_bracket([0.5, 0.5, math.nan], [math.nan, 1.0, 0.0])


def test_trapezoid_bracket_interval_budget():
    # too few intervals leave an honest, large error estimate, which the
    # bound gate turns into QuadratureError
    w = trapezoid_window(1.0, 5.0)
    (bracket,), (err,) = _bracket_spectrum(w, [50.0])
    coarse, coarse_err = _gauss_kronrod(w, 50.0, 10)
    assert err < 1e-12 and BOUND_TOL < coarse_err
    assert abs(coarse - bracket) <= coarse_err
    with pytest.raises(QuadratureError) as exc:
        _check_bracket([coarse], [coarse_err])
    assert exc.value.achieved == coarse_err


@pytest.mark.parametrize("budget, n, omega0", [(10, 1000.0, 2511.9), (12, 1000.0, 1258.9)])
def test_small_budget_keeps_the_fine_start(budget, n, omega0):
    # The starting breakpoints do not shrink with the budget: cut to half of
    # it, one rule spanned [16pi/c, omega0] here and claimed an error
    # thousands of times below its actual one.
    w = trapezoid_window(1.0, n)
    ref, ref_err = _gauss_kronrod(w, omega0, 20_000)
    bracket, err = _gauss_kronrod(w, omega0, budget)
    assert ref_err < 1e-11
    assert abs(bracket - ref) <= err


def test_curve_and_bound_value_take_no_interval_budget():
    # the budget is no setting: neither a curve nor bound_value takes one
    with pytest.raises(TypeError, match="max_intervals"):
        QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI, max_intervals=300)
    with pytest.raises(TypeError, match="max_intervals"):
        bound_value(WindowKind.GAUSSIAN, None, 1.0, max_intervals=300)


@pytest.mark.parametrize("budget", [10, RETRY_INTERVALS, np.int64(300)])
def test_interval_budget_limits_accepted(budget):
    # from the smallest budget the tests use to the retry's, the rule
    # certifies an easy bracket and agrees with the curve's first pass
    w = trapezoid_window(1.0, 0.2)
    bracket, err = _gauss_kronrod(w, 0.3 * math.pi, budget)
    (first,), (first_err,) = _bracket_spectrum(w, [0.3 * math.pi])
    assert err <= BOUND_TOL and abs(bracket - first) <= err + first_err
    curve = QiCurve(WindowKind.TRAPEZOID, Variant.WITH_PI, n=0.2)
    assert curve_value(curve, 0.3) == to_db(first)


def test_square_window_bracket_convergence_diagnostic():
    """Diagnostic, not an assertion of the unbounded-squeezing claim.

    The claim that the sharp window admits perfect squeezing independent
    of its width is not what the evaluated bracket shows: the bracket
    depends on omega0*dt and only tends to zero as that product shrinks.
    This records the convergence behavior (monotone decrease toward the
    sentinel, widths 1 down to 1e-8) with its quadrature error estimates.
    """
    widths = [10.0**-k for k in range(9)]
    brackets = []
    for dt in widths:
        res = numeric_bound_detail(square_window(dt), SpectralFunction(omega0=1.0))
        assert res.bracket_error < 1e-8
        brackets.append(res.bracket)
    assert all(b > 0 for b in brackets)
    assert all(a > b for a, b in zip(brackets, brackets[1:]))
    assert brackets[3] < 1e-3
    # small-width asymptote: bracket -> omega0*dt/pi, whose first
    # correction is of relative order (omega0*dt)^2
    assert brackets[3] == pytest.approx(1e-3 / math.pi, rel=1e-3)
    assert brackets[-1] == pytest.approx(1e-8 / math.pi, rel=1e-12, abs=0)


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


# The families with a closed-form bracket, written out apart from
# qi_bound._CLOSED_FORMS, which these tests check.
CLOSED_FORM_FAMILIES = {WindowKind.GAUSSIAN, WindowKind.LORENTZIAN_SQ, WindowKind.SQUARE}


# "closed_form" asks the dispatch, _bracket, which takes the closed form
# where the family has one (only the families above); "spectrum" takes the
# quadrature, _bracket_spectrum, that numeric_bound_detail takes too
@pytest.mark.parametrize("spectrum", [False, True], ids=["closed_form", "spectrum"])
@pytest.mark.parametrize("kind", list(WindowKind), ids=lambda k: k.value)
def test_method_table(kind, spectrum):
    n = 0.2 if kind is WindowKind.TRAPEZOID else None
    w = SamplingWindow(kind, 1.0, n)
    (bracket,), (err,) = (_bracket_spectrum(w, [1.0]) if spectrum
                          else _bracket(w, [1.0]))
    detail = numeric_bound_detail(w, SpectralFunction(omega0=1.0))
    assert bracket == pytest.approx(detail.bracket, abs=1e-9)
    closed_form = not spectrum and kind in CLOSED_FORM_FAMILIES
    assert (err == 0.0) == closed_form
    if not closed_form:
        assert err > 0.0 and bracket == detail.bracket
    if not spectrum:
        curve = QiCurve(kind, Variant.WITH_PI, n=n, allow_unstable=True)
        assert bound_value(kind, n, 1.0) == to_db(bracket)
        assert curve_value(curve, 1.0 / math.pi) == to_db(bracket)


def test_method_defaults():
    # curves and bound_value take the closed form where there is one, the
    # quadrature elsewhere; numeric_bound_detail always takes the quadrature
    for kind in WindowKind:
        n = 0.2 if kind is WindowKind.TRAPEZOID else None
        w = SamplingWindow(kind, 1.0, n)
        (quadrature,), _ = _bracket_spectrum(w, [1.0])
        detail = numeric_bound_detail(w, SpectralFunction(omega0=1.0))
        assert detail.bracket == quadrature and detail.bracket_error > 0.0
        if kind not in CLOSED_FORM_FAMILIES:
            curve = QiCurve(kind, Variant.WITH_PI, n=n, allow_unstable=True)
            assert bound_value(kind, n, 1.0) == to_db(quadrature)
            assert curve_value(curve, 1.0 / math.pi) == to_db(quadrature)


def test_curve_id_round_trip():
    cases = [
        QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI),
        QiCurve(WindowKind.LORENTZIAN_SQ, Variant.NO_PI, scale=1.0 / (3.0 * math.pi)),
        QiCurve(WindowKind.TRAPEZOID, Variant.WITH_PI, n=0.2),
        QiCurve(WindowKind.TRAPEZOID, Variant.NO_PI, n=0.001, scale=0.25),
        # exponents: "k5e-05" and "n1e-05" carry a hyphen of their own
        QiCurve(WindowKind.GAUSSIAN, Variant.WITH_PI, scale=0.00005),
        QiCurve(WindowKind.TRAPEZOID, Variant.NO_PI, n=0.00001),
        QiCurve(WindowKind.TRAPEZOID, Variant.WITH_PI, n=2e-7, scale=3e-6),
        QiCurve(WindowKind.LORENTZIAN_SQ, Variant.NO_PI, scale=1.5e7),
    ]
    for curve in cases:
        parsed = parse_curve_id(curve.curve_id)
        assert parsed.window is curve.window
        assert parsed.variant is curve.variant
        assert parsed.n == curve.n
        # ids carry the scale at 6 significant digits
        assert parsed.scale == pytest.approx(curve.scale, rel=1e-5)
    assert parse_curve_id("gaussian-paper").curve_id == "gaussian-paper"
    assert parse_curve_id("gaussian-paper-k5e-05").curve_id == "gaussian-paper-k5e-05"
    # n and k in either order give the same curve
    for cid in ("trapezoid-marecki-k0.25-n0.2", "trapezoid-marecki-n0.2-k0.25"):
        assert parse_curve_id(cid) == QiCurve(WindowKind.TRAPEZOID, Variant.NO_PI,
                                              n=0.2, scale=0.25)
    for bad in ("gaussian", "gaussian-paperx", "box-paper", "gaussian-paper-z3",
                "trapezoid-paper-nnan", "trapezoid-paper-ninf", "gaussian-paper-k5e",
                "trapezoid-paper-nx", "gaussian-paper-k5e-", "gaussian-paper-k-5",
                "gaussian-paper-",
                # a repeated token is refused rather than the last one winning
                "trapezoid-paper-n0.2-n0.3", "gaussian-paper-k0.5-k0.5"):
        with pytest.raises(ValueError):
            parse_curve_id(bad)
    # a number that does not parse is named with its token and id
    for bad, token in (("gaussian-paper-k5e", "k5e"), ("trapezoid-paper-nx", "nx")):
        with pytest.raises(ValueError) as exc:
            parse_curve_id(bad)
        assert str(exc.value) == f"malformed curve id token {token!r} in {bad!r}"


def test_curve_csv_format_and_sentinel():
    curve = QiCurve(WindowKind.SQUARE, Variant.WITH_PI, allow_unstable=True)
    text = curve_csv(curve, [1e-16, 0.1])
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


# --- sequences through the one evaluation core --------------------------------

# one member of each family, each by its default method
FAMILIES = [(WindowKind.GAUSSIAN, None), (WindowKind.LORENTZIAN_SQ, None),
            (WindowKind.TRAPEZOID, 0.2), (WindowKind.SQUARE, None)]
FAMILY_IDS = [kind.value for kind, _ in FAMILIES]


@pytest.mark.parametrize("kind, n", FAMILIES, ids=FAMILY_IDS)
def test_sample_curve_gives_the_floats_of_curve_value(kind, n):
    curve = QiCurve(kind, Variant.NO_PI, n=n, allow_unstable=True)
    grid = [0.3, 1e-3, 1.0, 0.1]
    values = sample_curve(curve, grid)
    assert type(values) is list and all(type(v) is float for v in values)
    assert values == [curve_value(curve, ft) for ft in grid]
    assert sample_curve(curve, tuple(grid)) == sample_curve(curve, np.array(grid)) == values


@pytest.mark.parametrize("kind, n", FAMILIES, ids=FAMILY_IDS)
@settings(max_examples=8, deadline=None)
@given(args=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=6))
def test_bound_value_array_matches_scalar_calls(kind, n, args):
    args = sorted(args)
    r = bound_value(kind, n, args)
    assert type(r) is list and len(r) == len(args)
    scalars = [bound_value(kind, n, a) for a in args]
    assert all(type(v) is float for v in scalars)
    assert r == scalars
    # a tuple and a 1-d array are sequences too
    assert bound_value(kind, n, tuple(args)) == bound_value(kind, n, np.array(args)) == r
    assert all(v <= 0.0 for v in r)
    # every bracket is certified to within BOUND_TOL, so two neighbours
    # may invert by at most twice that
    bracket = [10.0 ** (v / 10.0) for v in r]
    assert all(b - a >= -2.0 * BOUND_TOL for a, b in zip(bracket, bracket[1:]))


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

def test_bound_nonconvergence_reports_achieved(monkeypatch):
    monkeypatch.setattr(qi_bound, "BOUND_TOL", 1e-18)
    with pytest.raises(QuadratureError) as err:
        numeric_bound_detail(trapezoid_window(1.0, 0.001), SpectralFunction(omega0=1.0)).r_db
    assert err.value.achieved is not None
    assert err.value.achieved > 1e-18


def test_bracket_consistency_guard():
    with pytest.raises(ConsistencyError):
        _check_bracket([1.5], [0.0])
    _check_bracket([0.999999999], [0.0])  # fine


def test_exact_brackets_still_get_the_range_check():
    # a zero error estimate, a closed form's, spares no bracket the checks
    _check_bracket([0.0, 0.5, 1.0], [0.0] * 3)
    for bad in ([0.5, 1.5], [math.inf]):
        with pytest.raises(ConsistencyError):
            _check_bracket(bad, [0.0] * len(bad))
    for bad in ([0.5, math.nan], [-math.inf]):
        with pytest.raises(QuadratureError, match="achieved error estimate inf"):
            _check_bracket(bad, [0.0] * len(bad))


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
