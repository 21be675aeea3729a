"""Window catalogue: normalization, spectra, and their cross-checks.

Closed-form spectra for the smooth families are checked against symbolic
Fourier transforms (sympy); every family's closed form is checked against
the cosine transform of sqrt(f) by quadrature (``oracles``), and that
quadrature, for the sharp families, against independently derived
special-function forms (a sinc^2 for the square window, Fresnel integrals
by SciPy for the trapezoid).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import oracles
from oracles import evaluate_window
from sqzqi import qi_bound
from sqzqi.qi_bound import BOUND_TOL, QuadratureError, bound_value
from sqzqi.windows import (
    SamplingWindow,
    WindowKind,
    _fresnel,
    gaussian_window,
    lorentzian_sq_window,
    sqrt_ft_squared,
    square_window,
    trapezoid_window,
)

ALL_KINDS = list(WindowKind)


def make_window(kind: WindowKind, t0: float, n: float = 0.5) -> SamplingWindow:
    if kind is WindowKind.TRAPEZOID:
        return trapezoid_window(t0, n)
    return SamplingWindow(kind, t0)


# --- independently derived spectra used as oracles -----------------------

def square_spectrum_oracle(u, dt: float):
    """|FT|^2 of the square window's root: sin^2(u dt/2) / (pi^2 u^2 dt)."""
    u = np.asarray(u, dtype=float)
    safe = np.where(u == 0.0, 1.0, u)
    out = np.where(u == 0.0, dt / (4.0 * math.pi**2),
                   np.sin(safe * dt / 2.0) ** 2 / (math.pi**2 * safe * safe * dt))
    return float(out) if out.ndim == 0 else out


def trapezoid_spectrum_amp_oracle(u, ts: float, n: float):
    """FT amplitude of the trapezoid's root via Fresnel integrals.

    Flat top contributes sqrt(h)*sin(u b)/u; each sloping side is the
    integral of sqrt(s/L) cos(u(c-s)), reduced to Fresnel C/S by the
    substitution s = v^2.
    """
    b = ts / 2.0
    L = n * ts
    c = b + L
    h = 1.0 / (ts * (1.0 + n))
    u = np.asarray(u, dtype=float)
    safe = np.where(u == 0.0, 1.0, u)
    S, C = special.fresnel(np.sqrt(2.0 * safe * L / math.pi))
    pref = np.sqrt(math.pi / (2.0 * safe))
    cf, sf = pref * C, pref * S
    A = (math.sqrt(L) * np.sin(safe * L) - sf) / safe
    B = (cf - math.sqrt(L) * np.cos(safe * L)) / safe
    side = math.sqrt(h / L) * (np.cos(safe * c) * A + np.sin(safe * c) * B)
    out = np.where(u == 0.0, math.sqrt(h) * (b + 2.0 * L / 3.0) / math.pi,
                   (math.sqrt(h) * np.sin(safe * b) / safe + side) / math.pi)
    return float(out) if out.ndim == 0 else out


def trapezoid_spectrum_oracle(u, ts: float, n: float):
    amp = trapezoid_spectrum_amp_oracle(u, ts, n)
    return amp * amp


# --- pointwise window values ---------------------------------------------

def test_gaussian_peak_value():
    assert evaluate_window(gaussian_window(1.0), 0.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)


def test_lorentzian_sq_peak_value():
    assert evaluate_window(lorentzian_sq_window(1.0), 0.0) == pytest.approx(
        2.0 / math.pi, rel=1e-14)


def test_square_box_values():
    w = square_window(2.0)
    assert evaluate_window(w, 0.9) == 0.5
    assert evaluate_window(w, 1.1) == 0.0
    assert evaluate_window(w, -0.9) == 0.5


def test_trapezoid_shape():
    w = trapezoid_window(1.0, 0.5)
    h = 1.0 / 1.5
    assert evaluate_window(w, 0.0) == pytest.approx(h, rel=1e-14)
    assert evaluate_window(w, 0.5) == pytest.approx(h, rel=1e-14)   # end of flat top
    assert evaluate_window(w, 0.75) == pytest.approx(h / 2, rel=1e-14)  # mid-slope
    assert evaluate_window(w, 1.0) == 0.0
    assert evaluate_window(w, 2.0) == 0.0


@pytest.mark.parametrize("kind, t", [
    (WindowKind.GAUSSIAN, 1e160),
    (WindowKind.GAUSSIAN, 1e300),
    (WindowKind.LORENTZIAN_SQ, 1e100),
    (WindowKind.LORENTZIAN_SQ, 1e300),
])
def test_smooth_window_far_tail_is_zero_without_overflow_warning(kind, t):
    # t*t overflows to inf here; the suite turns a RuntimeWarning into an error
    w = make_window(kind, 1.0)
    assert evaluate_window(w, t) == 0.0
    assert evaluate_window(w, -t) == 0.0
    np.testing.assert_array_equal(evaluate_window(w, np.array([-t, 0.0, t]))[[0, 2]], 0.0)


def test_windows_are_nonnegative_and_even():
    ts = np.linspace(-7.0, 7.0, 401)
    for kind in ALL_KINDS:
        w = make_window(kind, 1.3, n=0.7)
        vals = evaluate_window(w, ts)
        assert np.all(vals >= 0.0)
        np.testing.assert_allclose(vals, vals[::-1], rtol=0, atol=1e-15)


def test_invalid_construction():
    with pytest.raises(ValueError):
        gaussian_window(0.0)
    with pytest.raises(ValueError):
        gaussian_window(-1.0)
    with pytest.raises(ValueError):
        trapezoid_window(1.0, 0.0)
    with pytest.raises(ValueError):
        trapezoid_window(1.0, -0.5)
    with pytest.raises(ValueError):
        SamplingWindow(WindowKind.TRAPEZOID, 1.0)  # missing n
    with pytest.raises(ValueError):
        SamplingWindow(WindowKind.GAUSSIAN, 1.0, n=0.5)  # spurious n


def test_window_is_an_immutable_value_checked_on_every_change():
    # built and replaced through one check; compared and hashed by its fields
    w = trapezoid_window(1.0, 0.2)
    for bad, message in ((dict(t0=0.0), "t0 must be a positive real, got 0.0"),
                         (dict(n=-1.0), "trapezoid requires side-length ratio n > 0"),
                         (dict(kind=WindowKind.GAUSSIAN), "gaussian window takes no side")):
        with pytest.raises(ValueError, match=message):
            SamplingWindow(**dict(w._asdict(), **bad))
        with pytest.raises(ValueError, match=message):
            w._replace(**bad)
    assert w._replace(n=0.5) == trapezoid_window(1.0, 0.5)
    with pytest.raises(AttributeError):
        w.t0 = 2.0
    twin = SamplingWindow(kind=WindowKind.TRAPEZOID, t0=1.0, n=0.2)
    assert twin == w and hash(twin) == hash(w)
    assert gaussian_window(1.0) == SamplingWindow(WindowKind.GAUSSIAN, 1.0, None)
    with pytest.raises(TypeError, match="width"):
        SamplingWindow(WindowKind.GAUSSIAN, 1.0, width=2.0)


# --- normalization --------------------------------------------------------

def integrated_area(w: SamplingWindow) -> float:
    if math.isinf(w.half_support):
        val, _ = integrate.quad(lambda t: evaluate_window(w, t), -np.inf, np.inf,
                                epsabs=1e-13, epsrel=1e-12)
    else:
        edges = oracles.segment_edges(w)
        val = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            part, _ = integrate.quad(lambda t: evaluate_window(w, t), lo, hi,
                                     epsabs=1e-14, epsrel=1e-13)
            val += part
        val *= 2.0
    return val


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("t0", [0.05, 0.7, 1.0, 3.0, 40.0])
def test_unit_area_grid(kind, t0):
    w = make_window(kind, t0, n=0.4)
    assert abs(integrated_area(w) - 1.0) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(t0=st.floats(0.05, 20.0), n=st.floats(0.05, 6.0))
def test_unit_area_trapezoid_property(t0, n):
    assert abs(integrated_area(trapezoid_window(t0, n)) - 1.0) <= 1e-9


# --- closed-form spectra vs symbolic Fourier transforms -------------------

@pytest.fixture(scope="module")
def symbolic_spectra():
    sympy = pytest.importorskip("sympy")
    t, om, tau = sympy.symbols("t omega tau", positive=True)
    root_gauss = sympy.exp(-t**2 / (4 * tau**2)) / sympy.sqrt(tau * sympy.sqrt(2 * sympy.pi))
    root_lor2 = sympy.sqrt(2 / sympy.pi) * tau ** sympy.Rational(3, 2) / (t**2 + tau**2)
    spectra = {}
    for kind, root in ((WindowKind.GAUSSIAN, root_gauss), (WindowKind.LORENTZIAN_SQ, root_lor2)):
        # even integrand: FT = (1/pi) * int_0^inf root(t) cos(omega t) dt
        ft = sympy.integrate(root * sympy.cos(om * t), (t, 0, sympy.oo)) / sympy.pi
        spectra[kind] = sympy.lambdify((om, tau), sympy.simplify(ft**2), "math")
    return spectra


@pytest.mark.parametrize("kind", [WindowKind.GAUSSIAN, WindowKind.LORENTZIAN_SQ])
def test_analytic_spectrum_matches_symbolic(symbolic_spectra, kind):
    for t0 in (0.5, 1.0, 2.5):
        for u in (0.1, 0.5, 1.0, 2.0):
            expected = symbolic_spectra[kind](u, t0)
            got = sqrt_ft_squared(make_window(kind, t0), u)
            assert got == pytest.approx(expected, rel=1e-10)


def test_gaussian_spectrum_closed_form_shape():
    # t0/(pi*sqrt(2pi)) * exp(-2 t0^2 u^2)
    for t0 in (0.5, 1.0, 3.0):
        for u in (0.0, 0.5, 1.0, 2.0):
            expected = t0 / (math.pi * math.sqrt(2 * math.pi)) * math.exp(-2 * (t0 * u) ** 2)
            assert sqrt_ft_squared(gaussian_window(t0), u) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("u", [1e155, 1e300])
def test_gaussian_spectrum_is_zero_where_its_exponent_overflows(u):
    # (t0*u)^2 passes the float range: 0, not OverflowError or a warning
    assert sqrt_ft_squared(gaussian_window(1.0), u) == 0.0


def test_lorentzian_sq_spectrum_closed_form_shape():
    # t0/(2pi) * exp(-2 t0 |u|)
    for t0 in (0.5, 1.0, 3.0):
        for u in (0.0, 0.5, 1.0, 2.0):
            expected = t0 / (2 * math.pi) * math.exp(-2 * t0 * abs(u))
            assert sqrt_ft_squared(lorentzian_sq_window(t0), u) == pytest.approx(expected, rel=1e-14)


# --- closed forms vs the window-definition quadrature -------------------------

@pytest.mark.parametrize("kind", [WindowKind.GAUSSIAN, WindowKind.LORENTZIAN_SQ])
@pytest.mark.parametrize("u_over_t0", [0.0, 1e-9, 1e-6, 0.5, 1.0, 2.0])
def test_numeric_matches_analytic_smooth_families(kind, u_over_t0):
    for t0 in (0.7, 1.0):
        w = make_window(kind, t0)
        u = u_over_t0 / t0
        assert oracles.sqrt_ft_squared(w, u) == pytest.approx(sqrt_ft_squared(w, u), rel=1e-8)


@pytest.mark.parametrize("u", [0.0, 0.7, 3.0, 17.3, 123.4])
def test_square_spectrum_vs_sinc_oracle(u):
    # the closed form is the sinc oracle's own formula, so the quadrature
    # of the window's definition is checked against both
    for dt in (0.5, 1.0, 2.0):
        w = square_window(dt)
        quadrature = oracles.sqrt_ft_squared(w, u)
        assert quadrature == pytest.approx(square_spectrum_oracle(u, dt), rel=1e-8, abs=1e-18)
        assert sqrt_ft_squared(w, u) == pytest.approx(quadrature, rel=1e-8, abs=1e-18)


@pytest.mark.parametrize("n", [0.1, 0.2, 1.0, 5.0])
@pytest.mark.parametrize("u", [0.0, 0.7, 3.0, 17.3])
def test_trapezoid_spectrum_vs_fresnel_oracle(n, u):
    # the closed form is the Fresnel oracle's own formula, so the quadrature
    # of the window's definition is checked against both
    w = trapezoid_window(1.0, n)
    quadrature = oracles.sqrt_ft_squared(w, u)
    assert quadrature == pytest.approx(trapezoid_spectrum_oracle(u, 1.0, n), rel=1e-8, abs=1e-18)
    assert sqrt_ft_squared(w, u) == pytest.approx(quadrature, rel=1e-8, abs=1e-18)


@pytest.mark.parametrize("n", [1e-8, 0.001, 0.2, 1.0, 5.0])
def test_trapezoid_default_spectrum_is_fresnel_closed_form(n):
    w = trapezoid_window(1.0, n)
    for u in (0.0, 1e-9, 0.7, 3.0, 17.3, 123.4):
        assert sqrt_ft_squared(w, u) == pytest.approx(
            trapezoid_spectrum_oracle(u, 1.0, n), rel=1e-12, abs=1e-30)


@pytest.mark.parametrize("n", [0.001, 0.2, 1e10])
def test_trapezoid_spectrum_takes_its_limit_at_tiny_frequencies(n):
    # the formula's 1/u factors overflow below about 1e-308, where the
    # spectrum has long equalled its u = 0 value
    w = trapezoid_window(1.0, n)
    at_zero = sqrt_ft_squared(w, 0.0)
    for u in (5e-324, 1e-310, 1e-200, -1e-310):
        assert sqrt_ft_squared(w, u) == at_zero
    assert sqrt_ft_squared(w, 1e-9 / (0.5 + n)) == pytest.approx(at_zero, rel=1e-15)


# --- the Fresnel integrals behind the trapezoid spectrum ----------------------

def test_fresnel_matches_mpmath():
    # 30-digit references over [0, 40], both sides of the series/auxiliary
    # switch at z^2 = 2.5625.  Above it the phase pi z^2/2 is rounded, which
    # costs about eps*z/2 in absolute terms; allow 2*eps*max(1, z).
    z = np.linspace(0.0, 40.0, 401).tolist() + [1.6, 1.6008, 1.6009, 1e-8, 1e-3]
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for zi in z:
            s, c = _fresnel(zi)
            tol = 2.0 * eps * max(1.0, zi)
            assert abs(s - float(mpmath.fresnels(zi))) <= tol, zi
            assert abs(c - float(mpmath.fresnelc(zi))) <= tol, zi


def test_fresnel_power_series_is_scipy_bit_for_bit():
    # below z^2 = 2.5625 both run Cephes' rational approximation, operation
    # for operation
    z = np.linspace(0.0, 1.6, 20001)
    s_ref, c_ref = special.fresnel(z)
    assert [_fresnel(zi) for zi in z.tolist()] == list(zip(s_ref.tolist(), c_ref.tolist()))


def test_fresnel_far_range_raises_no_warning():
    # the phase pi z^2/2 is still finite here, and the asymptotic branch
    # alone is evaluated (the series, which overflows past z ~ 1e77, is not)
    for z in (1e78, 1e150):
        assert _fresnel(z) == pytest.approx((0.5, 0.5), abs=1e-70)


def test_fresnel_is_the_array_implementation_bit_for_bit():
    # every branch, its edges, and the ends of the float range: a phase
    # that overflows (z past about 1.3e154) gives NaN, as NumPy's cos(inf)
    rng = np.random.default_rng(5)
    z = np.concatenate((rng.uniform(0.0, 1.6, 2000), 10.0 ** rng.uniform(-8.0, 6.0, 4000),
                        [0.0, 5e-324, 1.6, 1.6008, 1.6009, 36974.0, np.nextafter(36974.0, 1e9),
                         1e78, 1e150, 1e160, np.inf]))
    S, C = oracles.fresnel(z)
    want = list(zip(S.tolist(), C.tolist()))
    got = [_fresnel(zi) for zi in z.tolist()]
    assert np.array_equal(got, want, equal_nan=True)
    assert all(type(v) is float for pair in got for v in pair)
    assert all(map(math.isnan, _fresnel(1e160) + _fresnel(math.inf)))


@pytest.mark.parametrize("n", [5e-324, 1e-3, 0.2, 1e3, 1e10, 1e300])
def test_trapezoid_spectrum_is_the_array_implementation_bit_for_bit(n):
    # the side length from the bottom to the top of the float range, and
    # frequencies from the u = 0 limit to an overflowing u*L (NaN)
    w = trapezoid_window(1.0, n)
    rng = np.random.default_rng(6)
    u = np.concatenate((10.0 ** rng.uniform(-12.0, 8.0, 3000),
                        [0.0, 5e-324, 1e-310, 1e-100, 1e155, 1e300, 1.7e308]))
    want = oracles.trapezoid_spectrum(w, u).tolist()
    got = [sqrt_ft_squared(w, ui) for ui in u.tolist()]
    assert np.array_equal(got, want, equal_nan=True)
    assert all(type(v) is float for v in got)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_zero_frequency_is_squared_mean_of_root(kind):
    # At omega = 0 the transform is (1/2pi) * integral sqrt(f) dt.
    w = make_window(kind, 1.4, n=0.8)
    if math.isinf(w.half_support):
        area, _ = integrate.quad(lambda t: oracles.sqrt_window(w, t), -np.inf, np.inf)
    else:
        area = 0.0
        edges = oracles.segment_edges(w)
        for lo, hi in zip(edges[:-1], edges[1:]):
            part, _ = integrate.quad(lambda t: oracles.sqrt_window(w, t), lo, hi)
            area += part
        area *= 2.0
    expected = (area / (2.0 * math.pi)) ** 2
    assert sqrt_ft_squared(w, 0.0) == pytest.approx(expected, rel=1e-9)
    assert sqrt_ft_squared(w, 0.0) >= 0.0


# --- Parseval -------------------------------------------------------------

def dense_spectrum_integral(value_fn, omega_max: float, du: float) -> float:
    total = 0.0
    lo = 0.0
    while lo < omega_max:
        hi = min(lo + 200.0, omega_max)
        us = np.arange(lo, hi + du, du)
        total += float(np.trapezoid(value_fn(us), us))
        lo = hi
    return 2.0 * total  # even spectrum


def test_parseval_smooth_families():
    # integral over the real line of |(f^{1/2})_FT|^2 equals 1/(2pi)
    for kind in (WindowKind.GAUSSIAN, WindowKind.LORENTZIAN_SQ):
        for t0 in (0.5, 1.0, 2.0):
            w = make_window(kind, t0)
            half, _ = integrate.quad(lambda u: sqrt_ft_squared(w, u), 0.0, np.inf,
                                     epsabs=1e-13, epsrel=1e-12)
            assert 2.0 * half == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-6)


@pytest.mark.parametrize("n", [0.2, 1.0])
def test_parseval_trapezoid(n):
    # Dense integration uses the Fresnel form; the per-point numeric
    # implementation is pinned to it at 1e-8 above.  1/u^3 spectral tail:
    # Richardson-extrapolate the truncated integrals.
    f = lambda u: trapezoid_spectrum_oracle(u, 1.0, n)
    i1 = dense_spectrum_integral(f, 600.0, 0.002)
    i2 = dense_spectrum_integral(f, 1200.0, 0.002)
    extrapolated = i2 + (i2 - i1) / 3.0
    assert extrapolated == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-6)


@pytest.mark.parametrize(
    "case",
    [("square", None), ("trapezoid", 0.1)],
    ids=["square", "trapezoid-n0.1"],
)
def test_parseval_slow_decay_families(case):
    # slow spectral decay (1/u^2-type tails): tolerance deliberately
    # loosened to 1e-3 for these two families
    kind, n = case
    if kind == "square":
        f = lambda u: square_spectrum_oracle(u, 1.0)
    else:
        f = lambda u: trapezoid_spectrum_oracle(u, 1.0, n)
    val = dense_spectrum_integral(f, 3000.0, 0.002)
    assert val == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-3)


# --- scaling and symmetry --------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(t0=st.floats(0.1, 8.0), u=st.floats(0.0, 5.0))
def test_scaling_law_smooth_families(t0, u):
    # width-t0 spectrum at u equals t0 times the unit-width spectrum at u*t0
    for kind in (WindowKind.GAUSSIAN, WindowKind.LORENTZIAN_SQ):
        ref = sqrt_ft_squared(make_window(kind, 1.0), u * t0)
        val = sqrt_ft_squared(make_window(kind, t0), u)
        assert val == pytest.approx(t0 * ref, rel=1e-12)


@pytest.mark.parametrize("kind", [WindowKind.SQUARE, WindowKind.TRAPEZOID])
def test_scaling_law_sharp_families(kind):
    t0 = 2.37
    for u in (0.3, 1.1, 4.0):
        ref = sqrt_ft_squared(make_window(kind, 1.0, n=0.5), u * t0)
        val = sqrt_ft_squared(make_window(kind, t0, n=0.5), u)
        assert val == pytest.approx(t0 * ref, rel=1e-8)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_spectrum_symmetry(kind):
    w = make_window(kind, 1.0, n=0.5)
    for u in (0.3, 1.7, 6.2):
        assert sqrt_ft_squared(w, -u) == pytest.approx(sqrt_ft_squared(w, u), rel=1e-10)


# --- error reporting ------------------------------------------------------

def test_nonconvergence_reports_achieved_error(monkeypatch):
    # the trapezoid spectrum's narrow peak at n = 0.2, omega0*t0 = 1e7 needs
    # more Gauss-Kronrod intervals than a retry cut to 400 has
    monkeypatch.setattr(qi_bound, "RETRY_INTERVALS", 400)
    with pytest.raises(QuadratureError) as err:
        bound_value(WindowKind.TRAPEZOID, 0.2, 1e7)
    assert err.value.achieved is not None
    assert err.value.achieved > BOUND_TOL
    assert "achieved error estimate" in str(err.value)
