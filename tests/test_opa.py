"""OPA variance model: extremal variances, product identity, squeezed
fraction, the lossless limit, and the frequency-weighted fraction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzqi import opa
from sqzqi.opa import (
    NoSqueezingError,
    OpaParams,
    SqueezingPoint,
    effective_ft,
    extremal_product,
    extremes,
    ideal_bound,
    ideal_r_db,
    s_minus,
    s_plus,
    squeezed_fraction,
    variance,
)
from sqzqi.qi_bound import ConsistencyError
from sqzqi.units import to_db


def ideal_ft(s_min: float) -> float:
    """Squeezed fraction of a lossless OPA at squeezing depth s_min: the exact
    inverse of ``ideal_bound`` on 0 < s_min < 1, from substituting
    s_plus = 1/s_minus into the fraction formula."""
    if not 0.0 < s_min < 1.0:
        raise ValueError(f"s_minus must lie in (0, 1), got {s_min}")
    return 1.0 - (2.0 / math.pi) * math.atan(math.sqrt(1.0 / s_min))


xs = st.floats(1e-3, 0.999)
betas = st.floats(1e-3, 1.0)
ws = st.floats(0.0, 50.0)


# --- variance and extremes ---------------------------------------------------

def test_variance_squeezed_example():
    p = OpaParams(x=0.8, beta=0.975, w=0.0, theta=math.pi / 2)
    s = variance(p)
    assert s == pytest.approx(1.0 - 3.12 / 3.24, rel=1e-12)
    assert s == pytest.approx(0.03704, abs=5e-6)
    assert to_db(s) == pytest.approx(-14.31, abs=5e-3)


def test_variance_antisqueezed_example():
    p = OpaParams(x=0.8, beta=0.975, w=0.0, theta=0.0)
    s = variance(p)
    assert s == pytest.approx(79.0, rel=1e-12)
    assert to_db(s) == pytest.approx(18.98, abs=5e-3)


def test_variance_perfect_squeezing_limit():
    # x -> 1, beta = 1, on resonance: squeezed variance tends to zero
    p = OpaParams(x=1.0 - 1e-9, beta=1.0, w=0.0, theta=math.pi / 2)
    assert variance(p) == pytest.approx(0.0, abs=1e-8)


def test_extremes_equal_variance_at_extremal_phases():
    for x, beta, w in [(0.8, 0.975, 0.0), (0.3, 0.9, 0.7), (0.05, 1.0, 2.0)]:
        assert s_minus(x, beta, w) == variance(OpaParams(x, beta, w, math.pi / 2))
        assert s_plus(x, beta, w) == variance(OpaParams(x, beta, w, 0.0))


@settings(max_examples=60)
@given(x=xs, beta=betas, w=ws, theta=st.floats(-6.0, 6.0))
def test_variance_is_pi_periodic(x, beta, w, theta):
    a = variance(OpaParams(x, beta, w, theta))
    b = variance(OpaParams(x, beta, w, theta + math.pi))
    assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


@settings(max_examples=60)
@given(x=xs, beta=betas, w=st.floats(0.0, 5.0))
def test_squeeze_antisqueeze_bracket_vacuum(x, beta, w):
    assert s_minus(x, beta, w) < 1.0 < s_plus(x, beta, w)


def test_extremes_vanish_far_off_resonance():
    assert s_minus(0.8, 0.975, 1e6) == pytest.approx(1.0, abs=1e-11)
    assert s_plus(0.8, 0.975, 1e6) == pytest.approx(1.0, abs=1e-11)


def test_params_validation():
    for bad in (dict(x=0.0), dict(x=1.0), dict(x=-0.5), dict(beta=0.0),
                dict(beta=1.5), dict(w=-1.0)):
        kwargs = dict(x=0.5, beta=0.9, w=0.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            OpaParams(**kwargs)


# --- uncertainty product -----------------------------------------------------

def test_product_is_one_for_lossless():
    for x in np.linspace(0.05, 0.95, 10):
        for w in np.linspace(0.0, 3.0, 10):
            product = s_minus(float(x), 1.0, float(w)) * s_plus(float(x), 1.0, float(w))
            assert abs(product - 1.0) <= 1e-12


@settings(max_examples=80)
@given(x=xs, beta=betas, w=ws)
@example(x=0.9921875, beta=1.0, w=0.0)  # near threshold, where 1 - 4*beta*x/a cancels
def test_product_matches_closed_form(x, beta, w):
    direct = s_minus(x, beta, w) * s_plus(x, beta, w)
    assert direct == pytest.approx(extremal_product(x, beta, w), rel=1e-12)


def test_product_example_value():
    # lossy case: the product exceeds 1 (0.03704 * 79 ~ 2.926)
    product = s_minus(0.8, 0.975, 0.0) * s_plus(0.8, 0.975, 0.0)
    assert product == pytest.approx(2.926, abs=5e-4)
    assert product > 1.0


def test_squeezing_point_container():
    point = extremes(0.8, 0.975, 0.0)
    assert isinstance(point, SqueezingPoint)
    assert point.s_minus == pytest.approx(0.037037, abs=1e-6)
    assert point.s_plus == pytest.approx(79.0, rel=1e-12)
    assert point.ft == pytest.approx(0.0705, abs=5e-4)
    with pytest.raises(ValueError):
        SqueezingPoint(s_minus=1.2, s_plus=2.0, ft=0.1)
    with pytest.raises(ValueError):
        SqueezingPoint(s_minus=0.5, s_plus=1.5, ft=0.6)


# --- squeezed fraction -------------------------------------------------------

def test_squeezed_fraction_example():
    ft = squeezed_fraction(0.8, 0.975, 0.0)
    assert ft == pytest.approx(1.0 - (2.0 / math.pi) * math.atan(9.0), rel=1e-12)
    assert ft == pytest.approx(0.0705, abs=5e-4)


@settings(max_examples=60)
@given(x=xs, w=ws, b1=betas, b2=betas)
def test_squeezed_fraction_is_beta_independent(x, w, b1, b2):
    assert abs(squeezed_fraction(x, b1, w) - squeezed_fraction(x, b2, w)) <= 1e-14


@pytest.mark.parametrize("x", [1.0 - 1e-6, 1.0 - 1e-12, 0.9999999999999999])
def test_squeezed_fraction_keeps_its_accuracy_near_threshold(x):
    # at w = 0 the reduced ratio is ((1+x)/(1-x))^2, so F_T is exactly
    # (2/pi) * atan((1-x)/(1+x)); 1 - (2/pi) * atan((1+x)/(1-x)) cancels
    exact = (2.0 / math.pi) * math.atan((1.0 - x) / (1.0 + x))
    assert squeezed_fraction(x, 1.0, 0.0) == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert extremes(x, 1.0).ft == squeezed_fraction(x, 1.0, 0.0)


def test_squeezed_fraction_limit_small_pump():
    assert squeezed_fraction(1e-6, 1.0, 0.0) == pytest.approx(0.5, abs=1e-4)


def test_squeezed_fraction_limit_far_off_resonance():
    ft = squeezed_fraction(0.8, 1.0, 1e5)
    assert ft < 0.5
    assert ft == pytest.approx(0.5, abs=1e-4)


@settings(max_examples=40)
@given(x=xs, w=st.floats(0.0, 20.0), dw=st.floats(0.01, 5.0))
def test_squeezed_fraction_increases_with_frequency(x, w, dw):
    assert squeezed_fraction(x, 1.0, w + dw) > squeezed_fraction(x, 1.0, w)


@settings(max_examples=40)
@given(x=st.floats(1e-3, 0.9), dx=st.floats(1e-3, 0.099), w=ws)
def test_squeezed_fraction_decreases_with_pump(x, dx, w):
    assert squeezed_fraction(x + dx, 1.0, w) < squeezed_fraction(x, 1.0, w)


# --- lossless bound ----------------------------------------------------------

def test_ideal_round_trip_pinned_values():
    for s in (0.001, 0.01, 0.1, 0.5, 0.99):
        assert ideal_bound(ideal_ft(s)) == pytest.approx(s, abs=1e-12)


def test_ideal_examples():
    assert ideal_bound(0.14) == pytest.approx(math.tan(0.07 * math.pi) ** 2, rel=1e-12)
    assert ideal_bound(0.14) == pytest.approx(0.04997, abs=5e-5)
    assert to_db(ideal_bound(0.14)) == pytest.approx(-13.01, abs=5e-3)
    assert ideal_ft(ideal_bound(0.14)) == pytest.approx(0.14, abs=1e-12)
    # shrinking duration allows unbounded squeezing depth
    assert ideal_bound(1e-9) < 1e-15
    # in dB the limit saturates at 0 dB from F_T = 1/2 on
    assert ideal_r_db(0.14) == to_db(ideal_bound(0.14))
    assert ideal_r_db(0.5) == ideal_r_db(0.7) == 0.0


def test_ideal_domains():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            ideal_bound(bad)
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            ideal_ft(bad)


@settings(max_examples=60)
@given(ft=st.floats(1e-4, 0.4999))
def test_ideal_round_trip_property(ft):
    assert ideal_ft(ideal_bound(ft)) == pytest.approx(ft, abs=1e-12)


# --- Lorentzian squeezing spectrum -------------------------------------------

@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("beta", [0.7, 1.0])
def test_squeezing_depth_spectrum_is_lorentzian(x, beta):
    # (1 - S-) * ((1+x)^2 + w^2) must not depend on w
    consts = [(1.0 - s_minus(x, beta, w)) * ((1.0 + x) ** 2 + w * w)
              for w in np.linspace(0.0, 10.0, 25)]
    ref = consts[0]
    assert ref == pytest.approx(4.0 * beta * x, rel=1e-12)
    for c in consts[1:]:
        assert c == pytest.approx(ref, rel=1e-12)


# --- effective squeezed fraction ---------------------------------------------

def test_effective_ft_degenerate_range():
    x, beta = 0.8, 0.975
    assert effective_ft(x, beta, 1e-9) == pytest.approx(
        squeezed_fraction(x, beta, 0.0), abs=1e-9)


@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("w_max", [0.5, 1.0, 3.0])
def test_effective_ft_exceeds_resonant_fraction(x, w_max):
    beta = 0.975
    assert effective_ft(x, beta, w_max) >= squeezed_fraction(x, beta, 0.0)


def test_effective_ft_pinned_regression():
    # frozen after first computation; the 10x-resolution oracle agrees
    value = effective_ft(0.8, 0.975, 1.0)
    assert value == pytest.approx(0.1716545614611848, abs=1e-9)
    ws = np.linspace(0.0, 1.0, 20001)
    weight = 1.0 - np.array([s_minus(0.8, 0.975, w) for w in ws.tolist()])
    ft = np.array([squeezed_fraction(0.8, 0.975, w) for w in ws.tolist()])
    oracle = np.trapezoid(weight * ft, ws) / np.trapezoid(weight, ws)
    assert value == pytest.approx(oracle, abs=1e-7)


def test_effective_ft_validation_and_zero_weight(monkeypatch):
    with pytest.raises(ValueError):
        effective_ft(0.8, 0.975, 0.0)
    monkeypatch.setattr(opa, "s_minus", lambda x, beta, w: 1.0)  # no squeezing depth
    with pytest.raises(NoSqueezingError):
        effective_ft(0.8, 0.975, 1.0)


# --- floats in, floats out --------------------------------------------------

def test_scalar_in_gives_float_out():
    for value in (*(f(0.5, b, w) for f in (s_minus, s_plus, extremal_product, squeezed_fraction)
                    for b, w in ((0.9, 0.3), (1, 0))),
                  ideal_bound(0.2), ideal_r_db(0.2), ideal_r_db(0.7), ideal_r_db(1), ideal_ft(0.3)):
        assert type(value) is float


@pytest.mark.parametrize("call, bad, what", [
    (lambda v: s_minus(v, 0.9), 1.25, "pump ratio x"),
    (lambda v: s_minus(v, 0.9), math.nan, "pump ratio x"),
    (lambda v: s_plus(0.5, v), -0.5, "efficiency beta"),
    (lambda v: s_plus(0.5, v), math.nan, "efficiency beta"),
    (lambda v: extremal_product(0.5, 0.9, v), math.nan, "normalized frequency w"),
    (lambda v: extremal_product(0.5, 0.9, v), math.inf, "normalized frequency w"),
    (lambda v: squeezed_fraction(0.5, 1.0, v), -2.0, "normalized frequency w"),
    (lambda v: ideal_bound(v), 0.75, "ft must lie in"),
    (lambda v: ideal_r_db(v), -0.125, "ft must lie in"),
    (lambda v: ideal_r_db(v), math.nan, "ft must lie in"),
    (lambda v: ideal_ft(v), 1.5, "s_minus must lie in"),
], ids=["x", "x-nan", "beta", "beta-nan", "w-nan", "w-inf", "w", "ideal_bound", "ideal_r_db",
        "ideal_r_db-nan", "ideal_ft"])
def test_out_of_domain_element_is_named(call, bad, what):
    with pytest.raises(ValueError, match=what) as exc:
        call(bad)
    assert str(exc.value).endswith(f"got {bad}")


def test_w_squared_overflow_is_the_far_off_resonance_limit():
    # w*w overflows to inf, which is the limit itself
    assert s_minus(0.8, 0.975, 1e200) == s_plus(0.8, 0.975, 1e200) == 1.0


def test_ideal_r_db_saturates_per_element():
    got = [ideal_r_db(ft) for ft in (0.1, 0.5, 0.3, 0.7, 1.0)]
    assert [got[1], got[3], got[4]] == [0.0, 0.0, 0.0]
    assert [got[0], got[2]] == [to_db(ideal_bound(0.1)), to_db(ideal_bound(0.3))]
    assert got[0] < 0.0 and got[2] < 0.0


def test_self_check_names_the_first_bad_element(monkeypatch):
    w = [0.0, 0.5, 1.0, 2.0, 3.0]
    corrupted = [s_plus(0.8, 0.975, v) for v in w]
    corrupted[2] = corrupted[4] = 2.0
    # S+ is evaluated once per call, and a grid caller's comprehension stops
    # at the first element that fails
    values = iter(corrupted)
    monkeypatch.setattr(opa, "_s_plus", lambda x, beta, b: next(values))
    ratio = (2.0 - 1.0) / (1.0 - s_minus(0.8, 0.975, 1.0))
    with pytest.raises(ConsistencyError, match=f"ratio {ratio!r} disagrees"):
        [squeezed_fraction(0.8, 0.975, v) for v in w]


@pytest.mark.parametrize("rel", [0.0, 5e-13, 9.9e-13, 1.0e-12, 1.01e-12, 3e-12])
def test_self_check_keeps_math_isclose_semantics(monkeypatch, rel):
    x, beta = 0.8, 0.975
    w = [0.0, 0.5, 1.0, 2.0, 7.0]
    sm = [s_minus(x, beta, v) for v in w]
    perturbed = [1.0 + (s_plus(x, beta, v) - 1.0) * (1.0 + rel * d)
                 for v, d in zip(w, [0.0, 1.0, -1.0, 0.5, 1.0])]
    eps = 2.220446049250313e-16
    bad = []
    for sp_i, sm_i, w_i in zip(perturbed, sm, w):
        ratio = (sp_i - 1.0) / (1.0 - sm_i)
        reduced = ((1.0 + x) * (1.0 + x) + w_i * w_i) / ((1.0 - x) * (1.0 - x) + w_i * w_i)
        slack = 64.0 * eps * reduced * (1.0 + 1.0 / (sp_i - 1.0) + 1.0 / (1.0 - sm_i))
        if not math.isclose(ratio, reduced, rel_tol=1e-12, abs_tol=slack):
            bad.append(ratio)
    values = iter(perturbed)  # S+ is evaluated once per call, in order
    monkeypatch.setattr(opa, "_s_plus", lambda x, beta, b: next(values))
    if not bad:
        [squeezed_fraction(x, beta, v) for v in w]
    else:
        with pytest.raises(ConsistencyError, match=f"ratio {bad[0]!r} disagrees"):
            [squeezed_fraction(x, beta, v) for v in w]
