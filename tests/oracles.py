"""The window definitions and their quadrature: the reference the closed
forms are tested against; and the array implementation of the trapezoid
bracket, the reference its float port is tested against bit for bit.

Nothing in the first part uses a closed-form spectrum.  Windows are even, so
(f^{1/2})_FT(omega) is real and equals (1/pi) * integral_0^inf sqrt(f(t))
cos(omega t) dt; that cosine transform is computed from the window itself
with SciPy's QUADPACK, and the bound bracket 4pi * integral_0^{omega0}
|(f^{1/2})_FT|^2 by a second quadrature over it.  Every result carries its
error estimate, and one that cannot be certified raises QuadratureError
rather than being returned.

The second part is the trapezoid's Fresnel spectrum and its adaptive
Gauss-Kronrod bracket as sqzqi computed them on NumPy arrays, many
omega0 and intervals per call, before it moved to Python floats.
"""

import math

import numpy as np
from scipy import integrate

from sqzqi.qi_bound import (ABS_TOL as BRACKET_ABS_TOL, BOUND_TOL, QuadratureError,
                             _EPS, _G10_WEIGHTS, _K21_NODES, _K21_WEIGHTS, _TINY)
from sqzqi.windows import SamplingWindow, WindowKind

ABS_TOL = 1e-12
# a spectrum value is certified to REL_TOL of itself or of the spectral
# scale t0/(2pi), whichever is larger
REL_TOL = 1e-8
LIMIT = 200


def evaluate_window(w: SamplingWindow, t):
    """Evaluate f(t); accepts scalars or arrays, returns matching shape."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    with np.errstate(over="ignore"):  # t*t overflows to inf far in a tail, giving f = 0
        if w.kind is WindowKind.GAUSSIAN:
            out = np.exp(-(t * t) / (2.0 * w.t0 * w.t0)) / (w.t0 * math.sqrt(2.0 * math.pi))
        elif w.kind is WindowKind.LORENTZIAN_SQ:
            out = (2.0 / math.pi) * w.t0**3 / (t * t + w.t0 * w.t0) ** 2
        elif w.kind is WindowKind.SQUARE:
            out = np.where(at <= 0.5 * w.t0, 1.0 / w.t0, 0.0)
        else:
            b = 0.5 * w.t0
            c = w.half_support
            h = 1.0 / (w.t0 * (1.0 + w.n))  # unit area: h * t0 * (1 + n)
            slope = np.clip((c - at) / (w.n * w.t0), 0.0, 1.0)
            out = h * np.where(at <= b, 1.0, slope)
    return float(out) if out.ndim == 0 else out


def sqrt_window(w: SamplingWindow, t):
    """sqrt(f(t)); accepts scalars or arrays."""
    return np.sqrt(evaluate_window(w, t))


def segment_edges(w: SamplingWindow) -> tuple[float, ...]:
    """The kinks of a compact window's f on t >= 0, up to its support's edge."""
    if w.kind is WindowKind.SQUARE:
        return (0.0, 0.5 * w.t0)
    return (0.0, 0.5 * w.t0, w.half_support)


def _pieces(w: SamplingWindow, u: float) -> tuple[float, ...]:
    """Where the cosine transform at u is split: at the kinks of a compact
    window; for an unbounded one, so that a finite rule covers the spectral
    peak before the semi-infinite rule takes the rest.

    The semi-infinite rule alone integrates cycle by cycle, each pi/u long;
    at small u the window's mass sits in a sliver of the first cycle and is
    missed, with a small error estimate (the Gaussian's bracket at
    omega0*t0 = 1e-3 read 2.8e-42 instead of 1.6e-3).  The squared
    Lorentzian's root decays only like 1/t^2, so its finite part runs past
    20pi/u, ten cycles, in decades from 50*t0: one finite rule from 50*t0
    to 20pi/u missed that tail (5e-3 of the amplitude) below u*t0 = 1e-8.
    """
    if math.isfinite(w.half_support):
        return segment_edges(w)
    if u < 1e-300:
        return (0.0, math.inf)
    if w.kind is WindowKind.GAUSSIAN:
        return (0.0, 12.0 * w.t0, math.inf)
    edges = [0.0, 50.0 * w.t0]
    while edges[-1] < 20.0 * math.pi / u:
        edges.append(10.0 * edges[-1])
    return (*edges, math.inf)


def sqrt_ft(w: SamplingWindow, omega: float) -> tuple[float, float]:
    """(f^{1/2})_FT(omega) and its error estimate, from the window's definition."""
    u = abs(omega)
    g = lambda t: float(sqrt_window(w, t))
    total = total_err = 0.0
    edges = _pieces(w, u)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if u < 1e-300:
            val, err = integrate.quad(g, lo, hi, epsabs=ABS_TOL, epsrel=1e-12, limit=LIMIT)
        else:
            # limlst bounds the cycles of the semi-infinite rule only
            val, err = integrate.quad(g, lo, hi, weight="cos", wvar=u, epsabs=ABS_TOL,
                                      epsrel=1e-12, limlst=100, limit=LIMIT, full_output=1)[:2]
        total += val
        total_err += err
    return total / math.pi, total_err / math.pi


def sqrt_ft_squared(w: SamplingWindow, omega: float) -> float:
    """|(f^{1/2})_FT(omega)|^2; QuadratureError when it cannot be certified."""
    amp, amp_err = sqrt_ft(w, omega)
    value, value_err = amp * amp, 2.0 * abs(amp) * amp_err
    scale = w.t0 / (2.0 * math.pi)
    if not value_err <= max(ABS_TOL, REL_TOL * abs(value), REL_TOL * scale):
        raise QuadratureError(f"oracle spectrum did not converge for {w.kind.value} "
                              f"at omega={omega:g}", achieved=value_err)
    return value


def bracket(w: SamplingWindow, omega0: float) -> tuple[float, float]:
    """(4pi * integral_0^{omega0} |(f^{1/2})_FT|^2, its error estimate).

    The spectrum is a quadrature at every outer node, and its worst
    pointwise error is charged over the whole interval.  An error estimate
    above the library's bound gate raises QuadratureError.
    """
    inner_err = 0.0

    def V(u: float) -> float:
        nonlocal inner_err
        amp, err = sqrt_ft(w, u)
        inner_err = max(inner_err, 2.0 * abs(amp) * err)
        return amp * amp

    val, err = integrate.quad(V, 0.0, omega0, epsabs=ABS_TOL, epsrel=1e-11,
                              limit=LIMIT, full_output=1)[:2]
    value, error = 4.0 * math.pi * val, 4.0 * math.pi * (err + inner_err * omega0)
    if not error <= BOUND_TOL:
        raise QuadratureError(f"oracle bracket did not converge for {w.kind.value} "
                              f"at omega0={omega0:g}", achieved=error)
    return value, error


# --- the array implementation of the trapezoid bracket ------------------------

# Cephes ``fresnl`` (S. L. Moshier), the routine behind scipy.special.fresnel:
# rational approximations in x^4 for x^2 < 2.5625, the auxiliary functions f
# and g as rationals in 1/(pi x^2)^2 up to x = 36974, the leading asymptotic
# terms beyond.  Coefficients highest power first.
_FRESNEL_SN = (-2.99181919401019853726e3, 7.08840045257738576863e5, -6.29741486205862506537e7,
               2.54890880573376359104e9, -4.42979518059697779103e10, 3.18016297876567817986e11)
_FRESNEL_SD = (2.81376268889994315696e2, 4.55847810806532581675e4, 5.17343888770096400730e6,
               4.19320245898111231129e8, 2.24411795645340920940e10, 6.07366389490084639049e11)
_FRESNEL_CN = (-4.98843114573573548651e-8, 9.50428062829859605134e-6, -6.45191435683965050962e-4,
               1.88843319396703850064e-2, -2.05525900955013891793e-1, 9.99999999999999998822e-1)
_FRESNEL_CD = (3.99982968972495980367e-12, 9.15439215774657478799e-10, 1.25001862479598821474e-7,
               1.22262789024179030997e-5, 8.68029542941784300606e-4, 4.12142090722199792936e-2,
               1.00000000000000000118e0)
_FRESNEL_FN = (4.21543555043677546506e-1, 1.43407919780758885261e-1, 1.15220955073585758835e-2,
               3.45017939782574027900e-4, 4.63613749287867322088e-6, 3.05568983790257605827e-8,
               1.02304514164907233465e-10, 1.72010743268161828879e-13, 1.34283276233062758925e-16,
               3.76329711269987889006e-20)
_FRESNEL_FD = (7.51586398353378947175e-1, 1.16888925859191382142e-1, 6.44051526508858611005e-3,
               1.55934409164153020873e-4, 1.84627567348930545870e-6, 1.12699224763999035261e-8,
               3.60140029589371370404e-11, 5.88754533621578410010e-14, 4.52001434074129701496e-17,
               1.25443237090011264384e-20)
_FRESNEL_GN = (5.04442073643383265887e-1, 1.97102833525523411709e-1, 1.87648584092575249293e-2,
               6.84079380915393090172e-4, 1.15138826111884280931e-5, 9.82852443688422223854e-8,
               4.45344415861750144738e-10, 1.08268041139020870318e-12, 1.37555460633261799868e-15,
               8.36354435630677421531e-19, 1.86958710162783235106e-22)
_FRESNEL_GD = (1.47495759925128324529e0, 3.37748989120019970451e-1, 2.53603741420338795122e-2,
               8.14679107184306179049e-4, 1.27545075667729118702e-5, 1.04314589657571990585e-7,
               4.60680728146520428211e-10, 1.10273215066240270757e-12, 1.38796531259578871258e-15,
               8.39158816283118707363e-19, 1.86958710162783236342e-22)



def _polevl(x, coef):
    """Horner's rule, highest power first (Cephes ``polevl``; ``p1evl`` is
    this with a leading 1.0, since 1.0*x rounds to x)."""
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def fresnel(z):
    """(S(z), C(z)) = integral_0^z (sin, cos)(pi t^2/2) dt for z >= 0, a
    float or an array, element by element in Cephes' order of operations.

    Every branch is evaluated on every element and the right one kept, so
    an element's value does not depend on its neighbours.
    """
    x = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x2 = x * x
        t = x2 * x2
        s_series = x * x2 * _polevl(t, _FRESNEL_SN) / _polevl(t, (1.0,) + _FRESNEL_SD)
        c_series = x * _polevl(t, _FRESNEL_CN) / _polevl(t, _FRESNEL_CD)
        t = math.pi * x2
        u = 1.0 / (t * t)
        t = 1.0 / t
        f = 1.0 - u * _polevl(u, _FRESNEL_FN) / _polevl(u, (1.0,) + _FRESNEL_FD)
        g = t * _polevl(u, _FRESNEL_GN) / _polevl(u, (1.0,) + _FRESNEL_GD)
        t = (math.pi / 2.0) * x2
        cos, sin = np.cos(t), np.sin(t)
        t = math.pi * x
        s_aux = 0.5 - (f * cos + g * sin) / t
        c_aux = 0.5 + (f * sin - g * cos) / t
        phase = math.pi * x * x / 2.0
        s_far = 0.5 - 1.0 / (math.pi * x) * np.cos(phase)
        c_far = 0.5 + 1.0 / (math.pi * x) * np.sin(phase)
    series, far = x2 < 2.5625, x > 36974.0
    S = np.where(series, s_series, np.where(far, s_far, s_aux))
    C = np.where(series, c_series, np.where(far, c_far, c_aux))
    return S, C


def trapezoid_spectrum(w: SamplingWindow, u):
    """|(f^{1/2})_FT(u)|^2 of the trapezoid at u >= 0, a float or an array,
    through Fresnel integrals (see sqzqi.windows for the derivation)."""
    u = np.asarray(u, dtype=float)
    b = 0.5 * w.t0
    L = w.n * w.t0
    c = b + L
    h = 1.0 / (w.t0 * (1.0 + w.n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        limit = u * c < 1e-100
        safe = np.where(limit, 1.0, u)
        S, C = fresnel(np.sqrt(2.0 * safe * L / math.pi))
        pref = np.sqrt(math.pi / (2.0 * safe))
        A = (math.sqrt(L) * np.sin(safe * L) - pref * S) / safe
        B = (pref * C - math.sqrt(L) * np.cos(safe * L)) / safe
        side = math.sqrt(h / L) * (np.cos(safe * c) * A + np.sin(safe * c) * B)
        amp = (math.sqrt(h) * np.sin(safe * b) / safe + side) / math.pi
        amp = np.where(limit, math.sqrt(h) * (b + 2.0 * L / 3.0) / math.pi, amp)
        return amp * amp


def kronrod21(f, lo, hi):
    """QUADPACK ``dqk21`` on each interval [lo, hi] of two arrays: the
    21-point Kronrod integral, its error estimate and its rounding floor.
    ``f`` is called on all 21 nodes of every interval at once; each row is
    summed node by node in one fixed order."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = f(center[:, None] + half[:, None] * _K21_NODES)
    resk = resg = resabs = 0.0
    for j in range(21):
        resk = resk + _K21_WEIGHTS[j] * fx[:, j]
        resg = resg + _G10_WEIGHTS[j] * fx[:, j]
        resabs = resabs + _K21_WEIGHTS[j] * np.abs(fx[:, j])
    reskh = 0.5 * resk
    resasc = 0.0
    for j in range(21):
        resasc = resasc + _K21_WEIGHTS[j] * np.abs(fx[:, j] - reskh)
    resabs, resasc = resabs * half, resasc * half
    est = np.abs((resk - resg) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.where((resasc != 0.0) & (est != 0.0),
                       resasc * np.minimum(1.0, (200.0 * est / resasc) ** 1.5), est)
    floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return resk * half, est, floor


def gauss_kronrod(w: SamplingWindow, omega0, max_intervals: int, retry: bool = False):
    """(bracket, error), two arrays, of the trapezoid at each element of the
    1-d array ``omega0``: every element's intervals in one set of arrays,
    each pass bisecting, per element, the intervals over their share of
    the tolerance, largest error first within the element's budget (see
    sqzqi.qi_bound._gauss_kronrod for the rules)."""
    c = w.half_support
    step = math.pi / c
    last = step * 2.0**53
    edges = []
    for o in omega0.tolist():
        points, p = [0.0], step
        while p < o and p <= last:
            points.append(p)
            p *= 2.0
        edges.append(points + [o])
    owner = np.repeat(np.arange(omega0.size), [len(e) - 1 for e in edges])
    lo = np.array([x for e in edges for x in e[:-1]])
    hi = np.array([x for e in edges for x in e[1:]])
    abs_tol, wide = ((BOUND_TOL / (40.0 * math.pi), 4.0 * step) if retry
                     else (BRACKET_ABS_TOL, math.inf))

    def rule(lo, hi):
        res, est, floor = kronrod21(lambda u: trapezoid_spectrum(w, u), lo, hi)
        return res, np.where(hi - lo > wide, np.maximum(est, res), est), floor

    res, est, floor = rule(lo, hi)
    while True:
        total = np.bincount(owner, res, omega0.size)
        error = np.bincount(owner, np.maximum(est, floor), omega0.size)
        tol = np.maximum(abs_tol, 1e-11 * np.abs(total))
        active = (error > tol)[owner]
        split = active & (est > floor) & (est * omega0[owner] > tol[owner] * (hi - lo))
        room = max_intervals - np.bincount(owner, minlength=omega0.size)
        candidates = np.flatnonzero(split)
        candidates = candidates[np.lexsort((-est[candidates], owner[candidates]))]
        by = owner[candidates]
        rank = np.arange(candidates.size) - np.searchsorted(by, by)
        split[candidates[rank >= room[by]]] = False
        if not split.any():
            break
        counts = 1 + split
        first = np.cumsum(counts) - counts
        owner, lo, hi = (np.repeat(a, counts) for a in (owner, lo, hi))
        res, est, floor = (np.repeat(a, counts) for a in (res, est, floor))
        left = first[split]
        mid = 0.5 * (lo[left] + hi[left])
        hi[left] = lo[left + 1] = mid
        new = np.concatenate((left, left + 1))
        res[new], est[new], floor[new] = rule(lo[new], hi[new])
    with np.errstate(invalid="ignore"):
        return np.minimum(4.0 * math.pi * total, 1.0), 4.0 * math.pi * error
