"""Normalized time-sampling windows and the spectra of their square roots.

The bound machinery downstream consumes ``|(f^{1/2})_FT(omega)|^2``, the
squared magnitude of the Fourier transform of sqrt(f(t)) under the
convention

    g_FT(omega) = (1/2pi) * integral g(t) exp(-i*omega*t) dt .

Every window integrates to exactly 1 over the real line, which pins the
spectrum normalization: the full-line integral of ``|(f^{1/2})_FT|^2``
equals 1/(2pi).

Four even families are provided:

* ``gaussian``     -- f(t) = exp(-t^2/(2 t0^2)) / (t0 sqrt(2pi))
* ``lorentzian2``  -- f(t) = (2/pi) t0^3 / (t^2 + t0^2)^2
* ``square``       -- flat top of full width t0, sharp corners
* ``trapezoid``    -- flat top of full length t0, linear sides of
                      horizontal extent n*t0 each

Every family's spectrum has a closed form, which takes a float or an
array: a Gaussian, an exponential, a sinc^2 for the square window and,
for the trapezoid, Fresnel integrals (Abramowitz & Stegun 7.3, by a NumPy
port of Cephes' ``fresnl``), so no spectrum loads SciPy.  The tests check
each closed form against a quadrature of the window's own definition.  The
square window's spectrum decays only like 1/omega^2, a property of its
sharp corners rather than of the numerics, so building bound curves from
it requires an explicit opt-in at the curve level.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class WindowKind(enum.Enum):
    GAUSSIAN = "gaussian"
    LORENTZIAN_SQ = "lorentzian2"
    SQUARE = "square"
    TRAPEZOID = "trapezoid"


@dataclass(frozen=True)
class SamplingWindow:
    """A normalized time-sampling function f(t).

    ``t0`` is the width parameter: the Gaussian/squared-Lorentzian scale,
    the full width of the square window, or the full length of the
    trapezoid flat top.  ``n`` (trapezoid only) is the side length in
    units of ``t0``.
    """

    kind: WindowKind
    t0: float
    n: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t0) and self.t0 > 0):
            raise ValueError(f"t0 must be a positive real, got {self.t0}")
        if self.kind is WindowKind.TRAPEZOID:
            if self.n is None or not (math.isfinite(self.n) and self.n > 0):
                raise ValueError(f"trapezoid requires side-length ratio n > 0, got {self.n}")
        elif self.n is not None:
            raise ValueError(f"{self.kind.value} window takes no side parameter n")

    @property
    def half_support(self) -> float:
        """Half-width of the support (inf for the unbounded families)."""
        if self.kind is WindowKind.SQUARE:
            return 0.5 * self.t0
        if self.kind is WindowKind.TRAPEZOID:
            return 0.5 * self.t0 + self.n * self.t0
        return math.inf


def gaussian_window(t0: float) -> SamplingWindow:
    return SamplingWindow(WindowKind.GAUSSIAN, t0)


def lorentzian_sq_window(t0: float) -> SamplingWindow:
    return SamplingWindow(WindowKind.LORENTZIAN_SQ, t0)


def square_window(delta_t: float) -> SamplingWindow:
    return SamplingWindow(WindowKind.SQUARE, delta_t)


def trapezoid_window(ts: float, n: float) -> SamplingWindow:
    return SamplingWindow(WindowKind.TRAPEZOID, ts, n)


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


def _fresnel(z):
    """(S(z), C(z)) = integral_0^z (sin, cos)(pi t^2/2) dt for z >= 0, a
    float or an array, element by element in Cephes' order of operations.

    Every branch is evaluated on every element and the right one kept, so
    an element's value does not depend on its neighbours.
    """
    import numpy as np
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


def _trapezoid_sqrt_ft(w: SamplingWindow, u):
    """(f^{1/2})_FT of the trapezoid at u >= 0, a float or an array, through
    Fresnel integrals.

    The flat top contributes sqrt(h)*sin(u b)/u.  Each sloping side is the
    integral of sqrt(h s/L) cos(u(c - s)) over 0 <= s <= L, which the
    substitution s = v^2 reduces to Fresnel C/S (A&S 7.3).  The one
    cancellation, in the cosine term as u -> 0, is multiplied by
    sin(u c) ~ u c, so the absolute error stays at rounding level.  Below
    u c = 1e-100 an element takes the u = 0 limit, which it equals in double
    precision (the first correction is of order (u c)^2) and which keeps
    the 1/u factors from overflowing near the bottom of the float range.
    """
    import numpy as np
    u = np.asarray(u, dtype=float)
    b = 0.5 * w.t0
    L = w.n * w.t0
    c = b + L
    h = 1.0 / (w.t0 * (1.0 + w.n))  # unit area: h * t0 * (1 + n)
    limit = u * c < 1e-100
    safe = np.where(limit, 1.0, u)
    S, C = _fresnel(np.sqrt(2.0 * safe * L / math.pi))
    pref = np.sqrt(math.pi / (2.0 * safe))
    A = (math.sqrt(L) * np.sin(safe * L) - pref * S) / safe
    B = (pref * C - math.sqrt(L) * np.cos(safe * L)) / safe
    side = math.sqrt(h / L) * (np.cos(safe * c) * A + np.sin(safe * c) * B)
    amp = (math.sqrt(h) * np.sin(safe * b) / safe + side) / math.pi
    return np.where(limit, math.sqrt(h) * (b + 2.0 * L / 3.0) / math.pi, amp)


def sqrt_ft_squared(w: SamplingWindow, omega):
    """|(f^{1/2})_FT(omega)|^2 in seconds (for t0 in seconds), in the
    family's closed form; ``omega`` is a float or an array, and the result
    what NumPy gives for it (a NumPy float for a float).

    The square window's amplitude is the trapezoid's flat-top term,
    sqrt(h)*sin(u b)/(pi u) with h = 1/t0 and b = t0/2.  Where t0*omega
    overflows, the Gaussian's and squared Lorentzian's exponents are -inf
    and their spectra 0.
    """
    import numpy as np
    u = np.abs(np.asarray(omega, dtype=float))
    with np.errstate(over="ignore"):
        if w.kind is WindowKind.GAUSSIAN:
            out = w.t0 / (math.pi * math.sqrt(2.0 * math.pi)) * np.exp(-2.0 * (w.t0 * u) ** 2)
        elif w.kind is WindowKind.LORENTZIAN_SQ:
            out = w.t0 / (2.0 * math.pi) * np.exp(-2.0 * w.t0 * u)
        elif w.kind is WindowKind.SQUARE:
            out = w.t0 / (4.0 * math.pi**2) * np.sinc(u * w.t0 / (2.0 * math.pi)) ** 2
        else:
            amp = _trapezoid_sqrt_ft(w, u)
            out = amp * amp
    return out
