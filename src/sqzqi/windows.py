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

Every family's spectrum has a closed form in ``math``, a function of a
float that :func:`spectrum` builds once per window: a Gaussian, an
exponential, a sinc^2 for the square window and, for the trapezoid,
Fresnel integrals (A&S 7.3, by a port of Cephes' ``fresnl``).  The tests
check each closed form against a quadrature of the window's own
definition.  The square window's spectrum decays only like 1/omega^2, a
property of its sharp corners rather than of the numerics, so bound curves
from it require an explicit opt-in at the curve level.
"""

from __future__ import annotations

import enum
import math
import sys
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


def _fresnel(x: float) -> tuple[float, float]:
    """(S(x), C(x)) = integral_0^x (sin, cos)(pi t^2/2) dt for a float x >= 0.

    Cephes ``fresnl`` (S. L. Moshier), the routine behind scipy.special.fresnel:
    rational approximations in x^4 for x^2 < 2.5625, the auxiliary functions
    f and g as rationals in 1/(pi x^2)^2 up to x = 36974, the leading
    asymptotic terms beyond.  Only the branch x falls in is evaluated, in
    Cephes' order of operations, each polynomial by Horner's rule written
    out (which rounds as Cephes' ``polevl`` and ``p1evl`` do).
    """
    x2 = x * x
    if x2 < 2.5625:
        t = x2 * x2
        sn = (3.18016297876567817986e11 + t * (-4.42979518059697779103e10 + t *
            (2.54890880573376359104e9 + t * (-6.29741486205862506537e7 + t *
            (7.08840045257738576863e5 + t * -2.99181919401019853726e3)))))
        sd = (6.07366389490084639049e11 + t * (2.24411795645340920940e10 + t *
            (4.19320245898111231129e8 + t * (5.17343888770096400730e6 + t *
            (4.55847810806532581675e4 + t * (2.81376268889994315696e2 + t))))))
        cn = (9.99999999999999998822e-1 + t * (-2.05525900955013891793e-1 + t *
            (1.88843319396703850064e-2 + t * (-6.45191435683965050962e-4 + t *
            (9.50428062829859605134e-6 + t * -4.98843114573573548651e-8)))))
        cd = (1.00000000000000000118e0 + t * (4.12142090722199792936e-2 + t *
            (8.68029542941784300606e-4 + t * (1.22262789024179030997e-5 + t *
            (1.25001862479598821474e-7 + t * (9.15439215774657478799e-10 + t *
            3.99982968972495980367e-12))))))
        return x * x2 * sn / sd, x * cn / cd
    if x > 36974.0:
        phase = math.pi * x * x / 2.0
        if phase == math.inf:  # the cosine of an overflowed phase is NaN
            return math.nan, math.nan
        return (0.5 - 1.0 / (math.pi * x) * math.cos(phase),
                0.5 + 1.0 / (math.pi * x) * math.sin(phase))
    t = math.pi * x2
    u = 1.0 / (t * t)
    t = 1.0 / t
    fn = (3.76329711269987889006e-20 + u * (1.34283276233062758925e-16 + u *
        (1.72010743268161828879e-13 + u * (1.02304514164907233465e-10 + u *
        (3.05568983790257605827e-8 + u * (4.63613749287867322088e-6 + u *
        (3.45017939782574027900e-4 + u * (1.15220955073585758835e-2 + u *
        (1.43407919780758885261e-1 + u * 4.21543555043677546506e-1)))))))))
    fd = (1.25443237090011264384e-20 + u * (4.52001434074129701496e-17 + u *
        (5.88754533621578410010e-14 + u * (3.60140029589371370404e-11 + u *
        (1.12699224763999035261e-8 + u * (1.84627567348930545870e-6 + u *
        (1.55934409164153020873e-4 + u * (6.44051526508858611005e-3 + u *
        (1.16888925859191382142e-1 + u * (7.51586398353378947175e-1 + u))))))))))
    gn = (1.86958710162783235106e-22 + u * (8.36354435630677421531e-19 + u *
        (1.37555460633261799868e-15 + u * (1.08268041139020870318e-12 + u *
        (4.45344415861750144738e-10 + u * (9.82852443688422223854e-8 + u *
        (1.15138826111884280931e-5 + u * (6.84079380915393090172e-4 + u *
        (1.87648584092575249293e-2 + u * (1.97102833525523411709e-1 + u *
        5.04442073643383265887e-1))))))))))
    gd = (1.86958710162783236342e-22 + u * (8.39158816283118707363e-19 + u *
        (1.38796531259578871258e-15 + u * (1.10273215066240270757e-12 + u *
        (4.60680728146520428211e-10 + u * (1.04314589657571990585e-7 + u *
        (1.27545075667729118702e-5 + u * (8.14679107184306179049e-4 + u *
        (2.53603741420338795122e-2 + u * (3.37748989120019970451e-1 + u *
        (1.47495759925128324529e0 + u)))))))))))
    f = 1.0 - u * fn / fd
    g = t * gn / gd
    t = (math.pi / 2.0) * x2
    cos, sin = math.cos(t), math.sin(t)
    t = math.pi * x
    return 0.5 - (f * cos + g * sin) / t, 0.5 + (f * sin - g * cos) / t


def _trapezoid_spectrum(w: SamplingWindow):
    """The function u -> |(f^{1/2})_FT(u)|^2 of the trapezoid, for floats
    u >= 0, with (f^{1/2})_FT through Fresnel integrals.

    The flat top contributes sqrt(h)*sin(u b)/u.  Each sloping side is the
    integral of sqrt(h s/L) cos(u(c - s)) over 0 <= s <= L, which the
    substitution s = v^2 reduces to Fresnel C/S (A&S 7.3).  The one
    cancellation, in the cosine term as u -> 0, is multiplied by
    sin(u c) ~ u c, so the absolute error stays at rounding level.  Below
    u c = 1e-100 the spectrum takes its u = 0 limit, which it equals in
    double precision (the first correction is of order (u c)^2), so the 1/u
    factors cannot overflow; where u c overflows, it is NaN.
    """
    b = 0.5 * w.t0
    L = w.n * w.t0
    c = b + L
    h = 1.0 / (w.t0 * (1.0 + w.n))  # unit area: h * t0 * (1 + n)
    root_l, root_h, root_side = math.sqrt(L), math.sqrt(h), math.sqrt(h / L)
    at_zero = root_h * (b + 2.0 * L / 3.0) / math.pi
    at_zero *= at_zero

    def trapezoid(u: float) -> float:
        uc, ul = u * c, u * L
        if uc < 1e-100:
            return at_zero
        if not uc < math.inf:
            return math.nan
        S, C = _fresnel(math.sqrt(2.0 * u * L / math.pi))
        pref = math.sqrt(math.pi / (2.0 * u))
        A = (root_l * math.sin(ul) - pref * S) / u
        B = (pref * C - root_l * math.cos(ul)) / u
        side = root_side * (math.cos(uc) * A + math.sin(uc) * B)
        amp = (root_h * math.sin(u * b) / u + side) / math.pi
        return amp * amp
    return trapezoid


def spectrum(w: SamplingWindow):
    """The function u -> |(f^{1/2})_FT(u)|^2 of the window, in seconds (for
    t0 in seconds), for floats u >= 0, in the family's closed form.

    The square window's amplitude is the trapezoid's flat-top term,
    sqrt(h)*sin(u b)/(pi u) with h = 1/t0 and b = t0/2, as a sinc that
    takes eps for a zero argument.  Where t0*u overflows, the Gaussian's
    and squared Lorentzian's exponents are -inf and their spectra 0.
    """
    t0 = w.t0
    if w.kind is WindowKind.GAUSSIAN:
        peak = t0 / (math.pi * math.sqrt(2.0 * math.pi))
        return lambda u: peak * math.exp(-2.0 * ((t0 * u) * (t0 * u)))
    if w.kind is WindowKind.LORENTZIAN_SQ:
        peak = t0 / (2.0 * math.pi)
        return lambda u: peak * math.exp(-2.0 * t0 * u)
    if w.kind is WindowKind.SQUARE:
        def square(u: float) -> float:
            y = math.pi * (u * t0 / (2.0 * math.pi)) or sys.float_info.epsilon
            sinc = math.sin(y) / y if y < math.inf else math.nan
            return t0 / (4.0 * math.pi**2) * (sinc * sinc)
        return square
    return _trapezoid_spectrum(w)


def sqrt_ft_squared(w: SamplingWindow, omega: float) -> float:
    """|(f^{1/2})_FT(omega)|^2 of a float omega (see :func:`spectrum`)."""
    return spectrum(w)(abs(omega))
