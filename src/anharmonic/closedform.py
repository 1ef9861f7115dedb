"""Closed-form evaluators for the 1D 2-kappa oscillator family.

For V = (1/2) m w^2 x^2 + g x^(2 kappa), the leading action S_0 and (for
kappa = 2) the corrections S_1, S_2 and the excited-state factors
phi_0, u_1, u_2 have closed forms in the variable

    u = 2 g x^(2 kappa - 2) / (m w^2),        R = sqrt(1 + u).

With g x^2 = u m w^2 / 2, each of S_2, u_1 and u_2 is one entry of an exact
table (``_form``), F = scale (g / m^2 w^3)^a (A(u) + R B(u)) / (u^a R^b) with
short rational lists A and B.  Large u evaluates this form directly.  Near
the origin it cancels catastrophically (S_2 carries 1/x^2, u_2 carries
1/x^4), so for u <= 1/4 the evaluator sums the exact Laurent series of F,
built once per (factor, n) with Fraction arithmetic.
``tests/test_closedform.py::TestExactOracle`` checks these series coefficient
by coefficient against the exact transport hierarchy; that also pins the
prefactor of u_2, whose printed mass power is dimensionally inconsistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (DomainExceeded, ModelFormatError, NotConverged,
                     UnsupportedKappa, UnsupportedOrder)

_SERIES_LEN = 32  # within 1e-13 relative of the table form up to u = 1/4
_U_SWITCH = 0.25
_U_MAX = 1e60  # u_2's numerator grows like u^(9/2) and must stay finite


@dataclass(frozen=True)
class Kappa1DModel:
    """1D oscillator V = (1/2) m w0^2 x^2 + g x^(2 kappa), float parameters."""
    mass: float = 1.0
    omega0: float = 1.0
    g: float = 1.0
    kappa: int = 2

    def __post_init__(self):
        if not (self.mass > 0 and self.omega0 > 0 and self.g > 0):
            raise ModelFormatError(
                "the closed forms need positive mass, omega0 and g",
                mass=self.mass, omega0=self.omega0, g=self.g)
        if self.kappa not in (2, 3, 4, 5):
            raise UnsupportedKappa(f"kappa must be in {{2,3,4,5}}, got {self.kappa}")

    def u_of(self, x: float) -> float:
        p = self.kappa - 1
        try:
            u = 2.0 * self.g * x ** (2 * p) / (self.mass * self.omega0 ** 2)
        except OverflowError:
            u = math.inf
        if u <= _U_MAX:  # false for NaN as well
            return u
        raise DomainExceeded(f"u = 2 g x^{2 * p} / (m w^2) exceeds {_U_MAX:g} "
                             f"at x = {x}", x=x, bound=_U_MAX)

    def potential(self, x: float) -> float:
        return 0.5 * self.mass * self.omega0 ** 2 * x * x * (1.0 + self.u_of(x))


# -- the kappa = 2 coefficient table -----------------------------------------

@lru_cache(maxsize=None)
def _form(factor: str, n: int) -> tuple:
    """Table entry (scale, a, b, A, B, W, series) of the kappa = 2 factor F
    = S_2, u_1 or u_2 at level n: ``series`` holds the first _SERIES_LEN
    coefficients of u^a F / (scale (g / m^2 w^3)^a) = A (1+u)^(-b/2)
    + B (1+u)^((1-b)/2) exactly; scale, A, B and W are floats."""
    n = Fraction(n)
    if factor == "S_2":
        scale, a, b, A, B = Fraction(1, 3), 1, 3, [3, 10, Fraction(9, 2)], [-3]
    elif factor == "u_1":
        c = (9 * n + 5 * n * n) / 2
        scale, a, b = Fraction(1, 2), 1, 2
        A, B = [2 * n, c, c], [-(n + n * n), -3 * (n + n * n)]
    else:
        p1 = [3 * (11 + 5 * n + 4 * n ** 2),
              Fraction(3, 2) * (35 + 28 * n + 32 * n ** 2 + 5 * n ** 3),
              Fraction(1, 2) * (-257 - 42 * n + 104 * n ** 2 + 75 * n ** 3),
              Fraction(7, 2) * (-59 - 24 * n + 8 * n ** 2 + 15 * n ** 3),
              Fraction(3, 2) * (-59 - 24 * n + 8 * n ** 2 + 15 * n ** 3)]
        p2 = [3 * (16 + 21 * n + 2 * n ** 2 + n ** 3),
              3 * (12 + 37 * n + 24 * n ** 2 + 7 * n ** 3),
              Fraction(1, 4) * (-1211 - 351 * n + 380 * n ** 2 + 282 * n ** 3),
              Fraction(1, 2) * (-1355 - 837 * n + 8 * n ** 2 + 156 * n ** 3),
              Fraction(1, 4) * (-1355 - 891 * n - 100 * n ** 2 + 102 * n ** 3)]
        scale, a, b, A, B = n / 12, 2, 5, [-2 * c for c in p1], p2
    series = [Fraction(0)] * _SERIES_LEN
    for poly, alpha in ((A, Fraction(-b, 2)), (B, Fraction(1 - b, 2))):
        binom = Fraction(1)  # coefficient of u^k in (1 + u)^alpha
        for k in range(_SERIES_LEN):
            for i, c in enumerate(poly[:_SERIES_LEN - k]):
                series[k + i] += c * binom
            binom = binom * (alpha - k) / (k + 1)
    return (float(scale), a, b, tuple(map(float, A)), tuple(map(float, B)),
            tuple(map(float, series)), tuple(series))


def _horner(coeffs, u):
    """sum_k coeffs[k] u^k, for a float or an array u."""
    total = 0.0
    for c in reversed(coeffs):
        total = total * u + c
    return total


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple:
    """The 10- and 21-point Gauss-Legendre nodes on [-1, 1] side by side,
    and a (31, 2) matrix of the two rules' weights on them."""
    from numpy.polynomial.legendre import leggauss
    (x10, w10), (x21, w21) = leggauss(10), leggauss(21)
    weights = np.zeros((31, 2))
    weights[:10, 0], weights[10:, 1] = w10, w21
    return np.concatenate((x10, x21)), weights


def _quadrature(f, edges: np.ndarray, epsabs: float, epsrel: float,
                limit: int) -> float:
    """int f(t) dt over [edges[0], edges[-1]] for an f that maps an array
    of t to an array.

    Composite 21-point Gauss-Legendre, starting from the panels between
    consecutive ``edges``, which the caller fits to its integrand; every
    panel of one level is evaluated in one array, and each panel whose 10-
    and 21-point values differ by more than its width's share of
    max(epsabs, epsrel |I|) is bisected.  More than ``limit`` panels raise
    NotConverged with the summed |G21 - G10| of the last partition."""
    a, b = edges[0], edges[-1]
    if a == b:
        return 0.0
    nodes, weights = _gauss_legendre()
    lo, hi = edges[:-1], edges[1:]
    done = done_err = 0.0
    count = len(lo)
    while True:
        half = 0.5 * (hi - lo)
        t = (lo + half)[:, None] + half[:, None] * nodes
        with np.errstate(all="ignore"):
            g10, g21 = (f(t) @ weights).T * half
        err = np.abs(g21 - g10)
        total = done + g21.sum()
        share = max(epsabs, epsrel * abs(total)) * (2.0 * half) / (b - a)
        bad = ~(err <= share)  # NaN panels too
        if not bad.any():
            if not math.isfinite(total):
                raise NotConverged("integral is not finite",
                                   error_estimate=float(done_err + err.sum()))
            return float(total)
        done += g21[~bad].sum()
        done_err += err[~bad].sum()
        count += int(bad.sum())
        if count > limit:
            raise NotConverged(
                f"quadrature needs more than {limit} panels",
                error_estimate=float(done_err + err[bad].sum()))
        lo, hi = lo[bad], hi[bad]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))


def _closed(model: Kappa1DModel, factor: str, n: int, x: float,
            power: int = 0) -> float:
    """The table factor F at x, times (x / (1+R))^power.  For u <= _U_SWITCH
    each Laurent head of F (x / (1+R))^power, k = a - j, is formed as
    scale (g / m^2 w^3)^j W_j (x / (1+R))^(power - 2k) / (2 m w (1+R)^2)^k,
    with u^-k = (m w^2 / 2 g x^2)^k cancelled by hand: finite at x = 0 when
    power >= 2k, and free of (1+R)^power and of powers of 1/g.  A head that
    overflows near x = 0 gives a signed infinity."""
    _require_quartic(model, factor)
    scale, a, b, A, B, W, _ = _form(factor, n)
    m, w = model.mass, model.omega0
    q = model.g / (m * m * w ** 3)
    u = model.u_of(x)
    r = math.sqrt(1.0 + u)
    y = x / (1.0 + r)
    if u > _U_SWITCH:
        return (scale * q ** a * (_horner(A, u) + r * _horner(B, u))
                / (u ** a * r ** b) * y ** power)
    total = scale * q ** a * _horner(W[a:], u) * y ** power
    for j in range(a):
        if W[j]:
            k = a - j
            try:
                total += (scale * q ** j * W[j] * y ** (power - 2 * k)
                          / (2.0 * m * w * (1.0 + r) ** 2) ** k)
            except (OverflowError, ZeroDivisionError):
                return math.copysign(math.inf, W[j] * scale)
    return total


# -- evaluators -------------------------------------------------------------

def _require_quartic(model: Kappa1DModel, what: str):
    if model.kappa != 2:
        raise UnsupportedKappa(f"{what} is available for kappa = 2 only, "
                               f"got kappa = {model.kappa}")


def s0_closed(model: Kappa1DModel, x: float) -> float:
    """Leading action: closed form for kappa = 2, quadrature otherwise."""
    m, w, g = model.mass, model.omega0, model.g
    if model.kappa == 2:
        u = model.u_of(x)
        # (1+u)^(3/2) - 1 without cancellation
        core = math.expm1(1.5 * math.log1p(u))
        return m * m * w ** 3 / (6.0 * g) * core
    model.u_of(abs(x))  # u grows with |s|: the integrand is finite on [0, |x|]
    c = 2.0 * g / (m * w * w)
    p2 = 2 * model.kappa - 2
    return _quadrature(lambda s: s * m * w * np.sqrt(1.0 + c * s ** p2),
                       np.linspace(0.0, abs(x), 17), epsabs=1e-14, epsrel=1e-12,
                       limit=200)


def q_closed(model: Kappa1DModel, x: float) -> float:
    """Q(x) = S_0'(x)/x = m w sqrt(1 + u) (kappa = 2)."""
    _require_quartic(model, "Q")
    return model.mass * model.omega0 * math.sqrt(1.0 + model.u_of(x))


def s1_closed(model: Kappa1DModel, x: float) -> float:
    """First correction (kappa = 2), normalized so S_1(0) = 0."""
    _require_quartic(model, "S_1")
    u = model.u_of(x)
    half_log_r = 0.5 * math.log1p(u)
    r_minus_1 = math.expm1(half_log_r)
    return 0.5 * (half_log_r + math.log1p(0.5 * r_minus_1))


def s2_closed(model: Kappa1DModel, x: float) -> float:
    """Second correction (kappa = 2), normalized to vanish as |x| -> inf.

    Its value at the origin is 17 g / (6 m^2 w^3), not zero; the formal
    engine's normalization S_2(0) = 0 differs by exactly that constant.
    """
    return _closed(model, "S_2", 0, x)


def phi0_closed(model: Kappa1DModel, n: int, x: float) -> float:
    """Zeroth excited factor [x / (1 + R)^(1/(kappa-1))]^n, unit leading
    constant."""
    if n < 0:
        raise UnsupportedOrder(f"excitation n must be >= 0, got {n}")
    if n == 0:
        return 1.0
    p = model.kappa - 1
    r = math.sqrt(1.0 + model.u_of(x))
    return (x / (1.0 + r) ** (1.0 / p)) ** n


def u1_closed(model: Kappa1DModel, n: int, x: float) -> float:
    """Variation-of-parameters factor u_1 (kappa = 2).

    Carries a -n(n-1)/(4 m w x^2) singularity at the origin for n >= 2; the
    product u_1 phi_0 stays smooth (the ``psi`` column of
    wavefunction_factors).
    """
    return _closed(model, "u_1", n, x)


def u2_closed(model: Kappa1DModel, n: int, x: float) -> float:
    """Variation-of-parameters factor u_2 (kappa = 2); singular like 1/x^4
    at the origin for n >= 4."""
    return _closed(model, "u_2", n, x)


def sternberg_1d(model: Kappa1DModel, x: float) -> float:
    """Linearizing coordinate y(x) = 2^(1/(kappa-1)) x / (1+R)^(1/(kappa-1)),
    normalized so y = x + O(x^3)."""
    p = model.kappa - 1
    r = math.sqrt(1.0 + model.u_of(x))
    return 2.0 ** (1.0 / p) * x / (1.0 + r) ** (1.0 / p)


def _psi(model: Kappa1DModel, n: int, hbar: float, x: float,
         s0: float, s1: float, s2: float, phi0: float) -> float:
    """(phi_0 + hbar phi_1 + (hbar^2/2) phi_2) exp(-S_0/hbar - S_1 - (hbar/2) S_2)
    from the values of S_0, S_1, S_2 and phi_0 at x, phi_k = u_k phi_0, with
    the Laurent heads of u_k folded into phi_0 so it stays smooth across
    x = 0.  Beyond kappa = 2 only the leading phi_0 exp(-S_0/hbar) is known."""
    exponent = -s0 / hbar
    total = phi0
    if model.kappa == 2:
        exponent -= s1
        exponent -= 0.5 * hbar * s2
        if n:
            total += hbar * _closed(model, "u_1", n, x, power=n)
            total += 0.5 * hbar * hbar * _closed(model, "u_2", n, x, power=n)
    psi = total * math.exp(exponent)
    if psi != psi:  # hbar^2 phi_2 overflowed where exp(exponent) underflowed
        raise DomainExceeded(f"psi overflows at hbar = {hbar}, x = {x}", x=x)
    return psi


def wavefunction_factors(model: Kappa1DModel, n: int, hbar: float,
                         xs) -> dict:
    """Grid evaluation of every closed-form factor, for CSV emission."""
    rows = {
        "x": [], "S0": [], "S1": [], "S2": [], "Q": [],
        "phi0": [], "u1": [], "u2": [], "psi": [],
    }
    quartic = model.kappa == 2
    for x in xs:
        s0 = s0_closed(model, x)
        s1 = s1_closed(model, x) if quartic else math.nan
        s2 = s2_closed(model, x) if quartic else math.nan
        phi0 = phi0_closed(model, n, x)
        rows["x"].append(float(x))
        rows["S0"].append(s0)
        rows["S1"].append(s1)
        rows["S2"].append(s2)
        rows["Q"].append(q_closed(model, x) if quartic else math.nan)
        rows["phi0"].append(phi0)
        rows["u1"].append(u1_closed(model, n, x)
                          if quartic and n >= 1 else math.nan)
        rows["u2"].append(u2_closed(model, n, x)
                          if quartic and n >= 1 else math.nan)
        rows["psi"].append(_psi(model, n, hbar, x, s0, s1, s2, phi0))
    return rows
