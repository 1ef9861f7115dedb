"""Borel-Pade resummation of divergent energy series, with a spectral
diagonalization reference.

A [p/q] approximant reads only the first p + q + 1 coefficients c_k.  Their
Borel transform b_k = c_k / k! is scaled to integers by the lcm of its
denominators and Pade-approximated with an exact fraction-free integer
solve (so approximant construction adds no floating-point noise).  After
checking that no Pade pole sits on the positive integration ray, the
Laplace integral sum = int_0^inf e^(-t) P(mu t) dt is cut at t = 45 and
evaluated in numpy by composite Gauss-Legendre quadrature
(``closedform._quadrature``): 10 geometric panels from t = 0.15 to 45 after
one on [0, 0.15], the 21-point rule on each, and every panel whose 10- and
21-point values disagree by more than its share of the tolerance bisected;
more than 400 panels raise NotConverged.  The panels grow with t because
near t = 0 their width is limited by the distance to the nearest Borel
singularity (t = -1/(3 mu) for the quartic, at least 1/3 for mu <= 1), and
beyond t ~ 1 e^(-t) makes the integrand small enough for coarse panels.

The reference E_n is eigenvalue n of H = p^2/2m + (1/2) m w^2 x^2
+ g x^(2 kappa) (units hbar = m = w = 1, g = mu), a banded matrix in the
harmonic oscillator basis diagonalized on the states of the parity of n, and
must be stable under basis doubling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .closedform import _horner, _quadrature
from .errors import (DomainExceeded, IndexOutOfRange, InsufficientCoefficients,
                     NotConverged, PoleOnRay, UnsupportedKappa)
from .series import to_floats
from .transport import _plain

_TAIL_CUTOFF = 45.0  # e^-t < 1e-18 beyond this
# the Laplace integral's initial panels (see the module docstring)
_LAPLACE_EDGES = np.concatenate(([0.0], np.geomspace(0.15, _TAIL_CUTOFF, 10)))


def _exact_solve(rows: list[list[int]]) -> tuple[int, list[int]]:
    """Solve integer ``rows`` = [A | b] by fraction-free (Bareiss)
    elimination, then back-substitute: (det, [det * x_i]), all integers by
    Cramer's rule, where det = +-det A."""
    n = len(rows)
    a = [row[:] for row in rows]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            raise InsufficientCoefficients(
                "singular Pade system; lower the denominator degree")
        a[k], a[pivot] = a[pivot], a[k]
        top, tail = a[k][k], a[k][k + 1:]
        for r in range(k + 1, n):
            row = a[r]
            lead = row[k]
            row[k + 1:] = [(v * top - lead * w) // prev
                           for v, w in zip(row[k + 1:], tail)]
            row[k] = 0
        prev = top
    x = [prev * row[n] for row in a]
    for i in reversed(range(n)):
        x[i] = (x[i] - sum(a[i][j] * x[j] for j in range(i + 1, n))) // a[i][i]
    return prev, x


def pade_coefficients(series: list[Fraction], p: int, q: int):
    """Exact [p/q] Pade numerator/denominator coefficients of a series."""
    if p < 0 or q < 0:
        raise InsufficientCoefficients("Pade orders must be non-negative")
    if p + q + 1 > len(series):
        raise InsufficientCoefficients(
            f"[{p}/{q}] Pade needs {p + q + 1} coefficients, got {len(series)}",
            required=p + q + 1, available=len(series))
    # the solve reads only c_0..c_(p+q), and so does every step-down
    b = [Fraction(c) for c in series[:p + q + 1]]
    scale = math.lcm(*(v.denominator for v in b))
    c = [v.numerator * (scale // v.denominator) for v in b]  # scale * b

    def ck(i: int) -> int:
        return c[i] if i >= 0 else 0

    # Degenerate tables (the transform is exactly a lower-order rational
    # function) make the Toeplitz system singular; the approximant then
    # coincides with a lower-order one, so step down until solvable.
    while True:
        if q == 0:
            det, d = 1, []
            break
        rows = [[ck(p + i - j) for j in range(1, q + 1)] + [-ck(p + i)]
                for i in range(1, q + 1)]
        try:
            det, d = _exact_solve(rows)
        except InsufficientCoefficients:
            p, q = max(p - 1, 0), q - 1
            continue
        break
    den = [det] + d  # det times the denominator
    num = [sum(ck(i - j) * den[j] for j in range(min(i, q) + 1))
           for i in range(p + 1)]  # scale * det times the numerator
    return ([Fraction(v, scale * det) for v in num],
            [Fraction(v, det) for v in den])


def _poles_on_ray(den: list[float], mu: float) -> list[float]:
    """Positive t < _TAIL_CUTOFF at which the denominator vanishes at
    s = mu t: the real roots r with r / mu in that range, whatever the sign
    of mu (none for mu = 0).  A root is tested without dividing by mu, which
    could overflow for a tiny mu; one on the ray gives |r / mu| < 45."""
    if len(den) < 2 or mu == 0:
        return []
    hits = []
    for r in np.roots(den[::-1]):
        if (abs(r.imag) < 1e-9 * max(1.0, abs(r.real))
                and 0 < r.real * math.copysign(1.0, mu) < _TAIL_CUTOFF * abs(mu)):
            hits.append(float(r.real / mu))
    return sorted(hits)


def borel_pade(series, mu: float, p: int, q: int) -> float:
    """Borel sum of sum_k c_k mu^k via an exact [p/q] Pade of the transform."""
    # only c_0..c_(p+q) enter; a shorter series or a negative order reaches
    # pade_coefficients' checks unchanged
    head = series[:max(p, 0) + max(q, 0) + 1]
    num, den = pade_coefficients(_plain([Fraction(c) for c in head]), p, q)
    num_f = to_floats(num, f"[{p}/{q}] Pade numerator")
    den_f = to_floats(den, f"[{p}/{q}] Pade denominator")
    poles = _poles_on_ray(den_f, mu)
    if poles:
        raise PoleOnRay(
            f"Pade denominator vanishes on the integration ray at "
            f"t = {poles[0]:.6g}", poles=poles)

    def integrand(t):
        return np.exp(-t) * _horner(num_f, mu * t) / _horner(den_f, mu * t)

    return _quadrature(integrand, _LAPLACE_EDGES, epsabs=1e-13, epsrel=1e-12,
                       limit=400)


def partial_sums(series, mu: float) -> list[float]:
    out = []
    total = 0.0
    for k, c in enumerate(to_floats(series, "series")):
        try:
            total += c * mu ** k
        except OverflowError:  # mu ** k itself; a product overflows to inf
            total = math.inf
        if not math.isfinite(total):
            raise DomainExceeded(f"partial sum {k} at mu = {mu} is past the "
                                 f"double range", order=k)
        out.append(total)
    return out


def _hamiltonian(kappa: int, mu: float, basis_size: int) -> np.ndarray:
    """The lower band of H on the first ``basis_size`` oscillator states:
    row d holds <i + d|H|i> in column i.  With w = 2 kappa, ``step`` holds
    <j|x|j + 1> at j + w + 1 and row w + 1 + d of ``band`` holds
    <i|x^k|i + d> in column i, exact for i < ``basis_size``."""
    w, size = 2 * kappa, basis_size + 2 * kappa
    step = np.pad(np.sqrt(np.arange(1, size) / 2.0), (w + 1, w + 2))
    shifted = step[np.arange(2 * w + 2)[:, None] + np.arange(size)]
    band = np.zeros((2 * w + 3, size))
    band[w + 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(w):
            band[1:-1] = band[:-2] * shifted[:-1] + band[2:] * shifted[1:]
        h = mu * band[w + 1:2 * w + 2][:basis_size, :basis_size]
    h[0] += np.arange(basis_size) + 0.5
    if not np.isfinite(h).all():
        raise NotConverged(f"x^{w} overflows or mu = {mu} is not finite")
    return h


def _spectrum(kappa: int, mu: float, basis_size: int, n: int) -> float:
    """Eigenvalue n of H on the first ``basis_size`` oscillator states.

    x^(2 kappa) conserves parity, so this is eigenvalue n // 2 of the states
    of parity n % 2: their band is every other diagonal of H, cut to the
    block's size when 2 kappa + 1 diagonals outnumber its states."""
    from scipy.linalg import eigvals_banded
    block = _hamiltonian(kappa, mu, basis_size)[::2, n % 2::2]
    return eigvals_banded(block[:block.shape[1]], lower=True,
                          select="i", select_range=(n // 2, n // 2))[0]


def _check_reference(kappa: int, n: int, basis_size: int) -> None:
    """Reject a reference request before any work is done for it."""
    if basis_size < 50:
        raise NotConverged(
            f"basis_size must be >= 50, got {basis_size}")
    if kappa < 1:
        raise UnsupportedKappa(f"kappa must be >= 1, got {kappa}")
    if not 0 <= n < basis_size:
        raise IndexOutOfRange(f"level n = {n} outside [0, {basis_size})")


def reference_energy(kappa: int, n: int, mu: float, basis_size: int = 200) -> float:
    """Spectral reference E_n, converged under basis doubling to 1e-9."""
    _check_reference(kappa, n, basis_size)
    # <i|x^(2 kappa)|i> >= <i|a^kappa a+^kappa|i> / 2^kappa >= ((i + 1) / 2)^kappa
    # (no entry of a or a+ is negative), so at i = 2 N - 1 of the doubled basis
    # an entry of at least N^kappa must overflow in _hamiltonian.
    if kappa * math.log(basis_size) > math.log(sys.float_info.max):
        raise NotConverged(f"x^{2 * kappa} overflows on {2 * basis_size} states")
    coarse = _spectrum(kappa, mu, basis_size, n)
    fine = _spectrum(kappa, mu, 2 * basis_size, n)
    if not abs(fine - coarse) < 1e-9:
        raise NotConverged(
            f"reference eigenvalue moved by {abs(fine - coarse):.3e} under "
            f"basis doubling from {basis_size}",
            delta=abs(fine - coarse), basis_size=basis_size)
    return float(fine)


@dataclass
class ResummationResult:
    """Borel-Pade value against the spectral reference at one coupling."""
    mu: float
    p: int
    q: int
    borel_pade_value: float
    reference: float | None = None
    discrepancy: float | None = None
    partial_sums: list = field(default_factory=list)
    pade_table: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "pade": [self.p, self.q],
            "borel_pade_value": self.borel_pade_value,
            "reference_energy": self.reference,
            "discrepancy": self.discrepancy,
            "partial_sums": self.partial_sums,
            "pade_table": {k: v for k, v in self.pade_table.items()},
        }


_TABLE_ORDERS = ((4, 4), (5, 5), (6, 6))  # the Pade table beside [p/q]


def resum_series(series, mu: float, p: int, q: int,
                 kappa: int | None = None, n: int | None = None,
                 basis_size: int = 200) -> ResummationResult:
    """Full resummation diagnostic: value, adjacent-order table, reference."""
    reference = kappa is not None and n is not None
    if reference:
        _check_reference(kappa, n, basis_size)
    value = borel_pade(series, mu, p, q)
    table = {}
    for tp, tq in _TABLE_ORDERS:
        if tp + tq + 1 <= len(series):
            try:
                table[f"[{tp}/{tq}]"] = borel_pade(series, mu, tp, tq)
            except PoleOnRay:
                table[f"[{tp}/{tq}]"] = None
    result = ResummationResult(
        mu=mu, p=p, q=q, borel_pade_value=value,
        partial_sums=partial_sums(series, mu), pade_table=table)
    if reference:
        result.reference = reference_energy(kappa, n, mu, basis_size)
        result.discrepancy = abs(value - result.reference)
    return result
