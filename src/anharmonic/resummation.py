"""Borel-Pade resummation of divergent energy series, with a spectral
diagonalization reference.

The Borel transform b_k = c_k / k! is Pade-approximated with an exact
fraction-free integer solve (so approximant construction adds no
floating-point noise), then the Laplace integral sum = int_0^inf e^(-t)
P(mu t) dt is evaluated by adaptive quadrature after checking that no Pade
pole sits on the positive integration ray.

The reference E_n is eigenvalue n of H = p^2/2m + (1/2) m w^2 x^2
+ g x^(2 kappa) (units hbar = m = w = 1, g = mu), a banded matrix in the
harmonic oscillator basis, and must be stable under basis doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigvals_banded

from .errors import (IndexOutOfRange, InsufficientCoefficients, NotConverged,
                     PoleOnRay, UnsupportedKappa)

_TAIL_CUTOFF = 45.0  # e^-t < 1e-18 beyond this


def _exact_solve(rows: list[list[Fraction]]) -> list[Fraction]:
    """Solve ``rows`` = [A | b] by fraction-free (Bareiss) elimination on
    integer rows, then back-substitute det * x_i, integral by Cramer's rule."""
    n = len(rows)
    scales = [math.lcm(*(v.denominator for v in row)) for row in rows]
    a = [[v.numerator * (s // v.denominator) for v in row]
         for row, s in zip(rows, scales)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            raise InsufficientCoefficients(
                "singular Pade system; lower the denominator degree")
        a[k], a[pivot] = a[pivot], a[k]
        for r in range(k + 1, n):
            a[r][k:] = [(v * a[k][k] - a[r][k] * w) // prev
                        for v, w in zip(a[r][k:], a[k][k:])]
        prev = a[k][k]
    x = [prev * row[n] for row in a]  # becomes det * x_i, where det = prev
    for i in reversed(range(n)):
        x[i] = (x[i] - sum(a[i][j] * x[j] for j in range(i + 1, n))) // a[i][i]
    return [Fraction(v, prev) for v in x]


def pade_coefficients(series: list[Fraction], p: int, q: int):
    """Exact [p/q] Pade numerator/denominator coefficients of a series."""
    if p < 0 or q < 0:
        raise InsufficientCoefficients("Pade orders must be non-negative")
    if p + q + 1 > len(series):
        raise InsufficientCoefficients(
            f"[{p}/{q}] Pade needs {p + q + 1} coefficients, got {len(series)}",
            required=p + q + 1, available=len(series))
    b = [Fraction(c) for c in series]

    def bk(i: int) -> Fraction:
        return b[i] if 0 <= i < len(b) else Fraction(0)

    # Degenerate tables (the transform is exactly a lower-order rational
    # function) make the Toeplitz system singular; the approximant then
    # coincides with a lower-order one, so step down until solvable.
    while True:
        if q == 0:
            den = [Fraction(1)]
            break
        rows = [[bk(p + i - j) for j in range(1, q + 1)] + [-bk(p + i)]
                for i in range(1, q + 1)]
        try:
            d = _exact_solve(rows)
        except InsufficientCoefficients:
            p, q = max(p - 1, 0), q - 1
            continue
        den = [Fraction(1)] + d
        break
    num = []
    for i in range(p + 1):
        num.append(sum(bk(i - j) * den[j] for j in range(min(i, q) + 1)))
    return num, den


def _poles_on_ray(den: list[Fraction], mu: float) -> list[float]:
    """Positive t at which the denominator vanishes at s = mu t: the real
    roots r with r / mu > 0, whatever the sign of mu (none for mu = 0)."""
    coeffs = [float(c) for c in reversed(den)]
    if len(coeffs) < 2 or mu == 0:
        return []
    roots = np.roots(coeffs)
    hits = []
    for r in roots:
        if abs(r.imag) < 1e-9 * max(1.0, abs(r.real)):
            t_pole = r.real / mu
            if 0 < t_pole < _TAIL_CUTOFF:
                hits.append(float(t_pole))
    return sorted(hits)


def borel_pade(series, mu: float, p: int, q: int) -> float:
    """Borel sum of sum_k c_k mu^k via an exact [p/q] Pade of the transform."""
    coeffs = [Fraction(c) for c in series]
    borel = []
    fact = 1
    for k, c in enumerate(coeffs):
        if k > 1:
            fact *= k
        borel.append(c / fact)
    num, den = pade_coefficients(borel, p, q)
    poles = _poles_on_ray(den, mu)
    if poles:
        raise PoleOnRay(
            f"Pade denominator vanishes on the integration ray at "
            f"t = {poles[0]:.6g}", poles=poles)
    num_f = [float(c) for c in num]
    den_f = [float(c) for c in den]

    def integrand(t: float) -> float:
        s = mu * t
        return math.exp(-t) * _polyval(num_f, s) / _polyval(den_f, s)

    value, err, _info, *failed = quad(integrand, 0.0, _TAIL_CUTOFF, epsabs=1e-13,
                                      epsrel=1e-12, limit=400, full_output=1)
    if failed or not math.isfinite(value):
        raise NotConverged("Laplace integral not converged", error_estimate=err)
    return value


def _polyval(coeffs: list[float], s: float) -> float:
    total = 0.0
    for c in reversed(coeffs):
        total = total * s + c
    return total


def partial_sums(series, mu: float) -> list[float]:
    out = []
    total = 0.0
    for k, c in enumerate(series):
        total += float(c) * mu ** k
        out.append(total)
    return out


def _spectrum(kappa: int, mu: float, basis_size: int, n: int) -> float:
    """Eigenvalue n of H on the first ``basis_size`` oscillator states. With
    w = 2 kappa, ``step`` holds <j|x|j + 1> at j + w + 1 and row w + 1 + d of
    ``band`` holds <i|x^k|i + d> in column i, exact for i < ``basis_size``."""
    w, size = 2 * kappa, basis_size + 2 * kappa
    step = np.pad(np.sqrt(np.arange(1, size) / 2.0), (w + 1, w + 2))
    shifted = step[np.arange(2 * w + 2)[:, None] + np.arange(size)]
    band = np.zeros((2 * w + 3, size))
    band[w + 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(w):
            band[1:-1] = band[:-2] * shifted[:-1] + band[2:] * shifted[1:]
        h = mu * band[w + 1:2 * w + 2][:basis_size, :basis_size]  # lower band
    h[0] += np.arange(basis_size) + 0.5
    if not np.isfinite(h).all():
        raise NotConverged(f"x^{w} overflows or mu = {mu} is not finite")
    return eigvals_banded(h, lower=True, select="i", select_range=(n, n))[0]


def reference_energy(kappa: int, n: int, mu: float, basis_size: int = 200) -> float:
    """Spectral reference E_n, converged under basis doubling to 1e-9."""
    if basis_size < 50:
        raise NotConverged(
            f"basis_size must be >= 50, got {basis_size}")
    if kappa < 1:
        raise UnsupportedKappa(f"kappa must be >= 1, got {kappa}")
    if not 0 <= n < basis_size:
        raise IndexOutOfRange(f"level n = {n} outside [0, {basis_size})")
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
    if kappa is not None and n is not None:
        result.reference = reference_energy(kappa, n, mu, basis_size)
        result.discrepancy = abs(value - result.reference)
    return result
