"""Independent Rayleigh-Schrodinger perturbation engine for 1D oscillators.

Computes E_n for H = p^2/2m + (1/2) m w^2 x^2 + g x^(2 kappa) as an exact
rational series E_n = hbar w sum_k c_k mu^k in the dimensionless coupling
mu = g hbar^(kappa-1) / (m^kappa w^(kappa+1)).

Algorithm: order-by-order linear recursion on state-vector coefficients in a
rescaled oscillator basis e_j = |j> / sqrt(j!), in which the ladder operators
act with integer weights (a e_j = e_{j-1}, a+ e_j = (j+1) e_{j+1}).  With
intermediate normalization (the e_n component of every correction vector is
zero) the order-p energy is the e_n component of W applied to the order-(p-1)
vector, where W = (1/2)^kappa (a + a+)^(2 kappa) in units m = w = hbar = 1.
Each correction vector is held as integer numerators over one common
denominator, (den, {j: num}), reduced by their gcd: W is 2 kappa integer
ladder sweeps and a shift of den by kappa bits, the right-hand side
-W v_{p-1} + sum_q E_q v_{p-q} is summed over the lcm of its parts'
denominators, and dividing entry j by j - n widens the denominator only
where j - n does not divide the numerator.  Each vector has support within
n +/- 2 kappa p, so the computation is finite and exact, and the energies
are the Fractions num_n / den.  This code path shares nothing with the
transport engine.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import IndexOutOfRange, OrderTooHigh, UnsupportedKappa
from .series import format_rational


class RSExpansion:
    """Exact coefficients c_k of E_n = hbar w sum_k c_k mu^k."""

    __slots__ = ("kappa", "excitation", "order", "coefficients")

    def __init__(self, kappa: int, excitation: int, order: int,
                 coefficients: list[Fraction]):
        self.kappa = kappa
        self.excitation = excitation
        self.order = order
        self.coefficients = list(coefficients)

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa,
            "n": self.excitation,
            "order": self.order,
            "mu": "g*hbar^(kappa-1)/(m^kappa*omega0^(kappa+1))",
            "coefficients": [format_rational(c) for c in self.coefficients],
        }


def _apply_perturbation(vec: tuple[int, dict[int, int]],
                        kappa: int) -> tuple[int, dict[int, int]]:
    """Apply W = (1/2)^kappa (a + a+)^(2 kappa) to ``(den, {j: num})``: 2 kappa
    integer sweeps of a e_j = e_{j-1}, a+ e_j = (j + 1) e_{j+1}."""
    den, nums = vec
    for _ in range(2 * kappa):
        out: dict[int, int] = {}
        for j, c in nums.items():
            if j:
                out[j - 1] = out.get(j - 1, 0) + c
            out[j + 1] = out.get(j + 1, 0) + (j + 1) * c
        nums = out
    return den << kappa, nums


def _next_vector(w_prev: tuple[int, dict[int, int]], energies: list[Fraction],
                 vectors: list[tuple[int, dict[int, int]]],
                 n: int) -> tuple[int, dict[int, int]]:
    """(E^(0) - H0)^-1 (-W v_{p-1} + sum_q E_q v_{p-q}) off e_n, with
    p = len(vectors), as integer numerators over one reduced denominator."""
    p = len(vectors)
    parts = [(-1, w_prev[0], w_prev[1])]
    parts += [(energies[q].numerator, energies[q].denominator * vectors[p - q][0],
               vectors[p - q][1]) for q in range(1, p) if energies[q]]
    den = math.lcm(*(d for _, d, _ in parts))
    total: dict[int, int] = {}
    for c, d, nums in parts:
        scale = c * (den // d)
        for j, v in nums.items():
            total[j] = total.get(j, 0) + scale * v
    total = {j: t for j, t in total.items() if t and j != n}
    widen = math.lcm(*((j - n) // math.gcd(t, j - n) for j, t in total.items()))
    nums = {j: t * widen // (j - n) for j, t in total.items()}
    g = math.gcd(den * widen, *nums.values())
    return den * widen // g, {j: t // g for j, t in nums.items()}


def rs_expand(kappa: int, n: int, order: int) -> RSExpansion:
    """Exact RS energy coefficients for the 2-kappa oscillator, level n."""
    if order > 15:
        raise OrderTooHigh(
            f"order {order} exceeds the exactness budget (15)", maximum=15)
    if order < 0:
        raise OrderTooHigh(f"order must be >= 0, got {order}")
    if not (0 <= n <= 10):
        raise OrderTooHigh(f"excitation n must be in [0, 10], got {n}")
    if not (2 <= kappa <= 16):  # rs_expand(16, 10, 15): 0.07-0.1 s on a 2-core Xeon
        raise OrderTooHigh(f"kappa must be in [2, 16], got {kappa}", maximum=16)
    energies = [Fraction(n) + Fraction(1, 2)]
    vectors = [(1, {n: 1})]
    for _ in range(order):
        w_prev = _apply_perturbation(vectors[-1], kappa)
        energies.append(Fraction(w_prev[1].get(n, 0), w_prev[0]))
        vectors.append(_next_vector(w_prev, energies, vectors, n))
    return RSExpansion(kappa, n, order, energies)


def first_order_matrix_element(kappa: int, n: int) -> float:
    """<n| x^(2 kappa) |n> in units m = w = hbar = 1, double precision.

    Entry n of the diagonal of the Hamiltonian that the spectral reference
    of ``resummation`` diagonalizes, at mu = 1, less its harmonic part
    n + 1/2; comparing it with c_1 checks that matrix too.
    """
    if kappa < 1:
        raise UnsupportedKappa(f"kappa must be >= 1, got {kappa}")
    if n < 0:
        raise IndexOutOfRange(f"level n = {n} must be >= 0")
    from .resummation import _hamiltonian
    return float(_hamiltonian(kappa, 1.0, n + 1)[0, n] - (n + 0.5))


def compare_with_transport(rs: RSExpansion,
                           transport_series: list[Fraction]) -> dict:
    """Exact order-by-order comparison report.

    ``transport_series`` holds plain hbar-power coefficients e_k (ground, or
    ground plus gap for an excited level) with g = m = w = 1, in which case
    e_k must vanish unless k is a multiple of kappa - 1 and the nonzero
    entries are the mu-coefficients c_j = e_{j (kappa-1)}.
    """
    step = rs.kappa - 1
    mismatches = []
    checked = -1
    for k, e_k in enumerate(transport_series):
        if k % step:
            if e_k != 0:
                mismatches.append({
                    "hbar_order": k,
                    "transport": format_rational(e_k),
                    "rs": "0",
                    "note": "non-integral power of g should vanish",
                })
            continue
        j = k // step
        if j > rs.order:
            break
        checked = j
        if e_k != rs.coefficients[j]:
            mismatches.append({
                "order": j,
                "hbar_order": k,
                "transport": format_rational(e_k),
                "rs": format_rational(rs.coefficients[j]),
            })
    return {
        "kappa": rs.kappa,
        "n": rs.excitation,
        "through_order": checked,
        "agree": not mismatches,
        "first_mismatch": mismatches[0] if mismatches else None,
        "mismatches": mismatches,
    }
