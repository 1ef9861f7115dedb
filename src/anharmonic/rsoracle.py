"""Independent Rayleigh-Schrodinger perturbation engine for 1D oscillators.

Computes E_n for H = p^2/2m + (1/2) m w^2 x^2 + g x^(2 kappa) as an exact
rational series E_n = hbar w sum_k c_k mu^k in the dimensionless coupling
mu = g hbar^(kappa-1) / (m^kappa w^(kappa+1)).

Algorithm: order-by-order linear recursion on state-vector coefficients in a
rescaled oscillator basis e_j = |j> / sqrt(j!), in which the ladder operators
act with integer weights (a e_j = e_{j-1}, a+ e_j = (j+1) e_{j+1}) so every
intermediate quantity is an exact rational.  With intermediate normalization
(the e_n component of every correction vector is zero) the order-p energy is
the e_n component of W applied to the order-(p-1) vector, where
W = (1/2)^kappa (a + a+)^(2 kappa) in units m = w = hbar = 1.  Each
correction vector has support within n +/- 2 kappa p, so the computation is
finite and exact.  This code path shares nothing with the transport engine.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OrderTooHigh
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


def _apply_ladder_sum(vec: dict[int, Fraction]) -> dict[int, Fraction]:
    """Apply (a + a+) to a coefficient vector in the rescaled basis."""
    out: dict[int, Fraction] = {}
    for j, c in vec.items():
        if j >= 1:
            out[j - 1] = out.get(j - 1, Fraction(0)) + c
        out[j + 1] = out.get(j + 1, Fraction(0)) + (j + 1) * c
    return {j: c for j, c in out.items() if c != 0}


def _apply_perturbation(vec: dict[int, Fraction], kappa: int) -> dict[int, Fraction]:
    """Apply W = (1/2)^kappa (a + a+)^(2 kappa)."""
    out = vec
    for _ in range(2 * kappa):
        out = _apply_ladder_sum(out)
    scale = Fraction(1, 2 ** kappa)
    return {j: c * scale for j, c in out.items()}


def rs_expand(kappa: int, n: int, order: int) -> RSExpansion:
    """Exact RS energy coefficients for the 2-kappa oscillator, level n."""
    if order > 15:
        raise OrderTooHigh(
            f"order {order} exceeds the exactness budget (15)", maximum=15)
    if order < 0:
        raise OrderTooHigh(f"order must be >= 0, got {order}")
    if not (0 <= n <= 10):
        raise OrderTooHigh(f"excitation n must be in [0, 10], got {n}")
    if not (2 <= kappa <= 16):  # rs_expand(16, 10, 15) takes about a second
        raise OrderTooHigh(f"kappa must be in [2, 16], got {kappa}", maximum=16)
    energies = [Fraction(n) + Fraction(1, 2)]
    vectors = [{n: Fraction(1)}]
    for p in range(1, order + 1):
        w_prev = _apply_perturbation(vectors[p - 1], kappa)
        e_p = w_prev.get(n, Fraction(0))
        energies.append(e_p)
        new_vec: dict[int, Fraction] = {}
        for j in set(w_prev) | {j for v in vectors[1:] for j in v}:
            if j == n:
                continue
            total = -w_prev.get(j, Fraction(0))
            for q in range(1, p):
                total += energies[q] * vectors[p - q].get(j, Fraction(0))
            if total != 0:
                new_vec[j] = total / (j - n)
        vectors.append(new_vec)
    return RSExpansion(kappa, n, order, energies)


def first_order_matrix_element(kappa: int, n: int) -> float:
    """<n| x^(2 kappa) |n> in units m = w = hbar = 1, double precision.

    Entry n of the diagonal of the Hamiltonian that the spectral reference
    of ``resummation`` diagonalizes, at mu = 1, less its harmonic part
    n + 1/2; comparing it with c_1 checks that matrix too.
    """
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
