"""Ground-state and excited-state transport hierarchies in formal series.

Conventions (all exact rationals):

* Energies are graded as E = hbar (E_0 + hbar E_1 + hbar^2/2! E_2 + ...);
  the list entry ``energies[k]`` stores E_k in that hbar^k/k! convention.
  ``energy_series`` converts to plain power-series coefficients e_k = E_k/k!.
* Each correction is one call of ``hjformal.solve_transport`` on weighted
  terms built from the lower corrections.  Ground corrections (shift 0)
  satisfy, for k >= 1,
      -(1/m) grad S_0 . grad S_k
      - (1/2m) sum_{j=1}^{k-1} C(k,j) grad S_j . grad S_{k-j}
      + (k/2m) lap S_{k-1}  =  k E_{k-1},
  with S_k(0) = 0 and E_{k-1} fixed by the degree-zero obstruction.  As
  C(k,j) = C(k,k-j), the right side forms each product once, for j <= k/2.
* Excited states for quantum numbers m (|m| >= 1) use the shift
  dE_0 = sum m_i omega_i, whose divisor vanishes on x^m.  phi_0 is seeded
  by x^m with a zero right side; for k >= 1,
      (1/m) grad S_0 . grad phi_k - dE_0 phi_k = (k/2m) lap phi_{k-1}
                + sum_{j=1}^{k} C(k,j) [dE_j phi_{k-j}
                                        - (1/m) grad S_j . grad phi_{k-j}],
  where dE_k, the factor of phi_0 in the j = k term, is the unique constant
  removing the x^m obstruction and phi_k carries a zero x^m coefficient.

Truncation bookkeeping: with the action known through degree D, the k-th
ground correction is reliable through D - 2k (each order consumes a
Laplacian), phi_0 through min(D, D + |m| - 2) (for |m| = 1 its degree-D
slice would need S_0 at degree D + 1) and the k-th excited correction
through D - 2k - 1.  Each series is labelled with that degree.  The
constructors enforce these bounds and fail loudly when D is too small.
Both factors of each gradient product are cut to the truncation of the
solve that reads it, so no product builds a slice the solve never reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import IndexOutOfRange, TruncationTooSmall
from .hjformal import FormalAction, solve_transport
from .model import OscillatorModel
from .series import PolySeries, dot_gradients, format_rational


class GroundExpansion:
    """Corrections [S_0..S_K] and energy coefficients [E_0..E_{K-1}]."""

    __slots__ = ("model", "order", "corrections", "energies")

    def __init__(self, model: OscillatorModel, order: int,
                 corrections: list[PolySeries], energies: list[Fraction]):
        self.model = model
        self.order = order
        self.corrections = list(corrections)
        self.energies = list(energies)


class ExcitedExpansion:
    """Corrections [phi_0..phi_K] and gap coefficients [dE_0..dE_K]."""

    __slots__ = ("model", "quantum_numbers", "order", "corrections", "gaps")

    def __init__(self, model: OscillatorModel, quantum_numbers: tuple,
                 order: int, corrections: list[PolySeries],
                 gaps: list[Fraction]):
        self.model = model
        self.quantum_numbers = tuple(int(q) for q in quantum_numbers)
        self.order = order
        self.corrections = list(corrections)
        self.gaps = list(gaps)


def _cut(grads: list[PolySeries], trunc: int) -> list[PolySeries]:
    """Each gradient component cut to ``trunc``, the solve's truncation, so
    a product builds no slice the solve never reads (never relabelled
    upward)."""
    return [g.with_truncation(min(trunc, g.trunc)) for g in grads]


def ground_expansion(action: FormalAction, order: int) -> GroundExpansion:
    """Solve the ground-state transport hierarchy through ``order``."""
    if order < 1:
        raise IndexOutOfRange(f"order must be >= 1, got {order}")
    model = action.model
    D = action.trunc
    if D < 2 * order:
        raise TruncationTooSmall(
            f"order {order} needs action truncation >= {2 * order}, got {D} "
            f"(order k consumes two degrees of reliable data)",
            required=2 * order, available=D)
    inv_2m = Fraction(1, 2) / model.mass
    corrections = [action.S0]
    grads = [None]  # grad S_j for 1 <= j < order; grad S_0 is never read
    energies: list[Fraction] = []
    for k in range(1, order + 1):
        lap = corrections[k - 1].laplacian()
        rhs = [(lap, k * inv_2m)]
        for j in range(1, k // 2 + 1):
            weight = comb(k, j) * (1 if 2 * j == k else 2)
            rhs.append((dot_gradients(_cut(grads[j], lap.trunc),
                                      _cut(grads[k - j], lap.trunc)),
                        -weight * inv_2m))
        sk, lam = solve_transport(action, 0, min(s.trunc for s, _ in rhs), rhs,
                                  kernel=PolySeries.constant(1, model.dim, 0))
        energies.append(-lam / k)
        corrections.append(sk)
        if k < order:
            grads.append(sk.gradient())
    return GroundExpansion(model, order, corrections, energies)


def transport_residual(ground: GroundExpansion, k: int) -> PolySeries:
    """LHS - RHS of the k-th ground transport equation, complete through
    the truncation t of S_k (zero if valid).

    grad S_0 has no constant term, so the degree-t slice of
    grad S_0 . grad S_k only uses grad S_k below degree t; the other factors
    are known through t.  So every factor may be relabelled to t.
    """
    if not (1 <= k <= ground.order):
        raise IndexOutOfRange(
            f"transport order {k} outside [1, {ground.order}]")
    model = ground.model
    inv_m = Fraction(1) / model.mass
    inv_2m = inv_m / 2
    S = ground.corrections
    t = S[k].trunc

    def grad(j):
        return [g.with_truncation(t) for g in S[j].gradient()]

    lhs = dot_gradients(grad(0), grad(k)).scale(-inv_m)
    for j in range(1, k):
        lhs = lhs - dot_gradients(grad(j), grad(k - j)) \
            .scale(Fraction(comb(k, j)) * inv_2m)
    lhs = lhs + S[k - 1].laplacian().with_truncation(t).scale(Fraction(k) * inv_2m)
    rhs = PolySeries.constant(Fraction(k) * ground.energies[k - 1], model.dim, t)
    return lhs - rhs


def excited_expansion(ground: GroundExpansion, quantum_numbers,
                      order: int) -> ExcitedExpansion:
    """Solve the excited-state hierarchy for quantum numbers ``m``."""
    model = ground.model
    m_idx = tuple(int(q) for q in quantum_numbers)
    if len(m_idx) != model.dim:
        raise IndexOutOfRange(
            f"quantum numbers {list(m_idx)} have length {len(m_idx)}, "
            f"expected {model.dim}")
    if any(q < 0 for q in m_idx) or sum(m_idx) < 1:
        raise IndexOutOfRange(
            f"quantum numbers must be non-negative with |m| >= 1, "
            f"got {list(m_idx)}")
    if order < 0:
        raise IndexOutOfRange(f"order must be >= 0, got {order}")
    if order > ground.order:
        raise IndexOutOfRange(
            f"excited order {order} exceeds ground order {ground.order}")
    D = ground.corrections[0].trunc
    need = 2 * order + sum(m_idx) + 1
    if D < need:
        raise TruncationTooSmall(
            f"excited order {order} with |m| = {sum(m_idx)} needs action "
            f"truncation >= {need}, got {D}",
            required=need, available=D)
    inv_m = Fraction(1) / model.mass
    inv_2m = inv_m / 2
    gap0 = sum(Fraction(q) * w for q, w in zip(m_idx, model.omega))
    S = ground.corrections
    action = FormalAction(model, S[0])
    grads = [s.gradient() for s in S[1:order + 1]]  # grads[j - 1] = grad S_j
    phi0, _ = solve_transport(action, gap0, min(D, D + sum(m_idx) - 2),
                              seed=m_idx)
    corrections = [phi0]
    phi_grads = []  # phi_grads[j] = grad phi_j
    gaps = [gap0]
    for k in range(1, order + 1):
        phi_grads.append(corrections[k - 1].gradient())
        lap = corrections[k - 1].laplacian()
        rhs = [(lap, k * inv_2m)]
        for j in range(1, k + 1):
            c_kj = comb(k, j)
            if j < k:
                rhs.append((corrections[k - j], c_kj * gaps[j]))
            rhs.append((dot_gradients(_cut(grads[j - 1], lap.trunc),
                                      _cut(phi_grads[k - j], lap.trunc)),
                        -c_kj * inv_m))
        phik, gap_k = solve_transport(action, gap0, min(s.trunc for s, _ in rhs),
                                      rhs, kernel=phi0)
        corrections.append(phik)
        gaps.append(gap_k)
    return ExcitedExpansion(model, m_idx, order, corrections, gaps)


def _plain(coeffs: list[Fraction]) -> list[Fraction]:
    """Entry k over k!: hbar^k/k! to plain coefficients, or a Borel transform."""
    out, fact = [], 1
    for k, e in enumerate(coeffs):
        fact *= max(k, 1)
        out.append(e / fact)
    return out


def energy_series(ground: GroundExpansion) -> list[Fraction]:
    """Plain power-series energy coefficients e_k = E_k / k!."""
    return _plain(ground.energies)


def gap_series(excited: ExcitedExpansion) -> list[Fraction]:
    """Plain power-series gap coefficients dE_k / k!."""
    return _plain(excited.gaps)


def total_energy_series(ground: GroundExpansion,
                        excited: ExcitedExpansion) -> list[Fraction]:
    """Total excited-level coefficients e_k + (dE_k / k!), overlap orders."""
    return [e + g for e, g in zip(energy_series(ground), gap_series(excited))]


def ground_report(ground: GroundExpansion) -> dict:
    """JSON-serializable expansion report."""
    return {
        "model": ground.model.to_json(),
        "order": ground.order,
        "convention": "hbar^k/k!",
        "energies": [format_rational(e) for e in ground.energies],
        "series": [format_rational(e) for e in energy_series(ground)],
        "corrections": [s.to_json() for s in ground.corrections],
    }


def excited_report(ground: GroundExpansion,
                   excited: ExcitedExpansion) -> dict:
    return {
        "model": excited.model.to_json(),
        "quantum_numbers": list(excited.quantum_numbers),
        "order": excited.order,
        "convention": "hbar^k/k!",
        "gaps": [format_rational(e) for e in excited.gaps],
        "gap_series": [format_rational(e) for e in gap_series(excited)],
        "total_series": [format_rational(e)
                         for e in total_energy_series(ground, excited)],
        "corrections": [s.to_json() for s in excited.corrections],
    }
