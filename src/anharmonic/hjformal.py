"""Formal zero-energy Hamilton-Jacobi solution S0, the graded transport
solver every quantum correction uses, and the Sternberg linearization.

Write S0 = q + h with q = (1/2) m sum_i omega_i x_i^2 and h of degree >= 3,
so that (1/m) grad q . grad = E = sum_i omega_i x_i d_i with
E x^k = (sum_i k_i omega_i) x^k.  The transport equation
(1/m) grad S0 . grad u - shift u = rhs then reads, at degree d,

    (E - shift) u_d = rhs_d - (1/m) sum_{a>=3} grad h_a . grad u_{d+2-a},

which involves only lower slices of u.  So u is built one homogeneous slice
at a time, forming just that slice of the product (an online or "relaxed"
product: van der Hoeven, *Relax, but don't be too lazy*, 2002) and dividing
each monomial x^k by sum_i k_i omega_i - shift.  The nonlinear equation
(1/2m)|grad S0|^2 = V has the same shape, with shift 0:

    E s_d = V_d - (1/2m) sum_{i+j=d+2; i,j>=3} grad s_i . grad s_j.

The linearizing map mu^i, with D mu^i . (grad S0 / m) = omega_i mu^i, is the
transport solution with shift omega_i seeded by x_i.  Its divisors
sum_j k_j omega_j - omega_i can vanish (resonance) for unlucky frequencies;
that is reported, not worked around.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import (BadTruncation, DegenerateEigenvalue, ResonantDivisor,
                     TruncationTooSmall)
from .model import OscillatorModel
from .series import PolySeries, dot_gradients, format_rational, grlex_key


class FormalAction:
    """The formal action series S0 together with its model."""

    __slots__ = ("model", "S0")

    def __init__(self, model: OscillatorModel, S0: PolySeries):
        self.model = model
        self.S0 = S0

    @property
    def trunc(self) -> int:
        return self.S0.trunc


class SternbergMap:
    """Formal linearizing coordinates: mu^i(x) = x_i + O(|x|^2)."""

    __slots__ = ("model", "mu", "trunc")

    def __init__(self, model: OscillatorModel, mu: list[PolySeries], trunc: int):
        self.model = model
        self.mu = list(mu)
        self.trunc = trunc


# -- slices: dicts from the multi-indices of one total degree to Fractions

def _gradient(part: dict, dim: int) -> list[dict]:
    """Per-axis partial derivatives of one homogeneous slice."""
    grad: list[dict] = [{} for _ in range(dim)]
    for k, c in part.items():
        for i, e in enumerate(k):
            if e:
                grad[i][k[:i] + (e - 1,) + k[i + 1:]] = c * e
    return grad


def _add_dot(acc: dict, ga: list[dict], gb: list[dict], scale) -> None:
    """acc += scale * (ga . gb) for two per-axis gradient slices."""
    for pa, pb in zip(ga, gb):
        for ka, ca in pa.items():
            ca *= scale
            for kb, cb in pb.items():
                k = tuple(map(add, ka, kb))
                acc[k] = acc.get(k, 0) + ca * cb


def _divide(src: dict, omega, shift, free=None) -> tuple[dict, Fraction]:
    """Solve (E - shift) u = src on one slice.

    Returns (u, obstruction): ``obstruction`` is the coefficient of src at
    ``free``, whose divisor vanishes and whose coefficient is left out of u.
    Any other vanishing divisor on a nonzero coefficient raises
    DegenerateEigenvalue, naming the first such monomial in grlex order.
    """
    out = {}
    resonant = []
    for k, c in src.items():
        if not c or k == free:
            continue
        divisor = sum(e * w for e, w in zip(k, omega)) - shift
        if divisor:
            out[k] = c / divisor
        else:
            resonant.append(k)
    if resonant:
        k = min(resonant, key=grlex_key)
        raise DegenerateEigenvalue(
            f"vanishing divisor on monomial {list(k)}: "
            f"sum k_i omega_i = {format_rational(shift)}",
            monomial=list(k))
    return out, Fraction(src.get(free, 0))


def solve_transport(action: FormalAction, shift, trunc: int,
                    rhs: PolySeries | None = None, seed: tuple | None = None,
                    free: tuple | None = None, kernel: PolySeries | None = None):
    """Solve (1/m) grad S0 . grad u - shift u = rhs + lam kernel through
    degree ``trunc``; returns (u, lam).

    ``seed`` puts coefficient 1 on that monomial (its divisor vanishes).
    ``free`` keeps coefficient 0 on it and fixes lam so that its equation
    holds; ``kernel`` must solve the equation with rhs = 0 and be exactly
    x^free through degree |free|.  Without a kernel lam enters only the
    equation of ``free`` itself, which is exact for free = 0 and kernel = 1.
    Slice d of u uses S0 through degree d + 2 - p, with p >= 1 the lowest
    nonzero degree of u, so u is reliable while trunc <= S0.trunc + p - 2.
    """
    model = action.model
    dim = model.dim
    inv_m = Fraction(1) / model.mass
    field = [_gradient(part, dim) if a >= 3 else None
             for a, part in enumerate(action.S0.by_degree())]
    rhs = rhs.by_degree() if rhs is not None else []
    kernel = kernel.by_degree() if kernel is not None else []
    pin = seed if seed is not None else free
    pin_degree = sum(pin) if pin is not None else -1
    terms: dict = {}
    grads: list[list[dict]] = []
    lam = Fraction(0)
    for d in range(trunc + 1):
        src = dict(rhs[d]) if d < len(rhs) else {}
        for b in range(max(1, d + 3 - len(field)), d):
            _add_dot(src, field[d + 2 - b], grads[b], -inv_m)
        if lam and d < len(kernel):
            for k, c in kernel[d].items():
                src[k] = src.get(k, 0) + lam * c
        part, obstruction = _divide(src, model.omega, shift,
                                    pin if d == pin_degree else None)
        if d == pin_degree:
            lam = -obstruction
            if seed is not None:
                part[seed] = Fraction(1)
        terms.update(part)
        grads.append(_gradient(part, dim))
    return PolySeries(dim, trunc, terms), lam


def solve_hj_formal(model: OscillatorModel, trunc: int) -> FormalAction:
    """Solve the zero-energy inverted-potential Hamilton-Jacobi equation
    formally through total degree ``trunc``."""
    if trunc < 2:
        raise BadTruncation(f"truncation degree must be >= 2, got {trunc}")
    V = model.potential_series(trunc).by_degree()
    inv_2m = Fraction(1, 2) / model.mass
    terms: dict = {}
    grads = [None] * 3  # only the slices of degree >= 3 enter the sums
    for d in range(3, trunc + 1):
        src = dict(V[d])
        for i in range(3, (d + 2) // 2 + 1):
            j = d + 2 - i
            _add_dot(src, grads[i], grads[j], -inv_2m if i == j else -2 * inv_2m)
        part, _ = _divide(src, model.omega, 0)
        terms.update(part)
        grads.append(_gradient(part, model.dim))
    S0 = model.quadratic_action(trunc) + PolySeries(model.dim, trunc, terms)
    return FormalAction(model, S0)


def hj_residual(action: FormalAction) -> PolySeries:
    """(1/2m)|grad S0|^2 - V, reliable through degree trunc - 1."""
    grad = action.S0.gradient()
    inv_2m = Fraction(1, 2) / action.model.mass
    V = action.model.potential_series(max(action.trunc - 1, 0))
    return dot_gradients(grad, grad).scale(inv_2m) - V


def flow_field(action: FormalAction) -> list[PolySeries]:
    """The gradient semi-flow field grad S0 / m as a list of series."""
    inv_m = Fraction(1) / action.model.mass
    return [p.scale(inv_m) for p in action.S0.gradient()]


def sternberg_linearize(action: FormalAction, trunc: int) -> SternbergMap:
    """Compute the formal linearizing map mu through degree ``trunc``.

    Requires the action to be known one degree further (the field loses one
    degree under differentiation).
    """
    if trunc < 1:
        raise BadTruncation(f"truncation degree must be >= 1, got {trunc}")
    if action.trunc < trunc + 1:
        raise TruncationTooSmall(
            f"linearization through degree {trunc} needs action truncation "
            f">= {trunc + 1}, got {action.trunc}",
            required=trunc + 1, available=action.trunc)
    model = action.model
    mu: list[PolySeries] = []
    for axis, w in enumerate(model.omega):
        unit = tuple(int(j == axis) for j in range(model.dim))
        try:
            comp, _ = solve_transport(action, w, trunc, seed=unit)
        except DegenerateEigenvalue as exc:
            k = exc.payload["monomial"]
            raise ResonantDivisor(
                f"resonant divisor for monomial {k} on axis {axis}: "
                f"sum k_j omega_j = omega_{axis}",
                monomial=k, axis=axis) from None
        mu.append(comp)
    return SternbergMap(model, mu, trunc)


def sternberg_residual(smap: SternbergMap, action: FormalAction) -> list[PolySeries]:
    """Pushforward defect D mu . (grad S0 / m) - (omega_i mu^i)_i per axis,
    complete through degree ``smap.trunc``.

    The field has no constant term, so the degree-t slice of D mu . field
    only uses D mu below degree t, and both factors may be relabelled to t.
    """
    t = smap.trunc
    field = [f.with_truncation(t) for f in flow_field(action)]
    out = []
    for axis, comp in enumerate(smap.mu):
        grad = [g.with_truncation(t) for g in comp.gradient()]
        out.append(dot_gradients(grad, field) - comp.scale(smap.model.omega[axis]))
    return out
