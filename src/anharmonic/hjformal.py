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
each monomial x^k by sum_i k_i omega_i - shift.  A slice is integer
numerators over one denominator, (L, [(k, n), ...]) as in PolySeries.graded,
one list per axis for a gradient; each source sums in integers over an lcm
denominator and becomes Fractions once, before the division.  The
nonlinear equation (1/2m)|grad S0|^2 = V has the same shape, with shift 0:

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
from .series import (PolySeries, dot_gradients, format_rational, grlex_key,
                     integer_slice, widen)


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


def _gradient(part: tuple, dim: int) -> tuple:
    """Per-axis partial derivatives of one nonempty integer slice."""
    grad: list[list] = [[] for _ in range(dim)]
    for k, c in part[1]:
        for i, e in enumerate(k):
            if e:
                grad[i].append((k[:i] + (e - 1,) + k[i + 1:], c * e))
    return part[0], grad


def _add_dot(acc: list, ga: tuple | None, gb: tuple | None, scale) -> None:
    """acc += scale * (ga . gb) for two integer gradient slices (None if empty)."""
    if not (ga and gb):
        return
    f = widen(acc, ga[0] * gb[0] * scale.denominator) * scale.numerator
    nums = acc[1]
    for pa, pb in zip(ga[1], gb[1]):
        for ka, ca in pa:
            ca *= f
            for kb, cb in pb:
                k = tuple(map(add, ka, kb))
                nums[k] = nums.get(k, 0) + ca * cb


def _add_slice(acc: list, part: tuple | None, scale) -> None:
    """acc += scale * part for one integer slice."""
    if part:
        f = widen(acc, part[0] * scale.denominator) * scale.numerator
        for k, c in part[1]:
            acc[1][k] = acc[1].get(k, 0) + f * c


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
    scale = Fraction(-1) / model.mass
    S0 = action.S0.graded()
    field = [_gradient(S0[a], dim) if a in S0 else None
             for a in range(action.S0.trunc + 1)]
    rhs = rhs.graded() if rhs is not None else {}
    kernel = kernel.graded() if kernel is not None else {}
    pin = seed if seed is not None else free
    pin_degree = sum(pin) if pin is not None else -1
    terms: dict = {}
    grads: list[tuple | None] = []
    lam = Fraction(0)
    for d in range(trunc + 1):
        acc = [1, {}]
        _add_slice(acc, rhs.get(d), 1)
        for b in range(max(1, d + 3 - len(field)), d):
            _add_dot(acc, field[d + 2 - b], grads[b], scale)
        if lam:
            _add_slice(acc, kernel.get(d), lam)
        part, obstruction = _divide(
            {k: Fraction(v, acc[0]) for k, v in acc[1].items() if v},
            model.omega, shift, pin if d == pin_degree else None)
        if d == pin_degree:
            lam = -obstruction
            if seed is not None:
                part[seed] = Fraction(1)
        terms.update(part)
        grads.append(_gradient(integer_slice(part.items()), dim) if part else None)
    return PolySeries(dim, trunc, terms), lam


def solve_hj_formal(model: OscillatorModel, trunc: int) -> FormalAction:
    """Solve the zero-energy inverted-potential Hamilton-Jacobi equation
    formally through total degree ``trunc``."""
    if trunc < 2:
        raise BadTruncation(f"truncation degree must be >= 2, got {trunc}")
    V = model.potential_series(trunc).graded()
    half, whole = Fraction(-1, 2) / model.mass, Fraction(-1) / model.mass
    terms: dict = {}
    grads = [None] * 3  # only the slices of degree >= 3 enter the sums
    for d in range(3, trunc + 1):
        acc = [1, {}]
        _add_slice(acc, V.get(d), 1)
        for i in range(3, (d + 2) // 2 + 1):
            _add_dot(acc, grads[i], grads[d + 2 - i], half if 2 * i == d + 2 else whole)
        part, _ = _divide({k: Fraction(v, acc[0]) for k, v in acc[1].items() if v},
                          model.omega, 0)
        terms.update(part)
        grads.append(_gradient(integer_slice(part.items()), model.dim)
                     if part else None)
    S0 = model.quadratic_action(trunc) + PolySeries(model.dim, trunc, terms)
    return FormalAction(model, S0)


def hj_residual(action: FormalAction) -> PolySeries:
    """(1/2m)|grad S0|^2 - V, complete through degree trunc.

    grad S0 has no constant term, so the degree-t slice of |grad S0|^2 only
    uses grad S0 below degree t, and the factors may be relabelled to t.
    """
    t = action.trunc
    grad = [g.with_truncation(t) for g in action.S0.gradient()]
    inv_2m = Fraction(1, 2) / action.model.mass
    return dot_gradients(grad, grad).scale(inv_2m) - action.model.potential_series(t)


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
