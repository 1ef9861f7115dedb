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
each monomial x^k by sum_i k_i omega_i - shift.  Only the degrees that some
term reaches are visited: those of rhs and of the kernel, the pinned one, and
a + b - 2 for each slice h_a once u_b is nonzero (on 1D x^(2 kappa) models
most degrees are empty).  A slice is integer numerators over one denominator
at packed keys, (L, [(key, n), ...]) as in PolySeries.graded, one per axis
for a gradient; sources and products sum into one integer accumulator, whose
division by the integer divisors is again one canonical slice, so the
solution is built as a view.  The nonlinear equation (1/2m)|grad S0|^2 = V
has the same shape, with shift 0:

    E s_d = V_d - (1/2m) sum_{i+j=d+2; i,j>=3} grad s_i . grad s_j.

The linearizing map mu^i, with D mu^i . (grad S0 / m) = omega_i mu^i, is the
transport solution with shift omega_i seeded by x_i.  Its divisors
sum_j k_j omega_j - omega_i can vanish (resonance) for unlucky frequencies;
that is reported, not worked around.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (BadTruncation, DegenerateEigenvalue, ResonantDivisor,
                     TruncationTooSmall)
from .model import OscillatorModel
from .series import (PolySeries, add_product, add_slice, canonical, derive,
                     dot_gradients, format_rational, grlex_key, pack, unpack,
                     weighted_degrees)


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


def _gradient(part: tuple, dim: int) -> list:
    """Per-axis partial derivatives of one nonempty integer slice, as slices."""
    return [derive(part, i) for i in range(dim)]


def _add_dot(acc: list, ga: list, gb: list, scale) -> None:
    """acc += scale * (ga . gb) for two integer gradients."""
    for pa, pb in zip(ga, gb):
        add_product(acc, pa, pb, scale)


def _frequencies(omega, shift) -> tuple:
    """(q, [q omega_i], q shift), q the lcm of the denominators."""
    q = lcm(shift.denominator, *(w.denominator for w in omega))
    return q, [(w * q).numerator for w in omega], (shift * q).numerator


def _divide(acc: list, freq: tuple, pin=None) -> tuple[tuple | None, Fraction]:
    """Solve (E - shift) u = acc on one slice in integers, ``freq`` as above.

    Returns (u, obstruction): u is a canonical slice (None if zero) and
    ``obstruction`` the coefficient of acc at the key ``pin``, whose divisor
    vanishes and whose coefficient is left out of u.  Any other vanishing
    divisor on a nonzero coefficient raises DegenerateEigenvalue, naming the
    first such monomial in grlex order.
    """
    den, nums = acc
    q, omega, shift = freq
    keys = [k for k, n in nums.items() if n and k != pin]
    divisors = [v - shift for v in weighted_degrees(keys, omega)]
    if 0 in divisors:
        k = min((unpack(k, len(omega)) for k, v in zip(keys, divisors) if not v),
                key=grlex_key)
        raise DegenerateEigenvalue(
            f"vanishing divisor on monomial {list(k)}: "
            f"sum k_i omega_i = {format_rational(Fraction(shift, q))}",
            monomial=list(k))
    # n / den divided by v / q is n q (M / v) / (den M), M = lcm of the v
    m = lcm(*divisors)
    return (canonical(den * m, [(k, nums[k] * q * (m // v))
                                for k, v in zip(keys, divisors)]),
            Fraction(nums.get(pin, 0), den))


def solve_transport(action: FormalAction, shift, trunc: int,
                    rhs=(), seed: tuple | None = None,
                    kernel: PolySeries | None = None):
    """Solve (1/m) grad S0 . grad u - shift u = rhs + lam kernel through
    degree ``trunc``; returns (u, lam).  ``rhs`` lists (series, weight) pairs.

    Exactly one of ``seed`` and ``kernel`` pins a monomial whose divisor
    vanishes.  ``seed`` (a multi-index) puts coefficient 1 on it.  ``kernel``
    must solve the equation with rhs = 0 and have that monomial, with
    coefficient 1, as its whole lowest slice; u keeps coefficient 0 on it,
    and lam is fixed so that its equation holds.
    Slice d of u uses S0 through degree d + 2 - p, with p >= 1 the lowest
    nonzero degree of u, so u is reliable while trunc <= S0.trunc + p - 2.
    """
    model = action.model
    dim = model.dim
    scale = Fraction(-1) / model.mass
    freq = _frequencies(model.omega, shift)
    # grad h_a for the nonempty slices a >= 3 of S0 = q + h
    field = {a: _gradient(part, dim)
             for a, part in action.S0.graded().items() if a >= 3}
    sources = [(series.graded(), weight) for series, weight in rhs]
    if seed is not None:
        pin_degree, pin_key = sum(seed), pack(seed)
    else:  # the kernel's lowest slice is (1, [(pinned key, 1)])
        pin_degree, (_, [(pin_key, _)]) = next(iter(kernel.graded().items()))
    # the degrees some term can reach; every other accumulator is empty
    reach = {pin_degree, *(d for graded, _ in sources for d in graded)}
    if kernel is not None:
        reach.update(kernel.graded())
    view: dict = {}
    grads: dict = {}  # degree b >= 1 -> grad u_b, nonempty slices only
    lam = Fraction(0)
    for d in range(trunc + 1):
        if d not in reach:
            continue
        acc = [1, {}]
        for graded, weight in sources:
            add_slice(acc, graded.get(d), weight)
        for b, grad in grads.items():
            if (a := field.get(d + 2 - b)) is not None:
                _add_dot(acc, a, grad, scale)
        part, obstruction = _divide(acc, freq, pin_key if d == pin_degree else None)
        if d == pin_degree:
            lam = -obstruction
            if seed is not None:  # coefficient 1 = L / L keeps u canonical
                den, nums = part or (1, [])
                part = den, nums + [(pin_key, den)]
            else:  # lam kernel enters above the pinned degree only
                sources.append((kernel.graded(), lam))
        if part:
            view[d] = part
            if d:
                grads[d] = _gradient(part, dim)
                reach.update(a + d - 2 for a in field)
    return PolySeries._from_view(dim, trunc, view), lam


def solve_hj_formal(model: OscillatorModel, trunc: int) -> FormalAction:
    """Solve the zero-energy inverted-potential Hamilton-Jacobi equation
    formally through total degree ``trunc``."""
    if trunc < 2:
        raise BadTruncation(f"truncation degree must be >= 2, got {trunc}")
    V = model.potential_series(trunc).graded()
    half, whole = Fraction(-1, 2) / model.mass, Fraction(-1) / model.mass
    freq = _frequencies(model.omega, 0)
    view: dict = {}
    grads = [[]] * 3  # only the slices of degree >= 3 enter the sums
    for d in range(3, trunc + 1):
        acc = [1, {}]
        add_slice(acc, V.get(d))
        for i in range(3, (d + 2) // 2 + 1):
            _add_dot(acc, grads[i], grads[d + 2 - i], half if 2 * i == d + 2 else whole)
        part, _ = _divide(acc, freq)
        if part:
            view[d] = part
        grads.append(_gradient(part, model.dim) if part else [])
    S0 = (model.quadratic_action(trunc)
          + PolySeries._from_view(model.dim, trunc, view))
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
    inv_m = Fraction(1) / action.model.mass
    field = [g.with_truncation(t).scale(inv_m) for g in action.S0.gradient()]
    out = []
    for axis, comp in enumerate(smap.mu):
        grad = [g.with_truncation(t) for g in comp.gradient()]
        out.append(dot_gradients(grad, field) - comp.scale(smap.model.omega[axis]))
    return out
