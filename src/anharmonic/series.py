"""Truncated multivariate formal power series over exact rationals.

A :class:`PolySeries` is a sparse map from multi-indices (tuples of
non-negative integer exponents) to :class:`fractions.Fraction` coefficients,
graded by total degree and truncated at an explicit degree ``trunc``.  All
arithmetic is exact; zero coefficients are never stored, so equality of series
is equality of the underlying maps.  Mixed-truncation operations truncate at
the minimum of the operand truncations.  Serialization uses graded
lexicographic term order, with rationals as ``"p/q"`` strings.

Products run in integers: a series caches a graded integer view (each
nonempty slice as integer numerators over the lcm of its denominators), and
``__mul__`` sums slice-pair products per output degree into one ``Fraction``
per coefficient.  Arithmetic results skip the constructor's per-term checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import AxisOutOfRange, DegreeOutOfRange, DimensionMismatch

MultiIndex = tuple


def parse_rational(text) -> Fraction:
    """Parse a rational from a ``"p/q"`` (or integer) string."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(str(text).strip())


def format_rational(value: Fraction) -> str:
    """Render a rational as ``"p/q"`` (or ``"p"`` when the denominator is 1)."""
    value = value if isinstance(value, Fraction) else Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def grlex_key(index: MultiIndex):
    """Sort key realizing graded lexicographic order on multi-indices."""
    return (sum(index), tuple(-e for e in index))


def integer_slice(terms) -> tuple[int, list]:
    """``(L, [(k, n), ...])``: each (k, c) of ``terms`` as n / L, L = lcm."""
    den = lcm(*(c.denominator for _, c in terms))
    return den, [(k, c.numerator * (den // c.denominator)) for k, c in terms]


def widen(acc: list, den: int) -> int:
    """Rescale ``acc = [L, {k: n}]`` (n / L at k) to lcm(L, den); return L // den."""
    if acc[0] % den:
        g = den // gcd(acc[0], den)
        for k in acc[1]:
            acc[1][k] *= g
        acc[0] *= g
    return acc[0] // den


class PolySeries:
    """Immutable truncated formal power series with exact rational terms."""

    __slots__ = ("dim", "trunc", "_terms", "_view")

    def __init__(self, dim: int, trunc: int, terms: Mapping[MultiIndex, Fraction] | None = None):
        if dim < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
        if trunc < 0:
            raise DegreeOutOfRange(f"truncation degree must be >= 0, got {trunc}")
        self.dim = int(dim)
        self.trunc = int(trunc)
        clean: dict[MultiIndex, Fraction] = {}
        if terms:
            for k, c in terms.items():
                k = tuple(int(e) for e in k)
                if len(k) != dim:
                    raise DimensionMismatch(
                        f"multi-index {k} has length {len(k)}, expected {dim}")
                if any(e < 0 for e in k):
                    raise DegreeOutOfRange(f"negative exponent in multi-index {k}")
                if sum(k) > trunc:
                    continue
                c = Fraction(c)
                if c != 0:
                    clean[k] = c
        self._terms, self._view = clean, None

    @classmethod
    def _trusted(cls, dim: int, trunc: int, terms: dict) -> "PolySeries":
        """Wrap a clean map (no zeros, degrees <= trunc) without copying it."""
        out = object.__new__(cls)
        out.dim, out.trunc, out._terms, out._view = dim, trunc, terms, None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, trunc: int) -> "PolySeries":
        return cls(dim, trunc, {})

    @classmethod
    def constant(cls, value, dim: int, trunc: int) -> "PolySeries":
        return cls(dim, trunc, {tuple([0] * dim): Fraction(value)})

    @classmethod
    def monomial(cls, index: Iterable[int], coeff, trunc: int) -> "PolySeries":
        index = tuple(int(e) for e in index)
        return cls(len(index), trunc, {index: Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[MultiIndex, Fraction]]:
        return iter(sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0])))

    def coefficient(self, index: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(int(e) for e in index), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get(tuple([0] * self.dim), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def max_degree(self) -> int:
        """Largest total degree with a nonzero term (0 for the zero series)."""
        if not self._terms:
            return 0
        return max(sum(k) for k in self._terms)

    def graded(self) -> dict[int, tuple[int, list]]:
        """The cached integer view: degree d -> :func:`integer_slice` of its
        terms, nonempty slices in increasing d.  Equality ignores it."""
        if self._view is None:
            slices: dict = {}
            for k, c in self._terms.items():
                slices.setdefault(sum(k), []).append((k, c))
            self._view = {d: integer_slice(slices[d]) for d in sorted(slices)}
        return self._view

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySeries):
            return NotImplemented
        return (self.dim == other.dim and self.trunc == other.trunc
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.dim, self.trunc, frozenset(self._terms.items())))

    def __repr__(self):
        body = " + ".join(
            f"({format_rational(c)})*x^{list(k)}" for k, c in self.items()) or "0"
        return f"PolySeries(dim={self.dim}, trunc={self.trunc}, {body})"

    # -- arithmetic --------------------------------------------------------

    def _require_same_dim(self, other: "PolySeries"):
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"series dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "PolySeries") -> "PolySeries":
        self._require_same_dim(other)
        trunc = min(self.trunc, other.trunc)
        terms = dict(self._terms)
        for k, c in other._terms.items():
            terms[k] = terms[k] + c if k in terms else c
        cut = max(self.trunc, other.trunc) > trunc
        return PolySeries._trusted(self.dim, trunc, {
            k: c for k, c in terms.items() if c and not (cut and sum(k) > trunc)})

    def __neg__(self) -> "PolySeries":
        return PolySeries._trusted(self.dim, self.trunc,
                                   {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "PolySeries") -> "PolySeries":
        return self + (-other)

    def __mul__(self, other: "PolySeries") -> "PolySeries":
        self._require_same_dim(other)
        trunc = min(self.trunc, other.trunc)
        acc: dict[int, list] = {}  # degree -> [L, {k: numerator over L}]
        for da, (la, ta) in self.graded().items():
            for db, (lb, tb) in other.graded().items():
                if da + db > trunc:
                    break
                slot = acc.setdefault(da + db, [la * lb, {}])
                f, nums = widen(slot, la * lb), slot[1]
                for ka, na in ta:
                    na *= f
                    for kb, nb in tb:
                        k = tuple(map(add, ka, kb))
                        nums[k] = nums.get(k, 0) + na * nb
        return PolySeries._trusted(self.dim, trunc, {
            k: Fraction(n, q) for q, ns in acc.values() for k, n in ns.items() if n})

    def scale(self, value) -> "PolySeries":
        value = Fraction(value)
        if value == 0:
            return PolySeries.zero(self.dim, self.trunc)
        return PolySeries._trusted(self.dim, self.trunc,
                                   {k: c * value for k, c in self._terms.items()})

    def with_truncation(self, trunc: int) -> "PolySeries":
        """Restrict (or relabel upward) the truncation degree."""
        return PolySeries(self.dim, trunc, self._terms)

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, axis: int) -> "PolySeries":
        if not (0 <= axis < self.dim):
            raise AxisOutOfRange(
                f"axis {axis} out of range for dimension {self.dim}")
        # k -> k - e_axis is one-to-one, so nothing collides or cancels
        return PolySeries._trusted(self.dim, max(self.trunc - 1, 0), {
            k[:axis] + (k[axis] - 1,) + k[axis + 1:]: c * k[axis]
            for k, c in self._terms.items() if k[axis]})

    def gradient(self) -> list["PolySeries"]:
        return [self.partial_derivative(i) for i in range(self.dim)]

    def laplacian(self) -> "PolySeries":
        out = PolySeries.zero(self.dim, max(self.trunc - 2, 0))
        for i in range(self.dim):
            out = out + self.partial_derivative(i).partial_derivative(i)
        return out

    def homogeneous_component(self, degree: int) -> "PolySeries":
        if not (0 <= degree <= self.trunc):
            raise DegreeOutOfRange(
                f"degree {degree} outside [0, {self.trunc}]")
        return PolySeries._trusted(self.dim, self.trunc, {
            k: c for k, c in self._terms.items() if sum(k) == degree})

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence) -> float:
        """Evaluate in double precision at a point (length ``dim``)."""
        if len(point) != self.dim:
            raise DimensionMismatch(
                f"point has length {len(point)}, expected {self.dim}")
        total = 0.0
        for k, c in self._terms.items():
            term = float(c)
            for x, e in zip(point, k):
                if e:
                    term *= float(x) ** e
            total += term
        return total

    def evaluate_exact(self, point: Sequence) -> Fraction:
        """Evaluate exactly at a rational point."""
        if len(point) != self.dim:
            raise DimensionMismatch(
                f"point has length {len(point)}, expected {self.dim}")
        total = Fraction(0)
        for k, c in self._terms.items():
            term = c
            for x, e in zip(point, k):
                if e:
                    term *= Fraction(x) ** e
            total += term
        return total

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "trunc": self.trunc,
            "terms": [{"k": list(k), "c": format_rational(c)}
                      for k, c in self.items()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "PolySeries":
        terms = {tuple(t["k"]): parse_rational(t["c"]) for t in data.get("terms", [])}
        return cls(int(data["dim"]), int(data["trunc"]), terms)


def dot_gradients(a: Sequence[PolySeries], b: Sequence[PolySeries]) -> PolySeries:
    """Exact dot product of two equal-length lists of series."""
    if len(a) != len(b) or not a:
        raise DimensionMismatch("gradient lists must be equal nonempty length")
    out = a[0] * b[0]
    for pa, pb in zip(a[1:], b[1:]):
        out = out + pa * pb
    return out
