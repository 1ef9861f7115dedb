"""Truncated multivariate formal power series over exact rationals.

A :class:`PolySeries` is a sparse map from multi-indices (tuples of
non-negative integer exponents) to :class:`fractions.Fraction` coefficients,
graded by total degree and truncated at an explicit degree ``trunc``.  All
arithmetic is exact; zero coefficients are never stored, so equality of series
is equality of the underlying maps.  Mixed-truncation operations truncate at
the minimum of the operand truncations.

Serialization uses graded lexicographic term order for determinism, with
rationals rendered as ``"p/q"`` strings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AxisOutOfRange,
    DegreeOutOfRange,
    DimensionMismatch,
)

Rational = Fraction
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
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def grlex_key(index: MultiIndex):
    """Sort key realizing graded lexicographic order on multi-indices."""
    return (sum(index), tuple(-e for e in index))


class PolySeries:
    """Immutable truncated formal power series with exact rational terms."""

    __slots__ = ("dim", "trunc", "_terms")

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
        self._terms = clean

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
            terms[k] = terms.get(k, Fraction(0)) + c
        return PolySeries(self.dim, trunc, terms)

    def __neg__(self) -> "PolySeries":
        return PolySeries(self.dim, self.trunc,
                          {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "PolySeries") -> "PolySeries":
        return self + (-other)

    def __mul__(self, other: "PolySeries") -> "PolySeries":
        self._require_same_dim(other)
        trunc = min(self.trunc, other.trunc)
        terms: dict[MultiIndex, Fraction] = {}
        for ka, ca in self._terms.items():
            da = sum(ka)
            for kb, cb in other._terms.items():
                if da + sum(kb) > trunc:
                    continue
                k = tuple(a + b for a, b in zip(ka, kb))
                terms[k] = terms.get(k, Fraction(0)) + ca * cb
        return PolySeries(self.dim, trunc, terms)

    def scale(self, value) -> "PolySeries":
        value = Fraction(value)
        if value == 0:
            return PolySeries.zero(self.dim, self.trunc)
        return PolySeries(self.dim, self.trunc,
                          {k: c * value for k, c in self._terms.items()})

    def with_truncation(self, trunc: int) -> "PolySeries":
        """Restrict (or relabel upward) the truncation degree."""
        return PolySeries(self.dim, trunc, self._terms)

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, axis: int) -> "PolySeries":
        if not (0 <= axis < self.dim):
            raise AxisOutOfRange(
                f"axis {axis} out of range for dimension {self.dim}")
        trunc = max(self.trunc - 1, 0)
        terms: dict[MultiIndex, Fraction] = {}
        for k, c in self._terms.items():
            e = k[axis]
            if e == 0:
                continue
            kk = k[:axis] + (e - 1,) + k[axis + 1:]
            terms[kk] = terms.get(kk, Fraction(0)) + c * e
        return PolySeries(self.dim, trunc, terms)

    def gradient(self) -> list["PolySeries"]:
        return [self.partial_derivative(i) for i in range(self.dim)]

    def laplacian(self) -> "PolySeries":
        trunc = max(self.trunc - 2, 0)
        terms: dict[MultiIndex, Fraction] = {}
        for k, c in self._terms.items():
            for axis, e in enumerate(k):
                if e < 2:
                    continue
                kk = k[:axis] + (e - 2,) + k[axis + 1:]
                terms[kk] = terms.get(kk, Fraction(0)) + c * e * (e - 1)
        return PolySeries(self.dim, trunc, terms)

    def homogeneous_component(self, degree: int) -> "PolySeries":
        if not (0 <= degree <= self.trunc):
            raise DegreeOutOfRange(
                f"degree {degree} outside [0, {self.trunc}]")
        terms = {k: c for k, c in self._terms.items() if sum(k) == degree}
        return PolySeries(self.dim, self.trunc, terms)

    def by_degree(self) -> list[dict]:
        """The terms split by total degree: entry d (0 <= d <= trunc) maps
        each degree-d multi-index to its coefficient."""
        graded: list[dict] = [{} for _ in range(self.trunc + 1)]
        for k, c in self._terms.items():
            graded[sum(k)][k] = c
        return graded

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
