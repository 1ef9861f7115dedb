"""Truncated multivariate formal power series over exact rationals.

A :class:`PolySeries` is a sparse map from multi-indices (tuples of
non-negative integer exponents) to :class:`fractions.Fraction` coefficients,
graded by total degree and truncated at an explicit degree ``trunc``.  All
arithmetic is exact; zero coefficients are never stored, so equality of series
is equality of the underlying maps.  Mixed-truncation operations truncate at
the minimum of the operand truncations.  Serialization uses graded
lexicographic term order, with rationals as ``"p/q"`` strings.

A series stores one form, its graded integer view.  A monomial x^k is one
packed key, sum_i k_i << (SLOT_BITS i) (Monagan and Pearce, *Polynomial
division using dynamic arrays, heaps, and packed exponent vectors*, 2007),
so a product key is one addition and d/dx_i subtracts 1 << (SLOT_BITS i);
only this module knows that layout.  Each nonempty degree-d slice is
(L, [(key, n), ...]) with coefficient n / L at key, no n zero and
gcd(L, *ns) = 1, so the view of a term map is unique.  Arithmetic builds
views directly; Fractions are decoded only when ``items``, ``coefficient``,
evaluation or JSON read them, and equality compares the slices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, log10
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (AxisOutOfRange, DegreeOutOfRange, DimensionMismatch,
                     DomainExceeded)

MultiIndex = tuple

# Width of one exponent slot of a packed key.  No operation makes an
# exponent above the truncation, so every exponent fits its slot while
# trunc <= MAX_TRUNC, which is also the mask of one slot.
SLOT_BITS = 16
MAX_TRUNC = (1 << SLOT_BITS) - 1


def parse_rational(text) -> Fraction:
    """Parse a rational from a ``"p/q"`` (or integer) string."""
    if isinstance(text, bool):
        raise ValueError(f"{text} is a boolean, not a rational")
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


def to_float(value, what: str) -> float:
    """The double nearest an exact rational (0.0 if it underflows);
    DomainExceeded naming ``what`` if it lies past the double range."""
    try:
        return float(value)
    except OverflowError:
        value = Fraction(value)
        digits = round(log10(2) * (abs(value.numerator).bit_length()
                                   - value.denominator.bit_length()))
        raise DomainExceeded(f"{what}, about 10^{digits} in size, is past the "
                             f"double range", value=what) from None


def to_floats(values: Sequence, what: str) -> list[float]:
    """``to_float`` of each entry, ``what[i]`` naming entry i."""
    try:
        return [float(value) for value in values]
    except OverflowError:  # the second pass raises, naming the entry
        return [to_float(value, f"{what}[{i}]") for i, value in enumerate(values)]


def grlex_key(index: MultiIndex):
    """Sort key realizing graded lexicographic order on multi-indices."""
    return (sum(index), tuple(-e for e in index))


def pack(index: Iterable[int]) -> int:
    """The packed key of a multi-index."""
    return sum(e << (SLOT_BITS * i) for i, e in enumerate(index))


def unpack(key: int, dim: int) -> MultiIndex:
    """The multi-index of a packed key."""
    return tuple(key >> (SLOT_BITS * i) & MAX_TRUNC for i in range(dim))


def weighted_degrees(keys: Iterable[int], weights: Sequence[int]) -> list[int]:
    """sum_i k_i w_i for each packed key k, for integer weights w_i."""
    slots = [(SLOT_BITS * i, w) for i, w in enumerate(weights)]
    return [sum((k >> s & MAX_TRUNC) * w for s, w in slots) for k in keys]


def check_trunc(trunc: int) -> int:
    """``trunc`` if a truncation degree that packed keys can hold."""
    if not 0 <= trunc <= MAX_TRUNC:
        raise DegreeOutOfRange(
            f"truncation degree must be in [0, {MAX_TRUNC}], got {trunc}")
    return int(trunc)


def canonical(den: int, terms: list) -> tuple | None:
    """The slice (L, terms) of the nonzero ``terms`` (key, n) at n / den,
    with L and every n divided by gcd(den, *ns); None when ``terms`` is
    empty."""
    if not terms:
        return None
    g = gcd(den, *(n for _, n in terms))
    if g == 1:
        return den, terms
    return den // g, [(k, n // g) for k, n in terms]


def widen(acc: list, den: int) -> int:
    """Rescale ``acc = [L, {k: n}]`` (n / L at k) to lcm(L, den); return L // den."""
    if acc[0] % den:
        g = den // gcd(acc[0], den)
        for k in acc[1]:
            acc[1][k] *= g
        acc[0] *= g
    return acc[0] // den


def slice_of(acc: list) -> tuple | None:
    """The canonical slice of an accumulator ``[L, {k: n}]``."""
    return canonical(acc[0], [(k, n) for k, n in acc[1].items() if n])


def add_slice(acc: list, part: tuple | None, scale=1) -> None:
    """acc += scale * part for one integer slice."""
    if part and scale:
        f = widen(acc, part[0] * scale.denominator) * scale.numerator
        nums = acc[1]
        for k, n in part[1]:
            nums[k] = nums.get(k, 0) + f * n


def add_product(acc: list, a: tuple, b: tuple, scale=1) -> None:
    """acc += scale * a * b for integer slices: the one slice-product loop."""
    f = widen(acc, a[0] * b[0] * scale.denominator) * scale.numerator
    nums = acc[1]
    get = nums.get
    for ka, na in a[1]:
        na *= f
        for kb, nb in b[1]:
            k = ka + kb
            nums[k] = get(k, 0) + na * nb


def derive(part: tuple, axis: int) -> tuple:
    """d/dx_axis of one slice, over the same denominator (not reduced)."""
    shift = SLOT_BITS * axis
    one = 1 << shift
    return part[0], [(k - one, n * e) for k, n in part[1]
                     if (e := k >> shift & MAX_TRUNC)]


class PolySeries:
    """Immutable truncated formal power series with exact rational terms."""

    __slots__ = ("dim", "trunc", "_view")

    def __init__(self, dim: int, trunc: int, terms: Mapping[MultiIndex, Fraction] | None = None):
        if dim < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.trunc = check_trunc(trunc)
        acc: dict[int, list] = {}  # degree -> [L, {key: numerator over L}]
        for k, c in (terms or {}).items():
            k = tuple(int(e) for e in k)
            if len(k) != dim:
                raise DimensionMismatch(
                    f"multi-index {k} has length {len(k)}, expected {dim}")
            if any(e < 0 for e in k):
                raise DegreeOutOfRange(f"negative exponent in multi-index {k}")
            if sum(k) <= trunc:
                add_slice(acc.setdefault(sum(k), [1, {}]), (1, [(pack(k), 1)]),
                          Fraction(c))
        self._view = {d: part for d in sorted(acc) if (part := slice_of(acc[d]))}

    @classmethod
    def _from_view(cls, dim: int, trunc: int, view: dict) -> "PolySeries":
        """Wrap a view (canonical nonempty slices of degree <= trunc, in
        increasing degree) without copying it."""
        out = object.__new__(cls)
        out.dim, out.trunc, out._view = dim, trunc, view
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

    @property
    def _terms(self) -> dict[MultiIndex, Fraction]:
        """The Fraction map, decoded from the view on each read."""
        return {unpack(k, self.dim): Fraction(n, den)
                for den, part in self._view.values() for k, n in part}

    def items(self) -> Iterator[tuple[MultiIndex, Fraction]]:
        return iter(sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0])))

    def coefficient(self, index: Iterable[int]) -> Fraction:
        index = tuple(int(e) for e in index)
        valid = len(index) == self.dim and min(index) >= 0
        den, part = self._view.get(sum(index), (1, ())) if valid else (1, ())
        return Fraction(dict(part).get(pack(index), 0), den)

    def is_zero(self) -> bool:
        return not self._view

    def max_degree(self) -> int:
        """Largest total degree with a nonzero term (0 for the zero series)."""
        return max(self._view, default=0)

    def graded(self) -> dict[int, tuple[int, list]]:
        """The integer view: degree d -> canonical slice (L, [(key, n), ...])
        of its terms, nonempty slices in increasing d."""
        return self._view

    def _slice_sets(self) -> frozenset:
        """The view without term order; canonical slices make it exact."""
        return frozenset((d, den, frozenset(part))
                         for d, (den, part) in self._view.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySeries):
            return NotImplemented
        return (self.dim == other.dim and self.trunc == other.trunc
                and self._slice_sets() == other._slice_sets())

    def __hash__(self):
        return hash((self.dim, self.trunc, self._slice_sets()))

    def __repr__(self):
        body = " + ".join(
            f"({format_rational(c)})*x^{list(k)}" for k, c in self.items()) or "0"
        return f"PolySeries(dim={self.dim}, trunc={self.trunc}, {body})"

    # -- arithmetic --------------------------------------------------------

    def _require_same_dim(self, other: "PolySeries"):
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"series dimensions differ: {self.dim} vs {other.dim}")

    def _map_slices(self, trunc: int, fn) -> "PolySeries":
        """The series of the slices ``fn(d, slice)`` (None drops one)."""
        return PolySeries._from_view(self.dim, trunc, {
            d: out for d, part in self._view.items()
            if (out := fn(d, part)) is not None})

    def __add__(self, other: "PolySeries") -> "PolySeries":
        self._require_same_dim(other)
        trunc = min(self.trunc, other.trunc)
        a, b = self._view, other._view
        view = {}
        for d in sorted(a.keys() | b.keys()):
            if d > trunc:
                break
            if d in a and d in b:
                acc = [1, {}]
                add_slice(acc, a[d])
                add_slice(acc, b[d])
                if part := slice_of(acc):
                    view[d] = part
            else:
                view[d] = a.get(d) or b[d]
        return PolySeries._from_view(self.dim, trunc, view)

    def __neg__(self) -> "PolySeries":
        return self._map_slices(self.trunc, lambda d, part: (
            part[0], [(k, -n) for k, n in part[1]]))

    def __sub__(self, other: "PolySeries") -> "PolySeries":
        return self + (-other)

    def __mul__(self, other: "PolySeries") -> "PolySeries":
        self._require_same_dim(other)
        trunc = min(self.trunc, other.trunc)
        acc: dict[int, list] = {}  # degree -> [L, {key: numerator over L}]
        for da, sa in self._view.items():
            for db, sb in other._view.items():
                if da + db > trunc:
                    break
                add_product(acc.setdefault(da + db, [1, {}]), sa, sb)
        return PolySeries._from_view(self.dim, trunc, {
            d: part for d in sorted(acc) if (part := slice_of(acc[d]))})

    def scale(self, value) -> "PolySeries":
        value = Fraction(value)
        if value == 0:
            return PolySeries.zero(self.dim, self.trunc)
        p, q = value.numerator, value.denominator
        return self._map_slices(self.trunc, lambda d, part: canonical(
            part[0] * q, [(k, n * p) for k, n in part[1]]))

    def with_truncation(self, trunc: int) -> "PolySeries":
        """Restrict (or relabel upward) the truncation degree."""
        trunc = check_trunc(trunc)
        return self._map_slices(trunc, lambda d, part: part if d <= trunc else None)

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, axis: int) -> "PolySeries":
        if not (0 <= axis < self.dim):
            raise AxisOutOfRange(
                f"axis {axis} out of range for dimension {self.dim}")
        # k -> k - e_axis is one-to-one, so nothing collides or cancels
        return PolySeries._from_view(self.dim, max(self.trunc - 1, 0), {
            d - 1: out for d, part in self._view.items()
            if d and (out := canonical(*derive(part, axis)))})

    def gradient(self) -> list["PolySeries"]:
        return [self.partial_derivative(i) for i in range(self.dim)]

    def laplacian(self) -> "PolySeries":
        view = {}
        for d, part in self._view.items():
            acc = [part[0], {}]
            for i in range(self.dim):
                add_slice(acc, derive(derive(part, i), i))
            if part := slice_of(acc):
                view[d - 2] = part
        return PolySeries._from_view(self.dim, max(self.trunc - 2, 0), view)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence) -> float:
        """Evaluate in double precision at a point (length ``dim``)."""
        return self._evaluate(point, float)

    def evaluate_exact(self, point: Sequence) -> Fraction:
        """Evaluate exactly at a rational point."""
        return self._evaluate(point, Fraction)

    def _evaluate(self, point: Sequence, number):
        if len(point) != self.dim:
            raise DimensionMismatch(
                f"point has length {len(point)}, expected {self.dim}")
        total = number(0)
        for k, c in self._terms.items():
            term = number(c)
            for x, e in zip(point, k):
                if e:
                    term *= number(x) ** e
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
