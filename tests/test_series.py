"""Exact-rational sparse polynomial series: arithmetic, calculus, JSON."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharmonic.errors import (
    AxisOutOfRange,
    DegreeOutOfRange,
    DimensionMismatch,
)
from anharmonic.hjformal import solve_hj_formal
from anharmonic.model import kappa_model
from anharmonic.series import (
    MAX_TRUNC,
    PolySeries,
    dot_gradients,
    format_rational,
    pack,
    parse_rational,
    unpack,
)


def S(dim, trunc, terms):
    return PolySeries(dim, trunc, {tuple(k): Fraction(c) for k, c in terms.items()})


class TestRationalText:
    def test_parse_plain_integer(self):
        assert parse_rational("3") == Fraction(3)

    def test_parse_fraction(self):
        assert parse_rational("-21/8") == Fraction(-21, 8)

    def test_format_round_trip(self):
        for text in ("0", "1/2", "-333/16"):
            assert format_rational(parse_rational(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational("1/0")


class TestArithmetic:
    def test_add_collects_terms(self):
        a = S(1, 4, {(2,): "1/2"})
        b = S(1, 4, {(2,): "1/2", (4,): 1})
        total = a + b
        assert total.coefficient((2,)) == 1
        assert total.coefficient((4,)) == 1

    def test_zero_terms_pruned(self):
        a = S(1, 4, {(2,): 1})
        b = S(1, 4, {(2,): -1})
        assert (a + b).is_zero()

    def test_mul_truncates(self):
        a = S(1, 4, {(3,): 1})
        product = a * a
        assert product.trunc == 4
        assert product.is_zero()  # degree 6 exceeds the truncation

    def test_mul_mixed_truncation_takes_min(self):
        a = S(1, 6, {(1,): 1})
        b = S(1, 3, {(2,): 1})
        assert (a * b).trunc == 3

    def test_scalar_scale(self):
        a = S(2, 3, {(1, 1): "1/3"})
        assert a.scale(Fraction(3)).coefficient((1, 1)) == 1

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            _ = S(1, 3, {(1,): 1}) + S(2, 3, {(1, 0): 1})

    def test_evaluate_exact(self):
        a = S(1, 4, {(0,): "1/2", (2,): "1/4"})
        assert a.evaluate_exact((Fraction(2),)) == Fraction(3, 2)


class TestCalculus:
    def test_partial_derivative(self):
        a = S(2, 4, {(2, 1): 6})
        dx = a.partial_derivative(0)
        assert dx.coefficient((1, 1)) == 12
        assert dx.trunc == 3

    def test_partial_derivative_axis_range(self):
        with pytest.raises(AxisOutOfRange):
            S(2, 4, {}).partial_derivative(2)

    def test_laplacian_half_x_squared(self):
        assert S(1, 4, {(2,): "1/2"}).laplacian().coefficient((0,)) == 1

    def test_laplacian_2d_sum_of_squares(self):
        a = S(2, 4, {(2, 0): 1, (0, 2): 1})
        assert a.laplacian().coefficient((0, 0)) == 4

    def test_laplacian_quartic(self):
        lap = S(1, 4, {(4,): 1}).laplacian()
        assert lap.coefficient((2,)) == 12

    def test_gradient_length(self):
        assert len(S(3, 4, {}).gradient()) == 3

    def test_dot_gradients(self):
        a = S(1, 5, {(2,): "1/2"})
        d = dot_gradients(a.gradient(), a.gradient())
        assert d.coefficient((2,)) == 1


class TestTruncation:
    def test_restrict_drops_high_terms(self):
        a = S(1, 6, {(2,): 1, (6,): 1})
        cut = a.with_truncation(4)
        assert cut.coefficient((6,)) == 0
        assert cut.trunc == 4

    def test_negative_truncation_rejected(self):
        with pytest.raises(DegreeOutOfRange):
            PolySeries(1, -1, {})


class TestSerialization:
    def test_json_round_trip(self):
        a = S(2, 5, {(1, 2): "-3/7", (0, 0): 2})
        again = PolySeries.from_json(a.to_json())
        assert again == a

    def test_grlex_ordering_in_json(self):
        a = S(2, 4, {(0, 2): 1, (2, 0): 1, (1, 0): 1})
        ks = [term["k"] for term in a.to_json()["terms"]]
        assert ks == [[1, 0], [2, 0], [0, 2]]


# -- ring axioms over random rational series ---------------------------------

_dims = st.shared(st.integers(min_value=1, max_value=3), key="dim")


@st.composite
def poly_series(draw):
    dim = draw(_dims)
    trunc = 8
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        k = tuple(draw(st.integers(min_value=0, max_value=4))
                  for _ in range(dim))
        if sum(k) > trunc:
            continue
        num = draw(st.integers(min_value=-9, max_value=9))
        den = draw(st.integers(min_value=1, max_value=9))
        terms[k] = Fraction(num, den)
    return PolySeries(dim, trunc, {k: c for k, c in terms.items() if c})


@settings(max_examples=150, deadline=None)
@given(poly_series(), poly_series(), poly_series())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(poly_series())
def test_additive_inverse_and_identity(a):
    zero = PolySeries.zero(a.dim, a.trunc)
    one = PolySeries.constant(Fraction(1), a.dim, a.trunc)
    assert a + zero == a
    assert (a - a).is_zero()
    assert a * one == a


@settings(max_examples=100, deadline=None)
@given(poly_series())
def test_json_round_trip_random(a):
    assert PolySeries.from_json(a.to_json()) == a


# -- the integer product against the term-by-term Fraction product -----------

def naive_mul(a, b):
    """The Fraction product term by term, as PolySeries.__mul__ computed it
    before it multiplied integer slices: the oracle of the integer kernel."""
    trunc = min(a.trunc, b.trunc)
    terms = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if sum(ka) + sum(kb) <= trunc:
                k = tuple(x + y for x, y in zip(ka, kb))
                terms[k] = terms.get(k, Fraction(0)) + ca * cb
    return PolySeries(a.dim, trunc, terms)


def naive_add(a, b):
    trunc = min(a.trunc, b.trunc)
    terms = dict(a.items())
    for k, c in b.items():
        terms[k] = terms.get(k, Fraction(0)) + c
    return PolySeries(a.dim, trunc, terms)


# shared factors make the running lcm both grow and stay put
_DENOMINATORS = [1, 2, 6, 9, 2**301, 3**190, 2**301 * 3**190 * 5]


@st.composite
def graded_series(draw, dim):
    """Up to four nonempty slices (the others empty) of mixed height, up to
    330 bits, at a drawn truncation."""
    trunc = draw(st.integers(min_value=0, max_value=9))
    terms = {}
    for d in draw(st.sets(st.integers(min_value=0, max_value=trunc), max_size=4)):
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            cuts = sorted(draw(st.integers(min_value=0, max_value=d))
                          for _ in range(dim - 1))
            k = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [d]))
            bits = draw(st.sampled_from([3, 64, 330]))
            num = draw(st.integers(min_value=-2**bits, max_value=2**bits))
            den = draw(st.one_of(st.sampled_from(_DENOMINATORS),
                                 st.integers(min_value=1, max_value=2**bits)))
            terms[k] = Fraction(num, den)
    return PolySeries(dim, trunc, terms)


def naive_derivative(a, axis):
    trunc = max(a.trunc - 1, 0)
    return PolySeries(a.dim, trunc, {
        k[:axis] + (k[axis] - 1,) + k[axis + 1:]: c * k[axis]
        for k, c in a.items() if k[axis]})


def naive_laplacian(a):
    terms = {}
    for k, c in a.items():
        for i, e in enumerate(k):
            if e > 1:
                j = k[:i] + (e - 2,) + k[i + 1:]
                terms[j] = terms.get(j, Fraction(0)) + c * e * (e - 1)
    return PolySeries(a.dim, max(a.trunc - 2, 0), terms)


def assert_view_is_canonical(x):
    """The view of a computed series is the one its terms give: per degree,
    numerators over the lcm of the reduced denominators."""
    fresh = PolySeries(x.dim, x.trunc, dict(x.items())).graded()
    view = x.graded()
    assert list(view) == sorted(view)
    assert ({d: (den, dict(nums)) for d, (den, nums) in view.items()}
            == {d: (den, dict(nums)) for d, (den, nums) in fresh.items()})


# dim 4 packs keys wider than 63 bits
_view_dims = st.integers(min_value=1, max_value=4)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mul_matches_naive_mul(data):
    dim = data.draw(_view_dims)
    a, b = data.draw(graded_series(dim)), data.draw(graded_series(dim))
    zero = PolySeries.zero(dim, data.draw(st.integers(min_value=0, max_value=9)))
    for x, y in ((a, b), (b, a), (a, a), (a, zero), (zero, b), (a + b, a - b)):
        product, oracle = x * y, naive_mul(x, y)
        assert product == oracle
        assert hash(product) == hash(oracle)
        assert_view_is_canonical(product)
    # (a + b)(a - b) = a^2 - b^2: cross terms cancel exactly in the accumulator
    assert (a + b) * (a - b) == a * a - b * b


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_add_matches_naive_add(data):
    dim = data.draw(_view_dims)
    a, b = data.draw(graded_series(dim)), data.draw(graded_series(dim))
    for x, y in ((a, b), (a, -a), (a, b.scale(-1))):
        total = x + y
        assert total == naive_add(x, y)
        assert hash(total) == hash(naive_add(x, y))
        assert_view_is_canonical(total)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_view_calculus_matches_naive_oracles(data):
    dim = data.draw(_view_dims)
    a = data.draw(graded_series(dim))
    value = data.draw(st.fractions(max_denominator=2**70).filter(bool))
    trunc = data.draw(st.integers(min_value=0, max_value=11))
    cases = [(a.partial_derivative(i), naive_derivative(a, i)) for i in range(dim)]
    cases += [
        (a.laplacian(), naive_laplacian(a)),
        (a.scale(value), PolySeries(dim, a.trunc, {k: c * value for k, c in a.items()})),
        (-a, PolySeries(dim, a.trunc, {k: -c for k, c in a.items()})),
        (a.with_truncation(trunc), PolySeries(dim, trunc, dict(a.items()))),
        (a.scale(0), PolySeries.zero(dim, a.trunc)),
    ]
    for got, oracle in cases:
        assert got.trunc == oracle.trunc
        assert got == oracle
        assert hash(got) == hash(oracle)
        assert_view_is_canonical(got)
    assert a.gradient() == [naive_derivative(a, i) for i in range(dim)]


class TestIntegerKernels:
    def test_difference_of_squares_cancels(self):
        x_plus_y = S(2, 4, {(1, 0): 1, (0, 1): 1})
        x_minus_y = S(2, 4, {(1, 0): 1, (0, 1): -1})
        product = x_plus_y * x_minus_y
        assert product == S(2, 4, {(2, 0): 1, (0, 2): -1})
        assert list(product.items()) == [((2, 0), 1), ((0, 2), -1)]

    def test_add_drops_cancelled_terms_and_truncates(self):
        a = S(2, 6, {(1, 0): "1/2", (0, 1): "1/3", (3, 3): 2})
        b = S(2, 4, {(1, 0): "-1/2", (0, 2): 5})
        total = a + b
        assert total.trunc == 4
        assert list(total.items()) == [((0, 1), Fraction(1, 3)), ((0, 2), 5)]

    def test_graded_view(self):
        """Slices hold packed keys: exponent i in bits [16 i, 16 i + 16)."""
        a = S(2, 5, {(1, 0): "1/2", (0, 1): "1/3", (3, 0): "5/4", (1, 3): 7})
        assert a.graded() == {1: (6, [(1, 3), (1 << 16, 2)]),
                              3: (4, [(3, 5)]),
                              4: (1, [(1 + (3 << 16), 7)])}
        assert [pack(k) for k in [(1, 0), (0, 1), (1, 3)]] == [1, 1 << 16, 1 + (3 << 16)]
        assert unpack(1 + (3 << 16), 2) == (1, 3)
        assert a.graded() is a.graded()  # cached
        assert PolySeries.zero(2, 5).graded() == {}

    def test_cached_view_survives_derived_series(self):
        """scale, negation and (re)truncation of a series whose view is
        cached give the right products, and leave the view as it was."""
        a = S(2, 6, {(1, 0): "1/2", (0, 2): "2/3", (3, 3): 1, (2, 1): "-5/9"})
        b = S(2, 6, {(1, 1): "3/5", (0, 0): "1/7"})
        before = a * b
        view = {d: (den, list(nums)) for d, (den, nums) in a.graded().items()}
        for derived in (a.scale(Fraction(-7, 3)), -a, a.with_truncation(4),
                        a.with_truncation(9)):
            assert derived * b == naive_mul(derived, b)
            assert b * derived == naive_mul(b, derived)
        assert a.graded() == view
        assert a * b == before == naive_mul(a, b)

    def test_view_built_and_term_built_series_are_equal(self):
        terms = {(1, 0, 2): Fraction(1, 2), (0, 3, 0): Fraction(-2, 3), (0, 0, 0): 5}
        from_terms = PolySeries(3, 4, terms)
        from_view = PolySeries._from_view(3, 4, {
            0: (1, [(0, 5)]),
            3: (6, [(pack((1, 0, 2)), 3), (pack((0, 3, 0)), -4)])})
        assert from_view == from_terms and from_terms == from_view
        assert hash(from_view) == hash(from_terms)
        assert len({from_view, from_terms}) == 1
        assert dict(from_view.items()) == terms
        assert from_view.to_json() == from_terms.to_json()
        assert from_view.graded() == from_terms.graded()

    def test_truncation_beyond_a_slot_raises_before_allocating(self):
        beyond = MAX_TRUNC + 1
        tracemalloc.start()
        try:
            for make in (lambda: PolySeries(2, beyond),
                         lambda: S(2, 4, {(1, 1): 1}).with_truncation(beyond),
                         lambda: solve_hj_formal(kappa_model(2), beyond)):
                with pytest.raises(DegreeOutOfRange):
                    make()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the top exponent of the largest truncation still fits its slot
        top = PolySeries.monomial((0, MAX_TRUNC), 1, MAX_TRUNC)
        assert unpack(pack((0, MAX_TRUNC)), 2) == (0, MAX_TRUNC)
        assert (top * PolySeries.constant(2, 2, MAX_TRUNC)).coefficient(
            (0, MAX_TRUNC)) == 2
        assert top.partial_derivative(1).coefficient((0, MAX_TRUNC - 1)) == MAX_TRUNC

    def test_equality_and_hash_ignore_the_view(self):
        a = S(1, 4, {(2,): "1/2"})
        b = S(1, 4, {(2,): "1/2"})
        a.graded()
        assert a == b
        assert hash(a) == hash(b)
