"""Ground and excited transport hierarchies over exact rationals."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from anharmonic.errors import (
    DegenerateEigenvalue,
    IndexOutOfRange,
    ResonantDivisor,
    TruncationTooSmall,
)
from anharmonic.hjformal import (
    hj_residual,
    solve_hj_formal,
    sternberg_linearize,
    sternberg_residual,
)
from anharmonic.model import OscillatorModel, kappa_model
from anharmonic.series import PolySeries, dot_gradients, unpack
from anharmonic.transport import (
    GroundExpansion,
    energy_series,
    excited_expansion,
    gap_series,
    ground_expansion,
    ground_report,
    total_energy_series,
    transport_residual,
)
from strategies import dims, model_events, random_models


def expand(model, order, trunc=None):
    trunc = trunc if trunc is not None else 2 * order + 2
    return ground_expansion(solve_hj_formal(model, trunc), order)


def harmonic(dim=1, omega=(1,), trunc=12):
    return OscillatorModel(1, [Fraction(w) for w in omega],
                           PolySeries.zero(dim, trunc))


class TestGround:
    def test_quartic_energy_series(self):
        ground = expand(kappa_model(2), 4)
        assert energy_series(ground) == [
            Fraction(1, 2), Fraction(3, 4), Fraction(-21, 8),
            Fraction(333, 16)]

    def test_solves_skip_degrees_nothing_reaches(self, monkeypatch):
        """On x^8 the slices of S_0 above degree 2 sit at 8, 14, 20, ...,
        so the order-k right side and S_k live at degrees = 2 - 2k (mod 6):
        each solve divides there and at its pinned degree 0, and only the
        pinned accumulator may be empty."""
        from anharmonic import hjformal
        order = 8
        action = solve_hj_formal(kappa_model(4), 2 * order + 2)
        real = hjformal._divide
        solves = []

        def divide(acc, freq, pin=None):
            if pin is not None:  # the pinned degree 0 opens each solve
                solves.append([])
            degrees = {unpack(k, 1)[0] for k, n in acc[1].items() if n}
            assert len(degrees) == 1 or (pin is not None and not degrees)
            solves[-1].append(degrees.pop() if degrees else 0)
            return real(acc, freq, pin)

        monkeypatch.setattr(hjformal, "_divide", divide)
        ground_expansion(action, order)
        assert len(solves) == order
        for k, degrees in enumerate(solves, start=1):
            trunc = 2 * order + 2 - 2 * k
            assert degrees == sorted(
                {0} | {d for d in range(trunc + 1) if (d + 2 * k - 2) % 6 == 0}), k

    def test_residuals_are_zero_series(self):
        ground = expand(kappa_model(2, g="1/10"), 5)
        for k in range(1, 6):
            assert transport_residual(ground, k).is_zero()

    def test_residual_checks_top_slice(self):
        """Changing the top monomial of S_1 changes the top slice of the
        first residual, by -(1/m) grad q . grad x^6 = -6 x^6."""
        ground = expand(kappa_model(2, g="1/2"), 3, trunc=8)
        S1 = ground.corrections[1]
        assert S1.trunc == 6
        assert transport_residual(ground, 1).trunc == 6
        bad = GroundExpansion(ground.model, ground.order,
                              [ground.corrections[0],
                               S1 + PolySeries(1, 6, {(6,): Fraction(1)}),
                               *ground.corrections[2:]],
                              ground.energies)
        residual = transport_residual(bad, 1)
        assert dict(residual.items()) == {(6,): Fraction(-6)}

    def test_residual_index_range(self):
        ground = expand(kappa_model(2), 2)
        with pytest.raises(IndexOutOfRange):
            transport_residual(ground, 3)

    def test_truncation_budget_enforced(self):
        action = solve_hj_formal(kappa_model(2), 4)
        with pytest.raises(TruncationTooSmall):
            ground_expansion(action, 3)

    def test_harmonic_terminates(self):
        ground = expand(harmonic(), 4, trunc=12)
        assert all(s.is_zero() for s in ground.corrections[1:])
        assert energy_series(ground)[0] == Fraction(1, 2)
        assert all(e == 0 for e in energy_series(ground)[1:])

    def test_report_convention_marked(self):
        report = ground_report(expand(kappa_model(2), 2))
        assert report["convention"] == "hbar^k/k!"
        assert report["series"][:2] == ["1/2", "3/4"]


class TestExcited:
    def test_quartic_gap_heads(self):
        """dE0 = n w, dE1 = (3/2) g n(n+1), dE2 = -(1/4)(59n + 51n^2 + 34n^3)
        at m = w = g = 1."""
        ground = expand(kappa_model(2), 4, trunc=16)
        for n in range(1, 6):
            excited = excited_expansion(ground, [n], 2)
            assert excited.gaps == [
                Fraction(n),
                Fraction(3, 2) * n * (n + 1),
                Fraction(-1, 4) * (59 * n + 51 * n ** 2 + 34 * n ** 3)]

    def test_total_series_matches_sum(self):
        ground = expand(kappa_model(2), 3, trunc=12)
        excited = excited_expansion(ground, [1], 3)
        total = total_energy_series(ground, excited)
        assert total[0] == Fraction(3, 2)
        assert total == [e + g for e, g in
                         zip(energy_series(ground), gap_series(excited))]

    def test_harmonic_hermite_products(self):
        """With A = 0 the excited expansion terminates after floor(n/2)
        corrections and reproduces leading-normalized Hermite polynomials."""
        ground = expand(harmonic(trunc=14), 4, trunc=14)
        hermite = {
            1: {0: {(1,): 1}},
            2: {0: {(2,): 1}, 1: {(0,): Fraction(-1, 2)} },
            3: {0: {(3,): 1}, 1: {(1,): Fraction(-3, 2)}},
            4: {0: {(4,): 1}, 1: {(2,): -3}, 2: {(0,): Fraction(3, 2)}},
        }
        for n, levels in hermite.items():
            excited = excited_expansion(ground, [n], 4)
            assert excited.gaps[0] == n
            assert all(g == 0 for g in excited.gaps[1:])
            for k, terms in levels.items():
                assert dict(excited.corrections[k].items()) == {
                    key: Fraction(c) for key, c in terms.items()}
            for k in range(n // 2 + 1, 5):
                assert excited.corrections[k].is_zero()

    def test_2d_harmonic_gap(self):
        ground = expand(harmonic(2, (1, 2), trunc=10), 3, trunc=10)
        excited = excited_expansion(ground, [1, 1], 3)
        assert excited.gaps == [Fraction(3), 0, 0, 0]

    def test_degenerate_divisor_reported(self):
        """Equal frequencies make the level m = (2, 0) resonate with (0, 2);
        the x1^2 x2^2 coupling actually produces the obstructing monomial."""
        A = PolySeries(2, 10, {(2, 2): Fraction(1)})
        model = OscillatorModel(1, [Fraction(1), Fraction(1)], A)
        ground = expand(model, 2, trunc=10)
        with pytest.raises(DegenerateEigenvalue) as err:
            excited_expansion(ground, [2, 0], 2)
        assert err.value.payload["monomial"] == [0, 2]

    def test_rejects_zero_quantum_numbers(self):
        ground = expand(kappa_model(2), 2)
        with pytest.raises(IndexOutOfRange):
            excited_expansion(ground, [0], 1)

    def test_phi0_labelled_where_reliable(self):
        """phi_0 from action truncation D agrees with phi_0 from D + 1
        through its label, which is D - 1 for |m| = 1: the x^D coefficient
        would need S_0 at degree D + 1."""
        model = kappa_model(2, g=Fraction(1, 5))

        def phi0(level, trunc):
            ground = expand(model, 1, trunc=trunc)
            return excited_expansion(ground, [level], 0).corrections[0]

        for level, label in ((1, 6), (2, 7)):
            low, high = phi0(level, 7), phi0(level, 8)
            assert low.trunc == label
            assert high.with_truncation(label) == low
        assert phi0(1, 8).coefficient((7,)) == Fraction(-1, 200)

    def test_products_stop_at_the_solve_truncation(self, monkeypatch):
        """Each gradient product is built only through the degree that its
        solve reads."""
        from anharmonic import transport
        model = OscillatorModel(1, [Fraction(1), Fraction(3, 2)],
                                PolySeries(2, 4, {(3, 0): Fraction(1, 5),
                                                  (2, 2): Fraction(1, 7)}))
        products, solves = [], []
        real_dot, real_solve = transport.dot_gradients, transport.solve_transport

        def dot(a, b):
            out = real_dot(a, b)
            products.append(out.trunc)
            return out

        def solve(action, shift, trunc, *args, **kwargs):
            solves.append((trunc, products[:]))
            products.clear()
            return real_solve(action, shift, trunc, *args, **kwargs)

        monkeypatch.setattr(transport, "dot_gradients", dot)
        monkeypatch.setattr(transport, "solve_transport", solve)
        excited_expansion(expand(model, 4, trunc=12), [1, 1], 3)
        # ground orders 1..4 build 0, 1, 1, 2 products, excited 1..3 build 1, 2, 3
        assert sum(len(built) for _, built in solves) == 4 + 6
        assert all(t == trunc for trunc, built in solves for t in built)

    @pytest.mark.parametrize("kappa", [2, 3])
    def test_least_truncation_gives_the_same_energies(self, kappa):
        """``compare`` solves S_0 at 2 order + max(2, n + 1), the least
        truncation both hierarchies accept; the deeper 2 (order + 1) + n + 2
        gives the same energies."""
        model = kappa_model(kappa)
        for order in range(5):
            for n in range(4):
                series = []
                for trunc in (2 * order + max(2, n + 1), 2 * (order + 1) + n + 2):
                    ground = expand(model, order + 1, trunc=trunc)
                    series.append(energy_series(ground) if n == 0 else
                                  total_energy_series(
                                      ground, excited_expansion(ground, [n], order)))
                assert series[0] == series[1]

    def test_excited_budget_enforced(self):
        ground = expand(kappa_model(2), 2, trunc=6)
        with pytest.raises(TruncationTooSmall):
            excited_expansion(ground, [2], 2)


# -- property suite: random rational models ----------------------------------

_levels = dims.flatmap(
    lambda dim: st.lists(st.integers(min_value=0, max_value=2),
                         min_size=dim, max_size=dim)
).filter(lambda m: 1 <= sum(m) <= 2)


def excited_residual(ground, excited, k):
    """LHS - RHS of the k-th excited equation, rebuilt with full products
    through the label t of phi_k.  Relabelling the gradients to t is exact:
    a factor is only needed above its own label where the other factor is
    grad S_0, which has no constant term."""
    inv_m = Fraction(1) / ground.model.mass
    S, phi, dE = ground.corrections, excited.corrections, excited.gaps
    t = phi[k].trunc

    def dot(a, b):
        return dot_gradients([g.with_truncation(t) for g in a.gradient()],
                             [g.with_truncation(t) for g in b.gradient()])

    out = dot(S[0], phi[k]).scale(inv_m) - phi[k].scale(dE[0])
    if k:
        out = out - phi[k - 1].laplacian().scale(Fraction(k, 2) * inv_m)
    for j in range(1, k + 1):
        c = comb(k, j)
        out = out - phi[k - j].scale(c * dE[j]) \
            + dot(S[j], phi[k - j]).scale(c * inv_m)
    return out


@settings(max_examples=40, deadline=None)
@given(random_models(), st.integers(min_value=1, max_value=4), _levels)
def test_random_model_residuals_vanish(model, order, levels):
    for label in model_events(model):
        event(label)
    action = solve_hj_formal(model, 2 * order + 2)
    assert hj_residual(action).is_zero()
    ground = ground_expansion(action, order)
    for k in range(1, order + 1):
        assert transport_residual(ground, k).is_zero()
    try:
        excited = excited_expansion(ground, levels, order + 1 - sum(levels))
    except DegenerateEigenvalue:
        pass
    else:
        assert excited.corrections[0].coefficient(levels) == 1
        assert all(p.coefficient(levels) == 0
                   for p in excited.corrections[1:])
        for k in range(excited.order + 1):
            assert excited_residual(ground, excited, k).is_zero()
    try:
        smap = sternberg_linearize(action, action.trunc - 1)
    except ResonantDivisor:
        pass
    else:
        assert all(r.is_zero() for r in sternberg_residual(smap, action))


def test_random_models_reach_coupled_models():
    """The model strategy draws multi-term and, in dim >= 2, coupled
    anharmonicities, and resonant ones, on which the Sternberg map through
    degree 9 raises ResonantDivisor (checked on a fixed sequence of
    examples)."""
    seen = []

    @settings(max_examples=40, derandomize=True, database=None)
    @given(random_models())
    def draw(model):
        seen.append(model)

    def resonant(model):
        try:
            sternberg_linearize(solve_hj_formal(model, 10), 9)
        except ResonantDivisor:
            return True
        return False

    draw()
    assert any(len(list(m.anharmonic.items())) >= 2 for m in seen)
    assert any("coupled" in model_events(m) for m in seen if m.dim >= 2)
    assert any(map(resonant, seen))
