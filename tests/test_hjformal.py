"""Formal Hamilton-Jacobi solver and Sternberg linearization."""

from fractions import Fraction
from math import comb

import pytest

from anharmonic.errors import BadTruncation, ResonantDivisor, TruncationTooSmall
from anharmonic.hjformal import (
    FormalAction,
    hj_residual,
    solve_hj_formal,
    sternberg_linearize,
    sternberg_residual,
)
from anharmonic.model import OscillatorModel, kappa_model
from anharmonic.series import PolySeries


def quartic(g="1"):
    return kappa_model(2, g=Fraction(g))


class TestSolve:
    def test_quartic_leading_coefficients(self):
        """S0 = x^2/2 + (g/4) x^4 - (g^2/12) x^6 + ... for V = x^2/2 + g x^4."""
        g = Fraction(1, 10)
        action = solve_hj_formal(quartic(g), 6)
        S0 = action.S0
        assert S0.coefficient((2,)) == Fraction(1, 2)
        assert S0.coefficient((4,)) == g / 4
        assert S0.coefficient((6,)) == -g * g / 12
        assert S0.coefficient((3,)) == 0

    def test_matches_closed_form_taylor(self):
        """Compare against the binomial expansion of
        (m^2 w^3 / 6g) [ (1 + 2 g x^2 / (m w^2))^(3/2) - 1 ]."""
        g = Fraction(1, 3)
        action = solve_hj_formal(quartic(g), 12)
        # brute-force binomial series of (1+u)^(3/2), u = 2 g x^2
        binom = [Fraction(1)]
        for j in range(1, 7):
            binom.append(binom[-1] * (Fraction(3, 2) - (j - 1)) / j)
        for j in range(1, 7):
            expect = binom[j] * (2 * g) ** j / (6 * g)
            assert action.S0.coefficient((2 * j,)) == expect

    def test_harmonic_is_exact_quadratic(self):
        model = OscillatorModel(1, [Fraction(1), Fraction(2)],
                                PolySeries.zero(2, 8))
        action = solve_hj_formal(model, 8)
        expect = PolySeries(2, 8, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1)})
        assert action.S0 == expect

    def test_2d_single_cubic_term(self):
        """A = x1^2 x2 with w = (1, 2): the only degree-3 term satisfies
        (2 w1 + w2) c = 1, hand-solved c = 1/4."""
        A = PolySeries(2, 3, {(2, 1): Fraction(1)})
        model = OscillatorModel(1, [Fraction(1), Fraction(2)], A)
        action = solve_hj_formal(model, 3)
        assert action.S0.coefficient((2, 1)) == Fraction(1, 4)
        assert hj_residual(action).is_zero()

    def test_residual_zero_quartic(self):
        action = solve_hj_formal(quartic("1/10"), 10)
        assert hj_residual(action).is_zero()

    def test_residual_checks_top_slice(self):
        """Adding x^8 to S0 at truncation 8 changes only the top slice of
        the residual, by (1/m) grad q . grad x^8 = 8 x^8."""
        action = solve_hj_formal(quartic("1/2"), 8)
        assert hj_residual(action).trunc == 8
        bad = FormalAction(action.model,
                           action.S0 + PolySeries(1, 8, {(8,): Fraction(1)}))
        residual = hj_residual(bad)
        assert dict(residual.items()) == {(8,): Fraction(8)}

    def test_too_small_truncation(self):
        with pytest.raises(BadTruncation):
            solve_hj_formal(quartic(), 1)


class TestSternberg:
    def test_residual_zero_through_degree_7(self):
        action = solve_hj_formal(quartic("1/5"), 8)
        smap = sternberg_linearize(action, 7)
        assert all(r.is_zero() for r in sternberg_residual(smap, action))

    def test_linear_part_identity(self):
        action = solve_hj_formal(quartic(), 6)
        smap = sternberg_linearize(action, 5)
        assert smap.mu[0].coefficient((1,)) == 1

    def test_1d_matches_brute_force_taylor(self):
        """For V = x^2/2 + g x^4 the linearizer is mu = 2x / (1 + R) with
        R = sqrt(1 + 2 g x^2), i.e. mu = 2x (R - 1) / (2 g x^2), whose
        x^(2j-1) coefficient is 2 binom(1/2, j) (2g)^(j-1).  Every degree is
        checked, the top one included."""
        for g, degree in ((Fraction(1, 7), 9), (Fraction(1, 5), 3)):
            action = solve_hj_formal(quartic(g), degree + 1)
            mu = sternberg_linearize(action, degree).mu[0]
            binom = Fraction(1)
            expect = {}
            for j in range(1, (degree + 1) // 2 + 1):
                binom *= (Fraction(1, 2) - (j - 1)) / j
                expect[(2 * j - 1,)] = 2 * binom * (2 * g) ** (j - 1)
            assert dict(mu.items()) == expect
            assert mu.trunc == degree

    def test_resonant_divisor_detected(self):
        """w = (1, 2) with A = x1^2 x2 hits k.w - w2 = 0 at k = (2, 0)... the
        resonant monomial is reported."""
        A = PolySeries(2, 4, {(2, 1): Fraction(1)})
        model = OscillatorModel(1, [Fraction(1), Fraction(2)], A)
        action = solve_hj_formal(model, 4)
        with pytest.raises(ResonantDivisor):
            sternberg_linearize(action, 3)

    def test_needs_one_extra_action_degree(self):
        action = solve_hj_formal(quartic(), 6)
        with pytest.raises(TruncationTooSmall):
            sternberg_linearize(action, 6)
