"""Rayleigh-Schrodinger oracle: exact coefficients and comparisons."""

from fractions import Fraction

import pytest

from anharmonic.errors import IndexOutOfRange, OrderTooHigh, UnsupportedKappa
from anharmonic.rsoracle import (
    compare_with_transport,
    first_order_matrix_element,
    rs_expand,
)


def fraction_rs_coefficients(kappa, n, order):
    """The former recursion: every correction vector a dict of Fractions in
    the rescaled basis e_j = |j> / sqrt(j!), W applied as 2 kappa ladder
    sweeps and a scaling by 2^-kappa."""
    def ladder_sum(vec):
        out = {}
        for j, c in vec.items():
            if j >= 1:
                out[j - 1] = out.get(j - 1, Fraction(0)) + c
            out[j + 1] = out.get(j + 1, Fraction(0)) + (j + 1) * c
        return {j: c for j, c in out.items() if c != 0}

    def perturbation(vec):
        for _ in range(2 * kappa):
            vec = ladder_sum(vec)
        return {j: c * Fraction(1, 2 ** kappa) for j, c in vec.items()}

    energies = [Fraction(n) + Fraction(1, 2)]
    vectors = [{n: Fraction(1)}]
    for p in range(1, order + 1):
        w_prev = perturbation(vectors[p - 1])
        energies.append(w_prev.get(n, Fraction(0)))
        new_vec = {}
        for j in set(w_prev) | {j for v in vectors[1:] for j in v}:
            if j == n:
                continue
            total = -w_prev.get(j, Fraction(0))
            for q in range(1, p):
                total += energies[q] * vectors[p - q].get(j, Fraction(0))
            if total != 0:
                new_vec[j] = total / (j - n)
        vectors.append(new_vec)
    return energies


class TestIntegerRecursion:
    @pytest.mark.parametrize("kappa", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_fraction_recursion(self, kappa, n):
        """Every order 0..15: the integer vectors over one denominator give
        the same Fractions as the former recursion."""
        expect = fraction_rs_coefficients(kappa, n, 15)
        for order in range(16):
            assert rs_expand(kappa, n, order).coefficients == expect[:order + 1]

    def test_matches_at_the_caps(self):
        assert rs_expand(16, 10, 15).coefficients == \
            fraction_rs_coefficients(16, 10, 15)

    def test_order_zero(self):
        assert rs_expand(7, 3, 0).coefficients == [Fraction(7, 2)]


class TestCoefficients:
    def test_quartic_ground_heads(self):
        rs = rs_expand(2, 0, 3)
        assert rs.coefficients == [
            Fraction(1, 2), Fraction(3, 4), Fraction(-21, 8),
            Fraction(333, 16)]

    def test_sectic_ground_heads(self):
        rs = rs_expand(3, 0, 3)
        assert rs.coefficients == [
            Fraction(1, 2), Fraction(15, 8), Fraction(-3495, 64),
            Fraction(1239675, 256)]

    def test_general_n_through_second_order(self):
        """(n + 1/2) + (3/2)(n^2 + n + 1/2) mu
        - (1/8)(34n^3 + 51n^2 + 59n + 21) mu^2 for n = 0..5."""
        for n in range(6):
            rs = rs_expand(2, n, 2)
            assert rs.coefficients[0] == Fraction(n) + Fraction(1, 2)
            assert rs.coefficients[1] == Fraction(3, 2) * (
                n * n + n + Fraction(1, 2))
            assert rs.coefficients[2] == Fraction(-1, 8) * (
                34 * n ** 3 + 51 * n ** 2 + 59 * n + 21)

    def test_sign_alternation_quartic_ground(self):
        rs = rs_expand(2, 0, 12)
        for k in range(1, 12):
            assert rs.coefficients[k] * rs.coefficients[k + 1] < 0

    def test_first_order_matches_matrix_element(self):
        for kappa in (2, 3, 4):
            for n in (0, 1, 3):
                rs = rs_expand(kappa, n, 1)
                assert float(rs.coefficients[1]) == pytest.approx(
                    first_order_matrix_element(kappa, n), abs=1e-10)

    def test_order_budget(self):
        with pytest.raises(OrderTooHigh):
            rs_expand(2, 0, 16)
        with pytest.raises(OrderTooHigh):
            rs_expand(2, 11, 4)
        with pytest.raises(OrderTooHigh):
            rs_expand(1, 0, 4)
        with pytest.raises(OrderTooHigh) as info:
            rs_expand(17, 0, 1)
        assert info.value.payload == {"maximum": 16}
        assert len(rs_expand(16, 0, 1).coefficients) == 2

    @pytest.mark.parametrize("kappa, n, c1", [
        (2, 0, 0.75), (3, 2, 46.875), (4, 5, 4469.0625)])
    def test_matrix_element_is_exact(self, kappa, n, c1):
        """The diagonal of the spectral Hamiltonian at mu = 1, less n + 1/2,
        is c_1 to the last bit on these cases."""
        assert first_order_matrix_element(kappa, n) == c1
        assert rs_expand(kappa, n, 1).coefficients[1] == c1

    @pytest.mark.parametrize("kappa", [0, -1])
    def test_matrix_element_rejects_kappa_below_one(self, kappa):
        with pytest.raises(UnsupportedKappa):
            first_order_matrix_element(kappa, 0)

    @pytest.mark.parametrize("n", [-1, -5])
    def test_matrix_element_rejects_negative_level(self, n):
        with pytest.raises(IndexOutOfRange):
            first_order_matrix_element(2, n)

    def test_json_shape(self):
        data = rs_expand(2, 1, 2).to_json()
        assert data["kappa"] == 2 and data["n"] == 1
        assert data["coefficients"][0] == "3/2"


class TestComparison:
    def test_ground_agreement_report(self):
        rs = rs_expand(2, 0, 2)
        series = [Fraction(1, 2), Fraction(3, 4), Fraction(-21, 8)]
        report = compare_with_transport(rs, series)
        assert report["agree"] and report["first_mismatch"] is None

    def test_corrupted_coefficient_pinpointed(self):
        rs = rs_expand(2, 0, 2)
        series = [Fraction(1, 2), Fraction(3, 4), Fraction(-21, 7)]
        report = compare_with_transport(rs, series)
        assert not report["agree"]
        assert report["first_mismatch"]["order"] == 2

    def test_fractional_power_must_vanish(self):
        """For kappa = 3 only even hbar-orders carry integral powers of g;
        a nonzero odd entry is flagged."""
        rs = rs_expand(3, 0, 1)
        series = [Fraction(1, 2), Fraction(1), Fraction(15, 8)]
        report = compare_with_transport(rs, series)
        assert not report["agree"]
        assert report["first_mismatch"]["hbar_order"] == 1
