"""Borel-Pade resummation against analytic sums and spectral references."""

import math
from fractions import Fraction

import pytest
from scipy.integrate import quad

from anharmonic.errors import (
    InsufficientCoefficients,
    NotConverged,
    PoleOnRay,
)
from anharmonic.hjformal import solve_hj_formal
from anharmonic.model import kappa_model
from anharmonic.resummation import (
    borel_pade,
    pade_coefficients,
    partial_sums,
    reference_energy,
    resum_series,
)
from anharmonic.transport import energy_series, ground_expansion


def quartic_series(order):
    action = solve_hj_formal(kappa_model(2), 2 * order + 2)
    return energy_series(ground_expansion(action, order))


class TestBorelPade:
    def test_stieltjes_series(self):
        """sum (-1)^k k! mu^k resums to int e^-t/(1+mu t) dt exactly."""
        series = [Fraction((-1) ** k * math.factorial(k)) for k in range(13)]
        mu = 0.2
        expect, _ = quad(lambda t: math.exp(-t) / (1.0 + mu * t), 0.0, 60.0,
                         epsabs=1e-14, epsrel=1e-13, limit=400)
        assert borel_pade(series, mu, 6, 6) == pytest.approx(expect, abs=1e-8)

    def test_convergent_exponential_series(self):
        """A convergent input is reproduced (degenerate Pade tables step
        down rather than fail)."""
        series = [Fraction(1, math.factorial(k)) for k in range(12)]
        mu = 0.3
        assert borel_pade(series, mu, 5, 5) == pytest.approx(
            math.exp(mu), abs=1e-10)

    def test_insufficient_coefficients(self):
        with pytest.raises(InsufficientCoefficients):
            borel_pade([Fraction(1)] * 8, 0.1, 5, 5)

    def test_pole_on_ray(self):
        """Borel transform of sum k! mu^k is 1/(1 - s): pole on the ray."""
        series = [Fraction(math.factorial(k)) for k in range(12)]
        with pytest.raises(PoleOnRay) as err:
            borel_pade(series, 0.2, 5, 5)
        assert err.value.payload["poles"][0] > 0

    def test_pole_on_negative_ray_is_mirrored(self):
        """For mu < 0 the ray s = mu t runs along the negative axis: the pole
        s = -1 of 1/(1 + s) lies on it, the pole s = 1 of 1/(1 - s) does
        not, and sum k! mu^k at mu = -0.2 is the Stieltjes sum at 0.2."""
        factorial = [Fraction(math.factorial(k)) for k in range(13)]
        stieltjes = [(-1) ** k * c for k, c in enumerate(factorial)]
        with pytest.raises(PoleOnRay) as err:
            borel_pade(stieltjes, -0.2, 6, 6)
        assert err.value.payload["poles"][0] == pytest.approx(5.0, rel=1e-9)
        assert borel_pade(factorial, -0.2, 6, 6) == pytest.approx(
            borel_pade(stieltjes, 0.2, 6, 6), abs=1e-12)
        assert borel_pade(factorial, 0.0, 6, 6) == pytest.approx(1.0, abs=1e-12)

    def test_pade_reproduces_rational_function(self):
        num, den = pade_coefficients(
            [Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)], 1, 1)
        # 1/(1+s) = [0/1]; step-down keeps it exact.
        s = Fraction(3, 7)
        top = sum(c * s ** i for i, c in enumerate(num))
        bot = sum(c * s ** i for i, c in enumerate(den))
        assert top / bot == 1 / (1 + s)


class TestQuarticEnergy:
    def test_frozen_reference_constant(self):
        assert reference_energy(2, 0, 0.1) == pytest.approx(
            0.5591463271835196, abs=1e-12)

    def test_zero_coupling_reference(self):
        for n in (0, 1, 3):
            assert reference_energy(2, n, 0.0) == pytest.approx(
                n + 0.5, abs=1e-12)

    def test_basis_floor(self):
        with pytest.raises(NotConverged):
            reference_energy(2, 0, 0.1, basis_size=40)

    def test_mu_0p1_within_tolerance(self):
        series = quartic_series(12)
        result = resum_series(series, 0.1, 5, 5, kappa=2, n=0)
        assert result.discrepancy < 1e-4

    def test_monotone_in_mu(self):
        series = quartic_series(12)
        values = [borel_pade(series, mu, 5, 5)
                  for mu in (0.02, 0.05, 0.1, 0.2)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] > 0.5

    def test_partial_sums_diverge_at_mu_0p3(self):
        """At mu = 0.3 truncated sums blow up while adjacent Pade orders
        stay mutually consistent."""
        series = quartic_series(13)
        sums = partial_sums(series, 0.3)
        tail_swing = max(abs(a - b) for a, b in zip(sums[8:], sums[9:]))
        assert tail_swing > 10.0
        result = resum_series(series, 0.3, 5, 5)
        table = result.pade_table
        vals = [table["[4/4]"], table["[5/5]"], table["[6/6]"]]
        assert all(v is not None for v in vals)
        spread = max(vals) - min(vals)
        assert spread < 1e-4
        assert 0.5 < result.borel_pade_value < 1.0

    def test_more_coefficients_improve_accuracy(self):
        ref = reference_energy(2, 0, 0.05)
        series = quartic_series(12)
        coarse = abs(borel_pade(series[:7], 0.05, 2, 3) - ref)
        fine = abs(borel_pade(series, 0.05, 5, 5) - ref)
        assert fine < coarse / 10.0

    def test_result_json_shape(self):
        series = quartic_series(10)
        data = resum_series(series, 0.1, 4, 4, kappa=2, n=0).to_json()
        assert data["pade"] == [4, 4]
        assert data["discrepancy"] < 1e-3
        assert len(data["partial_sums"]) == 10
