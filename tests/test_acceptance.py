"""End-to-end acceptance suite: the shipped behavior every release must hold.

Each test exercises one externally stated guarantee of the package, at the
tolerance and runtime budget it is contracted to meet.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharmonic.closedform import (
    Kappa1DModel,
    s0_closed,
    s1_closed,
    sternberg_1d,
)
from anharmonic.hjformal import (
    hj_residual,
    solve_hj_formal,
    sternberg_linearize,
    sternberg_residual,
)
from anharmonic.model import OscillatorModel, kappa_model
from anharmonic.resummation import (
    borel_pade,
    partial_sums,
    reference_energy,
)
from anharmonic.rsoracle import compare_with_transport, rs_expand
from anharmonic.series import PolySeries
from anharmonic.transport import (
    energy_series,
    excited_expansion,
    ground_expansion,
    total_energy_series,
    transport_residual,
)
from anharmonic.variational import (
    _ModelEval,
    minimize_action,
    numeric_s1,
    semi_flow,
)
from flowcheck import decay_bound_satisfied
from strategies import random_models


def ground_series(kappa: int, order: int) -> list[Fraction]:
    model = kappa_model(kappa)
    action = solve_hj_formal(model, 2 * order + 2)
    return energy_series(ground_expansion(action, order))


def test_quartic_ground_energy_series_exact_and_fast():
    """First four quartic ground coefficients are exact rationals;
    an order-8 expansion completes in under 5 seconds."""
    start = time.perf_counter()
    series = ground_series(2, 8)
    elapsed = time.perf_counter() - start
    assert series[:4] == [Fraction(1, 2), Fraction(3, 4),
                          Fraction(-21, 8), Fraction(333, 16)]
    assert elapsed < 5.0


@pytest.mark.parametrize("kappa,heads", [
    (3, ["1/2", "15/8", "-3495/64", "1239675/256"]),
    (4, ["1/2", "105/16", "-67515/32", "401548875/128"]),
    (5, ["1/2", "945/32", "-140057505/1024", "78210463124745/16384"]),
])
def test_higher_kappa_series_heads_exact(kappa, heads):
    """Sectic/octic/dectic ground series heads, each under 60 seconds.
    With g = m = w = 1 the j-th dimensionless coefficient sits at
    hbar order j (kappa - 1)."""
    start = time.perf_counter()
    step = kappa - 1
    series = ground_series(kappa, 3 * step + 1)
    elapsed = time.perf_counter() - start
    assert [series[j * step] for j in range(4)] == [
        Fraction(h) for h in heads]
    # intermediate orders carry fractional powers of g and must vanish
    assert all(series[k] == 0 for k in range(3 * step + 1) if k % step)
    assert elapsed < 60.0


def test_quartic_gaps_and_total_energy_polynomial():
    """Level gaps n w, (3/2) g n(n+1), -(g^2/4)(59n + 51n^2 + 34n^3) are
    exact for n = 1..5, and the assembled total energy is the cubic
    polynomial (n+1/2) + (3/2)(n^2+n+1/2) mu - (1/8)(34n^3+51n^2+59n+21) mu^2."""
    action = solve_hj_formal(kappa_model(2), 16)
    ground = ground_expansion(action, 4)
    for n in range(1, 6):
        excited = excited_expansion(ground, [n], 2)
        assert excited.gaps == [
            Fraction(n),
            Fraction(3, 2) * n * (n + 1),
            Fraction(-1, 4) * (59 * n + 51 * n ** 2 + 34 * n ** 3)]
        total = total_energy_series(ground, excited)
        assert total[0] == Fraction(n) + Fraction(1, 2)
        assert total[1] == Fraction(3, 2) * (n * n + n + Fraction(1, 2))
        assert total[2] == Fraction(-1, 8) * (
            34 * n ** 3 + 51 * n ** 2 + 59 * n + 21)


@pytest.mark.parametrize("kappa", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_transport_agrees_with_rs_oracle_through_order_10(kappa, n):
    """Two independent engines produce identical exact coefficients
    through hbar order 10 for every kappa in 2..5 and n in 0..2."""
    hbar_order = 10
    action = solve_hj_formal(kappa_model(kappa), 2 * (hbar_order + 1) + n + 2)
    ground = ground_expansion(action, hbar_order + 1)
    if n == 0:
        series = energy_series(ground)
    else:
        excited = excited_expansion(ground, [n], hbar_order)
        series = total_energy_series(ground, excited)
    rs = rs_expand(kappa, n, hbar_order // (kappa - 1))
    report = compare_with_transport(rs, series)
    assert report["agree"], report["first_mismatch"]
    assert report["through_order"] == hbar_order // (kappa - 1)


def test_quartic_large_order_matches_bender_wu():
    """The quartic ground series at 41 orders: exact against RS through
    e_15, and for k = 20..40 within 3/k^2 of the Bender-Wu asymptotics
    e_k ~ L_k (1 - 95/(72 k)), L_k = (-1)^(k+1) sqrt(6) pi^(-3/2) 3^k
    Gamma(k + 1/2) (Bender & Wu, Phys. Rev. D 7, 1620 (1973)).  The
    measured k^2 |deviation| falls from 2.64 at k = 20 to 2.22 at k = 40."""
    e = energy_series(ground_expansion(solve_hj_formal(kappa_model(2), 82), 41))
    assert e[:16] == rs_expand(2, 0, 15).coefficients
    for k in range(20, 41):
        lead = ((-1) ** (k + 1) * math.sqrt(6) * math.pi ** -1.5 * 3.0 ** k
                * math.gamma(k + 0.5))
        deviation = float(e[k]) / lead / (1 - 95 / (72 * k)) - 1
        assert abs(deviation) <= 3 / k ** 2, (k, deviation)


def test_harmonic_expansion_terminates_with_hermite_polynomials():
    """With A = 0 every correction vanishes, energies are exactly
    sum w_i (m_i + 1/2), and the excited polynomials are leading-normalized
    Hermite products for |m| <= 4."""
    model = OscillatorModel(1, [Fraction(1), Fraction(2)],
                            PolySeries.zero(2, 14))
    ground = ground_expansion(solve_hj_formal(model, 14), 4)
    assert all(s.is_zero() for s in ground.corrections[1:])
    assert energy_series(ground)[0] == Fraction(3, 2)
    hermite_1d = {
        1: {(1,): Fraction(1)},
        2: {(2,): Fraction(1), (0,): Fraction(-1, 2)},
        3: {(3,): Fraction(1), (1,): Fraction(-3, 2)},
        4: {(4,): Fraction(1), (2,): Fraction(-3), (0,): Fraction(3, 4)},
    }
    for m1 in range(0, 5):
        for m2 in range(0, 5 - m1):
            if m1 + m2 == 0:
                continue
            excited = excited_expansion(ground, [m1, m2], 4)
            assert excited.gaps[0] == m1 + 2 * m2
            assert all(g == 0 for g in excited.gaps[1:])
            # the 2D polynomial is the product of the 1D ones, each
            # degree-lowering step carrying a 1/(2 w_i) factor
            total = {}
            left = hermite_1d.get(m1, {(0,): Fraction(1)})
            right = hermite_1d.get(m2, {(0,): Fraction(1)})
            for (a,), ca in left.items():
                for (b,), cb in right.items():
                    scale = Fraction(1, 2) ** ((m2 - b) // 2)
                    total[(a, b)] = ca * cb * scale
            full = {}
            fact = 1
            for k, s in enumerate(excited.corrections):
                if k > 1:
                    fact *= k
                for key, c in s.items():
                    full[key] = full.get(key, Fraction(0)) + c / fact
            assert {k: c for k, c in full.items() if c != 0} == {
                k: c for k, c in total.items() if c != 0}


@settings(max_examples=30, deadline=None)
@given(random_models(), st.integers(min_value=1, max_value=4))
def test_residuals_vanish_for_random_rational_models(model, order):
    """Formal HJ and transport residuals are exactly zero series across
    random rational models (dim <= 3, degree <= 6, order <= 4)."""
    action = solve_hj_formal(model, 2 * order + 2)
    assert hj_residual(action).is_zero()
    ground = ground_expansion(action, order)
    for k in range(1, order + 1):
        assert transport_residual(ground, k).is_zero()


class TestVariationalQuartic:
    model = kappa_model(2, g=Fraction(1, 2))
    closed = Kappa1DModel(mass=1.0, omega0=1.0, g=0.5, kappa=2)

    def test_action_matches_closed_form_on_grid(self):
        """S0 within 1e-6 relative on 21 points across [-2, 2],
        under 30 seconds total."""
        start = time.perf_counter()
        xs = np.linspace(-2.0, 2.0, 21)
        for x in xs:
            result = minimize_action(self.model, [x])
            expect = s0_closed(self.closed, float(x))
            if x == 0.0:
                assert abs(result.action) < 1e-12
            else:
                assert result.action == pytest.approx(expect, rel=1e-6)
        assert time.perf_counter() - start < 30.0

    def test_zero_energy_and_hj_invariants(self):
        ev = _ModelEval(self.model)
        for x in (0.5, 1.0, 2.0):
            result = minimize_action(self.model, [x])
            vmax = float(ev.potential(result.points).max())
            assert result.ip_energy_drift <= 1e-6 * vmax
            vx = float(ev.potential(np.array([[x]]))[0])
            assert result.hj_residual <= 1e-6 * vx

    def test_numeric_first_correction_matches_closed_form(self):
        for x in (0.5, 1.0, 1.5):
            value = numeric_s1(self.model, [x])
            assert value == pytest.approx(s1_closed(self.closed, x),
                                          abs=1e-4)


class TestCoupled2D:
    """V = (x1^2 + x2^2)/2 + x1^2 x2^2 / 4."""

    @staticmethod
    def model():
        A = PolySeries(2, 8, {(2, 2): Fraction(1, 4)})
        return OscillatorModel(1, [Fraction(1), Fraction(1)], A)

    def test_momentum_matches_finite_differences(self):
        model = self.model()
        x = np.array([0.8, 0.6])
        momentum = minimize_action(model, x).momentum
        h = 1e-4
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (minimize_action(model, x + e).action
                  - minimize_action(model, x - e).action) / (2 * h)
            assert momentum[i] == pytest.approx(fd, abs=1e-5 * max(1.0, abs(fd)))

    def test_semi_flow_decays_exponentially(self):
        model = self.model()
        traj = semi_flow(model, [0.8, 0.6], t_span=8.0)
        assert decay_bound_satisfied(traj, omega_min=1.0, epsilon=0.1)


class TestSternbergLinearization:
    def test_pushforward_residual_zero_through_degree_7(self):
        g = Fraction(2, 7)
        action = solve_hj_formal(kappa_model(2, g=g), 8)
        smap = sternberg_linearize(action, 7)
        assert all(r.is_zero() for r in sternberg_residual(smap, action))

    def test_1d_formal_taylor_matches_closed_form(self):
        """The degree-9 formal map agrees with the closed-form linearizer
        to the size of the first dropped Taylor term."""
        g = Fraction(1, 4)
        action = solve_hj_formal(kappa_model(2, g=g), 10)
        smap = sternberg_linearize(action, 9)
        cf = Kappa1DModel(mass=1.0, omega0=1.0, g=0.25, kappa=2)
        assert smap.mu[0].coefficient((1,)) == 1  # shared normalization
        for x in (0.05, 0.1, 0.2):
            formal = smap.mu[0].evaluate((x,))
            assert formal == pytest.approx(sternberg_1d(cf, x),
                                           abs=10.0 * x ** 11)


class TestResummation:
    series = None
    series42 = None

    @classmethod
    def twelve_coefficients(cls):
        if cls.series is None:
            cls.series = ground_series(2, 12)
        return cls.series

    def test_borel_pade_matches_spectral_reference(self):
        """[5/5] on 12 coefficients at mu = 0.1, within 1e-4 of the
        diagonalization reference (itself stable to 1e-9 under basis
        doubling)."""
        series = self.twelve_coefficients()
        value = borel_pade(series, 0.1, 5, 5)
        assert abs(value - reference_energy(2, 0, 0.1)) < 1e-4

    def test_divergent_regime_is_stably_resummed(self):
        """At mu = 0.3 the partial sums blow up while adjacent Pade
        orders agree to 1e-4."""
        series = self.twelve_coefficients()
        sums = partial_sums(series, 0.3)
        assert max(abs(s) for s in sums[-3:]) > 100.0 * abs(sums[0])
        values = [borel_pade(series, 0.3, p, q)
                  for p, q in ((4, 4), (5, 5), (5, 6), (6, 5))]
        assert max(values) - min(values) < 1e-4

    @pytest.mark.parametrize("mu, bound", [(0.5, 1e-9), (1.0, 1e-8), (2.0, 1e-6)])
    def test_borel_pade_converges_on_42_coefficients(self, mu, bound):
        """The quartic ground series is Borel summable (Graffi, Grecchi and
        Simon, Phys. Lett. B 32, 631 (1970)): [p/p] on 42 transport
        coefficients approaches the spectral reference strictly as p grows.
        Measured errors for p = 5, 10, 15, 20: 5.3e-5 ... 8.7e-12 at mu = 0.5,
        6.0e-4 ... 3.1e-9 at 1 and 4.2e-3 ... 3.3e-7 at 2.  The reference
        is certified first: bases 400 and 800 agree within 1e-12."""
        if TestResummation.series42 is None:
            TestResummation.series42 = ground_series(2, 42)
        ref = reference_energy(2, 0, mu, 400)
        assert abs(ref - reference_energy(2, 0, mu, 800)) <= 1e-12
        errors = [abs(borel_pade(TestResummation.series42, mu, p, p) - ref)
                  for p in (5, 10, 15, 20)]
        assert all(a > b for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] <= bound, errors
