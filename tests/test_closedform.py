"""Closed-form 1D 2-kappa oscillator formulas against independent data."""

import math
from fractions import Fraction

import pytest
from scipy.integrate import quad

from anharmonic.closedform import (
    Kappa1DModel,
    _form,
    phi0_closed,
    q_closed,
    s0_closed,
    s1_closed,
    s2_closed,
    sternberg_1d,
    u1_closed,
    u2_closed,
    wavefunction_factors,
)
from anharmonic.errors import UnsupportedKappa
from anharmonic.hjformal import solve_hj_formal
from anharmonic.model import kappa_model
from anharmonic.transport import excited_expansion, ground_expansion


def quartic(g=0.5, mass=1.0, omega0=1.0):
    return Kappa1DModel(mass=mass, omega0=omega0, g=g, kappa=2)


class TestS0:
    def test_zero_at_origin(self):
        assert s0_closed(quartic(), 0.0) == 0.0

    def test_harmonic_limit(self):
        assert s0_closed(quartic(g=1e-14), 1.0) == pytest.approx(0.5, rel=1e-9)

    def test_reference_value(self):
        expect = (2.0 ** 1.5 - 1.0) / 3.0
        assert s0_closed(quartic(g=0.5), 1.0) == pytest.approx(expect, rel=1e-14)

    def test_higher_kappa_quadrature_matches_formal_taylor(self):
        cf = Kappa1DModel(mass=1.0, omega0=1.0, g=0.25, kappa=3)
        action = solve_hj_formal(kappa_model(3, g=Fraction(1, 4)), 14)
        x = Fraction(1, 10)
        expect = float(action.S0.evaluate_exact((x,)))
        assert s0_closed(cf, 0.1) == pytest.approx(expect, rel=1e-11)

    @pytest.mark.parametrize("kappa", [3, 4, 5])
    def test_higher_kappa_quadrature_matches_quad(self, kappa):
        """The Gauss-Legendre integral of sqrt(2 m V) agrees with scipy's
        adaptive quad to 1e-13 relative, on both sides of the origin."""
        for g in (0.05, 0.5, 4.0):
            cf = Kappa1DModel(mass=1.3, omega0=0.8, g=g, kappa=kappa)
            for x in (0.01, 0.3, -0.7, 1.0, 2.5, -6.0):
                expect, _ = quad(lambda s: math.sqrt(2.0 * cf.mass * cf.potential(s)),
                                 0.0, abs(x), epsabs=1e-14, epsrel=1e-12, limit=200)
                assert s0_closed(cf, x) == pytest.approx(expect, rel=1e-13, abs=0)


class TestS1S2:
    def test_s1_zero_at_origin(self):
        assert s1_closed(quartic(), 0.0) == 0.0

    def test_taylor_agreement_with_formal_engine(self):
        """S1 and the origin-shifted S2 agree with the transport hierarchy
        (evaluated deep inside the convergence region)."""
        g = Fraction(3, 10)
        cf = quartic(g=float(g))
        ground = ground_expansion(solve_hj_formal(kappa_model(2, g=g), 16), 2)
        x = Fraction(1, 20)
        s1_formal = float(ground.corrections[1].evaluate_exact((x,)))
        s2_formal = float(ground.corrections[2].evaluate_exact((x,)))
        assert s1_closed(cf, 0.05) == pytest.approx(s1_formal, rel=1e-9)
        shifted = s2_closed(cf, 0.05) - s2_closed(cf, 0.0)
        assert shifted == pytest.approx(s2_formal, rel=1e-9)

    def test_s2_series_branch_matches_direct_formula(self):
        """Inside the series branch the value equals the rational-surd
        closed form evaluated directly (safe away from x = 0)."""
        cf = quartic(g=1.0)
        x = 0.34  # u = 0.2312, just below the branch switch
        u = 2.0 * x * x
        r = math.sqrt(1.0 + u)
        direct = (3.0 * (1.0 - r) + 20.0 * x * x + 18.0 * x ** 4) \
            / (6.0 * x * x * (1.0 + u) ** 1.5)
        assert s2_closed(cf, x) == pytest.approx(direct, rel=1e-12)

    def test_kappa_3_unsupported(self):
        cf = Kappa1DModel(mass=1.0, omega0=1.0, g=1.0, kappa=3)
        with pytest.raises(UnsupportedKappa):
            s1_closed(cf, 0.3)


class TestPhi0:
    def test_zero_at_origin(self):
        assert phi0_closed(quartic(), 2, 0.0) == 0.0

    def test_harmonic_limit_is_scaled_monomial(self):
        cf = quartic(g=1e-16)
        n = 3
        assert phi0_closed(cf, n, 0.7) == pytest.approx((0.7 / 2.0) ** n,
                                                        rel=1e-9)

    def test_bounded_at_infinity(self):
        cf = quartic(g=1.0)
        values = [abs(phi0_closed(cf, 2, x)) for x in (10.0, 100.0, 1000.0)]
        assert values[2] < values[1] * 1.1 + 1.0
        assert all(math.isfinite(v) for v in values)


class TestU1U2:
    def test_u1_laurent_head(self):
        """u1 ~ -n(n-1)/(4 m w x^2) as x -> 0."""
        cf = quartic(g=0.4)
        for n in (2, 3, 4):
            x = 1e-3
            head = -n * (n - 1) / (4.0 * x * x)
            assert u1_closed(cf, n, x) == pytest.approx(head, rel=1e-3)

    def test_u1_finite_for_n1(self):
        cf = quartic(g=0.4)
        assert abs(u1_closed(cf, 1, 1e-6)) < 10.0

    def test_u2_laurent_head(self):
        """u2 ~ n(n-1)(n-2)(n-3)/(16 m^2 w^2 x^4) as x -> 0."""
        cf = quartic(g=0.4)
        for n in (4, 5):
            x = 1e-2
            head = n * (n - 1) * (n - 2) * (n - 3) / (16.0 * x ** 4)
            assert u2_closed(cf, n, x) == pytest.approx(head, rel=2e-2)

    def test_gap_data_matches_transport(self):
        """The closed forms encode the same level gaps as the exact
        hierarchy: compare transport gap values for n = 1..4."""
        g = Fraction(2, 5)
        ground = ground_expansion(solve_hj_formal(kappa_model(2, g=g), 16), 2)
        for n in range(1, 5):
            excited = excited_expansion(ground, [n], 2)
            assert excited.gaps[1] == Fraction(3, 2) * g * n * (n + 1)


def t_mul(a, b):
    """Truncated product of two power series in t, as coefficient lists."""
    return [sum(a[i] * b[k - i] for i in range(k + 1))
            for k in range(min(len(a), len(b)))]


class TestExactOracle:
    """The table's exact small-u series against the transport hierarchy at
    m = w = 1, g = 1/2, where u = x^2: every coefficient, exactly (S_2
    through degree 60 reaches the last of the 32)."""

    @pytest.fixture(scope="class")
    def ground(self):
        return ground_expansion(
            solve_hj_formal(kappa_model(2, g=Fraction(1, 2)), 64), 2)

    def test_s2_series_is_transport_s2(self, ground):
        """S_2 = (g / 3 m^2 w^3) W(u) / u = W(x^2) / (6 x^2); the closed form
        carries 17 g / (6 m^2 w^3) at the origin, transport 0."""
        series = _form("S_2", 0)[-1]
        s2 = ground.corrections[2]
        assert series[0] == 0
        assert series[1] / 6 == Fraction(17, 12)
        assert s2.coefficient((0,)) == 0
        assert s2.trunc // 2 + 1 < len(series)
        for d in range(2, s2.trunc + 1):
            expect = series[d // 2 + 1] / 6 if d % 2 == 0 else 0
            assert s2.coefficient((d,)) == expect, d

    @pytest.mark.parametrize("n, c1, c2", [
        (1, 0, 0),
        (2, Fraction(1, 4), -1),
        (3, Fraction(9, 8), Fraction(-27, 4)),
        (4, 3, Fraction(-363, 16)),
        (5, Fraction(25, 4), Fraction(-425, 8)),
    ])
    def test_phi_series_are_transport_phi(self, ground, n, c1, c2):
        """2^n phi_k (closed) equals transport's T_k up to the hbar
        normalization 1 + c1 hbar + c2 hbar^2 / 2 of the level (transport
        puts no x^n term in T_1, T_2): T_0, T_1 + c1 T_0 and
        T_2 + 2 c1 T_1 + c2 T_0."""
        length = len(_form("u_1", n)[-1])
        half = [Fraction(1)]  # (1 + t)^(1/2)
        for k in range(1, length + 1):
            half.append(half[-1] * (Fraction(1, 2) - k + 1) / k)
        yn = [Fraction(1)] + [Fraction(0)] * (length - 1)
        for _ in range(n):  # (2 / (1 + R))^n, 2 / (1 + R) = 2 (R - 1) / t
            yn = t_mul(yn, [2 * c for c in half[1:]])
        # 2^n phi_0 = x^n yn, 2^n phi_1 = (g / 2) x^(n-2) W_1 yn and
        # 2^n phi_2 = (n g^2 / 12) x^(n-4) W_2 yn, each in t = x^2
        phi = [(n, yn),
               (n - 2, [c / 4 for c in t_mul(_form("u_1", n)[-1], yn)]),
               (n - 4, [c * n / 48 for c in t_mul(_form("u_2", n)[-1], yn)])]

        def closed(k, d):
            offset, coeffs = phi[k]
            j, odd = divmod(d - offset, 2)
            assert j < length
            return 0 if odd or j < 0 else coeffs[j]

        t0, t1, t2 = excited_expansion(ground, [n], 2).corrections
        for d in range(t0.trunc + 1):
            assert closed(0, d) == t0.coefficient((d,)), d
        for d in range(t1.trunc + 1):
            assert closed(1, d) == t1.coefficient((d,)) + c1 * closed(0, d), d
        for d in range(t2.trunc + 1):
            assert closed(2, d) == (t2.coefficient((d,))
                                    + 2 * c1 * t1.coefficient((d,))
                                    + c2 * closed(0, d)), d


@pytest.mark.parametrize("R", [Fraction(10, 9), Fraction(21, 19)], ids=str)
@pytest.mark.parametrize("factor, n", [
    ("S_2", 0), ("u_1", 2), ("u_1", 3), ("u_2", 2), ("u_2", 3)])
def test_small_u_series_matches_rational_table_form(R, factor, n):
    """At m = w = 1, x = 1/2 and g = 2 u, R = sqrt(1 + u) is rational, so
    the table form scale (g / m^2 w^3)^a (A(u) + R B(u)) / (u^a R^b) is an
    exact rational.  Both points lie below the switch (u = 19/81, 80/361),
    where the evaluator sums the truncated series instead."""
    u = R * R - 1
    model = Kappa1DModel(mass=1.0, omega0=1.0, g=float(2 * u), kappa=2)
    assert model.u_of(0.5) <= 0.25
    scale, a, b, A, B, _, _ = _form(factor, n)

    def poly(coeffs):  # A and B are binary fractions, exact as floats
        return sum(Fraction(c) * u ** i for i, c in enumerate(coeffs))

    expect = Fraction(scale) * 2 ** a * (poly(A) + R * poly(B)) / R ** b
    got = {"S_2": lambda: s2_closed(model, 0.5),
           "u_1": lambda: u1_closed(model, n, 0.5),
           "u_2": lambda: u2_closed(model, n, 0.5)}[factor]()
    assert abs(got - expect) <= 1e-13 * abs(expect)


class TestSternberg1D:
    def test_fixes_origin(self):
        cf = quartic()
        assert sternberg_1d(cf, 0.0) == 0.0

    def test_harmonic_limit_identity(self):
        cf = quartic(g=1e-16)
        assert sternberg_1d(cf, 1.3) == pytest.approx(1.3, rel=1e-9)

    def test_round_trip(self):
        """The kappa = 2 inverse x(y) = y / (1 - g y^2 / (2 m w^2)) undoes
        the map."""
        cf = quartic(g=0.7)
        for x in (-10.0, -1.0, -0.1, 0.2, 3.0, 10.0):
            y = sternberg_1d(cf, x)
            back = y / (1.0 - cf.g * y * y / (2.0 * cf.mass * cf.omega0 ** 2))
            assert abs(back - x) <= 1e-12 * max(1, abs(x))

    def test_conjugates_flow_to_linear(self):
        """(1/m) S0'(x) y'(x) = w y(x): the map straightens the gradient
        flow.  S0' = sqrt(2 m V), y' by Richardson finite differences."""
        cf = quartic(g=0.3)
        for x in (0.4, 1.0, 2.5):
            h = 1e-5
            d1 = (sternberg_1d(cf, x + h) - sternberg_1d(cf, x - h)) / (2 * h)
            d2 = (sternberg_1d(cf, x + h / 2)
                  - sternberg_1d(cf, x - h / 2)) / h
            dy = (4 * d2 - d1) / 3
            v = 0.5 * x * x + 0.3 * x ** 4
            lhs = math.sqrt(2.0 * v) * dy
            assert lhs == pytest.approx(sternberg_1d(cf, x), rel=1e-10)


class TestWavefunction:
    def test_gaussian_limit(self):
        cf = quartic(g=1e-16)
        psi = wavefunction_factors(cf, 0, 1.0, [0.9])["psi"][0]
        assert psi == pytest.approx(math.exp(-0.5 * 0.81), rel=1e-9)

    def test_first_order_ground_prefactor(self):
        """The first-order ground prefactor e^(-S1) is
        (1+u)^(-1/4) ((1+R)/2)^(-1/2)."""
        cf = quartic(g=0.5)
        x = 0.8
        u = 2 * cf.g * x * x
        r = math.sqrt(1.0 + u)
        expect = (1 + u) ** -0.25 * ((1 + r) / 2) ** -0.5
        s1 = wavefunction_factors(cf, 0, 1.0, [x])["S1"][0]
        assert math.exp(-s1) == pytest.approx(expect, rel=1e-12)

    def test_decay_exponent(self):
        """-S0(x)/x^3 -> -sqrt(2 m g)/3: faster-than-gaussian decay of
        log psi (the exponent is -S0/hbar for large x)."""
        cf = quartic(g=0.5)
        target = -math.sqrt(2.0 * cf.g) / 3.0
        vals = [-s0_closed(cf, x) / x ** 3 for x in (50.0, 100.0)]
        assert vals[1] == pytest.approx(target, rel=1e-2)
        assert abs(vals[1] - target) < abs(vals[0] - target)

    def test_hermite_limit_ratios(self):
        """g -> 0, n = 4, order 2: pointwise ratios match the
        leading-normalized Hermite-type polynomial x^4 - 3x^2 + 3/4
        times the gaussian."""
        cf = quartic(g=1e-12)
        def hermite(x):
            return (x ** 4 - 3 * x * x + 0.75) * math.exp(-0.5 * x * x)
        x0, x1 = 0.7, 1.9
        psi = wavefunction_factors(cf, 4, 1.0, [x0, x1])["psi"]
        got = psi[1] / psi[0]
        assert got == pytest.approx(hermite(x1) / hermite(x0), rel=1e-6)

    def test_kappa_guard(self):
        """Beyond kappa = 2 only S_0 and phi_0 are known: every correction
        column is NaN and psi is the leading phi_0 exp(-S_0/hbar)."""
        cf = Kappa1DModel(mass=1.0, omega0=1.0, g=1.0, kappa=3)
        cols = wavefunction_factors(cf, 1, 0.5, [0.5])
        for key in ("S1", "S2", "Q", "u1", "u2"):
            assert math.isnan(cols[key][0]), key
        expect = cols["phi0"][0] * math.exp(-cols["S0"][0] / 0.5)
        assert cols["psi"][0] == expect

    def test_factors_grid_is_finite(self):
        cf = quartic(g=0.5)
        cols = wavefunction_factors(cf, 2, 1.0, [-1.5, -0.3, 0.0, 0.3, 1.5])
        for key in ("x", "S0", "S1", "S2", "Q", "phi0", "u1", "u2", "psi"):
            assert len(cols[key]) == 5
        assert all(math.isfinite(v) for v in cols["psi"])
