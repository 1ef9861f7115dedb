"""Borel-Pade resummation against analytic sums and spectral references."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from anharmonic import resummation
from anharmonic.errors import (
    IndexOutOfRange,
    InsufficientCoefficients,
    NotConverged,
    PoleOnRay,
    UnsupportedKappa,
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


def dense_hamiltonian(kappa, mu, basis_size):
    """The dense matrix of the former reference: the 2 kappa-th matrix power
    of the position matrix on a buffered basis, restricted, plus n + 1/2."""
    buffered = basis_size + 2 * kappa
    x = np.zeros((buffered, buffered))
    for j in range(buffered - 1):
        x[j, j + 1] = x[j + 1, j] = math.sqrt((j + 1) / 2.0)
    xpow = np.linalg.matrix_power(x, 2 * kappa)[:basis_size, :basis_size]
    return mu * xpow + np.diag(np.arange(basis_size) + 0.5)


def dense_spectrum(kappa, mu, basis_size):
    """The former reference algorithm: every eigenvalue by a dense eigvalsh,
    accurate to a small multiple of ``dense_rounding``."""
    return np.linalg.eigvalsh(dense_hamiltonian(kappa, mu, basis_size))


def dense_rayleigh(kappa, mu, basis_size, levels):
    """Rayleigh quotients of the dense eigenvectors: their error is about the
    squared eigenvector residual over the gap, (eps * ||H||)^2, so they pin
    the eigenvalues of the same matrix far below eigvalsh's rounding."""
    h = dense_hamiltonian(kappa, mu, basis_size)
    vectors = np.linalg.eigh(h)[1][:, :levels]
    return np.einsum("in,in->n", vectors, h @ vectors)


def dense_rounding(kappa, mu, basis_size):
    """eps * ||H||_1: the scale of a dense eigensolver's rounding."""
    h = dense_hamiltonian(kappa, mu, basis_size)
    return np.finfo(float).eps * np.abs(h).sum(axis=0).max()


def fraction_solve(matrix, rhs):
    """The former Pade solve: Gauss-Jordan elimination over Fractions with
    first-nonzero pivoting."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise InsufficientCoefficients(
                "singular Pade system; lower the denominator degree")
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def fraction_pade(monkeypatch, series, p, q):
    """pade_coefficients, step-down loop included, on the former solve: it
    returns the solution itself, so det = 1 in the integer contract."""
    with monkeypatch.context() as patch:
        patch.setattr(resummation, "_exact_solve", lambda rows: (1, fraction_solve(
            [row[:-1] for row in rows], [row[-1] for row in rows])))
        return pade_coefficients(series, p, q)


def integer_rows(rows):
    """Each Fraction row times the lcm of its denominators: the same
    solution on integers."""
    out = []
    for row in rows:
        scale = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def exact_solution(rows):
    """resummation._exact_solve on integer rows, as Fractions."""
    det, xs = resummation._exact_solve(rows)
    assert all(type(v) is int for v in (det, *xs))
    return [Fraction(v, det) for v in xs]


def borel_transform(series):
    return [Fraction(c) / math.factorial(k) for k, c in enumerate(series)]


# the [p/q] orders the benchmark resums, then the Pade table's orders
RESUM_ORDERS = ((9, 11), (10, 9), (10, 10), (10, 12), (11, 9), (11, 11),
                (11, 12), (12, 10), (12, 11), (13, 10), (4, 4), (5, 5), (6, 6))


@pytest.fixture(scope="module")
def quartic24():
    return quartic_series(24)


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

    def test_quadrature_failure_raises(self):
        """B(s) = 1/((1 - s)^2 + eps^2) has poles 1 +- i eps, too far off the
        real axis to count as on the ray, yet a spike of height 1/eps^2 at
        t = 1/mu that quad cannot resolve: it reports a missed tolerance,
        and the sum raises instead of returning about half the integral
        (pi e^(-1/mu) / (eps mu)) with only a warning."""
        eps = Fraction(1, 10 ** 7)
        borel = [Fraction(0), Fraction(0)]
        for k in range(8):  # (1 + eps^2) b_k - 2 b_(k-1) + b_(k-2) = [k = 0]
            borel.append((int(k == 0) + 2 * borel[-1] - borel[-2]) / (1 + eps ** 2))
        series = [b * math.factorial(k) for k, b in enumerate(borel[2:])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged) as err:
                borel_pade(series, 0.5, 2, 2)
        assert err.value.payload["error_estimate"] > 0

    def test_pade_reproduces_rational_function(self):
        num, den = pade_coefficients(
            [Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)], 1, 1)
        # 1/(1+s) = [0/1]; step-down keeps it exact.
        s = Fraction(3, 7)
        top = sum(c * s ** i for i, c in enumerate(num))
        bot = sum(c * s ** i for i, c in enumerate(den))
        assert top / bot == 1 / (1 + s)


class TestLaplaceQuadrature:
    @pytest.mark.parametrize("p, q", RESUM_ORDERS)
    def test_matches_quad(self, quartic24, p, q):
        """On the same exact Pade of the 24-coefficient quartic series, the
        Gauss-Legendre Laplace integral agrees with scipy's adaptive quad to
        1e-13 relative."""
        num, den = pade_coefficients(borel_transform(quartic24), p, q)
        num_f, den_f = [float(c) for c in num], [float(c) for c in den]

        def poly(coeffs, s):
            return sum(c * s ** k for k, c in enumerate(coeffs))

        for mu in (0.05, 0.3, 1.0):
            expect, _ = quad(lambda t: math.exp(-t) * poly(num_f, mu * t)
                             / poly(den_f, mu * t), 0.0, resummation._TAIL_CUTOFF,
                             epsabs=1e-13, epsrel=1e-12, limit=400)
            assert borel_pade(quartic24, mu, p, q) == pytest.approx(
                expect, rel=1e-13, abs=0), mu


class TestExactSolve:
    def test_quartic_orders_match_fraction_solve(self, monkeypatch, quartic24):
        borel = borel_transform(quartic24)
        for p, q in RESUM_ORDERS:
            assert pade_coefficients(borel, p, q) == fraction_pade(
                monkeypatch, borel, p, q), (p, q)

    @pytest.mark.parametrize("series, p, q, used", [
        ([1, -1, 1, -1, 1], 2, 2, (1, 1)),         # 1/(1+s)
        ([1, -1, 1, -1, 1, -1, 1], 3, 3, (1, 1)),  # two steps down
        ([1, 0, 0, 0, 0], 2, 2, (0, 0)),           # down to q = 0
    ], ids=["one-step", "two-steps", "to-q0"])
    def test_step_down_matches_fraction_solve(self, monkeypatch, series, p, q,
                                              used):
        series = [Fraction(c) for c in series]
        num, den = pade_coefficients(series, p, q)
        assert (num, den) == fraction_pade(monkeypatch, series, p, q)
        assert (len(num) - 1, len(den) - 1) == used

    def test_singular_system_raises(self):
        rows = [[Fraction(1, 3), Fraction(2, 5), Fraction(1)],
                [Fraction(2, 3), Fraction(4, 5), Fraction(3)]]
        with pytest.raises(InsufficientCoefficients):
            resummation._exact_solve(integer_rows(rows))
        with pytest.raises(InsufficientCoefficients):
            fraction_solve([row[:-1] for row in rows], [row[-1] for row in rows])

    def test_random_systems_match_fraction_solve(self):
        """Sparse small-integer ratios hit zero pivots, row swaps and
        singular systems; both solves agree on each, the integer solve on
        the rows scaled to integers one by one."""
        rng = random.Random(5)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = [[Fraction(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 4))
                     for _ in range(n + 1)] for _ in range(n)]
            try:
                expect = fraction_solve([r[:-1] for r in rows],
                                        [r[-1] for r in rows])
            except InsufficientCoefficients:
                with pytest.raises(InsufficientCoefficients):
                    resummation._exact_solve(integer_rows(rows))
                outcomes.add("singular")
                continue
            assert exact_solution(integer_rows(rows)) == expect
            outcomes.add("swap" if rows[0][0] == 0 else "solved")
        assert outcomes == {"singular", "swap", "solved"}


class TestBandedReference:
    @pytest.mark.parametrize("mu", [0.0, 0.05, 0.1, 0.5, 1.0])
    def test_kappa2_matches_dense(self, mu):
        """Within 1e-12 of the Rayleigh quotients for n = 0..3, and of the
        former eigvalsh reference for n = 0. For n >= 1 eigvalsh itself is
        off by up to 1.1e-11 at mu = 1 (measured against a 40-digit
        bisection), inside its rounding bound eps * ||H||_1."""
        dense = dense_spectrum(2, mu, 400)
        rayleigh = dense_rayleigh(2, mu, 400, 4)
        rounding = dense_rounding(2, mu, 400)
        for n in range(4):
            value = reference_energy(2, n, mu)
            assert value == pytest.approx(rayleigh[n], abs=1e-12)
            assert value == pytest.approx(dense[n], abs=1e-12 if n == 0 else rounding)

    @pytest.mark.parametrize("kappa, mu, levels", [
        (3, 0.05, 4), (3, 0.1, 4), (3, 0.5, 4), (4, 0.01, 2)])
    def test_higher_kappa_matches_dense(self, kappa, mu, levels):
        """Cases where the dense path also passes basis doubling (with one
        BLAS thread; its rounding depends on the thread count). The banded
        values are within 1e-10 of the Rayleigh quotients (3.5e-11 seen)
        and within eigvalsh's rounding bound eps * ||H||_1 (5e-9 to 8e-7
        here) of the former reference."""
        dense = dense_spectrum(kappa, mu, 400)
        rayleigh = dense_rayleigh(kappa, mu, 400, levels)
        rounding = dense_rounding(kappa, mu, 400)
        for n in range(levels):
            value = reference_energy(kappa, n, mu)
            assert value == pytest.approx(rayleigh[n], abs=1e-10)
            assert value == pytest.approx(dense[n], abs=rounding)

    def test_invalid_inputs_raise(self):
        with pytest.raises(UnsupportedKappa):
            reference_energy(0, 0, 0.1)
        with pytest.raises(UnsupportedKappa):
            reference_energy(-1, 0, 0.1)
        for n in (-1, 200, 500):
            with pytest.raises(IndexOutOfRange):
                reference_energy(2, n, 0.1)

    @pytest.mark.parametrize("kappa, mu", [(2, math.nan), (2, math.inf), (120, 0.1)])
    def test_non_finite_hamiltonian_raises(self, kappa, mu):
        """A non-finite coupling, or x^(2 kappa) past the float range."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged):
                reference_energy(kappa, 0, mu)

    def test_overflowing_kappa_raises_before_any_band(self, monkeypatch):
        """Once N^kappa overflows, NotConverged comes before any band is
        built (basis 200: from kappa = 134; basis 50: from 182)."""
        def unreachable(*_args):
            raise AssertionError("_spectrum called")

        monkeypatch.setattr(resummation, "_spectrum", unreachable)
        for kappa, basis in ((134, 200), (200, 200), (182, 50), (10**6, 50)):
            with pytest.raises(NotConverged):
                reference_energy(kappa, 0, 0.1, basis)
        for kappa, basis in ((133, 200), (181, 50)):
            with pytest.raises(AssertionError):
                reference_energy(kappa, 0, 0.1, basis)

    def test_overflow_bound_is_a_lower_bound(self):
        """<i|x^(2 kappa)|i> >= ((i + 1) / 2)^kappa, the bound behind the
        early NotConverged, on a dense position matrix (exact for
        i < size - kappa)."""
        size = 60
        step = np.sqrt(np.arange(1, size) / 2.0)
        x = np.diag(step, 1) + np.diag(step, -1)
        for kappa in range(1, 9):
            i = np.arange(size - kappa)
            diag = np.diag(np.linalg.matrix_power(x, 2 * kappa))[:size - kappa]
            assert (diag >= ((i + 1) / 2.0) ** kappa * (1 - 1e-12)).all()

    @pytest.mark.parametrize("kappa, mu", [(2, 0.1), (3, 0.01), (4, 0.001)])
    def test_parity_block_matches_full_band(self, kappa, mu):
        """Level n is eigenvalue n // 2 of the parity-(n % 2) block: the same
        eigenvalue as the full band and the dense Rayleigh quotients within
        1e-12 for both parities (these couplings keep eps * ||H||_1 of the
        40 states near or below 1e-12; 3.3e-13 seen at kappa = 4)."""
        from scipy.linalg import eigvals_banded
        basis = 40
        full = eigvals_banded(resummation._hamiltonian(kappa, mu, basis),
                              lower=True, select="i", select_range=(0, 9))
        rayleigh = dense_rayleigh(kappa, mu, basis, 10)
        for n in range(10):
            value = resummation._spectrum(kappa, mu, basis, n)
            assert value == pytest.approx(full[n], abs=1e-12)
            assert value == pytest.approx(rayleigh[n], abs=1e-12)

    def test_band_wider_than_basis(self):
        """2 kappa + 1 diagonals may outnumber the basis states; LAPACK then
        gets only the diagonals that exist."""
        assert resummation._spectrum(30, 0.0, 50, 3) == 3.5
        with pytest.raises(NotConverged):
            reference_energy(30, 0, 0.1, basis_size=50)


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

    def test_table_entry_on_a_pole_is_null(self):
        """c_k = k! has the Borel transform 1/(1 - s), so every table entry
        steps down to [0/1] with a pole at t = 1/mu; [3/0] has none and
        gives the partial sum 1 + mu + 2 mu^2 + 6 mu^3."""
        series = [math.factorial(k) for k in range(13)]
        result = resum_series(series, 0.5, 3, 0)
        assert result.pade_table == {"[4/4]": None, "[5/5]": None, "[6/6]": None}
        assert result.borel_pade_value == pytest.approx(2.75, rel=1e-12)
        assert result.to_json()["pade_table"]["[5/5]"] is None

    def test_result_json_shape(self):
        series = quartic_series(10)
        data = resum_series(series, 0.1, 4, 4, kappa=2, n=0).to_json()
        assert data["pade"] == [4, 4]
        assert data["discrepancy"] < 1e-3
        assert len(data["partial_sums"]) == 10
