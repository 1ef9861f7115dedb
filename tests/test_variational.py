"""Variational action minimizer: invariants, oracles, and flow checks."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from anharmonic import variational
from anharmonic.closedform import Kappa1DModel, _quadrature, s0_closed, s1_closed
from anharmonic.hjformal import solve_hj_formal
from anharmonic.errors import (
    GradientProviderFailure,
    HypothesisViolation,
    ModelFormatError,
    NoConvergence,
)
from anharmonic.model import OscillatorModel, kappa_model
from anharmonic.series import PolySeries
from anharmonic.transport import ground_expansion
from anharmonic.variational import (
    NODES,
    FlowTrajectory,
    MomentumProvider,
    _action_and_gradient,
    _action_hessian,
    _ModelEval,
    _newton,
    _spectral,
    check_hypotheses,
    minimize_action,
    numeric_s1,
    semi_flow,
)
from flowcheck import decay_bound_satisfied
from strategies import points, random_models


def quartic(g="1/2"):
    return kappa_model(2, g=Fraction(g))


def coupled_2d(trunc=8):
    """V = (x1^2 + x2^2)/2 + x1^2 x2^2 / 4."""
    A = PolySeries(2, trunc, {(2, 2): Fraction(1, 4)})
    return OscillatorModel(1, [Fraction(1), Fraction(1)], A)


def coupled_unequal_2d():
    """Unequal frequencies (1, 3/2) with cubic and quartic couplings."""
    A = PolySeries(2, 8, {(2, 2): Fraction(1, 4), (3, 1): Fraction(1, 10),
                          (4, 0): Fraction(1, 8)})
    return OscillatorModel(2, [Fraction(1), Fraction(3, 2)], A)


def convex_2d(omega2=Fraction(3, 2)):
    """Convex quartic couplings, frequencies (1, omega2)."""
    A = PolySeries(2, 8, {(4, 0): Fraction(1, 4), (2, 2): Fraction(1, 4),
                          (0, 4): Fraction(1, 3)})
    return OscillatorModel(1, [Fraction(1), omega2], A)


def model_3d():
    """omega = (1, 3/2, 7/3), so s = exp(t / 6) and q = 6."""
    A = PolySeries(3, 8, {(3, 0, 0): Fraction(1, 5), (1, 1, 1): Fraction(1, 7),
                          (2, 0, 2): Fraction(1, 3), (0, 4, 0): Fraction(1, 4),
                          (1, 2, 1): Fraction(-1, 9)})
    return OscillatorModel(1, [Fraction(1), Fraction(3, 2), Fraction(7, 3)], A)


def fd_hessian(provider, x, step=1e-4):
    """Reference Hessian of S_0: Richardson-extrapolated central differences
    of the momentum, 4 dim minimizations."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((x.size, x.size))
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = 1.0
        coarse = (provider.momentum(x + step * e)
                  - provider.momentum(x - step * e)) / (2.0 * step)
        fine = (provider.momentum(x + 0.5 * step * e)
                - provider.momentum(x - 0.5 * step * e)) / step
        out[:, i] = (4.0 * fine - coarse) / 3.0
    return 0.5 * (out + out.T)


class TestMinimizer:
    def test_quartic_matches_closed_form(self):
        model = quartic()
        cf = Kappa1DModel(mass=1.0, omega0=1.0, g=0.5, kappa=2)
        for x in (0.3, 1.0, 1.8):
            result = minimize_action(model, [x])
            assert result.to_json()["converged"] is True
            assert result.action == pytest.approx(s0_closed(cf, x), rel=1e-12)

    def test_quartic_s0_on_the_acceptance_grid(self):
        """The 21 points of the acceptance grid, 1e-12 relative."""
        model = quartic()
        cf = Kappa1DModel(mass=1.0, omega0=1.0, g=0.5, kappa=2)
        for x in np.linspace(-2.0, 2.0, 21):
            action = minimize_action(model, [x]).action
            if x == 0.0:
                assert action == 0.0
            else:
                assert action == pytest.approx(s0_closed(cf, float(x)), rel=1e-12)

    def test_momentum_matches_action_derivative(self):
        model = quartic()
        h = 1e-4
        plus = minimize_action(model, [1.0 + h]).action
        minus = minimize_action(model, [1.0 - h]).action
        fd = (plus - minus) / (2.0 * h)
        mom = minimize_action(model, [1.0]).momentum[0]
        assert mom == pytest.approx(fd, rel=1e-5)

    def test_energy_and_hj_invariants(self):
        model = quartic()
        ev = _ModelEval(model)
        for x in (0.5, 2.0):
            result = minimize_action(model, [x])
            vmax = float(ev.potential(result.points).max())
            assert result.ip_energy_drift <= 1e-6 * vmax
            vx = float(ev.potential(np.array([[x]]))[0])
            assert result.hj_residual <= 1e-6 * vx

    def test_quadratic_asymptotics_near_origin(self):
        model = quartic()
        x = 1e-2
        result = minimize_action(model, [x])
        assert result.action / (0.5 * x * x) == pytest.approx(1.0, abs=1e-3)

    def test_jet_table_rounds_each_exact_coefficient_once(self):
        """Every entry of the jet's table is its exact coefficient rounded
        once to a double, tall rationals included, in exponent order."""
        A = PolySeries(2, 6, {(3, 1): Fraction(10 ** 30 + 7, 3 ** 41),
                              (2, 2): Fraction(-1, 7),
                              (0, 5): Fraction(2 ** 70 + 1, 10 ** 21)})
        model = OscillatorModel(Fraction(5, 3), [Fraction(1), Fraction(3, 2)], A)
        ev = _ModelEval(model)
        V = model.potential_series(6)
        grad = V.gradient()
        parts = [V, *grad, *(g.partial_derivative(j) for g in grad for j in range(2))]
        rows = [tuple(e) for e in ev._exps.tolist()]
        assert rows == sorted({k for p in parts for k, _ in p.items()})
        expect = np.zeros((len(rows), len(parts)))
        for col, p in enumerate(parts):
            for k, c in p.items():
                expect[rows.index(k), col] = float(c)
        assert np.array_equal(ev._coeffs, expect)

    def test_discrete_hessian_positive_definite_at_minimizer(self):
        model = quartic()
        ev, spec = _ModelEval(model), _spectral(60)
        free = minimize_action(model, [1.0], 60).points[1:]
        hess = _action_hessian(ev, spec, _action_and_gradient(ev, spec, free)[2])
        assert np.linalg.eigvalsh(hess[:-1, :-1])[0] > 0.0

    def test_hessian_matches_gradient_differences(self):
        """The assembled Hessian, endpoint rows included, is the Jacobian of
        the action gradient away from the minimizer."""
        ev, spec = _ModelEval(coupled_unequal_2d()), _spectral(12)
        s = spec.nodes[1:, None]
        free = np.array([0.6, -0.4]) * s ** ev.powers
        free[:-1] *= 1.0 + 0.2 * np.sin(np.arange(1, 12))[:, None]
        hess = _action_hessian(ev, spec, _action_and_gradient(ev, spec, free)[2])
        size = 2 * 12
        assert hess.shape == (size, size)
        h = 1e-6
        fd = np.empty((size, size))
        for c in range(size):
            step = np.zeros(size)
            step[c] = h
            plus = _action_and_gradient(ev, spec, free + step.reshape(12, 2))[1]
            minus = _action_and_gradient(ev, spec, free - step.reshape(12, 2))[1]
            fd[:, c] = (plus - minus).ravel() / (2.0 * h)
        assert np.abs(hess - fd).max() <= 1e-6 * np.abs(hess).max()

    def test_iteration_cap_raises(self):
        ev, spec = _ModelEval(quartic()), _spectral(NODES)
        free = 0.5 * spec.nodes[1:, None]
        with pytest.raises(NoConvergence):
            _newton(ev, spec, free, tol=0.0, max_iter=2)

    @pytest.mark.parametrize("model, x, nodes", [
        (quartic("1"), [20.0], NODES),  # needs a degree growing like |x|^(1/2)
        (quartic(), [0.5], 4),
    ], ids=["far-target", "degree-4"])
    def test_unresolved_curve_raises(self, model, x, nodes):
        """A converged curve whose last Chebyshev coefficients stay above
        1e-6 of the largest is rejected, not reported."""
        with pytest.raises(NoConvergence) as err:
            minimize_action(model, x, nodes)
        assert err.value.payload["nodes"] == nodes
        assert err.value.payload["tail"] > 1e-6

    @pytest.mark.parametrize("omega2, nodes, exponent", [
        (Fraction(101, 100), NODES, 101),  # q = 100
        (Fraction("1.4142"), 256, 7071),  # q = 5000
    ], ids=["near-resonant", "decimal"])
    def test_mode_beyond_degree_is_a_format_error(self, monkeypatch,
                                                  omega2, nodes, exponent):
        """A linear mode s^(q omega_i / omega_min) of higher degree than the
        curve is rejected before any Newton step."""
        monkeypatch.setattr(variational, "_newton", None)
        model = convex_2d(omega2)
        with pytest.raises(ModelFormatError) as err:
            minimize_action(model, [0.7, 0.8], nodes)
        assert err.value.payload == {"exponent": exponent, "nodes": nodes}
        with pytest.raises(ModelFormatError):
            MomentumProvider(model, nodes)

    def test_near_resonant_resolves_at_its_exponent(self):
        model = convex_2d(Fraction(101, 100))
        low = minimize_action(model, [0.7, 0.8], 101).action
        assert low == pytest.approx(
            minimize_action(model, [0.7, 0.8], 256).action, rel=1e-11)

    def test_smallest_degree_is_exact_for_harmonic(self):
        model = OscillatorModel(1, [Fraction(1)], PolySeries.zero(1, 6))
        result = minimize_action(model, [0.7], 4)
        assert result.action == pytest.approx(0.245, rel=1e-14)

    @pytest.mark.parametrize("nodes", [3, 257])
    def test_degree_out_of_range_is_a_format_error(self, nodes):
        with pytest.raises(ModelFormatError):
            minimize_action(quartic(), [0.5], nodes)
        with pytest.raises(ModelFormatError):
            MomentumProvider(quartic(), nodes)

    @pytest.mark.parametrize("model, x", [
        (quartic(), [1e200]),
        (coupled_2d(), [1e-300, 1e200]),
    ], ids=["1d", "2d"])
    def test_infinite_action_raises(self, model, x):
        """An infinite action passes any relative stopping test, so it must
        be rejected before it."""
        with pytest.raises(NoConvergence):
            minimize_action(model, x)
        with pytest.raises(GradientProviderFailure):
            MomentumProvider(model).momentum(x)

    def test_harmonic_2d_exact_action(self):
        model = OscillatorModel(1, [Fraction(1), Fraction(2)],
                                PolySeries.zero(2, 6))
        result = minimize_action(model, [1.0, 1.0])
        # S0 = sum (1/2) m w_i x_i^2 = 1/2 + 1 = 3/2
        assert result.action == pytest.approx(1.5, rel=1e-12)
        assert result.momentum == pytest.approx([1.0, 2.0], rel=1e-12)

    def test_line_search_backtracks_and_converges(self, monkeypatch):
        """A full Newton step can raise the action: on this cubic-coupled
        model (sampled convexity fails, yet the discrete Hessian stays
        positive definite) Newton backtracks 4 times in 6 iterations and
        still converges, with HJ residual 8.5e-13."""
        A = PolySeries(2, 4, {(2, 1): Fraction(5, 3), (4, 0): Fraction(1, 4),
                              (0, 4): Fraction(9, 20)})
        model = OscillatorModel(1, [Fraction(1, 2), Fraction(3, 2)], A)
        assert not check_hypotheses(model).convexity_ok
        trials = []
        real = variational._action_and_gradient

        def counted(*args):
            trials.append(args)
            return real(*args)

        monkeypatch.setattr(variational, "_action_and_gradient", counted)
        result = minimize_action(model, [1.7, 1.65])
        # the start and each accepted step take one evaluation; backtracks more
        assert len(trials) > 1 + result.iterations
        assert result.hj_residual < 1e-11

    def test_ascent_direction_is_a_hypothesis_violation(self, monkeypatch):
        """No convex input makes the certified step point uphill, so the
        solve is replaced by one returning the gradient itself."""
        monkeypatch.setattr(np.linalg, "solve", lambda matrix, b: -b)
        with pytest.raises(HypothesisViolation, match="not a descent direction"):
            minimize_action(quartic(), [0.5])

    def test_exhausted_line_search_raises(self, monkeypatch):
        """Every trial after the start costs an infinite action, so the 40
        halvings of the first step all fail."""
        real = variational._action_and_gradient
        trials = []

        def uphill(ev, spec, free):
            action, grad, hess_v = real(ev, spec, free)
            trials.append(action)
            return (action if len(trials) == 1 else math.inf), grad, hess_v

        monkeypatch.setattr(variational, "_action_and_gradient", uphill)
        with pytest.raises(NoConvergence, match="line search failed"):
            minimize_action(quartic(), [0.5])
        assert len(trials) == 41

    def test_2d_coupled_against_bvp_oracle(self):
        """Independent check: solve the Euler-Lagrange BVP
        gamma'' = grad V(gamma) with scipy and integrate its Lagrangian."""
        from scipy.integrate import simpson, solve_bvp

        model = coupled_2d()
        x = np.array([0.8, 0.6])
        result = minimize_action(model, x)

        def grad_v(p1, p2):
            return (p1 + 0.5 * p1 * p2 ** 2, p2 + 0.5 * p2 * p1 ** 2)

        T = 30.0
        ts = np.linspace(-T, 0.0, 2000)

        def rhs(t, y):
            g1, g2 = grad_v(y[0], y[1])
            return np.vstack([y[2], y[3], g1, g2])

        def bc(ya, yb):
            return np.array([ya[0], ya[1], yb[0] - x[0], yb[1] - x[1]])

        guess = np.vstack([
            x[0] * np.exp(ts), x[1] * np.exp(ts),
            x[0] * np.exp(ts), x[1] * np.exp(ts)])
        sol = solve_bvp(rhs, bc, ts, guess, tol=1e-10, max_nodes=200000)
        assert sol.success
        tt = np.linspace(-T, 0.0, 4000)
        y = sol.sol(tt)
        v = (0.5 * (y[0] ** 2 + y[1] ** 2)
             + 0.25 * (y[0] * y[1]) ** 2)
        lagrangian = 0.5 * (y[2] ** 2 + y[3] ** 2) + v
        oracle = simpson(lagrangian, x=tt)
        assert result.action == pytest.approx(oracle, rel=1e-6)

    def test_bad_target_shape(self):
        with pytest.raises(GradientProviderFailure):
            minimize_action(quartic(), [1.0, 2.0])

    def test_result_json_shape(self):
        data = minimize_action(quartic(), [0.5], 30).to_json()
        assert data["converged"] is True
        assert data["nodes"] == 30

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_curve_starts_at_the_origin(self):
        points = minimize_action(coupled_unequal_2d(), [0.5, -0.3]).points
        assert np.array_equal(points[0], [0.0, 0.0])
        assert np.array_equal(points[-1], [0.5, -0.3])


class TestHypotheses:
    def test_quartic_passes(self):
        report = check_hypotheses(quartic())
        assert report.coercivity_ok and report.convexity_ok
        # the anharmonic term is nonnegative, so the margin bottoms out at 0
        assert report.coercivity_margin == pytest.approx(0.0, abs=1e-12)

    def test_negative_quartic_fails_both(self):
        model = kappa_model(2, g=Fraction(-1))
        report = check_hypotheses(model)
        assert not report.convexity_ok
        assert not report.coercivity_ok

    @pytest.mark.parametrize("model, box, expect", [
        (quartic(), None, (0.0, [0.0], 1.0, [0.0])),
        # V = x^2/2 - x^4: V(-2) = 2 - 16, less (1/2)(1 - 0.99^2) x^2
        (kappa_model(2, g=Fraction(-1)), None, (-14.0398, [-2.0], -47.0, [-2.0])),
        # Hess V = [[1 + x2^2/2, x1 x2], [x1 x2, 1 + x1^2/2]] at a corner
        (coupled_2d(), None, (0.0, [0.0, 0.0], -1.0, [-2.0, -2.0])),
        (coupled_2d(), [(-0.7, 0.7)] * 2, (0.0, [0.0, 0.0], 0.755, [-0.7, -0.7])),
    ], ids=["quartic", "negative-quartic", "coupled", "coupled-small"])
    def test_margins_at_worst_points(self, model, box, expect):
        margin, margin_at, eig, eig_at = expect
        report = check_hypotheses(model, sample_box=box)
        assert report.coercivity_margin == pytest.approx(margin, rel=1e-12)
        assert report.coercivity_worst_point == pytest.approx(margin_at)
        assert report.min_hessian_eigenvalue == pytest.approx(eig, rel=1e-12)
        assert report.convexity_worst_point == pytest.approx(eig_at)

    def test_coupled_2d_convex_near_origin_only(self):
        model = coupled_2d()
        small = check_hypotheses(model, sample_box=[(-0.7, 0.7)] * 2)
        assert small.convexity_ok and small.coercivity_ok
        wide = check_hypotheses(model, sample_box=[(-2.0, 2.0)] * 2)
        assert not wide.convexity_ok

    def test_violation_surfaces_during_minimization(self):
        model = kappa_model(2, g=Fraction(-1, 4))
        with pytest.raises(HypothesisViolation, match="not positive definite"):
            minimize_action(model, [1.6])


class TestHessian:
    @pytest.mark.parametrize("model, x", [
        (quartic(), [0.9]),
        (quartic(), [1.6]),
        (coupled_unequal_2d(), [0.5, -0.3]),
        (coupled_unequal_2d(), [-0.2, 0.7]),
    ], ids=["quartic-0.9", "quartic-1.6", "coupled-a", "coupled-b"])
    def test_matches_finite_differences(self, model, x):
        provider = MomentumProvider(model)
        hess = provider.hessian(x)
        ref = fd_hessian(provider, x)
        assert np.abs(hess - ref).max() <= 1e-7 * np.abs(ref).max()

    def test_symmetric(self):
        hess = MomentumProvider(coupled_unequal_2d()).hessian([0.5, -0.3])
        assert hess.shape == (2, 2)
        assert np.array_equal(hess, hess.T)
        assert hess[0, 1] != 0.0

    def test_harmonic_is_mass_times_omega(self):
        model = OscillatorModel(2, [Fraction(1), Fraction(3, 2)],
                                PolySeries.zero(2, 6))
        hess = MomentumProvider(model).hessian([0.7, -0.4])
        expect = np.diag([2.0, 3.0])
        assert np.abs(hess - expect).max() <= 1e-12 * 3.0

    def test_momentum_is_the_minimizer_endpoint_gradient(self):
        """The lean sample and the full report come from one minimization."""
        provider = MomentumProvider(coupled_unequal_2d())
        for x in ([0.5, -0.3], [0.9, 0.7], [-0.2, 0.1]):
            assert np.array_equal(provider.momentum(x),
                                  provider.minimize(x).momentum)

    def test_indefinite_hessian_at_the_minimizer(self, monkeypatch):
        """Started at its own minimizer, Newton factors nothing; the
        Schur complement's factorization reports the failure."""
        provider = MomentumProvider(quartic())
        start = provider.minimize([0.5]).points[1:]
        real = variational._action_hessian
        monkeypatch.setattr(variational, "_action_hessian",
                            lambda *args: -real(*args))
        with pytest.raises(HypothesisViolation, match="not positive definite"):
            provider.hessian([0.5], start=start)

    def test_failure_is_provider_failure(self):
        provider = MomentumProvider(kappa_model(2, g=Fraction(-1, 4)))
        with pytest.raises(GradientProviderFailure):
            provider.hessian([1.6])


class TestSemiFlow:
    def test_harmonic_flow_is_exponential(self):
        model = OscillatorModel(1, [Fraction(1)], PolySeries.zero(1, 6))
        traj = semi_flow(model, [1.0], t_span=5.0)
        expect = np.exp(traj.times)
        assert np.abs(traj.points[:, 0] - expect).max() < 1e-4

    def test_backward_flow_retraces_minimizer(self):
        traj = semi_flow(quartic(), [1.0], t_span=8.0)
        assert traj.deviation_from_minimizer < 1e-6
        assert decay_bound_satisfied(traj, 1.0, 0.1)

    def test_forward_flow_escapes(self):
        """The quartic with g = 1/2 has grad S_0 = x (1 + x^2)^(1/2), so the
        flow from 1 reaches |x| = R at asinh(1) - asinh(1/R), beyond the
        range any degree resolves for R = 1e3."""
        traj = semi_flow(quartic(), [1.0], t_span=5.0, forward=True)
        exact = math.asinh(1.0) - math.asinh(1e-3)
        assert traj.escape_time == pytest.approx(exact, abs=1e-9)
        assert traj.points[-1, 0] == pytest.approx(1e3, rel=1e-9)

    def test_forward_flow_escapes_on_the_sextic(self):
        """On the graph p = (2 m V)^(1/2) the forward flow x' = p/m takes
        int_{x0}^{R} dx / (2 V(x) / m)^(1/2) to reach R = 1e3; the integral
        is taken in u = log x."""
        traj = semi_flow(kappa_model(3), [0.5], t_span=5.0, forward=True)
        exact = _quadrature(
            lambda u: np.exp(u) / np.sqrt(np.exp(2 * u) + 2 * np.exp(6 * u)),
            math.log(0.5), math.log(1e3), epsabs=1e-14, epsrel=1e-13, limit=400)
        assert traj.escape_time == pytest.approx(exact, abs=1e-8)
        assert traj.points[-1, 0] == pytest.approx(1e3, rel=1e-9)

    @pytest.mark.parametrize("t_span", [-1.0, 0.0, math.nan])
    @pytest.mark.parametrize("forward", [False, True])
    def test_span_must_be_positive_and_finite(self, t_span, forward):
        """A negative span used to run the backward field forward and
        report deviation 0.0."""
        with pytest.raises(ModelFormatError):
            semi_flow(kappa_model(2), [0.5], t_span=t_span, forward=forward)

    def test_backward_flow_stops_at_the_origin(self):
        """Left to run, the flow stalls near 1e-11 at the tolerance
        _FLOW_ATOL, where the decay bound fails from t = -30 on; it ends at
        the arrival radius instead (the CLI test runs a span of 1e300)."""
        start = time.perf_counter()
        traj = semi_flow(kappa_model(2), [0.5], t_span=30.0)
        assert time.perf_counter() - start < 5.0
        assert decay_bound_satisfied(traj, 1.0, 0.1)
        assert abs(traj.points[0, 0]) == pytest.approx(
            variational._ARRIVAL_RADIUS, rel=1e-3)

    def test_start_inside_the_arrival_radius_has_arrived(self):
        traj = semi_flow(kappa_model(2), [1e-9], t_span=1e300)
        assert traj.times.tolist() == [0.0, 0.0]
        assert traj.deviation_from_minimizer == 0.0

    def test_backward_flow_samples_through_momentum(self, monkeypatch):
        """Every minimization but the curve's is a momentum sample, so
        wrapping MomentumProvider.momentum sees all of the flow's work;
        DOP853 steps need few of them: 12 a step (no dense-output stages)
        and two for the start and the initial-step probe."""
        depth, inside, outside = [0], [], []
        real_solve, real_momentum = variational._solve, MomentumProvider.momentum

        def solve(*args):
            (inside if depth[0] else outside).append(args[2])
            return real_solve(*args)

        def momentum(self, x, start=None):
            depth[0] += 1
            try:
                return real_momentum(self, x, start)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(variational, "_solve", solve)
        monkeypatch.setattr(MomentumProvider, "momentum", momentum)
        traj = semi_flow(quartic(), [1.0], t_span=8.0)
        assert len(outside) == 1
        assert len(inside) <= 230
        assert traj.deviation_from_minimizer < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_backward_flow_on_convex_2d_quartics(self, seed):
        """perfbench's 2D family: omega = (1, 3/2), x1^4 and x2^4 couplings
        in [2, 5]/16, x1^2 x2^2 in [1, 3]/32, starts in [0.5, 0.9]^2."""
        rng = random.Random(seed)
        A = PolySeries(2, 4, {(4, 0): Fraction(rng.randint(2, 5), 16),
                              (2, 2): Fraction(rng.randint(1, 3), 32),
                              (0, 4): Fraction(rng.randint(2, 5), 16)})
        model = OscillatorModel(1, [Fraction(1), Fraction(3, 2)], A)
        traj = semi_flow(model, [rng.uniform(0.5, 0.9) for _ in range(2)])
        assert traj.deviation_from_minimizer < 1e-7
        assert decay_bound_satisfied(traj, 1.0, 0.1)

    def test_decay_bound_rejects_slow_decay(self):
        ts = np.linspace(-5.0, 0.0, 50)
        slow = FlowTrajectory(times=ts,
                              points=np.exp(0.5 * ts)[:, None])
        assert not decay_bound_satisfied(slow, 1.0, 0.1)


class TestStepper:
    @pytest.mark.parametrize("rhs", [lambda _t, y: y * y,
                                     lambda _t, y: np.full_like(y, np.nan)],
                             ids=["blow-up", "nan"])
    def test_failed_integration(self, rhs):
        """y' = y^2 from 1 blows up at t = 1, inside the span: the steps
        shrink to the spacing of the floats; a NaN field takes no step."""
        with pytest.raises(GradientProviderFailure, match="integration failed"):
            variational._dop853(rhs, np.array([1.0]), 2.0, lambda _y: -1.0)


class TestNumericS1:
    def test_zero_at_origin(self):
        assert numeric_s1(quartic(), [0.0]) == 0.0

    def test_harmonic_vanishes(self):
        model = OscillatorModel(1, [Fraction(1)], PolySeries.zero(1, 6))
        assert abs(numeric_s1(model, [0.7])) < 1e-12

    def test_quartic_matches_closed_form(self):
        cf = Kappa1DModel(mass=1.0, omega0=1.0, g=0.5, kappa=2)
        for x in (0.5, 1.0, 1.5):
            value = numeric_s1(quartic(), [x])
            assert value == pytest.approx(s1_closed(cf, x), abs=1e-10)

    def test_one_minimization_per_sample(self, monkeypatch):
        """The curve itself plus one per Hessian at its 2N Gauss-Legendre
        points."""
        calls = []
        real = variational._solve

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(variational, "_solve", counted)
        numeric_s1(quartic(), [0.9])
        assert len(calls) == 2 * NODES + 1

    def test_one_discretized_model(self, monkeypatch):
        """The curve and every Hessian share one jet of V."""
        built = []
        real = _ModelEval.__init__

        def counted(self, model):
            built.append(model)
            real(self, model)

        monkeypatch.setattr(_ModelEval, "__init__", counted)
        numeric_s1(quartic(), [0.9])
        assert len(built) == 1


def _newton_work(monkeypatch):
    """Record the Newton iterations of every lean minimization given a
    start (the samples), and count those without one."""
    samples, cold = [], []
    real = variational._solve

    def solve(ev, spec, x, start=None):
        minimum = real(ev, spec, x, start)
        (cold if start is None else samples).append(minimum.iterations)
        return minimum
    monkeypatch.setattr(variational, "_solve", solve)
    return samples, cold


class TestCurveStart:
    """Samples start Newton from the time-shifted tail of the curve."""

    def test_flow_samples_match_cold_starts(self, monkeypatch):
        """Within 1e-9 relative in the sense of Newton's stopping test,
        which is absolute below unit action: near the origin both starts
        stop about 1e-10 from the exact minimizer."""
        seen = []
        real = MomentumProvider.momentum

        def momentum(self, x, start=None):
            out = real(self, x, start)
            seen.append((self, np.array(x), start, out))
            return out
        monkeypatch.setattr(MomentumProvider, "momentum", momentum)
        semi_flow(quartic(), [1.0], t_span=8.0)
        semi_flow(convex_2d(), [0.7, 0.8])
        monkeypatch.undo()
        assert len(seen) > 300 and all(s is not None for _, _, s, _ in seen)
        for provider, y, _, warm in seen:
            cold = provider.momentum(y)
            assert np.abs(warm - cold).max() <= 1e-9 * (1.0 + np.abs(cold).max())

    def test_start_at_sigma_one_is_the_curve(self):
        provider = MomentumProvider(convex_2d())
        points = provider.minimize([0.6, -0.4]).points
        start = provider._tail_start(points, provider._fields(points), 1.0,
                                     points[-1])
        assert np.array_equal(start, points[1:])

    def test_fields_are_the_endpoint_derivative_of_the_curve(self):
        """J(s) = d gamma(s) / dx, against central differences of whole
        minimizations."""
        provider = MomentumProvider(convex_2d())
        x, h = np.array([0.6, -0.4]), 1e-5
        fields = provider._fields(provider.minimize(x).points)
        for b in range(2):
            step = h * np.eye(2)[b]
            diff = (provider.minimize(x + step).points
                    - provider.minimize(x - step).points) / (2 * h)
            assert fields[:, :, b] == pytest.approx(diff, abs=1e-7)

    def test_endpoint_of_a_start_is_pinned_to_x(self):
        """A start that ends elsewhere (the curve to another point) still
        minimizes to x."""
        provider = MomentumProvider(convex_2d())
        other = provider.minimize([0.2, 0.5]).points
        x = np.array([0.6, -0.4])
        minimum = variational._solve(provider._ev, provider._spec, x, other[1:])
        assert np.array_equal(minimum.points[-1], x)
        assert minimum.grad[-1] == pytest.approx(provider.momentum(x), rel=1e-9)
        assert np.array_equal(other[-1], [0.2, 0.5])  # the start is not written

    @pytest.mark.parametrize("shape", [(NODES, 2), (NODES - 1, 1), (NODES + 1, 1)])
    def test_start_of_the_wrong_shape(self, shape):
        provider = MomentumProvider(quartic())
        with pytest.raises(GradientProviderFailure):
            provider.momentum([0.5], start=np.zeros(shape))
        with pytest.raises(GradientProviderFailure):
            provider.hessian([0.5], start=np.zeros(shape))

    def test_flow_newton_budget(self, monkeypatch):
        samples, cold = _newton_work(monkeypatch)
        semi_flow(quartic(), [1.0], t_span=8.0)
        assert len(cold) == 1 and len(samples) > 200
        assert sum(samples) <= 0.5 * len(samples)

    def test_numeric_s1_newton_budget(self, monkeypatch):
        samples, cold = _newton_work(monkeypatch)
        numeric_s1(quartic(), [0.9])
        assert len(cold) == 1 and len(samples) == 2 * NODES
        assert sum(samples) <= 0.5 * len(samples)


class TestSpectral:
    @pytest.mark.parametrize("nodes", [4, 11, NODES])
    def test_matrices_are_exact_on_polynomials(self, nodes):
        """Values at nodes 1..N of a degree-N polynomial vanishing at s = 0
        give its derivative at the nodes, its values and derivative at the
        Gauss points, and its Chebyshev coefficients; the Gauss rule
        integrates degree 4N - 1 exactly."""
        spec = _spectral(nodes)
        rng = np.random.default_rng(nodes)
        cheb = rng.standard_normal(nodes + 1)
        cheb[0] -= np.polynomial.chebyshev.chebval(-1.0, cheb)  # p(s = 0) = 0
        poly = np.polynomial.Chebyshev(cheb, domain=[0.0, 1.0])
        s, g = spec.nodes, spec.gauss
        values = poly(s[1:])
        assert spec.diff @ values == pytest.approx(poly.deriv()(s), abs=1e-9)
        assert spec.interp @ values == pytest.approx(poly(g), abs=1e-12)
        assert spec.slope @ values == pytest.approx(poly.deriv()(g), abs=1e-9)
        assert spec.cheb @ poly(s) == pytest.approx(cheb, abs=1e-12)
        top = 4 * nodes - 1
        assert spec.weights @ g ** top == pytest.approx(1.0 / (top + 1), rel=1e-12)
        assert spec.nodes[0] == 0.0 and spec.nodes[-1] == 1.0
        assert spec.nodes.flags.writeable is False


class TestFormalOracles:
    """S_0, Hess S_0 and S_1 against the exact formal series, at points
    inside half the formal radius (about 0.8 for the convex quartic, read
    off the growth of its degree slices).  The 2D series are cut at degree
    40; the 3D one at degree 20, whose higher slices change S_0, Hess S_0
    and S_1 by less than 1e-14 at these points."""

    CASES = [
        ("unequal-2d", coupled_unequal_2d, 40,
         [[0.3, -0.2], [-0.2, 0.3], [0.25, 0.25]]),
        ("convex-2d", convex_2d, 40, [[0.4, 0.3], [-0.3, 0.4]]),
        ("3d", model_3d, 20, [[0.2, -0.15, 0.1], [0.1, 0.2, -0.2]]),
    ]

    @pytest.mark.parametrize("make, trunc, xs", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_against_formal_series(self, make, trunc, xs):
        model = make()
        action = solve_hj_formal(model, trunc)
        s1 = ground_expansion(action, 1).corrections[1]
        second = [[g.partial_derivative(j) for j in range(model.dim)]
                  for g in action.S0.gradient()]
        provider = MomentumProvider(model)
        for x in xs:
            s0 = action.S0.evaluate(x)
            assert minimize_action(model, x).action == pytest.approx(s0, rel=1e-12)
            hess = np.array([[d.evaluate(x) for d in row] for row in second])
            err = np.abs(provider.hessian(x) - hess).max()
            assert err <= 1e-10 * np.abs(hess).max()
            assert numeric_s1(model, x) == pytest.approx(
                s1.evaluate(x), abs=1e-10)


def _magnitude(series, x) -> float:
    """Sum of the magnitudes of the terms of series at x."""
    return sum(abs(float(c)) * math.prod(abs(v) ** e for v, e in zip(x, k))
               for k, c in series.items())


class TestJet:
    @staticmethod
    def exact_parts(model):
        """V, each d_i V and each d_i d_j V as exact series."""
        V = model.potential_series(max(2, model.anharmonic.trunc))
        grad = V.gradient()
        return V, grad, [[g.partial_derivative(j) for j in range(model.dim)]
                         for g in grad]

    @settings(max_examples=50, deadline=None)
    @given(random_models(), points)
    def test_matches_exact_series(self, model, drawn):
        """Within 1e-12 of each term-magnitude sum, down to the underflow
        range, at the origin and at the drawn points and their negatives."""
        pts = np.array([[0.0] * model.dim, *drawn, *(-np.array(drawn))])
        v, grad, hess = _ModelEval(model).jet(pts)
        V, dV, ddV = self.exact_parts(model)
        for p, x in enumerate(pts.tolist()):
            pairs = [(v[p], V)] + [(grad[p, i], dV[i]) for i in range(model.dim)]
            pairs += [(hess[p, i, j], ddV[i][j])
                      for i in range(model.dim) for j in range(model.dim)]
            for value, series in pairs:
                err = abs(value - series.evaluate(x))
                assert err <= 1e-12 * _magnitude(series, x) + 1e-300

    def test_harmonic_quadratic_part_survives_zero_truncation(self):
        model = OscillatorModel(2, [Fraction(1), Fraction(3, 2)],
                                PolySeries.zero(2, 0))
        pts = np.array([[0.5, -1.0], [0.0, 2.0]])
        v, grad, hess = _ModelEval(model).jet(pts)
        m_w2 = np.array([2.0, 4.5])  # m omega_i^2
        assert v == pytest.approx(0.5 * (m_w2 * pts ** 2).sum(axis=1), rel=1e-15)
        assert grad == pytest.approx(m_w2 * pts, rel=1e-15)
        assert np.array_equal(hess, np.broadcast_to(np.diag(m_w2), (2, 2, 2)))

    def test_single_point(self):
        model = coupled_unequal_2d()
        x = [0.6, -0.7]
        v, grad, hess = _ModelEval(model).jet(np.array([x]))
        assert (v.shape, grad.shape, hess.shape) == ((1,), (1, 2), (1, 2, 2))
        V, dV, ddV = self.exact_parts(model)
        assert v[0] == pytest.approx(V.evaluate(x), rel=1e-14)
        assert grad[0] == pytest.approx([d.evaluate(x) for d in dV], rel=1e-14)
        assert hess[0] == pytest.approx(
            np.array([[d.evaluate(x) for d in row] for row in ddV]), rel=1e-14)
        assert np.array_equal(hess[0], hess[0].T)
