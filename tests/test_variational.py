"""Variational action minimizer: invariants, oracles, and flow checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from anharmonic import variational
from anharmonic.closedform import Kappa1DModel, s0_closed, s1_closed
from anharmonic.errors import (
    GradientProviderFailure,
    HypothesisViolation,
    NoConvergence,
)
from anharmonic.model import OscillatorModel, kappa_model
from anharmonic.series import PolySeries
from anharmonic.variational import (
    FlowTrajectory,
    GridSpec,
    MomentumProvider,
    _action_and_gradient,
    _ModelEval,
    _newton_step_matrix,
    _node_velocities,
    check_hypotheses,
    decay_bound_satisfied,
    graded_times,
    initial_guess,
    minimize_action,
    numeric_s1,
    semi_flow,
)


def quartic(g="1/2"):
    return kappa_model(2, g=Fraction(g))


def coupled_2d(trunc=8):
    """V = (x1^2 + x2^2)/2 + x1^2 x2^2 / 4."""
    A = PolySeries(2, trunc, {(2, 2): Fraction(1, 4)})
    return OscillatorModel(1, [Fraction(1), Fraction(1)], A)


def band_to_dense(band):
    """Symmetric matrix from the upper banded storage of solveh_banded."""
    u = band.shape[0] - 1
    dense = np.diag(band[u])
    for k in range(1, u + 1):
        dense += np.diag(band[u - k, k:], k) + np.diag(band[u - k, k:], -k)
    return dense


class TestMinimizer:
    def test_quartic_matches_closed_form(self):
        model = quartic()
        cf = Kappa1DModel(mass=1.0, omega0=1.0, g=0.5, kappa=2)
        for x in (0.3, 1.0, 1.8):
            result = minimize_action(model, [x])
            assert result.converged
            assert result.action == pytest.approx(s0_closed(cf, x), rel=1e-6)

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
            vmax = float(ev.potential(result.curve.points).max())
            assert result.ip_energy_drift <= 1e-6 * vmax
            vx = float(ev.potential(np.array([[x]]))[0])
            assert result.hj_residual <= 1e-6 * vx

    def test_quadratic_asymptotics_near_origin(self):
        model = quartic()
        x = 1e-2
        result = minimize_action(model, [x])
        assert result.action / (0.5 * x * x) == pytest.approx(1.0, abs=1e-3)

    def test_discrete_hessian_positive_definite_at_minimizer(self):
        model = quartic()
        ev = _ModelEval(model)
        result = minimize_action(model, [1.0], GridSpec(nodes=60),
                                 refine=False)
        band = _newton_step_matrix(ev, result.curve.times, result.curve.points)
        eigs = np.linalg.eigvalsh(band_to_dense(band))
        assert eigs[0] > 0.0

    def test_banded_hessian_matches_gradient_differences(self):
        """The band is the Jacobian of the interior gradient, and the banded
        Cholesky step equals a dense solve."""
        A = PolySeries(2, 8, {(2, 2): Fraction(1, 4), (3, 1): Fraction(1, 10),
                              (4, 0): Fraction(1, 8)})
        model = OscillatorModel(2, [Fraction(1), Fraction(3, 2)], A)
        ev = _ModelEval(model)
        times = graded_times(ev.omega_min, 20.0, 12)
        pts = initial_guess(ev, times, np.array([0.6, -0.4]))
        pts[0] = 0.0
        pts[1:-1] *= 1.0 + 0.2 * np.sin(np.arange(1, 12))[:, None]
        band = _newton_step_matrix(ev, times, pts)
        dense = band_to_dense(band)
        size = 2 * 11
        assert dense.shape == (size, size)
        h = 1e-6
        fd = np.empty((size, size))
        for c in range(size):
            step = np.zeros(size)
            step[c] = h
            plus, minus = pts.copy(), pts.copy()
            plus[1:-1] += step.reshape(11, 2)
            minus[1:-1] -= step.reshape(11, 2)
            g_plus = _action_and_gradient(ev, times, plus)[1][1:-1].ravel()
            g_minus = _action_and_gradient(ev, times, minus)[1][1:-1].ravel()
            fd[:, c] = (g_plus - g_minus) / (2.0 * h)
        assert np.abs(dense - fd).max() <= 1e-6 * np.abs(dense).max()
        grad = _action_and_gradient(ev, times, pts)[1][1:-1].ravel()
        assert solveh_banded(band, -grad) == pytest.approx(
            np.linalg.solve(dense, -grad), rel=1e-10, abs=1e-14)

    def test_unconverged_refined_solve_raises(self, monkeypatch):
        real = variational._minimize_on_grid
        grids = []

        def coarse_only(ev, times, pts0, tol, max_iter=60):
            pts, action, converged, iters = real(ev, times, pts0, tol, max_iter)
            grids.append(len(times))
            return pts, action, converged and len(grids) == 1, iters

        monkeypatch.setattr(variational, "_minimize_on_grid", coarse_only)
        with pytest.raises(NoConvergence):
            minimize_action(quartic(), [0.5], GridSpec(nodes=50))
        assert grids == [51, 101]

    def test_harmonic_2d_exact_action(self):
        model = OscillatorModel(1, [Fraction(1), Fraction(2)],
                                PolySeries.zero(2, 6))
        result = minimize_action(model, [1.0, 1.0])
        # S0 = sum (1/2) m w_i x_i^2 = 1/2 + 1 = 3/2
        assert result.action == pytest.approx(1.5, rel=1e-6)
        assert result.momentum == pytest.approx([1.0, 2.0], rel=1e-6)

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
        data = minimize_action(quartic(), [0.5], GridSpec(nodes=100)).to_json()
        assert data["converged"] is True
        assert data["nodes"] == 100
        assert data["horizon"] == pytest.approx(40.0)


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

    def test_coupled_2d_convex_near_origin_only(self):
        model = coupled_2d()
        small = check_hypotheses(model, sample_box=[(-0.7, 0.7)] * 2)
        assert small.convexity_ok and small.coercivity_ok
        wide = check_hypotheses(model, sample_box=[(-2.0, 2.0)] * 2)
        assert not wide.convexity_ok

    def test_violation_surfaces_during_minimization(self):
        model = kappa_model(2, g=Fraction(-1, 4))
        with pytest.raises(HypothesisViolation):
            minimize_action(model, [1.6], GridSpec(nodes=120), refine=False)


class TestSemiFlow:
    def test_harmonic_flow_is_exponential(self):
        model = OscillatorModel(1, [Fraction(1)], PolySeries.zero(1, 6))
        provider = MomentumProvider(model, GridSpec(nodes=200))
        traj = semi_flow(model, [1.0], provider, t_span=5.0)
        expect = np.exp(traj.times)
        assert np.abs(traj.points[:, 0] - expect).max() < 1e-4

    def test_backward_flow_retraces_minimizer(self):
        model = quartic()
        result = minimize_action(model, [1.0])
        provider = MomentumProvider(model, GridSpec(nodes=200))
        traj = semi_flow(model, [1.0], provider, t_span=8.0,
                         compare_curve=result.curve)
        assert traj.deviation_from_minimizer < 1e-3
        assert decay_bound_satisfied(traj, 1.0, 0.1)

    def test_forward_flow_escapes(self):
        model = quartic()
        provider = MomentumProvider(model, GridSpec(nodes=120))
        traj = semi_flow(model, [1.0], provider, forward=True, t_span=5.0,
                         escape_radius=50.0)
        assert traj.escape_time is not None
        assert 0.0 < traj.escape_time < 2.0

    def test_decay_bound_rejects_slow_decay(self):
        ts = np.linspace(-5.0, 0.0, 50)
        slow = FlowTrajectory(times=ts,
                              points=np.exp(0.5 * ts)[:, None])
        assert not decay_bound_satisfied(slow, 1.0, 0.1)


class TestNumericS1:
    def test_zero_at_origin(self):
        assert numeric_s1(quartic(), [0.0]) == 0.0

    def test_harmonic_vanishes(self):
        model = OscillatorModel(1, [Fraction(1)], PolySeries.zero(1, 6))
        provider = MomentumProvider(model, GridSpec(nodes=200))
        # zero up to the finite-difference noise of the sampled Hessian
        assert abs(numeric_s1(model, [0.7], provider,
                              GridSpec(nodes=200))) < 1e-3

    def test_quartic_matches_closed_form(self):
        cf = Kappa1DModel(mass=1.0, omega0=1.0, g=0.5, kappa=2)
        value = numeric_s1(quartic(), [1.0])
        assert value == pytest.approx(s1_closed(cf, 1.0), abs=1e-4)


class TestGrid:
    def test_graded_times_uniform_in_tau(self):
        times = graded_times(2.0, 20.0, 50)
        tau = np.exp(2.0 * times)
        steps = np.diff(tau)
        assert steps == pytest.approx(np.full(50, steps[0]), rel=1e-12)
        assert times[-1] == pytest.approx(0.0, abs=1e-14)
        assert times[0] == pytest.approx(-20.0, rel=1e-12)

    def test_node_velocities_exact_for_quartic_polynomials(self):
        """5-point stencils differentiate degree <= 4 exactly at every node,
        the clipped windows at both ends included."""
        times = graded_times(1.0, 40.0, 50)
        pts = np.stack([times ** k for k in range(5)], axis=1)
        exact = np.stack([k * times ** max(k - 1, 0) for k in range(5)], axis=1)
        vel = _node_velocities(times, pts)
        assert vel.shape == pts.shape
        for k in range(5):
            scale = max(1.0, float(np.abs(exact[:, k]).max()))
            assert np.abs(vel[:, k] - exact[:, k]).max() <= 1e-9 * scale

    def test_smallest_grid_minimizes(self):
        result = minimize_action(quartic(), [0.5], GridSpec(nodes=4))
        assert result.converged and math.isfinite(result.action)
