"""Direct variational construction of the leading action S_0(x).

S_0(x) is the minimum of the inverted-potential action

    I[gamma] = int_{-T}^{0} [ (1/2) m |gamma'|^2 + V(gamma) ] dt

over curves pinned to the origin at t = -T (standing in for t -> -infinity)
and to x at t = 0.  Discretization: nodes uniform in tau = exp(omega_min t)
so resolution concentrates near t = 0, piecewise-linear curves, trapezoidal
quadrature.  The discrete problem is smooth and (for convex V) strictly
convex, so a damped Newton iteration converges to machine precision
deterministically.  Its exact Hessian is block-tridiagonal with bandwidth
dim, and each step is one banded Cholesky solve (``solveh_banded``).
V, grad V and Hess V come together from one jet: the monomials of the
exact series of V and of its first and second derivatives are evaluated
once per point set (powers by repeated multiplication) and combined by
one matrix product.

Accuracy: the trapezoidal/piecewise-linear error is O(h^2) in the node
spacing, so by default the solver re-minimizes on a doubled grid and
Richardson-extrapolates the action value; momentum (m gamma'(0)) and
node velocities use one-sided/centered 5-point stencils on the graded grid.

Also here: sampled coercivity/convexity hypothesis checks, the gradient
semi-flow integrator (which must retrace the minimizer curve), and the
numerical first transport integral
    S_1(x) = int_{-inf}^{0} [ (lap S_0)/(2m) - sum_j omega_j / 2 ](gamma(t)) dt
with the Hessian of S_0 the exact x-derivative of the discrete momentum:
by the implicit function theorem the minimizer moves with its endpoint as
dP/dx = H^-1 (dg/dx), one extra banded solve with the Newton matrix H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.linalg import LinAlgError, solveh_banded

from .errors import (
    GradientProviderFailure,
    HypothesisViolation,
    ModelFormatError,
    NoConvergence,
)
from .model import OscillatorModel


# -- the jet of V ------------------------------------------------------------

class _ModelEval:
    """V, grad V and Hess V in double precision, from one table of monomials.

    The exact series of V (quadratic part included), of each d_i V and of
    each d_i d_j V share one exponent table (T, dim); their coefficients
    are the columns of one (T, 1 + dim + dim^2) matrix.
    """

    def __init__(self, model: OscillatorModel):
        self.dim = n = model.dim
        self.mass = float(model.mass)
        self.omega = np.array([float(w) for w in model.omega])
        self.omega_min = float(model.omega_min)
        V = model.potential_series(max(2, model.anharmonic.trunc))
        grad = V.gradient()
        parts = [V, *grad,
                 *(g.partial_derivative(j) for g in grad for j in range(n))]
        exps = sorted({k for p in parts for k, _ in p.items()})
        row = {k: t for t, k in enumerate(exps)}
        self._coeffs = np.zeros((len(exps), len(parts)))
        for col, p in enumerate(parts):
            for k, c in p.items():
                self._coeffs[row[k], col] = float(c)
        self._exps = np.array(exps, dtype=np.intp).reshape(len(exps), n)
        self._top = int(self._exps.max())  # at least 2: V holds the x_i^2

    def jet(self, pts: np.ndarray):
        """(V, grad V, Hess V) at the rows of pts (M, dim): shapes (M,),
        (M, dim) and (M, dim, dim)."""
        m, n = pts.shape
        ladder = np.empty((self._top + 1, m, n))  # ladder[e] = pts**e
        ladder[0] = 1.0
        ladder[1] = pts
        for e in range(2, self._top + 1):
            np.multiply(ladder[e - 1], pts, out=ladder[e])
        mono = ladder[self._exps[:, 0], :, 0]
        for i in range(1, n):
            mono *= ladder[self._exps[:, i], :, i]
        out = mono.T @ self._coeffs
        return out[:, 0], out[:, 1:n + 1], out[:, n + 1:].reshape(m, n, n)

    def potential(self, pts: np.ndarray) -> np.ndarray:
        return self.jet(pts)[0]


# -- grids -------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters: time horizon and node count."""
    horizon: float | None = None  # default 40 / omega_min
    nodes: int = 400

    def __post_init__(self):
        # nodes counts intervals; the 5-point velocity stencils need 5 points
        if self.nodes < 4:
            raise ModelFormatError(f"grid needs nodes >= 4, got {self.nodes}")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ModelFormatError(
                f"grid horizon must be finite and positive, got {self.horizon}")

    def resolve_horizon(self, omega_min: float) -> float:
        return self.horizon if self.horizon is not None else 40.0 / omega_min


def graded_times(omega_min: float, horizon: float, nodes: int) -> np.ndarray:
    """nodes+1 times from -horizon to 0, uniform in tau = exp(omega_min t)."""
    tau0 = math.exp(-omega_min * horizon)
    if tau0 == 0.0:
        raise ModelFormatError(
            f"grid horizon {horizon} is too long: exp(-omega_min * horizon) "
            f"underflows to 0 (omega_min * horizon must stay below about 745)")
    tau = np.linspace(tau0, 1.0, nodes + 1)
    return np.log(tau) / omega_min


@dataclass
class CurveGrid:
    """Discretized curve: times (t_0 = -T ... t_N = 0) and points in R^n."""
    times: np.ndarray
    points: np.ndarray  # (N+1, dim); points[0] = origin, points[-1] = target


@dataclass
class VariationalResult:
    curve: CurveGrid
    action: float
    momentum: np.ndarray
    ip_energy_drift: float
    hj_residual: float
    converged: bool
    iterations: int

    def to_json(self) -> dict:
        return {
            "action": self.action,
            "momentum": [float(p) for p in self.momentum],
            "ip_energy_drift": self.ip_energy_drift,
            "hj_residual": self.hj_residual,
            "converged": self.converged,
            "iterations": self.iterations,
            "nodes": int(self.curve.points.shape[0] - 1),
            "horizon": float(-self.curve.times[0]),
        }


# -- hypothesis checks --------------------------------------------------------

@dataclass
class HypothesisReport:
    coercivity_ok: bool
    coercivity_margin: float
    coercivity_worst_point: list
    convexity_ok: bool
    min_hessian_eigenvalue: float
    convexity_worst_point: list
    lambdas: list

    def to_json(self) -> dict:
        return {
            "coercivity_ok": self.coercivity_ok,
            "coercivity_margin": self.coercivity_margin,
            "coercivity_worst_point": self.coercivity_worst_point,
            "convexity_ok": self.convexity_ok,
            "min_hessian_eigenvalue": self.min_hessian_eigenvalue,
            "convexity_worst_point": self.convexity_worst_point,
            "lambdas": self.lambdas,
        }


_LAMBDA_FRACTION = 0.99  # coercivity is tested with lambda_i = 0.99 omega_i
_HYPOTHESIS_GRID = 15  # sample points per axis of the box


def check_hypotheses(model: OscillatorModel, sample_box=None) -> HypothesisReport:
    """Sampled coercivity (A >= -(1/2) m sum lambda_i^2 x_i^2 with
    lambda_i < omega_i) and convexity (Hessian of V positive semidefinite)
    checks.  Report only: sampling is evidence, not proof."""
    ev = _ModelEval(model)
    if sample_box is None:
        sample_box = [(-2.0, 2.0)] * model.dim
    lambdas = _LAMBDA_FRACTION * ev.omega
    axes = [np.linspace(lo, hi, _HYPOTHESIS_GRID) for lo, hi in sample_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    v, _, hess = ev.jet(pts)
    # A + (1/2) m sum lambda_i^2 x_i^2, read off V
    margin = v - 0.5 * ev.mass * ((ev.omega ** 2 - lambdas ** 2)
                                  * pts ** 2).sum(axis=1)
    worst = int(np.argmin(margin))
    eigs = np.linalg.eigvalsh(hess)
    min_eig = eigs[:, 0]
    worst_eig = int(np.argmin(min_eig))
    tol = 1e-12
    return HypothesisReport(
        coercivity_ok=bool(margin[worst] >= -tol),
        coercivity_margin=float(margin[worst]),
        coercivity_worst_point=[float(v) for v in pts[worst]],
        convexity_ok=bool(min_eig[worst_eig] >= -tol),
        min_hessian_eigenvalue=float(min_eig[worst_eig]),
        convexity_worst_point=[float(v) for v in pts[worst_eig]],
        lambdas=[float(v) for v in lambdas],
    )


# -- discrete action and Newton minimization ---------------------------------

def _action_and_gradient(ev: _ModelEval, times, pts):
    dt = np.diff(times)
    dp = np.diff(pts, axis=0)
    kinetic = 0.5 * ev.mass * ((dp ** 2).sum(axis=1) / dt).sum()
    v, grad_v, _ = ev.jet(pts)
    potential = (0.5 * dt * (v[:-1] + v[1:])).sum()
    weights = np.zeros(len(times))
    weights[:-1] += 0.5 * dt
    weights[1:] += 0.5 * dt
    grad = weights[:, None] * grad_v
    vel = dp / dt[:, None]
    grad[:-1] -= ev.mass * vel
    grad[1:] += ev.mass * vel
    return kinetic + potential, grad


def _newton_step_matrix(ev: _ModelEval, times, pts):
    """Hessian of the discrete action at the interior nodes, in the upper
    banded storage of ``solveh_banded``: row n - u holds superdiagonal u.

    The diagonal blocks fill rows 1..n; the off-diagonal blocks are
    -m/dt times the identity, i.e. superdiagonal n, which is row 0.
    """
    n = ev.dim
    dt = np.diff(times)
    inner = pts.shape[0] - 2
    weights = 0.5 * (dt[:-1] + dt[1:])
    blocks = ev.jet(pts[1:-1])[2] * weights[:, None, None]
    blocks += (ev.mass * (1.0 / dt[:-1] + 1.0 / dt[1:]))[:, None, None] * np.eye(n)
    band = np.zeros((n + 1, inner * n))
    for u in range(n):
        i = np.arange(n - u)
        band[n - u].reshape(inner, n)[:, u:] = blocks[:, i, i + u]
    band[0].reshape(inner, n)[1:] = (-ev.mass / dt[1:-1])[:, None]
    return band


def _minimize_on_grid(ev: _ModelEval, times, pts0, tol, max_iter=60):
    pts = pts0.copy()
    action, grad = _action_and_gradient(ev, times, pts)
    iterations = 0
    for _ in range(max_iter):
        g_inner = grad[1:-1].ravel()
        gnorm = np.linalg.norm(g_inner)
        # an infinite action passes any relative stopping test
        if not (math.isfinite(action) and math.isfinite(gnorm)):
            raise NoConvergence(
                f"discrete action or gradient is not finite (action {action}, "
                f"gradient norm {gnorm})", iterations=iterations)
        if gnorm <= tol * (1.0 + abs(action)):
            return pts, action, True, iterations
        band = _newton_step_matrix(ev, times, pts)
        try:
            step = solveh_banded(band, -g_inner, check_finite=False)
        except LinAlgError as exc:
            raise HypothesisViolation(
                f"discrete Hessian is not positive definite (non-convex "
                f"potential along the path?): {exc}") from exc
        if not np.all(np.isfinite(step)) or float(step @ g_inner) >= 0.0:
            raise HypothesisViolation(
                "Newton direction is not a descent direction; the sampled "
                "convexity hypothesis likely fails along the path")
        # backtracking line search (full steps accepted near the minimum)
        alpha = 1.0
        for _ls in range(40):
            trial = pts.copy()
            trial[1:-1] += alpha * step.reshape(pts.shape[0] - 2, ev.dim)
            new_action, new_grad = _action_and_gradient(ev, times, trial)
            slack = 1e-14 * (1.0 + abs(action))  # rounding floor near optimum
            if new_action <= action + 1e-4 * alpha * float(step @ g_inner) + slack:
                pts, action, grad = trial, new_action, new_grad
                break
            alpha *= 0.5
        else:
            raise NoConvergence(
                "line search failed to reduce the discrete action",
                gradient_norm=float(gnorm))
        iterations += 1
    return pts, action, False, iterations


def _stencil_weights(ts: np.ndarray, t0) -> np.ndarray:
    """First-derivative weights at t0 for nodes ts (Vandermonde), batched
    over the leading axes of ts (..., k) and t0 (...)."""
    d = ts - np.asarray(t0)[..., None]
    k = ts.shape[-1]
    mat = d[..., None, :] ** np.arange(k)[:, None]  # mat[..., i, j] = d_j^i
    rhs = np.zeros(k)
    rhs[1] = 1.0
    return np.linalg.solve(mat, rhs)


_STENCIL = 5  # nodes per velocity stencil


def _node_velocities(times: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Velocity estimates at every node from local polynomial stencils,
    clipped to lie inside the grid at both ends."""
    n_nodes = len(times)
    lo = np.clip(np.arange(n_nodes) - _STENCIL // 2, 0, n_nodes - _STENCIL)
    window = lo[:, None] + np.arange(_STENCIL)
    weights = _stencil_weights(times[window], times)
    return np.einsum("ij,ijk->ik", weights, pts[window])


def initial_guess(ev: _ModelEval, times: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linearized minimizer gamma_0x(t) = (x_i e^(omega_i t))_i."""
    return x[None, :] * np.exp(times[:, None] * ev.omega[None, :])


def minimize_action(model: OscillatorModel, x, grid: GridSpec | None = None,
                    tol: float = 1e-10, refine: bool = True) -> VariationalResult:
    """Minimize the discretized inverted-potential action to the target x."""
    ev = _ModelEval(model)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (ev.dim,):
        raise GradientProviderFailure(
            f"target point has shape {x.shape}, expected ({ev.dim},)")
    grid = grid or GridSpec()
    horizon = grid.resolve_horizon(ev.omega_min)
    times = graded_times(ev.omega_min, horizon, grid.nodes)
    pts0 = initial_guess(ev, times, x)
    pts0[0] = 0.0
    pts, action, converged, iters = _minimize_on_grid(ev, times, pts0, tol)
    if not converged:
        raise NoConvergence(
            f"Newton iteration cap reached at {iters} iterations",
            iterations=iters)
    if refine:
        fine_times = graded_times(ev.omega_min, horizon, 2 * grid.nodes)
        fine0 = np.empty((len(fine_times), ev.dim))
        for i in range(ev.dim):
            fine0[:, i] = np.interp(fine_times, times, pts[:, i])
        fine0[0] = 0.0
        fine0[-1] = x
        fine_pts, fine_action, converged, it2 = _minimize_on_grid(
            ev, fine_times, fine0, tol)
        iters += it2
        if not converged:
            raise NoConvergence(
                f"Newton iteration cap reached on the refined grid at "
                f"{it2} iterations", iterations=it2)
        # both the action value and the node positions converge at O(h^2),
        # and the coarse nodes are exactly every other fine node (the grids
        # are uniform in tau), so Richardson-extrapolate both
        action = (4.0 * fine_action - action) / 3.0
        pts = (4.0 * fine_pts[::2] - pts) / 3.0
        pts[0] = 0.0
        pts[-1] = x
    vel = _node_velocities(times, pts)
    momentum = ev.mass * (_stencil_weights(times[-_STENCIL:], times[-1])
                          @ pts[-_STENCIL:])
    # the first graded interval spans most of the horizon (the curve is
    # pinned at the origin there, standing in for t -> -inf), so velocity
    # stencils that straddle node 0 are meaningless; skip those nodes
    skip = _STENCIL // 2 + 1
    v = ev.potential(pts[skip:])  # the last node is x
    energy = 0.5 * ev.mass * (vel[skip:] ** 2).sum(axis=1) - v
    drift = float(np.abs(energy).max())
    hj = abs(float((momentum ** 2).sum()) / (2.0 * ev.mass) - float(v[-1]))
    return VariationalResult(
        curve=CurveGrid(times=times, points=pts),
        action=float(action), momentum=momentum,
        ip_energy_drift=drift, hj_residual=hj,
        converged=converged, iterations=iters)


# -- momentum field provider ---------------------------------------------------

class MomentumProvider:
    """grad S_0 and its Hessian, one action minimization per call.

    ``momentum(x)`` returns the terminal momentum m gamma'(0) = grad S_0(x);
    ``hessian(x)`` differentiates it exactly in x.
    """

    def __init__(self, model: OscillatorModel, grid: GridSpec | None = None):
        self.model = model
        self.grid = grid or GridSpec(nodes=200)
        self.dim = model.dim
        self._ev = _ModelEval(model)

    def _minimize(self, x) -> VariationalResult:
        try:
            return minimize_action(self.model, x, self.grid, refine=False)
        except (NoConvergence, HypothesisViolation) as exc:
            raise GradientProviderFailure(
                f"gradient sample failed at {np.ravel(x).tolist()}: {exc}") from exc

    def momentum(self, x) -> np.ndarray:
        return self._minimize(x).momentum

    # semi-flow integrators expect a gradient callable
    gradient = momentum

    def hessian(self, x) -> np.ndarray:
        """Hess S_0(x) as the x-derivative of the discrete momentum.

        At the minimizer the interior gradient g(P, x) vanishes, and only
        node N-1 couples to the endpoint x, with dg/dx = -(m/dt_{N-1}) I.
        So dP/dx = H^-1 (m/dt_{N-1}) E_{N-1}, with H the banded Newton
        matrix, and the momentum stencil differentiates node by node
        (dP_N/dx = I, dP_0/dx = 0).
        """
        result = self._minimize(x)
        times, pts = result.curve.times, result.curve.points
        n, mass = self.dim, self._ev.mass
        rhs = np.zeros(((len(times) - 2) * n, n))
        rhs[-n:] = mass / (times[-1] - times[-2]) * np.eye(n)
        jac = np.zeros((len(times), n, n))  # jac[i] = dP_i / dx
        jac[1:-1] = solveh_banded(_newton_step_matrix(self._ev, times, pts), rhs,
                                  check_finite=False).reshape(-1, n, n)
        jac[-1] = np.eye(n)
        # the momentum stencil of minimize_action
        weights = _stencil_weights(times[-_STENCIL:], times[-1])
        out = mass * np.einsum("i,ijk->jk", weights, jac[-_STENCIL:])
        return 0.5 * (out + out.T)


# -- gradient semi-flow ---------------------------------------------------------

@dataclass
class FlowTrajectory:
    times: np.ndarray
    points: np.ndarray  # (len(times), dim)
    deviation_from_minimizer: float | None = None
    escape_time: float | None = None  # forward blow-up time, if detected

    def to_json(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "points": [[float(v) for v in row] for row in self.points],
            "deviation_from_minimizer": self.deviation_from_minimizer,
            "escape_time": self.escape_time,
        }


_FLOW_RTOL, _FLOW_ATOL = 1e-8, 1e-10


def semi_flow(model: OscillatorModel, x, provider, t_span: float | None = None,
              compare_curve: CurveGrid | None = None,
              forward: bool = False, escape_radius: float = 1e3) -> FlowTrajectory:
    """Integrate m gamma' = grad S_0(gamma) from gamma(0) = x.

    Backward integration (the default) relaxes to the origin and must retrace
    the variational minimizer.  Forward integration generically escapes to
    infinity in finite time; this is detected via ``escape_radius`` and
    reported in ``escape_time`` rather than treated as an error.
    """
    mass = float(model.mass)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    horizon = t_span if t_span is not None else 10.0 / float(model.omega_min)

    def rhs(_t, y):
        try:
            return np.asarray(provider.gradient(y), dtype=float) / mass
        except GradientProviderFailure:
            raise
        except Exception as exc:
            raise GradientProviderFailure(
                f"gradient provider failed at {y.tolist()}: {exc}") from exc

    events = None
    if forward:
        def escaped(_t, y):
            return float(np.linalg.norm(y)) - escape_radius
        escaped.terminal = True
        escaped.direction = 1.0
        events = escaped
    span = (0.0, horizon) if forward else (0.0, -horizon)
    sol = solve_ivp(rhs, span, x, method="RK45",
                    rtol=_FLOW_RTOL, atol=_FLOW_ATOL, dense_output=True,
                    events=events)
    escape_time = None
    if forward and sol.t_events and len(sol.t_events[0]):
        escape_time = float(sol.t_events[0][0])
    elif not sol.success:
        raise GradientProviderFailure(
            f"flow integration failed: {sol.message}")
    order = np.argsort(sol.t)
    times = sol.t[order]
    points = sol.y.T[order]
    deviation = None
    if compare_curve is not None:
        # the minimizer's first graded interval is unresolved by design
        # (it stands in for the infinite tail), so compare beyond it
        mask = times >= compare_curve.times[1]
        dev = 0.0
        for i in range(model.dim):
            interp = np.interp(times[mask], compare_curve.times,
                               compare_curve.points[:, i])
            dev = max(dev, float(np.abs(interp - points[mask][:, i]).max()))
        deviation = dev
    return FlowTrajectory(times=times, points=points,
                          deviation_from_minimizer=deviation,
                          escape_time=escape_time)


def decay_bound_satisfied(traj: FlowTrajectory, omega_min: float,
                          epsilon: float) -> bool:
    """Check |gamma(t)| <= |gamma(0)| exp((omega_min - epsilon) t) for t <= 0."""
    radius = np.linalg.norm(traj.points, axis=1)
    r0 = radius[-1]  # t = 0 is the last entry
    bound = r0 * np.exp((omega_min - epsilon) * traj.times)
    return bool(np.all(radius <= bound * (1.0 + 1e-9) + 1e-12))


# -- numerical first transport integral ----------------------------------------

def numeric_s1(model: OscillatorModel, x, provider: MomentumProvider | None = None,
               grid: GridSpec | None = None) -> float:
    """S_1(x) from the transport integral along the minimizing curve.

    The half-line integral is compactified with tau = exp(omega_min t),
    dt = d tau / (omega_min tau); the transformed integrand extends by 0 to
    tau = 0 because trace Hess S_0 - m sum omega_j vanishes quadratically at
    the origin.  The curve nodes are uniform in tau, so a strided subsample
    of about 80 intervals feeds a composite Simpson rule directly.
    """
    mass, omega_min = float(model.mass), float(model.omega_min)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if float(np.linalg.norm(x)) == 0.0:
        return 0.0
    provider = provider or MomentumProvider(model, grid=GridSpec(nodes=400))
    result = minimize_action(model, x, grid or GridSpec(), refine=False)
    times = result.curve.times
    n_nodes = len(times) - 1
    idx = np.r_[0:n_nodes:max(1, n_nodes // 80), n_nodes]
    tau = np.exp(omega_min * times[idx])
    values = np.zeros(len(idx))  # at the pinned origin the limit is exactly 0
    for j in range(1, len(idx)):
        hess = provider.hessian(result.curve.points[idx[j]])
        f = np.trace(hess) / (2.0 * mass) - 0.5 * float(sum(model.omega))
        values[j] = f / (omega_min * tau[j])
    return float(simpson(values, x=tau))
