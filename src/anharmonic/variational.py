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

Accuracy: the trapezoidal/piecewise-linear error is O(h^2) in the node
spacing, so by default the solver re-minimizes on a doubled grid and
Richardson-extrapolates the action value; momentum (m gamma'(0)) and
node velocities use one-sided/centered 5-point stencils on the graded grid.

Also here: sampled coercivity/convexity hypothesis checks, the gradient
semi-flow integrator (which must retrace the minimizer curve), and the
numerical first transport integral
    S_1(x) = int_{-inf}^{0} [ (lap S_0)/(2m) - sum_j omega_j / 2 ](gamma(t)) dt
with the Hessian of S_0 obtained from Richardson-extrapolated finite
differences of the momentum field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import LinAlgError, solveh_banded

from .errors import (
    GradientProviderFailure,
    HypothesisViolation,
    ModelFormatError,
    NoConvergence,
)
from .model import OscillatorModel


# -- vectorized polynomial evaluation ---------------------------------------

class _PolyEval:
    """Dense-exponent representation of a polynomial for numpy evaluation."""

    def __init__(self, series, dim: int):
        terms = list(series.items())
        self.dim = dim
        if terms:
            self.exps = np.array([k for k, _ in terms], dtype=np.int64)
            self.coeffs = np.array([float(c) for _, c in terms])
        else:
            self.exps = np.zeros((0, dim), dtype=np.int64)
            self.coeffs = np.zeros(0)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """points: (M, dim) -> values (M,)."""
        if self.coeffs.size == 0:
            return np.zeros(points.shape[0])
        powers = points[:, None, :] ** self.exps[None, :, :]
        return powers.prod(axis=2) @ self.coeffs


class _ModelEval:
    """V, grad V and Hessian of V as vectorized double-precision callables."""

    def __init__(self, model: OscillatorModel):
        self.model = model
        self.dim = model.dim
        self.mass = float(model.mass)
        self.omega = np.array([float(w) for w in model.omega])
        self.omega_min = float(min(model.omega))
        A = model.anharmonic
        self._a = _PolyEval(A, self.dim)
        self._da = [_PolyEval(A.partial_derivative(i), self.dim)
                    for i in range(self.dim)]
        self._dda = [[_PolyEval(A.partial_derivative(i).partial_derivative(j),
                                self.dim)
                      for j in range(self.dim)] for i in range(self.dim)]

    def anharmonic(self, pts: np.ndarray) -> np.ndarray:
        return self._a(pts)

    def potential(self, pts: np.ndarray) -> np.ndarray:
        quad = 0.5 * self.mass * (pts ** 2 * self.omega[None, :] ** 2).sum(axis=1)
        return quad + self._a(pts)

    def potential_gradient(self, pts: np.ndarray) -> np.ndarray:
        grad = self.mass * self.omega[None, :] ** 2 * pts
        for i in range(self.dim):
            grad[:, i] += self._da[i](pts)
        return grad

    def potential_hessian(self, pts: np.ndarray) -> np.ndarray:
        """(M, dim, dim) Hessian of V at each point."""
        m = pts.shape[0]
        hess = np.zeros((m, self.dim, self.dim))
        for i in range(self.dim):
            hess[:, i, i] = self.mass * self.omega[i] ** 2
            for j in range(self.dim):
                hess[:, i, j] += self._dda[i][j](pts)
        return hess


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


def check_hypotheses(model: OscillatorModel, sample_box=None,
                     lambda_candidates=None, grid_points: int = 15) -> HypothesisReport:
    """Sampled coercivity (A >= -(1/2) m sum lambda_i^2 x_i^2 with
    lambda_i < omega_i) and convexity (Hessian of V positive semidefinite)
    checks.  Report only: sampling is evidence, not proof."""
    ev = _ModelEval(model)
    n = model.dim
    if sample_box is None:
        sample_box = [(-2.0, 2.0)] * n
    if lambda_candidates is None:
        lambda_candidates = [0.99 * float(w) for w in model.omega]
    lambdas = np.array([float(v) for v in lambda_candidates])
    axes = [np.linspace(lo, hi, grid_points) for lo, hi in sample_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    bound = -0.5 * ev.mass * (lambdas[None, :] ** 2 * pts ** 2).sum(axis=1)
    margin = ev.anharmonic(pts) - bound
    worst = int(np.argmin(margin))
    hess = ev.potential_hessian(pts)
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
    v = ev.potential(pts)
    potential = (0.5 * dt * (v[:-1] + v[1:])).sum()
    grad_v = ev.potential_gradient(pts)
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
    blocks = ev.potential_hessian(pts[1:-1]) * weights[:, None, None]
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


def _node_velocities(times: np.ndarray, pts: np.ndarray, width: int = 5) -> np.ndarray:
    """Velocity estimates at every node from local polynomial stencils,
    clipped to lie inside the grid at both ends."""
    n_nodes = len(times)
    lo = np.clip(np.arange(n_nodes) - width // 2, 0, n_nodes - width)
    window = lo[:, None] + np.arange(width)
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
    width = 5
    vel = _node_velocities(times, pts, width)
    momentum = ev.mass * (_stencil_weights(times[-width:], times[-1])
                          @ pts[-width:])
    # the first graded interval spans most of the horizon (the curve is
    # pinned at the origin there, standing in for t -> -inf), so velocity
    # stencils that straddle node 0 are meaningless; skip those nodes
    skip = width // 2 + 1
    energy = (0.5 * ev.mass * (vel[skip:] ** 2).sum(axis=1)
              - ev.potential(pts[skip:]))
    drift = float(np.abs(energy).max())
    hj = abs(float((momentum ** 2).sum()) / (2.0 * ev.mass)
             - float(ev.potential(x[None, :])[0]))
    return VariationalResult(
        curve=CurveGrid(times=times, points=pts),
        action=float(action), momentum=momentum,
        ip_energy_drift=drift, hj_residual=hj,
        converged=converged, iterations=iters)


# -- momentum field provider ---------------------------------------------------

class MomentumProvider:
    """Caching grad S_0 sampler built on repeated action minimizations.

    ``momentum(x)`` returns the terminal momentum m gamma'(0) = grad S_0(x);
    ``hessian(x)`` applies Richardson-extrapolated central differences to it.
    Cache reads/inserts are plain dict operations (atomic under the GIL), so
    concurrent readers are safe.
    """

    def __init__(self, model: OscillatorModel, grid: GridSpec | None = None,
                 tol: float = 1e-10, refine: bool = False):
        self.model = model
        self.grid = grid or GridSpec(nodes=200)
        self.tol = tol
        self.refine = refine
        self._cache: dict = {}
        self.dim = model.dim

    def momentum(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        key = tuple(np.round(x, 12))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        try:
            result = minimize_action(self.model, x, self.grid, self.tol,
                                     refine=self.refine)
        except (NoConvergence, HypothesisViolation) as exc:
            raise GradientProviderFailure(
                f"gradient sample failed at {x.tolist()}: {exc}") from exc
        self._cache[key] = result.momentum
        return result.momentum

    # semi-flow integrators expect a gradient callable
    gradient = momentum

    def hessian(self, x, step: float = 1e-4) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((self.dim, self.dim))
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            coarse = (self.momentum(x + step * e)
                      - self.momentum(x - step * e)) / (2.0 * step)
            h2 = step / 2.0
            fine = (self.momentum(x + h2 * e)
                    - self.momentum(x - h2 * e)) / (2.0 * h2)
            out[:, i] = (4.0 * fine - coarse) / 3.0
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


def semi_flow(model: OscillatorModel, x, provider, t_span: float | None = None,
              rtol: float = 1e-8, atol: float = 1e-10,
              compare_curve: CurveGrid | None = None,
              forward: bool = False, escape_radius: float = 1e3) -> FlowTrajectory:
    """Integrate m gamma' = grad S_0(gamma) from gamma(0) = x.

    Backward integration (the default) relaxes to the origin and must retrace
    the variational minimizer.  Forward integration generically escapes to
    infinity in finite time; this is detected via ``escape_radius`` and
    reported in ``escape_time`` rather than treated as an error.
    """
    ev = _ModelEval(model)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    horizon = t_span if t_span is not None else 10.0 / ev.omega_min

    def rhs(_t, y):
        try:
            return np.asarray(provider.gradient(y), dtype=float) / ev.mass
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
                    rtol=rtol, atol=atol, dense_output=True, events=events)
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
        for i in range(ev.dim):
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
               grid: GridSpec | None = None, samples: int = 80,
               cutoff: float = 1e-12) -> float:
    """S_1(x) from the transport integral along the minimizing curve.

    The half-line integral is compactified with tau = exp(omega_min t),
    dt = d tau / (omega_min tau); the transformed integrand extends by 0 to
    tau = 0 because trace Hess S_0 - m sum omega_j vanishes quadratically at
    the origin.  The curve nodes are uniform in tau, so a strided subsample
    feeds a composite Simpson rule directly.
    """
    from scipy.integrate import simpson

    ev = _ModelEval(model)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if float(np.linalg.norm(x)) == 0.0:
        return 0.0
    provider = provider or MomentumProvider(model, grid=GridSpec(nodes=400))
    grid = grid or GridSpec()
    result = minimize_action(model, x, grid, refine=False)
    times = result.curve.times
    pts = result.curve.points
    n_nodes = len(times) - 1
    stride = max(1, n_nodes // samples)
    idx = list(range(0, n_nodes + 1, stride))
    if idx[-1] != n_nodes:
        idx.append(n_nodes)
    if len(idx) % 2 == 0:  # Simpson wants an odd node count
        idx.insert(-1, n_nodes - stride // 2 if stride > 1 else n_nodes - 1)
        idx = sorted(set(idx))
        if len(idx) % 2 == 0:
            idx = idx[:-2] + [idx[-1]]
    half_trace_ref = 0.5 * ev.omega.sum()
    tau = np.exp(ev.omega_min * times[idx])
    values = np.zeros(len(idx))
    for j, i in enumerate(idx):
        if i == 0:  # pinned origin: integrand limit is exactly 0
            continue
        f = np.trace(provider.hessian(pts[i])) / (2.0 * ev.mass) - half_trace_ref
        if abs(f) >= cutoff:
            values[j] = f / (ev.omega_min * tau[j])
    return float(simpson(values, x=tau))
