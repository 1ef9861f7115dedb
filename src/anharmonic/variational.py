"""Direct variational construction of the leading action S_0(x).

S_0(x) is the minimum of the inverted-potential action

    I[gamma] = int_{-inf}^{0} [ (1/2) m |gamma'|^2 + V(gamma) ] dt

over curves that leave the origin at t = -inf and reach x at t = 0.  With
q the lcm of the denominators of omega_i / omega_min and c = omega_min / q,
the substitution s = exp(c t) maps the half-line onto s in (0, 1], turns
each linear mode exp(omega_i t) into the integer power s^(q omega_i /
omega_min), and leaves a minimizer analytic in s.  In s the action reads

    I[gamma] = int_0^1 [ (1/2) m c s |gamma_s|^2 + V(gamma) / (c s) ] ds.

Discretization: gamma is the degree-N polynomial through its values at the
N + 1 Chebyshev-Lobatto nodes of [0, 1], pinned to 0 at s = 0 and to x at
s = 1, and the integral is taken at 2N Gauss-Legendre points (quadrature
at the collocation nodes would alias, and the discrete minimum would fall
below S_0).  The discrete problem is smooth and (for convex V) strictly
convex, so a damped Newton iteration with one dense Cholesky solve per
step converges to machine precision deterministically.  V, grad V and
Hess V come together from one jet: the monomials of the exact series of V
and of its first and second derivatives are evaluated once per point set
(powers by repeated multiplication) and combined by one matrix product.

The momentum grad S_0(x) is the endpoint entry of the discrete action
gradient, dI/dgamma(1), and its x-derivative Hess S_0(x) is the Schur
complement of the interior block in the discrete action Hessian.  Also
here: sampled coercivity/convexity hypothesis checks, the gradient
semi-flow integrator (which must retrace the minimizer curve), and the
numerical first transport integral

    S_1(x) = int_{-inf}^{0} [ (lap S_0)/(2m) - sum_j omega_j / 2 ](gamma(t)) dt,

taken at the same Gauss-Legendre points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import (
    DomainExceeded,
    GradientProviderFailure,
    HypothesisViolation,
    ModelFormatError,
    NoConvergence,
)
from .model import OscillatorModel


NODES = 24  # default polynomial degree N of the curve
_MAX_NODES = 256  # dense matrices grow as (N dim)^2
_TAIL_TOL = 1e-6  # largest of the last two Chebyshev coefficients, relative
_TOL = 1e-10  # Newton stops at |interior gradient| <= _TOL (1 + |action|)


def _time_scale(model: OscillatorModel):
    """c = omega_min / q and the integer exponents q omega_i / omega_min,
    so that exp(omega_i t) = s^(exponent_i) for s = exp(c t)."""
    ratios = [w / model.omega_min for w in model.omega]
    q = math.lcm(*(r.denominator for r in ratios))
    return float(model.omega_min / q), np.array([int(r * q) for r in ratios])


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
        self.rate, self.powers = _time_scale(model)
        V = model.potential_series(max(2, model.anharmonic.trunc))
        grad = V.gradient()
        parts = [V, *grad,
                 *(g.partial_derivative(j) for g in grad for j in range(n))]
        terms = [dict(p.items()) for p in parts]
        exps = sorted({k for t in terms for k in t})
        row = {k: t for t, k in enumerate(exps)}
        self._coeffs = np.zeros((len(exps), len(parts)))
        for col, t in enumerate(terms):
            for k, c in t.items():
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


# -- the spectral discretization ----------------------------------------------

class _Spectral(NamedTuple):
    """Degree-N matrices on s in [0, 1].  The node at s = 0 is pinned to
    the origin, so every matrix acting on curve values takes the values at
    nodes 1..N only."""
    nodes: np.ndarray  # (N+1,) Chebyshev-Lobatto nodes, ascending
    diff: np.ndarray  # (N+1, N) d/ds at the nodes
    gauss: np.ndarray  # (2N,) Gauss-Legendre points
    weights: np.ndarray  # (2N,) their weights
    interp: np.ndarray  # P (2N, N): values at the Gauss points
    slope: np.ndarray  # Q = P D (2N, N): d/ds at the Gauss points
    stiff: np.ndarray  # Q^T diag(w s) Q (N, N)
    cheb: np.ndarray  # (N+1, N+1): values at all nodes -> Chebyshev coefficients


@functools.cache
def _spectral(nodes: int) -> _Spectral:
    """The degree-``nodes`` matrices, built once per degree and shared
    read-only by every caller."""
    if not 4 <= nodes <= _MAX_NODES:
        raise ModelFormatError(
            f"nodes (the degree of the curve) must lie in [4, {_MAX_NODES}], "
            f"got {nodes}")
    j = np.arange(nodes + 1)
    s = 0.5 * (1.0 - np.cos(np.pi * j / nodes))
    bary = (-1.0) ** j  # barycentric weights of the Lobatto nodes
    bary[[0, -1]] *= 0.5
    gap = s[:, None] - s[None, :]
    np.fill_diagonal(gap, 1.0)
    diff = bary[None, :] / bary[:, None] / gap
    np.fill_diagonal(diff, 0.0)
    diff[j, j] = -diff.sum(axis=1)
    x, w = np.polynomial.legendre.leggauss(2 * nodes)
    gauss, weights = 0.5 * (x + 1.0), 0.5 * w
    interp = bary / (gauss[:, None] - s[None, :])
    interp /= interp.sum(axis=1, keepdims=True)
    slope = interp @ diff
    cheb = np.linalg.inv(np.polynomial.chebyshev.chebvander(2.0 * s - 1.0, nodes))
    spec = _Spectral(
        nodes=s, diff=diff[:, 1:], gauss=gauss, weights=weights,
        interp=interp[:, 1:], slope=slope[:, 1:],
        stiff=slope[:, 1:].T @ ((weights * gauss)[:, None] * slope[:, 1:]),
        cheb=cheb)
    for matrix in spec:
        matrix.flags.writeable = False
    return spec


@dataclass
class CurveGrid:
    """Discretized curve: node times (t_0 = -inf ... t_N = 0) and points."""
    times: np.ndarray
    points: np.ndarray  # (N+1, dim); points[0] = origin, points[-1] = target


@dataclass
class VariationalResult:
    curve: CurveGrid
    action: float
    momentum: np.ndarray
    ip_energy_drift: float
    hj_residual: float
    iterations: int

    def to_json(self) -> dict:
        return {
            "action": self.action,
            "momentum": [float(p) for p in self.momentum],
            "ip_energy_drift": self.ip_energy_drift,
            "hj_residual": self.hj_residual,
            "converged": True,  # every failure raises
            "iterations": self.iterations,
            "nodes": int(self.curve.points.shape[0] - 1),
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
        return asdict(self)


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
    with np.errstate(over="ignore", invalid="ignore"):
        v, _, hess = ev.jet(pts)
        # A + (1/2) m sum lambda_i^2 x_i^2, read off V
        margin = v - 0.5 * ev.mass * ((ev.omega ** 2 - lambdas ** 2)
                                      * pts ** 2).sum(axis=1)
    if not (np.isfinite(margin).all() and np.isfinite(hess).all()):
        raise DomainExceeded("V or its Hessian overflows a double in the sample box")
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

def _action_and_gradient(ev: _ModelEval, spec: _Spectral, free: np.ndarray):
    """Discrete action, its gradient (N, dim) in the curve values at nodes
    1..N (``free``), and Hess V at the Gauss points for ``_action_hessian``."""
    pts = spec.interp @ free
    vel = spec.slope @ free
    v, grad_v, hess_v = ev.jet(pts)
    kinetic = ev.mass * ev.rate * spec.weights * spec.gauss
    potential = spec.weights / (ev.rate * spec.gauss)
    action = 0.5 * kinetic @ (vel ** 2).sum(axis=1) + potential @ v
    grad = (spec.slope.T @ (kinetic[:, None] * vel)
            + spec.interp.T @ (potential[:, None] * grad_v))
    return float(action), grad, hess_v


def _action_hessian(ev: _ModelEval, spec: _Spectral, hess_v: np.ndarray):
    """Hessian (N dim, N dim) of the discrete action in the values at nodes
    1..N: kron(Q^T diag(w m c s) Q, I) + P^T blockdiag(w Hess V / (c s)) P."""
    n, nodes = ev.dim, spec.interp.shape[1]
    blocks = hess_v * (spec.weights / (ev.rate * spec.gauss))[:, None, None]
    # one batched product: pot[i, l] = P^T diag(blocks[:, i, l]) P
    pot = (spec.interp.T * blocks.transpose(1, 2, 0)[:, :, None, :]) @ spec.interp
    diag = np.arange(n)
    pot[diag, diag] += ev.mass * ev.rate * spec.stiff
    return pot.transpose(2, 0, 3, 1).reshape(nodes * n, nodes * n)


def _newton(ev: _ModelEval, spec: _Spectral, free: np.ndarray, tol: float,
            max_iter: int = 60):
    """Damped Newton on the interior values; the last row of ``free`` is
    the fixed endpoint.  Returns the minimizer, its action, gradient and
    Hess V at the Gauss points, and the iteration count."""
    n = ev.dim
    action, grad, hess_v = _action_and_gradient(ev, spec, free)
    for iterations in range(max_iter + 1):
        g_inner = grad[:-1].ravel()
        gnorm = np.linalg.norm(g_inner)
        # an infinite action passes any relative stopping test
        if not (math.isfinite(action) and math.isfinite(gnorm)):
            raise NoConvergence(
                f"discrete action or gradient is not finite (action {action}, "
                f"gradient norm {gnorm})", iterations=iterations)
        if gnorm <= tol * (1.0 + abs(action)):
            return free, action, grad, hess_v, iterations
        if iterations == max_iter:
            break
        try:
            factor = cho_factor(_action_hessian(ev, spec, hess_v)[:-n, :-n],
                                check_finite=False)
        except LinAlgError as exc:
            raise HypothesisViolation(
                f"discrete Hessian is not positive definite (non-convex "
                f"potential along the path?): {exc}") from exc
        step = cho_solve(factor, -g_inner, check_finite=False)
        if not np.all(np.isfinite(step)) or float(step @ g_inner) >= 0.0:
            raise HypothesisViolation(
                "Newton direction is not a descent direction; the sampled "
                "convexity hypothesis likely fails along the path")
        # backtracking line search (full steps accepted near the minimum)
        alpha = 1.0
        for _ls in range(40):
            trial = free.copy()
            trial[:-1] += alpha * step.reshape(-1, n)
            new = _action_and_gradient(ev, spec, trial)
            slack = 1e-14 * (1.0 + abs(action))  # rounding floor near optimum
            if new[0] <= action + 1e-4 * alpha * float(step @ g_inner) + slack:
                free = trial
                action, grad, hess_v = new
                break
            alpha *= 0.5
        else:
            raise NoConvergence(
                "line search failed to reduce the discrete action",
                gradient_norm=float(gnorm))
    raise NoConvergence(
        f"Newton iteration cap reached at {max_iter} iterations",
        iterations=max_iter)


def minimize_action(model: OscillatorModel, x, nodes: int = NODES) -> VariationalResult:
    """Minimize the discretized inverted-potential action to the target x."""
    return MomentumProvider(model, nodes).minimize(x)


def _solve(ev: _ModelEval, spec: _Spectral, x):
    """The minimizer to x on a built discretization, and Hess V at its
    Gauss points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (ev.dim,):
        raise GradientProviderFailure(
            f"target point has shape {x.shape}, expected ({ev.dim},)")
    s = spec.nodes
    nodes = s.size - 1
    # the linearized minimizer x_i exp(omega_i t)
    free0 = x[None, :] * s[1:, None] ** ev.powers[None, :]
    free, action, grad, hess_v, iters = _newton(ev, spec, free0, _TOL)
    pts = np.vstack([np.zeros((1, ev.dim)), free])
    coeffs = np.abs(spec.cheb @ pts)
    tail = float(coeffs[-2:].max() / coeffs.max()) if coeffs.max() > 0.0 else 0.0
    if tail > _TAIL_TOL:
        raise NoConvergence(
            f"the degree-{nodes} curve is under-resolved: its last two "
            f"Chebyshev coefficients reach {tail:.3g} of the largest",
            tail=tail, nodes=nodes)
    momentum = grad[-1]
    vel = ev.rate * s[:, None] * (spec.diff @ free)  # gamma_t = c s gamma_s
    v = ev.potential(pts)
    energy = 0.5 * ev.mass * (vel ** 2).sum(axis=1) - v
    hj = abs(float((momentum ** 2).sum()) / (2.0 * ev.mass) - float(v[-1]))
    times = np.empty(nodes + 1)
    times[0] = -np.inf
    times[1:] = np.log(s[1:]) / ev.rate
    result = VariationalResult(
        curve=CurveGrid(times=times, points=pts),
        action=action, momentum=momentum,
        ip_energy_drift=float(np.abs(energy).max()), hj_residual=hj,
        iterations=iters)
    return result, hess_v


# -- the discretized model -----------------------------------------------------

class MomentumProvider:
    """The model's jet and the degree-``nodes`` matrices, built once and
    shared by every minimization on them.

    ``minimize(x)`` returns the minimizer to x; ``momentum(x)`` is its
    endpoint gradient dI/dgamma(1) = grad S_0(x), and ``hessian(x)``
    differentiates that exactly in x.  Those two report every failure of
    their minimization as GradientProviderFailure.  A degree below a linear
    mode's exponent q omega_i / omega_min is rejected here, before any
    Newton work (omega = (1, 1.4142) has q = 5000 and needs degree 7071).
    """

    def __init__(self, model: OscillatorModel, nodes: int = NODES):
        self._spec = _spectral(nodes)
        self._ev = _ModelEval(model)
        top = int(self._ev.powers.max())
        if top > nodes:
            raise ModelFormatError(
                f"the frequency ratios make s^{top} a linear mode of the curve, "
                f"beyond its degree {nodes}: the degree must be at least {top} "
                f"(and at most {_MAX_NODES})", exponent=top, nodes=nodes)

    def minimize(self, x) -> VariationalResult:
        return _solve(self._ev, self._spec, x)[0]

    def _sample(self, x):
        """The minimizer to x and Hess V at its Gauss points."""
        try:
            return _solve(self._ev, self._spec, x)
        except (NoConvergence, HypothesisViolation) as exc:
            raise GradientProviderFailure(
                f"gradient sample failed at {np.ravel(x).tolist()}: {exc}") from exc

    def momentum(self, x) -> np.ndarray:
        return self._sample(x)[0].momentum

    def hessian(self, x) -> np.ndarray:
        """Hess S_0(x) as the x-derivative of the discrete momentum.

        At the minimizer the interior gradient vanishes, so the interior
        values move with the endpoint as -K_ii^-1 K_ix, and the momentum
        (the endpoint gradient) moves as the Schur complement
        K_xx - K_xi K_ii^-1 K_ix of the discrete action Hessian K.
        """
        hess = _action_hessian(self._ev, self._spec, self._sample(x)[1])
        n = self._ev.dim
        inner = cho_factor(hess[:-n, :-n], check_finite=False)
        out = hess[-n:, -n:] - hess[-n:, :-n] @ cho_solve(
            inner, hess[:-n, -n:], check_finite=False)
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
_ESCAPE_RADIUS = 1e3  # a forward flow has escaped once |gamma| reaches it


def semi_flow(model: OscillatorModel, x, nodes: int = NODES,
              t_span: float | None = None, forward: bool = False) -> FlowTrajectory:
    """Integrate m gamma' = grad S_0(gamma) from gamma(0) = x, sampling
    grad S_0 on one degree-``nodes`` discretization.

    Backward integration (the default) relaxes to the origin and must retrace
    the minimizer to x: ``deviation_from_minimizer`` is the largest gap at
    its nodes inside the integrated span.  Forward integration generically
    escapes to infinity in finite time, reported in ``escape_time`` once
    |gamma| reaches _ESCAPE_RADIUS.  The graph p = grad S_0 is invariant
    under, and forward attracts, the inverted-potential flow gamma' = p/m,
    p' = grad V, so forward that flow is integrated from p(0) = grad S_0(x):
    one sample, where the far points would need a degree growing with |gamma|.
    """
    provider = MomentumProvider(model, nodes)
    mass = float(model.mass)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    horizon = t_span if t_span is not None else 10.0 / float(model.omega_min)
    if forward:
        jet = provider._ev.jet

        def rhs(_t, y):
            return np.concatenate([y[n:] / mass, jet(y[None, :n])[1][0]])

        def escaped(_t, y):
            return float(np.linalg.norm(y[:n])) - _ESCAPE_RADIUS
        escaped.terminal = True
        escaped.direction = 1.0
        start = np.concatenate([x, provider.momentum(x)])
        span, events = (0.0, horizon), escaped
    else:
        curve = provider.minimize(x).curve

        def rhs(_t, y):
            return provider.momentum(y) / mass
        start, span, events = x, (0.0, -horizon), None
    sol = solve_ivp(rhs, span, start, method="RK45", rtol=_FLOW_RTOL,
                    atol=_FLOW_ATOL, dense_output=True, events=events)
    escape_time = deviation = None
    if forward and len(sol.t_events[0]):
        escape_time = float(sol.t_events[0][0])
    elif not sol.success:
        raise GradientProviderFailure(
            f"flow integration failed: {sol.message}")
    order = np.argsort(sol.t)
    times = sol.t[order]
    points = sol.y[:n].T[order]
    if not forward:
        # the curve's nodes inside the integrated span (never the origin,
        # which sits at t = -inf), against the flow's dense output there
        inside = (curve.times >= times[0]) & (curve.times <= times[-1])
        gap = sol.sol(curve.times[inside])[:n].T - curve.points[inside]
        deviation = float(np.abs(gap).max(initial=0.0))
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

def numeric_s1(model: OscillatorModel, x) -> float:
    """S_1(x) from the transport integral along the minimizing curve.

    In s = exp(c t) the integral is int_0^1 f(gamma(s)) ds / (c s) with
    f = tr Hess S_0 / (2m) - sum omega_j / 2, which vanishes at the origin.
    It is taken at the 2N Gauss-Legendre points of the curve, one Hessian
    (one minimization) per point.
    """
    mass = float(model.mass)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if float(np.linalg.norm(x)) == 0.0:
        return 0.0
    provider = MomentumProvider(model)
    curve = provider.minimize(x).curve
    spec, rate = provider._spec, provider._ev.rate
    half_omega = 0.5 * float(sum(model.omega))
    total = 0.0
    for s, w, pt in zip(spec.gauss, spec.weights, spec.interp @ curve.points[1:]):
        f = np.trace(provider.hessian(pt)) / (2.0 * mass) - half_omega
        total += w * f / (rate * s)
    return float(total)
