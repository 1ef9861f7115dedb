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
convex, so a damped Newton iteration with one dense solve per step, its
matrix certified positive definite by a Cholesky factorization, converges
to machine precision deterministically.  V, grad V and Hess V come
together from one jet: the monomials of the exact series of V and of its
first and second derivatives are evaluated once per point set (powers by
repeated multiplication) and combined by one matrix product.

The momentum grad S_0(x) is the endpoint entry of the discrete action
gradient, dI/dgamma(1), and its x-derivative Hess S_0(x) is the Schur
complement of the interior block in the discrete action Hessian.  Both
come from one lean minimization (``_solve``: Newton and the resolution
check, nothing else); only ``MomentumProvider.minimize`` derives the
velocities, energy drift and HJ residual of a full report.

The minimizer to a point gamma(sigma) of the minimizer to x is that
curve's own tail: by time-shift invariance it is s -> gamma(sigma s), and
its Jacobi fields (the derivative in its endpoint) are the curve's fields
J(sigma s) J(sigma)^-1.  A lean minimization to a point near the curve may
therefore start Newton from that tail, moved to the point along those
fields, instead of from the linearized x_i s^(p_i); the start depends only
on the curve, sigma and the point, never on call history.

Also here: sampled coercivity/convexity hypothesis checks, the gradient
semi-flow integrator (the package's own DOP853 stepper on lean momentum
samples, with no dense output; it must retrace the minimizer curve, which
is checked at its accepted steps against the degree-N curve itself), and
the numerical first transport integral

    S_1(x) = int_{-inf}^{0} [ (lap S_0)/(2m) - sum_j omega_j / 2 ](gamma(t)) dt,

taken at the same Gauss-Legendre points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainExceeded,
    GradientProviderFailure,
    HypothesisViolation,
    ModelFormatError,
    NoConvergence,
)
from .model import OscillatorModel
from .series import unpack


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
        # num / den straight from the integer view: int division rounds
        # correctly, as float(Fraction(num, den)) does
        terms = [[(k, num / den) for den, part in p.graded().values()
                  for k, num in part] for p in parts]
        keys = sorted({k for t in terms for k, _ in t},
                      key=lambda k: unpack(k, n))
        row = {k: r for r, k in enumerate(keys)}
        self._coeffs = np.zeros((len(keys), len(parts)))
        for col, t in enumerate(terms):
            for k, c in t:
                self._coeffs[row[k], col] = c
        self._exps = np.array([unpack(k, n) for k in keys],
                              dtype=np.intp).reshape(len(keys), n)
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
    bary: np.ndarray  # (N+1,) their barycentric weights
    diff: np.ndarray  # (N+1, N) d/ds at the nodes
    gauss: np.ndarray  # (2N,) Gauss-Legendre points
    weights: np.ndarray  # (2N,) their weights
    interp: np.ndarray  # P (2N, N): values at the Gauss points
    slope: np.ndarray  # Q = P D (2N, N): d/ds at the Gauss points
    stiff: np.ndarray  # Q^T diag(w s) Q (N, N)
    cheb: np.ndarray  # (N+1, N+1): values at all nodes -> Chebyshev coefficients


def _lagrange(nodes: np.ndarray, bary: np.ndarray, targets: np.ndarray):
    """Rows (len(targets), N+1) taking the curve values at all N+1 nodes
    to its values at ``targets``, by the barycentric formula; a target on
    a node takes that node's value."""
    gap = targets[:, None] - nodes[None, :]
    hit = gap == 0.0
    if hit.any():  # a row on a node keeps that node's weight alone
        on = hit.any(axis=1)
        gap[on] = np.where(hit[on], 1.0, np.inf)
    rows = bary / gap
    return rows / rows.sum(axis=1, keepdims=True)


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
    interp = _lagrange(s, bary, gauss)
    slope = interp @ diff
    cheb = np.linalg.inv(np.polynomial.chebyshev.chebvander(2.0 * s - 1.0, nodes))
    spec = _Spectral(
        nodes=s, bary=bary, diff=diff[:, 1:], gauss=gauss, weights=weights,
        interp=interp[:, 1:], slope=slope[:, 1:],
        stiff=slope[:, 1:].T @ ((weights * gauss)[:, None] * slope[:, 1:]),
        cheb=cheb)
    for matrix in spec:
        matrix.flags.writeable = False
    return spec


@dataclass
class VariationalResult:
    points: np.ndarray  # (N+1, dim); points[0] = origin, points[-1] = target
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
            "nodes": int(self.points.shape[0] - 1),
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
    1..N (``free``), and Hess V at the Gauss points for ``_action_hessian``.
    A far target overflows quietly: ``_newton`` rejects a non-finite result."""
    pts = spec.interp @ free
    vel = spec.slope @ free
    kinetic = ev.mass * ev.rate * spec.weights * spec.gauss
    potential = spec.weights / (ev.rate * spec.gauss)
    with np.errstate(over="ignore", invalid="ignore"):
        v, grad_v, hess_v = ev.jet(pts)
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


def _convex_solve(matrix: np.ndarray, rhs: np.ndarray, where: str) -> np.ndarray:
    """matrix^-1 rhs for a discrete action Hessian block that the convexity
    hypothesis makes positive definite.  Its Cholesky factorization is the
    certificate, raised as HypothesisViolation (``where`` ends the message
    prefix); the solve then takes the matrix itself, as numpy has no
    triangular solve and one LU solve of it beats two on the factor."""
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise HypothesisViolation(
            f"discrete Hessian is not positive definite{where}: {exc}") from exc
    return np.linalg.solve(matrix, rhs)


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
        step = _convex_solve(_action_hessian(ev, spec, hess_v)[:-n, :-n],
                             -g_inner, " (non-convex potential along the path?)")
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


class _Minimum(NamedTuple):
    """A resolved discrete minimizer, as Newton leaves it."""
    points: np.ndarray  # (N+1, dim) curve values at the nodes; points[0] = 0
    action: float
    grad: np.ndarray  # (N, dim) action gradient; grad[-1] = grad S_0(x)
    hess_v: np.ndarray  # (2N, dim, dim) Hess V at the Gauss points
    iterations: int


def _solve(ev: _ModelEval, spec: _Spectral, x, start=None) -> _Minimum:
    """The minimizer to x on a built discretization, checked for resolution.
    Nothing else is derived here, so a gradient sample pays for the Newton
    solve alone.  Newton starts from ``start`` (N, dim), the curve values
    at nodes 1..N with its last row replaced by x, or by default from the
    linearized minimizer."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (ev.dim,):
        raise GradientProviderFailure(
            f"target point has shape {x.shape}, expected ({ev.dim},)")
    s = spec.nodes
    if start is None:
        # the linearized minimizer x_i exp(omega_i t)
        free0 = x[None, :] * s[1:, None] ** ev.powers[None, :]
    else:
        free0 = np.array(start, dtype=float)
        if free0.shape != (s.size - 1, ev.dim):
            raise GradientProviderFailure(
                f"Newton start has shape {free0.shape}, expected "
                f"({s.size - 1}, {ev.dim})")
        free0[-1] = x  # the endpoint stays pinned
    free, action, grad, hess_v, iters = _newton(ev, spec, free0, _TOL)
    pts = np.vstack([np.zeros((1, ev.dim)), free])
    coeffs = np.abs(spec.cheb @ pts)
    tail = float(coeffs[-2:].max() / coeffs.max()) if coeffs.max() > 0.0 else 0.0
    if tail > _TAIL_TOL:
        nodes = s.size - 1
        raise NoConvergence(
            f"the degree-{nodes} curve is under-resolved: its last two "
            f"Chebyshev coefficients reach {tail:.3g} of the largest",
            tail=tail, nodes=nodes)
    return _Minimum(pts, action, grad, hess_v, iters)


# -- the discretized model -----------------------------------------------------

class MomentumProvider:
    """The model's jet and the degree-``nodes`` matrices, built once and
    shared by every minimization on them.

    ``minimize(x)`` returns the minimizer to x; ``momentum(x)`` is its
    endpoint gradient dI/dgamma(1) = grad S_0(x), and ``hessian(x)``
    differentiates that exactly in x.  Those two report every failure of
    their minimization as GradientProviderFailure, and take an optional
    Newton ``start`` (see ``_solve``), such as ``_tail_start`` builds.  A
    degree below a linear mode's exponent q omega_i / omega_min is rejected
    here, before any Newton work (omega = (1, 1.4142) has q = 5000 and
    needs degree 7071).
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
        """The minimizer to x with its velocities, energy drift and HJ
        residual."""
        ev, spec = self._ev, self._spec
        pts, action, grad, _, iters = _solve(ev, spec, x)
        s = spec.nodes
        momentum = grad[-1]
        vel = ev.rate * s[:, None] * (spec.diff @ pts[1:])  # gamma_t = c s gamma_s
        v = ev.potential(pts)
        energy = 0.5 * ev.mass * (vel ** 2).sum(axis=1) - v
        hj = abs(float((momentum ** 2).sum()) / (2.0 * ev.mass) - float(v[-1]))
        return VariationalResult(
            points=pts,
            action=action, momentum=momentum,
            ip_energy_drift=float(np.abs(energy).max()), hj_residual=hj,
            iterations=iters)

    def _sample(self, x, start):
        """The lean minimization to x, as returned by ``_solve``."""
        try:
            return _solve(self._ev, self._spec, x, start)
        except (NoConvergence, HypothesisViolation) as exc:
            raise GradientProviderFailure(
                f"gradient sample failed at {np.ravel(x).tolist()}: {exc}") from exc

    def _response(self, hess_v):
        """The discrete action Hessian K at a minimizer (Hess V at the Gauss
        points given) and the response -K_ii^-1 K_ix ((N-1) dim, dim) of
        its interior values to its endpoint, which keeps the interior
        gradient zero."""
        hess = _action_hessian(self._ev, self._spec, hess_v)
        n = self._ev.dim
        return hess, -_convex_solve(hess[:-n, :-n], hess[:-n, -n:],
                                    " at the minimizer")

    def _fields(self, points) -> np.ndarray:
        """The Jacobi fields d gamma(s) / dx (N+1, dim, dim) of the minimizer
        ``points`` (N+1, dim): zero at s = 0, the identity at s = 1."""
        n = self._ev.dim
        hess_v = _action_and_gradient(self._ev, self._spec, points[1:])[2]
        fields = np.zeros(points.shape + (n,))
        fields[1:-1] = self._response(hess_v)[1].reshape(-1, n, n)
        fields[-1] = np.eye(n)
        return fields

    def _tail_start(self, points, fields, sigma: float, y) -> np.ndarray:
        """Newton start for the minimizer to y, a point near gamma(sigma) on
        the minimizer ``points`` with Jacobi ``fields`` (``_fields``): the
        tail s -> gamma(sigma s), which is the minimizer to gamma(sigma)
        itself, moved to y along the tail's own fields J(sigma s) J(sigma)^-1
        (time shift carries the fields too).  In the harmonic limit these
        are the linear modes s^p."""
        s = self._spec.nodes
        rows = _lagrange(s, self._spec.bary, sigma * s[1:])
        tail = rows @ points
        moved = (rows @ fields.reshape(s.size, -1)).reshape(-1, *fields.shape[1:])
        return tail + moved @ np.linalg.solve(moved[-1], y - tail[-1])

    def momentum(self, x, start=None) -> np.ndarray:
        return self._sample(x, start).grad[-1]

    def hessian(self, x, start=None) -> np.ndarray:
        """Hess S_0(x) as the x-derivative of the discrete momentum.

        At the minimizer the interior gradient vanishes, so the interior
        values move with the endpoint as -K_ii^-1 K_ix, and the momentum
        (the endpoint gradient) moves as the Schur complement
        K_xx - K_xi K_ii^-1 K_ix of the discrete action Hessian K.
        """
        hess, response = self._response(self._sample(x, start).hess_v)
        n = self._ev.dim
        out = hess[-n:, -n:] + hess[-n:, :-n] @ response
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
_ARRIVAL_RADIUS = 1e2 * _FLOW_ATOL  # a backward one has reached the origin

# The explicit Runge-Kutta pair DOP853 of Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I (2nd ed., 1993), Sec. II.5: the nodes
# C and stage rows A of its 12 stages (row 12 holds the eighth-order
# weights B) and its 5th- and 3rd-order error weights E5 and E3.  Its
# dense-output stages are left out.
_DOP_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0])

_DOP_A = np.zeros((13, 12))  # row 12: the weights B
_DOP_A[1, 0] = 5.26001519587677318785587544488e-2

_DOP_A[2, 0] = 1.97250569845378994544595329183e-2
_DOP_A[2, 1] = 5.91751709536136983633785987549e-2

_DOP_A[3, 0] = 2.95875854768068491816892993775e-2
_DOP_A[3, 2] = 8.87627564304205475450678981324e-2

_DOP_A[4, 0] = 2.41365134159266685502369798665e-1
_DOP_A[4, 2] = -8.84549479328286085344864962717e-1
_DOP_A[4, 3] = 9.24834003261792003115737966543e-1

_DOP_A[5, 0] = 3.7037037037037037037037037037e-2
_DOP_A[5, 3] = 1.70828608729473871279604482173e-1
_DOP_A[5, 4] = 1.25467687566822425016691814123e-1

_DOP_A[6, 0] = 3.7109375e-2
_DOP_A[6, 3] = 1.70252211019544039314978060272e-1
_DOP_A[6, 4] = 6.02165389804559606850219397283e-2
_DOP_A[6, 5] = -1.7578125e-2

_DOP_A[7, 0] = 3.70920001185047927108779319836e-2
_DOP_A[7, 3] = 1.70383925712239993810214054705e-1
_DOP_A[7, 4] = 1.07262030446373284651809199168e-1
_DOP_A[7, 5] = -1.53194377486244017527936158236e-2
_DOP_A[7, 6] = 8.27378916381402288758473766002e-3

_DOP_A[8, 0] = 6.24110958716075717114429577812e-1
_DOP_A[8, 3] = -3.36089262944694129406857109825
_DOP_A[8, 4] = -8.68219346841726006818189891453e-1
_DOP_A[8, 5] = 2.75920996994467083049415600797e1
_DOP_A[8, 6] = 2.01540675504778934086186788979e1
_DOP_A[8, 7] = -4.34898841810699588477366255144e1

_DOP_A[9, 0] = 4.77662536438264365890433908527e-1
_DOP_A[9, 3] = -2.48811461997166764192642586468
_DOP_A[9, 4] = -5.90290826836842996371446475743e-1
_DOP_A[9, 5] = 2.12300514481811942347288949897e1
_DOP_A[9, 6] = 1.52792336328824235832596922938e1
_DOP_A[9, 7] = -3.32882109689848629194453265587e1
_DOP_A[9, 8] = -2.03312017085086261358222928593e-2

_DOP_A[10, 0] = -9.3714243008598732571704021658e-1
_DOP_A[10, 3] = 5.18637242884406370830023853209
_DOP_A[10, 4] = 1.09143734899672957818500254654
_DOP_A[10, 5] = -8.14978701074692612513997267357
_DOP_A[10, 6] = -1.85200656599969598641566180701e1
_DOP_A[10, 7] = 2.27394870993505042818970056734e1
_DOP_A[10, 8] = 2.49360555267965238987089396762
_DOP_A[10, 9] = -3.0467644718982195003823669022

_DOP_A[11, 0] = 2.27331014751653820792359768449
_DOP_A[11, 3] = -1.05344954667372501984066689879e1
_DOP_A[11, 4] = -2.00087205822486249909675718444
_DOP_A[11, 5] = -1.79589318631187989172765950534e1
_DOP_A[11, 6] = 2.79488845294199600508499808837e1
_DOP_A[11, 7] = -2.85899827713502369474065508674
_DOP_A[11, 8] = -8.87285693353062954433549289258
_DOP_A[11, 9] = 1.23605671757943030647266201528e1
_DOP_A[11, 10] = 6.43392746015763530355970484046e-1

_DOP_A[12, 0] = 5.42937341165687622380535766363e-2
_DOP_A[12, 5] = 4.45031289275240888144113950566
_DOP_A[12, 6] = 1.89151789931450038304281599044
_DOP_A[12, 7] = -5.8012039600105847814672114227
_DOP_A[12, 8] = 3.1116436695781989440891606237e-1
_DOP_A[12, 9] = -1.52160949662516078556178806805e-1
_DOP_A[12, 10] = 2.01365400804030348374776537501e-1
_DOP_A[12, 11] = 4.47106157277725905176885569043e-2

_DOP_B = _DOP_A[12]
_DOP_E3 = _DOP_B.copy()
_DOP_E3[0] -= 0.244094488188976377952755905512
_DOP_E3[8] -= 0.733846688281611857341361741547
_DOP_E3[11] -= 0.220588235294117647058823529412e-1

_DOP_E5 = np.zeros(12)
_DOP_E5[0] = 0.1312004499419488073250102996e-1
_DOP_E5[5] = -0.1225156446376204440720569753e+1
_DOP_E5[6] = -0.4957589496572501915214079952
_DOP_E5[7] = 0.1664377182454986536961530415e+1
_DOP_E5[8] = -0.3503288487499736816886487290
_DOP_E5[9] = 0.3341791187130174790297318841
_DOP_E5[10] = 0.8192320648511571246570742613e-1
_DOP_E5[11] = -0.2235530786388629525884427845e-1


def _rms(v: np.ndarray) -> float:
    return float(np.linalg.norm(v)) / math.sqrt(v.size)


def _hermite_crossing(gap, y0, f0, y1, f1, h):
    """The fraction th in (0, 1] of a step of length h (from y0 with slope
    f0 to y1 with slope f1, gap(y1) >= 0) at which ``gap`` first rises
    through 0 on the step's cubic Hermite interpolant, found by bisection,
    and the interpolated state there."""
    def hermite(th):
        return ((1.0 - th) ** 2 * ((1.0 + 2.0 * th) * y0 + th * h * f0)
                + th ** 2 * ((3.0 - 2.0 * th) * y1 - (1.0 - th) * h * f1))
    lo, mid, hi = 0.0, 0.5, 1.0  # gap < 0 at lo (or lo = 0), >= 0 at hi
    while lo < mid < hi:
        if gap(hermite(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return hi, hermite(hi)


def _dop853(rhs, y, t_end: float, gap, retake: bool = False):
    """DOP853 steps of y' = rhs(t, y) from y at t = 0 to t = t_end (either
    sign), at _FLOW_RTOL and _FLOW_ATOL, with scipy's initial step and
    step-size control: safety 0.9, factor in [0.2, 10], exponent -1/8 on
    the combined 5th/3rd-order error norm.

    Returns the accepted times and states (the start first) and the time
    at which ``gap(state)`` first rises through 0, or None; the
    integration ends there, the crossing located by bisection on the last
    step's cubic Hermite interpolant, whose end slopes the stages already
    hold.  With ``retake`` (for a cheap rhs) the step is then taken again
    from its start up to that crossing, and, if it still reaches it, the
    crossing is located again on that short step's interpolant: near a
    blow-up the cubic lags the solution over a long step.  A step size
    below the spacing of the floats raises GradientProviderFailure.
    """
    direction = math.copysign(1.0, t_end)
    t, f = 0.0, rhs(0.0, y)
    times, states, below = [t], [y], gap(y)
    # the initial step of Sec. II.4: one probe evaluation
    span = abs(t_end)
    scale = _FLOW_ATOL + np.abs(y) * _FLOW_RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((rhs(direction * h0, y + direction * h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, 1e-3 * h0) if max(d1, d2) <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.125)
    h_abs = min(100.0 * h0, h1, span)
    stages = np.empty((12, y.size))

    def step(h):
        """The eighth-order state at t + h from the current t, y and f;
        fills ``stages``."""
        stages[0] = f
        for i in range(1, 12):
            stages[i] = rhs(t + _DOP_C[i] * h, y + h * (_DOP_A[i, :i] @ stages[:i]))
        return y + h * (_DOP_B @ stages)

    while t != t_end:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # a NaN step too
                raise GradientProviderFailure(
                    f"flow integration failed at t = {t}: the step size fell "
                    f"below the spacing of the floats")
            t_new = t + direction * h_abs
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            y_new = step(h)
            f_new = rhs(t_new, y_new)
            scale = _FLOW_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _FLOW_RTOL
            err5 = float(np.sum(((_DOP_E5 @ stages) / scale) ** 2))
            err3 = float(np.sum(((_DOP_E3 @ stages) / scale) ** 2))
            norm = (0.0 if err5 == 0.0 and err3 == 0.0 else
                    h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * y.size))
            if norm < 1.0:
                factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * norm ** -0.125)  # 0.2 for a NaN norm
            rejected = True
        above = gap(y_new)
        if below <= 0.0 <= above:
            th, y_cross = _hermite_crossing(gap, y, f, y_new, f_new, h)
            if retake and th < 1.0:
                y_short = step(th * h)
                if gap(y_short) >= 0.0:
                    h *= th
                    th, y_cross = _hermite_crossing(
                        gap, y, f, y_short, rhs(t + h, y_short), h)
            times.append(t + th * h)
            states.append(y_cross)
            return times, states, times[-1]
        t, y, f, below = t_new, y_new, f_new, above
        times.append(t)
        states.append(y)
    return times, states, None


def semi_flow(model: OscillatorModel, x, nodes: int = NODES,
              t_span: float | None = None, forward: bool = False) -> FlowTrajectory:
    """Integrate m gamma' = grad S_0(gamma) from gamma(0) = x for a time
    ``t_span`` (a finite number > 0; default 10 / omega_min) with the
    package's own DOP853 (``_dop853``), sampling grad S_0 on one
    degree-``nodes`` discretization.  Each right-hand side is one lean
    minimization (``MomentumProvider.momentum``), and the eighth-order
    steps need far fewer of them than RK45 at this tolerance: 12 a step, as
    no dense output is formed.  ``times`` and ``points`` hold the accepted
    steps.

    Backward integration (the default) relaxes to the origin, ending where
    |gamma| = _ARRIVAL_RADIUS, above its stall at the tolerance (a start
    already inside has arrived: two points, both x), and must retrace the
    minimizer to x: ``deviation_from_minimizer`` is the largest gap
    |y_k - gamma(exp(c t_k))| over the reported points, gamma the degree-N
    curve itself, evaluated by ``_lagrange``.  So at flow time t <= 0 the
    state y sits near gamma(sigma), sigma = exp(c t), whose minimizer is the
    curve's own tail s -> gamma(sigma s): each sample's Newton starts from
    that tail, moved to y along its Jacobi fields
    (``MomentumProvider._tail_start``).  Forward integration
    generically escapes to infinity in finite time, reported in
    ``escape_time`` once |gamma| reaches _ESCAPE_RADIUS.  The graph
    p = grad S_0 is invariant under, and forward attracts, the
    inverted-potential flow gamma' = p/m, p' = grad V, so forward that flow
    is integrated from p(0) = grad S_0(x): one sample, where the far points
    would need a degree growing with |gamma|.
    """
    horizon = 10.0 / float(model.omega_min) if t_span is None else float(t_span)
    if not 0.0 < horizon < math.inf:  # false for NaN as well
        raise ModelFormatError(
            f"t_span must be a finite number > 0, got {t_span}")
    provider = MomentumProvider(model, nodes)
    mass = float(model.mass)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    if forward:
        jet = provider._ev.jet

        def rhs(_t, y):
            return np.concatenate([y[n:] / mass, jet(y[None, :n])[1][0]])
        times, states, escape_time = _dop853(
            rhs, np.concatenate([x, provider.momentum(x)]), horizon,
            lambda y: float(np.linalg.norm(y[:n])) - _ESCAPE_RADIUS, retake=True)
        return FlowTrajectory(times=np.array(times),
                              points=np.array(states)[:, :n],
                              escape_time=escape_time)
    curve = provider.minimize(x).points  # first: it rejects an overflowing x
    if float(np.linalg.norm(x)) <= _ARRIVAL_RADIUS:
        return FlowTrajectory(times=np.zeros(2), points=np.stack([x, x]),
                              deviation_from_minimizer=0.0)
    fields = provider._fields(curve)
    spec, rate = provider._spec, provider._ev.rate

    def rhs(t, y):
        start = provider._tail_start(curve, fields, math.exp(rate * t), y)
        return provider.momentum(y, start=start) / mass
    times, states, _ = _dop853(
        rhs, x, -horizon,
        lambda y: _ARRIVAL_RADIUS - float(np.linalg.norm(y)))
    times, points = np.array(times[::-1]), np.array(states[::-1])
    gap = points - _lagrange(spec.nodes, spec.bary, np.exp(rate * times)) @ curve
    return FlowTrajectory(times=times, points=points,
                          deviation_from_minimizer=float(np.abs(gap).max()))


# -- numerical first transport integral ----------------------------------------

def numeric_s1(model: OscillatorModel, x) -> float:
    """S_1(x) from the transport integral along the minimizing curve.

    In s = exp(c t) the integral is int_0^1 f(gamma(s)) ds / (c s) with
    f = tr Hess S_0 / (2m) - sum omega_j / 2, which vanishes at the origin.
    It is taken at the 2N Gauss-Legendre points of the curve, one Hessian
    (one minimization) per point.  The point gamma(s) of the curve has the
    curve's tail s' -> gamma(s s') for its minimizer, so each of those
    minimizations starts from that tail (``MomentumProvider._tail_start``).
    """
    mass = float(model.mass)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if float(np.linalg.norm(x)) == 0.0:
        return 0.0
    provider = MomentumProvider(model)
    points = provider.minimize(x).points
    spec, rate = provider._spec, provider._ev.rate
    fields = provider._fields(points)
    half_omega = 0.5 * float(sum(model.omega))
    total = 0.0
    for s, w, pt in zip(spec.gauss, spec.weights, spec.interp @ points[1:]):
        start = provider._tail_start(points, fields, s, pt)
        f = np.trace(provider.hessian(pt, start=start)) / (2.0 * mass) - half_omega
        total += w * f / (rate * s)
    return float(total)
