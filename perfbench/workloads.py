"""Seeded inputs, operations and output checks of the three workloads.

Each workload is a fixed list of operations (one *pass*) whose concrete
inputs come from the seed.  An operation is an in-process
``anharmonic.cli.main(argv)`` call writing to an output file, or (for
``numeric_s1``, which has no subcommand) a library call.  Every operation
has a check that runs after it, outside its timed span; a check raises
``CheckFailed`` or returns accuracy figures such as ``{"s0_max_err": e}``.

Why each workload exists:

* ``exact-3d``: 2D/3D rational models, many terms per degree at moderate
  bit-height.  Dominated by ``PolySeries`` products inside ``hjformal`` and
  ``transport``; runs no float code.
* ``quartic-deep``: 1D x^(2 kappa) models, one term per degree but
  coefficients hundreds of bits tall, plus many short RS and Borel-Pade
  operations.
* ``variational-2d``: the float side only: batchable independent
  minimizations (``scan``), sequential dependent ones (``flow``) and the
  finite-difference Hessian work of ``numeric_s1``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("exact-3d", "quartic-deep", "variational-2d")

# Non-resonant frequency tuples: no sum k.omega with |k| >= 2 equals a
# frequency, and every excited level used below has a simple divisor.
OMEGA_3D = ("1", "3/2", "7/3")
OMEGA_2D = (("1", "3/2"), ("1", "7/3"), ("3/2", "7/3"))

# [p/q] Borel-Pade orders that are pole-free on the ray and within 1e-5 of
# the spectral reference at mu = 1 on 24 quartic ground coefficients;
# smaller mu only moves poles further out and shrinks the error.
SAFE_PADE = ((9, 11), (10, 9), (10, 10), (10, 12), (11, 9),
             (11, 11), (11, 12), (12, 10), (12, 11), (13, 10))
RESUM_COEFFS = 24

# Tolerances the package's own tests state.
S0_REL_TOL = 1e-6
DRIFT_TOL = 1e-6       # times max V along the curve
HJ_TOL = 1e-6          # times V(x)
S1_ABS_TOL = 1e-4
RESUM_TOL = 1e-4
FLOW_DEV_TOL = 1e-3
DECAY_EPS = 0.1

# Spans that must record at least one call on each workload's traced run.
EXPECTED_SPANS = {
    "exact-3d": (
        "cli.main", "series.mul", "series.to_json", "model.from_json",
        "hjformal.solve_hj_formal", "hjformal.sternberg_linearize",
        "transport.ground_expansion", "transport.excited_expansion"),
    "quartic-deep": (
        "cli.main", "series.mul", "series.to_json", "model.from_json",
        "hjformal.solve_hj_formal", "transport.ground_expansion",
        "transport.excited_expansion", "rsoracle.rs_expand",
        "rsoracle.compare_with_transport", "resummation.resum_series",
        "resummation.pade_coefficients", "resummation.borel_pade",
        "resummation.reference_energy"),
    "variational-2d": (
        "cli.main", "model.from_json", "variational.minimize_action",
        "variational.momentum", "variational.hessian",
        "variational.semi_flow", "variational.numeric_s1",
        "closedform.wavefunction_factors", "closedform.s0_closed",
        "closedform.s1_closed"),
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    """One benchmark operation.

    ``argv`` (without ``--output``) makes it a CLI call whose check receives
    the output path; ``call`` makes it a library call whose check receives
    the return value.  ``exact`` marks byte-deterministic outputs, which are
    digested and fully checked once per run.
    """
    name: str
    check: Callable[[object], dict]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    exact: bool = False


@dataclass
class Workload:
    name: str
    warmup: list[Op]
    ops: list[Op]
    expected_spans: tuple


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _small_rational(rng: random.Random) -> Fraction:
    """Coupling of fixed bit-height class, so seeds differ in values only."""
    value = Fraction(rng.randint(1, 3), rng.choice((5, 7, 11, 13)))
    return -value if rng.random() < 0.5 else value


def _model_json(omega, terms: dict) -> dict:
    return {"dim": len(omega), "mass": "1", "omega": list(omega),
            "A": {"terms": [{"k": list(k), "c": _rat(c)}
                            for k, c in sorted(terms.items())]}}


def _monomials(dim: int, degree: int):
    return [k for k in itertools.product(range(degree + 1), repeat=dim)
            if sum(k) == degree]


def rational_model(rng: random.Random, omega) -> dict:
    """Cubic and quartic couplings on every monomial (fixed term count)."""
    dim = len(omega)
    terms = {k: _small_rational(rng)
             for degree in (3, 4) for k in _monomials(dim, degree)}
    return _model_json(omega, terms)


def kappa_model_json(kappa: int, g: Fraction) -> dict:
    return _model_json(("1",), {(2 * kappa,): g})


def convex_quartic_2d(rng: random.Random) -> dict:
    """V = (x1^2 + (9/4) x2^2)/2 + a x1^4 + c x1^2 x2^2 + b x2^4 with
    0 < c < min(a, b); c < 3 sqrt(a b) already makes the quartic part convex."""
    a = Fraction(rng.randint(2, 5), 16)
    b = Fraction(rng.randint(2, 5), 16)
    c = Fraction(rng.randint(1, 3), 32)
    return _model_json(("1", "3/2"), {(4, 0): a, (2, 2): c, (0, 4): b})


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _fr(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


# -- checks ---------------------------------------------------------------------
#
# The checks import the package lazily: workloads are built after the
# package is imported (during set-up), and they bind the functions they use
# before any tracing wrapper is installed.


class _Checks:
    def __init__(self):
        import numpy as np
        from anharmonic import closedform, hjformal, model, resummation, \
            rsoracle, series, transport, variational
        self.np = np
        self.cf = closedform
        self.hj = hjformal
        self.model = model
        self.rs = rsoracle
        self.series = series
        self.tr = transport
        self.var = variational
        # the package functions the checks call, bound before tracing
        self.s0_closed = closedform.s0_closed
        self.s1_closed = closedform.s1_closed
        self.reference_energy = resummation.reference_energy
        self.rs_expand = rsoracle.rs_expand
        self._refs: dict = {}
        self.ground_series: dict[str, list[Fraction]] = {}

    # exact side

    def ground(self, key: str, kappa: int | None = None, g: Fraction | None = None):
        def check(path):
            data = _load(path)
            model = self.model.OscillatorModel.from_json(data["model"])
            corrections = [self.series.PolySeries.from_json(c)
                           for c in data["corrections"]]
            energies = _fr(data["energies"])
            action = self.hj.FormalAction(model, corrections[0])
            if not self.hj.hj_residual(action).is_zero():
                raise CheckFailed("HJ residual of S0 is not zero")
            ground = self.tr.GroundExpansion(model, data["order"],
                                             corrections, energies)
            for k in range(1, data["order"] + 1):
                if not self.tr.transport_residual(ground, k).is_zero():
                    raise CheckFailed(f"transport residual {k} is not zero")
            series = _fr(data["series"])
            if series != self.tr.energy_series(ground):
                raise CheckFailed("series disagrees with energies")
            if kappa is not None:
                self._against_rs(series, kappa, g)
            self.ground_series[key] = series
            return {"max_coeff_bits": _max_bits(data)}
        return check

    def _against_rs(self, series, kappa: int, g: Fraction):
        """e_{j(kappa-1)} = c_j g^j with m = omega = 1; other orders vanish."""
        step = kappa - 1
        top = min(15, (len(series) - 1) // step)
        rs = self.rs_expand(kappa, 0, top).coefficients
        for k, e in enumerate(series):
            if k % step:
                if e:
                    raise CheckFailed(f"hbar order {k} should vanish")
            elif k // step <= top and e != rs[k // step] * g ** (k // step):
                raise CheckFailed(f"hbar order {k} disagrees with RS")

    def excited(self, key: str, levels, omega):
        def check(path):
            data = _load(path)
            gap0 = sum(Fraction(q) * Fraction(w) for q, w in zip(levels, omega))
            gaps = _fr(data["gaps"])
            if gaps[0] != gap0:
                raise CheckFailed("gap0 is not m.omega")
            phis = [self.series.PolySeries.from_json(c) for c in data["corrections"]]
            if phis[0].coefficient(levels) != 1 or any(
                    p.coefficient(levels) != 0 for p in phis[1:]):
                raise CheckFailed("excited corrections break the x^m normalization")
            total = _fr(data["total_series"])
            gap_series = _fr(data["gap_series"])
            ground = [t - g for t, g in zip(total, gap_series)]
            reference = self.ground_series.get(key)
            if reference is None:
                raise CheckFailed(f"no ground expansion of {key} to compare with")
            n = min(len(ground), len(reference))
            if ground[:n] != reference[:n]:
                raise CheckFailed("ground part disagrees with expand-ground")
            return {"max_coeff_bits": _max_bits(data)}
        return check

    def sternberg(self, dim: int):
        def check(path):
            data = _load(path)
            if data.get("residual_is_zero") is not True:
                raise CheckFailed("Sternberg pushforward residual is not zero")
            for axis, comp in enumerate(data["components"]):
                mu = self.series.PolySeries.from_json(comp)
                unit = tuple(1 if j == axis else 0 for j in range(dim))
                if mu.coefficient(unit) != 1:
                    raise CheckFailed("linearizing map is not x + O(x^2)")
            return {"max_coeff_bits": _max_bits(data)}
        return check

    def compare(self, order: int, kappa: int):
        def check(path):
            data = _load(path)
            if data.get("agree") is not True:
                raise CheckFailed(f"transport disagrees with RS: {data.get('first_mismatch')}")
            if data["through_order"] != order // (kappa - 1):
                raise CheckFailed("comparison stopped early")
            return {}
        return check

    def rs_table(self, kappa: int, n: int, order: int):
        def check(path):
            data = _load(path)
            coeffs = _fr(data["coefficients"])
            if len(coeffs) != order + 1 or coeffs[0] != Fraction(2 * n + 1, 2):
                raise CheckFailed("RS table has the wrong head")
            c1 = self.rs.first_order_matrix_element(kappa, n)
            if abs(float(coeffs[1]) - c1) > 1e-9 * abs(c1):
                raise CheckFailed("RS c1 disagrees with the matrix element")
            return {"max_coeff_bits": _max_bits(data)}
        return check

    # float side

    def _reference(self, mu: float) -> float:
        if mu not in self._refs:
            self._refs[mu] = self.reference_energy(2, 0, mu)
        return self._refs[mu]

    def resum(self, mu: float):
        def check(path):
            data = _load(path)
            ref = self._reference(mu)
            value = data["borel_pade_value"]
            if abs(data["reference_energy"] - ref) > 1e-9:
                raise CheckFailed("reported reference energy is wrong")
            err = abs(value - ref)
            if not err <= RESUM_TOL:
                raise CheckFailed(f"Borel-Pade misses the reference by {err:.3g}")
            return {"resum_max_err": err}
        return check

    def variational(self, model_json: dict, point, closed=None):
        ev = self.var._ModelEval(self.model.OscillatorModel.from_json(model_json))

        def check(path):
            data = _load(path)
            if data["converged"] is not True:
                raise CheckFailed("minimizer did not converge")
            vx = float(ev.potential(self.np.array([point], dtype=float))[0])
            # V grows along the minimizing curve of these convex models, so
            # its maximum along the curve is V(x)
            _check_invariants(data["hj_residual"], data["ip_energy_drift"], vx)
            out = {}
            if closed is not None:
                expect = self.s0_closed(closed, point[0])
                err = abs(data["action"] - expect) / abs(expect)
                if not err <= S0_REL_TOL:
                    raise CheckFailed(f"S0 relative error {err:.3g}")
                out["s0_max_err"] = err
            return out
        return check

    def scan_variational(self, model_json: dict, key: str, shared: dict):
        ev = self.var._ModelEval(self.model.OscillatorModel.from_json(model_json))

        def check(path):
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if not rows:
                raise CheckFailed("empty scan")
            for row in rows:
                x = [float(row["x1"]), float(row["x2"])]
                vx = float(ev.potential(self.np.array([x]))[0])
                _check_invariants(float(row["hj_residual"]),
                                  float(row["ip_energy_drift"]), vx)
            actions = [float(r["action"]) for r in rows]
            # the threaded scan must reproduce the single-threaded one
            other = shared.setdefault(key, actions)
            if len(other) != len(actions) or any(
                    abs(a - b) > 1e-9 * max(1.0, abs(b)) for a, b in zip(actions, other)):
                raise CheckFailed("threaded and default scans disagree")
            return {}
        return check

    def scan_closed(self, closed, xs):
        def check(path):
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != len(xs):
                raise CheckFailed("closed scan has the wrong row count")
            for row, x in zip(rows, xs):
                for col, fn in (("S0", self.s0_closed), ("S1", self.s1_closed)):
                    expect = fn(closed, x)
                    if abs(float(row[col]) - expect) > 1e-12 * max(1.0, abs(expect)):
                        raise CheckFailed(f"closed {col} wrong at x = {x}")
                if not math.isfinite(float(row["psi"])):
                    raise CheckFailed("non-finite wavefunction")
            return {}
        return check

    def flow(self, omega_min: float):
        def check(path):
            data = _load(path)
            dev = data["deviation_from_minimizer"]
            if not dev < FLOW_DEV_TOL:
                raise CheckFailed(f"flow leaves the minimizer by {dev}")
            times = data["times"]
            radius = [math.hypot(*p) for p in data["points"]]
            r0 = radius[times.index(max(times))]
            for t, r in zip(times, radius):
                bound = r0 * math.exp((omega_min - DECAY_EPS) * t)
                if r > bound * (1.0 + 1e-9) + 1e-12:
                    raise CheckFailed(f"decay bound fails at t = {t}")
            return {"flow_max_dev": dev}
        return check

    def s1(self, closed, x: float):
        def check(value):
            err = abs(value - self.s1_closed(closed, x))
            if not err <= S1_ABS_TOL:
                raise CheckFailed(f"S1 absolute error {err:.3g}")
            return {"s1_max_err": err}
        return check


def _check_invariants(hj: float, drift: float, vx: float) -> None:
    if not hj <= HJ_TOL * vx:
        raise CheckFailed(f"HJ residual {hj:.3g} above {HJ_TOL} V(x)")
    if not drift <= DRIFT_TOL * vx:
        raise CheckFailed(f"energy drift {drift:.3g} above {DRIFT_TOL} max V")


def _max_bits(data) -> int:
    """Largest numerator/denominator bit length among the rationals of an
    exact output (strings of the form "p/q" or "p")."""
    best = 0
    stack = [data]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str) and item and item[0] in "-0123456789":
            num, _, den = item.lstrip("-").partition("/")
            if num.isdigit() and (not den or den.isdigit()):
                best = max(best, int(num).bit_length(),
                           int(den).bit_length() if den else 0)
    return best


# -- workload definitions --------------------------------------------------------

def build(name: str, seed: int, workdir: Path, cli_main) -> Workload:
    """The warm-up and pass operations of workload ``name`` for ``seed``.

    Input files go to ``workdir``.  ``quartic-deep`` generates its
    resummation series with ``cli_main``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    checks = _Checks()
    make = {"exact-3d": _exact_3d, "quartic-deep": _quartic_deep,
            "variational-2d": _variational_2d}[name]
    warmup, ops = make(rng, Path(workdir), checks, cli_main)
    return Workload(name, warmup, ops, EXPECTED_SPANS[name])


# Operation mixes are built in cost tiers of several alike operations, so
# that the median operation and the tail operation (ten beyond it) fall
# inside a tier or at a wide gap between tiers: seeds then move op_p50_s
# and op_tail_s by the spread within a tier, not by a tier boundary.


def _exact_3d(rng, workdir, checks, _cli_main):
    """Per 2D model: expand-ground at orders 2 and 5, sternberg degree 8,
    expand-excited order 3; per 3D model: expand-ground at orders 3 and 4,
    expand-excited order 2, sternberg degree 7."""
    models = [(f"m3d{i}", OMEGA_3D, rational_model(rng, OMEGA_3D)) for i in range(2)]
    models += [(f"m2d{i}", OMEGA_2D[i % len(OMEGA_2D)],
                rational_model(rng, OMEGA_2D[i % len(OMEGA_2D)])) for i in range(8)]
    ops: list[Op] = []
    for key, omega, model in models:
        dim = len(omega)
        path = _write(workdir / f"{key}.json", model)
        levels = [0] * dim
        levels[rng.randrange(dim)] = 1
        ground_order, low_order, excited_order, degree = \
            (4, 3, 2, 7) if dim == 3 else (5, 2, 3, 8)
        ops += [
            Op(f"ground-{key}", checks.ground(key), exact=True,
               argv=["expand-ground", "--model", path, "--order", str(ground_order)]),
            Op(f"excited-{key}", checks.excited(key, levels, omega), exact=True,
               argv=["expand-excited", "--model", path,
                     "--order", str(excited_order),
                     "--levels", ",".join(map(str, levels))]),
            Op(f"sternberg-{key}", checks.sternberg(dim), exact=True,
               argv=["sternberg", "--model", path, "--degree", str(degree)]),
            Op(f"ground-low-{key}", checks.ground(f"{key}-low"), exact=True,
               argv=["expand-ground", "--model", path, "--order", str(low_order)]),
        ]
    # warm-up: the operations of the first 2D model
    warmup = [op for op in ops if op.name.endswith("-m2d0")]
    return warmup, ops


def _quartic_g(rng) -> Fraction:
    return Fraction(rng.choice((2, 3, 5, 7)), rng.choice((11, 13, 17, 19)))


def _quartic_deep(rng, workdir, checks, cli_main):
    """Twelve deep expand-ground calls (the tail tier), nine RS comparisons,
    six RS tables and sixty Borel-Pade resummations (the median tier)."""
    ops: list[Op] = []
    deep = [(2, 24)] * 2 + [(3, 27)] * 5 + [(4, 33)] * 5
    for i, (kappa, order) in enumerate(deep):
        g = _quartic_g(rng)
        path = _write(workdir / f"deep{i}.json", kappa_model_json(kappa, g))
        ops.append(Op(f"deep-k{kappa}-{i}", checks.ground(f"deep{i}", kappa, g),
                      exact=True,
                      argv=["expand-ground", "--model", path, "--order", str(order)]))
    # transport against RS for levels 0..2, RS order 10, 7 and 6
    for kappa, order in ((2, 10), (3, 14), (4, 18)):
        path = _write(workdir / f"compare-k{kappa}.json",
                      kappa_model_json(kappa, _quartic_g(rng)))
        for n in (0, 1, 2):
            ops.append(Op(f"compare-k{kappa}-n{n}", checks.compare(order, kappa),
                          exact=True,
                          argv=["compare", "--model", path, "--order", str(order),
                                "--n", str(n)]))
    for kappa in (2, 3, 4):
        for j in range(2):
            n, order = rng.randint(0, 3), rng.randint(10, 15)
            ops.append(Op(f"rs-k{kappa}-{j}", checks.rs_table(kappa, n, order),
                          exact=True,
                          argv=["rs", "--kappa", str(kappa), "--n", str(n),
                                "--order", str(order)]))
    # the resummed series: g = 1 quartic ground coefficients from the package
    gen = workdir / "quartic-ground.json"
    code = cli_main(["expand-ground", "--model", "builtin:quartic",
                     "--order", str(RESUM_COEFFS), "--output", str(gen)])
    if code != 0:
        raise RuntimeError(f"series generation exited with {code}")
    series_path = _write(workdir / "series.json", _load(gen)["series"])
    for j in range(60):
        mu = round(rng.uniform(0.05, 1.0), 6)
        p, q = rng.choice(SAFE_PADE)
        ops.append(Op(f"resum-{j}", checks.resum(mu),
                      argv=["resum", "--series", series_path, "--mu", repr(mu),
                            "--pade", f"{p},{q}", "--kappa", "2", "--n", "0"]))
    by_name = {op.name: op for op in ops}
    warmup = [by_name[k] for k in ("deep-k3-2", "compare-k2-n0", "rs-k2-0", "resum-0")]
    return warmup, ops


def _variational_2d(rng, workdir, checks, _cli_main):
    """Two 5x5 variational scans (default and two threads), one backward
    flow, 8 one- and 30 two-dimensional minimizations, one numeric_s1 and
    one closed-form scan."""
    from anharmonic import variational
    from anharmonic.model import kappa_model

    ops: list[Op] = []
    shared: dict = {}
    m2 = convex_quartic_2d(rng)
    path2 = _write(workdir / "convex2d.json", m2)
    lo, hi = round(rng.uniform(0.1, 0.3), 4), round(rng.uniform(0.8, 1.0), 4)
    grid = f"{lo}:{hi}:5"
    ops.append(Op("scan-default", checks.scan_variational(m2, "scan", shared),
                  argv=["scan", "--model", path2, "--grid", grid,
                        "--engine", "variational"]))
    ops.append(Op("scan-threads2", checks.scan_variational(m2, "scan", shared),
                  argv=["scan", "--model", path2, "--grid", grid,
                        "--engine", "variational",
                        "--threads", str(min(2, os.cpu_count() or 1))]))
    start = [round(rng.uniform(0.5, 0.9), 4) for _ in range(2)]
    ops.append(Op("flow", checks.flow(1.0),
                  argv=["flow", "--model", path2,
                        "--point", ",".join(map(repr, start))]))
    quartics = []
    for i in range(3):
        g = Fraction(rng.randint(1, 4), 4)
        closed = checks.cf.Kappa1DModel(mass=1.0, omega0=1.0, g=float(g), kappa=2)
        quartics.append((_write(workdir / f"quartic{i}.json", kappa_model_json(2, g)),
                         kappa_model_json(2, g), closed))
    # the median and the tail operation both fall inside the 2D tier
    for j in range(8):
        path, model, closed = quartics[j % 3]
        x = round(rng.uniform(0.3, 1.5) * rng.choice((-1, 1)), 4)
        ops.append(Op(f"var1d-{j}", checks.variational(model, [x], closed),
                      argv=["variational", "--model", path, "--point", repr(x)]))
    for j in range(30):
        pt = [round(rng.uniform(0.2, 1.0), 4) for _ in range(2)]
        ops.append(Op(f"var2d-{j}", checks.variational(m2, pt),
                      argv=["variational", "--model", path2,
                            "--point", ",".join(map(repr, pt))]))
    g = Fraction(rng.randint(1, 4), 4)
    x = round(rng.uniform(0.4, 1.4), 4)
    s1_model = kappa_model(2, g=g)
    s1_closed = checks.cf.Kappa1DModel(mass=1.0, omega0=1.0, g=float(g), kappa=2)
    # looked up at call time so the traced run sees its wrapper
    ops.append(Op("numeric-s1", checks.s1(s1_closed, x),
                  call=lambda: variational.numeric_s1(s1_model, [x])))
    n = rng.randint(0, 2)
    closed_path, _, closed = quartics[0]
    xs = [-2.0 + 4.0 * i / 40 for i in range(41)]
    ops.append(Op("scan-closed", checks.scan_closed(closed, xs),
                  argv=["scan", "--model", closed_path, "--grid=-2:2:41",
                        "--engine", "closed", "--n", str(n)]))
    by_name = {op.name: op for op in ops}
    warmup = [by_name[k] for k in ("scan-default", "var1d-0", "var2d-0", "scan-closed")]
    return warmup, ops
