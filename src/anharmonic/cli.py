"""Command-line front end for the oscillator-expansion engines.

Exit codes: 0 success, 1 usage error, 2 engine error (a machine-readable
JSON error object is printed to stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import product

from .errors import (DomainExceeded, EngineError, ModelFormatError,
                     UnsupportedKappa)
from .hjformal import solve_hj_formal, sternberg_linearize, sternberg_residual
from .model import (
    BUILTIN_KAPPA,
    OscillatorModel,
    builtin_kappa,
    builtin_model,
    kappa_model,
)
from .closedform import Kappa1DModel, wavefunction_factors
from .resummation import resum_series
from .rsoracle import compare_with_transport, rs_expand
from .series import format_rational, parse_rational
from .transport import (
    energy_series,
    excited_expansion,
    excited_report,
    ground_expansion,
    ground_report,
    total_energy_series,
)
from .variational import (
    NODES,
    MomentumProvider,
    check_hypotheses,
    minimize_action,
    semi_flow,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_model(spec: str) -> OscillatorModel:
    if spec.startswith("builtin:"):
        return builtin_model(spec.split(":", 1)[1])
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file {spec!r} is not valid JSON: {exc}") from exc
    return OscillatorModel.from_json(data)


def _parse_list(text: str, kind=float) -> list:
    """'a,b,...' -> list of ``kind`` values."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ModelFormatError(f"bad list {text!r}: {exc}") from exc


def _parse_grid(text: str) -> list[float]:
    """'start:stop:count' -> list of floats."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ModelFormatError(
            f"bad grid {text!r}, expected 'start:stop:count'") from exc
    if count < 1:
        raise ModelFormatError("grid count must be >= 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _emit_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(header, rows, path: str | None) -> None:
    fh = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            fh.close()


def _require_kappa(model: OscillatorModel) -> int:
    kappa = builtin_kappa(model)
    if kappa is None:
        raise UnsupportedKappa(
            "this subcommand needs a 1D model with potential "
            "(1/2) m w^2 x^2 + g x^(2 kappa)")
    return kappa


def _closed_model(model: OscillatorModel) -> Kappa1DModel:
    kappa = _require_kappa(model)
    g = float(next(iter(dict(model.anharmonic.items()).values())))
    return Kappa1DModel(mass=float(model.mass), omega0=float(model.omega[0]),
                        g=g, kappa=kappa)


# -- subcommand handlers ------------------------------------------------------

def _cmd_expand_ground(args) -> int:
    model = _load_model(args.model)
    trunc = args.trunc if args.trunc is not None else 2 * args.order + 2
    action = solve_hj_formal(model, trunc)
    ground = ground_expansion(action, args.order)
    _emit_json(ground_report(ground), args.output)
    return 0


def _cmd_expand_excited(args) -> int:
    model = _load_model(args.model)
    levels = _parse_list(args.levels, int)
    trunc = (args.trunc if args.trunc is not None
             else 2 * args.order + sum(levels) + 2)
    action = solve_hj_formal(model, trunc)
    ground = ground_expansion(action, args.order)
    excited = excited_expansion(ground, levels, args.order)
    _emit_json(excited_report(ground, excited), args.output)
    return 0


def _cmd_rs(args) -> int:
    rs = rs_expand(args.kappa, args.n, args.order)
    if args.format == "csv":
        rows = [(k, format_rational(c), float(c))
                for k, c in enumerate(rs.coefficients)]
        _emit_csv(("order", "coefficient", "float"), rows, args.output)
    else:
        _emit_json(rs.to_json(), args.output)
    return 0


def _cmd_compare(args) -> int:
    model = _load_model(args.model)
    kappa = _require_kappa(model)
    # the comparison lives in the dimensionless coupling, so normalize g = 1
    normalized = kappa_model(kappa)
    hbar_order = args.order
    # the ground energy list covers hbar orders 0..K-1, so solve one deeper
    action = solve_hj_formal(normalized, 2 * (hbar_order + 1) + args.n + 2)
    ground = ground_expansion(action, hbar_order + 1)
    if args.n == 0:
        series = energy_series(ground)
    else:
        excited = excited_expansion(ground, [args.n], hbar_order)
        series = total_energy_series(ground, excited)
    rs = rs_expand(kappa, args.n, hbar_order // (kappa - 1))
    report = compare_with_transport(rs, series)
    report["requested_order"] = hbar_order
    if report["agree"]:
        report["status"] = f"AGREE through order {hbar_order}"
    else:
        report["status"] = (
            f"MISMATCH at order {report['first_mismatch']}")
    _emit_json(report, args.output)
    print(report["status"], file=sys.stderr)
    return 0


def _cmd_variational(args) -> int:
    model = _load_model(args.model)
    point = _parse_list(args.point)
    result = minimize_action(model, point, args.nodes, tol=args.tol)
    _emit_json(result.to_json(), args.output)
    return 0


def _scan_closed(model, args):
    closed = _closed_model(model)
    if not 0 < args.hbar < math.inf:
        raise ModelFormatError(f"--hbar must be finite and > 0, got {args.hbar}")
    xs = _parse_grid(args.grid)
    try:
        cols = wavefunction_factors(closed, args.n, args.hbar, xs)
    except OverflowError as exc:
        raise DomainExceeded(f"the closed forms overflow a double: {exc}") from exc
    header = ("x", "S0", "S1", "S2", "Q", "phi0", "u1", "u2", "psi")
    rows = zip(*(cols[h] for h in header))
    _emit_csv(header, rows, args.output)


def _scan_variational(model, args):
    axis = _parse_grid(args.grid)
    points = [list(p) for p in product(axis, repeat=model.dim)]
    rows = []
    for point in points:
        r = minimize_action(model, point, args.nodes, tol=args.tol)
        rows.append((*point, r.action, *r.momentum.tolist(),
                     r.hj_residual, r.ip_energy_drift, r.iterations))
    header = ([f"x{i + 1}" for i in range(model.dim)] + ["action"]
              + [f"p{i + 1}" for i in range(model.dim)]
              + ["hj_residual", "ip_energy_drift", "iterations"])
    _emit_csv(header, rows, args.output)


def _cmd_scan(args) -> int:
    model = _load_model(args.model)
    engine = args.engine
    if engine == "auto":
        engine = "closed" if builtin_kappa(model) is not None else "variational"
    if engine == "closed":
        _scan_closed(model, args)
    else:
        _scan_variational(model, args)
    return 0


def _cmd_flow(args) -> int:
    model = _load_model(args.model)
    point = _parse_list(args.point)
    provider = MomentumProvider(model, args.nodes)
    compare = None
    if not args.forward:
        compare = minimize_action(model, point, args.nodes).curve
    traj = semi_flow(model, point, provider, t_span=args.t_span,
                     compare_curve=compare, forward=args.forward)
    _emit_json(traj.to_json(), args.output)
    return 0


def _load_series(spec: str) -> list[Fraction]:
    if spec == "builtin:quartic-ground":
        return rs_expand(2, 0, 11).coefficients  # 12 exact coefficients
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read series file {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"series file {spec!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ModelFormatError("series file must hold a JSON list of rationals")
    return [parse_rational(v) for v in data]


def _cmd_resum(args) -> int:
    if not math.isfinite(args.mu):
        raise ModelFormatError(f"--mu must be finite, got {args.mu}")
    series = _load_series(args.series)
    try:
        p_text, q_text = args.pade.split(",")
        p, q = int(p_text), int(q_text)
    except ValueError as exc:
        raise ModelFormatError(
            f"bad --pade {args.pade!r}, expected 'p,q'") from exc
    kappa = args.kappa
    if args.series == "builtin:quartic-ground" and kappa is None:
        kappa = 2
    result = resum_series(series, args.mu, p, q, kappa=kappa,
                          n=args.n if kappa is not None else None,
                          basis_size=args.basis)
    _emit_json(result.to_json(), args.output)
    return 0


def _cmd_sternberg(args) -> int:
    model = _load_model(args.model)
    action = solve_hj_formal(model, args.degree + 1)
    smap = sternberg_linearize(action, args.degree)
    residual = sternberg_residual(smap, action)
    _emit_json({
        "degree": args.degree,
        "components": [comp.to_json() for comp in smap.mu],
        "residual_is_zero": all(r.is_zero() for r in residual),
    }, args.output)
    return 0


def _cmd_check_model(args) -> int:
    model = _load_model(args.model)
    box = None
    if args.box:
        try:
            lo_text, hi_text = args.box.split(":")
            box = [(float(lo_text), float(hi_text))] * model.dim
        except ValueError as exc:
            raise ModelFormatError(
                f"bad --box {args.box!r}, expected 'lo:hi'") from exc
    report = check_hypotheses(model, sample_box=box)
    _emit_json({
        "model": model.to_json(),
        "omega_min": format_rational(model.omega_min),
        "anharmonic_degree": model.anharmonic_degree(),
        "kappa": builtin_kappa(model),
        "hypotheses": report.to_json(),
    }, args.output)
    return 0


# -- parser ---------------------------------------------------------------

@functools.cache  # parse_args leaves the parser unchanged, so build it once
def build_parser() -> _Parser:
    parser = _Parser(prog="anharmonic",
                     description="Semiclassical expansions for nonlinear "
                                 "quantum oscillators")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def add_common(p):
        p.add_argument("--output", help="write result to this file")

    p = sub.add_parser("expand-ground", help="ground-state energy expansion")
    p.add_argument("--model", required=True,
                   help=f"model JSON path or builtin:{{{','.join(sorted(BUILTIN_KAPPA))}}}")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--trunc", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_expand_ground)

    p = sub.add_parser("expand-excited", help="excited-level gap expansion")
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--levels", required=True,
                   help="comma-separated quantum numbers m1,...,mn")
    p.add_argument("--trunc", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_expand_excited)

    p = sub.add_parser("rs", help="Rayleigh-Schrodinger coefficient table")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(func=_cmd_rs)

    p = sub.add_parser("compare",
                       help="transport vs Rayleigh-Schrodinger comparison")
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--n", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("variational", help="numerical action minimization")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True, help="target x1,...,xn")
    p.add_argument("--nodes", type=int, default=NODES,
                   help="polynomial degree N of the curve")
    p.add_argument("--tol", type=float, default=1e-10)
    add_common(p)
    p.set_defaults(func=_cmd_variational)

    p = sub.add_parser("scan", help="CSV sweep over a coordinate grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True, help="start:stop:count")
    p.add_argument("--engine", choices=("auto", "closed", "variational"),
                   default="auto")
    p.add_argument("--n", type=int, default=0, help="closed engine: level")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--nodes", type=int, default=NODES,
                   help="polynomial degree N of the curve")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("flow", help="gradient semi-flow trajectory")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--t-span", type=float, default=None)
    p.add_argument("--nodes", type=int, default=NODES,
                   help="polynomial degree N of the curve")
    p.add_argument("--forward", action="store_true",
                   help="integrate forward (escape detection)")
    add_common(p)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("resum", help="Borel-Pade resummation")
    p.add_argument("--series", required=True,
                   help="JSON list file or builtin:quartic-ground")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--pade", default="5,5", help="'p,q'")
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--basis", type=int, default=200)
    add_common(p)
    p.set_defaults(func=_cmd_resum)

    p = sub.add_parser("sternberg", help="formal linearizing coordinates")
    p.add_argument("--model", required=True)
    p.add_argument("--degree", type=int, default=7)
    add_common(p)
    p.set_defaults(func=_cmd_sternberg)

    p = sub.add_parser("check-model",
                       help="validate a model and its hypotheses")
    p.add_argument("--model", required=True)
    p.add_argument("--box", default=None, help="sample box 'lo:hi'")
    add_common(p)
    p.set_defaults(func=_cmd_check_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EngineError as exc:
        print(json.dumps(exc.to_json()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
