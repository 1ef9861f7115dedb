"""Command-line front end for the oscillator-expansion engines.

Exit codes: 0 success, 1 usage error, 2 engine error (a machine-readable
JSON error object is printed to stderr).  Exit 2 also covers an option
value that is malformed or out of range, rejected while the arguments are
parsed, and an ``--output`` file that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from itertools import product

from .errors import (DomainExceeded, EngineError, ModelFormatError,
                     OrderTooHigh, UnsupportedKappa)
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

    def exit(self, status=0, message=None):
        super().exit(min(status, 1), message)


# -- option converters ----------------------------------------------------------
# Each ``type=`` converter raises ModelFormatError, never ValueError: argparse
# would turn a ValueError into a usage error (exit 1), while a bad value
# must exit 2 with one JSON line like every other bad input.  ``main`` parses
# inside its EngineError handler for this.

def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {what} file {path!r}: {exc}") from exc
    except ValueError as exc:  # undecodable text as well as bad JSON
        raise ModelFormatError(f"{what} file {path!r} is not valid JSON: {exc}") from exc


def _model(spec: str) -> OscillatorModel:
    if spec.startswith("builtin:"):
        return builtin_model(spec.split(":", 1)[1])
    return OscillatorModel.from_json(_read_json(spec, "model"))


def _finite(text: str, low: float = -math.inf) -> float:
    value = float(text)
    if not low < value < math.inf:  # false for NaN as well
        raise ValueError(f"{value} is out of range")
    return value


def _parse(option: str, form: str, sep: str | None, *kinds):
    """The converter of ``option``: one value of ``kinds[0]`` if ``sep`` is
    None, else ``sep``-separated values, one per entry of ``kinds`` or, for
    a single kind, any number."""
    def convert(text: str):
        parts = [text] if sep is None else text.split(sep)
        types = kinds * len(parts) if len(kinds) == 1 else kinds
        try:
            if len(parts) != len(types):
                raise ValueError(f"{len(parts)} fields")
            values = [kind(part) for kind, part in zip(types, parts)]
        except ValueError as exc:
            raise ModelFormatError(
                f"bad {option} {text!r}, expected {form}: {exc}") from exc
        return values[0] if sep is None else values
    return convert


def _grid(text: str) -> list[float]:
    """'start:stop:count' -> list of floats."""
    start, stop, count = _parse("--grid", "start:stop:count", ":",
                                _finite, _finite, int)(text)
    if count < 1:
        raise ModelFormatError("grid count must be >= 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _write(report, path: str | None) -> None:
    """A dict as indented JSON, a (header, rows) pair as CSV, to ``path``
    or stdout; then a report's status line, if any, to stderr."""
    text = io.StringIO()
    if isinstance(report, dict):
        print(json.dumps(report, indent=2), file=text)
    else:
        csv.writer(text).writerows([report[0], *report[1]])
    if path:
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text.getvalue())
        except OSError as exc:
            raise ModelFormatError(f"cannot write output file {path!r}: {exc}") from exc
    else:
        sys.stdout.write(text.getvalue())
    if isinstance(report, dict) and "status" in report:  # compare's verdict
        print(report["status"], file=sys.stderr)


def _require_kappa(model: OscillatorModel) -> int:
    kappa = builtin_kappa(model)
    if kappa is None:
        raise UnsupportedKappa(
            "this subcommand needs a 1D model with potential "
            "(1/2) m w^2 x^2 + g x^(2 kappa)")
    return kappa


# -- subcommand handlers ------------------------------------------------------
# Each returns its report: a dict is written as JSON, a (header, rows) pair
# as CSV.  A truncation derived from an option uses max(option, 1), so a bad
# value reaches the engine check that names it as passed.

def _cmd_expand_ground(args):
    trunc = args.trunc if args.trunc is not None else 2 * max(args.order, 1) + 2
    action = solve_hj_formal(args.model, trunc)
    return ground_report(ground_expansion(action, args.order))


def _cmd_expand_excited(args):
    order = max(args.order, 1)  # order 0 still needs the ground to order 1
    trunc = (args.trunc if args.trunc is not None
             else 2 * order + max(sum(args.levels), 1) + 2)
    action = solve_hj_formal(args.model, trunc)
    ground = ground_expansion(action, order)
    excited = excited_expansion(ground, args.levels, args.order)
    return excited_report(ground, excited)


def _cmd_rs(args):
    rs = rs_expand(args.kappa, args.n, args.order)
    if args.format == "csv":
        return ("order", "coefficient", "float"), [
            (k, format_rational(c), float(c)) for k, c in enumerate(rs.coefficients)]
    return rs.to_json()


def _cmd_compare(args):
    kappa = _require_kappa(args.model)
    if args.order < 0:
        raise OrderTooHigh(f"order must be >= 0, got {args.order}")
    # RS validates kappa and n before any transport work
    rs = rs_expand(kappa, args.n, args.order // (kappa - 1))
    # the comparison lives in the dimensionless coupling, so normalize g = 1
    normalized = kappa_model(kappa)
    # the ground energy list covers hbar orders 0..K-1, so solve one deeper;
    # only energies are read, so S_0 goes just as deep as both hierarchies need
    action = solve_hj_formal(normalized, 2 * args.order + max(2, args.n + 1))
    ground = ground_expansion(action, args.order + 1)
    if args.n == 0:
        series = energy_series(ground)
    else:
        excited = excited_expansion(ground, [args.n], args.order)
        series = total_energy_series(ground, excited)
    report = compare_with_transport(rs, series)
    report["requested_order"] = args.order
    if report["agree"]:
        report["status"] = f"AGREE through order {args.order}"
    else:
        report["status"] = (
            f"MISMATCH at order {report['first_mismatch']['hbar_order']}")
    return report


def _cmd_variational(args):
    return minimize_action(args.model, args.point, args.nodes).to_json()


def _cmd_scan(args):
    model, engine = args.model, args.engine
    if engine == "auto":
        engine = "closed" if builtin_kappa(model) is not None else "variational"
    if engine == "closed":
        g = float(next(model.anharmonic.items())[1])
        closed = Kappa1DModel(mass=float(model.mass), omega0=float(model.omega[0]),
                              g=g, kappa=_require_kappa(model))
        try:
            cols = wavefunction_factors(closed, args.n, args.hbar, args.grid)
        except OverflowError as exc:
            raise DomainExceeded(f"the closed forms overflow a double: {exc}") from exc
        header = ("x", "S0", "S1", "S2", "Q", "phi0", "u1", "u2", "psi")
        return header, zip(*(cols[h] for h in header))
    provider = MomentumProvider(model, args.nodes)
    rows = []
    for point in product(args.grid, repeat=model.dim):
        r = provider.minimize(point)
        rows.append((*point, r.action, *r.momentum.tolist(),
                     r.hj_residual, r.ip_energy_drift, r.iterations))
    header = ([f"x{i + 1}" for i in range(model.dim)] + ["action"]
              + [f"p{i + 1}" for i in range(model.dim)]
              + ["hj_residual", "ip_energy_drift", "iterations"])
    return header, rows


def _cmd_flow(args):
    return semi_flow(args.model, args.point, args.nodes, args.t_span,
                     args.forward).to_json()


def _cmd_resum(args):
    kappa = args.kappa
    if args.series == "builtin:quartic-ground":
        if kappa not in (None, 2):
            raise UnsupportedKappa(
                f"builtin:quartic-ground is the quartic (kappa = 2) series, "
                f"got --kappa {kappa}")
        series = rs_expand(2, 0, 11).coefficients  # 12 exact coefficients
        kappa = 2
    else:
        series = _read_json(args.series, "series")
        if not isinstance(series, list):
            raise ModelFormatError("series file must hold a JSON list of rationals")
        for i, value in enumerate(series):
            try:
                series[i] = parse_rational(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ModelFormatError(
                    f"series entry {i}, {json.dumps(value)}, is not a rational",
                    index=i) from exc
    result = resum_series(series, args.mu, *args.pade, kappa=kappa,
                          n=args.n if kappa is not None else None,
                          basis_size=args.basis)
    return result.to_json()


def _cmd_sternberg(args):
    action = solve_hj_formal(args.model, max(args.degree, 1) + 1)
    smap = sternberg_linearize(action, args.degree)
    residual = sternberg_residual(smap, action)
    return {
        "degree": args.degree,
        "components": [comp.to_json() for comp in smap.mu],
        "residual_is_zero": all(r.is_zero() for r in residual),
    }


def _cmd_check_model(args):
    model = args.model
    box = [args.box] * model.dim if args.box else None
    return {
        "model": model.to_json(),
        "omega_min": format_rational(model.omega_min),
        "anharmonic_degree": model.anharmonic_degree(),
        "kappa": builtin_kappa(model),
        "hypotheses": check_hypotheses(model, sample_box=box).to_json(),
    }


# -- parser ---------------------------------------------------------------

@functools.cache  # parse_args leaves the parser unchanged, so build it once
def build_parser() -> _Parser:
    parser = _Parser(prog="anharmonic",
                     description="Semiclassical expansions for nonlinear "
                                 "quantum oscillators")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def command(name, handler, help, model=True):
        p = sub.add_parser(name, help=help)
        if model:
            p.add_argument("--model", required=True, type=_model,
                           help="model JSON path or "
                                f"builtin:{{{','.join(sorted(BUILTIN_KAPPA))}}}")
        p.add_argument("--output", help="write result to this file")
        p.set_defaults(func=handler)
        return p

    point = _parse("--point", "x1,...,xn", ",", _finite)
    positive = functools.partial(_finite, low=0.0)
    nodes = {"type": int, "default": NODES,
             "help": "polynomial degree N of the curve"}

    p = command("expand-ground", _cmd_expand_ground,
                "ground-state energy expansion")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--trunc", type=int, default=None)

    p = command("expand-excited", _cmd_expand_excited,
                "excited-level gap expansion")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--levels", required=True,
                   type=_parse("--levels", "m1,...,mn", ",", int),
                   help="comma-separated quantum numbers m1,...,mn")
    p.add_argument("--trunc", type=int, default=None)

    p = command("rs", _cmd_rs, "Rayleigh-Schrodinger coefficient table",
                model=False)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("compare", _cmd_compare,
                "transport vs Rayleigh-Schrodinger comparison")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--n", type=int, default=0)

    p = command("variational", _cmd_variational,
                "numerical action minimization")
    p.add_argument("--point", required=True, type=point,
                   help="target x1,...,xn")
    p.add_argument("--nodes", **nodes)

    p = command("scan", _cmd_scan, "CSV sweep over a coordinate grid")
    p.add_argument("--grid", required=True, type=_grid,
                   help="start:stop:count")
    p.add_argument("--engine", choices=("auto", "closed", "variational"),
                   default="auto")
    p.add_argument("--n", type=int, default=0, help="closed engine: level")
    p.add_argument("--hbar", type=_parse("--hbar", "a number > 0", None, positive),
                   default=1.0)
    p.add_argument("--nodes", **nodes)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; has no effect")

    p = command("flow", _cmd_flow, "gradient semi-flow trajectory")
    p.add_argument("--point", required=True, type=point)
    p.add_argument("--t-span", type=_parse("--t-span", "a number > 0", None, positive),
                   default=None)
    p.add_argument("--nodes", **nodes)
    p.add_argument("--forward", action="store_true",
                   help="integrate forward (escape detection)")

    p = command("resum", _cmd_resum, "Borel-Pade resummation", model=False)
    p.add_argument("--series", required=True,
                   help="JSON list file or builtin:quartic-ground")
    p.add_argument("--mu", type=_parse("--mu", "a finite number", None, _finite),
                   required=True)
    p.add_argument("--pade", type=_parse("--pade", "p,q", ",", int, int),
                   default=(5, 5), help="'p,q'")
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--basis", type=int, default=200)

    p = command("sternberg", _cmd_sternberg, "formal linearizing coordinates")
    p.add_argument("--degree", type=int, default=7)

    p = command("check-model", _cmd_check_model,
                "validate a model and its hypotheses")
    p.add_argument("--box", type=_parse("--box", "lo:hi", ":", _finite, _finite),
                   default=None, help="sample box 'lo:hi'")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _write(args.func(args), args.output)
    except SystemExit as exc:  # usage errors and --help, from parse_args
        return int(exc.code or 0)
    except EngineError as exc:
        print(json.dumps(exc.to_json(), allow_nan=False), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
