"""Command-line front end.

Subcommands: builtin, validate, verify, bound, certify, oracle, render.
Machine output (JSON, or the bare rational for ``bound``) goes to stdout
or --out; diagnostics go to stderr.  Exit codes: 0 verified/success,
1 refuted, 2 invalid input, 3 guardrail, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

# the asymptotic commands need only this; certify, oracle and render
# import the rest of the package when they run
from . import dissection
from ._input import _ORACLE_MODES, SizeGuardrail, field, parse_rational

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INVALID = 2
EXIT_GUARDRAIL = 3
EXIT_INTERNAL = 4

_BUILTINS = {"eckl10": dissection.builtin_dissection_eckl10}


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_dissection(ref: str) -> dissection.Dissection:
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name not in _BUILTINS:
            raise ValueError(f"unknown builtin dissection {name!r}")
        return _BUILTINS[name]()
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            return dissection.dissection_from_json(json.load(fh))
    except OSError as exc:
        raise ValueError(f"cannot read dissection file: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed dissection file: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file: {exc}") from None
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seshadri",
        description="Exact certificates for multi-point Seshadri lower bounds "
                    "on the projective plane")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("builtin", help="write a builtin dissection as JSON")
    p.add_argument("--name", required=True)
    p.add_argument("--out")

    p = sub.add_parser("validate", help="structurally validate a dissection")
    p.add_argument("--dissection", required=True)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="verify a target ratio m against a dissection")
    p.add_argument("--dissection", required=True)
    p.add_argument("--m", required=True, type=_rational_arg)
    p.add_argument("--out")

    p = sub.add_parser("bound", help="print the certified ratio of a dissection")
    p.add_argument("--dissection", required=True)
    p.add_argument("--out")

    p = sub.add_parser("certify", help="generate a finite certificate at scale n")
    p.add_argument("--dissection", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--oracle", choices=_ORACLE_MODES, default="modular")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("oracle", help="run the rank oracle on a system file")
    p.add_argument("--system", required=True)
    p.add_argument("--mode", choices=["exact", "modular"], default="exact")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--prime", type=int)
    p.add_argument("--out")

    p = sub.add_parser("render", help="render a dissection to SVG")
    p.add_argument("--dissection", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=600)
    p.add_argument("--no-labels", action="store_true")

    return parser


def _cmd_builtin(args) -> int:
    dis = _load_dissection("builtin:" + args.name)
    _emit(dissection.dump_json(dissection.dissection_to_json(dis)), args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    dis = _load_dissection(args.dissection)
    report = dissection.validate_dissection(dis)
    _emit(dissection.dump_json(report.to_json()), args.out)
    return EXIT_OK if report.ok else EXIT_REFUTED


def _cmd_verify(args) -> int:
    dis = _load_dissection(args.dissection)
    report = dissection.verify_asymptotic(dis, args.m)
    _emit(dissection.dump_json(report.to_json()), args.out)
    return EXIT_OK if report.overall else EXIT_REFUTED


def _cmd_bound(args) -> int:
    dis = _load_dissection(args.dissection)
    _emit(str(dissection.certified_bound(dis)) + "\n", args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    from . import certify
    dis = _load_dissection(args.dissection)
    try:
        c = certify.finite_certificate(dis, args.n, oracle_mode=args.oracle,
                                       seed=args.seed)
    except certify.EmptyPolygonAtScale as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    _emit(dissection.dump_json(c.to_json()), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .lattice import LatticeSet, MultiplicitySpec
    from .oracle import (GenericPointSet, MODULAR_DEFAULT_PRIME,
                         system_dimension_exact, system_dimension_modp)
    try:
        with open(args.system, "r", encoding="utf-8") as fh:
            data = field("system file", json.load(fh), dict)
        D = LatticeSet.from_json(field("D", data["D"], list))
        spec = MultiplicitySpec(tuple(field("multiplicities", data["multiplicities"], list)))
        seed = field("seed", data.get("seed", 0), int) if args.seed is None else args.seed
        pts = field("points", data.get("points"), list, optional=True)
        points = None if pts is None else GenericPointSet.explicit(pts)
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed system file: {exc}") from None
    if points is not None and args.mode == "modular":
        raise ValueError("system file field 'points' is honoured only by "
                         "--mode exact; --mode modular ranks at random points")
    prime = MODULAR_DEFAULT_PRIME if args.prime is None else args.prime
    verdict = (system_dimension_exact(D, spec, points=points, seed=seed)
               if args.mode == "exact"
               else system_dimension_modp(D, spec, seed=seed, prime=prime))
    _emit(dissection.dump_json(verdict.to_json()), args.out)
    return EXIT_OK if verdict.non_special else EXIT_REFUTED


def _cmd_render(args) -> int:
    from .render import RenderSpec, render_svg
    dis = _load_dissection(args.dissection)
    spec = RenderSpec(size=args.size, labels=not args.no_labels)
    names = None
    if dis == dissection.builtin_dissection_eckl10():
        # the table names eckl10's vertices: label by equality, not by name
        names = dissection.BUILTIN_POINT_TABLE
    svg = render_svg(dis, spec, point_names=names)
    _emit(svg, args.out)
    return EXIT_OK


_HANDLERS = {
    "builtin": _cmd_builtin,
    "validate": _cmd_validate,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "render": _cmd_render,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except SizeGuardrail as exc:
        print(f"guardrail: {exc}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        # a fault of the program, not of its input: never "refuted"
        import traceback  # only a fault pays for this import
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
