"""Command-line front end.

Subcommands: builtin, validate, verify, bound, certify, oracle, render.
Machine output (JSON, or the bare rational for ``bound``) goes to stdout
or --out; diagnostics go to stderr.  Exit codes: 0 verified/success,
1 refuted, 2 invalid input or usage, 3 guardrail, 4 internal error.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
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
_SYSTEM_KEYS = ("D", "multiplicities", "points", "seed")


def _load_dissection(ref: str) -> dissection.Dissection:
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name not in _BUILTINS:
            raise ValueError(f"unknown builtin dissection {name!r}")
        return _BUILTINS[name]()
    import json  # only a file is parsed
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


def _cmd_builtin(args) -> int:
    dis = _load_dissection("builtin:" + args.name)
    _emit(dissection.dump_json(dissection.dissection_to_json(dis)), args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    report = dissection.validate_dissection(_load_dissection(args.dissection))
    _emit(dissection.dump_json(report.to_json()), args.out)
    return EXIT_OK if report.ok else EXIT_REFUTED


def _cmd_verify(args) -> int:
    report = dissection.verify_asymptotic(_load_dissection(args.dissection), args.m)
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
        c = certify.finite_certificate(dis, args.n, oracle_mode=args.oracle, seed=args.seed)
    except certify.EmptyPolygonAtScale as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    _emit(dissection.dump_json(c.to_json()), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .lattice import LatticeSet, MultiplicitySpec
    from .oracle import (GenericPointSet, MODULAR_DEFAULT_PRIME,
                         system_dimension_exact, system_dimension_modp)
    for option in ("prime", "seed"):
        if getattr(args, option) is not None and args.mode == "exact":
            raise ValueError(f"--{option} is honoured only by --mode modular; "
                             "--mode exact ranks over the rationals")
    import json
    try:
        with open(args.system, "r", encoding="utf-8") as fh:
            data = field("system file", json.load(fh), dict)
        for key in data:
            if key not in _SYSTEM_KEYS:
                raise ValueError(f"unknown key {key!r}, not one of {_SYSTEM_KEYS}")
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
    verdict = (system_dimension_exact(D, spec, points=points) if args.mode == "exact"
               else system_dimension_modp(D, spec, seed=seed, prime=prime))
    _emit(dissection.dump_json(verdict.to_json()), args.out)
    return EXIT_OK if verdict.non_special else EXIT_REFUTED


def _cmd_render(args) -> int:
    from .render import RenderSpec, render_svg
    dis = _load_dissection(args.dissection)
    spec = RenderSpec(size=args.size, labels=not args.no_labels)
    # the table names eckl10's vertices: label by equality, not by name
    eckl10 = dis == dissection.builtin_dissection_eckl10()
    names = dissection.BUILTIN_POINT_TABLE if eckl10 else None
    _emit(render_svg(dis, spec, point_names=names), args.out)
    return EXIT_OK


class _OneOf(tuple):
    """The values an option allows; called on a value, it checks it."""
    def __call__(self, value: str) -> str:
        if value not in self:
            raise ValueError("not one of " + ", ".join(self))
        return value


# command -> (handler, summary, options); an option is (name, kind, default),
# where kind converts the value, or is None for a flag, which takes no value,
# and a default of ... makes the option required
_DISSECTION, _OUT = ("--dissection", str, ...), ("--out", str, None)
_COMMANDS = {
    "builtin": (_cmd_builtin, "write a builtin dissection as JSON",
                (("--name", str, ...), _OUT)),
    "validate": (_cmd_validate, "structurally validate a dissection", (_DISSECTION, _OUT)),
    "verify": (_cmd_verify, "verify a target ratio m against a dissection",
               (_DISSECTION, ("--m", parse_rational, ...), _OUT)),
    "bound": (_cmd_bound, "print the certified ratio of a dissection", (_DISSECTION, _OUT)),
    "certify": (_cmd_certify, "generate a finite certificate at scale n",
                (_DISSECTION, ("--n", int, ...), ("--oracle", _OneOf(_ORACLE_MODES), "modular"),
                 ("--seed", int, 0), _OUT)),
    "oracle": (_cmd_oracle, "run the rank oracle on a system file",
               (("--system", str, ...), ("--mode", _OneOf(("exact", "modular")), "exact"),
                ("--seed", int, None), ("--prime", int, None), _OUT)),
    "render": (_cmd_render, "render a dissection to SVG",
               (_DISSECTION, ("--out", str, ...), ("--size", int, 600),
                ("--no-labels", None, False))),
}


def _synopsis(command: str, width: int = 0) -> str:
    words = [f"seshadri {command:<{width}}"]
    for name, kind, default in _COMMANDS[command][2]:
        if kind is not None:
            name += " " + ("|".join(kind) if type(kind) is _OneOf else name[2:].upper())
        words.append(name if default is ... else f"[{name}]")
    return " ".join(words)


def _help(command: Optional[str]) -> str:
    """What ``--help`` prints: of every command when ``command`` is None."""
    if command is None:
        return ("Exact certificates for multi-point Seshadri lower bounds on the projective "
                "plane.\n\n" + "".join(_synopsis(c, 8) + "\n" for c in _COMMANDS)
                + "\nDISSECTION is a JSON file or builtin:eckl10; M is a rational p/q.\n")
    defaults = [f"{name} {default}" for name, kind, default in _COMMANDS[command][2]
                if kind and default not in (None, ...)]
    return (f"usage: {_synopsis(command)}\n\n{_COMMANDS[command][1]}\n"
            + (f"defaults: {', '.join(defaults)}\n" if defaults else ""))


def _parse(argv):
    """(command, args) of argv; args None asks for help, of every command if command is None."""
    if argv[:1] in (["-h"], ["--h"], ["--he"], ["--hel"], ["--help"]):
        return None, None
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError((f"unknown command {argv[0]!r}" if argv else "no command")
                         + "; one of " + ", ".join(_COMMANDS))
    options = {option[0]: option for option in _COMMANDS[argv[0]][2]}
    values, items = {}, iter(argv[1:])
    for item in items:
        if not item.startswith("-"):
            raise ValueError(f"unexpected argument {item!r}")
        given, eq, value = ("--help" if item == "-h" else item).partition("=")
        names = [given] if given in options else [
            name for name in (*options, "--help") if name.startswith(given)]
        if len(names) != 1:
            raise ValueError(f"ambiguous option {given!r}: {', '.join(names)}"
                             if names else f"unknown option {given!r}")
        if names == ["--help"]:
            return argv[0], None
        name, kind, _ = options[names[0]]
        if not eq:
            value = None if kind is None else next(items, None)
        if (value is None) != (kind is None):
            raise ValueError(f"{name} needs a value" if kind
                             else f"{name} takes no value, given {value!r}")
        try:
            values[name] = True if kind is None else kind(value)
        except ValueError as exc:
            raise ValueError(f"{name} {value!r}: {exc}") from None
    missing = [name for name, _, default in options.values()
               if default is ... and name not in values]
    if missing:
        raise ValueError("missing required option " + ", ".join(missing))
    return argv[0], SimpleNamespace(**{name[2:].replace("-", "_"): values.get(name, default)
                                       for name, _, default in options.values()})


def run(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            sys.stdout.write(_help(command))
            return EXIT_OK
        return _COMMANDS[command][0](args)
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
