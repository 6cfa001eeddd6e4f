"""Command-line surface: counting, enumeration, transforms, verification.

Subcommands::

    count         exact count of boundary-constrained unit paths
    koroljuk      two-letter walk intersection count (literal/reduced/both)
    bohm          positive-altitude walk count
    niederhausen  strict count above y = k*(x - d)
    enumerate     list the paths of a query, one step string per line
    transform     apply a path correspondence to an explicit path
    verify        run the acceptance sweeps (sweep | identities | bijections)

All numeric output is exact decimal.  Exit codes: 0 success, 1 verification
failure (a mismatch or a failing sweep), 2 invalid input.  Diagnostics and
domain warnings go to standard error; results go to standard output and,
with --out PATH, to a file as well.  --json switches every subcommand to a
single JSON document {command, parameters, result, ok}.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from fractions import Fraction

from .errors import DEFAULT_SEED, ResourceLimitError, ValidationError
from .formulas import bohm, count, koroljuk_literal, koroljuk_reduced, niederhausen
from .model import (
    BohmQuery,
    BoundaryLine,
    KoroljukQuery,
    LatticePath,
    NiederhausenQuery,
    PathQuery,
    QueryCategory,
    SlopeKind,
    StepSet,
    Strictness,
    validate_query,
)
from .oracle import dp_count, enumerate_paths

# The correspondences and the sweeps are imported by the subcommands that
# use them, so that a count process does not load them.


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _parse_point(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in 'x,y', got {text!r}") from None


def _parse_slope(text: str) -> tuple[SlopeKind, int]:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            if int(num) != 1:
                raise ValueError
            return (SlopeKind.INVERSE, int(den))
        return (SlopeKind.INTEGER, int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer k or 1/k, got {text!r}"
        ) from None


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument("--out", metavar="PATH", help="also write the output to a file")


# The flags of count, enumerate and transform that take a possibly negative value.
_QUERY_FLAGS = ("--from", "--to", "--intercept", "--slope")


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--slope", type=_parse_slope, required=True,
                        help="boundary slope: integer k or 1/k")
    parser.add_argument("--intercept", type=_parse_rational, default=Fraction(0),
                        help="intercept parameter r of y = slope*x - r (rational, default 0)")
    parser.add_argument("--from", dest="start", type=_parse_point, default=(0, 0),
                        metavar="A,B", help="start point (default 0,0)")
    parser.add_argument("--to", dest="end", type=_parse_point, required=True,
                        metavar="M,N", help="end point")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--weak", dest="strictness", action="store_const",
                      const=Strictness.WEAK, help="paths may touch the line")
    mode.add_argument("--strict", dest="strictness", action="store_const",
                      const=Strictness.STRICT, help="paths stay strictly above the line")


def _emit(args: argparse.Namespace, text: str, parameters: dict, result: object,
          ok: bool = True, show_empty: bool = False) -> int:
    """Print ``text``, or with --json the document {command, parameters,
    result, ok}; with --out, write the same output to a file first."""
    output = text
    if args.json:
        import json
        command = " ".join(filter(None, (args.command, getattr(args, "verify_command", None))))
        output = json.dumps({"command": command, "parameters": parameters,
                             "result": result, "ok": ok})
    visible = bool(output) or (show_empty and not args.json)
    # The file first: when it cannot be written, nothing reaches stdout.
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output + "\n" if visible else "")
    if visible:
        print(output)
    return 0 if ok else 1


def _build_query(args: argparse.Namespace) -> PathQuery:
    kind, k = args.slope
    line = BoundaryLine(kind, k, args.intercept)
    return PathQuery(args.start[0], args.start[1], args.end[0], args.end[1],
                     line, args.strictness)


def _query_parameters(q: PathQuery) -> dict:
    slope = str(q.boundary.k) if q.boundary.kind is SlopeKind.INTEGER else f"1/{q.boundary.k}"
    return {
        "slope": slope,
        "intercept": str(q.boundary.r),
        "from": list((q.a, q.b)),
        "to": list((q.m, q.n)),
        "strictness": q.strictness.value,
    }


def _validate_or_warn(q: PathQuery) -> bool:
    """Exit-worthy check: False for boundary-invalid queries; EXTENDED
    queries only warn on the error stream."""
    verdict = validate_query(q)
    if verdict.category is QueryCategory.INVALID:
        print(f"error: invalid query: {verdict.reason}", file=sys.stderr)
        return False
    if verdict.category is QueryCategory.EXTENDED:
        print(
            f"warning: query outside the documented condition block "
            f"({verdict.reason}); answering anyway",
            file=sys.stderr,
        )
    return True


def _cmd_count(args: argparse.Namespace) -> int:
    q = _build_query(args)
    if not _validate_or_warn(q):
        return 2
    value = count(q)
    parameters = _query_parameters(q)
    if args.oracle:
        oracle_value = dp_count(q)
        match = value == oracle_value
        text = f"{value} {oracle_value} {'match' if match else 'mismatch'}"
        result = {"count": value, "oracle": oracle_value, "match": match}
        return _emit(args, text, parameters, result, match)
    return _emit(args, str(value), parameters, value)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    q = _build_query(args)
    if not _validate_or_warn(q):
        return 2
    paths = enumerate_paths(q)
    lines = [path.encode() for path in paths]
    return _emit(args, "\n".join(lines), _query_parameters(q), lines, show_empty=bool(lines))


def _cmd_koroljuk(args: argparse.Namespace) -> int:
    q = KoroljukQuery(args.p, args.c, args.m, args.n)
    parameters = {"p": q.p, "c": q.c, "m": q.m, "n": q.n, "form": args.form}
    if args.form == "both":
        literal = koroljuk_literal(q)
        reduced = koroljuk_reduced(q)
        agree = literal == reduced
        text = f"{literal} {reduced} {'agree' if agree else 'disagree'}"
        result = {"literal": literal, "reduced": reduced, "agree": agree}
        return _emit(args, text, parameters, result, agree)
    value = koroljuk_literal(q) if args.form == "literal" else koroljuk_reduced(q)
    return _emit(args, str(value), parameters, value)


def _cmd_bohm(args: argparse.Namespace) -> int:
    q = BohmQuery(args.rise, args.start, args.end, args.ups)
    value = bohm(q)
    parameters = {"rise": q.rise, "start": q.start_alt, "end": q.end_alt, "ups": q.ups}
    return _emit(args, str(value), parameters, value)


def _cmd_niederhausen(args: argparse.Namespace) -> int:
    q = NiederhausenQuery(args.k, args.d, args.m, args.n)
    value = niederhausen(q)
    return _emit(args, str(value), {"k": q.k, "d": str(q.d), "m": q.m, "n": q.n}, value)


def _require_flags(args: argparse.Namespace, names: Sequence[str]) -> None:
    missing = [name for name in names if getattr(args, name.lstrip("-").replace("-", "_"), None) is None]
    if missing:
        raise ValidationError(
            f"--map {args.map} needs {', '.join(names)}"
        )


def _cmd_transform(args: argparse.Namespace) -> int:
    from .bijections import (
        bohm_rotate,
        drop_one,
        koroljuk_to_unit,
        lemma_translate,
        reflect_inverse,
        unit_to_koroljuk,
    )

    if args.map in ("drop-one", "lemma-translate", "reflect-inverse"):
        _require_flags(args, ["--slope"])
        kind, k = args.slope
        line = BoundaryLine(kind, k, args.intercept if args.intercept is not None else 0)
        path = LatticePath.decode(args.path, StepSet.unit(), args.start)
        if args.map == "drop-one":
            image = drop_one(path, line)
        elif args.map == "lemma-translate":
            image = lemma_translate(path, line)
        else:
            image = reflect_inverse(path, line)
    elif args.map in ("koroljuk-to-unit", "bohm-rotate"):
        _require_flags(args, ["--p", "--c"])
        path = LatticePath.decode(args.path, StepSet.koroljuk(args.p))
        image = (koroljuk_to_unit if args.map == "koroljuk-to-unit" else bohm_rotate)(
            path, args.c
        )
    else:  # unit-to-koroljuk
        _require_flags(args, ["--p", "--c"])
        path = LatticePath.decode(args.path, StepSet.unit())
        image = unit_to_koroljuk(path, args.p, args.c, args.intercept)
    steps = image.encode()
    text = f"{steps or '(empty)'} @ ({image.start[0]},{image.start[1]})"
    return _emit(args, text, {"map": args.map, "path": args.path},
                 {"steps": steps, "start": list(image.start)})


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_bijections, run_identities, run_sweep

    if args.verify_command == "sweep":
        summary = run_sweep(args.max_k, args.max_extent)
        parameters = {"max_k": args.max_k, "max_extent": args.max_extent}
    elif args.verify_command == "identities":
        summary = run_identities(args.trials, args.seed)
        parameters = {"trials": args.trials, "seed": args.seed}
    else:
        summary = run_bijections(args.max_steps)
        parameters = {"max_steps": args.max_steps}
    result = {
        "checks": summary.checks,
        "failures": summary.failures,
        "first_failure": summary.first_failure,
    }
    return _emit(args, summary.line(f"verify {args.verify_command}"), parameters, result,
                 summary.ok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticepaths",
        description="Exact enumeration of lattice paths constrained by linear boundaries.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_count = commands.add_parser("count", help="count the paths of a query")
    _add_query_flags(p_count)
    p_count.add_argument("--oracle", action="store_true",
                         help="also run the dynamic-programming oracle and compare")
    _add_output_flags(p_count)
    p_count.set_defaults(handler=_cmd_count)

    p_enum = commands.add_parser("enumerate", help="list the paths of a query")
    _add_query_flags(p_enum)
    _add_output_flags(p_enum)
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_kor = commands.add_parser("koroljuk", help="walks meeting x = c")
    p_kor.add_argument("--p", type=int, required=True, help="back-step length")
    p_kor.add_argument("--c", type=int, required=True, help="avoided abscissa")
    p_kor.add_argument("--m", type=int, required=True, help="number of (1,1) steps")
    p_kor.add_argument("--n", type=int, required=True, help="number of (-p,1) steps")
    p_kor.add_argument("--form", choices=("literal", "reduced", "both"),
                       default="reduced", help="which sum to evaluate (default reduced)")
    _add_output_flags(p_kor)
    p_kor.set_defaults(handler=_cmd_koroljuk)

    p_bohm = commands.add_parser("bohm", help="positive-altitude walks")
    p_bohm.add_argument("--rise", type=int, required=True, help="up-step rise")
    p_bohm.add_argument("--start", type=int, required=True, help="start altitude")
    p_bohm.add_argument("--end", type=int, required=True, help="end altitude")
    p_bohm.add_argument("--ups", type=int, required=True, help="number of up steps")
    _add_output_flags(p_bohm)
    p_bohm.set_defaults(handler=_cmd_bohm)

    p_nied = commands.add_parser("niederhausen", help="strict count above y = k*(x-d)")
    p_nied.add_argument("--k", type=int, required=True, help="slope")
    p_nied.add_argument("--d", type=_parse_rational, required=True,
                        help="horizontal offset d (rational, k*d integral)")
    p_nied.add_argument("--m", type=int, required=True, help="end abscissa")
    p_nied.add_argument("--n", type=int, required=True, help="end ordinate")
    _add_output_flags(p_nied)
    p_nied.set_defaults(handler=_cmd_niederhausen)

    p_tr = commands.add_parser("transform", help="apply a path correspondence")
    p_tr.add_argument("--map", required=True,
                      choices=("drop-one", "lemma-translate", "reflect-inverse",
                               "koroljuk-to-unit", "unit-to-koroljuk", "bohm-rotate"),
                      help="which correspondence to apply")
    p_tr.add_argument("--path", required=True,
                      help="input step string (H/V or U/D; may be empty)")
    p_tr.add_argument("--slope", type=_parse_slope, help="boundary slope for the unit-path maps")
    p_tr.add_argument("--intercept", type=_parse_rational, default=None,
                      help="boundary intercept (unit-path maps, default 0; "
                      "optional cross-check for unit-to-koroljuk)")
    p_tr.add_argument("--from", dest="start", type=_parse_point, default=(0, 0),
                      metavar="A,B", help="input path start (unit-path maps; default 0,0)")
    p_tr.add_argument("--p", type=int, help="walk back-step length")
    p_tr.add_argument("--c", type=int, help="avoided abscissa")
    _add_output_flags(p_tr)
    p_tr.set_defaults(handler=_cmd_transform)

    p_ver = commands.add_parser("verify", help="run the acceptance sweeps")
    verify_commands = p_ver.add_subparsers(dest="verify_command", required=True)

    p_sweep = verify_commands.add_parser("sweep", help="closed forms vs oracle")
    p_sweep.add_argument("--max-k", type=int, default=3, help="largest slope (default 3)")
    p_sweep.add_argument("--max-extent", type=int, default=8,
                         help="largest end ordinate (default 8; 0 means an empty grid)")
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(handler=_cmd_verify)

    p_ident = verify_commands.add_parser("identities", help="identity grids and random checks")
    p_ident.add_argument("--trials", type=int, default=1000,
                         help="random convolution-identity trials (default 1000; "
                         "half as many upper-negation pairs)")
    p_ident.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help=f"random seed (default {DEFAULT_SEED})")
    _add_output_flags(p_ident)
    p_ident.set_defaults(handler=_cmd_verify)

    p_bij = verify_commands.add_parser("bijections", help="transform suites")
    p_bij.add_argument("--max-steps", type=int, default=10,
                       help="largest instance size in steps (default 10)")
    _add_output_flags(p_bij)
    p_bij.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Counts print in full, however many digits they have: lift Python's
    # int-to-string limit (where the interpreter has one) while main runs.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _run(argv)
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _run(argv)
    finally:
        set_limit(previous)


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as -1,0 or -1/3 after a flag as a flag, but
    # --from=-1,0 as a value: join each such value to its query flag.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i][:1] == "-" and argv[i][1:2].isdigit() and argv[i - 1] in _QUERY_FLAGS:
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        return args.handler(args)
    except (ValidationError, ResourceLimitError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
