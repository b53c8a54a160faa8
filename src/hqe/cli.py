"""Command-line front end: field configuration, expression evaluation,
leading terms, lifting, decomposition, elimination, decision, normal form,
and the property self-test suites."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .decomp import decompose, rv_decompose
from .errors import (
    FormulaSyntaxError,
    HQEError,
    NonEffectiveQuantifier,
    PrecisionExhausted,
    PreconditionViolated,
)
from .field import MAX_DIGIT_SPAN, Field, bounded_order
from .formula import free_vars, parse_field_term, parse_formula, print_formula
from .hensel import newton_lift
from .qe import decide, normal_form, qe, term_to_poly
from .rv import rv
from .selftest import SUITES, run_selftest
from .semantics import eval_field_term


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error raised as a syntax error: a malformed
    command line exits 1 on one stderr line, as malformed input does."""

    def error(self, message):
        raise FormulaSyntaxError(message)


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted before or after the subcommand; the
    # subcommand parsers are of the main parser's class
    common = _Parser(add_help=False)
    common.add_argument(
        "--field", choices=["laurent-q", "padic"], default=argparse.SUPPRESS
    )
    common.add_argument(
        "--p", type=int, default=argparse.SUPPRESS, help="prime for the padic backend"
    )
    common.add_argument(
        "--prec",
        type=int,
        default=argparse.SUPPRESS,
        help="working precision (default 64, or HQE_PREC)",
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    common.add_argument(
        "--retry-precision",
        action="store_true",
        default=argparse.SUPPRESS,
        help="on precision exhaustion, double the precision and retry",
    )
    ap = _Parser(
        prog="hqe",
        description="exact leading-term arithmetic and relative quantifier "
        "elimination for henselian valued fields",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a field expression", parents=[common])
    p.add_argument("expr")

    p = sub.add_parser("rv", help="leading term of an expression", parents=[common])
    p.add_argument("expr")
    p.add_argument("--order", type=int, default=0)

    p = sub.add_parser("lift", help="Newton-lift an approximate root", parents=[common])
    p.add_argument("--poly", required=True)
    p.add_argument("--from", dest="start", required=True)
    p.add_argument("--sep", type=int, default=0)

    p = sub.add_parser(
        "decompose", help="swiss-cheese decomposition of a polynomial", parents=[common]
    )
    p.add_argument("--poly", required=True)
    p.add_argument("--rv-order", type=int, default=None)

    p = sub.add_parser("qe", help="eliminate field quantifiers", parents=[common])
    p.add_argument("formula")

    p = sub.add_parser("decide", help="decide a sentence", parents=[common])
    p.add_argument("formula")

    p = sub.add_parser(
        "normal-form", help="pullback presentation of a definable set", parents=[common]
    )
    p.add_argument("formula")
    p.add_argument("--var", required=True)

    p = sub.add_parser("selftest", help="run the property suites", parents=[common])
    p.add_argument("--suite", choices=sorted(SUITES), action="append", default=None)

    return ap


def _field_of(args) -> Field:
    # Field itself takes any precision, since Newton lifting raises it
    # internally; input stays below the bound on digit vectors
    if args.prec > MAX_DIGIT_SPAN:
        raise PreconditionViolated(f"precision {args.prec} exceeds MAX_DIGIT_SPAN = {MAX_DIGIT_SPAN}")
    try:
        if args.field == "padic":
            return Field.padic(args.p, args.prec)
        return Field.laurent(args.prec)
    except ValueError as e:
        raise PreconditionViolated(str(e)) from None


def _parse_poly(field, text):
    term = parse_field_term(field, text)
    names = sorted(free_vars(term))
    if len(names) > 1:
        raise FormulaSyntaxError(f"polynomial in one variable expected, got {names}")
    var = names[0] if names else "x"
    return term_to_poly(term, var, field), var


def _run(args, out) -> int:
    field = _field_of(args)
    if args.command == "eval":
        x = eval_field_term(parse_field_term(field, args.expr), {}, field)
        v = "inf" if x.is_zero else ("?" if x.is_small else str(x.val()))
        if args.json:
            json.dump({"value": str(x), "valuation": v}, out)
            out.write("\n")
        else:
            out.write(f"{x} (v={v})\n")
        return 0
    if args.command == "rv":
        order = bounded_order(args.order)
        x = eval_field_term(parse_field_term(field, args.expr), {}, field)
        a = rv(x, order)
        if args.json:
            json.dump({"rv": str(a)}, out)
            out.write("\n")
        else:
            out.write(f"{a}\n")
        return 0
    if args.command == "lift":
        poly, _ = _parse_poly(field, args.poly)
        start = eval_field_term(parse_field_term(field, args.start), {}, field)
        cert = newton_lift(poly, start, args.sep)
        data = {
            "root": str(cert.root),
            "iterations": cert.iterations,
            "separation": str(cert.separation),
        }
        if args.json:
            json.dump(data, out)
            out.write("\n")
        else:
            out.write(f"root = {data['root']}\n")
            out.write(f"iterations = {data['iterations']}\n")
            out.write(f"separation > {args.sep}: v(a - b) >= {data['separation']}\n")
        return 0
    if args.command == "decompose":
        poly, _ = _parse_poly(field, args.poly)
        if args.rv_order is None:
            pieces = decompose(poly)
            data = {"pieces": [p.to_json() for p in pieces]}
        else:
            dec = rv_decompose([poly], [bounded_order(args.rv_order)])
            data = dec.to_json()
        json.dump(data, out, indent=None if args.json else 2)
        out.write("\n")
        return 0
    if args.command == "qe":
        phi = parse_formula(field, args.formula)
        result = qe(phi, field)
        if args.json:
            json.dump({"formula": print_formula(result)}, out)
            out.write("\n")
        else:
            out.write(print_formula(result) + "\n")
        return 0
    if args.command == "decide":
        phi = parse_formula(field, args.formula)
        verdict = decide(phi, field)
        if args.json:
            json.dump({"result": verdict}, out)
            out.write("\n")
        else:
            out.write(("TRUE" if verdict else "FALSE") + "\n")
        return 0
    if args.command == "normal-form":
        phi = parse_formula(field, args.formula)
        nf = normal_form(phi, args.var, field)
        data = {
            "centers": [str(c) for c in nf.centers],
            "orders": nf.orders,
            "variables": nf.names,
            "D": print_formula(nf.D),
        }
        if args.json:
            json.dump(data, out)
            out.write("\n")
        else:
            for name, g, c in zip(nf.names, nf.orders, nf.centers):
                out.write(f"{name} = rv[{g}]({args.var} - ({c}))\n")
            out.write(f"D: {data['D']}\n")
        return 0
    if args.command == "selftest":
        results = run_selftest(args.suite, args.seed)
        ok = True
        for r in results:
            # timings go to stderr: stdout stays byte-identical for a seed
            out.write(r.line(with_timing=False) + "\n")
            print(f"  {r.name}: {r.duration:.2f}s (budget {r.limit:.0f}s)", file=sys.stderr)
            ok = ok and r.ok
        return 0 if ok else 1
    raise AssertionError(args.command)


_DEFAULTS = {
    "field": "laurent-q",
    "p": 7,
    "seed": 0,
    "json": False,
    "retry_precision": False,
}


# exit code and stderr label of each error; any other HQEError exits 4
# under its class name
_EXITS = (
    (FormulaSyntaxError, 1, "syntax error"),
    (PrecisionExhausted, 2, "precision exhausted"),
    (NonEffectiveQuantifier, 3, "non-effective quantifier"),
    (PreconditionViolated, 4, "precondition violated"),
)


def _env_prec() -> int:
    text = os.environ.get("HQE_PREC", "64")
    try:
        return int(text)
    except ValueError:
        raise PreconditionViolated(f"HQE_PREC must be an integer, got {text!r}") from None


def _run_retrying(args) -> int:
    """_run; with --retry-precision, rerun at double the precision on
    PrecisionExhausted, at most twice and never past MAX_DIGIT_SPAN."""
    retries = 2 if args.retry_precision else 0
    while True:
        try:
            return _run(args, sys.stdout)
        except PrecisionExhausted:
            if not retries or 2 * args.prec > MAX_DIGIT_SPAN:
                raise
            retries -= 1
            args.prec *= 2
            print(f"precision exhausted, retrying at {args.prec}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # global flags are suppressed-by-default so either position wins;
        # settle the fallbacks here
        for key, value in _DEFAULTS.items():
            if not hasattr(args, key):
                setattr(args, key, value)
        # argparse hands over the option value "--" (as in --poly=--) as []
        for key in ("poly", "start"):
            if getattr(args, key, None) == []:
                setattr(args, key, "--")
        if not hasattr(args, "prec"):
            args.prec = _env_prec()
        return _run_retrying(args)
    except HQEError as e:
        code, label = next(((c, l) for cls, c, l in _EXITS if isinstance(e, cls)), (4, type(e).__name__))
        print(f"{label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
