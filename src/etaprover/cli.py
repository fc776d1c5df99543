"""Command-line front end.

Subcommands: ``prove`` and ``prove-up`` run the identity provers on a file;
``expand``, ``factor``, ``cusps``, ``orders``, ``check`` and ``formcheck``
expose the underlying machinery on expression strings.

Exit codes: 0 proved / success, 1 refuted, 2 not applicable, 3 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from math import log10
from typing import Optional

from . import __version__
from .cusps import cusp_set
# bench/tracing.py wraps this name here:
from .cusps import gamma0_cusp_orders  # noqa: F401
from .errors import (
    EtaProverError,
    NotAFormError,
    NotAnEtaProductError,
    PreconditionError,
)
from .etaproducts import EtaProduct, eta_factorize
from .modularity import (
    _character_bits, modular_function_check, modular_form_check)
from .parser import UpIdentity, parse_expression, parse_program
from .prover import (
    ProofReport,
    Verdict,
    _order_table,
    format_order_table,
    prove_identity,
)
# bench/tracing.py wraps this name here:
from .prover import normalize_identity  # noqa: F401
from .up import prove_up_identity

# exit code and verdict line of each verdict
_VERDICTS = {
    Verdict.PROVED: (0, "verdict: PROVED"),
    Verdict.BOUND_ONLY: (0, "verdict: NOT-VERIFIED (bound only)"),
    Verdict.REFUTED: (1, "verdict: REFUTED"),
    Verdict.NOT_APPLICABLE: (2, "verdict: NOT-APPLICABLE"),
}

_CONDITION_TEXT = {
    1: "the eta exponents sum to 0",
    2: "sum of t*r is divisible by 24",
    3: "the product of t^|r| is a perfect square",
    4: "every multiplier divides the level",
    5: "sum of (level/t)*r is divisible by 24",
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that exits 3 on usage errors, matching the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _single_product(expr: str, what: str) -> EtaProduct:
    product = parse_expression(expr).as_product()
    if product is None:
        raise NotAnEtaProductError(
            f"{what} needs a plain eta-product expression")
    return product


def _print_report(report: ProofReport, quiet: bool) -> None:
    if not quiet and report.verdict is Verdict.NOT_APPLICABLE:
        print(f"level: {report.level}")
        print(report.reason)
    elif not quiet:
        print(f"level: {report.level}")
        terms = zip(report.term_coefficients, report.term_labels)
        for i, (coeff, label) in enumerate(terms, start=1):
            print(f"f_{i} = {label}   (coefficient {coeff})")
        if report.constants_warning:
            print("note: the identity carries a constant term")
        print(format_order_table(report))
        print(f"B = {report.bound}")
        print(f"verify through q^{report.required_depth}")
        if report.verdict is Verdict.PROVED:
            print(f"all coefficients through q^{report.checked_depth} vanish")
        elif report.verdict is Verdict.REFUTED:
            e, c = report.failure
            print(f"nonzero coefficient {c} at q^{e}")
    print(_VERDICTS[report.verdict][1])


def _cmd_prove(args) -> int:
    """``prove`` and ``prove-up``: run the prover on a file's identity."""
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    ident = parse_program(text)
    up = args.command == "prove-up"
    if isinstance(ident, UpIdentity) != up:
        held, use = ("a linear", "prove") if up else ("a U_p", "prove-up")
        raise ValueError(f"this file holds {held} identity; use {use}")
    if up:
        report = prove_up_identity(ident.product, ident.p, ident.rhs,
                                   args.level, margin=args.margin,
                                   verify=args.yes)
    else:
        report = prove_identity(ident.combo, args.level, margin=args.margin,
                                verify=args.yes)
    _print_report(report, args.quiet)
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_json(args.command, text, args.margin))
    return _VERDICTS[report.verdict][0]


def _cmd_expand(args) -> int:
    if args.no_prefactor:
        product = _single_product(args.expr, "--no-prefactor")
        print(product.expand_no_prefactor(args.depth))
    else:
        print(parse_expression(args.expr).expand(args.depth))
    return 0


def _cmd_factor(args) -> int:
    combo = parse_expression(args.expr)
    series = combo.expand(args.depth)
    try:
        ep = eta_factorize(series, args.depth)
    except NotAnEtaProductError as exc:
        print(f"not an eta-product: {exc}", file=sys.stderr)
        return 2
    print(ep)
    if not args.quiet:
        print(ep.eta_string())
    return 0


def _cmd_cusps(args) -> int:
    print(" ".join(map(str, cusp_set(args.level))))
    return 0


def _cmd_orders(args) -> int:
    combo = parse_expression(args.expr)
    level = args.level
    if not combo.terms:
        raise NotAnEtaProductError("orders needs an eta-product term")
    if combo.constant == 0 and len(combo.terms) == 1:
        # one product times a scalar: the scalar does not change its orders
        report, _ = _order_table(level, combo.terms, constant=True)
        print(format_order_table(report))
        return 0
    report = prove_identity(combo, level, verify=False)
    if report.verdict is Verdict.NOT_APPLICABLE:
        print(report.reason, file=sys.stderr)
        return 2
    print(format_order_table(report))
    print(f"B = {report.bound}")
    return 0


def _cmd_check(args) -> int:
    product = _single_product(args.expr, "check")
    verdict = modular_function_check(product, args.level)
    if args.verbose:
        for i, ok in enumerate(verdict.conditions, start=1):
            state = "holds" if ok else "fails"
            print(f"condition {i} ({_CONDITION_TEXT[i]}): {state}")
    if verdict.invariant:
        print(f"modular function on Gamma0({args.level}): yes")
        return 0
    print(f"modular function on Gamma0({args.level}): no")
    return 2


def _cmd_formcheck(args) -> int:
    product = _single_product(args.expr, "formcheck")
    # the raw character has floor(digits) + 1 decimal digits; refuse it
    # before it is computed when Python cannot print it (a limit of 0: none)
    digits = _character_bits(product) * log10(2)
    limit = sys.get_int_max_str_digits()
    if limit and digits >= limit:
        raise ValueError(f"the raw character has about {digits:.0f} digits, "
                         f"past Python's limit of {limit} for printing")
    try:
        verdict = modular_form_check(product, args.level)
    except NotAFormError as exc:
        print(f"not a form on Gamma0({args.level}): {exc}", file=sys.stderr)
        return 2
    # every line is built before any is printed: should str() still refuse
    # the raw character, where a float log meets the limit, stdout stays empty
    lines = [f"level: {verdict.level}", f"weight: {verdict.weight}",
             f"character: kronecker({verdict.character_disc}, .)"
             f"   (raw {verdict.character_raw})"]
    if verdict.half_integral:
        lines.append("note: half-integral weight")
    print("\n".join(lines))
    return 0


def _positive(text: str) -> int:
    """argparse type of a level, margin or depth: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    quiet = _ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true",
                       help="print only the final verdict or value")
    proof = _ArgumentParser(add_help=False, parents=[quiet])
    proof.add_argument("file")
    proof.add_argument("--level", type=_positive, required=True)
    proof.add_argument("--margin", type=_positive, default=10)
    proof.add_argument("--yes", action="store_true",
                       help="carry out the verification (otherwise bound only)")
    proof.add_argument("--json", metavar="PATH", default=None,
                       help="write a machine-readable certificate to PATH")

    top = _ArgumentParser(prog="etaprover",
                          description="Prove eta-product identities on Gamma0(N).")
    top.add_argument("--version", action="version",
                     version=f"etaprover {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", parents=[proof],
                       help="prove a linear eta-product identity file")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("prove-up", parents=[proof],
                       help="prove a U_p identity file")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("expand",
                       help="q-expansion of an eta-product expression")
    p.add_argument("expr")
    p.add_argument("--depth", type=_positive, default=50)
    p.add_argument("--no-prefactor", action="store_true",
                   help="omit the fractional q^(t/24) prefactors")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("factor", parents=[quiet],
                       help="recognize an expression's expansion as an eta-product")
    p.add_argument("expr")
    p.add_argument("--depth", type=_positive, default=60)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("cusps", help="inequivalent cusps of Gamma0(N)")
    p.add_argument("level", type=_positive)
    p.set_defaults(func=_cmd_cusps)

    p = sub.add_parser("orders",
                       help="per-cusp order table of a product or identity")
    p.add_argument("expr")
    p.add_argument("level", type=_positive)
    p.set_defaults(func=_cmd_orders)

    p = sub.add_parser("check", help="Newman modular-function check")
    p.add_argument("expr")
    p.add_argument("level", type=_positive)
    p.add_argument("--verbose", action="store_true",
                   help="report each condition separately")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("formcheck", help="modular-form-with-character check")
    p.add_argument("expr")
    p.add_argument("level", type=_positive)
    p.set_defaults(func=_cmd_formcheck)
    return top


_shared_parser = functools.cache(build_parser)  # parse_args keeps no state


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    except (OSError, OverflowError, ValueError, EtaProverError) as exc:
        # unreadable files, undecodable text, over-long integer literals,
        # numbers past the machine's index size and every input this
        # package rejects: a usage error, never exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
