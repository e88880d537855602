"""Command-line interface: single queries, genus tables, and verification suites.

Subcommands:
    gw         genus-g Gromov-Witten invariant from degree and insertions
    count      number of maximal Lagrangian subbundles
    intersect  intersection number of a weighted-homogeneous class
    table      counts over a genus range, as CSV or JSON
    verify     seeded verification suites; nonzero exit on failure

Exit codes: 0 success, 2 usage or parse error (including PARITY and
non-homogeneous input), 3 violated math assumption (NONINTEGER, NONVANISHING,
SINGULAR_EULER, ORBIT_SIZE, BACKEND_MISMATCH), 4 verification failure.  A
reader that closes stdout early leaves the code as it is, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from . import SUITE_NAMES
from ._count import (
    _check_rank_and_genus,
    _check_rank_limit,
    _count_is_finite,
    _trace_totals,
    maximal_count,
    maximal_subbundle_degree,
)
from ._ring import (
    NonHomogeneousError,
    NonIntegerValueError,
    NonvanishingAssumptionError,
    OrbitSizeError,
    ParityError,
    SingularEulerError,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .invariants import SchubertExpression

__all__ = ["main", "parse_partition_list", "parse_poly", "CLIParseError"]

GENUS_NOTE = "formula value (enumerative meaning needs genus >= 2)"


class CLIParseError(ValueError):
    """A grammar error in a CLI argument, with the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- argument grammars -----------------------------------------------------------


def _strict_parts(parts, n: int, position: int) -> tuple[int, ...]:
    """The parts of a rank-n strict partition, or a CLIParseError at `position`."""
    from .partitions import _shape

    try:
        return _shape(parts, strict=True, n=n)
    except ValueError as exc:
        raise CLIParseError(str(exc), position) from None


def parse_partition_list(text: str, n: int) -> list[tuple[int, ...]]:
    """Parse "2,1;2;1" into strict partitions; '' is the empty list."""
    if text.strip() == "":
        return []
    partitions = []
    offset = 0
    for segment in text.split(";"):
        parts = []
        inner = 0
        for piece in segment.split(","):
            position = offset + inner
            stripped = piece.strip()
            if not stripped or not (stripped.isdigit() or
                                    (stripped[0] == "-" and stripped[1:].isdigit())):
                raise CLIParseError(f"expected an integer, got {piece!r}", position)
            parts.append(int(stripped))
            inner += len(piece) + 1
        partitions.append(_strict_parts(parts, n, offset))
        offset += len(segment) + 1
    return partitions


def _tokenize_poly(text: str) -> list[tuple[str, int | None, int]]:
    tokens: list[tuple[str, int | None, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch in "aQ[],^*+-/":
            tokens.append((ch, None, i))
            i += 1
        else:
            raise CLIParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _PolyParser:
    """Recursive-descent parser for the --poly grammar.

    expr   := ['-'] term (('+'|'-') term)*
    term   := rational ('*' factor)* | factor ('*' factor)*
    factor := 'a' int ['^' int] | 'Q[' int (',' int)* ']' ['^' int]
    """

    def __init__(self, text: str, n: int):
        self.tokens = _tokenize_poly(text)
        self.pos = 0
        self.n = n

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self, kind: str) -> tuple[str, int | None, int]:
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise CLIParseError(f"expected {kind!r}, got {token[0]!r}", token[2])
        self.pos += 1
        return token

    def parse(self) -> SchubertExpression:
        negate = False
        if self.peek() == "-":
            self.take("-")
            negate = True
        expr = self._term()
        if negate:
            expr = -expr
        while self.peek() in "+-":
            op = self.take(self.peek())[0]
            term = self._term()
            expr = expr + term if op == "+" else expr - term
        self.take("end")
        return expr

    def _term(self) -> SchubertExpression:
        from fractions import Fraction

        from .invariants import SchubertExpression

        coeff = Fraction(1)
        factors: list[tuple[int, ...]] = []
        if self.peek() == "int":
            coeff = self._rational()
        else:
            factors.extend(self._factor())
        while self.peek() == "*":
            self.take("*")
            factors.extend(self._factor())
        return SchubertExpression.monomial(factors, coeff)

    def _rational(self) -> Fraction:
        from fractions import Fraction

        numerator = self.take("int")[1]
        if self.peek() == "/":
            self.take("/")
            token = self.take("int")
            if token[1] == 0:
                raise CLIParseError("zero denominator", token[2])
            return Fraction(numerator, token[1])
        return Fraction(numerator)

    def _factor(self) -> list[tuple[int, ...]]:
        token = self.tokens[self.pos]
        if token[0] == "a":
            self.take("a")
            k_token = self.take("int")
            parts = _strict_parts((k_token[1],), self.n, k_token[2])
        elif token[0] == "Q":
            self.take("Q")
            self.take("[")
            first = self.take("int")
            entries = [first[1]]
            while self.peek() == ",":
                self.take(",")
                entries.append(self.take("int")[1])
            self.take("]")
            parts = _strict_parts(entries, self.n, first[2])
        else:
            raise CLIParseError(f"expected a factor, got {token[0]!r}", token[2])
        exponent = 1
        if self.peek() == "^":
            self.take("^")
            exponent = self.take("int")[1]
        return [parts] * exponent


def parse_poly(text: str, n: int) -> SchubertExpression:
    """Parse the --poly grammar into a SchubertExpression."""
    return _PolyParser(text, n).parse()


def parse_genus_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.strip().isdigit() or not hi.strip().isdigit():
        raise CLIParseError(f"expected LO..HI, got {text!r}", 0)
    lo_value, hi_value = int(lo), int(hi)
    if hi_value < lo_value:
        raise CLIParseError(f"empty genus range {text!r}", 0)
    return range(lo_value, hi_value + 1)


# -- output -------------------------------------------------------------------------


class BackendMismatchError(ArithmeticError):
    pass


def _decimal(value: int) -> str:
    """The decimal digits of an integer of any length, with the process-wide
    limit of sys.get_int_max_str_digits() (4300 by default) left as it is."""
    try:
        return str(value)
    except ValueError:  # over the limit: print halves of about half the digits
        half = abs(value).bit_length() * 3 // 20  # log10(2) > 3/10
        high, low = divmod(abs(value), 10 ** half)
        return "-" * (value < 0) + _decimal(high) + _decimal(low).zfill(half)


# (exception kind, error code, exit status), tried in order: the first kind the
# exception is an instance of wins, so subclasses precede (ValueError, TypeError).
_ERRORS = (
    (CLIParseError, "PARSE", 2),
    (ParityError, "PARITY", 2),
    (NonHomogeneousError, "NONHOMOGENEOUS", 2),
    (NonIntegerValueError, "NONINTEGER", 3),
    (NonvanishingAssumptionError, "NONVANISHING", 3),
    (SingularEulerError, "SINGULAR_EULER", 3),
    (OrbitSizeError, "ORBIT_SIZE", 3),
    (BackendMismatchError, "BACKEND_MISMATCH", 3),
    ((ValueError, TypeError), "USAGE", 2),
)


def _on_backends(backend: str, formula, *args) -> int:
    """`formula(*args, backend)` on one or both backends; 'both' asserts agreement."""
    if backend != "both":
        return formula(*args, backend)
    exact_value, float_value = formula(*args, "exact"), formula(*args, "float")
    if exact_value != float_value:
        raise BackendMismatchError(
            f"backends disagree: exact={exact_value}, float={float_value}"
        )
    return exact_value


def _run_query(params: dict, backend: str, fmt: str, compute,
               text_lines=lambda fields: [fields["value"]]) -> int:
    """Time `compute()`, print its output fields or classified error, return the exit code.

    `compute` returns the fields that follow `params` in the JSON object, in
    order; an integer "value" is printed in decimal.  `text_lines` turns the
    fields into the lines of the text (or csv) format.  A "passed" field that
    is false makes the exit code 4.
    """
    status = 0
    start = time.perf_counter()
    try:
        fields = compute()
        if fields.get("value") is not None:
            fields["value"] = _decimal(fields["value"])
    except Exception as exc:  # classified by _ERRORS; unknown kinds re-raise
        for kind, code, status in _ERRORS:
            if isinstance(exc, kind):
                fields = {"error": code, "message": str(exc)}
                break
        else:
            raise
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    try:
        if fmt == "json":
            print(json.dumps({**params, **fields, "backend": backend, "elapsed_ms": elapsed_ms}))
        elif status:
            print(f"error {fields['error']}: {fields['message']}")
        else:
            print("\n".join(text_lines(fields)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head -n 1`): the rest of the output is
        # dropped, and stdout points at devnull so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 4 if fields.get("passed") is False else status


def _genus_note(genus: int) -> dict:
    """The note field of a value below genus 2, where it is the bare formula value."""
    return {"note": GENUS_NOTE} if genus <= 1 else {}


# -- subcommands ---------------------------------------------------------------------


def cmd_gw(args) -> int:
    params = {"command": "gw", "n": args.n, "genus": args.genus, "degree": args.degree,
              "partitions": args.partitions}

    from .invariants import gw_invariant

    def compute():
        insertions = parse_partition_list(args.partitions, args.n)
        return {"value": _on_backends(args.backend, gw_invariant, args.n, args.genus,
                                      args.degree, insertions)}

    return _run_query(params, args.backend, args.format, compute)


def cmd_count(args) -> int:
    params = {"command": "count", "n": args.n, "genus": args.genus, "ell": args.ell}

    def compute():
        value = _on_backends(args.backend, maximal_count, args.n, args.genus, args.ell)
        return {"e": maximal_subbundle_degree(args.n, args.genus, args.ell), "value": value,
                **_genus_note(args.genus)}

    return _run_query(params, args.backend, args.format, compute,
                      lambda fields: [fields["value"], f"e = {fields['e']}"])


def cmd_intersect(args) -> int:
    params = {"command": "intersect", "n": args.n, "genus": args.genus, "ell": args.ell,
              "e": args.e, "poly": args.poly}

    from .invariants import intersection_number

    def compute():
        expression = parse_poly(args.poly, args.n)
        return {"value": _on_backends(args.backend, intersection_number, args.n, args.genus,
                                      args.ell, args.e, expression),
                **_genus_note(args.genus)}

    return _run_query(params, args.backend, args.format, compute)


def cmd_table(args) -> int:
    params = {"command": "table", "n": args.n, "genus_range": args.genus_range,
              "ell": args.ell}

    def compute():
        _check_rank_and_genus(args.n, 0)  # a bad rank is refused, not skipped for parity
        # a genus with no finite count has no row
        genera = [g for g in parse_genus_range(args.genus_range)
                  if _count_is_finite(args.n, g, args.ell)]
        if args.backend != "float" and genera:  # every exact row's trace in one pass
            _check_rank_limit(args.n, "count")
            _trace_totals(args.n, genera, args.ell % 2)
        rows = []
        for g in genera:
            value = _on_backends(args.backend, maximal_count, args.n, g, args.ell)
            rows.append({"n": args.n, "g": g, "ell": args.ell,
                         "e": maximal_subbundle_degree(args.n, g, args.ell),
                         "value": _decimal(value)})
        return {"rows": rows}

    return _run_query(params, args.backend, args.format, compute, lambda fields: [
        "n,g,ell,e,value", *(",".join(map(str, row.values())) for row in fields["rows"])])


def cmd_verify(args) -> int:
    params = {"command": "verify", "suite": args.suite, "max_n": args.max_n,
              "max_genus": args.max_genus, "seed": args.seed, "cases": args.cases}

    from .verify import run_suites  # only here, before the clock: it imports the oracle

    def compute():
        outcomes = run_suites([args.suite], args.max_n, args.max_genus, args.seed,
                              args.cases)
        checks = [{"name": o.name, "passed": o.passed, "detail": o.detail} for o in outcomes]
        return {"value": None, "checks": checks, "passed": all(o.passed for o in outcomes)}

    def lines(fields):
        return [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} ({c['detail']})"
                for c in fields["checks"]] + [
            "all checks passed" if fields["passed"] else "verification FAILED"]

    return _run_query(params, "exact", args.format, compute, lines)


# -- entry point -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgquot",
        description="Exact intersection numbers, Gromov-Witten invariants, and "
                    "maximal-subbundle counts for Lagrangian Grassmannians over curves.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--backend", choices=("exact", "float", "both"), default="exact")

    p = sub.add_parser("gw", help="genus-g Gromov-Witten invariant")
    p.add_argument("--n", type=int, required=True, help="rank of the Lagrangian Grassmannian")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--partitions", default="",
                   help="insertions, e.g. \"2,1;2;1\"; empty for none")
    common(p)
    p.set_defaults(handler=cmd_gw)

    p = sub.add_parser("count", help="number of maximal Lagrangian subbundles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--ell", type=int, required=True, help="degree of the value line bundle")
    common(p)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("intersect", help="intersection number of a class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--e", type=int, required=True, help="subsheaf degree")
    p.add_argument("--poly", required=True,
                   help="weighted class, e.g. \"2*a1^2 + Q[2,1]\"")
    common(p)
    p.set_defaults(handler=cmd_intersect)

    p = sub.add_parser("table", help="counts over a genus range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus-range", required=True, help="inclusive range LO..HI")
    p.add_argument("--ell", type=int, required=True)
    common(p, formats=("csv", "json"))
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-genus", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # what the query runs loads before its clock starts, so that elapsed_ms
    # does not time the import; a count or table sums no point table and
    # parses no class, so it loads neither the formulas nor `fractions`
    if args.subcommand in ("gw", "intersect", "verify"):
        from . import cyclotomic, invariants, symfunc  # noqa: F401  (the field loads _float too)
    elif args.backend != "exact":  # the float count is a product over plain points
        from . import _float  # noqa: F401
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
