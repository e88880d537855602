"""Command-line interface: single queries, genus tables, and verification suites.

Subcommands:
    gw         genus-g Gromov-Witten invariant from degree and insertions
    count      number of maximal Lagrangian subbundles
    intersect  intersection number of a weighted-homogeneous class
    table      counts over a genus range, as CSV or JSON
    verify     seeded verification suites; nonzero exit on failure

Exit codes: 0 success, 2 usage or parse error (including PARITY and
non-homogeneous input), 3 violated math assumption (NONINTEGER, NONVANISHING,
SINGULAR_EULER, BACKEND_MISMATCH), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import NonIntegerValueError, NonvanishingAssumptionError
from .invariants import (
    NonHomogeneousError,
    ParityError,
    SchubertExpression,
    gw_invariant,
    intersection_number,
    maximal_count,
)
from .oracle import SingularEulerError
from .verify import SUITE_NAMES, run_suites

__all__ = ["main", "parse_partition_list", "parse_poly", "CLIParseError"]

GENUS_NOTE = "formula value (enumerative meaning needs genus >= 2)"


class CLIParseError(ValueError):
    """A grammar error in a CLI argument, with the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- argument grammars -----------------------------------------------------------


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
        for p in parts:
            if p < 1 or p > n:
                raise CLIParseError(f"part {p} outside 1..{n}", offset)
        if any(parts[i] <= parts[i + 1] for i in range(len(parts) - 1)):
            raise CLIParseError(f"parts not strictly decreasing: {parts}", offset)
        partitions.append(tuple(parts))
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
        coeff = Fraction(1)
        factors: list[tuple[int, ...]] = []
        if self.peek() == "int":
            coeff = self._rational()
            while self.peek() == "*":
                self.take("*")
                factors.extend(self._factor())
        else:
            factors.extend(self._factor())
            while self.peek() == "*":
                self.take("*")
                factors.extend(self._factor())
        return SchubertExpression.monomial(factors, coeff)

    def _rational(self) -> Fraction:
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
            parts: tuple[int, ...] = (k_token[1],)
            self._check_parts(parts, k_token[2])
        elif token[0] == "Q":
            self.take("Q")
            self.take("[")
            first = self.take("int")
            entries = [first[1]]
            while self.peek() == ",":
                self.take(",")
                entries.append(self.take("int")[1])
            self.take("]")
            parts = tuple(entries)
            self._check_parts(parts, first[2])
        else:
            raise CLIParseError(f"expected a factor, got {token[0]!r}", token[2])
        exponent = 1
        if self.peek() == "^":
            self.take("^")
            exponent = self.take("int")[1]
        return [parts] * exponent

    def _check_parts(self, parts: tuple[int, ...], position: int) -> None:
        if any(p < 1 or p > self.n for p in parts):
            raise CLIParseError(f"part outside 1..{self.n}: {list(parts)}", position)
        if any(parts[i] <= parts[i + 1] for i in range(len(parts) - 1)):
            raise CLIParseError(f"parts not strictly decreasing: {list(parts)}", position)


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


@dataclass
class QueryResult:
    """Echo of the query parameters plus the computed value, table rows or an error code."""

    params: dict
    value: str | None = None
    backend: str = "exact"
    elapsed_ms: float = 0.0
    note: str | None = None
    error: str | None = None
    message: str | None = None
    checks: list = field(default_factory=list)
    rows: list | None = None

    def to_dict(self) -> dict:
        out = dict(self.params)
        if self.error is not None:
            out["error"] = self.error
            out["message"] = self.message
        elif self.rows is not None:
            out["rows"] = self.rows
        else:
            out["value"] = self.value
        if self.note:
            out["note"] = self.note
        if self.checks:
            out["checks"] = self.checks
            out["passed"] = all(c["passed"] for c in self.checks)
        out["backend"] = self.backend
        out["elapsed_ms"] = self.elapsed_ms
        return out


_ERROR_EXITS = {
    "PARITY": 2,
    "USAGE": 2,
    "PARSE": 2,
    "NONHOMOGENEOUS": 2,
    "NONINTEGER": 3,
    "NONVANISHING": 3,
    "SINGULAR_EULER": 3,
    "BACKEND_MISMATCH": 3,
}


class BackendMismatchError(ArithmeticError):
    pass


def _classify(exc: Exception) -> tuple[str, str]:
    if isinstance(exc, CLIParseError):
        return "PARSE", str(exc)
    if isinstance(exc, ParityError):
        return "PARITY", str(exc)
    if isinstance(exc, NonHomogeneousError):
        return "NONHOMOGENEOUS", str(exc)
    if isinstance(exc, NonIntegerValueError):
        return "NONINTEGER", str(exc)
    if isinstance(exc, NonvanishingAssumptionError):
        return "NONVANISHING", str(exc)
    if isinstance(exc, SingularEulerError):
        return "SINGULAR_EULER", str(exc)
    if isinstance(exc, BackendMismatchError):
        return "BACKEND_MISMATCH", str(exc)
    if isinstance(exc, (ValueError, TypeError)):
        return "USAGE", str(exc)
    raise exc


def _compute_with_backend(compute, backend: str) -> int:
    """Run a query on one or both backends; 'both' asserts agreement."""
    if backend != "both":
        return compute(backend)
    exact_value = compute("exact")
    float_value = compute("float")
    if exact_value != float_value:
        raise BackendMismatchError(
            f"backends disagree: exact={exact_value}, float={float_value}"
        )
    return exact_value


def _emit(result: QueryResult, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(result.to_dict()))
    else:
        for line in text_lines(result):
            print(line)


def _value_lines(result: QueryResult) -> list[str]:
    if result.error is None:
        return [result.value]
    return [f"error {result.error}: {result.message}"]


def _run_query(params: dict, backend: str, fmt: str, compute, text_lines=_value_lines) -> int:
    """Time `compute(result)`, print its value or classified error, return the exit code."""
    result = QueryResult(params, backend=backend)
    start = time.perf_counter()
    try:
        value = compute(result)
        if value is not None:
            result.value = str(value)
    except Exception as exc:  # classified below; unknown kinds re-raise
        result.error, result.message = _classify(exc)
    result.elapsed_ms = (time.perf_counter() - start) * 1000.0
    _emit(result, fmt, text_lines)
    if result.error is not None:
        return _ERROR_EXITS.get(result.error, 2)
    if result.checks and not all(c["passed"] for c in result.checks):
        return 4
    return 0


# -- subcommands ---------------------------------------------------------------------


def cmd_gw(args) -> int:
    params = {"command": "gw", "n": args.n, "genus": args.genus, "degree": args.degree,
              "partitions": args.partitions}

    def compute(result):
        insertions = parse_partition_list(args.partitions, args.n)
        return _compute_with_backend(
            lambda kind: gw_invariant(args.n, args.genus, args.degree, insertions, kind),
            args.backend,
        )

    return _run_query(params, args.backend, args.format, compute)


def cmd_count(args) -> int:
    params = {"command": "count", "n": args.n, "genus": args.genus, "ell": args.ell}

    def compute(result):
        value = _compute_with_backend(
            lambda kind: maximal_count(args.n, args.genus, args.ell, kind), args.backend
        )
        result.params["e"] = args.n * (args.ell - args.genus + 1) // 2
        result.note = GENUS_NOTE if args.genus <= 1 else None
        return value

    return _run_query(
        params, args.backend, args.format, compute,
        lambda r: [r.value, f"e = {r.params['e']}"] if r.error is None else _value_lines(r),
    )


def cmd_intersect(args) -> int:
    params = {"command": "intersect", "n": args.n, "genus": args.genus, "ell": args.ell,
              "e": args.e, "poly": args.poly}

    def compute(result):
        expression = parse_poly(args.poly, args.n)
        value = _compute_with_backend(
            lambda kind: intersection_number(args.n, args.genus, args.ell, args.e,
                                             expression, kind),
            args.backend,
        )
        result.note = GENUS_NOTE if args.genus <= 1 else None
        return value

    return _run_query(params, args.backend, args.format, compute)


def cmd_table(args) -> int:
    params = {"command": "table", "n": args.n, "genus_range": args.genus_range,
              "ell": args.ell}

    def compute(result):
        rows = []
        for g in parse_genus_range(args.genus_range):
            if (args.n * (args.ell - g + 1)) % 2:
                continue  # no finite count at this genus; row omitted
            value = _compute_with_backend(
                lambda kind: maximal_count(args.n, g, args.ell, kind), args.backend
            )
            rows.append({"n": args.n, "g": g, "ell": args.ell,
                         "e": args.n * (args.ell - g + 1) // 2, "value": str(value)})
        result.rows = rows

    def lines(r):
        if r.error is not None:
            return _value_lines(r)
        return ["n,g,ell,e,value"] + [
            f"{row['n']},{row['g']},{row['ell']},{row['e']},{row['value']}" for row in r.rows
        ]

    return _run_query(params, args.backend, args.format, compute, lines)


def cmd_verify(args) -> int:
    params = {"command": "verify", "suite": args.suite, "max_n": args.max_n,
              "max_genus": args.max_genus, "seed": args.seed, "cases": args.cases}

    def compute(result):
        outcomes = run_suites([args.suite], args.max_n, args.max_genus, args.seed,
                              args.cases)
        result.checks = [
            {"name": o.name, "passed": o.passed, "detail": o.detail} for o in outcomes
        ]

    def lines(r):
        if r.error is not None:
            return _value_lines(r)
        out = [
            f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} ({c['detail']})"
            for c in r.checks
        ]
        out.append("all checks passed" if all(c["passed"] for c in r.checks)
                   else "verification FAILED")
        return out

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
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
