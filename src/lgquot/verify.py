"""Seeded verification suites: structural identities, oracle agreement, backends.

Each suite draws randomized parameter sets from a seeded generator, so runs
are bit-reproducible, and returns one aggregated outcome per named check.
"""

from __future__ import annotations

import random

from . import SUITE_NAMES
from ._count import _count_is_finite
from ._frozen import Frozen
from .invariants import (
    SchubertExpression,
    _point_tables,
    expected_dimension,
    gw_invariant,
    intersection_number,
    maximal_count,
    required_degree,
    verify_hecke_recursion,
    verify_staircase_insertion,
    verify_twist_identity,
)
from .oracle import _euler_operators, build_qh_algebra, trace_invariant

__all__ = ["CheckOutcome", "identity_suite", "oracle_suite", "backend_suite", "run_suites"]

# The oracle suite checks ranks up to this one only.  The traces set the limit,
# not the builds (ranks 1-6 build uncached in about 0.1 s in all): in-process
# on a shared 2-core Xeon the suite takes about 4 s up to rank 5 and 24 s up
# to rank 6, almost all of it Euler inverses, traces and direct sums.
ORACLE_MAX_N = 5


class CheckOutcome(Frozen):
    """The aggregated result of one named check."""

    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


def random_monomial(rng: random.Random, n: int, degree: int) -> SchubertExpression:
    """A random product of weight variables with total weight exactly `degree`."""
    expr = SchubertExpression.one()
    remaining = degree
    while remaining:
        k = rng.randint(1, min(n, remaining))
        expr = expr * SchubertExpression.special(k)
        remaining -= k
    return expr


def random_strict(rng: random.Random, n: int) -> tuple[int, ...]:
    size = rng.randint(0, n)
    return tuple(sorted(rng.sample(range(1, n + 1), size), reverse=True))


def _sample_quot_parameters(rng: random.Random, max_n: int, max_genus: int,
                            degree_cap: int = 8):
    """Random (n, g, ell, e, P) with P a monomial of exactly the expected dimension."""
    n = rng.randint(1, max_n)
    g = rng.randint(0, max_genus)
    ell = rng.randint(-2, 2)
    # the dimension falls by n + 1 per unit of e: take the largest e whose
    # dimension is at least a drawn degree
    e = (expected_dimension(n, 0, ell, g) - rng.randint(0, degree_cap)) // (n + 1)
    return n, g, ell, e, random_monomial(rng, n, expected_dimension(n, e, ell, g))


def _sample_insertions(rng: random.Random, max_n: int, max_genus: int):
    """Random (n, g, insertions, d); resamples until a valid degree d exists."""
    while True:
        n = rng.randint(1, max_n)
        g = rng.randint(0, max_genus)
        insertions = [random_strict(rng, n) for _ in range(rng.randint(0, 4))]
        d = required_degree(n, g, insertions)
        if d is not None:
            return n, g, insertions, d


def _tally(name: str, seed: int, cases: int, trial) -> CheckOutcome:
    """Run `trial(rng)` `cases` times on one seeded generator; pass if every run holds."""
    rng = random.Random(seed)
    good = sum(bool(trial(rng)) for _ in range(cases))
    return CheckOutcome(name, good == cases, f"{good}/{cases} cases")


def _presentation_relations(max_n: int) -> CheckOutcome:
    """E_{n+1} = 1 and qtilde_pair(i, i) = 0 for i = 1..n at every point of ranks 1..max_n.

    These are the relations of the rank-n presentation of the quantum ring at
    q = 1, so every summation point must satisfy them.
    """
    good = total = 0
    for n in range(1, max_n + 1):
        _backend, tables = _point_tables(n, "exact")
        for table in tables:
            total += 1
            good += table.e(n + 1) == 1 and all(
                table.qtilde_pair(i, i).is_zero() for i in range(1, n + 1))
    return CheckOutcome("presentation_relations", good == total, f"{good}/{total} points")


def identity_suite(max_n: int = 3, max_genus: int = 4, seed: int = 0,
                   cases: int = 50) -> list[CheckOutcome]:
    """Twist invariance, Hecke recursion, staircase insertion, product consistency."""

    def twist(rng):
        return verify_twist_identity(*_sample_quot_parameters(rng, max_n, max_genus),
                                     ell_hat=rng.randint(-2, 2))

    def hecke(rng):
        return verify_hecke_recursion(*_sample_quot_parameters(rng, max_n, max_genus),
                                      k=rng.randint(0, 2))

    def staircase_insertion(rng):
        n, g, insertions, d = _sample_insertions(rng, max_n, max_genus)
        return verify_staircase_insertion(n, g, d, insertions, k=rng.randint(0, 2))

    def product_consistency(rng):
        n, g, insertions, d = _sample_insertions(rng, max_n, max_genus)
        P = SchubertExpression.one()
        for parts in insertions:
            P = P * SchubertExpression.qtilde_factor(parts)
        return intersection_number(n, g, 0, -d, P) == gw_invariant(n, g, d, insertions)

    return [
        _tally("twist_identity", seed, cases, twist),
        _tally("hecke_recursion", seed + 1, cases, hecke),
        _tally("staircase_insertion", seed + 2, cases, staircase_insertion),
        _tally("product_consistency", seed + 3, cases, product_consistency),
    ]


def oracle_suite(max_n: int = 3, seed: int = 0, cases: int = 50) -> list[CheckOutcome]:
    """Trace-formula agreement with the direct summation, plus spectral checks.

    Ranks above ORACLE_MAX_N are not checked, and the rank-range details say so.
    """
    asked, max_n = max_n, min(max_n, ORACLE_MAX_N)
    ranks = f"ranks 1..{max_n}"
    if asked > max_n:
        ranks += f"; asked for 1..{asked}, the oracle stops at {max_n}"
    outcomes = []
    algebras = {}
    try:
        for n in range(1, max_n + 1):
            algebras[n] = build_qh_algebra(n)
        outcomes.append(CheckOutcome("algebra_axioms", True, ranks))
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        outcomes.append(CheckOutcome("algebra_axioms", False, str(exc)))
        return outcomes

    invertible = True
    for n, algebra in algebras.items():
        try:
            _euler_operators(algebra, inverse=True)  # kept for the genus-0 traces
        except ArithmeticError:
            invertible = False
    outcomes.append(CheckOutcome("euler_invertible", invertible, ranks))

    def agreement(rng):
        n = rng.randint(1, max_n)
        g = rng.randint(0, 3)
        while True:
            insertions = [random_strict(rng, n) for _ in range(rng.randint(0, 4))]
            d = required_degree(n, g, insertions)
            if d is not None:
                return gw_invariant(n, g, d, insertions) == trace_invariant(
                    algebras[n], g, insertions)

    def vanishing(rng):
        while True:
            n = rng.randint(1, max_n)
            g = rng.randint(0, 3)
            insertions = [random_strict(rng, n) for _ in range(rng.randint(0, 4))]
            if required_degree(n, g, insertions) is None:
                return trace_invariant(algebras[n], g, insertions) == 0

    outcomes.append(_tally("trace_agreement", seed, cases, agreement))
    outcomes.append(_tally("trace_vanishing", seed + 1, max(10, cases // 5), vanishing))
    return outcomes


def backend_suite(max_n: int = 3, max_genus: int = 4, seed: int = 0,
                  cases: int = 40) -> list[CheckOutcome]:
    """Exact and floating backends agree on counts, invariants, and intersections."""

    def intersections(rng):
        n, g, ell, e, P = _sample_quot_parameters(rng, max_n, max_genus, degree_cap=6)
        return intersection_number(n, g, ell, e, P, "exact") == intersection_number(
            n, g, ell, e, P, "float")

    def invariants(rng):
        n, g, insertions, d = _sample_insertions(rng, max_n, max_genus)
        return gw_invariant(n, g, d, insertions, "exact") == gw_invariant(
            n, g, d, insertions, "float")

    outcomes = [
        _tally("intersection_backends", seed, cases, intersections),
        _tally("gw_backends", seed + 1, cases, invariants),
    ]
    good = total = 0
    for n in range(1, max_n + 1):
        for g in range(0, max_genus + 1):
            for ell in (-1, 0, 1, 2):
                if not _count_is_finite(n, g, ell):
                    continue
                total += 1
                good += maximal_count(n, g, ell, "exact") == maximal_count(n, g, ell, "float")
    outcomes.append(CheckOutcome("count_backends", good == total, f"{good}/{total} cases"))
    return outcomes


def run_suites(names, max_n: int = 3, max_genus: int = 4, seed: int = 0,
               cases: int = 50) -> list[CheckOutcome]:
    """Run the named suites ('identities', 'oracle', 'backends', or 'all').

    'identities' is `identity_suite` followed by the presentation relations.
    """
    for flag, value, least in (("--max-n", max_n, 1), ("--max-genus", max_genus, 0),
                               ("--cases", cases, 1)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    chosen = SUITE_NAMES if "all" in names else tuple(names)
    outcomes = []
    for name in chosen:
        if name == "identities":
            outcomes.extend(identity_suite(max_n, max_genus, seed, cases))
            outcomes.append(_presentation_relations(max_n))
        elif name == "oracle":
            outcomes.extend(oracle_suite(max_n, seed, cases))
        elif name == "backends":
            outcomes.extend(backend_suite(max_n, max_genus, seed, max(10, cases // 2)))
        else:
            raise ValueError(f"unknown suite {name!r}")
    return outcomes
