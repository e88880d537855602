"""Checks of the independent reference, run with
``python3 -m pytest perfbench/test_reference.py`` from the repository root.

The closed forms are checked without lgquot; the comparison with the exact
backend imports lgquot from ./src.
"""

import sys
from math import gcd
from pathlib import Path

import pytest

import inputs
import reference

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def maximal_count():
    sys.path.insert(0, str(SRC))
    try:
        from lgquot import maximal_count
    finally:
        sys.path.remove(str(SRC))
    return maximal_count


@pytest.mark.parametrize("n", range(1, 11))
def test_points_are_distinct_with_unit_product(n):
    pts = reference.points(n)
    M = 4 * (n + 1)
    assert len(set(pts)) == 2 ** n
    for p in pts:
        assert sum(p) % M == 0
        # no two coordinates are opposite: exponents never differ by 2N mod 4N
        assert all((a - b) % M != 2 * (n + 1) for a in p for b in p)


@pytest.mark.parametrize("m", [1, 2, 8, 12, 24, 28, 36, 40, 44])
def test_cyclotomic_polynomial_degree_is_totient(m):
    phi = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
    poly = reference.cyclotomic_polynomial(m)
    assert len(poly) - 1 == phi and poly[-1] == 1


@pytest.mark.parametrize("g", range(1, 8))
def test_rank_one_and_two_sums_match_closed_forms(g):
    if g % 2:  # rank 1 has an even-ell count only at odd genus
        assert reference.even_ell_count(1, g) == reference.closed_form_count(1, g, 0) == 2 ** g
    assert reference.even_ell_count(2, g) == reference.closed_form_count(2, g, 0)


def test_closed_forms_known_values():
    assert reference.closed_form_count(2, 2, 0) == 16
    assert reference.closed_form_count(2, 2, -1) == 20
    assert reference.closed_form_count(1, 3, 0) == 8


@pytest.mark.parametrize("n,g", [(3, 3), (4, 2), (4, 3), (5, 3), (6, 2), (6, 4), (7, 3)])
def test_even_ell_counts_match_exact_backend(maximal_count, n, g):
    assert reference.even_ell_count(n, g) == maximal_count(n, g, 0)


@pytest.mark.parametrize("n", [1, 2])
def test_closed_forms_match_exact_backend_at_both_parities(maximal_count, n):
    for g in range(0, 6):
        for ell in range(-2, 3):
            if inputs.admissible(n, g, ell):
                assert reference.closed_form_count(n, g, ell) == maximal_count(n, g, ell)


def test_float_known_wrong_inputs_have_reference_values():
    for n, g, ell in inputs.FLOAT_KNOWN_WRONG:
        assert reference.expected_count(n, g, ell) is not None
