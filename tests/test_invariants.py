import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import prod
from operator import mul

import pytest

from lgquot import _count, invariants, symfunc
from lgquot._ring import (
    _PackedRing,
    _ramanujan_sums,
    _ring_staircase,
)
from lgquot.cli import main
from lgquot.cyclotomic import CyclotomicNumber, euler_phi, root_of_unity
from lgquot.invariants import (
    NonHomogeneousError,
    ParityError,
    SchubertExpression,
    _point_sum,
    _point_tables,
    expected_dimension,
    gw_invariant,
    intersection_number,
    maximal_count,
    maximal_subbundle_degree,
    required_degree,
    verify_hecke_recursion,
    verify_staircase_insertion,
    verify_twist_identity,
)
from lgquot.partitions import (
    StrictPartition,
    staircase,
    strict_partitions,
    summation_tuples,
)
from test_cyclotomic import field_trace
from test_partitions import point_orbits
from test_symfunc import pack, ring_power

ONE = SchubertExpression.one()


def test_expected_dimension_examples():
    assert expected_dimension(2, -1, 0, 2) == 0
    assert expected_dimension(1, 0, 1, 2) == 0
    base = expected_dimension(3, -2, 1, 4)
    assert expected_dimension(3, -3, 1, 4) == base + 4


def test_maximal_subbundle_degree_examples():
    assert maximal_subbundle_degree(2, 2, 0) == -1
    assert maximal_subbundle_degree(1, 2, 1) == 0
    assert maximal_subbundle_degree(2, 3, 0) == -2
    assert maximal_subbundle_degree(3, 2, 0) == -1  # ceil(-3/2)


def test_required_degree_examples():
    assert required_degree(2, 0, [(1,), (1,), (1,)]) == 0
    assert required_degree(1, 2, []) is None
    assert required_degree(1, 0, [(1,), (1,), (1,)]) == 1
    assert required_degree(2, 0, []) is None  # forced degree would be -1


def test_gw_invariant_classical_values():
    assert gw_invariant(2, 0, 0, [(1,), (1,), (1,)]) == 2
    assert gw_invariant(1, 0, 1, [(1,), (1,), (1,)]) == 1
    assert gw_invariant(1, 1, 0, []) == 2


def test_gw_invariant_dimension_mismatch_is_zero():
    assert gw_invariant(2, 0, 5, [(1,)]) == 0
    assert gw_invariant(1, 2, 0, []) == 0
    assert gw_invariant(2, 0, -1, []) == 0  # negative degrees never contribute


def test_gw_invariant_accepts_strict_partition_objects():
    ins = [StrictPartition(2, (1,))] * 3
    assert gw_invariant(2, 0, 0, ins) == 2


def test_gw_invariant_rejects_bad_insertions():
    with pytest.raises(ValueError):
        gw_invariant(2, 0, 0, [(3,)])
    with pytest.raises(ValueError):
        gw_invariant(2, 0, 0, [(1, 1)])
    with pytest.raises(TypeError):
        gw_invariant(2, 0, None, [])


def test_gw_invariant_permutation_invariance():
    rng = random.Random(0)
    ins = [(2, 1), (1,), (2,)]
    d = required_degree(2, 1, ins)
    assert d == 2
    value = gw_invariant(2, 1, d, ins)
    for _ in range(5):
        rng.shuffle(ins)
        assert gw_invariant(2, 1, d, ins) == value


def test_gw_invariant_nonnegative_at_positive_genus():
    for n in (1, 2, 3, 4):
        for g in (1, 2, 3, 4, 5):
            for count in range(5):
                rng = random.Random(n * 100 + g * 10 + count)
                ins = [
                    tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n)),
                                 reverse=True))
                    for _ in range(count)
                ]
                d = required_degree(n, g, ins)
                if d is not None:
                    assert gw_invariant(n, g, d, ins) >= 0


def test_intersection_number_known_counts():
    assert intersection_number(2, 2, 0, -1, ONE) == 16
    assert intersection_number(2, 2, -1, -2, ONE) == 20


def test_intersection_number_degree_mismatch():
    assert intersection_number(2, 2, 0, -3, ONE) == 0
    wrong = SchubertExpression.special(1) ** 2 + SchubertExpression.special(2)
    assert intersection_number(2, 2, 0, -1, wrong) == 0  # homogeneous but wrong degree


def test_intersection_number_rejects_inhomogeneous_and_overrank():
    mixed = SchubertExpression.special(1) + SchubertExpression.special(2)
    with pytest.raises(NonHomogeneousError):
        intersection_number(2, 2, 0, -1, mixed)
    with pytest.raises(ValueError):
        intersection_number(2, 2, 0, -1, SchubertExpression.special(3))
    with pytest.raises(TypeError):
        intersection_number(2, 2, 0, -1, 1)


def test_intersection_number_matches_gw_at_zero_twist():
    # products of qtilde factors at ell = 0 recover the invariants with e = -d
    cases = [
        (2, 0, [(1,), (1,), (1,)]),
        (1, 0, [(1,), (1,), (1,)]),
        (2, 2, [(2, 1), (2, 1)]),
        (3, 1, [(2, 1), (1,), (2,)]),
    ]
    for n, g, ins in cases:
        d = required_degree(n, g, ins)
        if d is None:
            continue
        P = SchubertExpression.one()
        for parts in ins:
            P = P * SchubertExpression.qtilde_factor(parts)
        assert intersection_number(n, g, 0, -d, P) == gw_invariant(n, g, d, ins)


def test_prefactor_consistency_at_zero_twist():
    # for ell = 0 the prefactor exponent n(g-1)+e matches n(g-1)-d at d = -e
    for n, g, e in [(1, 2, -1), (2, 3, -2), (3, 2, 0)]:
        assert expected_dimension(n, e, 0, g) == expected_dimension(n, e, 0, g)
        assert Fraction(2) ** (n * (g - 1) + e) == Fraction(2) ** (n * (g - 1) - (-e))


def test_maximal_count_closed_forms():
    assert maximal_count(1, 2, 1) == 4
    assert maximal_count(2, 2, -1) == 20
    assert maximal_count(2, 2, 0) == 16
    assert maximal_count(2, 3, 0) == 112
    for g in range(2, 7):
        ell = (g + 1) % 2
        assert maximal_count(1, g, ell) == 2**g


def test_maximal_count_parity_error():
    with pytest.raises(ParityError):
        maximal_count(1, 2, 0)
    with pytest.raises(ParityError):
        maximal_count(3, 3, 1)
    # n even is always admissible
    maximal_count(2, 2, 1)


def test_ranks_above_backend_limit_refused_before_points():
    with pytest.raises(ValueError, match=r"count limit of 21: .* orbits of 2\^22 = 4194304 points"):
        maximal_count(22, 3, 0)
    with pytest.raises(ValueError, match=r"exact limit of 15: .* 2\^16 = 65536 points"):
        gw_invariant(16, 1, 1, [(1,)] * 17)
    with pytest.raises(ValueError, match=r"limit of 18: .* 2\^19 = 524288 points"):
        gw_invariant(19, 1, 0, [], "float")
    with pytest.raises(ValueError, match="limit of 15"):
        intersection_number(40, 2, 0, -20, ONE)


def test_maximal_count_agrees_with_intersection_number():
    # the count sums traces over point orbits at every genus; the intersection
    # number with P = 1 visits every point's table (`_table_sum`)
    checks = 0
    for n in range(1, 10):
        for g in range(n == 9, 7):  # the table sum inverts S at every point at genus 0
            for ell in range(-3, 4):
                if n * (ell - g + 1) % 2:
                    continue
                e = n * (ell - g + 1) // 2
                assert maximal_count(n, g, ell) == intersection_number(n, g, ell, e, ONE)
                checks += 1
    assert checks == 317


def test_staircase_gw_invariants_match_the_table_sum():
    # gw with staircase insertions only takes the group-ring route (genus 0
    # is pinned in test_genus_zero_staircase_sums_match_the_table_sum)
    checks = 0
    for n in range(1, 7):
        top = staircase(n)
        for g in range(1, 7):
            for count in range(5):
                d = required_degree(n, g, [top] * count)
                if d is None:
                    continue
                assert gw_invariant(n, g, d, [top] * count) == invariants._table_sum(
                    n, g, "exact", n * (g - 1) - d, [top.parts] * count)
                checks += 1
    assert checks == 135


def test_exact_counts_build_no_point_tables():
    _point_tables.cache_clear()
    points = summation_tuples.cache_info()
    try:
        for n, g, ell in [(4, 3, 0), (5, 2, 1), (6, 1, -1), (7, 5, 2), (16, 2, 0),
                          (4, 0, 1), (5, 0, -1), (16, 0, 0)]:
            maximal_count(n, g, ell)
        gw_invariant(3, 2, 3, [staircase(3)])
        gw_invariant(3, 0, 2, [staircase(3)] * 3)
        assert _point_tables.cache_info() == (0, 0, None, 0)
        assert summation_tuples.cache_info() == points
    finally:
        _point_tables.cache_clear()


def test_genus_one_counts_form_no_staircase_product():
    # S^0 = 1: a genus-1 count sums the bare traces over the orbits
    _count._orbit_staircases.cache_clear()
    _count._TOTALS.clear()
    try:
        assert maximal_count(9, 1, 0) == 2**9
        assert maximal_count(6, 1, -1) == 2**3
        assert _count._orbit_staircases.cache_info().currsize == 0
        maximal_count(6, 2, 0)
        assert _count._orbit_staircases.cache_info().currsize == 1
    finally:
        _count._orbit_staircases.cache_clear()
        _count._TOTALS.clear()


def _pair_constant(N):
    """c, the product of y_a - y_b over pairs a < b of the window's opposite
    pairs, y_a = zeta^(2 lo + 4a) the square of either pick, lo = 1 - N."""
    m = 4 * N
    return CyclotomicNumber(m, _ring_staircase(m, [(2 - 2 * N + 4 * a) % m for a in range(N)],
                                               2 * N))


def test_pair_order_vandermonde_times_the_staircase_is_one_element():
    # the square y_a of pair a's pick does not depend on the pick, and S is
    # symmetric, so S * V = c at every point, V the product of x_a - x_b over
    # a < b in pair order; and c^2 = (-1)^P * N^N
    for n in range(1, 9):
        N = n + 1
        m, P = 4 * N, N * (N - 1) // 2
        c = _pair_constant(N)
        assert c * c == (-1) ** P * N**N
        lows = range(1 - N, 1 + N, 2)
        for J in summation_tuples(N):
            picks = [lo if lo in J.doubled else lo + 2 * N for lo in lows]
            S = CyclotomicNumber(m, _ring_staircase(m, [d % m for d in J.doubled]))
            x = [root_of_unity(m, d % m) for d in picks]
            V = prod((x[a] - x[b] for a, b in combinations(range(N), 2)), start=1)
            assert S * V == c


def test_genus_zero_weight_is_the_staircase_inverse_times_an_integer():
    # S * c * x^o * V'(x^2) = (-1)^P * N^N in the field at every orbit
    # representative, V' and o from the memo at shift N
    for n in range(1, 8):
        N = n + 1
        m, P = 4 * N, N * (N - 1) // 2
        c = _pair_constant(N)
        ring, memo = _count._orbit_staircases(n, N)
        for (rep, _), (W, o) in zip(point_orbits(N), memo):
            S = CyclotomicNumber(m, _ring_staircase(m, [d % m for d in rep.doubled]))
            V = [0] * m
            for k, w in enumerate(ring.coeffs(W)):
                V[(o + 2 * k) % m] = w
            assert S * c * CyclotomicNumber(m, V) == (-1) ** P * N**N


def test_genus_zero_staircase_sums_match_the_table_sum():
    # the trace route takes no inverse; the reference inverts S at every point.
    # A count depends on ell through its parity only, so each reference sum is
    # formed once
    @lru_cache(maxsize=None)
    def table_sum(n, exponent, count):
        return invariants._table_sum(n, 0, "exact", exponent, [staircase(n).parts] * count)

    counts = gws = odd_root = 0
    try:
        for n in range(1, 11):
            for ell in range(-3, 4):
                if n * (ell + 1) % 2:
                    continue
                odd = ell % 2
                assert maximal_count(n, 0, ell) == table_sum(n, n * (-1 - odd) // 2, odd)
                counts += 1
            top = staircase(n)
            for count in range(5 if n <= 8 else 0):
                d = required_degree(n, 0, [top] * count)
                if d is None:
                    continue
                assert gw_invariant(n, 0, d, [top] * count) == table_sum(n, -n - d, count)
                gws += 1
                odd_root += n % 2 * count % 2
            _point_tables.cache_clear()
    finally:
        _point_tables.cache_clear()
    assert (counts, gws, odd_root) == (55, 24, 8)


def test_elementary_values_built_on_first_use(monkeypatch):
    from lgquot import symfunc

    built, expanded = [], []
    build, pfaffian = symfunc.PointTable._build_elementary, symfunc.pfaffian

    def spy(table):
        built.append(table)
        return build(table)

    def pfaffian_spy(backend, matrix):
        expanded.append(matrix)
        return pfaffian(backend, matrix)

    monkeypatch.setattr(symfunc.PointTable, "_build_elementary", spy)
    monkeypatch.setattr(symfunc, "pfaffian", pfaffian_spy)
    _point_tables.cache_clear()
    try:
        # a count of either parity reads the staircase Schur value and, for odd
        # ell, the staircase qtilde value the point tables were given
        maximal_count(4, 3, 0)
        maximal_count(4, 2, 0, "float")
        maximal_count(4, 3, 1)
        maximal_count(5, 2, 1, "float")
        assert intersection_number(1, 2, 1, 0, ONE) == 4
        assert built == [] and expanded == []
        # a non-staircase insertion builds them, once per point
        assert gw_invariant(3, 0, 0, [(2, 1), (3,)]) == 1
        assert len(built) == 2**3
        assert len(set(map(id, built))) == len(built)
        assert expanded
    finally:
        _point_tables.cache_clear()


def test_float_odd_ell_counts_are_exact():
    # the float staircase Pfaffian lost these: off by 1, off by 2,083, NONINTEGER
    assert maximal_count(8, 2, 1, "float") == 285284608
    assert maximal_count(9, 2, 1, "float") == 18151981056
    assert maximal_count(10, 2, 1, "float") == 1756085285888


def _outcome(compute):
    try:
        return compute()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_float_sum_matches_the_table_sum_bit_for_bit():
    # the float staircase-only sum builds no point table but keeps the float
    # operations of `_table_sum` in their order: the same integer or the same error
    from lgquot._float import _float_sum

    checks, raised = 0, 0
    try:
        for n in range(1, 10):
            top = staircase(n).parts
            for g in range(6):
                for count in range(4):
                    for exponent in (-3, 0, 2):
                        fast = _outcome(lambda: _float_sum(n, g, exponent, count))
                        assert fast == _outcome(lambda: invariants._table_sum(
                            n, g, "float", exponent, [top] * count)), (n, g, count, exponent)
                        checks += 1
                        raised += isinstance(fast, tuple)
            _point_tables.cache_clear()
        overflow = _outcome(lambda: _float_sum(1, 20000, 0, 0))
        assert overflow[0] is ValueError and "float backend's range" in overflow[1]
        assert overflow == _outcome(lambda: invariants._table_sum(1, 20000, "float", 0, []))
    finally:
        _point_tables.cache_clear()
    assert checks == 648 and 0 < raised < checks
    # the sum is unchanged, so is its rounding: the exact count is 8304582944948224
    assert maximal_count(8, 3, 0, "float") == 8304582944948212
    assert maximal_count(8, 3, 0) == 8304582944948224


def test_float_counts_build_no_point_tables():
    # every float count, genus 0 too, and float gw with staircase insertions only
    queries = [(maximal_count, (n, g, ell)) for n, g, ell in [(4, 3, 0), (5, 2, 1), (6, 0, -1)]]
    queries.append((gw_invariant, (3, 2, 3, [staircase(3)])))
    _point_tables.cache_clear()
    points = summation_tuples.cache_info()
    try:
        floats = [query(*args, backend="float") for query, args in queries]
        assert _point_tables.cache_info() == (0, 0, None, 0)
        assert summation_tuples.cache_info() == points
        assert floats == [query(*args) for query, args in queries]
    finally:
        _point_tables.cache_clear()


def test_point_from_tuple_matches_complex_coordinates():
    import cmath

    from lgquot.cyclotomic import make_backend
    from lgquot.invariants import point_from_tuple
    from lgquot.partitions import summation_tuples

    backend = make_backend("exact", 2)
    for J in summation_tuples(3):
        point = point_from_tuple(backend, J)
        for value, doubled in zip(point, J.doubled):
            expected = cmath.exp(1j * cmath.pi * doubled / 6)
            assert abs(value.to_complex() - expected) < 1e-12


def _orbit_sum(n, g, exponent, qtildes):
    """`_point_sum`'s value as sum over orbits |O| * Tr(summand at the representative) / phi."""
    backend, tables = _point_tables(n, "exact")
    index = {J: t for t, J in enumerate(summation_tuples(n + 1))}
    total = Fraction(0)
    for rep, size in point_orbits(n + 1):
        table = tables[index[rep]]
        term = backend.power(table.schur(staircase(n).parts), g - 1)
        for parts in qtildes:
            term = term * table.qtilde(parts)
        total += size * field_trace(term)
    return total / euler_phi(backend.order) * Fraction(2) ** exponent


def test_orbit_trace_sum_matches_point_sum():
    checks = 0
    for n in range(1, 7):
        for g in range(5):
            for ell in range(3):
                if n * (ell - g + 1) % 2:
                    continue
                odd = ell % 2
                qtildes = [staircase(n).parts] if odd else []
                exponent = n * (g - 1 - odd) // 2
                assert _orbit_sum(n, g, exponent, qtildes) == _point_sum(
                    n, g, "exact", exponent, qtildes)
                checks += 1
    for n in range(1, 5):
        basis = strict_partitions(n)
        for g in range(3):
            for size in (1, 2, 3):
                for insertions in combinations_with_replacement(basis, size):
                    d = required_degree(n, g, insertions)
                    if d is None:
                        continue
                    qtildes = [lam.parts for lam in insertions]
                    assert _orbit_sum(n, g, n * (g - 1) - d, qtildes) == _point_sum(
                        n, g, "exact", n * (g - 1) - d, qtildes)
                    checks += 1
    assert checks == 807


def _full_ring_trace_sum(n, g, exponent, staircases):
    """The reference for `_count._trace_sum`: S formed in the full ring
    Z[x]/(x^(4N) - 1) at every orbit representative, on every call."""
    m = 4 * (n + 1)
    sums = _ramanujan_sums(m)
    twos = exponent + n // 2 * staircases + n % 2 * (staircases // 2)
    root = m // 8 if n % 2 and staircases % 2 else 0  # sqrt(2) = x^root + x^-root
    trace = [sums[(j + root) % m] + sums[(j - root) % m] for j in range(m)] if root else sums
    orbits = point_orbits(n + 1)
    assert sum(size for _, size in orbits) == 2**n
    total = 0
    for rep, size in orbits:
        W = ring_power(m, _ring_staircase(m, [d % m for d in rep.doubled]), g - 1)
        sign = rep.staircase_sign if staircases % 2 else 1
        total += sign * size * sum(map(mul, W, trace))
    num, den = total << max(twos, 0), euler_phi(m) << max(-twos, 0)
    assert num % den == 0
    return num // den


def test_half_ring_counts_match_the_full_ring_sum():
    checks = 0
    for n in range(1, 14):
        for g in range(1, 7):
            for ell in range(-2, 3):
                if n * (ell - g + 1) % 2:
                    continue
                odd = ell % 2
                assert maximal_count(n, g, ell) == _full_ring_trace_sum(
                    n, g, n * (g - 1 - odd) // 2, odd)
                checks += 1
    assert checks == 285


def test_half_ring_staircase_gw_invariants_match_the_full_ring_sum():
    # odd n with an odd number of insertions reads the sqrt(2)-shifted trace;
    # genus 5 and 6 take powers 4 and 5, with minus sums at odd insertions
    checks = odd_root = 0
    for n in range(1, 10):
        top = staircase(n)
        for g in range(1, 7):
            for count in range(5):
                d = required_degree(n, g, [top] * count)
                if d is None:
                    continue
                assert gw_invariant(n, g, d, [top] * count) == _full_ring_trace_sum(
                    n, g, n * (g - 1) - d, count)
                checks += 1
                odd_root += n % 2 * count % 2
    assert (checks, odd_root) == (195, 30)


def test_orbit_sums_match_the_list_sum_of_rotated_weights():
    # every slot of every packed sum against the same sum in list arithmetic:
    # size times the orbit's weight rotated by o // 2, keyed by (o mod 2,
    # sign).  A slot that overflowed its headroom would spill into the next
    # one, which the integrality check of a count need not see; many of these
    # sums need more than the (g-1)P + 1 bits that one weight needs
    past_one_weight = minus = 0
    for n in range(1, 13):
        N = n + 1
        m, P = 4 * N, N * (N - 1) // 2
        for g in (0, 2, 3, 4):
            base, memo = _count._orbit_staircases(n, 0 if g else N)
            for signed in (False, True):
                signs = _count._orbit_signs(n) if signed else [1] * len(memo)
                reference = {}
                for (_pick, size), sign, (W, lead) in zip(_count._orbit_picks(N), signs, memo):
                    weight = base.coeffs(W)
                    if g > 2:
                        weight, lead = ring_power(2 * N, weight, g - 1), (g - 1) * lead
                    start = lead % m
                    total = reference.setdefault((start % 2, sign), [0] * (2 * N))
                    for k, c in enumerate(weight):
                        total[(k + start // 2) % (2 * N)] += size * c
                ring, sums = _count._orbit_sums(n, [g], signed)[0]
                assert {key: ring.coeffs(W) for key, W in sums.items()} == reference
                if g > 2:  # the same sums at the end of a power chain from genus 2
                    chain_ring, chain_sums = _count._orbit_sums(n, [2, g], signed)[1]
                    assert (chain_ring.width, chain_sums) == (ring.width, sums)
                minus += sum(sign < 0 for _parity, sign in sums)
                slot = max(max(total) for total in reference.values()).bit_length()
                past_one_weight += slot > -(-((g - 1 if g else 1) * P + 1) // 8) * 8
    assert (past_one_weight, minus) == (34, 40)


def test_half_ring_staircase_is_the_even_slots_of_the_full_product():
    # S = x^(d_1 P) * S'(x^2): every slot of S off d_1 P's parity is zero
    for n in range(1, 11):
        N = n + 1
        m, P = 4 * N, N * (N - 1) // 2
        for J in summation_tuples(N):
            d_1 = J.doubled[0]
            full = _ring_staircase(m, [d % m for d in J.doubled])
            half = _ring_staircase(2 * N, [(d - d_1) // 2 for d in J.doubled])
            shifted = [0] * m
            for k, c in enumerate(half):
                shifted[(d_1 * P + 2 * k) % m] = c
            assert full == shifted


def test_orbit_staircases_are_formed_once_per_rank(monkeypatch, capsys):
    # a table over five genera forms the fixed element c of genus 0 once and
    # each orbit's S' (shift 0) and V' (shift N) in one memo per shift, kept
    # packed; a second table at the rank forms no staircase product at all.
    # The trace read shifts each orbit's weight too, so only the shifts made
    # by the memo's own pass are counted
    products, shifts = [], []
    ring_shift = _PackedRing.shift
    memo_pass = _count._orbit_staircases.__wrapped__.__code__

    def spy(m, exponents, shift=0):
        products.append((m, exponents, shift))
        return _ring_staircase(m, exponents, shift)

    def shift_spy(ring, p, a):
        if sys._getframe(1).f_code is memo_pass:
            shifts.append(ring.m)
        return ring_shift(ring, p, a)

    monkeypatch.setattr(_count, "_ring_staircase", spy)
    monkeypatch.setattr(_PackedRing, "shift", shift_spy)
    _count._orbit_staircases.cache_clear()
    _count._TOTALS.clear()
    _count._trace_halves.cache_clear()
    _count._orbit_signs.cache_clear()
    try:
        assert main(["table", "--n", "6", "--genus-range", "0..4", "--ell", "0"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
        N, orbits = 7, point_orbits(7)
        assert products == [(4 * N, [(2 - 2 * N + 4 * a) % (4 * N) for a in range(N)], 2 * N)]
        assert _count._orbit_staircases.cache_info()[1:] == (2, None, 2)  # misses, size
        assert set(shifts) == {2 * N}
        for shift in (0, N):
            _ring, memo = _count._orbit_staircases(6, shift)
            assert len(memo) == len(orbits)
            assert all(type(packed) is int for packed, _ in memo)
        del products[:], shifts[:]
        assert main(["table", "--n", "6", "--genus-range", "0..4", "--ell", "0"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
        assert products == shifts == []
        assert _count._orbit_staircases.cache_info()[1] == 2
    finally:
        _count._orbit_staircases.cache_clear()
        _count._TOTALS.clear()


def test_count_orbits_are_the_point_orbits_as_pick_vectors():
    # the count engine reads each orbit as its representative's pick vector
    # (bit i for pair i's high pick) with the walk's size, and its staircase
    # sign from the decoded point, with no IndexTuple; partitions builds its
    # representatives from the same walk
    for n in range(1, 15):
        N = n + 1
        orbits, picks = point_orbits(N), _count._orbit_picks(N)
        assert [sum(1 << (d + N - 1) // 2 - N for d in rep.doubled if d > N)
                for rep, _size in orbits] == [v for v, _size in picks]
        assert [size for _rep, size in orbits] == [size for _v, size in picks]
        assert _count._orbit_signs(n) == tuple(rep.staircase_sign for rep, _size in orbits)


def test_orbit_staircases_match_the_product_per_representative():
    # the depth-first memo against the product formed at each representative
    # on its own: S' over the exponents ascending, V' in pair order
    for n in range(1, 15):
        N = n + 1
        P = N * (N - 1) // 2
        for shift in (0, N):
            ring, memo = _count._orbit_staircases(n, shift)
            assert (ring.m, ring.width) == (2 * N, -(-(P + n + 1) // 8) * 8)
            reference = []
            for rep, _size in point_orbits(N):
                d = (sorted(rep.doubled, key=lambda x: (x + N - 1) // 2 % N) if shift
                     else rep.doubled)
                reference.append((pack(ring, _ring_staircase(
                    2 * N, [(e - d[0]) // 2 for e in d], shift)), d[0] * P))
            assert memo == tuple(reference)


def _spy_on_packed_products(monkeypatch):
    """The ring order m of every `_PackedRing.mul` product formed from here on."""
    products = []
    ring_mul = _PackedRing.mul

    def spy(ring, p, q):
        products.append(ring.m)
        return ring_mul(ring, p, q)

    monkeypatch.setattr(_PackedRing, "mul", spy)
    return products


def test_genus_zero_traces_form_no_packed_product(monkeypatch):
    # genus 0 reads each V' against the twisted trace vector: no product at
    # all, where genus 3 squares each S' in the half ring, once per orbit
    products = _spy_on_packed_products(monkeypatch)
    _count._orbit_staircases.cache_clear()
    _count._TOTALS.clear()
    try:
        assert maximal_count(9, 0, 1) == 1
        assert maximal_count(8, 0, 0) == 0
        assert required_degree(5, 0, [staircase(5)] * 3) == 5
        gw_invariant(5, 0, 5, [staircase(5)] * 3)
        assert products == []
        maximal_count(8, 3, 0)
        assert len(point_orbits(9)) == 11
        assert products == [18] * 11
    finally:
        _count._orbit_staircases.cache_clear()
        _count._TOTALS.clear()


def test_genus_two_counts_form_no_packed_product(monkeypatch):
    # S^1 is each orbit's S' as the memo keeps it: no power is formed
    products = _spy_on_packed_products(monkeypatch)
    _count._orbit_staircases.cache_clear()
    _count._TOTALS.clear()
    try:
        assert maximal_count(6, 2, 0) == 219136
        assert maximal_count(3, 2, 1) == maximal_count(3, 2, 3) == 128
        maximal_count(8, 2, 0)
        assert gw_invariant(5, 2, 5, [staircase(5)]) == 13568
        assert products == []
        maximal_count(6, 4, 0)
        assert products == [14] * (2 * len(point_orbits(7)))
    finally:
        _count._orbit_staircases.cache_clear()
        _count._TOTALS.clear()


def test_a_repeated_count_reads_no_orbit(monkeypatch):
    # the orbit sizes are summed once per walk: a count whose total is kept,
    # on the walk already checked, iterates no orbit
    iterations = []

    class Walk(tuple):
        def __iter__(self):
            iterations.append(len(self))
            return super().__iter__()

    walk = Walk(_count._orbit_picks(7))
    monkeypatch.setattr(_count, "_orbit_picks", lambda N: walk)
    monkeypatch.setattr(_count, "_CHECKED", {})
    assert maximal_count(6, 3, 0) == 7391875072
    assert iterations
    del iterations[:]
    for _ in range(3):
        assert maximal_count(6, 3, 0) == 7391875072
    assert iterations == []
    assert _count._CHECKED == {6: walk}


def test_genus_zero_twist_is_formed_once_per_rank(monkeypatch):
    # c and the trace vector twisted by it are kept per rank: a second
    # genus-0 sum at the rank forms no staircase product at all.  At odd n
    # every genus-0 sum has an odd number of staircase factors, so all of
    # them read the sqrt(2)-shifted trace
    products = []

    def spy(m, exponents, shift=0):
        products.append(m)
        return _ring_staircase(m, exponents, shift)

    _count._trace_halves.cache_clear()
    _count._orbit_staircases.cache_clear()
    _count._TOTALS.clear()
    monkeypatch.setattr(_count, "_ring_staircase", spy)
    try:
        assert maximal_count(7, 0, 1) == 1
        assert products.count(32) == 1
        del products[:]
        assert maximal_count(7, 0, -1) == 1
        assert maximal_count(7, 0, 3) == 1
        assert gw_invariant(7, 0, 0, [staircase(7)]) == 1
        assert gw_invariant(7, 0, 7, [staircase(7)] * 3) == 1
        assert products == []
    finally:
        _count._trace_halves.cache_clear()
        _count._orbit_staircases.cache_clear()
        _count._TOTALS.clear()



def test_staircase_sums_that_rotation_does_not_fix_are_zero():
    # for odd n and odd g - 1 + staircases, rotating the points negates the
    # summand, so the sum is 0; the orbit trace assumes a summand
    # that rotation fixes, and is not asked, so no such total is kept
    for n in (1, 3, 5, 7):
        top = staircase(n).parts
        for g in range(4):
            for count in range(3):
                assert _count._staircase_sum(n, g, "exact", 0, count) == invariants._table_sum(
                    n, g, "exact", 0, [top] * count)
    assert not [key for key in _count._TOTALS if key[0] % 2 and (key[1] - 1 + key[2]) % 2]


def test_trace_totals_of_a_genus_range_match_single_genus_calls():
    # one pass over a range, genus 0 and 1 on their own routes and a power
    # chain above, skipping the genera with no finite count, against one
    # genus per call on a cleared memo
    try:
        for n in range(1, 13):
            for odd in (0, 1):
                genera = [g for g in range(9) if not (n % 2 and (g - 1 + odd) % 2)]
                _count._TOTALS.clear()
                chained = _count._trace_totals(n, genera, odd)
                single = []
                for g in genera:
                    _count._TOTALS.clear()
                    single += _count._trace_totals(n, [g], odd)
                assert chained == single
    finally:
        _count._TOTALS.clear()


def test_a_sum_at_a_kept_trace_total_forms_no_product(monkeypatch):
    # the first sum at a (rank, genus, ell parity) forms the total; a second
    # one, a count or a staircase-only gw at the same key, forms no packed
    # product and no staircase product
    products = _spy_on_packed_products(monkeypatch)
    staircases = []

    def spy(m, exponents, shift=0):
        staircases.append(m)
        return _ring_staircase(m, exponents, shift)

    monkeypatch.setattr(_count, "_ring_staircase", spy)
    _count._trace_halves.cache_clear()
    _count._orbit_staircases.cache_clear()
    _count._TOTALS.clear()
    keys = [(6, 0, 1), (6, 3, 0), (7, 4, 1), (5, 2, 1), (8, 1, 0)]
    try:
        values = [maximal_count(*key) for key in keys]
        assert products and staircases
        del products[:], staircases[:]
        assert [maximal_count(*key) for key in keys] == values
        assert gw_invariant(5, 2, 5, [staircase(5)]) == 13568
        assert products == staircases == []
    finally:
        _count._trace_halves.cache_clear()
        _count._orbit_staircases.cache_clear()
        _count._TOTALS.clear()


def test_a_genus_range_forms_one_product_per_orbit_per_later_genus(monkeypatch):
    # the first genus above 2 raises S' from the base (genus 3: one squaring;
    # genus 9: three), and each later genus, skipped ones included, is the
    # last power times S'; genus 2 is S' itself
    products = _spy_on_packed_products(monkeypatch)
    _count._TOTALS.clear()
    orbits = len(point_orbits(7))
    try:
        _count._trace_totals(6, range(3, 9), 0)
        assert products == [14] * (orbits * (1 + 5))
        del products[:]
        _count._trace_totals(6, [9, 12], 0)
        assert products == [14] * (orbits * (3 + 3))
        del products[:]
        _count._trace_totals(6, [2, 3, 4], 1)
        assert products == [14] * (orbits * 2)
    finally:
        _count._TOTALS.clear()


def test_genus_one_table_sums_form_no_staircase_value():
    # S^0 = 1: a genus-1 sum over the exact point tables reads no S, so the
    # first such gw at a rank forms no staircase product at any point
    _point_tables.cache_clear()
    try:
        assert gw_invariant(5, 1, 1, [(3, 1), (2,)]) == 480
        assert gw_invariant(6, 1, 2, [(4, 1), (6, 3)]) == 4144
        for n in (5, 6):
            _backend, tables = _point_tables(n, "exact")
            assert not any(table._schur for table in tables)
    finally:
        _point_tables.cache_clear()

def test_exact_tables_form_each_staircase_product_on_first_use(monkeypatch):
    # building the exact tables forms no staircase product; the first table sum
    # that reads S forms one per point, at the point's own exponents, and later
    # sums at the rank form none.  Both field orders are covered: 4(n+1) for
    # odd n and 8(n+1) for even n
    products = []

    def spy(m, exponents, shift=0):
        products.append(exponents)
        return _ring_staircase(m, exponents, shift)

    monkeypatch.setattr(symfunc, "_ring_staircase", spy)
    orders = set()
    _point_tables.cache_clear()
    try:
        for n in range(1, 11):
            del products[:]
            backend, tables = _point_tables(n, "exact")
            assert products == []
            orders.add(backend.order // (n + 1))
            top = staircase(n).parts
            assert invariants._table_sum(n, 2, "exact", 0, [top]) == maximal_count(n, 2, 1)
            assert len(products) == 2**n
            assert invariants._table_sum(n, 3, "exact", n, []) == maximal_count(n, 3, 0)
            if n <= 6:  # S^-1 at every point
                assert invariants._table_sum(n, 0, "exact", -n, [top]) == maximal_count(n, 0, 1)
            assert len(products) == 2**n
            for table in tables:
                assert table._schur[top] == backend.from_ring(
                    _ring_staircase(backend.order, table.exponents))
    finally:
        _point_tables.cache_clear()
    assert orders == {4, 8}


def test_float_tables_match_point_from_tuple():
    from lgquot.invariants import point_from_tuple

    for n in range(1, 10):
        backend, tables = _point_tables(n, "float")
        for J, table in zip(summation_tuples(n + 1), tables):
            assert table.values == point_from_tuple(backend, J)


def test_staircase_qtilde_squares_to_two_power():
    # at every admissible point the staircase qtilde Pfaffian is the sign of
    # the staircase Schur value times 2^(n/2): exactly, and in sign in float
    from lgquot.cyclotomic import make_backend
    from lgquot.invariants import point_from_tuple
    from lgquot.partitions import summation_tuples
    from lgquot.symfunc import PointTable

    for n in range(1, 11):
        backend = make_backend("exact" if n <= 7 else "float", n)
        root = backend.from_fraction(2 ** (n // 2))
        if n % 2:
            root = root * backend.sqrt2()
        for J in summation_tuples(n + 1):
            table = PointTable(backend, point_from_tuple(backend, J))
            v = table.qtilde(staircase(n).parts)
            if n <= 7:
                assert v == J.staircase_sign * root
                assert v * v == backend.from_fraction(2**n)
            else:
                assert v.real * J.staircase_sign > 0
            s = table.schur(staircase(n).parts)
            assert backend.to_complex(s).real * J.staircase_sign > 0


def _relations_hold(table, n):
    """qtilde_pair(i, i) = 0 for i = 1..n: the relations of the rank-n presentation."""
    return all(table.qtilde_pair(i, i).is_zero() for i in range(1, n + 1))


def test_summation_points_satisfy_the_presentation_relations():
    # at q = 1 the quantum parameter is E_{n+1}, the product of the coordinates;
    # qtilde_pair(n+1, n+1) is a control that the relations do not force to vanish
    for n in range(1, 8):
        _backend, tables = _point_tables(n, "exact")
        for table in tables:
            assert table.e(n + 1) == 1
            assert _relations_hold(table, n)
            assert not table.qtilde_pair(n + 1, n + 1).is_zero()


def test_presentation_relations_pick_out_the_summation_points():
    # independently of how summation_tuples builds them: over the whole window,
    # the relations hold exactly at the tuples without opposite coordinates, and
    # E_{n+1} = 1 then leaves exactly the summation points, in order
    from lgquot.cyclotomic import make_backend
    from lgquot.invariants import point_from_tuple
    from lgquot.partitions import filter_no_opposites, root_tuples
    from lgquot.symfunc import PointTable

    for n in range(1, 5):
        backend = make_backend("exact", n)
        tuples = root_tuples(n + 1)
        tables = [PointTable(backend, point_from_tuple(backend, J)) for J in tuples]
        related = [J for J, t in zip(tuples, tables) if _relations_hold(t, n)]
        assert related == filter_no_opposites(tuples)
        assert [J for J, t in zip(tuples, tables)
                if _relations_hold(t, n) and t.e(n + 1) == 1] == list(summation_tuples(n + 1))


def test_schubert_expression_algebra():
    a1 = SchubertExpression.special(1)
    a2 = SchubertExpression.special(2)
    expr = 2 * a1**2 - a2
    assert expr.is_homogeneous()
    assert expr.degree() == 2
    assert (a1 + a2).is_homogeneous() is False
    with pytest.raises(NonHomogeneousError):
        (a1 + a2).degree()
    assert (expr - expr).terms == ()
    assert (a1 * Fraction(1, 2) * 2).terms == a1.terms
    assert (a1**0).terms == ONE.terms
    assert SchubertExpression.constant(0).degree() == 0


def test_schubert_expression_evaluation_matches_direct_product():
    backend, tables = _point_tables(2, "exact")
    expr = SchubertExpression.monomial([(2, 1), (1,), (1,)], Fraction(3, 2))
    for table in tables:
        direct = backend.from_fraction(Fraction(3, 2))
        for parts in [(2, 1), (1,), (1,)]:
            direct = direct * table.qtilde(parts)
        assert expr.evaluate(table) == direct


def test_verify_twist_identity_cases():
    assert verify_twist_identity(2, 2, 0, -1, ONE, 1)
    # the shifted side recomputes the same 16 at (ell, e) = (2, 1)
    assert intersection_number(2, 2, 2, 1, ONE) == 16
    assert verify_twist_identity(1, 2, 1, 0, ONE, -2)
    assert verify_twist_identity(2, 3, -1, -4, SchubertExpression.special(1) ** 3, 0)


def test_verify_hecke_recursion_cases():
    assert verify_hecke_recursion(1, 2, 1, 0, ONE, 1)
    # both sides of the rank-one case evaluate to 4
    assert intersection_number(1, 2, 1, 0, ONE) == 4
    staircase_squared = SchubertExpression.qtilde_factor((1,)) ** 2
    assert intersection_number(1, 2, 1, -1, staircase_squared) == 4
    assert verify_hecke_recursion(2, 2, 0, -1, ONE, 1)
    assert verify_hecke_recursion(2, 2, 0, -1, ONE, 0)
    assert verify_hecke_recursion(2, 2, 0, -1, ONE, 2)


def test_verify_staircase_insertion_cases():
    assert verify_staircase_insertion(1, 1, 0, [], 1)
    assert verify_staircase_insertion(2, 0, 0, [(1,), (1,), (1,)], 1)
    assert verify_staircase_insertion(2, 1, 1, [(2, 1)], 0)
    with pytest.raises(ValueError):
        verify_staircase_insertion(1, 1, 0, [], -1)


def test_float_backend_matches_exact_on_small_values():
    assert gw_invariant(2, 0, 0, [(1,), (1,), (1,)], "float") == 2
    assert maximal_count(2, 2, -1, "float") == 20
    assert maximal_count(2, 3, 0, "float") == 112
    assert intersection_number(2, 2, 0, -1, ONE, "float") == 16


def test_exact_values_are_integral_on_a_small_grid():
    # zero cyclotomic residual: extraction would raise otherwise
    for n in (1, 2):
        for g in range(0, 4):
            for e in range(-4, 1):
                for ell in (-1, 0):
                    D = expected_dimension(n, e, ell, g)
                    if 0 <= D <= 8:
                        P = SchubertExpression.special(1) ** D
                        value = intersection_number(n, g, ell, e, P)
                        assert isinstance(value, int)
                        assert value >= 0
