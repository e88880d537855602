import random
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from types import SimpleNamespace

import pytest

from lgquot import symfunc
from lgquot._ring import _PackedRing
from lgquot._ring import _ring_staircase as ring_staircase
from lgquot.cyclotomic import ExactBackend, FloatBackend, make_backend
from lgquot.invariants import point_from_tuple
from lgquot.partitions import staircase, summation_tuples
from lgquot.symfunc import (
    PointTable,
    SkewMatrix,
    complete_all,
    determinant,
    elementary_all,
    pfaffian,
    qtilde,
    qtilde_pair,
    schur,
)

BACKEND = ExactBackend(8)


def det_oracle(backend, rows):
    """Reference determinant: first-row expansion with column-subset memoization."""
    n = len(rows)
    memo = {}

    def rec(cols):
        if not cols:
            return backend.one
        if cols in memo:
            return memo[cols]
        r = n - len(cols)
        total = backend.zero
        for idx, c in enumerate(cols):
            term = rows[r][c] * rec(cols[:idx] + cols[idx + 1:])
            total = total + term if idx % 2 == 0 else total - term
        memo[cols] = total
        return total

    return rec(tuple(range(n)))


def rational_point(rng, size, span=9):
    seen = set()
    values = []
    while len(values) < size:
        f = Fraction(rng.randint(-span, span), rng.randint(1, 4))
        if f not in seen:
            seen.add(f)
            values.append(BACKEND.from_fraction(f))
    return tuple(values)


def brute_elementary(backend, values, k):
    total = backend.zero
    for combo in combinations(values, k):
        term = backend.one
        for x in combo:
            term = term * x
        total = total + term
    return total


def brute_complete(backend, values, k):
    total = backend.zero
    for combo in combinations_with_replacement(values, k):
        term = backend.one
        for x in combo:
            term = term * x
        total = total + term
    return total


def test_elementary_single_variable():
    x = BACKEND.from_fraction(Fraction(5, 3))
    E = elementary_all(BACKEND, (x,))
    assert E[0] == 1
    assert E[1] == x


def test_elementary_at_eighth_roots():
    # the point (zeta_8^-1, zeta_8) has E_1 = sqrt(2) and E_2 = 1
    point = (BACKEND.root_of_unity(8, 7), BACKEND.root_of_unity(8, 1))
    E = elementary_all(BACKEND, point)
    assert E[1] == BACKEND.sqrt2()
    assert E[2] == BACKEND.one


def test_elementary_beyond_variable_count_is_zero():
    table = PointTable(BACKEND, rational_point(random.Random(0), 2))
    assert table.e(3).is_zero()
    assert table.e(-1).is_zero()


def test_elementary_matches_brute_force():
    rng = random.Random(1)
    for _ in range(20):
        point = rational_point(rng, rng.randint(1, 4))
        E = elementary_all(BACKEND, point)
        for k in range(len(point) + 1):
            assert E[k] == brute_elementary(BACKEND, point, k)


def test_complete_identities_and_brute_force():
    rng = random.Random(2)
    for _ in range(20):
        point = rational_point(rng, rng.randint(1, 3))
        H = complete_all(BACKEND, point, 4)
        E = elementary_all(BACKEND, point)
        assert H[0] == 1
        assert H[1] == E[1]
        if len(point) >= 2:
            assert H[2] == E[1] * E[1] - E[2]
        for k in range(5):
            assert H[k] == brute_complete(BACKEND, point, k)


def test_schur_trivial_cases():
    rng = random.Random(3)
    point = rational_point(rng, 3)
    assert schur(BACKEND, (), point) == 1
    assert schur(BACKEND, (1,), point) == point[0] + point[1] + point[2]


def test_schur_at_staircase_points():
    # at the two admissible rank-1 points the staircase value is +-sqrt(2)
    s2 = BACKEND.sqrt2()
    plus = (BACKEND.root_of_unity(8, 7), BACKEND.root_of_unity(8, 1))
    minus = (BACKEND.root_of_unity(8, 3), BACKEND.root_of_unity(8, 5))
    assert schur(BACKEND, (1,), plus) == s2
    assert schur(BACKEND, (1,), minus) == -s2
    # the closed staircase product equals Jacobi-Trudi at every admissible point, ranks 1-6
    for n in range(1, 7):
        top = staircase(n).parts + (0,)
        for kind in ("exact", "float"):
            backend = make_backend(kind, n)
            for J in summation_tuples(n + 1):
                table = PointTable(backend, point_from_tuple(backend, J))
                jacobi_trudi = determinant(
                    backend,
                    [[table.h(top[i] + j - i) for j in range(n + 1)] for i in range(n + 1)],
                )
                value = table.schur(top)
                if kind == "exact":
                    assert value == jacobi_trudi
                else:
                    assert abs(value - jacobi_trudi) <= 1e-9 * abs(jacobi_trudi)


def test_schur_against_ratio_of_alternants():
    rng = random.Random(4)
    checked = 0
    while checked < 100:
        size = rng.randint(2, 4)
        point = rational_point(rng, size)
        lam = tuple(
            sorted((rng.randint(0, 3) for _ in range(rng.randint(0, size))), reverse=True)
        )
        numerator = [
            [point[i] ** (lam[j] + size - 1 - j) if j < len(lam) else point[i] ** (size - 1 - j)
             for j in range(size)]
            for i in range(size)
        ]
        denominator = [
            [point[i] ** (size - 1 - j) for j in range(size)] for i in range(size)
        ]
        expected = det_oracle(BACKEND, numerator) / det_oracle(BACKEND, denominator)
        assert schur(BACKEND, lam, point) == expected
        checked += 1


def test_schur_symmetry_and_padding():
    rng = random.Random(5)
    for _ in range(10):
        point = rational_point(rng, 3)
        lam = (2, 1)
        value = schur(BACKEND, lam, point)
        for perm in permutations(point):
            assert schur(BACKEND, lam, perm) == value
        # determinant of size len(lam) instead of len(point) gives the same value
        table = PointTable(BACKEND, point)
        small = determinant(
            BACKEND,
            [[table.h(lam[i] + j - i) for j in range(len(lam))] for i in range(len(lam))],
        )
        assert small == value


def test_schur_with_too_many_rows_vanishes():
    point = rational_point(random.Random(6), 2)
    assert BACKEND.is_zero(schur(BACKEND, (3, 2, 1), point))


class _Yielding:
    """A rational whose multiply releases the GIL, so threads switch mid-recurrence."""

    def __init__(self, value):
        self.value = Fraction(value)

    def __mul__(self, other):
        time.sleep(0)
        return _Yielding(self.value * getattr(other, "value", other))

    __rmul__ = __mul__

    def __neg__(self):
        return _Yielding(-self.value)

    def __add__(self, other):
        return _Yielding(self.value + other.value)

    def __sub__(self, other):
        return _Yielding(self.value - other.value)

    def __eq__(self, other):
        return self.value == other.value


def test_complete_values_shared_across_threads():
    # threads extending one table's complete values must never store H_m at a wrong index
    backend = SimpleNamespace(zero=_Yielding(0), one=_Yielding(1))
    point = [_Yielding(Fraction(k, 3)) for k in (1, -2, 4, 5)]
    upto = 12
    expected = [PointTable(backend, point).h(k) for k in range(upto + 1)]
    wrong = []

    def fill(table, start, step):
        start.wait()
        for k in range(step, upto + 1, step):
            table.h(k)
        wrong.extend(k for k in range(upto + 1) if table.h(k) != expected[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            table = PointTable(backend, point)
            start = threading.Barrier(4)
            threads = [threading.Thread(target=fill, args=(table, start, step))
                       for step in (1, 2, 3, 5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


def test_elementary_and_qtilde_values_shared_across_threads():
    # threads building one fresh table's elementary values on first use, and the
    # qtilde values from them, must all read what a single-threaded table holds
    backend = SimpleNamespace(zero=_Yielding(0), one=_Yielding(1))
    point = [_Yielding(Fraction(k, 3)) for k in (1, -2, 4, 5, 7)]
    shapes = [(1,), (2, 1), (3, 1), (3, 2, 1), (4, 2), (5, 3, 1)]
    single = PointTable(backend, point)
    expected_e = [single.e(k) for k in range(len(point) + 1)]
    expected_q = [single.qtilde(lam) for lam in shapes]
    wrong = []

    def read(table, start, offset):
        start.wait()
        for k in range(offset, offset + len(point) + 1):
            k %= len(point) + 1
            if table.e(k) != expected_e[k]:
                wrong.append(("e", k))
        for i in range(len(shapes)):
            i = (i + offset) % len(shapes)
            if table.qtilde(shapes[i]) != expected_q[i]:
                wrong.append(("qtilde", shapes[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            table = PointTable(backend, point)
            start = threading.Barrier(4)
            threads = [threading.Thread(target=read, args=(table, start, offset))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


def test_group_ring_tables_match_the_oracle():
    # a table built from exponents in Z[x]/(x^m - 1) gives the Jacobi-Trudi
    # staircase value and elementary_all's E_0..E_N at every admissible point
    for n in range(1, 9):
        backend = make_backend("exact", n)
        scale = backend.order // (4 * (n + 1))
        top = staircase(n).parts + (0,)
        for J in summation_tuples(n + 1):
            values = point_from_tuple(backend, J)
            ring = PointTable(backend, exponents=[d * scale for d in J.doubled])
            plain = PointTable(backend, values)
            jacobi_trudi = determinant(
                backend,
                [[plain.h(top[i] + j - i) for j in range(n + 1)] for i in range(n + 1)],
            )
            assert ring.schur(top) == jacobi_trudi
            assert [ring.e(k) for k in range(n + 2)] == elementary_all(backend, values)
            assert ring.values == values


def test_exponent_table_takes_the_per_point_product(monkeypatch):
    # a table given exponents forms the group-ring product at its own point
    products = []

    def spy(m, exponents):
        products.append(exponents)
        return ring_staircase(m, exponents)

    monkeypatch.setattr(symfunc, "_ring_staircase", spy)
    backend = make_backend("exact", 4)
    scale = backend.order // 20
    top = staircase(4).parts
    points = summation_tuples(5)
    for J in points:
        ring = PointTable(backend, exponents=[d * scale for d in J.doubled])
        assert ring.schur(top) == PointTable(backend, point_from_tuple(backend, J)).schur(top)
    assert len(products) == len(points)


def _cyclic_product(m, p, q):
    out = [0] * m
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[(i + j) % m] += a * b
    return out


def pack(ring: _PackedRing, coeffs) -> int:
    """The element of `ring` with the given coefficients, each in its own slot."""
    return sum(c << (k * ring.width) for k, c in enumerate(coeffs) if c)


def ring_power(m: int, coeffs, k: int) -> list[int]:
    """The k-th power of an element with nonnegative coefficients, in Z[x]/(x^m - 1).

    With 2^b the least power of two at or above the sum of the coefficients,
    the expanded power has at most 2^(k*b) monomials, so no coefficient of it
    or of a lower power reaches 2^(k*b + 1).  The staircase product has
    2^pairs monomials, so its k-th power needs k*pairs + 1 bits a slot.  The
    power itself is `_PackedRing.power`, from the base up: k = 0 gives the
    unit, k = 1 forms no product.
    """
    ring = _PackedRing(m, k * (sum(coeffs) - 1).bit_length() + 1)
    return ring.coeffs(ring.power(pack(ring, coeffs), k))


def test_ring_power_matches_repeated_products():
    rng = random.Random(5)
    for m in (1, 4, 8, 12, 24):
        for k in range(6):
            coeffs = [rng.randint(0, 9) for _ in range(m)]
            expected = [1] + [0] * (m - 1)
            for _ in range(k):
                expected = _cyclic_product(m, expected, coeffs)
            assert ring_power(m, coeffs, k) == expected
    # every monomial on one slot: the power's one coefficient fills k*pairs + 1 bits
    for N in range(2, 7):
        pairs = N * (N - 1) // 2
        for k in range(5):
            assert ring_power(4 * N, ring_staircase(4 * N, [0] * N), k) == (
                [2 ** (k * pairs)] + [0] * (4 * N - 1))
    # the staircase product at exponents that need not sum to 0 modulo m
    for m, N in ((8, 3), (12, 5), (24, 6), (24, 7)):
        exponents = [rng.randrange(m) for _ in range(N)]
        expected = [1] + [0] * (m - 1)
        for i, a in enumerate(exponents):
            for b in exponents[i + 1:]:
                factor = [0] * m
                factor[a] += 1
                factor[b] += 1
                expected = _cyclic_product(m, expected, factor)
        assert ring_staircase(m, exponents) == expected


def test_group_ring_table_equals_table_from_values():
    shapes = [(1,), (2, 1), (3, 1), (3, 2, 1), (4, 3, 1), (5, 4, 2, 1)]
    for n in (3, 4, 5):
        backend = make_backend("exact", n)
        scale = backend.order // (4 * (n + 1))
        for J in summation_tuples(n + 1)[::3]:
            ring = PointTable(backend, exponents=[d * scale for d in J.doubled])
            plain = PointTable(backend, point_from_tuple(backend, J))
            assert [ring.h(k) for k in range(2 * n + 2)] == [
                plain.h(k) for k in range(2 * n + 2)
            ]
            for i in range(n + 2):
                for j in range(i + 1):
                    assert ring.qtilde_pair(i, j) == plain.qtilde_pair(i, j)
            for lam in shapes:
                if lam[0] <= n + 1:
                    assert ring.qtilde(lam) == plain.qtilde(lam)
            assert ring.schur((2, 1)) == plain.schur((2, 1))


def test_point_table_needs_values_or_exponents():
    with pytest.raises(TypeError):
        PointTable(BACKEND)
    with pytest.raises(TypeError):
        PointTable(BACKEND, [BACKEND.one], exponents=[0])


def test_qtilde_pair_identities():
    rng = random.Random(7)
    for _ in range(10):
        point = rational_point(rng, 3)
        E = elementary_all(BACKEND, point)
        for k in range(3):
            assert qtilde_pair(BACKEND, k, 0, point) == E[k]
        assert qtilde_pair(BACKEND, 1, 1, point) == E[1] * E[1] - 2 * E[2]
        assert qtilde_pair(BACKEND, 2, 1, point) == E[2] * E[1] - 2 * E[3]
    with pytest.raises(ValueError):
        qtilde_pair(BACKEND, 1, 2, point)


def test_pfaffian_small_cases():
    a = BACKEND.from_fraction(Fraction(17, 10))
    assert pfaffian(BACKEND, [[BACKEND.zero, a], [-a, BACKEND.zero]]) == a
    zero4 = [[BACKEND.zero] * 4 for _ in range(4)]
    assert pfaffian(BACKEND, zero4).is_zero()
    with pytest.raises(ValueError):
        pfaffian(BACKEND, [[BACKEND.zero] * 3 for _ in range(3)])


def test_pfaffian_four_by_four_formula():
    rng = random.Random(8)
    vals = {}
    for i in range(4):
        for j in range(i + 1, 4):
            vals[(i, j)] = BACKEND.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    skew = SkewMatrix.from_upper(4, lambda i, j: vals[(i, j)])
    expected = (
        vals[(0, 1)] * vals[(2, 3)]
        - vals[(0, 2)] * vals[(1, 3)]
        + vals[(0, 3)] * vals[(1, 2)]
    )
    assert pfaffian(BACKEND, skew) == expected


@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_pfaffian_squared_is_determinant(size):
    rng = random.Random(size)
    for _ in range(5):
        entries = {}
        for i in range(size):
            for j in range(i + 1, size):
                entries[(i, j)] = BACKEND.from_fraction(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                )
        skew = SkewMatrix.from_upper(size, lambda i, j: entries[(i, j)])
        pf = pfaffian(BACKEND, skew)
        assert pf * pf == det_oracle(BACKEND, [list(r) for r in skew.rows])


def test_skew_matrix_validation():
    with pytest.raises(ValueError):
        SkewMatrix(((BACKEND.zero,),))
    with pytest.raises(ValueError):
        SkewMatrix(((BACKEND.zero, BACKEND.one),))


def test_qtilde_single_rows_are_elementary():
    rng = random.Random(9)
    point = rational_point(rng, 3)
    E = elementary_all(BACKEND, point)
    for k in range(4):
        assert qtilde(BACKEND, (k,), point) == (E[k] if k <= 3 else BACKEND.zero)
    assert qtilde(BACKEND, (), point) == 1


def test_qtilde_two_rows_matches_pair():
    rng = random.Random(10)
    point = rational_point(rng, 3)
    assert qtilde(BACKEND, (2, 1), point) == qtilde_pair(BACKEND, 2, 1, point)


def test_qtilde_odd_length_padding():
    rng = random.Random(11)
    point = rational_point(rng, 3)
    table = PointTable(BACKEND, point)
    # (3, 2, 1) pads to a 4x4 Pfaffian with a zero column label
    direct = pfaffian(
        BACKEND,
        SkewMatrix.from_upper(
            4,
            lambda i, j: table.qtilde_pair(*sorted(((3, 2, 1, 0)[i], (3, 2, 1, 0)[j]),
                                                   reverse=True)),
        ),
    )
    assert table.qtilde((3, 2, 1)) == direct


def test_qtilde_homogeneity():
    rng = random.Random(12)
    for lam in [(1,), (2, 1), (3, 1), (2,), (3, 2, 1), (2, 2)]:
        point = rational_point(rng, 3)
        t = BACKEND.from_fraction(Fraction(rng.randint(1, 5), rng.randint(1, 4)))
        scaled = tuple(t * x for x in point)
        weight = sum(lam)
        assert qtilde(BACKEND, lam, scaled) == t**weight * qtilde(BACKEND, lam, point)


def test_qtilde_symmetry():
    rng = random.Random(13)
    point = rational_point(rng, 3)
    value = qtilde(BACKEND, (2, 1), point)
    for perm in permutations(point):
        assert qtilde(BACKEND, (2, 1), perm) == value


def test_determinant_matches_oracle_and_float():
    rng = random.Random(14)
    for size in (1, 2, 3, 4):
        rows = [
            [BACKEND.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
             for _ in range(size)]
            for _ in range(size)
        ]
        assert determinant(BACKEND, rows) == det_oracle(BACKEND, rows)
    fb = FloatBackend()
    rows = [[complex(rng.uniform(-2, 2)) for _ in range(3)] for _ in range(3)]
    assert abs(determinant(fb, rows) - det_oracle(fb, rows)) < 1e-9


def test_determinant_singular_is_zero():
    one = BACKEND.one
    rows = [[one, one], [one, one]]
    assert determinant(BACKEND, rows).is_zero()
