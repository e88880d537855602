import cmath
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, isclose, pi

import pytest

from lgquot._ring import _orbit_picks, _window
from lgquot.cli import main
from lgquot.cyclotomic import make_backend
from lgquot.invariants import SchubertExpression
from lgquot.partitions import (
    IndexTuple,
    Partition,
    StrictPartition,
    dual_partition,
    filter_no_opposites,
    filter_unit_product,
    root_tuples,
    staircase,
    strict_partitions,
    summation_tuples,
)
from lgquot.symfunc import PointTable


@lru_cache(maxsize=None)
def point_orbits(N: int) -> tuple[tuple[IndexTuple, int], ...]:
    """The orbits of `_orbit_picks(N)` as (representative `IndexTuple`, orbit size) pairs.

    Bit i of a pick vector says whether opposite pair i, (lo + 2i, lo + 2i + 2N),
    takes its high pick.
    """
    lo = _window(N)[0]
    return tuple((IndexTuple(N, sorted(lo + 2 * (i + N * (v >> i & 1)) for i in range(N))), size)
                 for v, size in _orbit_picks(N))


def test_partition_normalizes_trailing_zeros():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition(()).parts == ()
    assert Partition((2, 2, 1)).weight == 5
    assert Partition((2, 2, 1)).length == 3


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_strict_partition_validation():
    assert StrictPartition(3, (3, 1)).weight == 4
    with pytest.raises(ValueError):
        StrictPartition(2, (3,))
    with pytest.raises(ValueError):
        StrictPartition(3, (2, 2))
    with pytest.raises(ValueError):
        StrictPartition(0, ())


# Whether each entry point accepts a label at rank 3.  Partition and the point
# tables read labels as weakly decreasing, SchubertExpression factors as strict
# of any rank; both read trailing zeros as padding.  StrictPartition and the two
# CLI grammars take rank-3 labels that list their parts exactly.
SHAPES = [(2, 1), (2, 1, 0), (1, 2), (2, 2), (0,), (-1,), (4,)]
ACCEPTS = {
    "Partition": [True, True, False, True, True, False, True],
    "StrictPartition": [True, False, False, False, False, False, False],
    "PointTable.qtilde": [True, True, False, True, True, False, True],
    "SchubertExpression.monomial": [True, True, False, False, True, False, True],
    "--partitions": [True, False, False, False, False, False, False],
    "--poly": [True, False, False, False, False, False, False],
}


def _accepts(entry: str, shape: tuple[int, ...], capsys) -> bool:
    text = ",".join(map(str, shape))
    if entry.startswith("--"):
        if entry == "--partitions":
            argv = ["gw", "--n", "3", "--genus", "0", "--degree", "-1", "--partitions", text]
        else:
            argv = ["intersect", "--n", "3", "--genus", "0", "--ell", "0", "--e", "9",
                    "--poly", f"Q[{text}]"]
        code = main(argv)
        out = capsys.readouterr().out
        assert (code, out.startswith("error PARSE: ")) in ((0, False), (2, True)), out
        return code == 0
    backend = make_backend("exact", 3)
    calls = {
        "Partition": Partition,
        "StrictPartition": lambda parts: StrictPartition(3, parts),
        "PointTable.qtilde": PointTable(backend, values=[backend.one] * 4).qtilde,
        "SchubertExpression.monomial": lambda parts: SchubertExpression.monomial([parts]),
    }
    try:
        calls[entry](shape)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("entry", list(ACCEPTS))
def test_each_entry_point_keeps_its_shape_rule(entry, capsys):
    assert [_accepts(entry, shape, capsys) for shape in SHAPES] == ACCEPTS[entry]


def test_strict_partitions_small_ranks():
    assert [sp.parts for sp in strict_partitions(1)] == [(), (1,)]
    assert [sp.parts for sp in strict_partitions(2)] == [(), (1,), (2,), (2, 1)]
    assert len(strict_partitions(3)) == 8


def test_strict_partitions_order_and_cardinality():
    for n in range(1, 11):
        sps = strict_partitions(n)
        assert len(sps) == 2**n
        # against the subset bijection
        subsets = {tuple(sorted(s, reverse=True)) for r in range(n + 1)
                   for s in combinations(range(1, n + 1), r)}
        assert {sp.parts for sp in sps} == subsets
        weights = [sp.weight for sp in sps]
        assert weights == sorted(weights)
        for a, b in zip(sps, sps[1:]):
            if a.weight == b.weight:
                assert a.parts > b.parts  # ties broken lexicographically descending


def test_dual_partition_examples():
    assert dual_partition(StrictPartition(2, ())).parts == (2, 1)
    assert dual_partition(StrictPartition(3, (3, 1))).parts == (2,)
    assert dual_partition(staircase(4)).parts == ()


def test_dual_partition_involution_and_weight():
    for n in range(1, 7):
        for sp in strict_partitions(n):
            dual = dual_partition(sp)
            assert dual_partition(dual) == sp
            assert sp.weight + dual.weight == n * (n + 1) // 2


def test_staircase():
    assert staircase(1).parts == (1,)
    assert staircase(2).parts == (2, 1)
    assert staircase(4).parts == (4, 3, 2, 1)
    assert staircase(4).weight == 10


def test_index_tuple_validation():
    IndexTuple(2, (-1, 1))
    with pytest.raises(ValueError):
        IndexTuple(2, (-1, 2))  # mixed parity
    with pytest.raises(ValueError):
        IndexTuple(2, (1, -1))  # not increasing
    with pytest.raises(ValueError):
        IndexTuple(2, (-3, 1))  # below window
    with pytest.raises(ValueError):
        IndexTuple(3, (0, 2, 10))  # above window
    with pytest.raises(ValueError):
        IndexTuple(3, (1, 2, 4))  # odd N needs even doubled entries
    # the staircase sign is defined at summation points only
    assert IndexTuple(2, (-1, 1)).staircase_sign == 1
    with pytest.raises(ValueError, match="multiply to 1"):
        IndexTuple(2, (1, 3)).staircase_sign
    with pytest.raises(ValueError, match="opposite"):
        IndexTuple(4, (-3, 3, 5, 11)).staircase_sign


def test_root_tuples_small():
    two = root_tuples(2)
    assert len(two) == 6
    assert all(set(t.doubled) <= {-1, 1, 3, 5} for t in two)
    assert len(root_tuples(3)) == 20
    # N=1 window is j in {0, 1}
    assert [t.doubled for t in root_tuples(1)] == [(0,), (2,)]


def test_root_tuples_cardinality_sorted_unique():
    for N in range(1, 9):
        tuples = root_tuples(N)
        m = N // 2
        expected = comb(4 * m + 2, N) if N % 2 else comb(4 * m, N)
        assert len(tuples) == expected
        assert len(set(tuples)) == len(tuples)
        for t in tuples:
            assert list(t.doubled) == sorted(t.doubled)


def test_filters_match_hand_enumeration_for_two():
    kept = filter_no_opposites(root_tuples(2))
    assert [t.doubled for t in kept] == [(-1, 1), (-1, 5), (1, 3), (3, 5)]
    even = filter_unit_product(kept)
    assert [t.doubled for t in even] == [(-1, 1), (3, 5)]


def test_summation_tuples_cardinality_law():
    assert len(summation_tuples(3)) == 4
    for n in range(1, 15):
        assert len(summation_tuples(n + 1)) == 2**n


def test_summation_tuples_match_filter_oracle():
    # the direct construction gives the filtered candidates, in the same order
    for N in range(1, 10):
        oracle = tuple(filter_unit_product(filter_no_opposites(root_tuples(N))))
        assert summation_tuples(N) == oracle


def test_filter_conditions_against_complex_arithmetic():
    # independent re-check of the residue filters with actual roots of unity
    for N in range(2, 6):
        all_tuples = root_tuples(N)
        kept = set(filter_unit_product(filter_no_opposites(all_tuples)))
        for t in all_tuples:
            coords = [cmath.exp(1j * pi * d / (2 * N)) for d in t.doubled]
            no_opposites = all(
                abs(coords[a] + coords[b]) > 1e-9
                for a in range(N)
                for b in range(a + 1, N)
            )
            product = 1
            for z in coords:
                product *= z
            unit = isclose(product.real, 1, abs_tol=1e-9) and isclose(
                product.imag, 0, abs_tol=1e-9
            )
            assert (t in kept) == (no_opposites and unit)


def test_point_orbits_partition_the_points():
    # each orbit, regenerated as sets of residues mod 4N, lies among the points;
    # the orbits are disjoint and cover every point
    for n in range(1, 13):
        N, m = n + 1, 4 * (n + 1)
        points = {frozenset(d % m for d in J.doubled) for J in summation_tuples(N)}
        tuples = set(summation_tuples(N))
        covered = set()
        for rep, size in point_orbits(N):
            assert rep in tuples
            orbit = {
                frozenset((a * d + shift) % m for d in rep.doubled)
                for a in range(1, m) if gcd(a, m) == 1
                for shift in range(0, m, 4)
            }
            assert len(orbit) == size
            assert orbit <= points
            assert not orbit & covered
            covered |= orbit
        assert covered == points
        assert sum(size for _rep, size in point_orbits(N)) == 2**n


def _reference_walk(N):
    """The orbits of the points under d -> a*d + 4s over all phi(4N) units a,
    as `_orbit_picks(N)` holds them: in the order of the representatives' low
    N-1 bits, the representative's pick vector and the orbit's size.  Bit i
    of a pick vector: pair i takes its high pick."""
    m, lo, half = 4 * N, 1 - N, (1 << (N - 1)) - 1

    def vector(doubled):
        return sum(1 << (d - lo) % m // 2 - N for d in doubled if (d - lo) % m >= 2 * N)

    points = sorted(((vector(J.doubled), J.doubled) for J in summation_tuples(N)),
                    key=lambda point: point[0] & half)
    seen, orbits = set(), []
    for v, rep in points:
        if v in seen:
            continue
        orbit = {vector(a * d + 4 * s for d in rep)
                 for a in range(1, m) if gcd(a, m) == 1 for s in range(N)}
        seen |= orbit
        orbits.append((v, len(orbit)))
    return orbits


def test_orbit_walk_over_half_the_units_matches_the_walk_over_all():
    for N in range(2, 15):
        assert list(_orbit_picks(N)) == _reference_walk(N)


def test_upper_units_repeat_the_lower_units_maps():
    # (a + 2N, s) sends each coordinate where (a, s + [N even] N/2) does
    for N in range(2, 13):
        m = 4 * N
        turn = N // 2 if N % 2 == 0 else 0
        for J in summation_tuples(N):
            for a in range(1, 2 * N):
                if gcd(a, m) == 1:
                    for s in range(N):
                        assert ([((a + 2 * N) * d + 4 * s) % m for d in J.doubled]
                                == [(a * d + 4 * (s + turn)) % m for d in J.doubled])


@pytest.mark.parametrize("n,orbits", [(4, 3), (8, 11), (10, 15), (12, 37)])
def test_point_orbit_counts(n, orbits):
    assert len(point_orbits(n + 1)) == orbits
