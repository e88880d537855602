"""Strict partitions and the root-of-unity exponent tuples behind every sum.

Schubert classes of the rank-n Lagrangian Grassmannian are indexed by strict
partitions with parts at most n; there are 2^n of them, in bijection with
subsets of {1, ..., n}.  The closed intersection-number formulas sum over
tuples of (half-)integer exponents of a fixed root of unity.  Exponents are
stored doubled, so every membership test is integer residue arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from ._frozen import Frozen

__all__ = [
    "Partition",
    "StrictPartition",
    "IndexTuple",
    "strict_partitions",
    "dual_partition",
    "staircase",
    "as_strict",
    "root_tuples",
    "filter_no_opposites",
    "filter_unit_product",
    "summation_tuples",
    "point_orbits",
    "point_orbit_members",
]


def _shape(parts, strict: bool = False, n: int | None = None) -> tuple[int, ...]:
    """The parts of a partition label as a tuple of ints, or ValueError.

    Weakly decreasing nonnegative parts, or with `strict` strictly decreasing
    positive parts, each at most n if n is given.  Trailing zeros are dropped
    unless n is given: a rank-n label lists its parts exactly.
    """
    parts = tuple(map(int, parts))
    if n is None:
        while parts and not parts[-1]:
            parts = parts[:-1]
    if not parts:
        return parts
    lo = 1 if strict else 0
    if min(parts) < lo or (n is not None and max(parts) > n):
        bound = f"be at least {lo}" if n is None else f"lie in {lo}..{n}"
        raise ValueError(f"parts of {parts} must {bound}")
    if parts != tuple(sorted(set(parts) if strict else parts, reverse=True)):
        kind = "strictly" if strict else "weakly"
        raise ValueError(f"parts not {kind} decreasing: {parts}")
    return parts


class Partition(Frozen):
    """A weakly decreasing sequence of nonnegative integers; trailing zeros dropped."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "parts", _shape(parts))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)


class StrictPartition(Frozen):
    """A strictly decreasing sequence of positive parts, each at most the rank n."""

    __slots__ = _fields = ("n", "parts")

    def __init__(self, n: int, parts: tuple[int, ...] = ()) -> None:
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parts", _shape(parts, strict=True, n=n))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def sort_key(self) -> tuple:
        # canonical basis order: weight ascending, ties by parts descending
        return (self.weight, tuple(-p for p in self.parts))


def as_strict(n: int, value) -> StrictPartition:
    """Coerce a StrictPartition, Partition, or iterable of parts into rank n."""
    if isinstance(value, StrictPartition) and value.n == n:
        return value
    if isinstance(value, (StrictPartition, Partition)):
        value = value.parts
    return StrictPartition(n, value)


def strict_partitions(n: int) -> list[StrictPartition]:
    """All 2^n strict partitions of rank n, weight ascending, ties by parts descending."""
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    out = []
    for r in range(n + 1):
        for subset in combinations(range(n, 0, -1), r):
            out.append(StrictPartition(n, subset))
    out.sort(key=lambda sp: sp.sort_key)
    return out


def dual_partition(lam: StrictPartition) -> StrictPartition:
    """The strict partition whose part set is the complement of lam's in {1..n}."""
    present = set(lam.parts)
    return StrictPartition(lam.n, tuple(p for p in range(lam.n, 0, -1) if p not in present))


def staircase(n: int) -> StrictPartition:
    """The full staircase (n, n-1, ..., 1), the top class of rank n."""
    return StrictPartition(n, tuple(range(n, 0, -1)))


class IndexTuple(Frozen):
    """A strictly increasing exponent tuple, stored doubled so half-integers stay exact.

    For N odd the exponents are integers (doubled entries even); for N even
    they are half-integers (doubled entries odd).  The window is
    -m <= j_1 < ... < j_N <= 3m+1 for N = 2m+1 and
    -m+1/2 <= j_1 < ... < j_N <= 3m-1/2 for N = 2m.
    """

    __slots__ = _fields = ("N", "doubled")

    def __init__(self, N: int, doubled: tuple[int, ...]) -> None:
        if N < 1:
            raise ValueError(f"tuple size must be positive, got {N}")
        doubled = tuple(int(d) for d in doubled)
        if len(doubled) != N:
            raise ValueError(f"expected {N} entries, got {len(doubled)}")
        lo, hi, parity = _window(N)
        if any(d % 2 != parity for d in doubled):
            kind = "even" if parity == 0 else "odd"
            raise ValueError(f"doubled entries must all be {kind}: {doubled}")
        if any(d < lo or d > hi for d in doubled):
            raise ValueError(f"doubled entries out of window [{lo}, {hi}]: {doubled}")
        if any(doubled[i] >= doubled[i + 1] for i in range(len(doubled) - 1)):
            raise ValueError(f"doubled entries not strictly increasing: {doubled}")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "doubled", doubled)

    @property
    def staircase_sign(self) -> int:
        """Sign of the staircase Schur value at a summation point (`_staircase_sign`)."""
        return _staircase_sign(self.N, self.doubled)


def _staircase_sign(N: int, d: tuple[int, ...]) -> int:
    """Sign of the staircase Schur value prod_{i<j} (x_i + x_j) at a summation point.

    With x_i = zeta^d_i, zeta a primitive 4N-th root and d the doubled
    exponents, x_i + x_j = zeta^((d_i + d_j)/2) * 2cos(pi (d_j - d_i)/4N).
    Under unit product the phases multiply to (-1)^((N-1) sum(d)/4N), so
    the value is real, and a cosine is negative exactly when d_j - d_i > 2N.
    Without opposite coordinates the window's N pairs (b, b + 2N) each give
    one entry, a low pick b or a high pick b + 2N, and d_j - d_i > 2N
    exactly when d_i is a low pick and d_j the high pick of a later pair.
    """
    turns, rest = divmod(sum(d), 4 * N)
    if rest:
        raise ValueError(f"coordinates of {d} do not multiply to 1")
    two_n = 2 * N
    if len({x % two_n for x in d}) < N:
        raise ValueError(f"opposite coordinates in {d}")
    # the window is [1 - N, 3N - 1]: the high picks are those from N + 1 on,
    # and the t-th of them (from 0), x, has (x - N - 1)/2 earlier pairs, t high
    first_high = bisect_left(d, N + 1)
    highs = N - first_high
    lows_before = (sum(d[first_high:]) - highs * (N + 1)) // 2 - highs * (highs - 1) // 2
    return -1 if ((N - 1) * turns + lows_before) % 2 else 1


def _window(N: int) -> tuple[int, int, int]:
    """Inclusive doubled-exponent window (lo, hi) and required parity for size N."""
    if N % 2 == 1:
        m = (N - 1) // 2
        return -2 * m, 6 * m + 2, 0
    m = N // 2
    return -2 * m + 1, 6 * m - 1, 1


def root_tuples(N: int) -> list[IndexTuple]:
    """Every strictly increasing exponent tuple in the size-N window.

    With the two filters below this is the reference that the direct
    construction in `summation_tuples` is tested against.
    """
    lo, hi, _parity = _window(N)
    return [IndexTuple(N, c) for c in combinations(range(lo, hi + 1, 2), N)]


def filter_no_opposites(tuples) -> list[IndexTuple]:
    """Keep tuples whose root-of-unity coordinates are pairwise non-opposite.

    With zeta of order 2N, two coordinates are opposite exactly when their
    doubled exponents differ by 2N modulo 4N.  Part of the reference that
    `summation_tuples` is tested against.
    """
    out = []
    for t in tuples:
        four_n = 4 * t.N
        d = t.doubled
        if all(
            (d[b] - d[a] - 2 * t.N) % four_n != 0
            for a in range(len(d))
            for b in range(a + 1, len(d))
        ):
            out.append(t)
    return out


def filter_unit_product(tuples) -> list[IndexTuple]:
    """Keep tuples whose root-of-unity coordinates multiply to 1.

    The product of the coordinates is the primitive 4N-th root raised to the
    sum of doubled exponents, so the condition is that sum vanishing mod 4N.
    Part of the reference that `summation_tuples` is tested against.
    """
    return [t for t in tuples if sum(t.doubled) % (4 * t.N) == 0]


@lru_cache(maxsize=None)
def summation_tuples(N: int) -> tuple[IndexTuple, ...]:
    """The index set of all evaluation points: no opposite pairs, unit product.

    The size-N window holds exactly 2N doubled exponents, which form N
    opposite pairs (d, d + 2N).  A tuple without opposite coordinates takes
    one value from each pair, so there are 2^N of them.  Swapping the pick in
    one pair moves the exponent sum by 2N mod 4N, so exactly half of them
    have unit product.  For N = n + 1 the set therefore has 2^n elements,
    matching the rank of the cohomology of the rank-n Lagrangian
    Grassmannian.  Tuples come in the order of
    `filter_unit_product(filter_no_opposites(root_tuples(N)))`.
    """
    return tuple(IndexTuple(N, pick) for pick in _summation_picks(N))


@lru_cache(maxsize=None)
def _summation_picks(N: int) -> tuple[tuple[int, ...], ...]:
    """The doubled exponents of `summation_tuples(N)` as plain tuples, in the same order."""
    lo, _hi, _parity = _window(N)
    pairs = [(d, d + 2 * N) for d in range(lo, lo + 2 * N, 2)]
    return tuple(sorted(
        tuple(sorted(pick)) for pick in product(*pairs) if sum(pick) % (4 * N) == 0
    ))


def _orbit_walk(N: int, maps: bool):
    """The orbits of the summation points under the maps d -> a*d + 4s, as pick vectors.

    Bit i of a pick vector says whether opposite pair i, (lo + 2i, lo + 2i + 2N),
    takes its high pick.  The window sums to 0, so unit product means an even
    number of high picks: the last bit follows from the others.  A unit a
    modulo 4N (Galois) sends each pair to a pair, flipping the pick or not: a
    bit permutation, applied five bits at a time, then an XOR.  Rotation d -> d + 4
    moves every pick two pairs on and flips the two that wrap round.  Yields,
    per orbit, its vector v of least low N-1 bits and, with `maps`, one
    (vector, a, s) per member, the first (a, s), a then s ascending, whose map
    sends v there; without, the orbit's size.

    Only the units a < 2N are walked.  For odd a, a + 2N = a(2N + 1) mod 4N,
    and d -> (2N + 1)d is the identity for odd N (d even) and the rotation
    s = N/2 for even N (d odd, so d + 2N = d + 4 * N/2).  So (a + 2N, s) sends
    every point where (a, s + [N even] * N/2) does, an image already reached,
    and the first (a, s) of each member is the same as over all the units.
    A unit's 5-bit tables are built by doubling, one pair's bit at a time.
    """
    m, full, half = 4 * N, (1 << N) - 1, (1 << (N - 1)) - 1
    lo = _window(N)[0]
    units = []
    for a in range(1, 2 * N):
        if gcd(a, m) == 1:
            # the image of pair i's low pick is pair t % N, high pick if t >= N
            images = [(a * (lo + 2 * i) - lo) % m // 2 for i in range(N)]
            bits = [1 << t % N for t in images]
            tables = []
            for base in range(0, N, 5):
                table = [0]
                for b in bits[base:base + 5]:
                    table += [t | b for t in table]
                tables.append(table)
            flip = sum(b for b, t in zip(bits, images) if t >= N)
            units.append((a, tables, flip))
    seen = bytearray(half + 1)
    i = 0
    while (i := seen.find(0, i)) >= 0:
        v = i | (i.bit_count() & 1) << (N - 1)
        members = [] if maps else 0
        for a, tables, flip in units:
            w = flip
            for k, table in enumerate(tables):
                w ^= table[v >> 5 * k & 31]
            for s in range(N):
                if not seen[w & half]:
                    seen[w & half] = 1
                    if maps:
                        members.append((w, a, s))
                    else:
                        members += 1
                w = (w << 2 & full) | (w >> (N - 2) ^ 3)
        yield v, members


def point_orbit_members(N: int):
    """The orbits of `_orbit_walk` by index in `summation_tuples(N)`.

    Yields the representative's index and one (point index, a, s) per member.
    """
    lo = _window(N)[0]
    index = {sum(1 << (d - lo) // 2 - N for d in J.doubled if d >= lo + 2 * N): i
             for i, J in enumerate(summation_tuples(N))}
    for v, members in _orbit_walk(N, True):
        yield index[v], tuple((index[w], a, s) for w, a, s in members)


@lru_cache(maxsize=None)
def point_orbits(N: int) -> tuple[tuple[IndexTuple, int], ...]:
    """Orbits of the summation points: (representative, orbit size) pairs.

    The orbits and representatives of `_orbit_walk`; no other point is built.
    """
    lo = _window(N)[0]
    return tuple((IndexTuple(N, sorted(lo + 2 * (i + N * (v >> i & 1)) for i in range(N))), size)
                 for v, size in _orbit_walk(N, False))
