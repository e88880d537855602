"""Strict partitions and the root-of-unity exponent tuples behind every sum.

Schubert classes of the rank-n Lagrangian Grassmannian are indexed by strict
partitions with parts at most n; there are 2^n of them, in bijection with
subsets of {1, ..., n}.  The closed intersection-number formulas sum over
tuples of (half-)integer exponents of a fixed root of unity.  Exponents are
stored doubled, so every membership test is integer residue arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from ._frozen import Frozen
from ._ring import (
    _staircase_sign,
    _summation_picks,
    _window,
)

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
