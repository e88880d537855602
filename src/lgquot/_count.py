"""The count engine: maximal-subbundle counts as sums of traces over point orbits.

A count, and a gw with staircase insertions only, sums a weight that depends
on each point only through its staircase product and sign.  Exactly, that sum
is read orbit by orbit from the pick vectors of `_ring._orbit_picks`; in
floats, point by point (`_float`).  This module imports nothing of the
package but `_ring`, so a process that only counts builds no `IndexTuple` and
loads neither `partitions` nor the formulas of `invariants`, which re-exports
the public names.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import mul

from ._ring import (
    NonIntegerValueError,
    OrbitSizeError,
    ParityError,
    _byte_width,
    _orbit_picks,
    _PackedRing,
    _ramanujan_sums,
    _ring_staircase,
    _staircase_sign,
    _window,
)


def maximal_subbundle_degree(n: int, g: int, ell: int) -> int:
    """Degree of a maximal Lagrangian subbundle of a general symplectic bundle."""
    return -((n * (g - 1 - ell)) // 2)


def _count_is_finite(n: int, g: int, ell: int) -> bool:
    """Whether n(ell - g + 1) is even, the hypothesis of the counting formula."""
    return n * (ell - g + 1) % 2 == 0


def _check_rank_and_genus(n: int, g: int) -> None:
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")


# Largest rank each backend answers, and exact counts (README, Conventions).  A
# query sums over 2^n points, and the limit reads the rank only: neither the
# genus nor the insertions.  So the slowest admitted exact queries take
# minutes: on a shared 2-vCPU VM the rank-15 genus-0 gw with the 4-part
# classes (14,13,12,6);(15,14,10);(15,12,7,2) took 351.8 s over the point
# tables, and the count (18, 101, 0), whose power S'^100 has 100P + n + 1
# bits a slot, 3-4 minutes.  The float point tables of gw and intersect
# double in memory with each rank; a float count builds none.  An exact count
# reads one trace per (rank, genus, ell parity) instead, of its orbits'
# weights summed in the packed ring, at genus 0 with no inverse: on a shared
# 2-vCPU VM the median (21, 3, 0) process took 1.8-2.1 s and (21, 0, 1)
# 1.2-1.3 s in three sessions, and (22, 3, 0), summed past the limit
# in-process, 4.3-5.2 s.
_MAX_RANK = {"exact": 15, "float": 18, "count": 21}


def _check_rank_limit(n: int, kind: str) -> None:
    """Refuse a rank above the limit of a backend or of exact counts, before any point."""
    limit = _MAX_RANK.get(kind)
    if limit is not None and n > limit:
        over = "traces over the orbits of " if kind == "count" else ""
        raise ValueError(f"rank {n} is above the {kind} limit of {limit}: "
                         f"a query would sum {over}2^{n} = {2**n} points")


def maximal_count(n: int, g: int, ell: int, backend: str = "exact") -> int:
    """Number of maximal Lagrangian subbundles of a general stable symplectic bundle.

    Requires n(ell - g + 1) even, which fixes the maximal subsheaf degree
    e = n(ell - g + 1)/2.  The prefactor is 2^(n(g-1)/2) for even ell and
    2^(n(g-2)/2) for odd ell (with an extra staircase qtilde factor in the
    sum); the parity condition makes both exponents whole numbers.  The count
    is enumerative for genus at least 2; for smaller genus it is the bare
    formula value.
    """
    _check_rank_and_genus(n, g)
    if not _count_is_finite(n, g, ell):
        raise ParityError(
            f"n(ell - g + 1) = {n * (ell - g + 1)} is odd; no finite count for "
            f"(n={n}, g={g}, ell={ell})"
        )
    odd = ell % 2
    return _staircase_sum(n, g, backend, n * (g - 1 - odd) // 2, odd)


def _staircase_sum(n: int, g: int, backend: str, exponent: int, staircases: int) -> int:
    """The integer 2^exponent * sum over the rank-n points of S^(g-1) times
    `staircases` staircase qtilde values, with no point table.

    S is the staircase Schur value at the point.  Exactly the sum is one
    trace per point orbit (`_trace_sum`), in floats a product over each
    point's coordinates (`_float._float_sum`).  This is the branch of
    `invariants._point_sum` for a sum whose factors are all staircase
    qtilde values.  The summand has degree (g - 1 + staircases) * P,
    P = n(n+1)/2: for odd n and odd g - 1 + staircases, not a multiple of
    n + 1, so rotating the points negates it and the exact sum is 0.
    """
    if backend == "exact":
        _check_rank_limit(n, "count")
        if n % 2 and (g - 1 + staircases) % 2:
            return 0
        return _trace_sum(n, g, exponent, staircases)
    if backend == "float":
        from ._float import _float_sum

        _check_rank_limit(n, "float")
        return _float_sum(n, g, exponent, staircases)
    raise ValueError(f"unknown backend {backend!r} (expected 'exact' or 'float')")


def _trace_sum(n: int, g: int, exponent: int, staircases: int) -> int:
    """`_staircase_sum` on the exact backend, for even n or even g - 1 + staircases.

    A staircase qtilde value is eps * 2^(n/2), eps the point's staircase sign,
    so the summand is 2^(n//2 * staircases) * W, W = eps^staircases * S^(g-1)
    times sqrt(2)^staircases for odd n.  Its degree is a multiple of n + 1, so
    rotation leaves it unchanged and a Galois map conjugates it: the sum is
    sum over orbits |O| * Tr(W at the representative) / phi(m), m = 4(n+1).
    The numerator, sum over orbits |O| * Tr(W), depends on (n, g,
    staircases mod 2) alone and is read from `_trace_totals`, which keeps one
    integer per key, of absolute value at most 2^(n + (g-1)P + 1) * phi(m)
    (2^(n + 2P + 1) * phi(m) at g = 0), P = n(n+1)/2.  Only the total is
    kept: every call checks the orbit sizes (`_checked_orbits`) and applies
    the power of two, the genus-0 factor (-1)^P * N^N and the integrality
    check (README, Conventions).
    """
    N, m, P = n + 1, 4 * (n + 1), n * (n + 1) // 2
    twos = exponent + n // 2 * staircases + n % 2 * (staircases // 2)
    total = _TOTALS.get((n, g, staircases % 2))
    if total is None:  # formed after the same check of the orbit sizes
        total = _trace_totals(n, [g], staircases % 2)[0]
    else:
        _checked_orbits(n)
    # Tr(1) = c_m(0) = phi(m)
    num, den = total << max(twos, 0), _ramanujan_sums(m)[0] << max(-twos, 0)
    if g == 0:
        num, den = (-1) ** P * num, den * N**N
    if num % den:
        from fractions import Fraction

        raise NonIntegerValueError(f"value is not an integer: {Fraction(num, den)}")
    return num // den


# (n, g, odd) -> the sum over rank-n orbits of |O| * Tr(W) at genus g, with an
# odd number of staircase factors if odd: each value is formed in full before
# it is stored (README, Concurrency)
_TOTALS: dict[tuple[int, int, int], int] = {}


def _trace_totals(n: int, genera, odd: int) -> list[int]:
    """The trace totals of `_trace_sum` at rank n, one per genus in `genera`.

    The total at genus g is sum over orbits |O| * Tr(W), W the summand of
    `_trace_sum` with an odd number of staircase factors if `odd`, less its
    power of two.  W's coefficients add up to 2^((g-1)P) (V' and c 2^P each
    at g = 0) and a trace read is at most 2 phi(m), so `_TOTALS` keeps an
    integer of absolute value at most 2^(n + (g-1)P + 1) * phi(m)
    (2^(n + 2P + 1) * phi(m) at g = 0) per key.  The missing totals of a
    call are formed together: genus 1 from the orbit sizes, genus 0 from V',
    and the rest from one power chain (`_orbit_sums`).  Each `_orbit_sums`
    sum is unpacked once and read against its half of the trace vector
    (`_trace_halves`), twisted by c at g = 0 and shifted by sqrt(2) =
    x^(m/8) + x^(-m/8) for odd n and `odd` (README, Conventions).  The
    orbit sizes are checked on every call.
    """
    orbits = _checked_orbits(n)
    missing = sorted({g for g in genera if (n, g, odd) not in _TOTALS})
    root = n % 2 == odd == 1
    if 1 in missing:  # S^0 = 1, and the orbit sizes add up to 2^n
        signed = (sum(sign * size for (_pick, size), sign in zip(orbits, _orbit_signs(n)))
                  if odd else 1 << n)
        _TOTALS[n, 1, odd] = _trace_halves(n, root, False)[0][0] * signed
    for chain in [0] * (0 in missing), [g for g in missing if g > 1]:
        if chain:
            halves = _trace_halves(n, root, chain[0] == 0)
            for g, (ring, sums) in zip(chain, _orbit_sums(n, chain, odd == 1)):
                _TOTALS[n, g, odd] = sum(sign * sum(map(mul, ring.coeffs(W), halves[parity]))
                                         for (parity, sign), W in sums.items())
    return [_TOTALS[n, g, odd] for g in genera]


def _checked_orbits(n: int) -> tuple[tuple[int, int], ...]:
    """The rank-n orbits of `_orbit_picks`, once their sizes are seen to add up to 2^n."""
    orbits = _orbit_picks(n + 1)
    points = sum(size for _, size in orbits)
    if points != 2**n:  # the integrality check of `_trace_sum` misses most such errors
        raise OrbitSizeError(f"the point orbits of rank {n} hold {points} points, not 2^{n}")
    return orbits


def _orbit_sums(n: int, genera: list[int], signed: bool
                ) -> list[tuple[_PackedRing, dict[tuple[int, int], int]]]:
    """The rank-n orbits' weights of `_trace_sum` summed in one packed ring per genus.

    `genera` is [0] or ascending genera above 1.  An orbit's weight is
    x^o * W(x^2) in Z[x]/(x^(4N) - 1), N = n + 1: W is the orbit's S' from
    `_orbit_staircases` at g = 2, its (g-1)-th power above, with o the memo's
    lead times g - 1, and V' at g = 0.  Returns, per genus, the ring of W
    and, keyed by (o mod 2, sign), the sum of |O| * u^(o // 2) * W, u = x^2
    and o reduced modulo 4N, over the orbits of that parity and staircase
    sign (every sign 1 unless `signed`).  So slot j of sum (p, s) multiplies
    the trace at residue 2j + p.  Headroom: W has nonnegative coefficients
    that add up to 2^((g-1)P) (2^P for V'), P = N(N-1)/2, and the sizes add
    up to 2^n, so no slot of a sum reaches 2^(n + (g-1)P) (2^(n + P) at
    g = 0).  The memo's slots hold P + n + 1 bits, and genus g's ring
    (g-1)P + n + 1, each rounded up to whole bytes.  Each orbit's power is
    raised from the base at the first genus above 2, then multiplied by S'
    once per later genus up to the last, skipped ones included, both
    widened bytewise into that genus's ring.
    """
    N, m, P = n + 1, 4 * (n + 1), n * (n + 1) // 2
    base, memo = _orbit_staircases(n, 0 if genera[0] else N)
    steps = range(genera[0], genera[-1] + 1) if genera[0] else [0]
    rings = [_PackedRing(2 * N, _byte_width((g - 1) * P + n + 1)) if g > 2 else base
             for g in steps]
    sums = [{} if g in genera else None for g in steps]
    signs = _orbit_signs(n) if signed else repeat(1)
    for (_pick, size), sign, (S, lead) in zip(_orbit_picks(N), signs, memo):
        W = None
        for g, ring, genus_sums in zip(steps, rings, sums):
            if W is None:
                W = ring.power(base.repack(S, ring), g - 1) if g > 2 else S
            else:
                W = ring.mul(previous.repack(W, ring), base.repack(S, ring))
            previous = ring
            if genus_sums is not None:
                start = max(g - 1, 1) * lead % m
                key = start % 2, sign
                genus_sums[key] = genus_sums.get(key, 0) + size * ring.shift(W, start // 2)
    return [(ring, genus_sums) for ring, genus_sums in zip(rings, sums) if genus_sums is not None]


@lru_cache(maxsize=None)
def _trace_halves(n: int, root: bool, genus_zero: bool) -> tuple[tuple[int, ...], ...]:
    """The traces Tr(x^j) that `_trace_sum` reads at rank n, split by the parity of j.

    m = 4(n+1); with `root`, the traces of x^j * sqrt(2), sqrt(2) =
    x^(m/8) + x^(-m/8); with `genus_zero`, of x^j * c, c the product of
    y_a - y_b over a < b, y_a = x^(2 lo + 4a) the squared coordinate of pair
    a, lo = 1 - N.  Entry h of half p is the trace at residue 2h + p: the
    one that slot h of an `_orbit_sums` sum of parity p multiplies.
    """
    N, m = n + 1, 4 * (n + 1)
    trace = _ramanujan_sums(m)
    if root:
        trace = [trace[(j + m // 8) % m] + trace[(j - m // 8) % m] for j in range(m)]
    if genus_zero:
        c = _ring_staircase(m, [(2 - 2 * N + 4 * a) % m for a in range(N)], 2 * N)
        trace = [sum(c_i * trace[(i + j) % m] for i, c_i in enumerate(c) if c_i)
                 for j in range(m)]
    return tuple(tuple(trace[parity::2]) for parity in (0, 1))


@lru_cache(maxsize=None)
def _orbit_signs(n: int) -> tuple[int, ...]:
    """The staircase sign of each rank-n orbit's representative, in `_orbit_picks` order."""
    N = n + 1
    lo = _window(N)[0]
    return tuple(_staircase_sign(N, tuple(sorted(lo + 2 * (i + N * (v >> i & 1)) for i in range(N))))
                 for v, _size in _orbit_picks(N))


@lru_cache(maxsize=None)
def _orbit_staircases(n: int, shift: int) -> tuple[_PackedRing, tuple[tuple[int, int], ...]]:
    """The genus-free part of each rank-n orbit's staircase product, in `_orbit_picks` order.

    A point's doubled exponents d_1, ..., d_N share one parity and span less
    than 4N, so with P = N(N-1)/2 and e_i = (d_i - d_1)/2, the product of
    x^(d_i) + x^(d_j + 2*shift) over i < j in Z[x]/(x^(4N) - 1) is
    x^(d_1*P) * S'(u = x^2), S' the product of u^(e_i) + u^(e_j + shift) in
    Z[u]/(u^(2N) - 1).  Shift 0 takes the d ascending and gives the staircase
    product S.  Shift N takes them in pair order, d_i from the pair
    (lo + 2i, lo + 2i + 2N), and gives V, the product of x_i - x_j, since
    x^(2N) = -1 in the field.  Returns the ring and, per orbit, S' packed in
    it, with d_1 * P.  S' has 2^P monomials, so P + 1 bits a slot would hold
    it; the ring has P + n + 1, rounded up to whole bytes (so that a power's
    ring can widen it bytewise), so that `_orbit_sums` can add up S' or V'
    times the orbit sizes, which add up to 2^n, in place.

    S is symmetric, so both shifts take the factors in pair order:
    x^(p_a) + x^(p_b + 2*shift) = x^(p_a) * (1 + u^f) over pairs a < b,
    p_a = lo + 2a + 2N*h_a the pick of pair a (h_a = 1 for the high pick),
    so f = (p_b - p_a)/2 + shift is b - a + N*(h_a XOR h_b XOR [shift = N])
    modulo 2N.  The products of the (1 + u^f) are formed in one
    depth-first pass over the representatives' pick vectors, sorted as
    integers, adding pairs from N - 1 down: representatives that agree on
    their top pairs share the product over those pairs.  Each product is
    then shifted once by the sum of the x^(p_a), less d_1 * P, halved.
    """
    N = n + 1
    P, high = N * (N - 1) // 2, shift // N
    ring = _PackedRing(2 * N, _byte_width(P + n + 1))
    picks = [v for v, _size in _orbit_picks(N)]
    memo = [None] * len(picks)
    # over pairs a < b with a >= i: partial[i] the product of the (1 + u^f),
    # leads[i] the sum of (p_a - lo)/2 = a + N*(pick high), each counted once per b
    partial, leads = [1] * (N + 1), [0] * (N + 1)
    order = sorted(range(len(picks)), key=picks.__getitem__)
    previous = picks[order[0]] ^ 1 << (N - 1)  # differs in the top pair: all pairs are added
    for index in order:
        v = picks[index]
        for a in range((v ^ previous).bit_length() - 1, -1, -1):
            flips = v ^ -(v >> a & 1 ^ high)  # bit b: h_a XOR h_b XOR [shift = N]
            p = partial[a + 1]
            for b in range(a + 1, N):
                p += ring.shift(p, b - a + N * (flips >> b & 1))
            partial[a] = p
            leads[a] = leads[a + 1] + (a + N * (v >> a & 1)) * (N - 1 - a)
        previous = v
        # d_1 = lo + 2k: pair 0's pick in pair order, the least pick ascending
        k = N * (v & 1) if shift else (~v & v + 1).bit_length() - 1
        memo[index] = (ring.shift(partial[0], (leads[0] - k * P) % (2 * N)), (2 * k - N + 1) * P)
    return ring, tuple(memo)
