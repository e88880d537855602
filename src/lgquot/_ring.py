"""Integer kernels shared by every path: the errors, Euler's totient, Ramanujan
sums, products in the group ring Z[x]/(x^m - 1), and the summation points as
pick vectors with their orbits and staircase signs.

A count needs nothing else of the field, of the point tables or of the
partition classes, so a process that only counts loads this module and the
count engine (`_count`), and not `cyclotomic`, `symfunc` or `partitions`,
which re-export these names.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import product
from math import gcd, prod


class NonIntegerValueError(ValueError):
    """An extraction expected an integer (or rational) but found a residual part."""

    def __init__(self, message: str, value=None):
        super().__init__(message)
        self.value = value


class NonvanishingAssumptionError(ZeroDivisionError):
    """A quantity the formulas assume to be nonzero turned out to vanish."""


class SingularEulerError(ArithmeticError):
    """The quantum Euler operator is not invertible (semisimplicity failed)."""


class OrbitSizeError(ArithmeticError):
    """The point orbits of an orbit sum do not cover the 2^n points exactly once."""


class ParityError(ValueError):
    """The evenness hypothesis of the counting formula fails for these parameters."""


class NonHomogeneousError(ValueError):
    """An expression that must be weighted-homogeneous mixes degrees."""


def _factorize(m: int) -> dict[int, int]:
    """The prime factorization of m >= 1 as {prime: exponent}."""
    factors, p = {}, 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        factors[m] = 1
    return factors


def euler_phi(m: int) -> int:
    """Euler's totient of m."""
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    return prod(p ** (e - 1) * (p - 1) for p, e in _factorize(m).items())


@lru_cache(maxsize=None)
def _ramanujan_sums(m: int) -> tuple[int, ...]:
    """The traces Tr(zeta^k) for every residue k < m: Ramanujan sums.

    c_m(k) = sum of zeta^(a*k) over the units a modulo m
    = mu(m/g) * phi(m) / phi(m/g) with g = gcd(k, m) (Washington,
    Introduction to Cyclotomic Fields, ch. 2).  The first phi(m) entries are
    the traces of the power basis; the rest serve unreduced exponents.
    mu(m/g) vanishes unless m/g is a product of distinct primes of m, and
    multiplying such a d by one more prime p negates mu and multiplies phi by
    p - 1: every nonzero sum is read from the one factorization of m.
    """
    primes = _factorize(m)
    phi = prod(p ** (e - 1) * (p - 1) for p, e in primes.items())
    sums = {1: phi}  # by squarefree d = m/g
    for p in primes:
        sums.update([(d * p, -c // (p - 1)) for d, c in sums.items()])
    return tuple(sums.get(m // gcd(k, m), 0) for k in range(m))


class _PackedRing:
    """Z[x]/(x^m - 1) for elements with nonnegative coefficients below 2^width.

    An element is one Python integer holding coefficient k in bits
    k*width .. (k+1)*width - 1, so multiplying by x^a is a cyclic shift of the
    integer and adding two elements adds their coefficients.
    """

    __slots__ = ("m", "width", "bits", "mask")

    def __init__(self, m: int, width: int):
        self.m, self.width = m, width
        self.bits = m * width
        self.mask = (1 << self.bits) - 1

    def shift(self, p: int, a: int) -> int:
        """x^a * p, for 0 <= a < m."""
        q = p << (a * self.width)
        return (q & self.mask) | (q >> self.bits)

    def mul(self, p: int, q: int) -> int:
        """p * q, when no coefficient of the product reaches 2^width."""
        r = p * q
        return (r & self.mask) + (r >> self.bits)

    def power(self, p: int, k: int) -> int:
        """p^k, when no coefficient of it or of a lower power reaches 2^width.

        The result starts as p^(2^j), 2^j the lowest set bit of k: the k-th
        power takes bit_length(k) - 1 squarings and one product for each
        further set bit, so a square is one product, k = 1 none, and k = 0
        gives the unit 1.
        """
        if not k:
            return 1
        result = None
        while True:
            if k & 1:
                result = p if result is None else self.mul(result, p)
            k >>= 1
            if not k:
                return result
            p = self.mul(p, p)

    def coeffs(self, p: int) -> list[int]:
        slot = (1 << self.width) - 1
        return [(p >> s) & slot for s in range(0, self.bits, self.width)]

    def repack(self, p: int, ring: _PackedRing) -> int:
        """p packed in `ring`, of the same order m and slots at least as wide.

        Both slot widths are whole bytes (`_byte_width`), so one strided
        slice moves byte j of every slot at once.
        """
        a, b = self.width // 8, ring.width // 8
        source, out = p.to_bytes(self.bits // 8, "little"), bytearray(ring.bits // 8)
        for j in range(a):
            out[j::b] = source[j::a]
        return int.from_bytes(out, "little")


def _byte_width(bits: int) -> int:
    """bits rounded up to whole bytes: a slot width that `_PackedRing.repack` reads."""
    return -(-bits // 8) * 8


def _ring_staircase(m: int, exponents, shift: int = 0) -> list[int]:
    """The product of x^a + x^(b + shift) over pairs a before b of exponents, in Z[x]/(x^m - 1).

    Expanded, the product has 2^pairs monomials, so no coefficient reaches
    2^(pairs + 1).  Each factor is x^a * (1 + x^(b+shift-a)): the powers x^a
    are multiplied in once, at the end.
    """
    pairs = len(exponents) * (len(exponents) - 1) // 2
    ring = _PackedRing(m, pairs + 1)
    p, lead = 1, 0
    for i, a in enumerate(exponents):
        for b in exponents[i + 1:]:
            p += ring.shift(p, (b + shift - a) % m)
        lead += a * (len(exponents) - 1 - i)
    return ring.coeffs(ring.shift(p, lead % m))


# -- the summation points ---------------------------------------------------------


def _window(N: int) -> tuple[int, int, int]:
    """Inclusive doubled-exponent window (lo, hi) and required parity for size N."""
    if N % 2 == 1:
        m = (N - 1) // 2
        return -2 * m, 6 * m + 2, 0
    m = N // 2
    return -2 * m + 1, 6 * m - 1, 1


@lru_cache(maxsize=None)
def _summation_picks(N: int) -> tuple[tuple[int, ...], ...]:
    """The doubled exponents of `partitions.summation_tuples(N)` as plain tuples, in the same order."""
    lo, _hi, _parity = _window(N)
    pairs = [(d, d + 2 * N) for d in range(lo, lo + 2 * N, 2)]
    return tuple(sorted(
        tuple(sorted(pick)) for pick in product(*pairs) if sum(pick) % (4 * N) == 0
    ))


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


@lru_cache(maxsize=None)
def _orbit_picks(N: int) -> tuple[tuple[int, int], ...]:
    """The orbits of the summation points under the maps d -> a*d + 4s, as
    (representative's pick vector, orbit size) pairs.

    Bit i of a pick vector says whether opposite pair i, (lo + 2i, lo + 2i + 2N),
    takes its high pick.  The window sums to 0, so unit product means an even
    number of high picks: the last bit follows from the others.  A unit a
    modulo 4N (Galois) sends each pair to a pair, flipping the pick or not: a
    bit permutation, applied five bits at a time, then an XOR.  Rotation d -> d + 4
    moves every pick two pairs on and flips the two that wrap round.  Each
    orbit is represented by its vector of least low N-1 bits.

    Only the units a < 2N are walked.  For odd a, a + 2N = a(2N + 1) mod 4N,
    and d -> (2N + 1)d is the identity for odd N (d even) and the rotation
    s = N/2 for even N (d odd, so d + 2N = d + 4 * N/2).  So (a + 2N, s) sends
    every point where (a, s + [N even] * N/2) does, an image already reached.
    A unit's 5-bit tables are built by doubling, one pair's bit at a time
    (at ranks 6-9, building 256-entry byte tables took longer than the walk).
    A bytearray of 2^(N-1) seen-flags, indexed by the low N-1 bits, marks each
    point as its orbit reaches it, and `bytearray.find` jumps to the next
    unseen point: no list of the points is built.
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
            units.append((tables, flip))
    seen = bytearray(half + 1)
    orbits = []
    i = 0
    while (i := seen.find(0, i)) >= 0:
        v = i | (i.bit_count() & 1) << (N - 1)
        size = 0
        for tables, flip in units:
            w = flip
            for k, table in enumerate(tables):
                w ^= table[v >> 5 * k & 31]
            for _s in range(N):
                if not seen[w & half]:
                    seen[w & half] = 1
                    size += 1
                w = (w << 2 & full) | (w >> (N - 2) ^ 3)
        orbits.append((v, size))
    return tuple(orbits)
