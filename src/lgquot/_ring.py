"""Integer kernels shared by every path: the arithmetic errors, Euler's totient,
Ramanujan sums, and products in the group ring Z[x]/(x^m - 1).

An exact count needs nothing else of the field or of the point tables, so a
process that only counts loads this module and not `cyclotomic` or `symfunc`,
which re-export these names.
"""

from __future__ import annotations

from functools import lru_cache
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


def _mobius(m: int) -> int:
    """The Moebius function of m >= 1."""
    exponents = _factorize(m).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


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

    def pack(self, coeffs) -> int:
        return sum(c << (k * self.width) for k, c in enumerate(coeffs) if c)

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


def _ring_power(m: int, coeffs, k: int) -> list[int]:
    """The k-th power of an element with nonnegative coefficients, in Z[x]/(x^m - 1).

    With 2^b the least power of two at or above the sum of the coefficients,
    the expanded power has at most 2^(k*b) monomials, so no coefficient of it
    or of a lower power reaches 2^(k*b + 1).  The staircase product has
    2^pairs monomials, so its k-th power needs k*pairs + 1 bits a slot.  The
    power itself is `_PackedRing.power`, from the base up: k = 0 gives the
    unit, k = 1 forms no product.
    """
    ring = _PackedRing(m, k * (sum(coeffs) - 1).bit_length() + 1)
    return ring.coeffs(ring.power(ring.pack(coeffs), k))
