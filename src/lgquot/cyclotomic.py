"""Exact arithmetic in cyclotomic fields; the floating complex twin backend is
re-exported from `lgquot._float`.

A value of order M is a vector of rational coefficients over the power basis
1, zeta, ..., zeta^(phi(M)-1), kept fully reduced modulo the M-th cyclotomic
polynomial.  Working in the field (not the group ring of M-th roots) keeps
every nonzero element invertible, which the genus-zero formulas need.

Coefficients are stored as one integer vector over a common positive
denominator, normalized so equal values have equal representations.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from ._float import FloatBackend
from ._ring import (  # noqa: F401 (re-exported)
    NonIntegerValueError,
    NonvanishingAssumptionError,
    SingularEulerError,
    _factorize,
    _ramanujan_sums,
    euler_phi,
)

__all__ = [
    "NonIntegerValueError",
    "NonvanishingAssumptionError",
    "SingularEulerError",
    "euler_phi",
    "cyclotomic_polynomial",
    "working_order",
    "CyclotomicNumber",
    "root_of_unity",
    "sqrt_two",
    "ExactBackend",
    "FloatBackend",
    "make_backend",
]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial as ascending integer coefficients (monic).

    Phi_m(x) is the product of (x^d - 1)^mu(m/d) over the divisors d of m
    (Washington, Introduction to Cyclotomic Fields, ch. 2).  The factors with
    mu(m/d) = 1 are multiplied in first; each factor with mu(m/d) = -1 is then
    divided out exactly, as a running sum with stride d.
    """
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    factors = [(m, 1)]  # (d, mu(m/d)) for the divisors d with m/d square-free
    for p in _factorize(m):
        factors += [(d // p, -mu) for d, mu in factors]
    poly = [1]
    for d, mu in factors:
        if mu == 1:
            poly = [b - a for a, b in zip(poly + [0] * d, [0] * d + poly)]
    for d, mu in factors:
        if mu == -1:
            quotient = [-c for c in poly]
            for i in range(d, len(quotient)):
                quotient[i] += quotient[i - d]
            if any(quotient[len(quotient) - d:]):
                raise ArithmeticError("polynomial division left a remainder")
            poly = quotient[:len(quotient) - d]
    return tuple(poly)


def working_order(n: int) -> int:
    """Cyclotomic order large enough for every value at rank n.

    The evaluation points are powers of a primitive 4(n+1)-th root of unity.
    The order is lcm(4(n+1), 8), which holds sqrt(2); but only odd n uses
    sqrt(2), in the staircase qtilde value, and there 8 already divides
    4(n+1).  For even n the lcm doubles the order, which no value needs.
    """
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    return lcm(4 * (n + 1), 8)


def _reduce_mod_phi(order: int, coeffs: list[int]) -> list[int]:
    """Reduce an integer coefficient vector modulo the cyclotomic polynomial."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    if len(coeffs) <= deg:
        return coeffs + [0] * (deg - len(coeffs))
    terms = [(j, p) for j, p in enumerate(phi[:deg]) if p]
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            base = i - deg
            for j, p in terms:
                coeffs[base + j] -= c * p
    return coeffs[:deg]


class CyclotomicNumber:
    """An exact element of the cyclotomic field of the given order."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        reduced = _reduce_mod_phi(order, [int(c) for c in coeffs])
        if den < 0:
            den = -den
            reduced = [-c for c in reduced]
        g = reduce(gcd, (abs(c) for c in reduced), den)
        if g > 1:
            den //= g
            reduced = [c // g for c in reduced]
        self.order = order
        self.num = tuple(reduced)
        self.den = den

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_fraction(cls, order: int, value) -> CyclotomicNumber:
        value = Fraction(value)
        return cls(order, [value.numerator], value.denominator)

    # -- predicates and extraction --------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise NonIntegerValueError(f"value is not rational: {self!r}", value=self)
        return Fraction(self.num[0], self.den)

    def as_integer(self) -> int:
        fr = self.as_fraction()
        if fr.denominator != 1:
            raise NonIntegerValueError(f"value is not an integer: {fr}", value=self)
        return fr.numerator

    def trace(self) -> Fraction:
        """The field trace: the sum of the Galois conjugates, a rational number."""
        sums = _ramanujan_sums(self.order)
        return Fraction(sum(c * t for c, t in zip(self.num, sums) if c), self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def to_complex(self) -> complex:
        step = 2j * cmath.pi / self.order
        return sum(
            (c / self.den) * cmath.exp(step * k) for k, c in enumerate(self.num) if c
        ) + 0j

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")
            return other
        if isinstance(other, int):
            return CyclotomicNumber(self.order, [other])
        if isinstance(other, Fraction):
            return CyclotomicNumber(self.order, [other.numerator], other.denominator)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = self.den * other.den // gcd(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return CyclotomicNumber(
            self.order, [fa * a + fb * b for a, b in zip(self.num, other.num)], den
        )

    __radd__ = __add__

    def __neg__(self):
        out = CyclotomicNumber.__new__(CyclotomicNumber)
        out.order, out.num, out.den = self.order, tuple(-c for c in self.num), self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.num, other.num
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return CyclotomicNumber(self.order, out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicNumber(self.order, [1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _conjugate(self, a: int) -> CyclotomicNumber:
        """The Galois conjugate zeta -> zeta^a, for a unit a modulo the order."""
        out = [0] * self.order
        for k, c in enumerate(self.num):
            out[k * a % self.order] = c
        return CyclotomicNumber(self.order, out, self.den)

    def inverse(self) -> CyclotomicNumber:
        """Multiplicative inverse; zero raises NonvanishingAssumptionError.

        The adjugate is the product of the other Galois conjugates, taken over
        the real subfield: with xbar the complex conjugate and y = x * xbar,
        adj = xbar * prod(sigma_a(y)) over the units 1 < a < m/2, so that
        x * adj is the rational norm N(x) and x^(-1) = adj / N(x).
        """
        if self.is_zero():
            raise NonvanishingAssumptionError(
                f"inverting zero in the cyclotomic field of order {self.order}"
            )
        m = self.order
        adj = self._conjugate(m - 1)
        y = self * adj
        for a in range(2, (m + 1) // 2):
            if gcd(a, m) == 1:
                adj = adj * y._conjugate(a)
        norm = (self * adj).as_fraction()
        return CyclotomicNumber(
            m, [c * norm.denominator for c in adj.num], adj.den * norm.numerator
        )

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        if self.is_rational():
            return f"CyclotomicNumber({self.order}, {Fraction(self.num[0], self.den)})"
        return f"CyclotomicNumber({self.order}, {self.coeffs})"


def root_of_unity(order: int, k: int) -> CyclotomicNumber:
    """The k-th power of the primitive order-th root of unity, exactly."""
    k %= order
    return CyclotomicNumber(order, [0] * k + [1])


def sqrt_two(order: int) -> CyclotomicNumber:
    """sqrt(2) as the sum of a primitive 8th root of unity and its inverse."""
    if order % 8:
        raise ValueError(f"order {order} is not divisible by 8; sqrt(2) unavailable")
    return root_of_unity(order, order // 8) + root_of_unity(order, order - order // 8)


class ExactBackend:
    """Exact number backend: values are CyclotomicNumber of one fixed working order."""

    name = "exact"

    def __init__(self, order: int):
        self.order = order
        self.zero = CyclotomicNumber(order, [])
        self.one = CyclotomicNumber(order, [1])

    def from_fraction(self, value):
        return CyclotomicNumber.from_fraction(self.order, value)

    def from_ring(self, coeffs):
        """The field value of sum c_k zeta^k, zeta the primitive order-th root.

        `coeffs` is an integer vector of an element of Z[x]/(x^order - 1); it
        is reduced modulo the cyclotomic polynomial once.
        """
        return CyclotomicNumber(self.order, coeffs)

    def root_of_unity(self, order: int, k: int):
        if self.order % order:
            raise ValueError(f"order {order} does not divide working order {self.order}")
        return root_of_unity(self.order, k * (self.order // order))

    def sqrt2(self):
        return sqrt_two(self.order)

    def power(self, value, exponent: int):
        if exponent < 0 and value.is_zero():
            raise NonvanishingAssumptionError("negative power of a vanishing value")
        return value ** exponent

    def is_zero(self, value) -> bool:
        return value.is_zero()

    def extract_integer(self, value) -> int:
        return value.as_integer()

    def extract_rational(self, value) -> Fraction:
        return value.as_fraction()

    def to_complex(self, value) -> complex:
        return value.to_complex()

    def pivot_weight(self, value) -> float:
        return 0.0 if value.is_zero() else 1.0


def make_backend(kind: str, n: int):
    """Backend factory: 'exact' at the rank-n working order, or 'float'."""
    if kind == "exact":
        return ExactBackend(working_order(n))
    if kind == "float":
        return FloatBackend()
    raise ValueError(f"unknown backend {kind!r} (expected 'exact' or 'float')")
