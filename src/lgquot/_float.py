"""The floating complex twin backend, and its sum over the points with no point table.

A float count needs nothing of the cyclotomic field, of the point tables or
of the partition classes, so a process that counts on the float backend loads
this module and not `cyclotomic`, `symfunc`, `partitions` or `fractions`;
`cyclotomic` re-exports `FloatBackend`.
"""

from __future__ import annotations

import cmath
from itertools import combinations
from math import prod, sqrt

from ._ring import (
    NonIntegerValueError,
    NonvanishingAssumptionError,
    _staircase_sign,
    _summation_picks,
    _window,
)


def _beyond_float_range() -> ValueError:
    return ValueError("a value is beyond the float backend's range (magnitudes up to "
                      "about 1.8e308); use --backend exact")


class FloatBackend:
    """Approximate twin backend: values are Python complex numbers.

    A value beyond the range of a float raises ValueError, which the CLI
    reports as USAGE, instead of an OverflowError or an infinite sum.
    """

    name = "float"
    integer_tolerance = 1e-6
    zero_tolerance = 1e-9

    zero = 0j
    one = 1 + 0j

    def from_fraction(self, value) -> complex:
        """An int, Fraction or float as a complex, its ratio divided once."""
        numerator, denominator = value.as_integer_ratio()
        try:
            return complex(numerator / denominator)
        except OverflowError:
            raise _beyond_float_range() from None

    def root_of_unity(self, order: int, k: int) -> complex:
        return cmath.exp(2j * cmath.pi * k / order)

    def sqrt2(self) -> complex:
        return complex(sqrt(2.0))

    def power(self, value: complex, exponent: int) -> complex:
        if exponent < 0 and self.is_zero(value):
            raise NonvanishingAssumptionError("negative power of a vanishing value")
        if exponent == 0:
            return 1 + 0j
        try:
            return value ** exponent
        except OverflowError:
            raise _beyond_float_range() from None

    def is_zero(self, value: complex) -> bool:
        return abs(value) <= self.zero_tolerance

    def extract_integer(self, value: complex) -> int:
        if not cmath.isfinite(value):  # a product or sum overflowed
            raise _beyond_float_range()
        nearest = round(value.real)
        if abs(value - nearest) > self.integer_tolerance * max(1.0, abs(value)):
            raise NonIntegerValueError(f"value is not close to an integer: {value}", value=value)
        return int(nearest)

    def extract_rational(self, value: complex):
        from fractions import Fraction

        if abs(value.imag) > self.integer_tolerance * max(1.0, abs(value)):
            raise NonIntegerValueError(f"value is not close to a rational: {value}", value=value)
        return Fraction(value.real).limit_denominator(10**12)

    def to_complex(self, value: complex) -> complex:
        return value

    def pivot_weight(self, value: complex) -> float:
        return abs(value)


def _float_sum(n: int, g: int, exponent: int, staircases: int) -> int:
    """`_point_sum` of S^(g-1) times `staircases` staircase qtilde values, in floats.

    The float operations are those of `_table_sum` on the float point tables,
    in the same order, so the result and any error are the same: the window's
    2N roots, S formed as 1 times x_i + x_j in the order of the pairs i < j,
    its power, the signed staircase root (README, Conventions) `staircases`
    times, and the running total in the order of `summation_tuples`.  Only the
    tables and the validated tuples are left out: the points are the plain
    picks, and the staircase sign is read from them for an odd number of
    staircase factors.  An even number needs no sign, since negating a factor
    negates a float product exactly.
    """
    backend = FloatBackend()
    N = n + 1
    lo = _window(N)[0]
    roots = {d: backend.root_of_unity(4 * N, d) for d in range(lo, lo + 4 * N, 2)}
    pair_sum = {(a, b): roots[a] + roots[b] for a, b in combinations(roots, 2)}.__getitem__
    root = backend.from_fraction(2 ** (n // 2))
    root = root * backend.sqrt2() if n % 2 else root
    one, power, total = backend.one, backend.power, backend.zero
    for pick in _summation_picks(N):
        term = power(prod(map(pair_sum, combinations(pick, 2)), start=one), g - 1)
        factor = -root if staircases % 2 and _staircase_sign(N, pick) < 0 else root
        for _ in range(staircases):
            term = term * factor
        total = total + term
    # below 0, 2 ** exponent is a float: the nearest to 2^exponent, which the exact ratio gives
    return backend.extract_integer(total * backend.from_fraction(2 ** exponent))
