"""Independent reference values for maximal-subbundle counts.

Standard library only; nothing here imports ``lgquot``.  It rests on two facts
that do not depend on the program's kernels:

* The 2^n evaluation points of rank n are built directly.  With N = n + 1 the
  doubled-exponent window -(N-1), -(N-1)+2, ..., 3N-1 holds 2N values that
  form N opposite pairs (d, d + 2N).  A point takes one value from each pair,
  and the product of its coordinates is 1 when the exponents sum to 0 modulo
  4N.  Exactly half of the 2^N choices qualify.
* The staircase Schur value at a point is a product (Macdonald, Symmetric
  Functions and Hall Polynomials, Ch. I):
  s_(n,...,1)(x_1, ..., x_N) = prod over i < j of (x_i + x_j).

For even ell the count is sqrt(2)^(n(g-1)) times the sum over the points of
that product to the power g - 1.  Every point coordinate is a power of a
primitive 4N-th root of unity, so the sum is computed exactly in the group
ring Z[x]/(x^(4N) - 1) and reduced modulo the 4N-th cyclotomic polynomial at
the end, where only a constant may remain.

All group-ring elements here have nonnegative coefficients, so a polynomial is
packed into one Python integer with a fixed number of bits per coefficient
(Kronecker substitution).  Multiplying by x^a + x^b is two shifts and an add,
and x^(4N) = 1 folds the high half back onto the low half.
"""

from __future__ import annotations

from itertools import product

__all__ = [
    "points",
    "cyclotomic_polynomial",
    "even_ell_count",
    "closed_form_count",
    "expected_count",
]


def points(n: int) -> list[tuple[int, ...]]:
    """The 2^n admissible points of rank n as doubled exponents modulo 4(n+1)."""
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    N = n + 1
    M = 4 * N
    window = list(range(-(N - 1), 3 * N, 2))
    pairs = [(window[k], window[k + N]) for k in range(N)]
    out = []
    for pick in product(*pairs):
        if sum(pick) % M == 0:
            out.append(tuple(d % M for d in pick))
    if len(out) != 2 ** n:
        raise ArithmeticError(f"expected {2 ** n} points at rank {n}, found {len(out)}")
    return out


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending); den is monic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    return quot, num[:dd]


def cyclotomic_polynomial(m: int) -> list[int]:
    """The m-th cyclotomic polynomial, ascending integer coefficients."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rest = _poly_divmod(poly, cyclotomic_polynomial(d))
            if any(rest):
                raise ArithmeticError(f"x^{m} - 1 is not divisible by Phi_{d}")
    return poly


def _unpack(value: int, slots: int, bits: int) -> list[int]:
    mask = (1 << bits) - 1
    return [(value >> (k * bits)) & mask for k in range(slots)]


def even_ell_count(n: int, g: int) -> int:
    """The count for any even ell at rank n and genus g >= 1.

    Requires n(g - 1) even, which the parity condition n(ell - g + 1) even
    forces when ell is even.
    """
    if g < 1:
        raise ValueError(f"the reference needs genus >= 1, got {g}")
    if (n * (g - 1)) % 2:
        raise ValueError(f"n(g-1) = {n * (g - 1)} is odd; no even-ell count")
    N = n + 1
    M = 4 * N
    pts = points(n)
    pairs = N * (N - 1) // 2
    # every coefficient of every product below is at most the sum of all
    # coefficients, 2^n * 2^(pairs * (g-1)); one spare bit for the fold
    bits = n + pairs * max(g - 1, 1) + 2
    width = M * bits
    low = (1 << width) - 1

    def fold(value: int) -> int:
        while value >> width:
            value = (value & low) + (value >> width)
        return value

    total = 0
    for p in pts:
        s = 1
        for i in range(N):
            for j in range(i + 1, N):
                s = fold((s << (p[i] * bits)) + (s << (p[j] * bits)))
        term = 1
        for _ in range(g - 1):
            term = fold(term * s)
        total += term
    total = fold(total)
    coeffs = _unpack(total, M, bits)
    _quot, rest = _poly_divmod(coeffs, cyclotomic_polynomial(M))
    if any(rest[1:]):
        raise ArithmeticError(f"sum at rank {n}, genus {g} is not rational")
    half = n * (g - 1) // 2
    return rest[0] << half


def closed_form_count(n: int, g: int, ell: int) -> int:
    """Closed forms at rank 1 and 2: 2^g, and 2^(g-1) (3^g + 1) or (3^g - 1).

    The sign at rank 2 is + when g + ell is odd and - when it is even.
    """
    if n == 1:
        return 2 ** g
    if n == 2:
        sign = 1 if (g + ell) % 2 else -1
        return (3 ** g + sign) * 2 ** g // 2
    raise ValueError(f"no closed form at rank {n}")


def expected_count(n: int, g: int, ell: int) -> int | None:
    """The reference value when one exists: closed forms at n <= 2, even ell above."""
    if n * (ell - g + 1) % 2:
        raise ValueError(f"n(ell - g + 1) is odd for (n={n}, g={g}, ell={ell})")
    if n <= 2:
        return closed_form_count(n, g, ell)
    if ell % 2 == 0 and g >= 1:
        return even_ell_count(n, g)
    return None
