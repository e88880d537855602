import random
from fractions import Fraction

import pytest

from lgquot.cyclotomic import (
    CyclotomicNumber,
    ExactBackend,
    FloatBackend,
    NonIntegerValueError,
    NonvanishingAssumptionError,
    cyclotomic_polynomial,
    euler_phi,
    make_backend,
    root_of_unity,
    sqrt_two,
    working_order,
)

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
    16: (1, 0, 0, 0, 0, 0, 0, 0, 1),
    24: (1, 0, 0, 0, -1, 0, 0, 0, 1),
    40: (1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 1),
}


def rand_value(rng, order):
    num = [rng.randint(-9, 9) for _ in range(euler_phi(order))]
    return CyclotomicNumber(order, num, rng.randint(1, 9))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 8, 12, 16, 24, 40)] == [
        1, 1, 2, 2, 4, 4, 8, 8, 16,
    ]


def test_cyclotomic_polynomial_known_values():
    for m, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(m) == coeffs


def test_cyclotomic_polynomial_degree_and_divisibility():
    for m in (1, 2, 5, 8, 9, 12, 15, 16, 20, 24, 30, 40):
        phi = cyclotomic_polynomial(m)
        assert len(phi) - 1 == euler_phi(m)
        # the product of Phi_d over all divisors d of m rebuilds x^m - 1
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                product = poly_mul(product, list(cyclotomic_polynomial(d)))
        assert product == [-1] + [0] * (m - 1) + [1]


def test_working_order():
    assert working_order(1) == 8
    assert working_order(2) == 24
    assert working_order(3) == 16
    assert working_order(4) == 40


def test_root_of_unity_basics():
    for m in (8, 12, 24):
        z = root_of_unity(m, 1)
        assert z**m == 1
        assert z * root_of_unity(m, m - 1) == 1
        total = CyclotomicNumber(m, [])
        for k in range(m):
            total = total + root_of_unity(m, k)
        assert total.is_zero()


def test_sqrt_two_identity():
    for m in (8, 16, 24, 40):
        s = sqrt_two(m)
        assert s * s == 2
    with pytest.raises(ValueError):
        sqrt_two(12)


def test_rational_embedding_and_inverse():
    half = CyclotomicNumber.from_fraction(8, Fraction(1, 2))
    assert CyclotomicNumber.from_fraction(8, 2).inverse() == half
    assert half.coeffs[0] == Fraction(1, 2)
    assert all(c == 0 for c in half.coeffs[1:])


def test_equality_is_canonical():
    assert CyclotomicNumber(8, [2, 4], 4) == CyclotomicNumber(8, [1, 2], 2)
    assert CyclotomicNumber(8, [-1], -2) == CyclotomicNumber.from_fraction(8, Fraction(1, 2))
    assert CyclotomicNumber(8, [1]) != CyclotomicNumber(8, [1], 2)


def test_field_axioms_on_random_values():
    for order in (8, 9, 12, 15, 16, 24, 40, 56, 72):
        rng = random.Random(order)
        one = CyclotomicNumber(order, [1])
        for _ in range(100):
            a, b, c = (rand_value(rng, order) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == one
                assert a**3 * a**-3 == one


def test_power_and_negative_power():
    z = root_of_unity(24, 5)
    assert z**0 == 1
    assert z**-7 == (z**7).inverse()
    assert (z**24) == 1


def test_inverse_of_zero_raises():
    zero = CyclotomicNumber(8, [])
    with pytest.raises(NonvanishingAssumptionError):
        zero.inverse()
    with pytest.raises(NonvanishingAssumptionError):
        zero**-1


def test_extract_integer_exact():
    backend = ExactBackend(8)
    assert backend.extract_integer(backend.from_fraction(16)) == 16
    with pytest.raises(NonIntegerValueError):
        backend.extract_integer(backend.from_fraction(Fraction(1, 2)))
    with pytest.raises(NonIntegerValueError):
        backend.extract_integer(backend.root_of_unity(8, 1))
    err = None
    try:
        backend.extract_integer(backend.from_fraction(Fraction(1, 2)))
    except NonIntegerValueError as exc:
        err = exc
    assert err.value is not None


def test_extract_rational_exact():
    backend = ExactBackend(8)
    assert backend.extract_rational(backend.from_fraction(Fraction(3, 7))) == Fraction(3, 7)
    with pytest.raises(NonIntegerValueError):
        backend.extract_rational(backend.sqrt2())


def test_float_backend_extraction():
    backend = FloatBackend()
    assert backend.extract_integer(19.9999999 + 0j) == 20
    assert backend.extract_integer(-3.0000001 + 1e-9j) == -3
    with pytest.raises(NonIntegerValueError):
        backend.extract_integer(19.5 + 0j)
    with pytest.raises(NonIntegerValueError):
        backend.extract_integer(1 + 0.01j)


def test_float_backend_roots():
    backend = FloatBackend()
    z = backend.root_of_unity(8, 1)
    assert abs(z**8 - 1) < 1e-12
    assert abs(backend.sqrt2() ** 2 - 2) < 1e-12
    with pytest.raises(NonvanishingAssumptionError):
        backend.power(0j, -1)


def test_backend_agreement_on_random_operations():
    exact = ExactBackend(24)
    approx = FloatBackend()
    rng = random.Random(7)
    pairs = [
        (exact.root_of_unity(24, k), approx.root_of_unity(24, k)) for k in range(24)
    ]
    pairs.append((exact.sqrt2(), approx.sqrt2()))
    for _ in range(300):
        op = rng.choice(("add", "sub", "mul", "inv", "pow"))
        xe, xf = rng.choice(pairs)
        ye, yf = rng.choice(pairs)
        if op == "add":
            ze, zf = xe + ye, xf + yf
        elif op == "sub":
            ze, zf = xe - ye, xf - yf
        elif op == "mul":
            ze, zf = xe * ye, xf * yf
        elif op == "inv":
            if xe.is_zero():
                continue
            ze, zf = xe.inverse(), 1 / xf
        else:
            k = rng.randint(-3, 5)
            if xe.is_zero() and k < 0:
                continue
            ze, zf = xe**k, xf**k if k else 1 + 0j
        assert abs(ze.to_complex() - zf) < 1e-9 * (1 + abs(zf))
        # keep the pool well conditioned: bound the exact coefficient size
        if max(abs(c) for c in ze.coeffs) < 10**4:
            pairs.append((ze, zf))


def test_make_backend():
    assert make_backend("exact", 2).order == 24
    assert make_backend("float", 2).name == "float"
    with pytest.raises(ValueError):
        make_backend("symbolic", 2)


def test_mixed_order_arithmetic_rejected():
    with pytest.raises(ValueError):
        root_of_unity(8, 1) + root_of_unity(12, 1)
