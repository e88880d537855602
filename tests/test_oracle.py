import hashlib
import json
import logging
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from operator import mul

import pytest

from lgquot._ring import _ramanujan_sums, euler_phi
from lgquot.cli import main
from lgquot.invariants import _point_tables, gw_invariant, required_degree
from lgquot import oracle
from lgquot.oracle import (
    CACHE_FORMAT_VERSION,
    _MAX_RANK,
    InconsistentAlgebraError,
    QHAlgebra,
    SingularEulerError,
    _cache_path,
    _cache_text,
    _check_rows,
    _euler_operators,
    _load_cache,
    _pieri_constants,
    _pieri_terms,
    build_qh_algebra,
    charpoly,
    eigenvalue_check,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_pow,
    mat_trace,
    mult_operator,
    quantum_euler,
    trace_invariant,
)
from lgquot.partitions import (
    dual_partition,
    staircase,
    strict_partitions,
    summation_tuples,
)
from test_partitions import point_orbits


@pytest.fixture(scope="module")
def algebras():
    return {n: build_qh_algebra(n) for n in (1, 2, 3)}


def _structure_constants(n: int) -> dict:
    """Structure constants as genus-zero three-point sums over the point orbits: the point build.

    The reference for the quantum Pieri build (`_pieri_constants`).  The
    constant of nu in lam * mu is the genus-0 invariant
    2^(-n-d) * sum over the points of S^(-1) q_lam q_mu q_nu', with nu' the
    dual of nu.  Its summand has degree d(n+1), so rotating a point leaves it
    unchanged and a Galois map conjugates it; the field trace Tr is therefore
    constant on each orbit of `point_orbits`, and the rational sum is
    T / phi(m), with T = sum over orbits |O| * Tr(summand at the representative).
    T is symmetric in its three classes, and every triple whose unordered
    {lam, mu, nu'} agrees reads the same T, so each T is computed once: for
    a <= b <= c it is Tr(u_a q_b q_c), u_a = S^(-1) q_a.  The u of every orbit
    are put over one common denominator, and so are the q, so T has an integer
    numerator over a known denominator, checked with divmod.  The traces are
    read from packed integer products (`_triple_traces`).  The triples (i, j, k)
    come from buckets of k by weight modulo n + 1, in (i, j, k) order, so each
    row lists k ascending, as the Pieri build does.
    """
    backend, tables = _point_tables(n, "exact")
    index = {J: t for t, J in enumerate(summation_tuples(n + 1))}
    basis = strict_partitions(n)
    position = {sp.parts: i for i, sp in enumerate(basis)}
    dual = [position[dual_partition(sp).parts] for sp in basis]
    top = staircase(n).parts
    # (i, j, k, d): basis pairs i <= j, each k, and the map degree d their weights force
    weights = [sp.weight for sp in basis]
    buckets: list = [[] for _ in range(n + 1)]  # (k, weight of k) by weight mod n + 1
    for k, wk in enumerate(weights):
        buckets[wk % (n + 1)].append((k, wk))
    triples = []
    for i, wi in enumerate(weights):
        for j in range(i, len(basis)):
            total = wi + weights[j]
            triples += [(i, j, k, (total - wk) // (n + 1))
                        for k, wk in buckets[total % (n + 1)] if wk <= total]
    keys: dict = {}  # sorted (a, b, c) -> position of its trace
    reads = [keys.setdefault(tuple(sorted((i, j, dual[k]))), len(keys))
             for i, j, k, _d in triples]
    orbits = []
    for rep, size in point_orbits(n + 1):
        table = tables[index[rep]]
        inverse = backend.power(table.schur(top), -1)
        q = [table.qtilde(sp.parts) for sp in basis]
        orbits.append((size, [inverse * x for x in q], q))
    den_u = lcm(*(x.den for _size, u, _q in orbits for x in u))
    den_q = lcm(*(x.den for _size, _u, q in orbits for x in q))
    m = backend.order
    phi = euler_phi(m)
    vectors = [(size, [[c * (den_u // x.den) for c in x.num] for x in u],
                [[c * (den_q // x.den) for c in x.num] for x in q]) for size, u, q in orbits]
    # two periods of c_m: an unreduced triple product has 3 phi - 2 <= 2m coefficients
    traces = _triple_traces(vectors, keys, (_ramanujan_sums(m) * 2)[:3 * phi - 2])
    scale = phi * den_u * den_q**2
    constants: dict = {(i, j): [] for i in range(len(basis)) for j in range(i, len(basis))}
    for (i, j, k, d), t in zip(triples, reads):
        den = scale << (n + d)
        c, remainder = divmod(traces[t], den)
        if remainder:
            raise InconsistentAlgebraError(
                f"structure constant of {basis[k].parts} in {basis[i].parts} * "
                f"{basis[j].parts} is not an integer: {Fraction(traces[t], den)}")
        if c:
            constants[(i, j)].append((k, d, c))
    return {key: tuple(entries) for key, entries in constants.items()}


def _triple_traces(orbits, keys: dict, sums) -> list[int]:
    """T = sum over orbits |O| * Tr(u_a q_b q_c) for each key (a, b, c) -> position of T.

    `orbits` holds (|O|, u, q), u and q lists of integer vectors of one length
    phi over the power basis of zeta.  The product u_a q_b q_c is not reduced
    modulo the cyclotomic polynomial, so it has L = 3 phi - 2 coefficients,
    and Tr(zeta^k) = sums[k] for every k < L (`len(sums)` is L).  So the
    trace is the coefficient of x^(L-1) in (u_a q_b) (q_c rbar), with rbar
    the sums reversed: a Kronecker substitution x = 2^s turns each vector
    into one integer and the product into one integer product, formed once
    per pair (a, b) and once per class c.  No coefficient of the four-fold
    product, nor of q_c rbar, nor any partial sum of either, exceeds
    max|u| max|q|^2 max|sums| phi^2 L in absolute value (if every u is 0, every
    product is 0 whatever q_c rbar reads), so with s two bits
    wider than twice that bound each slot holds its coefficient plus 2^(s-1)
    without a carry, and a slot is read with one shift and mask.  Only slots
    phi - 1 .. L - 1 of q_c rbar meet x^(L-1) in a product with the 2 phi - 1
    slots of u_a q_b; they are cut out once per class, and the trace is slot
    2 phi - 2 of the product with the cut.
    """
    span = len(sums)
    rbar = sums[::-1]
    traces = [0] * len(keys)
    for size, u, q in orbits:
        phi = len(q[0])
        bound = (max(abs(c) for v in u for c in v) * max(abs(c) for v in q for c in v) ** 2
                 * max(map(abs, sums)) * phi * phi * span)
        s = (2 * bound).bit_length() + 2
        half, mask = 1 << (s - 1), (1 << s) - 1
        low, width = phi - 1, 2 * phi - 1
        bias = half * (((1 << (s * span)) - 1) // mask)  # 2^(s-1) in each slot below L
        kept = half * (((1 << (s * width)) - 1) // mask)
        keep, shift = (1 << (s * width)) - 1, s * (width - 1)
        U = [sum(c << (s * e) for e, c in enumerate(v) if c) for v in u]
        Q = [sum(c << (s * e) for e, c in enumerate(v) if c) for v in q]
        R = sum(c << (s * e) for e, c in enumerate(rbar) if c)
        pairs: dict = {}
        ends: dict = {}
        for (a, b, c), t in keys.items():
            w = pairs.get((a, b))
            if w is None:
                w = pairs[(a, b)] = U[a] * Q[b]
            v = ends.get(c)
            if v is None:
                v = ends[c] = (((Q[c] * R + bias) >> (s * low)) & keep) - kept
            traces[t] += size * ((((w * v + kept) >> shift) & mask) - half)
    return traces


def _structure_constants_by_calls(n: int) -> dict:
    """Structure constants from one `gw_invariant` call each: the reference build."""
    basis = strict_partitions(n)
    duals = [dual_partition(sp) for sp in basis]
    constants: dict = {}
    for i, lam in enumerate(basis):
        for j in range(i, len(basis)):
            mu = basis[j]
            entries = []
            for k, nu in enumerate(basis):
                excess = lam.weight + mu.weight - nu.weight
                if excess < 0 or excess % (n + 1):
                    continue
                d = excess // (n + 1)
                c = gw_invariant(n, 0, d, [lam, mu, duals[k]])
                if c:
                    entries.append((k, d, c))
            constants[(i, j)] = tuple(entries)
    return constants


def _triple_traces_by_convolution(orbits, keys: dict, sums) -> list[int]:
    """The trace kernel as plain loops over the vectors: the reference for `_triple_traces`.

    Tr(u_a q_b q_c) is the dot product of the convolution u_a q_b, of length
    2 phi - 1, with the trace vector t_e = sum_b (q_c)_b sums[e + b] of q_c.
    """
    traces = [0] * len(keys)
    for size, u, q in orbits:
        span = 2 * len(q[0]) - 1
        t_vectors = [[sum(map(mul, v, sums[e:])) for e in range(span)] for v in q]
        pairs: dict = {}
        for (a, b, c), t in keys.items():
            w = pairs.get((a, b))
            if w is None:
                w = pairs[(a, b)] = [0] * span
                for x, ux in enumerate(u[a]):
                    if ux:
                        for y, qy in enumerate(q[b], x):
                            w[y] += ux * qy
            traces[t] += size * sum(map(mul, w, t_vectors[c]))
    return traces


def _cache_payload(algebra: QHAlgebra) -> dict:
    """The cache file as a JSON object: `json.dumps(payload, indent=1)` is the reference text."""
    rows = [[list(algebra.basis[i].parts), list(algebra.basis[j].parts),
             list(algebra.basis[k].parts), d, str(c)]
            for (i, j), entries in sorted(algebra.constants.items()) for k, d, c in entries]
    return {"format_version": CACHE_FORMAT_VERSION, "n": algebra.n,
            "basis": [list(sp.parts) for sp in algebra.basis], "constants": rows}


def _validate_reference(algebra: QHAlgebra) -> None:
    """The ring axioms on a sparse dict table, triple by triple: the reference validator."""
    dim = algebra.dim
    if algebra.basis[0].parts != ():
        raise InconsistentAlgebraError("basis does not start with the unit class")
    for entries in algebra.constants.values():
        for _k, d, c in entries:
            if d < 0 or c < 0 or c != int(c):
                raise InconsistentAlgebraError(f"bad structure constant ({d}, {c})")
    table = {}
    for i in range(dim):
        for j in range(dim):
            row: dict = {}
            for k, _d, c in algebra.pair_constants(i, j):
                if c:
                    row[k] = row.get(k, 0) + int(c)
            table[(i, j)] = row
    for k in range(dim):
        if table[(0, k)] != {k: 1}:
            raise InconsistentAlgebraError(f"unit fails on basis element {k}")
    for i in range(dim):
        for j in range(dim):
            ij = table[(i, j)]
            for k in range(dim):
                left: dict = {}
                for mid, c in ij.items():
                    for out, e in table[(mid, k)].items():
                        left[out] = left.get(out, 0) + c * e
                right: dict = {}
                for mid, c in table[(j, k)].items():
                    for out, e in table[(i, mid)].items():
                        right[out] = right.get(out, 0) + c * e
                if left != right:
                    raise InconsistentAlgebraError(
                        f"associativity fails on basis triple ({i}, {j}, {k})"
                    )


def test_matrix_helpers():
    m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert mat_mul(m, m) == mat_identity(2)
    assert mat_pow(m, 5) == m
    assert mat_pow(m, 0) == mat_identity(2)
    with pytest.raises(ValueError):
        mat_pow(m, -1)
    assert mat_trace(m) == 0
    assert mat_inverse(m) == m
    with pytest.raises(SingularEulerError):
        mat_inverse([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


def test_mat_pow_starts_from_the_base(monkeypatch):
    # bit_length(k) - 1 squarings and one product per further set bit: E^1 is
    # a copy with no product, and every power equals the square-and-multiply
    # loop that starts at the identity
    E = _euler_operators(build_qh_algebra(3))[0]

    def reference(a, k):
        result, base = mat_identity(len(a)), a
        while k:
            if k & 1:
                result = mat_mul(result, base)
            k >>= 1
            base = mat_mul(base, base)
        return result

    products = []

    def spy(a, b):
        products.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(oracle, "mat_mul", spy)
    counts = []
    for k in range(1, 7):
        products.clear()
        power = mat_pow(E, k)
        counts.append(len(products))
        assert power == reference(E, k)
    assert counts == [0, 1, 2, 2, 3, 3]
    once = mat_pow(E, 1)
    assert once == E and once is not E and all(a is not b for a, b in zip(once, E))


def test_charpoly_known_cases():
    assert charpoly(mat_identity(2)) == [Fraction(1), Fraction(-2), Fraction(1)]
    swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert charpoly(swap) == [Fraction(1), Fraction(0), Fraction(-1)]
    upper = [[Fraction(2), Fraction(3)], [Fraction(0), Fraction(5)]]
    # (x-2)(x-5) = x^2 - 7x + 10
    assert charpoly(upper) == [Fraction(1), Fraction(-7), Fraction(10)]


def test_rank_one_algebra_structure(algebras):
    a1 = algebras[1]
    assert [sp.parts for sp in a1.basis] == [(), (1,)]
    # the top class squares to the unit once the deformation parameter is 1
    assert a1.product(a1.basis_vector((1,)), a1.basis_vector((1,))) == [
        Fraction(1),
        Fraction(0),
    ]
    assert mult_operator(a1, (1,)) == [
        [Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(0)],
    ]
    assert quantum_euler(a1) == [Fraction(0), Fraction(2)]


def test_rank_two_algebra_products(algebras):
    a2 = algebras[2]
    sigma1_squared = a2.product(a2.basis_vector((1,)), a2.basis_vector((1,)))
    assert sigma1_squared == [Fraction(0), Fraction(0), Fraction(2), Fraction(0)]
    unit = a2.basis_vector(())
    for sp in a2.basis:
        assert a2.product(unit, a2.basis_vector(sp)) == a2.basis_vector(sp)


def test_mult_operator_entries_integral_for_basis_classes(algebras):
    for algebra in algebras.values():
        for sp in algebra.basis:
            for row in mult_operator(algebra, sp):
                assert all(entry.denominator == 1 for entry in row)


def test_mult_operator_identity_and_linearity(algebras):
    a2 = algebras[2]
    assert mult_operator(a2, ()) == mat_identity(4)
    x = [Fraction(1), Fraction(2), Fraction(0), Fraction(0)]
    y = [Fraction(0), Fraction(0), Fraction(1), Fraction(3)]
    both = [a + b for a, b in zip(x, y)]
    sum_ops = [
        [a + b for a, b in zip(ra, rb)]
        for ra, rb in zip(mult_operator(a2, x), mult_operator(a2, y))
    ]
    assert mult_operator(a2, both) == sum_ops


def test_associativity_recomputed_independently(algebras):
    for n in (2, 3):
        algebra = algebras[n]
        vectors = [algebra.basis_vector(sp) for sp in algebra.basis]
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                ij = algebra.product(vectors[i], vectors[j])
                for k in range(algebra.dim):
                    left = algebra.product(ij, vectors[k])
                    right = algebra.product(vectors[i], algebra.product(vectors[j], vectors[k]))
                    assert left == right


def test_trace_invariant_rank_one(algebras):
    a1 = algebras[1]
    assert trace_invariant(a1, 1, []) == 2
    assert trace_invariant(a1, 2, []) == 0
    assert trace_invariant(a1, 0, [(1,), (1,), (1,)]) == 1


def test_genus_one_empty_trace_is_algebra_dimension(algebras):
    # tr(identity) = 2^n, matching the direct count of evaluation points
    for n, algebra in algebras.items():
        assert trace_invariant(algebra, 1, []) == 2**n
        assert gw_invariant(n, 1, 0, []) == 2**n


def test_trace_invariant_genus_zero_through_inverse_euler(algebras):
    assert trace_invariant(algebras[2], 0, [(1,), (1,), (1,)]) == 2


def test_euler_operator_invertible_up_to_rank_three(algebras):
    for algebra in algebras.values():
        mat_inverse(mult_operator(algebra, quantum_euler(algebra)))


def test_trace_matches_direct_formula(algebras):
    # genus 0 included: the constants come from the rule, not the points
    rng = random.Random(42)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 3)
        g = rng.randint(0, 3)
        insertions = [
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n)), reverse=True))
            for _ in range(rng.randint(0, 4))
        ]
        d = required_degree(n, g, insertions)
        if d is None:
            continue
        assert trace_invariant(algebras[n], g, insertions) == gw_invariant(
            n, g, d, insertions
        )
        checked += 1


def test_trace_vanishes_without_admissible_degree(algebras):
    # covers both fractional and negative forced degrees
    rng = random.Random(43)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 3)
        g = rng.randint(0, 3)
        insertions = [
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n)), reverse=True))
            for _ in range(rng.randint(0, 4))
        ]
        if required_degree(n, g, insertions) is not None:
            continue
        assert trace_invariant(algebras[n], g, insertions) == 0
        checked += 1
    # explicit negative-forced-degree cases
    assert trace_invariant(algebras[2], 0, []) == 0
    assert trace_invariant(algebras[3], 0, [(2,)]) == 0
    assert trace_invariant(algebras[3], 0, [(1,), (1,)]) == 0


def test_eigenvalue_check_calibrated(algebras):
    for algebra in algebras.values():
        assert eigenvalue_check(algebra)


def test_singular_euler_error_for_degenerate_algebra():
    # a hand-made commutative two-dimensional algebra with nilpotent top class
    basis = tuple(strict_partitions(1))
    degenerate = QHAlgebra(1, basis, {(0, 0): ((0, 0, 1),), (0, 1): ((1, 0, 1),),
                                      (1, 1): ()})
    with pytest.raises(SingularEulerError):
        trace_invariant(degenerate, 0, [])


def _per_call_trace(algebra: QHAlgebra, g: int, insertions) -> Fraction:
    """The reference trace: everything formed on the call, every product in full.

    E = [quantum Euler class] is built, inverted (g = 0) or raised to g - 1
    from the identity, multiplied by each insertion's operator in turn, and
    the trace of the whole product is read.
    """
    euler_op = mult_operator(algebra, quantum_euler(algebra))
    acc = mat_inverse(euler_op) if g == 0 else mat_pow(euler_op, g - 1)
    for lam in insertions:
        acc = mat_mul(acc, mult_operator(algebra, lam))
    return mat_trace(acc)


def test_kept_euler_operators_give_the_per_call_traces():
    # ranks 1-2: every multiset of 0-3 basis classes at genus 0-6.  Above,
    # where the reference costs up to 0.15 s a trace, seeded multisets per
    # genus and number of insertions: at rank 3 one degree-matching and one
    # vanishing, at rank 4 one, of each kind in turn (the other if none is)
    rng = random.Random(44)
    kinds = {True: 0, False: 0}
    for n in (1, 2, 3, 4):
        algebra = build_qh_algebra(n)
        labels = [sp.parts for sp in algebra.basis]
        for g in range(7):
            for count in range(4):
                multisets = list(combinations_with_replacement(labels, count))
                if n > 2:
                    rng.shuffle(multisets)
                    order = (False, True) if (g + count) % 2 else (True, False)
                    picked = [next((ins for ins in multisets
                                    if (required_degree(n, g, ins) is None) == vanish), None)
                              for vanish in order]
                    multisets = [ins for ins in picked if ins is not None][:1 if n == 4 else 2]
                for ins in multisets:
                    value = trace_invariant(algebra, g, list(ins))
                    assert type(value) is Fraction
                    assert value == _per_call_trace(algebra, g, ins), (n, g, ins)
                    vanishes = required_degree(n, g, ins) is None
                    assert value == 0 or not vanishes
                    kinds[vanishes] += 1
    assert kinds[True] > 100 and kinds[False] > 100


def test_euler_operator_and_inverse_formed_once_per_algebra(monkeypatch):
    from lgquot import verify

    calls = {"euler": 0, "inverse": 0}

    def counted(name, function):
        def spy(*args):
            calls[name] += 1
            return function(*args)
        return spy

    monkeypatch.setattr(oracle, "quantum_euler", counted("euler", oracle.quantum_euler))
    monkeypatch.setattr(oracle, "mat_inverse", counted("inverse", oracle.mat_inverse))
    algebra = build_qh_algebra(3)  # a reload: a new algebra, nothing kept yet
    for g in (1, 1, 0, 2, 0, 3, 0, 4):
        trace_invariant(algebra, g, [(2,), (3, 1)])
    assert calls == {"euler": 1, "inverse": 1}
    euler, inverse = _euler_operators(algebra, inverse=True)
    assert calls == {"euler": 1, "inverse": 1}
    assert euler == mult_operator(algebra, quantum_euler(algebra))
    assert mat_mul(euler, inverse) == mat_identity(algebra.dim)
    # the suite's euler_invertible check and its genus-0 traces share each inverse
    calls.update(euler=0, inverse=0)
    outcomes = verify.oracle_suite(max_n=2, cases=20)
    assert all(outcome.passed for outcome in outcomes)
    assert calls == {"euler": 2, "inverse": 2}


def test_singular_euler_operator_raises_on_every_genus_zero_call(monkeypatch):
    basis = tuple(strict_partitions(1))
    degenerate = QHAlgebra(1, basis, {(0, 0): ((0, 0, 1),), (0, 1): ((1, 0, 1),),
                                      (1, 1): ()})
    inverses = []
    monkeypatch.setattr(oracle, "mat_inverse",
                        lambda a: inverses.append(a) or mat_inverse(a))
    message = "quantum Euler operator is singular; the genus-0 trace is undefined"
    for _ in range(2):
        with pytest.raises(SingularEulerError) as caught:
            trace_invariant(degenerate, 0, [(1,)])
        assert str(caught.value) == message
    assert len(inverses) == 2  # the failure is not stored
    assert _euler_operators(degenerate)[1] is None
    assert trace_invariant(degenerate, 2, [(1,)]) == 0  # E itself is kept and usable


def test_kept_operators_change_no_field_nor_cache_text(tmp_path):
    built = build_qh_algebra(3, cache_dir=tmp_path)
    loaded = build_qh_algebra(3, cache_dir=tmp_path)
    assert loaded is not built
    text = _cache_text(built)
    for g in range(4):
        assert trace_invariant(built, g, [(3,), (2, 1)]) == trace_invariant(
            loaded, g, [(3,), (2, 1)])
    assert built == loaded
    assert _cache_text(built) == _cache_text(loaded) == text
    assert _cache_path(3, tmp_path).read_text() == text
    with pytest.raises(TypeError):
        hash(built)


def test_threads_sharing_a_fresh_algebra_read_the_reference_traces():
    queries = [(g, [(1,), (3, 1), (2,)][:k]) for g in range(5) for k in (1, 3)]
    expected = [_per_call_trace(build_qh_algebra(3), g, ins) for g, ins in queries]
    wrong = []

    def trace(algebra, start, offset):
        start.wait()
        for i in range(len(queries)):
            i = (i + offset) % len(queries)
            if trace_invariant(algebra, *queries[i]) != expected[i]:
                wrong.append(queries[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        algebra = build_qh_algebra(3)
        start = threading.Barrier(8)
        threads = [threading.Thread(target=trace, args=(algebra, start, offset))
                   for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


def test_rank_two_multiplication_table_frozen(algebras):
    # full table at deformation parameter 1; the oracle's axioms and the trace
    # agreement pin these values, frozen here as a regression guard
    a2 = algebras[2]
    expected = {
        ((), ()): {(): 1},
        ((), (1,)): {(1,): 1},
        ((), (2,)): {(2,): 1},
        ((), (2, 1)): {(2, 1): 1},
        ((1,), (1,)): {(2,): 2},
        ((1,), (2,)): {(): 1, (2, 1): 1},
        ((1,), (2, 1)): {(1,): 1},
        ((2,), (2,)): {(1,): 1},
        ((2,), (2, 1)): {(2,): 1},
        ((2, 1), (2, 1)): {(): 1},
    }
    for (lam, mu), product in expected.items():
        vec = a2.product(a2.basis_vector(lam), a2.basis_vector(mu))
        assert {a2.basis[k].parts: int(c) for k, c in enumerate(vec) if c} == product


def test_poincare_duality_coefficient(algebras):
    # the coefficient of the staircase class in lam * dual(lam) is always 1
    from lgquot.partitions import dual_partition, staircase

    for n, algebra in algebras.items():
        top = algebra.index(staircase(n))
        for sp in algebra.basis:
            vec = algebra.product(
                algebra.basis_vector(sp), algebra.basis_vector(dual_partition(sp))
            )
            assert vec[top] == 1


def classical_pieri_step(n, state):
    """One multiplication by the weight-1 class in classical (undeformed) cohomology.

    Adding a box to an existing part carries coefficient 2; starting a new
    part (a diagonal box of the shifted shape) carries coefficient 1.
    """
    out = {}
    for parts, coeff in state.items():
        for i, p in enumerate(parts):
            if p + 1 <= n and (i == 0 or parts[i - 1] > p + 1):
                grown = parts[:i] + (p + 1,) + parts[i + 1:]
                out[grown] = out.get(grown, 0) + 2 * coeff
        if not parts or parts[-1] > 1:
            appended = parts + (1,)
            out[appended] = out.get(appended, 0) + coeff
    return out


@pytest.mark.parametrize("n,degree", [(1, 1), (2, 2), (3, 16), (4, 768)])
def test_projective_degree_against_classical_pieri(n, degree):
    # sigma_1^(dim) computed two independent ways: the classical Pieri
    # recursion on shifted shapes, and the root-of-unity summation
    state = {(): 1}
    dim = n * (n + 1) // 2
    for _ in range(dim):
        state = classical_pieri_step(n, state)
    staircase_parts = tuple(range(n, 0, -1))
    assert state.get(staircase_parts, 0) == degree
    assert gw_invariant(n, 0, 0, [(1,)] * dim) == degree


def test_rank_four_oracle_spot_checks():
    # beyond the required grid: traces of the rank-4 algebra built from the rule
    a4 = build_qh_algebra(4)
    for g, ins in [(2, [(4, 3, 2, 1)]), (3, [(4, 2), (3, 1)]), (1, [(2, 1), (3, 2)])]:
        d = required_degree(4, g, ins)
        if d is None:
            continue
        assert trace_invariant(a4, g, ins) == gw_invariant(4, g, d, ins)
    assert eigenvalue_check(a4)


def test_cache_roundtrip(tmp_path):
    built = build_qh_algebra(2, cache_dir=tmp_path)
    path = _cache_path(2, tmp_path)
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["format_version"] == CACHE_FORMAT_VERSION
    assert payload["n"] == 2
    assert payload["basis"] == [[], [1], [2], [2, 1]]
    assert all(isinstance(row[4], str) for row in payload["constants"])
    reloaded = build_qh_algebra(2, cache_dir=tmp_path)
    assert reloaded.constants == built.constants
    built.index((2, 1))  # fills the index cache, which equality ignores
    assert reloaded == built and reloaded is not built
    with pytest.raises(TypeError):
        hash(built)


@pytest.mark.parametrize("n,digest", [
    (1, "2999e09d9a4dfe77005007a24a81312d0b542ba4e0307bfbfdc9e744279d79dc"),
    (2, "7444f43a21ea335bb8ec05d4b0ba400a2421f538c4b051f93971eb188256c007"),
    (3, "986d93f521898fa02ffe14346fb26e1f4e4bc27e9f817ea687fa64491b245a84"),
    (4, "721b588aefe1a1598088c95d53c58f1532ec4f5d680e1cfd6344ee473582df62"),
    (5, "a31349eac56e1461067aa0d39b9fb4eba207c3ac7740b9b3c00b2073347dab2b"),
])
def test_cache_files_are_pinned(tmp_path, n, digest):
    # the pinned file passes the reload check as it stands
    built = build_qh_algebra(n, cache_dir=tmp_path)
    path = _cache_path(n, tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    loaded = _load_cache(n, path)
    _check_rows(loaded)
    assert loaded == built


def test_cache_version_mismatch_triggers_rebuild(tmp_path):
    build_qh_algebra(1, cache_dir=tmp_path)
    path = _cache_path(1, tmp_path)
    payload = json.loads(path.read_text())
    payload["format_version"] = CACHE_FORMAT_VERSION + 1
    path.write_text(json.dumps(payload))
    rebuilt = build_qh_algebra(1, cache_dir=tmp_path)
    assert rebuilt.basis[1].parts == (1,)
    assert json.loads(path.read_text())["format_version"] == CACHE_FORMAT_VERSION


def test_cache_save_leaves_no_temporary_file(tmp_path, monkeypatch, caplog):
    build_qh_algebra(1, cache_dir=tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [_cache_path(1, tmp_path).name]

    def refuse(src, dst):
        raise OSError("no space left")

    monkeypatch.setattr("lgquot.oracle.os.replace", refuse)
    with caplog.at_level(logging.WARNING, logger="lgquot.oracle"):
        assert build_qh_algebra(2, cache_dir=tmp_path).dim == 4
    assert "no space left" in caplog.text
    assert [p.name for p in tmp_path.iterdir()] == [_cache_path(1, tmp_path).name]


def test_unusable_cache_dir_does_not_fail_verification(tmp_path, monkeypatch, caplog, capsys):
    blocker = tmp_path / "regular_file"
    blocker.write_text("")
    monkeypatch.setenv("LGQ_CACHE_DIR", str(blocker / "cache"))
    with caplog.at_level(logging.WARNING, logger="lgquot.oracle"):
        code = main(["verify", "--suite", "oracle"])
    assert code == 0, capsys.readouterr().out
    assert "cache not saved" in caplog.text


@pytest.mark.parametrize("payload", ["{not json", "[]", "null", '"x"'],
                         ids=["not-json", "list", "null", "string"])
def test_corrupt_cache_is_ignored(tmp_path, payload):
    # JSON that is not an object is rebuilt like text that is not JSON
    path = _cache_path(3, tmp_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(payload)
    algebra = build_qh_algebra(3, cache_dir=tmp_path)
    assert algebra.dim == 8


@pytest.mark.parametrize("column,value", [
    (3, 0.7), (3, True), (3, "0"), (4, 1.5), (4, 2), (4, "1.5"), (4, "-1"),
], ids=["d-float", "d-bool", "d-string", "c-float", "c-int", "c-fraction", "c-negative"])
def test_cache_with_a_non_integer_entry_is_rebuilt(tmp_path, caplog, column, value):
    # d must be a JSON integer and c a string of decimal digits (CACHE_FORMAT);
    # anything else makes the file unusable, as text that is not JSON does,
    # rather than be read through int(), which loads 0.7 as 0 and 1.5 as 1
    fresh = build_qh_algebra(3, cache_dir=tmp_path)
    path = _cache_path(3, tmp_path)
    payload = json.loads(path.read_text())
    row = next(row for row in payload["constants"] if row[3] == 0 and row[4] == "1")
    row[column] = value
    path.write_text(json.dumps(payload, indent=1))
    assert _load_cache(3, path) is None
    with caplog.at_level(logging.WARNING, logger="lgquot.oracle"):
        assert build_qh_algebra(3, cache_dir=tmp_path) == fresh
    assert caplog.text == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "986d93f521898fa02ffe14346fb26e1f4e4bc27e9f817ea687fa64491b245a84")


def _failure(validator, algebra):
    try:
        validator(algebra)
    except InconsistentAlgebraError as exc:
        return str(exc)
    return None


def _row_mutations(algebra):
    """Each table with one entry changed: c up or down by 1, the entry dropped, or d up by 1.

    Each row also gains, once, a zero entry at its smallest absent k.
    """
    for (i, j), entries in algebra.constants.items():
        for position, (k, d, c) in enumerate(entries):
            for changed in ((k, d, c + 1),), ((k, d, c - 1),), (), ((k, d + 1, c),):
                yield (i, j), entries[:position] + changed + entries[position + 1:]
        present = {k for k, _d, _c in entries}
        absent = next((k for k in range(algebra.dim) if k not in present), None)
        if absent is not None:
            yield (i, j), tuple(sorted(entries + ((absent, 0, 0),)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reload_check_rejects_what_the_reference_rejects(n):
    # every table that the reload check accepts passes the triple-by-triple
    # reference; at ranks 2-4 it rejects every single-entry change, including
    # the degree changes and zero entries, which the reference does not see.
    # At rank 1, sigma_1^2 = 2 and sigma_1^2 = 0 stay rings
    algebra = build_qh_algebra(n)
    accepted = []
    for key, row in _row_mutations(algebra):
        broken = QHAlgebra(n, algebra.basis, {**algebra.constants, key: row})
        if _failure(_check_rows, broken) is None:
            assert _failure(_validate_reference, broken) is None, (key, row)
            accepted.append(row)
    assert accepted == ([((0, 1, 2),), ()] if n == 1 else [])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_built_algebras_pass_both_validators(n):
    algebra = build_qh_algebra(n)
    _check_rows(algebra)
    _validate_reference(algebra)


def test_reload_check_holds_large_constants():
    # sigma_1^2 = C at rank 1 is a ring for any C, here above 2^64; a unit row
    # with a constant of 2 is not
    basis = tuple(strict_partitions(1))
    square = ((0, 1, 2**64 + 3),)
    algebra = QHAlgebra(1, basis, {(0, 0): ((0, 0, 1),), (0, 1): ((1, 0, 1),), (1, 1): square})
    _check_rows(algebra)
    _validate_reference(algebra)
    broken = QHAlgebra(1, basis, {(0, 0): ((0, 0, 1),), (0, 1): ((1, 0, 2),), (1, 1): square})
    with pytest.raises(InconsistentAlgebraError, match="unit"):
        _check_rows(broken)


def test_rank_above_limit_refused_before_building(tmp_path, monkeypatch):
    def no_build(*args):
        raise AssertionError("algebra built")

    monkeypatch.setattr("lgquot.oracle._pieri_constants", no_build)
    with pytest.raises(ValueError, match=f"limit {_MAX_RANK}"):
        build_qh_algebra(_MAX_RANK + 1, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_validation_rejects_broken_constants():
    basis = tuple(strict_partitions(1))
    broken = QHAlgebra(1, basis, {(0, 0): ((0, 0, 1),), (0, 1): ((1, 0, 1),),
                                  (1, 1): ((0, 1, -2),)})
    with pytest.raises(InconsistentAlgebraError, match="is -2, not a positive integer"):
        _check_rows(broken)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_constants_match_per_call_build(n):
    assert _structure_constants(n) == _structure_constants_by_calls(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pieri_constants_match_the_point_build(n):
    # the quantum Pieri rule against the paper's genus-zero sums over the points
    assert _pieri_constants(n, tuple(strict_partitions(n))) == _structure_constants(n)


@pytest.mark.parametrize("position,value", [(0, "21/20"), (1, "21/20"), (2, "5/4")])
def test_orbit_size_error_names_the_first_non_integer_constant(monkeypatch, position, value):
    # one rank-4 orbit counted one point too large: the unit's square is the
    # first triple, and its constant is no longer an integer
    def one_too_large(N, point_orbits=point_orbits):
        orbits = list(point_orbits(N))
        rep, size = orbits[position]
        orbits[position] = (rep, size + 1)
        return tuple(orbits)

    monkeypatch.setattr(sys.modules[__name__], "point_orbits", one_too_large)
    message = f"structure constant of () in () * () is not an integer: {value}"
    with pytest.raises(InconsistentAlgebraError) as excinfo:
        _structure_constants(4)
    assert str(excinfo.value) == message


def test_validation_rejects_raised_constant(algebras):
    # raising any one constant of the rank-3 algebra by 1 breaks an axiom; a
    # row that holds no column of a generator's operator is named
    a3 = algebras[3]
    generators = {a3.index((i,)) for i in range(1, 4)}
    for (i, j), entries in a3.constants.items():
        for position, (k, d, c) in enumerate(entries):
            raised = entries[:position] + ((k, d, c + 1),) + entries[position + 1:]
            broken = QHAlgebra(3, a3.basis, {**a3.constants, (i, j): raised})
            with pytest.raises(InconsistentAlgebraError) as excinfo:
                _check_rows(broken)
            if not generators & {i, j}:
                assert str(excinfo.value) == (f"row {a3.basis[i].parts} * {a3.basis[j].parts}"
                                              " is not the one its generators build")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_traces_match_the_convolution_kernel(monkeypatch, n):
    calls = []

    def spy(*args, kernel=_triple_traces):
        calls.append((args, kernel(*args)))
        return calls[-1][1]

    monkeypatch.setattr(sys.modules[__name__], "_triple_traces", spy)
    _structure_constants(n)
    [(args, traces)] = calls
    assert traces == _triple_traces_by_convolution(*args)


@pytest.mark.parametrize("phi", [1, 4, 16])
def test_packed_slot_holds_extreme_coefficients(phi):
    # vectors at +-the largest magnitude, zero and all-negative, against the
    # loop kernel; with every entry at its largest magnitude the slot read is
    # +-phi^3 max|u| max|q|^2 max|sums|, the largest trace those magnitudes allow
    rng = random.Random(phi)
    span = 3 * phi - 2
    for top_u, top_q, top_c in [(1, 1, 1), (7, 3, 12), (2**40 + 1, 2**33 - 1, 2**20)]:
        def vectors(top, length=phi):
            return [[top] * length, [-top] * length, [0] * length,
                    [rng.choice((-top, 0, top)) for _ in range(length)],
                    [rng.choice((-top, top)) for _ in range(length)]]

        u, q = vectors(top_u), vectors(top_q)
        orbits = [(1, u, q), (3, q, u), (5, vectors(top_u), q)]
        keys = {key: t for t, key in enumerate(
            (a, b, c) for a in range(5) for b in range(a, 5) for c in range(b, 5))}
        for sums in vectors(top_c, span):
            assert (_triple_traces(orbits, keys, sums)
                    == _triple_traces_by_convolution(orbits, keys, sums))
        extreme = phi**3 * top_u * top_q**2 * top_c
        signs = {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 1): 1, (1, 1, 1): -1}
        corners = {key: t for t, key in enumerate(signs)}
        for sums, sign in ([top_c] * span, 1), ([-top_c] * span, -1):
            expected = [sign * s * extreme for s in signs.values()]
            assert _triple_traces([(1, u, q)], corners, sums) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cache_text_is_the_json_encoding(n):
    algebra = build_qh_algebra(n)
    assert _cache_text(algebra) == json.dumps(_cache_payload(algebra), indent=1)


@pytest.mark.parametrize("constants", [
    {(0, 0): ((0, 0, 1),), (0, 1): ((1, 0, 1),), (1, 1): ((0, 12, 2**64 + 5), (1, 10, 3))},
    {(0, 0): (), (0, 1): (), (1, 1): ()},
], ids=["large", "no-rows"])
def test_cache_text_of_synthetic_algebras(constants):
    # a constant above 2^64, degrees of two digits, the empty label () in
    # every row, and a file with no constants rows at all
    algebra = QHAlgebra(1, tuple(strict_partitions(1)), constants)
    assert _cache_text(algebra) == json.dumps(_cache_payload(algebra), indent=1)


@pytest.mark.parametrize("damage", ["swap", "raise", "degree"])
def test_broken_cache_file_is_rebuilt(tmp_path, monkeypatch, caplog, damage):
    # a file that parses but whose constants are wrong: lam and mu swapped in
    # one row (a key that no product reads), one constant raised by 1, or one
    # map degree changed from 0 to 1 (still a ring, but not this one)
    fresh = build_qh_algebra(3, cache_dir=tmp_path)
    path = _cache_path(3, tmp_path)
    payload = json.loads(path.read_text())
    rows = payload["constants"]
    if damage == "swap":
        row = next(row for row in rows if row[0] != row[1])
        row[0], row[1] = row[1], row[0]
    elif damage == "raise":
        rows[0][4] = str(int(rows[0][4]) + 1)
    else:
        row = next(row for row in rows if row[0] and row[3] == 0)
        row[3] = 1
    path.write_text(json.dumps(payload, indent=1))
    assert (_load_cache(3, path) is None) == (damage == "swap")
    with caplog.at_level(logging.WARNING, logger="lgquot.oracle"):
        assert build_qh_algebra(3, cache_dir=tmp_path) == fresh
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "986d93f521898fa02ffe14346fb26e1f4e4bc27e9f817ea687fa64491b245a84")
    # only a loaded algebra that fails the reload check is reported
    assert ("rejected and rebuilt" in caplog.text) == (damage != "swap")
    path.write_text(json.dumps(payload, indent=1))
    monkeypatch.setenv("LGQ_CACHE_DIR", str(tmp_path))
    assert main(["verify", "--suite", "oracle", "--max-n", "3"]) == 0


def test_failing_fresh_build_raises_and_saves_nothing(tmp_path, monkeypatch):
    # a built algebra is checked before it is saved, and a failure raises: here
    # the rule loses sigma_1 * sigma_() = sigma_1
    def no_unit_term(n, lam):
        return [term for term in _pieri_terms(n, lam) if term[0] != 1 or lam]

    monkeypatch.setattr("lgquot.oracle._pieri_terms", no_unit_term)
    with pytest.raises(InconsistentAlgebraError,
                       match=r"operator of \(1,\) does not take the unit to \(1,\)"):
        build_qh_algebra(2, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_fresh_build_checks_map_degrees(tmp_path, monkeypatch):
    # sigma_1^2 = sigma_1 at rank 1 is a commutative, associative ring with
    # positive constants, but sigma_1 has no map degree in it: (1 + 1 - 1) / 2
    def idempotent(n, lam):
        return [(1, (1,), 1)] if lam == (1,) else _pieri_terms(n, lam)

    monkeypatch.setattr("lgquot.oracle._pieri_terms", idempotent)
    with pytest.raises(InconsistentAlgebraError,
                       match=r"^\(1,\) in \(1,\) \* \(1,\) has map degree 1/2$"):
        build_qh_algebra(1, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def _mutations(n, lam, kind):
    """Each term list of sigma_i sigma_lam, i = 1..n, with one mutation of the given kind."""
    terms = _pieri_terms(n, lam)
    if kind == "raise":  # a zero constant raised to 1
        present = {(i, kappa) for i, kappa, _c in terms}
        yield from (terms + [(i, sp.parts, 1)] for i in range(1, n + 1)
                    for sp in strict_partitions(n) if (i, sp.parts) not in present)
    for p, (i, kappa, c) in enumerate(terms):
        if kind == "power-up":
            changed = [(i, kappa, 2 * c)]
        elif kind == "power-down":
            changed = [(i, kappa, Fraction(c, 2) if c % 2 else c // 2)]
        elif kind == "raise":
            changed = [(i, kappa, c + 1)]
        elif sum(kappa) < sum(lam) + i:  # a q-term, dropped
            changed = []
        else:
            continue
        yield terms[:p] + changed + terms[p + 1:]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["power-up", "power-down", "drop-q-term", "raise"])
def test_rule_mutations_fail_the_fresh_build(tmp_path, monkeypatch, kind, n):
    # one at a time: each coefficient of the rule one power of 2 off (up or
    # down), each q-term dropped, or each constant of a generator operator, zero
    # or not, raised by 1; the build raises and saves nothing.  (At rank 1 some
    # of them stay a ring: sigma_1^2 = 2 or 0.)
    mutated = 0
    for sp in strict_partitions(n):
        for terms in _mutations(n, sp.parts, kind):
            def rule(n_, lam, lam_mutated=sp.parts, terms=terms):
                return terms if lam == lam_mutated else _pieri_terms(n_, lam)

            monkeypatch.setattr("lgquot.oracle._pieri_terms", rule)
            with pytest.raises(InconsistentAlgebraError):
                build_qh_algebra(n, cache_dir=tmp_path)
            mutated += 1
    assert mutated > 0
    assert list(tmp_path.iterdir()) == []

