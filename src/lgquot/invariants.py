"""Closed formulas for the intersection theory of Lagrangian Quot schemes.

The three computations exposed here are all finite sums over the root-of-unity
evaluation points of rank n:

* genus-g Gromov-Witten invariants of the rank-n Lagrangian Grassmannian,
* intersection numbers of weighted-homogeneous classes against the
  fundamental class of a Lagrangian Quot scheme, and
* the number of maximal Lagrangian subbundles of a general stable symplectic
  bundle.

Each sum runs over the 2^n admissible exponent tuples; the summand is a power
of the staircase Schur value times qtilde values of the inserted classes.  In
the exact backend a count is a sum of integer traces over point orbits; other
sums stay in one cyclotomic field, their integer taken with a zero-residual check.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import mul

from ._frozen import Frozen
from ._ring import (
    NonIntegerValueError,
    OrbitSizeError,
    _byte_width,
    _PackedRing,
    _ramanujan_sums,
    _ring_staircase,
)
from .partitions import (
    IndexTuple,
    _shape,
    as_strict,
    point_orbit_members,
    point_orbits,
    staircase,
    summation_tuples,
)

__all__ = [
    "ParityError",
    "NonHomogeneousError",
    "SchubertExpression",
    "expected_dimension",
    "maximal_subbundle_degree",
    "required_degree",
    "point_from_tuple",
    "gw_invariant",
    "intersection_number",
    "maximal_count",
    "verify_twist_identity",
    "verify_hecke_recursion",
    "verify_staircase_insertion",
]


class ParityError(ValueError):
    """The evenness hypothesis of the counting formula fails for these parameters."""


class NonHomogeneousError(ValueError):
    """An expression that must be weighted-homogeneous mixes degrees."""


class SchubertExpression(Frozen):
    """A sum of rational multiples of products of qtilde factors.

    Each term is a coefficient together with a multiset of strict-partition
    factors; the single-row factor (k) doubles as the weight-k variable, since
    its qtilde value is the k-th elementary value.  The weighted degree of a
    term is the total weight of its factors.
    """

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[tuple[Fraction, tuple], ...] = ()) -> None:
        merged: dict[tuple, Fraction] = {}
        for coeff, factors in terms:
            coeff = Fraction(coeff)
            # factors are strict partitions of any rank; empty ones (the unit) drop out
            keys = (_shape(getattr(f, "parts", f), strict=True) for f in factors)
            key = tuple(sorted(k for k in keys if k))
            merged[key] = merged.get(key, Fraction(0)) + coeff
        cleaned = tuple(
            (coeff, key)
            for key, coeff in sorted(merged.items(), key=lambda kv: (sum(map(sum, kv[0])), kv[0]))
            if coeff != 0
        )
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, value) -> SchubertExpression:
        return cls(((Fraction(value), ()),))

    @classmethod
    def one(cls) -> SchubertExpression:
        return cls.constant(1)

    @classmethod
    def special(cls, k: int) -> SchubertExpression:
        """The weight-k variable, i.e. the single-row factor (k)."""
        if k < 1:
            raise ValueError(f"variable weight must be positive, got {k}")
        return cls(((Fraction(1), ((k,),)),))

    @classmethod
    def qtilde_factor(cls, parts) -> SchubertExpression:
        return cls(((Fraction(1), (parts,)),))

    @classmethod
    def monomial(cls, factors, coeff=1) -> SchubertExpression:
        return cls(((Fraction(coeff), tuple(factors)),))

    # -- algebra -----------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SchubertExpression(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return SchubertExpression(tuple((-c, f) for c, f in self.terms))

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
        terms = tuple(
            (ca * cb, fa + fb) for ca, fa in self.terms for cb, fb in other.terms
        )
        return SchubertExpression(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = SchubertExpression.one()
        for _ in range(exponent):
            result = result * self
        return result

    def _coerce(self, other):
        if isinstance(other, SchubertExpression):
            return other
        if isinstance(other, (int, Fraction)):
            return SchubertExpression.constant(other)
        return None

    # -- degrees and evaluation ----------------------------------------------------

    def term_degrees(self) -> set[int]:
        return {sum(map(sum, factors)) for _, factors in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.term_degrees()) <= 1

    def degree(self) -> int:
        """Common weighted degree of all terms; zero expression has degree 0."""
        degrees = self.term_degrees()
        if not degrees:
            return 0
        if len(degrees) > 1:
            raise NonHomogeneousError(f"expression mixes degrees {sorted(degrees)}")
        return degrees.pop()

    def max_part(self) -> int:
        return max((f[0] for _, factors in self.terms for f in factors), default=0)

    def evaluate(self, table):
        """Value at one evaluation point, through the qtilde cache of its PointTable."""
        backend = table.backend
        total = backend.zero
        for coeff, factors in self.terms:
            term = backend.from_fraction(coeff)
            for parts, multiplicity in Counter(factors).items():
                term = term * backend.power(table.qtilde(parts), multiplicity)
            total = total + term
        return total

    def __repr__(self):
        if not self.terms:
            return "SchubertExpression(0)"
        bits = []
        for coeff, factors in self.terms:
            mono = "*".join("Q" + str(list(f)) for f in factors) or "1"
            bits.append(f"{coeff}*{mono}")
        return "SchubertExpression(" + " + ".join(bits) + ")"


# -- dimension bookkeeping -----------------------------------------------------


def expected_dimension(n: int, e: int, ell: int, g: int) -> int:
    """Expected dimension of the space of degree-e Lagrangian subsheaves.

    Equals -(n+1)e - n(n+1)/2 * (g - 1 - ell); may be negative.
    """
    return -(n + 1) * e - (n * (n + 1) // 2) * (g - 1 - ell)


def maximal_subbundle_degree(n: int, g: int, ell: int) -> int:
    """Degree of a maximal Lagrangian subbundle of a general symplectic bundle."""
    return -((n * (g - 1 - ell)) // 2)


def _count_is_finite(n: int, g: int, ell: int) -> bool:
    """Whether n(ell - g + 1) is even, the hypothesis of the counting formula."""
    return n * (ell - g + 1) % 2 == 0


def required_degree(n: int, g: int, insertions) -> int | None:
    """The unique map degree d >= 0 compatible with the inserted weights, if any.

    Solves total weight = n(n+1)/2 * (1 - g) + d(n+1), the expected dimension
    of the Quot scheme at ell = 0 and e = -d; returns None when the solution is
    negative or fractional.
    """
    total = sum(as_strict(n, lam).weight for lam in insertions)
    d, rest = divmod(total - expected_dimension(n, 0, 0, g), n + 1)
    return d if d >= 0 and not rest else None


# -- evaluation points -----------------------------------------------------------


# Largest rank each backend answers, and exact counts (README, Conventions).  A
# query sums over 2^n points, and the limit reads the rank only: neither the
# genus nor the insertions.  So the slowest admitted exact queries take
# minutes: on a shared 2-vCPU VM the rank-15 genus-0 gw with the 4-part
# classes (14,13,12,6);(15,14,10);(15,12,7,2) took 351.8 s over the point
# tables, and the count (18, 101, 0), whose power S'^100 has 100P + 1 bits a
# slot, 178.6 s.  The float point tables of gw and intersect double in memory
# with each rank; a float count builds none.  An exact count sums one trace
# per point orbit instead, at genus 0 with no inverse: on a shared 2-vCPU VM
# the median (21, 3, 0) process took 1.7-1.9 s and (21, 0, 1) 1.2 s in two
# sessions, and (22, 3, 0), summed past the limit in-process, 3.5 s.
_MAX_RANK = {"exact": 15, "float": 18, "count": 21}


def _check_rank_limit(n: int, kind: str) -> None:
    """Refuse a rank above the limit of a backend or of exact counts, before any point."""
    limit = _MAX_RANK.get(kind)
    if limit is not None and n > limit:
        over = "traces over the orbits of " if kind == "count" else ""
        raise ValueError(f"rank {n} is above the {kind} limit of {limit}: "
                         f"a query would sum {over}2^{n} = {2**n} points")


@lru_cache(maxsize=None)
def _point_tables(n: int, kind: str):
    """Backend plus one cached PointTable per admissible exponent tuple.

    The field and the tables load here, on the first table built: an exact
    count builds none, at any genus (`_trace_sum`).
    """
    from .cyclotomic import make_backend
    from .symfunc import PointTable

    _check_rank_limit(n, kind)
    backend = make_backend(kind, n)
    # the staircase qtilde value at a point is its sign times 2^(n/2) (README, Conventions)
    root = backend.from_fraction(2 ** (n // 2))
    root = root * backend.sqrt2() if n % 2 else root
    signed = {1: root, -1: -root}
    points = summation_tuples(n + 1)
    if backend.name == "exact":
        # the points are powers of the primitive 4(n+1)-th root, itself a power
        # of the backend's root: the tables build their values in the group ring
        scale = backend.order // (4 * (n + 1))
        schur = _orbit_staircase_values(backend, n, scale)
        tables = tuple(PointTable(backend, exponents=[d * scale for d in J.doubled],
                                  staircase_qtilde=signed[J.staircase_sign],
                                  staircase_schur=S)
                       for J, S in zip(points, schur))
    else:
        # the points share 2N coordinates: each root is computed once, as
        # point_from_tuple computes it
        order = 4 * (n + 1)
        doubled = {d for J in points for d in J.doubled}
        roots = {d: backend.root_of_unity(order, d) for d in doubled}
        tables = tuple(PointTable(backend, tuple(roots[d] for d in J.doubled),
                                  staircase_qtilde=signed[J.staircase_sign])
                       for J in points)
    return backend, tables


def _orbit_staircase_values(backend, n: int, scale: int) -> list:
    """The staircase Schur value at every rank-n point, from each orbit's S' (`_orbit_staircases`).

    With m = 4(n+1) * scale, S is x^(scale*d_1*P) * S'(x^(2*scale)) at a
    point's exponents k_i = scale * d_i, in Z[x]/(x^m - 1).  The point
    a*J + 4s has exponents a*k_i + 4s*scale, so S(a*J + 4s) =
    x^(4s*scale*P) * sigma_a(S(J)), with sigma_a: x^j -> x^(a*j): a
    permutation of the coefficients, each image reduced once (README,
    Conventions).
    """
    m = backend.order
    step = 4 * scale * (n * (n + 1) // 2)
    values = [None] * 2**n
    ring, memo = _orbit_staircases(n, 0)
    for (_rep, members), (S, lead) in zip(point_orbit_members(n + 1), memo):
        coeffs = [(scale * (lead + 2 * k) % m, c) for k, c in enumerate(ring.coeffs(S)) if c]
        for i, a, s in members:
            image = [0] * m
            for j, c in coeffs:
                image[(a * j + s * step) % m] = c
            values[i] = backend.from_ring(image)
    return values


def point_from_tuple(backend, J: IndexTuple):
    """Realize an exponent tuple as a concrete evaluation point."""
    order = 4 * J.N
    return tuple(backend.root_of_unity(order, d) for d in J.doubled)


def _point_sum(n: int, g: int, backend: str, exponent: int, qtildes,
               P: SchubertExpression | None = None) -> int:
    """The integer 2^exponent * sum over the rank-n points of S^(g-1) * factors.

    S is the staircase Schur value at the point; the factors are the qtilde
    values of the partitions in `qtildes`, then the value of P if given.  This
    is the one sum that the three formulas below share.  A sum whose factors
    are all staircase qtilde values (every count, and gw with staircase
    insertions only) builds no point table, at any genus: exactly it is a sum
    of traces over point orbits (`_trace_sum`), in floats a product over each
    point's coordinates (`_float_sum`).  Any other sum visits every point's
    table (`_table_sum`).
    """
    # a rank-n strict partition with n parts is the staircase
    if P is None and all(len(q) == n for q in qtildes):
        if backend == "exact":
            _check_rank_limit(n, "count")
            return _trace_sum(n, g, exponent, len(qtildes))
        if backend == "float":
            from ._float import _float_sum

            _check_rank_limit(n, "float")
            return _float_sum(n, g, exponent, len(qtildes))
    _check_rank_limit(n, backend)
    return _table_sum(n, g, backend, exponent, qtildes, P)


def _trace_sum(n: int, g: int, exponent: int, staircases: int) -> int:
    """`_point_sum` of S^(g-1) times `staircases` staircase qtilde values, exactly.

    A staircase qtilde value is eps * 2^(n/2), eps the point's staircase sign,
    so the summand is 2^(n//2 * staircases) * W, W = eps^staircases * S^(g-1)
    times sqrt(2)^staircases for odd n.  Its degree is a multiple of n + 1, so
    rotation leaves it unchanged and a Galois map conjugates it: the sum is
    sum over orbits |O| * Tr(W at the representative) / phi(m), m = 4(n+1).
    In Z[x]/(x^m - 1), where Tr(x^j) is the Ramanujan sum c_m(j), the
    representative's S^(g-1) is x^o times a polynomial in x^2, formed in
    Z[u]/(u^(m/2) - 1) from `_orbit_staircases` and read at the residues
    o + 2k: S' itself at g = 2, with no product, and its power above.  At
    g = 0, (-1)^P * N^N * S^-1 = c * V, V the representative's Vandermonde
    product in pair order and c one element for every point: each V is read
    against the trace vector twisted by c, and the integrality division takes
    (-1)^P * N^N too (README, Conventions).  sqrt(2) = x^(m/8) + x^(-m/8)
    stays inside the trace (README, Conventions).  The trace vectors
    (`_trace_halves`) and the staircase signs (`_orbit_signs`) are formed
    once per rank; the orbit sizes are read from `point_orbits` on every
    call, and sizes that do not add up to 2^n raise OrbitSizeError.
    """
    N, m, P = n + 1, 4 * (n + 1), n * (n + 1) // 2
    twos = exponent + n // 2 * staircases + n % 2 * (staircases // 2)
    orbits = point_orbits(N)
    points = sum(size for _, size in orbits)
    if points != 2**n:  # the integrality check below misses most such errors
        raise OrbitSizeError(f"the point orbits of rank {n} hold {points} points, not 2^{n}")
    halves = _trace_halves(n, n % 2 == staircases % 2 == 1, g == 0)
    signs = _orbit_signs(n) if staircases % 2 else repeat(1)
    if g == 1:  # S^0 = 1
        weights = repeat(((1,), 0))
    else:
        ring, memo = _orbit_staircases(n, 0 if g else N)
        if g <= 2:  # V' at genus 0, S' at genus 2
            weights = ((ring.coeffs(W), lead) for W, lead in memo)
        else:  # S' has 2^P monomials, so its power needs (g-1)P + 1 bits a slot (`_ring_power`)
            wide = _PackedRing(2 * N, _byte_width((g - 1) * P + 1))
            weights = ((wide.coeffs(wide.power(ring.repack(W, wide), g - 1)), (g - 1) * lead)
                       for W, lead in memo)
    total = 0
    for (_rep, size), sign, (W, start) in zip(orbits, signs, weights):
        start %= m
        total += sign * size * sum(map(mul, W, halves[start % 2][start // 2:]))
    # Tr(1) = c_m(0) = phi(m)
    num, den = total << max(twos, 0), _ramanujan_sums(m)[0] << max(-twos, 0)
    if g == 0:
        num, den = (-1) ** P * num, den * N**N
    if num % den:
        raise NonIntegerValueError(f"value is not an integer: {Fraction(num, den)}")
    return num // den


@lru_cache(maxsize=None)
def _trace_halves(n: int, root: bool, genus_zero: bool) -> tuple[tuple[int, ...], ...]:
    """The traces Tr(x^j) that `_trace_sum` reads at rank n, split by the parity of j.

    m = 4(n+1); with `root`, the traces of x^j * sqrt(2), sqrt(2) =
    x^(m/8) + x^(-m/8); with `genus_zero`, of x^j * c, c the product of
    y_a - y_b over a < b, y_a = x^(2 lo + 4a) the squared coordinate of pair
    a, lo = 1 - N.  Entry h of half p is the trace at residue 2h + p; each
    half is written twice, so a read from any start o runs m/2 slots on.
    """
    N, m = n + 1, 4 * (n + 1)
    trace = _ramanujan_sums(m)
    if root:
        trace = [trace[(j + m // 8) % m] + trace[(j - m // 8) % m] for j in range(m)]
    if genus_zero:
        c = _ring_staircase(m, [(2 - 2 * N + 4 * a) % m for a in range(N)], 2 * N)
        trace = [sum(c_i * trace[(i + j) % m] for i, c_i in enumerate(c) if c_i)
                 for j in range(m)]
    return tuple(tuple(trace[parity::2]) * 2 for parity in (0, 1))


@lru_cache(maxsize=None)
def _orbit_signs(n: int) -> tuple[int, ...]:
    """The staircase sign of each rank-n orbit's representative, in `point_orbits` order."""
    return tuple(rep.staircase_sign for rep, _size in point_orbits(n + 1))


@lru_cache(maxsize=None)
def _orbit_staircases(n: int, shift: int) -> tuple[_PackedRing, tuple[tuple[int, int], ...]]:
    """The genus-free part of each rank-n orbit's staircase product, in `point_orbits` order.

    A point's doubled exponents d_1, ..., d_N share one parity and span less
    than 4N, so with P = N(N-1)/2 and e_i = (d_i - d_1)/2, the product of
    x^(d_i) + x^(d_j + 2*shift) over i < j in Z[x]/(x^(4N) - 1) is
    x^(d_1*P) * S'(u = x^2), S' the product of u^(e_i) + u^(e_j + shift) in
    Z[u]/(u^(2N) - 1).  Shift 0 takes the d ascending and gives the staircase
    product S.  Shift N takes them in pair order, d_i from the pair
    (lo + 2i, lo + 2i + 2N), and gives V, the product of x_i - x_j, since
    x^(2N) = -1 in the field.  Returns the ring, at P + 1 bits a slot rounded
    up to whole bytes (so that a power's ring can widen it bytewise), and
    per orbit S' packed in it, with d_1 * P.

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
    ring = _PackedRing(2 * N, _byte_width(P + 1))
    # the window's low end is lo = 1 - N: a pick above N is pair (d - lo)/2 - N's high pick
    picks = [sum(1 << (d + N - 1) // 2 - N for d in rep.doubled if d > N)
             for rep, _size in point_orbits(N)]
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


def _table_sum(n: int, g: int, backend: str, exponent: int, qtildes,
               P: SchubertExpression | None = None) -> int:
    """`_point_sum` through the point tables, one term per point."""
    eng, tables = _point_tables(n, backend)
    top = staircase(n).parts
    total = eng.zero
    for table in tables:
        term = eng.power(table.schur(top), g - 1)
        for parts in qtildes:
            term = term * table.qtilde(parts)
        if P is not None:
            term = term * P.evaluate(table)
        total = total + term
    return eng.extract_integer(total * eng.from_fraction(Fraction(2) ** exponent))


# -- the formulas ------------------------------------------------------------------


def _check_rank_and_genus(n: int, g: int) -> None:
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")


def gw_invariant(n: int, g: int, d: int, insertions, backend: str = "exact") -> int:
    """Genus-g Gromov-Witten invariant of the rank-n Lagrangian Grassmannian.

    Nonzero only when d is exactly the degree forced by the inserted weights;
    in particular any d < 0 gives 0.  The value is
    2^(n(g-1)-d) * sum over points of S^(g-1) * product of qtilde insertions,
    where S is the staircase Schur value at the point.  For g = 0 a vanishing
    S would make the summand undefined and raises
    NonvanishingAssumptionError instead of being silently skipped.
    """
    _check_rank_and_genus(n, g)
    if not isinstance(d, int):
        raise TypeError(f"degree must be an integer, got {d!r}")
    lams = [as_strict(n, lam) for lam in insertions]
    if required_degree(n, g, lams) != d:
        return 0
    return _point_sum(n, g, backend, n * (g - 1) - d, [lam.parts for lam in lams])


def intersection_number(n: int, g: int, ell: int, e: int, P: SchubertExpression,
                        backend: str = "exact") -> int:
    """Intersection number of a weighted-homogeneous class on a Lagrangian Quot scheme.

    The bundle has rank 2n and degree n*ell over a genus-g curve; e is the
    subsheaf degree.  Returns 0 unless deg P equals the expected dimension.
    Writing ell = 2m or ell = 2m - 1, the value is
    A * sum over points of S^(g-1) * P, with an extra staircase qtilde factor
    inside the sum for odd ell, and A = 2^(n(g-1) + e - m*n).
    """
    _check_rank_and_genus(n, g)
    if not isinstance(P, SchubertExpression):
        raise TypeError(f"P must be a SchubertExpression, got {type(P).__name__}")
    degree = P.degree()
    if P.max_part() > n:
        raise ValueError(f"expression uses parts above the rank {n}")
    if degree != expected_dimension(n, e, ell, g):
        return 0
    half_ell = (ell + 1) // 2
    return _point_sum(n, g, backend, n * (g - 1) + e - half_ell * n,
                      [staircase(n).parts] if ell % 2 else [], P)


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
    return _point_sum(n, g, backend, n * (g - 1 - odd) // 2,
                      [tuple(range(n, 0, -1))] if odd else [])  # the staircase's parts


# -- structural identities -----------------------------------------------------------


def verify_twist_identity(n: int, g: int, ell: int, e: int, P: SchubertExpression,
                          ell_hat: int, backend: str = "exact") -> bool:
    """Tensoring by a degree-ell_hat line bundle shifts (ell, e) but not the number."""
    lhs = intersection_number(n, g, ell, e, P, backend)
    rhs = intersection_number(n, g, ell + 2 * ell_hat, e + n * ell_hat, P, backend)
    return lhs == rhs


def verify_hecke_recursion(n: int, g: int, ell: int, e: int, P: SchubertExpression,
                           k: int, backend: str = "exact") -> bool:
    """Dropping the subsheaf degree by n*k matches inserting 2k staircase factors."""
    if k < 0:
        raise ValueError(f"recursion depth must be nonnegative, got {k}")
    lhs = intersection_number(n, g, ell, e, P, backend)
    extra = SchubertExpression.qtilde_factor(staircase(n).parts) ** (2 * k)
    rhs = intersection_number(n, g, ell, e - n * k, P * extra, backend)
    return lhs == rhs


def verify_staircase_insertion(n: int, g: int, d: int, insertions, k: int,
                               backend: str = "exact") -> bool:
    """Raising the degree by n*k matches inserting 2k staircase classes."""
    if k < 0:
        raise ValueError(f"insertion count must be nonnegative, got {k}")
    lams = [as_strict(n, lam) for lam in insertions]
    lhs = gw_invariant(n, g, d, lams, backend)
    rhs = gw_invariant(n, g, d + k * n, lams + [staircase(n)] * (2 * k), backend)
    return lhs == rhs
