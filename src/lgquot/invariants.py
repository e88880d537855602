"""Closed formulas for the intersection theory of Lagrangian Quot schemes.

The three computations exposed here are all finite sums over the root-of-unity
evaluation points of rank n:

* genus-g Gromov-Witten invariants of the rank-n Lagrangian Grassmannian,
* intersection numbers of weighted-homogeneous classes against the
  fundamental class of a Lagrangian Quot scheme, and
* the number of maximal Lagrangian subbundles of a general stable symplectic
  bundle.

Each sum runs over the 2^n admissible exponent tuples; the summand is a power
of the staircase Schur value times qtilde values of the inserted classes.  A
sum whose factors are all staircase values (every count) is the count
engine's (`_count`; this module re-exports its public names): exactly, integer
traces over point orbits.  Other sums stay in one cyclotomic field, their
integer taken with a zero-residual check.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from ._count import (
    _check_rank_and_genus,
    _check_rank_limit,
    _staircase_sum,
    maximal_count,
    maximal_subbundle_degree,
)
from ._frozen import Frozen
from ._ring import NonHomogeneousError, ParityError
from .partitions import (
    IndexTuple,
    _shape,
    as_strict,
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
        tables = tuple(PointTable(backend, exponents=[d * scale for d in J.doubled],
                                  staircase_qtilde=signed[J.staircase_sign])
                       for J in points)
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


def point_from_tuple(backend, J: IndexTuple):
    """Realize an exponent tuple as a concrete evaluation point."""
    order = 4 * J.N
    return tuple(backend.root_of_unity(order, d) for d in J.doubled)


def _point_sum(n: int, g: int, backend: str, exponent: int, qtildes,
               P: SchubertExpression | None = None) -> int:
    """The integer 2^exponent * sum over the rank-n points of S^(g-1) * factors.

    S is the staircase Schur value at the point; the factors are the qtilde
    values of the partitions in `qtildes`, then the value of P if given.  This
    is the one sum that the formulas share.  A sum whose factors are all
    staircase qtilde values (every count, and gw with staircase insertions
    only) builds no point table, at any genus: it is the count engine's
    (`_staircase_sum`).  Any other sum visits every point's table
    (`_table_sum`).
    """
    # a rank-n strict partition with n parts is the staircase
    if P is None and all(len(q) == n for q in qtildes):
        return _staircase_sum(n, g, backend, exponent, len(qtildes))
    return _table_sum(n, g, backend, exponent, qtildes, P)


def _table_sum(n: int, g: int, backend: str, exponent: int, qtildes,
               P: SchubertExpression | None = None) -> int:
    """`_point_sum` through the point tables, one term per point."""
    eng, tables = _point_tables(n, backend)
    top = staircase(n).parts
    total = eng.zero
    for table in tables:
        term = eng.one if g == 1 else eng.power(table.schur(top), g - 1)  # S^0 = 1
        for parts in qtildes:
            term = term * table.qtilde(parts)
        if P is not None:
            term = term * P.evaluate(table)
        total = total + term
    return eng.extract_integer(total * eng.from_fraction(Fraction(2) ** exponent))


# -- the formulas ------------------------------------------------------------------


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
