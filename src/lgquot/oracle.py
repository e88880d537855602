"""Frobenius-algebra oracle: genus-g invariants as traces of multiplication operators.

The specialized quantum cohomology ring of the rank-n Lagrangian Grassmannian
(deformation parameter set to 1) is a commutative 2^n-dimensional algebra over
the rationals whose structure constants are genus-zero three-point invariants.
Once built, every genus-g invariant is a trace:

    invariant = tr( [E]^(g-1) * [class_1] * ... * [class_m] )

where [x] is the multiplication operator of x and E is the quantum Euler
class, the sum over the basis of each class times its complementary-partition
partner.

What the oracle checks independently: the structure constants are summed over
the orbits of the evaluation points under rotation and Galois maps, through
field traces, while `gw_invariant` sums the 2^n points one by one.  The
exception is a gw whose insertions are all the staircase, at g >= 1 (every
rank-1 gw at g >= 1 is one): it is a sum of traces over the same point orbits
(`invariants._trace_sum`).  Both sides read the same point values (staircase
Schur and qtilde values), so agreement of a trace with the direct formula
compares two summation routes over those values.  Everything after the
constants shares no code with the root-of-unity summation: the ring axioms are
checked in integers, on packed rows of the product table, and the operators
and traces are exact rational linear algebra.

Structure constants are cached on disk as versioned JSON; see CACHE_FORMAT.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from math import lcm
from pathlib import Path

from ._frozen import Frozen
from .cyclotomic import SingularEulerError, _ramanujan_sums, euler_phi
from .invariants import _point_tables, gw_invariant  # noqa: F401 (the benchmark tracer wraps it)
from .partitions import (
    StrictPartition,
    as_strict,
    dual_partition,
    point_orbits,
    staircase,
    strict_partitions,
    summation_tuples,
)

__all__ = [
    "SingularEulerError",
    "InconsistentAlgebraError",
    "QHAlgebra",
    "build_qh_algebra",
    "mult_operator",
    "quantum_euler",
    "trace_invariant",
    "eigenvalue_check",
    "default_cache_dir",
    "CACHE_FORMAT_VERSION",
]

CACHE_FORMAT_VERSION = 1

# builds above this rank are refused: rank 7 builds uncached in 5.9-7.8 s on a shared
# 2-core Xeon, of which constants 0.6-1.0 s, save 0.10-0.14 s and _validate 4.8-7.7 s;
# rank 8 takes minutes
_MAX_RANK = 7

# CACHE_FORMAT: one JSON object per rank n, file qh_algebra_n{n}_v{version}.json:
#   {"format_version": 1, "n": 2,
#    "basis": [[], [1], [2], [2, 1]],
#    "constants": [[[lam], [mu], [nu], d, "c"], ...]}
# Rows are sorted; the structure constant c is a decimal string.


class InconsistentAlgebraError(RuntimeError):
    """A built or loaded algebra violates a ring axiom."""


# -- exact rational matrices (independent of the cyclotomic kernels) ---------------


def mat_identity(size: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def mat_mul(a, b) -> list[list[Fraction]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_pow(a, exponent: int) -> list[list[Fraction]]:
    if exponent < 0:
        return mat_pow(mat_inverse(a), -exponent)
    result = mat_identity(len(a))
    base = [list(r) for r in a]
    e = exponent
    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return result


def mat_trace(a) -> Fraction:
    return sum((Fraction(a[i][i]) for i in range(len(a))), Fraction(0))


def mat_inverse(a) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over the rationals; singular input raises SingularEulerError."""
    size = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(size)]
            for i, row in enumerate(a)]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot_row is None:
            raise SingularEulerError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[size:] for row in work]


def charpoly(a) -> list[Fraction]:
    """Characteristic polynomial det(xI - A), descending coefficients, monic.

    Faddeev-LeVerrier recursion: exact over the rationals.
    """
    size = len(a)
    coeffs = [Fraction(1)]
    m = mat_identity(size)
    for k in range(1, size + 1):
        m = mat_mul(a, m)
        ck = -mat_trace(m) / k
        coeffs.append(ck)
        for i in range(size):
            m[i][i] += ck
    return coeffs


# -- the algebra --------------------------------------------------------------------


class QHAlgebra(Frozen):
    """Specialized quantum cohomology of rank n: basis plus structure constants.

    constants maps an index pair (i, j) with i <= j to a tuple of
    (k, d, c) entries: the product of basis elements i and j contains basis
    element k with coefficient c, contributed by maps of degree d.
    """

    _fields = ("n", "basis", "constants")
    __slots__ = _fields + ("_cached_index",)  # the index cache is not a field

    def __init__(self, n: int, basis: tuple[StrictPartition, ...], constants: dict) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "constants", constants)

    __hash__ = None  # constants is a dict

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, lam) -> int:
        lam = as_strict(self.n, lam)
        try:
            return self._index_map()[lam.parts]
        except KeyError:
            raise ValueError(f"{lam.parts} is not a basis label of rank {self.n}") from None

    def _index_map(self):
        cache = getattr(self, "_cached_index", None)
        if cache is None:
            cache = {sp.parts: i for i, sp in enumerate(self.basis)}
            object.__setattr__(self, "_cached_index", cache)
        return cache

    def basis_vector(self, lam) -> list[Fraction]:
        vec = [Fraction(0)] * self.dim
        vec[self.index(lam)] = Fraction(1)
        return vec

    def pair_constants(self, i: int, j: int):
        return self.constants.get((min(i, j), max(i, j)), ())

    def product(self, left, right) -> list[Fraction]:
        """Product of two coefficient vectors in the basis."""
        out = [Fraction(0)] * self.dim
        for i, ci in enumerate(left):
            if not ci:
                continue
            for j, cj in enumerate(right):
                if not cj:
                    continue
                scale = ci * cj
                for k, _d, c in self.pair_constants(i, j):
                    out[k] += scale * c
        return out


def _structure_constants(n: int) -> dict:
    """Structure constants as genus-zero three-point sums over the point orbits.

    The constant of nu in lam * mu is the genus-0 invariant
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
    come from buckets of k by weight modulo n + 1, in (i, j, k) order, which
    fixes the order of the constants in the cache file.
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


def _validate(algebra: QHAlgebra) -> None:
    """Ring axioms checked on every build or load: unit, positivity, associativity.

    Once the constants c_ij^k are known to be nonnegative integers,
    associativity is checked on packed integers.  Q[mid] packs c_{mid,k}^out in
    slot (k, out), so the row of (j, i), sum_mid c_ji^mid Q[mid], holds (j*i)*k
    in block k.  The table is symmetric, so i*(j*k) = (j*k)*i: the triple
    (i, j, k) is associative exactly when block k of the row of (j, i) equals
    block i of the row of (j, k).  A slot is at most the largest row sum of
    constants times the largest constant; slots are whole bytes at least that
    bound's bit length wide, so none carries and blocks compare as bytes.
    """
    dim = algebra.dim
    if algebra.basis[0].parts != ():
        raise InconsistentAlgebraError("basis does not start with the unit class")
    for entries in algebra.constants.values():
        for _k, d, c in entries:
            if d < 0 or c < 0 or c != int(c):
                raise InconsistentAlgebraError(f"bad structure constant ({d}, {c})")
    rows = [[None] * dim for _ in range(dim)]  # rows[i][j] = {k: c_ij^k}
    for i in range(dim):
        for j in range(i, dim):
            row = rows[i][j] = rows[j][i] = {}
            for k, _d, c in algebra.pair_constants(i, j):
                if c:
                    row[k] = row.get(k, 0) + int(c)
    for k in range(dim):
        if rows[0][k] != {k: 1}:
            raise InconsistentAlgebraError(f"unit fails on basis element {k}")
    flat = [r for rr in rows for r in rr]
    bound = max(max(r.values(), default=0) for r in flat) * max(sum(r.values()) for r in flat)
    slot = (bound.bit_length() + 7) // 8 or 1  # bytes
    block = slot * dim
    Q = [sum(c << (8 * slot * (dim * k + out)) for k, r in enumerate(rr) for out, c in r.items())
         for rr in rows]
    first = None
    for j in range(dim):
        packed = [sum(c * Q[mid] for mid, c in r.items()).to_bytes(block * dim, "little")
                  for r in rows[j]]
        for i, row in enumerate(packed):
            k = next((k for k in range(i + 1, dim) if row[k * block:(k + 1) * block]
                      != packed[k][i * block:(i + 1) * block]), None)
            if k is not None:  # the smallest failing i for this j, and its smallest k
                first = min(first or (i, j, k), (i, j, k))
                break
    if first:
        raise InconsistentAlgebraError(f"associativity fails on basis triple {first}")


def default_cache_dir() -> Path:
    env = os.environ.get("LGQ_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "lgquot"


def _cache_path(n: int, cache_dir) -> Path:
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / f"qh_algebra_n{n}_v{CACHE_FORMAT_VERSION}.json"


def _cache_text(algebra: QHAlgebra) -> str:
    """The cache file's text: the bytes of `json.dumps(payload, indent=1)`, written directly.

    The payload is {"format_version", "n", "basis", "constants"}, each row
    [lam, mu, nu, d, "c"].  With `indent` set, `json.dumps` runs CPython's
    pure-Python encoder; here each partition is formatted once per nesting
    depth and each row is one `%`-format.
    """

    def parts(sp, depth: int) -> str:  # a list of ints whose items sit at `depth` spaces
        pad = " " * depth
        if not sp.parts:
            return "[]"
        return "[\n" + ",\n".join(pad + str(p) for p in sp.parts) + "\n" + pad[1:] + "]"

    labels = [parts(sp, 4) for sp in algebra.basis]
    rows = ['  [\n   %s,\n   %s,\n   %s,\n   %d,\n   "%d"\n  ]'
            % (labels[i], labels[j], labels[k], d, c)
            for (i, j), entries in sorted(algebra.constants.items()) for k, d, c in entries]
    basis = ",\n".join("  " + parts(sp, 3) for sp in algebra.basis)
    return ('{\n "format_version": %d,\n "n": %d,\n "basis": %s,\n "constants": %s\n}'
            % (CACHE_FORMAT_VERSION, algebra.n, "[\n" + basis + "\n ]",
               "[\n" + ",\n".join(rows) + "\n ]" if rows else "[]"))


def _save_cache(algebra: QHAlgebra, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # a unique temporary name, so processes building the same rank never share it
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_cache_text(algebra))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_cache(n: int, path: Path) -> QHAlgebra | None:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("format_version") != CACHE_FORMAT_VERSION or payload.get("n") != n:
        return None
    basis = strict_partitions(n)
    if [list(sp.parts) for sp in basis] != payload.get("basis"):
        return None
    index = {tuple(sp.parts): i for i, sp in enumerate(basis)}
    constants: dict = {}
    try:
        for lam, mu, nu, d, c in payload["constants"]:
            i, j, k = index[tuple(lam)], index[tuple(mu)], index[tuple(nu)]
            if i > j:  # stored under (i, j), a key that `pair_constants` never reads
                return None
            constants.setdefault((i, j), []).append((k, int(d), int(c)))
    except (KeyError, TypeError, ValueError):
        return None
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            constants.setdefault((i, j), [])
    return QHAlgebra(n, tuple(basis), {k: tuple(v) for k, v in constants.items()})


def build_qh_algebra(n: int, use_cache: bool = True, cache_dir=None) -> QHAlgebra:
    """Build (or reload) the rank-n algebra; ring axioms are asserted either way.

    A loaded algebra that fails them is logged and rebuilt, and the rebuilt one
    saved over its file; a built one that fails them raises
    InconsistentAlgebraError.  A cache that cannot be written is logged and the
    algebra kept in memory.
    """
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if n > _MAX_RANK:
        raise ValueError(f"rank {n} is above the oracle's limit {_MAX_RANK}")
    path = _cache_path(n, cache_dir)
    algebra = _load_cache(n, path) if use_cache else None
    if algebra is not None:
        try:
            _validate(algebra)
        except InconsistentAlgebraError as exc:
            _log().warning("structure-constant cache %s rejected and rebuilt: %s", path, exc)
        else:
            return algebra
    algebra = QHAlgebra(n, tuple(strict_partitions(n)), _structure_constants(n))
    _validate(algebra)
    if use_cache:
        try:
            _save_cache(algebra, path)
        except OSError as exc:
            _log().warning("structure-constant cache not saved to %s: %s", path, exc)
    return algebra


def _log():
    import logging  # only here: importing it costs every CLI start about 3 ms

    return logging.getLogger(__name__)


# -- operators and traces -------------------------------------------------------------


def _as_vector(algebra: QHAlgebra, x) -> list[Fraction]:
    if isinstance(x, (list, tuple)) and len(x) == algebra.dim and all(
            isinstance(v, (int, Fraction)) for v in x):
        return [Fraction(v) for v in x]
    return algebra.basis_vector(as_strict(algebra.n, x))


def mult_operator(algebra: QHAlgebra, x) -> list[list[Fraction]]:
    """Matrix of multiplication by x; column k is the expansion of x times basis k."""
    vec = _as_vector(algebra, x)
    dim = algebra.dim
    matrix = [[Fraction(0)] * dim for _ in range(dim)]
    for k, basis_vec in enumerate(mat_identity(dim)):
        col = algebra.product(vec, basis_vec)
        for r in range(dim):
            matrix[r][k] = col[r]
    return matrix


def quantum_euler(algebra: QHAlgebra) -> list[Fraction]:
    """The quantum Euler class: sum of each basis class times its complementary dual."""
    total = [Fraction(0)] * algebra.dim
    for sp in algebra.basis:
        term = algebra.product(
            algebra.basis_vector(sp), algebra.basis_vector(dual_partition(sp))
        )
        total = [a + b for a, b in zip(total, term)]
    return total


def trace_invariant(algebra: QHAlgebra, g: int, insertions) -> Fraction:
    """Genus-g invariant as tr([Euler]^(g-1) * product of insertion operators).

    For g = 0 the inverse Euler operator is used; a singular Euler operator
    raises SingularEulerError.  When no admissible map degree exists for the
    insertions the trace vanishes.
    """
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    euler_op = mult_operator(algebra, quantum_euler(algebra))
    if g == 0:
        try:
            acc = mat_inverse(euler_op)
        except SingularEulerError:
            raise SingularEulerError(
                "quantum Euler operator is singular; the genus-0 trace is undefined"
            ) from None
    else:
        acc = mat_pow(euler_op, g - 1)
    for lam in insertions:
        acc = mat_mul(acc, mult_operator(algebra, as_strict(algebra.n, lam)))
    return mat_trace(acc)


def eigenvalue_check(algebra: QHAlgebra) -> bool:
    """Spectral match between multiplication operators and qtilde point values.

    Calibration: the eigenvalues of the operator of a weight-w basis class are
    the qtilde values of the class at the 2^n evaluation points, each scaled
    by 2^(-w/(n+1)).  The fractional power of two is avoided by comparing the
    (n+1)-th power of the operator against the products of
    qtilde^(n+1) / 2^w, entirely inside one cyclotomic field:

        charpoly(op^(n+1))  ==  prod over points (x - qtilde(lam)^(n+1) / 2^w)
    """
    n = algebra.n
    backend, tables = _point_tables(n, "exact")
    half = Fraction(1, 2)
    for lam in algebra.basis:
        op = mat_pow(mult_operator(algebra, lam), n + 1)
        target = charpoly(op)
        poly = [backend.one]
        for table in tables:
            mu = table.qtilde(lam.parts) ** (n + 1) * backend.from_fraction(half ** lam.weight)
            # multiply poly by (x - mu)
            poly = [backend.zero] + poly
            shifted = [c * mu for c in poly[1:]] + [backend.zero]
            poly = [a - b for a, b in zip(poly, shifted)]
        # poly is ascending in x; target is descending and monic
        ascending_target = list(reversed(target))
        for got, expected in zip(poly, ascending_target):
            if got != backend.from_fraction(expected):
                return False
    return True
