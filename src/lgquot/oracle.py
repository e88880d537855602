"""Frobenius-algebra oracle: genus-g invariants as traces of multiplication operators.

The specialized quantum cohomology ring of the rank-n Lagrangian Grassmannian
(deformation parameter set to 1) is a commutative 2^n-dimensional algebra over
the rationals whose structure constants are genus-zero three-point invariants.
They are built from the quantum Pieri rule (`_pieri_terms`).  Once built,
every genus-g invariant is a trace:

    invariant = tr( [E]^(g-1) * [class_1] * ... * [class_m] )

where [x] is the multiplication operator of x and E is the quantum Euler
class, the sum over the basis of each class times its complementary-partition
partner.

What the oracle checks independently: its structure constants come from a
combinatorial rule on shifted diagrams, with no evaluation point, root of
unity or cyclotomic number, while `gw_invariant` sums the paper's formula over
the 2^n points.  So a trace that agrees with the direct formula, at any genus
including 0, checks the formula against the ring itself.  A fresh build
proves its ring commutative and associative from its operators
(`_check_operators`).  A reloaded file is checked by the same code: the
generator operators are read from its rows, every other operator is rebuilt
from them, and each row must be the one the rebuilt operators give
(`_check_rows`).  The operators and traces are exact rational linear algebra.
Only `eigenvalue_check` reads point values.

Structure constants are cached on disk as versioned JSON; see CACHE_FORMAT.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from itertools import product
from operator import add
from pathlib import Path

from ._frozen import Frozen
from ._ring import SingularEulerError
from .invariants import gw_invariant  # noqa: F401 (the benchmark tracer wraps it)
from .partitions import StrictPartition, as_strict, dual_partition, strict_partitions

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

# builds above this rank are refused.  In fresh processes on a shared 2-core Xeon, rank 7
# builds uncached in 0.37-0.60 s (operators 0.15-0.24 s, their checks 0.03-0.05 s) and
# reloads its 10 MB file in 0.60-0.90 s (json.loads 0.22-0.29 s); rank 8 builds in
# 2.7-2.9 s and reloads its 80 MB file in 4.8-5.3 s, each at about 370 MB peak RSS
_MAX_RANK = 7

# CACHE_FORMAT: one JSON object per rank n, file qh_algebra_n{n}_v{version}.json:
#   {"format_version": 1, "n": 2,
#    "basis": [[], [1], [2], [2, 1]],
#    "constants": [[[lam], [mu], [nu], d, "c"], ...]}
# Rows are sorted; d is a JSON integer, and the structure constant c a string of decimal digits.


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


# -- the quantum Pieri rule ----------------------------------------------------------


def _pieri_terms(n: int, lam: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
    """The terms (i, kappa, c) of sigma_i sigma_lam for every i = 1..n, at q = 1.

    The quantum Pieri rule of the Lagrangian Grassmannian (Kresch and
    Tamvakis, "Quantum cohomology of the Lagrangian Grassmannian", J. Algebraic
    Geom. 12 (2003); its classical part is Hiller and Boe, Adv. Math. 62 (1986)):

        sigma_i sigma_lam = sum_mu 2^N(mu) sigma_mu
                            + sum_nu 2^(N(nu) - 1) sigma_(nu_2, nu_3, ...)

    over strict mu with mu_1 <= n and nu with nu_1 = n + 1, of weight
    |lam| + i, that interlace lam: mu_1 >= lam_1 >= mu_2 >= lam_2 >= ...  In
    the shifted diagram (row r holds columns r .. r + lam_r - 1), N counts the
    edge-connected components of the added boxes that miss the diagonal.  Row
    r gains a_r = mu_r - lam_r boxes, at most lam_(r-1) - lam_r (the room; n + 1
    - lam_1 in the first row).  Rows r - 1 and r touch exactly when row r is
    full, mu_r = lam_(r-1): then mu_(r-1) = mu_r unless row r - 1 gained a box
    too, so a full row below an empty one is not strict, and below a nonempty
    one it joins that row's component.  Only the new last row reaches the
    diagonal.  So N is the number of nonempty rows, less the full rows below
    the first, less one if the last row is nonempty.
    """
    lows = lam + (0,)
    room = [high - low for high, low in zip((n + 1,) + lam, lows)]
    terms = []
    for added in product(*(range(r + 1) for r in room)):
        i = sum(added)
        if not 0 < i <= n:
            continue
        full = [r for r in range(1, len(added)) if added[r] == room[r]]
        if not all(added[r - 1] for r in full):
            continue
        N = len(added) - added.count(0) - len(full) - (added[-1] > 0)
        mu = tuple(p for p in map(add, lows, added) if p)
        if mu[0] > n:
            terms.append((i, mu[1:], 2 ** (N - 1)))
        else:
            terms.append((i, mu, 2 ** N))
    return terms


def _apply(op: list, column: dict) -> dict:
    """The operator `op`, a list of sparse columns, applied to a sparse vector."""
    out: dict = {}
    for k, c in column.items():
        for j, e in op[k].items():
            out[j] = out.get(j, 0) + c * e
    return out


def _rule_generators(n: int, basis) -> dict:
    """The operator L_i of each one-part class, by basis index, from the rule (`_pieri_terms`)."""
    index = {sp.parts: t for t, sp in enumerate(basis)}
    generators = {index[(i,)]: [{} for _ in basis] for i in range(1, n + 1)}
    for m, sp in enumerate(basis):
        for i, kappa, c in _pieri_terms(n, sp.parts):
            generators[index[(i,)]][m][index[kappa]] = c
    return generators


def _pieri_operators(basis, generators: dict) -> list:
    """The multiplication operator L_lam of every basis class, built from the generators L_i.

    ops[t][m] maps k to the coefficient of basis k in (basis t) * (basis m):
    column m of L_t.  `generators` gives L_i by basis index, from the rule
    (`_rule_generators`) or from a loaded algebra's rows.  A longer
    lam = (a, rest) has L_lam = L_a L_rest minus the operators of the other
    terms of sigma_a sigma_rest, in which sigma_lam has coefficient 1.  lam is
    taken by length ascending, then first part descending: every other
    classical term of sigma_a sigma_rest is shorter or has a larger first
    part, and every q-term is shorter, so each of their operators is built
    before L_lam.
    """
    index = {sp.parts: t for t, sp in enumerate(basis)}
    dim = len(basis)
    ops: list = [generators.get(t) for t in range(dim)]
    ops[0] = [{m: 1} for m in range(dim)]
    longer = sorted((sp.parts for sp in basis if len(sp.parts) > 1), key=lambda p: (len(p), -p[0]))
    for parts in longer:
        a, rest = parts[0], parts[1:]
        t, first, low = index[parts], ops[index[(a,)]], ops[index[rest]]
        others = dict(first[index[rest]])
        if others.pop(t, None) != 1:
            raise InconsistentAlgebraError(
                f"sigma_{parts} is not once in sigma_{a} * sigma_{rest}")
        if any(ops[k] is None for k in others):
            raise InconsistentAlgebraError(
                f"sigma_{a} * sigma_{rest} has a term built after sigma_{parts}")
        op = []
        for m in range(dim):
            column = _apply(first, low[m])
            for k, c in others.items():
                for j, e in ops[k][m].items():
                    column[j] = column.get(j, 0) - c * e
            op.append({j: c for j, c in column.items() if c})
        ops[t] = op
    return ops


def _check_operators(basis, ops: list) -> None:
    """The checks that make the constants read from `ops` a commutative, associative ring.

    Every entry is a positive integer (zeros are not stored), the L_i
    commute, and L_lam e_0 = e_lam for every lam, e_0 the unit class.  Each
    L_lam is a polynomial in the L_i, so the L_lam commute.  A polynomial p
    in the L_i with p e_0 = 0 then has p e_lam = p L_lam e_0 = L_lam p e_0 = 0
    for every lam, so p = 0: the map p -> p e_0 is one to one, and it carries
    L_lam to e_lam.  The product lam * mu = L_lam e_mu, which the constants
    store, is therefore the product of a commutative algebra of operators.
    This holds for any generators, from the rule or read from a file's rows.
    """
    for t, op in enumerate(ops):
        for m, column in enumerate(op):
            for k, c in column.items():
                if type(c) is not int or c < 1:
                    raise InconsistentAlgebraError(
                        f"coefficient of {basis[k].parts} in {basis[t].parts} * "
                        f"{basis[m].parts} is {c}, not a positive integer")
        if op[0] != {t: 1}:
            raise InconsistentAlgebraError(
                f"operator of {basis[t].parts} does not take the unit to {basis[t].parts}")
    generators = [(sp.parts, ops[t]) for t, sp in enumerate(basis) if len(sp.parts) == 1]
    for x, (a, left) in enumerate(generators):
        for b, right in generators[x + 1:]:
            for m, sp in enumerate(basis):
                if _apply(left, right[m]) != _apply(right, left[m]):
                    raise InconsistentAlgebraError(
                        f"operators of {a} and {b} do not commute on {sp.parts}")


def _operator_constants(n: int, basis, ops: list) -> dict:
    """Structure constants read from the operators: the rows (i, j), i <= j, k ascending.

    Row (i, j) is column j of L_i, each entry with the map degree
    d = (|lam_i| + |lam_j| - |lam_k|) / (n + 1), which must be a nonnegative
    integer.  The operators pass `_check_operators` first.
    """
    _check_operators(basis, ops)
    weights = [sp.weight for sp in basis]
    constants = {}
    for i, op in enumerate(ops):
        for j in range(i, len(basis)):
            row = []
            for k, c in sorted(op[j].items()):
                excess = weights[i] + weights[j] - weights[k]
                d, remainder = divmod(excess, n + 1)
                if remainder or d < 0:
                    raise InconsistentAlgebraError(
                        f"{basis[k].parts} in {basis[i].parts} * {basis[j].parts} has map "
                        f"degree {Fraction(excess, n + 1)}")
                row.append((k, d, c))
            constants[(i, j)] = tuple(row)
    return constants


def _pieri_constants(n: int, basis) -> dict:
    """Structure constants of a fresh build, from the quantum Pieri rule's generators."""
    return _operator_constants(n, basis, _pieri_operators(basis, _rule_generators(n, basis)))


def _check_rows(algebra: QHAlgebra) -> None:
    """The check of a loaded algebra: its rows are the ones its own generators build.

    Column m of L_i is read from row (i, m), zero entries included, so that
    `_check_operators` sees them.  Every longer L_lam is rebuilt from the L_i
    as a fresh build does, and every row (i, j) must equal the rebuilt row,
    k, d and c alike.  The rebuilt rows are read from operators that pass
    `_check_operators`, so the loaded table is commutative and associative,
    as a fresh build's is.
    """
    basis, loaded, columns = algebra.basis, algebra.constants, range(algebra.dim)
    generators = {t: [{k: c for k, _d, c in algebra.pair_constants(t, m)} for m in columns]
                  for t, sp in enumerate(basis) if len(sp.parts) == 1}
    rebuilt = _operator_constants(algebra.n, basis, _pieri_operators(basis, generators))
    if rebuilt != loaded:
        i, j = next(key for key in sorted(rebuilt.keys() | loaded.keys())
                    if rebuilt.get(key) != loaded.get(key))
        raise InconsistentAlgebraError(
            f"row {basis[i].parts} * {basis[j].parts} is not the one its generators build")


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
            if type(d) is not int or type(c) is not str or not c.isdecimal():
                return None  # int() would load a d of 0.7 as 0, and a c of 1.5 as 1
            constants.setdefault((i, j), []).append((k, d, int(c)))
    except (KeyError, TypeError, ValueError):
        return None
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            constants.setdefault((i, j), [])
    return QHAlgebra(n, tuple(basis), {k: tuple(v) for k, v in constants.items()})


def build_qh_algebra(n: int, use_cache: bool = True, cache_dir=None) -> QHAlgebra:
    """Build (or reload) the rank-n algebra; ring axioms are asserted either way.

    A built algebra passes the checks of the operators its constants are read
    from (`_pieri_constants`).  A loaded one is checked by the same code: its
    generators, read from its rows, rebuild every operator, and its rows must
    be the ones those operators give (`_check_rows`).  A loaded algebra that
    fails is logged and rebuilt, and the rebuilt one saved over its file; a
    built one that fails raises InconsistentAlgebraError.  A cache that cannot
    be written is logged and the algebra kept in memory.
    """
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if n > _MAX_RANK:
        raise ValueError(f"rank {n} is above the oracle's limit {_MAX_RANK}")
    path = _cache_path(n, cache_dir)
    algebra = _load_cache(n, path) if use_cache else None
    if algebra is not None:
        try:
            _check_rows(algebra)
        except InconsistentAlgebraError as exc:
            _log().warning("structure-constant cache %s rejected and rebuilt: %s", path, exc)
        else:
            return algebra
    basis = tuple(strict_partitions(n))
    algebra = QHAlgebra(n, basis, _pieri_constants(n, basis))
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
    from .invariants import _point_tables

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
