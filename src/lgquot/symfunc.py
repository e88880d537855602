"""Pointwise symmetric-function kernels: elementary/complete values, Schur
determinants, Pfaffians, and Pragacz-Ratajski qtilde polynomials.

Everything here evaluates at a fixed tuple of backend numbers; no symbolic
polynomial ring is involved.  A point whose coordinates are roots of unity
may instead be given by their exponents, and its staircase Schur value and
elementary values are then built in the integer group ring of the root's
order.  A PointTable caches all per-point values, since each evaluation point
is reused across many partition labels.
"""

from __future__ import annotations

from ._frozen import Frozen
from ._ring import _PackedRing, _ring_staircase
from .partitions import _shape

__all__ = [
    "PointTable",
    "SkewMatrix",
    "elementary_all",
    "complete_all",
    "schur",
    "qtilde_pair",
    "qtilde",
    "pfaffian",
    "determinant",
]


class PointTable:
    """Symmetric-function values at one evaluation point, cached on demand.

    A point is given by its coordinate values, or, for a backend with a
    cyclotomic `order` m, by the exponents k_i of its coordinates zeta^k_i
    (zeta the primitive m-th root).  Given exponents, the staircase Schur
    value and the elementary values are built in the group ring Z[x]/(x^m - 1),
    where multiplying by a coordinate is a cyclic shift of a coefficient
    vector packed into one integer (`_PackedRing`), and each is reduced into
    the backend once (`backend.from_ring`).

    Every value is computed on first use: the elementary values, the complete
    values (grown via the alternating recurrence), and the pairwise, full
    qtilde and Schur values memoized by partition.  A caller that knows the
    qtilde value of the staircase (N-1, ..., 1) in closed form passes it as
    `staircase_qtilde`; otherwise it is a Pfaffian like any other qtilde value.
    """

    def __init__(self, backend, values=None, exponents=None, staircase_qtilde=None):
        if (values is None) == (exponents is None):
            raise TypeError("a point is given by its values or by its exponents, exactly one")
        self.backend = backend
        self.exponents = None if exponents is None else tuple(k % backend.order for k in exponents)
        self._values = None if values is None else tuple(values)
        self._elementary = None
        self._complete = [backend.one]
        self._pair: dict[tuple[int, int], object] = {}
        # the staircase (N-1, ..., 1) of the N coordinates
        self._top = tuple(range(self.size - 1, 0, -1))
        self._qtilde: dict[tuple[int, ...], object] = (
            {} if staircase_qtilde is None else {self._top: staircase_qtilde})
        self._schur: dict[tuple[int, ...], object] = {}

    @property
    def values(self) -> tuple:
        """The coordinates as backend numbers."""
        values = self._values
        if values is None:
            order = self.backend.order
            values = tuple(self.backend.root_of_unity(order, k) for k in self.exponents)
            self._values = values
        return values

    @property
    def size(self) -> int:
        return len(self.values if self.exponents is None else self.exponents)

    def _elementaries(self) -> list:
        E = self._elementary
        if E is None:
            E = self._build_elementary()  # built in full, then stored
            self._elementary = E
        return E

    def _build_elementary(self) -> list:
        if self.exponents is None:
            return elementary_all(self.backend, self.values)
        return [self.backend.from_ring(c)
                for c in _ring_elementary(self.backend.order, self.exponents)]

    def e(self, k: int):
        """Elementary value E_k; zero outside 0..N."""
        if k < 0 or k > self.size:
            return self.backend.zero
        return self._elementaries()[k]

    def h(self, k: int):
        """Complete value H_k; zero for k < 0."""
        if k < 0:
            return self.backend.zero
        H = self._complete
        if len(H) <= k:
            E = self._elementaries()
            H = list(H)  # extend a copy, then rebind: no thread sees a misplaced H_m
            while len(H) <= k:
                m = len(H)
                total = self.backend.zero
                for i in range(1, min(m, self.size) + 1):
                    term = E[i] * H[m - i]
                    total = total + term if i % 2 else total - term
                H.append(total)
            self._complete = H
        return H[k]

    def qtilde_pair(self, i: int, j: int):
        """The basic two-row value E_i E_j + 2 sum_k (-1)^k E_{i+k} E_{j-k}."""
        if i < j:
            raise ValueError(f"pair indices must satisfy i >= j, got ({i}, {j})")
        key = (i, j)
        cached = self._pair.get(key)
        if cached is None:
            total = self.e(i) * self.e(j)
            for k in range(1, j + 1):
                term = 2 * (self.e(i + k) * self.e(j - k))
                total = total - term if k % 2 else total + term
            cached = self._pair[key] = total
        return cached

    def qtilde(self, partition):
        """The qtilde value of any partition: a Pfaffian of pairwise values.

        The staircase's value is read from `staircase_qtilde` when it was given.
        """
        parts = _shape(getattr(partition, "parts", partition))
        cached = self._qtilde.get(parts)
        if cached is None:
            cached = self._qtilde[parts] = self._qtilde_uncached(parts)
        return cached

    def _qtilde_uncached(self, parts: tuple[int, ...]):
        if len(parts) == 0:
            return self.backend.one
        if len(parts) == 1:
            return self.e(parts[0])
        r = len(parts) + (len(parts) % 2)
        padded = parts + (0,) * (r - len(parts))
        rows = [[self.backend.zero] * r for _ in range(r)]
        for a in range(r):
            for b in range(a + 1, r):
                v = self.qtilde_pair(padded[a], padded[b])
                rows[a][b] = v
                rows[b][a] = -v
        return pfaffian(self.backend, rows)

    def schur(self, partition):
        """The Schur value via the complete-function determinant.

        For the staircase (N-1, ..., 1) of the N coordinates it is the product
        of x_i + x_j over i < j instead (Macdonald I.3 Ex. 3): no division.
        """
        parts = _shape(getattr(partition, "parts", partition))
        cached = self._schur.get(parts)
        if cached is None:
            n = self.size
            if len(parts) > n:
                cached = self.backend.zero
            elif parts == self._top:
                cached = self._staircase()
            else:
                padded = parts + (0,) * (n - len(parts))
                rows = [
                    [self.h(padded[i] + j - i) for j in range(n)] for i in range(n)
                ]
                cached = determinant(self.backend, rows)
            self._schur[parts] = cached
        return cached

    def _staircase(self):
        if self.exponents is not None:
            return self.backend.from_ring(_ring_staircase(self.backend.order, self.exponents))
        value = self.backend.one
        for i, x in enumerate(self.values):
            for y in self.values[i + 1:]:
                value = value * (x + y)
        return value


def _ring_elementary(m: int, exponents) -> list[list[int]]:
    """E_0..E_N from the product of (1 + x^a t) over the exponents, in Z[x]/(x^m - 1).

    E_k has C(N, k) <= 2^N monomials.
    """
    ring = _PackedRing(m, len(exponents) + 1)
    E = [1] + [0] * len(exponents)
    for count, a in enumerate(exponents, start=1):
        for k in range(count, 0, -1):
            E[k] += ring.shift(E[k - 1], a)
    return [ring.coeffs(c) for c in E]


def elementary_all(backend, values) -> list:
    """All elementary values E_0..E_N at the point, from the product of (1 + x t)."""
    values = tuple(values)
    E = [backend.one] + [backend.zero] * len(values)
    for count, x in enumerate(values, start=1):
        for k in range(count, 0, -1):
            E[k] = E[k] + x * E[k - 1]
    return E


def complete_all(backend, values, upto: int) -> list:
    """Complete values H_0..H_upto via the alternating recurrence with the E's."""
    table = PointTable(backend, values)
    return [table.h(k) for k in range(upto + 1)]


def schur(backend, partition, values):
    """Schur value of a partition at a point (Jacobi-Trudi determinant)."""
    return PointTable(backend, values).schur(partition)


def qtilde_pair(backend, i: int, j: int, values):
    """Two-index qtilde value at a point; requires i >= j."""
    return PointTable(backend, values).qtilde_pair(i, j)


def qtilde(backend, partition, values):
    """qtilde value of any partition at a point."""
    return PointTable(backend, values).qtilde(partition)


class SkewMatrix(Frozen):
    """A skew-symmetric matrix of even size, stored as full rows."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[object, ...], ...]) -> None:
        rows = tuple(tuple(r) for r in rows)
        size = len(rows)
        if size % 2:
            raise ValueError(f"skew matrix must have even size, got {size}")
        if any(len(r) != size for r in rows):
            raise ValueError("skew matrix rows must be square")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_upper(cls, size: int, entry) -> SkewMatrix:
        """Build from a callable giving the (i, j) entry for i < j."""
        rows = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                if i < j:
                    rows[i][j] = entry(i, j)
        for i in range(size):
            rows[i][i] = 0
            for j in range(i):
                rows[i][j] = -rows[j][i]
        return cls(tuple(tuple(r) for r in rows))


def pfaffian(backend, matrix):
    """Pfaffian of an even skew-symmetric matrix, by expansion along the first row."""
    rows = matrix.rows if isinstance(matrix, SkewMatrix) else [tuple(r) for r in matrix]
    size = len(rows)
    if size % 2:
        raise ValueError(f"Pfaffian requires even size, got {size}")
    if any(len(r) != size for r in rows):
        raise ValueError("Pfaffian requires a square matrix")

    def expand(active: tuple[int, ...]):
        if not active:
            return backend.one
        if len(active) == 2:
            return rows[active[0]][active[1]]
        first = active[0]
        total = backend.zero
        for pos in range(1, len(active)):
            j = active[pos]
            rest = active[1:pos] + active[pos + 1:]
            term = rows[first][j] * expand(rest)
            total = total + term if pos % 2 else total - term
        return total

    return expand(tuple(range(size)))


def determinant(backend, rows):
    """Determinant by Gaussian elimination with backend-guided pivoting."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return backend.one
    work = [list(r) for r in rows]
    result = backend.one
    sign = 1
    for col in range(n):
        pivot_row, pivot_weight = -1, 0.0
        for r in range(col, n):
            w = backend.pivot_weight(work[r][col])
            if w > pivot_weight:
                pivot_row, pivot_weight = r, w
                if w == 1.0 and backend.name == "exact":
                    break
        if pivot_row < 0:
            return backend.zero
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pivot = work[col][col]
        result = result * pivot
        for r in range(col + 1, n):
            entry = work[r][col]
            if backend.is_zero(entry):
                continue
            factor = entry / pivot
            row = work[r]
            upper = work[col]
            for c in range(col, n):
                row[c] = row[c] - factor * upper[c]
    return result if sign > 0 else -result
