"""Exact sparse linear algebra over the rationals.

Coefficients are `fractions.Fraction` throughout (exported as `Rational`);
there is no floating point and no modular shortcut anywhere in this package.
Vectors and matrices store only nonzero entries, keyed by index respectively
(row, col) pairs.
"""

import math
from fractions import Fraction

from . import kernels

Rational = Fraction


class NotInSpan(Exception):
    """Raised by Echelon.solve when the target is outside the span."""


def _norm_entries(entries):
    out = {}
    for k, v in entries.items():
        q = v if isinstance(v, Fraction) else Fraction(v)
        if q:
            out[k] = q
    return out


class SparseVector:
    """Sparse column vector: `entries` maps index -> nonzero Rational."""

    __slots__ = ("length", "entries")

    def __init__(self, length, entries=None):
        self.length = int(length)
        self.entries = _norm_entries(entries or {})
        for i in self.entries:
            if not 0 <= i < self.length:
                raise IndexError(f"index {i} out of range for length {self.length}")

    def __getitem__(self, i):
        return self.entries.get(i, Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, SparseVector)
                and self.length == other.length
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.length, frozenset(self.entries.items())))

    def __bool__(self):
        return bool(self.entries)

    def add(self, other, scale=1):
        if self.length != other.length:
            raise ValueError("length mismatch")
        acc = dict(self.entries)
        kernels.combine_scaled(acc, other.entries, Fraction(scale))
        return SparseVector(self.length, acc)

    def scaled(self, c):
        c = Fraction(c)
        return SparseVector(self.length, {i: c * v for i, v in self.entries.items()})

    def __repr__(self):
        return f"SparseVector({self.length}, {dict(sorted(self.entries.items()))})"


class SparseMatrix:
    """Sparse matrix: `entries` maps (row, col) -> nonzero Rational."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.entries = _norm_entries(entries or {})
        for (i, j) in self.entries:
            if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                raise IndexError(f"entry ({i},{j}) out of range for "
                                 f"{self.nrows}x{self.ncols}")

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def from_dense(cls, rows):
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        ent = {}
        for i, row in enumerate(rows):
            if len(row) != nc:
                raise ValueError("ragged dense input")
            for j, v in enumerate(row):
                if v:
                    ent[(i, j)] = Fraction(v)
        return cls(nr, nc, ent)

    def to_dense(self):
        rows = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def __getitem__(self, key):
        return self.entries.get(key, Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    def __bool__(self):
        return bool(self.entries)

    def add(self, other, scale=1):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        acc = dict(self.entries)
        kernels.combine_scaled(acc, other.entries, Fraction(scale))
        return SparseMatrix(self.nrows, self.ncols, acc)

    def scaled(self, c):
        c = Fraction(c)
        return SparseMatrix(self.nrows, self.ncols,
                            {k: c * v for k, v in self.entries.items()})

    def rows(self):
        """Row-major view: list of dicts col -> value."""
        out = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def columns(self):
        """Column-major view: dict col -> list of (row, value)."""
        out = {}
        for (i, j), v in self.entries.items():
            out.setdefault(j, []).append((i, v))
        return out

    def column_vector(self, j):
        ent = {i: v for (i, jj), v in self.entries.items() if jj == j}
        return SparseVector(self.nrows, ent)

    def transpose(self):
        return SparseMatrix(self.ncols, self.nrows,
                            {(j, i): v for (i, j), v in self.entries.items()})

    def apply(self, vec):
        """Matrix-vector product on a SparseVector."""
        if vec.length != self.ncols:
            raise ValueError("shape mismatch")
        cols = {}
        for (i, j), v in self.entries.items():
            cols.setdefault(j, []).append((i, v))
        acc = kernels.apply_columns(cols, vec.entries)
        return SparseVector(self.nrows, acc)

    def __repr__(self):
        return (f"SparseMatrix({self.nrows}x{self.ncols}, "
                f"{len(self.entries)} nonzero)")


class Echelon:
    """Exact row echelon over Q: each row in `pivots` has its least index as
    pivot, with coefficient 1.

    Rows have real coordinates below `width`.  A row added with tag i also
    carries the coordinate width + i, so each pivot row records its
    combination of the tagged input rows; tags sit past every real
    coordinate and therefore never become pivots.
    """

    __slots__ = ("width", "pivots")

    def __init__(self, width=0):
        self.width = width
        self.pivots = {}

    def _reduce(self, row):
        """The residual of a dict row and the least real index left in it
        (None when the row lies in the span)."""
        residual = kernels.reduce_against(self.pivots, row)
        j = min(residual, default=None)
        if j is not None and 0 < self.width <= j:   # only tags are left
            j = None
        return residual, j

    def add(self, row, tag=None):
        """Add a dict row; returns whether it was independent of the rest."""
        if tag is not None:
            row = dict(row)
            row[self.width + tag] = Fraction(1)
        residual, j = self._reduce(row)
        if j is None:
            return False
        inv = Fraction(1) / residual[j]
        self.pivots[j] = {k: inv * v for k, v in residual.items()}
        return True

    def solve(self, row):
        """Coefficients {tag: c} of the tagged rows that sum to `row`."""
        residual, j = self._reduce(row)
        if j is not None:
            raise NotInSpan(f"coordinate {j} unreachable")
        return {k - self.width: -v for k, v in residual.items()}


def mat_mul(a, b):
    """Exact product of two sparse matrices."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.ncols} vs {b.nrows}")
    b_rows = [dict() for _ in range(b.nrows)]
    for (k, j), v in b.entries.items():
        b_rows[k][j] = v
    a_rows = [dict() for _ in range(a.nrows)]
    for (i, k), v in a.entries.items():
        a_rows[i][k] = v
    c_rows = kernels.matmul_dicts(a_rows, b_rows)
    ent = {}
    for i, row in enumerate(c_rows):
        for j, v in row.items():
            ent[(i, j)] = v
    return SparseMatrix(a.nrows, b.ncols, ent)


# Above this many cells we switch from dense fraction-free elimination to a
# sparse echelon; both are exact, the sparse route just avoids materializing
# mostly-zero rows.
_DENSE_CELL_LIMIT = 1_000_000


def rank(a):
    """Exact rank of a SparseMatrix (fraction-free where dense pays off)."""
    rows_d = a.rows()
    if a.nrows * a.ncols <= _DENSE_CELL_LIMIT:
        int_rows = []
        for row in rows_d:
            if not row:
                continue
            lcm = 1
            for v in row.values():
                d = v.denominator
                lcm = lcm * d // math.gcd(lcm, d)
            dense = [0] * a.ncols
            for j, v in row.items():
                dense[j] = int(v * lcm)
            int_rows.append(dense)
        return kernels.bareiss_rank(int_rows, a.ncols)
    echelon = Echelon()
    return sum(echelon.add(row) for row in rows_d)


def solve_in_span(basis, target):
    """Express `target` as a rational combination of `basis` vectors.

    Returns a list of Rational coefficients (one per basis vector).  Raises
    NotInSpan if no exact combination exists.  If the basis is linearly
    dependent an arbitrary valid combination is returned.
    """
    if any(v.length != target.length for v in basis):
        raise ValueError("length mismatch between basis and target")
    echelon = Echelon(target.length)
    for idx, vec in enumerate(basis):
        echelon.add(vec.entries, idx)
    combo = echelon.solve(target.entries)
    return [combo.get(i, Fraction(0)) for i in range(len(basis))]
