"""Exact sparse linear algebra over the rationals.

Every value is an exact int or `fractions.Fraction`; there is no floating
point and no modular shortcut anywhere in this package.  Tensor-space
operators (`tensoraction.EndoOperator`) keep their entries as int or
Fraction columns and hand out a `SparseMatrix` view for the (row, col)
callers, such as the benchmark.  A `SparseMatrix` stores only nonzero
entries, keyed by (row, col) pairs; its constructor makes them Fractions.

`Echelon` is the one row echelon.  It keeps primitive integer rows with a
positive pivot and eliminates fraction-free (Bareiss-style: scale the row,
subtract a multiple of the pivot row, never divide), so `Fraction` enters
it only where a rational row is scaled to integers and where `solve`
returns its coefficients.  `rank` counts the rows it keeps and
`solve_in_span` reads a combination of dict vectors back from it, both
through the single reduction loop `kernels.reduce_against`.  `Combination`
is the one element type behind the diagram, affine and polynomial-quotient
algebras; `scalar` is the one rule for its coefficients and for operator
scales: an int when integral, a Fraction otherwise.
"""

from fractions import Fraction
from math import gcd, lcm

from . import kernels


class NotInSpan(Exception):
    """Raised by Echelon.solve when the target is outside the span."""


def scalar(c):
    """c as an exact scalar: an int when it is integral, else a Fraction.

    Ints add and multiply several times faster than Fractions, and an
    integral Fraction equals, hashes and prints like its int.
    """
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _norm_entries(entries):
    out = {}
    for k, v in entries.items():
        q = v if isinstance(v, Fraction) else Fraction(v)
        if q:
            out[k] = q
    return out


class Combination:
    """A rational combination of basis keys on d strands: `terms` maps
    key -> nonzero coefficient, an int when it is integral and a Fraction
    otherwise (see `scalar`).

    Each algebra's element type subclasses it, naming its basis keys and
    checking every key in `_check_key`.  Elements of different types are
    never equal, even when both are zero.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d, terms=None):
        self.d = d
        for key in terms or ():
            self._check_key(key)
        self._fill(terms or {})

    def _fill(self, terms):
        clean = {}
        for key, c in terms.items():
            if type(c) is not int:
                c = scalar(c)
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def _of_checked(cls, d, terms):
        """An element of keys this type has checked already."""
        self = cls.__new__(cls)
        self.d = d
        self._fill(terms)
        return self

    def _check_key(self, key):
        """Raise ValueError unless `key` is a basis key on self.d strands."""

    @classmethod
    def zero(cls, d):
        return cls(d, {})

    def add(self, other, scale=1):
        if self.d != other.d:
            raise ValueError("mixed strand counts")
        acc = dict(self.terms)
        kernels.combine_scaled(acc, other.terms, scalar(scale))
        if type(other) is type(self):
            return self._of_checked(self.d, acc)
        return type(self)(self.d, acc)

    def scaled(self, c):
        c = scalar(c)
        return self._of_checked(self.d,
                                {k: c * v for k, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.d == other.d and self.terms == other.terms)

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))


class SparseMatrix:
    """Sparse matrix: `entries` maps (row, col) -> nonzero Fraction (or int,
    in an operator's view)."""

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

    def __repr__(self):
        return (f"SparseMatrix({self.nrows}x{self.ncols}, "
                f"{len(self.entries)} nonzero)")


def _integral(row):
    """A dict row times the lcm of its denominators: nonzero ints only."""
    den = lcm(*(v.denominator for v in row.values()))
    return {k: v.numerator * (den // v.denominator)
            for k, v in row.items() if v}


class Echelon:
    """Exact row echelon over Q kept in integers: each row in `pivots` is a
    primitive integer row whose least index is its pivot, with a positive
    coefficient there.

    A row is scaled to integers before it is reduced, which keeps the rank,
    and `kernels.reduce_against` eliminates without division.  Rows have
    real coordinates below `width`.  A row added with tag i also carries
    the coordinate width + i at 1 before that scaling, so each pivot row
    records its combination of the tagged input rows; tags sit past every
    real coordinate and therefore never become pivots.
    """

    __slots__ = ("width", "pivots", "_end")

    def __init__(self, width=0):
        self.width = width
        self.pivots = {}
        self._end = 0       # one past every coordinate a pivot row holds

    def _lead(self, residual):
        """The least real index left in a residual (None when only tags,
        or nothing, are left)."""
        j = min(residual, default=None)
        if j is not None and 0 < self.width <= j:
            j = None
        return j

    def add(self, row, tag=None):
        """Add a dict row; returns whether it was independent of the rest."""
        if tag is not None:
            row = dict(row)
            row[self.width + tag] = 1
        residual = kernels.reduce_against(self.pivots, _integral(row))
        j = self._lead(residual)
        if j is None:
            return False
        g = gcd(*residual.values())
        if residual[j] < 0:
            g = -g
        self.pivots[j] = {k: v // g for k, v in residual.items()}
        self._end = max(self._end, max(residual) + 1)
        return True

    def solve(self, row):
        """Coefficients {tag: c} of the tagged rows that sum to `row`.

        The row's overall scale s is tracked at a coordinate past every
        pivot row's, so the tags left in the residual read -s * c.
        """
        scale = max(self._end, max(row, default=-1) + 1)
        row = dict(row)
        row[scale] = 1
        residual = kernels.reduce_against(self.pivots, _integral(row))
        s = residual.pop(scale)
        j = self._lead(residual)
        if j is not None:
            raise NotInSpan(f"coordinate {j} unreachable")
        return {k - self.width: Fraction(-v, s) for k, v in residual.items()}


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


def rank(a):
    """Exact rank of a SparseMatrix: the number of rows its echelon keeps."""
    echelon = Echelon()
    return sum(echelon.add(row) for row in a.rows())


def solve_in_span(basis, target):
    """Express the dict vector `target` as a rational combination of the
    dict vectors in `basis`.

    Returns a list of Fraction coefficients (one per basis vector).  Raises
    NotInSpan if no exact combination exists.  If the basis is linearly
    dependent an arbitrary valid combination is returned.
    """
    echelon = Echelon(1 + max((i for v in (*basis, target) for i in v),
                              default=0))
    for idx, vec in enumerate(basis):
        echelon.add(vec, idx)
    combo = echelon.solve(target)
    return [combo.get(i, Fraction(0)) for i in range(len(basis))]
