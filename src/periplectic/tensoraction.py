"""Operators on M (x) V^(x)d for M = V^(x)m (m = 0 meaning the trivial module).

Conventions, fixed once here and relied on everywhere else:

* V has ordered basis e_1..e_n, e_1bar..e_nbar; a tensor factor is stored as
  a base-2n digit (0..n-1 even, n..2n-1 odd), slot 0 leftmost, and the basis
  of the whole space is ordered lexicographically (slot 0 most significant).

* Words act on the RIGHT: a word g1 g2 ... gk sends v to
  ((v . g1) . g2) ... , so evaluate_word composes matrices in reversed
  order.  This is the opposite-algebra convention; it is what makes word
  concatenation an algebra map into End(...)^opp.

* The two-slot swap is s(e_a (x) e_b) = (-1)^{|e_a||e_b|} e_b (x) e_a and the
  bend is eps(e_a (x) e_b) = delta_{a,bar(b)} sum_i (-1)^{|e_i|} e_i (x)
  e_{bar(i)}.

* Split Casimir across position L: C = sum_k sign . (x_k acting as a
  superderivation on slots < L) . (x_k^* on slot L), with
  sign = (-1)^{|x_k| (P(<s) + P(<L))} for acting slot s, where P(<s) is the
  total parity of slots before s counted from slot 0 (module slots
  included).  y_j = 2 C with L = m+j-1; the summand with the derivation
  restricted to one slot (or to the module block) is Omega.
"""

from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache, update_wrapper
from itertools import chain
from typing import NamedTuple

from . import kernels
from .exactla import Echelon, SparseMatrix, scalar
# unused here; perfbench/tracer.py wraps tensoraction.mat_mul by name
from .exactla import mat_mul  # noqa: F401
from .superalgebra import pn_basis_with_duals, pn_generators


class Token(NamedTuple):
    kind: str   # "S", "E" or "Y"
    index: int

    def __repr__(self):
        return f"{self.kind}({self.index})"


def S(a):
    return Token("S", a)


def E(a):
    return Token("E", a)


def Y(j):
    return Token("Y", j)


def check_word(word, d):
    for tok in word:
        if tok.kind in ("S", "E"):
            if not 1 <= tok.index <= d - 1:
                raise ValueError(f"token {tok} out of range for d={d}")
        elif tok.kind == "Y":
            if not 1 <= tok.index <= d:
                raise ValueError(f"token {tok} out of range for d={d}")
        else:
            raise ValueError(f"unknown token {tok}")


class TensorSpaceSpec(NamedTuple):
    n: int
    m: int
    d: int

    @property
    def nslots(self):
        return self.m + self.d

    @property
    def dim(self):
        return (2 * self.n) ** self.nslots

    def digits(self, t):
        """Decode basis rank into the tuple of slot digits (slot 0 first)."""
        base = 2 * self.n
        out = [0] * self.nslots
        for s in range(self.nslots - 1, -1, -1):
            t, out[s] = divmod(t, base)
        return tuple(out)

    def rank(self, digits):
        base = 2 * self.n
        t = 0
        for dg in digits:
            t = t * base + dg
        return t

    def validate(self):
        if self.n < 1 or self.m < 0 or self.d < 1:
            raise ValueError(f"bad tensor space spec {self}")
        return self


class EndoOperator:
    """An explicit exact endomorphism of M (x) V^(x)d.

    `columns` maps an input basis index to its image, a dict
    {output index: nonzero int or Fraction}; zero columns are left out.  The
    table may be shared with the word-image cache, and one column dict may
    be shared between cached tables, between the inputs of one table and
    between operators: a sum (`add`, `evaluate_word_sum`) keeps a column
    that one term alone writes with coefficient 1 as that term's dict, and
    makes a new dict only for a column that a second term writes into or
    that a coefficient other than 1 scales.  So tables and columns are
    read-only: no method changes them.  `matrix` is the same operator as a
    (row, col)-keyed SparseMatrix, built on first use.
    """

    __slots__ = ("spec", "columns", "_matrix")

    def __init__(self, spec, matrix):
        if matrix.nrows != matrix.ncols or matrix.nrows != spec.dim:
            raise ValueError("matrix size does not match the tensor space")
        cols = {}
        for (i, j), v in matrix.entries.items():
            cols.setdefault(j, {})[i] = v
        self.spec = spec
        self.columns = cols
        self._matrix = matrix

    @classmethod
    def _wrap(cls, spec, columns):
        """The operator with this column table, which it keeps uncopied."""
        op = cls.__new__(cls)
        op.spec = spec
        op.columns = columns
        op._matrix = None
        return op

    @classmethod
    def from_columns(cls, spec, cols):
        """The operator of list columns {in: [(out, value), ...]}, each
        output listed once with a nonzero value and no column empty."""
        return cls._wrap(spec, {j: dict(col) for j, col in cols.items()})

    @classmethod
    def identity(cls, spec):
        return cls._wrap(spec, {t: {t: 1} for t in range(spec.dim)})

    @classmethod
    def zero(cls, spec):
        return cls._wrap(spec, {})

    @property
    def matrix(self):
        if self._matrix is None:
            view = SparseMatrix.__new__(SparseMatrix)
            view.nrows = view.ncols = self.spec.dim
            view.entries = {(i, j): v for j, col in self.columns.items()
                            for i, v in col.items()}
            self._matrix = view
        return self._matrix

    def apply_dict(self, vec):
        out = {}
        get = self.columns.get
        for j, c in vec.items():
            col = get(j)
            if col:
                kernels.combine_scaled(out, col, c)
        return out

    def compose(self, other):
        """self after other (usual operator composition): column c is self
        applied to column c of other."""
        if self.spec != other.spec:   # not only the dimension
            raise ValueError(f"operators on {self.spec} and {other.spec}")
        cols = {}
        for j, col in other.columns.items():
            image = self.apply_dict(col)
            if image:
                cols[j] = image
        return EndoOperator._wrap(self.spec, cols)

    def add(self, other, scale=1):
        if self.spec != other.spec:   # not only the dimension
            raise ValueError(f"operators on {self.spec} and {other.spec}")
        return EndoOperator._wrap(self.spec, _sum_columns(
            ((self.columns, 1), (other.columns, scalar(scale)))))

    def scaled(self, c):
        c = scalar(c)
        if not c:
            return EndoOperator.zero(self.spec)
        return EndoOperator._wrap(
            self.spec, {j: {i: c * v for i, v in col.items()}
                        for j, col in self.columns.items()})

    def is_zero(self):
        return not self.columns

    def __eq__(self, other):
        return (isinstance(other, EndoOperator) and self.spec == other.spec
                and self.columns == other.columns)

    def __hash__(self):
        return hash((self.spec, frozenset(
            (j, frozenset(col.items())) for j, col in self.columns.items())))

    def __repr__(self):
        nnz = sum(map(len, self.columns.values()))
        return f"EndoOperator({self.spec}, {nnz} nonzero)"


# One entry per n, each 2n^2 small column tables.  The whole test suite
# uses six values of n and the benchmark workloads at most four, so 16
# entries hold every working set.
@lru_cache(maxsize=16)
def _v_action_tables(n):
    """Per dual pair: (parity, columns of x_k, columns of 2 x_k^*).

    Columns map an input digit to a list of (output digit, integer value);
    the doubling of the dual makes every table integral.
    """
    tables = []
    for pair in pn_basis_with_duals(n):
        x_cols = {}
        for (i, j), v in pair.basis_element.data.entries.items():
            assert v.denominator == 1
            x_cols.setdefault(j, []).append((i, int(v)))
        xstar2_cols = {}
        for (i, j), v in pair.dual_element.data.entries.items():
            w = 2 * v
            assert w.denominator == 1
            xstar2_cols.setdefault(j, []).append((i, int(w)))
        tables.append((pair.parity, x_cols, xstar2_cols))
    return tuple(tables)


def _parity(n, digit):
    return 1 if digit >= n else 0


def _bar(n, digit):
    return (digit + n) % (2 * n)


# ---------------------------------------------------------------------------
# generator operators
# ---------------------------------------------------------------------------

# One entry per (space, letter); a space with d strands has 3d - 2 letters.
# The whole test suite builds 125 tables, the soundness workload 49 and
# independence at most 31 (ten rank windows over blocks m <= 3), so 256
# entries hold every working set while bounding a long-lived process.
@lru_cache(maxsize=256)
def _op_columns_cached(spec, kind, index):
    """Columns {in: [(out, int value), ...]} of one generator's image; every
    operator of a word is built from these tables."""
    spec.validate()
    n, m, d = spec
    base = 2 * n
    cols = {}
    if kind == "S":
        a = index
        if not 1 <= a <= d - 1:
            raise ValueError(f"s index {a} out of range for d={d}")
        p, q = m + a - 1, m + a
        for t in range(spec.dim):
            dg = list(spec.digits(t))
            sgn = -1 if (_parity(n, dg[p]) and _parity(n, dg[q])) else 1
            dg[p], dg[q] = dg[q], dg[p]
            cols[t] = [(spec.rank(dg), sgn)]
    elif kind == "E":
        a = index
        if not 1 <= a <= d - 1:
            raise ValueError(f"eps index {a} out of range for d={d}")
        p, q = m + a - 1, m + a
        outs_template = [(i, _bar(n, i), -1 if i >= n else 1) for i in range(base)]
        # the column depends on the other digits only: one list per rest
        by_rest = {}
        for t in range(spec.dim):
            dg = list(spec.digits(t))
            if dg[p] != _bar(n, dg[q]):
                continue
            rest = (tuple(dg[:p]), tuple(dg[q + 1:]))
            col = by_rest.get(rest)
            if col is None:
                col = by_rest[rest] = []
                for i, ibar, sgn in outs_template:
                    dg[p], dg[q] = i, ibar
                    col.append((spec.rank(dg), sgn))
            cols[t] = col
    elif kind == "Y":
        j = index
        if not 1 <= j <= d:
            raise ValueError(f"y index {j} out of range for d={d}")
        return _split_casimir_columns(spec, tuple(range(m + j - 1)), m + j - 1)
    else:
        raise ValueError(f"unknown operator kind {kind}")
    return cols


def _split_casimir_columns(spec, acting_slots, dual_slot):
    """Columns of 2C restricted to given derivation slots and dual slot."""
    n = spec.n
    tables = _v_action_tables(n)
    # dual tables grouped by input digit for quick lookup
    by_digit = [[] for _ in range(2 * n)]
    for k, (par, x_cols, xstar2_cols) in enumerate(tables):
        for jdig, col in xstar2_cols.items():
            for idig, v in col:
                by_digit[jdig].append((k, par, idig, v))
    cols = {}
    for t in range(spec.dim):
        dg = spec.digits(t)
        pref = [0] * (spec.nslots + 1)
        for s in range(spec.nslots):
            pref[s + 1] = pref[s] + _parity(n, dg[s])
        out = {}
        qdig = dg[dual_slot]
        for k, par, qout, v2 in by_digit[qdig]:
            x_cols = tables[k][1]
            for s in acting_slots:
                hit = x_cols.get(dg[s])
                if not hit:
                    continue
                crossing = par * (pref[s] + pref[dual_slot])
                sgn = -1 if crossing % 2 else 1
                for sout, v1 in hit:
                    nd = list(dg)
                    nd[s] = sout
                    nd[dual_slot] = qout
                    r = spec.rank(nd)
                    val = sgn * v1 * v2
                    out[r] = out.get(r, 0) + val
        col = [(r, v) for r, v in out.items() if v]
        if col:
            cols[t] = col
    return cols


def op_s(a, spec):
    return evaluate_word([S(a)], spec)


def op_epsilon(a, spec):
    return evaluate_word([E(a)], spec)


def op_y(j, spec):
    return evaluate_word([Y(j)], spec)


def op_casimir(left_size, spec):
    spec.validate()
    if not 0 <= left_size <= spec.nslots - 1:
        raise ValueError(f"bad split position {left_size}")
    cols = _split_casimir_columns(spec, tuple(range(left_size)), left_size)
    return EndoOperator.from_columns(spec, cols).scaled(Fraction(1, 2))


def op_omega(i, j, spec):
    spec.validate()
    if not 0 <= i < j <= spec.d:
        raise ValueError(f"bad omega indices ({i},{j})")
    m = spec.m
    if i == 0:
        acting = tuple(range(m))
    else:
        acting = (m + i - 1,)
    cols = _split_casimir_columns(spec, acting, m + j - 1)
    return EndoOperator.from_columns(spec, cols)


def apply_word_to_vector(word, spec, vec):
    """Right action of a word on a dict vector: tokens applied left to right."""
    for tok in word:
        vec = kernels.apply_columns(
            _op_columns_cached(spec, tok.kind, tok.index), vec)
        if not vec:
            break
    return vec


# A cached image shares most of its columns with the cached images of its
# suffixes.  A full cache of dotless d = 4 words at n = 4 (4,096 columns
# each) peaked at about 100 MB of RSS this way, against about 240 MB for the
# route that extended a word's prefix.
_SUFFIX_DEPTH = 128


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


class _SegmentedLRU:
    """The word-image cache: at most _IMAGE_CACHE_SIZE of fn's results, in
    two segments, keeping what is looked up twice.

    A first lookup puts the result in the probation segment, which holds
    _PROBATION_SIZE; a hit there moves it to the protected segment, which
    holds the rest.  When protected outgrows its share, its oldest entry
    goes back to the newest end of probation, and when probation outgrows
    its own, its oldest entry is dropped.  So a run of one-off keys cycles
    through probation and leaves the protected entries alone.  `cache_info`
    and `cache_clear` are those of `functools.lru_cache`.  fn never returns
    None, and it may look up other keys while it computes one.
    """

    def __init__(self, fn):
        update_wrapper(self, fn)
        self.probation = OrderedDict()      # oldest first
        self.protected = OrderedDict()
        self.hits = self.misses = 0

    def __call__(self, *key):
        protected = self.protected
        value = protected.get(key)
        if value is not None:
            protected.move_to_end(key)
            self.hits += 1
            return value
        probation = self.probation
        value = probation.pop(key, None)
        if value is None:
            self.misses += 1
            value = probation[key] = self.__wrapped__(*key)
            if len(probation) > _PROBATION_SIZE:
                probation.popitem(last=False)
            return value
        self.hits += 1
        protected[key] = value
        if len(protected) > _IMAGE_CACHE_SIZE - _PROBATION_SIZE:
            old, image = protected.popitem(last=False)
            probation[old] = image
        return value

    def cache_info(self):
        return CacheInfo(self.hits, self.misses, _IMAGE_CACHE_SIZE,
                         len(self.probation) + len(self.protected))

    def cache_clear(self):
        self.probation.clear()
        self.protected.clear()
        self.hits = self.misses = 0


# 512 images, of which up to 64 seen once wait in probation.  An image has
# up to (2n)^(m+d) columns, so what the bound holds depends on the space:
# on the soundness benchmark's ten spaces (at most 1,296 columns) a full
# cache held about 20-30 MB of images (tracemalloc), while at (3, 3, 2),
# 7,776 columns, one image with a y letter takes up to about 2.9 MB, and
# criterion 7's words on its eight spaces peaked at 985 MB of RSS (1,308 MB
# with one plain 512-entry LRU).  That plain LRU lost the suffixes that
# recur, pushed out by words met once: of 6,347 distinct (word, space)
# lookups on 15,000 soundness operations (seed 7), 4,111 came once.  On
# those operations, in process, probation shares of 32, 64 and 128 took
# 8.8, 8.2 and 8.9 s (22,737, 21,800 and 22,264 misses), against 11.7 s
# (28,064 misses) for the plain LRU.
_IMAGE_CACHE_SIZE = 512
_PROBATION_SIZE = 64


@_SegmentedLRU
def _evaluate_raw(word, spec):
    """Matrix of the word as column dicts {in: {out: value}} (int/Fraction).

    A word x w adds its first letter x to the cached image of the rest w:
    column t of x w is e_t . x . w, the combination of the columns of w's
    image that column t of x's table names (`kernels.prepend_columns`).  So
    an S letter keeps each +1 column of w's image as the same dict and
    copies only the -1 ones; an E letter builds one column for each value
    of the digits off its two slots, shared by every input with those
    digits; a Y letter combines a few columns into a new dict.  A family of
    words sharing suffixes costs one step per distinct suffix.  Past
    _SUFFIX_DEPTH letters a word prepends its leading letters to its suffix
    of that length one at a time, which bounds the recursion.  Cached, and
    shared between callers and between the columns of other cached words:
    read-only.
    """
    if not word:
        return {t: {t: 1} for t in range(spec.dim)}
    cut = max(1, len(word) - _SUFFIX_DEPTH)
    out = _evaluate_raw(word[cut:], spec)
    for tok in reversed(word[:cut]):
        out = kernels.prepend_columns(
            _op_columns_cached(spec, tok.kind, tok.index), out)
    return out


def evaluate_word(word, spec):
    """Image of a word under the right-action homomorphism (materialized).

    Reading the word left to right and applying each generator in turn
    realizes v . (g1 g2 ... gk); as a matrix this is Mat(gk) ... Mat(g1).
    The operator wraps the cached column table of `_evaluate_raw` as it is.
    """
    spec.validate()
    word = tuple(word)
    check_word(word, spec.d)
    return EndoOperator._wrap(spec, _evaluate_raw(word, spec))


def evaluate_word_sum(weighted_words, spec):
    """Sum of coeff * Mat(word) over (word, coeff) pairs, as one operator.

    Same result as folding evaluate_word through EndoOperator.add.  A sum
    of one term with coefficient 1 wraps that word's cached table as it is,
    like `evaluate_word`; about half of the soundness check's normal forms
    are such a term.  Otherwise the cached raw columns are merged in a
    single pass by `_sum_columns`, which copies a cached column only when a
    second term writes into it or its coefficient is not 1.  Either way the
    result is read-only.
    """
    spec.validate()

    def terms():
        for word, coeff in weighted_words:
            word = tuple(word)
            check_word(word, spec.d)
            c = scalar(coeff)
            if c:
                yield _evaluate_raw(word, spec), c

    rest = terms()
    first, second = next(rest, None), next(rest, None)
    if second is None and first is not None and first[1] == 1:
        return EndoOperator._wrap(spec, first[0])
    return EndoOperator._wrap(spec, _sum_columns(
        chain(filter(None, (first, second)), rest)))


def _sum_columns(terms):
    """Column table of the sum of c * table over (table, c) pairs.

    Copy on write: a column that one term alone writes, with c = 1, is that
    term's dict, uncopied; with another c it is scaled into a new dict.  The
    first write of a second term into a shared column copies it, and that
    private dict takes this and every later write.  Columns that cancel to
    empty are left out, and so are terms with c = 0.  The result shares
    columns with the input tables, so it is as read-only as they are.
    """
    shared = {}
    own = {}
    for table, c in terms:
        if not c:
            continue
        for t, vec in table.items():
            tacc = own.get(t)
            if tacc is None:
                first = shared.get(t)
                if first is None:
                    if c == 1:
                        shared[t] = vec
                    else:
                        own[t] = {i: c * v for i, v in vec.items()}
                    continue
                del shared[t]
                tacc = own[t] = dict(first)
            for i, v in vec.items():
                w = tacc.get(i)
                if w is None:
                    tacc[i] = c * v
                else:
                    w = w + c * v
                    if w:
                        tacc[i] = w
                    else:
                        del tacc[i]
    shared.update((t, col) for t, col in own.items() if col)
    return shared


# ---------------------------------------------------------------------------
# g-action, equivariance, commutant
# ---------------------------------------------------------------------------

def g_action(x, spec, slots=None):
    """Superderivation action of a homogeneous matrix on the tensor space.

    It acts on the listed slots (ascending; default all), and the sign at a
    slot counts the parity of the earlier listed slots only.
    """
    spec.validate()
    if x.declared_parity is None:
        raise ValueError("g_action needs a homogeneous (declared-parity) matrix")
    if x.n != spec.n:
        raise ValueError("size mismatch")
    if slots is None:
        slots = range(spec.nslots)
    n = spec.n
    par = x.declared_parity
    x_cols = {}
    for (i, j), v in x.data.entries.items():
        x_cols.setdefault(j, []).append((i, scalar(v)))
    cols = {}
    for t in range(spec.dim):
        dg = spec.digits(t)
        prefix = 0
        col = {}
        for s in slots:
            hit = x_cols.get(dg[s])
            if hit:
                sgn = -1 if (par and prefix % 2) else 1
                for sout, v in hit:
                    nd = list(dg)
                    nd[s] = sout
                    r = spec.rank(nd)
                    col[r] = col.get(r, 0) + sgn * v
            prefix += _parity(n, dg[s])
        col = {r: v for r, v in col.items() if v}
        if col:
            cols[t] = col
    return EndoOperator._wrap(spec, cols)


def check_equivariance(op):
    """True iff op commutes with the action of p(n).

    It checks the 2n generators of `pn_generators` and the n diagonal E_ss:
    the elements whose action commutes with op form a sub-superalgebra, and
    these generate p(n), so commuting with them is commuting with all of it.
    """
    spec = op.spec
    for pair in pn_generators(spec.n, with_cartan=True):
        rho = g_action(pair.basis_element, spec)
        if op.compose(rho) != rho.compose(op):
            return False
    return True


def _weight(spec, t):
    """Eigenvalue tuple of the diagonal Cartan-like operators on e_t."""
    n = spec.n
    w = [0] * n
    for dg in spec.digits(t):
        if dg < n:
            w[dg] += 1
        else:
            w[dg - n] -= 1
    return tuple(w)


def commutant_dimension(spec):
    """dim over Q of the space of operators commuting with the g-action (m=0).

    An operator commuting with the diagonal Cartan-like elements E_ss is
    supported on pairs of equal weight, which cuts the unknowns down; the
    remaining equations say that it commutes with the 2n generators of
    `pn_generators`.  That is enough: the elements whose action commutes with
    the operator form a sub-superalgebra, and the generators with the E_ss
    generate p(n).
    """
    unknowns, rows = _commutant_equations(spec)
    echelon = Echelon()
    return unknowns - sum(echelon.add(row) for row in rows)


def _commutant_equations(spec):
    """(number of unknowns, integer equation rows) of the commutant: one
    row per entry of T rho - rho T, for rho the action of each generator of
    `pn_generators` (the E_ss are the weight blocks of the unknowns)."""
    spec.validate()
    if spec.m != 0:
        raise ValueError("commutant_dimension is defined for m = 0")
    blocks = {}
    for t in range(spec.dim):
        blocks.setdefault(_weight(spec, t), []).append(t)
    unk = {}
    for w, ts in blocks.items():
        for t in ts:
            for u in ts:
                unk[(t, u)] = len(unk)
    wt = {t: _weight(spec, t) for t in range(spec.dim)}
    rows = []
    for pair in pn_generators(spec.n):
        rho = g_action(pair.basis_element, spec)
        eqs = {}
        for b, col in rho.columns.items():
            for a, v in col.items():
                # T[t,a] * rho[a,b] lands in equation (t, b)
                for t in blocks.get(wt[a], ()):
                    eq = eqs.setdefault((t, b), {})
                    x = unk[(t, a)]
                    eq[x] = eq.get(x, 0) + v
                # -rho[a,b] * T[b,u] lands in equation (a, u)
                for u in blocks.get(wt[b], ()):
                    eq = eqs.setdefault((a, u), {})
                    x = unk[(b, u)]
                    eq[x] = eq.get(x, 0) - v
        rows.extend(eqs.values())
    return len(unk), rows
