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

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import kernels
from .exactla import Echelon, SparseMatrix, mat_mul
from .superalgebra import pn_basis_with_duals


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
    table may be shared with the word-image cache, so it is read-only: no
    method changes it.  `matrix` is the same operator as a (row, col)-keyed
    SparseMatrix, built on first use.
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
        """self after other (usual operator composition)."""
        return EndoOperator(self.spec, mat_mul(self.matrix, other.matrix))

    def add(self, other, scale=1):
        if self.spec.dim != other.spec.dim:
            raise ValueError("shape mismatch")
        scale = _scalar(scale)
        cols = {j: dict(col) for j, col in self.columns.items()}
        for j, col in other.columns.items():
            if not kernels.combine_scaled(cols.setdefault(j, {}), col, scale):
                del cols[j]
        return EndoOperator._wrap(self.spec, cols)

    def scaled(self, c):
        c = _scalar(c)
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


def _scalar(c):
    """c as an exact scalar: an int when it is integral, since ints multiply
    much faster than Fractions."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@lru_cache(maxsize=None)
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

@lru_cache(maxsize=None)
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
        for t in range(spec.dim):
            dg = list(spec.digits(t))
            if dg[p] != _bar(n, dg[q]):
                continue
            col = []
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


@lru_cache(maxsize=512)
def _evaluate_raw(word, spec):
    """Matrix of the word as column dicts {in: {out: value}} (int/Fraction).

    A word extends its one-shorter prefix by a single cached column
    application, so a family of words sharing prefixes (word enumerations,
    normal-form term expansions) costs one step per distinct prefix.
    Cached and shared between callers: treat the result as read-only.
    """
    if not word:
        return {t: {t: 1} for t in range(spec.dim)}
    prev = _evaluate_raw(word[:-1], spec)
    tok = word[-1]
    cols = _op_columns_cached(spec, tok.kind, tok.index)
    out = {}
    for t, vec in prev.items():
        image = kernels.apply_columns(cols, vec)
        if image:
            out[t] = image
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

    Same result as folding evaluate_word through EndoOperator.add, but the
    cached raw columns are merged in a single pass, which is what keeps
    images of long normal forms affordable.
    """
    spec.validate()
    acc = {}
    for word, coeff in weighted_words:
        word = tuple(word)
        check_word(word, spec.d)
        c = _scalar(coeff)
        if not c:
            continue
        for t, vec in _evaluate_raw(word, spec).items():
            tacc = acc.get(t)
            if tacc is None:
                acc[t] = {i: c * v for i, v in vec.items()}
                continue
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
    return EndoOperator._wrap(spec, {t: col for t, col in acc.items() if col})


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
        x_cols.setdefault(j, []).append((i, v))
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


def check_equivariance(op, spec=None):
    """True iff op commutes with the action of every p(n) basis element."""
    spec = spec or op.spec
    for pair in pn_basis_with_duals(spec.n):
        rho = g_action(pair.basis_element, spec)
        if mat_mul(op.matrix, rho.matrix) != mat_mul(rho.matrix, op.matrix):
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

    An operator commuting with the diagonal Cartan-like elements is supported
    on pairs of equal weight, which cuts the unknowns down before solving the
    remaining exact linear system.
    """
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
    for pair in pn_basis_with_duals(spec.n):
        rho = g_action(pair.basis_element, spec)
        eqs = {}
        for b, col in rho.columns.items():
            for a, v in col.items():
                # T[t,a] * rho[a,b] lands in equation (t, b)
                for t in blocks.get(wt[a], ()):
                    key = (t, b)
                    eqs.setdefault(key, {})[unk[(t, a)]] = \
                        eqs.get(key, {}).get(unk[(t, a)], Fraction(0)) + v
                # -rho[a,b] * T[b,u] lands in equation (a, u)
                for u in blocks.get(wt[b], ()):
                    key = (a, u)
                    eqs.setdefault(key, {})[unk[(b, u)]] = \
                        eqs.get(key, {}).get(unk[(b, u)], Fraction(0)) - v
        rows.extend(r for r in eqs.values())
    echelon = Echelon()
    rank = sum(echelon.add({k: v for k, v in row.items() if v})
               for row in rows)
    return len(unk) - rank
