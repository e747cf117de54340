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
from .superalgebra import ParityIndex, pn_basis_with_duals


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


class TensorBasisIndex:
    """A basis tensor e_{i_1} (x) ... (x) e_{i_(m+d)} of M (x) V^(x)d."""

    __slots__ = ("spec", "components")

    def __init__(self, spec, components):
        if len(components) != spec.nslots:
            raise ValueError("wrong number of tensor components")
        self.spec = spec
        self.components = list(components)

    @classmethod
    def from_rank(cls, spec, t):
        return cls(spec, [ParityIndex.from_pos(spec.n, dg) for dg in spec.digits(t)])

    def to_rank(self):
        return self.spec.rank([c.pos for c in self.components])

    @property
    def total_parity(self):
        return sum(c.parity for c in self.components) % 2

    def __repr__(self):
        return " (x) ".join(repr(c) for c in self.components)


class EndoOperator:
    """An explicit exact endomorphism of M (x) V^(x)d."""

    __slots__ = ("spec", "matrix", "_cols")

    def __init__(self, spec, matrix):
        if matrix.nrows != matrix.ncols or matrix.nrows != spec.dim:
            raise ValueError("matrix size does not match the tensor space")
        self.spec = spec
        self.matrix = matrix
        self._cols = None

    @classmethod
    def from_columns(cls, spec, cols):
        ent = {}
        for j, col in cols.items():
            for i, v in col:
                ent[(i, j)] = ent.get((i, j), 0) + v
        op = cls(spec, SparseMatrix(spec.dim, spec.dim,
                                    {k: v for k, v in ent.items() if v}))
        return op

    @classmethod
    def identity(cls, spec):
        return cls(spec, SparseMatrix.identity(spec.dim))

    @classmethod
    def zero(cls, spec):
        return cls(spec, SparseMatrix(spec.dim, spec.dim))

    def columns(self):
        """Column table {in: [(out, coeff), ...]} for the kernel routines."""
        if self._cols is None:
            cols = {}
            for (i, j), v in self.matrix.entries.items():
                cols.setdefault(j, []).append((i, v))
            self._cols = cols
        return self._cols

    def apply_dict(self, vec):
        return kernels.apply_columns(self.columns(), vec)

    def compose(self, other):
        """self after other (usual operator composition)."""
        return EndoOperator(self.spec, mat_mul(self.matrix, other.matrix))

    def add(self, other, scale=1):
        return EndoOperator(self.spec, self.matrix.add(other.matrix, scale))

    def scaled(self, c):
        return EndoOperator(self.spec, self.matrix.scaled(c))

    def is_zero(self):
        return not self.matrix.entries

    def __eq__(self, other):
        return (isinstance(other, EndoOperator) and self.spec == other.spec
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.spec, self.matrix))

    def __repr__(self):
        return f"EndoOperator({self.spec}, {len(self.matrix.entries)} nonzero)"


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
        return _split_casimir_columns(spec, tuple(range(m + j - 1)), m + j - 1,
                                      double=True)
    else:
        raise ValueError(f"unknown operator kind {kind}")
    return cols


def _split_casimir_columns(spec, acting_slots, dual_slot, double):
    """Columns of (2)C restricted to given derivation slots and dual slot."""
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
    if not double:
        half = Fraction(1, 2)
        cols = {t: [(r, half * v) for r, v in col] for t, col in cols.items()}
    return cols


def op_s(a, spec):
    return EndoOperator.from_columns(spec, _op_columns_cached(spec, "S", a))


def op_epsilon(a, spec):
    return EndoOperator.from_columns(spec, _op_columns_cached(spec, "E", a))


def op_y(j, spec):
    return EndoOperator.from_columns(spec, _op_columns_cached(spec, "Y", j))


def op_casimir(left_size, spec):
    spec.validate()
    if not 0 <= left_size <= spec.nslots - 1:
        raise ValueError(f"bad split position {left_size}")
    cols = _split_casimir_columns(spec, tuple(range(left_size)), left_size,
                                  double=False)
    return EndoOperator.from_columns(spec, cols)


def op_omega(i, j, spec):
    spec.validate()
    if not 0 <= i < j <= spec.d:
        raise ValueError(f"bad omega indices ({i},{j})")
    m = spec.m
    if i == 0:
        acting = tuple(range(m))
    else:
        acting = (m + i - 1,)
    cols = _split_casimir_columns(spec, acting, m + j - 1, double=True)
    return EndoOperator.from_columns(spec, cols)


def token_columns(tok, spec):
    """Column table of a single generator image (cached)."""
    return _op_columns_cached(spec, tok.kind, tok.index)


def apply_word_to_vector(word, spec, vec):
    """Right action of a word on a dict vector: tokens applied left to right."""
    for tok in word:
        vec = kernels.apply_columns(token_columns(tok, spec), vec)
        if not vec:
            break
    return vec


def _fast_scalar(v):
    # plain ints multiply much faster than Fraction
    return int(v) if v.denominator == 1 else v


@lru_cache(maxsize=None)
def _fast_columns(spec, kind, index):
    cols = _op_columns_cached(spec, kind, index)
    return {j: [(i, _fast_scalar(v)) for i, v in col]
            for j, col in cols.items()}


_FRACTION_POOL = {}


def _pooled_fraction(v):
    """Coerce an exact scalar (int or Fraction) to a shared Fraction.

    Sharing matters: operator equality bottoms out in dict equality, which
    short-circuits on identical value objects.  The pool stays small because
    matrix entries are short signed sums of products of +-1, +-2, +-1/2.
    """
    key = (v.numerator, v.denominator)
    f = _FRACTION_POOL.get(key)
    if f is None:
        f = _FRACTION_POOL[key] = Fraction(*key)
    return f


def _trusted_matrix(dim, ent):
    # entries are already nonzero pooled Fractions with in-range keys; skip
    # the general constructor's re-validation pass over them
    m = SparseMatrix.__new__(SparseMatrix)
    m.nrows = dim
    m.ncols = dim
    m.entries = ent
    return m


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
    cols = _fast_columns(spec, tok.kind, tok.index)
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
    """
    spec.validate()
    word = tuple(word)
    check_word(word, spec.d)
    ent = {}
    for t, vec in _evaluate_raw(word, spec).items():
        for i, v in vec.items():
            ent[(i, t)] = _pooled_fraction(v)
    return EndoOperator(spec, _trusted_matrix(spec.dim, ent))


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
        c = _fast_scalar(Fraction(coeff))
        if not c:
            continue
        for t, vec in _evaluate_raw(word, spec).items():
            tacc = acc.get(t)
            if tacc is None:
                acc[t] = {i: c * v for i, v in vec.items()}
                continue
            for i, v in vec.items():
                w = tacc.get(i)
                tacc[i] = c * v if w is None else w + c * v
    ent = {}
    for t, tacc in acc.items():
        for i, v in tacc.items():
            if v:
                ent[(i, t)] = _pooled_fraction(v)
    return EndoOperator(spec, _trusted_matrix(spec.dim, ent))


# ---------------------------------------------------------------------------
# g-action, equivariance, commutant
# ---------------------------------------------------------------------------

def g_action(x, spec):
    """Superderivation action of a homogeneous matrix on the full tensor space."""
    spec.validate()
    if x.declared_parity is None:
        raise ValueError("g_action needs a homogeneous (declared-parity) matrix")
    if x.n != spec.n:
        raise ValueError("size mismatch")
    n = spec.n
    par = x.declared_parity
    x_cols = {}
    for (i, j), v in x.data.entries.items():
        x_cols.setdefault(j, []).append((i, v))
    ent = {}
    for t in range(spec.dim):
        dg = spec.digits(t)
        prefix = 0
        for s in range(spec.nslots):
            hit = x_cols.get(dg[s])
            if hit:
                sgn = -1 if (par and prefix % 2) else 1
                for sout, v in hit:
                    nd = list(dg)
                    nd[s] = sout
                    r = spec.rank(nd)
                    key = (r, t)
                    w = ent.get(key, 0) + sgn * v
                    if w:
                        ent[key] = w
                    elif key in ent:
                        del ent[key]
            prefix += _parity(n, dg[s])
    return EndoOperator(spec, SparseMatrix(spec.dim, spec.dim, ent))


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
        for (a, b), v in rho.matrix.entries.items():
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
