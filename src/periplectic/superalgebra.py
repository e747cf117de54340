"""Matrix model of gl(n|n) and its periplectic subalgebra p(n).

The natural module V = C^(n|n) has basis e_1, ..., e_n (even), e_1bar, ...,
e_nbar (odd), in that order; a matrix acts on column vectors.  In the 2x2
block writing

    X = [[A, B],
         [C, D]]

the blocks are n x n, A and D act within the even/odd halves, and X belongs
to p(n) exactly when D = -A^t, B is symmetric and C is skew-symmetric.  The
supertrace is Str(X) = tr A - tr D, and the odd pairing on V is
(e_a, e_b) = delta_{a, bar(b)}.
"""

from fractions import Fraction

from .exactla import SparseMatrix, mat_mul


class ParityIndex:
    """An element of the index set I = {1..n, 1bar..nbar}."""

    __slots__ = ("n", "i", "barred")

    def __init__(self, n, i, barred=False):
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        self.n = n
        self.i = i
        self.barred = bool(barred)

    @classmethod
    def from_pos(cls, n, pos):
        """Inverse of .pos: 0..n-1 unbarred, n..2n-1 barred."""
        if not 0 <= pos < 2 * n:
            raise ValueError(f"position {pos} out of range for n={n}")
        return cls(n, pos % n + 1, pos >= n)

    @property
    def pos(self):
        """0-based position of e_value in the ordered basis of V."""
        return (self.i - 1) + (self.n if self.barred else 0)

    @property
    def value(self):
        return (self.i, self.barred)

    @property
    def parity(self):
        return 1 if self.barred else 0

    def bar(self):
        return ParityIndex(self.n, self.i, not self.barred)

    def __eq__(self, other):
        return (isinstance(other, ParityIndex)
                and (self.n, self.i, self.barred) == (other.n, other.i, other.barred))

    def __hash__(self):
        return hash((self.n, self.i, self.barred))

    def __repr__(self):
        return f"{self.i}̄" if self.barred else f"{self.i}"


class SuperMatrix:
    """A 2n x 2n matrix with optional declared parity.

    declared_parity 0 requires the off-diagonal blocks to vanish, parity 1
    the diagonal ones; None means no homogeneity claim.
    """

    __slots__ = ("n", "data", "declared_parity")

    def __init__(self, n, data, declared_parity=None):
        if data.nrows != 2 * n or data.ncols != 2 * n:
            raise ValueError("data must be 2n x 2n")
        if declared_parity is not None:
            declared_parity = int(declared_parity) % 2
            for (i, j) in data.entries:
                block_parity = (i >= n) ^ (j >= n)
                if block_parity != declared_parity:
                    raise ValueError(
                        f"entry ({i},{j}) contradicts declared parity {declared_parity}")
        self.n = n
        self.data = data
        self.declared_parity = declared_parity

    @classmethod
    def from_blocks(cls, n, A=None, B=None, C=None, D=None, declared_parity=None):
        """Assemble from n x n block dicts {(i,j): value} (0-based, may be None)."""
        ent = {}
        for block, (ro, co) in ((A, (0, 0)), (B, (0, n)), (C, (n, 0)), (D, (n, n))):
            if block:
                for (i, j), v in block.items():
                    ent[(i + ro, j + co)] = v
        return cls(n, SparseMatrix(2 * n, 2 * n, ent), declared_parity)

    @classmethod
    def zero(cls, n, declared_parity=None):
        return cls(n, SparseMatrix(2 * n, 2 * n), declared_parity)

    def block(self, name):
        """Extract block 'A', 'B', 'C' or 'D' as a dict {(i,j): value}."""
        n = self.n
        ro, co = {"A": (0, 0), "B": (0, n), "C": (n, 0), "D": (n, n)}[name]
        out = {}
        for (i, j), v in self.data.entries.items():
            if ro <= i < ro + n and co <= j < co + n:
                out[(i - ro, j - co)] = v
        return out

    def mul(self, other):
        if self.n != other.n:
            raise ValueError("size mismatch")
        par = None
        if self.declared_parity is not None and other.declared_parity is not None:
            par = (self.declared_parity + other.declared_parity) % 2
        return SuperMatrix(self.n, mat_mul(self.data, other.data), par)

    def add(self, other, scale=1):
        if self.n != other.n:
            raise ValueError("size mismatch")
        par = self.declared_parity if self.declared_parity == other.declared_parity else None
        return SuperMatrix(self.n, self.data.add(other.data, scale), par)

    def scaled(self, c):
        return SuperMatrix(self.n, self.data.scaled(c), self.declared_parity)

    def __eq__(self, other):
        return (isinstance(other, SuperMatrix) and self.n == other.n
                and self.data == other.data)

    def __hash__(self):
        return hash((self.n, self.data))

    def __repr__(self):
        p = self.declared_parity
        return f"SuperMatrix(n={self.n}, parity={p}, {len(self.data.entries)} nonzero)"


class PnDualPair:
    """A p(n) basis element together with its supertrace-dual in gl(n|n)."""

    __slots__ = ("basis_element", "dual_element", "kind", "indices")

    def __init__(self, basis_element, dual_element, kind, indices):
        self.basis_element = basis_element
        self.dual_element = dual_element
        self.kind = kind
        self.indices = indices

    @property
    def parity(self):
        return self.basis_element.declared_parity

    def __repr__(self):
        s, t = self.indices
        return f"PnDualPair({self.kind}[{s},{t}])"


def supertrace(x):
    """Str(X) = tr A - tr D."""
    n = x.n
    tot = Fraction(0)
    for (i, j), v in x.data.entries.items():
        if i == j:
            tot += v if i < n else -v
    return tot


def superbracket(x, y):
    """[x, y] = xy - (-1)^{|x||y|} yx for homogeneous x, y."""
    if x.declared_parity is None or y.declared_parity is None:
        raise ValueError("superbracket requires homogeneous (declared-parity) inputs")
    sign = -1 if (x.declared_parity and y.declared_parity) else 1
    return x.mul(y).add(y.mul(x), -sign)


def odd_form(a, b):
    """(e_a, e_b) = 1 if a = bar(b), else 0."""
    if a.n != b.n:
        raise ValueError("indices from different n")
    return Fraction(1) if a == b.bar() else Fraction(0)


def is_pn_member(x):
    """True iff D = -A^t, B symmetric, C skew-symmetric."""
    A, B, C, D = x.block("A"), x.block("B"), x.block("C"), x.block("D")
    for (i, j) in set(A) | {(j, i) for (i, j) in D}:
        if A.get((i, j), 0) != -D.get((j, i), 0):
            return False
    for (i, j) in set(B) | {(j, i) for (i, j) in B}:
        if B.get((i, j), 0) != B.get((j, i), 0):
            return False
    for (i, j) in set(C) | {(j, i) for (i, j) in C}:
        if C.get((i, j), 0) != -C.get((j, i), 0):
            return False
    return True


def pn_basis_with_duals(n):
    """The canonical basis of p(n) with its supertrace-dual system.

    Order: E_st for all (s,t) lexicographic; X_st for s<t lexicographic;
    X_ss for s = 1..n; Y_st for s<t lexicographic.  Exactly 2n^2 pairs, and
    Str(dual_j . basis_i) = delta_ij.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    one = Fraction(1)
    half = Fraction(1, 2)
    pairs = []

    def e(s, t, v=one):
        return {(s - 1, t - 1): v}

    def e2(s, t, v, s2, t2, v2):
        d = {(s - 1, t - 1): Fraction(v)}
        key = (s2 - 1, t2 - 1)
        d[key] = d.get(key, Fraction(0)) + Fraction(v2)
        return {k: val for k, val in d.items() if val}

    for s in range(1, n + 1):
        for t in range(1, n + 1):
            basis = SuperMatrix.from_blocks(n, A=e(s, t), D=e(t, s, -one),
                                            declared_parity=0)
            dual = SuperMatrix.from_blocks(n, A=e(t, s, half), D=e(s, t, half),
                                           declared_parity=0)
            pairs.append(PnDualPair(basis, dual, "E_st", (s, t)))
    for s in range(1, n + 1):
        for t in range(s + 1, n + 1):
            basis = SuperMatrix.from_blocks(n, B=e2(s, t, 1, t, s, 1),
                                            declared_parity=1)
            dual = SuperMatrix.from_blocks(n, C=e2(t, s, -half, s, t, -half),
                                           declared_parity=1)
            pairs.append(PnDualPair(basis, dual, "X_st", (s, t)))
    for s in range(1, n + 1):
        basis = SuperMatrix.from_blocks(n, B=e(s, s), declared_parity=1)
        dual = SuperMatrix.from_blocks(n, C=e(s, s, -one), declared_parity=1)
        pairs.append(PnDualPair(basis, dual, "X_ss", (s, s)))
    for s in range(1, n + 1):
        for t in range(s + 1, n + 1):
            basis = SuperMatrix.from_blocks(n, C=e2(s, t, 1, t, s, -1),
                                            declared_parity=1)
            dual = SuperMatrix.from_blocks(n, B=e2(s, t, -half, t, s, half),
                                           declared_parity=1)
            pairs.append(PnDualPair(basis, dual, "Y_st", (s, t)))
    assert len(pairs) == 2 * n * n
    return pairs


def pn_generators(n, with_cartan=False):
    """A set of p(n) basis elements that, with gl(n), generates p(n).

    The set is the raising elements E_{s,s+1} (s < n), X_11 and, for
    n >= 2, Y_12: n + 1 elements (X_11 alone at n = 1, where g_{-1} is
    zero).  g_1, spanned by the X_st, is S^2 V as a gl(n)-module,
    irreducible and generated by X_11; g_{-1}, spanned by the Y_st, is
    Lambda^2 V* and generated by Y_12; so gl(n) = g_0 with X_11 and Y_12
    generates p(n) under the superbracket.  The set with the diagonal E_ss
    generates a proper subalgebra for n >= 2 (it misses the lowering
    E_{s+1,s}); what stands in for gl(n) is complete reducibility.

    Why this is enough for commutants: for an operator T on a representation
    rho, the x with T rho(x) = rho(x) T form a sub-superalgebra, since
    rho([x, y]) = rho(x) rho(y) -/+ rho(y) rho(x).  The tensor spaces are
    rational gl(n)-modules, so End of one is a completely reducible
    gl(n)-module under x . T = [rho(x), T].  A T that commutes with the
    E_ss has weight 0 there, and one that also commutes with the raising
    elements is a highest-weight vector of weight 0.  It spans a trivial
    submodule, so T commutes with all of gl(n), and then with X_11 and
    Y_12 with all of p(n).  `with_cartan=True` appends the n diagonal E_ss
    (in that order), for callers that do not already confine T to weight
    blocks.

    Returns the chosen PnDualPair objects of pn_basis_with_duals(n).
    """
    wanted = [("E_st", (s, s + 1)) for s in range(1, n)]
    wanted.append(("X_ss", (1, 1)))
    if n >= 2:
        wanted.append(("Y_st", (1, 2)))
    if with_cartan:
        wanted += [("E_st", (s, s)) for s in range(1, n + 1)]
    by_key = {(p.kind, p.indices): p for p in pn_basis_with_duals(n)}
    return [by_key[k] for k in wanted]
