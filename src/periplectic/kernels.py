"""The numeric hot loops: sparse dict and list arithmetic.

Everything here works on plain dicts/lists of Python ints or Fractions so
results are exact by construction.
"""

# reported with every benchmark result (perfbench/worker.py)
IMPLEMENTATION = "python"


def combine_scaled(acc, src, c):
    """acc += c * src for dict vectors; drops entries that cancel to zero."""
    if not c:
        return acc
    for k, v in src.items():
        w = acc.get(k)
        if w is None:
            acc[k] = c * v
        else:
            w = w + c * v
            if w:
                acc[k] = w
            else:
                del acc[k]
    return acc


def apply_columns(cols, vec):
    """Apply a column-table operator to a dict vector.

    ``cols`` maps input index -> list of (output index, coefficient); missing
    keys mean the column is zero.  Returns a new dict vector.
    """
    out = {}
    get = cols.get
    for j, c in vec.items():
        col = get(j)
        if not col:
            continue
        for i, a in col:
            w = out.get(i)
            if w is None:
                out[i] = c * a
            else:
                w = w + c * a
                if w:
                    out[i] = w
                else:
                    del out[i]
    return out


def matmul_dicts(a_rows, b_rows):
    """Row-major sparse product: (A @ B)[i] = sum_k A[i][k] * B[k].

    ``b_rows`` is a list with one dict per column index of A.
    """
    out = []
    for arow in a_rows:
        acc = {}
        for k, aik in arow.items():
            for j, bkj in b_rows[k].items():
                w = acc.get(j)
                if w is None:
                    acc[j] = aik * bkj
                else:
                    w = w + aik * bkj
                    if w:
                        acc[j] = w
                    else:
                        del acc[j]
        out.append(acc)
    return out


def bareiss_rank(rows, ncols):
    """Rank of an integer matrix via fraction-free (Bareiss) elimination.

    ``rows`` is a list of mutable lists of ints, consumed destructively.  No
    package code calls it: the tests keep it as the oracle for exactla.rank.
    """
    m = len(rows)
    if m == 0:
        return 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = -1
        for r in range(row, m):
            if rows[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != row:
            rows[piv], rows[row] = rows[row], rows[piv]
        pv = rows[row][col]
        for r in range(row + 1, m):
            rv = rows[r][col]
            rr = rows[r]
            pr = rows[row]
            if rv:
                for cc in range(col, ncols):
                    rr[cc] = (pv * rr[cc] - rv * pr[cc]) // prev
            elif pv != prev:
                for cc in range(col, ncols):
                    rr[cc] = (pv * rr[cc]) // prev
        prev = pv
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def reduce_against(pivots, row):
    """Reduce a dict vector against an echelon set.

    ``pivots`` maps pivot index -> row dict whose pivot coefficient is 1.
    Returns the (new dict) residual, empty if ``row`` lies in the span.
    """
    residual = dict(row)
    while residual:
        j = min(residual)
        piv = pivots.get(j)
        if piv is None:
            return residual
        c = -residual[j]
        for k, v in piv.items():
            w = residual.get(k)
            if w is None:
                residual[k] = c * v
            else:
                w = w + c * v
                if w:
                    residual[k] = w
                else:
                    del residual[k]
    return residual
