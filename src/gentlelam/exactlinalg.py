"""Exact linear algebra over the rationals.

All elimination goes through one kernel, `_echelon`: sparse
Gauss-Jordan elimination, fraction-free in the sense of Bareiss (1968):
rows stay integral, are combined by cross-multiplying with the cofactors
of the gcd of the two entries, and each pivot row is divided by its
content.  It takes rows as dense lists or as {col: value} dicts,
with int or Fraction entries, and clears denominators row by row, so the
elimination itself runs on Python ints.  It returns {pivot column:
primitive integer row}, every row zero in every other pivot column:
the reduced row echelon form up to one scale per row.  That form is
unique, so the result does not depend on the order rows are eliminated
in, and `rref` (each row divided by its pivot entry), `sparse_rank`,
`nullspace`, `solve`, `is_invertible` and `mat_inverse` are views of it.

Dense matrices are lists of row-lists.  `nullspace` returns primitive
integer vectors; `mat_inverse` gives integral entries as int (so the
inverse of a unimodular integer matrix is an integer matrix); `rref`
and `solve` carry Fraction entries.
"""

from fractions import Fraction
from math import gcd


def _int_row(row):
    """A dense or {col: value} row as {col: int}, denominators cleared."""
    items = [(c, v) for c, v in
             (row.items() if isinstance(row, dict) else enumerate(row)) if v]
    den = 1
    for _, v in items:
        if isinstance(v, Fraction):
            den = den * v.denominator // gcd(den, v.denominator)
    return {c: int(v * den) for c, v in items}


def _primitive(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _clear(row, piv, c):
    """An integer multiple of row minus one of piv, zero in column c."""
    a, b = row[c], piv[c]
    g = gcd(a, b)
    ma, mb = b // g, a // g
    new = {cc: vv * ma for cc, vv in row.items()}
    for cc, vv in piv.items():
        w = new.get(cc, 0) - vv * mb
        if w:
            new[cc] = w
        else:
            del new[cc]
    return new


def _echelon(rows):
    """{pivot column: primitive integer row} of the reduced echelon form."""
    pivots = {}
    for row in map(_int_row, rows):
        # a pivot row is zero in the other pivot columns, so clearing one
        # column leaves the row's entries in the others nonzero
        for c in [c for c in row if c in pivots]:
            row = _clear(row, pivots[c], c)
        if not row:
            continue
        c = min(row)
        row = _primitive(row)
        for p, other in pivots.items():
            if c in other:
                pivots[p] = _primitive(_clear(other, row, c))
        pivots[c] = row
    return pivots


def sparse_rank(rows):
    """Rank of a matrix given as dense or {col: value} rows."""
    return len(_echelon(rows))


def frac_mat(m):
    return [[Fraction(x) for x in row] for row in m]


def mat_mul(a, b):
    """Product of dense matrices (lists of rows)."""
    if not a or not b:
        return [[] for _ in a]
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rref(mat, ncols=None):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    ncols is the column count, read from the first row when omitted."""
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    ech = _echelon(mat)
    pivots = sorted(ech)
    return [[Fraction(ech[p].get(j, 0), ech[p][p]) for j in range(ncols)]
            for p in pivots], pivots


def nullspace(mat, ncols):
    """Basis of the right kernel of a matrix given as dense or
    {col: value} rows, as column vectors: one per free column f, the
    rational kernel vector that is 1 at f and 0 at the other free
    columns, scaled by the lcm of the pivots it meets and then made
    primitive (integer entries with gcd 1, positive at f)."""
    ech = _echelon(mat)
    basis = []
    for f in range(ncols):
        if f in ech:
            continue
        hits = [(p, row) for p, row in ech.items() if f in row]
        scale = 1
        for p, row in hits:
            scale = scale * abs(row[p]) // gcd(scale, row[p])
        v = [0] * ncols
        v[f] = scale
        for p, row in hits:
            v[p] = -row[f] * scale // row[p]
        g = 0
        for x in v:
            g = gcd(g, x)
        basis.append([x // g for x in v] if g > 1 else v)
    return basis


def solve(mat, rhs):
    """One solution of mat*x = rhs, or None if inconsistent."""
    ncols = len(mat[0]) if mat else 0
    ech = _echelon([list(row) + [b] for row, b in zip(mat, rhs)])
    if ncols in ech:
        return None
    x = [Fraction(0)] * ncols
    for p, row in ech.items():
        x[p] = Fraction(row.get(ncols, 0), row[p])
    return x


def is_invertible(mat):
    n = len(mat)
    if any(len(row) != n for row in mat):
        return False
    return len(_echelon(mat)) == n


def mat_inverse(mat):
    n = len(mat)
    ech = _echelon([list(row) + [int(i == j) for j in range(n)]
                    for i, row in enumerate(mat)])
    if any(i not in ech for i in range(n)):
        raise ValueError("matrix not invertible")
    return [[_ratio(ech[i].get(n + j, 0), ech[i][i]) for j in range(n)]
            for i in range(n)]


def _ratio(a, b):
    """a / b as an int when b divides a, else as a Fraction."""
    return a // b if a % b == 0 else Fraction(a, b)


def charpoly(mat):
    """Characteristic polynomial, coefficients from x^n down to x^0.

    Faddeev-LeVerrier; fine for the small matrices appearing here.
    """
    n = len(mat)
    coeffs = [Fraction(1)]
    m = identity(n)
    a = frac_mat(mat)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs


def poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_divmod_linear(coeffs, root):
    """Divide by (x - root); returns (quotient, remainder)."""
    out = []
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * Fraction(root) + c
        out.append(acc)
    return out[:-1], out[-1]


def rational_roots(coeffs):
    """All rational roots (with multiplicity) of a polynomial over Q."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    roots = []
    # strip zero roots
    while len(coeffs) > 1 and coeffs[-1] == 0:
        roots.append(Fraction(0))
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return roots
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ic = [int(c * den) for c in coeffs]
    lead, const = ic[0], ic[-1]

    def divisors(k):
        k = abs(k)
        out = set()
        d = 1
        while d * d <= k:
            if k % d == 0:
                out.add(d)
                out.add(k // d)
            d += 1
        return out

    cands = set()
    for p in divisors(const):
        for q in divisors(lead):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    for cand in sorted(cands):
        while len(coeffs) > 1 and poly_eval(coeffs, cand) == 0:
            roots.append(cand)
            coeffs, _ = poly_divmod_linear(coeffs, cand)
    return roots
