"""Exact linear algebra over the rationals.

Small dense matrices are lists of row-lists with int/Fraction entries
(ints are kept as long as possible, they are much faster).  The sparse
rank routine works on rows given as {col: value} dicts and is the
workhorse behind the Hom-space dimension oracle.
"""

from fractions import Fraction
from math import gcd


def _as_int_rows(rows):
    """Clear denominators row-wise, return integer rows (dict col->int)."""
    out = []
    for row in rows:
        den = 1
        for v in row.values():
            if isinstance(v, Fraction):
                den = den * v.denominator // gcd(den, v.denominator)
        new = {}
        for c, v in row.items():
            w = v * den
            w = int(w)
            if w:
                new[c] = w
        if new:
            out.append(new)
    return out


def sparse_rank(rows, ncols=None):
    """Rank of a sparse integer/rational matrix.

    Fraction-free elimination: the pivot row is combined into others by
    cross-multiplication, and each row is reduced by its content (gcd)
    to keep entries small.
    """
    rows = _as_int_rows(rows)
    # column -> list index of the row used as pivot there
    pivot_of_col = {}
    rank = 0
    # process rows sparsest-first; re-queue rows after reduction
    queue = sorted(rows, key=len)
    while queue:
        row = queue.pop()
        while row:
            c = min(row)
            piv = pivot_of_col.get(c)
            if piv is None:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                if g > 1:
                    row = {cc: vv // g for cc, vv in row.items()}
                pivot_of_col[c] = row
                rank += 1
                break
            a = row[c]
            b = piv[c]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            new = {}
            for cc, vv in row.items():
                new[cc] = vv * ma
            for cc, vv in piv.items():
                w = new.get(cc, 0) - vv * mb
                if w:
                    new[cc] = w
                elif cc in new:
                    del new[cc]
            row = new
    return rank


def frac_mat(m):
    return [[Fraction(x) for x in row] for row in m]


def mat_mul(a, b):
    """Product of dense matrices (lists of rows)."""
    if not a or not b:
        return [[] for _ in a]
    nb = len(b[0])
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rref(mat, ncols=None):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in mat]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(mat):
    if not mat or not mat[0]:
        return 0
    _, pivots = rref(mat)
    return len(pivots)


def nullspace(mat, ncols):
    """Basis of the right kernel of a dense matrix, as column vectors."""
    red, pivots = rref(mat, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def solve(mat, rhs):
    """One solution of mat*x = rhs, or None if inconsistent."""
    n = len(mat)
    ncols = len(mat[0]) if mat else 0
    aug = [list(mat[i]) + [rhs[i]] for i in range(n)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return x


def is_invertible(mat):
    n = len(mat)
    if n == 0:
        return True
    if any(len(row) != n for row in mat):
        return False
    return rank(mat) == n


def mat_inverse(mat):
    n = len(mat)
    aug = [list(Fraction(x) for x in mat[i]) + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red[:n]]


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
