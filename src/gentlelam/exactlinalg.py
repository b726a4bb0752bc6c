"""Exact linear algebra over the rationals.

All elimination goes through one kernel: sparse elimination on integer
rows, fraction-free in the sense of Bareiss (1968): rows are combined by
cross-multiplying with the cofactors of the gcd of the two entries, and
a kept row is divided by its content.  It takes rows as dense lists or
as {col: value} dicts, with int or Fraction entries, and clears
denominators row by row, so the elimination itself runs on Python ints.

It runs in two steps.  The forward pass (`_forward`) reduces each row by
the pivot row of its leading column until the row leads in a new
column, and keeps it primitive with a positive leading entry; the number
of rows it keeps is the rank, which is all `sparse_rank` and
`is_invertible` read.  One back-substitution (`_echelon`), largest pivot
first, then clears every pivot column from the other rows.  `_echelon`
returns {pivot column: primitive integer row}, every row zero in every
other pivot column and positive at its own pivot: the reduced row
echelon form up to one positive scale per row.  That form is unique, so
the result does not depend on the order of the rows, and `rref` (each
row divided by its pivot entry), `nullspace`, `solve` and `mat_inverse`
are views of it.  `_kernel_point` reads one integer kernel vector off
it for given values of the free unknowns; `nullspace` builds its basis
with it, and `strings._hom_space` the module maps of `strings` (the
maps through word modules that `decompose` peels summands off along,
and the isomorphism certificates of modules that are not both in
monomial bases).  Band parameters go through the same kernel:
`strings.band_lambda_candidates` reads them off a `nullspace` of integer
intertwiner rows and the `rational_roots` of the `charpoly` of a small
rational matrix.  Only these roots take integer polynomial arithmetic:
from degree 3 on, a squarefree part by Euclid's algorithm with
pseudo-remainders (`_squarefree`, `_pseudo_remainder`) and Hensel
lifting of its roots modulo a prime (`_integer_roots`).

Dense matrices are lists of row-lists.  `nullspace` returns primitive
integer vectors; `mat_inverse` gives integral entries as int (so the
inverse of a unimodular integer matrix is an integer matrix); `rref`
and `solve` carry Fraction entries.
"""

import itertools
from fractions import Fraction
from math import gcd, isqrt

from .errors import InternalError


def _int_row(row):
    """A dense or {col: value} row as {col: int}, denominators cleared."""
    out = {c: v for c, v in
           (row.items() if isinstance(row, dict) else enumerate(row)) if v}
    for v in out.values():
        if type(v) is not int:
            break
    else:
        return out
    den = _denominator(out.values())
    return {c: int(v * den) for c, v in out.items()}


def _denominator(values):
    """The lcm of the denominators of the Fraction values."""
    den = 1
    for v in values:
        if isinstance(v, Fraction):
            den = den * v.denominator // gcd(den, v.denominator)
    return den


def _normal(row, c):
    """row divided by its content, signed so that row[c] > 0."""
    if row[c] == 1:
        return row
    if row[c] == -1:
        return {cc: -v for cc, v in row.items()}
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[c] < 0:
        g = -g
    return {cc: v // g for cc, v in row.items()} if g != 1 else row


def _clear(row, piv, c):
    """b row - a piv divided by gcd(a, b), for a = row[c] and the
    positive pivot entry b = piv[c]: a positive multiple of row minus one
    of piv, zero in column c.  On b = 1 the row is copied, not
    rescaled."""
    a, b = row[c], piv[c]
    if b == 1:
        new, mb = dict(row), a
    else:
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


def _forward(rows):
    """{leading column: row} of an echelon form of the rows: each row is
    reduced by the pivot row of its leading column until it leads in a
    column no pivot row leads in, and is then kept, primitive with a
    positive leading entry.  Its size is the rank."""
    pivots = {}
    for row in map(_int_row, rows):
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = _normal(row, c)
                break
            row = _clear(row, piv, c)
    return pivots


def _echelon(rows):
    """{pivot column: primitive integer row} of the reduced echelon form,
    each pivot entry positive: the forward pass, then one
    back-substitution, largest pivot first.  A row reduced there leads in
    its pivot and is zero in every larger pivot column, so clearing it
    from a smaller pivot row brings no other pivot column back."""
    pivots = _forward(rows)
    if len(pivots) < 2:
        return pivots
    done = {}
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        hits = [c for c in row if c in done]
        for c in hits:
            row = _clear(row, done[c], c)
        done[p] = _normal(row, p) if hits else row
    return done


def sparse_rank(rows):
    """Rank of a matrix given as dense or {col: value} rows, read off
    the forward pass."""
    return len(_forward(rows))


def mat_mul(a, b):
    """Product of dense matrices (lists of rows).

    A b with no rows does not tell the product's column count, so a
    nonempty a times such a b raises `InternalError`; an empty a gives
    the empty product."""
    if not a:
        return []
    if not b:
        raise InternalError(
            f"mat_mul: {len(a)} rows times a matrix with no rows")
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


def _kernel_point(ech, ncols, values):
    """The integer vector x with ech x = 0 that is L t_f at each free
    column f of values = {f: t_f} and 0 at the other free columns, ech
    being a reduced echelon form (`_echelon`) and L the lcm of the pivot
    entries of the rows that meet values.  Each pivot unknown follows by
    back-substitution over the integers: x_p = -(L / row[p]) sum_f
    row[f] t_f."""
    keys = values.keys()
    hits = [(p, row) for p, row in ech.items()
            if not keys.isdisjoint(row)]
    lcm = 1
    for p, row in hits:
        lcm = lcm * row[p] // gcd(lcm, row[p])
    x = [0] * ncols
    for f, t in values.items():
        x[f] = lcm * t
    for p, row in hits:
        x[p] = -(lcm // row[p]) * sum([row.get(f, 0) * t
                                       for f, t in values.items()])
    return x


def nullspace(mat, ncols):
    """Basis of the right kernel of a matrix given as dense or
    {col: value} rows, as column vectors: one per free column f, the
    kernel vector that is 1 at f and 0 at the other free columns
    (`_kernel_point`), made primitive (integer entries with gcd 1,
    positive at f)."""
    ech = _echelon(mat)
    basis = []
    for f in range(ncols):
        if f in ech:
            continue
        v = _kernel_point(ech, ncols, {f: 1})
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
    return len(_forward(mat)) == n


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

    Faddeev-LeVerrier over the integers: for an integer matrix B the
    steps M_1 = I, c_k = -tr(B M_k) / k, M_{k+1} = B M_k + c_k I divide
    exactly, since each c_k is a coefficient of det(xI - B).  A rational
    matrix is written B / D with B integral, and det(xI - B / D) has the
    coefficients c_k / D^k.  Coefficients are int when integral, else
    Fraction.  A 2 x 2 matrix gets x^2 - tr x + det directly.
    """
    n = len(mat)
    if n == 2:
        (a, b), (c, d) = mat
        return [1] + [x if type(x) is int else _ratio(x.numerator,
                                                      x.denominator)
                      for x in (-(a + d), a * d - b * c)]
    den = _denominator(v for row in mat for v in row)
    b = [[int(v * den) for v in row] for row in mat]
    coeffs = [1]
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(b, m)
        c = -sum(m[i][i] for i in range(n)) // k
        coeffs.append(_ratio(c, den ** k))
        for i in range(n):
            m[i][i] += c
    return coeffs


def rational_roots(coeffs):
    """All rational roots (with multiplicity) of a polynomial over Q,
    given from the leading coefficient down, as Fractions: the zero
    roots first, then the others in increasing order.

    The coefficients are scaled to integers a_0 x^n + ... + a_n.  After
    the zero roots are stripped, y = a_0 x turns the polynomial into the
    monic integer one h(y) = sum_i a_i a_0^(i-1) y^(n-i), whose rational
    roots are integers (`_integer_roots`); each root y / a_0 = p/q is
    divided out as the factor q x - p as often as the homogeneous value
    sum_i a_i p^(n-i) q^i is zero, which leaves an integer quotient
    (Gauss's lemma).  No divisor of a coefficient is enumerated: in a
    characteristic polynomial the constant is a power of a repeated
    eigenvalue, and trial division up to its square root can take
    hours.  A linear a x + b has the root -b/a, and a quadratic
    a x^2 + b x + c the roots (-b +- s) / 2a when its discriminant is a
    square s^2 (`math.isqrt`); only from degree 3 on is h lifted."""
    row = _int_row(coeffs)
    if not row:
        return []
    lo, hi = min(row), max(row)
    roots = [Fraction(0)] * (len(coeffs) - 1 - hi)
    ic = [row.get(i, 0) for i in range(lo, hi + 1)]
    if len(ic) <= 1:
        return roots
    if len(ic) == 2:
        return roots + [Fraction(-ic[1], ic[0])]
    if len(ic) == 3:
        a, b, c = ic
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return roots
        return roots + sorted((Fraction(-b - s, 2 * a),
                               Fraction(-b + s, 2 * a)))
    a = ic[0]
    h = [1] + [c * a ** i for i, c in enumerate(ic[1:])]
    for r in sorted(Fraction(y, a) for y in _integer_roots(h)):
        p, q = r.numerator, r.denominator
        while len(ic) > 1 and _homogeneous_value(ic, p, q) == 0:
            roots.append(r)
            ic = _divide_linear(ic, p, q)
    return roots


def _integer_roots(h):
    """The distinct integer roots of a monic integer polynomial h (from
    the leading coefficient down) with h(0) != 0.

    They are the roots of its squarefree part g = h / gcd(h, h'), which is
    monic and integral (Gauss's lemma) and has only simple roots.  For the
    first prime l at which every root of g modulo l is simple, each root
    modulo l lifts (Hensel, quadratically) to a unique root modulo some
    m > 2 (1 + max |g_i|), twice Cauchy's bound on the roots; the
    symmetric residue is kept when it is an exact root.  Every integer
    root reduces to one of the roots modulo l, so none is missed, and the
    work grows with the number of digits of the roots, not their size."""
    g = _squarefree(h)
    dg = [c * (len(g) - 1 - i) for i, c in enumerate(g[:-1])]
    bound = 2 * (1 + max(abs(c) for c in g[1:]))
    ell = 2
    while True:
        rs = [r for r in range(ell) if _homogeneous_value(g, r, 1) % ell == 0]
        if all(_homogeneous_value(dg, r, 1) % ell for r in rs):
            break
        ell = next(k for k in itertools.count(ell + 1)
                   if all(k % j for j in range(2, k)))
    out = []
    for r in rs:
        m = ell
        while m <= bound:
            m *= m
            r = (r - _homogeneous_value(g, r, 1)
                 * pow(_homogeneous_value(dg, r, 1), -1, m)) % m
        r = r - m if 2 * r > m else r
        if _homogeneous_value(g, r, 1) == 0:
            out.append(r)
    return out


def _squarefree(h):
    """h / gcd(h, h') for a monic integer polynomial h (from the leading
    coefficient down), as a monic integer polynomial.  The gcd comes from
    Euclid's algorithm over Z[x] with primitive pseudo-remainders; it is
    an associate of a monic integer polynomial (Gauss's lemma), so made
    primitive with a positive leading coefficient it is monic, and the
    division by it stays in the integers."""
    n = len(h) - 1
    a, b = h, [c * (n - i) for i, c in enumerate(h[:-1])]
    while len(b) > 1:
        a, b = b, _pseudo_remainder(a, b)
    if b:
        return h  # a constant remainder: h and h' are coprime
    a = list(_normal(dict(enumerate(a)), 0).values())
    quo, rem = [], list(h)
    while len(rem) >= len(a):
        c = rem[0]
        quo.append(c)
        rem = [x - c * y for x, y in zip(rem[1:], a[1:])] + rem[len(a):]
    return quo


def _pseudo_remainder(a, b):
    """The primitive part, with a positive leading coefficient, of the
    remainder of b[0]^k a by b (k = one more than the difference of the
    degrees), over Z[x], with no leading zeros; [] when b divides a."""
    rem = list(a)
    while len(rem) >= len(b):
        c = rem[0]
        rem = [x * b[0] - c * y for x, y in zip(rem[1:], b[1:])] + \
            [x * b[0] for x in rem[len(b):]]
    while rem and not rem[0]:
        rem.pop(0)
    return list(_normal(dict(enumerate(rem)), 0).values()) if rem else []


def _homogeneous_value(ic, p, q):
    """q^n f(p/q) for the integer polynomial ic of degree n."""
    acc, qk = 0, 1
    for c in ic:
        acc = acc * p + c * qk
        qk *= q
    return acc


def _divide_linear(ic, p, q):
    """The integer quotient of ic by q x - p, which divides it."""
    out = [ic[0] // q]
    for c in ic[1:-1]:
        out.append((c + p * out[-1]) // q)
    return out
