"""Exact rational linear algebra on plain Python fractions.

Wall tests and reductive splittings must distinguish zero from small, so
every rank, kernel and signature decision on exact data is made here with
rational arithmetic.  Floating point enters the package only through the
explicitly numeric oracles (SVD based tests in the fatness and curvature
modules).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, 'p/q' strings, floats (exactly) to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def sparse_vec(x) -> dict[int, Fraction]:
    """The nonzero entries {index: value} of a vector."""
    return {i: frac(a) for i, a in enumerate(x) if a}


def dense_vec(x: dict, n: int) -> Vec:
    """The length-n vector holding the entries of a sparse {index: value}."""
    out = [ZERO] * n
    for i, a in x.items():
        out[i] = a
    return tuple(out)


def dot(x, y) -> Fraction:
    """Sum of x_i * y_i over the terms where both factors are nonzero."""
    return sum((a * b for a, b in zip(x, y) if a and b), ZERO)


def sparse_dot(x: dict, y: dict) -> Fraction:
    """dot() of two sparse {index: value} vectors, over the smaller one."""
    if len(y) < len(x):
        x, y = y, x
    return sum((a * y[i] for i, a in x.items() if i in y), ZERO)


def vec_mat(x, a) -> Vec:
    """Row vector times matrix: sum_i x_i * a[i]."""
    n = len(a[0]) if a else 0
    out = [ZERO] * n
    for xi, row in zip(x, a):
        if xi:
            for j, r in enumerate(row):
                if r:
                    out[j] += xi * r
    return tuple(out)


def gram(a, b) -> Mat:
    """Pairwise dot products: entry (i, j) is a[i] . b[j]."""
    return tuple(tuple(dot(x, y) for y in b) for x in a)


def congruence(rows, m) -> Mat:
    """rows . m . rows^T: the Gram of the bilinear form m over the rows."""
    return gram([vec_mat(r, m) for r in rows], rows)


def mat_mul(a, b) -> Mat:
    return gram(a, transpose(b))


def transpose(a) -> Mat:
    return tuple(zip(*a)) if a else ()


def sub_vec(x, y) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def primitive(x) -> Vec:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    x = vec(x)
    ints, _ = _clear_denominators(x)
    g = gcd(*ints)
    if g == 0:
        return x
    lead = next(v for v in ints if v)
    if lead < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[frac(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        if p != 1:
            m[r] = [x / p for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def _clear_denominators(row) -> tuple[list[int], int]:
    """(row * denom as integers, denom) for denom the lcm of the row's
    denominators."""
    row = [frac(x) for x in row]
    denom = lcm(*(a.denominator for a in row))
    return [a.numerator * (denom // a.denominator) for a in row], denom


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators (preserves rank and
    kernel); also returns the product of the scale factors."""
    cleared = [_clear_denominators(row) for row in rows]
    return [ints for ints, _ in cleared], prod(d for _, d in cleared)


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of an integer matrix.

    Returns (rank, last pivot signed by the parity of the row swaps); for a
    square matrix of full rank that signed pivot is the determinant.
    """
    m = [list(r) for r in rows if any(r)]
    nr = len(m)
    nc = len(m[0]) if m else 0
    r = 0
    prev = 1
    sign = 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nr):
            row_i = m[i]
            mic = row_i[c]
            for j in range(c + 1, nc):
                row_i[j] = (p * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = p
        r += 1
        if r == nr:
            break
    return r, sign * prev


def rank(rows) -> int:
    """Rank of a rational matrix (denominators cleared, then Bareiss)."""
    return _bareiss(_integer_rows(rows)[0])[0]


def nullspace(rows) -> list[Vec]:
    """Basis of {x : A x = 0}, in primitive integer form."""
    if not rows:
        return []
    nc = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        x = [ZERO] * nc
        x[f] = ONE
        for i, p in enumerate(pivots):
            x[p] = -red[i][f]
        basis.append(primitive(x))
    return basis


def solve(a_rows, b) -> Vec | None:
    """One solution of A x = b, or None if inconsistent.  Free variables
    are set to zero."""
    nc = len(a_rows[0]) if a_rows else 0
    aug = [list(row) + [bi] for row, bi in zip(a_rows, b)]
    red, pivots = rref(aug)
    if nc in pivots:
        return None
    x = [ZERO] * nc
    for i, p in enumerate(pivots):
        x[p] = red[i][nc]
    return tuple(x)


def inverse(a) -> Mat:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    aug = [list(row) + list(unit_vec(n, i)) for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def det(a) -> Fraction:
    """Determinant of a square rational matrix by the Bareiss kernel."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("det needs a square matrix")
    rows, scale = _integer_rows(a)
    r, pivot = _bareiss(rows)
    if r < len(rows):
        return ZERO
    return Fraction(pivot, scale)


def inertia(a) -> tuple[int, int, int]:
    """Signature (n_pos, n_neg, n_zero) of an exact symmetric matrix,
    computed by congruence (symmetric Gaussian) elimination."""
    m = [[frac(x) for x in row] for row in a]
    n = len(m)
    pos = neg = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if m[i][i] != 0), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if m[i][j] != 0), None)
            if off is None:
                break
            i, j = off
            # e_i <- e_i + e_j turns the zero diagonal entry into 2 m_ij.
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            piv = i
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for r in range(n):
                m[r][k], m[r][piv] = m[r][piv], m[r][k]
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / d
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
        for j in range(k + 1, n):
            if m[k][j]:
                f = m[k][j] / d
                for i in range(k, n):
                    m[i][j] -= f * m[i][k]
        k += 1
    return pos, neg, n - pos - neg


class CoordinateSolver:
    """Expresses vectors in a fixed linearly independent spanning set.

    Rows are the spanning vectors; ``coords(v)`` returns c with
    sum_i c_i rows_i == v, exactly, or None when v is outside the span.
    The pivot submatrix is inverted once so repeated solves are cheap, and
    ``sparse_coords`` works on {index: value} dicts without touching the
    zero entries.
    """

    def __init__(self, rows):
        self.rows: Mat = mat(rows)
        _, pivots = rref(self.rows)
        if len(pivots) != len(self.rows):
            raise ValueError("spanning set is linearly dependent")
        pivot_block = tuple(tuple(row[p] for p in pivots) for row in self.rows)
        # Nonzero (j, x) of each inverse pivot-block row, keyed by pivot.
        self._inv_rows: dict[int, list[tuple[int, Fraction]]] = {
            p: [(j, x) for j, x in enumerate(row) if x]
            for p, row in zip(pivots, inverse(pivot_block))}
        self.sparse_rows = [sparse_vec(row) for row in self.rows]

    def sparse_coords(self, v: dict) -> dict | None:
        """Nonzero coordinates {j: c_j} of a sparse {index: value} vector,
        or None when it is outside the span."""
        # A new key takes its first term as is, with no Fraction sum.
        c: dict[int, Fraction] = {}
        for p, vp in v.items():
            for j, x in self._inv_rows.get(p, ()):
                c[j] = c[j] + vp * x if j in c else vp * x
        c = {j: cj for j, cj in c.items() if cj}
        # Verify membership in the span.
        recon: dict[int, Fraction] = {}
        for j, cj in c.items():
            for i, x in self.sparse_rows[j].items():
                recon[i] = recon[i] + cj * x if i in recon else cj * x
        return c if {i: x for i, x in recon.items() if x} == v else None

    def coords(self, v) -> Vec | None:
        """Coordinates of a dense vector or a sparse {index: value} dict."""
        c = self.sparse_coords(v if isinstance(v, dict) else sparse_vec(v))
        return None if c is None else dense_vec(c, len(self.rows))
