"""Fraction references for the exact kernel, kept beside the tests as
checks that share no code path with it: plain Gauss-Jordan on ``Fraction``
entries, with rank, null space, solve, inverse, determinant and span
coordinates read off it; symmetric Gaussian elimination for the inertia;
dense matrix products and congruences; the triple residual summed over
every basis triple; and structure constants and the Killing Gram from
dense matrix commutators.  ``ad_m`` is no reference: it reads the kernel's
integer ad_m table as ``Fraction``s, for the tests that compare it with
dense brackets."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[Fraction(x) for x in row] for row in rows]
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


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows) -> list[tuple[Fraction, ...]]:
    """Kernel basis, one vector per free column, each scaled to coprime
    integers with its first nonzero entry positive."""
    if not rows:
        return []
    nc = len(rows[0])
    red, pivots = rref(rows)
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        x = [Fraction(0)] * nc
        x[f] = Fraction(1)
        for i, p in enumerate(pivots):
            x[p] = -red[i][f]
        basis.append(_primitive(x))
    return basis


def _primitive(x) -> tuple[Fraction, ...]:
    den = lcm(*(a.denominator for a in x))
    ints = [int(a * den) for a in x]
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def solve(a_rows, b):
    """One solution of A x = b with the free variables zero, or None."""
    nc = len(a_rows[0]) if a_rows else 0
    red, pivots = rref([list(row) + [bi] for row, bi in zip(a_rows, b)])
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, p in enumerate(pivots):
        x[p] = red[i][nc]
    return tuple(x)


def inverse(a):
    """The inverse of a square matrix, or None when it is singular."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(red[i][n:]) for i in range(n))


def det(a) -> Fraction:
    """Product of the pivots of forward elimination, signed by the swaps."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def coords(rows, v):
    """c with sum_i c_i rows_i == v, or None when v is outside the span."""
    return solve([[row[j] for row in rows] for j in range(len(v))], v)


def ad_m(emb, x):
    """ad_x on m in m-coordinates as Fractions: the (M, den) of
    ``ad_m_ints`` read as M / den."""
    rows, den = emb.ad_m_ints(x)
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def _matmul(a, b):
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                for j in range(n):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def structure_constants(basis):
    """c[i][j]: the coordinates of [b_i, b_j] = b_i b_j - b_j b_i in the
    basis, from dense matrix products solved with coords()."""
    flat = [[Fraction(x) for row in b for x in row] for b in basis]
    out = []
    for bi in basis:
        row = []
        for bj in basis:
            comm = [x - y for rx, ry in zip(_matmul(bi, bj), _matmul(bj, bi))
                    for x, y in zip(rx, ry)]
            row.append(coords(flat, comm))
        out.append(row)
    return out


def killing_gram(c):
    """K_ab = Tr(ad_a ad_b) with (ad_a)_kj = c[a][j][k], every term summed."""
    d = len(c)
    return tuple(tuple(sum((c[a][j][k] * c[b][k][j] for j in range(d)
                            for k in range(d)), Fraction(0))
                       for b in range(d)) for a in range(d))


def ad_on(g, x, rows):
    """Matrix of ad_x on the rows: column j is the dense bracket [x, rows_j]."""
    return tuple(zip(*(g.bracket(x, r) for r in rows)))


def mat_mul(a, b):
    """The dense product of two matrices, as a tuple of Fraction rows."""
    return tuple(tuple(sum((Fraction(x) * y for x, y in zip(row, col)),
                           Fraction(0)) for col in zip(*b)) for row in a)


def congruence(rows, m):
    """rows . m . rows^T: the Gram of the bilinear form m over the rows."""
    return mat_mul(mat_mul(rows, m), tuple(zip(*rows)))


def inertia(a) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) of a symmetric matrix by symmetric Gaussian
    elimination on Fractions, with e_i <- e_i + e_j for a zero diagonal."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    pos = neg = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if m[i][j]), None)
            if off is None:
                break
            i, j = off
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            piv = i
        m[k], m[piv] = m[piv], m[k]
        for row in m:
            row[k], row[piv] = row[piv], row[k]
        d = m[k][k]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        for i in range(k + 1, n):
            f = m[i][k] / d
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
        for i in range(k + 1, n):
            m[i][k] = Fraction(0)
        for j in range(k + 1, n):
            m[k][j] = Fraction(0)
    return pos, neg, n - pos - neg


def triple_residual(c, table):
    """max |sum_cyc sum_l c[i][j][l] * table[l][k]| over basis triples
    i < j < k, every term summed: c[i][j] and table[l][k] are dense
    Fraction vectors."""
    d = len(c)
    worst = Fraction(0)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                total = [Fraction(0)] * len(table[0][0])
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    for l in range(d):
                        if c[a][b][l]:
                            total = [t + c[a][b][l] * v
                                     for t, v in zip(total, table[l][e])]
                worst = max([worst, *map(abs, total)])
    return worst
