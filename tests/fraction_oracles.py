"""Fraction references for the exact kernel, kept beside the tests as
checks that share no code path with it: plain Gauss-Jordan on ``Fraction``
entries, with rank, null space, solve, inverse, determinant and span
coordinates read off it; symmetric Gaussian elimination for the inertia;
dense matrix products and congruences; the dense inputs the tests build
(``unit_vec``, ``identity``, ``vec_mat`` and ``primitive``); the triple
residual summed over every basis triple; structure constants and the
Killing Gram from dense matrix commutators; the [rows | I] span solver
(``Solver``), which eliminates whatever the rows' supports are, the
structure constants of every basis pair through it
(``structure_all_pairs``) and the Killing rows from them by one dense
contraction (``killing_rows``).  ``ad_m`` is no
reference: it reads the kernel's integer ad_m entries as ``Fraction``s, for
the tests that compare it with dense brackets; nor are ``coords_of_matrix``,
which reads a matrix through the kernel's flat solver, or ``killing``, the
Gram read off the kernel's covectors.  ``dot`` is the dense pairing.
The so(n), so(p, q), u(n) and su(n) bases are written out as dense
matrices from their definitions (``so_basis``, ``so_pq_basis``,
``u_basis``, ``su_basis``), ``shift_by_sign_patterns`` is the
moment-polytope shift found by enumerating sign patterns, and
``strict_feasible`` the Fourier-Motzkin solve of a strict system on
``Fraction`` rows, dividing each bound by its coefficient."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

import numpy as np

ZERO = Fraction(0)  # shared: most entries are zero


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[Fraction(x) if x else ZERO for x in row] for row in rows]
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
    ints = [a.numerator * (den // a.denominator) for a in x]
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def primitive(x) -> tuple[Fraction, ...]:
    """x scaled to coprime integers, its first nonzero entry positive; the
    zero vector as it is."""
    x = [Fraction(a) for a in x]
    return _primitive(x) if any(x) else tuple(x)


def unit_vec(n: int, i: int) -> tuple[Fraction, ...]:
    """The i-th unit vector of length n, as Fractions."""
    return tuple(Fraction(int(j == i)) for j in range(n))


def identity(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(unit_vec(n, i) for i in range(n))


def vec_mat(x, a) -> tuple[Fraction, ...]:
    """The row vector x times the matrix a: sum_i x_i a[i], as Fractions."""
    out = [ZERO] * (len(a[0]) if a else 0)
    for xi, row in zip(x, a):
        if xi:
            for j, r in enumerate(row):
                if r:
                    out[j] += xi * r
    return tuple(out)


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


def coords_of_matrix(g, m):
    """The g-coordinates of an n x n matrix, or None: the kernel's flat
    solver on the flattened entries (no reference either)."""
    return g._flat_solver.coords([x for row in m for x in row])


def ad_m(emb, x):
    """ad_x on m in m-coordinates as Fractions: the entries (M, den) of
    ``ad_m_entries`` read as M / den."""
    entries, den = emb.ad_m_entries(x)
    return tuple(tuple(Fraction(entries.get((i, j), 0), den) for j in range(emb.dim_m))
                 for i in range(emb.dim_m))


def dot(x, y) -> Fraction:
    """sum_i x_i y_i, every term summed; B(x, y) is dot(x, g.covector(y))."""
    return sum((Fraction(a) * b for a, b in zip(x, y)), Fraction(0))


def killing(g):
    """The Killing Gram of g: row i is the covector K e_i."""
    return tuple(g.covector([int(i == j) for j in range(g.dim)]) for i in range(g.dim))


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


class Solver:
    """Span coordinates from the reduced row echelon form of [rows | I]:
    the I part holds the inverse of the pivot block, a coordinate c_j sums
    v_p times its entries over the pivots p, and a solve is kept only when
    sum_j c_j rows_j recombines to v.  Rows are dense or sparse
    {index: value}; c is built in the order the entries of v reach it."""

    def __init__(self, rows):
        self.rows = [dict(r) if isinstance(r, dict) else
                     {i: Fraction(x) for i, x in enumerate(r) if x} for r in rows]
        n = 1 + max((max(r) for r in self.rows if r), default=-1)
        red, pivots = rref([[r.get(j, 0) for j in range(n)] +
                            [int(i == j) for j in range(len(self.rows))]
                            for i, r in enumerate(self.rows)])
        if any(p >= n for p in pivots):
            raise ValueError("spanning set is linearly dependent")
        # Integral entries as ints, only for speed.
        self.inv = {p: [(j, int(x) if x.denominator == 1 else x)
                        for j, x in enumerate(row[n:]) if x]
                    for row, p in zip(red, pivots)}

    def sparse_coords(self, v: dict):
        c: dict = {}
        for p, vp in v.items():
            for j, x in self.inv.get(p, ()):
                c[j] = c.get(j, 0) + vp * x
        c = {j: x for j, x in c.items() if x}
        back: dict = {}
        for j, cj in c.items():
            for i, x in self.rows[j].items():
                back[i] = back.get(i, 0) + cj * x
        return c if {i: x for i, x in back.items() if x} == v else None


def commutator(a: dict, b: dict, n: int) -> dict:
    """ab - ba for n x n matrices held as {r * n + c: value}, nonzero
    entries only: a_rc and b_st meet in (ab)_rt when c == s and in (ba)_sc
    when t == r."""
    out: dict = {}
    for ka, u in a.items():
        r, c = divmod(ka, n)
        for kb, v in b.items():
            s, t = divmod(kb, n)
            if c == s:
                p, k = u * v, r * n + t
                out[k] = out[k] + p if k in out else p
            if t == r:
                p, k = u * v, s * n + c
                out[k] = out[k] - p if k in out else -p
    return {k: x for k, x in out.items() if x}


def structure_all_pairs(flats, n: int) -> dict:
    """{(i, j): c^k_ij} for every pair i < j of flattened n x n basis
    matrices {r * n + c: value} with a nonzero commutator, in that order,
    solved by ``Solver``; ValueError names the first pair that leaves the
    span."""
    solver = Solver(flats)
    out = {}
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            comm = commutator(flats[i], flats[j], n)
            if not comm:
                continue
            ck = solver.sparse_coords(comm)
            if ck is None:
                raise ValueError("basis does not close under the commutator "
                                 f"(elements {i}, {j})")
            out[(i, j)] = ck
    return out


def killing_rows(structure: dict, dim: int) -> list[dict]:
    """The nonzero entries of K_ab = Tr(ad_a ad_b), row by row in column
    order, from {(i, j): c^k_ij} with i < j: one contraction of the dense
    (ad_a)_kj = c^k_aj, in int64 when every constant is an integer (exact
    at these sizes), else over Fraction objects."""
    ints = all(v == int(v) for ck in structure.values() for v in ck.values())
    ad = np.zeros((dim, dim, dim), dtype=np.int64 if ints else object)
    if not ints:
        ad[...] = Fraction(0)
    for (i, j), ck in structure.items():
        for k, v in ck.items():
            ad[i, k, j], ad[j, k, i] = v, -v
    gram = np.einsum("akj,bjk->ab", ad, ad)
    return [{b: int(x) if ints else x for b, x in enumerate(row) if x}
            for row in gram]


# -- the classical bases as dense matrices, from their definitions ----------

def _matrix(n: int, entries: dict) -> list[list]:
    """The n x n matrix with the given {(r, c): value} entries, else 0."""
    return [[entries.get((r, c), 0) for c in range(n)] for r in range(n)]


def antisym(n: int, r: int, c: int) -> list[list]:
    """E_rc - E_cr."""
    return _matrix(n, {(r, c): 1, (c, r): -1})


def so_basis(n: int) -> list[list[list]]:
    """so(n) = {X : X^T = -X}: the E_ij - E_ji for i < j, in (i, j) order."""
    return [antisym(n, i, j) for i in range(n) for j in range(i + 1, n)]


def so_pq_basis(p: int, q: int) -> list[list[list]]:
    """so(p, q) = {X : X^T J + J X = 0}, J = diag(1_p, -1_q): the so(p) and
    so(q) blocks, then E_ia + E_ai for i < p <= a, each in (i, a) order."""
    n = p + q
    return ([antisym(n, i, j) for i in range(p) for j in range(i + 1, p)]
            + [antisym(n, a, b) for a in range(p, n) for b in range(a + 1, n)]
            + [_matrix(n, {(i, a): 1, (a, i): 1}) for i in range(p) for a in range(p, n)])


def _realified(n: int, z: dict) -> list[list]:
    """The 2n x 2n real form of the complex n x n matrix with entries
    {(j, k): z_jk}: z_jk = a + ib becomes the block [[a, -b], [b, a]]."""
    entries = {}
    for (j, k), w in z.items():
        a, b = int(w.real), int(w.imag)
        entries.update({(2 * j, 2 * k): a, (2 * j, 2 * k + 1): -b,
                        (2 * j + 1, 2 * k): b, (2 * j + 1, 2 * k + 1): a})
    return _matrix(2 * n, entries)


def _skew_hermitian_off_diagonal(n: int) -> list[list[list]]:
    """E_jk - E_kj, then i(E_jk + E_kj), for each j < k, realified."""
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            out.append(_realified(n, {(j, k): 1, (k, j): -1}))
            out.append(_realified(n, {(j, k): 1j, (k, j): 1j}))
    return out


def u_basis(n: int) -> list[list[list]]:
    """u(n) = {Z : Z^* = -Z} inside so(2n): the off-diagonal pairs, then
    i E_jj, realified."""
    return _skew_hermitian_off_diagonal(n) + [_realified(n, {(j, j): 1j}) for j in range(n)]


def su_basis(n: int) -> list[list[list]]:
    """su(n), the traceless u(n): the off-diagonal pairs, then
    i (E_jj - E_j+1,j+1), realified."""
    return _skew_hermitian_off_diagonal(n) + [
        _realified(n, {(j, j): 1j, (j + 1, j + 1): -1j}) for j in range(n - 1)]


# -- the moment-polytope shift by sign-pattern enumeration ------------------

def shift_by_sign_patterns(vertices, forbidden, nvars: int, feasible):
    """The first witness of a search over every sign pattern s of the
    forbidden {alpha, -alpha} pairs (one representative each, the larger
    of the two, in sorted order), in itertools.product((1, -1)) order: the
    strict system s alpha(v + a) > 0 over all vertices v, that is
    alpha(a) > -min alpha(v) for s = 1 and -alpha(a) > max alpha(v) for
    s = -1, solved by ``feasible(constraints, nvars)``.  A zero pair makes
    every pattern infeasible; None when no pattern is feasible.  The
    enumeration is the reference; ``feasible`` is a Fourier-Motzkin solve
    on those ``Fraction`` constraints, such as ``strict_feasible``."""
    pairs = sorted({max(r, tuple(-c for c in r)) for r in forbidden})
    if not pairs:
        return (Fraction(0),) * nvars
    ranges = []
    for root in pairs:
        vals = [sum((Fraction(a) * b for a, b in zip(root, v)), ZERO) for v in vertices]
        ranges.append((min(vals), max(vals)))
    for pattern in itertools.product((1, -1), repeat=len(pairs)):
        if any(not any(root) for root in pairs):
            continue
        constraints = [(tuple(Fraction(c) for c in root), -lo) if s > 0 else
                       (tuple(Fraction(-c) for c in root), hi)
                       for s, root, (lo, hi) in zip(pattern, pairs, ranges)]
        witness = feasible(constraints, nvars)
        if witness is not None:
            return witness
    return None


def strict_feasible(constraints, nvars: int):
    """A rational witness of the strict system {c . a > rhs} over
    (coeffs, rhs) pairs of Fractions, by Fourier-Motzkin elimination, or
    None when infeasible: a_v is bounded below by each row with c_v > 0 and
    above by each with c_v < 0, and a_v is the midpoint of the tightest
    bounds, one past the only one, or zero."""
    if nvars == 0:
        return () if all(rhs < 0 for _, rhs in constraints) else None
    v = nvars - 1
    lowers, uppers, rest = [], [], []
    for coeffs, rhs in constraints:
        cv = coeffs[v]
        if cv > 0:
            lowers.append((tuple(-c / cv for c in coeffs[:v]), rhs / cv))
        elif cv < 0:
            uppers.append((tuple(-c / cv for c in coeffs[:v]), rhs / cv))
        else:
            rest.append((coeffs[:v], rhs))
    # a_v > lo(a') and a_v < up(a')  =>  up - lo > 0.
    for lo_c, lo_r in lowers:
        for up_c, up_r in uppers:
            rest.append((tuple(u - l for u, l in zip(up_c, lo_c)), lo_r - up_r))
    tail = strict_feasible(rest, v)
    if tail is None:
        return None
    lo_vals = [r + sum((c * t for c, t in zip(cs, tail)), ZERO) for cs, r in lowers]
    up_vals = [r + sum((c * t for c, t in zip(cs, tail)), ZERO) for cs, r in uppers]
    if lo_vals and up_vals:
        val = (max(lo_vals) + min(up_vals)) / 2
    elif lo_vals:
        val = max(lo_vals) + 1
    elif up_vals:
        val = min(up_vals) - 1
    else:
        val = ZERO
    return tail + (val,)
