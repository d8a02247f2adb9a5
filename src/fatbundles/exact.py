"""Exact rational linear algebra on Python ints and fractions.

Wall tests and reductive splittings must distinguish zero from small, so
every rank, kernel and signature decision on exact data is made here with
rational arithmetic.  Floating point enters the package only through the
explicitly numeric oracles (SVD based tests in the fatness and curvature
modules).

An exact value is a Python int where it is integral and a ``Fraction``
otherwise (``rational``); sparse {index: value} vectors and the solver keep
that rule, so integer data never pays for ``Fraction`` arithmetic, and
every public ``Vec`` and ``Mat`` holds ``Fraction``s only.
"""

from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import DimensionMismatch

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
    """A coordinate sequence as Fractions; a str, bytes or mapping is none."""
    if type(xs) is not tuple and isinstance(xs, (str, bytes, Mapping)):
        raise DimensionMismatch(f"expected a coordinate vector, got {type(xs).__name__}")
    return tuple(frac(x) for x in xs)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def rational(x) -> int | Fraction:
    """frac(x) as an int when it is integral."""
    if type(x) is int:
        return x
    x = frac(x)
    return x if x.denominator != 1 else int(x.numerator)


def sparse_vec(x) -> dict[int, int | Fraction]:
    """The nonzero entries {index: rational(value)} of a vector."""
    return {i: v for i, a in enumerate(x) if a and (v := rational(a))}


def dense_vec(x: dict, n: int) -> Vec:
    """The length-n Fraction vector of a sparse {index: value}."""
    out = [ZERO] * n
    for i, a in x.items():
        out[i] = a if type(a) is Fraction else Fraction(a)
    return tuple(out)


def entry_rows(entries: dict, n: int) -> list[dict]:
    """The n sparse rows {j: value} of a sparse {(i, j): value} matrix."""
    rows: list[dict] = [{} for _ in range(n)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return rows


def dense_mat(entries: dict, n: int) -> list[list]:
    """The n x n rows of a sparse {(i, j): value} matrix."""
    return [[row.get(j, 0) for j in range(n)] for row in entry_rows(entries, n)]


def sparse_dot(x: dict, y: dict) -> int | Fraction:
    """sum_i x_i * y_i of two sparse {index: value} vectors, over the
    smaller one."""
    if len(y) < len(x):
        x, y = y, x
    return sum(a * y[i] for i, a in x.items() if i in y)


def sparse_combination(c: dict, rows) -> dict:
    """sum_j c_j rows_j for sparse {index: value} c and rows, nonzero only."""
    return {i: rational(x) for i, x in int_combination(c, rows).items()}


def int_combination(c: dict, rows) -> dict:
    """sum_j c_j rows_j for sparse {index: value} c and rows, nonzero only,
    its values as the arithmetic leaves them: ints on int data."""
    out: dict = {}
    for j, cj in c.items():
        if not cj:
            continue
        for i, x in rows[j].items():
            out[i] = out[i] + cj * x if i in out else cj * x
    return out if all(out.values()) else {i: x for i, x in out.items() if x}


def sparse_columns(rows) -> defaultdict:
    """The rows {a: {i: R_ia}} of R^T for sparse {index: value} rows R."""
    cols: defaultdict = defaultdict(dict)
    for i, row in enumerate(rows):
        for a, x in row.items():
            cols[a][i] = x
    return cols


def sparse_congruence(rows, m) -> list[dict]:
    """R M R^T for sparse {index: value} rows R and the rows M_a of M:
    row i is (R_i M) R^T, two sparse combinations."""
    cols = sparse_columns(rows)
    return [sparse_combination(sparse_combination(r, m), cols) for r in rows]


def sparse_ints(rows) -> tuple[list[dict], int]:
    """(M, den) with M / den the sparse {index: value} rows and every value
    of M an int: the rows over their one least common denominator."""
    den = lcm(*[x.denominator for row in rows for x in row.values() if type(x) is not int])
    return [{i: x * den if type(x) is int else x.numerator * (den // x.denominator)
             for i, x in row.items()} for row in rows], den


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


def primitive(x) -> Vec:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    x = vec(x)
    return dense_vec(sparse_primitive(sparse_vec(x)), len(x))


def sparse_primitive(x: dict) -> dict:
    """A sparse {index: value} vector scaled to coprime integers, its
    lowest-index entry positive."""
    if not x:
        return x
    (ints,), _ = sparse_ints([x])
    g = gcd(*ints.values()) * (1 if ints[min(ints)] > 0 else -1)
    return {j: v // g for j, v in ints.items()}


def _reduce(rows, forward: bool = False) -> tuple[list[dict], list[int], Fraction]:
    """Fraction-free Gauss-Jordan elimination on sparse {column: value}
    rows: the one row reduction.

    Returns (red, pivots, scale), pivots ascending: red[i] / red[i][pivots[i]]
    are the nonzero rows of the reduced row echelon form, or with
    ``forward`` of a row echelon form (each row cleared only at the pivots
    before its own).  For a square matrix of full rank det(red) = scale *
    det(rows).  Each row in turn is cleared of denominators and reduced
    against the pivot rows held; a step p * row - f * pivot_row over its
    content touches only the two rows' nonzeros, so a monomial or
    block-diagonal matrix costs no pass over its zeros.
    """
    held: dict[int, dict] = {}  # pivot column: row
    pivots: list[int] = []  # ascending
    num = den = 1

    def eliminate(row, piv, c):  # row <- (p row - f piv) / content, zero at c
        nonlocal num, den
        g = gcd(piv[c], row[c])
        p, f = piv[c] // g, row[c] // g
        if p != 1:
            for j in row:
                row[j] *= p
        for j, x in piv.items():
            if y := row.get(j, 0) - f * x:
                row[j] = y
            else:
                del row[j]
        g = gcd(*row.values()) or 1
        if g != 1:
            for j in row:
                row[j] //= g
        num, den = num * p, den * g

    for row in rows:
        d = lcm(*(x.denominator for x in row.values() if type(x) is not int))
        row = {j: x * d if type(x) is int else x.numerator * (d // x.denominator)
               for j, x in row.items() if x}
        num *= d
        if not forward:
            for c in [c for c in row if c in held]:
                eliminate(row, held[c], c)
        while row and (c := min(row)) in held:
            eliminate(row, held[c], c)
        if row:
            if not forward:
                for other in held.values():
                    if c in other:
                        eliminate(other, row, c)
            held[c] = row
            # Put in pivot order, the row passes the pivot rows after it.
            i = bisect(pivots, c)
            num *= (-1) ** (len(pivots) - i)
            pivots.insert(i, c)
    return [held[c] for c in pivots], pivots, Fraction(num, den)


def components(n: int, edges) -> list[list[int]]:
    """The connected components of the graph on 0..n-1 with the given
    (i, j) edges, each ascending, in the order of their least members."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i
    for i, j in edges:
        root[find(i)] = find(j)
    comps: dict[int, list] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())


def split_table(table, n: int) -> list[tuple[list[int], bool, list[dict]]]:
    """A table of sparse {(i, j): value} n x n matrices split along the
    connected components of its union support: parts (indices ascending,
    monomial, the table there renumbered 0, 1, ...), the components with at
    most one entry per row and column merged into one monomial part."""
    comps = components(n, (key for t in table for key in t))
    at = {i: c for c, idx in enumerate(comps) for i in idx}
    support: list[set] = [set() for _ in comps]
    for t in table:
        for key in t:
            support[at[key[0]]].add(key)
    mono = {c for c, s in enumerate(support) if len({i for i, _ in s}) == len(s) == len({j for _, j in s})}
    parts = [(sorted(i for c in mono for i in comps[c]), True)] * bool(mono) + [
        (idx, False) for c, idx in enumerate(comps) if c not in mono]
    at = {i: (p, q) for p, (idx, _) in enumerate(parts) for q, i in enumerate(idx)}
    rows = [[{} for _ in table] for _ in parts]
    for a, t in enumerate(table):
        for (i, j), v in t.items():
            rows[at[i][0]][a][at[i][1], at[j][1]] = v
    return [(idx, mono, r) for (idx, mono), r in zip(parts, rows)]


def pfaffian4(entries: dict) -> tuple[int, int] | None:
    """(N, Pf) of an antisymmetric 4 x 4 matrix of sparse {(i, j): value}
    entries, else None: its squared singular values, each twice, are the
    roots of y^2 - N y + Pf^2, for Pf its Pfaffian."""
    if any(entries.get((j, i)) != -v for (i, j), v in entries.items()):
        return None
    x = [entries.get(key, 0) for key in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    return sum(v * v for v in x), x[0] * x[5] - x[1] * x[4] + x[2] * x[3]


def rank(rows) -> int:
    """Rank of a rational matrix given as sparse {column: value} rows."""
    return len(_reduce(rows, forward=True)[1])


def nullspace(rows, ncols: int) -> list[dict]:
    """Basis of {x : A x = 0} for A the sparse {column: value} rows over
    ncols columns: one primitive {column: int} per free column, keys ascending."""
    red, pivots, _ = _reduce(rows)
    # x_f = e_f - sum_p (row_p[f] / row_p[p]) e_p, where every such p < f.
    basis: dict = {f: {} for f in sorted(set(range(ncols)).difference(pivots))}
    for row, p in zip(red, pivots):
        for f, x in row.items():
            if f != p:
                basis[f][p] = Fraction(-x, row[p])
    return [sparse_primitive({**x, f: 1}) for f, x in basis.items()]


def inverse(a) -> Mat:
    """Row i of the inverse: the coordinates of e_i in the rows of a."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("inverse needs a square matrix")
    try:
        solver = CoordinateSolver([sparse_vec(row) for row in a])
    except ValueError:
        raise ValueError("matrix is singular") from None
    return tuple(solver.coords({i: 1}) for i in range(len(a)))


def det(rows, ncols: int) -> Fraction:
    """Determinant of a square rational matrix given as sparse {column:
    value} rows over ncols columns: the product of the reduced pivots over
    the scale the reduction applied, or zero below full rank."""
    if len(rows) != ncols or any(c >= ncols for row in rows for c in row):
        raise ValueError("det needs a square matrix")
    red, pivots, scale = _reduce(rows, forward=True)
    if len(pivots) < len(rows):
        return ZERO
    return prod(row[p] for row, p in zip(red, pivots)) / scale


def inertia(rows) -> tuple[int, int, int]:
    """Signature (n_pos, n_neg, n_zero) of an exact symmetric matrix given
    as sparse {column: value} rows, by symmetric elimination: each pivot d
    on the diagonal is counted and removed, and the entries a_ij between
    the indices its row a meets become a_ij - a_i a_j / d, the Schur
    complement; no other entry changes."""
    # Symmetric updates keep row i's keys and column i's alike; a zero an
    # update leaves stays as an entry and is never taken as a pivot.
    m = {i: {j: x for j, x in row.items() if x} for i, row in enumerate(rows)}
    pos = neg = 0
    while m:
        k = next((i for i, row in m.items() if row.get(i)), None)
        if k is None:
            i, j = next(((i, j) for i, row in m.items() for j, x in row.items() if x), (0, 0))
            if i == j:
                break
            # e_i <- e_i + e_j turns the zero diagonal entry into 2 m_ij.
            m[i] = {c: m[i].get(c, 0) + m[j].get(c, 0) for c in m[i].keys() | m[j].keys()}
            m[i][i] = 2 * m[j][i]
            for c, x in m[i].items():
                m[c][i] = x
            k = i
        piv = m.pop(k)
        d = piv.pop(k)
        pos += d > 0
        neg += d < 0
        for i, a in piv.items():
            del m[i][k]
            for j, b in piv.items():
                m[i][j] = m[i].get(j, 0) - Fraction(a * b, d)
    return pos, neg, len(rows) - pos - neg


class CoordinateSolver:
    """Expresses vectors in a fixed linearly independent spanning set of
    sparse {index: value} rows, as ``sparse_vec`` gives them:
    ``sparse_coords(v)`` is c with sum_j c_j rows_j == v, exactly, or None
    when v is outside the span.  On pairwise disjoint supports (unit
    vectors, the E_ij - E_ji of so(n)) c_j is read off v's entries on rows_j.
    Else each overlap component of the rows (the 2 x 2 blocks of a u(n)
    split) reduces its own [rows | I], the inverse kept in ints over one
    denominator as the rows are: a solve and its check run in ints."""

    def __init__(self, rows):
        self.sparse_rows = rows = list(rows)
        self._disjoint = all(rows) and sum(map(len, rows)) == len(set().union(*rows))
        if self._disjoint:  # (j, 1 / rows_j[i]) at each index i of rows_j
            self._owner = {i: (j, x if x == 1 or x == -1 else rational(ONE / x))
                           for j, r in enumerate(rows) for i, x in r.items()}
            self._inv_rows = {min(r): [self._owner[min(r)]] for r in rows}
            self._size = list(map(len, rows))
            return
        # Per component [R | I] reduces to [E R | E], for R = rows * row_den
        # in ints and E the inverse of its pivot block.
        self._int_rows, self._row_den = sparse_ints(rows)
        n, first, inv = 1 + max((max(r) for r in rows if r), default=-1), {}, {}
        for comp in components(len(rows), [(j, first.setdefault(i, j))
                                            for j, r in enumerate(rows) for i in r]):
            red, pivots, _ = _reduce({**self._int_rows[j], n + j: 1} for j in comp)
            if any(p >= n for p in pivots):
                raise ValueError("spanning set is linearly dependent")
            for row, p in zip(red, pivots):
                inv[p] = sorted((j - n, Fraction(x, row[p])) for j, x in row.items() if j >= n)
        # Nonzero (j, den * E_pj) of each row of E, keyed by pivot p.
        self._den = lcm(*[x.denominator for r in inv.values() for _, x in r])
        self._inv_rows = {p: [(j, int(x * self._den)) for j, x in r] for p, r in inv.items()}

    def sparse_coords(self, v: dict) -> dict | None:
        """Nonzero coordinates {j: c_j} of a sparse {index: value} vector,
        or None when it is outside the span."""
        inv = self._inv_rows
        if self._disjoint:
            # v is in the span iff each of its entries lies on some rows_j and
            # gives one c_j over rows_j, and v holds all of each rows_j it meets.
            c, missing = {}, 0
            for i, vi in v.items():
                if (jy := self._owner.get(i)) is None:
                    return None
                j, y = jy
                cj = vi * y if type(vi) is int is type(y) else rational(vi * y)
                if j not in c:
                    c[j] = cj
                    missing += self._size[j] - 1
                elif c[j] == cj:
                    missing -= 1
                else:
                    return None
            # Keyed in the order of the rows' pivots in v.
            return None if missing else c if len(c) < 2 else {
                j: c[j] for i in v if i in inv for j, _ in inv[i]}
        # s = den * v E; a new key takes its first term as is.
        s = {}
        for p, vp in v.items():
            for j, x in inv.get(p, ()):
                s[j] = s[j] + vp * x if j in s else vp * x
        s = {j: x for j, x in s.items() if x}
        # v is in the span iff den * v == s R; then c = s * row_den / den.
        num, den = self._row_den, self._den
        if int_combination(s, self._int_rows) != {i: den * x for i, x in v.items()}:
            return None
        return {j: Fraction(x * num, den) if r else q
                for j, x in s.items() for q, r in (divmod(x * num, den),)}

    def coords(self, v) -> Vec | None:
        """Coordinates of a dense vector or a sparse {index: value} dict."""
        c = self.sparse_coords(v if isinstance(v, dict) else sparse_vec(v))
        return None if c is None else dense_vec(c, len(self.sparse_rows))
