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


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


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


def dot(x, y) -> Fraction:
    """Sum of x_i * y_i over the terms where both factors are nonzero."""
    return sum((a * b for a, b in zip(x, y) if a and b), ZERO)


def sparse_dot(x: dict, y: dict) -> int | Fraction:
    """dot() of two sparse {index: value} vectors, over the smaller one."""
    if len(y) < len(x):
        x, y = y, x
    return sum(a * y[i] for i, a in x.items() if i in y)


def sparse_combination(c: dict, rows) -> dict:
    """sum_j c_j rows_j for sparse {index: value} c and rows, nonzero only."""
    out: dict = {}
    for j, cj in c.items():
        for i, x in rows[j].items():
            out[i] = out[i] + cj * x if i in out else cj * x
    return {i: rational(x) for i, x in out.items() if x}


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
    den = lcm(*(x.denominator for row in rows for x in row.values()
                if type(x) is not int))
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


def _clear_denominators(row) -> tuple[list[int], int]:
    """(row * denom as integers, denom) for denom the lcm of the row's
    denominators; a row of ints is used as it is."""
    if all(type(a) is int for a in row):
        return list(row), 1
    row = [a if isinstance(a, (int, Fraction)) else Fraction(a) for a in row]
    denom = lcm(*(a.denominator for a in row))
    if denom == 1:
        return [a.numerator for a in row], 1
    return [a.numerator * (denom // a.denominator) for a in row], denom


def _reduce(rows, forward: bool = False
            ) -> tuple[list[list[int]], list[int], Fraction]:
    """Fraction-free Gauss-Jordan elimination: the one row reduction.

    Returns (red, pivots, scale).  Row i of the reduced row echelon form
    is red[i] / red[i][pivots[i]]; the rows past len(pivots) are zero.
    ``forward`` stops at a row echelon form, eliminating below each pivot
    only: enough for the pivots and the determinant.  For
    a square matrix det(red) = scale * det(rows).  Each row is cleared of
    denominators; a step touches only the rows with a nonzero in the pivot
    column, each becoming p * row - f * pivot_row divided by its content,
    so the entries stay as small as the row allows.
    """
    cleared = [_clear_denominators(row) for row in rows]
    m = [ints for ints, _ in cleared]
    num, den = prod(d for _, d in cleared), 1
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            num = -num
        row_r = m[r]
        p = row_r[c]
        for i in range(r + 1 if forward else 0, nr):
            f = m[i][c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            pi, fi = p // g, f // g
            row = [pi * a - fi * b for a, b in zip(m[i], row_r)]
            # A row that cancels to zero has content 0 and stays as it is.
            g = gcd(*row) or 1
            m[i] = [a // g for a in row] if g != 1 else row
            num *= pi
            den *= g
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots, Fraction(num, den)


def _monomial_columns(rows) -> set[int] | None:
    """The columns hit when each row and column has at most one nonzero, as
    in ad_x on m for x in a torus: their number is the rank, and the other
    unit vectors span the kernel.  Else None, found at the first bad row."""
    hit: set[int] = set()
    for row in rows:
        n = len(row) - row.count(0)
        if n > 1 or n and (j := row.index(next(filter(None, row)))) in hit:
            return None
        if n:
            hit.add(j)
    return hit


def rank(rows) -> int:
    """Rank of a rational matrix: its number of pivots."""
    hit = _monomial_columns(rows)
    return len(_reduce(rows, forward=True)[1]) if hit is None else len(hit)


def nullspace(rows) -> list[Vec]:
    """Basis of {x : A x = 0}, in primitive integer form."""
    nc = len(rows[0]) if rows else 0
    if (hit := _monomial_columns(rows)) is not None:
        return [unit_vec(nc, f) for f in range(nc) if f not in hit]
    red, pivots, _ = _reduce(rows)
    basis = []
    for f in sorted(set(range(nc)).difference(pivots)):
        x = [ZERO] * nc
        x[f] = ONE
        for row, p in zip(red, pivots):
            if row[f]:
                x[p] = Fraction(-row[f], row[p])
        basis.append(primitive(x))
    return basis


def solve(a_rows, b) -> Vec | None:
    """One solution of A x = b, or None if inconsistent.  Free variables
    are set to zero."""
    nc = len(a_rows[0]) if a_rows else 0
    red, pivots, _ = _reduce([[*row, bi] for row, bi in zip(a_rows, b)])
    if nc in pivots:
        return None
    x = [ZERO] * nc
    for row, p in zip(red, pivots):
        x[p] = Fraction(row[nc], row[p])
    return tuple(x)


def inverse(a) -> Mat:
    """Row i of the inverse: the coordinates of e_i in the rows of a."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("inverse needs a square matrix")
    try:
        solver = CoordinateSolver(a)
    except ValueError:
        raise ValueError("matrix is singular") from None
    return tuple(solver.coords({i: 1}) for i in range(len(a)))


def det(a) -> Fraction:
    """Determinant of a square rational matrix: the product of the reduced
    pivots over the scale the reduction applied, or zero below full rank."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("det needs a square matrix")
    red, pivots, scale = _reduce(a, forward=True)
    if len(pivots) < len(a):
        return ZERO
    return prod(row[p] for row, p in zip(red, pivots)) / scale


def inertia(a) -> tuple[int, int, int]:
    """Signature (n_pos, n_neg, n_zero) of an exact symmetric matrix, by
    fraction-free symmetric elimination: each pivot d on the diagonal is
    counted and removed, and the rest becomes |d| A - sign(d) a a^T over
    its content, a positive multiple of the Schur complement."""
    n = len(a)
    flat, _ = _clear_denominators([x for row in a for x in row])
    m = [flat[i * n:(i + 1) * n] for i in range(n)]
    pos = neg = 0
    while m:
        # The last pivot found is the cheapest to pop.
        k = next((i for i in reversed(range(len(m))) if m[i][i]), None)
        if k is None:
            off = next(((i, j) for i, row in enumerate(m)
                        for j in range(i + 1, len(m)) if row[j]), None)
            if off is None:
                break
            i, j = off
            # e_i <- e_i + e_j turns the zero diagonal entry into 2 m_ij.
            m[i] = [x + y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
            k = i
        piv = m.pop(k)
        d = piv.pop(k)
        col = [row.pop(k) for row in m]
        pos += d > 0
        neg += d < 0
        if any(col):  # else the rest is the Schur complement as it is
            s = 1 if d > 0 else -1
            m = [[abs(d) * x - s * f * p for x, p in zip(row, piv)]
                 for row, f in zip(m, col)]
            g = gcd(*(x for row in m for x in row))
            if g > 1:
                m = [[x // g for x in row] for row in m]
    return pos, neg, n - pos - neg


class CoordinateSolver:
    """Expresses vectors in a fixed linearly independent spanning set:
    ``sparse_coords(v)`` is c with sum_j c_j rows_j == v, exactly, or None
    when v is outside the span.  On pairwise disjoint supports (unit
    vectors, the E_ij - E_ji of so(n)) c_j = v_p / rows_j[p] is read off at
    each row's first index p.  Else one reduction of [rows | I] inverts the
    pivot block, in ints on int rows.  Either way membership is checked
    against the rows.  Callers in this package that hold the rows in
    ``sparse_vec`` form already pass them with ``_sparse``, unchecked."""

    def __init__(self, rows, *, _sparse: bool = False):
        self.sparse_rows = rows = (list(rows) if _sparse else
                                   [sparse_vec(row) for row in rows])
        self._disjoint = all(rows) and sum(map(len, rows)) == len(set().union(*rows))
        if self._disjoint:  # (j, 1 / rows_j[p]) at each row's pivot p
            self._inv_rows = {min(r): [(j, rational(ONE / r[min(r)]))]
                              for j, r in enumerate(rows)}
            self._size = list(map(len, rows))
            # The other entries (i, rows_j[i]) of each row with more than one.
            self._off_pivot = {j: [(i, x) for i, x in r.items() if i != min(r)]
                               for j, r in enumerate(rows) if len(r) > 1}
            return
        n = 1 + max((max(r) for r in rows if r), default=-1)
        # [rows | I] reduces to [E rows | E], E the inverse of the pivot block.
        red, pivots, _ = _reduce([[r.get(j, 0) for j in range(n)] + [
            int(i == j) for j in range(len(rows))] for i, r in enumerate(rows)])
        if any(p >= n for p in pivots):
            raise ValueError("spanning set is linearly dependent")
        # Nonzero (j, x) of each row of E, keyed by pivot.
        self._inv_rows: dict[int, list[tuple[int, int | Fraction]]] = {
            p: [(j, rational(Fraction(x, row[p])))
                for j, x in enumerate(row[n:]) if x]
            for row, p in zip(red, pivots)}

    def sparse_coords(self, v: dict) -> dict | None:
        """Nonzero coordinates {j: c_j} of a sparse {index: value} vector,
        or None when it is outside the span."""
        inv = self._inv_rows
        if self._disjoint:
            c = {j: rational(vp * x) for p, vp in v.items() if p in inv
                 for j, x in inv[p]}
            # v == sum_j c_j rows_j iff it has their entries and no other;
            # c_j is chosen to match v at the pivot of rows_j, so with one
            # entry per row that is one entry of v per coordinate.
            off = self._off_pivot
            if not off:
                return c if len(c) == len(v) else None
            if len(v) != sum(map(self._size.__getitem__, c)):
                return None
            return c if all(v.get(i) == cj * x for j, cj in c.items()
                            for i, x in off.get(j, ())) else None
        # A new key takes its first term as is, with no zero to add to.
        c = {}
        for p, vp in v.items():
            for j, x in inv.get(p, ()):
                c[j] = c[j] + vp * x if j in c else vp * x
        c = {j: rational(cj) for j, cj in c.items() if cj}
        # Verify membership in the span.
        return c if sparse_combination(c, self.sparse_rows) == v else None

    def coords(self, v) -> Vec | None:
        """Coordinates of a dense vector or a sparse {index: value} dict."""
        c = self.sparse_coords(v if isinstance(v, dict) else sparse_vec(v))
        return None if c is None else dense_vec(c, len(self.sparse_rows))
