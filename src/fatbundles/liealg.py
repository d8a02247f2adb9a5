"""Exact-first matrix Lie algebra kernel.

Brackets and the Killing form are always evaluated through structure
constants; constructing an algebra from a matrix basis computes those
constants once and exactly: float entries are read as their exact binary
rationals, and a basis that does not close exactly is rejected.  The
classical families so(n), so(p,q), su(n) and u(n) inside so(2n) are built
with unnormalized integer bases so that downstream wall tests stay exact.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterator
from fractions import Fraction

from .errors import (
    DegenerateRestriction,
    DimensionMismatch,
    NotCompact,
)
from .exact import (
    ZERO,
    CoordinateSolver,
    Mat,
    Vec,
    dense_vec,
    inertia,
    int_combination,
    mat,
    nullspace,
    primitive,
    rational,
    sparse_columns,
    sparse_combination,
    sparse_congruence,
    sparse_dot,
    sparse_ints,
    sparse_vec,
    split_table,
    vec,
    vec_mat,
)

class LieAlgebra:
    """A finite-dimensional real Lie algebra given by a matrix basis.

    The basis is given as the nonzero entries {r * n + c: value} of each
    n x n matrix, keys ascending as ``sparse_vec`` gives them, and values
    ints or Fractions; ``matrix_algebra`` builds one from dense matrices.
    All values are immutable after construction; every method is a pure
    function of the stored data.  Coordinates are with respect to the
    stored basis throughout.
    """

    def __init__(self, name: str, n: int, flats: list[dict], *,
                 family: str | None = None, params: tuple | None = None):
        self.name = name
        self.n = n
        self.dim = len(flats)
        self.family = family
        self.params = params
        self._flat_solver = CoordinateSolver(flats)
        # c^k_{aj} indexed as _ad_of[a][j] = {k: value}, both argument orders.
        self._ad_of: list[dict[int, dict]] = [{} for _ in range(self.dim)]
        self._structure, by_entry = self._structure_exact()
        self._killing_rows = self._killing_gram(by_entry)
        self._inertia = inertia(self._killing_rows)  # (n_pos, n_neg, n_zero) of B

    @functools.cached_property
    def basis(self) -> tuple[Mat, ...]:
        """The basis matrices as Fractions, built on first read."""
        flats = [dense_vec(row, self.n ** 2) for row in self._flat_solver.sparse_rows]
        return tuple(tuple(f[r:r + self.n] for r in range(0, len(f), self.n))
                     for f in flats)

    # -- construction helpers -------------------------------------------

    def _structure_exact(self) -> tuple[dict[tuple[int, int], dict], dict]:
        """c^k_ij for i < j with [e_i, e_j] != 0, in that order, with ``_ad_of``
        and the ad_a entries {k * dim + j: [(a, (ad_a)_kj)]}.  e_i is swept once
        over the entries of each e_j, j > i, that meet it (a_rc meets b_ct in
        (ab)_rt and b_sr in (ba)_sc) in the order of an entrywise product."""
        n, dim, ad_of, solver = self.n, self.dim, self._ad_of, self._flat_solver
        # (j, k, b_k) for the entries b_k of each e_j, by the row and the column of k
        by_row, by_col = [[] for _ in range(n)], [[] for _ in range(n)]
        for j, row in enumerate(solver.sparse_rows):
            for k, v in row.items():
                by_row[k // n].append((j, k, v))
                by_col[k % n].append((j, k, v))
        structure, by_entry = {}, defaultdict(list)
        for i, a in enumerate(solver.sparse_rows):
            comms: dict[int, dict] = {}
            for k, u in a.items():
                r, c = divmod(k, n)
                row, col = by_row[c], by_col[r]
                meets = sorted([(j, kb, 0, r * n + kb % n, u * v)
                                for j, kb, v in row[bisect_left(row, (i + 1,)):]]
                               + [(j, kb, 1, kb - r + c, -u * v)
                                  for j, kb, v in col[bisect_left(col, (i + 1,)):]])
                for j, _, _, key, p in meets:
                    if (comm := comms.get(j)) is None:
                        comms[j] = {key: p}
                    else:
                        comm[key] = comm[key] + p if key in comm else p
            for j, comm in sorted(comms.items()):  # cancelled entries dropped
                if not all(comm.values()) and not (comm := {k: x for k, x in comm.items() if x}):
                    continue
                ck = solver.sparse_coords(comm)
                if ck is None:
                    raise ValueError(
                        f"{self.name}: basis does not close under the "
                        f"commutator (elements {i}, {j})")
                structure[(i, j)] = ad_of[i][j] = ck
                ad_of[j][i] = {k: -v for k, v in ck.items()}
                for k, v in ck.items():
                    by_entry[k * dim + j].append((i, v))
                    by_entry[k * dim + i].append((j, -v))
        return structure, by_entry

    def _killing_gram(self, by_entry: dict) -> list[dict]:
        """The sparse rows of K_ab = Tr(ad_a ad_b), summed over the entries
        (ad_a)_kj that meet an entry (ad_b)_jk in ``by_entry``."""
        dim, rows = self.dim, []
        for row in self._ad_of:
            acc: dict = {}
            for j, ck in row.items():
                for k, v in ck.items():
                    for b, w in by_entry.get(j * dim + k, ()):
                        acc[b] = acc[b] + v * w if b in acc else v * w
            rows.append({b: rational(x) for b, x in sorted(acc.items()) if x})
        return rows

    # -- basic operations ------------------------------------------------

    def check_vector(self, x) -> Vec:
        if type(x) is not tuple or not all(type(a) is Fraction for a in x):
            x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatch(
                f"expected coordinate vector of length {self.dim}, got {len(x)}")
        return x

    def sparse_brackets(self, xs, ys=None) -> Iterator[tuple[tuple[int, int], dict]]:
        """((i, j), [xs_i, ys_j]) for the nonzero brackets of sparse
        {index: value} vectors, in (i, j) order, via the structure constants:
        only the c_ab with a in x_i and b in some y_j are read.  Without ys,
        the pairs i < j of xs (the others follow by antisymmetry)."""
        cols = sparse_columns(xs if ys is None else ys)
        for i, x in enumerate(xs):
            acc: dict[int, dict] = {}
            lo = i if ys is None else -1
            for a, xa in x.items():
                row = self._ad_of[a]
                for b in row.keys() & cols.keys():  # over the smaller of the two
                    for j, yb in cols[b].items():
                        if j <= lo:
                            continue
                        f, d = xa * yb, acc.setdefault(j, {})
                        for k, v in row[b].items():
                            d[k] = d[k] + f * v if k in d else f * v
            for j in sorted(acc):
                if br := {k: rational(v) for k, v in acc[j].items() if v}:
                    yield (i, j), br

    def bracket(self, x, y) -> Vec:
        """[x, y] in coordinates, via the structure constants."""
        x, y = ([sparse_vec(self.check_vector(v))] for v in (x, y))
        return dense_vec(next((b for _, b in self.sparse_brackets(x, y)), {}), self.dim)

    def centralizer_in(self, x, rows) -> Mat:
        """Basis of the elements of span(rows) that commute with x: the
        kernel of ad_x on the rows, whose column j is [x, rows_j]."""
        rows = [sparse_vec(r) for r in rows]
        cols = dict(self.sparse_brackets([sparse_vec(self.check_vector(x))], rows))
        ad = sparse_columns([cols.get((0, j), {}) for j in range(len(rows))])
        return tuple(dense_vec(int_combination(c, rows), self.dim)
                     for c in nullspace(list(ad.values()), len(rows)))

    def sparse_covector(self, x: dict) -> dict:
        """K x for a sparse {index: value} x, nonzero entries only; K is
        symmetric, so it is sum_j x_j K_j over its rows K_j."""
        return sparse_combination(x, self._killing_rows)

    def covector(self, x) -> Vec:
        """K x: the coordinates of B(x, .) in the dual basis."""
        x = sparse_vec(self.check_vector(x))
        return dense_vec(self.sparse_covector(x), self.dim)

    def orbit_pairing(self, x) -> tuple[list[dict], int]:
        """(S, den) with S / den the orbit form S_ab = B(x, [e_a, e_b]) =
        sum_k c^k_ab (K x)_k of x, in sparse rows S_a = {b: value}."""
        (kx,), den = sparse_ints([self.sparse_covector(
            sparse_vec(self.check_vector(x)))])
        return [{b: rational(s) for b, ck in row.items() if (s := sparse_dot(ck, kx))}
                for row in self._ad_of], den

    def triple_residual(self, table) -> int | Fraction:
        """Max |entry| over basis triples i < j < k of
        sum_cyc sum_l c^l_ij table[l][k], where table[l] is a sparse
        {(k, index): value} table of vectors.  The structure constants
        give the Jacobi residual; table[l] = {(k, 0): sigma_lk} gives
        max |d sigma(e_i, e_j, e_k)|.  Each W_ab = sum_l c^l_ab table[l],
        a < b, is formed once and its entries W_ab[c] are added into the
        sorted triples, negated when a < c < b (where c^l_ba = -c^l_ab)."""
        totals: dict[tuple, int | Fraction] = {}
        for a, row in enumerate(self._ad_of):
            for b, cab in row.items():
                if b < a:
                    continue
                for (c, idx), w in sparse_combination(cab, table).items():
                    if c != a and c != b:
                        key = (*sorted((a, b, c)), idx)
                        w = -w if a < c < b else w
                        totals[key] = totals[key] + w if key in totals else w
        return max(map(abs, totals.values()), default=0)

    def realize(self, x) -> Mat:
        """The matrix sum_i x_i b_i."""
        x = self.check_vector(x)
        return tuple(vec_mat(x, [b[r] for b in self.basis]) for r in range(self.n))

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


# -- module-level operation surface ---------------------------------------

def killing_signature(g: LieAlgebra) -> tuple[int, int, int]:
    """(n_neg, n_pos, n_zero) of the Killing form."""
    pos, neg, zero = g._inertia
    return neg, pos, zero


def matrix_algebra(name: str, basis) -> LieAlgebra:
    """Build an algebra from a user-supplied matrix basis.

    Entries may be ints, fractions, "p/q" strings or floats; a float is
    taken as its exact binary rational.  Raises ValueError when the
    matrices are not all n x n, an entry is not a finite number, or the
    basis does not close exactly under the commutator.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    n = len(basis[0])
    for i, b in enumerate(basis):
        if not n or len(b) != n or any(len(row) != n for row in b):
            raise ValueError(f"{name}: basis element {i} is not a "
                             f"nonempty {n} x {n} matrix")
    try:  # each entry is read once, as an int or a Fraction
        flats = [sparse_vec(x for row in b for x in row) for b in basis]
    except OverflowError as exc:  # an infinite float
        raise ValueError(f"{name}: basis entry not finite: {exc}") from None
    return LieAlgebra(name, n, flats)


def _antisym(n: int, r: int, c: int) -> dict:
    """E_rc - E_cr for r < c, as {r * n + c: 1, c * n + r: -1}."""
    return {r * n + c: 1, c * n + r: -1}


def _so_basis(n: int) -> list[dict]:
    return [_antisym(n, i, j) for i in range(n) for j in range(i + 1, n)]


def _so_pq_basis(p: int, q: int) -> list[dict]:
    n = p + q
    out = [_antisym(n, i, j) for i in range(p) for j in range(i + 1, p)]
    out += [_antisym(n, p + a, p + b) for a in range(q) for b in range(a + 1, q)]
    return out + [{i * n + p + a: 1, (p + a) * n + i: 1} for i in range(p) for a in range(q)]


def _u_in_so_basis(n: int, width: int) -> list[dict]:
    """u(n) realized in so(2n), in the top-left block of width x width
    matrices: skew-Hermitian z = a + ib mapped to 2x2 blocks [[a, -b],
    [b, a]]; these are exactly the elements of so(2n) commuting with the
    block complex structure."""
    def e(r, c):  # the flat index of entry (r, c)
        return r * width + c
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            a, b, c, d = 2 * j, 2 * j + 1, 2 * k, 2 * k + 1
            out.append({e(a, c): 1, e(b, d): 1, e(c, a): -1, e(d, b): -1})
            out.append({e(a, d): -1, e(b, c): 1, e(c, b): -1, e(d, a): 1})
    return out + [{e(2 * j, 2 * j + 1): -1, e(2 * j + 1, 2 * j): 1} for j in range(n)]


def _su_basis(n: int) -> list[dict]:
    """su(n) realified inside so(2n): the u(n) basis with the diagonal
    replaced by traceless differences."""
    base = _u_in_so_basis(n, 2 * n)
    diag = base[n * (n - 1):]
    return base[:n * (n - 1)] + [
        {**diag[j], **{k: -v for k, v in diag[j + 1].items()}} for j in range(n - 1)]


@functools.lru_cache(maxsize=None)
def _build_cached(family: str, params: tuple) -> LieAlgebra:
    if family == "so" and len(params) == 1:
        n = params[0]
        if n < 2:
            raise ValueError("so(n) needs n >= 2")
        return LieAlgebra(f"so({n})", n, _so_basis(n), family="so", params=params)
    if family == "so" and len(params) == 2:
        p, q = params
        if p < 1 or q < 1:
            raise ValueError("so(p,q) needs p, q >= 1")
        return LieAlgebra(f"so({p},{q})", p + q, _so_pq_basis(p, q),
                          family="so", params=params)
    if family == "su":
        (n,) = params
        if n < 2:
            raise ValueError("su(n) needs n >= 2")
        return LieAlgebra(f"su({n})", 2 * n, _su_basis(n), family="su", params=params)
    if family == "u-in-so":
        (n,) = params
        if n < 1:
            raise ValueError("u(n) in so(2n) needs n >= 1")
        return LieAlgebra(f"u({n})<so({2*n})", 2 * n, _u_in_so_basis(n, 2 * n),
                          family="u-in-so", params=params)
    raise ValueError(f"unsupported family {family!r} with params {params!r}")


def build_algebra(family: str, params) -> LieAlgebra:
    """Build a classical algebra: ``so`` with n or (p, q), ``su`` with n,
    or ``u-in-so`` with n (meaning u(n) inside so(2n))."""
    if isinstance(params, int):
        params = (params,)
    return _build_cached(family, tuple(int(p) for p in params))


def so(n: int) -> LieAlgebra:
    return build_algebra("so", n)


# -- reductive splittings ---------------------------------------------------

class SubalgebraEmbedding:
    """A subalgebra h of g with its Killing-orthogonal complement m.

    ``h_basis`` and ``m_basis`` are rows of coordinate vectors in g.
    ``torus_basis`` is an optional maximal abelian subalgebra of h,
    expected in the block convention when root tests are used.  They are
    given as sparse {index: value} rows, in ``sparse_vec`` form, and kept
    both ways: as those rows (``h_sparse``, ``m_sparse``, ``torus_sparse``)
    and as Fraction rows.
    """

    def __init__(self, ambient: LieAlgebra, h_basis: list[dict], m_basis: list[dict],
                 torus_basis: list[dict] | None, compact: bool, name: str = ""):
        self.ambient = ambient
        self.compact = compact
        self.name = name or f"h<{ambient.name}"
        self.dim_h = len(h_basis)
        self.dim_m = len(m_basis)
        self._full_solver = CoordinateSolver([*h_basis, *m_basis])
        self.h_sparse = self._full_solver.sparse_rows[:self.dim_h]
        self.m_sparse = self._full_solver.sparse_rows[self.dim_h:]
        self.torus_sparse = None if torus_basis is None else list(torus_basis)
        self.h_basis, self.m_basis, self.torus_basis = (
            None if rows is None else tuple(dense_vec(r, ambient.dim) for r in rows)
            for rows in (self.h_sparse, self.m_sparse, self.torus_sparse))
        # The torus rows in h-coordinates, solved; None when one leaves h.
        t_h = [self.sparse_h_coords(t) for t in self.torus_sparse or ()]
        try:
            self._torus = CoordinateSolver(t_h) if t_h and None not in t_h else None
        except ValueError:
            raise ValueError(f"{self.name}: torus basis is linearly dependent") from None
        self._torus_ints = sparse_ints(self.torus_sparse or ())  # the torus rows over one den
        self._solved: tuple | None = None  # the last X_u's record, see ``solve``
        self._tables: dict = {}  # (build, torus): its _table

    def split_coords(self, x) -> tuple[Vec, Vec]:
        """Coefficients of x in the h-basis and the m-basis."""
        c = self._full_solver.coords(self.ambient.check_vector(x))
        if c is None:
            raise DimensionMismatch("vector is not in h + m")
        return c[:self.dim_h], c[self.dim_h:]

    def sparse_h_coords(self, v: dict) -> dict | None:
        """Nonzero h-coordinates {a: c_a} of a sparse {index: value} vector
        when it lies in h, else None: its h + m coordinates have no m part."""
        c = self._full_solver.sparse_coords(v)
        return None if c is None or any(a >= self.dim_h for a in c) else c

    def h_coords(self, x) -> Vec | None:
        """Coefficients of x in the h-basis when x lies in h, else None."""
        c = self.sparse_h_coords(sparse_vec(self.ambient.check_vector(x)))
        return None if c is None else dense_vec(c, self.dim_h)

    def solve(self, x) -> tuple:
        """(x, c, den, tau, t, t_den), the record of the last X_u, filled the
        first time x is seen: x checked; its h-coordinates c = {a: int} over
        den in lowest terms (None outside h, and for an X_u from
        ``torus_vector``); its torus coordinates tau (None outside the torus,
        or with the torus not in h) with their ints t = {i: int} over t_den."""
        last = self._solved
        if last is None or last[0] is not x:
            x = self.ambient.check_vector(x)
            c = self.sparse_h_coords(sparse_vec(x))
            tau = t = t_den = None
            if c is not None and self._torus is not None:
                tau = self._torus.coords(c)
            if tau is not None:
                (t,), t_den = sparse_ints([dict(enumerate(tau))])
            (ints,), den = sparse_ints([c or {}])
            last = self._solved = (x, None if c is None else ints, den, tau, t, t_den)
        return last

    def _table(self, build, torus: bool = False) -> list:
        """[table, den, parts]: build(self, rows) on the torus or h rows, as
        ints over one den, and its ``split_table`` once asked; built once."""
        if (build, torus) not in self._tables:
            rows = self.torus_sparse if torus else self.h_sparse
            self._tables[build, torus] = [*sparse_ints(build(self, rows)), None]
        return self._tables[build, torus]

    def linear(self, build, x) -> tuple[list, int]:
        """(parts, den): the matrix of x over a table, per ``split_table``
        part as (indices, monomial, entries): sum_i t_i T_i over the torus
        rows' table when x has a tau, else sum_a c_a T_a over the h rows'
        table on its h-coordinates (DimensionMismatch outside h)."""
        _, c, den, tau, t, t_den = self.solve(x)
        if tau is not None:
            c, den = t, t_den
        elif c is None:
            raise DimensionMismatch("vector is not in h")
        table = self._tables.get((build, tau is not None)) or self._table(build, tau is not None)
        if table[2] is None:
            table[2] = split_table(table[0], self.dim_m)
        return [(idx, mono, int_combination(c, rows)) for idx, mono, rows in table[2]], den * table[1]

    def _ad_entries(self, rows) -> list[dict]:
        """Per row y (an h_a or a torus T_i), the nonzero entries {(i, j): v}
        of ad_y|_m; raises ValueError when some [y, m_j] leaves m."""
        table: list[dict] = [{} for _ in rows]
        for (a, j), b in self.ambient.sparse_brackets(rows, self.m_sparse):
            c = self._full_solver.sparse_coords(b)
            if c is None:
                raise DimensionMismatch("vector is not in h + m")
            if any(i < self.dim_h for i in c):
                raise ValueError(f"{self.name}: [h, m] leaves m")
            for i, v in c.items():
                table[a][i - self.dim_h, j] = v
        return table

    def ad_m_entries(self, x) -> tuple[dict, int]:
        """ad_x on m for x in h (else DimensionMismatch) as (M, den), M / den
        in m-coordinates: M holds the nonzero entries {(i, j): v}, column j
        those of [x, m_j], gathered from ``linear``'s parts."""
        parts, den = self.linear(SubalgebraEmbedding._ad_entries, x)
        return {(idx[i], idx[j]): v for idx, _, e in parts for (i, j), v in e.items()}, den

    def torus_coords(self, x) -> Vec | None:
        """Coordinates of x in the torus basis: ``solve``'s tau, None when x
        is not in the torus or the torus is not in h."""
        return self.solve(x)[3]

    def torus_vector(self, tau) -> Vec:
        """The element x = sum_i tau_i T_i of the torus, in g-coordinates, an
        int combination of the int torus rows; with the torus in h, x fills
        the ``solve`` record with tau and its ints, so certify solves nothing."""
        if self.torus_sparse is None:
            raise NotCompact("embedding carries no torus")
        if type(tau) is not tuple or not all(type(a) is Fraction for a in tau):
            tau = vec(tau)
        if len(tau) != len(self.torus_sparse):
            raise DimensionMismatch("torus coordinate length mismatch")
        (t,), t_den = sparse_ints([dict(enumerate(tau))])
        g_rows, g_den = self._torus_ints
        x, den = [ZERO] * self.ambient.dim, t_den * g_den
        for i, v in int_combination(t, g_rows).items():
            x[i] = Fraction(v, den)
        x = tuple(x)
        if self._torus is not None:
            self._solved = (x, None, None, tau, t, t_den)
        return x

    def __repr__(self):
        return (f"SubalgebraEmbedding({self.name!r}, dim_h={self.dim_h}, "
                f"dim_m={self.dim_m})")


def reductive_split(g: LieAlgebra, h_basis, *, torus_basis=None, name: str = "",
                    check: bool = True) -> SubalgebraEmbedding:
    """Split g = h + m with m the Killing-orthogonal complement of h.  The
    h and torus rows are coordinate vectors of g, or sparse {index: value}
    rows of g in ``sparse_vec`` form (as the block builders of this module
    pass them), told apart by their type.

    Raises DegenerateRestriction when B restricted to h is singular (no
    reductive complement exists in the Killing-orthogonal sense).
    """
    def sparse(r):
        """r, keys sorted, if a sparse row of g (nonzero ints and non-integral
        Fractions at indices below g.dim), else the checked vector r made sparse."""
        if type(r) is dict and all(type(i) is int and 0 <= i < g.dim and (type(x) is int and x or (
                type(x) is Fraction and x.denominator != 1)) for i, x in r.items()):
            return dict(sorted(r.items()))
        return sparse_vec(g.check_vector(r))
    h_sparse, torus = ([sparse(r) for r in rows] for rows in (h_basis, torus_basis or ()))
    bh_sparse = [g.sparse_covector(hi) for hi in h_sparse]
    _, neg, zero = inertia(sparse_congruence(h_sparse, g._killing_rows))
    if zero:
        raise DegenerateRestriction(
            f"Killing form of {g.name} is singular on the subalgebra")
    # m: the common kernel of the covectors B(h_i, .), all of g when h = 0.
    m_rows = nullspace(bh_sparse, g.dim) if h_sparse else [{i: 1} for i in range(g.dim)]
    compact = neg == len(h_sparse)
    emb = SubalgebraEmbedding(g, h_sparse, m_rows, torus or None, compact, name=name)
    if check:
        _check_embedding(emb)
    return emb


def _check_embedding(emb: SubalgebraEmbedding) -> None:
    """[h, h] in h, [h, m] in m, B(h, m) = 0, and the torus.  With the last
    two, B nondegenerate and dim h + dim m = dim g, B([h_a, h_b], m) =
    -B(h_b, [h_a, m]) = 0 puts [h, h] in m^perp = h, and as m = h^perp a
    leave from m means h is not closed; elsewhere h's brackets are solved."""
    g = emb.ambient
    # B(h, m) = 0: each K h_i summed over the columns of m.
    cols = sparse_columns(emb.m_sparse)
    orthogonal = not any(sparse_combination(g.sparse_covector(hi), cols) for hi in emb.h_sparse)
    proved = orthogonal and not g._inertia[2] and emb.dim_h + emb.dim_m == g.dim
    for _, b in () if proved else g.sparse_brackets(emb.h_sparse):
        if emb.sparse_h_coords(b) is None:
            raise ValueError(f"{emb.name}: h is not closed under brackets")
    try:
        emb._table(SubalgebraEmbedding._ad_entries)  # builds D_a; raises when [h, m] leaves m
    except ValueError as exc:
        raise ValueError(f"{emb.name}: h is not closed under brackets") if proved else exc from None
    if not orthogonal:
        raise ValueError(f"{emb.name}: B(h, m) != 0")
    # Torus, when provided: abelian and inside h.
    if emb.torus_sparse is not None:
        if emb._torus is None:
            raise ValueError(f"{emb.name}: torus is not contained in h")
        if next(g.sparse_brackets(emb.torus_sparse), None):
            raise ValueError(f"{emb.name}: torus is not abelian")


def maximal_torus(emb: SubalgebraEmbedding) -> Mat:
    """A maximal abelian subalgebra of h (the stored one when present).

    For a compact h the centralizer in h of a generic element is such a
    torus; generic elements are searched deterministically.  Raises
    NotCompact when B restricted to h is not negative definite.
    """
    if emb.torus_basis is not None:
        return emb.torus_basis
    if not emb.compact:
        raise NotCompact(f"{emb.name}: Killing form not negative definite on h")
    g = emb.ambient
    for base in (1, 2, 3, 5, 7, 11, 13):
        coeffs = [Fraction(base ** i % 1009) for i in range(emb.dim_h)]
        xi = vec_mat(coeffs, emb.h_basis)
        t_rows = [primitive(t) for t in g.centralizer_in(xi, emb.h_basis)]
        abelian = not next(g.sparse_brackets(list(map(sparse_vec, t_rows))), None)
        if abelian and t_rows:
            return mat(t_rows)
    raise NotCompact(f"{emb.name}: no generic element found for a torus")


# -- block embeddings for the classical catalog -----------------------------

def _coords_in(g: LieAlgebra, flats, error: str) -> list[dict]:
    """The sparse g-coordinates of the n x n matrices {r * n + c: value} in
    flats; ValueError(error.format(i)) when the first matrix not in g is
    the i-th."""
    rows = [g._flat_solver.sparse_coords(flat) for flat in flats]
    if None in rows:
        raise ValueError(error.format(rows.index(None)))
    return rows


def _block_torus(g: LieAlgebra, r: int) -> list[dict]:
    """Sparse coordinates of the block torus T_i, the 2x2 rotation blocks
    [[0, -t_i], [t_i, 0]] on the diagonal, for i = 0..r-1."""
    n = g.n
    return _coords_in(g, ({(2 * i + 1) * n + 2 * i: 1, 2 * i * n + 2 * i + 1: -1}
                          for i in range(r)),
                      f"{g.name}: block torus element {{}} is not in g")


def torus_embedding(g: LieAlgebra, r: int, *, name: str = "") -> SubalgebraEmbedding:
    """The block torus of rank r as h, carrying itself as its torus."""
    t = _block_torus(g, r)
    return reductive_split(g, t, torus_basis=t, name=name or f"t{r}<{g.name}")


def so_block_embedding(g: LieAlgebra, k: int, *, name: str = "") -> SubalgebraEmbedding:
    """so(k) in the top-left block of g (g built from so(n) or so(p,q))."""
    h_rows = _coords_in(g, (_antisym(g.n, i, j) for i in range(k) for j in range(i + 1, k)),
                        f"so({k}) block does not embed in {g.name}")
    return reductive_split(g, h_rows, torus_basis=_block_torus(g, k // 2),
                           name=name or f"so({k})<{g.name}")


def u_block_embedding(g: LieAlgebra, n: int, *, name: str = "") -> SubalgebraEmbedding:
    """u(n), the commutant of the block complex structure inside the
    so(2n) top-left block of g."""
    h_rows = _coords_in(g, _u_in_so_basis(n, g.n),
                        f"u({n}) block does not embed in {g.name}")
    return reductive_split(g, h_rows, torus_basis=_block_torus(g, n),
                           name=name or f"u({n})<{g.name}")


def jacobi_residual(g: LieAlgebra) -> Fraction:
    """Max residual of the Jacobi identity over all basis triples (exact
    zero for every algebra that closes)."""
    return Fraction(g.triple_residual(
        [{(c, k): v for c, ck in row.items() for k, v in ck.items()}
         for row in g._ad_of]))
