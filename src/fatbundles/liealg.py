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
from collections.abc import Iterator
from fractions import Fraction

from .errors import (
    DegenerateRestriction,
    DimensionMismatch,
    NotCompact,
)
from .exact import (
    CoordinateSolver,
    Mat,
    Vec,
    _clear_denominators,
    dense_vec,
    dot,
    identity,
    inertia,
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
    sub_vec,
    vec,
    vec_mat,
    zero_vec,
)

class LieAlgebra:
    """A finite-dimensional real Lie algebra given by a matrix basis.

    All values are immutable after construction; every method is a pure
    function of the stored data.  Coordinates are with respect to the
    stored basis throughout.
    """

    def __init__(self, name: str, basis, *,
                 family: str | None = None, params: tuple | None = None):
        self.name = name
        basis = list(basis)
        if not basis:
            raise ValueError("empty basis")
        self.n = n = len(basis[0])
        self.dim = len(basis)
        self.family = family
        self.params = params
        for i, b in enumerate(basis):
            if not n or len(b) != n or any(len(row) != n for row in b):
                raise ValueError(f"{name}: basis element {i} is not a "
                                 f"nonempty {n} x {n} matrix")
        try:  # the solver reads each entry once, as an int or a Fraction
            self._flat_solver = CoordinateSolver(
                [[x for row in b for x in row] for b in basis])
        except OverflowError as exc:  # an infinite float
            raise ValueError(f"{name}: basis entry not finite: {exc}") from None
        self._structure = self._structure_exact()
        # c^k_{aj} indexed as _ad_of[a][j] = {k: value}, both argument orders.
        self._ad_of: list[dict[int, dict]] = [dict() for _ in range(self.dim)]
        for (i, j), ck in self._structure.items():
            self._ad_of[i][j] = ck
            self._ad_of[j][i] = {k: -v for k, v in ck.items()}
        self._killing_rows = self._killing_gram()

    @functools.cached_property
    def basis(self) -> tuple[Mat, ...]:
        """The basis matrices as Fractions, built on first read."""
        flats = [dense_vec(row, self.n ** 2) for row in self._flat_solver.sparse_rows]
        return tuple(tuple(f[r:r + self.n] for r in range(0, len(f), self.n))
                     for f in flats)

    @functools.cached_property
    def killing(self) -> Mat:
        """The Killing Gram K_ab = B(e_a, e_b), built on first read."""
        return tuple(dense_vec(row, self.dim) for row in self._killing_rows)

    @property
    def semisimple(self) -> bool:
        """Whether the Killing form is nondegenerate (Cartan's criterion)."""
        return killing_signature(self)[2] == 0

    # -- construction helpers -------------------------------------------

    def _structure_exact(self) -> dict[tuple[int, int], dict]:
        """c^k_ij for i < j with [e_i, e_j] != 0, in that order.  Only basis
        matrices that share a row or column index are multiplied: a_rc and
        b_st meet in (ab)_rt when c == s and in (ba)_sc when t == r."""
        n = self.n
        ents = [[(*divmod(k, n), x) for k, x in row.items()]
                for row in self._flat_solver.sparse_rows]
        touch: dict[int, set] = {}  # the elements with an entry in row or column s
        for j, ent in enumerate(ents):
            for s, t, _ in ent:
                touch.setdefault(s, set()).add(j)
                touch.setdefault(t, set()).add(j)
        structure = {}
        for i, a in enumerate(ents):
            meet = set().union(*(touch[r] | touch[c] for r, c, _ in a))
            for j in sorted(m for m in meet if m > i):
                comm: dict = {}
                for r, c, u in a:
                    for s, t, v in ents[j]:
                        if c == s:
                            p, k = u * v, r * n + t
                            comm[k] = comm[k] + p if k in comm else p
                        if t == r:
                            p, k = u * v, s * n + c
                            comm[k] = comm[k] - p if k in comm else -p
                comm = {k: x for k, x in comm.items() if x}
                if not comm:
                    continue
                ck = self._flat_solver.sparse_coords(comm)
                if ck is None:
                    raise ValueError(
                        f"{self.name}: basis does not close under the "
                        f"commutator (elements {i}, {j})")
                structure[(i, j)] = ck
        return structure

    def _killing_gram(self) -> list[dict]:
        """The sparse rows of K_ab = Tr(ad_a ad_b), summed over the entries
        (ad_a)_kj that meet an entry (ad_b)_jk."""
        # (row, col, value) of the nonzero entries of each ad_a.
        entries = [[(k, j, v) for j, ck in row.items() for k, v in ck.items()]
                   for row in self._ad_of]
        by_entry: dict[tuple[int, int], list[tuple[int, int | Fraction]]] = {}
        for b, ent in enumerate(entries):
            for k, j, v in ent:
                by_entry.setdefault((k, j), []).append((b, v))
        rows: list[dict] = [{} for _ in range(self.dim)]
        for row, ent in zip(rows, entries):
            for k, j, v in ent:
                for b, w in by_entry.get((j, k), ()):
                    row[b] = row[b] + v * w if b in row else v * w
        return [{b: rational(x) for b, x in sorted(row.items()) if x}
                for row in rows]

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
        cols = dict(self.sparse_brackets([sparse_vec(self.check_vector(x))],
                                         [sparse_vec(r) for r in rows]))
        ad = [[cols.get((0, j), {}).get(i, 0) for j in range(len(rows))]
              for i in range(self.dim)]
        return tuple(vec_mat(c, rows) for c in nullspace(ad))

    def sparse_covector(self, x: dict) -> dict:
        """K x for a sparse {index: value} x, nonzero entries only; K is
        symmetric, so it is sum_j x_j K_j over its rows K_j."""
        return sparse_combination(x, self._killing_rows)

    def covector(self, x) -> Vec:
        """K x: the coordinates of B(x, .) in the dual basis."""
        x = sparse_vec(self.check_vector(x))
        return dense_vec(self.sparse_covector(x), self.dim)

    def orthocomplement(self, covectors) -> Mat:
        """Common kernel of the given covectors (all of g when none)."""
        return tuple(nullspace(covectors)) if covectors else identity(self.dim)

    def killing_form(self, x, y) -> Fraction:
        """B(x, y) = Tr(ad_x ad_y), evaluated through the cached Gram."""
        return dot(self.check_vector(x), self.covector(y))

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

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        return Fraction(self._ad_of[i].get(j, {}).get(k, 0))

    def realize(self, x) -> Mat:
        """The matrix sum_i x_i b_i."""
        x = self.check_vector(x)
        return tuple(vec_mat(x, [b[r] for b in self.basis]) for r in range(self.n))

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


# -- module-level operation surface ---------------------------------------

def killing_signature(g: LieAlgebra) -> tuple[int, int, int]:
    """(n_neg, n_pos, n_zero) of the Killing form."""
    pos, neg, zero = inertia([[row.get(j, 0) for j in range(g.dim)]
                              for row in g._killing_rows])
    return neg, pos, zero


def matrix_algebra(name: str, basis) -> LieAlgebra:
    """Build an algebra from a user-supplied matrix basis.

    Entries may be ints, fractions, "p/q" strings or floats; a float is
    taken as its exact binary rational.  Raises ValueError when the
    matrices are not all n x n, an entry is not a finite number, or the
    basis does not close exactly under the commutator.
    """
    return LieAlgebra(name, basis)


def _antisym(n: int, r: int, c: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    m[r][c] = 1
    m[c][r] = -1
    return m


def _sym_pair(n: int, r: int, c: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    m[r][c] = 1
    m[c][r] = 1
    return m


def _so_basis(n: int) -> list[list[list[int]]]:
    return [_antisym(n, i, j) for i in range(n) for j in range(i + 1, n)]


def _so_pq_basis(p: int, q: int) -> list[list[list[int]]]:
    n = p + q
    out = [_antisym(n, i, j) for i in range(p) for j in range(i + 1, p)]
    out += [_antisym(n, p + a, p + b) for a in range(q) for b in range(a + 1, q)]
    out += [_sym_pair(n, i, p + a) for i in range(p) for a in range(q)]
    return out


def _u_in_so_basis(n: int) -> list[list[list[int]]]:
    """u(n) realized in so(2n): skew-Hermitian z = a + ib mapped to 2x2
    blocks [[a, -b], [b, a]]; these are exactly the elements of so(2n)
    commuting with the block complex structure."""
    N = 2 * n
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            re = [[0] * N for _ in range(N)]
            re[2 * j][2 * k] = 1
            re[2 * j + 1][2 * k + 1] = 1
            re[2 * k][2 * j] = -1
            re[2 * k + 1][2 * j + 1] = -1
            out.append(re)
            im = [[0] * N for _ in range(N)]
            im[2 * j][2 * k + 1] = -1
            im[2 * j + 1][2 * k] = 1
            im[2 * k][2 * j + 1] = -1
            im[2 * k + 1][2 * j] = 1
            out.append(im)
    for j in range(n):
        d = [[0] * N for _ in range(N)]
        d[2 * j][2 * j + 1] = -1
        d[2 * j + 1][2 * j] = 1
        out.append(d)
    return out


def _su_basis(n: int) -> list[list[list[int]]]:
    """su(n) realified inside so(2n): the u(n) basis with the diagonal
    replaced by traceless differences."""
    N = 2 * n
    base = _u_in_so_basis(n)
    off = base[: n * (n - 1)]
    diag = base[n * (n - 1):]
    out = list(off)
    for j in range(n - 1):
        m = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(diag[j], diag[j + 1])]
        out.append(m)
    return out


@functools.lru_cache(maxsize=None)
def _build_cached(family: str, params: tuple) -> LieAlgebra:
    if family == "so" and len(params) == 1:
        n = params[0]
        if n < 2:
            raise ValueError("so(n) needs n >= 2")
        return LieAlgebra(f"so({n})", _so_basis(n), family="so", params=params)
    if family == "so" and len(params) == 2:
        p, q = params
        if p < 1 or q < 1:
            raise ValueError("so(p,q) needs p, q >= 1")
        return LieAlgebra(f"so({p},{q})", _so_pq_basis(p, q),
                          family="so", params=params)
    if family == "su":
        (n,) = params
        if n < 2:
            raise ValueError("su(n) needs n >= 2")
        return LieAlgebra(f"su({n})", _su_basis(n), family="su", params=params)
    if family == "u-in-so":
        (n,) = params
        if n < 1:
            raise ValueError("u(n) in so(2n) needs n >= 1")
        return LieAlgebra(f"u({n})<so({2*n})", _u_in_so_basis(n),
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


def so_pq(p: int, q: int) -> LieAlgebra:
    return build_algebra("so", (p, q))


def su(n: int) -> LieAlgebra:
    return build_algebra("su", n)


def u_in_so(n: int) -> LieAlgebra:
    return build_algebra("u-in-so", n)


# -- reductive splittings ---------------------------------------------------

class SubalgebraEmbedding:
    """A subalgebra h of g with its Killing-orthogonal complement m.

    ``h_basis`` and ``m_basis`` are rows of coordinate vectors in g.
    ``torus_basis`` is an optional maximal abelian subalgebra of h,
    expected in the block convention when root tests are used.  They are
    kept both ways: as sparse {index: value} rows (``h_sparse``,
    ``m_sparse``, ``torus_sparse``), which ``_sparse`` passes in
    ``sparse_vec`` form, unchecked, from this module, and as Fraction rows.
    """

    def __init__(self, ambient: LieAlgebra, h_basis: Mat, m_basis: Mat,
                 torus_basis: Mat | None, compact: bool, name: str = "", *,
                 _sparse: bool = False):
        self.ambient = ambient
        self.compact = compact
        self.name = name or f"h<{ambient.name}"
        self.dim_h = len(h_basis)
        self.dim_m = len(m_basis)
        self._full_solver = CoordinateSolver([*h_basis, *m_basis], _sparse=_sparse)
        self.h_sparse = self._full_solver.sparse_rows[:self.dim_h]
        self.m_sparse = self._full_solver.sparse_rows[self.dim_h:]
        self.torus_sparse = None if torus_basis is None else (
            list(torus_basis) if _sparse else [sparse_vec(t) for t in torus_basis])
        self.h_basis, self.m_basis, self.torus_basis = (
            None if rows is None else tuple(dense_vec(r, ambient.dim) for r in rows)
            for rows in (self.h_sparse, self.m_sparse, self.torus_sparse))
        # The torus rows in h-coordinates, solved; None when one leaves h.
        t_h = [self.sparse_h_coords(t) for t in self.torus_sparse or ()]
        self._cache: dict = {"torus": CoordinateSolver(t_h, _sparse=True)
                             if t_h and None not in t_h else None}

    def split_coords(self, x) -> tuple[Vec, Vec]:
        """Coefficients of x in the h-basis and the m-basis."""
        c = self._full_solver.coords(self.ambient.check_vector(x))
        if c is None:
            raise DimensionMismatch("vector is not in h + m")
        return c[:self.dim_h], c[self.dim_h:]

    def project(self, x) -> tuple[Vec, Vec]:
        """g-coordinate components (x_h, x_m) of the reductive splitting."""
        x = self.ambient.check_vector(x)
        ch, _ = self.split_coords(x)
        xh = vec_mat(ch, self.h_basis) if ch else zero_vec(self.ambient.dim)
        return xh, sub_vec(x, xh)

    def sparse_h_coords(self, v: dict) -> dict | None:
        """Nonzero h-coordinates {a: c_a} of a sparse {index: value} vector
        when it lies in h, else None: its h + m coordinates have no m part."""
        c = self._full_solver.sparse_coords(v)
        return None if c is None or any(a >= self.dim_h for a in c) else c

    def h_coords(self, x) -> Vec | None:
        """Coefficients of x in the h-basis when x lies in h, else None."""
        c = self.h_solve(x)[1]
        return None if c is None else dense_vec(c, self.dim_h)

    def in_m(self, x) -> bool:
        ch, _ = self.split_coords(x)
        return all(c == 0 for c in ch)

    def h_solve(self, x) -> tuple:
        """(x, c, ints, den, tau): x checked, its sparse h-coordinates c
        (None outside h), c as ints / den, and its torus coordinates tau or
        None.  The last solve is kept, keyed by the identity of x: an X_u
        from ``torus_vector`` carries its solve, any other is solved here."""
        last = self._cache.get("h")
        if last is None or last[0] is not x:
            x = self.ambient.check_vector(x)
            c = self.sparse_h_coords(sparse_vec(x))
            last = self._cache["h"] = (
                x, c, *_clear_denominators(c.values() if c else ()), None)
        return last

    def h_linear(self, build, x) -> tuple[list[list[int]], int]:
        """(M, den) with M / den = sum_a c_a T_a over the h-coordinates c of
        x (else DimensionMismatch), read off the shared ``h_solve``: M is a
        k x k integer matrix formed from the nonzero c_a only.  ``build(emb)``
        lists, per h_a, the nonzero entries (i, j, v) of T_a; they are kept,
        keyed by ``build``, as integers over one common denominator."""
        _, c, ints, den, _ = self.h_solve(x)
        if c is None:
            raise DimensionMismatch("vector is not in h")
        if build not in self._cache:
            rows = build(self)
            flat, flat_den = _clear_denominators(
                [v for row in rows for *_, v in row])
            it = iter(flat)
            self._cache[build] = (
                [[(i, j, next(it)) for i, j, _ in row] for row in rows],
                flat_den)
        table, table_den = self._cache[build]
        out = [[0] * self.dim_m for _ in range(self.dim_m)]
        for a, ca in zip(c, ints):
            for i, j, v in table[a]:
                out[i][j] += ca * v
        return out, den * table_den

    def _ad_entries(self) -> list[list[tuple[int, int, Fraction]]]:
        """Per h_a, the nonzero entries (i, j, v) of D_a = ad_{h_a}|_m;
        raises ValueError when some [h_a, m_j] leaves m."""
        table: list[list] = [[] for _ in self.h_sparse]
        for (a, j), b in self.ambient.sparse_brackets(self.h_sparse, self.m_sparse):
            c = self._full_solver.sparse_coords(b)
            if c is None:
                raise DimensionMismatch("vector is not in h + m")
            if any(i < self.dim_h for i in c):
                raise ValueError(f"{self.name}: [h, m] leaves m")
            table[a] += [(i - self.dim_h, j, v) for i, v in c.items()]
        return table

    def ad_m_ints(self, x) -> tuple[list[list[int]], int]:
        """ad_x on m for x in h (else DimensionMismatch) as (M, den), M / den
        in m-coordinates: column j holds those of [x, m_j]."""
        return self.h_linear(SubalgebraEmbedding._ad_entries, x)

    def torus_coords(self, x) -> Vec | None:
        """Coordinates of x in the torus basis, or None if x is not in t: the
        tau an X_u from ``torus_vector`` carries, else solved from its shared
        h-coordinates, so None for every x when the torus is not in h."""
        if self.torus_sparse is None:
            return None
        _, c, _, _, tau = self.h_solve(x)
        if tau is None and c is not None and self._cache["torus"] is not None:
            tau = self._cache["torus"].coords(c)
        return tau

    def torus_vector(self, tau) -> Vec:
        """The element x = sum_i tau_i T_i of the torus, in g-coordinates.
        With the torus in h, x carries its solve: tau and the h-coordinates
        sum_i tau_i T_i fill the ``h_solve`` slot, so certify solves nothing."""
        if self.torus_sparse is None:
            raise NotCompact("embedding carries no torus")
        tau = vec(tau)
        if len(tau) != len(self.torus_sparse):
            raise DimensionMismatch("torus coordinate length mismatch")
        t = sparse_vec(tau)
        x = dense_vec(sparse_combination(t, self.torus_sparse), self.ambient.dim)
        if self._cache["torus"] is not None:
            c = sparse_combination(t, self._cache["torus"].sparse_rows)
            self._cache["h"] = (x, c, *_clear_denominators(c.values()), tau)
        return x

    def __repr__(self):
        return (f"SubalgebraEmbedding({self.name!r}, dim_h={self.dim_h}, "
                f"dim_m={self.dim_m})")


def reductive_split(g: LieAlgebra, h_basis, *, torus_basis=None, name: str = "",
                    check: bool = True, _sparse: bool = False) -> SubalgebraEmbedding:
    """Split g = h + m with m the Killing-orthogonal complement of h.  The
    h and torus rows are coordinate vectors of g; the block builders of
    this module pass them in ``sparse_vec`` form with ``_sparse``.

    Raises DegenerateRestriction when B restricted to h is singular (no
    reductive complement exists in the Killing-orthogonal sense).
    """
    h_sparse, torus = (rows if _sparse else [sparse_vec(g.check_vector(r)) for r in rows]
                       for rows in (h_basis, torus_basis or ()))
    bh_sparse = [g.sparse_covector(hi) for hi in h_sparse]
    _, neg, zero = inertia([[row.get(j, 0) for j in range(len(h_sparse))]
                            for row in sparse_congruence(h_sparse, g._killing_rows)])
    if zero:
        raise DegenerateRestriction(
            f"Killing form of {g.name} is singular on the subalgebra")
    m_rows = g.orthocomplement([[k.get(j, 0) for j in range(g.dim)] for k in bh_sparse])
    compact = neg == len(h_sparse)
    emb = SubalgebraEmbedding(g, h_sparse, list(map(sparse_vec, m_rows)), torus or None,
                              compact, name=name, _sparse=True)
    if check:
        _check_embedding(emb)
    return emb


def _check_embedding(emb: SubalgebraEmbedding) -> None:
    g = emb.ambient
    for _, b in g.sparse_brackets(emb.h_sparse):
        if emb.sparse_h_coords(b) is None:
            raise ValueError(f"{emb.name}: h is not closed under brackets")
    emb.ad_m_ints(zero_vec(g.dim))  # builds D_a; raises when [h, m] leaves m
    # B(h, m) = 0: each K h_i summed over the columns of m.
    cols = sparse_columns(emb.m_sparse)
    if any(sparse_combination(g.sparse_covector(hi), cols) for hi in emb.h_sparse):
        raise ValueError(f"{emb.name}: B(h, m) != 0")
    # Torus, when provided: abelian and inside h.
    if emb.torus_sparse is not None:
        if emb._cache["torus"] is None:
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
    """The sparse g-coordinates, keys ascending, of the n x n matrices
    {r * n + c: value} in flats; ValueError(error.format(i)) when the
    first matrix not in g is the i-th."""
    rows = [g._flat_solver.sparse_coords(flat) for flat in flats]
    if None in rows:
        raise ValueError(error.format(rows.index(None)))
    return [dict(sorted(c.items())) for c in rows]


def _block_torus(g: LieAlgebra, r: int) -> list[dict]:
    n = g.n
    return _coords_in(g, ({(2 * i + 1) * n + 2 * i: 1, 2 * i * n + 2 * i + 1: -1}
                          for i in range(r)),
                      f"{g.name}: block torus element {{}} is not in g")


def block_torus(g: LieAlgebra, r: int) -> Mat:
    """Coordinates of the block torus T_i spanned by 2x2 rotation blocks
    [[0, -t_i], [t_i, 0]] on the diagonal, for i = 0..r-1."""
    return tuple(dense_vec(t, g.dim) for t in _block_torus(g, r))


def torus_embedding(g: LieAlgebra, r: int, *, name: str = "") -> SubalgebraEmbedding:
    """The block torus of rank r as h, carrying itself as its torus."""
    t = _block_torus(g, r)
    return reductive_split(g, t, torus_basis=t, name=name or f"t{r}<{g.name}", _sparse=True)


def so_block_embedding(g: LieAlgebra, k: int, *, name: str = "") -> SubalgebraEmbedding:
    """so(k) in the top-left block of g (g built from so(n) or so(p,q))."""
    n = g.n
    h_rows = _coords_in(g, ({i * n + j: 1, j * n + i: -1} for i in range(k)
                            for j in range(i + 1, k)),
                        f"so({k}) block does not embed in {g.name}")
    return reductive_split(g, h_rows, torus_basis=_block_torus(g, k // 2),
                           name=name or f"so({k})<{g.name}", _sparse=True)


def u_block_embedding(g: LieAlgebra, n: int, *, name: str = "") -> SubalgebraEmbedding:
    """u(n), the commutant of the block complex structure inside the
    so(2n) top-left block of g."""
    h_rows = _coords_in(g, ({r * g.n + c: x for r, row in enumerate(m)
                             for c, x in enumerate(row) if x}
                            for m in _u_in_so_basis(n)),
                        f"u({n}) block does not embed in {g.name}")
    return reductive_split(g, h_rows, torus_basis=_block_torus(g, n),
                           name=name or f"u({n})<{g.name}", _sparse=True)


def jacobi_residual(g: LieAlgebra) -> Fraction:
    """Max residual of the Jacobi identity over all basis triples (exact
    zero for every algebra that closes)."""
    return Fraction(g.triple_residual(
        [{(c, k): v for c, ck in row.items() for k, v in ck.items()}
         for row in g._ad_of]))
