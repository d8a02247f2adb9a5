"""Exact linear algebra kernel: oracles are brute-force, numpy or the
Fraction reference in ``fraction_oracles``."""

from fractions import Fraction as Q

import fraction_oracles as ref
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatbundles import exact as ex


def sp(a):
    """The sparse {column: value} rows the kernel takes, of dense rows."""
    return [ex.sparse_vec(row) for row in a]


def test_reduce_identity_pivots():
    rows = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
    red, pivots, _ = ex._reduce(sp(rows))
    assert pivots == [0, 1, 2]
    assert [[Q(row.get(j, 0), row[p]) for j in range(3)] for row, p in zip(red, pivots)] == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert ex.det(sp(rows), 3) == 1


def _signed(k, zero):
    """0 (with ``zero``), 1, -1, 2, -2, ..., k, -k."""
    return [0] * zero + [s * i for i in range(1, k + 1) for s in (1, -1)]


def _entry_law(zero):
    """Plain ints in -5..5 as integer callers pass them, and p/q * 10^e over a
    wide exponent range (p in -9..9, q in 1..9, e in -40..40), both without
    zero unless ``zero``: one bounded integer n per value, read as an int
    when even and as the digits (p, q, e) of n // 2 when odd."""
    ints, numerators = _signed(5, zero), _signed(9, zero)

    def decode(n):
        k, odd = divmod(n, 2)
        if not odd:
            return ints[k % len(ints)]
        k, p = divmod(k, len(numerators))
        e, q = divmod(k, 9)
        return Q(numerators[p], q + 1) * Q(10) ** (e - 40)
    return st.integers(0, 2 * len(numerators) * 9 * 81 - 1).map(decode)


# NONZERO is the same law as ENTRY without zero, drawn directly rather
# than filtered.
ENTRY = _entry_law(zero=True)
NONZERO = _entry_law(zero=False)
# The values hypothesis's bias towards each component's bounds reached when
# p, q and e were drawn apart, for the explicit examples.
BIG, TINY = 9 * Q(10) ** 40, 9 * Q(10) ** -40
BOUNDARY = [0, BIG, -BIG, TINY, -TINY, Q(1, 9) * Q(10) ** -40]


def entries(n, strategy=ENTRY):
    """n entries in one draw."""
    return st.lists(strategy, min_size=n, max_size=n)


@st.composite
def matrices(draw, square=False):
    """Matrices up to 5 x 5, empty and 1 x 1 included, with zero rows, zero
    columns and rows that are combinations of others: placed after the rows
    they combine, such a row cancels to zero partway through elimination."""
    nr = draw(st.integers(0, 5))
    nc = nr if square else draw(st.integers(0, 5))
    rows: list[list] = []
    for _ in range(nr):
        kind = draw(st.sampled_from(["entries", "combination", "zero"]))
        if kind == "combination" and rows:
            x = rows[draw(st.integers(0, len(rows) - 1))]
            y = rows[draw(st.integers(0, len(rows) - 1))]
            a, b = draw(ENTRY), draw(ENTRY)
            rows.append([a * u + b * v for u, v in zip(x, y)])
        elif kind == "zero":
            rows.append([0] * nc)
        else:
            rows.append(draw(entries(nc)))
    zero_cols = draw(st.sets(st.integers(0, nc - 1))) if nc else set()
    rows = [[0 if j in zero_cols else x for j, x in enumerate(row)]
            for row in rows]
    return draw(st.permutations(rows)) if draw(st.booleans()) else rows


def _all_fractions(xs) -> bool:
    return all(type(x) is Q for x in xs)


def kernel(rows, ncols):
    """ex.nullspace as dense rows; each sparse row it gives holds nonzero
    ints, keys ascending, its lowest-index entry positive."""
    ns = ex.nullspace(rows, ncols)
    for v in ns:
        assert list(v) == sorted(v) and all(type(x) is int and x for x in v.values())
        assert v[min(v)] > 0
    return [ex.dense_vec(v, ncols) for v in ns]


def _sparse_rule(xs) -> bool:
    """Every value an int, or a Fraction that is not integral."""
    return all(type(x) is int or (type(x) is Q and x.denominator != 1)
               for x in xs)


@settings(max_examples=200, deadline=None)
@given(a=matrices(), data=st.data())
def test_kernel_matches_fraction_reference(a, data):
    nc = len(a[0]) if a else 0
    assert ex.rank(sp(a)) == ref.rank(a)
    ns = kernel(sp(a), nc)
    assert ns == ref.nullspace(a)
    assert all(_all_fractions(v) for v in ns)
    if a and ref.rank(a) < len(a):
        with pytest.raises(ValueError, match="spanning set is linearly"):
            ex.CoordinateSolver([ex.sparse_vec(row) for row in a])
        return
    solver = ex.CoordinateSolver([ex.sparse_vec(row) for row in a])
    c = data.draw(entries(len(a)))
    inside = [sum((ci * row[j] for ci, row in zip(c, a)), Q(0))
              for j in range(nc)]
    outside = data.draw(entries(nc))
    assert _sparse_rule(v for row in solver.sparse_rows for v in row.values())
    assert _sparse_rule(x for row in solver._inv_rows.values() for _, x in row)
    for v in (inside, outside):
        got = solver.coords(v)
        assert got == ref.coords(a, v)
        assert got is None or _all_fractions(got)
        sparse = solver.sparse_coords(ex.sparse_vec(v))
        assert sparse is None or _sparse_rule(sparse.values())
        dense = ex.dense_vec(ex.sparse_vec(v), nc)
        assert dense == tuple(v) and _all_fractions(dense)


@settings(max_examples=200, deadline=None)
@given(a=matrices(square=True))
@example(a=[BOUNDARY[:3], BOUNDARY[3:], BOUNDARY[1::2]])
@example(a=[[BIG, TINY], [-TINY, BOUNDARY[-1]]])
def test_det_and_inverse_match_fraction_reference(a):
    d = ex.det(sp(a), len(a))
    assert type(d) is Q and d == ref.det(a)
    expected = ref.inverse(a)
    if expected is None:
        assert d == 0
        with pytest.raises(ValueError, match="matrix is singular"):
            ex.inverse(a)
    else:
        inv = ex.inverse(a)
        assert inv == expected
        assert all(_all_fractions(row) for row in inv)


@st.composite
def monomial_matrices(draw, near=False):
    """Matrices up to 6 x 6 with at most one nonzero in each row and in each
    column, permuted, with zero rows and zero columns; square or not.  With
    ``near`` one change sends them down the general path: a second nonzero
    in a row, or a second row on a column already hit."""
    nr = draw(st.integers(2 if near else 0, 6))
    nc = nr if draw(st.booleans()) else draw(st.integers(2 if near else 0, 6))
    hits = draw(st.integers(1 if near else 0, min(nr, nc)))
    rows = draw(st.permutations(range(nr)))[:hits]
    cols = draw(st.permutations(range(nc)))[:hits]
    a = [[0] * nc for _ in range(nr)]
    for i, j, x in zip(rows, cols, draw(entries(hits, NONZERO))):
        a[i][j] = x
    if near:
        i, j = rows[0], cols[0]
        if draw(st.booleans()):
            a[i][draw(st.sampled_from([c for c in range(nc) if c != j]))] = \
                draw(NONZERO)
        else:
            other = draw(st.sampled_from([r for r in range(nr) if r != i]))
            a[other] = [0] * nc
            a[other][j] = draw(NONZERO)
    return a


@st.composite
def block_diagonal_matrices(draw):
    """Block-diagonal matrices of up to three 2 x 2 or 4 x 4 blocks, the
    shapes ad_xi on m and its square take for a torus xi: ENTRY entries,
    so some blocks are singular, and the rows possibly permuted, which the
    determinant's sign must follow."""
    b = draw(st.sampled_from([2, 4]))
    n = b * draw(st.integers(0, 3))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        start = i - i % b
        a[i][start:start + b] = draw(entries(b))
    return draw(st.permutations(a)) if draw(st.booleans()) else a


@settings(max_examples=200, deadline=None)
@given(a=st.one_of(block_diagonal_matrices(), monomial_matrices()))
@example(a=[[0, 0, 5, 0], [0, 0, 0, 0], [BIG, 0, 0, 0], [0, -TINY, 0, 0]])
def test_sparse_kernel_on_structured_matrices(a):
    # Monomial and block-diagonal rows, zero rows given as {} or not at all.
    nc = len(a[0]) if a else 0
    for rows in (sp(a), sp(a) + [{}]):
        assert ex.rank(rows) == ref.rank(a)
        assert kernel(rows, nc) == ref.nullspace(a)
    if len(a) == nc:
        d = ex.det(sp(a), len(a))
        assert type(d) is Q and d == ref.det(a)
        sym = [[x + y for x, y in zip(row, col)] for row, col in zip(a, zip(*a))]
        assert ex.inertia(sp(sym)) == ref.inertia(sym)


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(monomial_matrices(), monomial_matrices(near=True)))
@example(a=[[0, BIG, 0], [-TINY, 0, 0], [0, 0, BOUNDARY[-1]]])
@example(a=[[0, -BIG, TINY], [TINY, 0, 0]])
def test_monomial_rank_and_kernel_match_fraction_reference(a):
    nonzero = [[j for j, x in enumerate(row) if x] for row in a]
    cols = [j for row in nonzero for j in row]
    monomial = all(len(row) <= 1 for row in nonzero) and \
        len(cols) == len(set(cols))
    # Split as one table of a square matrix: one monomial part, hitting cols.
    n = max(len(a), len(a[0]) if a else 0)
    parts = ex.split_table([{(i, j): x for i, row in enumerate(a)
                             for j, x in enumerate(row) if x}], n)
    assert all(mono for _, mono, _ in parts) == monomial
    if monomial and parts:
        assert {parts[0][0][j] for _, j in parts[0][2][0]} == set(cols)
    assert ex.rank(sp(a)) == ref.rank(a)
    ns = kernel(sp(a), len(a[0]) if a else 0)
    assert ns == ref.nullspace(a)
    assert all(_all_fractions(v) for v in ns)
    if all(len(row) == len(a) for row in a):
        d = ex.det(sp(a), len(a))
        assert type(d) is Q and d == ref.det(a)


NONZERO_INT = st.integers(1, 10**20).flatmap(lambda v: st.sampled_from([v, -v, v % 7 + 1]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_split_table_parts_and_pfaffians(data):
    # A table of 1-3 matrices on blocks of 1 or 2 indices (one entry per row
    # and column), 4 (antisymmetric, every entry nonzero in the first
    # matrix) and 3 (every entry nonzero) at shuffled indices: the monomial
    # blocks make one part, and each other block its own; pfaffian4 reads
    # the antisymmetric ones and refuses the others.
    sizes = data.draw(st.lists(st.sampled_from([1, 2, 3, 4]), max_size=5))
    n = sum(sizes)
    perm = data.draw(st.permutations(range(n)))
    table = [{} for _ in range(data.draw(st.integers(1, 3)))]
    blocks, start = [], 0
    for size in sizes:
        idx = sorted(perm[start:start + size])
        start += size
        blocks.append((idx, size < 3))
        for a, t in enumerate(table):
            if size == 2:
                t[idx[0], idx[1]], t[idx[1], idx[0]] = data.draw(NONZERO_INT), data.draw(NONZERO_INT)
            elif size == 3:
                t.update({(i, j): data.draw(NONZERO_INT) for i in idx for j in idx})
            elif size == 4:
                for p, i in enumerate(idx):
                    for j in idx[p + 1:]:
                        if v := data.draw(NONZERO_INT if a == 0 else st.integers(-9, 9)):
                            t[i, j], t[j, i] = v, -v
    parts = ex.split_table(table, n)
    mono = sorted(i for idx, m in blocks if m for i in idx)
    want = ([(mono, True)] if mono else []) + [(idx, m) for idx, m in blocks if not m]
    assert sorted((idx, m) for idx, m, _ in parts) == sorted(want)
    for idx, m, rows in parts:  # the table on idx, renumbered 0, 1, ...
        assert rows == [{(idx.index(i), idx.index(j)): v for (i, j), v in t.items() if i in idx}
                        for t in table]
        if m or len(idx) == 3:
            continue
        # Pf^2 = det, N = |A|^2 / 2, and the roots of y^2 - N y + Pf^2 are
        # the squared singular values, each twice.
        a = [[table[0].get((i, j), 0) for j in idx] for i in idx]
        assert rows[0] == {(p, q): v for p, row in enumerate(a) for q, v in enumerate(row) if v}
        norm, pf = ex.pfaffian4(rows[0])
        assert pf * pf == ref.det(a) and 2 * norm == sum(x * x for row in a for x in row)
        y = sorted(np.roots([1.0, -float(norm), float(pf) ** 2]).real)
        s = np.linalg.svd(np.array(a, dtype=float), compute_uv=False)
        assert np.sqrt(np.maximum(y, 0)) == pytest.approx(sorted(s)[::2], rel=1e-6, abs=1e-6 * s[0])
    assert ex.pfaffian4({(0, 1): 2, (1, 0): -2}) == (4, 0)
    assert ex.pfaffian4({(0, 1): 2}) is None and ex.pfaffian4({(0, 0): 1}) is None


def test_rank_matches_numpy_on_random_integer_matrices():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = rng.integers(-4, 5, size=(5, 7))
        assert ex.rank(sp(m.tolist())) == np.linalg.matrix_rank(m)
        # Rational rows: scaling rows by nonzero rationals keeps the rank.
        scaled = [[Q(int(x), i + 2) for x in row] for i, row in enumerate(m)]
        assert ex.rank(sp(scaled)) == np.linalg.matrix_rank(m)


def test_rank_of_empty_and_zero_matrices():
    assert ex.rank([]) == 0
    assert ex.rank(sp([[0, 0], [0, 0]])) == 0
    assert ex.rank(sp([[0, 0], [Q(1, 3), 0]])) == 1
    # Empty rows, and explicit zero entries, are zero rows.
    assert ex.rank([{}, {}]) == 0
    assert ex.rank([{0: 0, 1: Q(0)}, {1: Q(1, 3)}]) == 1


def test_nullspace_is_exact_kernel():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.integers(-3, 4, size=(4, 6)).tolist()
        ns = kernel(sp(m), 6)
        assert len(ns) == 6 - ex.rank(sp(m))
        for v in ns:
            assert all(ref.dot(row, v) == 0 for row in m)


def test_solve_and_inverse():
    a = [[2, 1], [1, 3]]
    # A x = b: the coordinates of b in the columns of A.
    x = ex.CoordinateSolver([ex.sparse_vec(c) for c in zip(*a)]).coords(ex.vec([5, 10]))
    assert x == (Q(1), Q(3))
    inv = ex.inverse(ex.mat(a))
    prod = ref.mat_mul(ex.mat(a), inv)
    assert prod == ex.identity(2)
    assert ex.CoordinateSolver([{0: 1, 1: 1}]).coords(ex.vec([0, 1])) is None


def test_inverse_rejects_non_square_input():
    with pytest.raises(ValueError):
        ex.inverse([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        ex.inverse([[1, 0], [0, 1], [1, 1]])


def test_det_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.integers(-5, 6, size=(4, 4))
        assert float(ex.det(sp(m.tolist()), 4)) == pytest.approx(np.linalg.det(m))


def test_det_row_swaps_rationals_and_singular():
    # The first pivot needs a row swap, which flips the sign.
    assert ex.det(sp([[0, 1], [1, 0]]), 2) == -1
    assert ex.det(sp([[0, 2, 1], [3, 0, 0], [0, 0, 5]]), 3) == -30
    assert ex.det(sp([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 5)]]), 2) == Q(1, 60)
    # Rows met out of pivot order: an even and an odd permutation of columns.
    assert ex.det(sp([[0, 0, 1, 0], [0, 0, 0, 2], [3, 0, 0, 0], [0, 4, 0, 0]]), 4) == 24
    assert ex.det(sp([[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]]), 4) == -24
    # Singular: dependent rows and a zero row.
    assert ex.det(sp([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), 3) == 0
    assert ex.det(sp([[1, 2], [0, 0]]), 2) == 0
    assert ex.det([], 0) == 1


def test_det_rejects_non_square_input():
    with pytest.raises(ValueError):
        ex.det(sp([[1, 2, 3], [4, 5, 6]]), 3)
    with pytest.raises(ValueError):
        ex.det(sp([[1, 2], [3, 4], [5, 6]]), 2)
    # A zero last column leaves no entry to show the width: ncols does.
    with pytest.raises(ValueError):
        ex.det(sp([[1, 0, 0], [0, 1, 0]]), 3)
    with pytest.raises(ValueError):
        ex.det([{0: 1}, {1: 1}, {3: 1}], 3)


def test_inertia_on_known_forms():
    assert ex.inertia(sp([[2, 0], [0, -3]])) == (1, 1, 0)
    assert ex.inertia(sp([[0, 1], [1, 0]])) == (1, 1, 0)
    assert ex.inertia(sp([[0, 0], [0, 0]])) == (0, 0, 2)
    assert ex.inertia(sp([[-1, 0, 0], [0, -2, 0], [0, 0, 0]])) == (0, 2, 1)
    # Every diagonal entry zero: only the e_i + e_j step finds a pivot.
    assert ex.inertia(sp([[0, 1, 1], [1, 0, 1], [1, 1, 0]])) == (1, 2, 0)
    assert ex.inertia(sp([[0, 2, 0], [2, 0, 0], [0, 0, 0]])) == (1, 1, 1)
    assert ex.inertia(sp([[Q(1, 2), Q(1, 3)], [Q(1, 3), Q(2, 9)]])) == (1, 0, 1)
    assert ex.inertia([]) == (0, 0, 0)


def test_inertia_matches_numpy_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(-3, 4, size=(5, 5))
        sym = (a + a.T).tolist()
        pos, neg, zero = ex.inertia(sp(sym))
        ev = np.linalg.eigvalsh(np.array(sym, dtype=float))
        assert pos == int((ev > 1e-9).sum())
        assert neg == int((ev < -1e-9).sum())


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices up to 5 x 5: ENTRY entries, the same with a zero
    diagonal (the e_i + e_j step), or C D C^T of rank below the size."""
    n = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["entries", "zero_diagonal", "low_rank"]))
    if kind == "low_rank":
        r = draw(st.integers(0, max(n - 1, 0)))
        c = [draw(entries(r)) for _ in range(n)]
        dg = draw(entries(r))
        return [[sum((x * e * y for x, e, y in zip(ci, dg, cj)), Q(0))
                 for cj in c] for ci in c]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j, x in enumerate(draw(entries(n - i)), i):
            a[i][j] = a[j][i] = x
        if kind == "zero_diagonal":
            a[i][i] = 0
    return a


@settings(max_examples=200, deadline=None)
@given(a=symmetric_matrices())
@example(a=[[BIG, TINY, 0], [TINY, -TINY, BOUNDARY[-1]], [0, BOUNDARY[-1], -BIG]])
@example(a=[[0, BIG], [BIG, 0]])
def test_inertia_matches_fraction_reference(a):
    assert ex.inertia(sp(a)) == ref.inertia(a)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sparse_congruence_and_common_denominator_match_dense(data):
    n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 4))
    m = [data.draw(entries(n)) for _ in range(n)]
    r = [data.draw(entries(n)) for _ in range(k)]
    ints, den = ex.sparse_ints([ex.sparse_vec(x) for x in r])
    assert all(type(v) is int for row in ints for v in row.values())
    assert [ex.dense_vec({i: Q(v, den) for i, v in row.items()}, n)
            for row in ints] == [tuple(map(Q, x)) for x in r]
    got = ex.sparse_congruence([ex.sparse_vec(x) for x in r],
                               [ex.sparse_vec(x) for x in m])
    assert _sparse_rule(v for row in got for v in row.values())
    assert [ex.dense_vec(row, k) for row in got] == list(ref.congruence(r, m))


def test_primitive_scaling():
    assert ex.primitive([Q(1, 2), Q(1, 3)]) == (Q(3), Q(2))
    assert ex.primitive([Q(-2), Q(4)]) == (Q(1), Q(-2))
    assert ex.primitive([Q(0), Q(0)]) == (Q(0), Q(0))


def test_coordinate_solver_round_trip():
    rows = [[1, 0, 2, 0], [0, 3, 0, 0], [1, 1, 1, 1]]
    solver = ex.CoordinateSolver(map(ex.sparse_vec, rows))
    target = ex.vec([2, 7, 3, 2])  # 1*r0 + 2*r1 + ... solve arbitrary combo
    combo = tuple(
        sum(Q(c) * Q(rows[i][j]) for i, c in enumerate((2, -1, 5)))
        for j in range(4))
    c = solver.coords(combo)
    assert c == (Q(2), Q(-1), Q(5))
    assert solver.coords(ex.vec([1, 0, 0, 0])) is None
    # sparse dict input
    c2 = solver.coords({1: Q(3)})
    assert c2 == (Q(0), Q(1), Q(0))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_monomial_solver_matches_the_general_solve(data):
    # Rows with one nonzero each, as the unit-vector h + m bases and torus
    # rows are: coordinates read off, the span test without recombination.
    n = data.draw(st.integers(1, 6))
    cols = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    rows = [[0] * n for _ in cols]
    for row, j, x in zip(rows, cols, data.draw(entries(len(cols), NONZERO))):
        row[j] = x
    solver = ex.CoordinateSolver(map(ex.sparse_vec, rows))
    general = ref.Solver(rows)
    assert solver._disjoint  # read off, with no elimination
    c = data.draw(entries(len(rows)))
    inside = [sum((ci * row[j] for ci, row in zip(c, rows)), Q(0))
              for j in range(n)]
    outside = data.draw(entries(n))
    for v in (inside, outside, [0] * n):
        sparse = ex.sparse_vec(v)
        got = solver.sparse_coords(sparse)
        assert got == general.sparse_coords(sparse)
        assert got is None or _sparse_rule(got.values())
        assert solver.coords(v) == ref.coords(rows, v)
    assert solver.coords(inside) is not None
    assert not ex.CoordinateSolver([{0: 1, 1: 1}, {1: 1}])._disjoint


# Nonzero p/q, drawn directly rather than filtered.
SPARSE_ENTRY = st.builds(lambda p, q, s: s * Q(p, q), st.integers(1, 9),
                         st.integers(1, 4), st.sampled_from([1, -1]))


@st.composite
def sparse_row_sets(draw):
    """Up to 6 sparse rational rows of width up to 8: pairwise disjoint
    supports (each column owned by at most one row, so a row may be zero),
    block-diagonal ones (each row inside one of three column blocks, so
    the rows overlap only within a block), or random overlapping supports;
    then possibly a zero row or a combination of earlier rows, both
    dependent, and a shuffle."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["disjoint", "blocks", "random"]))
    if kind == "disjoint":
        owner = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
        supports = [[c for c in range(n) if owner[c] == j] for j in range(k)]
    elif kind == "blocks":
        block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        supports = [sorted(draw(st.sets(st.sampled_from([c for c in range(n) if block[c] == b]))))
                    for b in draw(st.lists(st.sampled_from(block), min_size=k, max_size=k))]
    else:
        supports = [sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
                    for _ in range(k)]
    rows = [dict(zip(cols, draw(entries(len(cols), SPARSE_ENTRY))))
            for cols in supports]
    extra = draw(st.sampled_from(["none", "zero", "combination"]))
    if extra == "zero":
        rows.append({})
    elif extra == "combination" and rows:
        a, b = draw(SPARSE_ENTRY), draw(SPARSE_ENTRY)
        x, y = rows[0], rows[-1]
        comb = {c: a * x.get(c, 0) + b * y.get(c, 0) for c in sorted(x.keys() | y.keys())}
        rows.append({c: v for c, v in comb.items() if v})
    return draw(st.permutations(rows)) if draw(st.booleans()) else rows


@settings(max_examples=300, deadline=None)
@given(rows=sparse_row_sets(), data=st.data())
def test_read_off_solver_matches_the_elimination_reference(rows, data):
    # The same coordinates (None included, and in the same key order) and
    # the same error as the [rows | I] solver, on disjoint supports (read
    # off) and on overlapping ones (each overlap component eliminated on its
    # own, its inverse kept as ints); the rows are given in ``sparse_vec`` form.
    width = 1 + max((max(r) for r in rows if r), default=1)
    sparse = [ex.sparse_vec(r.get(i, 0) for i in range(width)) for r in rows]
    try:
        expected = ref.Solver(rows)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            ex.CoordinateSolver(sparse)
        return
    solver = ex.CoordinateSolver(sparse)
    disjoint = sum(map(len, rows)) == len(set().union(*rows))
    assert solver._disjoint == (disjoint and all(rows))
    assert solver._disjoint or all(type(x) is int for r in solver._inv_rows.values() for _, x in r)
    coeffs = data.draw(entries(len(rows), st.sampled_from([0, 1, -1]) | SPARSE_ENTRY))
    inside = {}
    for cj, row in zip(coeffs, rows):
        for i, x in row.items():
            inside[i] = inside.get(i, 0) + cj * x
    inside = {i: x for i, x in inside.items() if x}
    tests = [inside, {}, {data.draw(st.integers(0, width)): data.draw(SPARSE_ENTRY)}]
    if inside:  # one entry changed, dropped, or one added
        i = data.draw(st.sampled_from(sorted(inside)))
        tests += [{**inside, i: inside[i] + 1} if inside[i] != -1 else {**inside, i: 2},
                  {c: x for c, x in inside.items() if c != i},
                  {**inside, width: data.draw(SPARSE_ENTRY)}]
    for v in tests:
        v = dict(data.draw(st.permutations(list(v.items()))))
        got, want = solver.sparse_coords(v), expected.sparse_coords(v)
        assert got == want
        assert got is None or (list(got) == list(want) and _sparse_rule(got.values()))
    assert solver.sparse_coords(inside) is not None


def test_coordinate_solver_rejects_dependent_rows():
    with pytest.raises(ValueError):
        ex.CoordinateSolver([{0: 1, 1: 2}, {0: 2, 1: 4}])
