"""Lie algebra kernel: brackets, Killing form, families, splittings.

Oracles: direct matrix commutators (numpy on exact integer matrices), the
(n-2) Tr(XY) trace identity for so(n), and eigenvalue counts.
"""

import copy
import re
import functools
from fractions import Fraction as Q

import fraction_oracles as ref
import numpy as np
import pytest
from fraction_oracles import ad_m, dot, killing, unit_vec, vec_mat
from hypothesis import given, settings
from hypothesis import strategies as st

from fatbundles import liealg as la
from fatbundles.catalog import make_pair
from fatbundles.errors import (
    DegenerateRestriction,
    DimensionMismatch,
    NotCompact,
)
from fatbundles.exact import (
    dense_vec,
    mat,
    rank,
    sparse_dot,
    sparse_vec,
    vec,
)
from fatbundles.fatness import certify


def dense_covector(g, x):
    """Reference K x: every term of every row, zeros included."""
    return tuple(sum((k * xj for k, xj in zip(row, x)), Q(0))
                 for row in killing(g))


def mat_float(m):
    return np.array([[float(x) for x in row] for row in m])


def commutator_oracle(g, x, y):
    """Independent bracket: realize matrices, commute, re-expand."""
    mx, my = mat_float(g.realize(x)), mat_float(g.realize(y))
    comm = mx @ my - my @ mx
    flat = np.array([mat_float(b).ravel() for b in g.basis])
    c, *_ = np.linalg.lstsq(flat.T, comm.ravel(), rcond=None)
    assert np.abs(flat.T @ c - comm.ravel()).max() < 1e-9
    return c


def test_so3_cyclic_basis_bracket():
    # Standard cyclic basis, supplied by the user rather than built in.
    l1 = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
    l2 = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
    l3 = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    g = la.matrix_algebra("so3-cyclic", [l1, l2, l3])
    assert g.bracket(unit_vec(3, 0), unit_vec(3, 1)) == vec([0, 0, 1])


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(4)
    for g in (la.so(4), la.so(5), la.build_algebra("so", (3, 2)),
              la.build_algebra("u-in-so", 2), la.build_algebra("su", 3)):
        for _ in range(5):
            x = vec(rng.integers(-3, 4, size=g.dim).tolist())
            y = vec(rng.integers(-3, 4, size=g.dim).tolist())
            br = g.bracket(x, y)
            oracle = commutator_oracle(g, x, y)
            assert np.abs(np.array([float(v) for v in br]) - oracle).max() < 1e-9


def test_bracket_antisymmetry_and_self():
    g = la.so(5)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = vec(rng.integers(-5, 6, size=g.dim).tolist())
        y = vec(rng.integers(-5, 6, size=g.dim).tolist())
        assert not any(g.bracket(x, x))
        xy = g.bracket(x, y)
        yx = g.bracket(y, x)
        assert all(a == -b for a, b in zip(xy, yx))


def test_so5_elementary_bracket():
    # [A_1, A_2] = E_21 - E_12 for A_i = E_{i5} - E_{5i} (1-indexed).
    g = la.so(5)
    a1 = ref.coords_of_matrix(g, [[0, 0, 0, 0, 1], [0] * 5, [0] * 5, [0] * 5,
                                  [-1, 0, 0, 0, 0]])
    a2 = ref.coords_of_matrix(g, [[0] * 5, [0, 0, 0, 0, 1], [0] * 5, [0] * 5,
                                  [0, -1, 0, 0, 0]])
    br = g.realize(g.bracket(a1, a2))
    expect = [[0, -1, 0, 0, 0], [1, 0, 0, 0, 0], [0] * 5, [0] * 5, [0] * 5]
    assert br == tuple(vec(r) for r in expect)


def test_killing_so3_value():
    g = la.so(3)
    x = unit_vec(3, 0)  # E_12 - E_21
    assert dot(x, g.covector(x)) == Q(-2)


def test_killing_so5_j_value():
    g = la.so(5)
    t = la.torus_embedding(g, 2).torus_basis
    j = tuple(a + b for a, b in zip(t[0], t[1]))
    assert dot(j, g.covector(j)) == Q(-12)
    # equals 3 Tr(J^2) for so(5)
    jm = mat_float(g.realize(j))
    assert float(dot(j, g.covector(j))) == pytest.approx(3 * np.trace(jm @ jm))


def test_killing_trace_identity_oracle():
    # B(X, Y) = (n - 2) Tr(XY) on so(n), used as an oracle only.
    rng = np.random.default_rng(6)
    for n in (3, 4, 5, 6):
        g = la.so(n)
        for _ in range(5):
            x = vec(rng.integers(-3, 4, size=g.dim).tolist())
            y = vec(rng.integers(-3, 4, size=g.dim).tolist())
            mx, my = mat_float(g.realize(x)), mat_float(g.realize(y))
            assert float(dot(x, g.covector(y))) == pytest.approx(
                (n - 2) * np.trace(mx @ my))


def test_killing_symmetry_and_ad_invariance():
    g = la.so(5)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = vec(rng.integers(-4, 5, size=g.dim).tolist())
        y = vec(rng.integers(-4, 5, size=g.dim).tolist())
        z = vec(rng.integers(-4, 5, size=g.dim).tolist())
        assert dot(x, g.covector(y)) == dot(y, g.covector(x))
        assert (dot(g.bracket(z, x), g.covector(y))
                + dot(x, g.covector(g.bracket(z, y)))) == 0


def test_jacobi_exact_on_builtins():
    for g in (la.so(4), la.so(5), la.so(7), la.so(11), la.build_algebra("so", (4, 1)),
              la.build_algebra("so", (6, 1)), la.build_algebra("so", (10, 1)),
              la.build_algebra("u-in-so", 2), la.build_algebra("su", 3)):
        assert la.jacobi_residual(g) == 0


# Small algebras for the dense triple loop: so(5), so(4, 1), su(3), u(2) and
# the float-basis so(3), whose structure constants are not all integers.
JACOBI_ALGEBRAS = {
    "so5": lambda: la.so(5), "so41": lambda: la.build_algebra("so", (4, 1)),
    "su3": lambda: la.build_algebra("su", 3), "u2": lambda: la.build_algebra("u-in-so", 2),
    "scaled_so3": lambda: la.matrix_algebra("so3-scaled", scaled_so3())}


def corrupted(g, i, j, k, delta):
    """A copy of g whose constant c^k_ij (and c^k_ji) is moved by delta."""
    bad = copy.copy(g)
    bad._ad_of = [dict(row) for row in g._ad_of]
    ck = dict(g._ad_of[i].get(j, {}))
    ck[k] = ck.get(k, 0) + delta
    bad._ad_of[i][j] = ck
    bad._ad_of[j][i] = {a: -v for a, v in ck.items()}
    return bad


def dense_jacobi_residual(g):
    """The Jacobi residual by the dense triple loop of the references."""
    c = [[dense_vec(g._ad_of[a].get(b, {}), g.dim) for b in range(g.dim)]
         for a in range(g.dim)]
    return ref.triple_residual(c, c)


@pytest.mark.parametrize("name", sorted(JACOBI_ALGEBRAS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_jacobi_residual_of_one_corrupted_constant(name, data):
    g = JACOBI_ALGEBRAS[name]()
    d = g.dim
    i, j = data.draw(st.sampled_from(sorted(g._structure)))
    k = data.draw(st.integers(0, d - 1))
    bad = corrupted(g, i, j, k, data.draw(st.sampled_from([-1, 1])))
    assert la.jacobi_residual(bad) == dense_jacobi_residual(bad)
    assert la.jacobi_residual(g) == dense_jacobi_residual(g) == 0


def test_jacobi_residual_sees_a_corrupted_constant():
    # [e_0, e_1] = -e_4 in the so(5) basis; moving that constant breaks
    # Jacobi, and the residual is the dense loop's.
    g = la.so(5)
    bad = corrupted(g, 0, 1, 4, 1)
    assert la.jacobi_residual(bad) == dense_jacobi_residual(bad) > 0


def test_build_algebra_dimensions():
    assert la.so(5).dim == 10
    assert la.build_algebra("so", (4, 1)).dim == 10
    assert la.build_algebra("u-in-so", 2).dim == 4
    assert la.build_algebra("su", 3).dim == 8
    with pytest.raises(ValueError):
        la.build_algebra("sp", 2)
    with pytest.raises(ValueError):
        la.so(1)


def test_so_pq_defining_relation():
    # X^T I_{p,q} + I_{p,q} X = 0 for every basis element.
    for p, q in ((4, 1), (3, 2), (6, 1)):
        g = la.build_algebra("so", (p, q))
        ipq = np.diag([1.0] * p + [-1.0] * q)
        for b in g.basis:
            bm = mat_float(b)
            assert np.abs(bm.T @ ipq + ipq @ bm).max() == 0


def test_so41_killing_signature():
    assert la.killing_signature(la.build_algebra("so", (4, 1))) == (6, 4, 0)


def test_u_in_so_is_commutant_of_j():
    # Solve the commutant linear system inside so(4) and compare spans.
    g4 = la.so(4)
    j = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    basis = np.array([mat_float(b) for b in g4.basis])
    cols = np.array([(b @ j - j @ b).ravel() for b in basis]).T
    from scipy.linalg import null_space
    commutant = null_space(cols, rcond=1e-12)
    assert commutant.shape[1] == 4
    u2 = la.build_algebra("u-in-so", 2)
    assert u2.dim == 4
    # every u(2) basis matrix commutes with J and lies in so(4)
    for b in u2.basis:
        bm = mat_float(b)
        assert np.abs(bm @ j - j @ bm).max() == 0
        assert np.abs(bm + bm.T).max() == 0


def test_semisimple_flags():
    # Cartan's criterion: the Killing form has no null directions.
    assert la.killing_signature(la.so(5))[2] == 0
    assert la.killing_signature(la.build_algebra("so", (4, 1)))[2] == 0
    assert la.killing_signature(la.build_algebra("u-in-so", 2))[2] != 0  # center J


def test_covector_round_trip():
    g = la.so(5)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = vec(rng.integers(-9, 10, size=g.dim).tolist())
        assert ref.solve(killing(g), g.covector(x)) == x
    e0 = unit_vec(g.dim, 0)
    assert dot(e0, g.covector(e0)) == ref.killing_gram(ref.structure_constants(g.basis))[0][0]


def test_ad_kernel_and_killing_pairing_helpers():
    g = la.so(5)
    x = unit_vec(g.dim, 0)          # the rotation in the (0, 1) plane
    rows = [unit_vec(g.dim, j) for j in range(g.dim)]
    ad = ref.ad_on(g, x, rows)
    for j, r in enumerate(rows):
        column = [float(row[j]) for row in ad]
        assert np.allclose(column, commutator_oracle(g, x, r))
    # Its centralizer is so(2) + so(3): dimension 1 + 3, as sparse int rows.
    cen = g.centralizer_in(sparse_vec(x), [sparse_vec(r) for r in rows])
    assert all(type(v) is int for c in cen for v in c.values())
    cen = [dense_vec(c, g.dim) for c in cen]
    assert len(cen) == 4 == g.dim - rank([sparse_vec(r) for r in ad])
    assert all(not any(g.bracket(x, c)) for c in cen)
    # Its Killing complement is the m of the split along it; h = 0 leaves all of g.
    comp = la.reductive_split(g, cen).m_basis
    assert len(comp) == g.dim - len(cen)
    assert all(dot(a, g.covector(b)) == 0 for a in cen for b in comp)
    assert la.reductive_split(g, []).m_basis == tuple(rows)


# Sparse rational vectors: a few nonzero entries, each p/q * 10^e with
# |e| up to 40, so that huge and tiny terms meet in one sum; the nonzero
# numerator p in -99..99 is drawn directly, as a filter would discard whole
# examples.
NUMERATOR = st.integers(-99, 98).map(lambda p: p + (p >= 0))
NONZERO = st.builds(lambda p, q, e: Q(p, q) * Q(10) ** e,
                    NUMERATOR, st.integers(1, 99),
                    st.integers(-40, 40))


def sparse_vectors(dim):
    return st.dictionaries(st.integers(0, dim - 1), NONZERO,
                           max_size=max(1, dim // 3)).map(
        lambda d: tuple(d.get(i, Q(0)) for i in range(dim)))


# name -> (algebra, number of nonzero off-diagonal Killing entries)
SPARSE_KERNEL_ALGEBRAS = {
    "so5": (lambda: la.so(5), 0), "so41": (lambda: la.build_algebra("so", (4, 1)), 0),
    "su3": (lambda: la.build_algebra("su", 3), 2),
    "u2": (lambda: la.build_algebra("u-in-so", 2), 2)}


@pytest.mark.parametrize("name", sorted(SPARSE_KERNEL_ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_killing_contraction_matches_dense(name, data):
    build, off_diagonal = SPARSE_KERNEL_ALGEBRAS[name]
    g = build()
    assert off_diagonal == sum(1 for i, row in enumerate(killing(g))
                               for j, k in enumerate(row) if k and i != j)
    x = data.draw(sparse_vectors(g.dim))
    y = data.draw(sparse_vectors(g.dim))
    assert g.covector(x) == dense_covector(g, x)
    pairing = sum((a * b for a, b in zip(x, dense_covector(g, y))), Q(0))
    assert dot(x, g.covector(y)) == dot(y, g.covector(x)) == pairing


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_vectors(6), min_size=1, max_size=4),
       st.lists(sparse_vectors(6), min_size=1, max_size=4))
def test_sparse_dot_matches_the_dense_sum_in_either_order(a, b):
    def dense(x, y):
        return sum((p * q for p, q in zip(x, y)), Q(0))
    # Either order: sparse_dot runs over the smaller of its two vectors.
    assert all(sparse_dot(sparse_vec(y), sparse_vec(x)) == dense(x, y)
               for x in a for y in b)
    assert all(sparse_dot(sparse_vec(x), sparse_vec(y)) == dense(x, y)
               for x in a for y in b)


def test_reductive_split_so5_so4():
    g = la.so(5)
    emb = la.so_block_embedding(g, 4)
    assert emb.dim_m == 4
    # m is exactly the span of E_{i5} - E_{5i}
    expected = []
    for i in range(4):
        m = [[0] * 5 for _ in range(5)]
        m[i][4] = 1
        m[4][i] = -1
        expected.append(ref.coords_of_matrix(g, m))
    assert rank([sparse_vec(r) for r in [*emb.m_basis, *expected]]) == 4
    # Orthogonality and ad-invariance, exactly.
    for hi in emb.h_basis:
        khi = dense_covector(g, hi)
        for mj in emb.m_basis:
            assert dot(mj, khi) == 0
            assert not any(emb.split_coords(g.bracket(hi, mj))[0])


def test_reductive_split_noncompact_positive_on_m():
    from fatbundles.exact import inertia
    g = la.build_algebra("so", (4, 1))
    emb = la.so_block_embedding(g, 4)
    assert emb.dim_m == 4 and emb.compact
    rows = []
    for mi in emb.m_basis:
        kmi = dense_covector(g, mi)
        rows.append([dot(mj, kmi) for mj in emb.m_basis])
    assert inertia([sparse_vec(r) for r in rows]) == (4, 0, 0)


def test_reductive_split_h_equals_g():
    g = la.so(4)
    emb = la.reductive_split(g, [unit_vec(g.dim, i) for i in range(g.dim)])
    assert emb.dim_m == 0


def test_reductive_split_degenerate_raises():
    g = la.build_algebra("so", (2, 1))
    # A null direction: rotation plus boost with B(X, X) = 0.
    x = tuple(a + b for a, b in zip(unit_vec(3, 0), unit_vec(3, 1)))
    assert dot(x, g.covector(x)) == 0
    with pytest.raises(DegenerateRestriction):
        la.reductive_split(g, [x])


def test_projection_splits_vectors():
    g = la.so(5)
    emb = la.so_block_embedding(g, 4)
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = vec(rng.integers(-5, 6, size=g.dim).tolist())
        ch, cm = emb.split_coords(x)
        xh, xm = vec_mat(ch, emb.h_basis), vec_mat(cm, emb.m_basis)
        assert tuple(a + b for a, b in zip(xh, xm)) == x
        assert emb.h_coords(xh) is not None
        assert not any(emb.split_coords(xm)[0])


def test_maximal_torus_block_and_generic():
    g = la.so(4)
    emb = la.so_block_embedding(g, 4)
    torus = la.maximal_torus(emb)
    assert len(torus) == 2
    # u(2) inside so(4): the generic-element search finds some maximal
    # torus (rank 2, abelian, inside u(2)); tori are conjugate, not unique.
    u_rows = la.u_block_embedding(g, 2).h_basis
    emb_u = la.reductive_split(g, u_rows)
    found = la.maximal_torus(emb_u)
    assert len(found) == 2
    for t in found:
        assert emb_u.h_coords(t) is not None
    assert not any(g.bracket(found[0], found[1]))
    # so(2) inside so(3): the torus is so(2) itself.
    g3 = la.so(3)
    emb2 = la.reductive_split(g3, [unit_vec(3, 0)])
    assert len(la.maximal_torus(emb2)) == 1
    # h = 0 is compact, and its maximal torus is the empty basis.
    assert la.maximal_torus(la.reductive_split(g3, [])) == ()


def test_maximal_torus_not_compact_raises():
    g = la.build_algebra("so", (2, 1))
    emb = la.reductive_split(g, [unit_vec(3, 2)])  # a boost direction
    assert not emb.compact
    with pytest.raises(NotCompact):
        la.maximal_torus(emb)


def test_dimension_mismatch_errors():
    g = la.so(3)
    with pytest.raises(DimensionMismatch):
        g.bracket((1, 0), (0, 1, 0))
    with pytest.raises(DimensionMismatch):
        g.covector((1, 0, 0, 0))



def test_reductive_split_takes_coordinate_vectors_only():
    # A str, bytes or mapping is not a coordinate vector, even at the right
    # length, where a sparse {index: value} dict would be read as the
    # sequence of its keys and a string as its characters.
    g = la.so(3)
    for row in ({-1: 1}, {0: 0}, {0: 0.5}, {0: 5, 1: 0, 2: 0}, "100", b"100"):
        with pytest.raises(DimensionMismatch):
            la.reductive_split(g, [row])
        with pytest.raises(DimensionMismatch):
            la.reductive_split(g, [unit_vec(3, 0)], torus_basis=[row])
    with pytest.raises(DimensionMismatch, match="got str"):
        g.covector("100")
    g, emb = make_pair("so", (5,), "so", (4,))
    for bad in ("12", b"12", {0: 1, 1: 2}):
        with pytest.raises(DimensionMismatch, match=f"got {type(bad).__name__}"):
            emb.torus_vector(bad)
    for bad in ("1" * g.dim, dict.fromkeys(range(g.dim), 1)):
        with pytest.raises(DimensionMismatch, match=f"got {type(bad).__name__}"):
            certify(g, emb, bad)
        with pytest.raises(DimensionMismatch, match=f"got {type(bad).__name__}"):
            g.covector(bad)


def test_torus_embedding_is_the_split_of_the_block_torus():
    for g, r in ((la.so(5), 2), (la.build_algebra("so", (4, 1)), 2), (la.so(3), 1)):
        emb = la.torus_embedding(g, r)
        t = emb.torus_basis
        want = la.reductive_split(
            g, t, torus_basis=t, name=f"t{r}<{g.name}")
        assert (emb.h_sparse, emb.m_sparse, emb.torus_sparse) == (
            want.h_sparse, want.m_sparse, want.torus_sparse)
        assert (emb.h_basis, emb.m_basis, emb.torus_basis) == (t, want.m_basis, t)
        assert (emb.name, emb.compact) == (want.name, want.compact)


def scaled_so3():
    """The cyclic so(3) basis times the float sqrt(2)."""
    s = 2.0 ** 0.5
    return [(np.array(m, dtype=float) * s).tolist() for m in (
        [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0, -1, 0], [1, 0, 0], [0, 0, 0]])]


def test_float_basis_algebra_is_exact():
    # Scaled so(3) basis with an irrational factor: each float entry is
    # read as its exact binary rational, and the basis closes exactly.
    s = 2.0 ** 0.5
    g = la.matrix_algebra("so3-scaled", scaled_so3())
    assert la.jacobi_residual(g) == 0
    br = g.bracket(unit_vec(3, 0), unit_vec(3, 1))
    assert br[2] == Q(s)
    assert abs(float(br[2]) - s) < 1e-12
    # Killing scales by s^2.
    assert float(dot(unit_vec(3, 0), g.covector(unit_vec(3, 0)))) == \
        pytest.approx(-2 * s * s)
    emb = la.reductive_split(g, [unit_vec(3, 2)])
    assert emb.dim_m == 2


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def conjugated_so3(t):
    """P so(3) P^-1 for P = 1 + t E_01, in the cyclic basis."""
    so3 = [[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
           [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
           [[0, -1, 0], [1, 0, 0], [0, 0, 0]]]
    p = [[1, t, 0], [0, 1, 0], [0, 0, 1]]
    p_inv = [[1, -t, 0], [0, 1, 0], [0, 0, 1]]
    return [matmul(matmul(p, m), p_inv) for m in so3]


def test_float_basis_that_does_not_close_exactly_is_rejected():
    # With t = 1/10 the conjugate closes exactly; computed in floats with
    # t = 0.1 the products are rounded, the entries read as binary
    # rationals no longer span a subalgebra, and construction must fail
    # instead of fitting constants.
    g = la.matrix_algebra("so3-conj", conjugated_so3(Q(1, 10)))
    assert la.jacobi_residual(g) == 0
    with pytest.raises(ValueError, match="does not close"):
        la.matrix_algebra("so3-conj-float", conjugated_so3(0.1))


@pytest.mark.parametrize("basis, message", [
    # n is read off the first matrix; a wider row is not cut to n.
    ([[[0, 1, 5], [-1, 0, 0]]], "element 0 is not a nonempty 2 x 2 matrix"),
    ([[[0, 1], [-1]]], "element 0 is not a nonempty 2 x 2 matrix"),
    ([[[0, 1], [-1, 0]], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]],
     "element 1 is not a nonempty 2 x 2 matrix"),
    ([[]], "element 0 is not a nonempty 0 x 0 matrix"),
    ([[[0, float("inf")], [-1, 0]]], "not finite"),
    ([[[0, -float("inf")], [-1, 0]]], "not finite"),
    ([[[0, float("nan")], [-1, 0]]], "NaN"),
], ids=["wide", "ragged", "mixed", "empty", "inf", "-inf", "nan"])
def test_matrix_algebra_rejects_malformed_bases(basis, message):
    with pytest.raises(ValueError, match=message):
        la.matrix_algebra("bad", basis)


def test_empty_subalgebra_membership_is_exact():
    # h = 0: only the zero vector lies in h, however small the others.
    emb = la.reductive_split(la.so(3), [])
    assert emb.dim_h == 0 and emb.dim_m == 3
    assert emb.h_coords((0, 0, 0)) == ()
    assert emb.h_coords((Q(1, 10**12), 0, 0)) is None
    ch, cm = emb.split_coords((1, 2, 3))
    assert ch == () and vec_mat(cm, emb.m_basis) == (1, 2, 3)


def test_check_vector_keeps_fraction_tuples_and_coerces_the_rest():
    g = la.so(3)
    x = (Q(1, 2), Q(0), Q(-3))
    assert g.check_vector(x) is x
    for raw in ([Q(1, 2), 0, -3], (0.5, 0, -3), ("1/2", "0", "-3"),
                (Q(1, 2), 0, -3)):
        got = g.check_vector(raw)
        assert type(got) is tuple and got == x
        assert all(type(v) is Q for v in got)
    for bad in ((Q(1),) * 2, [Q(1)] * 4, ()):
        with pytest.raises(DimensionMismatch):
            g.check_vector(bad)
    with pytest.raises(ValueError):
        g.check_vector(("x", 0, 0))


# -- the pair build on supports -----------------------------------------------

PAIR_BUILD_ALGEBRAS = {
    "so5": lambda: la.so(5), "so41": lambda: la.build_algebra("so", (4, 1)),
    "su3": lambda: la.build_algebra("su", 3), "u2": lambda: la.build_algebra("u-in-so", 2),
    "so3_conj": lambda: la.matrix_algebra("so3-conj", conjugated_so3(Q(1, 10)))}


@pytest.mark.parametrize("name", sorted(PAIR_BUILD_ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_bracket_and_coords_match_matrices(name, data):
    g = PAIR_BUILD_ALGEBRAS[name]()
    x = data.draw(sparse_vectors(g.dim))
    y = data.draw(sparse_vectors(g.dim))
    mx, my = g.realize(x), g.realize(y)
    commutator = [[a - b for a, b in zip(ra, rb)]
                  for ra, rb in zip(matmul(mx, my), matmul(my, mx))]
    assert g.realize(g.bracket(x, y)) == mat(commutator)
    assert (la.killing_signature(g)[2] == 0) == (
        rank([sparse_vec(r) for r in killing(g)]) == g.dim)
    # The flat solver behind ref.coords_of_matrix: dense and sparse input agree,
    # in the span and off it (a nonzero multiple of 1 is in none of these
    # trace-free algebras).
    solver = g._flat_solver
    shift = data.draw(NONZERO)
    for flat, coords in (
            ([v for row in mx for v in row], x),
            ([v + shift if i % (g.n + 1) == 0 else v
              for i, v in enumerate(v for row in mx for v in row)], None)):
        assert solver.coords(flat) == coords
        sparse = solver.sparse_coords(sparse_vec(flat))
        assert sparse is None if coords is None else (
            dense_vec(sparse, g.dim) == coords and all(sparse.values()))


# -- exact values: ints inside, Fractions outside ------------------------------

RULE_ALGEBRAS = {
    "so5": lambda: la.so(5), "so41": lambda: la.build_algebra("so", (4, 1)),
    "su3": lambda: la.build_algebra("su", 3), "u2": lambda: la.build_algebra("u-in-so", 2),
    "so3_scaled": lambda: la.matrix_algebra("so3-scaled", scaled_so3()),
    "so3_conj": lambda: la.matrix_algebra("so3-conj", conjugated_so3(Q(1, 10)))}


@functools.lru_cache(maxsize=None)
def rule_case(name):
    """(g, the split of g along e_0, reference structure constants and
    Killing Gram from the basis matrices)."""
    g = RULE_ALGEBRAS[name]()
    c = ref.structure_constants(g.basis)
    return g, la.reductive_split(g, [unit_vec(g.dim, 0)]), c, ref.killing_gram(c)


def fractions_only(t):
    return type(t) is tuple and all(type(v) is Q for v in t)


def sparse_rule(d):
    """Every value an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Q and v.denominator != 1)
               for v in d.values())


@pytest.mark.parametrize("name", sorted(RULE_ALGEBRAS))
@settings(deadline=None)
@given(data=st.data())
def test_public_values_are_fractions_over_the_sparse_rule(name, data):
    g, emb, c, gram = rule_case(name)
    x = data.draw(sparse_vectors(g.dim))
    y = data.draw(sparse_vectors(g.dim))
    assert fractions_only(g.bracket(x, y)) and fractions_only(g.covector(x))
    coords = ref.coords_of_matrix(g, g.realize(x))
    assert fractions_only(coords) and coords == x
    t = data.draw(NONZERO)
    hc = emb.h_coords(tuple(t * v for v in emb.h_basis[0]))
    assert fractions_only(hc) and hc == (t,)
    assert all(fractions_only(part) for part in emb.split_coords(x))
    sx, sy = sparse_vec(x), sparse_vec(y)
    assert sparse_rule(sx) and all(sparse_rule(b) for _, b in g.sparse_brackets([sx], [sy]))
    assert sparse_rule(g.sparse_covector(sx))
    i, j = data.draw(st.integers(0, g.dim - 1)), data.draw(
        st.integers(0, g.dim - 1))
    row = g.bracket(unit_vec(g.dim, i), unit_vec(g.dim, j))
    assert fractions_only(row) and row == c[i][j]
    if i < j:
        assert sparse_rule(g._structure.get((i, j), {}))
    assert all(fractions_only(r) for b in g.basis for r in b)
    assert all(fractions_only(r) for r in killing(g)) and killing(g) == gram


def test_reductive_split_rejects_h_not_closed():
    # E_01 and E_12 in so(4): B is definite on their span, so the split
    # reaches the closure check, and [E_01, E_12] is E_02 up to sign.
    g = la.so(4)
    with pytest.raises(ValueError, match="h is not closed under brackets"):
        la.reductive_split(g, [unit_vec(g.dim, 0), unit_vec(g.dim, 3)])


def test_check_embedding_rejects_m_not_killing_orthogonal():
    # h = E_01; m = (E_01 + E_23, E_02, E_03, E_12, E_13) is ad_h-invariant,
    # since [E_01, E_23] = 0, but B(E_01, E_01 + E_23) = B(E_01, E_01) != 0.
    g = la.so(4)
    h = [unit_vec(g.dim, 0)]
    m = [vec([1, 0, 0, 0, 0, 1])] + [unit_vec(g.dim, j) for j in range(1, 5)]
    emb = la.SubalgebraEmbedding(g, [sparse_vec(r) for r in h], [sparse_vec(r) for r in m],
                                 None, True, "skew")
    ad_m(emb, h[0])
    with pytest.raises(ValueError, match=r"B\(h, m\) != 0"):
        la._check_embedding(emb)


def test_reductive_split_rejects_bad_torus():
    g = la.so(4)
    units = [unit_vec(g.dim, j) for j in range(g.dim)]
    # E_23 commutes with h = E_01 but is not in h.
    with pytest.raises(ValueError, match="torus is not contained in h"):
        la.reductive_split(g, units[:1], torus_basis=units[5:])
    # E_01 and E_02 lie in h = g but do not commute.
    with pytest.raises(ValueError, match="torus is not abelian"):
        la.reductive_split(g, units, torus_basis=units[:2])
    # Dependent rows are no basis: their h-coordinates have no solver, and
    # the error names the embedding.
    with pytest.raises(ValueError, match="linearly dependent"):
        la.reductive_split(g, units, torus_basis=[units[0], units[0]])
    so5 = la.so(5)
    block = la.so_block_embedding(so5, 4)
    t0 = block.torus_basis[0]
    for torus in ([t0, t0], [t0, tuple(2 * x for x in t0)]):
        with pytest.raises(ValueError, match=r"^so\(4\)<so\(5\): torus basis is "
                                             "linearly dependent$"):
            la.reductive_split(so5, block.h_basis, torus_basis=torus, name=block.name)


def test_sparse_kernels_drop_cancelled_entries():
    # J = d_0 + d_1 spans the center of u(2), so K J = 0 although K d_0 is
    # not zero; and [x, x] = 0 for every x.
    g = la.build_algebra("u-in-so", 2)
    assert g.sparse_covector({2: Q(1)})
    assert g.sparse_covector({2: Q(1), 3: Q(1)}) == {}
    x = {0: Q(1, 3), 2: Q(-2)}
    assert not any(g.sparse_brackets([x], [x]))


# -- the read-off build against the all-pairs elimination reference -------------

def _flat(m, n):
    """The nonzero entries {r * n + c: value} of a matrix with n columns."""
    return {r * n + c: x for r, row in enumerate(m) for c, x in enumerate(row) if x}


FAMILIES = ([("so", (n,)) for n in range(2, 13)]
            + [("so", (p, s - p)) for s in range(2, 13) for p in range(1, s)]
            + [("su", (n,)) for n in (2, 3, 4)]
            + [("u-in-so", (n,)) for n in (1, 2, 3, 4)])
BASES = {"su": ref.su_basis, "u-in-so": ref.u_basis,
         "so": lambda *p: (ref.so_basis if len(p) == 1 else ref.so_pq_basis)(*p)}


@pytest.mark.parametrize("family, params", FAMILIES,
                         ids=[f"{f}{','.join(map(str, p))}" for f, p in FAMILIES])
def test_build_and_block_splits_match_the_all_pairs_reference(family, params):
    # Structure constants (values and key order), the Killing rows and the
    # sparse h and m rows of the block splits of so(n) and so(p, q), against
    # every basis pair bracketed and solved through [rows | I].
    g = la.build_algebra(family, params)
    n = g.n
    flats = [_flat(b, n) for b in BASES[family](*params)]
    structure = ref.structure_all_pairs(flats, n)
    assert [(k, list(v.items())) for k, v in g._structure.items()] == \
        [(k, list(v.items())) for k, v in structure.items()]
    rows = ref.killing_rows(structure, g.dim)
    assert g._killing_rows == rows
    assert all(list(row) == sorted(row) for row in g._killing_rows)
    assert killing(g) == tuple(dense_vec(row, g.dim) for row in rows)
    if family != "so":
        return
    p = params[0] if len(params) == 2 else n - 1
    solver = ref.Solver(flats)
    blocks = [(la.so_block_embedding(g, p), [{i * n + j: 1, j * n + i: -1}
                                             for i in range(p) for j in range(i + 1, p)])]
    if p >= 2:
        blocks.append((la.u_block_embedding(g, p // 2),
                       [_flat(m, n) for m in ref.u_basis(p // 2)]))
    for emb, h_flats in blocks:
        h = [dict(sorted(solver.sparse_coords(f).items())) for f in h_flats]
        covectors = []
        for hi in h:
            kh = [Q(0)] * g.dim
            for a, x in hi.items():
                for b, k in rows[a].items():
                    kh[b] += x * k
            covectors.append(kh)
        m = [{i: x for i, x in enumerate(v) if x}
             for v in (ref.nullspace(covectors) if h else
                       [unit_vec(g.dim, i) for i in range(g.dim)])]
        assert [list(r.items()) for r in emb.h_sparse] == [list(r.items()) for r in h]
        assert [list(r.items()) for r in emb.m_sparse] == [list(r.items()) for r in m]
        assert emb.h_basis == tuple(dense_vec(r, g.dim) for r in h)
        assert emb.m_basis == tuple(dense_vec(r, g.dim) for r in m)
        assert all(type(x) is Q for r in emb.h_basis + emb.m_basis for x in r)
        if n > 8:
            continue
        # The h + m solvers (read off on the so block, one overlap component
        # at a time in ints on the u block): the [h, m] brackets get the
        # reference's coordinates, values and key order.
        full = ref.Solver(h + m)
        for _, b in g.sparse_brackets(emb.h_sparse, emb.m_sparse):
            got = emb._full_solver.sparse_coords(b)
            assert [*got.items()] == [*full.sparse_coords(b).items()]


MIXED = [("so", (4,)), ("so", (5,)), ("so", (2, 2)), ("so", (3, 1)), ("su", (2,)),
         ("su", (3,)), ("u-in-so", (2,)), ("gl", (3,))]
# gl(n) in its matrix units: [E_rc, E_cr] = E_rr - E_cc has two coordinates,
# so the order of (ab) and (ba) within one pair of entries shows in ck.
GL = {"gl": lambda n: [[[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]
                       for i in range(n) for j in range(n)]}


@pytest.mark.parametrize("family, params", MIXED,
                         ids=[f"{f}{','.join(map(str, p))}" for f, p in MIXED])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_recombined_basis_matches_the_all_pairs_reference(family, params, data):
    # A classical basis, or gl(3)'s, shuffled, recombined by a unitriangular
    # matrix with entries in {-1, 0, 1} and scaled by rationals: the supports
    # overlap, so the sweep meets several elements at each index and the
    # flat read-off solves per component, with Fraction constants.  Structure
    # constants (values and key order) and Killing rows are the reference's.
    base = data.draw(st.permutations({**BASES, **GL}[family](*params)))
    n, d = len(base[0]), len(base)
    scale = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2)])
    basis = []
    for i in range(d):
        coeffs = {i: data.draw(scale), **{j: c for j in range(i + 1, d)
                                          if (c := data.draw(st.sampled_from([0, 0, 1, -1])))}}
        basis.append([[sum((c * base[j][r][col] for j, c in coeffs.items()), Q(0))
                       for col in range(n)] for r in range(n)])
    g = la.matrix_algebra("mixed", basis)
    structure = ref.structure_all_pairs([_flat(b, n) for b in basis], n)
    assert [(k, list(v.items())) for k, v in g._structure.items()] == \
        [(k, list(v.items())) for k, v in structure.items()]
    assert g._killing_rows == ref.killing_rows(structure, g.dim)


def _explicit_check(emb):
    """The embedding check that solves every bracket of h, whatever the
    Killing form: the reference for the check that proves [h, h] in h by
    invariance where it can."""
    g = emb.ambient
    for _, b in g.sparse_brackets(emb.h_sparse):
        if emb.sparse_h_coords(b) is None:
            raise ValueError(f"{emb.name}: h is not closed under brackets")
    emb._table(la.SubalgebraEmbedding._ad_entries)  # raises when [h, m] leaves m
    if any(dot(g.covector(hi), mj) for hi in emb.h_basis for mj in emb.m_basis):
        raise ValueError(f"{emb.name}: B(h, m) != 0")


def _outcome(check):
    try:
        check()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


SPLITS = ([("so", (n,)) for n in range(4, 8)] + [("so", (p, 1)) for p in range(2, 7)]
          + [("u-in-so", (n,)) for n in (2, 3)])


@pytest.mark.parametrize("family, params", SPLITS,
                         ids=[f"{f}{','.join(map(str, p))}" for f, p in SPLITS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_closure_by_invariance_decides_as_the_bracket_loop(family, params, data):
    # h spanned by 1-4 small int combinations of 1-4 basis elements: the
    # split accepts or rejects it as the check that solves every bracket of
    # h does, with its message; so does the complement with h_0 added to
    # one m_j, which is not Killing-orthogonal, so the bracket loop runs.
    g = la.build_algebra(family, params)
    picks = data.draw(st.lists(st.integers(0, g.dim - 1), min_size=1, max_size=4, unique=True))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(picks), max_size=len(picks))
    rows = [vec(sum(c for c, i in zip(cs, picks) if i == t) for t in range(g.dim))
            for cs in data.draw(st.lists(coeffs, min_size=1, max_size=len(picks)))]
    try:
        emb = la.reductive_split(g, rows, check=False)
    except DegenerateRestriction:
        with pytest.raises(DegenerateRestriction):
            la.reductive_split(g, rows)
        return
    assert _outcome(lambda: la.reductive_split(g, rows)) == _outcome(
        lambda: _explicit_check(la.reductive_split(g, rows, check=False)))
    if not emb.dim_m:
        return
    j = data.draw(st.integers(0, emb.dim_m - 1))
    m = [*emb.m_sparse]
    m[j] = {i: x for i in sorted(m[j].keys() | emb.h_sparse[0].keys())
            if (x := m[j].get(i, 0) + emb.h_sparse[0].get(i, 0))}

    def skew():
        return la.SubalgebraEmbedding(g, emb.h_sparse, m, None, True, "skew")
    assert _outcome(lambda: la._check_embedding(skew())) == _outcome(lambda: _explicit_check(skew()))


def test_a_basis_that_does_not_close_names_the_reference_pair():
    # E_01 and E_12 of so(3) without E_02: their commutator leaves the span,
    # and the first pair found is the reference's first pair.
    basis = [ref.antisym(3, 0, 1), ref.antisym(3, 1, 2),
             [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]
    with pytest.raises(ValueError) as want:
        ref.structure_all_pairs([_flat(b, 3) for b in basis], 3)
    with pytest.raises(ValueError, match=re.escape(f"open: {want.value}")):
        la.matrix_algebra("open", basis)
