"""Structure-constant duality and fat-set agreement across dual pairs."""

from fractions import Fraction as Q

import fraction_oracles as ref
import numpy as np
import pytest

from fatbundles import duality as du
from fatbundles import liealg as la
from fatbundles import rootdata as rd
from fatbundles.errors import InvolutionInvalid
from fatbundles.exact import dense_vec, inertia, mat, sparse_vec


def test_dualize_so41_gives_compact_so5():
    g = la.build_algebra("so", (4, 1))
    pair = du.dualize(g, du.standard_involution(g))
    dual = pair.compact_dual
    assert dual.dim == 10 and pair.k_dim == 6
    pos, neg, zero = inertia([sparse_vec(r) for r in ref.killing(dual)])
    assert (pos, neg, zero) == (0, 10, 0)
    assert la.killing_signature(dual)[2] == 0
    assert la.jacobi_residual(dual) == 0


def test_dual_constants_match_builtin_so5():
    # Mixed generators map to the antisymmetric pairs of so(5); under that
    # index correspondence the dual constants equal the built-in ones.
    g = la.build_algebra("so", (4, 1))
    pair = du.dualize(g, du.standard_involution(g))
    g5 = la.so(5)
    perm = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    perm += [(a, 4) for a in range(4)]
    index_of = {p: k for k, p in enumerate(
        [(i, j) for i in range(5) for j in range(i + 1, 5)])}
    units = [ref.unit_vec(g.dim, i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = pair.compact_dual.bracket(units[i], units[j])
            rhs = g5.bracket(units[index_of[perm[i]]], units[index_of[perm[j]]])
            assert lhs == tuple(rhs[index_of[perm[k]]] for k in range(g.dim))


def test_dual_flips_pp_and_keeps_k_brackets():
    g = la.build_algebra("so", (4, 1))
    pair = du.dualize(g, du.standard_involution(g))
    k = pair.k_dim
    for (i, j), ck in g._structure.items():
        new = pair.compact_dual._structure.get((i, j), {})
        if i < k and j < k:
            assert new == ck
        elif i >= k and j >= k:
            assert new == {m: -v for m, v in ck.items()}


def test_dualize_identity_involution_on_compact_input():
    g = la.so(4)
    eye = mat(np.eye(4, dtype=int).tolist())
    pair = du.dualize(g, eye)
    assert pair.compact_dual is g and pair.noncompact is g


def test_double_dual_restores_original_exactly():
    for p, q in ((4, 1), (6, 1), (3, 2)):
        g = la.build_algebra("so", (p, q))
        t = du.standard_involution(g)
        pair = du.dualize(g, t)
        back = du.dualize(pair.compact_dual, t)
        assert back.noncompact.basis == g.basis
        assert back.noncompact._structure == g._structure


@pytest.mark.parametrize("p", range(2, 7))
def test_theta_action_and_dual_basis_match_dense_products(p):
    g = la.build_algebra("so", (p, 1))
    t = du.standard_involution(g)
    theta = du._theta_matrix_action(
        g, sparse_vec([x for row in t for x in row]))
    assert [dense_vec(c, g.dim) for c in theta] == [
        ref.coords_of_matrix(g, ref.mat_mul(ref.mat_mul(t, b), t)) for b in g.basis]
    pair = du.dualize(g, t)
    k = pair.k_dim
    assert pair.noncompact is g and k == p * (p - 1) // 2
    assert pair.compact_dual.basis == tuple(
        b if i < k else ref.mat_mul(b, t) for i, b in enumerate(g.basis))


def test_theta_action_of_a_rational_conjugation():
    # T = diag(1, 1, -1) conjugated by a rational Q is T' with T'^2 = 1 and
    # an off-diagonal entry; on so(2, 1) written in the Q-conjugated basis,
    # with rational entries, it acts as T does on so(2, 1).
    g = la.build_algebra("so", (2, 1))
    q = mat([[1, 0, 1], [0, 1, 0], [0, 0, 2]])
    q_inv = mat([[1, 0, Q(-1, 2)], [0, 1, 0], [0, 0, Q(1, 2)]])
    conj = la.matrix_algebra(
        "so(2,1)^Q", [ref.mat_mul(ref.mat_mul(q, b), q_inv) for b in g.basis])
    t = ref.mat_mul(ref.mat_mul(q, du.standard_involution(g)), q_inv)
    theta = du._theta_matrix_action(
        conj, sparse_vec([x for row in t for x in row]))
    assert [dense_vec(c, conj.dim) for c in theta] == [
        ref.coords_of_matrix(conj, ref.mat_mul(ref.mat_mul(t, b), t))
        for b in conj.basis]
    assert t[0][2] == -1 and theta == [{0: 1}, {1: -1}, {2: -1}]


def test_dualize_rejects_non_involution():
    g = la.build_algebra("so", (4, 1))
    bad = np.eye(5)
    bad[0, 0] = 2
    with pytest.raises(InvolutionInvalid):
        du.dualize(g, mat(bad.astype(int).tolist()))


def test_dualize_rejects_wrong_fixed_part():
    # Conjugating so(4,1) by diag(-1, 1, 1, 1, 1) is an involutive
    # automorphism, but its +1 eigenspace so(3, 1) is not compact.
    g = la.build_algebra("so", (4, 1))
    t = np.eye(5)
    t[0, 0] = -1
    with pytest.raises(InvolutionInvalid):
        du.dualize(g, mat(t.astype(int).tolist()))


def test_standard_involution_requires_so_pq():
    with pytest.raises(InvolutionInvalid):
        du.standard_involution(la.so(4))


def test_compare_fat_sets_agreement():
    g = la.build_algebra("so", (4, 1))
    pair = du.dualize(g, du.standard_involution(g))
    h_rows = [ref.unit_vec(g.dim, i) for i in range(6)]
    torus = la.torus_embedding(g, 2).torus_basis
    emb_nc, emb_c = du.pair_embeddings(pair, h_rows, torus)
    subs = du.dual_subsystems(pair, emb_nc, emb_c, rd.root_system_for(g))
    rep = du.compare_fat_sets(pair, emb_nc, emb_c, subs, samples=60, seed=5)
    assert rep.total == 60
    assert rep.agreed == 60
    assert rep.agreement_fraction == 1.0
    assert rep.counterexamples == ()
    # The shared J vector is fat on both sides.
    j_sample = [s for s in rep.samples if all(x != 0 for x in s.tau)]
    assert j_sample, "sampler produced no regular vectors"


def test_dual_gram_matrices_differ_only_by_m_sign_data():
    # Same X_u in the shared h: the two fatness Grams agree up to sign
    # blocks, so singular values coincide.
    from fatbundles import fatness as ft
    g = la.build_algebra("so", (4, 1))
    pair = du.dualize(g, du.standard_involution(g))
    h_rows = [ref.unit_vec(g.dim, i) for i in range(6)]
    torus = la.torus_embedding(g, 2).torus_basis
    emb_nc, emb_c = du.pair_embeddings(pair, h_rows, torus)
    for tau in ft.sample_rational_vectors(2, 25, seed=6):
        x = emb_nc.torus_vector(tau)
        g1 = ft.fatness_gram(emb_nc, x)
        g2 = ft.fatness_gram(emb_c, x)
        s1 = np.linalg.svd(np.array([[float(v) for v in r] for r in g1]),
                           compute_uv=False)
        s2 = np.linalg.svd(np.array([[float(v) for v in r] for r in g2]),
                           compute_uv=False)
        assert np.abs(s1 - s2).max() < 1e-9


def test_dual_instances_of_one_pair_build_it_once():
    from dataclasses import replace

    from fatbundles import catalog as ct
    from fatbundles import serialize as sz
    spec = replace(ct.builtin_catalog("duality")[0], dual={"samples": 30})
    ct.make_dual.cache_clear()
    first = ct.run_instance(spec)
    again = ct.run_instance(replace(spec, id="again"))
    assert (ct.make_dual.cache_info().hits, ct.make_dual.cache_info().misses) \
        == (1, 1)
    assert first[0] and again[0]
    assert again[1]["dual"] == first[1]["dual"]
    # The uncached path, detecting both sub-root-systems afresh.
    g = la.build_algebra("so", (4, 1))
    pair = du.dualize(g, du.standard_involution(g))
    emb = la.so_block_embedding(g, 4)
    emb_nc, emb_c = du.pair_embeddings(pair, emb.h_basis, emb.torus_basis)
    subs = du.dual_subsystems(pair, emb_nc, emb_c, rd.root_system_for(g))
    rep = du.compare_fat_sets(pair, emb_nc, emb_c, subs, 30, spec.seed)
    assert first[1]["dual"] == sz.agreement_to_json(rep)


def test_make_dual_keeps_the_pair_and_subsystem_of_its_own_side():
    # so(p, q) is the noncompact side of its dual pair: make_dual keeps its
    # make_pair embedding and make_subsystem sub-root-system, and splits and
    # detects only the compact dual, which must forbid the same roots.
    from fatbundles import catalog as ct
    for n in (2, 3):
        args = ("so", (2 * n, 1), "so", (2 * n,))
        g, emb = ct.make_pair(*args)
        sub = ct.make_subsystem(*args)
        pair, emb_nc, emb_c, (sub_nc, sub_c) = ct.make_dual(emb, sub)
        assert pair.noncompact is g and emb_nc is emb and sub_nc is sub
        assert emb_c.ambient is pair.compact_dual and emb_c.m_sparse == emb.m_sparse
        assert sub_c is not sub and sub_c.forbidden == sub.forbidden
