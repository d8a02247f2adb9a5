"""The triple fatness criterion: Gram oracle, centralizer, agreement."""

import dataclasses
import functools
import json
import random
from fractions import Fraction as Q
from math import gcd, lcm
from unittest import mock

import numpy as np
import pytest
from float_oracles import fatness_gram_float
from fraction_oracles import ad_m, ad_on, coords, dot
from fraction_oracles import nullspace as reference_nullspace
from fraction_oracles import rank as reference_rank
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from test_rootdata import BENCH

from fatbundles import coupling as cp
from fatbundles import fatness as ft
from fatbundles import liealg as la
from fatbundles import rootdata as rd
from fatbundles.catalog import make_dual, make_pair, make_subsystem
from fatbundles.errors import CriteriaDisagree, DimensionMismatch
from fatbundles.exact import (
    dense_mat,
    dense_vec,
    mat,
    nullspace,
    pfaffian4,
    rank,
    sparse_vec,
    unit_vec,
    vec,
    vec_mat,
)
from fatbundles.serialize import certificate_to_json, dumps_canonical
from fatbundles.verdicts import FAT, NOT_APPLICABLE, NOT_FAT


def so5_so4():
    return make_pair("so", (5,), "so", (4,))


def canonical_curvature(emb, x, y):
    """-1/2 [x, y]_h, the canonical connection's curvature at the identity."""
    ch, _ = emb.split_coords(emb.ambient.bracket(x, y))
    return tuple(-c / 2 for c in vec_mat(ch, emb.h_basis))


def test_canonical_curvature_elementary_value():
    g, emb = so5_so4()
    a1, a2 = emb.m_basis[0], emb.m_basis[1]
    cc = canonical_curvature(emb, a1, a2)
    m = g.realize(cc)
    # -1/2 (E_21 - E_12), top-left block, in 1-indexed matrix terms.
    assert m[0][1] == Q(1, 2) and m[1][0] == Q(-1, 2)
    assert all(m[i][j] == 0 for i in range(5) for j in range(5)
               if (i, j) not in ((0, 1), (1, 0)))


def test_canonical_curvature_antisymmetry_and_membership():
    g, emb = so5_so4()
    a1 = emb.m_basis[0]
    assert all(c == 0 for c in canonical_curvature(emb, a1, a1))


def test_canonical_curvature_noncompact_sign():
    g, emb = make_pair("so", (4, 1), "so", (4,))
    cc = canonical_curvature(emb, emb.m_basis[0], emb.m_basis[1])
    m = g.realize(cc)
    # Indefinite bracket: the h-component of -1/2 [S_1, S_2] flips sign
    # relative to the compact case.
    assert m[0][1] == Q(-1, 2) and m[1][0] == Q(1, 2)


def test_fatness_gram_j_values():
    g, emb = so5_so4()
    j = emb.torus_vector((1, 1))
    gram = ft.fatness_gram(emb, j)
    assert abs(gram[0][1]) == 6 and abs(gram[2][3]) == 6
    zero_pairs = [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert all(gram[i][j2] == 0 for i, j2 in zero_pairs)
    # Exactly antisymmetric.
    assert all(gram[i][j2] == -gram[j2][i] for i in range(4) for j2 in range(4))


def test_fatness_gram_zero_vector():
    g, emb = so5_so4()
    gram = ft.fatness_gram(emb, vec([0] * g.dim))
    assert all(x == 0 for row in gram for x in row)


def test_fatness_gram_requires_h():
    g, emb = so5_so4()
    with pytest.raises(DimensionMismatch):
        ft.fatness_gram(emb, emb.m_basis[0])


def test_fatness_gram_u2_full_rank():
    g, emb = make_pair("so", (5,), "u", (2,))
    j = emb.torus_vector((1, 1))
    gram = ft.fatness_gram(emb, j)
    gf = np.array([[float(x) for x in row] for row in gram])
    assert gf.shape == (6, 6)
    assert np.linalg.matrix_rank(gf, tol=1e-9) == 6


def test_oracle_verdicts():
    g, emb = so5_so4()
    j = emb.torus_vector((1, 1))
    v = ft.fat_by_oracle(emb, j)
    assert v.status == FAT
    assert v.min_singular_value == pytest.approx(6.0)
    assert v.max_singular_value == pytest.approx(6.0)
    v2 = ft.fat_by_oracle(emb, emb.torus_vector((1, 0)))
    assert v2.status == NOT_FAT
    # Null vector supported on the m-directions of the second block plane.
    null = np.array(v2.null_vector)
    assert np.abs(null[:2]).max() < 1e-9 and np.abs(null[2:]).max() > 0.5
    gf = np.array([[float(x) for x in row]
                   for row in ft.fatness_gram(emb, emb.torus_vector((1, 0)))])
    assert np.linalg.norm(gf @ null) <= 1e-9 * max(1.0, np.abs(gf).max())


def test_oracle_odd_dimension():
    g, emb = make_pair("so", (4,), "so", (3,))
    assert emb.dim_m == 3
    rng = random.Random(21)
    for _ in range(10):
        x = emb.torus_vector((Q(rng.randint(-9, 9), rng.choice((1, 2, 3))),))
        v = ft.fat_by_oracle(emb, x)
        assert v.status == NOT_FAT and v.note == "odd dimension"


def test_oracle_tol_validation():
    g, emb = so5_so4()
    with pytest.raises(ValueError):
        ft.fat_by_oracle(emb, emb.torus_vector((1, 1)), tol=0)


def test_isotropy_algebra_dimensions():
    g, emb = so5_so4()
    assert len(ft.isotropy_algebra(g, emb.torus_vector((1, 1)))) == 4
    assert len(ft.isotropy_algebra(g, emb.torus_vector((1, 2)))) == 2
    assert len(ft.isotropy_algebra(g, vec([0] * g.dim))) == g.dim


def test_centralizer_verdicts():
    g, emb = so5_so4()
    assert ft.fat_by_centralizer(emb, emb.torus_vector((1, 1))).status == FAT
    v = ft.fat_by_centralizer(emb, emb.torus_vector((1, 0)))
    assert v.status == NOT_FAT
    w = v.witness_vector
    assert not any(emb.split_coords(w)[0]) and any(w)
    assert all(c == 0 for c in g.bracket(emb.torus_vector((1, 0)), w))
    assert ft.fat_by_centralizer(emb, vec([0] * g.dim)).status == NOT_FAT


def test_kernel_containment_for_fat_vector():
    # For fat X_u the isotropy algebra lies inside h (here: u(2) in so(4)).
    g, emb = so5_so4()
    j = emb.torus_vector((1, 1))
    for kv in ft.isotropy_algebra(g, j):
        assert emb.h_coords(kv) is not None


def test_certify_consensus_and_witnesses():
    g, emb = so5_so4()
    sub = make_subsystem("so", (5,), "so", (4,))
    cert = ft.certify(g, emb, emb.torus_vector((1, 1)), subsystem=sub,
                      instance="so5_so4_J", seed=0)
    assert cert.fat and cert.agreed
    assert (cert.verdict_roots, cert.verdict_oracle,
            cert.verdict_centralizer) == (FAT, FAT, FAT)
    cert2 = ft.certify(g, emb, emb.torus_vector((1, 0)), subsystem=sub)
    assert not cert2.fat
    assert cert2.witness_root in ((0, 1), (0, -1))
    assert cert2.null_vector is not None
    assert cert2.centralizer_witness is not None


def test_certify_roots_not_applicable_off_torus():
    g, emb = so5_so4()
    sub = make_subsystem("so", (5,), "so", (4,))
    x = emb.h_basis[1]  # in h but not in the torus
    cert = ft.certify(g, emb, x, subsystem=sub)
    assert cert.verdict_roots == NOT_APPLICABLE
    assert cert.verdict_oracle == cert.verdict_centralizer


def test_certify_disagreement_raises_with_certificate():
    # A criterion that goes wrong must surface as CriteriaDisagree, never a
    # vote: with the Gram table of one torus element zeroed, the oracle
    # calls the fat J singular while the roots and the centralizer say fat.
    g = so5_so4()[0]
    emb = la.so_block_embedding(g, 4)  # its own table cache
    sub = make_subsystem("so", (5,), "so", (4,))
    j = emb.torus_vector((1, 1))
    entries = ft._gram_entries

    def one_block_zeroed(e, rows):  # the Gram of the first torus row
        return [{} if a == 0 else row for a, row in enumerate(entries(e, rows))]
    with mock.patch.object(ft, "_gram_entries", one_block_zeroed):
        with pytest.raises(CriteriaDisagree) as err:
            ft.certify(g, emb, j, subsystem=sub)
    cert = err.value.certificate
    assert cert is not None and not cert.agreed
    assert cert.verdict_roots == FAT and cert.verdict_oracle == NOT_FAT
    assert cert.verdict_centralizer == FAT


def test_well_conditioned_singular_gram_raises():
    # A Gram the float SVD calls fat (well conditioned) must be fat by its
    # exact rank too: at a not-fat X_u, such an oracle verdict disagrees even
    # though all three exact verdicts are not fat.
    g, emb = so5_so4()
    sub = make_subsystem("so", (5,), "so", (4,))
    oracle = ft.fat_by_oracle

    def claims_well_conditioned(*args):
        return dataclasses.replace(oracle(*args), well_conditioned=True)
    with mock.patch.object(ft, "fat_by_oracle", claims_well_conditioned):
        assert ft.certify(g, emb, emb.torus_vector((1, 1)), subsystem=sub).fat
        with pytest.raises(CriteriaDisagree) as err:
            ft.certify(g, emb, emb.torus_vector((1, 0)), subsystem=sub)
    cert = err.value.certificate
    assert {cert.verdict_roots, cert.verdict_oracle,
            cert.verdict_centralizer} == {NOT_FAT}
    assert cert.well_conditioned and not cert.agreed


def test_tol_sets_well_conditioned_not_the_verdict():
    # Exact verdicts: tol = 1 or a Gram with smin / smax = 1e-13 are fat,
    # only not well conditioned; the margins are read off the monomial Gram.
    g, emb = so5_so4()
    sub = make_subsystem("so", (5,), "so", (4,))
    cert = ft.certify(g, emb, emb.torus_vector((1, 1)), subsystem=sub,
                      tol=1.0)
    assert cert.fat and cert.agreed and not cert.well_conditioned
    cert = ft.certify(g, emb, emb.torus_vector((1, Q(1, 10**13))),
                      subsystem=sub)
    assert cert.fat and cert.agreed and not cert.well_conditioned
    assert (cert.min_singular_value, cert.max_singular_value) == (6e-13, 6.0)
    assert ft.certify(g, emb, emb.torus_vector((1, 2)), subsystem=sub
                      ).well_conditioned


def test_noncompact_certificates():
    g, emb = make_pair("so", (4, 1), "so", (4,))
    sub = make_subsystem("so", (4, 1), "so", (4,))
    assert ft.certify(g, emb, emb.torus_vector((1, 1)), subsystem=sub).fat
    assert not ft.certify(g, emb, emb.torus_vector((1, 0)), subsystem=sub).fat


def test_oracle_scaling_invariance():
    g, emb = so5_so4()
    rng = random.Random(22)
    for _ in range(30):
        tau = (Q(rng.randint(-9, 9), rng.choice((1, 2, 3))),
               Q(rng.randint(-9, 9), rng.choice((1, 2, 3))))
        x = emb.torus_vector(tau)
        for r in (2, Q(1, 2), -3, Q(7, 3)):
            xs = tuple(r * c for c in x)
            assert ft.fat_by_oracle(emb, x).status == \
                ft.fat_by_oracle(emb, xs).status


def test_gram_identity_full_vs_h_component():
    # B(X_u, [X, Y]_h) = B(X_u, [X, Y]) for X, Y in m and X_u in h.
    g, emb = so5_so4()
    rng = random.Random(23)
    for _ in range(10):
        xu = emb.torus_vector((Q(rng.randint(-5, 5)), Q(rng.randint(-5, 5))))
        for i in range(emb.dim_m):
            for j in range(emb.dim_m):
                br = g.bracket(emb.m_basis[i], emb.m_basis[j])
                br_h = vec_mat(emb.split_coords(br)[0], emb.h_basis)
                assert dot(xu, g.covector(br)) == dot(xu, g.covector(br_h))


def test_ad_equivariance_of_verdicts():
    # fat(Ad_h X_u) = fat(X_u) for sampled exponentials of h elements.
    g, emb = so5_so4()
    rng = np.random.default_rng(24)
    basis = np.array([[[float(x) for x in row] for row in b] for b in g.basis])
    flat = basis.reshape(g.dim, -1)
    for tau, expect in (((1, 1), True), ((1, 0), False), ((2, 1), True)):
        x = emb.torus_vector(tau)
        xm = np.einsum("i,ijk->jk", np.array([float(c) for c in x]), basis)
        base = ft.fat_by_oracle(emb, x).status
        assert (base == FAT) == expect
        for _ in range(6):
            coeffs = rng.normal(size=emb.dim_h) * 0.4
            hm = np.einsum(
                "i,ijk->jk",
                np.array([float(sum(c * v for c, v in zip(coeffs, col)))
                          for col in zip(*emb.h_basis)]), basis)
            conj = expm(hm)
            adx = conj @ xm @ np.linalg.inv(conj)
            c, *_ = np.linalg.lstsq(flat.T, adx.ravel(), rcond=None)
            gram = fatness_gram_float(emb, c)
            sv = np.linalg.svd(gram, compute_uv=False)
            verdict_fat = sv[0] > 0 and sv[-1] > 1e-6 * sv[0]
            assert verdict_fat == expect


def test_sample_rational_vectors_deterministic_and_in_range():
    a = ft.sample_rational_vectors(3, 50, seed=9)
    b = ft.sample_rational_vectors(3, 50, seed=9)
    assert a == b
    for v in a:
        for x in v:
            assert -9 <= x.numerator <= 9 or abs(x) <= 9
            assert x.denominator in (1, 2, 3)


def so3_float_basis():
    """so(3) scaled by the float sqrt(2), read as exact binary rationals."""
    s = 2.0 ** 0.5
    return la.matrix_algebra("so3-scaled", [
        [[0, 0, 0], [0, 0, -s], [0, s, 0]],
        [[0, 0, s], [0, 0, 0], [-s, 0, 0]],
        [[0, -s, 0], [s, 0, 0], [0, 0, 0]],
    ])


def test_float_basis_oracle_and_centralizer_agree():
    # Float basis (irrational scaling of so(3)), h = so(2): the criteria
    # reach consensus exactly.
    g = so3_float_basis()
    emb = la.reductive_split(g, [vec([0, 0, 1])])
    assert emb.dim_m == 2
    fat_cert = ft.certify(g, emb, vec([0, 0, 1]))
    assert fat_cert.fat and fat_cert.agreed
    zero_cert = ft.certify(g, emb, vec([0, 0, 0]))
    assert not zero_cert.fat and zero_cert.agreed


# -- the tabulated ad_h on m ------------------------------------------------

# Rational entries p/q * 10^e with |e| up to 40, so that huge and tiny
# terms meet in one sum; the nonzero numerator p in -99..99 is drawn
# directly, as a filter would discard whole examples.
NUMERATOR = st.integers(-99, 98).map(lambda p: p + (p >= 0))
NONZERO = st.builds(lambda p, q, e: Q(p, q) * Q(10) ** e,
                    NUMERATOR, st.integers(1, 99),
                    st.integers(-40, 40))

AD_M_PAIRS = {
    "so5_so4": ("so", (5,), "so", (4,)),
    "so5_u2": ("so", (5,), "u", (2,)),
    "so41_so4": ("so", (4, 1), "so", (4,)),
    "so5_t2": ("so", (5,), "torus", (2,)),
}


def draw_h_vector(data, emb):
    """sum_a c_a h_a over sparse h-coordinates c (often not fat)."""
    coords = data.draw(st.dictionaries(st.integers(0, emb.dim_h - 1), NONZERO,
                                       max_size=emb.dim_h))
    return vec_mat([coords.get(a, Q(0)) for a in range(emb.dim_h)],
                   emb.h_basis)


def ad_m_reference(g, emb, x):
    """Dense ad_x on m: column j is the m part of split_coords([x, m_j])."""
    cols = []
    for mj in emb.m_basis:
        ch, cm = emb.split_coords(g.bracket(x, mj))
        assert not any(ch)
        cols.append(cm)
    return tuple(zip(*cols))


def centralizer_reference(g, emb, x):
    """(status, witness) from the kernel of the (dim g) x k bracket matrix."""
    rows = [sparse_vec(r) for r in ad_on(g, x, emb.m_basis)]
    if rank(rows) == emb.dim_m:
        return FAT, None
    return NOT_FAT, vec_mat(dense_vec(nullspace(rows, emb.dim_m)[0], emb.dim_m), emb.m_basis)


@pytest.mark.parametrize("name", sorted(AD_M_PAIRS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ad_m_matches_dense_brackets(name, data):
    g, emb = make_pair(*AD_M_PAIRS[name])
    x = draw_h_vector(data, emb)
    d = ad_m(emb, x)
    assert d == ad_m_reference(g, emb, x)
    assert len(d) == emb.dim_m and all(len(row) == emb.dim_m for row in d)


@pytest.mark.parametrize("name", sorted(AD_M_PAIRS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_centralizer_and_bundle_isotropy_match_full_kernels(name, data):
    g, emb = make_pair(*AD_M_PAIRS[name])
    x = draw_h_vector(data, emb)
    v = ft.fat_by_centralizer(emb, x)
    assert (v.status, v.witness_vector) == centralizer_reference(g, emb, x)
    inst = cp.bundle_instance(g, emb, x)
    full = len(ft.isotropy_algebra(g, x)) == len(inst.v_basis)
    assert inst.isotropy_in_h == full == (v.status == FAT)


def test_empty_h_ad_m_and_centralizer():
    g = la.so(3)
    emb = la.reductive_split(g, [])
    zero = vec([0] * g.dim)
    assert ad_m(emb, zero) == mat([[0] * 3] * 3)
    v = ft.fat_by_centralizer(emb, zero)
    assert (v.status, v.witness_vector) == centralizer_reference(g, emb, zero)
    assert v.status == NOT_FAT
    with pytest.raises(DimensionMismatch):
        ad_m(emb, unit_vec(g.dim, 0))


def test_check_embedding_rejects_m_not_ad_h_invariant():
    # h = the (0, 1) rotation in so(4) is closed, but m = (e_1 + e_0, e_2,
    # ..., e_5) is not ad_h-invariant: [h, e_3] is e_1 up to sign.
    g = la.so(4)
    h = [unit_vec(g.dim, 0)]
    m = [vec([1, 1, 0, 0, 0, 0])] + [unit_vec(g.dim, j) for j in range(2, 6)]
    for build in (la._check_embedding, lambda e: ad_m(e, h[0])):
        emb = la.SubalgebraEmbedding(g, [sparse_vec(r) for r in h],
                                     [sparse_vec(r) for r in m], None, True, "skew")
        with pytest.raises(ValueError, match=r"\[h, m\] leaves m"):
            build(emb)


# -- the integer Gram and ad_m tables ----------------------------------------

TABLE_PAIRS = {
    "so5_so4": ("so", (5,), "so", (4,)),
    "so5_u2": ("so", (5,), "u", (2,)),
    "so41_so4": ("so", (4, 1), "so", (4,)),
    "so7_so6": ("so", (7,), "so", (6,)),
}


def gram_reference(g, emb, x):
    """Dense Fraction Gram: G_ij = x . K [m_i, m_j], G_ji = -G_ij."""
    assert emb.h_coords(x) is not None
    k = emb.dim_m
    rows = [[Q(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            u = g.covector(g.bracket(emb.m_basis[i], emb.m_basis[j]))
            rows[i][j] = sum((a * b for a, b in zip(x, u)), Q(0))
            rows[j][i] = -rows[i][j]
    return mat(rows)


@pytest.mark.parametrize("name", sorted(TABLE_PAIRS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_tables_match_dense_fraction_references(name, data):
    g, emb = make_pair(*TABLE_PAIRS[name])
    if data.draw(st.booleans()):
        x = draw_h_vector(data, emb)
    else:
        x = emb.torus_vector(data.draw(st.lists(
            NONZERO | st.just(Q(0)), min_size=len(emb.torus_basis),
            max_size=len(emb.torus_basis))))
    ref = gram_reference(g, emb, x)
    assert ft.fatness_gram(emb, x) == ref
    assert ad_m(emb, x) == ad_m_reference(g, emb, x)
    entries, den = emb.ad_m_entries(x)
    rows = dense_mat(entries, emb.dim_m)
    assert all(type(v) is int for row in rows for v in row) and den > 0
    # The oracle decides by the exact rank of the Fraction Gram; its margins
    # are numpy's singular values of that Gram, to rounding.
    verdict = ft.fat_by_oracle(emb, x)
    assert (verdict.status == FAT) == (reference_rank(ref) == emb.dim_m)
    s = np.linalg.svd(np.array([[float(v) for v in row] for row in ref]),
                      compute_uv=False)
    got = (verdict.min_singular_value, verdict.max_singular_value)
    assert got == pytest.approx((s[-1], s[0]), rel=1e-12, abs=1e-12 * s[0])
    assert verdict.well_conditioned == (s[-1] > 1e-9 * s[0]) or \
        s[-1] == pytest.approx(1e-9 * s[0], rel=1e-9)
    if verdict.status == FAT:
        assert verdict.null_vector is None
    else:  # an exact nonzero kernel vector, in primitive integers
        null = verdict.null_vector
        assert any(null) and all(v.denominator == 1 for v in null)
        assert all(sum(a * b for a, b in zip(row, null)) == 0 for row in ref)


@pytest.mark.parametrize("name", sorted(TABLE_PAIRS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coords_reject_vectors_outside_the_span(name, data):
    g, emb = make_pair(*TABLE_PAIRS[name])
    x = draw_h_vector(data, emb)
    c = emb.h_coords(x)
    assert vec_mat(c, emb.h_basis) == x
    j = data.draw(st.integers(0, emb.dim_m - 1))
    # One coefficient for all of m_j: drawn per entry, e_2 + e_4 in so5_u2's
    # m could turn into e_2 - e_4, which lies in h.
    k = data.draw(NONZERO)
    off = tuple(a + k * b for a, b in zip(x, emb.m_basis[j]))
    assert emb.h_coords(off) is None
    sparse = {i: v for i, v in enumerate(off) if v}
    assert emb.sparse_h_coords(sparse) is None
    assert dense_vec(emb.sparse_h_coords(
        {i: v for i, v in enumerate(x) if v}), emb.dim_h) == c
    with pytest.raises(DimensionMismatch):
        ft.fatness_gram(emb, off)
    with pytest.raises(DimensionMismatch):
        ad_m(emb, off)


# -- torus coordinates read off the h-coordinates ----------------------------

def scaled_h_pair():
    """so(7) > u(3) with the h rows scaled by 1/3 and the block torus kept."""
    g, emb = make_pair("so", (7,), "u", (3,))
    third = [[x / 3 for x in row] for row in emb.h_basis]
    scaled = la.reductive_split(g, third, torus_basis=emb.torus_basis)
    return g, scaled, rd.detect_subsystem(g, scaled, rd.root_system_for(g))


def float_basis_pair():
    """The float-basis so(3) > so(2), its torus h itself, no root data."""
    g = so3_float_basis()
    t = [vec([0, 0, 1])]
    return g, la.reductive_split(g, t, torus_basis=t), None


def builtin_pair(*args):
    return *make_pair(*args), make_subsystem(*args)


TORUS_PAIRS = {
    "so5_so4": lambda: builtin_pair("so", (5,), "so", (4,)),
    "so7_so6": lambda: builtin_pair("so", (7,), "so", (6,)),
    "so5_u2": lambda: builtin_pair("so", (5,), "u", (2,)),
    "so41_so4": lambda: builtin_pair("so", (4, 1), "so", (4,)),
    "so61_so6": lambda: builtin_pair("so", (6, 1), "so", (6,)),
    "so7_u3_scaled_h": scaled_h_pair,
    "so3_float_basis": float_basis_pair,
}
BUILTIN_PAIRS = ("so41_so4", "so5_so4", "so5_u2", "so61_so6", "so7_so6")


@functools.cache
def torus_case(name):
    """(g, emb, sub, the h basis rows off the torus) for a TORUS_PAIRS name."""
    g, emb, sub = TORUS_PAIRS[name]()
    off_t = [h for h in emb.h_basis if coords(emb.torus_basis, h) is None]
    return g, emb, sub, off_t


def certify_any(g, emb, x, sub):
    """The certificate of x, also when the criteria disagree."""
    try:
        return ft.certify(g, emb, x, subsystem=sub)
    except CriteriaDisagree as exc:
        return exc.certificate


@pytest.mark.parametrize("name", sorted(TORUS_PAIRS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_torus_coords_round_trip_against_g_coordinate_solves(name, data):
    g, emb, sub, off_t = torus_case(name)
    r = len(emb.torus_basis)
    tau = tuple(data.draw(st.lists(NONZERO | st.just(Q(0)), min_size=r,
                                   max_size=r)))
    x = emb.torus_vector(tau)
    assert x == vec_mat(tau, emb.torus_basis)
    assert emb.torus_coords(x) == tau == coords(emb.torus_basis, x)
    assert emb.torus_coords(list(x)) == tau
    assert certify_any(g, emb, x, sub).x_u_torus == tau
    # In h but off the torus: no torus coordinates, so no root verdict.
    if off_t:
        h = off_t[data.draw(st.integers(0, len(off_t) - 1))]
        c = data.draw(NONZERO)
        y = tuple(a + c * b for a, b in zip(x, h))
        assert coords(emb.torus_basis, y) is None
        assert emb.torus_coords(y) is None
        cert = certify_any(g, emb, y, sub)
        assert cert.x_u_torus is None
        assert cert.verdict_roots == NOT_APPLICABLE
    # With an m part: not in h, so no torus coordinates and no certificate.
    m = emb.m_basis[data.draw(st.integers(0, emb.dim_m - 1))]
    c = data.draw(NONZERO)
    z = tuple(a + c * b for a, b in zip(x, m))
    assert coords(emb.h_basis, z) is None
    assert emb.torus_coords(z) is None
    with pytest.raises(DimensionMismatch, match="vector is not in h"):
        ft.certify(g, emb, z, subsystem=sub)
    # The shared solve is keyed by identity: x is still read correctly.
    assert emb.torus_coords(x) == tau


# p/q * 10^e with |e| up to 400: past the float range on both sides.
HUGE_OR_TINY = st.builds(lambda p, q, e: Q(p, q) * Q(10) ** e,
                         NUMERATOR,
                         st.integers(1, 99), st.integers(-400, 400))


def draw_near_wall_tau(data, r):
    """Torus coordinates on or near the walls t_i = 0 and t_i = +-t_j."""
    tau = [data.draw(HUGE_OR_TINY)]
    for _ in range(r - 1):
        other = data.draw(st.sampled_from(tau)) * data.draw(st.sampled_from(
            (1, -1)))
        tau.append(data.draw(st.sampled_from((
            data.draw(HUGE_OR_TINY), Q(0), other,
            other * (1 + data.draw(HUGE_OR_TINY) / 10**400)))))
    return data.draw(st.permutations(tau))


@pytest.mark.parametrize("name", BUILTIN_PAIRS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_near_wall_torus_covectors_reach_consensus(name, data):
    # Every verdict is exact, whatever the floats make of the Gram: the
    # three criteria agree, the verdict is the root test, and the
    # certificate is strict JSON with null for a margin past the float range.
    g, emb, sub, _ = torus_case(name)
    tau = draw_near_wall_tau(data, len(emb.torus_basis))
    cert = ft.certify(g, emb, emb.torus_vector(tau), subsystem=sub)
    assert cert.agreed
    assert cert.fat == all(rd.root_eval(a, tau) for a in sub.forbidden)
    assert cert.verdict_roots == cert.verdict_oracle == cert.verdict_centralizer
    text = dumps_canonical(certificate_to_json(cert))
    assert json.loads(text)["well_conditioned"] == cert.well_conditioned


def test_torus_not_in_h_has_no_torus_coordinates():
    # Only reductive_split(..., check=False) builds such an embedding.  The
    # torus coordinates are solved from the h-coordinates, so they are None
    # for every x, even for a torus row that lies in h; torus_vector still
    # combines the given rows.
    g, emb = so5_so4()
    sub = make_subsystem("so", (5,), "so", (4,))
    for torus in (emb.m_basis[:2], (emb.torus_basis[0], emb.m_basis[0])):
        skew = la.reductive_split(g, emb.h_basis, torus_basis=torus,
                                  check=False)
        t = skew.torus_vector((1, 2))
        assert t == vec_mat((1, 2), torus)
        for x in (t, torus[0], emb.h_basis[0], vec([0] * g.dim)):
            assert skew.torus_coords(x) is None
        with pytest.raises(DimensionMismatch, match="vector is not in h"):
            ft.certify(g, skew, t, subsystem=sub)
        cert = ft.certify(g, skew, emb.torus_basis[0], subsystem=sub)
        assert cert.x_u_torus is None and cert.verdict_roots == NOT_APPLICABLE


# -- torus_vector carries the solve that certify would make -------------------

def dual_case(n, side):
    """(g, emb, sub) of one side of the builtin dual_so{2n}1 pair."""
    g, emb = make_pair("so", (2 * n, 1), "so", (2 * n,))
    pair, emb_nc, emb_c, subs = make_dual(emb, make_subsystem("so", (2 * n, 1), "so", (2 * n,)))
    if side == "noncompact":
        return pair.noncompact, emb_nc, subs[0]
    return pair.compact_dual, emb_c, subs[1]


# Every benchmark pair (the builtin catalogs' pairs among them), both sides
# of the builtin dual pairs, whose embeddings share coordinates, the rank-6
# u-block, a torus embedding, whose Gram and ad_m are not monomial, and the
# scaled u-block, whose torus rows are 3 h_a: there the h-coordinates of a
# torus_vector take the gcd to reach lowest terms.
PRIME_CASES = {
    **{p: functools.partial(builtin_pair, "so", *BENCH.PAIRS[p]) for p in BENCH.PAIRS},
    **{f"dual_so{2 * n}1_{side}": functools.partial(dual_case, n, side)
       for n in (2, 3) for side in ("noncompact", "compact")},
    "so12_u6": functools.partial(builtin_pair, "so", (12,), "u", (6,)),
    "so8_t4": functools.partial(builtin_pair, "so", (8,), "torus", (4,)),
    "so7_u3_scaled_h": scaled_h_pair,
}


@functools.cache
def prime_case(name):
    return PRIME_CASES[name]()


def draw_tau(data, r):
    """Torus coordinates, the zero vector among them."""
    return tuple(data.draw(st.just([Q(0)] * r) | st.lists(
        NONZERO | st.just(Q(0)), min_size=r, max_size=r)))


def cert_text(g, emb, x, sub):
    return dumps_canonical(certificate_to_json(certify_any(g, emb, x, sub)))


@pytest.mark.parametrize("name", sorted(PRIME_CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_torus_vector_carries_the_solve_certify_would_make(name, data):
    g, emb, sub = prime_case(name)
    r = len(emb.torus_basis)
    tau, tau2 = draw_tau(data, r), draw_tau(data, r)
    x = emb.torus_vector(tau)
    # The record holds x with tau and its ints, and certify reads it: the
    # certificate is the one of a fresh copy of x, which takes the full solve.
    rec_x, c, den, rec_tau, t, t_den = emb.solve(x)
    assert rec_x is x and (c, den) == (None, None)
    assert rec_tau == vec(tau) == emb.torus_coords(x)
    primed = cert_text(g, emb, x, sub)
    fresh = vec(list(x))
    assert fresh is not x and primed == cert_text(g, emb, fresh, sub)
    # The fresh copy's solve fills the whole record: its h-coordinates as
    # ints over den in lowest terms, and the same tau with the same ints
    # over tau's least common denominator.
    _, c_fresh, den_fresh, *fresh_tau = emb.solve(fresh)
    assert fresh_tau == [rec_tau, t, t_den] and emb.torus_coords(fresh) == vec(tau)
    assert all(type(v) is int and v for v in c_fresh.values())
    assert gcd(den_fresh, *c_fresh.values()) == 1
    assert tuple(v / den_fresh for v in dense_vec(c_fresh, emb.dim_h)) == \
        emb.h_coords(x) == emb.h_coords(fresh) == coords(emb.h_basis, x)
    t_ints = list(t.values())
    assert t_den == lcm(*(v.denominator for v in vec(tau)))
    assert t_ints == [v * t_den for v in vec(tau)] and all(type(v) is int for v in t_ints)
    # An X_u built before another torus_vector call finds the record stale.
    y, x2 = emb.torus_vector(tau), emb.torus_vector(tau2)
    assert cert_text(g, emb, y, sub) == primed
    assert cert_text(g, emb, x2, sub) == cert_text(g, emb, vec(list(x2)), sub)


@pytest.mark.parametrize("name", sorted(PRIME_CASES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_fresh_torus_x_u_solves_tau_once_per_certify(name, data):
    # An X_u in the torus that torus_vector did not make: one certify solves
    # its tau once (the oracle and the centralizer read it from the solve
    # record), and gives the certificate of the torus_vector X_u of that tau.
    # A generic X_u in h, off the torus unless h is the torus, also runs its
    # torus solve once, and a failed one leaves the root criterion out.
    g, emb, sub = prime_case(name)
    tau = draw_tau(data, len(emb.torus_basis))
    want = cert_text(g, emb, emb.torus_vector(tau), sub)
    fresh = vec(list(emb.torus_vector(tau)))
    solver = emb._torus
    with mock.patch.object(solver, "coords", wraps=solver.coords) as solve:
        assert cert_text(g, emb, fresh, sub) == want
    assert solve.call_count == 1
    generic = vec_mat(data.draw(st.lists(NONZERO, min_size=emb.dim_h, max_size=emb.dim_h)),
                      emb.h_basis)
    with mock.patch.object(solver, "coords", wraps=solver.coords) as solve:
        cert = certify_any(g, emb, generic, sub)
    assert solve.call_count == 1
    assert cert.x_u_torus == coords(emb.torus_basis, generic)
    if emb.dim_h > len(emb.torus_basis):
        assert cert.x_u_torus is None and cert.verdict_roots == NOT_APPLICABLE


def test_torus_vector_primes_only_its_own_embedding():
    # Both sides of a dual pair, and so(2n+1) > so(2n) and so(2n+1) > u(n),
    # share their tori's g-coordinates (the last two not their h-coordinates):
    # an X_u primed on one embedding is solved afresh on the other.
    for a, b in (("dual_so41_noncompact", "dual_so41_compact"),
                 ("dual_so61_compact", "dual_so61_noncompact"),
                 ("so5_so4", "so5_u2"), ("so7_u3", "so7_so6")):
        (_, emb_a, _), (g, emb_b, sub) = prime_case(a), prime_case(b)
        r = len(emb_a.torus_basis)
        for tau in (tuple(range(1, r + 1)), (0,) * r):
            want = cert_text(g, emb_b, emb_a.torus_vector(tau), sub)
            assert want == cert_text(g, emb_b, emb_b.torus_vector(tau), sub)
            x = emb_a.torus_vector(tau)
            assert emb_b.torus_coords(x) == vec(tau)
            # x is solved afresh on emb_b (with h-coordinates), not read
            # from emb_a's record, which keeps tau's ints only.
            assert emb_b.solve(x)[1] is not None and emb_a.solve(x)[1] is None
            assert cert_text(g, emb_b, x, sub) == want


# -- the monomial read-off against the dense Gram ------------------------------

def draw_read_off_input(data, emb, sub):
    """X_u of one of three kinds: a torus point off every forbidden wall; one
    on a wall (tau projected onto alpha(tau) = 0 for a forbidden alpha, or
    tau = 0); or a rational X_u in h with every h-coordinate nonzero, whose
    Gram and ad_m are not monomial, so the dense path runs."""
    kind = data.draw(st.sampled_from(["off", "wall", "zero", "generic"]))
    if kind == "generic":
        return vec_mat(data.draw(st.lists(NONZERO, min_size=emb.dim_h,
                                          max_size=emb.dim_h)), emb.h_basis)
    return emb.torus_vector(draw_torus_tau(data, sub, len(emb.torus_basis), kind))


def draw_torus_tau(data, sub, r, kind):
    """Torus coordinates of a kind draw_read_off_input names."""
    tau = data.draw(st.lists(NONZERO, min_size=r, max_size=r))
    if kind == "zero":
        tau = [Q(0)] * r
    elif kind == "wall":
        a = data.draw(st.sampled_from(sub.forbidden))
        s = rd.root_eval(a, tau) / sum(c * c for c in a)
        tau = [t - s * c for t, c in zip(tau, a)]
        assert rd.root_eval(a, tau) == 0
    else:
        assume(all(rd.root_eval(a, tau) for a in sub.forbidden))
    return tau


@pytest.mark.parametrize("name", sorted(BENCH.PAIRS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fat_by_roots_on_tau_and_on_its_ints(name, data):
    # certify passes the ints torus_vector cleared tau to: the verdict, and
    # the witness, the first forbidden root on a wall, are tau's own.
    g, emb, sub = prime_case(name)
    kind = data.draw(st.sampled_from(["off", "wall", "zero"]))
    tau = draw_torus_tau(data, sub, len(emb.torus_basis), kind)
    _, _, _, rec_tau, t, _ = emb.solve(emb.torus_vector(tau))
    t_ints = list(t.values())
    assert rec_tau == tuple(tau) and all(type(v) is int for v in t_ints)
    verdict = rd.fat_by_roots(t_ints, sub)
    assert verdict == rd.fat_by_roots(rec_tau, sub)
    witness = next((a for a in sub.forbidden if not rd.root_eval(a, tau)), None)
    assert verdict.witness_root == witness
    assert verdict.status == (NOT_FAT if witness else FAT)
    assert verdict.status == (FAT if kind == "off" else NOT_FAT)


@pytest.mark.parametrize("name", sorted(BENCH.PAIRS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_read_off_matches_the_dense_gram(name, data):
    g, emb, sub = prime_case(name)
    x = draw_read_off_input(data, emb, sub)
    gram = ft.fatness_gram(emb, x)
    fat = reference_rank(gram) == emb.dim_m
    verdict = ft.fat_by_oracle(emb, x)
    assert verdict.status == (FAT if fat else NOT_FAT)
    assert verdict.null_vector == (None if fat else reference_nullspace(gram)[0])
    got = (verdict.min_singular_value, verdict.max_singular_value)
    hits = [(i, j) for i, row in enumerate(gram) for j, v in enumerate(row) if v]
    if len(hits) == len({i for i, _ in hits}) == len({j for _, j in hits}):
        # Monomial: the singular values are each column's largest |entry|.
        sv = sorted(max(map(abs, col)) for col in zip(*gram))
        assert got == (float(sv[0]), float(sv[-1]))
        assert verdict.well_conditioned == (sv[-1] != 0 and sv[0] / sv[-1] > 1e-9)
    else:
        s = np.linalg.svd(np.array([[float(v) for v in row] for row in gram]),
                          compute_uv=False)
        assert got == pytest.approx((s[-1], s[0]), rel=1e-12, abs=1e-12 * s[0])
        assert verdict.well_conditioned == (s[-1] > 1e-9 * s[0]) or \
            s[-1] == pytest.approx(1e-9 * s[0], rel=1e-9)
    # The centralizer: the kernel of the dense ad_m from brackets.
    central = ft.fat_by_centralizer(emb, x)
    kernel = reference_nullspace(ad_m_reference(g, emb, x))
    assert central.status == verdict.status
    assert central.witness_vector == (
        vec_mat(kernel[0], emb.m_basis) if kernel else None)


# -- torus embeddings: ad_xi on m and the Gram are not monomial ---------------

TORUS_EMBEDDINGS = {"so5_t2": (5, 2), "so8_t4": (8, 4), "so9_t4": (9, 4), "so12_t6": (12, 6)}


@functools.cache
def torus_embedding_case(name):
    n, r = TORUS_EMBEDDINGS[name]
    return *make_pair("so", (n,), "torus", (r,)), make_subsystem("so", (n,), "torus", (r,))


def support_blocks(mats, k):
    """The index sets, each sorted, that the nonzero entries of the k x k
    matrices connect: every combination of them is block-diagonal on these."""
    block = {i: frozenset([i]) for i in range(k)}
    for m in mats:
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                if v and block[i] is not block[j]:
                    merged = block[i] | block[j]
                    block.update(dict.fromkeys(merged, merged))
    return sorted({tuple(sorted(b)) for b in block.values()})


def reference_decision(mat, blocks, within=None):
    """(rank, nullspace(mat)[0] or None) of a Fraction matrix that is
    block-diagonal on the blocks (checked), by the Fraction reference on each
    block, or on those inside the indices ``within``.  The reduced row
    echelon form of such a matrix is its blocks', so its kernel basis, one
    vector per free column, is theirs, and the first vector is the one of
    the lowest free column over the blocks."""
    at = {i: b for b in blocks for i in b}
    assert all(not v or at[i] is at[j] for i, row in enumerate(mat) for j, v in enumerate(row))
    total, first = 0, None
    for b in blocks:
        if within is not None and b[0] not in within:
            continue
        kernel = reference_nullspace([[mat[i][j] for j in b] for i in b])
        total += len(b) - len(kernel)
        for v in kernel[:1]:
            f = b[max(p for p, x in enumerate(v) if x)]  # the free column
            if first is None or f < first[0]:
                first = f, tuple(v[b.index(i)] if i in b else Q(0) for i in range(len(mat)))
    return total, None if first is None else first[1]


def combine(mats, c):
    """sum_a c_a mats_a over dense Fraction matrices."""
    k = len(mats[0]) if mats else 0
    out = [[Q(0)] * k for _ in range(k)]
    for ca, m in zip(c, mats):
        if ca:
            for i, row in enumerate(m):
                for j, v in enumerate(row):
                    if v:
                        out[i][j] += ca * v
    return out


@functools.cache
def dense_detection_reference(name):
    """The forbidden roots from the dense Fraction D = ad_xi on m at the
    generic xi detection uses: {alpha, -alpha} when D^2 + alpha(xi)^2 I
    loses rank (ranked on the blocks of D); and whether D^2 is diagonal."""
    h_type, n, r = DETECTION_CASES[name]
    g, emb = make_pair("so", (n,), h_type, (r,))
    rs = rd.root_system_for(g)
    pairs = rd._canonical_pairs(rs.roots)
    lam, vals = rd._generic_torus_combination(pairs, rs.rank)
    assert all(type(c) is int for c in lam)
    assert vals == [abs(rd.root_eval(a, lam)) for a in pairs]
    d = ad_m_reference(g, emb, emb.torus_vector(lam))
    blocks = support_blocks([d], emb.dim_m)
    # D is block-diagonal on the blocks, so D^2 is, summed over each block.
    at = {i: b for b in blocks for i in b}
    d_sq = [[sum((d[i][l] * d[l][j] for l in at[i]), Q(0)) for j in range(emb.dim_m)]
            for i in range(emb.dim_m)]
    forbidden = set()
    for a in pairs:
        v = rd.root_eval(a, lam)
        shifted = [[x + (v * v if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(d_sq)]
        if reference_decision(shifted, blocks)[0] < emb.dim_m:
            forbidden |= {a, tuple(-c for c in a)}
    diagonal = all(not x for i, row in enumerate(d_sq) for j, x in enumerate(row) if i != j)
    return forbidden, diagonal


def monomial(entries):
    """No row or column of a sparse {(i, j): value} matrix holds two entries."""
    return len(entries) == len({i for i, _ in entries}) == len({j for _, j in entries})


# The torus embeddings, whose D^2 is not diagonal, and u-blocks, whose is.
DETECTION_CASES = {**{name: ("torus", n, r) for name, (n, r) in TORUS_EMBEDDINGS.items()},
                   "so5_u2": ("u", 5, 2), "so7_u3": ("u", 7, 3), "so12_u6": ("u", 12, 6)}


@pytest.mark.parametrize("name", sorted(DETECTION_CASES))
def test_torus_embedding_detection_matches_the_dense_square(name):
    h_type, n, r = DETECTION_CASES[name]
    g, emb = make_pair("so", (n,), h_type, (r,))
    sub = make_subsystem("so", (n,), h_type, (r,))
    rs = rd.root_system_for(g)
    forbidden, diagonal = dense_detection_reference(name)
    assert set(sub.forbidden) == forbidden
    assert len(sub.forbidden) == emb.dim_m
    xi = emb.torus_vector([1] * len(emb.torus_basis))
    parts, _ = emb.linear(la.SubalgebraEmbedding._ad_entries, xi)
    if h_type == "torus":
        # h is the torus: every root lies on m, one dimension each, and
        # detection reads the 4-row components by their Pfaffians.
        assert set(sub.forbidden) == set(rs.roots)
        assert not sub.member_roots
        assert not monomial(emb.ad_m_entries(xi)[0])
        assert not diagonal
        others = [e for idx, mono, e in parts if not mono]
        assert others and all(pfaffian4(e) for e in others)
    else:
        # A u-block: detection reads the squared weights off 2-row components.
        assert sub.member_roots
        assert monomial(emb.ad_m_entries(xi)[0])
        assert diagonal
        assert all(mono for _, mono, _ in parts)


# Every benchmark pair, the torus embeddings of the CI catalog, and the rank-6
# u-block: their tables as dense Fraction references, built once per module.
COMPONENT_CASES = {
    **{p: ("so", *BENCH.PAIRS[p]) for p in BENCH.PAIRS},
    **{name: ("so", (n,), "torus", (r,)) for name, (n, r) in TORUS_EMBEDDINGS.items()},
    "so12_u6": ("so", (12,), "u", (6,)),
}


@functools.cache
def component_case(name):
    """(g, emb, sub, references): the dense Fraction Gram and ad_m of each h
    basis element, from brackets, covectors and split_coords; the torus
    rows in h-coordinates; and the blocks that the h tables and the torus
    tables connect."""
    args = COMPONENT_CASES[name]
    g, emb = make_pair(*args)
    k = emb.dim_m
    pairing = {(i, j): g.covector(g.bracket(emb.m_basis[i], emb.m_basis[j]))
               for i in range(k) for j in range(i + 1, k)}
    grams = []
    for h in emb.h_basis:
        nonzero = [(l, a) for l, a in enumerate(h) if a]
        rows = [[Q(0)] * k for _ in range(k)]
        for (i, j), u in pairing.items():
            rows[i][j] = sum((a * u[l] for l, a in nonzero), Q(0))
            rows[j][i] = -rows[i][j]
        grams.append(rows)
    ads = [ad_m_reference(g, emb, h) for h in emb.h_basis]
    t_h = [coords(emb.h_basis, t) for t in emb.torus_basis]
    torus_mats = [combine(tables, c) for c in t_h for tables in (grams, ads)]
    refs = {"grams": grams, "ads": ads, "t_h": t_h,
            "blocks": {False: support_blocks(grams + ads, k), True: support_blocks(torus_mats, k)}}
    return g, emb, make_subsystem(*args), refs


def draw_component_input(data, emb, sub, refs):
    """(x, its h-coordinates, whether x is in the torus) for an X_u of a
    kind draw_read_off_input names: a torus one from torus_vector, or a
    generic one in h, built from its coordinates, so solved afresh (on a
    torus embedding, where h is the torus, it is in the torus)."""
    kind = data.draw(st.sampled_from(["off", "wall", "zero", "generic"]))
    if kind == "generic":  # sparse h-coordinates, as draw_h_vector draws them
        c = data.draw(st.dictionaries(st.integers(0, emb.dim_h - 1), NONZERO, min_size=1,
                                      max_size=emb.dim_h))
        c = [c.get(a, Q(0)) for a in range(emb.dim_h)]
        return vec_mat(c, emb.h_basis), c, coords(refs["t_h"], c) is not None
    tau = draw_torus_tau(data, sub, len(emb.torus_basis), kind)
    return emb.torus_vector(tau), vec_mat(tau, refs["t_h"]), True


@pytest.mark.parametrize("name", sorted(COMPONENT_CASES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_components_match_the_fraction_references_and_numpy(name, data):
    g, emb, sub, refs = component_case(name)
    k = emb.dim_m
    x, c, in_torus = draw_component_input(data, emb, sub, refs)
    blocks = refs["blocks"][in_torus]
    decided = {}
    for tables, build in ((refs["grams"], ft._gram_entries),
                          (refs["ads"], la.SubalgebraEmbedding._ad_entries)):
        mat = combine(tables, c)
        parts, den = emb.linear(build, x)
        # The parts split m into unions of the reference blocks, and each
        # holds the matrix's entries on its indices idx (renumbered), over den.
        assert sorted(i for idx, _, _ in parts for i in idx) == list(range(k))
        assert all(set(idx) == {i for b in blocks if b[0] in idx for i in b} for idx, _, _ in parts)
        assert {(idx[i], idx[j]): Q(v, den) for idx, _, e in parts for (i, j), v in e.items()} == {
            (i, j): v for i, row in enumerate(mat) for j, v in enumerate(row) if v}
        assert all(mono or len(idx) > 1 for idx, mono, _ in parts)
        # Each part's rank and first kernel vector, and the whole's.
        for part in parts:
            assert ft._decide([part]) == (
                lambda r, v: (r, None if v is None else sparse_vec(v)))(
                    *reference_decision(mat, blocks, set(part[0])))
        rank, null = ft._decide(parts)
        decided[build] = reference_decision(mat, blocks)
        assert (rank, None if null is None else dense_vec(null, k)) == decided[build]
    # The criteria, on the same references, and the margins against numpy.
    gram = combine(refs["grams"], c)
    verdict = ft.fat_by_oracle(emb, x)
    ref_rank, ref_null = decided[ft._gram_entries]
    assert verdict.status == (FAT if ref_rank == k else NOT_FAT)
    assert verdict.null_vector == ref_null
    s = np.linalg.svd(np.array([[float(v) for v in row] for row in gram]), compute_uv=False)
    got = (verdict.min_singular_value, verdict.max_singular_value)
    if ref_rank < k:
        assert got[0] == 0
    assert got == pytest.approx((s[-1], s[0]), rel=1e-12, abs=1e-12 * s[0])
    assert verdict.well_conditioned == (s[-1] > 1e-9 * s[0]) or \
        s[-1] == pytest.approx(1e-9 * s[0], rel=1e-9)
    central = ft.fat_by_centralizer(emb, x)
    _, ref_kernel = decided[la.SubalgebraEmbedding._ad_entries]
    assert central.status == verdict.status
    assert central.witness_vector == (None if ref_kernel is None else vec_mat(ref_kernel, emb.m_basis))
    # Detection: on the torus, X_u is fat exactly off the forbidden walls.
    if in_torus:
        tau = emb.torus_coords(x)
        assert verdict.status == (FAT if all(rd.root_eval(a, tau) for a in sub.forbidden)
                                  else NOT_FAT)
    if name in DETECTION_CASES:
        assert set(sub.forbidden) == dense_detection_reference(name)[0]
    else:
        assert set(sub.forbidden) == BENCH.forbidden_walls(name)


@pytest.mark.parametrize("name", sorted(COMPONENT_CASES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_lazy_torus_vector_certifies_and_solves_as_a_fresh_copy(name, data):
    # A torus_vector X_u carries tau's ints only: certify reads them,
    # h_coords solves x directly, and linear, fatness_gram and ad_m_entries
    # read the torus tables.  Each gives what the fresh copy of X_u, which
    # takes the full solve, gives.
    g, emb, sub, _ = component_case(name)
    tau = draw_tau(data, len(emb.torus_basis))
    x = emb.torus_vector(tau)
    fresh = vec(list(x))
    assert emb.solve(x)[1:3] == (None, None)
    assert certify_any(g, emb, x, sub) == certify_any(g, emb, fresh, sub)
    x = emb.torus_vector(tau)

    def read(y):
        return (emb.h_coords(y), emb.linear(ft._gram_entries, y),
                ft.fatness_gram(emb, y), emb.ad_m_entries(y))
    primed = read(x)
    assert emb.solve(x)[1:3] == (None, None)  # the record never forms them
    assert primed == read(fresh)
    assert emb.solve(fresh)[3:] == emb.solve(emb.torus_vector(tau))[3:]


@pytest.mark.parametrize("name", sorted(TORUS_EMBEDDINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_torus_embedding_criteria_match_fraction_references(name, data):
    g, emb, sub = torus_embedding_case(name)
    _, _, _, refs = component_case(name)
    x = draw_read_off_input(data, emb, sub)
    tau = emb.torus_coords(x)
    # h is the torus: the h-coordinates of x are tau.
    gram, ad = combine(refs["grams"], tau), combine(refs["ads"], tau)
    assert ft.fatness_gram(emb, x) == tuple(map(tuple, gram))
    rank, null = reference_decision(gram, refs["blocks"][True])
    fat = rank == emb.dim_m
    assert fat == all(rd.root_eval(a, tau) for a in sub.forbidden)
    verdict = ft.fat_by_oracle(emb, x)
    assert verdict.status == (FAT if fat else NOT_FAT)
    assert verdict.null_vector == (None if fat else null)
    central = ft.fat_by_centralizer(emb, x)
    _, kernel = reference_decision(ad, refs["blocks"][True])
    assert central.status == verdict.status
    assert central.witness_vector == (vec_mat(kernel, emb.m_basis) if kernel else None)


def test_detection_and_criteria_in_a_skewed_m_basis():
    # m_0 + m_1 in place of m_0: ad_xi on m is neither monomial nor
    # antisymmetric on that component, so detection ranks its shifted square
    # and the centralizer eliminates it, while the Gram stays antisymmetric.
    g, emb = make_pair("so", (5,), "so", (4,))
    sub = make_subsystem("so", (5,), "so", (4,))
    m = [dict(r) for r in emb.m_sparse]
    m[0] = {**m[0], **m[1]}
    skew = la.SubalgebraEmbedding(g, emb.h_sparse, m, emb.torus_sparse, True, "skewed")
    parts, _ = skew.linear(la.SubalgebraEmbedding._ad_entries, skew.torus_vector((1, 2)))
    assert not all(mono for _, mono, _ in parts)
    assert rd.detect_subsystem(g, skew, rd.root_system_for(g)).forbidden == sub.forbidden
    for tau in ((1, 1), (1, 0), (0, 3), (0, 0), (Q(2, 3), -5)):
        want = ft.certify(g, emb, emb.torus_vector(tau), subsystem=sub)
        got = ft.certify(g, skew, skew.torus_vector(tau), subsystem=sub)
        assert got.agreed and got.fat == want.fat
        assert got.verdict_centralizer == want.verdict_centralizer
        if got.centralizer_witness is not None:
            assert not any(g.bracket(got.x_u, got.centralizer_witness))
