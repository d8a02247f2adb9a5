"""Coupling forms: block structure, closedness, Pfaffians, shifts."""

import random
from fractions import Fraction as Q

import numpy as np
import pytest
from float_oracles import coupling_nondegenerate_float
from hypothesis import given, settings
from hypothesis import strategies as st

from fatbundles import coupling as cp
from fatbundles import fatness as ft
from fatbundles import liealg as la
from fatbundles.catalog import make_pair, make_subsystem
from fatbundles.errors import DimensionMismatch, OddDimension
from fatbundles.exact import CoordinateSolver, mat, unit_vec, vec


def cp3_instance():
    """so(5) at X_u = J: isotropy u(2), total space the 6-dimensional
    complex projective space."""
    g, emb = make_pair("so", (5,), "so", (4,))
    j = emb.torus_vector((1, 1))
    return g, emb, j, cp.bundle_instance(g, emb, j)


def test_bundle_instance_splitting_dimensions():
    g, emb, j, inst = cp3_instance()
    assert len(inst.v_basis) == 4          # u(2)
    assert len(inst.fiber_basis) == 2      # so(4)/u(2) = S^2 directions
    assert len(inst.m_basis) == 4
    assert inst.isotropy_in_h


def test_x_u_outside_h_is_rejected():
    # X_u in m is outside h, so B(X_u, .) is no covector on h: both the
    # splitting and the centralizer criterion refuse it instead of
    # answering "not fat".
    g, emb = make_pair("so", (5,), "so", (4,))
    x = emb.m_basis[0]
    with pytest.raises(DimensionMismatch):
        cp.bundle_instance(g, emb, x)
    with pytest.raises(DimensionMismatch):
        ft.fat_by_centralizer(emb, x)


def test_coupling_form_full_rank_and_isotropy_check():
    g, emb, j, inst = cp3_instance()
    assert len(ft.isotropy_algebra(g, j)) == len(inst.v_basis)
    form = cp.instance_form(inst)
    assert form.dim == 6
    gf = form.gram_float()
    assert np.linalg.matrix_rank(gf, tol=1e-9) == 6
    # Antisymmetric, zero on the diagonal.
    assert all(form.gram[i][i] == 0 for i in range(6))
    assert all(form.gram[i][k] == -form.gram[k][i]
               for i in range(6) for k in range(6))


def test_form_vanishes_against_isotropy_directions():
    # sigma(v, y) = B(X_u, [v, y]) = 0 for v in the isotropy algebra.
    g, emb, j, inst = cp3_instance()
    rng = random.Random(31)
    for v in inst.v_basis:
        for _ in range(5):
            y = vec(rng.randint(-4, 4) for _ in range(g.dim))
            assert g.killing_form(j, g.bracket(v, y)) == 0


def test_block_structure_report():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    rep = cp.verify_block_structure(inst, form)
    assert rep.cross_block_zero and rep.cross_max_abs == 0.0
    assert rep.fiber_dim == 2 and rep.horizontal_dim == 4
    assert rep.fiber_min_sv > 0 and rep.horizontal_min_sv > 0
    assert rep.horizontal_equals_fatness_gram
    assert rep.fiber_to_horizontal_norm_ratio is not None
    # The fiber block is a nonzero antisymmetric 2x2 (area form of S^2).
    fiber = [[form.gram[0][0], form.gram[0][1]],
             [form.gram[1][0], form.gram[1][1]]]
    assert fiber[0][1] == -fiber[1][0] != 0


def test_block_structure_of_scaled_form():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst).scaled(Q(5, 2))
    rep = cp.verify_block_structure(inst, form)
    assert rep.cross_block_zero
    assert rep.horizontal_equals_fatness_gram


def test_trivial_fiber_when_v_equals_h():
    # A regular torus element of so(4) inside so(4): v = t, fiber = h/t.
    g, emb = make_pair("so", (5,), "u", (2,))
    j = emb.torus_vector((1, 1))
    inst = cp.bundle_instance(g, emb, j)
    # For u(2) the isotropy of J is all of u(2): zero-dimensional fiber.
    assert len(inst.v_basis) == 4
    assert len(inst.fiber_basis) == 0
    form = cp.instance_form(inst)
    rep = cp.verify_block_structure(inst, form)
    assert rep.fiber_dim == 0 and rep.horizontal_dim == 6
    assert rep.horizontal_equals_fatness_gram


def test_ce_closedness_exact_zero():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    assert cp.ce_closedness(g, form) == 0
    zero = cp.InvariantTwoForm(
        g, j, inst.v_basis, inst.n_basis,
        mat([[0] * form.dim for _ in range(form.dim)]))
    assert cp.ce_closedness(g, zero) == 0


def test_ce_closedness_detects_corrupted_normalization():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    f = len(inst.fiber_basis)
    k = form.dim
    bad = [[form.gram[i][j2] * (Q(-1, 2) if i >= f and j2 >= f else 1)
            for j2 in range(k)] for i in range(k)]
    bad_form = cp.InvariantTwoForm(g, j, form.v_basis, form.n_basis, mat(bad))
    assert cp.ce_closedness(g, bad_form) > 0
    # One entry moved by 1, which also breaks antisymmetry.
    moved = [list(row) for row in form.gram]
    moved[0][1] += 1
    moved_form = cp.InvariantTwoForm(g, j, form.v_basis, form.n_basis,
                                     mat(moved))
    assert cp.ce_closedness(g, moved_form) == dense_ce_closedness(
        g, moved_form) > 0


def test_ce_closedness_needs_v_and_n_to_be_a_basis_of_g():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    short = cp.InvariantTwoForm(g, j, form.v_basis, form.n_basis[1:],
                                mat([row[1:] for row in form.gram[1:]]))
    dependent = cp.InvariantTwoForm(g, j, form.v_basis,
                                    form.v_basis[:1] + form.n_basis[1:],
                                    form.gram)
    for bad in (short, dependent):
        with pytest.raises(ValueError, match="v \\+ n does not span g"):
            cp.ce_closedness(g, bad)


def test_nondegenerate_and_top_power():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    min_sv, pf = cp.nondegenerate_and_top_power(form, 3)
    assert min_sv > 0 and pf > 0
    with pytest.raises(OddDimension):
        cp.nondegenerate_and_top_power(form, 2)
    zero = cp.InvariantTwoForm(
        g, j, inst.v_basis, inst.n_basis,
        mat([[0] * form.dim for _ in range(form.dim)]))
    assert cp.nondegenerate_and_top_power(zero, 3) == (0.0, 0.0)


def test_pfaffian_scales_with_half_dim_power():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    _, pf = cp.nondegenerate_and_top_power(form, 3)
    for r in (Q(1, 10), Q(1), Q(10)):
        _, pfr = cp.nondegenerate_and_top_power(form.scaled(r), 3)
        assert pfr == pytest.approx(float(r) ** 3 * pf)
        assert pfr > 0


def shifted_coupling(g, emb, tau, a):
    """The coupling form at the shifted torus vector X_tau + X_a."""
    shifted = tuple(Q(t) + Q(s) for t, s in zip(tau, a, strict=True))
    return cp.instance_form(cp.bundle_instance(g, emb, emb.torus_vector(shifted)))


def test_shifted_coupling_zero_shift_matches():
    g, emb = make_pair("so", (5,), "so", (4,))
    base = cp.instance_form(cp.bundle_instance(g, emb, emb.torus_vector((1, 1))))
    shifted = shifted_coupling(g, emb, (1, 1), (0, 0))
    assert shifted.gram == base.gram
    assert shifted.n_basis == base.n_basis


def test_shifted_coupling_restores_nondegeneracy():
    g, emb = make_pair("so", (5,), "so", (4,))
    # (1, 0) is on a forbidden wall; the (0, 1) shift moves it to (1, 1).
    form = shifted_coupling(g, emb, (1, 0), (0, 1))
    min_sv, pf = cp.nondegenerate_and_top_power(form, form.dim // 2)
    assert pf > 0 and min_sv > 1e-9
    cert = ft.certify(g, emb, emb.torus_vector((1, 1)),
                      subsystem=make_subsystem("so", (5,), "so", (4,)))
    assert cert.fat


def test_shifted_coupling_wall_shift_degenerates():
    g, emb = make_pair("so", (5,), "so", (4,))
    form = shifted_coupling(g, emb, (1, 0), (0, 0))
    gf = form.gram_float()
    sv = np.linalg.svd(gf, compute_uv=False)
    assert sv[-1] < 1e-12
    cert = ft.certify(g, emb, emb.torus_vector((1, 0)),
                      subsystem=make_subsystem("so", (5,), "so", (4,)))
    assert not cert.fat


def test_nondegeneracy_equals_fatness_on_samples():
    g, emb = make_pair("so", (5,), "so", (4,))
    sub = make_subsystem("so", (5,), "so", (4,))
    for tau in ft.sample_rational_vectors(2, 60, seed=33):
        x = emb.torus_vector(tau)
        cert = ft.certify(g, emb, x, subsystem=sub)
        nondeg, _ = coupling_nondegenerate_float(g, emb, x)
        assert nondeg == cert.fat


def test_instance_brackets_preserve_n():
    # [v, n] stays inside n: ad-invariance of the isotropy splitting.
    from fatbundles.exact import CoordinateSolver
    g, emb, j, inst = cp3_instance()
    solver = CoordinateSolver(list(inst.n_basis))
    for v in inst.v_basis:
        for nrow in inst.n_basis:
            assert solver.coords(g.bracket(v, nrow)) is not None


def test_torus_subalgebra_instance():
    # h = block torus of so(5): every root is a forbidden wall, and a
    # regular vector is fat with an 8-dimensional coupling form.
    from fatbundles import rootdata as rd
    g, emb = make_pair("so", (5,), "torus", (2,))
    assert emb.dim_h == 2 and emb.dim_m == 8
    sub = make_subsystem("so", (5,), "torus", (2,))
    assert len(sub.forbidden) == 8 and sub.member_roots == ()
    cert = ft.certify(g, emb, emb.torus_vector((2, 1)), subsystem=sub)
    assert cert.fat
    cert2 = ft.certify(g, emb, emb.torus_vector((1, 1)), subsystem=sub)
    assert not cert2.fat and cert2.witness_root in ((1, -1), (-1, 1))
    form = cp.instance_form(cp.bundle_instance(g, emb, emb.torus_vector((2, 1))))
    assert form.dim == 8
    min_sv, pf = cp.nondegenerate_and_top_power(form, 4)
    assert pf > 0 and min_sv > 0


# -- the structure-constant coupling path against dense references --------

COUPLING_CASES = {
    "so5_so4_fat": (("so", (5,), "so", (4,)), (1, 1)),
    "so5_so4_not_fat": (("so", (5,), "so", (4,)), (1, 0)),
    "so5_u2": (("so", (5,), "u", (2,)), (1, 1)),
    "so41_so4": (("so", (4, 1), "so", (4,)), (1, 1)),
}

RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def coupling_case(name):
    pair, tau = COUPLING_CASES[name]
    g, emb = make_pair(*pair)
    return g, cp.bundle_instance(g, emb, emb.torus_vector(tau))


def dense_ce_closedness(g, form):
    """max |d sigma| over basis triples the direct way: coordinates of every
    unit vector from a CoordinateSolver, and brackets of unit vectors, one
    per pair."""
    solver = CoordinateSolver(list(form.v_basis) + list(form.n_basis))
    nv = len(form.v_basis)
    d = g.dim
    units = [unit_vec(d, a) for a in range(d)]
    coords = [solver.coords(u)[nv:] for u in units]
    k = form.dim
    # sig = C G C^T for the rows C of coordinates, in two products.
    cg = [[sum((ca[i] * form.gram[i][j] for i in range(k) if ca[i]), Q(0))
           for j in range(k)] for ca in coords]
    sig = [[sum((x * cb[j] for j, x in enumerate(row) if x), Q(0))
            for cb in coords] for row in cg]
    # s[i, j][c] = sigma([e_i, e_j], e_c), from one bracket per pair.
    s = {}
    for i in range(d):
        for j in range(i + 1, d):
            br = g.bracket(units[i], units[j])
            s[i, j] = [sum((x * sig[a][c] for a, x in enumerate(br) if x),
                           Q(0)) for c in range(d)]
            s[j, i] = [-v for v in s[i, j]]
    worst = Q(0)
    for i in range(d):
        for j in range(i + 1, d):
            for kk in range(j + 1, d):
                r = s[i, j][kk] + s[j, kk][i] + s[kk, i][j]
                worst = max(worst, abs(r))
    return worst


def test_not_fat_case_has_isotropy_outside_h():
    assert not coupling_case("so5_so4_not_fat")[1].isotropy_in_h
    assert coupling_case("so5_so4_fat")[1].isotropy_in_h


@pytest.mark.parametrize("name", sorted(COUPLING_CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_ce_closedness_matches_dense_reference(name, data):
    g, inst = coupling_case(name)
    k = len(inst.n_basis)
    upper = data.draw(st.lists(RATIONALS, min_size=k * (k - 1) // 2,
                               max_size=k * (k - 1) // 2))
    entries = iter(upper)
    gram = [[Q(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            gram[i][j] = next(entries)
            gram[j][i] = -gram[i][j]
    form = cp.InvariantTwoForm(g, inst.x_u, inst.v_basis, inst.n_basis,
                               mat(gram))
    assert cp.ce_closedness(g, form) == dense_ce_closedness(g, form)


@pytest.mark.parametrize("name", sorted(COUPLING_CASES))
def test_instance_form_is_closed_and_matches_dense_reference(name):
    g, inst = coupling_case(name)
    form = cp.instance_form(inst)
    assert cp.ce_closedness(g, form) == dense_ce_closedness(g, form) == 0


@pytest.mark.parametrize("name", sorted(COUPLING_CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_orbit_gram_is_the_killing_pairing_of_brackets(name, data):
    g, inst = coupling_case(name)
    extra = data.draw(st.lists(st.lists(RATIONALS, min_size=g.dim,
                                        max_size=g.dim).map(vec),
                               max_size=3))
    rows = inst.n_basis + tuple(extra)
    gram = cp._orbit_gram(g, inst.x_u, rows)
    assert gram == tuple(
        tuple(g.killing_form(inst.x_u, g.bracket(a, b)) for b in rows)
        for a in rows)


@pytest.mark.parametrize("name", sorted(COUPLING_CASES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_ce_closedness_of_one_moved_entry_matches_dense_reference(name, data):
    # One entry moved by +-1 breaks antisymmetry as well, so no part of the
    # sigma table may be read off another.
    g, inst = coupling_case(name)
    form = cp.instance_form(inst)
    k = form.dim
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    gram = [list(row) for row in form.gram]
    gram[i][j] += data.draw(st.sampled_from([-1, 1]))
    bad = cp.InvariantTwoForm(g, inst.x_u, inst.v_basis, inst.n_basis,
                              mat(gram))
    assert cp.ce_closedness(g, bad) == dense_ce_closedness(g, bad)

