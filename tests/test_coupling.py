"""Coupling forms: block structure, closedness, Pfaffians, shifts."""

import random
from dataclasses import replace
from fractions import Fraction as Q

import numpy as np
import pytest
from float_oracles import block_report_float, coupling_nondegenerate_float, gram_float, min_sv_float
from fraction_oracles import ad_on, coords, dot, identity, unit_vec, vec_mat
from fraction_oracles import nullspace as reference_nullspace
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rootdata import BENCH

from fatbundles import coupling as cp
from fatbundles import fatness as ft
from fatbundles import liealg as la
from fatbundles.catalog import make_pair, make_subsystem
from fatbundles.errors import DimensionMismatch, OddDimension
from fatbundles.exact import (
    CoordinateSolver,
    dense_vec,
    sparse_combination,
    sparse_ints,
    sparse_vec,
    vec,
)


def dense(rows, n):
    """Sparse rows as Fraction vectors of length n."""
    return tuple(dense_vec(r, n) for r in rows)


def dense_gram(form):
    """A form's Gram as Fraction rows."""
    return tuple(tuple(Q(row.get(j, 0), form.den) for j in range(form.dim))
                 for row in form.gram)


def form_over(inst, gram):
    """The form over inst's n rows whose Gram is the given Fraction rows."""
    return cp.InvariantTwoForm(inst, *sparse_ints([sparse_vec(row) for row in gram]))


def cp3_instance():
    """so(5) at X_u = J: isotropy u(2), total space the 6-dimensional
    complex projective space."""
    g, emb = make_pair("so", (5,), "so", (4,))
    j = emb.torus_vector((1, 1))
    return g, emb, j, cp.bundle_instance(g, emb, j)


def test_bundle_instance_splitting_dimensions():
    g, emb, j, inst = cp3_instance()
    assert len(inst.v_sparse) == 4         # u(2)
    assert len(inst.fiber_sparse) == 2     # so(4)/u(2) = S^2 directions
    assert inst.n_sparse[2:] == emb.m_sparse and len(emb.m_sparse) == 4
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
    assert len(ft.isotropy_algebra(g, j)) == len(inst.v_sparse)
    form = cp.instance_form(inst)
    assert form.dim == 6
    gf = gram_float(form)
    assert np.linalg.matrix_rank(gf, tol=1e-9) == 6
    # Antisymmetric, zero on the diagonal, and no zero stored.
    gram = dense_gram(form)
    assert all(gram[i][i] == 0 for i in range(6))
    assert all(gram[i][k] == -gram[k][i] for i in range(6) for k in range(6))
    assert all(all(row.values()) for row in form.gram)


def test_form_vanishes_against_isotropy_directions():
    # sigma(v, y) = B(X_u, [v, y]) = 0 for v in the isotropy algebra.
    g, emb, j, inst = cp3_instance()
    rng = random.Random(31)
    for v in dense(inst.v_sparse, g.dim):
        for _ in range(5):
            y = vec(rng.randint(-4, 4) for _ in range(g.dim))
            assert dot(j, g.covector(g.bracket(v, y))) == 0


def test_block_structure_report():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    rep = cp.verify_block_structure(form)
    assert rep.cross_block_zero and rep.cross_max_abs == 0.0
    assert rep.fiber_dim == 2 and rep.horizontal_dim == 4
    assert rep.fiber_min_sv > 0 and rep.horizontal_min_sv > 0
    assert rep.horizontal_equals_fatness_gram
    assert rep.fiber_to_horizontal_norm_ratio is not None
    # The fiber block is a nonzero antisymmetric 2x2 (area form of S^2),
    # and the horizontal block is the fatness Gram.
    gram = dense_gram(form)
    assert gram[0][0] == gram[1][1] == 0 and gram[0][1] == -gram[1][0] != 0
    assert tuple(row[2:] for row in gram[2:]) == ft.fatness_gram(emb, j)


def test_block_report_sees_a_moved_entry():
    # A cross entry, or an m entry off the fatness Gram, is a failed check.
    g, emb, j, inst = cp3_instance()
    gram = [list(row) for row in dense_gram(cp.instance_form(inst))]
    for (i, k), ok in (((0, 2), (False, True)), ((2, 3), (True, False)),
                       ((2, 4), (True, False))):
        moved = [list(row) for row in gram]
        moved[i][k] += 1
        rep = cp.verify_block_structure(form_over(inst, moved))
        assert (rep.cross_block_zero, rep.horizontal_equals_fatness_gram) == ok


def test_block_structure_of_scaled_form():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst).scaled(Q(5, 2))
    rep = cp.verify_block_structure(form)
    assert rep.cross_block_zero
    assert rep.horizontal_equals_fatness_gram


@pytest.mark.parametrize("r", [0, Q(-5, 2)])
def test_scaling_by_zero_or_a_negative_keeps_the_block_structure(r):
    # The scaled rows store no zero, so the cross block is read off their
    # keys and the horizontal block compared entry by entry.
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    scaled = form.scaled(r)
    assert scaled.scale == r and all(all(row.values()) for row in scaled.gram)
    assert dense_gram(scaled) == tuple(tuple(r * x for x in row) for row in dense_gram(form))
    assert scaled.gram_det == r ** 6 * form.gram_det
    rep = cp.verify_block_structure(scaled)
    assert rep.cross_block_zero and rep.cross_max_abs == 0.0
    assert rep.horizontal_equals_fatness_gram
    assert cp.ce_closedness(scaled) == 0
    # The same Gram at scale 1 is not the fatness Gram unless r is 1.
    assert not cp.verify_block_structure(cp.InvariantTwoForm(
        inst, scaled.gram, scaled.den)).horizontal_equals_fatness_gram


def test_trivial_fiber_when_v_equals_h():
    # A regular torus element of so(4) inside so(4): v = t, fiber = h/t.
    g, emb = make_pair("so", (5,), "u", (2,))
    j = emb.torus_vector((1, 1))
    inst = cp.bundle_instance(g, emb, j)
    # For u(2) the isotropy of J is all of u(2): zero-dimensional fiber.
    assert len(inst.v_sparse) == 4
    assert len(inst.fiber_sparse) == 0
    form = cp.instance_form(inst)
    rep = cp.verify_block_structure(form)
    assert rep.fiber_dim == 0 and rep.horizontal_dim == 6
    assert rep.horizontal_equals_fatness_gram


def test_ce_closedness_exact_zero():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    assert cp.ce_closedness(form) == 0
    zero = cp.InvariantTwoForm(inst, [{} for _ in range(form.dim)], 1)
    assert cp.ce_closedness(zero) == 0


def test_ce_closedness_detects_corrupted_normalization():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    f = len(inst.fiber_sparse)
    k = form.dim
    gram = dense_gram(form)
    bad = [[gram[i][j2] * (Q(-1, 2) if i >= f and j2 >= f else 1)
            for j2 in range(k)] for i in range(k)]
    assert cp.ce_closedness(form_over(inst, bad)) > 0
    # One entry moved by 1, which also breaks antisymmetry.
    moved = [list(row) for row in gram]
    moved[0][1] += 1
    assert cp.ce_closedness(form_over(inst, moved)) == dense_ce_closedness(inst, moved) > 0


def test_ce_closedness_needs_v_and_n_to_be_a_basis_of_g():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    gram = dense_gram(form)
    short = form_over(replace(inst, fiber_sparse=inst.fiber_sparse[1:]),
                      [row[1:] for row in gram[1:]])
    dependent = cp.InvariantTwoForm(
        replace(inst, fiber_sparse=inst.v_sparse[:1] + inst.fiber_sparse[1:]),
        form.gram, form.den)
    # v + n rows in number dim g, independent, but one with an index past
    # dim g: not vectors of g.
    long = cp.InvariantTwoForm(
        replace(inst, v_sparse=[{**inst.v_sparse[0], g.dim: 1}, *inst.v_sparse[1:]]),
        form.gram, form.den)
    for bad in (short, dependent, long):
        with pytest.raises(ValueError, match="v \\+ n does not span g"):
            cp.ce_closedness(bad)


def test_nondegenerate_and_top_power():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    min_sv, pf = cp.nondegenerate_and_top_power(form)
    assert min_sv > 0 and pf > 0
    # The form on the first five of its six rows has odd dimension.
    odd = cp.InvariantTwoForm(inst, [{j: x for j, x in row.items() if j < 5}
                                     for row in form.gram[:5]], form.den)
    with pytest.raises(OddDimension, match="form dimension 5 is odd"):
        cp.nondegenerate_and_top_power(odd)
    zero = cp.InvariantTwoForm(inst, [{} for _ in range(form.dim)], 7)
    assert cp.nondegenerate_and_top_power(zero) == (0.0, 0.0)
    empty = cp.InvariantTwoForm(inst, [], 1)
    assert cp.nondegenerate_and_top_power(empty) == (float("inf"), 1.0)


def test_gram_det_rejects_non_square_gram():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    # A key at k = dim: a column past the k rows.
    bad = cp.InvariantTwoForm(inst, [*form.gram[:-1], {form.dim: 1}], form.den)
    with pytest.raises(ValueError, match="square"):
        bad.gram_det


def test_pfaffian_scales_with_half_dim_power():
    g, emb, j, inst = cp3_instance()
    form = cp.instance_form(inst)
    _, pf = cp.nondegenerate_and_top_power(form)
    for r in (Q(1, 10), Q(1), Q(10)):
        _, pfr = cp.nondegenerate_and_top_power(form.scaled(r))
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
    assert (shifted.gram, shifted.den) == (base.gram, base.den)
    assert shifted.instance.n_sparse == base.instance.n_sparse


def test_shifted_coupling_restores_nondegeneracy():
    g, emb = make_pair("so", (5,), "so", (4,))
    # (1, 0) is on a forbidden wall; the (0, 1) shift moves it to (1, 1).
    form = shifted_coupling(g, emb, (1, 0), (0, 1))
    min_sv, pf = cp.nondegenerate_and_top_power(form)
    assert pf > 0 and min_sv > 1e-9
    cert = ft.certify(g, emb, emb.torus_vector((1, 1)),
                      subsystem=make_subsystem("so", (5,), "so", (4,)))
    assert cert.fat


def test_shifted_coupling_wall_shift_degenerates():
    g, emb = make_pair("so", (5,), "so", (4,))
    form = shifted_coupling(g, emb, (1, 0), (0, 0))
    gf = gram_float(form)
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
    g, emb, j, inst = cp3_instance()
    solver = CoordinateSolver(inst.n_sparse)
    for v in dense(inst.v_sparse, g.dim):
        for nrow in dense(inst.n_sparse, g.dim):
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
    min_sv, pf = cp.nondegenerate_and_top_power(form)
    assert pf > 0 and min_sv > 0


def test_rational_structure_constants_give_an_int_gram():
    # so(5) on the basis e_i / (i + 2): its structure constants and orbit
    # pairing are Fractions, and the Gram is still int rows over one den.
    so5, emb = make_pair("so", (5,), "so", (4,))
    g = la.matrix_algebra("so5_scaled", [[[x / (i + 2) for x in row] for row in b]
                                         for i, b in enumerate(so5.basis)])
    inst = cp.bundle_instance(g, la.reductive_split(g, emb.h_sparse), emb.torus_vector((1, 1)))
    form = cp.instance_form(inst)
    assert all(type(x) is int and x for row in form.gram for x in row.values())
    n = dense(inst.n_sparse, g.dim)
    assert dense_gram(form) == tuple(
        tuple(dot(inst.x_u, g.covector(g.bracket(a, b))) for b in n) for a in n)
    rep = cp.verify_block_structure(form)
    assert rep.cross_block_zero and rep.horizontal_equals_fatness_gram
    assert cp.ce_closedness(form) == 0


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


def dense_ce_closedness(inst, gram):
    """max |d sigma| over basis triples the direct way, for a Gram of
    Fraction rows over inst's n rows: coordinates of every unit vector from
    a CoordinateSolver over inst's v + n rows as Fraction vectors, and
    brackets of unit vectors, one per pair."""
    g = inst.g
    d = g.dim
    rows = dense(inst.v_sparse, d) + dense(inst.n_sparse, d)
    solver = CoordinateSolver(map(sparse_vec, rows))
    nv = len(inst.v_sparse)
    units = [unit_vec(d, a) for a in range(d)]
    coords = [solver.coords(u)[nv:] for u in units]
    k = len(gram)
    # sig = C G C^T for the rows C of coordinates, in two products.
    cg = [[sum((ca[i] * gram[i][j] for i in range(k) if ca[i]), Q(0))
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
    k = len(inst.n_sparse)
    upper = data.draw(st.lists(RATIONALS, min_size=k * (k - 1) // 2,
                               max_size=k * (k - 1) // 2))
    entries = iter(upper)
    gram = [[Q(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            gram[i][j] = next(entries)
            gram[j][i] = -gram[i][j]
    assert cp.ce_closedness(form_over(inst, gram)) == dense_ce_closedness(inst, gram)


@pytest.mark.parametrize("name", sorted(COUPLING_CASES))
def test_instance_form_is_closed_and_matches_dense_reference(name):
    g, inst = coupling_case(name)
    form = cp.instance_form(inst)
    assert cp.ce_closedness(form) == dense_ce_closedness(inst, dense_gram(form)) == 0


@pytest.mark.parametrize("name", sorted(COUPLING_CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_orbit_gram_is_the_killing_pairing_of_brackets(name, data):
    g, inst = coupling_case(name)
    extra = data.draw(st.lists(st.lists(RATIONALS, min_size=g.dim,
                                        max_size=g.dim).map(vec),
                               max_size=3))
    rows = dense(inst.n_sparse, g.dim) + tuple(extra)
    gram, den = cp._orbit_gram(g, inst.x_u, [sparse_vec(r) for r in rows])
    assert all(type(x) is int and x for row in gram for x in row.values())
    assert [[Q(row.get(j, 0), den) for j in range(len(rows))] for row in gram] == [
        [dot(inst.x_u, g.covector(g.bracket(a, b))) for b in rows] for a in rows]


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
    gram = [list(row) for row in dense_gram(form)]
    gram[i][j] += data.draw(st.sampled_from([-1, 1]))
    assert cp.ce_closedness(form_over(inst, gram)) == dense_ce_closedness(inst, gram)


# Every pair the coupling and bench runs reach, and so(12) > u(6).
KERNEL_PAIRS = sorted({*(pair for pair, _ in COUPLING_CASES.values()),
                       *(("so", g, t, h) for g, t, h in BENCH.PAIRS.values()),
                       ("so", (12,), "u", (6,))})


@pytest.mark.parametrize("pair", KERNEL_PAIRS, ids=lambda p: "so{}_{}{}".format(
    "_".join(map(str, p[1])), p[2], p[3][0]))
@pytest.mark.parametrize("on_wall", [False, True], ids=["off_walls", "on_wall"])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_isotropy_and_fiber_bases_match_fraction_kernels(pair, on_wall, data):
    # X_u off every wall (nonzero tau_i of distinct |tau_i|), or moved onto
    # a forbidden wall, where v leaves h.  Each basis is a Fraction kernel
    # combined over its rows, compared value by value and in order.
    g, emb = make_pair(*pair)
    r = len(emb.torus_basis)
    tau = data.draw(st.lists(RATIONALS.filter(bool), min_size=r, max_size=r, unique_by=abs))
    if on_wall:
        root = data.draw(st.sampled_from(make_subsystem(*pair).forbidden))
        i = next(i for i, a in enumerate(root) if a)
        tau[i] -= sum(a * t for a, t in zip(root, tau)) / root[i]
    x = emb.torus_vector(tau)

    def kernel(m, rows):
        return tuple(vec_mat(c, rows) for c in reference_nullspace(m))
    assert ft.isotropy_algebra(g, x) == kernel(ad_on(g, x, identity(g.dim)), identity(g.dim))
    inst = cp.bundle_instance(g, emb, x)
    v = kernel(ad_on(g, x, emb.h_basis), emb.h_basis)
    assert dense(inst.v_sparse, g.dim) == v
    # h cap n: the elements of h Killing-orthogonal to v.
    kh = [g.covector(b) for b in emb.h_basis]
    pairing = [[dot(a, k) for k in kh] for a in v]
    assert dense(inst.fiber_sparse, g.dim) == (kernel(pairing, emb.h_basis) if v else emb.h_basis)


# -- the report read off per component against dense numpy SVDs ----------

def report_form(name):
    """A coupling form by name: a COUPLING_CASES pair at its tau; so(8) > t4
    and so(12) > u(6) at a regular tau; a generic X_u in h (not in the
    torus) of so(5) > so(4) or so(9) > so(8); or so(5) > so(4)'s form at J
    with a cross entry and its mirror set."""
    if name in COUPLING_CASES:
        return cp.instance_form(coupling_case(name)[1])
    if name == "cross":
        inst = cp3_instance()[3]
        gram = [list(row) for row in dense_gram(cp.instance_form(inst))]
        gram[0][3], gram[3][0] = Q(3, 2), Q(-3, 2)
        return form_over(inst, gram)
    pair, tau = {"so8_t4": (("so", (8,), "torus", (4,)), (Q(1, 3), 3, Q(5, 7), 7)),
                 "so12_u6": (("so", (12,), "u", (6,)), (1, 1, 1, 3, 3, 5)),
                 "generic_so5_so4": (("so", (5,), "so", (4,)), None),
                 "generic_so9_so8": (("so", (9,), "so", (8,)), None)}[name]
    g, emb = make_pair(*pair)
    x = emb.torus_vector(tau) if tau else dense_vec(sparse_combination(
        {i: Q(3 * i - 7, i % 4 + 1) for i in range(emb.dim_h)}, emb.h_sparse), g.dim)
    return cp.instance_form(cp.bundle_instance(g, emb, x))


REPORT_FORMS = [*sorted(COUPLING_CASES), "so8_t4", "so12_u6", "generic_so5_so4",
                "generic_so9_so8", "cross"]


@pytest.mark.parametrize("name", REPORT_FORMS)
def test_report_matches_dense_svd_reference(name):
    # Each singular value to 1e-9 relative, or to 1e-12 of its block's
    # largest entry where the block is singular and the SVD leaves noise.
    form = report_form(name)
    rep = cp.verify_block_structure(form)
    gf, f = gram_float(form), rep.fiber_dim
    assert (f, rep.horizontal_dim) == (len(form.instance.fiber_sparse), form.dim - f)
    assert rep.cross_block_zero == (name != "cross")
    got = (rep.cross_max_abs, rep.fiber_min_sv, rep.horizontal_min_sv,
           rep.fiber_to_horizontal_norm_ratio, cp.nondegenerate_and_top_power(form)[0])
    want = (*block_report_float(form), min_sv_float(gf))
    tops = [np.abs(b).max(initial=0) for b in (gf[:f, f:], gf[:f, :f], gf[f:, f:])]
    for a, b, top in zip(got, want, (*tops, 0, np.abs(gf).max(initial=0))):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12 * top)


def test_wall_form_reads_an_exact_zero():
    # tau_1 = tau_2 is a wall of so(8) > t4: the horizontal block and the
    # Gram are singular, and the read-off says 0.0 where numpy's SVD of the
    # dense Gram says about 1e-15.
    g, emb = make_pair("so", (8,), "torus", (4,))
    form = cp.instance_form(cp.bundle_instance(g, emb, emb.torus_vector((1, 1, 5, 7))))
    rep = cp.verify_block_structure(form)
    assert form.gram_det == 0 and rep.horizontal_equals_fatness_gram
    assert rep.horizontal_min_sv == 0.0
    assert cp.nondegenerate_and_top_power(form) == (0.0, 0.0)


@pytest.mark.parametrize("name", [*sorted(COUPLING_CASES), "so8_t4", "so12_u6"])
@pytest.mark.parametrize("r", [1, Q(5, 2), Q(-1, 3)])
def test_horizontal_min_sv_is_the_oracle_margin(name, r):
    # The horizontal block is the fatness Gram times scale, read off the
    # same way: the oracle's min_sv at scale 1, times |scale| to one rounding.
    form = report_form(name)
    inst = form.instance
    rep = cp.verify_block_structure(form.scaled(r))
    assert rep.horizontal_equals_fatness_gram
    oracle = ft.fat_by_oracle(inst.emb, inst.x_u).min_singular_value
    if r == 1:
        assert rep.horizontal_min_sv == oracle
    assert rep.horizontal_min_sv == pytest.approx(oracle * abs(float(r)), rel=1e-15)


def test_spanning_solvers_check_membership_by_keys():
    # The u-block h + m rows and a coupling instance's v + n rows are dim g
    # independent rows of g: a vector is in their span iff its keys are
    # below dim g.  Without their last row they no longer span, and the
    # solve checks the recombination.
    g, emb = make_pair("so", (7,), "u", (3,))
    inst = coupling_case("so5_so4_fat")[1]
    rng = random.Random(32)
    for rows in ([*emb.h_sparse, *emb.m_sparse], [*inst.v_sparse, *inst.n_sparse]):
        d = len(rows)
        dense_rows = dense(rows, d)
        for sub in (rows, rows[:-1]):
            solver = CoordinateSolver(sub)
            assert not solver._disjoint and (sub is not rows or solver._spans == d)
            for _ in range(20):
                v = vec(Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                        for _ in range(d))
                want = coords(dense_rows[:len(sub)], v)
                assert solver.coords(v) == want
                assert (want is None) == (len(sub) < d)
            assert solver.sparse_coords({0: 1, d: 1}) is None
            assert solver.sparse_coords({d + 3: 2}) is None
