"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here, not configured elsewhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines alongside the test ids.
"""

import filecmp
import os
import time
from fractions import Fraction as Q

import numpy as np
from float_oracles import coupling_nondegenerate_float
from fraction_oracles import unit_vec

from fatbundles import coupling as cp
from fatbundles import curvature as cv
from fatbundles import duality as du
from fatbundles import fatness as ft
from fatbundles import liealg as la
from fatbundles import rootdata as rd
from fatbundles.catalog import make_pair, make_subsystem
from fatbundles.cli import main as cli_main


def report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


TRIPLE_INSTANCES = (
    ("so", (5,), "so", (4,)),
    ("so", (7,), "so", (6,)),
    ("so", (5,), "u", (2,)),
    ("so", (4, 1), "so", (4,)),
    ("so", (6, 1), "so", (6,)),
)


def test_criterion_1_triple_equivalence_200_samples_under_30s():
    start = time.monotonic()
    checked = 0
    for g_fam, g_par, h_type, h_par in TRIPLE_INSTANCES:
        g, emb = make_pair(g_fam, g_par, h_type, h_par)
        sub = make_subsystem(g_fam, g_par, h_type, h_par)
        rank = len(emb.torus_basis)
        for tau in ft.sample_rational_vectors(rank, 200, seed=101):
            # certify raises CriteriaDisagree on any verdict mismatch.
            cert = ft.certify(g, emb, emb.torus_vector(tau), subsystem=sub)
            assert cert.agreed
            assert cert.verdict_roots == cert.verdict_oracle \
                == cert.verdict_centralizer
            checked += 1
    elapsed = time.monotonic() - start
    report(checked == 1000 and elapsed < 30.0,
           f"criterion 1: triple equivalence, {checked} certificates, "
           f"zero exceptions, {elapsed:.1f}s < 30s")


def test_criterion_2_block_diagonal_j_fat_for_all_n():
    ok = True
    for n in (2, 3, 4, 5):
        for params in ((2 * n + 1,), (2 * n, 1)):
            g, emb = make_pair("so", params, "so", (2 * n,))
            sub = make_subsystem("so", params, "so", (2 * n,))
            walls = {tuple(r) for r in sub.forbidden}
            expect = set()
            for i in range(n):
                e = [0] * n
                e[i] = 1
                expect.add(tuple(e))
                e[i] = -1
                expect.add(tuple(e))
            ok &= walls == expect
            cert = ft.certify(g, emb, emb.torus_vector((1,) * n),
                              subsystem=sub)
            ok &= cert.fat and cert.verdict_roots == "fat"
    report(ok, "criterion 2: J = (1,...,1) fat for D_n in B_n, compact and "
               "noncompact, n = 2..5, forbidden walls exactly {±t_i}")


def test_criterion_3_equal_rank_obstruction_all_not_fat():
    g, emb = make_pair("so", (4,), "so", (3,))
    assert emb.dim_m == 3
    n_not_fat = 0
    samples = 0
    for tau in ft.sample_rational_vectors(1, 60, seed=102):
        cert = ft.certify(g, emb, emb.torus_vector(tau))
        n_not_fat += not cert.fat
        samples += 1
    rng_vectors = ft.sample_rational_vectors(emb.dim_h, 60, seed=103)
    for coeffs in rng_vectors:
        x = [Q(0)] * g.dim
        for c, row in zip(coeffs, emb.h_basis):
            for k, v in enumerate(row):
                x[k] += c * v
        cert = ft.certify(g, emb, tuple(x))
        n_not_fat += not cert.fat
        samples += 1
    report(n_not_fat == samples == 120,
           f"criterion 3: so(4)/so(3) odd-dimensional m, "
           f"{n_not_fat}/{samples} samples not fat")


def test_criterion_4_pinched_twistor_margins_and_closed_form():
    ok = True
    worst_slack = float("inf")
    for n in (2, 3):
        eps = 0.9 * 3 / (2 * n + 1)
        bound = 1 - (2 * n + 1) * eps / 3
        for sign in ("+", "-"):
            for seed in range(20):
                tensor = cv.random_pinched(n, eps, sign, seed)
                rep = cv.twistor_fatness(tensor, num_frames=100, seed=seed)
                ok &= rep.fat
                ok &= rep.min_diag_margin >= bound - 1e-9
                ok &= rep.min_singular_value > 0
                worst_slack = min(worst_slack, rep.min_diag_margin - bound)
    for n in (2, 3):
        for kappa in (1.0, -1.0, 0.75):
            t = cv.constant_curvature(n, kappa)
            oracle = 2 * kappa * cv.standard_complex_structure(n).T
            resid = np.abs(cv.twistor_form(t.R, np.eye(2 * n)[None])[0]
                           - oracle).max()
            ok &= resid <= 1e-12
    report(ok, f"criterion 4: 80 pinched tensors x 100 frames nondegenerate "
               f"with margin slack {worst_slack:.3f} over 1-(2n+1)eps/3; "
               f"constant-curvature closed form to 1e-12")


def test_criterion_5_coupling_nondegeneracy_iff_fat():
    instances = list(TRIPLE_INSTANCES) + [("so", (4,), "so", (3,))]
    checked = 0
    ok = True
    for g_fam, g_par, h_type, h_par in instances:
        g, emb = make_pair(g_fam, g_par, h_type, h_par)
        sub = None
        if (g_fam, g_par, h_type, h_par) in TRIPLE_INSTANCES:
            sub = make_subsystem(g_fam, g_par, h_type, h_par)
        rank = len(emb.torus_basis)
        for tau in ft.sample_rational_vectors(rank, 100, seed=104):
            x = emb.torus_vector(tau)
            cert = ft.certify(g, emb, x, subsystem=sub)
            nondeg, _ = coupling_nondegenerate_float(g, emb, x)
            ok &= nondeg == cert.fat
            checked += 1
    # Exact closedness of the orbit coupling form at the named covectors.
    residuals = []
    for g_fam, g_par, h_type, h_par in (("so", (5,), "so", (4,)),
                                        ("so", (5,), "u", (2,)),
                                        ("so", (4, 1), "so", (4,))):
        g, emb = make_pair(g_fam, g_par, h_type, h_par)
        rank = len(emb.torus_basis)
        form = cp.instance_form(
            cp.bundle_instance(g, emb, emb.torus_vector((1,) * rank)))
        residuals.append(cp.ce_closedness(g, form))
    ok &= all(r == 0 for r in residuals)
    report(ok, f"criterion 5: coupling nondegeneracy == fatness verdict on "
               f"{checked} samples; closedness residuals exactly 0")


def test_criterion_6_scaling_family_pfaffian():
    g, emb = make_pair("so", (5,), "u", (2,))
    j = emb.torus_vector((1, 1))
    form = cp.instance_form(cp.bundle_instance(g, emb, j))
    verdicts = []
    ok = True
    for r in (Q(1, 10), Q(1), Q(10)):
        scaled = form.scaled(r)
        min_sv, pf = cp.nondegenerate_and_top_power(scaled, 3)
        verdicts.append(pf > 0 and min_sv > 1e-9)
        ok &= pf > 0
    ok &= verdicts == [True, True, True]
    report(ok, "criterion 6: r-scaled so(5)/u(2) forms for r in "
               "{1/10, 1, 10} all have nonzero Pfaffian, identical verdicts")


def test_criterion_7_duality_agreement_200_samples():
    ok = True
    for n in (2, 3):
        g = la.build_algebra("so", (2 * n, 1))
        pair = du.dualize(g, du.standard_involution(g))
        h_rows = [unit_vec(g.dim, i) for i in range(n * (2 * n - 1))]
        torus = la.torus_embedding(g, n).torus_basis
        emb_nc, emb_c = du.pair_embeddings(pair, h_rows, torus)
        subs = du.dual_subsystems(pair, emb_nc, emb_c, rd.root_system_for(g))
        rep = du.compare_fat_sets(pair, emb_nc, emb_c, subs, samples=200,
                                  seed=105 + n)
        ok &= rep.total == 200 and rep.agreement_fraction == 1.0
    report(ok, "criterion 7: so(2n,1)/so(2n) vs so(2n+1)/so(2n), n in {2,3}, "
               "200 shared samples each, verdict agreement 100%")


def test_criterion_8_shift_search():
    rs = rd.build_root_system("B", 2)
    all_forbidden = rd.subsystem_from_members(rs, [])
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    shift = rd.find_fat_shift(square, all_forbidden)
    ok = shift is not None and rd.verify_shift(square, all_forbidden, shift)
    ok = ok and len(all_forbidden.forbidden) == 8
    # Constructed infeasible input: a degenerate (zero) forbidden
    # direction is translation invariant, so no shift can work.
    infeasible = rd.SubSystem(rs, rs.roots, ((0, 0),))
    ok = ok and rd.find_fat_shift(square, infeasible) is None
    report(ok, f"criterion 8: unit-square shift {shift} verified strictly "
               f"sign-definite on all 8 forbidden walls; infeasible "
               f"example returns none")


def test_criterion_9_centralizing_vectors():
    a2 = rd.build_root_system("A", 2)
    b2 = rd.build_root_system("B", 2)
    d3 = rd.build_root_system("D", 3)
    cases = [
        (a2, [a2.simple_roots[0]]),
        (b2, [(1, -1)]),
        (d3, []),
    ]
    ok = True
    for rs, subset in cases:
        x = rd.find_centralizing_vector(rs, subset)
        inside = set(rd.span_subsystem(rs, subset))
        for r in rs.roots:
            ok &= (rd.root_eval(r, x) == 0) == (r in inside)
    report(ok, "criterion 9: centralizing vectors for (A2, {a1}), "
               "(B2, {t1-t2}), (D3, {}) pass the exact zero/nonzero check")


def test_criterion_10_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["run", "paper_examples", "--out", str(out1)]) == 0
    assert cli_main(["run", "paper_examples", "--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    ok = names == sorted(os.listdir(out2)) and len(names) == 5
    for name in names:
        ok &= filecmp.cmp(out1 / name, out2 / name, shallow=False)
    report(ok, "criterion 10: rerunning the builtin catalog produces "
               "byte-identical certificates")
