"""Root systems, wall tests, coweights and the shift search."""

import functools
import importlib.util
import itertools
import pathlib
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatbundles import liealg as la
from fatbundles import rootdata as rd
from fatbundles.errors import TorusMismatch
from fatbundles.exact import vec
from fatbundles.verdicts import FAT, NOT_FAT


def test_root_counts_match_classical_tables():
    assert len(rd.build_root_system("B", 2).roots) == 8
    assert len(rd.build_root_system("D", 2).roots) == 4
    assert len(rd.build_root_system("A", 1).roots) == 2
    for n in (2, 3, 4, 5):
        assert len(rd.build_root_system("B", n).roots) == 2 * n * n
        assert len(rd.build_root_system("C", n).roots) == 2 * n * n
        assert len(rd.build_root_system("D", n).roots) == 2 * n * (n - 1)
        assert len(rd.build_root_system("A", n).roots) == n * (n + 1)


def test_b2_root_list_explicit():
    rs = rd.build_root_system("B", 2)
    expect = {(1, -1), (-1, 1), (1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1),
              (0, -1)}
    assert set(rs.roots) == expect


def test_roots_closed_under_negation():
    for label, n in (("A", 3), ("B", 4), ("C", 3), ("D", 4)):
        rs = rd.build_root_system(label, n)
        roots = set(rs.roots)
        assert all(tuple(-c for c in r) in roots for r in roots)


def test_simple_root_expansion_sign_coherent():
    # Every root is an integer combination of simple roots, all
    # coefficients of one sign.
    for label, n in (("A", 2), ("B", 3), ("C", 2), ("D", 3)):
        rs = rd.build_root_system(label, n)
        for root in rs.roots:
            c = rd._simple_coefficients(rs, root)
            assert all(x.denominator == 1 for x in c)
            assert all(x >= 0 for x in c) or all(x <= 0 for x in c)


def test_unsupported_type_raises():
    with pytest.raises(ValueError):
        rd.build_root_system("E", 8)
    with pytest.raises(ValueError):
        rd.build_root_system("D", 1)


def detect(g_family, g_params, h_type, h_params):
    from fatbundles.catalog import make_pair
    g, emb = make_pair(g_family, g_params, h_type, h_params)
    return g, emb, rd.detect_subsystem(g, emb, rd.root_system_for(g))


def test_detect_so5_so4():
    _, _, sub = detect("so", (5,), "so", (4,))
    assert set(sub.member_roots) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert set(sub.forbidden) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_detect_so5_u2():
    _, _, sub = detect("so", (5,), "u", (2,))
    assert set(sub.member_roots) == {(1, -1), (-1, 1)}
    assert set(sub.forbidden) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1),
                                  (-1, -1)}


def test_detect_h_equals_g_has_no_forbidden_roots():
    g = la.so(5)
    from fatbundles.exact import unit_vec
    emb = la.reductive_split(
        g, [unit_vec(g.dim, i) for i in range(g.dim)],
        torus_basis=la.block_torus(g, 2))
    sub = rd.detect_subsystem(g, emb, rd.root_system_for(g))
    assert sub.forbidden == ()
    assert set(sub.member_roots) == set(rd.root_system_for(g).roots)


def test_detect_counts_partition_and_match_dim_m():
    for args in (("so", (5,), "so", (4,)), ("so", (7,), "so", (6,)),
                 ("so", (5,), "u", (2,)), ("so", (4, 1), "so", (4,)),
                 ("so", (6, 1), "so", (6,))):
        g, emb, sub = detect(*args)
        assert len(sub.member_roots) + len(sub.forbidden) == \
            len(sub.parent.roots)
        assert len(sub.forbidden) == emb.dim_m


def bench_inputs():
    """The benchmark's input module, which writes the forbidden walls of
    its pairs out by hand."""
    path = pathlib.Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = bench_inputs()


@pytest.mark.parametrize("pair", sorted(BENCH.PAIRS))
def test_detect_matches_the_walls_written_out(pair):
    g_params, h_type, h_params = BENCH.PAIRS[pair]
    _, _, sub = detect("so", g_params, h_type, h_params)
    assert set(sub.forbidden) == BENCH.forbidden_walls(pair)


def test_detect_does_not_depend_on_the_scale_of_the_h_basis():
    # h rows scaled by 1/3 give ad_m tables over the denominator 3, which
    # the integer shifted squares must carry.
    g, emb, sub = detect("so", (7,), "u", (3,))
    third = [[x / 3 for x in row] for row in emb.h_basis]
    scaled = la.reductive_split(g, third, torus_basis=emb.torus_basis)
    assert scaled.ad_m_ints(scaled.torus_basis[0])[1] == 3
    assert rd.detect_subsystem(g, scaled, sub.parent) == sub


def test_detect_rank_mismatch_raises():
    g = la.so(4)
    emb = la.so_block_embedding(g, 3)  # rank-1 torus in a rank-2 algebra
    with pytest.raises(TorusMismatch):
        rd.detect_subsystem(g, emb, rd.root_system_for(g))


def test_detect_torus_outside_h_raises():
    g = la.so(5)
    emb = la.so_block_embedding(g, 4)
    skew = la.reductive_split(g, emb.h_basis, torus_basis=emb.m_basis[:2],
                              check=False)
    with pytest.raises(TorusMismatch):
        rd.detect_subsystem(g, skew, rd.root_system_for(g))


def test_fat_by_roots_examples():
    _, _, sub = detect("so", (5,), "so", (4,))
    assert rd.fat_by_roots((1, 1), sub).status == FAT
    v = rd.fat_by_roots((1, 0), sub)
    assert v.status == NOT_FAT and v.witness_root in ((0, 1), (0, -1))
    assert rd.fat_by_roots((1, -1), sub).status == FAT
    # Against the u(2) walls, (1, -1) lands on the forbidden t1 + t2.
    _, _, sub_u = detect("so", (5,), "u", (2,))
    v2 = rd.fat_by_roots((1, -1), sub_u)
    assert v2.status == NOT_FAT and v2.witness_root in ((1, 1), (-1, -1))
    assert rd.fat_by_roots((2, 1), sub_u).status == FAT
    # With every root forbidden, the four values 2, 1, 3, 1 are nonzero.
    rs = rd.build_root_system("B", 2)
    torus_sub = rd.subsystem_from_members(rs, [])
    vals = {abs(rd.root_eval(r, (2, 1))) for r in torus_sub.forbidden}
    assert vals == {1, 2, 3}
    assert rd.fat_by_roots((2, 1), torus_sub).status == FAT


def test_fat_by_roots_scaling_invariance():
    _, _, sub = detect("so", (5,), "so", (4,))
    rng = random.Random(11)
    for _ in range(50):
        x = (Q(rng.randint(-6, 6), rng.choice((1, 2, 3))),
             Q(rng.randint(-6, 6), rng.choice((1, 2, 3))))
        r = Q(rng.randint(1, 9), rng.choice((1, 2)))
        for scale in (r, -r):
            scaled = tuple(scale * c for c in x)
            assert rd.fat_by_roots(x, sub).status == \
                rd.fat_by_roots(scaled, sub).status


def test_fat_by_roots_weyl_symmetry():
    # Signed permutations with an even number of sign flips fix the
    # D_n sub-system of B_n and preserve verdicts.
    _, _, sub = detect("so", (7,), "so", (6,))
    rng = random.Random(12)
    perms = list(itertools.permutations(range(3)))
    for _ in range(60):
        x = vec(Q(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(3))
        perm = perms[rng.randrange(len(perms))]
        signs = [rng.choice((1, -1)) for _ in range(3)]
        if signs[0] * signs[1] * signs[2] < 0:
            signs[0] *= -1
        y = tuple(signs[i] * x[perm[i]] for i in range(3))
        assert rd.fat_by_roots(x, sub).status == rd.fat_by_roots(y, sub).status


# Rationals p/q * 10^e with |e| up to 40, zero included: mixed
# denominators and signs.
WALL_ENTRIES = st.builds(lambda p, q, e: Q(p, q) * Q(10) ** e,
                         st.integers(-99, 99), st.integers(1, 99),
                         st.integers(-40, 40))

def all_forbidden(type_label, rank):
    return rd.subsystem_from_members(rd.build_root_system(type_label, rank),
                                     [])


WALL_SUBSYSTEMS = {
    "so5_so4": lambda: detect("so", (5,), "so", (4,))[2],
    "so7_so6": lambda: detect("so", (7,), "so", (6,))[2],
    "so5_u2": lambda: detect("so", (5,), "u", (2,))[2],
    "so41_so4": lambda: detect("so", (4, 1), "so", (4,))[2],
    "so61_so6": lambda: detect("so", (6, 1), "so", (6,))[2],
    "b3_all": lambda: all_forbidden("B", 3),
    "a2_all": lambda: all_forbidden("A", 2),
}


def walls_reference(tau, sub):
    """(status, witness_root) from root_eval on every forbidden root."""
    on_wall = [r for r in sub.forbidden if rd.root_eval(r, tau) == 0]
    return (NOT_FAT, on_wall[0]) if on_wall else (FAT, None)


def as_input(data, x):
    """x as one of the forms vec accepts: an int, a Fraction or "p/q"."""
    kinds = ["fraction", "string"] + (["int"] if x.denominator == 1 else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "int":
        return int(x)
    return f"{x.numerator}/{x.denominator}" if kind == "string" else x


@functools.cache
def wall_subsystem(name):
    return WALL_SUBSYSTEMS[name]()


@pytest.mark.parametrize("name", sorted(WALL_SUBSYSTEMS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_integer_walls_match_fraction_root_evaluation(name, data):
    sub = wall_subsystem(name)
    n = sub.parent.coord_dim
    tau = data.draw(st.lists(WALL_ENTRIES, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        # Move tau onto the wall of a forbidden root.
        root = data.draw(st.sampled_from(sub.forbidden))
        i = next(k for k, a in enumerate(root) if a)
        tau[i] -= rd.root_eval(root, tau) / root[i]
        assert rd.root_eval(root, tau) == 0
    v = rd.fat_by_roots([as_input(data, x) for x in tau], sub)
    assert (v.status, v.witness_root) == walls_reference(tau, sub)


def test_fundamental_coweights_duality():
    for label, n in (("A", 2), ("B", 2), ("C", 3), ("D", 3)):
        rs = rd.build_root_system(label, n)
        ws = rd.fundamental_coweights(rs)
        for i, w in enumerate(ws):
            for j, s in enumerate(rs.simple_roots):
                assert rd.root_eval(s, w) == (1 if i == j else 0)


def test_centralizing_vector_a2():
    rs = rd.build_root_system("A", 2)
    x = rd.find_centralizing_vector(rs, [rs.simple_roots[0]])
    a1, a2 = rs.simple_roots
    assert rd.root_eval(a1, x) == 0
    assert rd.root_eval(a2, x) == 1
    assert rd.root_eval(tuple(p + q for p, q in zip(a1, a2)), x) == 1


def test_centralizing_vector_b2_matches_j():
    rs = rd.build_root_system("B", 2)
    x = rd.find_centralizing_vector(rs, [(1, -1)])
    # Proportional to (1, 1).
    assert x[0] == x[1] != 0


def test_centralizing_vector_empty_subset_is_regular():
    rs = rd.build_root_system("D", 3)
    x = rd.find_centralizing_vector(rs, [])
    assert all(rd.root_eval(r, x) != 0 for r in rs.roots)


def test_centralizing_vector_zero_nonzero_split():
    for label, n, subset_size in (("A", 3, 2), ("B", 3, 1), ("D", 4, 2)):
        rs = rd.build_root_system(label, n)
        subset = rs.simple_roots[:subset_size]
        x = rd.find_centralizing_vector(rs, subset)
        inside = set(rd.span_subsystem(rs, subset))
        for r in rs.roots:
            assert (rd.root_eval(r, x) == 0) == (r in inside)
            # Exact positivity on positive roots outside the sub-system.
            coeffs = rd._simple_coefficients(rs, r)
            if all(c >= 0 for c in coeffs) and r not in inside:
                assert rd.root_eval(r, x) > 0


def test_find_fat_shift_unit_square():
    rs = rd.build_root_system("B", 2)
    sub = rd.subsystem_from_members(rs, [])
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    a = rd.find_fat_shift(square, sub)
    assert a is not None
    assert rd.verify_shift(square, sub, a)
    # The shift (3, 1) is one known witness; the verifier must accept it.
    assert rd.verify_shift(square, sub, (3, 1))
    # Ranges under (3, 1): t1 in [3,4], t2 in [1,2], t1-t2 in [1,3],
    # t1+t2 in [4,6].
    for root, lo, hi in (((1, 0), 3, 4), ((0, 1), 1, 2), ((1, -1), 1, 3),
                         ((1, 1), 4, 6)):
        vals = [rd.root_eval(root, (v[0] + 3, v[1] + 1)) for v in square]
        assert min(vals) == lo and max(vals) == hi


def test_find_fat_shift_single_point():
    rs = rd.build_root_system("B", 2)
    sub = rd.subsystem_from_members(
        rs, [r for r in rs.roots if r not in ((1, 0), (-1, 0))])
    assert set(sub.forbidden) == {(1, 0), (-1, 0)}
    a = rd.find_fat_shift([(0, 0)], sub)
    assert a is not None and rd.verify_shift([(0, 0)], sub, a)
    assert rd.verify_shift([(0, 0)], sub, (1, 0))


def test_find_fat_shift_segment_along_wall():
    # The segment direction lies in the wall t1 - t2 = 0, but translation
    # moves the constant value off zero.
    rs = rd.build_root_system("B", 2)
    sub = rd.SubSystem(rs,
                       tuple(r for r in rs.roots if r not in ((1, -1), (-1, 1))),
                       ((1, -1), (-1, 1)))
    seg = [(-1, -1), (1, 1)]
    a = rd.find_fat_shift(seg, sub)
    assert a is not None and rd.verify_shift(seg, sub, a)
    assert rd.verify_shift(seg, sub, (1, 0))


def test_find_fat_shift_infeasible_returns_none():
    # A degenerate forbidden direction can never be sign-definite: the
    # zero functional is translation invariant.
    rs = rd.build_root_system("B", 2)
    bad = rd.SubSystem(rs, rs.roots, ((0, 0),))
    assert rd.find_fat_shift([(0, 0), (1, 0)], bad) is None


def test_find_fat_shift_empty_vertices_rejected():
    rs = rd.build_root_system("B", 2)
    sub = rd.subsystem_from_members(rs, [])
    with pytest.raises(ValueError):
        rd.find_fat_shift([], sub)


def test_shift_search_is_deterministic():
    rs = rd.build_root_system("B", 2)
    sub = rd.subsystem_from_members(rs, [])
    rng = random.Random(13)
    for _ in range(10):
        verts = [(Q(rng.randint(-4, 4), rng.choice((1, 2))),
                  Q(rng.randint(-4, 4), rng.choice((1, 2))))
                 for _ in range(rng.randint(1, 5))]
        a1 = rd.find_fat_shift(verts, sub)
        a2 = rd.find_fat_shift(verts, sub)
        assert a1 == a2
        assert a1 is not None and rd.verify_shift(verts, sub, a1)
