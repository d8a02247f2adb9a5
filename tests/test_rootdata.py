"""Root systems, wall tests, coweights and the shift search."""

import functools
import importlib.util
import itertools
import pathlib
import random
from fractions import Fraction as Q

import fraction_oracles as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatbundles import liealg as la
from fatbundles import rootdata as rd
from fatbundles.errors import DimensionMismatch, NotCompact, TorusMismatch
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
        coweights = rd.fundamental_coweights(rs)
        for root in rs.roots:
            c = [rd.root_eval(root, w) for w in coweights]
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
        torus_basis=la.torus_embedding(g, 2).torus_basis)
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
    # the integer shifted squares must carry.  A generic X_u in h, off the
    # torus, reads the h table: the sum of the h rows, h-coordinates all 1.
    g, emb, sub = detect("so", (7,), "u", (3,))
    third = [[x / 3 for x in row] for row in emb.h_basis]
    scaled = la.reductive_split(g, third, torus_basis=emb.torus_basis)
    generic = tuple(map(sum, zip(*scaled.h_basis)))
    assert scaled.torus_coords(generic) is None
    assert scaled.ad_m_entries(generic)[1] == 3
    assert rd.detect_subsystem(g, scaled, sub.parent) == sub


def test_detect_rank_mismatch_raises():
    g = la.so(4)
    emb = la.so_block_embedding(g, 3)  # rank-1 torus in a rank-2 algebra
    with pytest.raises(TorusMismatch):
        rd.detect_subsystem(g, emb, rd.root_system_for(g))


@pytest.mark.parametrize("n", [11, 4])
def test_detect_without_a_torus_raises_not_compact(n):
    # No torus is searched for: the root test needs the block torus.
    g = la.so(n)
    emb = la.so_block_embedding(g, n - 1)
    bare = la.reductive_split(g, emb.h_basis, name=emb.name)
    message = rf"^so\({n - 1}\)<so\({n}\): embedding carries no torus$"
    with pytest.raises(NotCompact, match=message):
        rd.detect_subsystem(g, bare, rd.root_system_for(g))


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


@pytest.mark.parametrize("x, length", [((1,), 1), ((1, 1, 0), 3)], ids=["short", "long"])
def test_wall_tests_reject_x_of_the_wrong_length(x, length):
    # zip cut the roots to x: (1,) read as not fat with witness (0, -1),
    # and (1, 1, 0) as fat.
    sub = rd.subsystem_from_members(rd.build_root_system("B", 2), [])
    message = f"^x has {length} coordinates, but the roots of B_2 have 2$"
    for x_in in (x, tuple(Q(c, 2) for c in x)):
        with pytest.raises(DimensionMismatch, match=message):
            rd.fat_by_roots(x_in, sub)
    with pytest.raises(DimensionMismatch,
                       match=f"^x has {length} coordinates, but the roots have 2$"):
        rd.root_eval((1, -1), x)


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


LEVI_SYSTEMS = ([("A", n) for n in range(1, 5)] + [("B", n) for n in range(1, 5)]
                + [("C", n) for n in range(1, 5)] + [("D", n) for n in range(2, 5)])


@pytest.mark.parametrize("label, n", LEVI_SYSTEMS, ids=[f"{t}{n}" for t, n in LEVI_SYSTEMS])
def test_coweights_levi_systems_and_centralizing_vectors_match_fraction_solves(label, n):
    rs = rd.build_root_system(label, n)
    simple = rs.simple_roots
    # alpha_j(w_i) = delta_ij, and trace zero for type A: one solve per w_i.
    rows = [list(r) for r in simple] + ([[1] * rs.coord_dim] if label == "A" else [])
    coweights = tuple(ref.solve(rows, [int(i == j) for j in range(len(rows))])
                      for i in range(len(simple)))
    assert rd.fundamental_coweights(rs) == coweights
    # Each root's simple-root coefficients, solved in the simple roots' columns.
    cols = [[s[c] for s in simple] for c in range(rs.coord_dim)]
    coeffs = {r: ref.solve(cols, list(r)) for r in rs.roots}
    assert None not in coeffs.values()
    for size in range(min(3, n) + 1):
        for subset in itertools.combinations(simple, size):
            outside = [i for i, s in enumerate(simple) if s not in subset]
            assert rd.span_subsystem(rs, subset) == tuple(sorted(
                r for r in rs.roots if not any(coeffs[r][i] for i in outside)))
            assert rd.find_centralizing_vector(rs, subset) == tuple(
                sum((coweights[i][c] for i in outside), Q(0)) for c in range(rs.coord_dim))


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
        coweights = rd.fundamental_coweights(rs)
        for r in rs.roots:
            assert (rd.root_eval(r, x) == 0) == (r in inside)
            # Exact positivity on positive roots outside the sub-system.
            coeffs = [rd.root_eval(r, w) for w in coweights]
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


# Rationals p/q with small numerators and denominators, zero included.
SHIFT_ENTRIES = st.builds(Q, st.integers(-20, 20), st.integers(1, 6))
SHIFT_SYSTEMS = [(t, r) for t in "ABCD" for r in range(1, 6) if (t, r) != ("D", 1)]


def assert_one_solve_matches_the_sign_patterns(vertices, sub):
    """find_fat_shift against the sign-pattern search: the same witness,
    and None exactly when a forbidden vector is zero."""
    got = rd.find_fat_shift(vertices, sub)
    want = ref.shift_by_sign_patterns([vec(v) for v in vertices], sub.forbidden,
                                      sub.parent.coord_dim, ref.strict_feasible)
    assert got == want
    assert (got is None) == any(not any(r) for r in sub.forbidden)
    assert got is None or rd.verify_shift(vertices, sub, got)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_find_fat_shift_is_the_first_sign_pattern_witness(data):
    label, r = data.draw(st.sampled_from(SHIFT_SYSTEMS))
    rs = rd.build_root_system(label, r)
    simple = data.draw(st.lists(st.sampled_from(rs.simple_roots), unique=True))
    sub = rd.subsystem_from_members(rs, rd.span_subsystem(rs, simple))
    n = rs.coord_dim
    vertices = data.draw(st.lists(st.lists(SHIFT_ENTRIES, min_size=n, max_size=n),
                                  min_size=1, max_size=5))
    if data.draw(st.booleans()):
        # A hand-built forbidden set: the zero vector and a few roots (the
        # sign-pattern search visits 2^pairs patterns).
        roots = data.draw(st.lists(st.sampled_from(rs.roots), max_size=3))
        sub = rd.SubSystem(rs, sub.member_roots, ((0,) * n, *roots))
    assert_one_solve_matches_the_sign_patterns(vertices, sub)


def test_find_fat_shift_on_b8_is_the_first_sign_pattern_witness():
    # 64 forbidden pairs: one Fourier-Motzkin solve at the rank cap.
    sub = rd.subsystem_from_members(rd.build_root_system("B", 8), [])
    vertices = [tuple(Q((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 4) for j in range(8))
                for i in range(4)]
    assert_one_solve_matches_the_sign_patterns(vertices, sub)


def int_row(coeffs, rhs, scale=1):
    """The strict row c . a > rhs on int c and rational rhs, cleared: the
    int row (c_0 q, ..., c_{n-1} q, p) for rhs = p / q, times scale > 0."""
    rhs = Q(rhs)
    return tuple(scale * c * rhs.denominator for c in coeffs) + (scale * rhs.numerator,)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_elimination_matches_the_fraction_solve(data):
    # Random strict systems with rational right-hand sides, each int row
    # scaled by a positive multiplier: the bounds, and so the witness, are
    # the same rationals as the Fraction solve's, or both are None.
    n = data.draw(st.integers(1, 4))
    system = data.draw(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                          SHIFT_ENTRIES), min_size=1, max_size=7))
    if data.draw(st.booleans()):
        # c . a > r and -c . a > -r together: infeasible whatever c is.
        coeffs, rhs = data.draw(st.sampled_from(system))
        system.append(([-c for c in coeffs], -rhs))
    rows = [int_row(c, r, data.draw(st.integers(1, 5))) for c, r in system]
    want = ref.strict_feasible([(vec(c), Q(r)) for c, r in system], n)
    assert rd._strict_feasible(rows, n) == want
    if want is not None:
        assert all(sum((Q(x) * t for x, t in zip(c, want)), Q(0)) > r for c, r in system)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_find_fat_shift_is_the_fraction_solve_up_to_rank_8(data):
    # The shift system alpha(a) > -min_v alpha(v) of a B, C or D subsystem,
    # built in Fractions, against the one find_fat_shift clears to ints.
    label = data.draw(st.sampled_from("BCD"))
    rs = rd.build_root_system(label, data.draw(st.integers(2, 8)))
    simple = data.draw(st.lists(st.sampled_from(rs.simple_roots), unique=True))
    sub = rd.subsystem_from_members(rs, rd.span_subsystem(rs, simple))
    n = rs.coord_dim
    vertices = data.draw(st.lists(st.lists(SHIFT_ENTRIES, min_size=n, max_size=n),
                                  min_size=1, max_size=4))
    pairs = sorted({max(r, tuple(-c for c in r)) for r in sub.forbidden})
    system = [(vec(r), -min(sum((a * x for a, x in zip(r, v)), Q(0)) for v in vertices))
              for r in pairs]
    assert rd.find_fat_shift(vertices, sub) == ref.strict_feasible(system, n)


def test_strict_signs_is_the_rule_verify_shift_reads():
    sub = rd.subsystem_from_members(rd.build_root_system("B", 2), [])
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for a, strict in (((3, 1), True), ((1, 1), False), ((Q(5, 2), Q(1, 2)), True), ((0, 0), False)):
        values, _ = rd.shift_values(square, sub, a)
        assert rd.strict_signs(values) == rd.verify_shift(square, sub, a) == strict
    assert rd.strict_signs({(1, 0): [1, 2], (0, 1): [-1, -3]})
    assert not rd.strict_signs({(1, 0): [1, 0]}) and not rd.strict_signs({(1, 0): [1, -1]})
    # Without its own check, the search returns the same witness.
    assert rd.find_fat_shift(square, sub, verify=False) == rd.find_fat_shift(square, sub)


def test_find_fat_shift_empty_vertices_rejected():
    rs = rd.build_root_system("B", 2)
    sub = rd.subsystem_from_members(rs, [])
    with pytest.raises(ValueError):
        rd.find_fat_shift([], sub)


@pytest.mark.parametrize("vertices, index, length", [
    ([(0, 0), (1, 1)], 0, 2),
    ([(0, 0, 0), (1, 1)], 1, 2),
    ([(0, 0, 0, 0), (1, 1, 1, 1)], 0, 4),
], ids=["short", "ragged", "long"])
def test_shift_search_rejects_vertices_of_the_wrong_length(vertices, index, length):
    # Each root was zipped against each vertex and cut to the shorter one:
    # "no shift" for the short segment, a failed re-verification for the
    # ragged pair, an IndexError for the long one.
    sub = rd.subsystem_from_members(rd.build_root_system("B", 3), [])
    message = f"^vertex {index} has {length} coordinates, but the roots of B_3 have 3$"
    with pytest.raises(DimensionMismatch, match=message):
        rd.find_fat_shift(vertices, sub)
    with pytest.raises(DimensionMismatch, match=message):
        rd.verify_shift(vertices, sub, (1, 1, 1))
    with pytest.raises(DimensionMismatch,
                       match="^shift has 2 coordinates, but the roots have 3$"):
        rd.verify_shift([(0, 0, 0)], sub, (1, 1))


def test_the_short_segment_lifted_to_b3_has_a_shift():
    # The segment that was certified to have no shift, given 3 coordinates.
    sub = rd.subsystem_from_members(rd.build_root_system("B", 3), [])
    seg = [(0, 0, 0), (1, 1, 0)]
    a = rd.find_fat_shift(seg, sub)
    assert a is not None and rd.verify_shift(seg, sub, a)


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
