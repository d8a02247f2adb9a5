"""Exact linear algebra kernel: oracles are brute-force or numpy."""

from fractions import Fraction as Q

import numpy as np
import pytest

from fatbundles import exact as ex


def test_rref_identity_pivots():
    rows = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
    red, pivots = ex.rref(rows)
    assert pivots == [0, 1, 2]
    assert red == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rank_matches_numpy_on_random_integer_matrices():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = rng.integers(-4, 5, size=(5, 7))
        assert ex.rank(m.tolist()) == np.linalg.matrix_rank(m)
        # Rational rows: scaling rows by nonzero rationals keeps the rank.
        scaled = [[Q(int(x), i + 2) for x in row] for i, row in enumerate(m)]
        assert ex.rank(scaled) == np.linalg.matrix_rank(m)


def test_rank_of_empty_and_zero_matrices():
    assert ex.rank([]) == 0
    assert ex.rank([[0, 0], [0, 0]]) == 0
    assert ex.rank([[0, 0], [Q(1, 3), 0]]) == 1


def test_nullspace_is_exact_kernel():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.integers(-3, 4, size=(4, 6)).tolist()
        ns = ex.nullspace(m)
        assert len(ns) == 6 - ex.rank(m)
        for v in ns:
            assert all(ex.dot(row, v) == 0 for row in m)


def test_solve_and_inverse():
    a = [[2, 1], [1, 3]]
    x = ex.solve(ex.mat(a), ex.vec([5, 10]))
    assert x == (Q(1), Q(3))
    inv = ex.inverse(ex.mat(a))
    prod = ex.mat_mul(ex.mat(a), inv)
    assert prod == ex.identity(2)
    assert ex.solve(ex.mat([[1, 1], [1, 1]]), ex.vec([0, 1])) is None


def test_inverse_rejects_non_square_input():
    with pytest.raises(ValueError):
        ex.inverse([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        ex.inverse([[1, 0], [0, 1], [1, 1]])


def test_det_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.integers(-5, 6, size=(4, 4))
        assert float(ex.det(m.tolist())) == pytest.approx(np.linalg.det(m))


def test_det_row_swaps_rationals_and_singular():
    # The first pivot needs a row swap, which flips the sign.
    assert ex.det([[0, 1], [1, 0]]) == -1
    assert ex.det([[0, 2, 1], [3, 0, 0], [0, 0, 5]]) == -30
    assert ex.det([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 5)]]) == Q(1, 60)
    # Singular: dependent rows and a zero row.
    assert ex.det([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 0
    assert ex.det([[1, 2], [0, 0]]) == 0
    assert ex.det([]) == 1


def test_det_rejects_non_square_input():
    with pytest.raises(ValueError):
        ex.det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        ex.det([[1, 2], [3, 4], [5, 6]])


def test_inertia_on_known_forms():
    assert ex.inertia([[2, 0], [0, -3]]) == (1, 1, 0)
    assert ex.inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert ex.inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    assert ex.inertia([[-1, 0, 0], [0, -2, 0], [0, 0, 0]]) == (0, 2, 1)


def test_inertia_matches_numpy_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(-3, 4, size=(5, 5))
        sym = (a + a.T).tolist()
        pos, neg, zero = ex.inertia(sym)
        ev = np.linalg.eigvalsh(np.array(sym, dtype=float))
        assert pos == int((ev > 1e-9).sum())
        assert neg == int((ev < -1e-9).sum())


def test_primitive_scaling():
    assert ex.primitive([Q(1, 2), Q(1, 3)]) == (Q(3), Q(2))
    assert ex.primitive([Q(-2), Q(4)]) == (Q(1), Q(-2))
    assert ex.primitive([Q(0), Q(0)]) == (Q(0), Q(0))


def test_coordinate_solver_round_trip():
    rows = [[1, 0, 2, 0], [0, 3, 0, 0], [1, 1, 1, 1]]
    solver = ex.CoordinateSolver(rows)
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


def test_coordinate_solver_rejects_dependent_rows():
    with pytest.raises(ValueError):
        ex.CoordinateSolver([[1, 2], [2, 4]])
