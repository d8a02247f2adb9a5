"""Curvature tensors, pinching, Berger bound and the twistor form."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatbundles import curvature as cv
from fatbundles.errors import ScaleFailure
from float_oracles import (
    pinching_estimate_reference,
    random_frames_reference,
    sectional_curvature_reference,
    twistor_form_reference,
)


def test_constant_curvature_sectional_values():
    for kappa in (1.0, -1.0, 2.5):
        t = cv.constant_curvature(2, kappa)
        t.validate()
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert sectional_curvature_reference(t.R, x, y) == pytest.approx(kappa)


def test_constant_curvature_pinching_estimate():
    kmin, kmax, eps = cv.pinching_estimate(cv.constant_curvature(2, 1.0), 30, 1)
    assert kmin == pytest.approx(1.0) and kmax == pytest.approx(1.0)
    assert eps == pytest.approx(0.0, abs=1e-12)
    kmin, kmax, eps = cv.pinching_estimate(cv.constant_curvature(2, -1.0), 30, 1)
    assert kmin == pytest.approx(1.0) and eps == pytest.approx(0.0, abs=1e-12)


def test_algebraic_projection_enforces_symmetries():
    rng = np.random.default_rng(2)
    a = cv.algebraic_projection(rng.standard_normal((6, 6, 6, 6)))
    assert np.abs(a + a.transpose(1, 0, 2, 3)).max() < 1e-12
    assert np.abs(a + a.transpose(0, 1, 3, 2)).max() < 1e-12
    assert np.abs(a - a.transpose(2, 3, 0, 1)).max() < 1e-12
    bianchi = a + a.transpose(1, 2, 0, 3) + a.transpose(2, 0, 1, 3)
    assert np.abs(bianchi).max() < 1e-12


def test_random_pinched_contracts():
    for n, eps, sign, seed in ((2, 0.5, "+", 42), (3, 0.4, "-", 7),
                               (2, 0.54, "+", 1)):
        t = cv.random_pinched(n, eps, sign, seed)
        t.validate()
        assert t.achieved_epsilon <= eps + 1e-9
        assert cv.berger_check(t, eps).passed
        kmin, kmax, _ = cv.pinching_estimate(t, 300, seed=seed + 100)
        assert kmax <= 1 + 1e-9
        assert kmin >= 1 - eps - 1e-9
        if sign == "-":
            # all sampled sectional curvatures negative
            rng = np.random.default_rng(3)
            x, y = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
            assert sectional_curvature_reference(t.R, x, y) < 0


@pytest.mark.parametrize("n", range(1, 9))
def test_random_pinched_records_the_berger_check_max(n):
    # At 0.9 of the twistor bound with both signs, as the pinch catalogs
    # run it: the tensor's berger_max is berger_check's max mixed entry.
    eps = 0.9 * 3 / (2 * n + 1)
    for sign in "+-":
        t = cv.random_pinched(n, eps, sign, n)
        assert t.berger_max == cv.berger_check(t, eps).max_mixed_abs


def test_random_pinched_zero_epsilon_is_constant():
    t = cv.random_pinched(2, 0.0, "+", 5)
    assert np.abs(t.R - cv.constant_curvature(2, 1.0).R).max() < 1e-12


def test_random_pinched_deterministic_in_seed():
    a = cv.random_pinched(2, 0.5, "+", 11)
    b = cv.random_pinched(2, 0.5, "+", 11)
    assert np.array_equal(a.R, b.R)


@pytest.mark.parametrize("estimate", [(0.5, 1.0, 0.5 + 1e-6), (0.6, 1.0 + 1e-6, 0.4)])
def test_random_pinched_raises_when_the_sampled_check_fails(estimate):
    # One candidate is built and checked: a sampled pinching past epsilon,
    # or a |K| past 1, raises at once instead of shrinking the perturbation.
    with mock.patch.object(cv, "pinching_estimate", return_value=estimate) as est:
        with pytest.raises(ScaleFailure, match="epsilon=0.5"):
            cv.random_pinched(2, 0.5, "+", 11)
    assert est.call_count == 1


def test_random_pinched_validates_epsilon():
    with pytest.raises(ValueError):
        cv.random_pinched(2, 1.0, "+", 0)


def test_berger_constant_curvature_passes_any_epsilon():
    t = cv.constant_curvature(3, 1.0)
    rep = cv.berger_check(t, 0.0)
    assert rep.passed and rep.max_mixed_abs == 0.0


def test_berger_hand_built_violation():
    N = 4
    bad = np.zeros((N,) * 4)
    # R_1234 = 1 with its forced symmetry images.
    for (i, j, k, l), s in (((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1),
                            ((0, 1, 3, 2), -1), ((1, 0, 3, 2), 1),
                            ((2, 3, 0, 1), 1), ((3, 2, 0, 1), -1),
                            ((2, 3, 1, 0), -1), ((3, 2, 1, 0), 1)):
        bad[i, j, k, l] = s
    rep = cv.berger_check(bad, 0.1)
    assert not rep.passed
    assert rep.max_mixed_abs == 1.0
    assert rep.bound == pytest.approx(2 / 3 * 0.1)
    assert rep.max_mixed_abs - rep.bound == pytest.approx(1.0 - 2 / 3 * 0.1)


def test_twistor_form_constant_curvature_closed_form():
    for n in (2, 3):
        for kappa in (1.0, -1.0, 0.5):
            t = cv.constant_curvature(n, kappa)
            oracle = 2 * kappa * cv.standard_complex_structure(n).T
            assert np.abs(cv.twistor_form(t.R, np.eye(2 * n)[None])[0]
                          - oracle).max() < 1e-12
            for m in cv.twistor_form(t.R, cv.random_frames(n, 5, seed=8)):
                assert np.abs(m - oracle).max() < 1e-10


def test_twistor_form_antisymmetric_zero_diagonal():
    t = cv.random_pinched(2, 0.5, "+", 42)
    for m in cv.twistor_form(t.R, cv.random_frames(2, 5, seed=4)):
        assert np.abs(m + m.T).max() < 1e-10
        assert np.abs(np.diag(m)).max() < 1e-12


def test_twistor_form_frame_equivariance():
    # u' = u k with k orthogonal and J-commuting: same conjugated complex
    # structure, Gram transforms by k.
    rng = np.random.default_rng(6)
    t = cv.random_pinched(2, 0.5, "+", 42)
    n = 2
    j = cv.standard_complex_structure(n)
    for fr in cv.random_frames(n, 3, seed=5):
        # Build a J-commuting orthogonal k from a random unitary.
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(z)
        k = np.zeros((2 * n, 2 * n))
        for a in range(n):
            for b in range(n):
                k[2 * a, 2 * b] = q[a, b].real
                k[2 * a + 1, 2 * b + 1] = q[a, b].real
                k[2 * a, 2 * b + 1] = -q[a, b].imag
                k[2 * a + 1, 2 * b] = q[a, b].imag
        assert np.abs(k @ k.T - np.eye(2 * n)).max() < 1e-10
        assert np.abs(k @ j - j @ k).max() < 1e-10
        m1, m2 = cv.twistor_form(t.R, cv._orthonormal(np.array([fr, fr @ k])))
        assert np.abs(m2 - k.T @ m1 @ k).max() < 1e-10


def test_twistor_fatness_constant_curvature():
    rep = cv.twistor_fatness(cv.constant_curvature(2, 1.0), num_frames=30,
                             seed=3)
    assert rep.fat
    assert rep.min_diag_margin == pytest.approx(1.0)
    assert rep.bound == pytest.approx(1.0)
    assert rep.min_singular_value == pytest.approx(2.0)


def test_twistor_fatness_under_theorem_hypothesis():
    rep = cv.twistor_fatness(cv.random_pinched(2, 0.54, "+", 1),
                             num_frames=40, seed=1)
    assert rep.fat and rep.bound == pytest.approx(1 - 5 * 0.54 / 3)
    rep_neg = cv.twistor_fatness(cv.random_pinched(3, 0.42, "-", 2),
                                 num_frames=40, seed=2)
    assert rep_neg.fat
    assert rep_neg.bound == pytest.approx(1 - 7 * 0.42 / 3)


def test_twistor_fatness_min_sv_diagonal_dominance_bound():
    t = cv.random_pinched(2, 0.5, "+", 42)
    rep = cv.twistor_fatness(t, num_frames=20, seed=0)
    assert rep.min_singular_value >= 2 * (1 - 5 / 3 * 0.5) - 0.05


def test_tensor_validate_rejects_broken_symmetry():
    t = cv.constant_curvature(2, 1.0)
    broken = t.R.copy()
    broken[0, 1, 2, 3] += 1e-6
    with pytest.raises(ValueError):
        cv.CurvatureTensor(n=2, R=broken).validate()


def test_frame_validation():
    with pytest.raises(ValueError):
        cv._orthonormal(np.eye(4) * 2)
    fr = cv._orthonormal(np.eye(6))
    ju = fr @ cv.standard_complex_structure(3) @ fr.T
    assert np.abs(ju @ ju + np.eye(6)).max() < 1e-12


def test_pinching_estimate_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        cv.pinching_estimate(cv.constant_curvature(2, 1.0), 0, 0)


def test_twistor_fatness_rejects_no_frames():
    tensor = cv.constant_curvature(2, 1.0)
    with pytest.raises(ValueError, match="num_frames must be >= 1"):
        cv.twistor_fatness(tensor, num_frames=0)


ns = st.integers(1, 4)
seeds = st.integers(0, 2 ** 32 - 1)


def unit_tensor(n: int, seed: int) -> np.ndarray:
    """A random algebraic curvature tensor of unit Frobenius norm."""
    a = cv.algebraic_projection(
        np.random.default_rng(seed).standard_normal((2 * n,) * 4))
    return a / np.linalg.norm(a)


@settings(max_examples=40, deadline=None)
@given(n=ns, seed=seeds, count=st.integers(1, 12), more=st.integers(1, 8))
def test_stacked_frames_equal_one_at_a_time_draws_and_extend(n, seed, count,
                                                             more):
    frames = cv.random_frames(n, count, seed)
    assert np.array_equal(frames, random_frames_reference(n, count, seed))
    longer = cv.random_frames(n, count + more, seed)
    assert np.array_equal(frames, longer[:count])


@settings(max_examples=40, deadline=None)
@given(n=ns, seed=seeds)
def test_stacked_twistor_forms_match_the_einsum_reference(n, seed):
    r = unit_tensor(n, seed)
    j = cv.standard_complex_structure(n)
    frames = cv.random_frames(n, 6, seed)
    for fr, t in zip(frames, cv.twistor_form(r, frames)):
        ref = twistor_form_reference(r, fr, j)
        assert np.abs(t - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=40, deadline=None)
@given(n=ns, seed=seeds, samples=st.integers(1, 60))
def test_stacked_pinching_estimate_matches_the_plane_loop(n, seed, samples):
    # |K| <= 1 for a unit tensor.  Both evaluations round K to a few ulps
    # times the plane's conditioning, which a thin plane (rare past n = 1)
    # pushes past 100; there the bound grows with it.
    r = unit_tensor(n, seed)
    *ref, worst = pinching_estimate_reference(r, samples, seed)
    got = cv.pinching_estimate(r, samples, seed)
    assert np.abs(np.subtract(got, ref)).max() <= 1e-14 * max(100.0, worst)


def _uniform_bytes(normals) -> bytes:
    """The bytes from which cv._standard_normal reads ``normals``, pair by
    pair, up to the rounding of its 53-bit uniforms: Box-Muller inverted."""
    out = b""
    for a, b in zip(normals[0::2], normals[1::2]):
        u = -math.expm1(-(a * a + b * b) / 2)
        v = math.atan2(b, a) / (2 * math.pi) % 1.0
        for x in (u, v):
            out += (min(round(x * 2 ** 53), 2 ** 53 - 1) << 11).to_bytes(8, "little")
    return out


def test_pinching_estimate_redraws_only_the_degenerate_planes(monkeypatch):
    # Planes (x, y) in R^4 from a fixed normal stream: parallel, then three
    # good ones.  Two samples take the first two good planes, one after the
    # other, and leave the third plane and the tail unread.
    stream = [1, 0, 2, 0, 2, 0, 4, 0, 1, 0, 0, 1, 0, 1, 1, 0,
              1, 2, 3, 1, 0, 1, 0, 2, 2, 1, 1, 3, 1, 0, 2, 1, 9, 9]
    left = []

    class Fixed(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.values = _uniform_bytes(stream)
            left.append(self)

        def randbytes(self, n):
            out, self.values = self.values[:n], self.values[n:]
            return out

    r = unit_tensor(2, 3)
    monkeypatch.setattr(random, "Random", Fixed)
    got = cv.pinching_estimate(r, 2, 0)
    assert np.abs(np.subtract(got, pinching_estimate_reference(r, 2, 0)[:3])
                  ).max() <= 1e-12
    assert [f.values for f in left[-2:]] == [
        _uniform_bytes([2, 1, 1, 3, 1, 0, 2, 1, 9, 9])] * 2


def test_the_normal_stream_is_pinned():
    # A change in the draws fails here before it moves a certificate.
    assert [float(f"{x:.12g}") for x in cv.random_frames(1, 2, 0).ravel()] == [
        0.938193269358, -0.346111816227, 0.346111816227, 0.938193269358,
        0.478496666944, -0.878089368871, 0.878089368871, 0.478496666944]
    r = cv.random_pinched(1, 0.5, "+", 0).R
    assert [float(f"{r[i]:.12g}") for i in ((0, 1, 1, 0), (0, 1, 0, 1))] == [
        0.884615384615, -0.884615384615]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(-2 ** 32, 2 ** 32), k=st.integers(1, 40),
       more=st.integers(1, 9))
def test_normals_of_a_longer_draw_extend_a_shorter_one(seed, k, more):
    # Odd lengths too; a negative seed draws the stream of its absolute value.
    short = cv._standard_normal(random.Random(seed), (k,))
    longer = cv._standard_normal(random.Random(abs(seed)), (k + more,))
    assert np.array_equal(short, longer[:k]) and np.isfinite(longer).all()


@pytest.mark.parametrize("kappa", [0.7, -1.0, 1e-3])
def test_pinching_estimate_reads_the_one_plane_of_dimension_two(kappa):
    # K = R_0110 on the only plane: exact, and the estimate draws nothing.
    assert cv.pinching_estimate(cv.constant_curvature(1, kappa), 200, 5) \
        == (abs(kappa), abs(kappa), 0.0)
    assert cv.pinching_estimate(np.zeros((2,) * 4), 1, 0) == (0.0, 0.0, 1.0)


def test_random_pinched_in_dimension_two():
    for eps, sign in ((0.0, "+"), (0.0, "-"), (0.5, "+"), (0.9, "-")):
        t = cv.random_pinched(1, eps, sign, 0)
        assert t.achieved_epsilon == 0.0
        assert 1 - eps - 1e-12 <= abs(t.R[0, 1, 1, 0]) <= 1 + 1e-12
        assert cv.twistor_fatness(t, num_frames=5, seed=0).fat


def test_pinching_estimate_needs_a_plane():
    with pytest.raises(ValueError, match="dimension >= 2"):
        cv.pinching_estimate(np.zeros((1, 1, 1, 1)), 5, 0)
