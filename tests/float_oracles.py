"""Float reference pipelines, kept beside the tests as checks that share
no code path with the exact kernel: dense float64 structure constants and
Killing form, the fatness Gram, the coupling report by dense SVDs, an
end-to-end numeric coupling-form nondegeneracy verdict built on scipy
null spaces, and one-at-a-time references for the stacked curvature
kernels: per-frame QR draws, the four-operand twistor einsum and the
per-plane pinching loop."""

from __future__ import annotations

import random

import numpy as np
from scipy.linalg import null_space

from fatbundles.curvature import _standard_normal


def structure_array(g) -> np.ndarray:
    """Dense c[i, j, k] of the algebra as float64."""
    d = g.dim
    c = np.zeros((d, d, d))
    for (i, j), ck in g._structure.items():
        for k, v in ck.items():
            c[i, j, k] = float(v)
            c[j, i, k] = -float(v)
    return c


def killing_array(g) -> np.ndarray:
    """K_ab = Tr(ad_a ad_b) = sum_jk c[a, j, k] c[b, k, j] as float64."""
    c = structure_array(g)
    return np.einsum("ajk,bkj->ab", c, c)


def fatness_gram_float(emb, x_float) -> np.ndarray:
    """Float Gram B(X_u, [m_i, m_j]) for a float coordinate vector X_u."""
    g = emb.ambient
    c = structure_array(g)
    kf = killing_array(g)
    m_arr = np.array([[float(v) for v in row] for row in emb.m_basis])
    kx = kf @ np.asarray(x_float, dtype=float)
    s = np.einsum("ijk,k->ij", c, kx)
    return m_arr @ s @ m_arr.T


def gram_float(form) -> np.ndarray:
    """A coupling form's Gram in floats (int / int is correctly rounded)."""
    k = form.dim
    return np.array([[row.get(j, 0) / form.den for j in range(k)]
                     for row in form.gram], dtype=float).reshape(k, k)


def min_sv_float(a: np.ndarray) -> float:
    """Smallest singular value of a square array by numpy's SVD, inf when empty."""
    return float(np.linalg.svd(a, compute_uv=False)[-1]) if a.size else float("inf")


def block_report_float(form) -> tuple[float, float, float, float | None]:
    """(cross_max_abs, fiber_min_sv, horizontal_min_sv, fiber / horizontal
    Frobenius norm ratio) of a coupling form by dense numpy SVDs and norms."""
    gf, f = gram_float(form), len(form.instance.fiber_sparse)
    cross, fiber, horiz = gf[:f, f:], gf[:f, :f], gf[f:, f:]
    horiz_norm = float(np.linalg.norm(horiz))
    return (float(np.abs(cross).max()) if cross.size else 0.0, min_sv_float(fiber),
            min_sv_float(horiz), float(np.linalg.norm(fiber)) / horiz_norm if horiz_norm else None)


def coupling_nondegenerate_float(g, emb, x_u, tol: float = 1e-9
                                 ) -> tuple[bool, float]:
    """Numeric nondegeneracy verdict of the coupling form at X_u (float
    pipeline end to end) and the smallest singular value of its Gram."""
    x = np.array([float(t) for t in x_u])
    c = structure_array(g)
    kf = killing_array(g)
    h_arr = np.array([[float(v) for v in r] for r in emb.h_basis])
    ad = np.einsum("ijk,i->kj", c, x)
    a_h = ad @ h_arr.T
    ns = null_space(a_h, rcond=1e-9) if h_arr.size else np.zeros((0, 0))
    v_rows = (h_arr.T @ ns).T if ns.size else np.zeros((0, g.dim))
    if v_rows.size:
        n_rows = null_space(v_rows @ kf, rcond=1e-9).T
    else:
        n_rows = np.eye(g.dim)
    s = np.einsum("ijk,k->ij", c, kf @ x)
    gram = n_rows @ s @ n_rows.T
    if gram.size == 0:
        return True, float("inf")
    sv = np.linalg.svd(gram, compute_uv=False)
    min_sv = float(sv[-1])
    if gram.shape[0] % 2 == 1:
        return False, min_sv
    return bool(sv[0] > 0 and min_sv > tol * sv[0]), min_sv


def random_frames_reference(n: int, count: int, seed: int) -> np.ndarray:
    """Haar frames drawn from one ``random.Random(seed)`` stream and
    QR-factored one at a time, signs fixed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q, r = np.linalg.qr(_standard_normal(rng, (2 * n, 2 * n)))
        out.append(q * np.sign(np.diag(r)))
    return np.array(out).reshape(count, 2 * n, 2 * n)


def twistor_form_reference(r: np.ndarray, u: np.ndarray, j: np.ndarray
                           ) -> np.ndarray:
    """T_ab = sum R_ijkl u_ia u_jb (u J u^T)_kl for one frame u."""
    return np.einsum("ijkl,ia,jb,kl->ab", r, u, u, u @ j @ u.T)


def sectional_curvature_reference(r: np.ndarray, x: np.ndarray,
                                  y: np.ndarray) -> float | None:
    """K(x, y), or None on a plane with denominator under 1e-12."""
    denom = float(x @ x) * float(y @ y) - float(x @ y) ** 2
    if denom < 1e-12:
        return None
    return float(np.einsum("ijkl,i,j,k,l->", r, x, y, y, x)) / denom


def pinching_estimate_reference(r: np.ndarray, num_samples: int, seed: int
                                ) -> tuple[float, float, float, float]:
    """(K_min_abs, K_max_abs, eps_est) over the coordinate planes and
    num_samples random planes drawn one at a time from one
    ``random.Random(seed)`` stream, degenerate ones redrawn; last, the
    worst conditioning |x|^2 |y|^2 / denominator of a kept plane, by which
    a thin plane magnifies the rounding of K."""
    N = r.shape[0]
    eye = np.eye(N)
    values = [abs(sectional_curvature_reference(r, eye[i], eye[j]))
              for i in range(N) for j in range(i + 1, N)]
    rng = random.Random(seed)
    worst = 1.0
    while len(values) < N * (N - 1) // 2 + num_samples:
        x, y = _standard_normal(rng, (N,)), _standard_normal(rng, (N,))
        k = sectional_curvature_reference(r, x, y)
        if k is not None:
            values.append(abs(k))
            worst = max(worst, float(x @ x) * float(y @ y)
                        / (float(x @ x) * float(y @ y) - float(x @ y) ** 2))
    kmin, kmax = min(values), max(values)
    return kmin, kmax, 1.0 - kmin / kmax if kmax > 0 else 1.0, worst
