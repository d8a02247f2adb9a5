"""Float reference pipelines, kept beside the tests as checks that share
no code path with the exact kernel: dense float64 structure constants and
Killing form, the fatness Gram, an end-to-end numeric coupling-form
nondegeneracy verdict built on scipy null spaces, and one-at-a-time
references for the stacked curvature kernels: per-frame QR draws, the
four-operand twistor einsum and the per-plane pinching loop."""

from __future__ import annotations

import numpy as np
from scipy.linalg import null_space


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
    return np.array([[float(x) for x in row] for row in g.killing])


def fatness_gram_float(emb, x_float) -> np.ndarray:
    """Float Gram B(X_u, [m_i, m_j]) for a float coordinate vector X_u."""
    g = emb.ambient
    c = structure_array(g)
    kf = killing_array(g)
    m_arr = np.array([[float(v) for v in row] for row in emb.m_basis])
    kx = kf @ np.asarray(x_float, dtype=float)
    s = np.einsum("ijk,k->ij", c, kx)
    return m_arr @ s @ m_arr.T


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
    """Haar frames drawn and QR-factored one at a time, signs fixed."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
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
    num_samples random planes drawn one at a time, degenerate ones
    redrawn; last, the worst conditioning |x|^2 |y|^2 / denominator of a
    kept plane, by which a thin plane magnifies the rounding of K."""
    N = r.shape[0]
    eye = np.eye(N)
    values = [abs(sectional_curvature_reference(r, eye[i], eye[j]))
              for i in range(N) for j in range(i + 1, N)]
    rng = np.random.default_rng(seed)
    worst = 1.0
    while len(values) < N * (N - 1) // 2 + num_samples:
        x, y = rng.standard_normal(N), rng.standard_normal(N)
        k = sectional_curvature_reference(r, x, y)
        if k is not None:
            values.append(abs(k))
            worst = max(worst, float(x @ x) * float(y @ y)
                        / (float(x @ x) * float(y @ y) - float(x @ y) ** 2))
    kmin, kmax = min(values), max(values)
    return kmin, kmax, 1.0 - kmin / kmax if kmax > 0 else 1.0, worst
