"""Float reference pipelines, kept beside the tests as checks that share
no code path with the exact kernel: dense float64 structure constants and
Killing form, the fatness Gram, and an end-to-end numeric coupling-form
nondegeneracy verdict built on scipy null spaces."""

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
