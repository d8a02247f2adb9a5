"""Pinched-curvature fatness for orthonormal frame bundles.

Algebraic curvature tensors on a 2n-dimensional inner-product space, a
constructive generator of epsilon-pinched tensors, the Berger bound on
mixed entries, and the twistor two-form Tr(R(., .) J_u) whose
nondegeneracy certifies fat covectors of the frame bundle when the
pinching constant stays below 3/(2n+1).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ScaleFailure

SYMMETRY_TOL = 1e-12


def standard_complex_structure(n: int) -> np.ndarray:
    """Block-diagonal J with 2x2 blocks [[0, -1], [1, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    for i in range(n):
        j[2 * i, 2 * i + 1] = -1.0
        j[2 * i + 1, 2 * i] = 1.0
    return j


@dataclass(frozen=True)
class CurvatureTensor:
    """R[i, j, k, l] = g(R(e_i, e_j) e_k, e_l) in an orthonormal basis,
    with the declared pinching bracket of the generator."""

    n: int
    R: np.ndarray = field(repr=False)
    epsilon: float = 0.0
    sign: int = 1
    seed: int | None = None
    achieved_epsilon: float | None = None
    berger_max: float | None = None

    def __post_init__(self):
        self.R.setflags(write=False)

    def validate(self, tol: float = SYMMETRY_TOL) -> None:
        r = self.R
        residuals = (
            np.abs(r + r.transpose(1, 0, 2, 3)).max(),
            np.abs(r + r.transpose(0, 1, 3, 2)).max(),
            np.abs(r - r.transpose(2, 3, 0, 1)).max(),
            np.abs(r + r.transpose(1, 2, 0, 3)
                   + r.transpose(2, 0, 1, 3)).max(),
        )
        for residual in residuals:
            if residual > tol:
                raise ValueError(f"curvature symmetry residual {residual}")


def constant_curvature(n: int, kappa: float) -> CurvatureTensor:
    """R(X, Y)Z = kappa (g(Y, Z) X - g(X, Z) Y): every sectional
    curvature equals kappa."""
    N = 2 * n
    eye = np.eye(N)
    r = kappa * (np.einsum("jk,il->ijkl", eye, eye)
                 - np.einsum("ik,jl->ijkl", eye, eye))
    return CurvatureTensor(n=n, R=r, epsilon=0.0,
                           sign=1 if kappa >= 0 else -1)


def algebraic_projection(a: np.ndarray) -> np.ndarray:
    """Project a 4-tensor onto the space of algebraic curvature tensors:
    antisymmetrize both index pairs, symmetrize the pair swap, then remove
    the totally antisymmetric part so the first Bianchi identity holds."""
    a = 0.5 * (a - a.transpose(1, 0, 2, 3))
    a = 0.5 * (a - a.transpose(0, 1, 3, 2))
    a = 0.5 * (a + a.transpose(2, 3, 0, 1))
    cyc = a + a.transpose(1, 2, 0, 3) + a.transpose(2, 0, 1, 3)
    return a - cyc / 3.0


def _plane_terms(r: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """(R(x, y, y, x), |x|^2 |y|^2 - g(x, y)^2) over stacks of planes
    span(x_p, y_p): one product with R flattened to N^2 x N^2."""
    p, N = x.shape
    xy = (x[:, :, None] * y[:, None, :]).reshape(p, N * N)
    yx = (y[:, :, None] * x[:, None, :]).reshape(p, N * N)
    num = ((xy @ r.reshape(N * N, N * N)) * yx).sum(axis=1)
    denom = (x * x).sum(axis=1) * (y * y).sum(axis=1) - (x * y).sum(axis=1) ** 2
    return num, denom


def _standard_normal(rng: random.Random, shape) -> np.ndarray:
    """Standard normals of ``shape``, read off ``rng`` in bulk: Box-Muller
    on 53-bit uniform pairs (u, v), sqrt(-2 log(1 - u)) (1 - t^2, 2t) /
    (1 + t^2) with t = tan(pi v), so a longer draw extends a shorter one."""
    size = math.prod(shape)
    z = np.empty((-(-size // 2), 2))
    for w in np.split(z, range(1 << 14, len(z), 1 << 14)):  # blocks that stay in cache
        a = np.frombuffer(rng.randbytes(16 * len(w)), "<u8").reshape(-1, 2) >> 11
        t = np.tan(a[:, 1] * (np.pi * 2.0 ** -53))  # one tan costs less than cos and sin
        r = np.sqrt(-2.0 * np.log1p(a[:, 0] * -2.0 ** -53)) / (1.0 + t * t)
        w[:, 0], w[:, 1] = r * (1.0 - t * t), 2.0 * r * t
    return z.reshape(-1)[:size].reshape(shape)


@functools.lru_cache(maxsize=None)
def _mixed_mask(N: int) -> np.ndarray:
    """The read-only mask of the index quadruples with three distinct indices."""
    mask = np.zeros((N,) * 4, dtype=bool)
    for idx in itertools.product(range(N), repeat=4):
        if len(set(idx)) >= 3:
            mask[idx] = True
    mask.setflags(write=False)
    return mask


def pinching_estimate(r, num_samples: int = 200, seed: int = 0
                      ) -> tuple[float, float, float]:
    """(K_min_abs, K_max_abs, eps_est) over all coordinate planes plus the
    planes of one ``random.Random(seed)``, degenerate ones redrawn; eps_est
    = 1 - K_min_abs / K_max_abs, the pinching after normalizing the largest
    absolute curvature to 1.  In dimension 2, K = R_0110 of the one plane."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    arr = r.R if isinstance(r, CurvatureTensor) else np.asarray(r)
    N = arr.shape[0]
    if N < 2:
        raise ValueError("a plane needs dimension >= 2")
    i, j = np.triu_indices(N, 1)  # coordinate planes: K(e_i, e_j) = R_ijji
    values = [np.abs(arr[i, j, j, i])]
    if N == 2:
        k = float(values[0][0])
        return k, k, 0.0 if k > 0 else 1.0
    rng = random.Random(seed)
    need = num_samples
    while need:  # redraw only the degenerate planes' shortfall
        planes = _standard_normal(rng, (need, 2, N))
        num, denom = _plane_terms(arr, planes[:, 0], planes[:, 1])
        kept = denom >= 1e-12
        values.append(np.abs(num[kept] / denom[kept]))
        need -= int(kept.sum())
    values = np.concatenate(values)
    kmin, kmax = float(values.min()), float(values.max())
    return kmin, kmax, 1.0 - kmin / kmax if kmax > 0 else 1.0


def random_pinched(n: int, epsilon: float, sign, seed: int) -> CurvatureTensor:
    """A random algebraic curvature tensor with |K| in [1 - epsilon, 1].

    A constant-curvature base kappa0 = 1 - epsilon/2 is perturbed by the
    projected ``random.Random(seed)`` normals, at Frobenius norm 0.45 * epsilon.
    Every sectional value of a unit-Frobenius perturbation lies in [-1, 1]
    (Cauchy-Schwarz against the plane tensor), and so does every frame
    contraction: dividing by kappa0 + 0.45 * epsilon pins |K| <= 1, and
    both the pinching bracket and the Berger mixed-entry bound 2/3 epsilon
    hold on the whole plane Grassmannian, not only on sampled planes.  The
    sampled estimate, the mixed entries and the bracket are still verified
    post hoc: ScaleFailure when one of them fails.
    """
    sign = -1 if sign in (-1, "-", "neg") else 1
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must be in [0, 1)")
    N = 2 * n
    kappa0 = 1.0 - epsilon / 2.0
    base = constant_curvature(n, kappa0).R
    pert = algebraic_projection(_standard_normal(random.Random(seed), (N,) * 4))
    norm = float(np.linalg.norm(pert))
    if norm > 0:
        pert = pert / norm
    mask = _mixed_mask(N)
    bound = 2.0 / 3.0 * epsilon
    scale = 0.45 * epsilon
    cand = (base + scale * pert) / (kappa0 + scale)
    kmin, kmax, eps_est = pinching_estimate(cand, 200, seed=seed + 1)
    mixed = float(np.abs(cand[mask]).max()) if mask.any() else 0.0
    global_kmin = (kappa0 - scale) / (kappa0 + scale)
    if not (eps_est <= epsilon + 1e-12 and mixed <= bound + 1e-12
            and kmax <= 1.0 + 1e-12 and global_kmin >= 1.0 - epsilon - 1e-12):
        raise ScaleFailure(
            f"could not fit the perturbation into the bracket for epsilon={epsilon}")
    return CurvatureTensor(
        n=n, R=sign * cand, epsilon=float(epsilon), sign=sign,
        seed=seed, achieved_epsilon=float(eps_est), berger_max=mixed)


@dataclass(frozen=True)
class BergerReport:
    passed: bool
    bound: float
    max_mixed_abs: float
    worst_index: tuple[int, int, int, int] | None


def berger_check(tensor, epsilon: float) -> BergerReport:
    """Check |R_ijkl| <= 2/3 epsilon for every quadruple with at least
    three distinct indices (the mixed entries of a pinched metric)."""
    arr = tensor.R if isinstance(tensor, CurvatureTensor) else np.asarray(tensor)
    N = arr.shape[0]
    mask = _mixed_mask(N)
    bound = 2.0 / 3.0 * epsilon
    if not mask.any():
        return BergerReport(True, bound, 0.0, None)
    vals = np.abs(arr) * mask
    worst_flat = int(vals.argmax())
    worst = tuple(int(t) for t in np.unravel_index(worst_flat, arr.shape))
    max_mixed = float(vals.max())
    return BergerReport(max_mixed <= bound + 1e-12, bound, max_mixed, worst)


def _orthonormal(u: np.ndarray) -> np.ndarray:
    """u, a frame or a stack of frames, once u u^T = 1 to 1e-10."""
    if u.size and np.abs(u @ u.swapaxes(-1, -2) - np.eye(u.shape[-1])).max() > 1e-10:
        raise ValueError("frame is not orthonormal")
    return u


def random_frames(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` Haar-distributed orthonormal frames as one stack: one QR
    of the normals of ``random.Random(seed)``, signs fixed by diag(r).  The
    first k of ``count`` frames are the k frames of the same seed."""
    q, r = np.linalg.qr(_standard_normal(random.Random(seed), (count, 2 * n, 2 * n)))
    return _orthonormal(q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :])


def twistor_form(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The twistor Grams T_f,ab = Tr(R(u_a, u_b) J_u,f) over a stack of
    frames u_f, each antisymmetric: T_f = u_f^T M_f u_f, with R contracted
    first, M_f = R . vec(J_u,f) for J_u,f = u_f J u_f^T."""
    count, N, _ = u.shape
    ut = u.transpose(0, 2, 1)
    ju = (u @ standard_complex_structure(N // 2) @ ut).reshape(count, N * N)
    return ut @ (ju @ r.reshape(N * N, N * N).T).reshape(u.shape) @ u


@dataclass(frozen=True)
class FrameMargin:
    diag_margin: float
    min_singular_value: float


@dataclass(frozen=True)
class TwistorReport:
    verdict: str
    bound: float
    min_diag_margin: float
    min_singular_value: float
    frames: tuple[FrameMargin, ...]
    seed: int

    @property
    def fat(self) -> bool:
        return self.verdict == "fat"


def twistor_fatness(tensor: CurvatureTensor, num_frames: int = 100,
                    seed: int = 0, tol: float = 1e-9) -> TwistorReport:
    """Sample frames and test the twistor form on each.

    A frame passes when every per-index diagonal margin
    |sum_j g(R(X_i, J_u X_i) J_u X_j, X_j)| (the n-term half trace, which
    the pinching bound controls) reaches 1 - (2n+1) epsilon / 3 and the
    full form is numerically nondegenerate.  The verdict is fat only if
    all frames pass.  The frames are one stack: one QR, one contraction
    and one SVD for the whole sweep.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    n = tensor.n
    bound = 1.0 - (2 * n + 1) * tensor.epsilon / 3.0
    t = twistor_form(tensor.R, random_frames(n, num_frames, seed))
    pairs = 2 * np.arange(n)
    diag = np.abs(t[:, pairs, pairs + 1]).min(axis=1) / 2.0
    sv = np.linalg.svd(t, compute_uv=False)
    nondeg = (sv[:, 0] > 0) & (sv[:, -1] > tol * sv[:, 0])
    all_pass = not ((diag < bound - 1e-12) | ~nondeg).any()
    return TwistorReport(
        verdict="fat" if all_pass else "not_fat", bound=bound,
        min_diag_margin=float(diag.min()),
        min_singular_value=float(sv[:, -1].min()),
        frames=tuple(FrameMargin(float(d), float(s)) for d, s in zip(diag, sv[:, -1])),
        seed=seed)
