"""Invariant coupling forms on homogeneous bundles H/V -> G/V -> G/H.

The form is realized at the identity coset as the orbit two-form
sigma_u(X, Y) = B(X_u, [X, Y]) on the Killing-orthogonal complement of the
isotropy algebra v = ker(ad_{X_u}); G-invariance carries it everywhere.
This realization is closed exactly (Jacobi), restricts to the fiber orbit
form on h, is orthogonal between the fiber and horizontal blocks, and is
nondegenerate exactly when the base covector is fat.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import DegenerateRestriction, OddDimension
from .exact import (
    CoordinateSolver,
    Mat,
    Vec,
    dense_vec,
    det,
    frac,
    int_combination,
    mat,
    nullspace,
    rank,
    sparse_columns,
    sparse_combination,
    sparse_congruence,
    sparse_ints,
    sparse_vec,
)
from .fatness import fat_by_centralizer, fatness_gram
from .liealg import LieAlgebra, SubalgebraEmbedding
from .verdicts import FAT


@dataclass(frozen=True)
class InvariantTwoForm:
    """Gram matrix of an invariant two-form over a basis of the
    complement n of the isotropy algebra v (the form is extended by zero
    on v)."""

    algebra: LieAlgebra
    x_u: Vec
    v_basis: Mat
    n_basis: Mat
    gram: Mat
    scale: Fraction = Fraction(1)

    @property
    def dim(self) -> int:
        return len(self.n_basis)

    def scaled(self, r) -> "InvariantTwoForm":
        r = frac(r)
        return InvariantTwoForm(
            self.algebra, self.x_u, self.v_basis, self.n_basis,
            mat([[r * x for x in row] for row in self.gram]),
            self.scale * r)

    def gram_float(self) -> np.ndarray | None:
        """The Gram in floats; None when an entry is past the float range."""
        try:
            rows = [[float(x) for x in row] for row in self.gram]
        except OverflowError:
            return None
        return np.array(rows, dtype=float).reshape(self.dim, self.dim)

    @functools.cached_property
    def gram_det(self) -> Fraction:  # computed once per form
        if any(len(row) != len(self.gram) for row in self.gram):
            raise ValueError("det needs a square matrix")
        return det([sparse_vec(row) for row in self.gram], len(self.gram))


@dataclass(frozen=True)
class HomogeneousBundleInstance:
    """Splitting data for H/V -> G/V -> G/H at a covector X_u: the
    isotropy v inside h, its complement n, and n = (h cap n) + m."""

    g: LieAlgebra
    emb: SubalgebraEmbedding
    x_u: Vec
    v_basis: Mat
    fiber_basis: Mat   # h cap n
    m_basis: Mat
    isotropy_in_h: bool

    @property
    def n_basis(self) -> Mat:
        return self.fiber_basis + self.m_basis


def _orbit_gram(g: LieAlgebra, x_u: Vec, rows: Mat) -> Mat:
    """Gram of B(x_u, [., .]) over the given rows: R S R^T with the
    pairing matrix S_ab = B(x_u, [e_a, e_b]), in ints over one denominator."""
    s_rows, s_den = g.orbit_pairing(x_u)
    r, r_den = sparse_ints([sparse_vec(row) for row in rows])
    den = s_den * r_den * r_den
    return tuple(tuple(Fraction(row.get(j, 0), den) for j in range(len(r)))
                 for row in sparse_congruence(r, s_rows))


def bundle_instance(g: LieAlgebra, emb: SubalgebraEmbedding, x_u) -> HomogeneousBundleInstance:
    """Build the splitting v, n = (h cap n) + m at X_u in h.

    Raises DimensionMismatch when X_u is not in h, and
    DegenerateRestriction when the Killing form is singular on the
    isotropy algebra (no invariant complement).
    """
    x_u = g.check_vector(x_u)
    # ker ad_{X_u} = (ker cap h) + (ker cap m), as ad_{X_u} keeps h and m;
    # it stays in h (X_u is fat) exactly when ad_{X_u}|_m is invertible.
    in_h = fat_by_centralizer(emb, x_u).status == FAT
    vs = g.centralizer_in(sparse_vec(x_u), emb.h_sparse)
    if vs:
        if rank(sparse_congruence(vs, g._killing_rows)) != len(vs):
            raise DegenerateRestriction("Killing form singular on v")
        # h cap n: elements of h Killing-orthogonal to v, B(v, h_j) = (K v) . h_j.
        h_cols = sparse_columns(emb.h_sparse)
        fiber_rows = tuple(dense_vec(int_combination(c, emb.h_sparse), g.dim) for c in
                           nullspace([sparse_combination(g.sparse_covector(v), h_cols)
                                      for v in vs], emb.dim_h))
    else:
        fiber_rows = emb.h_basis
    return HomogeneousBundleInstance(
        g=g, emb=emb, x_u=x_u, v_basis=tuple(dense_vec(v, g.dim) for v in vs),
        fiber_basis=fiber_rows, m_basis=emb.m_basis, isotropy_in_h=in_h)


def instance_form(inst: HomogeneousBundleInstance) -> InvariantTwoForm:
    """The coupling form over the instance's ordered (fiber, m) basis.
    When X_u is not fat, v is only part of ker(ad_{X_u}) and the form
    picks up a null direction on m."""
    return InvariantTwoForm(inst.g, inst.x_u, inst.v_basis, inst.n_basis,
                            _orbit_gram(inst.g, inst.x_u, inst.n_basis))


@dataclass(frozen=True)
class BlockReport:
    """Structure of the form over the splitting n = (h cap n) + m."""

    fiber_dim: int
    horizontal_dim: int
    cross_block_zero: bool
    # The floats are None when the Gram is past the float range.
    cross_max_abs: float | None
    fiber_min_sv: float | None
    horizontal_min_sv: float | None
    horizontal_equals_fatness_gram: bool
    fiber_to_horizontal_norm_ratio: float | None


def verify_block_structure(inst: HomogeneousBundleInstance,
                           form: InvariantTwoForm) -> BlockReport:
    """Check the fiber/horizontal block structure of a coupling form:
    zero cross block, nondegenerate fiber block (the orbit form of the
    fiber H/V), and horizontal block equal to the fatness Gram."""
    if form.n_basis != inst.n_basis:
        raise ValueError("form is not expressed over the instance basis")
    f = len(inst.fiber_basis)
    k = form.dim
    cross_zero = all(
        form.gram[i][j] == 0 for i in range(f) for j in range(f, k))
    fat_gram = fatness_gram(inst.emb, inst.x_u)
    equals = all(form.gram[f + i][f + j] == form.scale * x
                 for i, row in enumerate(fat_gram) for j, x in enumerate(row))
    gf = form.gram_float()
    if gf is None:  # past the float range: only the exact checks report
        cross_max = fiber_sv = horiz_sv = ratio = None
    else:
        cross = gf[:f, f:]
        cross_max = float(np.abs(cross).max()) if cross.size else 0.0
        fiber_block = gf[:f, :f]
        horiz_block = gf[f:, f:]
        fiber_sv = (float(np.linalg.svd(fiber_block, compute_uv=False)[-1])
                    if f else float("inf"))
        horiz_sv = (float(np.linalg.svd(horiz_block, compute_uv=False)[-1])
                    if k > f else float("inf"))
        fiber_norm = float(np.linalg.norm(fiber_block))
        horiz_norm = float(np.linalg.norm(horiz_block))
        ratio = (fiber_norm / horiz_norm) if horiz_norm else None
    return BlockReport(
        fiber_dim=f,
        horizontal_dim=k - f,
        cross_block_zero=cross_zero,
        cross_max_abs=cross_max,
        fiber_min_sv=fiber_sv,
        horizontal_min_sv=horiz_sv,
        horizontal_equals_fatness_gram=equals,
        fiber_to_horizontal_norm_ratio=ratio,
    )


def ce_closedness(g: LieAlgebra, form: InvariantTwoForm) -> Fraction:
    """Max residual of d sigma over all basis triples of g, with the form
    extended by zero on v:

        d sigma(X,Y,Z) = -sigma([X,Y],Z) - sigma([Y,Z],X) - sigma([Z,X],Y).

    For the orbit form B(X_u, [., .]) this cancels exactly by the Jacobi
    identity; corrupted normalizations show up as a nonzero residual.
    Raises ValueError unless v + n are dim g independent rows of length dim g.
    """
    rows = [*form.v_basis, *form.n_basis]
    if len(rows) != g.dim or any(len(row) != g.dim for row in rows):
        raise ValueError("v + n does not span g")
    try:
        solver = CoordinateSolver([sparse_vec(row) for row in rows])
    except ValueError:
        raise ValueError("v + n does not span g") from None
    # The (v, n) coordinates of e_a; the form sees only the n part, row a
    # of C.  sigma = C G C^T, in ints over den.
    nv = len(form.v_basis)
    c, c_den = sparse_ints([{j - nv: x for j, x in solver.sparse_coords({a: 1}).items()
                             if j >= nv} for a in range(g.dim)])
    gram, g_den = sparse_ints([sparse_vec(row) for row in form.gram])
    residual = g.triple_residual([{(b, 0): s for b, s in row.items()}
                                  for row in sparse_congruence(c, gram)])
    return Fraction(residual, c_den * c_den * g_den)


def nondegenerate_and_top_power(form: InvariantTwoForm, half_dim: int
                                ) -> tuple[float | None, float | None]:
    """(min singular value, |Pfaffian|) of the Gram; a nonzero Pfaffian
    certifies that the top power of the form does not vanish pointwise.
    Either is None when it is past the float range."""
    if form.dim != 2 * half_dim:
        raise OddDimension(
            f"form dimension {form.dim} is not twice {half_dim}")
    if form.dim == 0:
        return float("inf"), 1.0
    gf = form.gram_float()
    min_sv = None if gf is None else float(np.linalg.svd(gf, compute_uv=False)[-1])
    d = form.gram_det
    if d < 0:
        raise ValueError("antisymmetric Gram has negative determinant")
    try:
        pf_abs = sqrt(float(d))
    except OverflowError:
        pf_abs = None
    return min_sv, pf_abs
