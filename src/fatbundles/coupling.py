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
from math import inf, sqrt

from .errors import DegenerateRestriction, OddDimension
from .exact import (
    CoordinateSolver,
    Vec,
    det,
    frac,
    int_combination,
    nullspace,
    rank,
    sparse_columns,
    sparse_combination,
    sparse_congruence,
    sparse_ints,
    sparse_vec,
    split_table,
)
from .fatness import _decide, _gram_entries, fat_by_centralizer
from .liealg import LieAlgebra, SubalgebraEmbedding
from .verdicts import FAT


@dataclass(frozen=True)
class HomogeneousBundleInstance:
    """Splitting data for H/V -> G/V -> G/H at a covector X_u: the
    isotropy v inside h, its complement n, and n = (h cap n) + m, as sparse
    rows of g (ints on int h rows); m is the embedding's ``m_sparse``."""

    g: LieAlgebra
    emb: SubalgebraEmbedding
    x_u: Vec
    v_sparse: list[dict]
    fiber_sparse: list[dict]   # h cap n
    isotropy_in_h: bool

    @property
    def n_sparse(self) -> list[dict]:
        return [*self.fiber_sparse, *self.emb.m_sparse]


@dataclass(frozen=True)
class InvariantTwoForm:
    """Gram matrix of an invariant two-form over the instance's n rows (the
    form is extended by zero on v): ``gram`` / ``den``, its rows sparse
    {column: int} with no zero entries."""

    instance: HomogeneousBundleInstance
    gram: list[dict]
    den: int
    scale: Fraction = Fraction(1)

    @property
    def dim(self) -> int:
        return len(self.gram)

    def scaled(self, r) -> "InvariantTwoForm":
        p, q = (r := frac(r)).numerator, r.denominator
        # With r = 0 every row is empty: a stored zero would read as an entry.
        return InvariantTwoForm(self.instance,
                                [{j: x * p for j, x in row.items() if p} for row in self.gram],
                                self.den * q, self.scale * r)

    @functools.cached_property
    def gram_det(self) -> Fraction:  # computed once per form
        return det(self.gram, self.dim) / self.den ** self.dim


def _orbit_gram(g: LieAlgebra, x_u: Vec, rows) -> tuple[list[dict], int]:
    """(G, den): the Gram G / den of B(x_u, [., .]) over the sparse rows,
    R S R^T with the pairing matrix S_ab = B(x_u, [e_a, e_b]), its rows
    sparse {column: int}."""
    s_rows, s_den = g.orbit_pairing(x_u)
    r, r_den = sparse_ints(rows)
    gram, den = sparse_ints(sparse_congruence(r, s_rows))
    return gram, den * s_den * r_den * r_den


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
    fiber = emb.h_sparse
    if vs:
        if rank(sparse_congruence(vs, g._killing_rows)) != len(vs):
            raise DegenerateRestriction("Killing form singular on v")
        # h cap n: elements of h Killing-orthogonal to v, B(v, h_j) = (K v) . h_j.
        h_cols = sparse_columns(emb.h_sparse)
        fiber = [int_combination(c, emb.h_sparse) for c in
                 nullspace([sparse_combination(g.sparse_covector(v), h_cols)
                            for v in vs], emb.dim_h)]
    return HomogeneousBundleInstance(g=g, emb=emb, x_u=x_u, v_sparse=vs,
                                     fiber_sparse=fiber, isotropy_in_h=in_h)


def instance_form(inst: HomogeneousBundleInstance) -> InvariantTwoForm:
    """The coupling form over the instance's ordered (fiber, m) rows.
    When X_u is not fat, v is only part of ker(ad_{X_u}) and the form
    picks up a null direction on m."""
    return InvariantTwoForm(inst, *_orbit_gram(inst.g, inst.x_u, inst.n_sparse))


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


def _min_sv(entries: dict, k: int):
    """Smallest singular value of a k x k int matrix read off per component,
    as the fatness Gram's (``_decide``): 0 below full rank, inf at k = 0."""
    sv: list = []
    r, _ = _decide([(idx, mono, t) for idx, mono, (t,) in split_table([entries], k)], sv)
    return min(sv, default=inf) if r == k else 0


def _floats(form: InvariantTwoForm, *values) -> list[float]:
    """Each value / den as a float, correctly rounded; OverflowError once a
    Gram entry is past the float range, where every report float is None."""
    top = max((abs(x) for row in form.gram for x in row.values()), default=0)
    return [float(v / form.den) for v in (top, *values)][1:]


def verify_block_structure(form: InvariantTwoForm) -> BlockReport:
    """Check the fiber/horizontal block structure of a coupling form:
    zero cross block, nondegenerate fiber block (the orbit form of the
    fiber H/V), and horizontal block equal to the fatness Gram's ``linear``
    parts; the floats are read off the ints, as ``_min_sv`` and int / int."""
    inst, k, gram = form.instance, form.dim, form.gram
    f = len(inst.fiber_sparse)
    fiber = {(a, j): x for a, row in enumerate(gram[:f]) for j, x in row.items() if j < f}
    horiz = {(a, j - f): x for a, row in enumerate(gram[f:]) for j, x in row.items() if j >= f}
    cross = [abs(x) for row in gram[:f] for j, x in row.items() if j >= f]
    # G / den == scale * F / fden on m, compared in ints with scale = p / q.
    parts, fden = inst.emb.linear(_gram_entries, inst.x_u)
    p, q = form.scale.numerator, form.scale.denominator
    fat_gram = {(idx[i], idx[j]): v * p * form.den
                for idx, _, e in parts for (i, j), v in e.items() if p}
    equals = fat_gram == {key: x * q * fden for key, x in horiz.items()}
    fiber_sq, horiz_sq = (sum(x * x for x in b.values()) for b in (fiber, horiz))
    try:
        cross_max, fiber_sv, horiz_sv = _floats(
            form, max(cross, default=0), _min_sv(fiber, f), _min_sv(horiz, k - f))
        ratio = sqrt(fiber_sq / horiz_sq) if horiz_sq else None
    except OverflowError:  # past the float range: only the exact checks report
        cross_max = fiber_sv = horiz_sv = ratio = None
    return BlockReport(
        fiber_dim=f,
        horizontal_dim=k - f,
        cross_block_zero=not cross,
        cross_max_abs=cross_max,
        fiber_min_sv=fiber_sv,
        horizontal_min_sv=horiz_sv,
        horizontal_equals_fatness_gram=equals,
        fiber_to_horizontal_norm_ratio=ratio,
    )


def ce_closedness(form: InvariantTwoForm) -> Fraction:
    """Max residual of d sigma over all basis triples of g, with the form
    extended by zero on v:

        d sigma(X,Y,Z) = -sigma([X,Y],Z) - sigma([Y,Z],X) - sigma([Z,X],Y).

    For the orbit form B(X_u, [., .]) this cancels exactly by the Jacobi
    identity; corrupted normalizations show up as a nonzero residual.
    Raises ValueError unless v + n are dim g independent rows of g.
    """
    inst = form.instance
    g, rows, nv = inst.g, [*inst.v_sparse, *inst.n_sparse], len(inst.v_sparse)
    if len(rows) != g.dim or any(i >= g.dim for row in rows for i in row):
        raise ValueError("v + n does not span g")
    try:
        solver = CoordinateSolver(rows)
    except ValueError:
        raise ValueError("v + n does not span g") from None
    # The (v, n) coordinates of e_a; the form sees only the n part, row a
    # of C.  sigma = C G C^T, in ints over den.
    c, c_den = sparse_ints([{j - nv: x for j, x in solver.sparse_coords({a: 1}).items()
                             if j >= nv} for a in range(g.dim)])
    residual = g.triple_residual([{(b, 0): s for b, s in row.items()}
                                  for row in sparse_congruence(c, form.gram)])
    return Fraction(residual, c_den * c_den * form.den)


def nondegenerate_and_top_power(form: InvariantTwoForm
                                ) -> tuple[float | None, float | None]:
    """(min singular value (``_min_sv``), |Pfaffian|) of the Gram of an even
    dimension form; a nonzero Pfaffian certifies that its top power does not
    vanish pointwise.  Either is None when it is past the float range."""
    if form.dim % 2:
        raise OddDimension(f"form dimension {form.dim} is odd")
    entries = {(a, j): x for a, row in enumerate(form.gram) for j, x in row.items()}
    try:
        (min_sv,) = _floats(form, _min_sv(entries, form.dim))
    except OverflowError:
        min_sv = None
    d = form.gram_det
    if d < 0:
        raise ValueError("antisymmetric Gram has negative determinant")
    try:
        pf_abs = sqrt(float(d))
    except OverflowError:
        pf_abs = None
    return min_sv, pf_abs
