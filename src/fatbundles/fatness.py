"""Curvature-level fatness oracle and the triple cross-check.

For the canonical invariant connection on H -> G -> G/H the curvature at
the identity is -1/2 [X, Y]_h on the reductive complement m, so a covector
u = B(X_u, .) is fat exactly when the antisymmetric Gram
G_ij = B(X_u, [m_i, m_j]) is nondegenerate.  Three independent tests are
run and must agree: the exact forbidden-wall evaluation (root criterion),
the exact rank of the Gram (oracle, with float singular-value margins
cross-checked where the Gram is well conditioned), and the exact
check that ker(ad_{X_u}) meets m trivially, read off ad_{X_u}|_m for X_u
in h (centralizer criterion).
Disagreement raises, it is never voted away.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import inf

import numpy as np

from .errors import CriteriaDisagree
from .exact import (
    Mat,
    Vec,
    _monomial_columns,
    identity,
    nullspace,
    rank,
    sparse_columns,
    sparse_combination,
    vec,
    vec_mat,
)
from .liealg import LieAlgebra, SubalgebraEmbedding
from .rootdata import SubSystem, fat_by_roots
from .verdicts import FAT, NOT_APPLICABLE, NOT_FAT, Verdict


def _gram_entries(emb: SubalgebraEmbedding) -> list[list[tuple]]:
    """Per h_a, the nonzero entries (i, j, B(h_a, [m_i, m_j])) of G_a, paired
    through the Killing covectors u_ij = K [m_i, m_j]."""
    g = emb.ambient
    h_cols = sparse_columns(emb.h_sparse)  # {a: (h_a)_l} for each index l
    table: list[list] = [[] for _ in emb.h_sparse]
    for (i, j), b in g.sparse_brackets(emb.m_sparse):
        for a, x in sparse_combination(g.sparse_covector(b), h_cols).items():
            table[a] += [(i, j, x), (j, i, -x)]
    return table


def fatness_gram(emb: SubalgebraEmbedding, x_u) -> Mat:
    """Antisymmetric Gram G_ij = B(X_u, [m_i, m_j]) over the m-basis.

    X_u must lie in h; then B(X_u, [X, Y]_h) = B(X_u, [X, Y]) by
    Killing-orthogonality of h and m, so this Gram carries the full
    curvature pairing.  It is sum_a c_a G_a over the h-coordinates c of X_u.
    """
    gram, den = emb.h_linear(_gram_entries, x_u)
    return tuple(tuple(Fraction(v, den) for v in row) for row in gram)


def fat_by_oracle(emb: SubalgebraEmbedding, x_u, tol: float = 1e-9) -> Verdict:
    """Exact nondegeneracy test of the fatness Gram, with float margins.

    Fat iff the integer Gram has rank dim m (never for odd dim m); else
    ``null_vector`` is its first exact kernel vector.  The margins smin,
    smax are its extreme singular values, read off the entries of a
    monomial Gram (every torus X_u), else numpy's SVD of the Gram over a
    power of two above its entries, which then neither overflow nor
    underflow; None past the float range.  When smin > tol * smax the Gram
    is well conditioned, the float SVD calls it fat, and ``certify``
    demands that the exact rank agrees.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gram, den = emb.h_linear(_gram_entries, x_u)
    hit = _monomial_columns(gram)
    if hit is not None:  # the singular values are the |entries|; none if m = 0
        sv = sorted(abs(sum(row)) for row in gram) or [inf]
    else:
        top = 1 << max(abs(v) for row in gram for v in row).bit_length()
        s = np.linalg.svd(np.array([[v / top for v in row] for row in gram]),
                          compute_uv=False)
        sv, den = [Fraction(s[-1]), Fraction(s[0])], Fraction(den, top)
    try:  # int / int and float(Fraction) are correctly rounded
        smin, smax = float(sv[0] / den), float(sv[-1] / den)
    except OverflowError:
        smin = smax = None
    margins = {"min_singular_value": smin, "max_singular_value": smax,
               "well_conditioned": bool(sv[-1]) and sv[0] / sv[-1] > tol}
    if (len(hit) if hit is not None else rank(gram)) == emb.dim_m:
        return Verdict(FAT, **margins,
                       note="" if emb.dim_m else "trivial horizontal space")
    return Verdict(NOT_FAT, null_vector=nullspace(gram)[0], **margins,
                   note="odd dimension" if emb.dim_m % 2 else "")


def isotropy_algebra(g: LieAlgebra, x_u) -> tuple[Vec, ...]:
    """Basis of ker(ad_{X_u}) = {X : [X, X_u] = 0} in g-coordinates."""
    return g.centralizer_in(x_u, identity(g.dim))


def fat_by_centralizer(emb: SubalgebraEmbedding, x_u) -> Verdict:
    """Fat iff ad_{X_u}|_m has no kernel (X_u in h, else DimensionMismatch),
    i.e. the isotropy algebra of the covector stays inside h."""
    rows, _ = emb.ad_m_ints(x_u)
    if not emb.m_basis:
        return Verdict(FAT, note="trivial horizontal space")
    kernel = nullspace(rows)
    if not kernel:
        return Verdict(FAT)
    return Verdict(NOT_FAT, witness_vector=vec_mat(kernel[0], emb.m_basis))


@dataclass(frozen=True, slots=True)
class FatnessCertificate:
    """The triple verdict with witnesses and the oracle's float margins."""

    instance: str
    x_u: Vec
    x_u_torus: Vec | None
    verdict_roots: str
    verdict_oracle: str
    verdict_centralizer: str
    min_singular_value: float | None
    max_singular_value: float | None
    well_conditioned: bool
    witness_root: tuple | None
    null_vector: tuple | None
    centralizer_witness: Vec | None
    agreed: bool
    seed: int | None = None
    oracle_note: str = ""

    @property
    def fat(self) -> bool:
        if not self.agreed:
            raise CriteriaDisagree("certificate did not reach consensus", self)
        for v in (self.verdict_roots, self.verdict_oracle,
                  self.verdict_centralizer):
            if v != NOT_APPLICABLE:
                return v == FAT
        raise CriteriaDisagree("no applicable criterion", self)


def certify(g: LieAlgebra, emb: SubalgebraEmbedding, x_u, *,
            subsystem: SubSystem | None = None, tol: float = 1e-9,
            instance: str = "", seed: int | None = None) -> FatnessCertificate:
    """Run every applicable criterion on X_u and demand consensus.

    The root criterion participates only when a sub-root-system is given
    and X_u lies in the stored torus.  Disagreement, or a well-conditioned
    Gram (fat by the float SVD) that is not fat by its exact rank, raises
    CriteriaDisagree with the full certificate (all witnesses) attached.
    """
    x_u = emb.h_solve(x_u)[0]  # checked, and solved once for every criterion
    tau = emb.torus_coords(x_u)
    if subsystem is not None and tau is not None:
        roots_v = fat_by_roots(tau, subsystem)
    else:
        roots_v = Verdict(NOT_APPLICABLE)
    oracle_v = fat_by_oracle(emb, x_u, tol)
    central_v = fat_by_centralizer(emb, x_u)
    statuses = {v.status for v in (roots_v, oracle_v, central_v)
                if v.status != NOT_APPLICABLE}
    # A well-conditioned Gram is fat by the float SVD: the exact rank agrees.
    agreed = len(statuses) == 1 and not (
        oracle_v.well_conditioned and oracle_v.status == NOT_FAT)
    cert = FatnessCertificate(
        instance=instance,
        x_u=x_u,
        x_u_torus=tau,
        verdict_roots=roots_v.status,
        verdict_oracle=oracle_v.status,
        verdict_centralizer=central_v.status,
        min_singular_value=oracle_v.min_singular_value,
        max_singular_value=oracle_v.max_singular_value,
        well_conditioned=oracle_v.well_conditioned,
        witness_root=roots_v.witness_root,
        null_vector=oracle_v.null_vector,
        centralizer_witness=central_v.witness_vector,
        agreed=agreed,
        seed=seed,
        oracle_note=oracle_v.note,
    )
    if not agreed:
        raise CriteriaDisagree(
            f"{instance or g.name}: criteria disagree on X_u={x_u}", cert)
    return cert


def sample_rational_vectors(rank: int, count: int, seed: int) -> list[Vec]:
    """Deterministic exact-rational samples: numerators in [-9, 9],
    denominators in {1, 2, 3}."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(vec(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                       for _ in range(rank)))
    return out
