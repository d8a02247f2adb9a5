"""Curvature-level fatness oracle and the triple cross-check.

For the canonical invariant connection on H -> G -> G/H the curvature at
the identity is -1/2 [X, Y]_h on the reductive complement m, so a covector
u = B(X_u, .) is fat exactly when the antisymmetric Gram
G_ij = B(X_u, [m_i, m_j]) is nondegenerate.  Three independent tests are
run and must agree: the exact forbidden-wall evaluation (root criterion),
the exact rank of the Gram (oracle, with float singular-value margins
cross-checked where the Gram is well conditioned), and the exact
check that ker(ad_{X_u}) meets m trivially, read off ad_{X_u}|_m for X_u
in h (centralizer criterion); the Gram and ad_{X_u}|_m are decided one
connected component of their support at a time.
Disagreement raises, it is never voted away.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt

import numpy as np

from .errors import CriteriaDisagree
from .exact import (
    Mat,
    Vec,
    dense_mat,
    dense_vec,
    entry_rows,
    identity,
    int_combination,
    nullspace,
    pfaffian4,
    rank,
    sparse_columns,
    vec,
)
from .liealg import LieAlgebra, SubalgebraEmbedding
from .rootdata import SubSystem, fat_by_roots
from .verdicts import FAT, FAT_VERDICT, NOT_APPLICABLE, NOT_FAT, Verdict


def _gram_entries(emb: SubalgebraEmbedding, rows) -> list[dict]:
    """Per row y (an h_a or a torus T_i), the nonzero entries {(i, j): B(y,
    [m_i, m_j])} of its Gram, the brackets paired with the covectors K y."""
    g = emb.ambient
    cols = sparse_columns([g.sparse_covector(y) for y in rows])
    table: list[dict] = [{} for _ in rows]
    for (i, j), b in g.sparse_brackets(emb.m_sparse):
        for a, x in int_combination(b, cols).items():
            table[a][i, j], table[a][j, i] = x, -x
    return table


def fatness_gram(emb: SubalgebraEmbedding, x_u) -> Mat:
    """Antisymmetric Gram G_ij = B(X_u, [m_i, m_j]) over the m-basis.

    X_u must lie in h; then B(X_u, [X, Y]_h) = B(X_u, [X, Y]) by
    Killing-orthogonality of h and m, so this Gram carries the full
    curvature pairing.  It is ``linear``'s parts of the Gram put together.
    """
    parts, den = emb.linear(_gram_entries, x_u)
    gram = {(idx[i], idx[j]): v for idx, _, e in parts for (i, j), v in e.items()}
    return tuple(tuple(Fraction(v, den) for v in row) for row in dense_mat(gram, emb.dim_m))


def _decide(parts, sv: list | None = None) -> tuple[int, dict | None]:
    """(rank, nullspace's first vector {column: int} or None, that of the
    lowest free column) of ``linear`` parts, each decided alone: a monomial
    part by its entries and the columns they miss, an antisymmetric 4-row
    one by its Pfaffian, any other by elimination.  Each adds to ``sv`` its
    extreme singular values: its |entries|; sqrt(y) and |Pf| / sqrt(y) to
    2^-64, y the larger root of y^2 - N y + Pf^2; or numpy's SVD."""
    total, kernels = 0, []
    for idx, mono, e in parts:
        k = len(idx)
        if mono:
            r = len(e)
            if sv is not None:
                sv += map(abs, e.values())
        elif k == 4 and (npf := pfaffian4(e)):
            n, pf = npf
            r = 4 if pf else 2 if e else 0
            if sv is not None and e:
                s = isqrt(((n << 128) + isqrt((n * n - 4 * pf * pf) << 256)) >> 1)
                sv += [Fraction(s, 1 << 64), Fraction(abs(pf) << 64, s)]
        else:
            r = rank(rows := entry_rows(e, k))
            if sv is not None and e:
                top = 1 << max(map(abs, e.values())).bit_length()
                s = np.linalg.svd(np.array([[row.get(j, 0) / top for j in range(k)]
                                            for row in rows]), compute_uv=False)
                sv += [Fraction(s[-1]) * top, Fraction(s[0]) * top]
        if r < k and mono:
            f = idx[min({*range(k)} - {j for _, j in e})]
            kernels.append((f, {f: 1}))
        elif r < k:
            null = nullspace(entry_rows(e, k), k)[0]
            kernels.append((idx[max(null)], {idx[c]: v for c, v in null.items()}))
        total += r
    return total, min(kernels)[1] if kernels else None


def fat_by_oracle(emb: SubalgebraEmbedding, x_u, tol: float = 1e-9) -> Verdict:
    """Exact nondegeneracy test of the fatness Gram, with float margins.

    Fat iff the integer Gram has rank dim m (never for odd dim m); else
    ``null_vector`` is its first exact kernel vector.  The Gram is decided
    per component of its support (``_decide``), never as a whole: on a
    torus X_u each one is read off or decided by its Pfaffian.  The margins
    smin, smax are the components' extreme singular values, a zero per
    missing pivot, over the Gram's denominator; None past the float range.
    When smin > tol * smax the Gram is well conditioned, the float SVD calls
    it fat, and ``certify`` demands that the exact rank agrees.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    parts, den = emb.linear(_gram_entries, x_u)
    k, sv = emb.dim_m, []
    r, null = _decide(parts, sv)
    lo, hi = (0 if r < k else min(sv), max(sv, default=0)) if k else (inf, inf)
    try:  # int / int and float(Fraction) are correctly rounded
        smin, smax = float(lo / den), float(hi / den)
    except OverflowError:
        smin = smax = None
    margins = {"min_singular_value": smin, "max_singular_value": smax,
               "well_conditioned": bool(hi) and lo / hi > tol}
    if r == k:
        return Verdict(FAT, **margins,
                       note="" if k else "trivial horizontal space")
    return Verdict(NOT_FAT, null_vector=dense_vec(null, k), **margins,
                   note="odd dimension" if k % 2 else "")


def isotropy_algebra(g: LieAlgebra, x_u) -> tuple[Vec, ...]:
    """Basis of ker(ad_{X_u}) = {X : [X, X_u] = 0} in g-coordinates."""
    return g.centralizer_in(x_u, identity(g.dim))


def fat_by_centralizer(emb: SubalgebraEmbedding, x_u) -> Verdict:
    """Fat iff ad_{X_u}|_m has no kernel (X_u in h, else DimensionMismatch),
    i.e. the isotropy algebra of the covector stays inside h, decided per
    component (``_decide``); the witness is its first kernel vector in g."""
    parts, _ = emb.linear(SubalgebraEmbedding._ad_entries, x_u)
    if not emb.m_basis:
        return Verdict(FAT, note="trivial horizontal space")
    _, kernel = _decide(parts)
    if kernel is None:
        return FAT_VERDICT
    return Verdict(NOT_FAT, witness_vector=emb.m_basis[min(kernel)] if len(kernel) == 1 else
                   dense_vec(int_combination(kernel, emb.m_sparse), emb.ambient.dim))


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

    X_u is solved once, into the embedding's ``solve`` record that the
    criteria read.  The root criterion participates only when a
    sub-root-system is given and X_u lies in the stored torus, and reads
    tau's ints.  Disagreement, or a well-conditioned Gram (fat by the float
    SVD) that is not fat by its exact rank, raises CriteriaDisagree with the
    full certificate (all witnesses) attached.
    """
    x_u, _, _, tau, t, _ = emb.solve(x_u)  # checked, solved once for all
    roots_v = (fat_by_roots(list(t.values()), subsystem)
               if subsystem is not None and tau is not None else Verdict(NOT_APPLICABLE))
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
