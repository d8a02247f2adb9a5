"""Compact/noncompact duality of symmetric pairs at structure-constant
level, and verification that dual pairs have identical fat sets.

Given a Cartan involution theta(X) = T X T with T symmetric, T^2 = 1, the
compact dual of g = k + p is realized on explicit matrices: k unchanged
and p replaced by p T.  These matrices close with exactly the
sign-flipped [p, p] structure constants (the k + ip dual), so no
complexification machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvolutionInvalid
from .exact import (
    ZERO,
    Mat,
    Vec,
    inertia,
    mat,
    mat_mul,
)
from .fatness import certify, sample_rational_vectors
from .liealg import (
    LieAlgebra,
    SubalgebraEmbedding,
    killing_signature,
    reductive_split,
)
from .rootdata import RootSystem, detect_subsystem


@dataclass(frozen=True)
class DualPair:
    """A noncompact algebra with its compact dual on a shared adapted
    basis: the first k_dim basis elements span the common compact part k
    and have identical brackets in both algebras."""

    noncompact: LieAlgebra
    compact_dual: LieAlgebra
    k_dim: int
    involution: Mat


def _theta_matrix_action(g: LieAlgebra, t_mat: Mat) -> list[Vec]:
    """Coordinates of theta(b_i) = T b_i T for every basis element."""
    out = []
    for b in g.basis:
        img = mat_mul(mat_mul(t_mat, b), t_mat)
        c = g.coords_of_matrix(img)
        if c is None:
            raise InvolutionInvalid("conjugation does not preserve the algebra")
        out.append(c)
    return out


def dualize(g: LieAlgebra, involution) -> DualPair:
    """Build the compact dual of g along a matrix Cartan involution.

    ``involution`` is the conjugating matrix T (for so(p,q): the
    indefinite-metric matrix with q trailing -1 entries).  Validates
    theta^2 = id, that theta is an automorphism and that its +1 eigenspace
    k is compact; the dual flips the sign of the [p, p] constants and is
    verified exactly, so dualizing twice restores the original algebra.
    """
    t_mat = mat(involution)
    n = g.n
    if len(t_mat) != n or any(len(r) != n for r in t_mat):
        raise InvolutionInvalid("involution matrix has the wrong shape")
    t_sq = mat_mul(t_mat, t_mat)
    if t_sq != tuple(tuple(ZERO if i != j else t_sq[i][i] for j in range(n))
                     for i in range(n)) or any(t_sq[i][i] != 1 for i in range(n)):
        raise InvolutionInvalid("T^2 != identity")
    # T^2 = 1 gives theta^2(X) = T^2 X T^2 = X and T[X, Y]T = [TXT, TYT]:
    # once theta preserves g it is an involutive automorphism of g.
    theta_rows = mat(_theta_matrix_action(g, t_mat))
    d = g.dim
    # Eigenspaces: for the built-in adapted bases theta is diagonal +-1.
    diag = all(theta_rows[i][j] == 0 for i in range(d) for j in range(d) if i != j)
    if not diag:
        raise InvolutionInvalid(
            "involution is not diagonal on the basis; rebase the algebra "
            "to a theta-adapted basis first")
    k_idx = [i for i in range(d) if theta_rows[i][i] == 1]
    p_idx = [i for i in range(d) if theta_rows[i][i] == -1]
    if sorted(k_idx + p_idx) != list(range(d)):
        raise InvolutionInvalid("theta eigenvalues are not +-1")
    if k_idx != list(range(len(k_idx))):
        raise InvolutionInvalid("basis must list the compact part first")
    gram_k = tuple(tuple(g.killing[i][j] for j in k_idx) for i in k_idx)
    pos, neg, zero = inertia(gram_k) if k_idx else (0, 0, 0)
    if neg != len(k_idx):
        raise InvolutionInvalid("the +1 eigenspace of theta is not compact")
    if not p_idx:
        return DualPair(g, g, d, t_mat)
    dual_basis = [g.basis[i] for i in k_idx]
    dual_basis += [mat_mul(g.basis[i], t_mat) for i in p_idx]
    dual = LieAlgebra(f"dual({g.name})", dual_basis,
                      family=g.family, params=g.params)
    _verify_flip(g, dual, len(k_idx))
    neg_in, _, _ = killing_signature(g)
    neg_out, _, _ = killing_signature(dual)
    # Exactly one side of a nontrivial dual pair is the compact form.
    if (neg_in == d) == (neg_out == d):
        raise InvolutionInvalid("dualization did not switch compactness")
    if neg_in == d:
        return DualPair(dual, g, len(k_idx), t_mat)
    return DualPair(g, dual, len(k_idx), t_mat)


def _verify_flip(g: LieAlgebra, dual: LieAlgebra, k_dim: int) -> None:
    """The dual constants must equal the originals with the k-components
    of [p, p] brackets sign-flipped."""
    d = g.dim
    for i in range(d):
        for j in range(i + 1, d):
            orig = g._structure.get((i, j), {})
            new = dual._structure.get((i, j), {})
            flip = i >= k_dim and j >= k_dim
            expect = {}
            for k, v in orig.items():
                expect[k] = -v if (flip and k < k_dim) else v
            if flip and any(k >= k_dim for k in orig):
                raise InvolutionInvalid("[p, p] is not contained in k")
            if new != expect:
                raise InvolutionInvalid(
                    f"dual constants differ from the sign flip at ({i}, {j})")


def standard_involution(g: LieAlgebra) -> Mat:
    """The Cartan involution matrix of a built-in so(p,q)."""
    if g.family != "so" or len(g.params) != 2:
        raise InvolutionInvalid(f"no standard involution for {g.name}")
    p, q = g.params
    rows = [[0] * (p + q) for _ in range(p + q)]
    for i in range(p):
        rows[i][i] = 1
    for i in range(p, p + q):
        rows[i][i] = -1
    return mat(rows)


@dataclass(frozen=True)
class SamplePair:
    tau: Vec
    verdict_noncompact: str
    verdict_compact: str
    min_sv_noncompact: float | None
    min_sv_compact: float | None

    @property
    def agree(self) -> bool:
        return self.verdict_noncompact == self.verdict_compact


@dataclass(frozen=True)
class AgreementReport:
    pair_name: str
    samples: tuple[SamplePair, ...]
    seed: int

    @property
    def total(self) -> int:
        return len(self.samples)

    @property
    def agreed(self) -> int:
        return sum(1 for s in self.samples if s.agree)

    @property
    def agreement_fraction(self) -> float:
        return self.agreed / self.total if self.samples else 1.0

    @property
    def counterexamples(self) -> tuple[SamplePair, ...]:
        return tuple(s for s in self.samples if not s.agree)


def pair_embeddings(pair: DualPair, h_rows, torus_rows
                    ) -> tuple[SubalgebraEmbedding, SubalgebraEmbedding]:
    """The shared subalgebra h (coordinates valid in both algebras) as an
    embedding in the noncompact algebra and in its compact dual."""
    emb_nc = reductive_split(pair.noncompact, h_rows, torus_basis=torus_rows,
                             name=f"h<{pair.noncompact.name}")
    emb_c = reductive_split(pair.compact_dual, h_rows, torus_basis=torus_rows,
                            name=f"h<{pair.compact_dual.name}")
    return emb_nc, emb_c


def compare_fat_sets(pair: DualPair, emb_nc: SubalgebraEmbedding,
                     emb_c: SubalgebraEmbedding, rs: RootSystem,
                     samples: int, seed: int, *,
                     tol: float = 1e-9) -> AgreementReport:
    """Certify sampled torus covectors in both algebras of a dual pair
    and report verdict agreement (with counterexamples, none expected).

    The root criterion is literally shared: the detected forbidden sets
    must coincide, so each sample is a three-way consistency check across
    both algebras.
    """
    sub_nc = detect_subsystem(pair.noncompact, emb_nc, rs)
    sub_c = detect_subsystem(pair.compact_dual, emb_c, rs)
    if sub_nc.forbidden != sub_c.forbidden:
        raise InvolutionInvalid("dual pair disagrees on the forbidden set")
    rank = len(emb_nc.torus_basis)
    out = []
    for tau in sample_rational_vectors(rank, samples, seed):
        c_nc = certify(pair.noncompact, emb_nc, emb_nc.torus_vector(tau),
                       subsystem=sub_nc, tol=tol, seed=seed)
        c_c = certify(pair.compact_dual, emb_c, emb_c.torus_vector(tau),
                      subsystem=sub_c, tol=tol, seed=seed)
        out.append(SamplePair(
            tau=tau,
            verdict_noncompact=c_nc.verdict_oracle,
            verdict_compact=c_c.verdict_oracle,
            min_sv_noncompact=c_nc.min_singular_value,
            min_sv_compact=c_c.min_singular_value,
        ))
    name = f"{pair.noncompact.name} ~ {pair.compact_dual.name}"
    return AgreementReport(pair_name=name, samples=tuple(out), seed=seed)
