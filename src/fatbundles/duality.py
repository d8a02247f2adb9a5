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
    Mat,
    Vec,
    inertia,
    mat,
    rational,
    sparse_vec,
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


def _product(a: dict, b: dict, n: int) -> dict:
    """ab for n x n matrices held as {r * n + c: value}, nonzero only."""
    b_rows: dict[int, list] = {}
    for kb, v in b.items():
        b_rows.setdefault(kb // n, []).append((kb % n, v))
    out: dict = {}
    for ka, u in a.items():
        r, c = divmod(ka, n)
        for t, v in b_rows.get(c, ()):
            k = r * n + t
            out[k] = out[k] + u * v if k in out else u * v
    return {k: rational(x) for k, x in out.items() if x}


def _theta_matrix_action(g: LieAlgebra, t: dict) -> list[dict]:
    """Sparse coordinates of theta(b_i) = T b_i T for every basis element."""
    out = []
    for b in g._flat_solver.sparse_rows:
        c = g._flat_solver.sparse_coords(_product(_product(t, b, g.n), t, g.n))
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
    t = sparse_vec([x for row in t_mat for x in row])
    if _product(t, t, n) != {i * n + i: 1 for i in range(n)}:
        raise InvolutionInvalid("T^2 != identity")
    # T^2 = 1 gives theta^2(X) = T^2 X T^2 = X and T[X, Y]T = [TXT, TYT]:
    # once theta preserves g it is an involutive automorphism of g.
    theta = _theta_matrix_action(g, t)
    d = g.dim
    # Eigenspaces: for the built-in adapted bases theta is diagonal +-1.
    if any(c.keys() - {i} for i, c in enumerate(theta)):
        raise InvolutionInvalid(
            "involution is not diagonal on the basis; rebase the algebra "
            "to a theta-adapted basis first")
    k_idx = [i for i in range(d) if theta[i].get(i) == 1]
    p_idx = [i for i in range(d) if theta[i].get(i) == -1]
    if sorted(k_idx + p_idx) != list(range(d)):
        raise InvolutionInvalid("theta eigenvalues are not +-1")
    if k_idx != list(range(len(k_idx))):
        raise InvolutionInvalid("basis must list the compact part first")
    gram_k = [[g._killing_rows[i].get(j, 0) for j in k_idx] for i in k_idx]
    pos, neg, zero = inertia(gram_k) if k_idx else (0, 0, 0)
    if neg != len(k_idx):
        raise InvolutionInvalid("the +1 eigenspace of theta is not compact")
    if not p_idx:
        return DualPair(g, g, d, t_mat)
    flat = g._flat_solver.sparse_rows
    dual_flat = [flat[i] for i in k_idx] + [_product(flat[i], t, n) for i in p_idx]
    dual = LieAlgebra(f"dual({g.name})",
                      [[[b.get(r * n + c, 0) for c in range(n)] for r in range(n)]
                       for b in dual_flat],
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
    for i, j in sorted(g._structure.keys() | dual._structure.keys()):
        orig = g._structure.get((i, j), {})
        flip = i >= k_dim  # i < j, so (i, j) is a pair in p
        if flip and any(k >= k_dim for k in orig):
            raise InvolutionInvalid("[p, p] is not contained in k")
        if dual._structure.get((i, j), {}) != {k: -v if flip else v
                                               for k, v in orig.items()}:
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


def dual_subsystems(pair: DualPair, emb_nc: SubalgebraEmbedding,
                    emb_c: SubalgebraEmbedding, rs: RootSystem) -> tuple:
    """The sub-root-systems of h in both algebras of a dual pair, whose
    forbidden sets must coincide: the root criterion is literally shared."""
    sub_nc = detect_subsystem(pair.noncompact, emb_nc, rs)
    sub_c = detect_subsystem(pair.compact_dual, emb_c, rs)
    if sub_nc.forbidden != sub_c.forbidden:
        raise InvolutionInvalid("dual pair disagrees on the forbidden set")
    return sub_nc, sub_c


def compare_fat_sets(pair: DualPair, emb_nc: SubalgebraEmbedding,
                     emb_c: SubalgebraEmbedding, rs: RootSystem,
                     samples: int, seed: int, *, tol: float = 1e-9,
                     subsystems: tuple | None = None) -> AgreementReport:
    """Certify sampled torus covectors in both algebras of a dual pair
    and report verdict agreement (with counterexamples, none expected).

    Each sample is a three-way consistency check across both algebras,
    on the ``dual_subsystems`` (detected from ``rs`` when not given).
    """
    sub_nc, sub_c = subsystems or dual_subsystems(pair, emb_nc, emb_c, rs)
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
