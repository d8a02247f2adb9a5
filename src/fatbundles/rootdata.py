"""Exact root-system combinatorics.

Classical root systems in the block-torus coordinates t_i, detection of
the sub-root-system of an embedded subalgebra, the forbidden-wall test
for fatness, centralizing-vector construction from fundamental coweights,
and the moment-polytope shift.  Everything here is exact rational
arithmetic; a wall test never returns a float.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatch, NotCompact, TorusMismatch
from .exact import (
    ZERO,
    Vec,
    entry_rows,
    frac,
    inverse,
    rank,
    rational,
    sparse_combination,
    sparse_ints,
    vec,
)
from .liealg import LieAlgebra, SubalgebraEmbedding
from .verdicts import FAT_VERDICT, NOT_FAT, Verdict

Root = tuple[int, ...]


@dataclass(frozen=True)
class RootSystem:
    """A classical root system with exact integer root vectors."""

    type_label: str
    rank: int
    roots: tuple[Root, ...]
    simple_roots: tuple[Root, ...]

    @property
    def coord_dim(self) -> int:
        # Type A uses the trace-zero model in rank+1 coordinates.
        return self.rank + 1 if self.type_label == "A" else self.rank


def _sorted_roots(roots) -> tuple[Root, ...]:
    return tuple(sorted(set(map(tuple, roots))))


@functools.lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Roots of A_n (trace-zero model), B_n, C_n or D_n."""
    n = rank
    if type_label not in ("A", "B", "C", "D"):
        raise ValueError(f"unsupported root system type {type_label!r}")
    least = 2 if type_label == "D" else 1
    if n < least:
        raise ValueError(f"{type_label}_n needs rank >= {least}")
    dim = n + 1 if type_label == "A" else n

    def root(*entries) -> Root:  # the vector with the given (index, value)s
        r = [0] * dim
        for i, v in entries:
            r[i] = v
        return tuple(r)

    # e_i - e_{i+1}, then for B, C and D the last simple root.
    simple = [root((i, 1), (i + 1, -1)) for i in range(dim - 1)]
    if type_label == "A":
        roots = [root((i, 1), (j, -1))
                 for i in range(dim) for j in range(dim) if i != j]
    else:  # the long roots +-e_i +- e_j, and for B and C the short ones
        roots = [root((i, si), (j, sj)) for i in range(n) for j in range(i + 1, n)
                 for si in (1, -1) for sj in (1, -1)]
        if type_label == "D":
            simple.append(root((n - 2, 1), (n - 1, 1)))
        else:
            short = 1 if type_label == "B" else 2
            roots += [root((i, s)) for i in range(n) for s in (short, -short)]
            simple.append(root((n - 1, short)))
    return RootSystem(type_label, n, _sorted_roots(roots), tuple(simple))


def root_system_for(g: LieAlgebra) -> RootSystem:
    """Root system of the complexification of a built-in so algebra."""
    if g.family != "so":
        raise ValueError(f"no root data convention for {g.name}")
    n = g.n if len(g.params) == 1 else sum(g.params)
    if n % 2:
        return build_root_system("B", n // 2)
    return build_root_system("D", n // 2)


@dataclass(frozen=True)
class SubSystem:
    """The roots of a subalgebra h inside a parent system, together with
    the complementary (forbidden) roots supported on m."""

    parent: RootSystem
    member_roots: tuple[Root, ...]
    forbidden: tuple[Root, ...]

    @functools.cached_property
    def walls(self) -> tuple[Root, ...]:
        """The first of each {alpha, -alpha} in ``forbidden``, in its order."""
        at = {r: i for i, r in enumerate(self.forbidden)}
        return tuple(r for i, r in enumerate(self.forbidden)
                     if at.get(tuple(-c for c in r), i) >= i)


def subsystem_from_members(parent: RootSystem, members) -> SubSystem:
    members = _sorted_roots(members)
    member_set = set(members)
    if not member_set <= set(parent.roots):
        raise ValueError("member roots are not roots of the parent system")
    if any(tuple(-c for c in r) not in member_set for r in members):
        raise ValueError("member roots are not closed under negation")
    forbidden = tuple(r for r in parent.roots if r not in member_set)
    return SubSystem(parent, members, forbidden)


def root_eval(root, x) -> Fraction:
    """alpha(x), exactly, over the nonzero integer entries of alpha."""
    return sum((frac(b) * a for a, b in zip(root, x) if a), ZERO)


def _canonical_pairs(roots) -> list[Root]:
    """One representative per {alpha, -alpha} pair, deterministic order."""
    reps = set()
    for r in roots:
        neg = tuple(-c for c in r)
        reps.add(max(r, neg))
    return sorted(reps)


def _generic_torus_combination(pairs, rank: int) -> Vec:
    """A rational lambda with alpha(lambda) nonzero and |alpha(lambda)|
    pairwise distinct across root pairs (exactly verified)."""
    for base in (3, 5, 7, 11, 13, 17, 19, 23):
        lam = vec(Fraction(base) ** i for i in range(rank))
        vals = [abs(root_eval(r, lam)) for r in pairs]
        if all(vals) and len(set(vals)) == len(vals):
            return lam
    raise TorusMismatch("could not separate the candidate roots")


def detect_subsystem(g: LieAlgebra, emb: SubalgebraEmbedding,
                     rs: RootSystem) -> SubSystem:
    """Split the parent roots into those of h and the forbidden set.

    The torus of the embedding must follow the block convention of ``rs``
    (same rank, matching coordinates).  The forbidden roots are found from
    the 2-dimensional isotypic blocks of ad restricted to the torus acting
    on m: the pair {alpha, -alpha} is forbidden exactly when
    ad_xi^2 + alpha(xi)^2 is singular on m for a generic torus element xi.
    """
    if emb.torus_basis is None:
        raise NotCompact(f"{emb.name}: embedding carries no torus")
    if len(emb.torus_basis) != rs.rank or rs.coord_dim != rs.rank:
        raise TorusMismatch(
            f"torus rank {len(emb.torus_basis)} does not match {rs.type_label}_{rs.rank}")
    pairs = _canonical_pairs(rs.roots)
    lam = _generic_torus_combination(pairs, rs.rank)
    xi = emb.torus_vector(lam)
    k = emb.dim_m
    if k == 0:
        return subsystem_from_members(rs, rs.roots)
    if emb.h_coords(xi) is None:
        raise TorusMismatch("torus is not contained in h")
    d_entries, den = emb.ad_m_entries(xi)
    d = entry_rows(d_entries, k)
    d_sq = [sparse_combination(row, d) for row in d]
    forbidden_pairs = []
    accounted = 0
    for rep in pairs:
        # D^2 + (val den)^2 I is den^2 ((D/den)^2 + val^2 I).
        v2 = rational((root_eval(rep, lam) * den) ** 2)
        shifted = [{**row, i: row.get(i, 0) + v2} for i, row in enumerate(d_sq)]
        defect = k - rank(shifted)
        if defect:
            forbidden_pairs.append(rep)
            accounted += defect
    if accounted != k:
        raise TorusMismatch(
            f"torus eigenvalues on m cover {accounted} of {k} dimensions; "
            "the joint eigenvalues do not match the given root system")
    forbidden = set()
    for rep in forbidden_pairs:
        forbidden.add(rep)
        forbidden.add(tuple(-c for c in rep))
    members = [r for r in rs.roots if r not in forbidden]
    return SubSystem(rs, _sorted_roots(members), _sorted_roots(forbidden))


def fat_by_roots(x, sub: SubSystem) -> Verdict:
    """Forbidden-wall test: fat iff alpha(x) != 0 for every forbidden root
    alpha, else the first root on a wall is the witness.  x is cleared of
    denominators once (ints are kept), and each {alpha, -alpha} read once."""
    if not all(type(a) is int for a in x):
        x = sparse_ints([dict(enumerate(vec(x)))])[0][0].values()
    for root in sub.walls:
        if not sum(map(mul, root, x)):
            return Verdict(NOT_FAT, witness_root=root)
    return FAT_VERDICT


# -- centralizing vectors (Levi subsets of simple roots) --------------------

def fundamental_coweights(rs: RootSystem) -> tuple[Vec, ...]:
    """Vectors w_i with alpha_j(w_i) = delta_ij; for type A the trace-zero
    representative is returned.  They are the first rows of the inverse of
    the transposed simple roots (with the all-ones row for type A)."""
    rows = [*rs.simple_roots] + ([(1,) * rs.coord_dim] if rs.type_label == "A" else [])
    return inverse([*zip(*rows)])[:len(rs.simple_roots)]


def span_subsystem(rs: RootSystem, subset) -> tuple[Root, ...]:
    """Roots lying in the integer span of a subset of simple roots (the
    Levi sub-system generated by the subset).  A root's coefficient on the
    i-th simple root is its value at the i-th fundamental coweight."""
    subset = set(map(tuple, subset))
    outside = [w for s, w in zip(rs.simple_roots, fundamental_coweights(rs))
               if s not in subset]
    return _sorted_roots(r for r in rs.roots
                         if not any(root_eval(r, w) for w in outside))


def find_centralizing_vector(rs: RootSystem, subset) -> Vec:
    """An exact torus vector vanishing on the sub-system generated by the
    given simple roots and nonzero on every other root (the sum of the
    fundamental coweights of the complementary simple roots).  The output
    is verified before being returned."""
    subset = set(map(tuple, subset))
    if not subset <= set(rs.simple_roots):
        raise ValueError("subset must consist of simple roots")
    coweights = fundamental_coweights(rs)
    x = [ZERO] * rs.coord_dim
    for s, w in zip(rs.simple_roots, coweights):
        if s not in subset:
            for k, v in enumerate(w):
                x[k] += v
    x = tuple(x)
    inside = set(span_subsystem(rs, subset))
    for r in rs.roots:
        v = root_eval(r, x)
        if (v == 0) != (r in inside):
            raise AssertionError(
                f"coweight construction failed on root {r}")
    return x


# -- moment-polytope shift --------------------------------------------------

def _vertices(vertices, sub: SubSystem) -> list[Vec]:
    """The vertices as Fractions; DimensionMismatch names the first one
    whose length is not the root coordinates' (a root would be cut short)."""
    vertices = [vec(v) for v in vertices]
    n = sub.parent.coord_dim
    for i, v in enumerate(vertices):
        if len(v) != n:
            raise DimensionMismatch(f"vertex {i} has {len(v)} coordinates, but the roots "
                                    f"of {sub.parent.type_label}_{sub.parent.rank} have {n}")
    return vertices


def verify_shift(vertices, sub: SubSystem, a) -> bool:
    """Exact check that every forbidden root has a strict constant sign on
    all shifted vertices v + a."""
    vertices = _vertices(vertices, sub)
    a = vec(a)
    if len(a) != sub.parent.coord_dim:
        raise DimensionMismatch(f"shift has {len(a)} coordinates, but the roots "
                                f"have {sub.parent.coord_dim}")
    for root in _canonical_pairs(sub.forbidden):
        vals = [root_eval(root, tuple(x + y for x, y in zip(v, a)))
                for v in vertices]
        if any(v == 0 for v in vals):
            return False
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            return False
    return True


def _strict_feasible(constraints, nvars: int) -> Vec | None:
    """A rational witness of the strict system {c . a > rhs}, by
    Fourier-Motzkin elimination, or None when infeasible."""
    if nvars == 0:
        return () if all(rhs < 0 for _, rhs in constraints) else None
    v = nvars - 1
    lowers, uppers, rest = [], [], []
    for coeffs, rhs in constraints:
        cv = coeffs[v]
        if cv > 0:
            lowers.append((tuple(-c / cv for c in coeffs[:v]), rhs / cv))
        elif cv < 0:
            uppers.append((tuple(-c / cv for c in coeffs[:v]), rhs / cv))
        else:
            rest.append((coeffs[:v], rhs))
    # a_v > lo(a') and a_v < up(a')  =>  up - lo > 0.
    for lo_c, lo_r in lowers:
        for up_c, up_r in uppers:
            rest.append((tuple(u - l for u, l in zip(up_c, lo_c)), lo_r - up_r))
    tail = _strict_feasible(rest, v)
    if tail is None:
        return None
    lo_vals = [r + sum((c * t for c, t in zip(cs, tail)), ZERO)
               for cs, r in lowers]
    up_vals = [r + sum((c * t for c, t in zip(cs, tail)), ZERO)
               for cs, r in uppers]
    if lo_vals and up_vals:
        val = (max(lo_vals) + min(up_vals)) / 2
    elif lo_vals:
        val = max(lo_vals) + 1
    elif up_vals:
        val = min(up_vals) - 1
    else:
        val = ZERO
    return tail + (val,)


def find_fat_shift(vertices, sub: SubSystem) -> Vec | None:
    """A shift a such that the translated vertex polytope misses every
    forbidden wall: a witness of the strict system alpha(a) > -min_v alpha(v)
    over one representative alpha per {alpha, -alpha} pair, by one exact
    Fourier-Motzkin solve, re-verified by verify_shift.

    The representatives are lexicographically positive, so they are
    positive on a = (M^(r-1), ..., M, 1) for a large M, and a large
    multiple of that a clears every bound: the system is feasible unless
    a forbidden vector is zero, and only then is None returned.
    """
    if not vertices:
        raise ValueError("vertex list is empty")
    vertices = _vertices(vertices, sub)
    constraints = [(vec(root), -min(root_eval(root, v) for v in vertices))
                   for root in _canonical_pairs(sub.forbidden)]
    witness = _strict_feasible(constraints, sub.parent.coord_dim)
    if witness is not None and not verify_shift(vertices, sub, witness):
        raise AssertionError("feasible shift system failed verification")
    return witness
