"""Exact root-system combinatorics.

Classical root systems in the block-torus coordinates t_i, detection of
the sub-root-system of an embedded subalgebra, the forbidden-wall test
for fatness, centralizing-vector construction from fundamental coweights,
and the moment-polytope shift search.  Everything here is exact rational
arithmetic; a wall test never returns a float.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import TorusMismatch
from .exact import (
    ONE,
    ZERO,
    Vec,
    _clear_denominators,
    frac,
    mat,
    rank,
    solve,
    vec,
)
from .liealg import LieAlgebra, SubalgebraEmbedding, maximal_torus
from .verdicts import FAT, NOT_FAT, Verdict

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
    torus = emb.torus_basis if emb.torus_basis is not None else maximal_torus(emb)
    if len(torus) != rs.rank or rs.coord_dim != rs.rank:
        raise TorusMismatch(
            f"torus rank {len(torus)} does not match {rs.type_label}_{rs.rank}")
    pairs = _canonical_pairs(rs.roots)
    lam = _generic_torus_combination(pairs, rs.rank)
    xi = emb.torus_vector(lam)
    k = emb.dim_m
    if k == 0:
        return subsystem_from_members(rs, rs.roots)
    if emb.h_coords(xi) is None:
        raise TorusMismatch("torus is not contained in h")
    d, den = emb.ad_m_ints(xi)
    d_sq = [[sum(a * b for a, b in zip(row, col)) for col in zip(*d)] for row in d]
    forbidden_pairs = []
    accounted = 0
    for rep in pairs:
        # val = p/q: q^2 D^2 + (p den)^2 I is (q den)^2 ((D/den)^2 + val^2 I).
        val = root_eval(rep, lam)
        p2, q2 = (val.numerator * den) ** 2, val.denominator ** 2
        shifted = [[q2 * x + (p2 if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(d_sq)]
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
    alpha, else the first root on a wall is the witness.  The torus
    coordinates x are cleared of denominators once, by their positive lcm."""
    ints, _ = _clear_denominators(x)
    for root in sub.forbidden:
        if not sum(a * b for a, b in zip(root, ints) if a):
            return Verdict(NOT_FAT, witness_root=root)
    return Verdict(FAT)


# -- centralizing vectors (Levi subsets of simple roots) --------------------

def fundamental_coweights(rs: RootSystem) -> tuple[Vec, ...]:
    """Vectors w_i with alpha_j(w_i) = delta_ij; for type A the trace-zero
    representative is returned."""
    rows = [vec(r) for r in rs.simple_roots]
    if rs.type_label == "A":
        rows = rows + [vec([1] * rs.coord_dim)]
    out = []
    for i in range(len(rs.simple_roots)):
        rhs = [ONE if j == i else ZERO for j in range(len(rows))]
        w = solve(mat(rows), rhs)
        if w is None:
            raise ValueError("simple roots are degenerate")
        out.append(w)
    return tuple(out)


def span_subsystem(rs: RootSystem, subset) -> tuple[Root, ...]:
    """Roots lying in the integer span of a subset of simple roots (the
    Levi sub-system generated by the subset)."""
    subset = set(map(tuple, subset))
    idx = [i for i, s in enumerate(rs.simple_roots) if s in subset]
    members = []
    for r in rs.roots:
        c = _simple_coefficients(rs, r)
        if all(c[i] == 0 for i in range(len(c)) if i not in idx):
            members.append(r)
    return _sorted_roots(members)


def _simple_coefficients(rs: RootSystem, root: Root) -> Vec:
    rows = [list(s) for s in rs.simple_roots]
    cols = tuple(tuple(rows[i][j] for i in range(len(rows)))
                 for j in range(rs.coord_dim))
    c = solve(cols, vec(root))
    if c is None:
        raise ValueError(f"{root} is not in the span of the simple roots")
    return c


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


# -- moment-polytope shift search -------------------------------------------

def verify_shift(vertices, sub: SubSystem, a) -> bool:
    """Exact check that every forbidden root has a strict constant sign on
    all shifted vertices v + a."""
    vertices = [vec(v) for v in vertices]
    a = vec(a)
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
    forbidden wall, found by exact sign-pattern enumeration.

    For each {alpha, -alpha} pair, a sign s is chosen and the strict system
    s * alpha(v + a) > 0 over all vertices is reduced to exact rational
    feasibility in a; patterns are enumerated in a fixed order and the
    first witness, re-verified by verify_shift, is returned.  Returns None
    when every pattern is infeasible.
    """
    if not vertices:
        raise ValueError("vertex list is empty")
    vertices = [vec(v) for v in vertices]
    nvars = len(vertices[0])
    pairs = _canonical_pairs(sub.forbidden)
    if not pairs:
        return vec([0] * nvars)
    ranges = []
    for root in pairs:
        vals = [root_eval(root, v) for v in vertices]
        ranges.append((min(vals), max(vals)))
    for pattern in itertools.product((1, -1), repeat=len(pairs)):
        constraints = []
        feasible_pair = True
        for s, root, (lo, hi) in zip(pattern, pairs, ranges):
            if all(c == 0 for c in root):
                feasible_pair = False
                break
            if s > 0:
                # alpha(a) > -min alpha(v)
                constraints.append((vec(root), -lo))
            else:
                constraints.append((vec(-c for c in root), hi))
        if not feasible_pair:
            continue
        witness = _strict_feasible(constraints, nvars)
        if witness is not None:
            if not verify_shift(vertices, sub, witness):
                raise AssertionError("feasible pattern failed verification")
            return witness
    return None

