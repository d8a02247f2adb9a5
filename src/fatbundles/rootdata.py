"""Exact root-system combinatorics.

Classical root systems in the block-torus coordinates t_i, detection of
the sub-root-system of an embedded subalgebra from the squared weights of
each component of ad on m, the forbidden-wall test
for fatness, centralizing-vector construction from fundamental coweights,
and the moment-polytope shift.  Everything here is exact: roots are
evaluated as int dot products on points cleared to ints over one common
denominator, so a wall test never returns a float and never pays for
``Fraction`` arithmetic.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from .errors import DimensionMismatch, NotCompact, TorusMismatch
from .exact import (ZERO, CoordinateSolver, Vec, dense_vec, entry_rows, int_combination,
                    pfaffian4, rank, sparse_ints, sparse_vec, vec)
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

    @functools.cached_property
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


def _cleared(points) -> tuple[list[list[int]], int]:
    """The one root evaluator: the points as int rows over their one least
    common denominator den, so alpha(p) is the int alpha . row over den."""
    rows, den = sparse_ints([dict(enumerate(vec(p))) for p in points])
    return [list(row.values()) for row in rows], den


def _length_error(what: str, x, n: int, rs: RootSystem | None = None) -> DimensionMismatch:
    """The mismatch a root zipped against x would hide by cutting it short."""
    roots = "the roots" if rs is None else f"the roots of {rs.type_label}_{rs.rank}"
    return DimensionMismatch(f"{what} has {len(x)} coordinates, but {roots} have {n}")


def root_eval(root, x) -> Fraction:
    """alpha(x), exactly: an int dot product over x's one denominator."""
    (ints,), den = _cleared([x])
    if len(ints) != len(root):
        raise _length_error("x", ints, len(root))
    return Fraction(sum(map(mul, root, ints)), den)


def _canonical_pairs(roots) -> list[Root]:
    """One representative per {alpha, -alpha} pair, deterministic order."""
    reps = set()
    for r in roots:
        neg = tuple(-c for c in r)
        reps.add(max(r, neg))
    return sorted(reps)


def _generic_torus_combination(pairs, rank: int) -> tuple[tuple[int, ...], list[int]]:
    """An int lambda with alpha(lambda) nonzero and |alpha(lambda)| pairwise
    distinct across root pairs (exactly verified), and those |alpha(lambda)|."""
    for base in (3, 5, 7, 11, 13, 17, 19, 23):
        lam = tuple(base ** i for i in range(rank))
        vals = [abs(sum(map(mul, r, lam))) for r in pairs]
        if all(vals) and len(set(vals)) == len(vals):
            return lam, vals
    raise TorusMismatch("could not separate the candidate roots")


def detect_subsystem(g: LieAlgebra, emb: SubalgebraEmbedding,
                     rs: RootSystem) -> SubSystem:
    """Split the parent roots into those of h and the forbidden set.

    The torus of the embedding must follow the block convention of ``rs``
    (same rank, matching coordinates).  {alpha, -alpha} is forbidden when
    alpha(xi)^2 is a squared weight of D = ad_xi|_m, xi a generic torus
    element, read per component (``SubalgebraEmbedding.linear``): -D_ij D_ji
    on each row of a 2-row one (so-blocks, u-blocks), the roots of
    y^2 - N y + Pf^2 of a 4-row antisymmetric one (torus embeddings); any
    other D^2 + alpha(xi)^2 is ranked.
    """
    if emb.torus_basis is None:
        raise NotCompact(f"{emb.name}: embedding carries no torus")
    if len(emb.torus_basis) != rs.rank or rs.coord_dim != rs.rank:
        raise TorusMismatch(
            f"torus rank {len(emb.torus_basis)} does not match {rs.type_label}_{rs.rank}")
    pairs = _canonical_pairs(rs.roots)
    lam, vals = _generic_torus_combination(pairs, rs.rank)
    xi = emb.torus_vector(lam)
    k = emb.dim_m
    if k == 0:
        return subsystem_from_members(rs, rs.roots)
    if emb.torus_coords(xi) is None:
        raise TorusMismatch("torus is not contained in h")
    parts, den = emb.linear(SubalgebraEmbedding._ad_entries, xi)
    weights: Counter = Counter()  # twice a squared weight, times den^2: its rows
    squares = []  # the other components' D^2
    for idx, mono, e in parts:
        n, pf = len(idx) == 4 and pfaffian4(e) or (0, 1)  # (0, 1): no square root
        s = isqrt(max(n * n - 4 * pf * pf, 0))
        if mono and all((j, i) in e for i, j in e):
            weights.update(-2 * v * e[j, i] for (i, j), v in e.items())
        elif s * s == n * n - 4 * pf * pf:  # 4 rows, antisymmetric, squared weights ints
            weights[n + s] += 2
            weights[n - s] += 2
        else:
            d = entry_rows(e, len(idx))
            squares.append([int_combination(row, d) for row in d])
    forbidden = set()
    accounted = 0
    for rep, val in zip(pairs, vals):
        # D^2 + (val den)^2 I is den^2 ((D/den)^2 + val^2 I).
        v2 = (val * den) ** 2
        defect = weights[2 * v2] + sum(
            len(d) - rank([{**row, i: row.get(i, 0) + v2} for i, row in enumerate(d)])
            for d in squares)
        if defect:
            forbidden |= {rep, tuple(-c for c in rep)}
            accounted += defect
    if accounted != k:
        raise TorusMismatch(
            f"torus eigenvalues on m cover {accounted} of {k} dimensions; "
            "the joint eigenvalues do not match the given root system")
    members = [r for r in rs.roots if r not in forbidden]
    return SubSystem(rs, _sorted_roots(members), _sorted_roots(forbidden))


def fat_by_roots(x, sub: SubSystem) -> Verdict:
    """Forbidden-wall test: fat iff alpha(x) != 0 for every forbidden root
    alpha, else the first root on a wall is the witness.  x is cleared of
    denominators once (ints are kept), and each {alpha, -alpha} read once.
    An x whose length is not the roots' raises DimensionMismatch."""
    if not all(type(a) is int for a in x):
        (x,), _ = _cleared([x])
    if len(x) != sub.parent.coord_dim:
        raise _length_error("x", x, sub.parent.coord_dim, sub.parent)
    for root in sub.walls:
        if not sum(map(mul, root, x)):
            return Verdict(NOT_FAT, witness_root=root)
    return FAT_VERDICT


# -- centralizing vectors (Levi subsets of simple roots) --------------------

def fundamental_coweights(rs: RootSystem) -> tuple[Vec, ...]:
    """Vectors w_i with alpha_j(w_i) = delta_ij; for type A the trace-zero
    representative is returned.  w_i is the coordinates of e_i in one
    ``CoordinateSolver`` over the transposed simple roots (with the
    all-ones row for type A): sum_k w_ik alpha_j[k] = delta_ij."""
    rows = [*rs.simple_roots] + ([(1,) * rs.coord_dim] if rs.type_label == "A" else [])
    solver = CoordinateSolver([sparse_vec(col) for col in zip(*rows)])
    return tuple(dense_vec(solver.sparse_coords({i: 1}), rs.coord_dim)
                 for i in range(len(rs.simple_roots)))


def span_subsystem(rs: RootSystem, subset) -> tuple[Root, ...]:
    """Roots lying in the integer span of a subset of simple roots (the
    Levi sub-system generated by the subset).  A root's coefficient on the
    i-th simple root is its value at the i-th fundamental coweight."""
    subset = set(map(tuple, subset))
    outside, _ = _cleared(w for s, w in zip(rs.simple_roots, fundamental_coweights(rs))
                          if s not in subset)
    return _sorted_roots(r for r in rs.roots
                         if not any(sum(map(mul, r, w)) for w in outside))


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
    (ints,), _ = _cleared([x])
    for r in rs.roots:
        if (not sum(map(mul, r, ints))) != (r in inside):
            raise AssertionError(
                f"coweight construction failed on root {r}")
    return x


# -- moment-polytope shift --------------------------------------------------

def _vertex_ints(vertices, sub: SubSystem, *shift) -> tuple[list[list[int]], int]:
    """The vertices, then the shift if given, cleared by the root evaluator;
    DimensionMismatch names the first of them whose length is not the root
    coordinates' (a root would be cut short)."""
    vertices = list(vertices)
    rows, den = _cleared([*vertices, *shift])
    n = sub.parent.coord_dim
    for i, v in enumerate(rows):
        if len(v) != n:
            raise (_length_error(f"vertex {i}", v, n, sub.parent) if i < len(vertices)
                   else _length_error("shift", v, n))
    return rows, den


def shift_values(vertices, sub: SubSystem, a) -> tuple[dict[Root, list[int]], int]:
    """The one integer evaluation of a shift: ({alpha: [ints]}, den) with
    alpha(v + a) = int / den for each forbidden root alpha and vertex v."""
    (*rows, a), den = _vertex_ints(vertices, sub, a)
    shifted = [[x + y for x, y in zip(v, a)] for v in rows]
    return {root: [sum(map(mul, root, v)) for v in shifted] for root in sub.forbidden}, den


def strict_signs(values: dict) -> bool:
    """The strict-sign rule on a ``shift_values`` result: every forbidden
    root is positive on all shifted vertices, or negative on all."""
    return all(all(x > 0 for x in vals) or all(x < 0 for x in vals)
               for vals in values.values())


def verify_shift(vertices, sub: SubSystem, a) -> bool:
    """Exact check that every forbidden root has a strict constant sign on
    all shifted vertices v + a: ``strict_signs`` of ``shift_values``."""
    return strict_signs(shift_values(vertices, sub, a)[0])


def _strict_feasible(rows, nvars: int) -> Vec | None:
    """A rational witness a of the strict system {c . a > r} over int rows
    (c_0, ..., c_{nvars-1}, r), by Fourier-Motzkin elimination, or None when
    infeasible.  A row with c_v > 0 bounds a_v from below and one with
    c_v < 0 from above; each such pair combines by positive int multipliers
    into a row free of a_v, a positive multiple of "upper - lower > 0"."""
    if nvars == 0:
        return () if all(row[-1] < 0 for row in rows) else None
    v = nvars - 1
    lowers = [row for row in rows if row[v] > 0]
    uppers = [row for row in rows if row[v] < 0]
    rest = [row for row in rows if not row[v]]
    for lo in lowers:
        for up in uppers:
            g = gcd(lo[v], up[v])
            p, q = lo[v] // g, -up[v] // g
            rest.append(tuple(q * x + p * y for x, y in zip(lo, up)))
    tail = _strict_feasible(rest, v)
    if tail is None:
        return None
    # With tail = ints / den, each row bounds a_v by (r den - c . ints) / (c_v den).
    (ints,), den = _cleared([tail])
    lo_vals = [Fraction(row[-1] * den - sum(map(mul, row, ints)), row[v] * den) for row in lowers]
    up_vals = [Fraction(row[-1] * den - sum(map(mul, row, ints)), row[v] * den) for row in uppers]
    if lo_vals and up_vals:
        val = (max(lo_vals) + min(up_vals)) / 2
    elif lo_vals:
        val = max(lo_vals) + 1
    elif up_vals:
        val = min(up_vals) - 1
    else:
        val = ZERO
    return tail + (val,)


def find_fat_shift(vertices, sub: SubSystem, *, verify: bool = True) -> Vec | None:
    """A shift a such that the translated vertex polytope misses every
    forbidden wall: a witness of the strict system alpha(a) > -min_v alpha(v)
    over one representative alpha per {alpha, -alpha} pair, by one exact
    Fourier-Motzkin solve, re-verified by verify_shift unless ``verify`` is
    false (the caller reads ``strict_signs`` off its own ``shift_values``).
    The vertices are cleared once to ints over den; a row is one times den.

    The representatives are lexicographically positive, so they are
    positive on a = (M^(r-1), ..., M, 1) for a large M, and a large
    multiple of that a clears every bound: the system is feasible unless
    a forbidden vector is zero, and only then is None returned.
    """
    if not vertices:
        raise ValueError("vertex list is empty")
    rows, den = _vertex_ints(vertices, sub)
    system = [(*(den * c for c in root), -min(sum(map(mul, root, v)) for v in rows))
              for root in _canonical_pairs(sub.forbidden)]
    witness = _strict_feasible(system, sub.parent.coord_dim)
    if verify and witness is not None and not verify_shift(vertices, sub, witness):
        raise AssertionError("feasible shift system failed verification")
    return witness
