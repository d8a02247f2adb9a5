"""Seeded inputs for the benchmark workloads and the hard-coded walls the
output checks compare against.

Everything here is a pure function of the seed and the size, written
without importing ``fatbundles``: the program under test receives only
what these functions generate, and a change to the library's own samplers
cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Pair name -> (g params, h type, h params); g is always so(n) or so(p, q).
PAIRS = {
    "so5_so4": ((5,), "so", (4,)),
    "so41_so4": ((4, 1), "so", (4,)),
    "so7_so6": ((7,), "so", (6,)),
    "so61_so6": ((6, 1), "so", (6,)),
    "so9_so8": ((9,), "so", (8,)),
    "so81_so8": ((8, 1), "so", (8,)),
    "so11_so10": ((11,), "so", (10,)),
    "so101_so10": ((10, 1), "so", (10,)),
    "so5_u2": ((5,), "u", (2,)),
    "so7_u3": ((7,), "u", (3,)),
}

# Acceptance criterion 2: B_n > D_n for n = 2..5, compact and noncompact.
COLD_PAIRS = ("so5_so4", "so41_so4", "so7_so6", "so61_so6",
              "so9_so8", "so81_so8", "so11_so10", "so101_so10")
# The triple-equivalence pairs (acceptance criterion 1).
WARM_PAIRS = ("so5_so4", "so7_so6", "so5_u2", "so41_so4", "so61_so6")
COUPLING_PAIRS = ("so5_u2", "so7_u3", "so5_so4", "so7_so6")
DUAL_PAIRS = ("so41_so4", "so61_so6")

WARM_SAMPLES_PER_PAIR = 800
COLD_SAMPLES_PER_PAIR = 12


def rank_of(pair: str) -> int:
    g_params = PAIRS[pair][0]
    return sum(g_params) // 2


def forbidden_walls(pair: str) -> frozenset:
    """The roots on m, written out by hand rather than detected.

    so(2n+1) > so(2n) and so(2n,1) > so(2n): the short roots {+-t_i}.
    so(2n+1) > u(n): {+-t_i} and {+-(t_i + t_j)}; u(n) keeps +-(t_i - t_j).
    """
    _, h_type, _ = PAIRS[pair]
    n = rank_of(pair)
    walls = set()
    for i in range(n):
        for s in (1, -1):
            e = [0] * n
            e[i] = s
            walls.add(tuple(e))
    if h_type == "u":
        for i in range(n):
            for j in range(i + 1, n):
                for s in (1, -1):
                    e = [0] * n
                    e[i] = e[j] = s
                    walls.add(tuple(e))
    return frozenset(walls)


def on_wall(tau, walls) -> bool:
    return any(sum(Fraction(a) * Fraction(t) for a, t in zip(root, tau)) == 0
               for root in walls)


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rational(rng: random.Random) -> Fraction:
    # Same law as fatbundles.sample_rational_vectors: about one sample in
    # eight lies on a wall, so the not-fat witness path runs too.
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def _tau(rng: random.Random, rank: int) -> tuple:
    return tuple(_rational(rng) for _ in range(rank))


def _off_wall_tau(rng: random.Random, pair: str) -> tuple:
    walls = forbidden_walls(pair)
    while True:
        tau = _tau(rng, rank_of(pair))
        if not on_wall(tau, walls):
            return tau


def _torus_samples(label: str, seed: int, pairs, count: int) -> dict:
    rng = random.Random(f"{label}/{seed}")
    return {"pairs": [
        {"pair": p, "taus": [[frac_str(x) for x in _tau(rng, rank_of(p))]
                             for _ in range(count)]}
        for p in pairs]}


def cold_inputs(seed: int, tiny: bool = False) -> dict:
    """Pairs to build cold, each certified at J = (1, ..., 1) and at a few
    seeded torus samples."""
    if tiny:
        return _torus_samples("cold", seed, COLD_PAIRS[:1], 2)
    return _torus_samples("cold", seed, COLD_PAIRS, COLD_SAMPLES_PER_PAIR)


def warm_inputs(seed: int, tiny: bool = False) -> dict:
    """Torus samples for the warm certify sweep."""
    if tiny:
        return _torus_samples("warm", seed, WARM_PAIRS[:1], 20)
    return _torus_samples("warm", seed, WARM_PAIRS, WARM_SAMPLES_PER_PAIR)


def _pair_fields(pair: str) -> dict:
    g_params, h_type, h_params = PAIRS[pair]
    return {"g": {"family": "so", "params": list(g_params)},
            "h": {"type": h_type, "params": list(h_params)}}


def pair_of(entry: dict) -> str:
    """The pair name of a generated catalog entry."""
    key = (tuple(entry["g"]["params"]), entry["h"]["type"],
           tuple(entry["h"]["params"]))
    return next(p for p, spec in PAIRS.items() if spec == key)


def _certification(rng, kind: str, pair: str, idx: int) -> dict:
    tau = _tau(rng, rank_of(pair))
    expect = "not_fat" if on_wall(tau, forbidden_walls(pair)) else "fat"
    return {"id": f"{kind}_{pair}_{idx}", **_pair_fields(pair),
            "Xu": [frac_str(x) for x in tau], "run": [kind],
            "expect": expect, "samples": 25, "seed": rng.randrange(10**6)}


def _coupling(rng, pair: str, idx: int) -> dict:
    # Off every wall: the coupling form of a not-fat X_u is degenerate by
    # design, and its verdict is not what this instance measures.
    tau = _off_wall_tau(rng, pair)
    return {"id": f"coupling_{pair}_{idx}", **_pair_fields(pair),
            "Xu": [frac_str(x) for x in tau], "run": ["coupling"],
            "expect": "fat", "seed": rng.randrange(10**6)}


def _pinch(rng, n: int, idx: int) -> dict:
    eps = round(rng.uniform(0.5, 0.9) * 3 / (2 * n + 1), 6)
    return {"id": f"pinch_n{n}_{idx}", "run": ["pinch"],
            "pinch": {"n": n, "epsilon": eps, "sign": rng.choice("+-"),
                      "frames": 60},
            "expect": "fat", "seed": rng.randrange(10**6)}


def _dual(rng, pair: str, idx: int) -> dict:
    return {"id": f"dual_{pair}_{idx}", **_pair_fields(pair), "run": ["dual"],
            "dual": {"samples": 30}, "seed": rng.randrange(10**6)}


def _shift(rng, rank: int, idx: int) -> dict:
    # Member roots are a seeded +-t_i pair or none; every other root of B_r
    # is a wall.  A bounded polytope always fits into an open chamber of
    # the remaining walls, so a shift exists.
    members = []
    if rng.random() < 0.5:
        i = rng.randrange(rank)
        for s in (1, -1):
            e = [0] * rank
            e[i] = s
            members.append(e)
    vertices = [[frac_str(x) for x in _tau(rng, rank)]
                for _ in range(rng.randint(2, 4))]
    return {"id": f"shift_b{rank}_{idx}", "run": ["shift"],
            "shift": {"type": "B", "rank": rank, "member_roots": members,
                      "vertices": vertices, "expect_shift": True}}


def cli_catalog(seed: int, tiny: bool = False) -> list[dict]:
    """A catalog with every run kind; each instance has exactly one kind."""
    rng = random.Random(f"cli/{seed}")
    if tiny:
        return [_certification(rng, "roots", "so5_so4", 0),
                _shift(rng, 2, 0),
                _pinch(rng, 2, 0)]
    out = []
    for idx in range(12):
        kind = ("roots", "oracle", "centralizer")[idx % 3]
        out.append(_certification(rng, kind, WARM_PAIRS[idx % 5], idx))
    for idx, pair in enumerate(COUPLING_PAIRS * 2):
        out.append(_coupling(rng, pair, idx))
    for idx, n in enumerate((2, 3, 2, 3)):
        out.append(_pinch(rng, n, idx))
    for idx, pair in enumerate(DUAL_PAIRS * 2):
        out.append(_dual(rng, pair, idx))
    for idx, rank in enumerate((2, 3, 4, 2, 3, 4, 3, 4)):
        out.append(_shift(rng, rank, idx))
    return out
