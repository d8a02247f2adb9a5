"""Write the catalogs that CI runs, one JSON file each, into OUTDIR.

Usage: python ci_catalogs.py OUTDIR

- cli_catalog.json, cli_catalog_2707.json: the benchmark's seeded batch
  (``bench/inputs.py``) at seeds 1401 and 2707;
- all_pairs.json: every bench pair at X_u = (1, ..., 1);
- torus_catalog.json: torus embeddings, whose ad_xi on m and Gram split
  into 4-row components that detection and the criteria decide by their
  Pfaffians, up to so(32) > t16 at the params edge; so(12) > u(6), a
  rank-6 u-block torus that no bench pair has; the pair builds at the
  params edge, so(32) > u(16) (overlapping u-block rows) and
  so(31) > so(30); the coupling on so(8) > t4, so(7) > u(3) (v = h), on
  so(9) > so(8) on a wall and on so(12) > u(6), past the float range on
  so(5) > so(4) (Xu = (1e400, 2), null floats) and on so(5) > u(2) (an
  82-digit Xu, a null Pfaffian), and with h = g on so(4) > so(4) (a dim-0
  form); the dual of so(10,1) > so(10); and shifts of types A, C and D,
  and of B_8 at the shift.rank edge;
- readme_catalog.json: the README's example catalog, its one json block;
- pinch_catalog.json: one pinch tensor per n up to the pinch.n edge, at
  0.9 of the twistor bound 3/(2n+1), with each sign.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402  (bench/, put on the path above)


def so(n: int) -> dict:
    return {"family": "so", "params": [n]}


def torus_catalog() -> list[dict]:
    fat = {"run": ["roots", "oracle", "centralizer"], "expect": "fat", "samples": 25}
    odd = [str(2 * i + 1) for i in range(16)]
    out = [{"id": f"so{n}_t{r}", "g": so(n), "h": {"type": "torus", "params": [r]},
            "Xu": odd[:r], **fat, "seed": n}
           for n, r in ((8, 4), (9, 4), (12, 6), (32, 16))]
    out.append({"id": "so12_u6", "g": so(12), "h": {"type": "u", "params": [6]},
                "Xu": odd[:6], **fat, "seed": 12})
    out += [{"id": f"so{n}_{t}{k}", "g": so(n), "h": {"type": t, "params": [k]},
             "Xu": odd[:r], **fat, "seed": n}
            for n, t, k, r in ((32, "u", 16, 16), (31, "so", 30, 15))]
    out.append({"id": "so8_t4_coupling", "g": so(8), "h": {"type": "torus", "params": [4]},
                "Xu": ["1", "3", "5", "7"], "run": ["coupling"], "expect": "fat"})
    out += [{"id": f"so{n}_{t}{k}_coupling", "g": so(n), "h": {"type": t, "params": [k]},
             "Xu": x, "run": ["coupling"], "expect": e}
            for n, t, k, x, e in ((7, "u", 3, ["1"] * 3, "fat"),
                                  (9, "so", 8, ["1", "1", "0", "0"], "not_fat"),
                                  (12, "u", 6, ["1", "1", "1", "3", "3", "5"], "fat"))]
    out += [{"id": i, "g": so(n), "h": {"type": t, "params": [k]}, "Xu": x,
             "run": ["coupling"], **e}
            for i, n, t, k, x, e in (
                ("so5_so4_1e400_coupling", 5, "so", 4, ["1e400", "2"], {"expect": "fat"}),
                ("so5_u2_82_digit_coupling", 5, "u", 2, ["1" + "0" * 81, "1"],
                 {"expect": "fat"}),
                ("so4_so4_empty_coupling", 4, "so", 4, ["0", "0"], {}))]
    out.append({"id": "so101_so10_dual", "g": {"family": "so", "params": [10, 1]},
                "h": {"type": "so", "params": [10]}, "run": ["dual"],
                "dual": {"samples": 25}, "seed": 5})
    out += [{"id": f"shift_{t.lower()}{r}", "run": ["shift"],
             "shift": {"type": t, "rank": r, "member_roots": m,
                       "vertices": [[f"{(3 * i + 5 * j) % 7 - 3}/{1 + (i + j) % 4}"
                                     for j in range(r + (t == "A"))] for i in range(k)]}}
            for t, r, m, k in (("A", 3, [[1, -1, 0, 0], [-1, 1, 0, 0]], 3),
                               ("C", 3, [[0, 2, 0], [0, -2, 0]], 3),
                               ("D", 4, [], 4), ("B", 8, [], 4))]
    return out


def catalogs() -> dict:
    """{file name: catalog list, or the README block as text}."""
    (readme,) = re.findall(r"^```json\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.M | re.S)
    return {
        "cli_catalog.json": inputs.cli_catalog(1401),
        "cli_catalog_2707.json": inputs.cli_catalog(2707),
        "all_pairs.json": [
            {"id": p, "g": {"family": "so", "params": list(g)},
             "h": {"type": t, "params": list(h)}, "Xu": ["1"] * (sum(g) // 2),
             "run": ["roots", "oracle", "centralizer"], "samples": 25}
            for p, (g, t, h) in inputs.PAIRS.items()],
        "torus_catalog.json": torus_catalog(),
        "readme_catalog.json": readme,
        "pinch_catalog.json": [
            {"id": f"pinch_n{n}_" + ("pos" if s == "+" else "neg"), "run": ["pinch"],
             "pinch": {"n": n, "epsilon": 0.9 * 3 / (2 * n + 1), "sign": s, "frames": 20},
             "expect": "fat", "seed": n}
            for n in range(1, 9) for s in "+-"],
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, catalog in catalogs().items():
        text = catalog if isinstance(catalog, str) else json.dumps(catalog)
        (out / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
