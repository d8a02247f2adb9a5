"""Compare the certificates and run stdout of two ``fatbundles run`` trees
across a certificate schema bump.

Usage: python compare_certificates.py BASE_DIR HEAD_DIR

Each tree holds, per catalog NAME, the certificate directory NAME/ and the
run stdout NAME.stdout.  Stdout must be byte-identical.  Certificates are
compared key by key: a key the bump adds or rewrites is skipped, a float
the bump writes at 12 significant digits must equal the base value so
rounded, and every other value must be equal.  Exit 1 on any difference.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

# Per (base schema, head schema): the keys the bump adds or rewrites, and
# the floats it rounds, as dotted paths with [] for the items of a list.
BUMPS = {
    (1, 2): {
        "added": {"schema_version", "version", "certificate.well_conditioned"},
        # An SVD unit vector before, the first exact kernel vector now.
        "rewritten": {"certificate.null_vector"},
        "rounded": {
            "certificate.min_sv", "certificate.max_sv",
            "coupling.min_sv", "coupling.pfaffian_abs",
            "coupling.blocks.cross_max_abs", "coupling.blocks.fiber_min_sv",
            "coupling.blocks.horizontal_min_sv",
            "coupling.blocks.fiber_to_horizontal_norm_ratio",
            "pinch.tensor.epsilon", "pinch.tensor.achieved_epsilon",
            "pinch.tensor.berger_max", "pinch.report.bound",
            "pinch.report.min_diag_margin", "pinch.report.min_sv",
            "pinch.report.frames[].diag_margin",
            "pinch.report.frames[].min_sv",
            "dual.fraction", "dual.pairs[].min_sv",
        },
    },
    (2, 3): {
        "added": set(),
        # The pinch draws moved from numpy's Generator to random.Random:
        # the pinch floats are new, its seed, bound and verdicts are not.
        "rewritten": {
            "schema_version",
            "pinch.tensor.achieved_epsilon", "pinch.tensor.berger_max",
            "pinch.report.min_diag_margin", "pinch.report.min_sv",
            "pinch.report.frames",
        },
        "rounded": set(),
    },
}


def rounded(x):
    """The base float as the head writes it: 12 significant digits."""
    if isinstance(x, list):
        return [rounded(v) for v in x]
    if x is None or not math.isfinite(x):
        return None
    return float(f"{x:.12g}")


def compare(base, head, path: str, bump: dict, errors: list) -> None:
    if path in bump["added"] or path in bump["rewritten"]:
        return
    if path in bump["rounded"]:
        if head != rounded(base):
            errors.append(f"{path}: {base!r} -> {head!r}")
    elif isinstance(base, dict) and isinstance(head, dict):
        for k in sorted(set(base) | set(head)):
            sub = f"{path}.{k}".lstrip(".")
            if sub in bump["added"]:
                continue
            if k not in base or k not in head:
                errors.append(f"{sub}: present on one side only")
            else:
                compare(base[k], head[k], sub, bump, errors)
    elif isinstance(base, list) and isinstance(head, list) \
            and len(base) == len(head):
        for b, h in zip(base, head):
            compare(b, h, f"{path}[]", bump, errors)
    elif base != head:
        errors.append(f"{path}: {base!r} -> {head!r}")


def main(base_dir: str, head_dir: str) -> int:
    base_root, head_root = Path(base_dir), Path(head_dir)
    errors: list[str] = []
    names = sorted(p.stem for p in base_root.glob("*.stdout"))
    if names != sorted(p.stem for p in head_root.glob("*.stdout")):
        errors.append("the two trees ran different catalogs")
    for name in names:
        if (base_root / f"{name}.stdout").read_bytes() != \
                (head_root / f"{name}.stdout").read_bytes():
            errors.append(f"{name}.stdout differs")
        certs = sorted(p.name for p in (base_root / name).glob("*.json"))
        if certs != sorted(p.name for p in (head_root / name).glob("*.json")):
            errors.append(f"{name}: different certificate files")
        for cert in certs:
            base = json.loads((base_root / name / cert).read_text())
            head = json.loads((head_root / name / cert).read_text())
            schemas = (base.get("schema_version", 1),
                       head.get("schema_version", 1))
            if schemas not in BUMPS:
                errors.append(f"{name}/{cert}: no key list for schema "
                              f"{schemas[0]} -> {schemas[1]}")
                continue
            found: list[str] = []
            compare(base, head, "", BUMPS[schemas], found)
            errors += [f"{name}/{cert}: {e}" for e in found]
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
