"""Batch driver: run instance catalogs, emit certificate files, explain
results.

Exit codes: 0 all instances passed, 1 any instance failed, 2 usage or
parse errors.  Certificates are written atomically in a canonical JSON
encoding, so identical catalogs and seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import replace

from .catalog import (
    InstanceSpec,
    builtin_catalog,
    builtin_names,
    check_id,
    resolve,
    run_instance,
)
from .errors import FatBundleError
from .fatness import isotropy_algebra
from .rootdata import root_eval
from .serialize import dumps_canonical, parse_vec


def _load_catalog(source: str) -> list[InstanceSpec]:
    if source in builtin_names():
        return builtin_catalog(source)
    try:
        with open(source) as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read catalog {source}: {exc}")
    def finite(text: str) -> float:  # Python reads NaN, Infinity and 1e999
        if not math.isfinite(x := float(text)):
            raise SystemExit2(f"{source}: {text} is not a finite JSON number")
        return x
    try:
        data = json.loads(text, parse_constant=finite, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise SystemExit2(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer past Python's int-string digit limit
        raise SystemExit2(f"{source}: {str(exc).split(';')[0]}")
    if not isinstance(data, list):
        raise SystemExit2(f"{source}: catalog must be a JSON array")
    specs = []
    seen = set()
    for entry in data:
        try:
            spec = InstanceSpec.from_json(entry)
        except ValueError as exc:
            raise SystemExit2(f"{source}: bad instance entry {entry!r}: {exc}")
        if spec.id in seen:
            raise SystemExit2(f"{source}: duplicate instance id {spec.id!r}")
        seen.add(spec.id)
        specs.append(spec)
    return specs


class SystemExit2(Exception):
    """Usage or parse error (exit code 2)."""


def _cert_path(out: str, iid) -> str:
    """The certificate file of an instance, always directly inside out."""
    try:
        return os.path.join(out, check_id(iid) + ".json")
    except ValueError as exc:
        raise SystemExit2(str(exc))


def _positive(kind):
    """An argparse type: ``kind(text)``, rejected unless finite and > 0."""
    def positive(text: str):
        x = kind(text)
        if not 0 < x < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text}")
        return x
    return positive


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cert-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_run(args) -> int:
    specs = _load_catalog(args.catalog)
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        specs = [replace(s, **overrides) for s in specs]
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise SystemExit2(f"cannot create output directory {args.out}: "
                          f"{exc.strerror}")

    run_start = time.perf_counter()
    results = []
    for spec in specs:  # one at a time, in catalog order
        start = time.perf_counter()
        ok, payload = run_instance(spec)
        _write_atomic(_cert_path(args.out, spec.id), dumps_canonical(payload))
        results.append((spec.id, ok, payload, time.perf_counter() - start))
    wall = time.perf_counter() - run_start

    width = max((len(r[0]) for r in results), default=2)
    for iid, ok, payload, _ in results:
        status = "ok  " if ok else "FAIL"
        note = payload.get("error", "")
        verdict = ""
        cert = payload.get("certificate")
        if cert:
            verdict = cert["verdicts"]["oracle"]
        print(f"{status} {iid:<{width}} {verdict} {note}".rstrip())
    n_fail = sum(1 for _, ok, _, _ in results if not ok)
    print(f"{len(results) - n_fail}/{len(results)} instances passed")
    timing = f"run: {len(results)} instances in {wall:.2f} s"
    if results:
        slow_id, _, _, slow_s = max(results, key=lambda r: r[3])
        timing += f"; slowest {slow_id} ({slow_s:.2f} s)"
    print(timing, file=sys.stderr)
    return 1 if n_fail else 0


def _print_certification(payload: dict, spec: InstanceSpec) -> None:
    inst = resolve(spec)
    cert = payload.get("certificate")
    print(f"instance {spec.id}: {inst.g.name}, h = {inst.emb.name}")
    print(f"  dim g = {inst.g.dim}, dim h = {inst.emb.dim_h}, "
          f"dim m = {inst.emb.dim_m}")
    if inst.subsystem is not None:
        sub = inst.subsystem
        print(f"  root system {sub.parent.type_label}_{sub.parent.rank}, "
              f"{len(sub.parent.roots)} roots")
        print(f"  subalgebra roots: {list(sub.member_roots)}")
        print(f"  forbidden walls:  {list(sub.forbidden)}")
        if cert and "Xu_torus" in cert:
            tau = parse_vec(cert["Xu_torus"])
            print(f"  Xu in torus coordinates: {cert['Xu_torus']}")
            for root in sub.forbidden:
                val = root_eval(root, tau)
                mark = "  <-- wall" if val == 0 else ""
                print(f"    alpha={root}: alpha(Xu) = {val}{mark}")
    if cert:
        v = cert["verdicts"]
        print(f"  verdicts: roots={v['roots']} oracle={v['oracle']} "
              f"centralizer={v['centralizer']} agreed={cert['agreed']}")
        well = cert.get("well_conditioned")
        print(f"  gram singular values: min {cert['min_sv']} "
              f"max {cert['max_sv']}, tol {spec.tol}, well conditioned "
              f"{well} (schema {payload.get('schema_version', 1)})")
        if not well:
            print("  the exact rank of the Gram decided; the float SVD did not")
        for key in ("witness_root", "null_vector", "centralizer_witness"):
            if key in cert:
                print(f"  {key}: {cert[key]}")
        if inst.x_u is not None:
            iso = isotropy_algebra(inst.g, inst.x_u)
            print(f"  centralizer dimension of Xu: {len(iso)}")
    if "batch" in payload:
        b = payload["batch"]
        print(f"  batch: {b['samples']} samples, {b['fat']} fat, "
              f"{b['not_fat']} not fat")


def _print_coupling(payload: dict) -> None:
    info = payload["coupling"]
    blocks = info["blocks"]
    print("  coupling form:")
    print(f"    dim n = {info['form']['dim']}, fiber {blocks['fiber_dim']}, "
          f"horizontal {blocks['horizontal_dim']}")
    print(f"    cross block zero: {blocks['cross_block_zero']} "
          f"(max |entry| {blocks['cross_max_abs']})")
    print(f"    horizontal equals fatness gram: "
          f"{blocks['horizontal_equals_fatness_gram']}")
    print(f"    closedness residual: {info['closedness_residual']}")
    if "pfaffian_abs" in info:
        print(f"    min sv {info['min_sv']}, |pfaffian| {info['pfaffian_abs']}")


def _print_pinch(payload: dict) -> None:
    info = payload["pinch"]
    rep = info["report"]
    print(f"  pinched tensor: n={info['tensor']['n']} "
          f"epsilon={info['tensor']['epsilon']} "
          f"achieved={info['tensor']['achieved_epsilon']:.6f}")
    print(f"  berger passed: {info['berger_passed']} "
          f"(max mixed {info['tensor']['berger_max']:.6f})")
    print(f"  twistor verdict: {rep['verdict']} (bound {rep['bound']:.6f})")
    print("  per-frame margins:")
    for i, fr in enumerate(rep["frames"]):
        print(f"    frame {i:3d}: diag margin {fr['diag_margin']:.6f}  "
              f"min sv {fr['min_sv']:.6f}")


def _print_shift(payload: dict) -> None:
    info = payload["shift_search"]
    print(f"  shift search over {len(info['vertices'])} vertices, "
          f"{len(info['forbidden'])} forbidden roots")
    print(f"  shift: {info['shift']}  verified: {info['verified']}")
    if info.get("evaluations"):
        for root, vals in info["evaluations"].items():
            print(f"    alpha=({root}): values {vals}")


def _print_dual(payload: dict) -> None:
    info = payload["dual"]
    print(f"  duality {info['pair']}: {info['agreed']}/{info['samples']} "
          f"agree (fraction {info['fraction']})")


def cmd_explain(args) -> int:
    path = _cert_path(args.out, args.id)
    if not os.path.exists(path):
        raise SystemExit2(f"no certificate for {args.id!r} in {args.out} "
                          f"(run the catalog first)")
    try:  # a certificate is a JSON object whose spec is a catalog entry
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("certificate must be a JSON object")
        spec = InstanceSpec.from_json(payload.get("spec"))
    except ValueError as exc:  # JSONDecodeError included
        raise SystemExit2(f"{path}: {exc}")
    if "certificate" in payload or "batch" in payload:
        _print_certification(payload, spec)
    if "coupling" in payload:
        _print_coupling(payload)
    if "pinch" in payload:
        _print_pinch(payload)
    if "shift_search" in payload:
        _print_shift(payload)
    if "dual" in payload:
        _print_dual(payload)
    if "error" in payload:
        print(f"  error: {payload['error']}")
    print(f"result: {'pass' if payload.get('passed') else 'FAIL'}")
    return 0


def cmd_list_builtins(_args) -> int:
    for name in builtin_names():
        ids = ", ".join(s.id for s in builtin_catalog(name))
        print(f"{name}: {ids}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatbundles",
        description="Certify fat covectors of canonical invariant "
                    "connections on homogeneous bundles.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a catalog of instances")
    p_run.add_argument("catalog",
                       help="catalog JSON file or a builtin catalog name")
    p_run.add_argument("--out", default="certs",
                       help="output directory for certificates")
    p_run.add_argument("--tol", type=_positive(float), default=None,
                       help="override the relative singular value tolerance")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override every instance seed")
    p_run.add_argument("--jobs", type=_positive(int), default=1,
                       help="accepted for compatibility; has no effect")
    p_run.set_defaults(func=cmd_run)
    p_explain = sub.add_parser("explain", help="human-readable report")
    p_explain.add_argument("id", help="instance id")
    p_explain.add_argument("--out", default="certs",
                           help="certificate directory")
    p_explain.set_defaults(func=cmd_explain)
    p_list = sub.add_parser("list-builtins", help="list builtin catalogs")
    p_list.set_defaults(func=cmd_list_builtins)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FatBundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
