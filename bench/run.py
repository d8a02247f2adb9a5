"""fatbundles benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Every repetition runs in a fresh interpreter (``bench/child.py``),
one process at a time, so caches start cold and set-up is paid again.
Repetitions continue until ``--seconds`` is spent (at least three, or one
with ``--size tiny``).

Times are in reference seconds (``speed.py``): each timed interval is
rescaled by probes of a fixed calibration kernel run around it, so that
the shared host's drift in speed, which reaches 2x for tens of seconds,
cancels.  Every repetition runs the same operations in the same order,
and each operation's time is its median over the repetitions.

Workloads:
  cold_pairs   build so(2n+1) > so(2n) and so(2n,1) > so(2n), n = 2..5, with
               caches cold; certify each at J = (1, ..., 1) and at twelve
               seeded torus samples.
  warm_sweep   build and warm the five triple-equivalence pairs in set-up,
               then certify 4,000 seeded torus samples.
  cli_catalog  a seeded 36-instance catalog with every run kind, through
               ``python -m fatbundles run``: timed at --jobs 1, and run at
               --jobs 2 in the first repetition, whose certificates must be
               byte-identical to the --jobs 1 ones.  --jobs 2 is not timed
               end to end: two threads sharing the interpreter lock on two
               vCPUs follow the host's scheduler more than the program.

End-to-end metrics (--trace 0), per workload:
  setup_s         interpreter start to the start of the timed phase: import
                  on cold_pairs and cli_catalog (each cold_pairs repetition
                  also starts three import-only interpreters for more
                  samples); import, pair build and warm-up on warm_sweep.
                  The median over all samples.
  wall_s          the timed phase: on cold_pairs and warm_sweep the sum over
                  its steps (pair builds and certify calls) of each step's
                  median; on cli_catalog the median --jobs 1 run.
  certs_per_s     certificates per second of wall_s: certify calls on
                  cold_pairs and warm_sweep, certificate files (one per
                  instance) on cli_catalog.
  certify_p50_ms, certify_p99_ms
                  latency of one certificate: one certify call on cold_pairs
                  and warm_sweep, one instance on cli_catalog.  Percentiles over the operations' medians
                  (4,000 on warm_sweep, so p99 has 40 beyond it).  The
                  counts are printed above the result line.
  peak_rss_mb     maximum resident set of the workload process.
Failed checks over attempted operations (the fail ratio) are the result's
``failed`` / ``attempted``.

Per-layer metrics (--trace 1) come from traced repetitions alternated with
untraced ones; see ``spans.py``.  Span times are plain seconds.  On
cli_catalog the traced repetitions run --jobs 2 and the untraced ones run
both; ``cli.jobs_speedup`` is their --jobs 1 over their --jobs 2 median
wall time (below 1: the threads cost time).  ``trace.overhead_s`` is the
traced minus the untraced median wall time (--jobs 2 on cli_catalog), in
reference seconds.  A run record (versions, src line count,
per-layer table) is written to ``.bench_out/`` at the end of a traced run.
"""

from __future__ import annotations

import argparse
import filecmp
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
IMPORT_SAMPLES = 3
WORKLOADS = ("cold_pairs", "warm_sweep", "cli_catalog")
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "certs_per_s": "1/s",
    "certify_p50_ms": "ms", "certify_p99_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    names = [f"{s}.busy_s" for s in spans.SPANS]
    names += [f"{s}.self_s" for s in spans.SELF_SPANS]
    names += [f"{s}.calls" for s in spans.SPANS]
    names += ["rootdata.shift_found_ratio",
              "curvature.twistor_fatness.frames",
              "duality.compare_fat_sets.samples",
              "serialize.dumps_canonical.bytes",
              "catalog.make_pair.hits", "catalog.make_pair.misses",
              "catalog.make_subsystem.hits", "catalog.make_subsystem.misses",
              "cli.jobs_speedup", "trace.overhead_s", "fail_ratio"]
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(".bytes"):
            units[name] = "bytes"
        elif name.endswith(("ratio", "speedup")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


class Run:
    """One benchmark run: generated inputs, children, pooled checks."""

    def __init__(self, workload: str, seed: int, tiny: bool, traced: bool):
        self.workload = workload
        self.tiny = tiny
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.tmp = os.path.join(ROOT, ".bench_tmp", f"{workload}-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        if workload == "cold_pairs":
            self.params = inputs.cold_inputs(seed, tiny)
        elif workload == "warm_sweep":
            self.params = inputs.warm_inputs(seed, tiny)
        else:
            catalog = inputs.cli_catalog(seed, tiny)
            self.n_instances = len(catalog)
            self.catalog = os.path.join(self.tmp, "catalog.json")
            with open(self.catalog, "w") as fh:
                json.dump(catalog, fh)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def child(self, mode: str, params: dict, trace: bool = False) -> dict | None:
        """Run one fresh interpreter; None (and a failure) if it broke."""
        payload = json.dumps(dict(params, trace=trace))
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, mode, repr(t_spawn)], input=payload,
                capture_output=True, text=True, cwd=ROOT, env=self.env,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(f"{mode}: child timed out after {CHILD_TIMEOUT_S}s")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            result = None
        if result is None:
            tail = proc.stderr.strip().splitlines()[-1:]
            self.fail(f"{mode}: child exited {proc.returncode}: {tail}")
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.notes += result["notes"]
        return result

    # -- one repetition per workload ------------------------------------

    def import_setups(self) -> list:
        """Set-up is import alone on cold_pairs and cli_catalog, so a few
        import-only interpreters add cheap samples of it."""
        results = [self.child("import", {}) for _ in range(IMPORT_SAMPLES)]
        return [r["ref_setup_s"] for r in results if r]

    def rep(self, index: int, trace: bool = False) -> dict | None:
        if self.workload == "cli_catalog":
            return self.cli_rep(index, trace)
        res = self.child(self.workload, self.params, trace)
        if res is None:
            return None
        setup = [res["ref_setup_s"]]
        if self.workload == "cold_pairs" and not trace:
            setup += self.import_setups()
        return {"setup": setup, "raw_wall": res["wall_s"],
                "wall": res["ref_wall_s"], "steps": res["steps_s"],
                "lat": res["lat_s"], "rss": res["rss_mb"],
                "spans": res.get("spans")}

    def cli_rep(self, index: int, trace: bool) -> dict | None:
        """The catalog at --jobs 1, timed; also at --jobs 2 in the first
        repetition and in every untraced repetition of a traced run."""
        outs = {jobs: os.path.join(self.tmp, f"out{index}-j{jobs}")
                for jobs in (2, 1)}
        try:
            if trace:
                res = self.child("cli", {"catalog": self.catalog,
                                         "out": outs[2], "jobs": 2}, True)
                return res and {"wall": res["ref_wall_s"],
                                "spans": res["spans"]}
            both = index == 0 or self.traced
            results = {jobs: self.child("cli", {"catalog": self.catalog,
                                                "out": outs[jobs],
                                                "jobs": jobs})
                       for jobs in ((2, 1) if both else (1,))}
            if None in results.values():
                return None
            r1 = results[1]
            rep = {"setup": [r["ref_setup_s"] for r in results.values()],
                   "raw_wall": r1["wall_s"], "wall": r1["ref_wall_s"],
                   "lat": r1["lat_s"], "rss": r1["rss_mb"]}
            if both:
                self.compare_outputs(outs[2], outs[1])
                rep["wall_jobs2"] = results[2]["ref_wall_s"]
            return rep
        finally:
            for out in outs.values():
                shutil.rmtree(out, ignore_errors=True)

    def compare_outputs(self, a: str, b: str) -> None:
        """Certificates of the --jobs 2 and --jobs 1 runs are byte-identical."""
        names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
        self.attempted += len(names)
        for name in names:
            pa, pb = os.path.join(a, name), os.path.join(b, name)
            if not (os.path.isfile(pa) and os.path.isfile(pb)
                    and filecmp.cmp(pa, pb, shallow=False)):
                self.fail(f"{name}: differs between --jobs 2 and --jobs 1")


def repeat(step, seconds: float, min_reps: int) -> list:
    """Call ``step(i)`` until another call would overrun ``seconds``."""
    out = []
    t0 = time.monotonic()
    while True:
        out.append(step(len(out)))
        elapsed = time.monotonic() - t0
        if len(out) >= min_reps and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_op(samples, stat) -> list:
    """``stat`` of each operation over repetitions that ran the same
    operations in the same order."""
    return [stat(op) for op in zip(*samples)]


def end_to_end(run: Run, seconds: float) -> dict:
    reps = [r for r in repeat(run.rep, seconds, 1 if run.tiny else 3) if r]
    if not reps:
        return {}
    med = statistics.median
    lat = [x * 1e3 for x in per_op((r["lat"] for r in reps), med)]
    if run.workload == "cli_catalog":
        wall = med(r["wall"] for r in reps)
    else:
        wall = sum(per_op((r["steps"] for r in reps), med))
    print(f"{run.workload}: {len(reps)} repetitions of {len(lat)} timed "
          f"operations, {len(lat) // 100} beyond p99; wall_s per repetition "
          "(seconds/reference seconds): "
          + " ".join(f"{r['raw_wall']:.3f}/{r['wall']:.3f}" for r in reps))
    values = {
        "setup_s": med(s for r in reps for s in r["setup"]),
        "wall_s": wall,
        "certs_per_s": len(lat) / wall,
        "certify_p50_ms": percentile(lat, 50),
        "certify_p99_ms": percentile(lat, 99),
        "peak_rss_mb": med(r["rss"] for r in reps),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def per_layer(run: Run, seconds: float, seed: int) -> dict:
    def pair(i):
        return run.rep(2 * i), run.rep(2 * i + 1, trace=True)

    pairs = repeat(pair, seconds, 1)
    plain = [p for p, _ in pairs if p]
    traced = [t for _, t in pairs if t]
    if not plain or not traced:
        return {}
    layers = spans.median_summary([t["spans"] for t in traced])
    found = layers.pop("rootdata.find_fat_shift.found")
    searches = layers["rootdata.find_fat_shift.calls"]
    layers["rootdata.shift_found_ratio"] = found / searches if searches else 0.0
    # Traced repetitions of cli_catalog run --jobs 2.
    wall = statistics.median(p.get("wall_jobs2", p["wall"]) for p in plain)
    layers["cli.jobs_speedup"] = (
        statistics.median(p["wall"] for p in plain) / wall)
    layers["trace.overhead_s"] = statistics.median(t["wall"] for t in traced) - wall
    layers["fail_ratio"] = run.failed / max(run.attempted, 1)
    units = per_layer_units()
    metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    write_record(run, seed, len(plain), len(traced), metrics)
    return metrics


def _commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                          recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def write_record(run: Run, seed: int, n_plain: int, n_traced: int,
                 metrics: dict) -> None:
    record = {
        "workload": run.workload, "seed": seed, "commit": _commit(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(), "src_lines": _src_lines(),
        "untraced_repetitions": n_plain, "traced_repetitions": n_traced,
        "trace_overhead_s": metrics["trace.overhead_s"]["value"],
        "per_layer": metrics,
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"record-{run.workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one pair, a few samples, 3 instances")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fatbundles", "__init__.py")):
        print(f"error: no fatbundles sources under {ROOT}/src", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.size == "tiny", bool(args.trace))
    try:
        # Unmeasured: compiles bytecode and warms the file cache once.
        run.child("import", {})
        metrics = (per_layer(run, args.seconds, args.seed) if args.trace
                   else end_to_end(run, args.seconds))
    finally:
        run.close()
    if not metrics:
        run.fail("no repetition completed")
    for note in run.notes[:20]:
        print(f"check failed: {note}")
    print(json.dumps({"correct": run.failed == 0 and bool(metrics),
                      "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
