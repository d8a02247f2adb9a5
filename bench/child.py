"""One repetition of a workload in a fresh interpreter.

Usage: python3 bench/child.py MODE T_SPAWN < params.json, with ``src`` on
PYTHONPATH.  MODE is ``import``, ``cold_pairs``, ``warm_sweep`` or
``cli``.  T_SPAWN is the parent's ``time.monotonic()`` just before it
started this process (on Linux that clock is shared by all processes), so
set-up time counts interpreter start.  ``params`` carries the generated
inputs and ``trace``.  The child prints one JSON object on its last stdout
line.  Output checks count failures and never abort the repetition.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import runpy
import sys
import time
from fractions import Fraction

import inputs
import spans
import speed

import fatbundles as fb
import fatbundles.cli
from fatbundles.catalog import make_pair, make_subsystem


class Checks:
    """Counts attempted operations and failed checks, with a few notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, note: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def _tau(items) -> tuple:
    return tuple(Fraction(x) for x in items)


def _pair_args(pair: str) -> tuple:
    g_params, h_type, h_params = inputs.PAIRS[pair]
    return ("so", g_params, h_type, h_params)


def _check_walls(checks: Checks, pair: str, sub) -> None:
    got = frozenset(tuple(r) for r in sub.forbidden)
    checks.expect(got == inputs.forbidden_walls(pair),
                  f"{pair}: forbidden walls {sorted(got)}")


def _check_cert(checks: Checks, pair: str, tau, cert) -> None:
    want_fat = not inputs.on_wall(tau, inputs.forbidden_walls(pair))
    if cert is None:
        checks.expect(False, f"{pair}: tau={tau} gave no certificate")
        return
    checks.expect(cert.agreed and cert.fat == want_fat
                  and cert.verdict_roots == ("fat" if want_fat else "not_fat"),
                  f"{pair}: tau={tau} verdicts {cert.verdict_roots}/"
                  f"{cert.verdict_oracle}/{cert.verdict_centralizer}")


def _timed(gauge: speed.Gauge, lat: list) -> dict:
    """Result of a timed phase.  ``lat`` holds its certify calls as
    (index of the gauge step holding the call, raw seconds)."""
    raw, ref = gauge.close()
    return {"t_start": gauge.t_start, "first_probe": gauge.probes[0],
            "wall_s": sum(raw), "ref_wall_s": sum(ref), "steps_s": ref,
            "lat_s": [d * ref[i] / raw[i] for i, d in lat]}


def _certify_all(g, emb, sub, pair, taus, gauge, lat, done) -> None:
    for tau in taus:
        x_u = emb.torus_vector(tau)
        t0 = time.perf_counter()
        try:
            cert = fb.certify(g, emb, x_u, subsystem=sub)
        except fb.CriteriaDisagree as exc:
            cert = exc.certificate
        seconds = time.perf_counter() - t0
        lat.append((gauge.mark(), seconds))
        done.append((pair, tau, cert))


def run_cold(params: dict, checks: Checks) -> dict:
    work = []
    for item in params["pairs"]:
        rank = inputs.rank_of(item["pair"])
        taus = [(Fraction(1),) * rank] + [_tau(t) for t in item["taus"]]
        work.append((item["pair"], taus))
    # Steps range from a millisecond to seconds: probe around each.
    gauge = speed.Gauge(probe_every=0)
    lat, done, subs = [], [], []
    for pair, taus in work:
        args = _pair_args(pair)
        g, emb = make_pair(*args)
        gauge.mark()
        sub = make_subsystem(*args)
        gauge.mark()
        subs.append((pair, sub))
        _certify_all(g, emb, sub, pair, taus, gauge, lat, done)
    for pair, sub in subs:
        _check_walls(checks, pair, sub)
    for pair, tau, cert in done:
        checks.attempted += 1
        _check_cert(checks, pair, tau, cert)
    # Cold guard: every pair was built here, none came from a warm cache.
    misses = make_pair.cache_info().misses
    checks.expect(misses == len(params["pairs"]),
                  f"make_pair misses {misses} != {len(params['pairs'])}")
    return _timed(gauge, lat)


def warm_setup(params: dict, checks: Checks) -> list:
    blocks = []
    for item in params["pairs"]:
        pair = item["pair"]
        args = _pair_args(pair)
        g, emb = make_pair(*args)
        sub = make_subsystem(*args)
        _check_walls(checks, pair, sub)
        rank = inputs.rank_of(pair)
        fb.certify(g, emb, emb.torus_vector((1,) * rank), subsystem=sub)
        taus = [_tau(t) for t in item["taus"]]
        blocks.append((pair, args, taus))
    return blocks


def run_warm(params: dict, checks: Checks) -> dict:
    blocks = warm_setup(params, checks)
    before = (make_pair.cache_info().misses,
              make_subsystem.cache_info().misses)
    gauge = speed.Gauge()
    lat, done = [], []
    for pair, args, taus in blocks:
        g, emb = make_pair(*args)
        sub = make_subsystem(*args)
        _certify_all(g, emb, sub, pair, taus, gauge, lat, done)
    for pair, tau, cert in done:
        checks.attempted += 1
        _check_cert(checks, pair, tau, cert)
    after = (make_pair.cache_info().misses,
             make_subsystem.cache_info().misses)
    checks.expect(after == before, f"cache misses in the timed phase: "
                                   f"{before} -> {after}")
    return _timed(gauge, lat)


def run_cli(params: dict, checks: Checks) -> dict:
    """``python -m fatbundles run CATALOG --out DIR --jobs N``, in-process
    so that import time and per-instance latency are seen from here.

    At --jobs 1 each instance is bracketed by probes and its latency is
    scaled by them; the run is scaled by the mean of all probes and its
    wall time leaves them out.  At --jobs 2 nothing probes inside the run
    (see ``speed``), so its reference time brackets the whole run only.
    """
    sequential = params["jobs"] == 1
    lat, probes = [], []
    probing = 0.0

    def timed_run_instance(spec):
        nonlocal probing
        t0 = time.perf_counter()
        try:
            return run_instance(spec)
        finally:
            t1 = time.perf_counter()
            if sequential:
                probes.append(speed.probe())
                probing += time.perf_counter() - t1
                lat.append((t1 - t0) * speed.scale(*probes[-2:]))
            else:
                lat.append(t1 - t0)

    run_instance = fatbundles.cli.run_instance
    fatbundles.cli.run_instance = timed_run_instance
    argv = ["fatbundles", "run", params["catalog"], "--out", params["out"],
            "--jobs", str(params["jobs"])]
    stdout = io.StringIO()
    saved_argv = sys.argv
    sys.argv = argv
    t_start = time.monotonic()
    probes.append(speed.probe())
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            runpy.run_module("fatbundles", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        wall = time.perf_counter() - t0 - probing
        sys.argv = saved_argv
    probes.append(speed.probe())
    factor = speed.scale(*probes)
    check_catalog_output(checks, params, code, stdout.getvalue())
    return {"t_start": t_start, "first_probe": probes[0],
            "wall_s": wall, "ref_wall_s": wall * factor,
            "lat_s": lat if sequential else [d * factor for d in lat]}


def check_catalog_output(checks: Checks, params: dict, code: int,
                         text: str) -> None:
    with open(params["catalog"]) as fh:
        catalog = json.load(fh)
    n = len(catalog)
    checks.attempted += n
    lines = text.strip().splitlines()
    checks.expect(code == 0, f"cli exit code {code}")
    checks.expect(bool(lines) and lines[-1] == f"{n}/{n} instances passed",
                  f"cli summary {lines[-1:] if lines else None}")
    for entry in catalog:
        path = os.path.join(params["out"], f"{entry['id']}.json")
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            checks.expect(False, f"{entry['id']}: {exc}")
            continue
        checks.expect(payload.get("passed") is True,
                      f"{entry['id']}: {payload.get('error', 'not passed')}")
        kind = entry["run"][0]
        if kind in ("roots", "oracle", "centralizer"):
            _check_certification_payload(checks, entry, payload)
        elif kind == "dual":
            d = payload.get("dual", {})
            checks.expect(d.get("agreed") == d.get("samples")
                          == entry["dual"]["samples"],
                          f"{entry['id']}: dual {d.get('agreed')}/"
                          f"{d.get('samples')}")


def _check_certification_payload(checks: Checks, entry: dict,
                                 payload: dict) -> None:
    pair = inputs.pair_of(entry)
    walls = inputs.forbidden_walls(pair)
    cert = payload.get("certificate", {})
    want = "not_fat" if inputs.on_wall(_tau(entry["Xu"]), walls) else "fat"
    verdicts = cert.get("verdicts", {})
    checks.expect(cert.get("agreed") is True
                  and verdicts.get("oracle") == want
                  and verdicts.get("centralizer") == want,
                  f"{entry['id']}: verdicts {verdicts}, walls say {want}")
    rank = inputs.rank_of(pair)
    samples = fb.sample_rational_vectors(rank, entry["samples"], entry["seed"])
    n_fat = sum(not inputs.on_wall(t, walls) for t in samples)
    checks.expect(payload.get("batch", {}).get("fat") == n_fat,
                  f"{entry['id']}: batch {payload.get('batch')}, "
                  f"walls say {n_fat} fat")


MODES = {"cold_pairs": run_cold, "warm_sweep": run_warm, "cli": run_cli}


def main() -> int:
    mode, t_spawn = sys.argv[1], float(sys.argv[2])
    t0 = time.perf_counter()
    first = speed.probe()
    probing = time.perf_counter() - t0
    params = json.load(sys.stdin)
    checks = Checks()
    tracer = None
    if params.get("trace"):
        tracer = spans.Tracer()
        spans.install(tracer)
    result = {}
    if mode in MODES:
        result = MODES[mode](params, checks)
        setup = result.pop("t_start") - t_spawn - probing
        # Set-up lies between the first probe and the timed phase's.
        factor = speed.scale(first, result.pop("first_probe"))
    else:
        setup = time.monotonic() - t_spawn - probing
        factor = speed.scale(first, speed.probe())
    result["setup_s"] = setup
    result["ref_setup_s"] = setup * factor
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(attempted=checks.attempted, failed=checks.failed,
                  notes=checks.notes)
    if tracer is not None:
        layers = tracer.summary()
        for fn, name in ((make_pair, "make_pair"),
                         (make_subsystem, "make_subsystem")):
            info = fn.cache_info()
            layers[f"catalog.{name}.hits"] = info.hits
            layers[f"catalog.{name}.misses"] = info.misses
        result["spans"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
