"""Per-layer spans recorded from outside the program.

``install`` swaps each traced public function of ``fatbundles`` for a
wrapper that records a span around the call, in every ``fatbundles``
module that holds a reference to it, so calls between modules are seen
too.  Each closing span adds to in-memory per-name totals of busy time,
self time (its time minus that of the traced spans directly inside it)
and calls; ``summary`` returns them.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time

# Fixed here rather than read from the package, so that the metric names
# stay the same when the package changes.
RUN_KINDS = ("roots", "oracle", "centralizer", "coupling", "pinch", "dual",
             "shift")

# (module, function) -> (span name, count name, measure of the result),
# for functions timed by a plain span; the count is optional.  The other
# traced functions get a dedicated wrapper in ``install``.
PLAIN_SPANS = {
    ("liealg", "build_algebra"): ("liealg.build_algebra", None, None),
    ("liealg", "so_block_embedding"): ("liealg.embedding", None, None),
    ("liealg", "u_block_embedding"): ("liealg.embedding", None, None),
    ("rootdata", "root_system_for"): ("rootdata.root_system_for", None, None),
    ("rootdata", "detect_subsystem"):
        ("rootdata.detect_subsystem", None, None),
    ("rootdata", "fat_by_roots"): ("rootdata.fat_by_roots", None, None),
    ("rootdata", "find_fat_shift"):
        ("rootdata.find_fat_shift", "rootdata.find_fat_shift.found",
         lambda shift: shift is not None),
    ("fatness", "certify"): ("fatness.certify", None, None),
    ("coupling", "bundle_instance"): ("coupling.bundle_instance", None, None),
    ("coupling", "instance_form"): ("coupling.instance_form", None, None),
    ("coupling", "verify_block_structure"):
        ("coupling.verify_block_structure", None, None),
    ("coupling", "ce_closedness"): ("coupling.ce_closedness", None, None),
    ("coupling", "nondegenerate_and_top_power"):
        ("coupling.nondegenerate_and_top_power", None, None),
    ("curvature", "random_pinched"): ("curvature.random_pinched", None, None),
    ("curvature", "twistor_fatness"):
        ("curvature.twistor_fatness", "curvature.twistor_fatness.frames",
         lambda report: len(report.frames)),
    ("curvature", "berger_check"): ("curvature.berger_check", None, None),
    ("duality", "dualize"): ("duality.dualize", None, None),
    ("duality", "pair_embeddings"): ("duality.pair_embeddings", None, None),
    ("duality", "compare_fat_sets"):
        ("duality.compare_fat_sets", "duality.compare_fat_sets.samples",
         lambda report: len(report.samples)),
    ("serialize", "dumps_canonical"):
        ("serialize.dumps_canonical", "serialize.dumps_canonical.bytes",
         lambda text: len(text.encode())),
}

# Every span name the summary reports, and those that also get a self
# time because traced calls run inside them.
SPANS = (
    "liealg.build_algebra", "liealg.embedding", "liealg.check_embedding",
    "rootdata.root_system_for", "rootdata.detect_subsystem",
    "rootdata.fat_by_roots", "rootdata.find_fat_shift",
    "fatness.oracle_first", "fatness.oracle", "fatness.centralizer_fat",
    "fatness.centralizer_not_fat", "fatness.certify",
    "coupling.bundle_instance", "coupling.instance_form",
    "coupling.verify_block_structure", "coupling.ce_closedness",
    "coupling.nondegenerate_and_top_power",
    "curvature.random_pinched", "curvature.twistor_fatness",
    "curvature.berger_check",
    "duality.dualize", "duality.pair_embeddings", "duality.compare_fat_sets",
    *(f"catalog.run_instance.{k}" for k in RUN_KINDS),
    "serialize.dumps_canonical",
)
SELF_SPANS = (
    "fatness.certify", "duality.pair_embeddings",
    "duality.compare_fat_sets",
    *(f"catalog.run_instance.{k}" for k in RUN_KINDS),
)
COUNTS = ("curvature.twistor_fatness.frames",
          "duality.compare_fat_sets.samples",
          "serialize.dumps_canonical.bytes",
          "rootdata.find_fat_shift.found")

_HIDDEN = "_hidden"


class _Frame:
    __slots__ = ("name", "start", "hidden", "children")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.hidden = 0.0     # time of hidden spans nested at any depth
        self.children = 0.0   # visible time of direct children


class Tracer:
    """Span recorder; spans of one thread nest through a per-thread stack."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.busy = dict.fromkeys(SPANS, 0.0)
        self.self_time = dict.fromkeys(SELF_SPANS, 0.0)
        self.calls = dict.fromkeys(SPANS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._oracle_seen: dict[int, object] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self._stack().append(frame)
        return frame

    def end(self, frame: _Frame, name: str | None = None) -> float:
        """Close ``frame``; ``name`` renames it (chosen from the result)."""
        now = time.perf_counter()
        stack = self._stack()
        stack.pop()
        raw = now - frame.start
        if frame.name == _HIDDEN:
            for outer in stack:
                outer.hidden += raw
            return raw
        name = name or frame.name
        dur = raw - frame.hidden
        nested = any(f.name == name for f in stack)
        with self._lock:
            # A span nested in one of the same name adds calls, not time.
            if not nested:
                self.busy[name] += dur
            self.calls[name] += 1
            if name in self.self_time:
                self.self_time[name] += dur - frame.children
        if stack:
            stack[-1].children += dur
        return dur

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.busy[name] += seconds
            self.calls[name] += 1

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def first_oracle(self, emb) -> bool:
        with self._lock:
            if id(emb) in self._oracle_seen:
                return False
            self._oracle_seen[id(emb)] = emb   # keeps the id unique
            return True

    def span(self, fn, name: str, count: str | None = None, measure=None):
        """``fn`` wrapped in a span; ``measure(result)`` adds to ``count``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if count:
                    self.count(count, measure(result))
                return result
            finally:
                self.end(frame)
        return wrapper

    def summary(self) -> dict:
        out = {}
        for name in SPANS:
            out[f"{name}.busy_s"] = self.busy[name]
            out[f"{name}.calls"] = self.calls[name]
        for name in SELF_SPANS:
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counts)
        return out


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fatbundles"
                                  or name.startswith("fatbundles."))]


def _replace(orig, wrapper) -> None:
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions; call after importing fatbundles.cli."""
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
    for (mod, fn_name), span_args in PLAIN_SPANS.items():
        orig = getattr(mods[mod], fn_name)
        _replace(orig, tracer.span(orig, *span_args))

    split = mods["liealg"].reductive_split

    @functools.wraps(split)
    def reductive_split(g, h_basis, *, check=True, **kwargs):
        frame = tracer.begin("liealg.embedding")
        try:
            emb = split(g, h_basis, check=check, **kwargs)
        finally:
            with_check = tracer.end(frame)
        if check:
            # The embedding check costs the difference to an unchecked
            # split of the same rows; the replica is hidden from the spans
            # that enclose it.
            hidden = tracer.begin(_HIDDEN)
            t0 = time.perf_counter()
            split(g, h_basis, check=False, **kwargs)
            without = time.perf_counter() - t0
            tracer.end(hidden)
            tracer.add("liealg.check_embedding", with_check - without)
        return emb
    _replace(split, reductive_split)

    oracle = mods["fatness"].fat_by_oracle

    @functools.wraps(oracle)
    def fat_by_oracle(emb, *args, **kwargs):
        name = "fatness.oracle_first" if tracer.first_oracle(emb) \
            else "fatness.oracle"
        frame = tracer.begin(name)
        try:
            return oracle(emb, *args, **kwargs)
        finally:
            tracer.end(frame)
    _replace(oracle, fat_by_oracle)

    central = mods["fatness"].fat_by_centralizer

    @functools.wraps(central)
    def fat_by_centralizer(*args, **kwargs):
        frame = tracer.begin("fatness.centralizer")
        verdict = None
        try:
            verdict = central(*args, **kwargs)
            return verdict
        finally:
            fat = verdict is not None and verdict.status == "fat"
            tracer.end(frame, "fatness.centralizer_fat" if fat
                       else "fatness.centralizer_not_fat")
    _replace(central, fat_by_centralizer)

    run_instance = mods["catalog"].run_instance

    @functools.wraps(run_instance)
    def traced_run_instance(spec):
        kind = spec.run[0] if len(spec.run) == 1 else None
        if kind not in RUN_KINDS:
            return run_instance(spec)
        frame = tracer.begin(f"catalog.run_instance.{kind}")
        try:
            return run_instance(spec)
        finally:
            tracer.end(frame)
    _replace(run_instance, traced_run_instance)


def median_summary(summaries: list[dict]) -> dict:
    """Per-metric median over the traced repetitions of one run."""
    return {k: statistics.median(s[k] for s in summaries)
            for k in summaries[0]}
