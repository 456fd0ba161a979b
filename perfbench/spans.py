"""Spans and counters recorded around the public calls the benchmark makes.

Tracing is installed only for ``--trace 1`` runs.  :func:`install` wraps
public functions and methods of each layer (at their module or class, so
calls made inside the library are caught too) with a span recorder, and
adds work counts taken from the call's arguments and result.  Spans live
in memory; :meth:`Tracer.dump` writes them out at exit.

Sampling kernels also run in forked ``ParallelEngine`` workers, whose
memory the parent never sees, so the diffusion counters live in an
anonymous shared-memory array created before any fork.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager

# Slots of the shared diffusion counter array.
_PATHS, _STEPS, _BUSY_S, _FALLBACK_PATHS, _ALLOC_PATHS = range(5)


class Tracer:
    """In-memory span list plus named counters."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._diffusion = multiprocessing.RawArray("d", 5)
        self._diffusion_lock = multiprocessing.Lock()
        self._parallel_engines: dict = {}
        self._restore: list = []

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()
            self._parallel_engines.clear()
        with self._diffusion_lock:
            self._diffusion[:] = [0.0] * len(self._diffusion)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def add_diffusion(self, paths: int, steps: int, seconds: float, fallback: bool,
                      alloc: bool) -> None:
        with self._diffusion_lock:
            cells = self._diffusion
            cells[_PATHS] += paths
            cells[_STEPS] += steps
            cells[_BUSY_S] += seconds
            if fallback:
                cells[_FALLBACK_PATHS] += paths
            if alloc:
                cells[_ALLOC_PATHS] += paths

    def diffusion(self) -> dict:
        paths, steps, busy, fallback, alloc = list(self._diffusion)
        return {
            "diffusion.paths": int(paths),
            "diffusion.steps": int(steps),
            "diffusion.busy_ms": busy * 1000.0,
            "diffusion.steps_per_s": steps / busy if busy else 0.0,
            "diffusion.fallback_share": fallback / paths if paths else 0.0,
            "diffusion.stamp_alloc_share": alloc / paths if paths else 0.0,
        }

    def durations_ms(self, name: str) -> list:
        return [(end - start) * 1000.0 for span_name, start, end, _ in self.spans
                if span_name == name and end is not None]

    def self_ms(self, name: str) -> float:
        """Total self time of ``name`` spans: duration minus their children's."""
        child = [0.0] * len(self.spans)
        for span_name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        return 1000.0 * sum(
            (end - start) - child[index]
            for index, (span_name, start, end, _) in enumerate(self.spans)
            if span_name == name and end is not None
        )

    def worker_crashes(self) -> int:
        return sum(engine.worker_crashes for engine in self._parallel_engines.values())

    def wrap(self, owner, attribute: str, name: str, counts=None) -> None:
        """Replace ``owner.attribute`` by a spanning, counting forwarder."""
        original = owner.__dict__[attribute]
        is_class_method = isinstance(original, classmethod)
        function = original.__func__ if is_class_method else original
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = function(*args, **kwargs)
            if counts is not None:
                counts(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = function
        self.replace(owner, attribute, classmethod(traced) if is_class_method else traced)

    def replace(self, owner, attribute: str, new) -> None:
        """Set ``owner.attribute`` to ``new`` until :meth:`uninstall`."""
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, new)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def dump(self, path, **extra) -> None:
        """Write the spans and counters out (once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "diffusion": self.diffusion(), **extra}, handle)


def _sample_path_batch(tracer: Tracer, function):
    """The kernel wrapper: counts paths, steps and which kernel regime ran."""

    def traced(self, target, stop_set, count, rng=None):
        start = time.perf_counter()
        with tracer.span("diffusion.batch"):
            batch = function(self, target, stop_set, count, rng=rng)
        cells = count * len(self.compiled)
        limit = getattr(self, "STAMP_CELL_LIMIT", None)
        retain = getattr(self, "STAMP_RETAIN_CELLS", None)
        fallback = limit is not None and cells > limit
        alloc = not fallback and retain is not None and cells > retain
        tracer.add_diffusion(len(batch), int(batch.total_nodes) - len(batch),
                             time.perf_counter() - start, fallback, alloc)
        return batch

    traced.__wrapped__ = function
    return traced


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points; returns ``tracer``."""
    import repro.core.raf as raf
    import repro.service.query_service as query_service
    from repro.diffusion.engine import NumpyEngine
    from repro.graph.compiled import CompiledGraph
    from repro.graph.social_graph import SocialGraph
    from repro.parallel.engine import ParallelEngine

    tracer.replace(NumpyEngine, "sample_path_batch",
                   _sample_path_batch(tracer, NumpyEngine.__dict__["sample_path_batch"]))

    tracer.wrap(CompiledGraph, "open", "graph.open")
    tracer.wrap(CompiledGraph, "__init__", "graph.resnapshot")
    original_alias = CompiledGraph.__dict__["alias_tables"]

    def alias_tables(self):
        if self._alias is not None:
            return self._alias
        with tracer.span("graph.alias_build"):
            return original_alias(self)

    tracer.replace(CompiledGraph, "alias_tables", alias_tables)
    tracer.wrap(SocialGraph, "add_edge", "graph.add_edge")

    def pmax_counts(tracer, result, args, kwargs):
        tracer.count("estimation.pmax_samples", result.num_samples)

    for module in (raf, query_service):
        tracer.wrap(module, "estimate_pmax", "estimation.pmax", pmax_counts)

    def framework_counts(tracer, result, args, kwargs):
        invitation, diagnostics = result
        tracer.count("setcover.type1_paths", diagnostics["num_type1"])
        tracer.count("setcover.cover_size", len(invitation))

    tracer.wrap(raf, "run_sampling_framework", "core.realizations", framework_counts)
    tracer.wrap(raf, "minimum_subset_cover", "setcover.msc")
    tracer.wrap(query_service, "maximize_acceptance_probability", "core.maximize")
    tracer.wrap(query_service.QueryService, "submit", "service.submit")

    def parallel(method: str, chunks_of):
        def counts(tracer, result, args, kwargs):
            engine = args[0]
            chunks = chunks_of(engine, args, kwargs)
            tracer._parallel_engines[id(engine)] = engine
            tracer.count("parallel.chunks", chunks)
            if engine.workers > 1 and chunks > 1 and not engine.degraded:
                tracer.count("parallel.pooled_chunks", chunks)

        tracer.wrap(ParallelEngine, method, "parallel.dispatch", counts)

    def counted(engine, args, kwargs):
        count = args[3] if len(args) > 3 else kwargs["count"]
        return math.ceil(count / engine.chunk_size)

    for method in ("sample_paths", "sample_path_batch", "sample_reduced"):
        parallel(method, counted)
    for method in ("sample_seeded_chunks", "sample_seeded_batches"):
        parallel(method, lambda engine, args, kwargs: len(args[3]))
    return tracer


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics a tracer can give on its own (in-process layers)."""
    chunks = tracer.counts["parallel.chunks"]
    return {
        "graph.open_ms": _median(tracer.durations_ms("graph.open")),
        "graph.resnapshot_ms": _median(tracer.durations_ms("graph.resnapshot")),
        "graph.alias_build_ms": _median(tracer.durations_ms("graph.alias_build")),
        **tracer.diffusion(),
        "estimation.pmax_samples": int(tracer.counts["estimation.pmax_samples"]),
        "estimation.pmax_ms": tracer.self_ms("estimation.pmax"),
        "setcover.type1_paths": int(tracer.counts["setcover.type1_paths"]),
        "setcover.cover_size": int(tracer.counts["setcover.cover_size"]),
        "setcover.msc_ms": tracer.self_ms("setcover.msc"),
        "core.realizations_ms": tracer.self_ms("core.realizations"),
        "core.maximize_ms": tracer.self_ms("core.maximize"),
        "parallel.chunks": int(chunks),
        "parallel.pooled_share": tracer.counts["parallel.pooled_chunks"] / chunks if chunks else 0.0,
        "parallel.busy_ms": tracer.self_ms("parallel.dispatch"),
        "parallel.worker_crashes": tracer.worker_crashes(),
        "service.exec_p50_ms": _median(tracer.durations_ms("service.submit")),
    }


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0
