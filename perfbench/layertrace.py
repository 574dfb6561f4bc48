"""Out-of-tree layer tracer for the campaign benchmark.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public entry points of each ``repro`` layer from the outside (class
attributes and module-level functions are replaced by timing wrappers)
before a campaign runs, so the campaign executes the same code paths as
an untraced run, only with a stopwatch around each layer boundary.

Three kinds of instrumentation, chosen by how often the boundary is
crossed:

* ``span`` boundaries (cells, machine builds, region claims, mlock,
  SoftTRR ticks, fleet checkpoints, ...) keep one record per call:
  ``(name, start, end, parent span, cell id)``, held in memory and
  written out when the campaign ends.
* ``agg`` boundaries (page faults, MMU runs, feed publishes, sanitizer
  checks, ...) are crossed up to ~10^5 times per campaign; they keep
  only call count, inclusive time and self time.
* ``count`` boundaries keep a call count only.  The hottest function of
  all, ``AddressMapping.phys_to_dram`` (~2M calls per campaign), is not
  wrapped: the sampler below attributes it.

Self time of a call is its duration minus the time spent in wrapped
calls nested inside it, so summing self time per layer attributes every
traced nanosecond exactly once.

A ``signal.setitimer`` sampler folds the innermost ``repro.<layer>``
frame of each profiling tick into per-layer sample counts.  It costs
nothing per call, so it cross-checks the wrappers' attribution (which
inflates small, frequently called functions, as cProfile does).

Fleet workers are forked from the traced supervisor and inherit the
wrappers; the first cell a worker runs resets the inherited state and
restarts the sampler there, and every finished cell flushes the
worker's aggregates and new spans to ``<trace_dir>``, where
:meth:`LayerTracer.finish` merges them.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import signal
import sys
import time
from collections import defaultdict

__all__ = ["LAYERS", "LayerTracer", "install", "per_layer_metrics"]

_now = time.perf_counter_ns

#: The layers the benchmark attributes time to (``repro.<layer>``).
LAYERS = ("scenarios", "machine", "attacks", "patterns", "kernel", "mmu",
          "dram", "defenses", "core", "checkers", "workloads", "fleet")

#: (key, module, attribute path, mode).  The key's first component is
#: the layer the boundary belongs to.
WRAPS = (
    ("scenarios.cell", "repro.scenarios.runner", "run_scenario", "cell"),
    ("machine.build", "repro.machine.machine", "Machine.__init__", "span"),
    ("machine.build", "repro.machine.machine", "Machine.from_parts", "span"),
    ("attacks.claim_region", "repro.attacks.templating",
     "FlipTemplater.claim_region", "span"),
    ("attacks.find_vulnerable", "repro.attacks.templating",
     "FlipTemplater.find_vulnerable_pages", "span"),
    ("attacks.placement", "repro.attacks.placement", "place_l1pt_at", "span"),
    ("attacks.placement", "repro.attacks.placement", "spray_l1pts", "span"),
    ("patterns.compile", "repro.patterns.compile", "compile_pattern", "span"),
    ("patterns.run", "repro.patterns.program", "AttackProgram.run", "span"),
    ("kernel.page_fault", "repro.kernel.kernel", "Kernel.handle_page_fault",
     "agg"),
    ("kernel.user_access_run", "repro.kernel.kernel",
     "Kernel.user_access_run", "agg"),
    ("kernel.mlock", "repro.kernel.kernel", "Kernel.mlock", "span"),
    ("mmu.access", "repro.mmu.mmu", "Mmu.load", "agg"),
    ("mmu.access", "repro.mmu.mmu", "Mmu.store", "agg"),
    ("mmu.access_run", "repro.mmu.mmu", "Mmu.access_run", "agg"),
    ("mmu.write_pte", "repro.mmu.mmu", "Mmu.write_pte", "agg"),
    ("dram.hammer_batch", "repro.dram.module", "DramModule.hammer_batch",
     "agg"),
    ("dram.raw_rw", "repro.dram.module", "DramModule.raw_read", "count"),
    ("dram.raw_rw", "repro.dram.module", "DramModule.raw_write", "count"),
    ("defenses.observe", "repro.dram.feed", "ActivationFeed.publish", "agg"),
    ("core.tick", "repro.core.softtrr", "SoftTrr._on_tick", "span"),
    ("core.fault_capture", "repro.core.softtrr", "SoftTrr._on_page_fault",
     "agg"),
    ("core.refresh", "repro.core.refresher", "RowRefresher.refresh", "agg"),
    ("checkers.pte_check", "repro.checkers.sanitizers",
     "PteSanitizer.on_write_entry", "agg"),
    ("checkers.row_shadow", "repro.checkers.sanitizers",
     "RowShadowSanitizer.on_phys_write", "agg"),
    ("workloads.run", "repro.workloads.base", "SliceWorkload.run", "span"),
    ("fleet.append_record", "repro.fleet.checkpoint",
     "ResultDir.append_record", "span"),
)

#: Profiling-timer period of the sampler (process CPU seconds).
SAMPLE_INTERVAL_S = 0.002


class LayerTracer:
    """Per-process span, aggregate, counter and sample store."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        # Containers are cleared in place, never replaced: the wrappers
        # close over them.
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.cell_ns = []
        self.spans = []
        self.samples = defaultdict(int)
        self.child_ns = [0]
        self.span_stack = [-1]
        self.kernels = []
        self.softtrrs = []
        self.cell = None
        self._flushed_spans = 0

    # ---------------------------------------------------------- wrappers
    def timed(self, key, fn, span):
        """Wrap ``fn``: call count, inclusive/self time, optional span."""
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        child_ns, spans, span_stack = self.child_ns, self.spans, \
            self.span_stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_ns.append(0)
            if span:
                index = len(spans)
                spans.append(None)
                span_stack.append(index)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                duration = end - start
                inner = child_ns.pop()
                child_ns[-1] += duration
                calls[key] += 1
                total_ns[key] += duration
                self_ns[key] += duration - inner
                if span:
                    span_stack.pop()
                    spans[index] = (key, start, end, span_stack[-1],
                                    tracer.cell)

        return wrapper

    def counted(self, key, fn):
        """Wrap ``fn``: call count only."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def cell_wrapper(self, key, fn):
        """``run_scenario``: a span per cell plus counter harvesting."""
        timed = self.timed(key, fn, True)
        tracer = self

        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            outer = tracer.cell
            tracer.cell = spec if isinstance(spec, str) else spec.name
            start = _now()
            try:
                return timed(spec, *args, **kwargs)
            finally:
                tracer.cell_ns.append(_now() - start)
                tracer.harvest()
                tracer.cell = outer

        return wrapper

    # ---------------------------------------------------------- counters
    def harvest(self) -> None:
        """Fold the behavioural counters of finished machines in."""
        counts = self.counts
        for kernel in self.kernels:
            mmu, dram = kernel.mmu, kernel.dram
            counts["kernel.faults_handled"] += kernel.faults_handled
            counts["tlb.hits"] += mmu.tlb.hits
            counts["tlb.misses"] += mmu.tlb.misses
            counts["cache.hits"] += mmu.cache.hits
            counts["cache.misses"] += mmu.cache.misses
            counts["dram.activations"] += dram.total_activations
            counts["engine.deposits"] += dram.engine.total_deposits
            counts["actuator.refreshes"] += dram.actuator.refreshes
        for module in self.softtrrs:
            stats = module.stats()
            counts["softtrr.ticks"] += stats.ticks
            counts["softtrr.captured_faults"] += stats.captured_faults
            counts["softtrr.refreshes"] += stats.refreshes
        del self.kernels[:]
        del self.softtrrs[:]

    # ----------------------------------------------------------- sampler
    def _on_sample(self, signum, frame) -> None:
        samples = self.samples
        samples["_total"] += 1
        while frame is not None:
            name = frame.f_globals.get("__name__", "")
            if name.startswith("repro."):
                samples[name.split(".", 2)[1]] += 1
                if name == "repro.dram.address":
                    samples["dram.address"] += 1
                return
            frame = frame.f_back

    def start_sampler(self) -> None:
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop_sampler(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    # ------------------------------------------------------ fleet worker
    def become_worker(self) -> None:
        """Reset state inherited over fork; sample this process."""
        self.pid = os.getpid()
        for table in (self.calls, self.total_ns, self.self_ns, self.counts,
                      self.samples):
            table.clear()
        del self.cell_ns[:]
        del self.spans[:]
        del self.kernels[:]
        del self.softtrrs[:]
        self.child_ns[:] = [0]
        self.span_stack[:] = [-1]
        self._flushed_spans = 0
        self.start_sampler()

    def flush_worker(self) -> None:
        """Write this worker's aggregates and not-yet-written spans."""
        base = os.path.join(self.trace_dir, f"worker-{self.pid}")
        with open(base + ".spans.jsonl", "a", encoding="utf-8") as handle:
            for index in range(self._flushed_spans, len(self.spans)):
                handle.write(json.dumps(
                    _span_record(self.pid, index, self.spans[index])) + "\n")
        self._flushed_spans = len(self.spans)
        tmp = base + ".agg.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self._aggregates(), handle)
        os.replace(tmp, base + ".agg.json")

    def _aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "cell_ns": list(self.cell_ns),
            "samples": dict(self.samples),
            "spans": len(self.spans),
        }

    # ------------------------------------------------------------ finish
    def finish(self, spans_path: str) -> dict:
        """Stop sampling, merge worker files, write spans; metrics out."""
        self.stop_sampler()
        self.harvest()
        merged = self._aggregates()
        with open(spans_path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                if span is not None:
                    out.write(json.dumps(
                        _span_record(self.pid, index, span)) + "\n")
            for agg_path in sorted(glob.glob(
                    os.path.join(self.trace_dir, "worker-*.agg.json"))):
                with open(agg_path, encoding="utf-8") as handle:
                    _merge(merged, json.load(handle))
                spans_file = agg_path[:-len(".agg.json")] + ".spans.jsonl"
                if os.path.exists(spans_file):
                    with open(spans_file, encoding="utf-8") as handle:
                        out.writelines(handle)
        return per_layer_metrics(merged)


def _span_record(pid: int, index: int, span) -> dict:
    key, start, end, parent, cell = span
    return {"id": f"{pid}:{index}", "name": key, "start_ns": start,
            "end_ns": end,
            "parent": None if parent < 0 else f"{pid}:{parent}",
            "cell": cell}


def _merge(into: dict, other: dict) -> None:
    for table in ("calls", "total_ns", "self_ns", "counts", "samples"):
        for key, value in other[table].items():
            into[table][key] = into[table].get(key, 0) + value
    into["cell_ns"].extend(other["cell_ns"])
    into["spans"] += other["spans"]


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def per_layer_metrics(agg: dict) -> dict:
    """Flat ``{metric: value}`` from merged aggregates (seconds/counts)."""
    calls = agg["calls"]
    total_s = {key: ns / 1e9 for key, ns in agg["total_ns"].items()}
    counts = agg["counts"]
    samples = agg["samples"]

    def seconds(key):
        return total_s.get(key, 0.0)

    cells = sorted(ns / 1e9 for ns in agg["cell_ns"])
    tlb_lookups = counts.get("tlb.hits", 0) + counts.get("tlb.misses", 0)
    cache_lookups = (counts.get("cache.hits", 0)
                     + counts.get("cache.misses", 0))
    batch_acts = counts.get("dram.batch_acts", 0)
    records = counts.get("fleet.records", 0)
    out = {
        "scenarios.cells": len(cells),
        "scenarios.cell_s.p50": _percentile(cells, 0.5),
        "scenarios.cell_s.p90": _percentile(cells, 0.9),
        "scenarios.cell_s.max": cells[-1] if cells else 0.0,
        "machine.builds": calls.get("machine.build", 0),
        "machine.build_s": seconds("machine.build"),
        "attacks.claim_region_s": seconds("attacks.claim_region"),
        "attacks.claim_region_calls": calls.get("attacks.claim_region", 0),
        "attacks.placement_s": seconds("attacks.placement"),
        "attacks.find_vulnerable_s": seconds("attacks.find_vulnerable"),
        "patterns.compile_s": seconds("patterns.compile"),
        "patterns.run_s": seconds("patterns.run"),
        "patterns.plan_acts": counts.get("patterns.plan_acts", 0),
        "kernel.page_fault_s": seconds("kernel.page_fault"),
        "kernel.user_access_run_s": seconds("kernel.user_access_run"),
        "kernel.mlock_s": seconds("kernel.mlock"),
        "kernel.faults_handled": counts.get("kernel.faults_handled", 0),
        "mmu.access_s": seconds("mmu.access"),
        "mmu.access_run_s": seconds("mmu.access_run"),
        "mmu.write_pte_s": seconds("mmu.write_pte"),
        "tlb.misses": counts.get("tlb.misses", 0),
        "tlb.hit_ratio": (counts.get("tlb.hits", 0) / tlb_lookups
                          if tlb_lookups else 0.0),
        "cache.misses": counts.get("cache.misses", 0),
        "cache.hit_ratio": (counts.get("cache.hits", 0) / cache_lookups
                            if cache_lookups else 0.0),
        "dram.hammer_batch_s": seconds("dram.hammer_batch"),
        "dram.activations": counts.get("dram.activations", 0),
        "dram.host_ns_per_act": (seconds("dram.hammer_batch") * 1e9
                                 / batch_acts if batch_acts else 0.0),
        "engine.deposits": counts.get("engine.deposits", 0),
        "dram.raw_rw_calls": counts.get("dram.raw_rw", 0),
        "defenses.observe_s": seconds("defenses.observe"),
        "actuator.refreshes": counts.get("actuator.refreshes", 0),
        "core.tick_s": seconds("core.tick"),
        "core.fault_capture_s": seconds("core.fault_capture"),
        "core.refresh_s": seconds("core.refresh"),
        "softtrr.ticks": counts.get("softtrr.ticks", 0),
        "softtrr.captured_faults": counts.get("softtrr.captured_faults", 0),
        "softtrr.refreshes": counts.get("softtrr.refreshes", 0),
        "checkers.pte_check_s": seconds("checkers.pte_check"),
        "checkers.row_shadow_s": seconds("checkers.row_shadow"),
        "workloads.run_s": seconds("workloads.run"),
        "fleet.append_record_s": seconds("fleet.append_record"),
        "fleet.records": records,
        "fleet.attempts_per_cell": (counts.get("fleet.attempts", 0) / records
                                    if records else 0.0),
        "trace.spans": agg["spans"],
        "sampled.samples": samples.get("_total", 0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            ns for key, ns in agg["self_ns"].items()
            if key.split(".", 1)[0] == layer) / 1e9
    total = samples.get("_total", 0)
    for layer in LAYERS + ("dram.address",):
        out[f"{layer}.sampled_share"] = (samples.get(layer, 0) / total
                                         if total else 0.0)
    return out


# ------------------------------------------------------------- install
def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return module, owner, attr


def _replace_function(original, replacement) -> None:
    """Rebind a module-level function in every ``repro`` module that
    imported it by name (``from .placement import place_l1pt_at``)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _post_hook(fn, after):
    """Wrap ``fn`` so ``after(args, result)`` runs once it returns."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, kwargs, result)
        return result

    return wrapper


def install(trace_dir: str) -> LayerTracer:
    """Wrap every boundary in :data:`WRAPS`; start the sampler."""
    tracer = LayerTracer(trace_dir)
    counts = tracer.counts

    def note_plan(args, kwargs, plan):
        counts["patterns.plan_acts"] += plan.total_acts

    def note_record(args, kwargs, result):
        record = args[1] if len(args) > 1 else kwargs["record"]
        counts["fleet.records"] += 1
        counts["fleet.attempts"] += int(record.get("attempts", 1))

    post = {"patterns.compile": note_plan,
            "fleet.append_record": note_record}

    for key, module_name, path, mode in WRAPS:
        module, owner, attr = _resolve(module_name, path)
        raw = vars(owner)[attr] if owner is not module else \
            getattr(module, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if key == "dram.hammer_batch":
            fn = _count_batch_acts(fn, counts)
        if key in post:
            fn = _post_hook(fn, post[key])
        if mode == "count":
            wrapped = tracer.counted(key, fn)
        elif mode == "cell":
            wrapped = tracer.cell_wrapper(key, fn)
        else:
            wrapped = tracer.timed(key, fn, mode == "span")
        if owner is module:
            _replace_function(raw, wrapped)
        else:
            setattr(owner, attr,
                    classmethod(wrapped) if is_classmethod else wrapped)

    _register_instances(tracer)
    _wrap_fleet_worker(tracer)
    tracer.start_sampler()
    return tracer


def _count_batch_acts(fn, counts):
    @functools.wraps(fn)
    def wrapper(dram, *args, **kwargs):
        before = dram.total_activations
        try:
            return fn(dram, *args, **kwargs)
        finally:
            counts["dram.batch_acts"] += dram.total_activations - before

    return wrapper


def _register_instances(tracer: LayerTracer) -> None:
    """Remember every kernel and loaded SoftTRR for counter harvest."""
    from repro.core.softtrr import SoftTrr
    from repro.kernel.kernel import Kernel

    Kernel.__init__ = _post_hook(
        Kernel.__init__, lambda args, kwargs, _: tracer.kernels.append(
            args[0]))
    SoftTrr.load = _post_hook(
        SoftTrr.load, lambda args, kwargs, _: tracer.softtrrs.append(
            args[0]))


def _wrap_fleet_worker(tracer: LayerTracer) -> None:
    """Forked fleet workers: reset on first cell, flush after each."""
    from repro.fleet import supervisor

    run_cell = supervisor.run_fleet_cell

    @functools.wraps(run_cell)
    def wrapper(*args, **kwargs):
        if os.getpid() != tracer.pid:
            tracer.become_worker()
        try:
            return run_cell(*args, **kwargs)
        finally:
            tracer.flush_worker()

    supervisor.run_fleet_cell = wrapper
