"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer --
module and class attributes, patched for a traced call and restored
after it -- and records spans with :class:`repro.obs.Tracer`.  Nothing
under ``src/`` is edited: :func:`repro.pipeline.analyze` looks these
names up when it runs (``repro.schedule``, ``repro.store`` and
``repro.incr`` are imported inside the call; ``profile_control`` and
``profile_ddg`` are module globals of :mod:`repro.pipeline`), and the
VM binds ``DDGBuilder.on_block`` per execution.

Two kinds of wrapper:

* *span* wrappers open one span per call; the span's ``cat`` is the
  layer metric its self time counts towards;
* *hot* wrappers (the DDG builder's event hooks and the fold's point
  streams, called once per executed basic block) would cost too much
  as spans, so they add their exclusive nanoseconds to counters of the
  enclosing span instead.  ``hooks_ns`` on that span holds the hot
  time to subtract from its own self time.

Every ``*_ms`` layer metric is exclusive (self) time, so the layers
and ``pipeline.unattributed`` add up to the traced call latency.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from typing import Dict, List

#: (owner, attribute, layer) -- span wrappers; ``owner`` is a module or
#: ``module:Class``
SPAN_TARGETS = [
    ("repro.pipeline", "analyze", "pipeline.unattributed"),
    ("repro.pipeline", "profile_control", "cfg.stage1"),
    ("repro.pipeline", "build_loop_forest", "cfg.forests"),
    ("repro.pipeline", "build_recursive_component_set", "cfg.forests"),
    ("repro.pipeline", "profile_ddg", "isa.stage2_self"),
    ("repro.folding:FastFoldingSink", "finalize", "folding.finalize"),
    ("repro.schedule", "build_nest_forest", "schedule.deps"),
    ("repro.schedule", "analyze_forest", "schedule.analysis"),
    ("repro.schedule", "plan_all", "schedule.plan"),
    ("repro.feedback.jsonout", "report_document", "feedback.render"),
    ("repro.feedback.jsonout", "metrics_document", "feedback.render"),
    ("repro.feedback.jsonout", "render_json", "feedback.render"),
    ("repro.store", "keys_for_spec", "store.keys"),
    ("repro.store:ArtifactStore", "load", "store.read"),
    ("repro.store:ArtifactStore", "get", "store.read"),
    ("repro.store:ArtifactStore", "contains", "store.read"),
    ("repro.store", "decode_control_profile", "store.decode"),
    ("repro.store", "decode_stage2", "store.decode"),
    ("repro.store", "decode_stage2_meta", "store.decode"),
    ("repro.store", "encode_control_profile", "store.write"),
    ("repro.store", "encode_stage2", "store.write"),
    ("repro.store:ArtifactStore", "put", "store.write"),
    ("repro.incr", "build_manifest", "store.write"),
    ("repro.incr", "encode_regions", "store.write"),
    ("repro.incr", "plan_incremental", "incr.plan"),
    ("repro.incr", "stitch_folded", "incr.stitch"),
    ("repro.incr", "edited_spec", "incr.edit"),
]

#: (owner, attribute, layer, counts points) -- hot wrappers
HOT_TARGETS = [
    ("repro.folding:FastFoldingSink", "instr_points", "folding.stream", True),
    ("repro.folding:FastFoldingSink", "dep_points", "folding.stream", True),
]
#: every event hook the DDG builder itself defines is a hot target
HOT_HOOK_OWNER = "repro.ddg:DDGBuilder"
HOT_HOOK_LAYER = "ddg.builder_self"
HOT_LAYERS = (HOT_HOOK_LAYER, "folding.stream")

#: counter on a span: nanoseconds of hot wrappers directly under it,
#: subtracted from its self time
HOOKS_NS = "hooks_ns"


def _count_get(sp, args, out) -> None:
    sp.count("store.hits" if out is not None else "store.misses")


def _count_put(sp, args, out) -> None:
    store, key = args[0], args[1]
    sp.count("store.bytes_written", os.path.getsize(store.path_of(key)))


def _count_instrs(sp, args, out) -> None:
    sp.count("isa.dyn_instrs", out.stats.dyn_instrs)


#: span name -> what it counts, given (span, call arguments, result)
SPAN_COUNTERS = {
    "ArtifactStore.get": _count_get,
    "ArtifactStore.put": _count_put,
    "profile_control": _count_instrs,
    "profile_ddg": _count_instrs,
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _label(owner_obj, attr: str) -> str:
    if isinstance(owner_obj, type):
        return f"{owner_obj.__name__}.{attr}"
    return attr


class LayerTracer:
    """Installs the wrappers around traced calls and aggregates the
    recorded span trees into per-layer totals."""

    def __init__(self) -> None:
        from repro.obs import Tracer

        self.tracer = Tracer()
        self._hot_stack: List[int] = []
        #: (owner, attribute, original, wrapper)
        self._patches = self._build_patches()
        #: metric -> summed value over traced calls
        self.sums: Dict[str, float] = defaultdict(float)
        self.calls = 0
        #: (span name, layer) -> [count, total s, children s, self s]
        self.table: Dict[tuple, List[float]] = {}

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str):
        span = self.tracer.span
        count = SPAN_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            with span(name, cat=layer) as sp:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(sp, args, out)
                return out

        return wrapper

    def _hot_wrapper(self, fn, layer: str, points: bool):
        stack = self._hot_stack
        current = self.tracer.current
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                counters = current().counters
                counters[layer] = counters.get(layer, 0) + dt - child
                if points:
                    counters["ddg.points"] = (
                        counters.get("ddg.points", 0) + len(args[2])
                    )
                if stack:
                    stack[-1] += dt
                else:
                    counters[HOOKS_NS] = counters.get(HOOKS_NS, 0) + dt

        return wrapper

    def _build_patches(self) -> List[tuple]:
        targets = [(o, a, layer, None) for o, a, layer in SPAN_TARGETS]
        targets += [(o, a, layer, pts) for o, a, layer, pts in HOT_TARGETS]
        targets += [
            (HOT_HOOK_OWNER, attr, HOT_HOOK_LAYER, False)
            for attr in vars(_resolve(HOT_HOOK_OWNER))
            if attr.startswith("on_")
        ]
        patches = []
        for owner, attr, layer, points in targets:
            obj = _resolve(owner)
            fn = getattr(obj, attr)
            if points is None:
                wrapped = self._span_wrapper(fn, _label(obj, attr), layer)
            else:
                wrapped = self._hot_wrapper(fn, layer, points)
            patches.append((obj, attr, fn, wrapped))
        return patches

    def install(self) -> None:
        for obj, attr, _, wrapped in self._patches:
            setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, fn, _ in self._patches:
            setattr(obj, attr, fn)

    # -- aggregation -----------------------------------------------------------

    def add_call(self, root) -> None:
        """Fold one finished call's span tree into the layer sums and the
        self-time table."""
        self.calls += 1
        sums = self.sums
        for _, span in root.walk():
            counters = span.counters
            children = sum(c.duration for c in span.children)
            hot = counters.get(HOOKS_NS, 0) / 1e9
            own = span.duration - children - hot
            sums[span.cat + "_ms"] += own * 1e3
            for key, value in counters.items():
                if key == HOOKS_NS:
                    continue
                if key in HOT_LAYERS:
                    sums[key + "_ms"] += value / 1e6
                else:
                    sums[key] += value
            row = self.table.setdefault((span.name, span.cat), [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.duration
            row[2] += children + hot
            row[3] += own
        sums["latency_ms"] += root.duration * 1e3

    def per_call(self, metric: str) -> float:
        return self.sums.get(metric, 0.0) / max(self.calls, 1)

    def render_table(self) -> str:
        """Per-span self-time table, ms per traced call; the
        ``unattributed`` column of a parent is its time minus its
        children's (for the ``pipeline.unattributed`` rows: glue no
        layer wrapper covers)."""
        n = max(self.calls, 1)
        lines = [
            f"{'span':34s} {'layer':24s} {'count':>7s} {'total':>10s}"
            f" {'children':>10s} {'unattributed':>12s}",
        ]
        rows = sorted(self.table.items(), key=lambda kv: -kv[1][3])
        for (name, layer), (count, total, child, own) in rows:
            lines.append(
                f"{name:34s} {layer:24s} {count:7d} {total * 1e3 / n:10.3f}"
                f" {child * 1e3 / n:10.3f} {own * 1e3 / n:12.3f}"
            )
        for layer in HOT_LAYERS:
            lines.append(
                f"{'(hot) ' + layer:34s} {layer:24s} {'':>7s} {'':>10s}"
                f" {'':>10s} {self.per_call(layer + '_ms'):12.3f}"
            )
        lines.append(f"traced calls: {self.calls}; figures are ms per traced call")
        return "\n".join(lines) + "\n"

    def write_outputs(self, prefix: str, workload: str) -> List[str]:
        """Chrome trace and self-time table next to ``prefix``."""
        from repro.obs import write_chrome_trace

        trace_path = prefix + "-trace.json"
        table_path = prefix + "-selftime.txt"
        write_chrome_trace(trace_path, self.tracer.roots, workload=workload)
        with open(table_path, "w") as fh:
            fh.write(self.render_table())
        return [trace_path, table_path]
