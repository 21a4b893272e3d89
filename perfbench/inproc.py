"""The in-process workloads: ``cold``, ``warm`` and ``edit``.

One call runs the spec factory, :func:`repro.pipeline.analyze` against
an artifact store, and renders the report and metrics documents -- one
user request for feedback on one program.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

from common import ROOT, SRC, edit_id, edit_targets
from harness import Record, Request

#: per workload: fill the store at set-up, minimum passes, tail percentile
#: (the highest with >= 10 samples beyond it at the minimum pass count)
KINDS = {
    "cold": {"fill": False, "min_passes": 4, "tail_pct": 86},   # 76 calls
    "warm": {"fill": True, "min_passes": 28, "tail_pct": 98},   # 532 calls
    "edit": {"fill": True, "min_passes": 2, "tail_pct": 83},    # 62 calls
}

#: what a fresh process imports before its first call
IMPORTS = (
    "import repro.pipeline, repro.workloads, repro.store, repro.incr, "
    "repro.schedule, repro.folding, repro.feedback.jsonout"
)


def fresh_import() -> None:
    """Import the analyser in a fresh interpreter (a set-up step)."""
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); {IMPORTS}"],
        cwd=ROOT,
        check=True,
    )


def fill_store(store_dir: str) -> None:
    """Analyse the 19 default Rodinia programs into ``store_dir``, one
    worker process per CPU (at most two)."""
    from repro.runner import run_suite
    from repro.workloads import RODINIA_ORDER

    results = run_suite(
        list(RODINIA_ORDER), jobs=min(2, os.cpu_count() or 1), cache_dir=store_dir
    )
    bad = [f"{r.name}: {r.error}" for r in results if not r.ok]
    if bad:
        raise RuntimeError("store fill failed: " + "; ".join(bad))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class InProcessWorkload:
    def __init__(self, kind: str, tmp: str) -> None:
        from repro.workloads import RODINIA_ORDER, rodinia_workloads

        self.kind = kind
        self.tmp = tmp
        self.reg = rodinia_workloads()
        self.names = list(RODINIA_ORDER)
        self.targets = edit_targets() if kind == "edit" else []
        self.store = None
        self.store_dir: Optional[str] = None
        self.baselines = {}
        self.next_value = 1000
        self.edit_calls = 0
        #: cold: store bytes after each program's call
        self.cold_bytes = {}
        self.warmups: List[Record] = []

    # -- requests --------------------------------------------------------------

    def _edit(self, pid: str, name: str, func: str) -> Request:
        self.next_value += 1
        return Request(
            pid, name, func=func, value=self.next_value,
            baseline=self.baselines[name],
        )

    def requests(self) -> List[Request]:
        """One pass, in registry order (the caller shuffles)."""
        if self.kind == "edit":
            return [self._edit(*t) for t in self.targets]
        return [Request(name, name) for name in self.names]

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> float:
        """One complete set-up; returns its wall seconds.  Repeating it
        replaces the previous store."""
        from repro.isa import fingerprint_program
        from repro.store import ArtifactStore

        t0 = time.perf_counter()
        fresh_import()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir)
            self.store = self.store_dir = None
        self.edit_calls = 0
        if KINDS[self.kind]["fill"]:
            self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.tmp)
            fill_store(self.store_dir)
            self.store = ArtifactStore(self.store_dir)
        if self.kind == "edit":
            self.baselines = {
                name: fingerprint_program(self.reg[name]().program)
                for name in self.names
            }
            warmup = self._edit(edit_id("nn", "euclid"), "nn", "euclid")
        else:
            warmup = Request("nn", "nn")
        self.warmups.append(self.call(warmup, None))
        return time.perf_counter() - t0

    # -- one call --------------------------------------------------------------

    def call(self, req: Request, layers) -> Record:
        from repro import incr, pipeline
        from repro.feedback import jsonout
        from repro.obs import NULL_TRACER
        from repro.store import ArtifactStore

        store, cold_dir = self.store, None
        if self.kind == "cold":
            cold_dir = tempfile.mkdtemp(prefix="cold-", dir=self.tmp)
            store = ArtifactStore(cold_dir)
        tracer = layers.tracer if layers is not None else NULL_TRACER
        rec = Record(req.pid, traced=layers is not None)
        if layers is not None:
            layers.install()
        t0 = time.perf_counter()
        try:
            with tracer.span("call", cat="pipeline.unattributed", program=req.pid) as root:
                with tracer.span("workload factory", cat="workloads.spec"):
                    spec = self.reg[req.workload](**req.bindings)
                if req.func is not None:
                    spec = incr.edited_spec(spec, req.func, value=req.value)
                result = pipeline.analyze(spec, store=store, baseline=req.baseline)
                rec.report = jsonout.render_json(jsonout.report_document(result))
                rec.metrics = jsonout.render_json(jsonout.metrics_document(result))
            rec.end = time.perf_counter()
            rec.latency = rec.end - t0
            rec.cls = self._classify(result, rec)
        except Exception as exc:  # one failed call must not end the run
            rec.end = time.perf_counter()
            rec.error = f"{req.pid}: {type(exc).__name__}: {exc}"
        finally:
            if layers is not None:
                layers.uninstall()
        if layers is not None and rec.error is None:
            layers.add_call(root)
        if req.func is not None:
            self.edit_calls += 1
        if cold_dir is not None:
            self.cold_bytes[req.pid] = store.total_bytes()
            shutil.rmtree(cold_dir)
        return rec

    def _classify(self, result, rec: Record) -> str:
        if self.kind == "edit":
            info = result.incremental
            rec.extra["regions_reused"] = info.regions_reused
            return "cold-fallback" if info.mode == "cold" else info.mode
        return "hit" if result.timings.cache_hit else "miss"

    # -- end of run ------------------------------------------------------------

    def store_bytes_per_program(self) -> float:
        if self.kind == "cold":
            return sum(self.cold_bytes.values()) / len(self.cold_bytes)
        # the edited programs of this store: last warm-up + timed calls
        programs = len(self.names) + self.edit_calls
        return self.store.total_bytes() / programs

    def close(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
