"""Workload-independent parts of a run: the seeded request source, the
per-call record, output checking and the end-to-end statistics."""

from __future__ import annotations

import math
import random
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from common import text_digest


@dataclass
class Request:
    pid: str                        # program id (oracle key)
    workload: str                   # registry name
    bindings: dict = field(default_factory=dict)
    func: Optional[str] = None      # edit target function
    value: int = 0                  # edit constant / service fuel
    baseline: Optional[str] = None  # baseline program fingerprint


@dataclass
class Record:
    """One call's outcome; ``cls`` is the request class it realised."""

    pid: str
    latency: float = 0.0            # seconds
    end: float = 0.0                # perf_counter at completion
    report: object = None           # rendered report document
    metrics: object = None          # rendered metrics document
    traced: bool = False
    error: Optional[str] = None
    cls: str = ""
    extra: dict = field(default_factory=dict)


class PassSource:
    """Hands out ``(request, traced)`` pass by pass; each pass is a seeded
    shuffle of a fresh ``make_requests()`` list.  A run ends at the first
    pass boundary where ``seconds`` have elapsed and ``min_passes`` are
    done.

    With ``trace``, passes come in pairs that share one order, and every
    request position is traced in exactly one pass of its pair, so the
    traced and untraced calls cover the same programs equally often, in
    interleaved order.  Safe to share between threads."""

    def __init__(
        self,
        make_requests: Callable[[], List[Request]],
        rng: random.Random,
        seconds: float,
        min_passes: int,
        trace: bool = False,
    ) -> None:
        self.make_requests = make_requests
        self.rng = rng
        self.seconds = seconds
        self.min_passes = min_passes
        self.trace = trace
        self.passes = 0
        self.t0: Optional[float] = None
        self._order: List[int] = []
        self._queue: deque = deque()
        self._lock = threading.Lock()

    def _done(self) -> bool:
        return (
            time.perf_counter() - self.t0 >= self.seconds
            and self.passes >= self.min_passes
            and not (self.trace and self.passes % 2)
        )

    def _new_pass(self) -> None:
        reqs = self.make_requests()
        second = self.trace and self.passes % 2 == 1
        if not second:
            self._order = list(range(len(reqs)))
            self.rng.shuffle(self._order)
        self._queue.extend(
            (reqs[i], self.trace and pos % 2 != second)
            for pos, i in enumerate(self._order)
        )
        self.passes += 1

    def next(self):
        """``(request, traced)``, or None once the run is over."""
        with self._lock:
            if not self._queue:
                if self.t0 is None:
                    self.t0 = time.perf_counter()
                elif self._done():
                    return None
                self._new_pass()
            return self._queue.popleft()


def check_outputs(records: List[Record], oracle: Dict[str, dict]) -> None:
    """Mark every record whose report or metrics document differs from
    the reference digest (or that has none) as failed."""
    memo: Dict[object, str] = {}

    def digest(text) -> str:
        if text not in memo:
            memo[text] = text_digest(text)
        return memo[text]

    for rec in records:
        if rec.error is not None:
            continue
        want = oracle.get(rec.pid)
        if want is None:
            rec.error = f"no oracle digest for {rec.pid}"
        elif digest(rec.report) != want["report"]:
            rec.error = f"wrong report document for {rec.pid}"
        elif digest(rec.metrics) != want["metrics"]:
            rec.error = f"wrong metrics document for {rec.pid}"


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method, as in ``statistics``)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_stats(records: List[Record], tail_pct: int) -> Dict[str, object]:
    """p50, tail and per-program geometric mean (ms) of successful calls."""
    ok = [r for r in records if r.error is None]
    lat = [r.latency * 1e3 for r in ok]
    by_program: Dict[str, List[float]] = {}
    for r in ok:
        by_program.setdefault(r.pid, []).append(r.latency * 1e3)
    if not lat:  # every call failed: nothing to time
        return dict.fromkeys(
            ("p50", "tail", "geomean", "beyond_tail", "samples", "programs"), 0
        )
    medians = [statistics.median(v) for v in by_program.values()]
    tail = percentile(lat, tail_pct)
    return {
        "p50": statistics.median(lat),
        "tail": tail,
        "beyond_tail": sum(1 for v in lat if v > tail),
        "samples": len(lat),
        "programs": len(medians),
        "geomean": math.exp(sum(math.log(m) for m in medians) / len(medians)),
    }


def shares(records: List[Record]) -> Dict[str, float]:
    """Realised request-class shares."""
    counts: Dict[str, int] = {}
    for r in records:
        counts[r.cls or "error"] = counts.get(r.cls or "error", 0) + 1
    return {k: round(v / len(records), 4) for k, v in sorted(counts.items())}
