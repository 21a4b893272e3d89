"""The ``service`` workload: ``repro serve --execution process -w 2``
driven by one closed-loop client over HTTP.

One call is submit, wait, then GET of the report and the metrics
document.  A pass is a seeded shuffle of every default Rodinia program
and every non-default sweep-grid point, once each (19 + 50 requests).
The first request for a default program in a run is a store hit (the
set-up filled the store, the job registry starts empty); later ones are
registry dedups.  Each sweep-point request carries its own ``fuel``
budget: fuel is part of the job and artifact keys but changes no
document, so every sweep request is a cold run, as a new user's program
would be.  Without it the stream would drain into dedups within one
pass and the request mix would depend on the run length.

A dedup takes about 5 ms of cross-process round trips, and on a shared
host its latency varies run to run by a factor of two to four; a cold
run is dominated by computation.  So most requests are cold, and the
p50 falls among them.  For the same reason there is one client, not
two: with two, a short call shares the two CPUs with the other
client's cold run.
"""

from __future__ import annotations

import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import List, Optional

from common import ROOT, SRC, sweep_points
from harness import Record, Request
from inproc import fill_store

MIN_PASSES = 2      # 138 calls
TAIL_PCT = 92       # 11 samples beyond at the minimum pass count
CLIENTS = 1
WORKERS = 2
#: status poll interval of ServiceClient.wait (its default is 20 ms)
POLL_S = 0.005
FUEL = 50_000_000   # the default fuel budget of a job
WAIT_TIMEOUT_S = 120.0
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def _tree_peak_rss_kb(root_pid: int) -> int:
    """Summed VmHWM of ``root_pid`` and all its descendants."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, []))
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


class ServiceWorkload:
    def __init__(self, tmp: str) -> None:
        from repro.service import ServiceClient
        from repro.workloads import RODINIA_ORDER

        self.tmp = tmp
        self.names = list(RODINIA_ORDER)
        self.client_cls = ServiceClient
        self.points = [
            (pid, name, bindings)
            for pid, name, bindings in sweep_points()
            if pid != name
        ]
        self.proc: Optional[subprocess.Popen] = None
        self.store_dir: Optional[str] = None
        self.log = None
        self.address = None
        self.next_fuel = FUEL + 1
        self.warmups: List[Record] = []
        self._lock = threading.Lock()

    # -- requests --------------------------------------------------------------

    def _sweep(self, pid: str, name: str, bindings: dict) -> Request:
        with self._lock:
            self.next_fuel += 1
            fuel = self.next_fuel
        return Request(pid, name, bindings=bindings, value=fuel)

    def requests(self) -> List[Request]:
        reqs = [Request(n, n) for n in self.names]
        return reqs + [self._sweep(*p) for p in self.points]

    # -- daemon lifecycle ------------------------------------------------------

    def _boot(self) -> None:
        self.log = open(os.path.join(self.store_dir + ".log"), "w")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--execution", "process", "-w", str(WORKERS),
                "--cache", self.store_dir,
            ],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True,
        )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            m = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if m:
                self.address = (m.group(1), int(m.group(2)))
                return
        raise RuntimeError(f"daemon did not start; see {self.log.name}")

    def stop(self) -> None:
        """SIGTERM the daemon, wait for it (and its workers) to exit."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        if self.log is not None:
            self.log.close()
            self.log = None

    def setup(self) -> float:
        """Fill a fresh store, boot a daemon on it, warm both worker
        processes up on two concurrent programs outside the stream;
        returns wall seconds.  Repeating it replaces the previous daemon
        and store."""
        t0 = time.perf_counter()
        self.stop()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir)
        self.store_dir = tempfile.mkdtemp(prefix="svc-", dir=self.tmp)
        fill_store(self.store_dir)
        self._boot()
        # fuel below the default: keys the timed stream never uses
        warm = [
            Request(pid, name, bindings=b, value=FUEL - 1 - i)
            for i, (pid, name, b) in enumerate(self.points[:WORKERS])
        ]
        records = [None] * len(warm)

        def one(i):
            records[i] = self.call(self.client(), warm[i], None)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(len(warm))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.warmups.extend(records)
        return time.perf_counter() - t0

    def client(self):
        return self.client_cls(*self.address, timeout=WAIT_TIMEOUT_S)

    # -- one call --------------------------------------------------------------

    def call(self, client, req: Request, layers) -> Record:
        from repro.obs import NULL_TRACER
        from repro.service import ServiceError

        tracer = layers.tracer if layers is not None else NULL_TRACER
        rec = Record(req.pid, traced=layers is not None, extra={"rejected": 0})
        kwargs = {"bindings": req.bindings, "fuel": req.value} if req.bindings else {}
        submitted = time.time()
        t0 = time.perf_counter()
        try:
            with tracer.span("call", cat="pipeline.unattributed", program=req.pid) as root:
                while True:
                    try:
                        with tracer.span("submit", cat="service.client"):
                            sub = client.submit(workload=req.workload, **kwargs)
                        break
                    except ServiceError as exc:
                        if exc.status != 429:
                            raise
                        rec.extra["rejected"] += 1
                        time.sleep(POLL_S)
                with tracer.span("wait", cat="service.client"):
                    status = client.wait(sub["job"], timeout=WAIT_TIMEOUT_S, poll=POLL_S)
                with tracer.span("report", cat="service.client"):
                    rec.report = client.report(sub["job"])
                with tracer.span("metrics", cat="service.client"):
                    rec.metrics = client.metrics_doc(sub["job"])
            rec.end = time.perf_counter()
            rec.latency = rec.end - t0
            self._classify(rec, req, sub, status, submitted)
        except Exception as exc:  # one failed call must not end the run
            rec.end = time.perf_counter()
            rec.error = f"{req.pid}: {type(exc).__name__}: {exc}"
        if layers is not None and rec.error is None:
            with self._lock:
                layers.add_call(root)
        return rec

    def _classify(self, rec, req, sub, status, submitted) -> None:
        hit = bool(status["cache"]["hit"])
        if sub["deduplicated"]:
            rec.cls = "dedup"
        else:
            rec.cls = "store-hit" if hit else "cold"
            rec.extra["queue_wait"] = status["started_at"] - status["created_at"]
            rec.extra["exec"] = status["finished_at"] - status["started_at"]
            if not req.bindings and not hit:
                # the set-up fill must have produced the daemon's keys
                rec.error = f"{req.pid}: default program missed the filled store"
        # the part of the wait the job spent queued or running
        in_service = status["finished_at"] - max(status["created_at"], submitted)
        rec.extra["front"] = rec.latency - max(in_service, 0.0)

    # -- the timed run ---------------------------------------------------------

    def run(self, source, layers) -> List[Record]:
        """Drive ``source`` from :data:`CLIENTS` closed-loop threads;
        traced calls record their client-side spans on ``layers``."""
        records: List[Record] = []

        def loop():
            client = self.client()
            for req, traced in iter(source.next, None):
                rec = self.call(client, req, layers if traced else None)
                with self._lock:
                    records.append(rec)

        threads = [threading.Thread(target=loop) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return records

    # -- end of run ------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        return _tree_peak_rss_kb(self.proc.pid) / 1024.0

    def store_bytes_per_program(self, records: List[Record]) -> float:
        from repro.store import ArtifactStore

        created = sum(1 for r in records + self.warmups[-WORKERS:] if r.cls == "cold")
        programs = len(self.names) + created
        return ArtifactStore(self.store_dir).total_bytes() / programs

    def close(self) -> None:
        self.stop()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None
