"""The repository benchmark: four workloads, end-to-end metrics, and a
traced per-layer breakdown.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (``DESIGN.md`` says why each exists):

* ``cold``    -- the 19 default Rodinia programs, each against a fresh store;
* ``warm``    -- the same programs against a store filled at set-up;
* ``edit``    -- one-function edits of 31 functions, re-analysed incrementally;
* ``service`` -- ``repro serve`` in process mode, one closed-loop client.

A run sets up three times (median reported as ``setup_s``), then issues
seeded passes over the workload's requests until ``--seconds`` have
passed and a minimum number of passes is done.  Every output is checked
against the reference-engine oracle (``oracle.json``); a wrong or failed
call makes the run exit 1.  ``--trace 1`` traces every other call
(layer wrappers, ``layers.py``), prints the per-layer metrics, and
writes a Chrome trace and a self-time table under ``perfbench/out/``.
``--workload all`` runs each workload in a fresh process.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

import inproc
import service
from common import OUT_DIR, ROOT, SRC, import_repro, load_oracle
from harness import PassSource, check_outputs, latency_stats, shares
from layers import LayerTracer

WORKLOADS = ("cold", "warm", "edit", "service")
SETUP_REPEATS = 3

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("latency_geomean_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("store_bytes_per_program", "B"),
]

PER_LAYER = [
    ("isa.stage2_self_ms", "ms"),
    ("isa.dyn_instrs", "count"),
    ("cfg.stage1_ms", "ms"),
    ("cfg.forests_ms", "ms"),
    ("ddg.builder_self_ms", "ms"),
    ("ddg.points", "count"),
    ("folding.stream_ms", "ms"),
    ("folding.finalize_ms", "ms"),
    ("schedule.deps_ms", "ms"),
    ("schedule.analysis_ms", "ms"),
    ("schedule.plan_ms", "ms"),
    ("feedback.render_ms", "ms"),
    ("store.keys_ms", "ms"),
    ("store.read_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.bytes_written", "B"),
    ("incr.plan_ms", "ms"),
    ("incr.stitch_ms", "ms"),
    ("incr.edit_ms", "ms"),
    ("incr.fallback_ratio", "ratio"),
    ("incr.regions_reused", "count"),
    ("workloads.spec_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("service.front_ms", "ms"),
    ("service.dedup_ratio", "ratio"),
    ("service.store_hit_ratio", "ratio"),
    ("service.rejected", "count"),
    ("pipeline.unattributed_ms", "ms"),
    ("pipeline.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

#: per-call counters the wrappers record (summed per traced call)
_COUNTS = ("isa.dyn_instrs", "ddg.points", "store.bytes_written")


def git_revision():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    top, head = out.stdout.split()
    return head if os.path.realpath(top) == os.path.realpath(ROOT) else None


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(layers, records, workload) -> dict:
    """The per-layer metrics of a traced run."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        if name.endswith("_ms") or name in _COUNTS:
            values[name] = layers.per_call(name)
    hits, misses = layers.sums["store.hits"], layers.sums["store.misses"]
    values["store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["pipeline.unattributed_share"] = (
        layers.per_call("pipeline.unattributed_ms") / layers.per_call("latency_ms")
    )
    traced = [r.latency for r in records if r.traced and r.error is None]
    plain = [r.latency for r in records if not r.traced and r.error is None]
    if traced and plain:
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    ok = [r for r in records if r.error is None]
    if workload == "edit" and ok:
        values["incr.fallback_ratio"] = shares(ok).get("cold-fallback", 0.0)
        values["incr.regions_reused"] = _mean([r.extra["regions_reused"] for r in ok])
    if workload == "service" and ok:
        created = [r for r in ok if r.cls != "dedup"]
        values["service.queue_wait_ms"] = _mean([r.extra["queue_wait"] * 1e3 for r in created])
        values["service.exec_ms"] = _mean([r.extra["exec"] * 1e3 for r in created])
        values["service.front_ms"] = _mean([r.extra["front"] * 1e3 for r in ok])
        values["service.dedup_ratio"] = 1 - len(created) / len(ok)
        values["service.store_hit_ratio"] = _mean([r.cls == "store-hit" for r in created])
        values["service.rejected"] = sum(r.extra["rejected"] for r in records)
    return values


def run_one(args) -> int:
    oracle = load_oracle()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_DIR)
    if args.workload == "service":
        wl = service.ServiceWorkload(tmp)
        min_passes, tail_pct = service.MIN_PASSES, service.TAIL_PCT
    else:
        wl = inproc.InProcessWorkload(args.workload, tmp)
        kind = inproc.KINDS[args.workload]
        min_passes, tail_pct = kind["min_passes"], kind["tail_pct"]
    try:
        setups = [wl.setup() for _ in range(SETUP_REPEATS)]
        source = PassSource(
            wl.requests, random.Random(args.seed), args.seconds, min_passes,
            trace=bool(args.trace),
        )
        layers = LayerTracer() if args.trace else None
        gc.collect()
        if args.workload == "service":
            records = wl.run(source, layers)
            peak_rss = wl.peak_rss_mb()
            store_bpp = wl.store_bytes_per_program(records)
        else:
            records = [
                wl.call(req, layers if traced else None)
                for req, traced in iter(source.next, None)
            ]
            peak_rss = inproc.peak_rss_mb()
            store_bpp = wl.store_bytes_per_program()
        window = max(r.end for r in records) - source.t0
        calls = records + wl.warmups
        check_outputs(calls, oracle)
        errors = [r.error for r in calls if r.error is not None]
        measured = [r for r in records if not r.traced]
        stats = latency_stats(measured, tail_pct)
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_revision": git_revision(),
            "passes": source.passes,
            "calls": len(records),
            "warmup_calls": len(wl.warmups),
            "window_s": window,
            "latency_samples": stats["samples"],
            "tail_percentile": tail_pct,
            "samples_beyond_tail": stats["beyond_tail"],
            "distinct_programs": stats["programs"],
            "setup_runs_s": setups,
            "request_classes": shares(records),
        }
        if args.workload == "service":
            provenance.update(
                clients=service.CLIENTS, workers=service.WORKERS,
                poll_interval_s=service.POLL_S,
                rejected_429=sum(r.extra["rejected"] for r in records),
            )
        if args.trace:
            metrics = layer_metrics(layers, records, args.workload)
            units = dict(PER_LAYER)
            prefix = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
            provenance["trace_files"] = layers.write_outputs(prefix, args.workload)
            provenance["traced_calls"] = layers.calls
        else:
            ok = [r for r in records if r.error is None]
            metrics = {
                "latency_p50_ms": stats["p50"],
                "latency_tail_ms": stats["tail"],
                "latency_geomean_ms": stats["geomean"],
                "throughput_per_s": len(ok) / window,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss,
                "store_bytes_per_program": store_bpp,
            }
            units = dict(END_TO_END)
    finally:
        wl.close()
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.4f} {units[name]}")
    print(
        f"  {'failed_ratio':28s} {len(errors) / len(calls):14.4f} ratio"
        f"  ({len(errors)} of {len(calls)} calls, warm-ups included)"
    )
    for err in errors[:10]:
        print(f"  FAILED {err}")
    result = {
        "correct": not errors,
        "attempted": len(calls),
        "failed": len(errors),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one summary table."""
    results, status = {}, 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines and lines[-1].startswith("{"):
            results[workload] = json.loads(lines[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"{'metric':28s}" + "".join(f"{w:>14s}" for w in results))
    for name in names:
        row = "".join(
            f"{r['metrics'][name]['value']:14.4f}" if name in r["metrics"] else f"{'-':>14s}"
            for r in results.values()
        )
        unit = next(r["metrics"][name]["unit"] for r in results.values() if name in r["metrics"])
        print(f"{name:28s}{row}  {unit}")
    row = "".join(f"{r['failed'] / r['attempted']:14.4f}" for r in results.values())
    print(f"{'failed_ratio':28s}{row}  ratio")
    summary = {
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": value
            for w, r in results.items()
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_repro()
    except ImportError as exc:
        print(f"perfbench: cannot import the analyser from {SRC}: {exc}", file=sys.stderr)
        return 2
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
