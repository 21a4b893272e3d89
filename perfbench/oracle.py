"""Regenerate ``oracle.json``: reference-engine digests of the report
and metrics documents of every sweep-grid program and every edit target.

    python3 perfbench/oracle.py

The reference engine (per-instruction interpreter, reference folder)
is independent of the fast path every workload exercises, so a wrong
fast-path output cannot also rewrite its own expected digest.
"""

from __future__ import annotations

import json
import sys
import time

from common import (
    ORACLE_PATH,
    canonical_digest,
    edit_targets,
    import_repro,
    sweep_points,
)

#: constant the oracle's edits append; the benchmark uses other values,
#: which change no document
ORACLE_EDIT_VALUE = 7


def main() -> int:
    import_repro()
    from repro.feedback.jsonout import metrics_document, report_document
    from repro.incr import edited_spec
    from repro.pipeline import analyze
    from repro.workloads import rodinia_workloads

    reg = rodinia_workloads()
    specs = [(pid, lambda n=n, b=b: reg[n](**b)) for pid, n, b in sweep_points()]
    specs += [
        (pid, lambda n=n, f=f: edited_spec(reg[n](), f, value=ORACLE_EDIT_VALUE))
        for pid, n, f in edit_targets()
    ]
    programs = {}
    t0 = time.perf_counter()
    for pid, make in specs:
        result = analyze(make(), engine="reference")
        programs[pid] = {
            "report": canonical_digest(report_document(result)),
            "metrics": canonical_digest(metrics_document(result)),
        }
        print(f"{pid:44s} {time.perf_counter() - t0:7.1f}s", file=sys.stderr)
    doc = {"engine": "reference", "edit_value": ORACLE_EDIT_VALUE,
           "programs": programs}
    with open(ORACLE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(programs)} digests to {ORACLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
