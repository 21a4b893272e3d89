"""Shared pieces of the benchmark: paths, program ids, the output oracle.

A *program id* names one analysed program:

* ``lud`` -- a Rodinia workload at its registry defaults;
* ``lud[block=4,n=12]`` -- a point of the workload's declared sweep grid;
* ``lud~lud_diagonal`` -- the default program with the one-function sink
  edit of :func:`repro.incr.edited_spec` applied to ``lud_diagonal``.

The oracle (``oracle.json``) maps every id to SHA-256 digests of the
report and metrics documents the *reference* engine produces, with the
top-level ``engine`` field stripped; ``oracle.py`` regenerates it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLE_PATH = os.path.join(HERE, "oracle.json")
#: scratch space (stores, daemon logs, traces); ignored by git
OUT_DIR = os.path.join(HERE, "out")


def import_repro() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fails loudly
    (ImportError) when the checkout holds no program."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401


def point_id(name: str, bindings: dict) -> str:
    """Program id of one sweep point (``name`` alone for the defaults)."""
    from repro.sweep.grid import default_bindings

    if not bindings or dict(bindings) == default_bindings(name):
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(bindings.items()))
    return f"{name}[{inner}]"


def edit_id(name: str, func: str) -> str:
    return f"{name}~{func}"


def sweep_points():
    """``[(program id, workload, bindings)]`` for every distinct point of
    the declared sweep grids of the 19 Rodinia workloads (each grid
    includes its workload's default point)."""
    from repro.sweep.grid import default_grid
    from repro.workloads import RODINIA_ORDER

    out = []
    for name in RODINIA_ORDER:
        for point in default_grid(name):
            bindings = dict(point)
            out.append((point_id(name, bindings), name, bindings))
    return out


def edit_targets():
    """``[(program id, workload, function)]``: every non-``main``
    function of every multi-function Rodinia workload."""
    from repro.workloads import RODINIA_ORDER, rodinia_workloads

    reg = rodinia_workloads()
    out = []
    for name in RODINIA_ORDER:
        program = reg[name]().program
        for func in program.functions:
            if func != program.main:
                out.append((edit_id(name, func), name, func))
    return out


def canonical_digest(doc: dict) -> str:
    """Digest of a feedback document without its ``engine`` field, in
    a fixed serialization (independent of the renderer under test)."""
    body = {k: v for k, v in doc.items() if k != "engine"}
    text = json.dumps(body, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_digest(text) -> str:
    """:func:`canonical_digest` of a rendered JSON document."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return canonical_digest(json.loads(text))


def load_oracle() -> dict:
    with open(ORACLE_PATH) as fh:
        return json.load(fh)["programs"]
