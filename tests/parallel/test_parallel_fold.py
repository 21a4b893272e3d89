"""End-to-end parallel folding: bit-identity with the serial fold,
adversarial shard boundaries, cache interplay, trace fan-out, and the
suite runner surface.

The contract under test is the strongest one the pipeline makes:
``analyze(spec, fold_jobs=N)`` must be *byte-identical* to
``analyze(spec)`` after codec round-trip, for every N, on both
engines -- not merely equivalent.
"""

import json
import os

import pytest

from repro.ddg.graph import DepKey, Statement
from repro.folding import FastFoldingSink
from repro.folding.codec import encode_folded_ddg
from repro.folding.folder import FoldingSink
from repro.isa.instructions import Instr
from repro.obs import Tracer, validate_chrome_trace
from repro.obs.chrometrace import chrome_trace_document
from repro.parallel import ParallelFoldManager
from repro.pipeline import AnalysisOptions, analyze
from repro.runner import render_suite_table, run_suite
from repro.store import ArtifactStore, keys_for_spec
from repro.workloads import all_workloads

CPU = os.cpu_count() or 1
#: shard counts exercised by the identity matrix (always >= 2 so the
#: parallel code path actually runs, even on a single-core host)
SHARD_COUNTS = sorted({2, 3, 7, max(2, CPU)})


def _spec(name="nn"):
    return all_workloads()[name]()


def _blob(result):
    """Canonical bytes of a folded DDG after codec round-trip."""
    return json.dumps(encode_folded_ddg(result.folded), sort_keys=False)


def _stage2_key(spec):
    return keys_for_spec(spec, AnalysisOptions()).stage2


class TestBitIdentity:
    @pytest.mark.parametrize("jobs", SHARD_COUNTS)
    def test_fast_engine_matrix(self, jobs):
        serial = analyze(_spec())
        par = analyze(_spec(), fold_jobs=jobs)
        assert _blob(par) == _blob(serial)
        assert par.fold_jobs == jobs
        assert par.shard_seconds is not None
        assert len(par.shard_seconds) == jobs
        assert serial.shard_seconds is None

    @pytest.mark.parametrize("jobs", (2, 3))
    def test_reference_engine(self, jobs):
        serial = analyze(_spec(), engine="reference")
        par = analyze(_spec(), engine="reference", fold_jobs=jobs)
        assert _blob(par) == _blob(serial)

    def test_larger_workload(self):
        serial = analyze(_spec("backprop"))
        par = analyze(_spec("backprop"), fold_jobs=3)
        assert _blob(par) == _blob(serial)

    def test_crosscheck_green_over_parallel_fold(self):
        result = analyze(_spec(), fold_jobs=2, crosscheck=True)
        assert result.crosscheck is not None
        assert result.crosscheck.violations == []

    def test_fold_jobs_one_is_the_serial_path(self):
        result = analyze(_spec(), fold_jobs=1)
        assert result.fold_jobs == 1
        assert result.shard_seconds is None


def _stmt(uid, cid=0, depth=1):
    instr = Instr(uid=uid, opcode="add", dest="r0", srcs=("r1", "r2"))
    ctx = tuple(("f", f"loop{i}") for i in range(depth)) + (("f", "bb"),)
    return Statement(key=(uid, cid), instr=instr, func="f", context=ctx)


def _dep(src_uid, dst_uid, kind="reg"):
    return DepKey(src=(src_uid, 0), dst=(dst_uid, 0), kind=kind)


def _drive(sink, n_stmts=12, iters=40, batched=True):
    """A small synthetic stream -- identical for every sink it is fed
    to.  Delivery style matches how the engines really drive sinks:
    the fast engine emits only batched per-block calls, the reference
    engine only unbatched per-point calls (the fast sink's shared
    group folders make mixed delivery to the *same* statement
    intentionally out of contract)."""
    stmts = [_stmt(uid) for uid in range(n_stmts)]
    for s in stmts:
        sink.declare_statement(s)
    deps = [_dep(i, i + 1) for i in range(n_stmts - 1)]
    deps += [_dep(i, i + 2, "flow") for i in range(n_stmts - 2)]
    for it in range(iters):
        if batched:
            sink.instr_points(
                (it,), [(s.key, (it * 2,)) for s in stmts]
            )
            sink.dep_points((it,), [(d, (max(0, it - 1),)) for d in deps])
        else:
            for s in stmts:
                sink.instr_point(s.key, (it,), (it * 2,))
            for d in deps:
                sink.dep_point(d, (it,), (max(0, it - 1),))
    if batched:
        # one more full-group block at fresh coordinates (a prefix
        # batch -- partial delivery from a faulting block -- can only
        # be the final event of a *crashed* run, which never reaches
        # finalize, so it is out of the equivalence contract)
        sink.instr_points(
            (iters,), [(s.key, (iters * 2,)) for s in stmts]
        )
    else:
        for s in stmts[:3]:
            sink.instr_point(s.key, (iters,), (iters * 2,))
        sink.dep_point(deps[0], (iters,), (iters - 1,))


ADVERSARIAL_ROUTES = {
    "one_giant_shard": (lambda key, n: 0, lambda dep, n: 0),
    "last_shard_only": (lambda key, n: n - 1, lambda dep, n: n - 1),
    "stmts_vs_deps_split": (lambda key, n: 0, lambda dep, n: n - 1),
    "single_statement_shards": (
        lambda key, n: key[0] % n,
        lambda dep, n: dep.src[0] % n,
    ),
}


class TestAdversarialBoundaries:
    """Forced shard boundaries -- empty shards, one giant shard,
    single-statement shards -- must still merge to the exact serial
    fold on both engines."""

    @pytest.mark.parametrize("engine", ("fast", "reference"))
    @pytest.mark.parametrize(
        "route_name", sorted(ADVERSARIAL_ROUTES)
    )
    def test_routes_merge_to_serial(self, engine, route_name):
        stmt_route, dep_route = ADVERSARIAL_ROUTES[route_name]
        batched = engine == "fast"
        serial = (
            FastFoldingSink() if engine == "fast" else FoldingSink()
        )
        _drive(serial, batched=batched)
        with ParallelFoldManager(
            jobs=4,
            options=AnalysisOptions(engine=engine),
            stmt_route=stmt_route,
            dep_route=dep_route,
        ) as manager:
            _drive(manager.router, batched=batched)
            folded = manager.finalize()
        assert json.dumps(encode_folded_ddg(folded)) == json.dumps(
            encode_folded_ddg(serial.finalize())
        )

    def test_more_shards_than_statements(self):
        serial = FastFoldingSink()
        _drive(serial, n_stmts=3)
        with ParallelFoldManager(jobs=7) as manager:
            _drive(manager.router, n_stmts=3)
            folded = manager.finalize()
        assert json.dumps(encode_folded_ddg(folded)) == json.dumps(
            encode_folded_ddg(serial.finalize())
        )

    def test_shard_stats_account_for_every_event(self):
        with ParallelFoldManager(jobs=3) as manager:
            _drive(manager.router)
            manager.finalize()
            stats = manager.shard_stats
        assert len(stats) == 3
        assert [s["events"] for s in stats] == (
            manager.router.events_routed
        )
        assert all(s["busy_seconds"] >= 0.0 for s in stats)


class TestCacheInterplay:
    """fold_jobs must be invisible to the artifact store: same keys,
    same bytes, warm hits served across fold_jobs settings."""

    def test_identical_ddg_artifact_payload(self, tmp_path):
        """Same stage-2 key, same artifact payload.  ``wall_seconds``
        (what the producing run measured) is the one field that
        differs between any two runs, parallel or not; everything
        else -- the folded DDG, stats, schedule tree, dep vectors --
        must be byte-equal after canonical JSON dumping."""
        key = _stage2_key(_spec())
        serial_store = ArtifactStore(str(tmp_path / "serial"))
        par_store = ArtifactStore(str(tmp_path / "parallel"))
        analyze(_spec(), store=serial_store)
        analyze(_spec(), store=par_store, fold_jobs=3)
        serial_doc = serial_store.get(key)
        par_doc = par_store.get(key)
        assert serial_doc is not None and par_doc is not None
        assert serial_doc.pop("wall_seconds") > 0.0
        assert par_doc.pop("wall_seconds") > 0.0
        assert json.dumps(serial_doc, sort_keys=False) == json.dumps(
            par_doc, sort_keys=False
        )

    def test_warm_hit_across_fold_jobs(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        cold = analyze(_spec(), store=store)
        assert not cold.timings.cache_hit
        warm = analyze(_spec(), store=store, fold_jobs=4)
        assert warm.timings.cache_hit
        # a cached stage 2 never spawned fold workers
        assert warm.shard_seconds is None
        assert _blob(warm) == _blob(cold)

    def test_parallel_cold_serves_serial_warm(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        cold = analyze(_spec(), store=store, fold_jobs=3)
        assert not cold.timings.cache_hit
        warm = analyze(_spec(), store=store)
        assert warm.timings.cache_hit
        assert _blob(warm) == _blob(cold)


class TestTraceFanout:
    def test_shard_spans_under_stage2(self):
        tracer = Tracer()
        result = analyze(_spec(), fold_jobs=2, tracer=tracer)
        (root,) = tracer.roots
        (stage2,) = [c for c in root.children if c.name == "instr2_fold"]
        shards = [c for c in stage2.children if c.name == "fold.shard"]
        assert len(shards) == 2
        assert {s.tid for s in shards} == {"fold-shard-0", "fold-shard-1"}
        for span in shards:
            assert stage2.t0 <= span.t0 <= span.t1 <= stage2.t1
            assert span.args["busy_seconds"] >= 0.0
            assert span.counters["points"] > 0
        assert stage2.find("fold.finalize") is not None
        # StageTimings invariant survives the overlapping shard spans
        t = result.timings
        assert t.total == pytest.approx(root.t1 - root.t0)

    def test_parallel_trace_renders_chrome_document(self):
        tracer = Tracer()
        analyze(_spec(), fold_jobs=3, tracer=tracer)
        doc = chrome_trace_document(tracer.roots, workload="nn")
        assert validate_chrome_trace(doc) > 0
        names = {ev.get("name") for ev in doc["traceEvents"]}
        assert "fold.shard" in names


class TestSuiteSurface:
    def test_run_suite_threads_fold_jobs(self):
        (res,) = run_suite(["nn"], AnalysisOptions(fold_jobs=2), jobs=1)
        assert res.ok
        assert res.fold_jobs == 2
        assert res.t_shards is not None and len(res.t_shards) == 2
        table = render_suite_table([res])
        assert " fj " in table or "fj" in table.splitlines()[0]
        assert "~" in table  # min~max shard spread rendered

    def test_serial_suite_table_unchanged(self):
        (res,) = run_suite(["nn"], jobs=1)
        assert res.fold_jobs == 1 and res.t_shards is None
        table = render_suite_table([res])
        assert "fj" not in table.splitlines()[0]
