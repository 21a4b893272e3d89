"""POLY-PROF end-to-end pipeline (paper Fig. 1).

The stages, mirroring the figure:

1. **Instrumentation I** -- run the program once, reconstruct dynamic
   CFGs and the call graph; build loop-nesting forests and the
   recursive-component-set (:mod:`repro.cfg`).
2. **Instrumentation II** -- run again with the DDG builder: loop
   events, dynamic IIVs, shadow memory; stream statement/dependence
   points (:mod:`repro.ddg`).
3. **Folding** -- compress the point streams into a compact polyhedral
   DDG (:mod:`repro.folding`).
4. **Polyhedral feedback** -- dependence analysis, transformation
   search, metrics, reports (:mod:`repro.schedule`,
   :mod:`repro.feedback`).

Because a mini-ISA program consumes its :class:`~repro.isa.Memory`,
workloads are described by a :class:`ProgramSpec` whose ``make_state``
returns a *fresh* (args, memory) pair per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# stage entry points are called as module attributes
# (``schedule.build_nest_forest``, ``artifact_store.keys_for_spec``,
# ``incr.plan_incremental``, ...): looked up per call, so a wrapper set
# on the module (a layer tracer, a test's monkeypatch) sees every call
from . import incr, schedule
from . import store as artifact_store
from .cfg import (
    ControlStructureBuilder,
    DynCallGraph,
    DynCFG,
    LoopForest,
    RecursiveComponentSet,
    build_loop_forest,
    build_recursive_component_set,
)
from .ddg import DDGBuilder, DDGSink, FrontierViolation, RecordingSink
from .feedback.stride import stride_scores
from .folding import FastFoldingSink, FoldingSink
from .isa import Memory, Program, RunStats, run_program
from .obs import Span, Tracer
from .obs.context import new_trace_context


@dataclass
class ProgramSpec:
    """A runnable workload: a program plus fresh-state factory.

    The ``region_*`` fields model the paper's hand-selected region of
    interest per benchmark (Table 5): the kernel functions, the label
    printed in the Region column, the fusion heuristic used, and the
    source loop depth (``ld-src``) when it differs from what the
    frontend records (e.g. a compiler unrolled a source loop away).
    """

    name: str
    program: Program
    make_state: Callable[[], Tuple[Sequence, Memory]]

    #: optional human annotations used by reports (not by analysis)
    description: str = ""
    region_funcs: Optional[Tuple[str, ...]] = None
    region_label: str = ""
    fusion_heuristic: str = "S"
    ld_src: Optional[int] = None
    #: emulates the paper's scheduler memory budget (streamcluster
    #: exhausted memory at scheduling); None = unlimited
    scheduler_stmt_budget: Optional[int] = None


#: field metadata of an :class:`AnalysisOptions` field that changes how
#: a result is computed, never what it is -- kept out of every key
EXECUTION_ONLY = {"execution_only": True}


@dataclass(frozen=True)
class AnalysisOptions:
    """The options of one :func:`analyze` call.  This class is the one
    place the pipeline's options and their defaults are declared; every
    layer that forwards them (store keys, incremental planning, the
    suite runner, sweeps, the service, the CLI) passes the object.

    **Key-bearing** fields change the analysis artifacts, so each is
    part of the stage keys (:mod:`repro.store.keys`) and of every key
    built on them (service dedup, sweep models):

    * ``engine`` -- ``"fast"`` (block compilation, batched
      instrumentation, fast folding backend) or ``"reference"`` (the
      per-instruction interpreter and folder).  Both produce identical
      results; the cross-checker recounts on the opposite one.
    * ``fuel`` -- dynamic-instruction budget of each execution.
    * ``max_pieces`` -- pieces per folded piecewise relation.
    * ``clamp`` -- points folded per stream (Fig. 1's relevance
      scalability clamping); clamped streams degrade to conservative
      over-approximations.
    * ``track_anti_output`` -- also record anti and output dependences.

    **Execution-only** fields (metadata :data:`EXECUTION_ONLY`) change
    how a result is computed, never its artifacts:

    * ``fold_jobs`` -- fold the stage-2 streams in that many worker
      processes (:mod:`repro.parallel`), merged bit-identically to the
      serial fold; 1 folds serially in-process.
    * ``crosscheck`` -- run the dynamic-vs-static soundness sanitizers
      (:mod:`repro.dataflow.crosscheck`) over the finished result and
      attach their report.
    """

    engine: str = "fast"
    fuel: int = 50_000_000
    max_pieces: int = 6
    clamp: Optional[int] = None
    track_anti_output: bool = True
    fold_jobs: int = field(default=1, metadata=EXECUTION_ONLY)
    crosscheck: bool = field(default=False, metadata=EXECUTION_ONLY)

    def fold_sink(self):
        """A fresh in-process folding sink for these options."""
        cls = FastFoldingSink if self.engine == "fast" else FoldingSink
        return cls(max_pieces=self.max_pieces, clamp=self.clamp)


@dataclass
class ControlProfile:
    """Result of Instrumentation I."""

    cfgs: Dict[str, DynCFG]
    callgraph: DynCallGraph
    forests: Dict[str, LoopForest]
    rcs: RecursiveComponentSet
    stats: RunStats
    wall_seconds: float = 0.0


@dataclass
class DDGProfile:
    """Result of Instrumentation II."""

    builder: DDGBuilder
    sink: DDGSink
    stats: RunStats
    wall_seconds: float = 0.0


def profile_control(
    spec: ProgramSpec,
    fuel: int = AnalysisOptions.fuel,
    engine: str = AnalysisOptions.engine,
    extra_observers: Sequence = (),
    tracer: Optional[Tracer] = None,
) -> ControlProfile:
    """Stage 1: reconstruct the interprocedural control structure.

    ``wall_seconds`` is the duration of the ``stage1.execute`` span --
    the instrumented execution alone, exactly what a cached artifact
    preserves from the run that produced it.  Standalone callers that
    pass no tracer get a private one just for that measurement.
    """
    tracer = tracer if tracer is not None else Tracer()
    args, memory = spec.make_state()
    csb = ControlStructureBuilder()
    with tracer.span("stage1.execute", cat="exec", engine=engine) as sp:
        _, stats = run_program(
            spec.program,
            args=args,
            memory=memory,
            observers=[csb, *extra_observers],
            fuel=fuel,
            engine=engine,
        )
    sp.count("dyn_instrs", stats.dyn_instrs)
    with tracer.span("stage1.forests", cat="build"):
        forests = {
            f: build_loop_forest(f, cfg.nodes, cfg.edges, cfg.entry)
            for f, cfg in csb.cfgs.items()
        }
    with tracer.span("stage1.rcs", cat="build"):
        rcs = build_recursive_component_set(
            csb.callgraph.nodes, csb.callgraph.edges, csb.callgraph.root
        )
    return ControlProfile(
        cfgs=csb.cfgs,
        callgraph=csb.callgraph,
        forests=forests,
        rcs=rcs,
        stats=stats,
        wall_seconds=sp.duration,
    )


def profile_ddg(
    spec: ProgramSpec,
    control: ControlProfile,
    sink: Optional[DDGSink] = None,
    track_anti_output: bool = AnalysisOptions.track_anti_output,
    build_schedule_tree: bool = True,
    fuel: int = AnalysisOptions.fuel,
    engine: str = AnalysisOptions.engine,
    extra_observers: Sequence = (),
    tracer: Optional[Tracer] = None,
    emit_funcs: Optional[set] = None,
) -> DDGProfile:
    """Stage 2: build the DDG point streams (fresh execution).

    ``wall_seconds`` is the ``stage2.execute`` span's duration (the
    instrumented execution with the DDG builder riding along).

    ``emit_funcs`` restricts sink emission to the named functions
    (incremental re-analysis); everything else runs the builder's
    non-emitted tier -- see :class:`~repro.ddg.builder.DDGBuilder`."""
    tracer = tracer if tracer is not None else Tracer()
    args, memory = spec.make_state()
    if sink is None:
        sink = RecordingSink()
    with tracer.span("stage2.build_setup", cat="build"):
        builder = DDGBuilder(
            spec.program,
            control.forests,
            control.rcs,
            sink,
            track_anti_output=track_anti_output,
            build_schedule_tree=build_schedule_tree,
            emit_funcs=emit_funcs,
        )
    with tracer.span("stage2.execute", cat="exec", engine=engine) as sp:
        _, stats = run_program(
            spec.program,
            args=args,
            memory=memory,
            observers=[builder, *extra_observers],
            fuel=fuel,
            engine=engine,
        )
    sp.count("dyn_instrs", stats.dyn_instrs)
    sp.count("mem_ops", stats.mem_ops)
    return DDGProfile(
        builder=builder, sink=sink, stats=stats, wall_seconds=sp.duration
    )


@dataclass
class StageTimings:
    """Fresh wall-clock cost of one :func:`analyze` call, per stage.

    Unlike the ``wall_seconds`` recorded inside
    :class:`ControlProfile`/:class:`DDGProfile` -- which a cached
    artifact preserves verbatim from the run that *produced* it --
    these measure what **this** call actually spent, cache lookups
    included.  On a warm hit ``instr1``/``instr2_fold`` collapse to
    the artifact-decode time.
    """

    instr1: float = 0.0         # Instrumentation I (or stage-1 load)
    instr2_fold: float = 0.0    # Instrumentation II + folding (or load)
    feedback: float = 0.0       # dep vectors, forest analysis, planning
    stage1_cached: bool = False
    stage2_cached: bool = False

    @classmethod
    def from_span_tree(
        cls,
        root: Span,
        stage1_cached: bool = False,
        stage2_cached: bool = False,
    ) -> "StageTimings":
        """Derive the per-stage split from a finished ``analyze`` root
        span.

        Each stage is the interval from the previous stage's span end
        to its own (the last one runs to the root's end), so the three
        parts include every bit of inter-stage glue and **sum exactly
        to the root's duration** -- unlike the old per-stage
        ``perf_counter`` pairs, which dropped the glue and never summed
        to end-to-end.
        """
        stages = {c.name: c for c in root.children}
        s1 = stages.get("instr1")
        s2 = stages.get("instr2_fold")
        if s1 is None or s2 is None:
            raise ValueError(
                "span tree lacks instr1/instr2_fold stage spans"
            )
        return cls(
            instr1=s1.t1 - root.t0,
            instr2_fold=s2.t1 - s1.t1,
            feedback=root.t1 - s2.t1,
            stage1_cached=stage1_cached,
            stage2_cached=stage2_cached,
        )

    @property
    def cache_hit(self) -> bool:
        """True when every profiled execution was skipped."""
        return self.stage1_cached and self.stage2_cached

    @property
    def total(self) -> float:
        return self.instr1 + self.instr2_fold + self.feedback

    def as_dict(self) -> Dict[str, float]:
        return {
            "instr1": self.instr1,
            "instr2_fold": self.instr2_fold,
            "feedback": self.feedback,
        }


@dataclass
class AnalysisResult:
    """Everything the feedback stages need, bundled."""

    spec: ProgramSpec
    control: ControlProfile
    ddg_profile: DDGProfile
    folded: "FoldedDDG"
    forest: "NestForest"
    plans: List["NestPlan"] = field(default_factory=list)
    #: pipeline settings, recorded so the cross-checker can reproduce
    #: the run (on the opposite engine)
    engine: str = "fast"
    track_anti_output: bool = True
    #: soundness report when the run was crosschecked (``--crosscheck``)
    crosscheck: Optional["CrosscheckReport"] = None
    #: fresh per-stage cost of this call (cache-aware; see StageTimings)
    timings: StageTimings = field(default_factory=StageTimings)
    #: root span of this call's trace (every analyze() is traced at
    #: stage granularity; deep traces add execution counters/memory)
    trace: Optional[Span] = None
    #: fold worker processes this call ran with (1 = serial in-process)
    fold_jobs: int = 1
    #: per-shard fold busy seconds when ``fold_jobs > 1`` (these
    #: overlap each other and the execution -- informational only,
    #: never part of the StageTimings parts-sum-to-total accounting)
    shard_seconds: Optional[List[float]] = None
    #: what the incremental machinery did when ``analyze(baseline=...)``
    #: was used (:class:`~repro.incr.IncrementalInfo`); deliberately
    #: *not* part of any report/metrics document -- incremental output
    #: stays byte-identical to a cold run
    incremental: Optional["IncrementalInfo"] = None
    #: the artifact keys this call derived (None when it ran without a
    #: store)
    keys: Optional["ArtifactKeys"] = None

    @property
    def schedule_tree(self):
        return self.ddg_profile.builder.schedule_tree


@dataclass
class _Call:
    """The inputs one :func:`analyze` call hands to its stages."""

    spec: ProgramSpec
    options: AnalysisOptions
    tracer: Tracer
    extra_observers: Sequence
    store: Optional["ArtifactStore"] = None
    keys: Optional["ArtifactKeys"] = None
    plan: Optional["IncrementalPlan"] = None


@dataclass
class _Stage2:
    """What stage 2 produced, however it produced it."""

    ddg_profile: DDGProfile
    folded: "FoldedDDG"
    dep_vectors: Optional[list] = None
    cached: bool = False
    shard_seconds: Optional[List[float]] = None


def analyze(
    spec: ProgramSpec,
    options: Optional[AnalysisOptions] = None,
    *,
    store: Optional["ArtifactStore"] = None,
    baseline: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    extra_observers: Sequence = (),
    **fields,
) -> AnalysisResult:
    """The full POLY-PROF pipeline: profile, fold, analyze, plan.

    ``options`` (default :class:`AnalysisOptions`) with any ``fields``
    replaced, so ``analyze(spec, clamp=50)`` works as well.  The other
    arguments never change what is computed: ``store`` caches
    (:mod:`repro.store`), ``baseline`` re-analyzes incrementally,
    ``tracer`` collects the span tree (a private stage-granularity one
    runs when omitted, because ``result.timings`` is derived from it),
    and ``extra_observers`` watch both profiled executions (the
    service's deadline and progress observers) or abort them by
    raising.

    **Plan.**  With ``baseline`` (the program fingerprint of an
    analysis already in ``store``), the program is statically diffed
    against the baseline's manifest and the invalidated dependence
    frontier is sliced (:func:`repro.incr.plan_incremental`): the plan
    says whether stage 2 reuses everything, only the frontier's
    complement, or nothing.

    **Stage 1** (:func:`profile_control`) reconstructs the control
    structure, or loads it from the store's ``cp-`` artifact, and puts
    that artifact when the store lacks it.

    **Stage 2** (:func:`profile_ddg` plus the fold) produces the folded
    DDG in one of four ways: a warm ``ddg-`` load; a stitch of the
    baseline's region artifacts when the diff is all-unchanged; an
    execution emitting only the frontier, stitched with the baseline's
    regions; or a cold execution.  A stitch that fails falls back to
    the cold execution.  ``fold_jobs`` only decides which sink the
    execution feeds (in-process or sharded over worker processes).
    Every way is byte-identical to the cold one; ``result.incremental``
    says which ran.

    **Feedback** derives dependence vectors, analyzes the nest forest
    and plans transformations (:mod:`repro.schedule`).

    **Store write-through** puts whatever stage-2 artifact the store
    lacks: the ``ddg-`` artifact, the ``man-`` manifest and the
    per-function ``rgn-`` regions, so this analysis can serve as a
    later baseline.
    """
    options = replace(options or AnalysisOptions(), **fields)
    if tracer is None:
        # a standalone analyze() is its own trace front door: mint a
        # context so even library callers get stitchable span identity
        tracer = Tracer(context=new_trace_context())
    if baseline is not None and store is None:
        raise ValueError("analyze(baseline=...) requires an artifact store")
    keys = (
        artifact_store.keys_for_spec(spec, options)
        if store is not None
        else None
    )
    call = _Call(spec, options, tracer, extra_observers, store, keys)

    with tracer.span(
        "analyze", cat="pipeline", workload=spec.name, engine=options.engine
    ) as root:
        if baseline is not None:
            call.plan = incr.plan_incremental(
                spec, keys, baseline, store, tracer, options
            )
        with tracer.span("instr1", cat="stage"):
            control, stage1_cached = _stage1(call)
        with tracer.span("instr2_fold", cat="stage") as stage2_span:
            stage2 = _stage2(call, control, stage2_span)
        with tracer.span("feedback", cat="stage"):
            forest, plans = _feedback(call, stage2)
            if store is not None:
                _write_through(call, stage2, forest)

    timings = (
        StageTimings.from_span_tree(root, stage1_cached, stage2.cached)
        if tracer.enabled
        else StageTimings(
            stage1_cached=stage1_cached, stage2_cached=stage2.cached
        )
    )
    result = AnalysisResult(
        spec=spec,
        control=control,
        ddg_profile=stage2.ddg_profile,
        folded=stage2.folded,
        forest=forest,
        plans=plans,
        engine=options.engine,
        track_anti_output=options.track_anti_output,
        timings=timings,
        trace=root if tracer.enabled else None,
        fold_jobs=max(1, options.fold_jobs),
        shard_seconds=stage2.shard_seconds,
        incremental=call.plan.info if call.plan is not None else None,
        keys=keys,
    )
    if options.crosscheck:
        from .dataflow.crosscheck import CheckOptions, run_crosscheck

        with tracer.span("crosscheck", cat="stage"):
            result.crosscheck = run_crosscheck(
                result, CheckOptions(fuel=options.fuel)
            )
    return result


def _stage1(call: _Call) -> Tuple[ControlProfile, bool]:
    """Load or run Instrumentation I; returns (profile, loaded?)."""
    store, keys, tracer = call.store, call.keys, call.tracer
    control = None
    if store is not None:
        with tracer.span("stage1.load", cat="cache"):
            control = store.load(
                keys.stage1, artifact_store.decode_control_profile
            )
        if (
            control is None
            and call.plan is not None
            and call.plan.mode == "identical"
        ):
            # an all-unchanged diff implies identical control structure
            # (CFGs are uid-free), so the baseline's stage-1 artifact
            # serves verbatim
            with tracer.span("stage1.load_base", cat="cache"):
                control = store.load(
                    call.plan.base_keys.stage1,
                    artifact_store.decode_control_profile,
                )
    cached = control is not None
    if control is None:
        control = profile_control(
            call.spec,
            fuel=call.options.fuel,
            engine=call.options.engine,
            extra_observers=call.extra_observers,
            tracer=tracer,
        )
    if store is not None and not store.contains(keys.stage1):
        with tracer.span("stage1.put", cat="cache"):
            store.put(
                keys.stage1, artifact_store.encode_control_profile(control)
            )
    return control, cached


def _stage2(
    call: _Call, control: ControlProfile, stage_span: Span
) -> _Stage2:
    """Load, stitch, or execute and fold stage 2."""
    if call.store is not None:
        with call.tracer.span("stage2.load", cat="cache"):
            loaded = call.store.load(
                call.keys.stage2,
                partial(artifact_store.decode_stage2, program=call.spec.program),
            )
        if loaded is not None:
            folded, ddgp, dep_vectors = loaded
            if call.plan is not None:
                call.plan.info.mode = "warm"
                call.plan.info.reason = "stage2-warm-hit"
            return _Stage2(ddgp, folded, dep_vectors, cached=True)
    mode = call.plan.mode if call.plan is not None else "cold"
    if mode == "identical":
        try:
            return _stitch_identical(call)
        except incr.IncrementalMismatch as exc:
            return _fall_back_cold(
                call, control, stage_span, f"fallback: {exc}"
            )
    if mode == "incremental":
        try:
            return _stitch_frontier(call, control, stage_span)
        except (FrontierViolation, incr.IncrementalMismatch) as exc:
            return _fall_back_cold(
                call,
                control,
                stage_span,
                f"fallback: {type(exc).__name__}: {exc}",
            )
    return _execute_fold(call, control, None, stage_span)


def _execute_fold(
    call: _Call,
    control: ControlProfile,
    emit_funcs: Optional[set],
    stage_span: Span,
) -> _Stage2:
    """One instrumented stage-2 execution and its fold.  ``emit_funcs``
    None emits every function (cold); a set emits only the frontier.
    ``fold_jobs`` decides only which sink the execution feeds."""
    options, tracer = call.options, call.tracer
    manager = None
    if options.fold_jobs > 1:
        from .parallel import ParallelFoldManager

        manager = ParallelFoldManager(options.fold_jobs, options)
        sink = manager.router
    else:
        sink = options.fold_sink()
    try:
        ddgp = profile_ddg(
            call.spec,
            control,
            sink=sink,
            track_anti_output=options.track_anti_output,
            fuel=options.fuel,
            engine=options.engine,
            extra_observers=call.extra_observers,
            tracer=tracer,
            emit_funcs=emit_funcs,
        )
        if manager is None:
            with tracer.span("fold.finalize", cat="fold"):
                return _Stage2(ddgp, sink.finalize(tracer=tracer))
        with tracer.span("fold.finalize", cat="fold", fold_jobs=manager.jobs):
            folded = manager.finalize()
        manager.attach_spans(stage_span)
        return _Stage2(
            ddgp, folded, shard_seconds=manager.shard_busy_seconds()
        )
    finally:
        if manager is not None:
            manager.close()


def _stitch_identical(call: _Call) -> _Stage2:
    """All-unchanged diff: nothing runs; the baseline's regions and
    stage-2 metadata serve verbatim."""
    plan = call.plan
    with call.tracer.span("incr.stitch", cat="incr") as sp:
        base_payload = call.store.get(plan.base_keys.stage2)
        if base_payload is None:
            raise incr.IncrementalMismatch(
                "baseline stage-2 artifact vanished"
            )
        folded = incr.stitch_folded(call.spec.program, None, plan.regions, None)
        ddgp = artifact_store.decode_stage2_meta(base_payload)
        sp.count("regions_reused", len(plan.regions))
    return _Stage2(ddgp, folded, cached=True)


def _stitch_frontier(
    call: _Call, control: ControlProfile, stage_span: Span
) -> _Stage2:
    """Execute emitting only the frontier, then stitch in the baseline
    regions of every other function."""
    plan = call.plan
    fresh = _execute_fold(call, control, set(plan.emit_funcs), stage_span)
    with call.tracer.span("incr.stitch", cat="incr") as sp:
        fresh.folded = incr.stitch_folded(
            call.spec.program,
            fresh.folded,
            plan.regions,
            fresh.ddg_profile.builder.context_ids,
        )
        sp.count("regions_reused", len(plan.regions))
    return fresh


def _fall_back_cold(
    call: _Call, control: ControlProfile, stage_span: Span, reason: str
) -> _Stage2:
    """A stitch failed: record why, then run stage 2 cold."""
    info = call.plan.info
    info.mode = "cold"
    info.reason = reason
    info.regions_reused = 0
    return _execute_fold(call, control, None, stage_span)


def _feedback(call: _Call, stage2: _Stage2):
    """Dependence vectors, forest analysis, transformation plans."""
    tracer = call.tracer
    with tracer.span("feedback.forest", cat="feedback"):
        forest = schedule.build_nest_forest(
            stage2.folded, deps=stage2.dep_vectors
        )
    with tracer.span("feedback.analysis", cat="feedback"):
        schedule.analyze_forest(forest)
    with tracer.span("feedback.plan", cat="feedback"):
        plans = schedule.plan_all(forest, stride_scores_of=stride_scores)
    return forest, plans


def _write_through(call: _Call, stage2: _Stage2, forest) -> None:
    """Put every artifact the store lacks: the stage-2 ``ddg-``, and
    the incremental levels (manifest and per-function regions) so this
    analysis can serve as a future baseline."""
    store, keys, tracer, program = (
        call.store, call.keys, call.tracer, call.spec.program
    )
    if not store.contains(keys.stage2):
        with tracer.span("stage2.put", cat="cache"):
            store.put(
                keys.stage2,
                artifact_store.encode_stage2(
                    stage2.folded, stage2.ddg_profile, forest.deps
                ),
            )
    with tracer.span("incr.put", cat="cache") as sp:
        if not store.contains(keys.manifest):
            plan = call.plan
            manifest = (
                plan.new_manifest
                if plan is not None and plan.new_manifest is not None
                else incr.build_manifest(program)
            )
            store.put(keys.manifest, manifest)
        missing = [
            f for f in program.functions if not store.contains(keys.region(f))
        ]
        if missing:
            payloads = incr.encode_regions(program, stage2.folded)
            for func in missing:
                store.put(keys.region(func), payloads[func])
        sp.count("regions_written", len(missing))
