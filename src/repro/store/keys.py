"""Artifact key derivation: fingerprints + pipeline options + salt.

Two cache levels mirror the pipeline's stage structure:

* the **stage-1 key** covers everything Instrumentation I depends on:
  the program IR, the initial state, the engine, and the fuel budget;
* the **stage-2 key** extends it with the Instrumentation-II/folding
  options (``max_pieces``, ``clamp``, ``track_anti_output``).

The options are the key-bearing fields of
:class:`~repro.pipeline.AnalysisOptions`; its execution-only fields
(``fold_jobs``, ``crosscheck``) never enter a key.

Changing only a stage-2 option therefore invalidates the folded DDG
but still reuses the cached :class:`~repro.pipeline.ControlProfile`.
Both keys are salted with :data:`~repro.store.store.STORE_FORMAT_VERSION`
so a format bump makes every old artifact an orderly miss.

Two further levels serve incremental re-analysis (:mod:`repro.incr`):

* the **manifest key** (``man-``) covers the static program manifest --
  per-function fingerprints, call edges, access roots -- and depends on
  the program digest alone;
* the **region keys** (``rgn-``, one per function) extend the stage-2
  key material with the function name, caching that function's slice
  of the folded DDG for frontier-only re-analysis.

``engine`` is part of the key even though both engines are proven to
produce identical artifacts: the recorded engine is reproduced by the
cross-checker (which recounts on the *opposite* engine), so a cached
result must never claim an engine it did not run on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..isa.fingerprint import fingerprint_program, fingerprint_state
from .store import STORE_FORMAT_VERSION

if TYPE_CHECKING:
    from ..pipeline import AnalysisOptions


@dataclass(frozen=True)
class ArtifactKeys:
    """The content-addressed keys of one (workload, options) pair."""

    stage1: str          # ControlProfile artifact ("cp-<sha256>")
    stage2: str          # FoldedDDG + profile-meta + dep-vector artifact
    program_digest: str
    state_digest: str
    #: program manifest artifact ("man-<sha256>"); static-only, so it
    #: depends on the program digest alone (see manifest_key)
    manifest: str = ""
    #: raw stage-2 key material the per-function region keys extend
    region_base: str = ""

    def region(self, func: str) -> str:
        """Per-function folded-region artifact key ("rgn-<sha256>").

        Extends the full stage-2 key material (program, state, engine,
        fuel, folding options) with the function name -- a region
        artifact is only reusable under the *same* dynamic conditions
        the stage-2 artifact would be.  The name is length-prefixed so
        adversarial names cannot collide with the option fields.
        """
        if not self.region_base:
            raise ValueError("ArtifactKeys built without region_base")
        return "rgn-" + _hex(
            self.region_base + f"|region[{len(func)}]={func}"
        )


def _hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def manifest_key(program_digest: str) -> str:
    """Program-manifest artifact key ("man-<sha256>").

    Keyed by the program digest alone: the manifest is pure static
    analysis (per-function fingerprints, call edges, access roots), so
    it is shared across states, engines, fuel budgets, and folding
    options.  Dynamic mismatches surface naturally as rgn-/ddg- misses.
    """
    return "man-" + _hex(f"v{STORE_FORMAT_VERSION}|manifest={program_digest}")


def derive_keys(
    program_digest: str, state_digest: str, options: "AnalysisOptions"
) -> ArtifactKeys:
    """The keys of one (program, state) pair under ``options``.

    Only the key-bearing :class:`~repro.pipeline.AnalysisOptions`
    fields enter the key material; the execution-only ones
    (``fold_jobs``, ``crosscheck``) never do.  The literal
    ``|schedule_tree=True`` is what every stage-2 key has always
    carried, kept so no key moves."""
    base = (
        f"v{STORE_FORMAT_VERSION}|prog={program_digest}"
        f"|state={state_digest}|engine={options.engine}|fuel={options.fuel}"
    )
    stage2 = (
        base
        + f"|max_pieces={options.max_pieces}|clamp={options.clamp}"
        + f"|anti_output={options.track_anti_output}"
        + "|schedule_tree=True"
    )
    return ArtifactKeys(
        stage1="cp-" + _hex(base),
        stage2="ddg-" + _hex(stage2),
        program_digest=program_digest,
        state_digest=state_digest,
        manifest=manifest_key(program_digest),
        region_base=stage2,
    )


def keys_for_spec(spec, options: "AnalysisOptions") -> ArtifactKeys:
    """Fingerprint one :class:`~repro.pipeline.ProgramSpec` and derive
    its artifact keys.  Materializes (and discards) one fresh state --
    cheap next to even a single instrumented execution."""
    args, memory = spec.make_state()
    return derive_keys(
        fingerprint_program(spec.program),
        fingerprint_state(args, memory),
        options,
    )
