"""AnalysisOptions: the one declaration of the pipeline's options."""

import dataclasses

import pytest

from repro.pipeline import AnalysisOptions, analyze
from repro.service.jobs import JobOptions
from repro.store import ArtifactStore, keys_for_spec
from repro.workloads import all_workloads
from tests.store.test_key_pins import NW_KEYS


def _other(value):
    """A different value of the same kind as ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 7
    return value + "-other"


@pytest.mark.parametrize("case", sorted(NW_KEYS))
def test_keys_for_spec_pinned(case):
    fields, (stage1, stage2, manifest, region_main) = NW_KEYS[case]
    keys = keys_for_spec(all_workloads()["nw"](), AnalysisOptions(**fields))
    assert keys.stage1 == stage1
    assert keys.stage2 == stage2
    assert keys.manifest == manifest
    assert keys.region("main") == region_main


@pytest.mark.parametrize(
    "f", dataclasses.fields(AnalysisOptions), ids=lambda f: f.name
)
def test_only_key_bearing_fields_move_the_stage2_key(f):
    spec = all_workloads()["nn"]()
    base = keys_for_spec(spec, AnalysisOptions())
    changed = AnalysisOptions(**{f.name: _other(f.default)})
    moved = keys_for_spec(spec, changed)
    if f.metadata.get("execution_only"):
        assert moved == base
    else:
        assert moved.stage2 != base.stage2


def test_analyze_exposes_the_keys_it_derived(tmp_path):
    spec = all_workloads()["nn"]()
    options = AnalysisOptions(clamp=50)
    stored = analyze(spec, options, store=ArtifactStore(str(tmp_path)))
    assert stored.keys == keys_for_spec(spec, options)
    assert analyze(spec, options).keys is None


def test_fields_override_options():
    spec = all_workloads()["nn"]()
    result = analyze(spec, AnalysisOptions(engine="reference"), clamp=5)
    assert result.engine == "reference"


def test_job_options_round_trip_and_document():
    options = JobOptions(
        AnalysisOptions(engine="reference", clamp=3, fold_jobs=2),
        timeout=1.5,
        baseline="ab" * 32,
    )
    doc = options.as_dict()
    assert list(doc) == [
        "engine", "crosscheck", "clamp", "fuel", "timeout", "fold_jobs",
        "baseline",
    ]
    assert JobOptions.from_dict(doc) == options

