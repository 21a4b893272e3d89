"""Parallel suite runner: ordering, timeouts, graceful degradation."""

import pytest

from repro.pipeline import AnalysisOptions
from repro.runner import (
    WorkloadResult,
    render_suite_table,
    run_suite,
    task_name,
)


def slow_factory():
    """Picklable factory that burns CPU before ever returning a spec."""
    while True:
        pass


def boom_factory():
    """Picklable factory that raises."""
    raise RuntimeError("kaboom")


def not_a_spec_factory():
    """Picklable factory that returns the wrong type."""
    return 42


def nn_factory():
    """Picklable factory resolving a real workload spec."""
    from repro.workloads import all_workloads

    return all_workloads()["nn"]()


def test_inline_single_workload():
    (res,) = run_suite(["nn"], jobs=1)
    assert res.ok
    assert res.status() == "ok"
    assert res.name == "nn"
    assert res.engine == "fast"
    assert res.dyn_instrs > 0
    assert res.statements > 0
    assert res.error is None


def test_unknown_workload_is_error_record():
    bad, good = run_suite(["nope", "nn"], jobs=1)
    assert not bad.ok
    assert bad.status() == "error"
    assert "unknown workload 'nope'" in bad.error
    # a failing task does not sink the rest of the suite
    assert good.ok and good.name == "nn"


def test_factory_exception_is_error_record():
    bad, good = run_suite([boom_factory, "nn"], jobs=1)
    assert not bad.ok
    assert bad.name == "boom_factory"
    assert "kaboom" in bad.error
    assert good.ok


def test_factory_bad_return_type_is_error_record():
    (res,) = run_suite([not_a_spec_factory], jobs=1)
    assert not res.ok
    assert "expected ProgramSpec" in res.error


def test_timeout_yields_timeout_record():
    (res,) = run_suite([slow_factory], jobs=1, timeout=0.05)
    assert not res.ok
    assert res.timed_out
    assert res.status() == "timeout"
    assert "timed out after 0.05s" in res.error
    assert res.wall_seconds < 5.0


def test_pool_results_in_submission_order():
    # first task is much slower than the others: with 2 workers the
    # later tasks *complete* first, but results must come back in
    # submission order regardless.
    tasks = ["srad_v2", "nn", boom_factory, "nn"]
    results = run_suite(tasks, jobs=2)
    assert [r.name for r in results] == [
        "srad_v2",
        "nn",
        "boom_factory",
        "nn",
    ]
    assert [r.ok for r in results] == [True, True, False, True]
    assert "kaboom" in results[2].error


def test_pool_timeout_applies_per_workload():
    results = run_suite([slow_factory, "nn"], jobs=2, timeout=0.2)
    assert results[0].timed_out
    assert results[1].ok


def test_with_report():
    (res,) = run_suite(["nn"], jobs=1, with_report=True)
    assert res.ok
    assert "poly-prof feedback: nn" in res.report
    (res,) = run_suite(["nn"], jobs=1, with_report=False)
    assert res.report is None


def test_engine_flag_threaded_through():
    (ref,) = run_suite(["nn"], AnalysisOptions(engine="reference"), jobs=1)
    (fast,) = run_suite(["nn"], AnalysisOptions(engine="fast"), jobs=1)
    assert ref.engine == "reference"
    assert (ref.dyn_instrs, ref.statements, ref.deps, ref.plans) == (
        fast.dyn_instrs,
        fast.statements,
        fast.deps,
        fast.plans,
    )


def test_task_name():
    assert task_name("lud") == "lud"
    assert task_name(boom_factory) == "boom_factory"


def test_render_suite_table():
    results = [
        WorkloadResult(
            name="nn",
            ok=True,
            wall_seconds=0.5,
            dyn_instrs=100,
            statements=3,
            deps=2,
            plans=1,
        ),
        WorkloadResult(name="bad", ok=False, error="boom"),
    ]
    table = render_suite_table(results)
    assert "nn" in table and "boom" in table
    assert "1/2 workloads analyzed" in table


@pytest.mark.parametrize(
    "kwargs,expected",
    [
        ({"ok": True}, "ok"),
        ({"ok": False, "timed_out": True}, "timeout"),
        ({"ok": False}, "error"),
    ],
)
def test_status(kwargs, expected):
    assert WorkloadResult(name="x", **kwargs).status() == expected
