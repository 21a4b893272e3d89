"""The service's parallel-fold surface: option parsing, the
oversubscription cap, /healthz exposure, dedup across fold_jobs, and
an end-to-end parallel-folded job whose rendered artifacts match a
local serial analysis byte for byte."""

import os

import pytest

from repro.feedback.jsonout import render_json, report_document
from repro.pipeline import analyze
from repro.service import AnalysisService, BadRequest, ServiceConfig
from repro.workloads import all_workloads


def _unstarted(**overrides):
    """A service object for config/parsing assertions -- never
    started, so no sockets or worker threads exist."""
    overrides.setdefault("port", 0)
    overrides.setdefault("workers", 1)
    overrides.setdefault("log_level", "error")
    return AnalysisService(ServiceConfig(**overrides))


class TestCap:
    def test_explicit_cap_wins(self):
        svc = _unstarted(workers=1, max_fold_jobs=3)
        assert svc.fold_jobs_cap == 3

    def test_auto_cap_divides_cores_among_workers(self):
        """Default cap keeps total fold fan-out (workers x fold_jobs)
        at or under the core count, bottoming out at 1."""
        cpus = os.cpu_count() or 1
        for workers in (1, 2, 4):
            svc = _unstarted(workers=workers)
            assert svc.fold_jobs_cap == max(1, cpus // workers)

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            _unstarted(max_fold_jobs=0)


class TestOptionParsing:
    def test_default_is_serial(self):
        svc = _unstarted(max_fold_jobs=4)
        assert svc._build_options({}).analysis.fold_jobs == 1

    def test_passthrough_under_cap(self):
        svc = _unstarted(max_fold_jobs=4)
        assert svc._build_options({"fold_jobs": 3}).analysis.fold_jobs == 3

    def test_silently_clamped_to_cap(self):
        # clamping (not rejecting) is deliberate: the capped request
        # still computes the identical result
        svc = _unstarted(max_fold_jobs=2)
        assert svc._build_options({"fold_jobs": 64}).analysis.fold_jobs == 2

    @pytest.mark.parametrize("bad", ("three", None, [2], 0, -1))
    def test_invalid_values_are_400s(self, bad):
        svc = _unstarted(max_fold_jobs=4)
        with pytest.raises(BadRequest):
            svc._build_options({"fold_jobs": bad})


class TestLiveService:
    def test_healthz_exposes_cap(self, make_service):
        live = make_service(workers=1, max_fold_jobs=2)
        doc = live.client.health()
        assert doc["fold_jobs_cap"] == 2

    def test_parallel_job_matches_local_serial_bytes(self, make_service):
        live = make_service(workers=1, max_fold_jobs=2)
        sub = live.client.submit(workload="nn", fold_jobs=2)
        done = live.client.wait(sub["job"])
        assert done["state"] == "done"
        assert done["options"]["fold_jobs"] == 2
        local = analyze(all_workloads()["nn"]())
        expected = render_json(report_document(local)).encode("utf-8")
        assert live.client.report(sub["job"]) == expected

    def test_dedup_across_fold_jobs(self, make_service):
        """fold_jobs changes how the answer is computed, not the
        answer: requests differing only in fold_jobs coalesce."""
        live = make_service(workers=1, max_fold_jobs=2)
        first = live.client.submit(workload="nn", fold_jobs=2)
        live.client.wait(first["job"])
        second = live.client.submit(workload="nn")
        assert second["deduplicated"] is True
        assert second["job"] == first["job"]
