"""Pinned content keys.

Artifact keys are addresses into stores that outlive the code that
filled them, and the service's dedup and routing keys build on them.
These literals were derived before the analysis options became one
object; they must never move silently.  A deliberate format change
bumps ``STORE_FORMAT_VERSION`` and re-pins them.

Only public entry points whose signatures predate that change are used
(``analyze(**fields)`` writing through a store, ``routing_key``), so
the pins hold against either side of a refactor.
"""

import pytest

from repro.pipeline import analyze
from repro.service.submission import routing_key
from repro.store import ArtifactStore
from repro.workloads import all_workloads

#: analyze() fields -> the nw keys: cp-, ddg-, man-, and main's rgn-
NW_KEYS = {
    "defaults": (
        {},
        [
            "cp-e5eedd958511873f8924a4212a5ca3583601ff0bce39af1a1c45b994f376830e",
            "ddg-d6c78c1e01e01aff08154c2d7e78ce67134ba1aba3d493f55ceb1ec910e6fa5d",
            "man-52b3d174a1d2abd83ebe51e23fc8c3e00943db92ec6103494497ab0470ed4125",
            "rgn-dcfb4c9e5aad6bce4fe97cf61ea50aff741dc289b2d5094a00ef350c01d5c492",
        ],
    ),
    "clamp-fuel": (
        {"clamp": 50, "fuel": 10_000_000},
        [
            "cp-02f515c5a8a0d3428bcdf4a87f073019d8179c833b0b9c7600a0d426aab13ad7",
            "ddg-5ff445b0855be7a7c2aace5e462cc12e85925df9053e7aeedab7121734e8cac7",
            "man-52b3d174a1d2abd83ebe51e23fc8c3e00943db92ec6103494497ab0470ed4125",
            "rgn-8b45b7793bb4a44dc393b60754f26946cbd701ebd21733eeb91be5a914b1a9b9",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(NW_KEYS))
def test_analyze_writes_pinned_keys(tmp_path, case):
    fields, keys = NW_KEYS[case]
    store = ArtifactStore(str(tmp_path))
    analyze(all_workloads()["nw"](), store=store, **fields)
    for key in keys:
        assert store.contains(key), key


@pytest.mark.parametrize(
    "body, key",
    [
        (
            {"workload": "nw"},
            "5b908d993c0d886d3b5b2c575c66ba1b939486c91772bd268d7c701cd8c7d047",
        ),
        (
            {
                "workload": "nw",
                "crosscheck": True,
                "clamp": 50,
                "fuel": 10_000_000,
                "fold_jobs": 3,
            },
            "554fb9b7bb440e02ff2da457fdbccbb7dddf01613ccc7922ae030aaf5b680fde",
        ),
    ],
)
def test_routing_key_pinned(body, key):
    # routing_key is the daemon's derive_job_key for the same body
    assert routing_key(body) == key
