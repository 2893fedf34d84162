"""The benchmark's contract, checked from the test suite.

`perfbench/run.py` from this checkout runs each workload's tiny rungs with
one traced pass.  Every per-layer metric that `BENCHMARK.json` declares must
come back as a finite number: the benchmark prints `null` for a layer whose
traced names are all gone from the program, or whose hooked result field is
gone, and a NaN would make its last line invalid JSON.  The answer digest
of each seed-1 tiny run is pinned, and so are those of the full seed-1
verify-holds run, whose answers come from every verify route, and of the
full seed-1 construct run, whose answers come from every construction and
every faithful shape: a change that alters answers on purpose updates the
pin and says why.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_DIGESTS = {
    "verify-holds": "2c42b022336d9dc798f2e799b08f85388372e05ac8b41ed828aa11df3882c03e",
    "m-table": "343e7fb6f30f08444c6961592748c95b6cf4815130a9eea865036aa456a35b7d",
    "construct": "cff0a5f2ad55c10dbc3d2a3f19c5a506184e4e32580a239a5c91345d148d64f6",
}
FULL_VERIFY_DIGEST = "12bcc450d0e6eabf670abe618a13dee1cd131c74d24fc9ad76ead1ade7b6b4e5"
FULL_CONSTRUCT_DIGEST = "82ae258574aad2c843cdc705402e87002dbc1b3d10adf8e5aa6855163b61c27a"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py imported from the checkout, with the package it loads."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(run)
        yield run, run.load_package()
    finally:
        sys.path[:] = saved
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_traced_tiny_run_reports_every_per_layer_metric(bench, workload):
    run, fl = bench
    result, notes = run.run_workload(fl, workload, 1, seconds=0, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0, notes
    assert f"digest sha256 {TINY_DIGESTS[workload]}" in notes, notes
    # the last line of a run must be strict JSON
    json.loads(json.dumps(result, allow_nan=False))
    metrics = result["metrics"]
    for name in (m["name"] for m in DECLARED["per_layer"]):
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
        assert math.isfinite(value), (name, value)


def test_full_verify_holds_digest_is_pinned(bench):
    run, fl = bench
    result, notes = run.run_workload(fl, "verify-holds", 1, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0, notes
    assert f"digest sha256 {FULL_VERIFY_DIGEST}" in notes, notes


def test_full_construct_digest_is_pinned(bench):
    run, fl = bench
    result, notes = run.run_workload(fl, "construct", 1, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0, notes
    assert f"digest sha256 {FULL_CONSTRUCT_DIGEST}" in notes, notes
