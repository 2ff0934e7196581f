"""The benchmark harness's own self-test, run as it is: it fails here when
the program drops or renames a name a benchmark plan uses."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _harness_module(name: str):
    """perfbench/<name>.py, loaded under a name of its own and read only:
    no bytecode is written beside it and sys.path is left as it is."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_traced_verify_plan_reaches_the_coherent_layers(monkeypatch):
    """The benchmark's traced layers see the suite's refinements: a traced
    q = 3 verify plan records a `coherent.wl_close` span for the closures
    and a `coherent.one_point_extension` span for criterion 11's K-orbit
    extension."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans, workloads = _harness_module("spans"), _harness_module("workloads")
    with spans.traced(workloads.LAYERS) as tracer:
        outcome = workloads.verify_plan(3, 7, workloads.expectations(3))
    assert outcome.failed() == []
    names = {span[0] for span in tracer.spans}
    assert {"coherent.wl_close", "coherent.one_point_extension"} <= names


def test_family_q7_seed_1_search_nodes(monkeypatch):
    """family-q7's plan at seed 1 passes every verdict, and its searches
    keep their node counts: 8, 8, 4 and 4 for the class count's four tested
    pairs, 4 for the relabelled copy."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _harness_module("workloads")
    outcome = workloads.family_plan(7, 1, workloads.expectations(7))
    assert outcome.failed() == []
    nodes = [v for k, v in outcome.counts.items() if k.startswith("iso_class_count[")]
    assert nodes == [8, 8, 4, 4]
    assert outcome.seeded_counts["relabeled.nodes"] == 4
