"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench/selftest.py

The workload tests run every workload for real, twice traced and once
untraced, and take about five minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import fingerprint  # noqa: E402
from metrics import EXACT  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(done):
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- tracer ------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    tracer.spans = [
        Span("core.engine", 1, 0, 100),
        Span("dynamics.snapshot", 1, 10, 50, parent=0),
        Span("graphs.csr_convert", 1, 20, 30, parent=1),
        Span("dynamics.snapshot", 1, 60, 70, parent=0),
    ]
    assert tracer.self_times() == [50, 30, 10, 10]
    table = tracer.layer_table()
    assert table["core"]["self_s"] == pytest.approx(50e-9)
    assert table["dynamics"]["spans"] == 2


def test_inclusive_time_counts_outermost_calls_once():
    tracer = Tracer()
    tracer.spans = [
        Span("core.engine", 1, 0, 100),
        Span("core.engine", 1, 10, 40, parent=0),  # re-entrant call
        Span("core.engine", 2, 0, 20),  # another thread
    ]
    row = tracer.summary()["core.engine"]
    assert row["calls"] == 3
    assert row["inclusive_s"] == pytest.approx(120e-9)
    assert row["self_s"] == pytest.approx(120e-9)


def test_patch_function_covers_from_imports_and_restores():
    import repro.graphs
    import repro.graphs.metrics as metrics
    from repro.graphs import clique

    original = metrics.conductance_exact
    tracer = Tracer()
    with tracer:
        tracer.patch_function("repro.graphs.metrics", "conductance_exact", "graphs.exact")
        assert repro.graphs.conductance_exact is metrics.conductance_exact is not original
        value = repro.graphs.conductance_exact(clique(range(6)))
    assert metrics.conductance_exact is original and repro.graphs.conductance_exact is original
    assert value == original(clique(range(6)))
    assert [span.name for span in tracer.spans] == ["graphs.exact"]


def test_patch_method_keeps_classmethods_working():
    from repro.graphs import clique
    from repro.graphs.csr import CsrSnapshot

    raw = CsrSnapshot.__dict__["from_networkx"]
    tracer = Tracer()
    with tracer:
        tracer.patch_method(CsrSnapshot, "from_networkx", "graphs.csr_convert")
        snapshot = CsrSnapshot.from_networkx(clique(range(5)))
    assert CsrSnapshot.__dict__["from_networkx"] is raw
    assert snapshot.n == 5 and len(tracer.spans) == 1 and tracer.spans[0].end > 0


def test_speedometer_samples_on_a_timer_and_restores_the_handler():
    import signal
    import statistics
    import time

    import speed

    previous = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer()
    with meter.ticking(interval=0.01):
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(meter.samples) >= 5
    assert meter.spent >= sum(meter.samples)
    assert meter.factor() == pytest.approx(speed.REFERENCE_S / statistics.median(meter.samples))


# -- compare -----------------------------------------------------------------------


def test_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9]
    assert compare.verdict(base, [value * 1.3 for value in base], "lower", 0.1) == "regression"
    assert compare.verdict(base, [value * 0.8 for value in base], "lower", 0.1) == "gain"
    assert compare.verdict(base, base, "lower", 0.1) == "same"
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"


def test_compare_refuses_different_fingerprints(tmp_path, capsys):
    env = fingerprint.fingerprint()
    document = {"workload": "spread-large", "trace": 0, "fingerprint": env,
                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    base, head = tmp_path / "base.json", tmp_path / "head.json"
    base.write_text(json.dumps(document))
    head.write_text(json.dumps({**document, "fingerprint": {**env, "nproc": env["nproc"] + 1}}))
    assert compare.main(["--base", str(base), "--head", str(base)]) == 0
    assert compare.main(["--base", str(base), "--head", str(head)]) == 2
    assert "nproc" in capsys.readouterr().err


# -- the benchmark command -----------------------------------------------------------


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_spec(workload):
    result = result_line(run_benchmark(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric["name"] for metric in SPEC["end_to_end"]]
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_processes(workload):
    first, second = (result_line(run_benchmark(workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    names = [metric["name"] for metric in SPEC["per_layer"]]
    assert sorted(first["metrics"]) == sorted(names)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
