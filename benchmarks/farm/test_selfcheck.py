"""Self-check of the benchmark (not part of the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/farm/test_selfcheck.py -q

Runs all four workloads at a twentieth of their size (``--seconds
1.2``) through the real command, untraced and traced, and checks that
what is printed is what BENCHMARK.json declares; that the correctness
checks fire on wrong results; and that ``compare.py`` flags a 15 %
regression and passes a 2 % wobble.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import compare  # noqa: E402
import problems  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
SMALL_SECONDS = 0.05 * SPEC["run_seconds"]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "11",
         "--seconds", str(SMALL_SECONDS), "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_workload_names_match_the_spec():
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_exactly_the_declared_metrics(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_range_sum_check_fires():
    assert workloads.check_range_sum(45, 10, 45, 10, 0) == []
    assert workloads.check_range_sum(44, 10, 45, 10, 0)       # wrong sum
    assert workloads.check_range_sum(45, 9, 45, 10, 0)        # a unit went missing
    assert workloads.check_range_sum(45, 10, 45, 10, 1)       # a requeue


def _reference(workload_name: str, sizes: dict):
    """The workload's answer, computed in process."""
    from repro.core.client import run_to_completion
    from repro.core.server import TaskFarmServer

    workload = workloads.WORKLOADS[workload_name]
    problem, _items, context = workload.build(11, sizes)
    server = TaskFarmServer()
    server.submit(problem, 0.0)
    run_to_completion(server, donors=2)
    return server.final_result(problem.problem_id), context


def test_dsearch_check_fires():
    sizes = workloads.WORKLOADS["dsearch_live"].sizes(0.05)
    report, context = _reference("dsearch_live", sizes)
    planted = context["planted"]
    assert workloads.check_dsearch(report, planted, sizes) == []
    query = next(iter(planted))
    hits = dict(report.hits)
    hits[query] = [h for h in hits[query] if h.subject_id not in planted[query]]
    lost = dataclasses.replace(report, hits=hits)
    assert workloads.check_dsearch(lost, planted, sizes)
    hits = dict(report.hits)
    hits[query] = list(reversed(hits[query]))
    assert workloads.check_dsearch(dataclasses.replace(report, hits=hits), planted, sizes)


def test_dprml_check_fires():
    sizes = workloads.WORKLOADS["dprml_live"].sizes(0.05)
    report, context = _reference("dprml_live", sizes)
    assert workloads.check_dprml(report, context["taxa"]) == []
    assert workloads.check_dprml(report, context["taxa"] + ["missing"])
    assert workloads.check_dprml(
        dataclasses.replace(report, log_likelihood=float("nan")), context["taxa"]
    )


def test_gate_waits_for_every_donor():
    from repro.core.workunit import WorkResult

    gate = problems.GateDataManager(donors=2, min_units=3, max_units=50)
    for unit in range(10):  # one donor alone never closes the gate
        assert gate.next_unit(1) is not None
        gate.handle_result(WorkResult(1, unit, unit, donor_id="a"))
    assert not gate.is_complete()
    gate.next_unit(1)
    gate.handle_result(WorkResult(1, 10, 10, donor_id="b"))
    assert gate.next_unit(1) is None and gate.is_complete()
    assert gate.final_result()["donors"] == ["a", "b"]


def _runs(path: Path, factor: float) -> None:
    lines = []
    for i in range(10):
        wobble = 1.0 + 0.004 * (i % 5 - 2)
        lines.append(json.dumps({
            "workload": "farm_hotpath", "traced": False,
            "metrics": {
                "makespan_s": 4.0 * factor * wobble,
                "items_per_s": 5000.0 / (factor * wobble),
                "farm_cpu_s": 4.2 * factor * wobble,
                "server_peak_rss_mb": 56.0,
                "setup_s": 0.15 * wobble,
            },
        }))
    path.write_text("\n".join(lines) + "\n")


def test_compare_flags_a_regression_and_passes_a_wobble(tmp_path):
    """A 15 % slowdown is flagged, 2 % is not."""
    base, slower, wobbly = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    _runs(base, 1.0)
    _runs(slower, 1.15)
    _runs(wobbly, 1.02)
    verdicts = {
        r["metric"]: r["verdict"]
        for r in compare.compare(compare.load(base), compare.load(slower))
    }
    assert verdicts["makespan_s"] == "REGRESSION"
    assert verdicts["items_per_s"] == "REGRESSION"  # higher-is-better handled
    assert verdicts["server_peak_rss_mb"] == "ok"
    assert compare.main([str(base), str(slower)]) == 1
    rows = compare.compare(compare.load(base), compare.load(wobbly))
    assert {r["verdict"] for r in rows} == {"ok"}
    assert compare.main([str(base), str(wobbly)]) == 0


def test_contradicting_flags_are_refused():
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "farm_hotpath", "--trace", "0", "--traced"],
        cwd=REPO, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2 and "contradicts" in proc.stderr
