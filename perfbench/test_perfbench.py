"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    a = workloads.pool(workload, 7, run.SUITE)
    assert a == workloads.pool(workload, 7, run.SUITE)
    first = list(itertools.islice(workloads.blocks(workload, 7, len(a)), 3))
    again = list(itertools.islice(workloads.blocks(workload, 7, len(a)), 3))
    assert first == again
    assert sorted(first[0]) == list(range(len(a)))
    if workload != "replay_suite":
        assert a != workloads.pool(workload, 8, run.SUITE)


def test_checker_accepts_the_real_output_and_rejects_corrupted_ones():
    setup = run.set_up("replay_suite", 0)
    item = next(it for it in setup.items if it.key == "replay/memory")
    res = run.run_item(setup, item)
    assert res.ok, res.problems
    uc = setup.uclgen.uclid_check
    corrupted = [
        res.text.replace("var addr : integer", "var addr : boolean"),
        res.text.replace("  input data : integer;\n", ""),
        res.text.replace("var addr : integer;",
                         "var addr : integer;\n  var spare : integer;"),
        res.text.replace("module main {", "module main"),
    ]
    for text in corrupted:
        assert text != res.text
        assert check.check_output(text, item.expected, uc.validate_uclid,
                                  uc.parse_uclid)


def test_pipeline_exception_is_counted_not_raised(monkeypatch):
    setup = run.set_up("typing_conflicts", 0)

    def broken(task, backend, *args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(setup.uclgen.pipeline, "run_pipeline", broken)
    monkeypatch.setattr(run, "MIN_ITEMS", 1)
    got = run.closed_loop(setup, "typing_conflicts", 0, 0.0,
                          start=run.time.perf_counter())
    assert len(got.results) == len(setup.items)
    assert {r.reason for r in got.results} == {"RecursionError"}
    assert not any(r.ok for r in got.results)


def test_traced_run_matches_untraced_and_reaches_every_layer(monkeypatch):
    setup = run.set_up("typing_conflicts", 0)
    original = setup.uclgen.pipeline.run_pipeline
    monkeypatch.setattr(run, "MIN_ITEMS", 1)
    tracer = layertrace.Tracer()
    got = run.closed_loop(setup, "typing_conflicts", 0, 0.0,
                          start=run.time.perf_counter(), tracer=tracer)
    assert not got.mismatches
    assert all(r.ok for r in got.results + got.traced)
    tracer.check_reached(holefill_used=True)
    metrics = layertrace.layer_metrics(tracer.spans, [1.0] * len(got.traced))
    assert metrics["repair.holes_to_llm_per_task"][0] > 0
    assert metrics["maxsmt.redundant_solve_ratio"][0] > 0
    assert setup.uclgen.pipeline.run_pipeline is original


def test_missing_layer_function_fails_loudly(monkeypatch):
    setup = run.set_up("replay_suite", 0)
    monkeypatch.delattr(setup.uclgen.repair, "holeify")
    with pytest.raises(layertrace.TraceError, match="repair.holeify"):
        layertrace.Tracer().install(setup.uclgen)


def test_unreached_wrapper_fails_loudly():
    setup = run.set_up("replay_suite", 0)
    tracer = layertrace.Tracer()
    tracer.install(setup.uclgen)
    tracer.uninstall()
    with pytest.raises(layertrace.TraceError, match="never reached"):
        tracer.check_reached(holefill_used=False)
