#!/usr/bin/env python3
"""uclgen benchmark: one client drives `uclgen.pipeline.run_pipeline` in a
closed loop and every output is checked against an independent reference.

    python3 perfbench/run.py --workload replay_suite --seed 1 \\
        --seconds 20 --trace 0

Run it from the root of a checkout. The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
same items run alternately untraced and traced, the per-layer metrics
come from the traced calls, and the spans and the scaling view are
written under `.perfbench_out/`. Times are scaled to a reference machine
speed (see `speed.py`); the wall times as measured are printed on a
`#` line.

Exit status: 0 when every output passed its check, 1 when one did not
(the result line is still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SUITE = ROOT / "tests" / "data" / "suite" / "suite.json"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layertrace  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: p95 needs at least ten samples above it
MIN_ITEMS = 200
SETUP_REPEATS = 11
#: no new item starts after this many seconds, so a run ends within 180 s
DEADLINE_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_uclgen():
    """Import `uclgen` afresh from this checkout's `src`."""
    for name in [m for m in sys.modules
                 if m == "uclgen" or m.startswith("uclgen.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        uclgen = importlib.import_module("uclgen")
    except ImportError as exc:
        raise BenchError(f"cannot import uclgen from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(uclgen.__file__).resolve().parents:
        raise BenchError(f"imported uclgen from {uclgen.__file__}, "
                         f"not from {SRC}")
    return uclgen


@dataclass
class Setup:
    uclgen: object
    items: list
    transcripts: dict


def set_up(workload: str, seed: int) -> Setup:
    if not SUITE.is_file():
        raise BenchError(f"missing replay suite {SUITE}")
    uclgen = import_uclgen()
    items = workloads.pool(workload, seed, SUITE)
    transcripts = {
        it.transcript: uclgen.llm.Transcript.load(it.transcript)
        for it in items if it.transcript
    }
    return Setup(uclgen, items, transcripts)


def timed_set_up(workload: str, seed: int) -> tuple[Setup, float]:
    """Set up SETUP_REPEATS times from a collected heap; keep the last
    set-up and the median time, scaled by the probes on either side."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = speed.probe()
        t0 = time.perf_counter()
        setup = set_up(workload, seed)
        dt = time.perf_counter() - t0
        times.append(dt * speed.REF_S / ((before + speed.probe()) / 2))
    return setup, statistics.median(times)


# ---------------------------------------------------------------------------
# One item
# ---------------------------------------------------------------------------

@dataclass
class Result:
    key: str
    ms: float
    status: str  # pipeline status, or the name of the exception raised
    llm_calls: int
    text: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "success" and not self.problems

    @property
    def reason(self) -> str:
        return "check" if self.problems else self.status

    def same_output(self, other: "Result") -> bool:
        return (self.status, self.text, self.llm_calls) == (
            other.status, other.text, other.llm_calls)


def make_backend(setup: Setup, item):
    llm = setup.uclgen.llm
    if item.transcript:
        return llm.ReplayBackend(setup.transcripts[item.transcript])
    return llm.MockBackend(list(item.replies))


def run_item(setup: Setup, item, tracer=None) -> Result:
    """Run one item; an exception out of the pipeline is the item's
    result, never the benchmark's."""
    backend = make_backend(setup, item)
    if tracer is not None:
        tracer.wrap_backend(backend)
    pipeline = setup.uclgen.pipeline
    t0 = time.perf_counter()
    try:
        outcome = pipeline.run_pipeline(item.task, backend)
    except Exception as exc:  # the item fails; the run goes on
        ms = (time.perf_counter() - t0) * 1000.0
        return Result(item.key, ms, type(exc).__name__, backend.calls)
    ms = (time.perf_counter() - t0) * 1000.0
    result = Result(item.key, ms, outcome.status, backend.calls,
                    outcome.uclid_text)
    if outcome.status == "success":
        uc = setup.uclgen.uclid_check
        result.problems = check.check_output(
            outcome.uclid_text, item.expected, uc.validate_uclid,
            uc.parse_uclid)
    return result


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclass
class Run:
    results: list[Result] = field(default_factory=list)
    traced: list[Result] = field(default_factory=list)
    block_items: list[int] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    probes: speed.SpeedLog = field(default_factory=speed.SpeedLog)

    @property
    def whole(self) -> int:
        """Items in whole blocks."""
        return sum(self.block_items)


def closed_loop(setup: Setup, workload: str, seed: int, seconds: float,
                start: float, tracer: layertrace.Tracer | None = None) -> Run:
    """Run whole blocks of the pool, one item at a time, until `seconds`
    have passed and at least MIN_ITEMS items have run.

    With a tracer, each item runs twice, untraced and traced, in an order
    that alternates, and the two outputs must be identical.
    """
    run = Run()
    t_end = time.perf_counter() + seconds
    run.probes.tick(0, force=True)
    for order in workloads.blocks(workload, seed, len(setup.items)):
        done = 0
        for idx in order:
            if time.perf_counter() - start > DEADLINE_S:
                break
            item = setup.items[idx]
            if tracer is None:
                run.results.append(run_item(setup, item))
            else:
                plain, traced = _run_pair(setup, item, tracer,
                                          len(run.traced))
                run.results.append(plain)
                run.traced.append(traced)
                if not plain.same_output(traced):
                    run.mismatches.append(item.key)
            done += 1
            run.probes.tick(len(run.results))
        if done < len(order):
            break
        run.block_items.append(done)
        if time.perf_counter() >= t_end and len(run.results) >= MIN_ITEMS:
            break
    run.probes.tick(len(run.results), force=True)
    return run


def _run_pair(setup, item, tracer, n):
    def traced():
        tracer.begin_item(n)
        tracer.install(setup.uclgen)
        try:
            return run_item(setup, item, tracer)
        finally:
            tracer.uninstall()

    if n % 2:
        t = traced()
        return run_item(setup, item), t
    p = run_item(setup, item)
    return p, traced()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def timings(results: list[Result], scales: list[float],
            whole: int) -> tuple[float, float, float]:
    """(items per second over whole blocks, p50 ms, p95 ms) of the given
    per-item times, each multiplied by its scale."""
    ms = [r.ms * k for r, k in zip(results, scales)]
    cuts = statistics.quantiles(ms, n=20, method="inclusive")
    return whole / (sum(ms[:whole]) / 1000.0), statistics.median(ms), cuts[18]


def end_to_end(run: Run, setup_s: float) -> dict[str, tuple[float, str]]:
    ok = [r for r in run.results if r.ok]
    per_s, p50, p95 = timings(run.results, run.probes.scales(
        len(run.results)), run.whole)
    return {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (per_s, "items/s"),
        "task_ms_p50": (p50, "ms"),
        "task_ms_p95": (p95, "ms"),
        "success_rate": (len(ok) / len(run.results), "ratio"),
        "llm_calls_per_task": (
            statistics.fmean(r.llm_calls for r in run.results), "calls"),
        "uclid_bytes_per_task": (
            statistics.fmean(len(r.text.encode()) for r in ok) if ok
            else 0.0, "bytes"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB"),
    }


def per_layer(run: Run,
              tracer: layertrace.Tracer) -> dict[str, tuple[float, str]]:
    scales = run.probes.scales(len(run.traced))
    metrics = layertrace.layer_metrics(tracer.spans, scales)
    metrics["trace.overhead"] = (
        timings(run.traced, scales, run.whole)[0]
        / timings(run.results, scales, run.whole)[0], "ratio")
    return dict(sorted(metrics.items()))


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    try:
        setup, setup_s = timed_set_up(args.workload, args.seed)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"# python {platform.python_version()} on {platform.machine()} "
          f"({platform.platform()}); workload {args.workload}, seed "
          f"{args.seed}, closed loop, 1 client, {len(setup.items)} items "
          f"per block")

    for item in setup.items:  # warm-up: one untimed pass over the pool
        run_item(setup, item)
    gc.collect()

    tracer = layertrace.Tracer() if args.trace else None
    if tracer is not None:
        try:
            tracer.install(setup.uclgen)
        except layertrace.TraceError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        tracer.uninstall()
    run = closed_loop(setup, args.workload, args.seed, args.seconds, start,
                      tracer)
    if not run.block_items:
        print("perfbench: no whole block finished", file=sys.stderr)
        return 2

    results = run.results + run.traced
    bad = [r for r in results if r.problems]
    for r in bad[:5]:
        print(f"# check failed on {r.key}: {'; '.join(r.problems)}")
    for key in run.mismatches[:5]:
        print(f"# traced output differs from untraced on {key}")
    failures = Counter(r.reason for r in results if not r.ok)
    print(f"# {len(results)} items, {len(run.block_items)} blocks; failures "
          f"by reason: {dict(sorted(failures.items())) or 'none'}")
    per_s, p50, p95 = timings(run.results, [1.0] * len(run.results),
                              run.whole)
    print(f"# wall time as measured: tasks_per_s {per_s:.4f}, task_ms_p50 "
          f"{p50:.4f}, task_ms_p95 {p95:.4f}; the machine ran at "
          f"{1 / run.probes.mean_factor():.3f} of the reference speed")
    correct = not bad and not run.mismatches

    if tracer is None:
        metrics = end_to_end(run, setup_s)
    else:
        holefill = any(r.llm_calls > 1 for r in run.traced)
        try:
            tracer.check_reached(holefill)
        except layertrace.TraceError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        metrics = per_layer(run, tracer)
        write_trace(args, tracer, run)

    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def write_trace(args, tracer: layertrace.Tracer, run: Run) -> None:
    """Spans as JSON Lines and the per-layer scaling view as JSON."""
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    keys = [r.key for r in run.traced]
    layertrace.write_spans(tracer.spans, keys, OUT / f"spans_{stem}.jsonl")
    view = layertrace.scaling_view(tracer.spans, keys)
    (OUT / f"scaling_{stem}.json").write_text(
        json.dumps({"python": platform.python_version(),
                    "machine": platform.machine(),
                    "self_ms_per_item": view}, indent=1) + "\n",
        encoding="utf-8")
    layers = sorted({layer for row in view.values() for layer in row
                     if layer != "items"})
    print("# self ms per item, by layer")
    print(f"#   {'family/size':26} {'items':7} "
          + " ".join(f"{layer[:8]:>8}" for layer in layers))
    for key, row in view.items():
        print(f"#   {key:26} {row['items']:<7} "
              + " ".join(f"{row.get(layer, 0.0):8.3f}" for layer in layers))


if __name__ == "__main__":
    sys.exit(main())
