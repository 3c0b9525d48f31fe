#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics of a git revision (the
parent) and the working tree (the change), in alternating pairs.

    python3 scripts/ab.py REV --workload W --seed S --pairs N

The revision is unpacked from `git archive REV` into a temporary
directory. Each pair runs `perfbench/run.py --trace 0` once there and
once in the working tree, one after the other; the parent runs first in
even pairs and the change in odd ones. Each run lasts `run_seconds` of
`BENCHMARK.json`, the length the benchmark itself runs.

Each run's metrics are printed on a `#` line as it ends. Then, for every
end-to-end metric of `BENCHMARK.json`, one row gives each side's median
and quartiles, the pairs the change won (a tie counts for neither side)
and whether the gain rule holds: the change wins at least nine pairs in
ten, and its median is better than the parent's by more than the
distance between the parent's quartiles.

Exit status: 0 when every run passed its output check, 1 when one did
not, 2 when a run could not start or the revision cannot be unpacked.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: the share of pairs the change must win for a gain
MIN_WIN_SHARE = 0.9


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), with the inclusive
    method, so the quartiles of one value are that value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether `a` is strictly better than `b` for a metric whose
    `direction` is "lower" or "higher"."""
    return a < b if direction == "lower" else a > b


def wins(parent: list[float], change: list[float], direction: str) -> int:
    """The pairs in which the change is strictly better."""
    return sum(better(c, p, direction) for p, c in zip(parent, change))


def gain_holds(parent: list[float], change: list[float],
               direction: str) -> bool:
    """The gain rule: the change wins at least `MIN_WIN_SHARE` of the
    pairs, and its median is better than the parent's by more than the
    parent's interquartile range."""
    if wins(parent, change, direction) < MIN_WIN_SHARE * len(parent):
        return False
    p1, p_med, p3 = quartiles(parent)
    c_med = quartiles(change)[1]
    return better(c_med, p_med, direction) and abs(c_med - p_med) > p3 - p1


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def unpack(rev: str, dest: Path) -> None:
    """Write the files of `rev` under `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def run_once(root: Path, workload: str,
             seed: int) -> tuple[bool, dict[str, float]]:
    """(whether every output passed its check, the metrics by name) of
    one untraced benchmark run in the checkout at `root`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"perfbench in {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["correct"], {name: m["value"]
                               for name, m in result["metrics"].items()}


def report(parent: list[dict], change: list[dict]) -> list[str]:
    """One row per end-to-end metric of `BENCHMARK.json`."""
    rows = [f"{'metric':<22} {'parent median [q1, q3]':>28} "
            f"{'change median [q1, q3]':>28} {'change won':>10}  gain rule"]
    for metric in BENCHMARK["end_to_end"]:
        name, direction = metric["name"], metric["better"]
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        cells = []
        for values in (p, c):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        won = f"{wins(p, c, direction)}/{len(p)}"
        verdict = "holds" if gain_holds(p, c, direction) else "does not hold"
        rows.append(f"{name:<22} {cells[0]:>28} {cells[1]:>28} {won:>10}  "
                    f"{verdict}")
    return rows


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the parent: a git revision")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    parent: list[dict] = []
    change: list[dict] = []
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="uclgen-ab-") as tmp:
        try:
            unpack(args.rev, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"ab: cannot unpack {args.rev}: {exc.stderr.decode()}",
                  file=sys.stderr)
            return 2
        sides = {"parent": (Path(tmp), parent), "change": (ROOT, change)}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                root, runs = sides[side]
                try:
                    correct, metrics = run_once(root, args.workload,
                                                args.seed)
                except RuntimeError as exc:
                    print(f"ab: {exc}", file=sys.stderr)
                    return 2
                all_correct &= correct
                runs.append(metrics)
                shown = " ".join(f"{m['name']} {metrics[m['name']]:.4g}"
                                 for m in BENCHMARK["end_to_end"])
                print(f"# pair {k} {side}: {shown}"
                      f"{'' if correct else ' (an output failed its check)'}",
                      flush=True)
    print(f"# {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{BENCHMARK['run_seconds']:g} s runs, parent {args.rev}")
    print("\n".join(report(parent, change)))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
