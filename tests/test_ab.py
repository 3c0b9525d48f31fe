"""The statistics of `scripts/ab.py`, on fixed numbers; no test here runs
the benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import ab  # noqa: E402

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.4, 9.6]


def test_quartiles_are_inclusive():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)
    q1, med, q3 = ab.quartiles(PARENT)
    assert (q1, med, q3) == pytest.approx((9.825, 10.0, 10.175))


def test_a_tie_counts_for_neither_side():
    assert ab.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == 1
    assert ab.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher") == 1


def test_gain_holds_with_nine_wins_in_ten_and_a_median_past_the_spread():
    change = [p - 1.0 for p in PARENT]
    change[3] = PARENT[3] + 0.1  # one pair lost
    assert ab.wins(PARENT, change, "lower") == 9
    assert ab.gain_holds(PARENT, change, "lower")
    assert not ab.gain_holds(PARENT, change, "higher")


def test_gain_fails_with_eight_wins_in_ten():
    change = [p - 1.0 for p in PARENT]
    change[3] = PARENT[3] + 0.1
    change[5] = PARENT[5]  # a tie wins nothing
    assert ab.wins(PARENT, change, "lower") == 8
    assert not ab.gain_holds(PARENT, change, "lower")


def test_gain_fails_when_the_medians_differ_by_no_more_than_the_spread():
    # the parent's quartiles are 0.35 apart; every pair is won by 0.3
    change = [p - 0.3 for p in PARENT]
    assert ab.wins(PARENT, change, "lower") == 10
    assert not ab.gain_holds(PARENT, change, "lower")
    assert ab.gain_holds(PARENT, [p - 0.4 for p in PARENT], "lower")


def test_higher_is_better_for_throughput():
    change = [p + 1.0 for p in PARENT]
    assert ab.gain_holds(PARENT, change, "higher")
    assert not ab.gain_holds(PARENT, change, "lower")


def test_report_has_a_row_per_end_to_end_metric():
    names = [m["name"] for m in ab.BENCHMARK["end_to_end"]]
    parent = [{n: p for n in names} for p in PARENT]
    change = [{n: p - 1.0 for n in names} for p in PARENT]
    header, *rows = ab.report(parent, change)
    assert [row.split()[0] for row in rows] == names
    by_name = dict(zip(names, rows))
    assert by_name["task_ms_p50"].endswith("10/10  holds")
    assert by_name["tasks_per_s"].endswith("0/10  does not hold")
