"""The pair summary that tools/bench_pairs.py records in BENCH_trajectory.json."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(parent, change, seeds):
    def run(s, x):
        return {"seed": s, "correct": True, "failed": 0, "rate": x, "rss": x}
    return {
        "parent": [run(s, x) for s, x in zip(seeds, parent)],
        "change": [run(s, x) for s, x in zip(seeds, change)],
    }


def test_pairs_won_follow_the_better_direction_and_ties_count_for_neither():
    runs = _runs([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0], [1, 2, 1, 2])
    out = bench_pairs.compare(runs, {"rate": "higher", "rss": "lower"})
    assert out["rate"]["pairs_won"] == 2
    assert out["rss"]["pairs_won"] == 1


def test_summary_per_side_and_per_seed():
    runs = _runs([1.0, 10.0, 3.0, 30.0], [2.0, 20.0, 4.0, 40.0], [1, 2, 1, 2])
    out = bench_pairs.compare(runs, {"rate": "higher"})["rate"]
    assert out["parent"]["median"] == pytest.approx(6.5)
    assert out["change"]["p25"] <= out["change"]["median"] <= out["change"]["p75"]
    assert out["median_by_seed"] == {
        "1": {"parent": 2.0, "change": 3.0},
        "2": {"parent": 20.0, "change": 30.0},
    }


@pytest.mark.parametrize("side", ["parent", "change"])
def test_an_incorrect_run_records_no_summary(side):
    runs = _runs([1.0, 2.0], [3.0, 4.0], [1, 2])
    runs[side][1]["correct"] = False
    with pytest.raises(ValueError, match="correct"):
        bench_pairs.compare(runs, {"rate": "higher"})


def test_a_change_that_fails_more_operations_records_no_summary():
    runs = _runs([1.0, 2.0], [3.0, 4.0], [1, 2])
    runs["parent"][0]["failed"] = 1
    bench_pairs.compare(runs, {"rate": "higher"})  # as many failures: fine
    runs["change"][0]["failed"] = 1
    runs["change"][1]["failed"] = 1
    with pytest.raises(ValueError, match="failed"):
        bench_pairs.compare(runs, {"rate": "higher"})
