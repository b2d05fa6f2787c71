"""The pair summary, the source digest and the session stamp that
tools/bench_pairs.py records in BENCH_trajectory.json."""

import datetime
import importlib.util
import os
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


def _checkout(root):
    pkg = root / "src" / "oddmsim"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "analysis.py").write_text("x = 1\n")
    return pkg


def test_src_digest_follows_module_names_and_contents(tmp_path):
    pkg = _checkout(tmp_path)
    digest = bench_pairs.src_digest(tmp_path)
    (pkg / "analysis.py").write_text("x = 2\n")
    changed = bench_pairs.src_digest(tmp_path)
    assert changed != digest
    (pkg / "analysis.py").rename(pkg / "analysis2.py")
    assert bench_pairs.src_digest(tmp_path) not in (digest, changed)


def test_src_digest_ignores_other_files_and_mtimes(tmp_path):
    pkg = _checkout(tmp_path)
    digest = bench_pairs.src_digest(tmp_path)
    (pkg / "notes.txt").write_text("not code\n")
    (pkg / "analysis.pyc").write_bytes(b"\0")
    (tmp_path / "README.md").write_text("docs\n")
    os.utime(pkg / "analysis.py", (1_000_000_000, 1_000_000_000))
    assert bench_pairs.src_digest(tmp_path) == digest


def test_session_reads_the_boot_id_and_stamps_utc_time(tmp_path):
    boot = tmp_path / "boot_id"
    boot.write_text("0f1e2d3c-4b5a-6978-8796-a5b4c3d2e1f0\n")
    before = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)
    stamp = bench_pairs.session(boot)
    after = datetime.datetime.now(datetime.timezone.utc)
    assert stamp["boot_id"] == "0f1e2d3c-4b5a-6978-8796-a5b4c3d2e1f0"
    measured = datetime.datetime.fromisoformat(stamp["measured_at"])
    assert measured.utcoffset() == datetime.timedelta(0)
    assert before <= measured <= after


def test_session_records_no_boot_id_when_the_file_cannot_be_read(tmp_path):
    stamp = bench_pairs.session(tmp_path / "missing")
    assert stamp["boot_id"] is None
    assert set(stamp) == {"measured_at", "boot_id"}
