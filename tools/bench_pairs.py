"""Alternating parent/change benchmark pairs, recorded in BENCH_trajectory.json.

Usage, from anywhere inside a checkout:

    python3 tools/bench_pairs.py --against HEAD~1 --workload evolve --seeds 1,2 --pairs 10

The change side is this checkout's working tree; the parent side is REV,
exported with ``git archive`` into a temporary directory (an export, unlike a
worktree, leaves nothing registered in the repository if a run is cut). Pair
i runs ``perfbench/run.py --workload W --seed S --trace 0`` once in each
checkout at seed S = seeds[i % len(seeds)]; even pairs run the parent first,
odd pairs the change. Both sides run the same benchmark settings, but each
its own ``perfbench/``, as the benchmark itself is run on each commit.

For every end-to-end metric that BENCHMARK.json declares, the entry holds
each side's median and quartiles over all runs, each side's median per seed,
and the pairs the change won (ties count for neither), beside every run's
values. A run that reports correct false, or a change side that fails more
operations than the parent side, stops the tool before anything is written:
such a pair does not count as a win. One entry per invocation is appended to
BENCH_trajectory.json at the root of the checkout, a JSON list. Its commit is
HEAD when src/ and perfbench/ match HEAD, and null when they differ (dirty);
base is HEAD either way. Key entries by src_digest, which names the code
measured in both cases. Each entry also names the session that measured it:
measured_at, the UTC time it was written (ISO-8601), and boot_id, the host's
Linux boot id (null where the host has none to read). A host's speed can
drift between sessions, so compare rates only between entries of one session.
"""

import argparse
import datetime
import hashlib
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_trajectory.json"
BOOT_ID = Path("/proc/sys/kernel/random/boot_id")


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def src_digest(checkout: Path) -> str:
    """SHA-256 over the names and contents of src/oddmsim/*.py, in name order."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "oddmsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def session(boot_id_path: Path = BOOT_ID) -> dict:
    """When and on which boot of the host an entry is measured: measured_at
    (UTC, ISO-8601) and boot_id, or None for boot_id when the file cannot be
    read."""
    try:
        boot_id = boot_id_path.read_text().strip() or None
    except OSError:
        boot_id = None
    now = datetime.datetime.now(datetime.timezone.utc)
    return {"measured_at": now.isoformat(timespec="seconds"), "boot_id": boot_id}


def export(rev: str, dest: Path):
    """Write the tree of rev under dest."""
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            # extraction filters came with Python 3.12 and 3.10.12/3.11.4
            kw = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(dest, **kw)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run, at the benchmark's own run length; its last output
    line, the JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "p25": q[0], "p75": q[2]}


def compare(runs: dict, metrics: dict) -> dict:
    """Per metric: each side's summary over all runs and per seed (rates can
    differ twofold between seeds), and the pairs the change won.

    Raises ValueError if a run is not correct or the change side fails more
    operations than the parent side."""
    wrong = [side for side, rs in runs.items() if not all(r["correct"] for r in rs)]
    if wrong:
        raise ValueError(f"a run reported correct false on the {' and '.join(wrong)} side")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    if failed["change"] > failed["parent"]:
        raise ValueError(f"the change failed {failed['change']} operations, "
                         f"the parent {failed['parent']}")
    out = {}
    for name, better in metrics.items():
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        won = sum((y > x) if better == "higher" else (y < x) for x, y in zip(p, c))
        seeds = sorted({r["seed"] for r in runs["parent"]})
        by_seed = {
            str(seed): {
                side: statistics.median(r[name] for r in runs[side] if r["seed"] == seed)
                for side in ("parent", "change")
            }
            for seed in seeds
        }
        out[name] = {"better": better, "parent": summary(p), "change": summary(c),
                     "pairs_won": won, "median_by_seed": by_seed}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1", help="comma-separated seeds, cycled over pairs")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds or args.pairs < 1:
        parser.error("need at least one seed and one pair")
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    first = next(iter(metrics))  # the one a progress line shows

    against = git("rev-parse", args.against)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = Path(tmp)
        export(against, parent)
        sides = {"parent": parent, "change": ROOT}
        runs = {side: [] for side in sides}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(sides[side], args.workload, seed)
                runs[side].append({
                    "seed": seed,
                    "correct": res["correct"],
                    "failed": res["failed"],
                    "attempted": res["attempted"],
                    **{name: res["metrics"][name]["value"] for name in metrics},
                })
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} {runs[side][-1][first]:.4g}" for side in sides
            ), file=sys.stderr, flush=True)
        parent_digest = src_digest(parent)

    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    entry = {
        "commit": None if dirty else head,
        "base": head,
        "dirty": dirty,
        **session(),
        "src_digest": src_digest(ROOT),
        "against": against,
        "against_src_digest": parent_digest,
        "workload": args.workload,
        "seeds": seeds,
        "pairs": args.pairs,
        "metrics": compare(runs, metrics),
        "runs": runs,
    }
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(json.dumps(entry["metrics"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
