"""Self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all), two traced one-round runs at the default
seed must pass the correctness gate and agree exactly on every work count
and on the statistics digest, and an untraced one-round run must report
every end-to-end metric, none of them zero. Last, the command must exit
non-zero without a result line in a directory that holds only
BENCHMARK.json and perfbench/. Takes a few minutes at paper scale.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# per-layer metrics that count work or outcomes, not time: they must repeat
EXACT_UNITS = ("count", "count/round", "ratio", "sweeps")


def bench(workload, trace, cwd=ROOT):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    digest = next((ln for ln in lines if ln.startswith("stats digest:")), None)
    return proc, result, digest


def check_workload(workload, spec):
    errors = []
    runs = [bench(workload, 1) for _ in range(2)]
    for proc, result, _ in runs:
        if proc.returncode != 0 or result is None or not result["correct"]:
            errors.append(f"traced run failed:\n{proc.stderr}")
    if not errors:
        (_, a, da), (_, b, db) = runs
        if da != db:
            errors.append(f"statistics differ: {da} / {db}")
        for name in (m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS):
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va != vb:
                errors.append(f"{name} does not repeat: {va} / {vb}")
    proc, result, _ = bench(workload, 0)
    if proc.returncode != 0 or result is None or not result["correct"]:
        errors.append(f"untraced run failed:\n{proc.stderr}")
    else:
        for m in spec["end_to_end"]:
            v = result["metrics"].get(m["name"], {}).get("value")
            if not v:
                errors.append(f"end-to-end metric {m['name']} missing or zero: {v}")
    return errors


def check_bare_directory():
    """Without the sources, the command must fail and print no result."""
    bare = BENCH_DIR / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH_DIR.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    try:
        proc, result, _ = bench("ber_soft", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or result is not None:
        return [f"bare directory: exit {proc.returncode}, result {result}"]
    return []


def main(names):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = 0
    for workload in names or [w["name"] for w in spec["workloads"]]:
        errors = check_workload(workload, spec)
        failures += len(errors)
        print(f"{workload}: {'ok' if not errors else 'FAILED'}")
        for e in errors:
            print("  " + e)
    errors = check_bare_directory()
    failures += len(errors)
    print(f"bare directory: {'ok' if not errors else 'FAILED'}")
    for e in errors:
        print("  " + e)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
