"""oddmsim throughput benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ber_mrc_est --seed 1 --seconds 10 --trace 0

Runs one workload (see workloads.py) in this single process against the
oddmsim sources under ``src/``, for about ``--seconds`` seconds of whole
rounds (at least one, however long), checks the simulated statistics, and prints every metric by name
with its unit. The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Full results (and, when traced, the spans) are written under
``perfbench/results/``.
"""

from time import perf_counter

# set-up time counts from here: imports, configuration and warm-up
START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import environment  # noqa: E402

environment.pin_blas_threads()

# tracing loads numpy, so it comes after the thread count is pinned
import tracing  # noqa: E402
import workloads as W  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"
# fresh interpreters that repeat the set-up, besides this process's own
SETUP_CHILDREN = 4


class BenchError(Exception):
    """The benchmark cannot produce a result (exit code 2, no JSON line)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_oddmsim():
    """Import the package from this checkout's src/, and nowhere else."""
    if not (SRC / "oddmsim" / "__init__.py").is_file():
        raise BenchError(f"no oddmsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import oddmsim
    from oddmsim import analysis, detectors, harness

    if SRC not in Path(oddmsim.__file__).resolve().parents:
        raise BenchError(f"oddmsim imported from {oddmsim.__file__}, not {SRC}")
    refusal = environment.engine_guard()
    if refusal:
        raise BenchError("refusing to report: " + refusal)
    return {"harness": harness, "detectors": detectors, "analysis": analysis}


def setup(wl, seed):
    """Import, configuration and warm-up: everything done before timing."""
    modules = import_oddmsim()
    h = modules["harness"]
    cfg = W.make_config(h, wl, seed)
    warm = W.warmup_config(h, wl)
    entry = W.entry_point(h, wl)
    for item in wl.items:
        entry(warm, item.kind, wl.snr_db, 0)
    return modules, cfg


def child_setups(wl):
    """Set-up seconds of fresh interpreters, each timed as this process is:
    from START to the end of the warm-up, so interpreter start-up is left
    out."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name, "--setup-only"]
    times = []
    for _ in range(SETUP_CHILDREN):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            raise BenchError("set-up did not finish within 120 s") from None
        if proc.returncode != 0:
            raise BenchError("set-up failed:\n" + proc.stderr)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_workload(wl, modules, cfg, seconds, trace, reference=None, rounds=None):
    """Run whole rounds for ``seconds`` (or exactly ``rounds``) and gather
    per-point walls, statistics and spans."""
    h = modules["harness"]
    tracer = tracing.Tracer() if trace else None
    saved = tracing.install(tracer, modules) if tracer else []
    # outermost, so its cost stays out of the detector spans
    capture = W.IterationCapture()
    saved.append((h, "run_detector", h.run_detector))
    h.run_detector = capture.wrap(h.run_detector)
    entry = W.entry_point(h, wl)
    if tracer:
        entry = tracer.wrap(entry)

    walls = {item.kind: [] for item in wl.items}
    stats = {}
    problems = []
    attempted = failed = 0
    totals = {"harness.frames": 0, "harness.frame_errors": 0, "harness.bit_errors": 0}
    round_walls = []
    start = perf_counter()
    try:
        while True:
            r0 = perf_counter()
            for kind, pidx in W.point_schedule(wl, len(round_walls)):
                key = W.point_key(kind, pidx)
                attempted += 1
                if tracer:
                    tracer.unit = (kind, pidx)
                try:
                    t0 = perf_counter()
                    got, bad = W.run_point(entry, cfg, wl, kind, pidx, capture)
                    walls[kind].append(perf_counter() - t0)
                except Exception:
                    failed += 1
                    problems.append(f"{key}: raised\n{traceback.format_exc()}")
                    continue
                totals["harness.frames"] += got.get("frames", 0)
                totals["harness.frame_errors"] += got.get("frame_errors", 0)
                totals["harness.bit_errors"] += got.get("bit_errors", 0)
                if key in stats and stats[key] != got:
                    bad.append("statistics differ from an earlier run of this point")
                if reference is not None and reference.get(key) != got:
                    bad.append("statistics differ from the stored reference")
                stats.setdefault(key, got)
                if bad:
                    failed += 1
                    problems.extend(f"{key}: {b}" for b in bad)
            round_walls.append(perf_counter() - r0)
            if rounds is not None:
                if len(round_walls) >= rounds:
                    break
            # start another round only if at least half of it fits
            elif perf_counter() - start + 0.5 * statistics.median(round_walls) >= seconds:
                break
    finally:
        tracing.restore(saved)
    return {
        "cfg": cfg,
        "walls": walls,
        "stats": stats,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "totals": totals,
        "rounds": len(round_walls),
        "round_walls": round_walls,
        "tracer": tracer,
    }


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def item_rates(wl, walls):
    """Median units per second of each item, from its per-point walls."""
    out = {}
    for kind, ws in walls.items():
        if ws:
            rates = [wl.frames / w for w in ws]
            lo, hi = quartiles(rates)
            out[f"{W.RATE_PREFIX[wl.mode]}.{kind}"] = {
                "value": statistics.median(rates),
                "p25": lo,
                "p75": hi,
                "n": len(rates),
            }
    return out


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check_names(spec_list, values):
    names = [m["name"] for m in spec_list]
    if sorted(names) != sorted(values):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    units = {m["name"]: m["unit"] for m in spec_list}
    return {n: {"value": values[n], "unit": units[n]} for n in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = W.WORKLOADS[args.workload]

    modules, cfg = setup(wl, args.seed)
    setup_times = [perf_counter() - START]
    if args.setup_only:
        print(setup_times[0])
        return 0

    setup_times += child_setups(wl)
    spec = load_spec()
    reference = None
    if args.seed == W.DEFAULT_SEED:
        with open(REFERENCE) as fh:
            reference = json.load(fh)["workloads"][wl.name]
    log(f"[{wl.name}] set-up {statistics.median(setup_times):.3f} s; measuring")
    res = run_workload(wl, modules, cfg, args.seconds, args.trace, reference)
    env = environment.record()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rates = item_rates(wl, res["walls"])

    for p in res["problems"]:
        log(f"[{wl.name}] FAILED {p}")
    print(f"workload {wl.name}: seed {args.seed}, {res['rounds']} rounds, "
          f"{res['attempted']} points of {wl.frames} {wl.unit} each")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, r in rates.items():
        print(f"{name} = {r['value']:.6g} 1/s (median of {r['n']} points; "
              f"quartiles {r['p25']:.6g} .. {r['p75']:.6g})")
    failed_frac = res["failed"] / res["attempted"]
    print(f"failed_frac = {failed_frac:.6g} ({res['failed']} of {res['attempted']})")
    round0 = {W.point_key(k, p): res["stats"].get(W.point_key(k, p))
              for k, p in W.point_schedule(wl, 0)}
    print(f"stats digest: round0 {W.digest(round0)}, "
          f"all {len(res['stats'])} points {W.digest(res['stats'])}"
          + ("" if reference is not None else " (no stored reference for this seed)"))

    if args.trace:
        values = tracing.layer_metrics(res["tracer"].spans, res["rounds"], wl.frames)
        values.update(res["totals"])
        metrics = check_names(spec["per_layer"], values)
        trace_report = report_trace(wl, args.seed, res, values)
        print("\n".join(trace_report))
    else:
        gated = rates.get(f"{W.RATE_PREFIX[wl.mode]}.{wl.gated}")
        values = {
            # an item with no successful point has no rate; the run then fails
            "units_per_s": gated["value"] if gated else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        metrics = check_names(spec["end_to_end"], values)
        trace_report = None
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    RESULTS.mkdir(exist_ok=True)
    out = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "rounds": res["rounds"],
        "round_walls": res["round_walls"],
        "setup_walls": setup_times,
        "item_rates": rates,
        "metrics": metrics,
        "failed": res["failed"],
        "attempted": res["attempted"],
        "problems": res["problems"],
        "stats": res["stats"],
        "trace_report": trace_report,
    }
    with open(RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def report_trace(wl, seed, res, values):
    """Write the spans; return report lines on coverage and the tracer's own
    overhead."""
    tracer = res["tracer"]
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{wl.name}-seed{seed}.spans.jsonl")
    points = [s for s in tracer.spans if s["parent"] is None]
    wall = sum(s["t1"] - s["t0"] for s in points)
    top = {}
    for s in tracer.spans:
        if s["parent"] is not None and tracer.spans[s["parent"]]["parent"] is None:
            top[s["name"]] = top.get(s["name"], 0.0) + s["t1"] - s["t0"]
    split = ", ".join(f"{k} {v / res['rounds']:.4g}" for k, v in sorted(top.items()))
    lines = [
        f"per round: point wall {wall / res['rounds']:.6g} s = harness.self_s "
        f"{values['harness.self_s']:.4g} + {split}",
        f"trace overhead: tracer's own time {tracer.own_s:.4g} s = "
        f"{100 * tracer.own_s / wall:.3g}% of traced point wall",
    ]
    untraced = RESULTS / f"{wl.name}-seed{seed}-trace0.json"
    if untraced.is_file():
        with open(untraced) as fh:
            base = json.load(fh)["item_rates"]
        traced = item_rates(wl, res["walls"])
        for name, r in traced.items():
            if name in base:
                # includes run-to-run noise, unlike the tracer's own time
                lines.append(
                    f"traced vs untraced run of this seed: {name} time per point "
                    f"{100 * (base[name]['value'] / r['value'] - 1):+.3g}%"
                )
    return lines


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        log(f"error: {exc}")
        sys.exit(2)
