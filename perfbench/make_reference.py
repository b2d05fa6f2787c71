"""Regenerate reference.json, the default-seed statistics of every point a
run can make (``ref_rounds`` rounds per workload).

    python3 perfbench/make_reference.py [workload ...]

Only run this when a change is meant to alter the simulated statistics.
"""

import json
import sys

import run
import workloads as W


def main(names):
    ref = {"seed": W.DEFAULT_SEED, "workloads": {}}
    if run.REFERENCE.is_file():
        with open(run.REFERENCE) as fh:
            ref = json.load(fh)
    for name in names or sorted(W.WORKLOADS):
        wl = W.WORKLOADS[name]
        modules, cfg = run.setup(wl, W.DEFAULT_SEED)
        res = run.run_workload(wl, modules, cfg, 0, 0, rounds=wl.ref_rounds)
        if res["problems"]:
            print("\n".join(res["problems"]), file=sys.stderr)
            return 1
        ref["workloads"][name] = res["stats"]
        print(f"{name}: {len(res['stats'])} points", file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
