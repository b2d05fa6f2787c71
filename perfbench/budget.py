"""Upper bound on the wall time of the ``paper`` acceptance gate (criteria 10-15).

    python3 perfbench/budget.py [--seed N]

Reads the newest untraced results of every workload from
``perfbench/results/`` and multiplies each criterion's frame and trace caps
(``max_frames``, ``sinr_frames``, ``evolve_chans``, as set in
``tests/test_acceptance.py``) by the measured seconds per frame or trace, at
one worker. Report only: nothing is gated on it.

Every BER point is charged its full ``max_frames`` (as if the 500-error stop
never fired), every SINR frame the cost of a full 10-iteration BER frame,
and 12-iteration frames 1.2 times that. MRC-family rates come from
the four estimated-CSI workloads (the dearer case), ``soft_sicmmse`` from
``ber_soft`` (perfect CSI). The one exception to the bound: criterion 13's
estimated-CSI ``soft_sicmmse`` frames are charged at the perfect-CSI rate,
though they cost somewhat more.
"""

import argparse
import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"
SOURCES = ("ber_mrc_est", "ber_mrc_sd_est", "ber_hard_est", "ber_ssmi_est", "ber_soft", "evolve")

# criterion -> (what, [(detector, frames, n_ite)], [(evolution kind, traces)])
CRITERIA = {
    10: (
        "SINR agreement, 7 cases x 100 frames",
        [("mrc", 300, 5), ("hard_sicmmse", 300, 5), ("soft_sicmmse", 100, 5)],
        [],
    ),
    11: (
        "SINR upper bound, 3 detectors x 6 SNRs x 32 frames",
        [(k, 6 * 32, 8) for k in ("mrc", "hard_sicmmse", "soft_sicmmse")],
        [],
    ),
    12: (
        "perfect-CSI thresholds, 3 SNRs x 40k frames, mrc floor 60k",
        [(k, 3 * 40_000, 10) for k in ("soft_sicmmse", "ssmi_mrc", "hard_sicmmse", "mrc_sd")]
        + [("mrc", 60_000, 10)],
        [],
    ),
    13: (
        "estimated-CSI thresholds, 5 detectors x 3 SNRs x 10k frames",
        [(k, 3 * 10_000, 10) for k in ("mrc", "mrc_sd", "hard_sicmmse", "ssmi_mrc", "soft_sicmmse")],
        [],
    ),
    14: (
        "convergence profile, 2 SNRs x 300 frames at n_ite 12",
        [(k, 2 * 300, 12) for k in ("mrc", "mrc_sd", "hard_sicmmse", "soft_sicmmse")],
        [],
    ),
    15: (
        "state evolution vs Monte Carlo, 7 SNRs x 6 channels, 4k-frame points",
        [("hard_sicmmse", 3 * 7 * 4000, 10), ("soft_sicmmse", 7 * 4000, 10), ("mrc", 60_000, 10)],
        [("mrc_hard", 3 * 7 * 6 + 1), ("soft", 7 * 6)],
    ),
}


def newest(workload, seed):
    pattern = f"{workload}-seed{'*' if seed is None else seed}-trace0.json"
    found = sorted(RESULTS.glob(pattern), key=lambda p: p.stat().st_mtime)
    if not found:
        raise SystemExit(
            f"no untraced {workload} result; run: python3 perfbench/run.py "
            f"--workload {workload} --seed 1 --seconds 10 --trace 0"
        )
    with open(found[-1]) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description="paper-gate wall-time bound")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    rates = {}
    for wl in SOURCES:
        for name, r in newest(wl, args.seed)["item_rates"].items():
            rates[name.split(".", 1)[1]] = r["value"]

    total = 0.0
    for crit, (what, frames, traces) in CRITERIA.items():
        secs = sum(n * max(1.0, ite / 10) / rates[k] for k, n, ite in frames)
        secs += sum(n / rates[k] for k, n in traces)
        total += secs
        parts = [f"{k} {n}" for k, n, _ in frames] + [f"{k} traces {n}" for k, n in traces]
        print(f"criterion {crit}: <= {secs / 3600:.4g} h ({what}; {', '.join(parts)})")
    print(f"paper gate: <= {total / 3600:.4g} h at one worker")
    return 0


if __name__ == "__main__":
    sys.exit(main())
