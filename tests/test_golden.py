"""Golden desk-preset CSVs: every sweep mode's output, byte for byte.

The files under tests/golden/ were written by this module's configurations.
A change that is meant to keep results bit-identical (a faster schedule, a
refactor) must leave them unchanged; a change that is meant to move results
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from oddmsim import harness as h
from oddmsim.detectors import KINDS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# a fixed frame count: min_frame_errors above max_frames never stops a point early
_FIXED_FRAMES = dict(max_frames=3, min_frame_errors=4)

# file name -> (sweep mode, desk-preset overrides)
GOLDEN = {
    "ber_perfect_csi.csv": (
        "ber",
        dict(snr_db=(10.0, 13.0), detectors=KINDS, pilot_mode="perfect_csi", **_FIXED_FRAMES),
    ),
    "ber_estimated.csv": (
        "ber",
        dict(
            snr_db=(10.0, 13.0),
            detectors=KINDS,
            pilot_mode="estimated",
            snr_pilot_db=40.0,
            **_FIXED_FRAMES,
        ),
    ),
    "sinr.csv": (
        "sinr",
        dict(
            snr_db=(10.0, 14.0),
            detectors=("mrc", "hard_sicmmse", "soft_sicmmse"),
            n_ite=10,
            sinr_frames=3,
        ),
    ),
    "evolve.csv": (
        "evolve",
        dict(snr_db=(10.0,), detectors=("mrc", "soft_sicmmse"), evolve_chans=2),
    ),
    "est_stats.csv": (
        "est-stats",
        dict(snr_db=(10.0, 14.0), snr_pilot_db=40.0, est_trials=50),
    ),
}


def render(name: str) -> str:
    mode, overrides = GOLDEN[name]
    return h.run_sweep(h.desk_preset(**overrides), mode)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_matches_golden_csv(name):
    expected = (GOLDEN_DIR / name).read_text()
    assert render(name) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for fname in sys.argv[1:] or sorted(GOLDEN):
        (GOLDEN_DIR / fname).write_text(render(fname))
        print(f"wrote {GOLDEN_DIR / fname}")
