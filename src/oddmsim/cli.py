"""Command-line entry point.

Subcommands: ber (Monte-Carlo BER sweep), sinr (per-iteration simulated vs
theoretical SINR), evolve (state-evolution traces), est-stats (channel
estimation error statistics). Output is CSV on stdout or at --out.
"""

import argparse
import os
import sys
from dataclasses import replace

from .harness import PRESETS, SWEEP_MODES, check_sweep, load_config, run_sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddmsim",
        description="Delay-Doppler multicarrier link simulator",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (text, _, _) in SWEEP_MODES.items():
        p = sub.add_parser(mode, help=text)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            default="desk",
            help="base parameter set (default desk)",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = PRESETS[args.preset]()
        if args.config:
            cfg = load_config(args.config, cfg)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        check_sweep(cfg, args.mode, cfg.detectors)
        if not cfg.snr_db:
            raise ValueError("configuration has an empty snr_db grid")
        if not cfg.detectors and args.mode != "est-stats":
            raise ValueError(f"{args.mode} mode needs at least one detector")
        out = open(args.out, "w") if args.out else sys.stdout
    except (ValueError, OSError) as exc:
        # a bad, unreadable or unrunnable configuration, checked before --out
        # is opened, or an --out open() refuses: one usage and error line, exit 2
        parser.error(str(exc))

    try:
        run_sweep(cfg, args.mode, out=out)
    except BrokenPipeError:
        # the reader left (| head): keep the flush at exit quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
