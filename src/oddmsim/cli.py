"""Command-line entry point.

Subcommands: ber (Monte-Carlo BER sweep), sinr (per-iteration simulated vs
theoretical SINR), evolve (state-evolution traces), est-stats (channel
estimation error statistics). Output is CSV on stdout or at --out.
"""

import argparse
import sys

from .harness import PRESETS, SWEEP_MODES, load_config, run_sweep


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
    args = build_parser().parse_args(argv)
    cfg = PRESETS[args.preset]()
    if args.config:
        cfg = load_config(args.config, cfg)
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    if not cfg.snr_db:
        print("configuration has an empty snr_db grid", file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w") as fh:
            run_sweep(cfg, args.mode, out=fh)
    else:
        run_sweep(cfg, args.mode, out=sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
