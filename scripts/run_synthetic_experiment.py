#!/usr/bin/env python3
"""Truncation experiment on the synthetic conversion task.

Pretrains the acoustic model at full filter length, then fine-tunes a copy
of it jointly with the lifter at each requested tap count and compares
against the fixed minimum-phase lifter. Writes the sweep table, training
logs, trained lifter shapes, and the cumulative-power diagnostic under the
output directory, and prints a summary.

Defaults reproduce the headline numbers in a few minutes on one CPU;
--quick runs a structurally identical toy sweep in seconds.
"""

import argparse
import logging
import sys
from pathlib import Path

from liftervc import cumulative_power, power_threshold_tap, run_tap_sweep
from liftervc.runtime import write_cumulative_power_csv, write_lifter_csv


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results/synthetic",
                    help="output directory (default: results/synthetic)")
    ap.add_argument("--taps", default="32,48,64,128",
                    help="comma-separated truncation lengths to sweep")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny corpus and few epochs, for a smoke run")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(name)s: %(message)s",
                        datefmt="%H:%M:%S")
    taps = tuple(int(v) for v in args.taps.split(",") if v)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    overrides = {}
    if args.quick:
        overrides = dict(n_train=6, n_val=2, duration_s=1.0,
                         pretrain_epochs=3, finetune_epochs=5)
    result = run_tap_sweep(taps=taps, seed=args.seed, **overrides)

    result.to_csv(out / "sweep.csv")
    result.pretrain_log.to_csv(out / "pretrain_log.csv")
    for l in taps:
        result.finetune_logs[l].to_csv(out / f"finetune_log_l{l}.csv")
        write_lifter_csv(out / f"lifter_l{l}.csv", result.tuned[l])

    curve = cumulative_power(result.pretrained, result.val_data)
    write_cumulative_power_csv(out / "cumulative_power.csv", curve)

    print()
    print(f"{'taps':>6} {'fixed rmse':>12} {'trained rmse':>13} {'gap':>10}")
    for l in taps:
        print(f"{l:>6} {result.fixed_rmse[l]:>12.5f} "
              f"{result.trained_rmse[l]:>13.5f} {result.gap(l):>10.5f}")
    print(f"{result.pretrained.cfg.fft_len:>6} {result.baseline_rmse:>12.5f} "
          f"{'(untruncated, minimum-phase lifter)':>25}")
    shortest = min(taps)
    ratio = result.trained_rmse[shortest] / result.baseline_rmse
    print(f"\ntrained rmse at {shortest} taps is {ratio:.3f}x the "
          f"untruncated baseline")
    print(f"designed-filter power reaches 0.95 at tap "
          f"{power_threshold_tap(curve, 0.95)}, "
          f"0.99 at tap {power_threshold_tap(curve, 0.99)}")
    print(f"\nartifacts -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
