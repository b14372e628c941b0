#!/usr/bin/env python3
"""Generate a small synthetic WAV corpus plus a ready-to-run config.json.

The corpus consists of source/target utterance pairs where the target is the
source passed through a fixed spectral-differential filter, so a trained
system has an exact answer to find. Intended as input for the `liftervc`
command-line walkthrough in the README.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from liftervc import make_corpus


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="demo_corpus")
    ap.add_argument("--n-train", type=int, default=12)
    ap.add_argument("--n-val", type=int, default=4)
    ap.add_argument("--n-test", type=int, default=4)
    ap.add_argument("--duration", type=float, default=2.0,
                    help="seconds per utterance")
    ap.add_argument("--epochs", type=int, default=40,
                    help="pretraining epochs written into the config")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    out = Path(args.out)
    try:
        run = make_corpus(out, n_train=args.n_train, n_val=args.n_val,
                          n_test=args.n_test, duration_s=args.duration,
                          seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run.train = dataclasses.replace(run.train, epochs=args.epochs)
    run.to_json(out / "config.json")
    n = sum(len(pairs) for pairs in run.data.values())
    print(f"wrote {2 * n} WAV files and {out / 'config.json'}")
    print(f"next: liftervc prep --config {out / 'config.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
