"""Command-line entry points.

Subcommands cover the full workflow: `prep` aligns WAV pairs into frame
datasets, `pretrain` fits the acoustic model conventionally, `train-lifter`
fine-tunes model and lifter through the truncation chain, `convert` runs
voice conversion on a WAV file, `eval` reports cepstral RMSE, and `cumpow`
emits the cumulative-power diagnostic.

Every command exits 0 on success and 1 with a one-line stderr diagnostic on
failure, writing only under its declared output paths.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from .config import SPLITS, RunConfig
from .dataset import TrainingSet, build_dataset
from .model import AcousticModel, load_model, save_model
from .runtime import (convert, cumulative_power, eval_rmse, power_threshold_tap,
                      write_cumulative_power_csv, write_lifter_csv)
from .training import pretrain_conventional, train_lifter
from .wavio import wav_read, wav_write


def _split_path(run: RunConfig, split: str) -> Path:
    return Path(run.output_dir) / f"{split}.npz"


def _training_splits(run: RunConfig) -> tuple:
    """The prepared train set, and the val set or None if prep wrote none."""
    train, val = _split_path(run, "train"), _split_path(run, "val")
    if not train.exists():
        raise FileNotFoundError(f"{train} not found; run `liftervc prep` first")
    return (TrainingSet.load(train, run.analysis)[0],
            TrainingSet.load(val, run.analysis)[0] if val.exists() else None)


def _read_pairs_csv(path) -> list:
    pairs = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: expected `source,target` rows")
            pairs.append((row[0].strip(), row[1].strip()))
    if not pairs:
        raise ValueError(f"{path}: no pairs listed")
    return pairs


def _load_eval_data(path, model: AcousticModel) -> TrainingSet:
    """Evaluation material: either a prepared .npz dataset or a CSV of
    source,target WAV paths (aligned on the fly, no silence trimming)."""
    path = Path(path)
    if path.suffix == ".npz":
        data, _ = TrainingSet.load(path, model.cfg)
        return data
    pairs = [(wav_read(s), wav_read(t)) for s, t in _read_pairs_csv(path)]
    return build_dataset(pairs, model.cfg, trim_db=None)


def cmd_prep(args) -> int:
    run = RunConfig.from_json(args.config)
    if not any(run.data.values()):
        raise ValueError(f"{args.config}: no pairs listed under data")
    Path(run.output_dir).mkdir(parents=True, exist_ok=True)
    for split in SPLITS:
        pairs = run.data.get(split)
        if not pairs:
            continue
        # Test pairs are scored as eval scores a CSV of WAVs: untrimmed.
        trim = None if split == "test" else run.silence_threshold_db
        waves = [(wav_read(s), wav_read(t)) for s, t in pairs]
        data = build_dataset(waves, run.analysis, trim_db=trim)
        path = _split_path(run, split)
        data.save(path, run.analysis)
        print(f"{split}: {data.n_utterances} utterances, {len(data)} frames "
              f"-> {path}")
    return 0


def cmd_pretrain(args) -> int:
    run = RunConfig.from_json(args.config, check_paths=False)
    train_data, val_data = _training_splits(run)
    model = AcousticModel(run.analysis, seed=run.train.seed)
    log = pretrain_conventional(model, train_data, run.train, val_data)
    model.subband = run.subband
    save_model(model, run.model_file)
    log_path = Path(run.output_dir) / "pretrain_log.csv"
    log.to_csv(log_path)
    last = log.rows[-1]
    print(f"pretrained {run.train.epochs} epochs: train loss {last.train_loss:.6f}, "
          f"val loss {last.val_loss:.6f} -> {run.model_file} (log: {log_path})")
    return 0


def cmd_train_lifter(args) -> int:
    run = RunConfig.from_json(args.config, check_paths=False)
    if args.taps is not None:
        # replace() re-validates the taps against the analysis settings.
        run = dataclasses.replace(
            run, train=dataclasses.replace(run.train, taps=args.taps))
    taps = run.train.taps
    model = load_model(run.model_file, run.analysis)
    train_data, val_data = _training_splits(run)
    model.subband = run.subband
    log = train_lifter(model, train_data, run.train, val_data)

    out = Path(run.output_dir)
    model_path = Path(run.model_file).with_suffix(f".l{taps}.lvc")
    save_model(model, model_path)
    log_path = out / f"train_lifter_log_l{taps}.csv"
    log.to_csv(log_path)
    lifter_path = out / f"lifter_l{taps}.csv"
    write_lifter_csv(lifter_path, model)
    last = log.rows[-1]
    print(f"fine-tuned at {taps} taps: val rmse {last.rmse:.6f} -> {model_path} "
          f"(log: {log_path}, lifter: {lifter_path})")
    return 0


def cmd_convert(args) -> int:
    model = load_model(args.model)
    wave = wav_read(args.infile)
    out = convert(wave, model, taps=args.taps)
    wav_write(args.outfile, out)
    taps = args.taps if args.taps is not None else model.cfg.fft_len
    print(f"converted {args.infile} -> {args.outfile} "
          f"({taps} taps, {out.duration:.2f} s)")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    data = _load_eval_data(args.pairs, model)
    taps = args.taps if args.taps is not None else model.cfg.fft_len
    report = eval_rmse(model, data, taps)
    if args.out:
        report.to_csv(args.out)
    print(f"rmse {report.rmse!r} over {report.n_frames} frames "
          f"({len(report.per_utterance)} utterances, {taps} taps)")
    return 0


def cmd_cumpow(args) -> int:
    model = load_model(args.model)
    data = _load_eval_data(args.pairs, model)
    curve = cumulative_power(model, data)
    if args.out:
        write_cumulative_power_csv(args.out, curve)
    tap95 = power_threshold_tap(curve, 0.95)
    print(f"cumulative power reaches 0.95 at tap {tap95} "
          f"(0.99 at tap {power_threshold_tap(curve, 0.99)})"
          + (f"; curve -> {args.out}" if args.out else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftervc",
        description="Voice conversion by differential filtering with a "
                    "truncation-aware trainable lifter.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="align WAV pairs into frame datasets")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("pretrain", help="train the acoustic model conventionally")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-lifter",
                       help="fine-tune model and lifter through the truncation chain")
    p.add_argument("--config", required=True)
    p.add_argument("--taps", type=int, default=None,
                   help="truncation length (default: config value)")
    p.set_defaults(func=cmd_train_lifter)

    p = sub.add_parser("convert", help="convert a WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--taps", type=int, default=None)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("eval", help="cepstral RMSE over an evaluation set")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True,
                   help=".npz dataset from prep, or CSV of source,target WAVs")
    p.add_argument("--taps", type=int, default=None)
    p.add_argument("--out", default=None, help="per-utterance CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cumpow", help="cumulative power of designed filters")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", default=None, help="curve CSV")
    p.set_defaults(func=cmd_cumpow)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
