#!/usr/bin/env python3
"""Fingerprint every output of the CLI workflow on a fixed synthetic corpus,
and of the quick truncation sweep.

Runs prep, pretrain, then train-lifter, eval, cumpow and convert once
ungated and once with the sub-band gate in the run config (the tuned model
carries it to eval, cumpow and convert), then
`run_synthetic_experiment.py --quick`, all in a scratch directory, and
prints one `sha256  name` line per artifact: the samples of a fixed-seed
48 kHz `synth_source` and of both sides of a 1 s `make_pair` with edge
silence (the corpus is at 16 kHz, so these pin the full-band generator),
the run document that
`make_corpus` writes (with the scratch directory replaced by a fixed
placeholder, so the hash does not depend on it), dataset arrays (each
`.npz` array, among them the source waveform `src_wave` and the per-frame
`frame_start`, and the full-width `src_spec` that `TrainingSet` derives
from them, so its line compares with the `src_spec` array that datasets
stored before they held waveforms), model files
(two lines each: the config document and the parameter bytes), the
training logs (two lines each: the training loss, and the validation loss
with its rmse), eval, cumpow, sweep, lifter and
cumulative-power CSVs and converted WAVs. Running it at two commits and
diffing the printouts shows whether a change kept every output bit for bit:

    PYTHONPATH=src python scripts/output_fingerprint.py --work DIR > prints.txt

The corpus uses a small analysis geometry and the sweep its --quick sizes,
so the whole run takes seconds. BLAS rounds matrix products differently
with different thread counts, so the script sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy loads, whatever the
environment says: the hashes then depend on the code alone.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

from liftervc import AnalysisConfig, TrainingSet
from liftervc.cli import main as cli
from liftervc.config import SPLITS
from liftervc.model import MAGIC
from liftervc.synthetic import (default_differential, make_corpus, make_pair,
                                synth_source)

import run_synthetic_experiment

TAPS = 12
GATE = {"crossover_hz": 4000.0, "steepness_hz": 500.0}


def run(*argv) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        code = cli([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"liftervc {' '.join(map(str, argv))} failed")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def log_digests(out: dict, name: str, path: Path) -> None:
    """A training log as two lines, without its wall-clock column: the
    training loss, and the validation loss with its rmse. A change that only
    re-rounds validation scores changes only the second line."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for columns in (("epoch", "train_loss"), ("epoch", "val_loss", "rmse")):
        text = "\n".join(",".join(row[c] for c in columns) for row in rows)
        out[f"{name}:{','.join(columns[1:])}"] = digest(text.encode())


def model_digests(out: dict, name: str, path: Path) -> None:
    """A model file as two lines: its config document, parsed and dumped
    again with sorted keys, and the parameter bytes after it. A config key
    that comes or goes changes only the first line."""
    raw = path.read_bytes()
    start = len(MAGIC) + 8
    end = start + int.from_bytes(raw[start - 4:start], "little")
    doc = json.loads(raw[start:end])
    out[f"{name}:config"] = digest(json.dumps(doc, sort_keys=True).encode())
    out[f"{name}:params"] = digest(raw[end:])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", required=True, help="scratch directory")
    work = Path(ap.parse_args(argv).work)
    full = AnalysisConfig.for_rate(48000)
    out = {"synth_source@48k": digest(
        synth_source(full, 1.0, np.random.default_rng(21), 0.1).samples.tobytes())}
    pair = make_pair(full, default_differential(full), 1.0,
                     np.random.default_rng(21), 0.1)
    for side, wave in zip(("src", "tgt"), pair):
        out[f"make_pair@48k:{side}"] = digest(wave.samples.tobytes())

    cfg = AnalysisConfig(window_len=48, hop=16, fft_len=64, cep_dim=8)
    make_corpus(work, cfg=cfg, n_train=3, n_val=2, n_test=2, duration_s=0.4,
                seed=1, edge_silence_s=0.05)
    text = (work / "config.json").read_text()
    out["config.json"] = digest(
        text.replace(json.dumps(str(work))[:-1], '"WORK').encode())
    doc = json.loads(text)
    doc["train"].update(epochs=3, batch_size=128, pretrain_lr=1e-3,
                        finetune_lr=5e-4)
    config = work / "config.json"
    config.write_text(json.dumps(doc))
    run("prep", "--config", config)
    run("pretrain", "--config", config)

    for split in SPLITS:
        with np.load(work / f"{split}.npz") as data:
            arrays = {key: data[key] for key in data.files}
        arrays["src_spec"] = TrainingSet.load(work / f"{split}.npz")[0].src_spec
        for key in sorted(arrays):
            out[f"{split}.npz:{key}"] = digest(arrays[key].tobytes())
    model_digests(out, "model.lvc", work / "model.lvc")
    log_digests(out, "pretrain_log", work / "pretrain_log.csv")

    for name, gate in (("ungated", None), ("gated", GATE)):
        run_dir = work / name
        run_dir.mkdir(exist_ok=True)
        run_doc = dict(doc, output_dir=str(run_dir),
                       model_file=str(run_dir / "model.lvc"))
        if gate is not None:
            run_doc["subband"] = gate
        run_config = run_dir / "config.json"
        run_config.write_text(json.dumps(run_doc))
        for f in ("model.lvc", "train.npz", "val.npz"):
            (run_dir / f).write_bytes((work / f).read_bytes())
        run("train-lifter", "--config", run_config, "--taps", TAPS)
        tuned = run_dir / f"model.l{TAPS}.lvc"
        run("eval", "--model", tuned, "--pairs", work / "test.npz",
            "--taps", TAPS, "--out", run_dir / "eval.csv")
        run("cumpow", "--model", tuned, "--pairs", work / "test.npz",
            "--out", run_dir / "cumpow.csv")
        for taps in (TAPS, cfg.fft_len):
            run("convert", "--model", tuned, "--in", work / "test_000_src.wav",
                "--out", run_dir / f"out_{taps}.wav", "--taps", taps)
        model_digests(out, f"{name}/model.l{TAPS}.lvc", tuned)
        log_digests(out, f"{name}/train_lifter_log",
                    run_dir / f"train_lifter_log_l{TAPS}.csv")
        for f in (f"lifter_l{TAPS}.csv", "eval.csv", "cumpow.csv",
                  f"out_{TAPS}.wav", f"out_{cfg.fft_len}.wav"):
            out[f"{name}/{f}"] = digest((run_dir / f).read_bytes())

    sweep = work / "sweep"
    with contextlib.redirect_stdout(sys.stderr):
        run_synthetic_experiment.main(["--quick", "--out", str(sweep)])
    for path in sorted(sweep.glob("*.csv")):
        if "_log" in path.stem:
            log_digests(out, f"sweep/{path.stem}", path)
        else:
            out[f"sweep/{path.name}"] = digest(path.read_bytes())

    for name, value in out.items():
        print(f"{value}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
