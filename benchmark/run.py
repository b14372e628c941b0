#!/usr/bin/env python3
"""liftervc benchmark: one workload, one process, closed loop.

    python3 benchmark/run.py --workload convert-16k --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed (set-up is repeated through the
run and its median reported), runs one untimed warm-up round, then repeats
whole rounds, one operation starting when the previous one ends, until
--seconds of rounds have been measured. Every output of every round is checked against an
independent computation, outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics: self times and work counts
from the traced rounds, stage throughputs from the untraced ones, the
tracing overhead and the share of round time the layer spans cover.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A run record (seed, machine, versions, BLAS,
per-round figures, and in traced runs every span) is written to
.bench_out/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# One BLAS thread: the benchmark is one caller, and a second thread on a
# two-core machine mostly adds scheduling noise to the small matrix products.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("convert-16k", "convert-48k-subband", "train-16k-l32")

# Per-layer self-time metrics and the span each sums.
LAYER_SPANS = {
    "wavio.wav_read_s": "wavio.wav_read",
    "wavio.wav_write_s": "wavio.wav_write",
    "spectral.stft_s": "spectral.stft",
    "cepstral.real_cepstrum_s": "cepstral.real_cepstrum",
    "model.forward_s": "model.forward",
    "model.backward_s": "model.backward",
    "model.adam_step_s": "model.adam_step",
    "model.file_io_s": ("model.save_model", "model.load_model"),
    "filters.conversion_filters_s": "filters.conversion_filters",
    "filters.design_filter_s": "filters.design_filter",
    "spectral.ola_filter_s": "spectral.ola_filter",
    "chain.chain_forward_s": "chain.chain_forward",
    "chain.chain_backward_s": "chain.chain_backward",
    "align.dtw_align_s": "align.dtw_align",
    "align.trim_silence_s": "align.trim_silence",
    "dataset.build_dataset_self_s": "dataset.build_dataset",
    "dataset.save_s": "dataset.save",
    "dataset.load_s": "dataset.load",
    "training.pretrain_self_s": "training.pretrain",
    "training.train_lifter_self_s": "training.train_lifter",
    "runtime.convert_self_s": "runtime.convert",
    "runtime.eval_rmse_self_s": "runtime.eval_rmse",
    "runtime.cumulative_power_self_s": "runtime.cumulative_power",
}
LAYER_COUNTS = {
    "spectral.stft_frames": "count",
    "model.forward_frames": "count",
    "spectral.ola_filter_mmac": "Mmac",
    "chain.frames": "count",
    "align.dtw_cells": "count",
    "dataset.npz_bytes": "bytes",
}
# Stage throughputs: metric -> (work key, seconds key).
STAGES = {
    "stage.prep_frames_per_s": ("prep_frames", "prep"),
    "stage.pretrain_frames_per_s": ("pretrain_frames", "pretrain"),
    "stage.finetune_frames_per_s": ("finetune_frames", "finetune"),
    "stage.eval_frames_per_s": ("eval_frames", "eval"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def blas_threads():
    """OpenBLAS's own thread count when numpy bundles it, else None."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def median(values):
    return statistics.median(values) if values else 0.0


def rate(rounds, work_key: str, seconds_key: str) -> float:
    """Work done per second of the operations that did it, over all rounds:
    the run's throughput. Unlike a median of per-round rates it does not
    jump when the shared machine flips between a fast and a slow state."""
    seconds = sum(r.seconds.get(seconds_key, 0.0) for r in rounds)
    return sum(r.work.get(work_key, 0.0) for r in rounds) / seconds if seconds else 0.0


def mean_wall(rounds) -> float:
    return sum(r.wall for r in rounds) / len(rounds)


def end_to_end(rounds, setup_times) -> dict:
    return {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "convert_l32_audio_s_per_s": (rate(rounds, "l32_audio_s", "l32"), "s/s"),
        "convert_full_audio_s_per_s": (rate(rounds, "full_audio_s", "full"), "s/s"),
        "round_s": (mean_wall(rounds), "s"),
    }


def per_layer(plain, traced, tracer) -> dict:
    out = {}
    self_times = [tracer.self_times(r.run_id) for r in traced]
    for metric, spans in LAYER_SPANS.items():
        spans = (spans,) if isinstance(spans, str) else spans
        out[metric] = (median([sum(st.get(s, 0.0) for s in spans)
                               for st in self_times]), "s")
    counts = [tracer.counts_for(r.run_id) for r in traced]
    for metric, unit in LAYER_COUNTS.items():
        out[metric] = (median([c.get(metric, 0.0) for c in counts]), unit)
    for metric, (work_key, seconds_key) in STAGES.items():
        out[metric] = (rate(plain, work_key, seconds_key), "1/s")
    rmse = [r.notes["test_rmse_l32"] for r in plain if "test_rmse_l32" in r.notes]
    out["training.test_rmse_l32"] = (median(rmse), "1")
    out["trace.overhead_pct"] = (100.0 * (mean_wall(traced) / mean_wall(plain) - 1.0), "%")
    out["trace.coverage_pct"] = (median([100.0 * tracer.covered_s(r.run_id) / r.wall
                                         for r in traced]), "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "liftervc" / "__init__.py").is_file():
        print(f"error: no liftervc sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(SRC))

    import liftervc
    if Path(liftervc.__file__).resolve().parent != SRC / "liftervc":
        print(f"error: imported liftervc from {liftervc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from reference import CheckError
    from tracing import Tracer
    from workloads import WORKLOADS, Round

    record = run_record(args, nproc)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    errors = []

    def checked(check, *args) -> None:
        try:
            check(*args)
        except CheckError as exc:
            errors.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)

    def timed_setup() -> None:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        workload.setup(args.seed, work)
        setup_times.append(time.perf_counter() - t0)

    try:
        workload = WORKLOADS[args.workload]()
        setup_times = []
        timed_setup()
        checked(workload.prepare_checks)
        warm = Round()
        workload.run_round(warm)
        checked(workload.check, warm)
        warm.outputs = {}

        tracer = Tracer() if args.trace else None
        rounds = []
        measured = 0.0
        loop_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rnd = Round(tracer if traced else None)
            rnd.run_id = len(rounds)
            if traced:
                tracer.run_id = rnd.run_id
                tracer.install()
            t0 = time.perf_counter()
            try:
                workload.run_round(rnd)
            finally:
                rnd.wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            checked(workload.check, rnd)
            rnd.outputs = {}
            rounds.append(rnd)
            measured += rnd.wall
            # Set-up is repeated at even steps through the run, so its
            # median, like the throughputs, spans the machine's slow drifts.
            # The inputs it rebuilds are identical.
            if (len(setup_times) < SETUP_REPEATS
                    and measured >= len(setup_times) * args.seconds / SETUP_REPEATS):
                timed_setup()
            # Whole rounds only, and in traced runs whole untraced/traced
            # pairs; the wall-clock guard bounds runs slowed by checking.
            done = (measured >= args.seconds
                    or time.perf_counter() - loop_start >= 2 * args.seconds)
            if done and (not args.trace or len(rounds) % 2 == 0):
                break

        while len(setup_times) < SETUP_REPEATS:
            timed_setup()
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        if args.trace:
            metrics = per_layer(rounds[0::2], rounds[1::2], tracer)
        else:
            metrics = end_to_end(rounds, setup_times)
        record.update({
            "describe": workload.describe(), "setup_times_s": setup_times,
            "rounds": [{"wall_s": r.wall, "traced": r.tracer is not None,
                        "seconds": dict(r.seconds), "work": dict(r.work),
                        "op_times_s": r.op_times,
                        "attempted": r.attempted, "failed": r.failed,
                        "notes": r.notes} for r in rounds],
            "attempted": attempted, "failed": failed, "check_errors": errors,
        })
        print("record: " + json.dumps({k: record[k] for k in (
            "workload", "seed", "nproc", "cpu", "python", "numpy", "blas",
            "blas_threads", "attempted", "failed")}))
        print("notes: " + json.dumps(rounds[-1].notes))
        out_dir.mkdir(exist_ok=True)
        doc = dict(record, metrics={k: v for k, (v, _) in metrics.items()})
        if tracer is not None:
            doc["trace"] = tracer.to_json()
        (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(doc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
