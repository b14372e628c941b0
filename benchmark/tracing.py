"""In-memory spans around liftervc's layer boundaries, recorded from outside
the package.

`Tracer.install()` replaces each traced function at every name a liftervc
module (or the package namespace) binds it under, and each traced method on
its class, with a wrapper that records a span and, for some layers, a work
count. `uninstall()` puts the originals back, so traced and untraced rounds
can alternate in one process. Nothing under src/ is edited.

A span is [name, start_ns, end_ns, parent_index, run_id]; the parent is the
innermost span open when it started. A layer's self time is its span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict


def _rows(arr) -> int:
    return int(arr.shape[0]) if getattr(arr, "ndim", 1) > 1 else 1


# Work counts taken at a layer boundary from its positional arguments and
# result.
def _stft_frames(args, result):
    return {"spectral.stft_frames": result.shape[0]}


def _forward_frames(args, result):
    return {"model.forward_frames": _rows(args[1])}


def _ola_mmac(args, result):
    wave, filters = args[0], args[1]
    return {"spectral.ola_filter_mmac": filters.shape[-1] * len(wave) / 1e6}


def _chain_frames(args, result):
    return {"chain.frames": _rows(args[0])}


def _dtw_cells(args, result):
    return {"align.dtw_cells": len(args[0]) * len(args[1])}


def _npz_bytes(args, result):
    return {"dataset.npz_bytes": os.path.getsize(args[1])}


# (module, attribute, span name, counter). "Class.method" attributes are
# patched on the class; plain functions at every module binding.
TRACED = (
    ("liftervc.wavio", "wav_read", "wavio.wav_read", None),
    ("liftervc.wavio", "wav_write", "wavio.wav_write", None),
    ("liftervc.spectral", "stft", "spectral.stft", _stft_frames),
    ("liftervc.spectral", "ola_filter", "spectral.ola_filter", _ola_mmac),
    ("liftervc.cepstral", "real_cepstrum", "cepstral.real_cepstrum", None),
    ("liftervc.model", "AcousticModel.forward", "model.forward", _forward_frames),
    ("liftervc.model", "AcousticModel.backward", "model.backward", None),
    ("liftervc.model", "Adam.step", "model.adam_step", None),
    ("liftervc.model", "save_model", "model.save_model", None),
    ("liftervc.model", "load_model", "model.load_model", None),
    ("liftervc.filters", "conversion_filters", "filters.conversion_filters", None),
    ("liftervc.filters", "design_filter", "filters.design_filter", None),
    ("liftervc.chain", "chain_forward", "chain.chain_forward", _chain_frames),
    ("liftervc.chain", "chain_backward", "chain.chain_backward", None),
    ("liftervc.align", "dtw_align", "align.dtw_align", _dtw_cells),
    ("liftervc.align", "trim_silence", "align.trim_silence", None),
    ("liftervc.dataset", "build_dataset", "dataset.build_dataset", None),
    ("liftervc.dataset", "TrainingSet.save", "dataset.save", _npz_bytes),
    ("liftervc.dataset", "TrainingSet.load", "dataset.load", None),
    ("liftervc.training", "pretrain_conventional", "training.pretrain", None),
    ("liftervc.training", "train_lifter", "training.train_lifter", None),
    ("liftervc.runtime", "convert", "runtime.convert", None),
    ("liftervc.runtime", "eval_rmse", "runtime.eval_rmse", None),
    ("liftervc.runtime", "cumulative_power", "runtime.cumulative_power", None),
)


class Tracer:
    """Span and count recorder; one instance per benchmark process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.run_id = -1
        self._stack = []
        self._restore = []

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[(self.run_id, key)] += value
            return result
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "liftervc" or n.startswith("liftervc.")]
        for mod_name, attr, name, counter in TRACED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, name, counter))
                else:
                    patched = self.wrap(raw, name, counter)
                setattr(cls, meth, patched)
                self._restore.append((cls, meth, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore = []

    # -- analysis ----------------------------------------------------------

    def self_times(self, run_id: int) -> dict:
        """Summed self time in seconds per span name for one run."""
        child = defaultdict(int)
        for name, start, end, parent, run in self.spans:
            if run == run_id and parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent, run) in enumerate(self.spans):
            if run == run_id:
                out[name] += (end - start - child[idx]) / 1e9
        return dict(out)

    def covered_s(self, run_id: int, op_prefix: str = "op.") -> float:
        """Seconds inside outermost layer spans: those opened directly by a
        benchmark operation span (named op_prefix...) or by no span."""
        ops = {idx for idx, s in enumerate(self.spans)
               if s[4] == run_id and s[0].startswith(op_prefix)}
        ops.add(-1)
        return sum(end - start for idx, (name, start, end, parent, run)
                   in enumerate(self.spans)
                   if run == run_id and parent in ops and idx not in ops) / 1e9

    def counts_for(self, run_id: int) -> dict:
        return {key: v for (run, key), v in self.counts.items() if run == run_id}

    def to_json(self) -> dict:
        return {"fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
                "spans": self.spans,
                "counts": [[run, key, v] for (run, key), v in self.counts.items()]}
