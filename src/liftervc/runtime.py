"""End-to-end conversion, evaluation, and diagnostics."""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cepstral import Lifter, real_cepstrum
from .chain import chain_forward
from .config import AnalysisConfig, SubbandGate
from .dataset import TrainingSet
from .filters import conversion_filters
from .model import AcousticModel
from .spectral import Waveform, frame_count, ola_filter, stft
from .wavio import write_csv

log = logging.getLogger(__name__)
BLOCK_FRAMES = 128  # most frames per block: convert, frame_losses, cumpow
BLOCK_VALUES = 2**16  # most fft_len-point spectrum values per block


def block_frames(cfg: AnalysisConfig) -> int:
    """Frames per block: BLOCK_FRAMES, or fewer where fft_len is large, so
    that frames times fft_len stays within BLOCK_VALUES (128 frames up to
    fft_len 512, 32 at 2,048), and at least one."""
    return max(1, min(BLOCK_FRAMES, BLOCK_VALUES // cfg.fft_len))


def map_blocks(fn, n_frames: int, cfg: AnalysisConfig):
    """fn(start, stop) over the block_frames(cfg)-frame blocks of n_frames
    frames, on one thread per CPU the process may use; yields the results
    in block order. The blocks do not depend on the thread count."""
    size = block_frames(cfg)
    starts = range(0, n_frames, size)
    stops = [min(start + size, n_frames) for start in starts]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # no affinity call on macOS or Windows
    workers = min(cpus, len(starts))
    if workers < 2:
        yield from map(fn, starts, stops)
    else:
        with ThreadPoolExecutor(workers) as pool:
            yield from pool.map(fn, starts, stops)


def convert(wave: Waveform, model: AcousticModel, taps: int | None = None,
            gate: SubbandGate | None = None) -> Waveform:
    """Convert a source waveform with per-frame truncated differential filters.

    Per frame: analyze, estimate the differential cepstrum, design the
    filter with the model's lifter, gating the spectrum by `gate` (None:
    the model's own gate), truncate to `taps` (None: full length), then
    overlap-add filter the waveform. map_blocks takes these steps per block;
    the outputs are summed in frame order on the calling thread, so the
    result does not depend on the thread count. The output is clamped to
    [-1, 1]; clamped samples are counted and logged.
    """
    cfg = model.cfg
    if wave.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"sample rate {wave.sample_rate} does not match model ({cfg.sample_rate})")
    if taps is None:
        taps = cfg.fft_len
    if not 0 < taps <= cfg.fft_len:  # before the accumulator is sized by it
        raise ValueError(f"truncation length must be in 1..{cfg.fft_len}")
    if gate is None:
        gate = model.subband
    n_frames = frame_count(len(wave), cfg.hop)
    folded = model.fold()

    def block(start: int, stop: int):
        cep_d = model.forward(real_cepstrum(stft(wave, cfg, start, stop), cfg),
                              folded=folded)
        filters, delay = conversion_filters(cep_d, model.lifter.coeffs, cfg,
                                            taps, gate=gate)
        span = ola_filter(wave.samples[start * cfg.hop:stop * cfg.hop],
                          filters, cfg)
        return start * cfg.hop, span, delay

    acc = np.zeros(n_frames * cfg.hop + taps - 1)
    for at, span, delay in map_blocks(block, n_frames, cfg):
        acc[at:at + span.size] += span
    samples = acc[delay:delay + len(wave)]
    clipped = np.count_nonzero(samples > 1.0) + np.count_nonzero(samples < -1.0)
    if clipped:
        log.warning("clamped %d of %d output samples to [-1, 1]",
                    clipped, samples.size)
        np.clip(samples, -1.0, 1.0, out=samples)
    return Waveform(samples, wave.sample_rate)


def frame_losses(model: AcousticModel, data: TrainingSet,
                 taps: int | None = None) -> np.ndarray:
    """Per-frame squared cepstral error of a model over a dataset, in
    inference mode.

    With taps, the target estimate is what the truncated filter, gated by
    the model's gate, produces, scored through the chain; without, it is the
    conventional additive estimate (source plus predicted differential).
    """
    folded = model.fold()

    def block(start: int, stop: int):
        x, tgt = data.src_cep[start:stop], data.tgt_cep[start:stop]
        cep_d = model.forward(x, folded=folded)
        if taps is None:
            err = x + cep_d - tgt
            return (err * err).sum(axis=1)
        return chain_forward(cep_d, model.lifter.coeffs,
                             data.spectra(slice(start, stop)), tgt, taps,
                             model.cfg, gate=model.subband).frame_losses

    return np.concatenate(list(map_blocks(block, len(data), model.cfg)))


@dataclass
class MetricsReport:
    """Cepstral conversion error of a model over an evaluation set."""

    rmse: float
    per_utterance: np.ndarray
    n_frames: int

    def to_csv(self, path) -> None:
        write_csv(path, "utterance,rmse",
                  [*enumerate(self.per_utterance), ("all", self.rmse)])


def eval_rmse(model: AcousticModel, data: TrainingSet,
              taps: int) -> MetricsReport:
    """Root of the mean squared cepstral error through the truncation chain,
    with the model's gate, per utterance and pooled."""
    losses = frame_losses(model, data, taps)
    per_utt = np.array([
        np.sqrt(losses[data.offsets[u]:data.offsets[u + 1]].mean())
        for u in range(data.n_utterances)])
    return MetricsReport(rmse=float(np.sqrt(losses.mean())),
                         per_utterance=per_utt, n_frames=len(data))


def cumulative_power(model: AcousticModel, data: TrainingSet) -> np.ndarray:
    """Average normalized cumulative energy of the full-length differential
    filters the model designs, with its gate, for an evaluation set.

    Entry n is the mean over frames of sum(h[:n+1]**2) / sum(h**2), taps
    counted from the time origin (a gated filter's acausal lobe wraps to the
    end); the curve rises to 1. A fast rise means the filter survives
    truncation.
    """
    cfg = model.cfg
    folded = model.fold()

    def block(start: int, stop: int):
        cep_d = model.forward(data.src_cep[start:stop], folded=folded)
        filters, delay = conversion_filters(cep_d, model.lifter.coeffs, cfg,
                                            cfg.fft_len, model.subband)
        filters = np.roll(filters, -delay, axis=1)
        cum = np.cumsum(filters * filters, axis=1)
        return (cum / cum[:, -1:]).sum(axis=0)

    return sum(map_blocks(block, len(data), cfg)) / len(data)  # in frame order


def write_cumulative_power_csv(path, curve: np.ndarray) -> None:
    write_csv(path, "tap,cumulative_power", enumerate(curve))


def write_lifter_csv(path, model: AcousticModel) -> None:
    """The model's lifter beside the minimum-phase one training starts from."""
    reference = Lifter.minimum_phase(model.cfg).coeffs
    write_csv(path, "quefrency,trained,minimum_phase",
              zip(range(len(reference)), model.lifter.coeffs, reference))


def power_threshold_tap(curve: np.ndarray, fraction: float = 0.95) -> int:
    """First tap index at which the cumulative power reaches the fraction."""
    return int(np.argmax(curve >= fraction))
