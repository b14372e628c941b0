"""Windowed analysis and time-varying overlap-add FIR filtering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AnalysisConfig

# Filters of up to this many taps take the per-tap direct convolution, longer
# ones FFT blocks. Timed per 128-frame block on one CPU, the FFT path wins
# from about 13 taps on at hop 80 and about 23 at hop 240.
FFT_CONV_THRESHOLD = 16


@dataclass
class Waveform:
    """A mono waveform with its sample rate; samples are float64 in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform must be one-dimensional")
        if self.samples.size and not np.isfinite(self.samples).all():
            raise ValueError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def frame_count(n_samples: int, hop: int) -> int:
    """Number of analysis frames covering n_samples (> 0) at the given hop."""
    if n_samples == 0:
        raise ValueError("empty waveform")
    return -(-n_samples // hop)


def analysis_window(cfg: AnalysisConfig) -> np.ndarray:
    """The periodic Hann window of length cfg.window_len, the only window."""
    n = np.arange(cfg.window_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / cfg.window_len)


def stft(wave: Waveform, cfg: AnalysisConfig, start: int = 0,
         stop: int | None = None) -> np.ndarray:
    """Short-time Fourier transform, frames start..stop-1 (stop None: all).

    Frame t covers samples [t*hop, t*hop + window_len); frames are windowed,
    zero-padded to fft_len, and transformed. The signal tail is zero-padded
    so the final partial frame is still analyzed.

    Returns the half spectra, shape (stop - start, fft_len // 2 + 1): the
    input is real, so the bins above fft_len / 2 mirror those below.
    """
    if wave.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"sample rate {wave.sample_rate} does not match config {cfg.sample_rate}")
    n_frames = frame_count(len(wave), cfg.hop)
    stop = n_frames if stop is None else stop
    if not 0 <= start < stop <= n_frames:
        raise ValueError(f"frame range must lie in 0..{n_frames}")
    span = _span(wave.samples, start * cfg.hop,
                 (stop - 1) * cfg.hop + cfg.window_len)
    return windowed_spectra(span, cfg.hop * np.arange(stop - start), cfg)


def windowed_spectra(samples: np.ndarray, starts: np.ndarray,
                     cfg: AnalysisConfig) -> np.ndarray:
    """Half spectra, shape (len(starts), fft_len // 2 + 1), of the
    window_len-sample frames of samples that begin at the integer starts:
    each frame windowed, zero-padded to fft_len and transformed. stft and
    TrainingSet.spectra both frame through it."""
    frames = np.lib.stride_tricks.sliding_window_view(
        samples, cfg.window_len)[starts]
    frames *= analysis_window(cfg)
    return np.fft.rfft(frames, n=cfg.fft_len, axis=1)


def bin_weights(n: int) -> np.ndarray:
    """How many of the n DFT bins each of rfft's n // 2 + 1 bins stands for:
    1 for its own mirror image (DC, and Nyquist for even n), else 2."""
    return np.where(2 * np.arange(n // 2 + 1) % n == 0, 1.0, 2.0)


def _span(samples: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """samples[lo:hi], zero-padded at the end to hi - lo samples."""
    out = np.zeros(hi - lo)
    part = samples[lo:hi]
    out[:part.size] = part
    return out


def _ola_direct(seg: np.ndarray, filters: np.ndarray) -> np.ndarray:
    n_frames, hop = seg.shape
    taps = filters.shape[1]
    total = n_frames * hop
    acc = np.zeros(total + taps - 1)
    scaled = np.empty_like(seg)
    # Tap-major: for a fixed tap k, frame contributions land in disjoint
    # hop-length blocks, so one strided add covers all frames.
    for k in range(taps):
        np.multiply(seg, filters[:, k:k + 1], out=scaled)
        acc[k:k + total] += scaled.reshape(-1)
    return acc


def fast_len(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n (>= 1), where numpy's FFT is fast."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 = 3^b * 5^c, times the least 2^a reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _ola_fft(seg: np.ndarray, filters: np.ndarray) -> np.ndarray:
    n_frames, hop = seg.shape
    taps = filters.shape[1]
    out_len = hop + taps - 1
    n_fft = fast_len(out_len)
    spec = np.fft.rfft(seg, n_fft, axis=1) * np.fft.rfft(filters, n_fft, axis=1)
    blocks = np.fft.irfft(spec, n_fft, axis=1)[:, :out_len]
    acc = np.zeros((n_frames + (out_len - 1) // hop) * hop)
    # Block t lands at t*hop, so chunk j (hop samples) of every block fills a
    # disjoint slot: one strided add per chunk, last first (frame order).
    for lo in reversed(range(0, out_len, hop)):
        chunk = blocks[:, lo:lo + hop]
        acc[lo:lo + n_frames * hop].reshape(n_frames, hop)[:, :chunk.shape[1]] += chunk
    return acc[:n_frames * hop + taps - 1]


def ola_filter(samples: np.ndarray, filters: np.ndarray,
               cfg: AnalysisConfig) -> np.ndarray:
    """Filter samples with one FIR filter per hop-length block.

    Block t (samples t*hop onward, the last one zero-padded) is convolved
    with filter row t and the tails are overlap-added, so each sample is
    filtered once. Returns the untrimmed len(filters) * hop + taps - 1
    samples; callers trim. Filters longer than FFT_CONV_THRESHOLD taps use
    block FFT convolution at the fast length fast_len(hop + taps - 1),
    shorter ones the per-tap multiply-add; the tests pin both to a naive
    overlap-add within 1e-10.
    """
    filters = np.atleast_2d(np.asarray(filters, dtype=np.float64))
    n_frames, taps = filters.shape
    if n_frames != frame_count(len(samples), cfg.hop):
        raise ValueError(f"{n_frames} filters do not match {len(samples)} "
                         f"samples at hop {cfg.hop}")
    cfg.check_taps(taps)
    seg = _span(samples, 0, n_frames * cfg.hop).reshape(n_frames, cfg.hop)
    return (_ola_fft if taps > FFT_CONV_THRESHOLD else _ola_direct)(seg, filters)
