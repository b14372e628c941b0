"""Silence trimming and dynamic-time-warping alignment of utterance pairs."""

from __future__ import annotations

import numpy as np

from .cepstral import real_cepstrum
from .config import AnalysisConfig
from .spectral import Waveform, _span, frame_count, stft


def trim_silence(wave: Waveform, cfg: AnalysisConfig,
                 threshold_db: float) -> Waveform:
    """Drop hop-length blocks whose RMS is more than threshold_db below the
    loudest block; the remaining blocks are concatenated.

    Raises on input with no energy at all (there is no reference level).
    """
    samples = wave.samples
    hop = cfg.hop
    n_blocks = frame_count(samples.size, hop)
    blocks = _span(samples, 0, n_blocks * hop).reshape(n_blocks, hop)
    # RMS of the final partial block uses its true sample count.
    counts = np.full(n_blocks, hop)
    counts[-1] = samples.size - (n_blocks - 1) * hop
    rms = np.sqrt((blocks * blocks).sum(axis=1) / counts)
    peak = rms.max()
    if peak == 0.0:
        raise ValueError("waveform is entirely silent")
    keep = rms >= peak * 10.0 ** (-threshold_db / 20.0)
    if not keep.any():
        raise ValueError("no audio left after silence trimming")
    kept = [blocks[t][:counts[t]] for t in np.flatnonzero(keep)]
    return Waveform(np.concatenate(kept), wave.sample_rate)


def alignment_features(cep: np.ndarray) -> np.ndarray:
    """Per-sequence z-scored cepstra with coefficient 0 (energy) removed, so
    warping follows spectral shape rather than loudness."""
    feats = np.asarray(cep, dtype=np.float64)[:, 1:]
    mean = feats.mean(axis=0)
    std = np.maximum(feats.std(axis=0), 1e-8)
    return (feats - mean) / std


def dtw_align(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Minimum-cost monotonic alignment between two feature sequences.

    Steps are (1,0), (0,1), (1,1) with endpoints pinned to (0,0) and
    (Ts-1, Tt-1); cell cost is the Euclidean distance between the frames.
    Returns the path as an integer array of shape (path_len, 2).
    """
    src = np.atleast_2d(np.asarray(src, dtype=np.float64))
    tgt = np.atleast_2d(np.asarray(tgt, dtype=np.float64))
    if src.shape[0] == 0 or tgt.shape[0] == 0:
        raise ValueError("cannot align empty sequences")
    if src.shape[1] != tgt.shape[1]:
        raise ValueError("feature dimensions differ")
    ts, tt = src.shape[0], tgt.shape[0]
    sq = ((src * src).sum(axis=1)[:, None] + (tgt * tgt).sum(axis=1)[None, :]
          - 2.0 * src @ tgt.T)
    cost = np.sqrt(np.maximum(sq, 0.0))

    # One-cell border of +inf stands in for the boundary conditions, so each
    # anti-diagonal update is a single fancy-indexed minimum.
    acc = np.full((ts + 1, tt + 1), np.inf)
    acc[0, 0] = 0.0
    for d in range(2, ts + tt + 1):
        i = np.arange(max(1, d - tt), min(ts, d - 1) + 1)
        j = d - i
        prev = np.minimum(np.minimum(acc[i - 1, j], acc[i, j - 1]),
                          acc[i - 1, j - 1])
        acc[i, j] = cost[i - 1, j - 1] + prev

    path = [(ts - 1, tt - 1)]
    i, j = ts, tt
    while (i, j) != (1, 1):
        diag, up, left = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
        if diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif up <= left:
            i -= 1
        else:
            j -= 1
        path.append((i - 1, j - 1))
    return np.array(path[::-1], dtype=np.intp)


def align_pair(src: Waveform, tgt: Waveform, cfg: AnalysisConfig
               ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Analyze a source/target utterance pair and warp it onto a common time
    axis: (src_cep, tgt_cep, src_spec), one row per path step. src_spec holds
    the full complex source spectra (stft's half mirrored back to fft_len
    bins), which the training chain needs."""
    src_spec = stft(src, cfg)
    src_cep = real_cepstrum(src_spec, cfg)
    tgt_cep = real_cepstrum(stft(tgt, cfg), cfg)
    src_spec = np.hstack([src_spec, src_spec[:, (cfg.fft_len - 1) // 2:0:-1].conj()])
    path = dtw_align(alignment_features(src_cep), alignment_features(tgt_cep))
    return src_cep[path[:, 0]], tgt_cep[path[:, 1]], src_spec[path[:, 0]]
