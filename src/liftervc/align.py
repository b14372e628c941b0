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
    # acc[i, j] is the cheapest path cost to frame pair (i-1, j-1). A
    # one-cell border of +inf stands in for the boundary conditions, and the
    # interior first holds the cell costs themselves.
    acc = np.empty((ts + 1, tt + 1))
    cost = acc[1:, 1:]
    np.add((src * src).sum(axis=1)[:, None], (tgt * tgt).sum(axis=1)[None, :],
           out=cost)
    cost -= 2.0 * src @ tgt.T
    np.maximum(cost, 0.0, out=cost)
    np.sqrt(cost, out=cost)
    acc[0, :] = acc[:, 0] = np.inf
    acc[0, 0] = 0.0
    # Cell (i, j) of anti-diagonal d = i + j sits at flat index i * tt + d,
    # so a diagonal and its up, left and diagonal predecessors are slices
    # with step tt, offset by -tt - 1, -1 and -tt - 2.
    flat = acc.reshape(-1)
    best = np.empty(min(ts, tt))
    for d in range(2, ts + tt + 1):
        a = max(1, d - tt) * tt + d
        b = min(ts, d - 1) * tt + d + 1
        here = flat[a:b:tt]
        out = best[:here.size]
        np.minimum(flat[a - tt - 1:b - tt - 1:tt], flat[a - 1:b - 1:tt], out=out)
        np.minimum(out, flat[a - tt - 2:b - tt - 2:tt], out=out)
        here += out

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
               ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Analyze a source/target utterance pair and warp it onto a common time
    axis: (src_cep, tgt_cep) with one row per path step, the source's
    samples zero-padded to its analysis span (frames - 1) * hop +
    window_len as stft pads them, and per path step the sample of that span
    where its source frame begins."""
    src_cep = real_cepstrum(stft(src, cfg), cfg)
    tgt_cep = real_cepstrum(stft(tgt, cfg), cfg)
    path = dtw_align(alignment_features(src_cep), alignment_features(tgt_cep))
    padded = _span(src.samples, 0, (len(src_cep) - 1) * cfg.hop + cfg.window_len)
    return src_cep[path[:, 0]], tgt_cep[path[:, 1]], padded, cfg.hop * path[:, 0]
