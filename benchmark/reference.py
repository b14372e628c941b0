"""Independent numpy computations and the output checks built on them.

Nothing here calls liftervc: the analysis, the GLU forward pass, filter
design, the sub-band gate, per-frame overlap-add and the truncation chain's
per-frame loss are written out again from their definitions, so a check
compares the program against a second implementation, never against a
stored copy of its own output. Every check raises CheckError on failure.
"""

from __future__ import annotations

import wave

import numpy as np

MAG_FLOOR = 1e-10
BN_EPS = 1e-5
PCM_SCALE = 32768.0


class CheckError(AssertionError):
    """An output failed an independent check."""


def _fail_unless(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- analysis ----------------------------------------------------------------


def hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def spectra(x: np.ndarray, cfg) -> np.ndarray:
    """Complex spectra of frames starting every hop samples, the tail zero
    padded so the last partial frame is analysed."""
    n_frames = -(-x.size // cfg.hop)
    padded = np.zeros((n_frames - 1) * cfg.hop + cfg.window_len)
    padded[:x.size] = x
    win = hann(cfg.window_len)
    frames = np.stack([padded[t * cfg.hop:t * cfg.hop + cfg.window_len] * win
                       for t in range(n_frames)])
    return np.fft.fft(frames, cfg.fft_len, axis=1)


def cepstra(spec: np.ndarray, cep_dim: int) -> np.ndarray:
    log_mag = np.log(np.maximum(np.abs(spec), MAG_FLOOR))
    return np.fft.ifft(log_mag, axis=1).real[:, :cep_dim]


def glu_forward(model, cep: np.ndarray) -> np.ndarray:
    """The acoustic model in inference mode, from its parameter arrays."""
    def bn(x, norm):
        return (norm.gamma * (x - norm.running_mean)
                / np.sqrt(norm.running_var + BN_EPS) + norm.beta)

    h = (cep - model.in_mean) / model.in_std
    for layer in model.layers:
        value = np.tanh(bn(h @ layer.w_value.T + layer.b_value, layer.bn_value))
        gate = 1.0 / (1.0 + np.exp(-bn(h @ layer.w_gate.T + layer.b_gate,
                                        layer.bn_gate)))
        h = value * gate
    return (h @ model.w_out.T + model.b_out) * model.out_std + model.out_mean


# -- filter design -----------------------------------------------------------


def min_phase_weights(cep_dim: int) -> np.ndarray:
    """Minimum-phase lifter below quefrency fft_len / 2: 1 at 0, else 2."""
    w = np.full(cep_dim, 2.0)
    w[0] = 1.0
    return w


def filter_spectrum(cep_d: np.ndarray, lifter: np.ndarray, fft_len: int) -> np.ndarray:
    cep_d = np.atleast_2d(cep_d)
    padded = np.zeros((cep_d.shape[0], fft_len))
    padded[:, :cep_d.shape[1]] = cep_d * lifter
    return np.exp(np.fft.fft(padded, axis=1))


def design_taps(cep_d: np.ndarray, lifter: np.ndarray, fft_len: int,
                taps: int) -> np.ndarray:
    """First `taps` samples of ifft(exp(fft(pad(cep_d * lifter)))), per row."""
    return np.fft.ifft(filter_spectrum(cep_d, lifter, fft_len), axis=1).real[:, :taps]


def gated_magnitude(cep_d: np.ndarray, cfg, crossover_hz: float,
                    steepness_hz: float) -> np.ndarray:
    """|1 + g (H - 1)| per bin for the minimum-phase filter H of cep_d and a
    sigmoid crossover g mirrored about fft_len / 2."""
    n = cfg.fft_len
    spec = filter_spectrum(cep_d, min_phase_weights(cfg.cep_dim), n)[0]
    bins = np.arange(n)
    freq = np.minimum(bins, n - bins) * cfg.sample_rate / n
    g = 1.0 / (1.0 + np.exp(-(crossover_hz - freq) / steepness_hz))
    return np.abs(1.0 + g * (spec - 1.0))


# -- filtering ---------------------------------------------------------------


def ola(x: np.ndarray, filters: np.ndarray, hop: int) -> np.ndarray:
    """Block t = x[t*hop:(t+1)*hop] convolved with filters[t], tails added
    at the block offsets, trimmed to len(x)."""
    taps = filters.shape[1]
    out = np.zeros(filters.shape[0] * hop + taps)
    for t in range(filters.shape[0]):
        block = x[t * hop:(t + 1) * hop]
        if block.size:
            out[t * hop:t * hop + block.size + taps - 1] += np.convolve(block, filters[t])
    return out[:x.size]


def fft_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution by one zero-padded real FFT."""
    n = x.size + h.size - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(h, size), size)[:n]


def magnitude_from_response(response: np.ndarray, fft_len: int) -> np.ndarray:
    """|DFT_fft_len| of a filter whose nonzero taps fit in fft_len
    consecutive samples somewhere inside `response` (at most 2 fft_len
    long): even bins of the doubled-length DFT fold the response onto a
    circular shift of itself, which leaves the magnitude unchanged."""
    return np.abs(np.fft.fft(response, 2 * fft_len)[::2])


def chain_frame_losses(model, src_cep: np.ndarray, src_spec: np.ndarray,
                       tgt_cep: np.ndarray, taps: int, fft_len: int) -> np.ndarray:
    """Squared cepstral error per frame of source spectra filtered by the
    model's truncated filters."""
    cep_dim = src_cep.shape[1]
    cep_d = glu_forward(model, src_cep)
    f = design_taps(cep_d, model.lifter.coeffs, fft_len, taps)
    est = cepstra(src_spec * np.fft.fft(f, fft_len, axis=1), cep_dim)
    return ((est - tgt_cep) ** 2).sum(axis=1)


# -- WAV ---------------------------------------------------------------------


def read_pcm(path) -> np.ndarray:
    """Samples of a mono 16-bit WAV file as integers, via the stdlib."""
    with wave.open(str(path), "rb") as fh:
        _fail_unless(fh.getnchannels() == 1 and fh.getsampwidth() == 2,
                     f"{path}: not mono 16-bit PCM")
        return np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")


def quantize(y: np.ndarray) -> np.ndarray:
    x = np.clip(y, -1.0, 1.0) * PCM_SCALE
    return np.clip(np.sign(x) * np.floor(np.abs(x) + 0.5), -32768, 32767)


# -- checks ------------------------------------------------------------------


def check_close(what: str, got: np.ndarray, want: np.ndarray, atol: float) -> None:
    got, want = np.asarray(got), np.asarray(want)
    _fail_unless(got.shape == want.shape,
                 f"{what}: shape {got.shape} != expected {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    _fail_unless(err <= atol, f"{what}: max error {err:.3e} > {atol:.1e}")


def check_wav(what: str, path, expected: np.ndarray) -> None:
    """The file holds `expected` clamped and rounded to 16-bit PCM; one step
    of slack covers values that sit on a rounding boundary."""
    ints = read_pcm(path).astype(np.float64)
    want = quantize(expected)
    _fail_unless(ints.shape == want.shape,
                 f"{what}: {ints.size} samples in file, expected {want.size}")
    err = float(np.max(np.abs(ints - want))) if ints.size else 0.0
    _fail_unless(err <= 1.0, f"{what}: file differs by {err:.0f} PCM steps")


def path_cost(src: np.ndarray, tgt: np.ndarray, path: np.ndarray) -> float:
    d = src[path[:, 0]] - tgt[path[:, 1]]
    return float(np.sqrt((d * d).sum(axis=1)).sum())


def diagonal_path(ts: int, tt: int) -> np.ndarray:
    """A monotone path from (0, 0) to (ts-1, tt-1) that follows the straight
    line between them."""
    steps = max(ts, tt)
    i = np.rint(np.linspace(0, ts - 1, steps)).astype(int)
    j = np.rint(np.linspace(0, tt - 1, steps)).astype(int)
    return np.stack([i, j], axis=1)


def check_dtw_path(src: np.ndarray, tgt: np.ndarray, path: np.ndarray) -> None:
    """Monotone unit steps, pinned endpoints, and a summed distance no
    greater than the straight-line path's."""
    path = np.asarray(path)
    _fail_unless(path.ndim == 2 and path.shape[1] == 2 and len(path) > 0,
                 "dtw: path is not a list of index pairs")
    _fail_unless(tuple(path[0]) == (0, 0), f"dtw: path starts at {tuple(path[0])}")
    end = (len(src) - 1, len(tgt) - 1)
    _fail_unless(tuple(path[-1]) == end, f"dtw: path ends at {tuple(path[-1])}, not {end}")
    steps = np.diff(path, axis=0)
    ok = ((steps >= 0) & (steps <= 1)).all(axis=1) & (steps.sum(axis=1) > 0)
    _fail_unless(bool(ok.all()), "dtw: path has a step other than (1,0), (0,1), (1,1)")
    cost = path_cost(src, tgt, path)
    diag = path_cost(src, tgt, diagonal_path(len(src), len(tgt)))
    _fail_unless(cost <= diag * (1.0 + 1e-12),
                 f"dtw: path cost {cost:.6g} exceeds the diagonal path's {diag:.6g}")


def check_loss_falls(what: str, losses) -> None:
    losses = [float(v) for v in losses]
    _fail_unless(len(losses) >= 2 and np.isfinite(losses).all(),
                 f"{what}: need at least two finite epoch losses")
    _fail_unless(losses[-1] < losses[0],
                 f"{what}: loss rose from {losses[0]:.6g} to {losses[-1]:.6g}")


def check_cumulative_power(curve: np.ndarray, fft_len: int) -> None:
    curve = np.asarray(curve)
    _fail_unless(curve.shape == (fft_len,), f"cumpow: shape {curve.shape}")
    _fail_unless(bool((np.diff(curve) >= -1e-12).all()), "cumpow: curve decreases")
    _fail_unless(0.0 <= curve[0] and abs(curve[-1] - 1.0) <= 1e-9,
                 f"cumpow: curve runs from {curve[0]:.6g} to {curve[-1]:.6g}, not to 1")


def check_eval(report, model, data, taps: int, fft_len: int) -> None:
    """eval_rmse's per-utterance and pooled RMSE against the per-frame
    losses recomputed here."""
    losses = chain_frame_losses(model, data.src_cep, data.src_spec,
                                data.tgt_cep, taps, fft_len)
    per_utt = [np.sqrt(losses[a:b].mean())
               for a, b in zip(data.offsets[:-1], data.offsets[1:])]
    check_close("eval per-utterance rmse", report.per_utterance, per_utt, 1e-9)
    check_close("eval pooled rmse", report.rmse, np.sqrt(losses.mean()), 1e-9)
    _fail_unless(report.n_frames == len(losses),
                 f"eval: {report.n_frames} frames reported, {len(losses)} scored")


def agreement_error(response: np.ndarray, chain_cep: np.ndarray,
                    fft_len: int) -> float:
    """Largest difference between the low-order cepstrum of a measured
    filter's magnitude and the chain's estimate of the same cepstrum."""
    mag = magnitude_from_response(response, fft_len)
    cep = np.fft.ifft(np.log(np.maximum(mag, MAG_FLOOR))).real[:chain_cep.size]
    return float(np.max(np.abs(cep - chain_cep)))
