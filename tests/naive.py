"""Slow reference implementations the tests compare against.

Everything here trades speed for obviousness: explicit DFT matrices instead
of FFTs, per-frame Python loops instead of vectorized batches, exhaustive
path enumeration instead of dynamic programming. None of it calls into the
package's own transform or filtering code paths.
"""

import functools
import itertools
import math

import numpy as np

from liftervc.cepstral import MAG_FLOOR
from liftervc.model import (ADAM_DECAY_M, ADAM_DECAY_V, ADAM_EPS, BN_EPS,
                            BN_MOMENTUM)


@functools.lru_cache(maxsize=8)
def _dft_matrix(n, sign):
    """The n-point DFT matrix exp(sign * 2j*pi*k*j/n). The exponent k*j is
    reduced mod n first, so the phases stay exact to rounding at n in the
    thousands."""
    k = np.arange(n)
    return np.exp(sign * 2j * np.pi * (np.outer(k, k) % n) / n)


def naive_dft(x):
    """O(N^2) forward DFT of a single vector via the exponential matrix."""
    x = np.asarray(x, dtype=np.complex128)
    return _dft_matrix(x.size, -1) @ x


def naive_idft(x):
    """O(N^2) inverse DFT of a single vector."""
    x = np.asarray(x, dtype=np.complex128)
    return _dft_matrix(x.size, 1) @ x / x.size


def full_spectrum(half, n):
    """The n-bin spectrum of a real signal from its n//2+1 non-negative-
    frequency bins (the last axis): bin n-k is the conjugate of bin k."""
    half = np.asarray(half, dtype=np.complex128)
    full = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    for k in range(n):
        full[..., k] = half[..., k] if k <= n // 2 else np.conj(half[..., n - k])
    return full


def naive_stft(samples, cfg):
    """Full n-bin DFT of each Hann-windowed, zero-padded analysis frame,
    frame t starting at t*hop, one frame at a time."""
    samples = np.asarray(samples, dtype=np.float64)
    length, hop, n = cfg.window_len, cfg.hop, cfg.fft_len
    n_frames = -(-samples.size // hop)
    padded = np.zeros((n_frames - 1) * hop + length)
    padded[:samples.size] = samples
    window = np.array([0.5 - 0.5 * math.cos(2.0 * math.pi * i / length)
                       for i in range(length)])
    rows = []
    for t in range(n_frames):
        frame = np.zeros(n)
        frame[:length] = padded[t * hop:t * hop + length] * window
        rows.append(naive_dft(frame))
    return np.array(rows)


def naive_gate_weights(crossover_hz, steepness_hz, cfg):
    n = cfg.fft_len
    w = np.empty(n)
    for k in range(n):
        mirrored = min(k, n - k)
        freq = mirrored * cfg.sample_rate / n
        w[k] = 1.0 / (1.0 + math.exp(-(crossover_hz - freq) / steepness_hz))
    return w


def naive_design(cep_d, lifter, cfg, taps, gate=None):
    """The first `taps` taps of one frame's filter, over all fft_len bins:
    exp(DFT(pad(lifter * cep))), blended to 1 above the crossover when
    gated, inverse DFT. A gated response is circularly shifted by the
    converter's onset delay, min(fft_len // 4, taps // 2) taps, before the
    cut."""
    n, c = cfg.fft_len, cfg.cep_dim
    padded = np.zeros(n)
    padded[:c] = np.asarray(cep_d, dtype=np.float64) * lifter
    spec_d = np.exp(naive_dft(padded))
    delay = 0
    if gate is not None:
        gate_w = naive_gate_weights(gate.crossover_hz, gate.steepness_hz, cfg)
        spec_d = 1.0 + gate_w * (spec_d - 1.0)
        delay = min(n // 4, taps // 2)
    return np.roll(naive_idft(spec_d).real, delay)[:taps]


def naive_chain_loss(cep_d, lifter, spec_x, tgt_cep, taps, cfg, gate=None):
    """Frame-by-frame reimplementation of the truncation-chain loss, on
    full fft_len-bin source spectra: the chain scores the filter
    conversion applies (naive_design)."""
    cep_d = np.atleast_2d(np.asarray(cep_d, dtype=np.float64))
    tgt_cep = np.atleast_2d(np.asarray(tgt_cep, dtype=np.float64))
    spec_x = np.atleast_2d(np.asarray(spec_x, dtype=np.complex128))
    n, c = cfg.fft_len, cfg.cep_dim
    losses = []
    for b in range(cep_d.shape[0]):
        f_trunc = np.zeros(n)
        f_trunc[:taps] = naive_design(cep_d[b], lifter, cfg, taps, gate)
        spec_y = spec_x[b] * naive_dft(f_trunc)
        log_mag = np.log(np.maximum(np.abs(spec_y), MAG_FLOOR))
        cep_y = naive_idft(log_mag).real[:c]
        err = cep_y - tgt_cep[b]
        losses.append(float((err * err).sum()))
    return float(np.mean(losses))


def naive_model_forward(model, cep):
    """Unit-by-unit forward pass through a model in inference mode."""
    x = [(cep[i] - model.in_mean[i]) / model.in_std[i]
         for i in range(len(cep))]
    for layer in model.layers:
        out_dim = layer.w_value.shape[0]
        h = []
        for u in range(out_dim):
            pre_v = sum(layer.w_value[u, j] * x[j] for j in range(len(x)))
            pre_v += layer.b_value[u]
            pre_g = sum(layer.w_gate[u, j] * x[j] for j in range(len(x)))
            pre_g += layer.b_gate[u]
            bnv = layer.bn_value
            norm_v = bnv.gamma[u] * (pre_v - bnv.running_mean[u]) \
                / math.sqrt(bnv.running_var[u] + BN_EPS) + bnv.beta[u]
            bng = layer.bn_gate
            norm_g = bng.gamma[u] * (pre_g - bng.running_mean[u]) \
                / math.sqrt(bng.running_var[u] + BN_EPS) + bng.beta[u]
            h.append(math.tanh(norm_v) / (1.0 + math.exp(-norm_g)))
        x = h
    out = []
    for u in range(model.w_out.shape[0]):
        y = sum(model.w_out[u, j] * x[j] for j in range(len(x)))
        y += model.b_out[u]
        out.append(y * model.out_std[u] + model.out_mean[u])
    return np.array(out)


def enumerate_dtw_paths(ts, tt):
    """Every monotone path from (0,0) to (ts-1,tt-1) with steps
    (1,0), (0,1), (1,1). Exponential; keep the grids tiny."""
    paths = []

    def extend(path):
        i, j = path[-1]
        if (i, j) == (ts - 1, tt - 1):
            paths.append(list(path))
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < ts and nj < tt:
                path.append((ni, nj))
                extend(path)
                path.pop()

    extend([(0, 0)])
    return paths


def brute_force_dtw_cost(src, tgt):
    """Minimum summed Euclidean distance over all monotone paths."""
    src = np.asarray(src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    cost = np.sqrt(((src[:, None, :] - tgt[None, :, :]) ** 2).sum(axis=2))
    best = math.inf
    for path in enumerate_dtw_paths(src.shape[0], tgt.shape[0]):
        best = min(best, sum(cost[i, j] for i, j in path))
    return best


def naive_dtw_path(src, tgt):
    """Explicit-loop DTW: accumulated cost acc[i][j] = d(i, j) + the least
    of its up, left and diagonal predecessors, then a backtrack from the
    end that takes the diagonal if it is <= both others, else up if up <=
    left, else left. With small integer features every distance and sum is
    exact, so ties are real and the path is unique."""
    src = np.asarray(src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    ts, tt = len(src), len(tgt)
    acc = [[math.inf] * (tt + 1) for _ in range(ts + 1)]
    acc[0][0] = 0.0
    for i in range(1, ts + 1):
        for j in range(1, tt + 1):
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(src[i - 1], tgt[j - 1])))
            acc[i][j] = d + min(acc[i - 1][j], acc[i][j - 1], acc[i - 1][j - 1])
    i, j = ts, tt
    path = [(i - 1, j - 1)]
    while (i, j) != (1, 1):
        diag, up, left = acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]
        if diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif up <= left:
            i -= 1
        else:
            j -= 1
        path.append((i - 1, j - 1))
    return np.array(path[::-1])


def dtw_cost(src, tgt, path):
    """Summed Euclidean distance along an alignment path."""
    diffs = np.asarray(src)[path[:, 0]] - np.asarray(tgt)[path[:, 1]]
    return float(np.sqrt((diffs * diffs).sum(axis=1)).sum())


def naive_ola(samples, filters, hop, delay=0):
    """Per-block convolution and overlap-add, one frame at a time."""
    samples = np.asarray(samples, dtype=np.float64)
    filters = np.atleast_2d(np.asarray(filters, dtype=np.float64))
    n = samples.size
    n_frames = filters.shape[0]
    taps = filters.shape[1]
    acc = np.zeros(n_frames * hop + taps - 1 + delay)
    for t in range(n_frames):
        block = np.zeros(hop)
        chunk = samples[t * hop:(t + 1) * hop]
        block[:chunk.size] = chunk
        acc[t * hop:t * hop + hop + taps - 1] += np.convolve(block, filters[t])
    return acc[delay:delay + n]


def naive_real_cepstrum(frames, cfg):
    frames = np.atleast_2d(np.asarray(frames, dtype=np.complex128))
    out = []
    for row in frames:
        log_mag = np.log(np.maximum(np.abs(row), MAG_FLOOR))
        out.append(naive_idft(log_mag).real[:cfg.cep_dim])
    return np.array(out)


def naive_convert(samples, model, taps, gate=None):
    """Frame-by-frame conversion: analysis, cepstrum, the unit-by-unit
    network, the DFT design (rotated by the onset delay when gated) and the
    per-frame overlap-add, which drops the delay's leading samples; the
    result is clamped to [-1, 1]."""
    cfg = model.cfg
    spectra = naive_stft(samples, cfg)
    filters = [naive_design(naive_model_forward(model, cep),
                            model.lifter.coeffs, cfg, taps, gate)
               for cep in naive_real_cepstrum(spectra, cfg)]
    delay = 0 if gate is None else min(cfg.fft_len // 4, taps // 2)
    return np.clip(naive_ola(samples, filters, cfg.hop, delay), -1.0, 1.0)


# The training kernels as textbook array expressions, one temporary per
# operation. The package computes them in place; these pin its numerics
# bit for bit, so each keeps the package's operation order.


def textbook_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def textbook_batchnorm_forward(x, gamma, beta, running_mean, running_var):
    """(y, (xhat, inv), new running mean, new running variance)."""
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    running_mean = running_mean + BN_MOMENTUM * (mean - running_mean)
    running_var = running_var + BN_MOMENTUM * (var - running_var)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean) * inv
    return gamma * xhat + beta, (xhat, inv), running_mean, running_var


def textbook_batchnorm_backward(gamma, xhat, inv, gy):
    """(gx, ggamma, gbeta) through a training-mode forward."""
    batch = xhat.shape[0]
    ggamma = (gy * xhat).sum(axis=0)
    gbeta = gy.sum(axis=0)
    gxhat = gy * gamma
    gx = (inv / batch) * (batch * gxhat - gxhat.sum(axis=0)
                          - xhat * (gxhat * xhat).sum(axis=0))
    return gx, ggamma, gbeta


def textbook_glu_forward(layer, x):
    """(output, value, gate) of a GluLayer in training mode; its batch
    norms' running statistics are left as they are."""
    def bn(branch, pre):
        norm = getattr(layer, f"bn_{branch}")
        return textbook_batchnorm_forward(pre, norm.gamma, norm.beta,
                                          norm.running_mean, norm.running_var)[0]
    value = np.tanh(bn("value", x @ layer.w_value.T + layer.b_value))
    gate = textbook_sigmoid(bn("gate", x @ layer.w_gate.T + layer.b_gate))
    return value * gate, value, gate


def textbook_glu_backward(layer, x, cache_v, cache_g, value, gate, gout):
    """(gpre_v, gpre_g, grads) as GluLayer.backward names them."""
    gnorm_v = gout * gate * (1.0 - value * value)
    gnorm_g = gout * value * gate * (1.0 - gate)
    gpre_v, ggamma_v, gbeta_v = textbook_batchnorm_backward(
        layer.bn_value.gamma, *cache_v, gnorm_v)
    gpre_g, ggamma_g, gbeta_g = textbook_batchnorm_backward(
        layer.bn_gate.gamma, *cache_g, gnorm_g)
    grads = {
        "w_value": gpre_v.T @ x, "b_value": gpre_v.sum(axis=0),
        "bn_value.gamma": ggamma_v, "bn_value.beta": gbeta_v,
        "w_gate": gpre_g.T @ x, "b_gate": gpre_g.sum(axis=0),
        "bn_gate.gamma": ggamma_g, "bn_gate.beta": gbeta_g,
    }
    return gpre_v, gpre_g, grads


def textbook_adam_step(p, g, m, v, t, lr):
    """Step t (from 1) of bias-corrected Adam: new (p, m, v)."""
    m = ADAM_DECAY_M * m + (1.0 - ADAM_DECAY_M) * g
    v = ADAM_DECAY_V * v + (1.0 - ADAM_DECAY_V) * g * g
    correct1 = 1.0 - ADAM_DECAY_M ** t
    correct2 = 1.0 - ADAM_DECAY_V ** t
    return p - lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS), m, v


def textbook_synth_source(cfg, duration_s, rng, edge_silence_s=0.0):
    """synth_source's samples with the harmonic sum as one (n_harm, n)
    expression summed over its rows, drawing from rng in the same order."""
    sr = cfg.sample_rate
    n = int(round(duration_s * sr))
    t = np.arange(n) / sr
    f0 = rng.uniform(110.0, 220.0)
    vibrato = 1.0 + 0.03 * np.sin(2.0 * np.pi * rng.uniform(4.0, 6.0) * t
                                  + rng.uniform(0.0, 2.0 * np.pi))
    phase = 2.0 * np.pi * np.cumsum(f0 * vibrato) / sr
    n_harm = min(48, int(0.45 * sr / f0))
    k = np.arange(1, n_harm + 1)
    amp = k ** -1.1 * rng.uniform(0.7, 1.3, n_harm)
    x = (amp[:, None] * np.sin(k[:, None] * phase
                               + rng.uniform(0.0, 2.0 * np.pi, (n_harm, 1)))).sum(axis=0)
    smooth = np.hanning(9)
    noise = np.convolve(rng.standard_normal(n), smooth / smooth.sum(), "same")
    x += 0.25 * noise * (x.std() / noise.std())
    anchors = max(4, int(duration_s * 4))
    x *= np.interp(t, np.linspace(0.0, duration_s, anchors),
                   rng.uniform(0.45, 1.0, anchors))
    x *= 0.35 / np.max(np.abs(x))
    pad = np.zeros(int(round(edge_silence_s * sr)))
    return np.concatenate([pad, x, pad])
