"""Differentiable filter-truncation chain.

Training needs the cepstral loss of the speech a truncated differential
filter would actually produce, and gradients of that loss with respect to
the differential cepstra and the lifter; training.chain_gradients carries
them on into the acoustic model. The forward pass mirrors conversion
frame by frame:

    differential cepstrum -> lifter product -> zero-pad -> rfft -> exp
    -> filters.design_filter (optional sub-band gate, onset rotation, irfft,
    keep l taps) -> rfft -> multiply with the source spectrum ->
    cepstral.real_cepstrum (floored log magnitude times the cosine matrix
    cepstral.cepstrum_basis: the first c quefrencies of its irfft) ->
    squared error against the target

The spectrum, the taps and the cepstrum come from the same
cepstral.reconstruct_spectrum, filters.design_filter and
cepstral.real_cepstrum that conversion and analysis call, so the chain
scores exactly the filter `convert` applies.

Every signal is real (float64), so spectra (complex128) hold fft_len // 2 + 1
bins. The backward pass is written out by hand. Complex gradients follow the
real-pair convention g = dL/d(Re z) + i*dL/d(Im z), under which rfft over N
points pulls back as N * irfft(g / w) and irfft as rfft(g) * w / N, with
w = [1, 2, ..., 2, 1] from spectral.bin_weights; a product z = u*v pulls back
as g_v = conj(u)*g_z, and the elementwise exp as conj(exp(x))*g_exp.
The floored log magnitude has gradient z/|z|^2 where the magnitude is above
the floor and zero below it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cepstral import (MAG_FLOOR, cepstrum_basis, real_cepstrum,
                       reconstruct_spectrum)
from .config import AnalysisConfig, SubbandGate
from .filters import design_filter, design_filter_adjoint
from .spectral import bin_weights


@dataclass
class ChainResult:
    """One forward pass over a batch of frames: the estimated target
    cepstra, per-frame squared errors and their mean (the loss), and the
    intermediates chain_backward reads."""

    cep_y: np.ndarray
    frame_losses: np.ndarray
    loss: float
    cep_d: np.ndarray
    lifter: np.ndarray
    spec_x: np.ndarray
    spec_d: np.ndarray
    spec_y: np.ndarray
    err: np.ndarray
    taps: int
    gate: SubbandGate | None


def chain_forward(cep_d: np.ndarray, lifter: np.ndarray, spec_x: np.ndarray,
                  tgt_cep: np.ndarray, taps: int, cfg: AnalysisConfig,
                  gate: SubbandGate | None = None) -> ChainResult:
    """Loss of the truncated differential filter built from cep_d.

    cep_d: (B, c) differential cepstra. lifter: (c,). spec_x: (B, fft_len)
    full or (B, fft_len // 2 + 1) half complex source spectra; only the half
    is read. tgt_cep: (B, c) target cepstra. taps: truncation length l.
    """
    cep_d = np.atleast_2d(np.asarray(cep_d, dtype=np.float64))
    tgt_cep = np.atleast_2d(np.asarray(tgt_cep, dtype=np.float64))
    spec_x = np.atleast_2d(np.asarray(spec_x, dtype=np.complex128))
    lifter = np.asarray(lifter, dtype=np.float64)
    if spec_x.shape[1] not in (cfg.fft_len, cfg.bins):
        raise ValueError(f"expected {cfg.fft_len} or {cfg.bins} source bins")
    spec_x = spec_x[:, :cfg.bins]
    # reconstruct_spectrum checks the lengths, design_filter the taps.
    spec_d = reconstruct_spectrum(cep_d, lifter, cfg)
    f_l, _ = design_filter(spec_d, cfg, taps, gate)
    spec_y = spec_x * np.fft.rfft(f_l, n=cfg.fft_len, axis=1)
    cep_y = real_cepstrum(spec_y, cfg)
    err = cep_y - tgt_cep
    frame_losses = (err * err).sum(axis=1)
    return ChainResult(cep_y=cep_y, frame_losses=frame_losses,
                       loss=float(frame_losses.mean()), cep_d=cep_d,
                       lifter=lifter, spec_x=spec_x, spec_d=spec_d,
                       spec_y=spec_y, err=err, taps=taps, gate=gate)


def chain_backward(result: ChainResult, cfg: AnalysisConfig):
    """Gradients of the mean frame loss w.r.t. cep_d and the lifter.

    Returns (g_cep_d, g_lifter) with shapes (B, c) and (c,).
    """
    n, c = cfg.fft_len, cfg.cep_dim
    w = bin_weights(n)
    # Estimated cepstrum = log-magnitude @ basis, so the transpose pulls back.
    g_logmag = ((2.0 / len(result.err)) * result.err) @ cepstrum_basis(n, c).T
    # The floored magnitude, not the raw one, which may be 0 where the
    # gradient is zero.
    mag = np.abs(result.spec_y)
    live = mag > MAG_FLOOR
    np.maximum(mag, MAG_FLOOR, out=mag)
    g_logmag /= np.multiply(mag, mag, out=mag)
    g_logmag[~live] = 0.0
    g_spec_l = np.conj(result.spec_x)
    g_spec_l *= g_logmag * result.spec_y
    g_spec_l /= w
    g_f_l = np.fft.irfft(g_spec_l, n)[:, :result.taps] * n
    g_log_spec = np.conj(result.spec_d)
    g_log_spec *= design_filter_adjoint(g_f_l, cfg, result.gate)
    g_log_spec /= w
    g_liftered = np.fft.irfft(g_log_spec, n)[:, :c] * n
    g_cep_d = g_liftered * result.lifter
    g_lifter = (g_liftered * result.cep_d).sum(axis=0)
    return g_cep_d, g_lifter
