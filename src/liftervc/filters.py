"""Differential-filter design, its adjoint, and sub-band gating."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cepstral import reconstruct_spectrum
from .config import AnalysisConfig, SubbandGate
from .spectral import bin_weights


def gate_weights(gate: SubbandGate, cfg: AnalysisConfig) -> np.ndarray:
    """Blend weights in [0, 1] for the fft_len // 2 + 1 half-spectrum bins."""
    gate.check_below_nyquist(cfg)
    freq = np.arange(cfg.bins) * (cfg.sample_rate / cfg.fft_len)
    x = np.clip((gate.crossover_hz - freq) / gate.steepness_hz, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-x))


@lru_cache(maxsize=16)
def _gate_blend(gate: SubbandGate, cfg: AnalysisConfig, taps: int):
    """Onset delay of a gated `taps`-long filter, and the read-only w * r
    and (1 - w) * r that gate (weights w) and rotate (phase ramp r) a
    spectrum S in one multiply-add: (w * r) * S + (1 - w) * r.

    Ungated differential filters are built from a causal liftered cepstrum,
    so their response starts at tap 0 and needs no delay. The gate's
    frequency weighting has a symmetric kernel, which gives the gated
    spectrum a small acausal component; rendered naively it wraps onto the
    last taps and ruins the response between bin centers. Instead the
    response is rotated so its time origin sits `delay` taps in, and the
    overlap-add stage drops that many leading samples to compensate. The
    delay is large enough for the gate kernel's acausal lobe at full length,
    while heavily truncated filters keep most of their window for the main
    response.
    """
    delay = min(cfg.fft_len // 4, taps // 2)
    r = np.exp(-2j * np.pi * np.arange(cfg.bins) * delay / cfg.fft_len)
    w = gate_weights(gate, cfg)
    scale, offset = w * r, (1.0 - w) * r
    scale.flags.writeable = offset.flags.writeable = False
    return delay, scale, offset


def design_filter(spec_d: np.ndarray, cfg: AnalysisConfig, taps: int,
                  gate: SubbandGate | None = None):
    """The FIR filters conversion applies, plus their onset delay.

    spec_d: (..., fft_len // 2 + 1) half spectra from reconstruct_spectrum.
    The spectrum is gated and rotated by the onset delay (if a gate is
    given), inverse transformed by irfft, and cut to `taps`. Returns (filters
    of shape (..., taps), delay). The training chain scores exactly these
    taps, so what it optimizes is what conversion applies.
    """
    if spec_d.shape[-1] != cfg.bins:
        raise ValueError(f"expected {cfg.bins} bins, got {spec_d.shape[-1]}")
    if not 0 < taps <= cfg.fft_len:
        raise ValueError(f"truncation length must be in 1..{cfg.fft_len}")
    delay = 0
    if gate is not None:
        delay, scale, offset = _gate_blend(gate, cfg, taps)
        spec_d = scale * spec_d
        spec_d += offset
    # The copy lets the full-length irfft array go.
    h = np.fft.irfft(spec_d, cfg.fft_len, axis=-1)
    return np.ascontiguousarray(h[..., :taps]), delay


def design_filter_adjoint(g_taps: np.ndarray, cfg: AnalysisConfig,
                          gate: SubbandGate | None = None) -> np.ndarray:
    """Pull a gradient on design_filter's taps back to its input spectrum.

    g_taps: (..., taps) gradient w.r.t. the cut filters. Returns the complex
    gradient w.r.t. the half spectrum spec_d under the real-pair convention
    (see chain.py): the cut zero-pads, irfft pulls back as rfft(g) * w / n,
    and the gate's multiply-add by the conjugate of its factor w * r.
    """
    n = cfg.fft_len
    if not 0 < g_taps.shape[-1] <= n:
        raise ValueError(f"gradient must have 1..{n} taps")
    g_spec = np.fft.rfft(g_taps, n, axis=-1) * (bin_weights(n) / n)
    if gate is None:
        return g_spec
    _, scale, _ = _gate_blend(gate, cfg, g_taps.shape[-1])
    return np.conj(scale) * g_spec


def conversion_filters(cep_d: np.ndarray, lifter: np.ndarray,
                       cfg: AnalysisConfig, taps: int,
                       gate: SubbandGate | None = None):
    """Causal FIR filters for a batch of differential cepstra, plus their
    onset delay: design_filter of the liftered cepstra's spectra."""
    return design_filter(reconstruct_spectrum(cep_d, lifter, cfg), cfg, taps,
                         gate)
