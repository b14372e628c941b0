"""Real-cepstrum analysis and lifter-based spectrum reconstruction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import AnalysisConfig
from .spectral import bin_weights

# Floor applied to spectral magnitudes before the log, so the analysis chain
# is total and gradients through log|.| stay bounded.
MAG_FLOOR = 1e-10


@lru_cache(maxsize=8)
def cepstrum_basis(fft_len: int, cep_dim: int) -> np.ndarray:
    """Read-only (fft_len // 2 + 1, cep_dim) matrix that takes a real half
    spectrum to the first cep_dim values of its irfft: entry (k, t) is
    w_k * cos(2 pi k t / fft_len) / fft_len, w from spectral.bin_weights."""
    k = np.arange(fft_len // 2 + 1)[:, None]
    # k * t mod fft_len keeps the cosine's argument below 2 pi.
    phase = 2.0 * np.pi * (k * np.arange(cep_dim) % fft_len) / fft_len
    basis = np.cos(phase) * (bin_weights(fft_len)[:, None] / fft_len)
    basis.flags.writeable = False
    return basis


def real_cepstrum(frames: np.ndarray, cfg: AnalysisConfig) -> np.ndarray:
    """Low-order real cepstrum of half spectra.

    frames has shape (..., fft_len // 2 + 1), the non-negative-frequency bins
    of real signals' spectra (as spectral.stft returns them); the result
    equals irfft(log(max(|frames|, MAG_FLOOR)), fft_len)[..., :cep_dim],
    computed as the floored log magnitude times cepstrum_basis. The matrix
    is built once per (fft_len, cep_dim) and holds bins * cep_dim * 8 bytes:
    82 KB at 16 kHz, 0.98 MB at 48 kHz.
    """
    frames = np.asarray(frames)
    if frames.shape[-1] != cfg.bins:
        raise ValueError(f"expected {cfg.bins} bins, got {frames.shape[-1]}")
    log_mag = np.log(np.maximum(np.abs(frames), MAG_FLOOR))
    return log_mag @ cepstrum_basis(cfg.fft_len, cfg.cep_dim)


@dataclass
class Lifter:
    """Quefrency weighting of length cep_dim; fine-tuning trains it."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.ndim != 1:
            raise ValueError("lifter coefficients must be one-dimensional")
        if not np.isfinite(self.coeffs).all():
            raise ValueError("lifter coefficients must be finite")

    @classmethod
    def minimum_phase(cls, cfg: AnalysisConfig) -> "Lifter":
        """First cep_dim entries of the lifter that turns a real cepstrum into
        the complex cepstrum of a minimum-phase system: 1 at quefrency 0, 2
        above (cep_dim stops short of fft_len / 2, where it is 1 again)."""
        return cls(bin_weights(cfg.fft_len)[:cfg.cep_dim].copy())


def reconstruct_spectrum(cep: np.ndarray, lifter: np.ndarray,
                         cfg: AnalysisConfig) -> np.ndarray:
    """Half spectrum from a liftered low-order cepstrum.

    The liftered cepstrum is zero-padded to fft_len and treated as a complex
    cepstrum: the result is exp(rfft(pad(lifter * cep))), shape
    (..., fft_len // 2 + 1). With the minimum-phase lifter this preserves the
    magnitude spectrum encoded by cep and adds the minimum phase.
    """
    cep = np.asarray(cep, dtype=np.float64)
    lifter = np.asarray(lifter, dtype=np.float64)
    if cep.shape[-1] != cfg.cep_dim or lifter.shape[-1] != cfg.cep_dim:
        raise ValueError(f"cepstrum and lifter must have length {cfg.cep_dim}")
    return np.exp(np.fft.rfft(cep * lifter, n=cfg.fft_len, axis=-1))
