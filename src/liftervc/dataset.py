"""Pooled training material: aligned frames from many utterance pairs."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .align import align_pair, trim_silence
from .config import AnalysisConfig
from .spectral import Waveform, windowed_spectra

ARRAYS = ("src_cep", "tgt_cep", "src_wave", "frame_start", "offsets")


@dataclass
class TrainingSet:
    """Frame-level training data pooled over utterances.

    src_cep, tgt_cep: (T, c) aligned cepstra, T > 0. src_wave: each
    utterance's source samples, zero-padded to its analysis span and
    concatenated. frame_start: (T,) the sample of src_wave where each path
    step's source frame begins; spectra() analyses those frames on demand.
    offsets: utterance boundaries, offsets[u]..offsets[u+1] is utterance
    u's frames. cfg: the analysis config the frames follow.
    """

    src_cep: np.ndarray
    tgt_cep: np.ndarray
    src_wave: np.ndarray
    frame_start: np.ndarray
    offsets: np.ndarray
    cfg: AnalysisConfig

    def __post_init__(self) -> None:
        c = self.cfg.cep_dim
        for name, shape in (("src_cep", ("frames", c)), ("tgt_cep", ("frames", c)),
                            ("src_wave", ("samples",)), ("frame_start", ("frames",)),
                            ("offsets", ("utterances + 1",))):
            arr = np.asarray(getattr(self, name))
            index = name in ("frame_start", "offsets")
            if arr.ndim != len(shape) or arr.shape[1:] != shape[1:] or (
                    arr.dtype.kind not in "iu" if index
                    else not np.isfinite(arr).all()):
                raise ValueError(
                    f"{name} must be {'integers' if index else 'finite'} with "
                    f"shape ({', '.join(map(str, shape))}), got {arr.dtype} "
                    f"of shape {arr.shape}")
            setattr(self, name, arr.astype(np.intp, copy=False) if index else arr)
        if not 0 < len(self.src_cep) == len(self.tgt_cep) == len(self.frame_start):
            raise ValueError("frame arrays must be non-empty and of equal length")
        last = len(self.src_wave) - self.cfg.window_len
        if self.frame_start.min() < 0 or self.frame_start.max() > last:
            raise ValueError(f"frame_start must lie in 0..{last}, the frames "
                             "src_wave holds")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.src_cep):
            raise ValueError("offsets must start at 0 and end at frame count")
        if (np.diff(self.offsets) <= 0).any():
            raise ValueError("offsets must increase: every utterance needs frames")

    def __len__(self) -> int:
        return len(self.src_cep)

    def spectra(self, rows) -> np.ndarray:
        """stft's half source spectra, (len(rows), bins), of the given rows
        (an index array or a slice), computed from src_wave."""
        return windowed_spectra(self.src_wave, self.frame_start[rows], self.cfg)

    @property
    def src_spec(self) -> np.ndarray:
        """The full (T, fft_len) source spectra, bin n - k the conjugate of
        bin k, in one new array per call, derived 256 rows at a time. The
        package never calls it; it serves readers that score with an
        fft_len-point DFT."""
        bins = self.cfg.bins
        full = np.empty((len(self), self.cfg.fft_len), dtype=complex)
        for a in range(0, len(self), 256):
            half, rows = self.spectra(slice(a, a + 256)), full[a:a + 256]
            rows[:, :bins] = half
            np.conjugate(half[:, -2:0:-1], out=rows[:, bins:])
        return full

    @property
    def n_utterances(self) -> int:
        return len(self.offsets) - 1

    def save(self, path, cfg: AnalysisConfig) -> None:
        if cfg != self.cfg:
            raise ValueError(f"dataset analysis config {self.cfg} is not {cfg}")
        np.savez(path, **{name: getattr(self, name) for name in ARRAYS},
                 meta=np.array(json.dumps(asdict(cfg), sort_keys=True)))

    @classmethod
    def load(cls, path, cfg: AnalysisConfig | None = None
             ) -> "tuple[TrainingSet, AnalysisConfig]":
        with np.load(path) as data:
            old = {"src_half", "src_spec"} & set(data.files)
            if old:  # the spectra older versions stored
                raise ValueError(f"{path}: {old.pop()} holds spectra from an older "
                                 "version; re-run `liftervc prep` to rewrite it")
            meta = AnalysisConfig(**json.loads(str(data["meta"])))
            if cfg is not None and meta != cfg:
                raise ValueError(
                    f"dataset analysis config {meta} does not match expected {cfg}")
            arrays = {name: data[name] for name in ARRAYS}
        try:
            return cls(**arrays, cfg=meta), meta
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def build_dataset(waves: "list[tuple[Waveform, Waveform]]", cfg: AnalysisConfig,
                  trim_db: float | None) -> TrainingSet:
    """Trim, analyze, and align each (source, target) waveform pair, then
    pool the frames. trim_db=None skips silence removal (evaluation data)."""
    aligned = []
    for src, tgt in waves:
        if trim_db is not None:
            src = trim_silence(src, cfg, trim_db)
            tgt = trim_silence(tgt, cfg, trim_db)
        aligned.append(align_pair(src, tgt, cfg))
    if not aligned:
        raise ValueError("no utterance pairs")
    src_cep, tgt_cep, spans, starts = zip(*aligned)
    at = np.cumsum([0] + [len(span) for span in spans[:-1]])
    return TrainingSet(np.concatenate(src_cep), np.concatenate(tgt_cep),
                       np.concatenate(spans),
                       np.concatenate([s + a for s, a in zip(starts, at)]),
                       offsets=np.cumsum([0] + [len(c) for c in src_cep]),
                       cfg=cfg)
