"""Pooled training material: aligned frames from many utterance pairs."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .align import align_pair, trim_silence
from .config import AnalysisConfig
from .spectral import Waveform


@dataclass
class TrainingSet:
    """Frame-level training data pooled over utterances.

    src_cep, tgt_cep: (T, c) aligned cepstra, T > 0. src_half: (T, bins)
    complex source spectra at the warped positions, the fft_len // 2 + 1
    non-negative-frequency bins stft gives. offsets: utterance boundaries,
    offsets[u]..offsets[u+1] is utterance u's frames.
    """

    src_cep: np.ndarray
    tgt_cep: np.ndarray
    src_half: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < len(self.src_cep) == len(self.tgt_cep) == len(self.src_half):
            raise ValueError("frame arrays must be non-empty and of equal length")
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.src_cep):
            raise ValueError("offsets must start at 0 and end at frame count")
        if (np.diff(self.offsets) <= 0).any():
            raise ValueError("offsets must increase: every utterance needs frames")

    def __len__(self) -> int:
        return len(self.src_cep)

    @property
    def src_spec(self) -> np.ndarray:
        """The full (T, 2 * (bins - 1)) source spectra, bin n - k the
        conjugate of bin k, in one new array per call. The package never
        calls it; it serves readers that score with an fft_len-point DFT."""
        bins = self.src_half.shape[1]
        full = np.empty((len(self), 2 * (bins - 1)), dtype=complex)
        full[:, :bins] = self.src_half
        np.conjugate(self.src_half[:, -2:0:-1], out=full[:, bins:])
        return full

    @property
    def n_utterances(self) -> int:
        return len(self.offsets) - 1

    def save(self, path, cfg: AnalysisConfig) -> None:
        meta = json.dumps(asdict(cfg), sort_keys=True)
        np.savez(path, **vars(self), meta=np.array(meta))

    @classmethod
    def load(cls, path, cfg: AnalysisConfig | None = None
             ) -> "tuple[TrainingSet, AnalysisConfig]":
        with np.load(path) as data:
            if "src_spec" in data.files:
                raise ValueError(f"{path} holds full-width src_spec from an older "
                                 "version; re-run `liftervc prep` to rewrite it")
            meta = AnalysisConfig(**json.loads(str(data["meta"])))
            if cfg is not None and meta != cfg:
                raise ValueError(
                    f"dataset analysis config {meta} does not match expected {cfg}")
            arrays = {f.name: data[f.name] for f in fields(cls)}
        for name, width in (("src_cep", meta.cep_dim), ("tgt_cep", meta.cep_dim),
                            ("src_half", meta.bins)):
            arr = arrays[name]
            if arr.shape[1:] != (width,) or not np.isfinite(arr).all():
                raise ValueError(f"{path}: {name} must be finite with shape "
                                 f"(frames, {width}), got shape {arr.shape}")
        if arrays["offsets"].dtype.kind not in "iu":
            raise ValueError(f"{path}: offsets must be integers, not "
                             f"{arrays['offsets'].dtype}")
        return cls(**arrays), meta


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
    src_cep, tgt_cep, src_half = (np.concatenate(arrs) for arrs in zip(*aligned))
    return TrainingSet(src_cep, tgt_cep, src_half,
                       offsets=np.cumsum([0] + [len(a[0]) for a in aligned]))
