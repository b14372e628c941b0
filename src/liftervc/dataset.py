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

    src_cep, tgt_cep: (T, c) aligned cepstra. src_spec: (T, fft_len) complex
    source spectra, all bins, at the warped positions. offsets: utterance
    boundaries, offsets[u]..offsets[u+1] is utterance u's frame range.
    """

    src_cep: np.ndarray
    tgt_cep: np.ndarray
    src_spec: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.src_cep) == len(self.tgt_cep) == len(self.src_spec)):
            raise ValueError("frame arrays must have equal length")
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.src_cep):
            raise ValueError("offsets must start at 0 and end at frame count")
        sizes = np.diff(self.offsets)
        if (sizes < 0).any() or (len(self) and not sizes.all()):
            raise ValueError("offsets must increase: every utterance needs frames")

    def __len__(self) -> int:
        return len(self.src_cep)

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
            meta = AnalysisConfig(**json.loads(str(data["meta"])))
            if cfg is not None and meta != cfg:
                raise ValueError(
                    f"dataset analysis config {meta} does not match expected {cfg}")
            ts = cls(**{f.name: data[f.name] for f in fields(cls)})
        return ts, meta


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
    src_cep, tgt_cep, src_spec = (np.concatenate(arrs) for arrs in zip(*aligned))
    return TrainingSet(src_cep, tgt_cep, src_spec,
                       offsets=np.cumsum([0] + [len(a[0]) for a in aligned]))
