"""Configuration dataclasses and JSON config loading."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

NARROW_BAND_RATE = 16000
FULL_BAND_RATE = 48000
SPLITS = ("train", "val", "test")  # the run config's data lists
_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "dict": (dict,)}


def _check_types(obj) -> None:
    """Each int, float, str or dict field holds its declared type: an int,
    an int or float, a str or a dict. A bool is never a number, and a float
    field is never NaN or infinite (JSON readers accept both)."""
    for f in (f for f in fields(obj) if f.type in _TYPES):
        value = getattr(obj, f.name)
        if isinstance(value, bool) or not isinstance(value, _TYPES[f.type]):
            raise TypeError(f"{type(obj).__name__}.{f.name} must be {f.type}, "
                            f"got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{f.name} must be finite, "
                             f"got {value!r}")


@dataclass(frozen=True)
class AnalysisConfig:
    """Frame-analysis parameters: Hann window length, hop, FFT size, cepstra.

    Defaults correspond to narrow-band (16 kHz) processing: 25 ms window,
    5 ms hop, 512-point FFT, 40 cepstral dimensions.
    """

    sample_rate: int = NARROW_BAND_RATE
    window_len: int = 400
    hop: int = 80
    fft_len: int = 512
    cep_dim: int = 40

    def __post_init__(self) -> None:
        _check_types(self)
        if min(self.sample_rate, self.window_len, self.hop,
               self.fft_len, self.cep_dim) <= 0:
            raise ValueError("analysis parameters must be positive")
        if self.fft_len < 4 or self.fft_len % 2:
            raise ValueError(
                f"fft_len must be even and at least 4, got {self.fft_len}")
        if self.window_len > self.fft_len:
            raise ValueError("window_len must not exceed fft_len")
        if self.hop > self.window_len:
            raise ValueError("hop must not exceed window_len")
        if self.cep_dim > self.fft_len // 2:
            raise ValueError("cep_dim must not exceed fft_len / 2")

    @classmethod
    def from_doc(cls, doc) -> "AnalysisConfig":
        """A model or dataset file's stored settings: every field (a missing one
        reads as None, which none accepts), other keys ignored, window hann."""
        doc = _section(doc, "stored analysis settings")
        if doc.get("window", "hann") != "hann":
            raise ValueError(f"stored analysis window {doc['window']!r} is not hann")
        return cls(**{f.name: doc.get(f.name) for f in fields(cls)})

    def check_taps(self, taps) -> int:
        """taps as an int: None means fft_len, and anything but an integer in
        1..fft_len (a bool included) raises the one tap-count error."""
        taps = self.fft_len if taps is None else taps
        if (isinstance(taps, bool) or not isinstance(taps, numbers.Integral)
                or not 0 < taps <= self.fft_len):
            raise ValueError(f"truncation length must be in 1..{self.fft_len}")
        return int(taps)

    @property
    def bins(self) -> int:
        return self.fft_len // 2 + 1  # rfft bins: a real signal's half spectrum

    @classmethod
    def for_rate(cls, sample_rate: int, **overrides) -> "AnalysisConfig":
        """Standard settings for 16 kHz (512-point FFT, 40 cepstra) or
        48 kHz (2048-point FFT, 120 cepstra); both use 25 ms / 5 ms frames."""
        if sample_rate not in (NARROW_BAND_RATE, FULL_BAND_RATE):
            raise ValueError(f"no standard settings for {sample_rate!r} Hz")
        if sample_rate == FULL_BAND_RATE:  # the defaults are the 16 kHz ones
            overrides = {"window_len": 1200, "hop": 240, "fft_len": 2048,
                         "cep_dim": 120, **overrides}
        return cls(**{"sample_rate": sample_rate, **overrides})


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for pretraining and lifter fine-tuning."""

    taps: int = 512
    pretrain_lr: float = 0.0005
    finetune_lr: float = 0.00001
    batch_size: int = 1000
    epochs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _check_types(self)
        if self.taps <= 0:
            raise ValueError("taps must be positive")
        if self.pretrain_lr <= 0 or self.finetune_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")


@dataclass(frozen=True)
class SubbandGate:
    """Sigmoid crossover that confines the differential filter to the low band.

    Below the crossover the filter applies unchanged; above it the spectrum
    relaxes to the identity filter so the source passes through untouched.
    """

    crossover_hz: float = 8000.0
    steepness_hz: float = 200.0

    def __post_init__(self) -> None:
        _check_types(self)
        if self.crossover_hz <= 0:
            raise ValueError("crossover must be positive")
        if self.steepness_hz <= 0:
            raise ValueError("steepness must be positive")

    def check_below_nyquist(self, cfg: AnalysisConfig) -> None:
        if self.crossover_hz >= cfg.sample_rate / 2:
            raise ValueError("crossover must lie below the Nyquist frequency")


def _section(doc, where: str, allowed=None) -> dict:
    """A config section: a JSON object with only allowed keys (None: any)."""
    if not isinstance(doc, dict):
        raise TypeError(f"{where} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(doc if allowed is None else allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    return doc


@dataclass
class RunConfig:
    """Everything a full run needs: analysis + training settings, the data
    lists (a split name in SPLITS to its (source, target) path pairs), output
    locations, and the sub-band gate (None when gating is off)."""

    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: dict = field(default_factory=dict)
    model_file: str = "model.lvc"
    output_dir: str = "out"
    silence_threshold_db: float = 40.0
    subband: SubbandGate | None = None

    def __post_init__(self) -> None:
        _check_types(self)
        if self.silence_threshold_db <= 0:
            raise ValueError("RunConfig.silence_threshold_db must be positive, "
                             f"got {self.silence_threshold_db!r}")
        self.analysis.check_taps(self.train.taps)
        if self.subband is not None:
            self.subband.check_below_nyquist(self.analysis)
        _section(self.data, "data", SPLITS)
        for split, pairs in self.data.items():
            for pair in pairs if isinstance(pairs, (list, tuple)) else [pairs]:
                if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                        or not all(isinstance(p, str) for p in pair)):
                    raise ValueError(f"each data.{split} entry must be a [source, "
                                     f"target] pair of paths, got {pair!r}")
        self.data = {split: [tuple(p) for p in self.data[split]]
                     for split in SPLITS if split in self.data}

    @classmethod
    def from_json(cls, path, check_paths: bool = True) -> "RunConfig":
        """Load a config document; with check_paths, verify every listed
        WAV file exists. Keys left out take the dataclass defaults, and the
        analysis defaults those of its sample rate; unknown keys are rejected
        in every section."""
        raw = _section(json.loads(Path(path).read_text()), "config",
                       {f.name for f in fields(cls)})
        analysis = _section(raw.pop("analysis", {}), "analysis")
        sub = raw.pop("subband", None)
        cfg = cls(analysis=AnalysisConfig.for_rate(
                      analysis.pop("sample_rate", NARROW_BAND_RATE), **analysis),
                  train=TrainConfig(**_section(raw.pop("train", {}), "train")),
                  subband=None if sub is None
                  else SubbandGate(**_section(sub, "subband")), **raw)
        if check_paths:
            missing = [p for pairs in cfg.data.values() for pair in pairs
                       for p in pair if not Path(p).exists()]
            if missing:
                raise FileNotFoundError(f"missing data files: {missing[:4]}"
                                        + (" ..." if len(missing) > 4 else ""))
        return cfg

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True)
                              + "\n")
