"""Synthetic speaker pair with a known differential filter.

Real paired corpora are large and rights-encumbered; every experiment here
runs on generated audio instead. A source "speaker" is harmonic-plus-noise
audio; the target "speaker" is the same audio passed through a fixed
minimum-phase filter whose log-magnitude is exactly representable by the
first cep_dim cepstral coefficients. The ideal differential cepstrum is then
a known constant vector, pretraining has a closed-form optimum to find, and
truncation effects can be studied in isolation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cepstral import Lifter
from .config import SPLITS, AnalysisConfig, RunConfig, TrainConfig
from .dataset import TrainingSet, build_dataset
from .filters import conversion_filters
from .model import AcousticModel
from .runtime import eval_rmse
from .spectral import Waveform
from .training import TrainLog, pretrain_conventional, train_lifter
from .wavio import wav_write, write_csv

log = logging.getLogger(__name__)


def resonance_cepstrum(cfg: AnalysisConfig, freq_hz: float, radius: float,
                       sign: float = 1.0) -> np.ndarray:
    """Real cepstrum of one resonance (sign +1) or antiresonance (sign -1).

    A conjugate pole pair at radius r and angle 2*pi*f/sr contributes
    r^n cos(n*angle)/n at quefrency n; the radius sets how slowly the
    designed filter's impulse response decays.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must be in (0, 1)")
    if not 0.0 < freq_hz < cfg.sample_rate / 2:
        raise ValueError("frequency must lie below Nyquist")
    n = np.arange(1, cfg.cep_dim)
    angle = 2.0 * np.pi * freq_hz / cfg.sample_rate
    cep = np.zeros(cfg.cep_dim)
    cep[1:] = sign * (radius ** n) * np.cos(angle * n) / n
    return cep


def spectral_tilt_cepstrum(cfg: AnalysisConfig, poles=(), zeros=(),
                           gain: float = 1.0) -> np.ndarray:
    """Combined differential cepstrum of resonances, antiresonances, and an
    overall gain. poles/zeros are (freq_hz, radius) pairs."""
    cep = np.zeros(cfg.cep_dim)
    cep[0] = np.log(gain)
    for freq_hz, radius in poles:
        cep += resonance_cepstrum(cfg, freq_hz, radius, 1.0)
    for freq_hz, radius in zeros:
        cep += resonance_cepstrum(cfg, freq_hz, radius, -1.0)
    return cep


def default_differential(cfg: AnalysisConfig) -> np.ndarray:
    """The standard synthetic source-to-target spectral difference.

    Radii near 0.95 put the designed filter's ringing right at the 32-tap
    boundary: truncating there costs a measurable chunk of accuracy that a
    trained lifter can win back, while 128 taps already capture the response.
    Pushed much higher the truncation error at 32 grows past what lifter
    reshaping can absorb.
    """
    nyq = cfg.sample_rate / 2
    return spectral_tilt_cepstrum(
        cfg,
        poles=((0.09 * nyq, 0.95), (0.24 * nyq, 0.92)),
        zeros=((0.16 * nyq, 0.895), (0.45 * nyq, 0.84)),
        gain=1.08)


def _check_lengths(cfg: AnalysisConfig, duration_s: float,
                  edge_silence_s: float) -> None:
    """Raise unless duration_s gives at least one analysis window of samples
    and edge_silence_s is finite and >= 0."""
    if not (np.isfinite(duration_s)
            and round(duration_s * cfg.sample_rate) >= cfg.window_len):
        raise ValueError(f"duration_s {duration_s} gives fewer than "
                         f"window_len = {cfg.window_len} samples")
    if not 0.0 <= edge_silence_s < np.inf:
        raise ValueError(f"edge_silence_s {edge_silence_s} must be finite and >= 0")


def synth_source(cfg: AnalysisConfig, duration_s: float,
                 rng: np.random.Generator,
                 edge_silence_s: float = 0.0) -> Waveform:
    """Harmonic-plus-noise test audio with vibrato and a slow amplitude
    envelope; optionally padded with digital silence at both ends."""
    _check_lengths(cfg, duration_s, edge_silence_s)
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
    # One harmonic at a time, in the order a row sum of their (n_harm, n)
    # stack adds them: the same samples in O(n) memory.
    offsets = rng.uniform(0.0, 2.0 * np.pi, n_harm)
    x, tmp = np.zeros(n), np.empty(n)
    for k_i, offset, amp_i in zip(k, offsets, amp):
        np.multiply(k_i, phase, out=tmp)
        tmp += offset
        np.sin(tmp, out=tmp)
        tmp *= amp_i
        x += tmp

    # Lowpassed noise floor so frames are never spectrally degenerate.
    smooth = np.hanning(9)
    noise = np.convolve(rng.standard_normal(n), smooth / smooth.sum(), "same")
    x += 0.25 * noise * (x.std() / noise.std())

    anchors = max(4, int(duration_s * 4))
    env_t = np.linspace(0.0, duration_s, anchors)
    x *= np.interp(t, env_t, rng.uniform(0.45, 1.0, anchors))
    x *= 0.35 / np.max(np.abs(x))
    if edge_silence_s > 0.0:
        pad = np.zeros(int(round(edge_silence_s * sr)))
        x = np.concatenate([pad, x, pad])
    return Waveform(x, sr)


def make_pair(cfg: AnalysisConfig, delta_cep: np.ndarray, duration_s: float,
              rng: np.random.Generator,
              edge_silence_s: float = 0.0) -> "tuple[Waveform, Waveform]":
    """One (source, target) utterance pair: the target is the source filtered
    by the full minimum-phase filter of delta_cep."""
    src = synth_source(cfg, duration_s, rng, edge_silence_s)
    taps, _ = conversion_filters(delta_cep, Lifter.minimum_phase(cfg).coeffs,
                                 cfg, cfg.fft_len)
    tgt = np.convolve(src.samples, taps)[:len(src)]
    peak = max(np.max(np.abs(tgt)), np.max(np.abs(src.samples)))
    scale = min(1.0, 0.95 / peak)
    return (Waveform(src.samples * scale, cfg.sample_rate),
            Waveform(tgt * scale, cfg.sample_rate))


def make_pairs(cfg: AnalysisConfig, count: int, duration_s: float,
               rng: np.random.Generator, delta_cep: np.ndarray | None = None,
               edge_silence_s: float = 0.0):
    """count pairs, each made as it is iterated, so a caller that writes or
    analyses each in turn holds one at a time."""
    if delta_cep is None:
        delta_cep = default_differential(cfg)
    return (make_pair(cfg, delta_cep, duration_s, rng, edge_silence_s)
            for _ in range(count))


def make_corpus(out_dir, cfg: AnalysisConfig | None = None, n_train: int = 12,
                n_val: int = 4, n_test: int = 4, duration_s: float = 2.0,
                seed: int = 0, edge_silence_s: float = 0.1) -> RunConfig:
    """Write a WAV corpus plus a ready-to-run config document to out_dir."""
    cfg = cfg or AnalysisConfig()
    _check_lengths(cfg, duration_s, edge_silence_s)  # before out_dir exists
    if n_train < 1 or min(n_val, n_test) < 0:
        raise ValueError(f"pair counts must be n_train >= 1 and n_val, n_test "
                         f">= 0, got {n_train}, {n_val}, {n_test}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lists = {}
    for split, count in zip(SPLITS, (n_train, n_val, n_test)):
        lists[split] = []
        for i, pair in enumerate(make_pairs(cfg, count, duration_s, rng,
                                            edge_silence_s=edge_silence_s)):
            paths = [out_dir / f"{split}_{i:03d}_{side}.wav"
                     for side in ("src", "tgt")]
            for path, wave in zip(paths, pair):
                wav_write(path, wave)
            lists[split].append(tuple(map(str, paths)))
    run = RunConfig(analysis=cfg, train=TrainConfig(taps=cfg.fft_len),
                    data=lists, model_file=str(out_dir / "model.lvc"),
                    output_dir=str(out_dir))
    run.to_json(out_dir / "config.json")
    return run


@dataclass
class SweepResult:
    """Everything the truncation experiment produces.

    fixed_rmse scores the pretrained model with the minimum-phase lifter at
    each tap count; trained_rmse scores the jointly fine-tuned model and
    lifter at the same tap count. baseline_rmse is the untruncated
    minimum-phase reference.
    """

    taps: tuple
    fixed_rmse: dict
    trained_rmse: dict
    baseline_rmse: float
    pretrained: AcousticModel
    tuned: dict
    pretrain_log: TrainLog
    finetune_logs: dict
    val_data: TrainingSet

    def gap(self, taps: int) -> float:
        return self.fixed_rmse[taps] - self.trained_rmse[taps]

    def to_csv(self, path) -> None:
        rows = [(l, self.fixed_rmse[l], self.trained_rmse[l], self.gap(l))
                for l in self.taps]
        rows.append((self.pretrained.cfg.fft_len, self.baseline_rmse, "", ""))
        write_csv(path, "taps,fixed_rmse,trained_rmse,gap", rows)


def build_sweep_data(cfg: AnalysisConfig, n_train: int, n_val: int,
                     duration_s: float, seed: int,
                     delta_cep: np.ndarray | None = None):
    """Aligned train/validation sets for the truncation experiment."""
    rng = np.random.default_rng(seed)
    train = build_dataset(make_pairs(cfg, n_train, duration_s, rng, delta_cep),
                          cfg, trim_db=None)
    val = build_dataset(make_pairs(cfg, n_val, duration_s, rng, delta_cep),
                        cfg, trim_db=None)
    return train, val


def run_tap_sweep(taps=(32, 48, 64, 128), seed: int = 0, n_train: int = 48,
                  n_val: int = 8, duration_s: float = 2.5,
                  pretrain_epochs: int = 12,
                  finetune_epochs: int = 60) -> SweepResult:
    """Pretrain once, then fine-tune a copy of the model at each tap count
    and compare against the fixed minimum-phase lifter, on the default
    16 kHz analysis and synthetic differential.

    The model size, learning rates and batch size are fixed for a
    desk-scale run of a few minutes; the conventional corpus-scale settings
    live in TrainConfig.  Pretraining is deliberately stopped while
    validation loss is still falling, so that the fine-tuning stage always
    has genuine descent left to claim; the truncation penalty it must
    additionally repair is concentrated at the short tap counts by the shape
    of the default differential.
    """
    cfg = AnalysisConfig()
    train_data, val_data = build_sweep_data(cfg, n_train, n_val, duration_s,
                                            seed)
    log.info("sweep data: %d train frames, %d val frames",
             len(train_data), len(val_data))

    model = AcousticModel(cfg, hidden=(48, 32), seed=seed)
    pre_cfg = TrainConfig(taps=cfg.fft_len, pretrain_lr=5e-4,
                          finetune_lr=2e-5, batch_size=512,
                          epochs=pretrain_epochs, seed=seed)
    pretrain_log = pretrain_conventional(model, train_data, pre_cfg, val_data)
    baseline = eval_rmse(model, val_data, cfg.fft_len).rmse
    log.info("pretrained: val rmse %.5f without truncation", baseline)

    fixed, trained, tuned_models, ft_logs = {}, {}, {}, {}
    for l in taps:
        fixed[l] = eval_rmse(model, val_data, l).rmse
        tuned = model.copy()
        ft_cfg = replace(pre_cfg, taps=l, epochs=finetune_epochs)
        ft_logs[l] = train_lifter(tuned, train_data, ft_cfg, val_data)
        trained[l] = eval_rmse(tuned, val_data, l).rmse
        tuned_models[l] = tuned
        log.info("taps %3d: fixed rmse %.5f, trained rmse %.5f",
                 l, fixed[l], trained[l])

    return SweepResult(taps=tuple(taps), fixed_rmse=fixed, trained_rmse=trained,
                       baseline_rmse=baseline, pretrained=model,
                       tuned=tuned_models, pretrain_log=pretrain_log,
                       finetune_logs=ft_logs, val_data=val_data)
