"""Conventional pretraining and truncation-aware joint training."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainResult, chain_backward, chain_forward
from .config import TrainConfig
from .dataset import TrainingSet
from .model import AcousticModel, Adam
from .runtime import frame_losses
from .wavio import write_csv

STD_FLOOR = 1e-8


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_loss: float
    rmse: float
    wall_time_s: float


@dataclass
class TrainLog:
    """Per-epoch training record, serialized as CSV."""

    rows: list = field(default_factory=list)

    def append(self, row: EpochRow) -> None:
        self.rows.append(row)

    def to_csv(self, path) -> None:
        write_csv(path, "epoch,train_loss,val_loss,rmse,wall_time_s",
                  ((r.epoch, r.train_loss, r.val_loss, r.rmse,
                    f"{r.wall_time_s:.3f}") for r in self.rows))


def set_normalization(model: AcousticModel, data: TrainingSet) -> None:
    """Freeze feature statistics into the model: inputs are z-scored by the
    source cepstra, outputs are de-normalized by the target-minus-source
    differential statistics."""
    model.in_mean = data.src_cep.mean(axis=0)
    model.in_std = np.maximum(data.src_cep.std(axis=0), STD_FLOOR)
    diff = data.tgt_cep - data.src_cep
    model.out_mean = diff.mean(axis=0)
    model.out_std = np.maximum(diff.std(axis=0), STD_FLOOR)


def chain_gradients(model: AcousticModel, cep_x: np.ndarray, spec_x: np.ndarray,
                    tgt_cep: np.ndarray, taps: int) -> tuple[ChainResult, dict]:
    """The model-in-the-loop training pass: the network's training-mode
    forward, the chain with the model's lifter and gate, both backward.
    Returns the chain result and gradients keyed like trainable_entries(True)."""
    cep_d, model_cache = model.forward(cep_x, train=True)
    result = chain_forward(cep_d, model.lifter.coeffs, spec_x, tgt_cep, taps,
                           model.cfg, gate=model.subband)
    g_cep_d, g_lifter = chain_backward(result, model.cfg)
    grads = model.backward(model_cache, g_cep_d)
    grads["lifter"] = g_lifter
    return result, grads


def _batches(n_frames: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n_frames)
    for a in range(0, n_frames, batch_size):
        yield perm[a:a + batch_size]


def _run_epochs(data: TrainingSet, val_data: TrainingSet | None,
                cfg: TrainConfig, entries: list, lr: float, step,
                score) -> TrainLog:
    """The epoch loop both training stages share: Adam over shuffled frame
    batches. step(idx) returns the batch's summed frame loss and the
    gradients keyed like entries; score(val_data) is the validation loss,
    which falls back to the training loss without validation data."""
    rng = np.random.default_rng(cfg.seed)
    opt = Adam([arr for _, arr in entries], lr=lr)
    log = TrainLog()
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        total = 0.0
        for idx in _batches(len(data), cfg.batch_size, rng):
            batch_total, grads = step(idx)
            total += batch_total
            opt.step([grads[name] for name, _ in entries])
        train_loss = total / len(data)
        val = score(val_data) if val_data is not None else train_loss
        log.append(EpochRow(epoch, train_loss, val, float(np.sqrt(val)),
                            time.perf_counter() - t0))
    return log


def pretrain_conventional(model: AcousticModel, data: TrainingSet,
                          cfg: TrainConfig,
                          val_data: TrainingSet | None = None) -> TrainLog:
    """Conventional cepstral-domain training.

    Minimizes the mean squared error between the target cepstrum and
    source + predicted differential over shuffled frame batches, and sets
    the model's normalization statistics from the training set. The reported
    rmse is the root of the validation loss.
    """
    set_normalization(model, data)

    def step(idx):
        xb = data.src_cep[idx]
        cep_d, cache = model.forward(xb, train=True)
        err = xb + cep_d - data.tgt_cep[idx]
        grads = model.backward(cache, (2.0 / len(idx)) * err)
        return float((err * err).sum()), grads

    return _run_epochs(data, val_data, cfg, model.trainable_entries(),
                       cfg.pretrain_lr, step,
                       lambda val: float(frame_losses(model, val).mean()))


def train_lifter(model: AcousticModel, data: TrainingSet, cfg: TrainConfig,
                 val_data: TrainingSet | None = None) -> TrainLog:
    """Joint fine-tuning of the model and its lifter through the truncation
    chain at cfg.taps, gated by the model's gate.

    The model should be pretrained and its lifter initialized to the
    minimum-phase prefix; training updates it together with the network by
    Adam. The reported rmse is the root of the validation chain loss at
    cfg.taps.
    """
    def step(idx):
        result, grads = chain_gradients(
            model, data.src_cep[idx], data.spectra(idx),
            data.tgt_cep[idx], cfg.taps)
        return float(result.frame_losses.sum()), grads

    return _run_epochs(
        data, val_data, cfg, model.trainable_entries(include_lifter=True),
        cfg.finetune_lr, step,
        lambda val: float(frame_losses(model, val, cfg.taps).mean()))
