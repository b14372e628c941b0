"""Gated-linear-unit acoustic model, Adam optimizer, and model file I/O.

The model maps a source cepstrum to a differential cepstrum: inputs are
normalized by training-set statistics, passed through two GLU hidden layers
(tanh value branch times sigmoid gate branch, batch norm before each
activation), projected linearly back to cepstrum size, and de-normalized by
the training-set statistics of the target differential.

Model file layout (all little-endian):

    bytes 0..7    magic "LVCMODEL"
    bytes 8..11   format version (uint32, currently 1)
    bytes 12..15  config length L (uint32)
    bytes 16..    config JSON (L bytes, sorted keys; "subband" is the gate)
    then          float64 parameter blocks in param_entries() order:
                  in_mean, in_std, out_mean, out_std, lifter, then per GLU
                  layer {w_value, b_value, bn_value gamma/beta/running_mean/
                  running_var, w_gate, b_gate, bn_gate gamma/beta/
                  running_mean/running_var}, then w_out, b_out.

Shapes are implied by the config block, so a save/load/save round trip is
byte-identical.
"""

from __future__ import annotations

import copy
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .cepstral import Lifter
from .config import FULL_BAND_RATE, AnalysisConfig, SubbandGate

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_DECAY_M = 0.9  # first-moment (mean) decay
ADAM_DECAY_V = 0.999  # second-moment (uncentred variance) decay
ADAM_EPS = 1e-8
MAGIC = b"LVCMODEL"
FORMAT_VERSION = 1

NARROW_BAND_HIDDEN = (280, 100)
FULL_BAND_HIDDEN = (840, 300)


class ModelFileError(ValueError):
    """Raised when a model file is malformed or inconsistent."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) with x clipped to +-500, computed in one buffer."""
    out = np.clip(x, -500.0, 500.0)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class BatchNorm:
    """Per-feature batch normalization with running statistics."""

    def __init__(self, dim: int):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, x):
        """Training-mode forward. The centred batch is formed once and serves
        the variance (as np.var forms it) and xhat."""
        mean = x.mean(axis=0)
        xhat = x - mean
        y = np.multiply(xhat, xhat)
        var = y.sum(axis=0) / len(x)
        self.running_mean += BN_MOMENTUM * (mean - self.running_mean)
        self.running_var += BN_MOMENTUM * (var - self.running_var)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv
        np.multiply(self.gamma, xhat, out=y)
        y += self.beta
        return y, (xhat, inv)

    def backward(self, cache, gy):
        """Gradients through a training-mode forward, whose batch statistics
        depend on every row: the standard coupled backward."""
        xhat, inv = cache
        batch = xhat.shape[0]
        tmp = np.multiply(gy, xhat)
        ggamma = tmp.sum(axis=0)
        gbeta = gy.sum(axis=0)
        # (inv / batch) * (batch * gxhat - sum(gxhat) - xhat * sum(gxhat * xhat))
        gx = np.multiply(gy, self.gamma)
        sum_g = gx.sum(axis=0)
        sum_gx = np.multiply(gx, xhat, out=tmp).sum(axis=0)
        gx *= batch
        gx -= sum_g
        gx -= np.multiply(xhat, sum_gx, out=tmp)
        gx *= inv / batch
        return gx, ggamma, gbeta


class GluLayer:
    """One gated hidden layer: tanh(BN(W_v x + b_v)) * sigmoid(BN(W_g x + b_g))."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = np.sqrt(1.0 / in_dim)
        self.w_value = rng.uniform(-bound, bound, (out_dim, in_dim))
        self.b_value = np.zeros(out_dim)
        self.w_gate = rng.uniform(-bound, bound, (out_dim, in_dim))
        self.b_gate = np.zeros(out_dim)
        self.bn_value = BatchNorm(out_dim)
        self.bn_gate = BatchNorm(out_dim)

    def forward(self, x):
        pre_v = x @ self.w_value.T
        pre_v += self.b_value
        pre_g = x @ self.w_gate.T
        pre_g += self.b_gate
        value, cache_v = self.bn_value.forward(pre_v)
        norm_g, cache_g = self.bn_gate.forward(pre_g)
        np.tanh(value, out=value)
        gate = sigmoid(norm_g)
        return value * gate, (x, cache_v, cache_g, value, gate)

    def backward(self, cache, gout):
        """Gradients of the two pre-activations and of the parameters; the
        model forms the input's gradient from the former only where a lower
        layer needs it."""
        x, cache_v, cache_g, value, gate = cache
        # gout * gate * (1 - value**2) and gout * value * gate * (1 - gate)
        slope = np.multiply(value, value)
        np.subtract(1.0, slope, out=slope)
        gnorm_v = np.multiply(gout, gate)
        gnorm_v *= slope
        gnorm_g = np.multiply(gout, value)
        gnorm_g *= gate
        gnorm_g *= np.subtract(1.0, gate, out=slope)
        gpre_v, ggamma_v, gbeta_v = self.bn_value.backward(cache_v, gnorm_v)
        gpre_g, ggamma_g, gbeta_g = self.bn_gate.backward(cache_g, gnorm_g)
        grads = {
            "w_value": gpre_v.T @ x, "b_value": gpre_v.sum(axis=0),
            "bn_value.gamma": ggamma_v, "bn_value.beta": gbeta_v,
            "w_gate": gpre_g.T @ x, "b_gate": gpre_g.sum(axis=0),
            "bn_gate.gamma": ggamma_g, "bn_gate.beta": gbeta_g,
        }
        return gpre_v, gpre_g, grads


def default_hidden(cfg: AnalysisConfig) -> tuple:
    return FULL_BAND_HIDDEN if cfg.sample_rate >= FULL_BAND_RATE else NARROW_BAND_HIDDEN


class AcousticModel:
    """GLU MLP plus feature-normalization statistics and the lifter."""

    def __init__(self, cfg: AnalysisConfig, hidden: tuple | None = None,
                 seed: int = 0):
        self.cfg = cfg
        self.hidden = tuple(hidden) if hidden is not None else default_hidden(cfg)
        rng = np.random.default_rng(seed)
        dims = (cfg.cep_dim,) + self.hidden
        self.layers = [GluLayer(dims[i], dims[i + 1], rng)
                       for i in range(len(self.hidden))]
        bound = np.sqrt(1.0 / dims[-1])
        self.w_out = rng.uniform(-bound, bound, (cfg.cep_dim, dims[-1]))
        self.b_out = np.zeros(cfg.cep_dim)
        self.in_mean = np.zeros(cfg.cep_dim)
        self.in_std = np.ones(cfg.cep_dim)
        self.out_mean = np.zeros(cfg.cep_dim)
        self.out_std = np.ones(cfg.cep_dim)
        self.lifter = Lifter.minimum_phase(cfg)
        self.subband: SubbandGate | None = None  # the gate it is served with

    # -- inference / training math -------------------------------------------

    def fold(self) -> list:
        """Inference weights from the live parameters: per hidden layer a
        value pair and a gate pair (w, b), then the output's (w, b). A
        branch's x @ w.T + b is its BN(W x' + b) with the running statistics,
        halved for the gate, since sigmoid(z) = (1 + tanh(z / 2)) / 2. Each
        layer's output is then twice the GLU's, so x' = x / 2 past the first;
        the output layer also de-normalizes."""
        weights, w_scale = [], 1.0
        for layer in self.layers:
            pairs = []
            for weight, bias, bn, half in (
                    (layer.w_value, layer.b_value, layer.bn_value, 1.0),
                    (layer.w_gate, layer.b_gate, layer.bn_gate, 0.5)):
                scale = half * bn.gamma / np.sqrt(bn.running_var + BN_EPS)
                pairs.append((weight * (w_scale * scale)[:, None],
                              scale * (bias - bn.running_mean) + half * bn.beta))
            weights.append(pairs)
            w_scale = 0.5
        weights.append(((w_scale * self.out_std)[:, None] * self.w_out,
                        self.b_out * self.out_std + self.out_mean))
        return weights

    def forward(self, cep, train: bool = False, folded: list | None = None):
        """Map source cepstra (B, c) or (c,) to differential cepstra.

        train selects batch statistics for batch norm, folds them into the
        running statistics and returns (out, cache) for backward. Otherwise
        only out is returned, rows are independent, and each hidden layer is
        tanh(h @ w_v.T + b_v) * (tanh(h @ w_g.T + b_g) + 1) with the weights
        of fold() (pass `folded` to reuse them across blocks). The input
        z-score stays unfolded: with in_std at its 1e-8 floor, 1/in_std in
        the weights would cancel terms of order 1e8.
        """
        cep = np.asarray(cep, dtype=np.float64)
        single = cep.ndim == 1
        x = cep[None, :] if single else cep
        if x.shape[1] != self.cfg.cep_dim:
            raise ValueError(f"expected {self.cfg.cep_dim} cepstral dims, got {x.shape[1]}")
        h = (x - self.in_mean) / self.in_std
        if train:
            caches = []
            for layer in self.layers:
                h, cache = layer.forward(h)
                caches.append(cache)
            out = (h @ self.w_out.T + self.b_out) * self.out_std + self.out_mean
            return (out[0] if single else out), (caches, h)
        *layers, (w_out, b_out) = self.fold() if folded is None else folded
        for (w_v, b_v), (w_g, b_g) in layers:
            gate = h @ w_g.T
            gate += b_g
            np.tanh(gate, out=gate)
            gate += 1.0
            h = h @ w_v.T
            h += b_v
            np.tanh(h, out=h)
            h *= gate
        out = h @ w_out.T
        out += b_out
        return out[0] if single else out

    def backward(self, cache, gout):
        """Gradients of a scalar loss w.r.t. all trainable parameters, given
        the loss gradient w.r.t. the de-normalized output."""
        caches, h_last = cache
        gout = np.atleast_2d(np.asarray(gout, dtype=np.float64))
        gy = gout * self.out_std
        grads = {"w_out": gy.T @ h_last, "b_out": gy.sum(axis=0)}
        gh = gy @ self.w_out
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            gpre_v, gpre_g, layer_grads = layer.backward(caches[i], gh)
            for name, g in layer_grads.items():
                grads[f"layers.{i}.{name}"] = g
            if i > 0:  # nothing needs the gradient of the network's input
                gh = gpre_v @ layer.w_value + gpre_g @ layer.w_gate
        return grads

    # -- parameter bookkeeping -------------------------------------------------

    def trainable_entries(self, include_lifter: bool = False) -> list:
        """(name, array) pairs for everything the optimizer may update: the
        serialized parameters less the normalization statistics, the batch
        norm running statistics and the lifter, which goes last if asked for."""
        frozen = ("in_mean", "in_std", "out_mean", "out_std", "lifter")
        entries = [(name, arr) for name, arr in self.param_entries()
                   if name not in frozen
                   and not name.endswith(("running_mean", "running_var"))]
        if include_lifter:
            entries.append(("lifter", self.lifter.coeffs))
        return entries

    def param_entries(self) -> list:
        """(name, array) pairs for everything serialized, in file order."""
        entries = [
            ("in_mean", self.in_mean), ("in_std", self.in_std),
            ("out_mean", self.out_mean), ("out_std", self.out_std),
            ("lifter", self.lifter.coeffs),
        ]
        for i, layer in enumerate(self.layers):
            for branch in ("value", "gate"):
                bn = getattr(layer, f"bn_{branch}")
                entries += [
                    (f"layers.{i}.w_{branch}", getattr(layer, f"w_{branch}")),
                    (f"layers.{i}.b_{branch}", getattr(layer, f"b_{branch}")),
                    (f"layers.{i}.bn_{branch}.gamma", bn.gamma),
                    (f"layers.{i}.bn_{branch}.beta", bn.beta),
                    (f"layers.{i}.bn_{branch}.running_mean", bn.running_mean),
                    (f"layers.{i}.bn_{branch}.running_var", bn.running_var),
                ]
        entries += [("w_out", self.w_out), ("b_out", self.b_out)]
        return entries

    def copy(self) -> "AcousticModel":
        return copy.deepcopy(self)


def constant_model(cfg: AnalysisConfig, cep_d: np.ndarray) -> AcousticModel:
    """A model that emits the fixed differential cepstrum cep_d for any input.

    All weights are zero, so the GLU output vanishes and the de-normalization
    offset carries the constant. Useful for identity checks and synthetic
    tasks with a known answer.
    """
    model = AcousticModel(cfg, seed=0)
    for layer in model.layers:
        layer.w_value[:] = 0.0
        layer.w_gate[:] = 0.0
    model.w_out[:] = 0.0
    model.out_mean = np.asarray(cep_d, dtype=np.float64).copy()
    model.out_std = np.zeros(cfg.cep_dim)
    return model


class Adam:
    """Bias-corrected Adam over a list of parameter arrays, updated in place,
    with the customary decay rates and denominator guard."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads) -> None:
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ValueError("gradient count does not match parameter count")
        for p, g in zip(self.params, grads):
            if np.shape(g) != p.shape:
                raise ValueError(f"gradient shape {np.shape(g)} != param shape {p.shape}")
        self.t += 1
        correct1 = 1.0 - ADAM_DECAY_M ** self.t
        correct2 = 1.0 - ADAM_DECAY_V ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= ADAM_DECAY_M
            m += (1.0 - ADAM_DECAY_M) * g
            v *= ADAM_DECAY_V
            v += (1.0 - ADAM_DECAY_V) * g * g
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


# -- serialization ---------------------------------------------------------


def _config_block(model: AcousticModel) -> bytes:
    doc = {
        **asdict(model.cfg),
        "hidden": list(model.hidden),
        "subband": asdict(model.subband) if model.subband else None,
        "bn_eps": BN_EPS,
        "bn_momentum": BN_MOMENTUM,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def save_model(model: AcousticModel, path) -> None:
    blob = _config_block(model)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob)) + blob)
        for _, arr in model.param_entries():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path, expected_cfg: AnalysisConfig | None = None) -> AcousticModel:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 8 or data[:len(MAGIC)] != MAGIC:
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    version, blob_len = struct.unpack_from("<II", data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ModelFileError(f"{path}: unsupported model format version {version}")
    offset = len(MAGIC) + 8
    if offset + blob_len > len(data):
        raise ModelFileError(f"{path}: corrupt model file (truncated config)")
    try:
        doc = json.loads(data[offset:offset + blob_len])
        cfg = AnalysisConfig.from_doc(doc)
        hidden = tuple(doc["hidden"])
        if not all(type(h) is int and h > 0 for h in hidden):
            raise ValueError(f"hidden sizes must be positive ints, got {hidden}")
        sub = doc.get("subband")  # absent in older files: ungated
        gate = None if sub is None else SubbandGate(**sub)
        if gate is not None:
            gate.check_below_nyquist(cfg)
        if doc["bn_eps"] != BN_EPS:  # fold() and forward() divide by BN_EPS
            raise ValueError(f"bn_eps {doc['bn_eps']!r} is not {BN_EPS}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelFileError(f"{path}: corrupt model file (bad config: {exc})") from exc
    if expected_cfg is not None and cfg != expected_cfg:
        raise ModelFileError(f"{path}: model analysis config {cfg} does not "
                             f"match expected {expected_cfg}")
    # Size the file by its config before allocating anything: per GLU layer
    # two branches of weights, bias and four batch-norm vectors, around them
    # four normalization vectors, the lifter and the output projection.
    dims = (cfg.cep_dim,) + hidden
    n_params = (6 * cfg.cep_dim + cfg.cep_dim * dims[-1]
                + sum(2 * n_out * (n_in + 5) for n_in, n_out in zip(dims, dims[1:])))
    offset += blob_len
    expected = offset + 8 * n_params
    if len(data) != expected:
        problem = "truncated" if len(data) < expected else "trailing bytes"
        raise ModelFileError(f"{path}: corrupt model file ({problem}: {len(data)} "
                             f"bytes, its config implies {expected})")

    model = AcousticModel(cfg, hidden=hidden, seed=0)
    model.subband = gate
    for name, arr in model.param_entries():
        values = np.frombuffer(data, dtype="<f8", count=arr.size, offset=offset)
        if not np.isfinite(values).all():
            raise ModelFileError(f"{path}: corrupt model file (non-finite {name})")
        arr[...] = values.reshape(arr.shape)
        offset += values.nbytes
    return model
