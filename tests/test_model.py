import json

import numpy as np
import pytest

from liftervc import (AcousticModel, Adam, AnalysisConfig, SubbandGate,
                      constant_model, load_model, save_model)
from liftervc.model import (BN_MOMENTUM, FORMAT_VERSION, BatchNorm,
                            ModelFileError, sigmoid)
from liftervc.training import STD_FLOOR

from naive import (naive_model_forward, textbook_adam_step,
                   textbook_batchnorm_backward, textbook_batchnorm_forward,
                   textbook_glu_backward, textbook_glu_forward,
                   textbook_sigmoid)


def same(got, want):
    """Bit-identical: equal shapes, dtypes and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def test_sigmoid_saturates_without_overflow():
    with np.errstate(over="raise"):
        hi = sigmoid(np.array([1000.0]))[0]
        lo = sigmoid(np.array([-1000.0]))[0]
    assert hi == 1.0
    assert 0.0 <= lo < 1e-200
    assert np.isclose(sigmoid(np.array([0.0]))[0], 0.5)


def test_sigmoid_is_the_textbook_expression(rng):
    x = np.concatenate([rng.normal(scale=20.0, size=(50, 7)),
                        np.full((1, 7), 1000.0), np.full((1, 7), -1000.0)])
    assert same(sigmoid(x), textbook_sigmoid(x))
    assert same(sigmoid(x[:1]), textbook_sigmoid(x[:1]))


@pytest.mark.parametrize("batch", [1, 2, 37, 512])
def test_training_kernels_are_the_textbook_expressions(batch):
    """BatchNorm and GluLayer forward and backward, computed in place,
    match the textbook expressions of tests/naive.py bit for bit, running
    statistics included; a batch of 1 has zero variance."""
    rng = np.random.default_rng(batch)
    layer = AcousticModel(AnalysisConfig.for_rate(16000), hidden=(9, 5),
                          seed=batch).layers[0]
    for bn in (layer.bn_value, layer.bn_gate):
        bn.gamma[:] = rng.uniform(0.5, 1.5, bn.gamma.size)
        bn.beta[:] = rng.normal(size=bn.beta.size)
        bn.running_mean[:] = rng.normal(size=bn.beta.size)
    x = rng.normal(size=(batch, layer.w_value.shape[1])) * 2.0 + 0.5
    gout = rng.normal(size=(batch, layer.w_value.shape[0]))

    bn = layer.bn_value
    want_y, (want_xhat, want_inv), want_mean, want_var = textbook_batchnorm_forward(
        x[:, :9], bn.gamma, bn.beta, bn.running_mean, bn.running_var)
    y, (xhat, inv) = bn.forward(x[:, :9])
    assert all(map(same, (y, xhat, inv, bn.running_mean, bn.running_var),
                   (want_y, want_xhat, want_inv, want_mean, want_var)))
    got = bn.backward((xhat, inv), gout)
    want = textbook_batchnorm_backward(bn.gamma, xhat, inv, gout)
    assert all(map(same, got, want))

    want_out, want_value, want_gate = textbook_glu_forward(layer, x)
    out, cache = layer.forward(x)
    _, cache_v, cache_g, value, gate = cache
    assert same(out, want_out) and same(value, want_value) and same(gate, want_gate)
    gpre_v, gpre_g, grads = layer.backward(cache, gout)
    want_v, want_g, want_grads = textbook_glu_backward(
        layer, x, cache_v, cache_g, value, gate, gout)
    assert same(gpre_v, want_v) and same(gpre_g, want_g)
    assert grads.keys() == want_grads.keys()
    assert all(same(grads[k], want_grads[k]) for k in grads)


def test_adam_is_the_textbook_expression(rng):
    """Five in-place steps match the textbook update bit for bit, for a
    matrix, a vector and a one-element parameter."""
    params = [rng.normal(size=(4, 3)), rng.normal(size=6), rng.normal(size=1)]
    want = [(p.copy(), np.zeros_like(p), np.zeros_like(p)) for p in params]
    opt = Adam(params, lr=3e-3)
    for t in range(1, 6):
        grads = [rng.normal(size=p.shape) * 10.0 ** -t for p in params]
        opt.step(grads)
        want = [textbook_adam_step(p, g, m, v, t, 3e-3)
                for (p, m, v), g in zip(want, grads)]
        for p, m, v, (wp, wm, wv) in zip(params, opt.m, opt.v, want):
            assert same(p, wp) and same(m, wm) and same(v, wv)


def test_batchnorm_train_normalizes(rng):
    bn = BatchNorm(4)
    x = rng.normal(loc=3.0, scale=2.0, size=(64, 4))
    y, _ = bn.forward(x)
    assert np.allclose(y.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(y.std(axis=0), 1.0, atol=1e-3)
    # running stats moved toward the batch stats by one momentum step
    assert np.allclose(bn.running_mean, BN_MOMENTUM * x.mean(axis=0))
    assert np.allclose(bn.running_var,
                       1.0 + BN_MOMENTUM * (x.var(axis=0) - 1.0))


def test_model_forward_matches_naive(small_cfg, rng):
    """The folded inference forward against the unit-by-unit oracle, on a
    tiny model and at both production geometries, with a running variance
    at 0 (batch norm's epsilon alone) and an input feature whose std sits at
    the floor and whose value equals its mean; the production geometries
    agree to 1e-12."""
    for cfg, hidden in ((small_cfg, (6, 5)),
                        (AnalysisConfig.for_rate(16000), (280, 100)),
                        (AnalysisConfig.for_rate(48000), (840, 300))):
        c = cfg.cep_dim
        model = AcousticModel(cfg, hidden=hidden, seed=3)
        # make normalization and running stats nontrivial
        model.in_mean = rng.normal(size=c)
        model.in_std = rng.uniform(0.5, 2.0, c)
        model.in_std[1] = STD_FLOOR
        model.out_mean = rng.normal(size=c)
        model.out_std = rng.uniform(0.5, 2.0, c)
        for layer in model.layers:
            for bn in (layer.bn_value, layer.bn_gate):
                bn.running_mean[:] = rng.normal(size=bn.running_mean.size) * 0.3
                bn.running_var[:] = rng.uniform(0.5, 1.5, bn.running_var.size)
                bn.gamma[:] = rng.uniform(0.8, 1.2, bn.gamma.size)
                bn.beta[:] = rng.normal(size=bn.beta.size) * 0.1
        model.layers[0].bn_gate.running_var[2] = 0.0
        cep = rng.normal(size=(3, c))
        cep[:, 1] = model.in_mean[1]
        got = model.forward(cep)
        for row in range(3):
            want = naive_model_forward(model, cep[row])
            assert np.allclose(got[row], want, atol=1e-10), (cfg, row)
            # Folding rounds differently, by a few ulps; folding the floored
            # z-score as well would cancel terms of order 1e7 here.
            assert np.abs(got[row] - want).max() <= 1e-12, (cfg, row)


def test_model_forward_single_and_batch_agree(small_cfg, rng):
    model = AcousticModel(small_cfg, hidden=(6, 5), seed=0)
    ceps = rng.normal(size=(4, small_cfg.cep_dim))
    batch = model.forward(ceps)
    assert batch.shape == ceps.shape
    for b in range(4):
        assert np.allclose(model.forward(ceps[b]), batch[b])


def test_model_forward_checks_width(small_cfg):
    model = AcousticModel(small_cfg, hidden=(4, 3), seed=0)
    with pytest.raises(ValueError):
        model.forward(np.zeros(small_cfg.cep_dim + 2))


def test_model_init_bounds_and_zero_biases(small_cfg):
    model = AcousticModel(small_cfg, hidden=(16, 8), seed=9)
    dims = (small_cfg.cep_dim, 16, 8)
    for i, layer in enumerate(model.layers):
        bound = np.sqrt(1.0 / dims[i])
        for w in (layer.w_value, layer.w_gate):
            assert np.max(np.abs(w)) <= bound
        assert np.array_equal(layer.b_value, np.zeros(dims[i + 1]))
        assert np.array_equal(layer.b_gate, np.zeros(dims[i + 1]))
    assert np.max(np.abs(model.w_out)) <= np.sqrt(1.0 / dims[-1])
    assert np.array_equal(model.b_out, np.zeros(small_cfg.cep_dim))


def test_default_hidden_sizes():
    from liftervc import AnalysisConfig
    assert AcousticModel(AnalysisConfig.for_rate(16000)).hidden == (280, 100)
    assert AcousticModel(AnalysisConfig.for_rate(48000)).hidden == (840, 300)


def test_constant_model_emits_cep_d(small_cfg, rng):
    cep_d = rng.normal(size=small_cfg.cep_dim)
    model = constant_model(small_cfg, cep_d)
    x = rng.normal(size=(7, small_cfg.cep_dim)) * 5.0
    out = model.forward(x)
    assert np.allclose(out, cep_d[None, :], atol=1e-12)


@pytest.mark.parametrize("rate", [16000, 48000])
def test_constant_model_forward_is_exact(rate, rng):
    """At the default hidden sizes, the folded forward of a constant model
    returns its differential cepstrum bit for bit, for any input."""
    cfg = AnalysisConfig.for_rate(rate)
    cep_d = rng.normal(size=cfg.cep_dim)
    out = constant_model(cfg, cep_d).forward(rng.normal(size=(5, cfg.cep_dim)))
    assert out.tobytes() == np.tile(cep_d, (5, 1)).tobytes()


def test_model_backward_matches_finite_differences(small_cfg, rng):
    """Spot-check the analytic parameter gradients of a scalar readout of
    the model against central differences, in training mode."""
    model = AcousticModel(small_cfg, hidden=(5, 4), seed=7)
    x = rng.normal(size=(6, small_cfg.cep_dim))
    w = rng.normal(size=(6, small_cfg.cep_dim))  # fixed readout weights

    def loss(m):
        return float((m.forward(x, train=True)[0] * w).sum())

    out, cache = model.forward(x, train=True)
    grads = model.backward(cache, w)

    eps = 1e-6
    for name, param in model.trainable_entries():
        flat = param.reshape(-1)
        for idx in (0, flat.size // 2, flat.size - 1):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss(model)
            flat[idx] = keep - eps
            down = loss(model)
            flat[idx] = keep
            fd = (up - down) / (2 * eps)
            got = grads[name].reshape(-1)[idx]
            assert np.isclose(got, fd, rtol=1e-4, atol=1e-7), name


def test_adam_single_step_reference():
    # one step with g: m=0.1g, v=0.001g^2; bias correction makes the update
    # lr * g/|g| * 1/(1 + eps/|g|...) -- compute exactly
    p = np.array([1.0, -2.0])
    g = np.array([0.5, -0.25])
    opt = Adam([p], lr=0.01)
    opt.step([g])
    mhat = (0.1 * g) / (1 - 0.9)
    vhat = (0.001 * g * g) / (1 - 0.999)
    want = np.array([1.0, -2.0]) - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(p, want, rtol=1e-12)


def test_adam_updates_in_place_and_checks_shapes(rng):
    p = rng.normal(size=(3, 2))
    ref = p
    opt = Adam([p], lr=1e-3)
    opt.step([np.ones((3, 2))])
    assert p is ref
    with pytest.raises(ValueError):
        opt.step([np.ones((2, 3))])
    with pytest.raises(ValueError):
        opt.step([np.ones((3, 2)), np.ones(1)])


def test_adam_descends_quadratic(rng):
    p = np.array([5.0])
    opt = Adam([p], lr=0.1)
    for _ in range(300):
        opt.step([2.0 * p])
    assert abs(p[0]) < 1e-2


def test_save_load_roundtrip_bitexact(small_cfg, rng, tmp_path):
    model = AcousticModel(small_cfg, hidden=(6, 5), seed=11)
    model.in_mean = rng.normal(size=small_cfg.cep_dim)
    model.lifter.coeffs[:] = rng.normal(size=small_cfg.cep_dim)
    path = tmp_path / "m.lvc"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.hidden == model.hidden
    for (name_a, a), (name_b, b) in zip(model.param_entries(),
                                        loaded.param_entries()):
        assert name_a == name_b
        assert np.array_equal(a, b), name_a
    # save of the loaded model is byte-identical
    path2 = tmp_path / "m2.lvc"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def edit_config_block(path, edit) -> None:
    """Rewrite a model file's config block through edit(doc)."""
    raw = path.read_bytes()
    n = int.from_bytes(raw[12:16], "little")
    doc = json.loads(raw[16:16 + n])
    edit(doc)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:12] + len(blob).to_bytes(4, "little") + blob
                     + raw[16 + n:])


def test_save_load_roundtrip_keeps_the_gate(small_cfg, tmp_path):
    model = AcousticModel(small_cfg, hidden=(4, 3))
    model.subband = SubbandGate(crossover_hz=3000.0, steepness_hz=250.0)
    path, path2 = tmp_path / "m.lvc", tmp_path / "m2.lvc"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.subband == model.subband
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_without_subband_key_is_ungated(small_cfg, tmp_path):
    """Files written before the gate was stored have no "subband" key; they
    load ungated, which is how they were served by default."""
    path = tmp_path / "m.lvc"
    model = AcousticModel(small_cfg, hidden=(4, 3))
    save_model(model, path)
    assert b'"subband":null' in path.read_bytes()
    model.subband = SubbandGate(crossover_hz=3000.0)
    save_model(model, path)
    edit_config_block(path, lambda doc: doc.pop("subband"))
    assert load_model(path).subband is None


@pytest.mark.parametrize("changes,match", [
    ({"subband": {"crossover_hz": 3000.0, "steepness_hz": 200.0,
                  "enabled": True}}, "enabled"),
    ({"subband": {"crossover_hz": 0.0, "steepness_hz": 200.0}},
     "crossover must be positive"),
    ({"subband": {"crossover_hz": 8000.0, "steepness_hz": 200.0}}, "Nyquist"),
    ({"subband": {"crossover_hz": "3000", "steepness_hz": 200.0}},
     "SubbandGate.crossover_hz"),
    ({"fft_len": 64.0}, "AnalysisConfig.fft_len"),
    ({"hidden": [4, 0]}, "positive ints"),
    ({"hidden": [4, True]}, "positive ints"),
    ({"subband": {"crossover_hz": float("nan"), "steepness_hz": 200.0}},
     "SubbandGate.crossover_hz must be finite"),
    ({"bn_eps": 1e-3}, "bn_eps"),
])
def test_load_rejects_bad_config_values(small_cfg, tmp_path, changes, match):
    path = tmp_path / "m.lvc"
    save_model(AcousticModel(small_cfg, hidden=(4, 3)), path)
    edit_config_block(path, lambda doc: doc.update(changes))
    with pytest.raises(ModelFileError, match=match):
        load_model(path)


def test_load_rejects_bad_magic(small_cfg, tmp_path):
    path = tmp_path / "m.lvc"
    save_model(AcousticModel(small_cfg, hidden=(4, 3)), path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMODEL"
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFileError):
        load_model(path)


def test_load_rejects_bad_version(small_cfg, tmp_path):
    path = tmp_path / "m.lvc"
    save_model(AcousticModel(small_cfg, hidden=(4, 3)), path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (FORMAT_VERSION + 1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFileError):
        load_model(path)


def test_load_rejects_truncated_and_trailing(small_cfg, tmp_path):
    path = tmp_path / "m.lvc"
    save_model(AcousticModel(small_cfg, hidden=(4, 3)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ModelFileError, match="truncated"):
        load_model(path)
    path.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ModelFileError, match="trailing bytes"):
        load_model(path)


def test_load_sizes_the_file_before_allocating(small_cfg, tmp_path,
                                               monkeypatch):
    """A config block that claims huge layers is refused by the file size
    alone: the model, and so its (here about 8 TB of) parameters, is never
    constructed."""
    path = tmp_path / "m.lvc"
    save_model(AcousticModel(small_cfg, hidden=(4, 3)), path)
    edit_config_block(path, lambda doc: doc.update(hidden=[1000000, 1000000]))

    def no_model(*args, **kwargs):
        raise AssertionError("model constructed before the size check")
    monkeypatch.setattr("liftervc.model.AcousticModel", no_model)
    with pytest.raises(ModelFileError, match="truncated") as err:
        load_model(path)
    assert "\n" not in str(err.value)


def test_load_checks_expected_config(small_cfg, cfg16, tmp_path):
    path = tmp_path / "m.lvc"
    save_model(AcousticModel(small_cfg, hidden=(4, 3)), path)
    with pytest.raises(ModelFileError):
        load_model(path, expected_cfg=cfg16)
    load_model(path, expected_cfg=small_cfg)


def test_trainable_entries_names_and_order(small_cfg):
    """The optimizer's parameter list, in the order Adam state and the
    gradient-fidelity check rely on."""
    model = AcousticModel(small_cfg, hidden=(4, 3))
    layer = ["w_value", "b_value", "bn_value.gamma", "bn_value.beta",
             "w_gate", "b_gate", "bn_gate.gamma", "bn_gate.beta"]
    want = ([f"layers.0.{n}" for n in layer] + [f"layers.1.{n}" for n in layer]
            + ["w_out", "b_out"])
    assert [n for n, _ in model.trainable_entries()] == want
    entries = model.trainable_entries(include_lifter=True)
    assert [n for n, _ in entries] == want + ["lifter"]
    assert entries[0][1] is model.layers[0].w_value
    assert entries[-1][1] is model.lifter.coeffs


def test_load_rejects_non_finite_parameters(small_cfg, tmp_path):
    path = tmp_path / "m.lvc"
    model = AcousticModel(small_cfg, hidden=(4, 3))
    model.w_out[1, 2] = np.nan
    save_model(model, path)
    with pytest.raises(ModelFileError, match="non-finite w_out"):
        load_model(path)
