"""Acceptance gate: one test per headline property of the toolkit.

Each test prints a single PASS/FAIL line with the measured quantities so a
plain `pytest tests/test_acceptance.py -q` run doubles as a scorecard. The
synthetic tap sweep is shared by the three tests that read it; everything
here runs on one CPU.
"""

import dataclasses
import time

import numpy as np
import pytest

from liftervc import (AcousticModel, AnalysisConfig, SubbandGate, TrainConfig,
                      TrainingSet, Waveform, chain_forward, constant_model,
                      convert, cumulative_power, default_differential,
                      frame_losses, load_model, ola_filter,
                      power_threshold_tap, pretrain_conventional,
                      real_cepstrum, run_tap_sweep, save_model, spectral, stft,
                      train_lifter)
from liftervc.spectral import frame_count
from liftervc.training import chain_gradients
from liftervc.synthetic import build_sweep_data

from naive import full_spectrum, naive_chain_loss
from test_training import written_losses

SWEEP_TAPS = (32, 48, 64, 128)


def report(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}  {label}: {detail}")


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    result = run_tap_sweep(taps=SWEEP_TAPS)
    return result, time.perf_counter() - t0


def random_chain_instance(i: int):
    """Desk-scale random problem: config, model, a few analysis frames and
    a random target, with the gate enabled on every third instance; last,
    the waveform whose first three stft frames the spectra are."""
    rng = np.random.default_rng(1000 + i)
    fft_len = int(rng.integers(8, 33)) * 2
    window = fft_len - 2 * int(rng.integers(0, fft_len // 8))
    hop = max(1, window // int(rng.integers(2, 5)))
    cep = int(rng.integers(4, min(8, fft_len // 2) + 1))
    cfg = AnalysisConfig(16000, window_len=window, hop=hop,
                         fft_len=fft_len, cep_dim=cep)

    wave = Waveform(rng.normal(size=cfg.window_len + 6 * cfg.hop) * 0.3,
                    cfg.sample_rate)
    half = stft(wave, cfg)[:3]
    spec_x = full_spectrum(half, fft_len)
    cep_x = real_cepstrum(half, cfg) * 2.0
    tgt = real_cepstrum(half, cfg) + rng.normal(size=(3, cep)) * 0.3

    model = AcousticModel(cfg, hidden=(5, 4) if i % 2 else (6, 3), seed=i)
    model.out_std[:] = rng.uniform(0.5, 1.5, cep)
    model.out_mean[:] = rng.normal(size=cep) * 0.1
    model.lifter.coeffs[:] *= rng.uniform(0.8, 1.2, cep)

    taps = int(rng.integers(2, fft_len + 1))
    gate = None
    if i % 3 == 0:
        gate = SubbandGate(crossover_hz=float(rng.uniform(1600, 4800)),
                           steepness_hz=float(rng.uniform(150, 600)))
    model.subband = gate
    return rng, cfg, model, cep_x, spec_x, tgt, taps, gate, wave


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 1e-8 else 0.0


def test_gradient_fidelity(capsys):
    """Hand-rolled backward pass vs central finite differences, for the
    lifter and every model parameter, over 100 random instances."""
    t0 = time.perf_counter()
    eps, tol = 1e-5, 1e-4
    worst, n_instances, n_checks = 0.0, 100, 0

    for i in range(n_instances):
        rng, cfg, model, cep_x, spec_x, tgt, taps, gate, _ = \
            random_chain_instance(i)
        entries = model.trainable_entries(include_lifter=True)
        params = [p for _, p in entries]
        saved = [p.copy() for p in params]

        def loss():
            return chain_forward(model.forward(cep_x, train=True)[0],
                                 model.lifter.coeffs, spec_x, tgt, taps, cfg,
                                 gate=gate).loss

        _, grads = chain_gradients(model, cep_x, spec_x, tgt, taps)
        gvec = np.concatenate([grads[name].reshape(-1) for name, _ in entries])

        def shift(vec, scale):
            off = 0
            for p, p0 in zip(params, saved):
                n = p.size
                p.reshape(-1)[:] = p0.reshape(-1) + scale * vec[off:off + n]
                off += n

        # full-gradient check along random directions through every
        # parameter simultaneously
        accepted = 0
        for _ in range(8):
            if accepted == 2:
                break
            v = rng.normal(size=gvec.size)
            v /= np.linalg.norm(v)
            analytic = float(v @ gvec)
            if abs(analytic) < 1e-6 * np.linalg.norm(gvec):
                continue
            shift(v, +eps)
            up = loss()
            shift(v, -eps)
            down = loss()
            shift(v, 0.0)
            worst = max(worst, rel_err(analytic, (up - down) / (2 * eps)))
            accepted += 1
            n_checks += 1
        assert accepted == 2

        # per-parameter check at each array's strongest coordinate
        for (name, param), p0 in zip(entries, saved):
            g = grads[name].reshape(-1)
            idx = int(np.argmax(np.abs(g)))
            flat = param.reshape(-1)
            flat[idx] = p0.reshape(-1)[idx] + eps
            up = loss()
            flat[idx] = p0.reshape(-1)[idx] - eps
            down = loss()
            flat[idx] = p0.reshape(-1)[idx]
            fd = (up - down) / (2 * eps)
            if max(abs(g[idx]), abs(fd)) < 1e-9:
                continue
            worst = max(worst, rel_err(float(g[idx]), fd))
            n_checks += 1

    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < 60.0
    report(capsys, ok, "gradient fidelity",
           f"{n_instances} instances, {n_checks} gradient checks, worst "
           f"relative error {worst:.3g} (< {tol:g}), {elapsed:.1f} s")
    assert worst < tol
    assert elapsed < 60.0


def test_naive_oracle_equivalence(capsys):
    """Production chain loss vs an independent quadratic-time DFT
    reimplementation, on raw inputs and through the model."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(40):
        rng, cfg, model, cep_x, spec_x, tgt, taps, gate, wave = \
            random_chain_instance(200 + i)
        if i % 2:
            got = chain_forward(model.forward(cep_x), model.lifter.coeffs,
                                spec_x, tgt, taps, cfg, gate=gate).loss
            cep_d = model.forward(cep_x)
        else:
            # The set frames the waveform itself; its spectra are spec_x's
            # half, bit for bit.
            data = TrainingSet(cep_x, tgt, wave.samples, cfg.hop * np.arange(3),
                               [0, len(tgt)], cfg)
            assert (data.spectra(slice(None)).tobytes()
                    == spec_x[:, :cfg.bins].tobytes())
            got = frame_losses(model, data, taps).mean()
            cep_d = model.forward(cep_x)
        want = naive_chain_loss(cep_d, model.lifter.coeffs, spec_x, tgt,
                                taps, cfg, gate=gate)
        worst = max(worst, abs(got - want))

    # two instances at production scale
    cfg = AnalysisConfig.for_rate(16000)
    rng = np.random.default_rng(7)
    wave = Waveform(rng.normal(size=cfg.window_len + 4 * cfg.hop) * 0.3,
                    cfg.sample_rate)
    spec_x = stft(wave, cfg)[:2]
    tgt = real_cepstrum(spec_x, cfg) + rng.normal(size=(2, cfg.cep_dim)) * 0.2
    model = constant_model(cfg, default_differential(cfg))
    cep_x = real_cepstrum(spec_x, cfg)
    data = TrainingSet(cep_x, tgt, wave.samples, cfg.hop * np.arange(2),
                       [0, 2], cfg)
    assert data.spectra(slice(None)).tobytes() == spec_x.tobytes()
    for taps in (32, cfg.fft_len):
        got = frame_losses(model, data, taps).mean()
        want = naive_chain_loss(model.forward(cep_x), model.lifter.coeffs,
                                full_spectrum(spec_x, cfg.fft_len), tgt, taps,
                                cfg)
        worst = max(worst, abs(got - want))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8
    report(capsys, ok, "oracle equivalence",
           f"42 instances, worst |loss difference| {worst:.3g} (< 1e-8), "
           f"{elapsed:.1f} s")
    assert ok


def test_sweep_trained_beats_fixed(capsys, sweep):
    """Fine-tuning model and lifter through the truncation chain must beat
    the fixed minimum-phase lifter at every tap count, with the win growing
    as taps shrink."""
    result, elapsed = sweep
    wins = {l: result.trained_rmse[l] < result.fixed_rmse[l]
            for l in SWEEP_TAPS}
    widening = result.gap(32) > result.gap(128)
    ok = all(wins.values()) and widening and elapsed <= 1800.0
    detail = ", ".join(
        f"l={l}: {result.fixed_rmse[l]:.4f}->{result.trained_rmse[l]:.4f}"
        for l in SWEEP_TAPS)
    report(capsys, ok, "trained lifter beats fixed at every tap count",
           f"{detail}; gap(32)={result.gap(32):.4f} > "
           f"gap(128)={result.gap(128):.4f}; {elapsed / 60:.1f} min")
    for l in SWEEP_TAPS:
        assert wins[l], (l, result.fixed_rmse[l], result.trained_rmse[l])
    assert widening
    assert elapsed <= 1800.0


def test_short_tap_accuracy_matches_untruncated(capsys, sweep):
    """1/16 of the filter taps must cost at most 5% accuracy relative to the
    untruncated pretrained system."""
    result, _ = sweep
    ratio = result.trained_rmse[32] / result.baseline_rmse
    ok = ratio <= 1.05
    report(capsys, ok, "32-tap accuracy vs untruncated",
           f"trained rmse {result.trained_rmse[32]:.4f} vs baseline "
           f"{result.baseline_rmse:.4f}, ratio {ratio:.3f} (<= 1.05)")
    assert ok


def test_filter_power_concentration(capsys, sweep):
    """Energy of the designed full-length filters must concentrate in the
    early taps: 95% within the first 128 of 512."""
    result, _ = sweep
    curve = cumulative_power(result.pretrained, result.val_data)
    tap95 = power_threshold_tap(curve, 0.95)
    ok = tap95 <= 128
    report(capsys, ok, "filter power concentration",
           f"cumulative power reaches 0.95 at tap {tap95} (<= 128, "
           f"0.99 at tap {power_threshold_tap(curve, 0.99)})")
    assert ok


def test_subband_identity(capsys):
    """Gated conversion must pass a purely high-band 48 kHz signal through
    almost untouched, and a zero differential with no gate must be identity."""
    cfg = AnalysisConfig.for_rate(48000)
    rng = np.random.default_rng(5)
    sr = cfg.sample_rate
    n = int(1.2 * sr)
    t = np.arange(n) / sr
    sig = np.zeros(n)
    for f in (9500.0, 11500.0, 14000.0, 17500.0, 21000.0):
        sig += np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    m = int(0.05 * sr)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(m) / m)
    sig[:m] *= ramp
    sig[-m:] *= ramp[::-1]
    sig *= 0.4 / np.max(np.abs(sig))
    wave = Waveform(sig, sr)

    model = constant_model(cfg, default_differential(cfg))
    out = convert(wave, model, gate=SubbandGate())
    rms = float(np.sqrt(np.mean(sig * sig)))
    gated_change = float(np.sqrt(np.mean((out.samples - sig) ** 2))) / rms

    identity = constant_model(cfg, np.zeros(cfg.cep_dim))
    out_id = convert(wave, identity)
    id_change = float(np.sqrt(np.mean((out_id.samples - sig) ** 2))) / rms

    ok = gated_change < 0.005 and id_change < 1e-6
    report(capsys, ok, "sub-band identity",
           f"gated high-band change {gated_change * 100:.4f}% RMS (< 0.5%), "
           f"zero-differential change {id_change:.3g} RMS (< 1e-6)")
    assert gated_change < 0.005
    assert id_change < 1e-6


def time_ola(cfg, taps, duration_s: float, repeats: int) -> np.ndarray:
    """Median wall time of filtering a waveform per tap count (ola_filter,
    the trim to the input length and its Waveform), after one warm-up call,
    on seed-0 uniform noise; each count filters with a contiguous prefix of
    the same standard-normal full-length filters."""
    rng = np.random.default_rng(0)
    n = int(round(duration_s * cfg.sample_rate))
    wave = Waveform(rng.uniform(-0.5, 0.5, n), cfg.sample_rate)
    full = rng.standard_normal((frame_count(n, cfg.hop), cfg.fft_len)) * 0.05

    def filtered(filters):
        return Waveform(ola_filter(wave.samples, filters, cfg)[:n].copy(),
                        cfg.sample_rate)

    medians = []
    for l in taps:
        filters = np.ascontiguousarray(full[:, :l])
        filtered(filters)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            filtered(filters)
            samples.append(time.perf_counter_ns() - t0)
        medians.append(np.median(samples) / 1e9)
    return np.array(medians)


def test_filtering_speed_scales_with_taps(capsys, monkeypatch):
    """Direct-path filtering cost must grow linearly with tap count and the
    32-tap filter must be at least 8x faster than the full 512."""
    cfg = AnalysisConfig.for_rate(16000)
    monkeypatch.setattr(spectral, "FFT_CONV_THRESHOLD", cfg.fft_len)
    t0 = time.perf_counter()
    taps = [32, 64, 128, 256, 512]
    y = time_ola(cfg, taps, duration_s=10.0, repeats=3)
    elapsed = time.perf_counter() - t0

    x = np.array(taps, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    r2 = 1.0 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    speedup32 = y[taps.index(512)] / y[taps.index(32)]

    ok = r2 > 0.95 and speedup32 >= 8.0 and elapsed < 120.0
    report(capsys, ok, "filtering speed scales with taps",
           f"linear fit R^2 {r2:.4f} (> 0.95), 32-tap speedup "
           f"{speedup32:.1f}x (>= 8x), timing {elapsed:.1f} s")
    assert r2 > 0.95
    assert speedup32 >= 8.0
    assert elapsed < 120.0


def test_determinism(capsys, tmp_path):
    """Same seed, same loss logs byte for byte; model files survive a
    save/load/save round trip bit-exactly."""
    cfg = AnalysisConfig(window_len=48, hop=16, fft_len=64, cep_dim=8)
    train, val = build_sweep_data(cfg, 2, 1, 0.4, seed=9, delta_cep=None)
    pre_cfg = TrainConfig(taps=cfg.fft_len, pretrain_lr=1e-3,
                          finetune_lr=1e-4, batch_size=128, epochs=4, seed=5)
    ft_cfg = dataclasses.replace(pre_cfg, taps=12, epochs=3)

    def one_run():
        model = AcousticModel(cfg, hidden=(8, 6), seed=5)
        pre = pretrain_conventional(model, train, pre_cfg, val)
        ft = train_lifter(model, train, ft_cfg, val)
        return model, pre, ft

    m1, pre1, ft1 = one_run()
    m2, pre2, ft2 = one_run()
    logs_equal = all(
        written_losses(a, tmp_path / f"{name}1.csv")
        == written_losses(b, tmp_path / f"{name}2.csv")
        for name, a, b in (("pre", pre1, pre2), ("ft", ft1, ft2)))
    params_equal = all(
        a.tobytes() == b.tobytes()
        for (_, a), (_, b) in zip(m1.param_entries(), m2.param_entries()))

    path1, path2 = tmp_path / "a.lvc", tmp_path / "b.lvc"
    save_model(m1, path1)
    loaded = load_model(path1, cfg)
    save_model(loaded, path2)
    roundtrip_exact = (
        path1.read_bytes() == path2.read_bytes()
        and all(a.tobytes() == b.tobytes()
                for (_, a), (_, b) in zip(m1.param_entries(),
                                          loaded.param_entries())))

    ok = logs_equal and params_equal and roundtrip_exact
    report(capsys, ok, "determinism",
           f"same-seed loss logs identical: {logs_equal}, parameters "
           f"identical: {params_equal}, save/load bit-exact: {roundtrip_exact}")
    assert logs_equal
    assert params_equal
    assert roundtrip_exact
