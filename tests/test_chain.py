import numpy as np
import pytest

from liftervc import (AcousticModel, AnalysisConfig, Lifter, SubbandGate,
                      Waveform, chain_backward, chain_forward, real_cepstrum,
                      stft)
from liftervc.training import chain_gradients

from naive import full_spectrum, naive_chain_loss


def random_instance(cfg, rng, batch=3):
    wave = Waveform(rng.normal(size=cfg.hop * (batch + 4)) * 0.3,
                    cfg.sample_rate)
    spec_x = stft(wave, cfg)[:batch]
    cep_d = rng.normal(size=(batch, cfg.cep_dim)) * 0.3
    tgt = real_cepstrum(spec_x, cfg) + rng.normal(size=(batch, cfg.cep_dim)) * 0.3
    lifter = Lifter.minimum_phase(cfg).coeffs * rng.uniform(
        0.8, 1.2, cfg.cep_dim)
    return cep_d, lifter, spec_x, tgt


def test_forward_matches_naive_reimplementation(small_cfg, rng):
    cep_d, lifter, spec_x, tgt = random_instance(small_cfg, rng)
    for taps in (4, 16, small_cfg.fft_len):
        got = chain_forward(cep_d, lifter, spec_x, tgt, taps, small_cfg)
        want = naive_chain_loss(cep_d, lifter,
                                full_spectrum(spec_x, small_cfg.fft_len), tgt,
                                taps, small_cfg)
        assert np.isclose(got.loss, want, rtol=1e-10, atol=1e-12)


def test_forward_matches_naive_with_gate(small_cfg, rng):
    cep_d, lifter, spec_x, tgt = random_instance(small_cfg, rng)
    gate = SubbandGate(crossover_hz=3000.0, steepness_hz=400.0)
    for taps in (8, small_cfg.fft_len):
        got = chain_forward(cep_d, lifter, spec_x, tgt, taps, small_cfg,
                            gate=gate)
        want = naive_chain_loss(cep_d, lifter,
                                full_spectrum(spec_x, small_cfg.fft_len), tgt,
                                taps, small_cfg, gate=gate)
        assert np.isclose(got.loss, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("gate", [None, SubbandGate(crossover_hz=3000.0,
                                                    steepness_hz=400.0)])
def test_chain_forward_reads_only_the_half_spectrum(small_cfg, rng, gate):
    """A full fft_len-bin source spectrum and its first fft_len // 2 + 1
    bins give bit-identical estimates and losses."""
    cep_d, lifter, spec_x, tgt = random_instance(small_cfg, rng)
    full = full_spectrum(spec_x, small_cfg.fft_len)
    for taps in (8, small_cfg.fft_len):
        a = chain_forward(cep_d, lifter, full, tgt, taps, small_cfg, gate=gate)
        b = chain_forward(cep_d, lifter, full[:, :spec_x.shape[1]], tgt, taps,
                          small_cfg, gate=gate)
        assert np.array_equal(a.frame_losses, b.frame_losses)
        assert np.array_equal(a.cep_y, b.cep_y)


def test_full_length_chain_is_cepstrum_addition(small_cfg, rng):
    """With every tap kept and the minimum-phase lifter, the estimated target
    cepstrum is exactly source + differential."""
    cep_d, _, spec_x, tgt = random_instance(small_cfg, rng)
    lifter = Lifter.minimum_phase(small_cfg).coeffs
    res = chain_forward(cep_d, lifter, spec_x, tgt, small_cfg.fft_len,
                        small_cfg)
    cep_x = real_cepstrum(spec_x, small_cfg)
    assert np.allclose(res.cep_y, cep_x + cep_d, atol=1e-10)


def test_frame_losses_and_mean(small_cfg, rng):
    cep_d, lifter, spec_x, tgt = random_instance(small_cfg, rng, batch=4)
    res = chain_forward(cep_d, lifter, spec_x, tgt, 12, small_cfg)
    assert res.frame_losses.shape == (4,)
    assert np.isclose(res.loss, res.frame_losses.mean())
    want = (res.cep_y - tgt) ** 2
    assert np.allclose(res.frame_losses, want.sum(axis=1))


def test_chain_forward_validates(small_cfg, rng):
    cep_d, lifter, spec_x, tgt = random_instance(small_cfg, rng)
    with pytest.raises(ValueError):
        chain_forward(cep_d, lifter, spec_x, tgt, 0, small_cfg)
    with pytest.raises(ValueError):
        chain_forward(cep_d, lifter, spec_x, tgt, small_cfg.fft_len + 1,
                      small_cfg)
    with pytest.raises(ValueError):
        chain_forward(cep_d[:, :-1], lifter, spec_x, tgt, 8, small_cfg)
    with pytest.raises(ValueError):
        chain_forward(cep_d, lifter, spec_x[:, :-1], tgt, 8, small_cfg)


def fd_gradients(f, x, eps):
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        keep = flat_x[i]
        flat_x[i] = keep + eps
        up = f()
        flat_x[i] = keep - eps
        down = f()
        flat_x[i] = keep
        flat_g[i] = (up - down) / (2 * eps)
    return g


@pytest.mark.parametrize("gate", [None, SubbandGate(crossover_hz=2500.0,
                                                    steepness_hz=300.0)])
@pytest.mark.parametrize("taps", [6, 20, 64])
def test_chain_backward_matches_finite_differences(small_cfg, rng, taps, gate):
    cep_d, lifter, spec_x, tgt = random_instance(small_cfg, rng)

    def loss():
        return chain_forward(cep_d, lifter, spec_x, tgt, taps, small_cfg,
                             gate=gate).loss

    res = chain_forward(cep_d, lifter, spec_x, tgt, taps, small_cfg,
                        gate=gate)
    g_cep, g_lift = chain_backward(res, small_cfg)
    eps = 1e-6
    fd_cep = fd_gradients(loss, cep_d, eps)
    fd_lift = fd_gradients(loss, lifter, eps)
    assert np.allclose(g_cep, fd_cep, rtol=1e-5, atol=1e-8)
    assert np.allclose(g_lift, fd_lift, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("gate", [None, SubbandGate(crossover_hz=2500.0,
                                                    steepness_hz=300.0)])
def test_model_in_the_loop_gradients(small_cfg, rng, gate):
    """End-to-end: loss gradients w.r.t. model weights and lifter through the
    whole estimate-design-truncate-reanalyze chain, against finite
    differences of the same training-mode composition."""
    model = AcousticModel(small_cfg, hidden=(5, 4), seed=2)
    model.out_std[:] = rng.uniform(0.5, 1.5, small_cfg.cep_dim)
    model.subband = gate
    _, _, spec_x, tgt = random_instance(small_cfg, rng)
    cep_x = real_cepstrum(spec_x, small_cfg) * 2.0

    def loss():
        return chain_forward(model.forward(cep_x, train=True)[0],
                             model.lifter.coeffs, spec_x, tgt, 12, small_cfg,
                             gate=gate).loss

    res, grads = chain_gradients(model, cep_x, spec_x, tgt, 12)
    assert res.loss == loss()

    eps = 1e-6
    checked = 0
    for name, param in model.trainable_entries(include_lifter=True):
        flat = param.reshape(-1)
        g = grads[name].reshape(-1)
        for idx in (0, flat.size // 2, flat.size - 1):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss()
            flat[idx] = keep - eps
            down = loss()
            flat[idx] = keep
            fd = (up - down) / (2 * eps)
            assert np.isclose(g[idx], fd, rtol=2e-4, atol=1e-8), (name, idx)
            checked += 1
    assert checked >= 30

