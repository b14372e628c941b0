import numpy as np
import pytest

from liftervc import (AnalysisConfig, Lifter, SubbandGate, Waveform,
                      conversion_filters, default_differential, design_filter,
                      design_filter_adjoint, ola_filter, real_cepstrum,
                      reconstruct_spectrum, stft)
from liftervc.filters import gate_weights
from liftervc.spectral import frame_count

from naive import naive_design, naive_gate_weights


def full_filter(cep, u, cfg, gate=None):
    """design_filter at full length, from a cepstrum."""
    return design_filter(reconstruct_spectrum(cep, u, cfg), cfg, cfg.fft_len,
                         gate)


def test_design_zero_cepstrum_is_unit_impulse(small_cfg):
    u = Lifter.minimum_phase(small_cfg).coeffs
    h, delay = full_filter(np.zeros(small_cfg.cep_dim), u, small_cfg)
    assert delay == 0
    want = np.zeros(small_cfg.fft_len)
    want[0] = 1.0
    assert np.allclose(h, want, atol=1e-12)


def test_design_filter_batched(small_cfg, rng):
    u = Lifter.minimum_phase(small_cfg).coeffs
    cep = rng.normal(size=(4, small_cfg.cep_dim)) * 0.2
    batch, _ = full_filter(cep, u, small_cfg)
    assert batch.shape == (4, small_cfg.fft_len)
    for b in range(4):
        assert np.allclose(batch[b], full_filter(cep[b], u, small_cfg)[0])


def test_full_length_filter_reproduces_target_cepstrum(small_cfg, rng):
    """Analysis consistency: filtering a frame's spectrum with the full
    designed filter shifts its cepstrum by exactly the differential."""
    u = Lifter.minimum_phase(small_cfg).coeffs
    cep_d = rng.normal(size=small_cfg.cep_dim) * 0.3
    wave = Waveform(rng.normal(size=200) * 0.2, small_cfg.sample_rate)
    spec_x = stft(wave, small_cfg)
    cep_x = real_cepstrum(spec_x, small_cfg)
    h, _ = full_filter(cep_d, u, small_cfg)
    spec_y = spec_x * np.fft.rfft(h)
    cep_y = real_cepstrum(spec_y, small_cfg)
    assert np.allclose(cep_y, cep_x + cep_d, atol=1e-9)


def test_gate_weights_formula(small_cfg):
    gate = SubbandGate(crossover_hz=4000.0, steepness_hz=500.0)
    got = gate_weights(gate, small_cfg)
    # one weight per half-spectrum bin: the oracle's lower half
    want = naive_gate_weights(4000.0, 500.0, small_cfg)
    assert got.shape == (small_cfg.fft_len // 2 + 1,)
    assert np.allclose(got, want[:got.size], atol=1e-12)
    # exactly 0.5 where bin frequency hits the crossover
    k_cross = int(4000.0 * small_cfg.fft_len / small_cfg.sample_rate)
    assert np.isclose(got[k_cross], 0.5)


def test_gate_weight_limits(small_cfg):
    g = gate_weights(SubbandGate(crossover_hz=4000.0, steepness_hz=50.0),
                     small_cfg)
    assert g[0] > 0.999999
    half = small_cfg.fft_len // 2
    assert g[half] < 1e-6


def test_gate_validation():
    with pytest.raises(ValueError):
        SubbandGate(crossover_hz=0.0)
    with pytest.raises(ValueError):
        SubbandGate(steepness_hz=-1.0)


def test_gate_crossover_must_be_below_nyquist(small_cfg):
    with pytest.raises(ValueError):
        gate_weights(SubbandGate(crossover_hz=8000.0), small_cfg)


def test_conversion_filters_ungated_no_delay(small_cfg, rng):
    u = Lifter.minimum_phase(small_cfg).coeffs
    cep = rng.normal(size=(3, small_cfg.cep_dim)) * 0.2
    filt, delay = conversion_filters(cep, u, small_cfg, taps=16)
    assert delay == 0
    assert filt.shape == (3, 16)
    assert np.allclose(filt, full_filter(cep, u, small_cfg)[0][:, :16])


def test_conversion_filters_gated_delay_compensates(small_cfg, rng):
    """The gated spectrum has a slightly acausal kernel. Realized with the
    onset delay and matching overlap-add compensation, filtering a signal
    with a zero differential must still return the signal itself."""
    u = Lifter.minimum_phase(small_cfg).coeffs
    gate = SubbandGate(crossover_hz=2000.0, steepness_hz=200.0)
    x = rng.normal(size=400) * 0.3
    n_frames = frame_count(x.size, small_cfg.hop)
    cep = np.zeros((n_frames, small_cfg.cep_dim))
    filt, delay = conversion_filters(cep, u, small_cfg,
                                     taps=small_cfg.fft_len, gate=gate)
    assert delay > 0
    out = ola_filter(x, filt, small_cfg)[delay:delay + x.size]
    assert np.max(np.abs(out - x)) < 1e-10


def test_gated_full_filter_matches_gated_spectrum(small_cfg, rng):
    u = Lifter.minimum_phase(small_cfg).coeffs
    cep = rng.normal(size=small_cfg.cep_dim) * 0.2
    gate = SubbandGate(crossover_hz=3000.0, steepness_hz=300.0)
    h, delay = full_filter(cep, u, small_cfg, gate)
    # At full length the onset rotation is circular: undoing it recovers
    # the gated spectrum.
    assert delay == small_cfg.fft_len // 4
    spec = reconstruct_spectrum(cep, u, small_cfg)
    want = 1.0 + gate_weights(gate, small_cfg) * (spec - 1.0)
    assert np.allclose(np.fft.rfft(np.roll(h, -delay)), want, atol=1e-9)


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("rate", [16000, 48000])
def test_conversion_filters_match_naive_full_length_design(rng, rate, gated):
    """The half-spectrum design against a design over all fft_len bins by
    explicit DFTs, at both standard rates, short and full length."""
    cfg = AnalysisConfig.for_rate(rate)
    gate = None
    if gated:
        gate = SubbandGate() if rate == 48000 else SubbandGate(4000.0, 300.0)
    u = Lifter.minimum_phase(cfg).coeffs
    cep = np.vstack([default_differential(cfg),
                     rng.normal(size=cfg.cep_dim) * 0.2])
    for taps in (32, cfg.fft_len):
        got, _ = conversion_filters(cep, u, cfg, taps, gate)
        for b in range(cep.shape[0]):
            want = naive_design(cep[b], u, cfg, taps, gate)
            assert np.allclose(got[b], want, rtol=0, atol=1e-12), (b, taps)


def test_design_rejects_wrong_bin_count(small_cfg):
    n = small_cfg.fft_len
    for bins in (n // 2, n):  # half spectra have n // 2 + 1 bins
        with pytest.raises(ValueError):
            design_filter(np.ones((2, bins), complex), small_cfg, 8)
    for taps in (0, n + 1):
        with pytest.raises(ValueError, match="truncation length"):
            design_filter(np.ones((2, small_cfg.bins), complex), small_cfg,
                          taps)
        with pytest.raises(ValueError):
            design_filter_adjoint(np.ones((2, taps)), small_cfg)

