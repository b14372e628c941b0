import numpy as np
import pytest

from liftervc import (AnalysisConfig, Lifter, Waveform, real_cepstrum,
                      reconstruct_spectrum, stft)
from liftervc.cepstral import MAG_FLOOR, cepstrum_basis

from naive import full_spectrum, naive_real_cepstrum, naive_stft


def test_minimum_phase_lifter_values():
    cfg = AnalysisConfig(window_len=8, hop=4, fft_len=8, cep_dim=4)
    u = Lifter.minimum_phase(cfg).coeffs
    assert u.dtype == np.float64
    assert np.array_equal(u, [1, 2, 2, 2])


def test_lifter_for_config_truncates(small_cfg):
    u = Lifter.minimum_phase(small_cfg)
    assert u.coeffs.shape == (small_cfg.cep_dim,)
    assert u.coeffs[0] == 1.0
    assert np.all(u.coeffs[1:] == 2.0)


def test_lifter_validates_coeffs():
    with pytest.raises(ValueError):
        Lifter(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Lifter(np.ones((2, 2)))


def test_real_cepstrum_matches_naive(small_cfg, rng):
    # The second geometry has fft_len = 2 (mod 4) and the largest cep_dim
    # allowed, fft_len / 2.
    for cfg in (small_cfg, AnalysisConfig(window_len=50, hop=10, fft_len=66,
                                          cep_dim=33)):
        wave = Waveform(rng.normal(size=300) * 0.2, cfg.sample_rate)
        spec = stft(wave, cfg)
        got = real_cepstrum(spec, cfg)
        want = naive_real_cepstrum(full_spectrum(spec, cfg.fft_len), cfg)
        assert got.shape == (spec.shape[0], cfg.cep_dim)
        assert np.allclose(got, want, atol=1e-10), cfg


def test_cepstrum_basis_is_cached_and_read_only(small_cfg):
    basis = cepstrum_basis(small_cfg.fft_len, small_cfg.cep_dim)
    assert basis.shape == (small_cfg.bins, small_cfg.cep_dim)
    assert cepstrum_basis(small_cfg.fft_len, small_cfg.cep_dim) is basis
    with pytest.raises(ValueError):
        basis[0, 0] = 1.0
    with pytest.raises(ValueError):
        basis *= 2.0


@pytest.mark.parametrize("rate", [16000, 48000])
def test_real_cepstrum_of_stft_matches_naive_full_dft(rate, rng):
    """Half-spectrum analysis end to end against frames transformed over
    all fft_len bins by an explicit DFT."""
    cfg = AnalysisConfig.for_rate(rate)
    wave = Waveform(rng.normal(size=cfg.window_len) * 0.2, rate)
    got = real_cepstrum(stft(wave, cfg), cfg)
    want = naive_real_cepstrum(naive_stft(wave.samples, cfg), cfg)
    assert np.allclose(got, want, rtol=0, atol=1e-10)


def test_real_cepstrum_applies_floor(small_cfg):
    # all-zero spectrum: log(MAG_FLOOR) at every bin, cepstrum = [log F, 0...]
    spec = np.zeros((1, small_cfg.fft_len // 2 + 1), dtype=complex)
    cep = real_cepstrum(spec, small_cfg)
    assert np.isclose(cep[0, 0], np.log(MAG_FLOOR))
    assert np.allclose(cep[0, 1:], 0.0, atol=1e-12)


def test_real_cepstrum_checks_bins(small_cfg):
    n = small_cfg.fft_len
    for bins in (n // 2, n, n + 1):  # half spectra have n // 2 + 1 bins
        with pytest.raises(ValueError):
            real_cepstrum(np.zeros((3, bins)), small_cfg)


def test_reconstruct_known_log_spectrum(small_cfg):
    # cepstrum with only quefrency 0 set: flat gain exp(c0) at every bin
    cep = np.zeros(small_cfg.cep_dim)
    cep[0] = 0.7
    u = Lifter.minimum_phase(small_cfg).coeffs
    spec = reconstruct_spectrum(cep, u, small_cfg)
    assert spec.shape == (small_cfg.fft_len // 2 + 1,)
    assert np.allclose(spec, np.exp(0.7))


def test_reconstruct_preserves_magnitude(small_cfg, rng):
    """Minimum-phase reconstruction keeps the magnitude encoded in the
    cepstrum: re-analysis of the reconstructed spectrum gives the cepstrum
    back (for a cepstrum already limited to cep_dim < fft_len/2 quefrencies).
    """
    cep = rng.normal(size=small_cfg.cep_dim) * 0.2
    u = Lifter.minimum_phase(small_cfg).coeffs
    spec = reconstruct_spectrum(cep, u, small_cfg)
    again = real_cepstrum(spec[None, :], small_cfg)[0]
    assert np.allclose(again, cep, atol=1e-10)


def test_reconstruct_zero_cepstrum_is_identity(small_cfg):
    u = Lifter.minimum_phase(small_cfg).coeffs
    spec = reconstruct_spectrum(np.zeros(small_cfg.cep_dim), u, small_cfg)
    assert np.allclose(spec, 1.0)


def test_reconstruct_is_minimum_phase_causal(small_cfg, rng):
    # impulse response of exp(dft(causal cepstrum)) never precedes tap 0:
    # the first tap carries exp(c0) and the response is concentrated forward
    cep = rng.normal(size=small_cfg.cep_dim) * 0.1
    u = Lifter.minimum_phase(small_cfg).coeffs
    spec = reconstruct_spectrum(cep, u, small_cfg)
    h = np.fft.ifft(full_spectrum(spec, small_cfg.fft_len)).real
    assert np.isclose(h[0], np.exp(cep[0]), atol=1e-8)


def test_reconstruct_batched(small_cfg, rng):
    cep = rng.normal(size=(5, small_cfg.cep_dim)) * 0.1
    u = Lifter.minimum_phase(small_cfg).coeffs
    batch = reconstruct_spectrum(cep, u, small_cfg)
    for b in range(5):
        single = reconstruct_spectrum(cep[b], u, small_cfg)
        assert np.allclose(batch[b], single)


def test_reconstruct_checks_lengths(small_cfg):
    u = Lifter.minimum_phase(small_cfg).coeffs
    with pytest.raises(ValueError):
        reconstruct_spectrum(np.zeros(small_cfg.cep_dim + 1), u, small_cfg)
    with pytest.raises(ValueError):
        reconstruct_spectrum(np.zeros(small_cfg.cep_dim), u[:-1], small_cfg)
