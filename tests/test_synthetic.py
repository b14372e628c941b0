import json

import numpy as np
import pytest

from liftervc import (AnalysisConfig, Lifter, RunConfig, conversion_filters,
                      wav_read)
from liftervc.synthetic import (default_differential, make_corpus, make_pair,
                                resonance_cepstrum, spectral_tilt_cepstrum,
                                synth_source)

from naive import naive_real_cepstrum


def test_resonance_cepstrum_is_pole_pair_log_spectrum(small_cfg):
    """c[n] = r^n cos(2 pi f/sr n)/n is the cepstrum of the double pole
    1/((1-r e^{j a} z^-1)(1-r e^{-j a} z^-1)): verify against the analytic
    log magnitude evaluated on the DFT grid (the cepstrum is effectively
    support-limited for moderate r, so cep_dim truncation is negligible)."""
    cfg = AnalysisConfig(window_len=48, hop=16, fft_len=64, cep_dim=32)
    freq, radius = 2000.0, 0.6
    cep = resonance_cepstrum(cfg, freq, radius)
    u = Lifter.minimum_phase(cfg).coeffs[:cfg.cep_dim]
    padded = np.zeros(cfg.fft_len)
    padded[:cfg.cep_dim] = cep * u
    log_spec = np.fft.fft(padded).real
    w = 2.0 * np.pi * np.arange(cfg.fft_len) / cfg.fft_len
    a = 2.0 * np.pi * freq / cfg.sample_rate
    denom = (np.abs(1.0 - radius * np.exp(1j * (a - w)))
             * np.abs(1.0 - radius * np.exp(-1j * (a + w))))
    assert np.allclose(log_spec, -np.log(denom), atol=1e-6)


def test_resonance_cepstrum_validates(small_cfg):
    with pytest.raises(ValueError):
        resonance_cepstrum(small_cfg, 1000.0, 1.0)
    with pytest.raises(ValueError):
        resonance_cepstrum(small_cfg, 1000.0, 0.0)
    with pytest.raises(ValueError):
        resonance_cepstrum(small_cfg, small_cfg.sample_rate / 2, 0.5)


def test_spectral_tilt_combines_poles_and_zeros(small_cfg):
    p = resonance_cepstrum(small_cfg, 1000.0, 0.7)
    z = resonance_cepstrum(small_cfg, 3000.0, 0.5)
    combined = spectral_tilt_cepstrum(small_cfg, poles=((1000.0, 0.7),),
                                      zeros=((3000.0, 0.5),), gain=2.0)
    assert np.allclose(combined, p - z + np.where(np.arange(small_cfg.cep_dim) == 0,
                                                  np.log(2.0), 0.0))


def test_default_differential_is_nontrivial(cfg16):
    delta = default_differential(cfg16)
    assert delta.shape == (cfg16.cep_dim,)
    assert np.abs(delta[1:]).max() > 0.05
    u = Lifter.minimum_phase(cfg16).coeffs
    h, _ = conversion_filters(delta, u, cfg16, cfg16.fft_len)
    energy = h * h
    cum = np.cumsum(energy) / energy.sum()
    # ringing survives 32-tap truncation but not 128
    assert cum[31] < 0.995
    assert cum[127] > 0.9999


def test_synth_source_properties(cfg16, rng):
    wave = synth_source(cfg16, 0.5, rng)
    assert len(wave) == 8000
    assert np.max(np.abs(wave.samples)) == pytest.approx(0.35)
    padded = synth_source(cfg16, 0.5, rng, edge_silence_s=0.1)
    assert len(padded) == 8000 + 2 * 1600
    assert np.all(padded.samples[:1600] == 0.0)
    assert np.all(padded.samples[-1600:] == 0.0)


def test_make_pair_target_is_filtered_source(cfg16, rng):
    delta = default_differential(cfg16)
    src, tgt = make_pair(cfg16, delta, 0.4, rng)
    assert len(src) == len(tgt)
    assert max(np.max(np.abs(src.samples)), np.max(np.abs(tgt.samples))) \
        == pytest.approx(0.95)
    # same filtering applied manually reproduces the target
    u = Lifter.minimum_phase(cfg16).coeffs
    h, _ = conversion_filters(delta, u, cfg16, cfg16.fft_len)
    want = np.convolve(src.samples, h)[:len(src)]
    assert np.allclose(tgt.samples, want, atol=1e-12)


def test_make_corpus_layout(tmp_path, rng):
    cfg = AnalysisConfig(window_len=48, hop=16, fft_len=64, cep_dim=8)
    run = make_corpus(tmp_path, cfg=cfg, n_train=2, n_val=1, n_test=1,
                      duration_s=0.3, seed=7)
    doc = json.loads((tmp_path / "config.json").read_text())
    assert doc["analysis"]["fft_len"] == 64
    assert {split: len(pairs) for split, pairs in run.data.items()} == {
        "train": 2, "val": 1, "test": 1}
    for src_path, tgt_path in sum(run.data.values(), []):
        src = wav_read(src_path)
        tgt = wav_read(tgt_path)
        assert len(src) == len(tgt)
        assert src.sample_rate == cfg.sample_rate
    # config round trip points at existing files
    again = RunConfig.from_json(tmp_path / "config.json")
    assert again.analysis == cfg


def test_make_corpus_config_round_trips(tmp_path):
    """The config.json make_corpus writes loads back equal to the run it
    returns, and writing that back reproduces the file byte for byte."""
    cfg = AnalysisConfig(window_len=48, hop=16, fft_len=64, cep_dim=8)
    run = make_corpus(tmp_path, cfg=cfg, n_train=1, n_val=1, n_test=1,
                      duration_s=0.2, seed=3)
    path = tmp_path / "config.json"
    written = path.read_bytes()
    again = RunConfig.from_json(path)
    assert again == run
    again.to_json(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == written
    assert json.loads(written)["subband"] is None
