import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftervc import (AnalysisConfig, Lifter, RunConfig, conversion_filters,
                      wav_read)
from liftervc.synthetic import (default_differential, make_corpus, make_pair,
                                make_pairs, resonance_cepstrum,
                                spectral_tilt_cepstrum, synth_source)

from naive import naive_real_cepstrum, textbook_synth_source

ROOT = Path(__file__).resolve().parent.parent


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


def rate_cfg(sample_rate):
    """25 ms windows at any rate; synth_source reads only the rate and the
    window length."""
    return AnalysisConfig(sample_rate=sample_rate, window_len=sample_rate // 40,
                          hop=sample_rate // 200, fft_len=2048)


@settings(max_examples=40, deadline=None)
@given(sample_rate=st.sampled_from([8000, 16000, 22050, 48000]),
       seed=st.integers(min_value=0, max_value=2**31),
       windows=st.floats(min_value=1.0, max_value=60.0),
       edge_silence_s=st.sampled_from([0.0, 0.05]))
def test_synth_source_matches_textbook_bit_for_bit(sample_rate, seed, windows,
                                                   edge_silence_s):
    """The harmonic sum taken one harmonic at a time gives the samples of the
    (n_harm, n) expression summed over its rows, for one window to 1.5 s."""
    cfg = rate_cfg(sample_rate)
    duration_s = windows / 40
    got = synth_source(cfg, duration_s, np.random.default_rng(seed),
                       edge_silence_s)
    want = textbook_synth_source(cfg, duration_s, np.random.default_rng(seed),
                                 edge_silence_s)
    assert np.array_equal(got.samples, want)


def traced_peak(fn):
    """Peak bytes that fn() allocates, counted by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_source_memory_is_a_few_outputs():
    """48 kHz, 10 s: the harmonics are never stacked, so the peak stays
    below ten times the output's bytes (a stack of 48 would be ~100)."""
    cfg = AnalysisConfig.for_rate(48000)
    out = []
    peak = traced_peak(lambda: out.append(
        synth_source(cfg, 10.0, np.random.default_rng(0))))
    assert peak < 10 * out[0].samples.nbytes


def test_make_corpus_holds_one_pair_at_a_time(tmp_path):
    """Each pair is written before the next is made: four times the training
    pairs raise the peak by less than one pair's samples."""
    cfg = AnalysisConfig.for_rate(48000)

    def corpus(n_train):
        return traced_peak(lambda: make_corpus(
            tmp_path / str(n_train), cfg=cfg, n_train=n_train, n_val=1,
            n_test=1, duration_s=1.0, seed=5, edge_silence_s=0.0))

    corpus(1)  # first-call allocations that later calls reuse
    pair_bytes = 2 * 48000 * np.dtype(np.float64).itemsize
    few = corpus(2)
    assert corpus(8) - few < pair_bytes


BAD_LENGTHS = [
    pytest.param(0.0, 0.0, "duration_s", id="zero-duration"),
    pytest.param(-1.0, 0.0, "duration_s", id="negative-duration"),
    pytest.param(1e-4, 0.0, "duration_s", id="under-one-window"),
    pytest.param(float("nan"), 0.0, "duration_s", id="nan-duration"),
    pytest.param(float("inf"), 0.0, "duration_s", id="inf-duration"),
    pytest.param(0.3, float("nan"), "edge_silence_s", id="nan-silence"),
    pytest.param(0.3, -0.1, "edge_silence_s", id="negative-silence"),
    pytest.param(0.3, float("inf"), "edge_silence_s", id="inf-silence"),
]


@pytest.mark.parametrize("duration_s, edge_silence_s, name", BAD_LENGTHS)
def test_generators_reject_bad_lengths(small_cfg, rng, tmp_path, duration_s,
                                       edge_silence_s, name):
    """Every generator names the bad argument before any sample is made."""
    delta = default_differential(small_cfg)
    calls = (
        lambda: synth_source(small_cfg, duration_s, rng, edge_silence_s),
        lambda: make_pair(small_cfg, delta, duration_s, rng, edge_silence_s),
        lambda: list(make_pairs(small_cfg, 2, duration_s, rng,
                                edge_silence_s=edge_silence_s)),
        lambda: make_corpus(tmp_path / "corpus", cfg=small_cfg, n_train=1,
                            n_val=1, n_test=1, duration_s=duration_s,
                            edge_silence_s=edge_silence_s),
    )
    for call in calls:
        with pytest.raises(ValueError, match=name):
            call()
    assert not (tmp_path / "corpus").exists()  # nothing left behind


def test_shortest_utterance_is_one_window(small_cfg, rng):
    wave = synth_source(small_cfg, small_cfg.window_len / small_cfg.sample_rate,
                        rng)
    assert len(wave) == small_cfg.window_len


def demo_corpus_script():
    spec = importlib.util.spec_from_file_location(
        "make_demo_corpus", ROOT / "scripts" / "make_demo_corpus.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_demo_corpus_script_reports_bad_duration(tmp_path, capsys):
    script = demo_corpus_script()
    out = tmp_path / "demo"
    assert script.main(["--duration", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: duration_s") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("n_train, n_val, n_test", [
    (0, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
], ids=["no-train", "negative-train", "negative-val", "negative-test"])
def test_make_corpus_rejects_bad_pair_counts(small_cfg, tmp_path, capsys,
                                             n_train, n_val, n_test):
    """No training pair, or a negative count for any split, is refused
    before out_dir is created, by make_corpus and by the script (exit 1,
    one line)."""
    with pytest.raises(ValueError, match="pair counts"):
        make_corpus(tmp_path / "corpus", cfg=small_cfg, n_train=n_train,
                    n_val=n_val, n_test=n_test, duration_s=0.1)
    assert not (tmp_path / "corpus").exists()
    out = tmp_path / "demo"
    argv = ["--n-train", str(n_train), "--n-val", str(n_val),
            "--n-test", str(n_test), "--duration", "0.05", "--out", str(out)]
    assert demo_corpus_script().main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair counts") and err.count("\n") == 1
    assert not out.exists()

