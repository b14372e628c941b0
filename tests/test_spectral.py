import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftervc import AnalysisConfig, Waveform, ola_filter, spectral, stft
from liftervc.spectral import analysis_window, frame_count

from naive import full_spectrum, naive_ola


def trimmed_ola(wave, filters, cfg, delay=0):
    """ola_filter's output trimmed to the input: `delay` leading samples
    dropped, the rest from the tail, as `convert` trims it."""
    return ola_filter(wave.samples, filters, cfg)[delay:delay + len(wave)]


def test_waveform_rejects_non_finite():
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValueError):
        Waveform(np.array([[0.0, 1.0]]), 16000)


def test_waveform_duration():
    assert Waveform(np.zeros(8000), 16000).duration == 0.5


def test_frame_count_covers_all_samples():
    assert frame_count(1, 80) == 1
    assert frame_count(80, 80) == 1
    assert frame_count(81, 80) == 2
    assert frame_count(800, 80) == 10


def test_analysis_window_periodic_hann(small_cfg):
    w = analysis_window(small_cfg)
    assert w.shape == (small_cfg.window_len,)
    assert w[0] == 0.0
    # periodic: w[n] + w[n + L/2] == 1 for the raised cosine
    half = small_cfg.window_len // 2
    assert np.allclose(w[:half] + w[half:], 1.0)


def test_rectangular_window():
    cfg = AnalysisConfig(window_len=48, hop=16, fft_len=64, cep_dim=8,
                         window="rectangular")
    assert np.array_equal(analysis_window(cfg), np.ones(48))


def test_stft_shape_and_symmetry(small_cfg, rng):
    wave = Waveform(rng.normal(size=200) * 0.1, small_cfg.sample_rate)
    spec = stft(wave, small_cfg)
    assert spec.shape == (frame_count(200, small_cfg.hop),
                          small_cfg.fft_len // 2 + 1)
    # real input: the self-conjugate bins, DC and Nyquist, are real
    assert np.allclose(spec[:, [0, -1]].imag, 0.0, atol=1e-9)


def test_stft_first_frame_is_windowed_dft(small_cfg, rng):
    samples = rng.normal(size=small_cfg.window_len) * 0.1
    wave = Waveform(np.concatenate([samples, np.zeros(100)]),
                    small_cfg.sample_rate)
    spec = full_spectrum(stft(wave, small_cfg), small_cfg.fft_len)
    manual = np.fft.fft(samples * analysis_window(small_cfg),
                        n=small_cfg.fft_len)
    assert np.allclose(spec[0], manual, atol=1e-9)


def test_stft_rejects_rate_mismatch(small_cfg):
    with pytest.raises(ValueError):
        stft(Waveform(np.zeros(100), 8000), small_cfg)


def test_stft_rejects_empty(small_cfg):
    with pytest.raises(ValueError):
        stft(Waveform(np.zeros(0), small_cfg.sample_rate), small_cfg)


def test_ola_identity_impulse_filter(small_cfg, rng):
    wave = Waveform(rng.normal(size=150) * 0.1, small_cfg.sample_rate)
    n_frames = frame_count(len(wave), small_cfg.hop)
    filters = np.zeros((n_frames, 12))
    filters[:, 0] = 1.0
    out = trimmed_ola(wave, filters, small_cfg)
    assert np.allclose(out, wave.samples, atol=1e-12)


def test_ola_matches_naive_direct_and_fft(small_cfg, rng, monkeypatch):
    wave = Waveform(rng.normal(size=333) * 0.1, small_cfg.sample_rate)
    n_frames = frame_count(len(wave), small_cfg.hop)
    hop = small_cfg.hop
    # The FFT path adds each block in hop-length chunks: lengths around
    # whole numbers of hops exercise its partial last chunk.
    edges = [(taps, delay) for taps in (hop - 1, hop, hop + 1, 3 * hop + 1,
                                        small_cfg.fft_len)
             for delay in (0, taps // 2)]
    for taps, delay in [(7, 0), (20, 3), (64, 10)] + edges:
        filters = rng.normal(size=(n_frames, taps))
        want = naive_ola(wave.samples, filters, small_cfg.hop, delay)
        # The tap count picks the path: a threshold of fft_len forces the
        # direct one, a threshold of 0 the FFT one.
        for threshold in (small_cfg.fft_len, 0):
            monkeypatch.setattr(spectral, "FFT_CONV_THRESHOLD", threshold)
            got = trimmed_ola(wave, filters, small_cfg, delay)
            assert np.allclose(got, want, atol=1e-10), (
                taps, delay, threshold)


def test_fast_len_is_the_smallest_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 5001):
        want = n
        while not smooth(want):
            want += 1
        assert spectral.fast_len(n) == want, n


def test_ola_switches_path_at_the_threshold(rng):
    """At both production geometries, without forcing a path, filters of
    FFT_CONV_THRESHOLD taps (direct), one more (FFT) and full length (FFT
    at a length that is not a power of two: hop + fft_len - 1 = 591 -> 600
    points at 16 kHz, 2,287 -> 2,304 at 48 kHz) match the naive
    overlap-add."""
    for rate, fft_points in ((16000, 600), (48000, 2304)):
        cfg = AnalysisConfig.for_rate(rate)
        assert spectral.fast_len(cfg.hop + cfg.fft_len - 1) == fft_points
        wave = Waveform(rng.normal(size=12 * cfg.hop + 7) * 0.1, rate)
        n_frames = frame_count(len(wave), cfg.hop)
        for taps in (spectral.FFT_CONV_THRESHOLD,
                     spectral.FFT_CONV_THRESHOLD + 1, cfg.fft_len):
            filters = rng.normal(size=(n_frames, taps))
            for delay in (0, taps // 2):
                want = naive_ola(wave.samples, filters, cfg.hop, delay)
                got = trimmed_ola(wave, filters, cfg, delay)
                assert np.allclose(got, want, atol=1e-10), (
                    rate, taps, delay)


def test_ola_constant_filter_equals_convolution(small_cfg, rng):
    # all frames share one filter: OLA must equal plain convolution
    x = rng.normal(size=160)
    wave = Waveform(x, small_cfg.sample_rate)
    n_frames = frame_count(len(wave), small_cfg.hop)
    h = rng.normal(size=9)
    filters = np.tile(h, (n_frames, 1))
    out = ola_filter(x, filters, small_cfg)
    assert np.allclose(out, np.convolve(x, h), atol=1e-10)


def test_ola_validates_arguments(small_cfg, rng):
    x = rng.normal(size=100)
    n_frames = frame_count(x.size, small_cfg.hop)
    with pytest.raises(ValueError):
        ola_filter(x, np.ones((n_frames + 1, 4)), small_cfg)
    with pytest.raises(ValueError):
        ola_filter(x, np.ones((n_frames, small_cfg.fft_len + 1)), small_cfg)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ola_is_linear_in_the_input(data):
    cfg = AnalysisConfig(window_len=48, hop=16, fft_len=64, cep_dim=8)
    n = data.draw(st.integers(min_value=17, max_value=120))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    r = np.random.default_rng(seed)
    a = r.normal(size=n)
    b = r.normal(size=n)
    n_frames = frame_count(n, cfg.hop)
    filters = r.normal(size=(n_frames, 11))
    out_sum = ola_filter(a + b, filters, cfg)
    out_a = ola_filter(a, filters, cfg)
    out_b = ola_filter(b, filters, cfg)
    assert np.allclose(out_sum, out_a + out_b, atol=1e-9)
