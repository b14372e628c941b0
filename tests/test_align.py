import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftervc import (AnalysisConfig, TrainingSet, Waveform, align_pair, dtw_align,
                      trim_silence)
from liftervc.align import alignment_features

from naive import brute_force_dtw_cost, dtw_cost, naive_dtw_path


def test_trim_keeps_loud_blocks(small_cfg):
    hop = small_cfg.hop
    loud = np.full(hop, 0.5)
    quiet = np.full(hop, 0.0001)
    wave = Waveform(np.concatenate([quiet, loud, quiet, loud]), 16000)
    out = trim_silence(wave, small_cfg, threshold_db=40.0)
    assert len(out) == 2 * hop
    assert np.allclose(out.samples, 0.5)


def test_trim_keeps_everything_within_threshold(small_cfg):
    wave = Waveform(np.full(small_cfg.hop * 3, 0.2), 16000)
    out = trim_silence(wave, small_cfg, threshold_db=40.0)
    assert np.array_equal(out.samples, wave.samples)


def test_trim_partial_last_block_uses_true_rms(small_cfg):
    hop = small_cfg.hop
    # last block has hop/4 loud samples; zero-padding must not dilute its RMS
    samples = np.concatenate([np.full(hop, 0.5), np.full(hop // 4, 0.5)])
    out = trim_silence(Waveform(samples, 16000), small_cfg, threshold_db=6.0)
    assert len(out) == samples.size


def test_trim_rejects_silence(small_cfg):
    with pytest.raises(ValueError):
        trim_silence(Waveform(np.zeros(400), 16000), small_cfg, 40.0)
    with pytest.raises(ValueError):
        trim_silence(Waveform(np.zeros(0), 16000), small_cfg, 40.0)


def test_alignment_features_drop_energy_and_zscore(rng):
    cep = rng.normal(size=(50, 8)) * 3.0 + 1.0
    feats = alignment_features(cep)
    assert feats.shape == (50, 7)
    assert np.allclose(feats.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(feats.std(axis=0), 1.0, atol=1e-10)
    # energy coefficient must not influence the features
    cep2 = cep.copy()
    cep2[:, 0] += rng.normal(size=50) * 10.0
    assert np.allclose(alignment_features(cep2), feats)


def test_dtw_identical_sequences_take_diagonal(rng):
    seq = rng.normal(size=(10, 3))
    path = dtw_align(seq, seq)
    want = np.stack([np.arange(10), np.arange(10)], axis=1)
    assert np.array_equal(path, want)


def test_dtw_endpoints_and_monotonicity(rng):
    src = rng.normal(size=(9, 4))
    tgt = rng.normal(size=(13, 4))
    path = dtw_align(src, tgt)
    assert tuple(path[0]) == (0, 0)
    assert tuple(path[-1]) == (8, 12)
    steps = np.diff(path, axis=0)
    assert np.all(steps >= 0)
    assert np.all(steps.max(axis=1) == 1)


def test_dtw_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        dtw_align(np.zeros((0, 3)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        dtw_align(np.zeros((4, 3)), np.zeros((4, 2)))


def test_dtw_cost_is_optimal_small_grids(rng):
    for _ in range(20):
        ts = rng.integers(1, 6)
        tt = rng.integers(1, 6)
        src = rng.normal(size=(ts, 2))
        tgt = rng.normal(size=(tt, 2))
        path = dtw_align(src, tgt)
        got = dtw_cost(src, tgt, path)
        want = brute_force_dtw_cost(src, tgt)
        assert np.isclose(got, want, rtol=1e-12), (ts, tt)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(1, 5),
       st.integers(1, 5))
def test_dtw_optimality_property(seed, ts, tt):
    r = np.random.default_rng(seed)
    src = r.normal(size=(ts, 3))
    tgt = r.normal(size=(tt, 3))
    path = dtw_align(src, tgt)
    assert np.isclose(dtw_cost(src, tgt, path),
                      brute_force_dtw_cost(src, tgt), rtol=1e-12)


def binary_features(ts, tt, dim):
    return st.tuples(*(st.lists(st.lists(st.integers(0, 1), min_size=dim,
                                         max_size=dim), min_size=n, max_size=n)
                       for n in (ts, tt)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3)),
    st.tuples(st.just(1), st.integers(1, 12), st.integers(1, 3)),
    st.tuples(st.integers(1, 12), st.just(1), st.integers(1, 3)),
).flatmap(lambda shape: binary_features(*shape)))
def test_dtw_path_matches_the_explicit_loop_with_ties(features):
    """0/1 features make exact ties common; the path, not only its cost,
    is the explicit-loop DP's, tie rule included (diagonal, then up, then
    left). Shapes include 1 x N, N x 1 and 1 x 1."""
    src, tgt = (np.array(f, dtype=np.float64) for f in features)
    assert np.array_equal(dtw_align(src, tgt), naive_dtw_path(src, tgt))


def test_dtw_holds_two_dense_matrices(rng):
    """The accumulator and the cross-product term are the only
    frame-by-frame arrays alive at once: traced peak under 2.2 matrices."""
    ts, tt = 600, 700
    src, tgt = rng.normal(size=(ts, 8)), rng.normal(size=(tt, 8))
    tracemalloc.start()
    try:
        dtw_align(src, tgt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * ts * tt * 8


def test_aligned_pair_validates_lengths(small_cfg):
    """Aligned frames are held by TrainingSet, which rejects frame arrays of
    unequal length."""
    c = small_cfg.cep_dim
    with pytest.raises(ValueError, match="equal length"):
        TrainingSet(np.zeros((3, c)), np.zeros((2, c)),
                    np.zeros(small_cfg.window_len), [0, 0, 0], [0, 3],
                    small_cfg)


def test_align_pair_time_shift(small_cfg, rng):
    """A target that is the source delayed by a few hops should align with
    the delayed content matched up."""
    burst = rng.normal(size=small_cfg.hop * 6) * 0.4
    pad = np.zeros(small_cfg.hop * 3)
    src = Waveform(np.concatenate([burst, pad]), small_cfg.sample_rate)
    tgt = Waveform(np.concatenate([pad, burst]), small_cfg.sample_rate)
    src_cep, tgt_cep, padded, starts = align_pair(src, tgt, small_cfg)
    assert len(src_cep) == len(tgt_cep) == len(starts)
    assert len(src_cep) >= max(len(src), len(tgt)) // small_cfg.hop
    assert src_cep.shape[1] == small_cfg.cep_dim
    # The source zero-padded to its analysis span, as stft frames it, and
    # each path step's frame start on the hop grid, in order.
    n_frames = stft_len_frames(src, small_cfg)
    assert padded.shape == ((n_frames - 1) * small_cfg.hop
                            + small_cfg.window_len,)
    assert np.array_equal(padded[:len(src)], src.samples)
    assert not padded[len(src):].any()
    assert (starts % small_cfg.hop == 0).all() and (np.diff(starts) >= 0).all()
    assert starts[0] == 0 and starts[-1] == (n_frames - 1) * small_cfg.hop
    # the warped sequences should be closer than an unwarped pairing
    n = min(stft_len_frames(src, small_cfg), stft_len_frames(tgt, small_cfg))
    from liftervc import real_cepstrum, stft
    cs = real_cepstrum(stft(src, small_cfg), small_cfg)
    ct = real_cepstrum(stft(tgt, small_cfg), small_cfg)
    unwarped = np.abs(cs[:n, 1:] - ct[:n, 1:]).mean()
    warped = np.abs(src_cep[:, 1:] - tgt_cep[:, 1:]).mean()
    assert warped < unwarped


def stft_len_frames(wave, cfg):
    from liftervc.spectral import frame_count
    return frame_count(len(wave), cfg.hop)
