import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftervc import (MAG_FLOOR, AcousticModel, AnalysisConfig, Lifter,
                      SubbandGate, TrainingSet, Waveform, chain_forward,
                      constant_model, conversion_filters, convert,
                      cumulative_power, default_differential, eval_rmse,
                      power_threshold_tap, runtime, spectral)
from liftervc.spectral import FFT_CONV_THRESHOLD, frame_count
from liftervc.synthetic import build_sweep_data, make_pair, synth_source

from naive import naive_convert, naive_ola

# fft_len above FFT_CONV_THRESHOLD, so full-length filters take the FFT path.
ORACLE_CFG = AnalysisConfig(sample_rate=16000, window_len=96, hop=32,
                            fft_len=128, cep_dim=8)
ORACLE_GATE = SubbandGate(crossover_hz=3000.0, steepness_hz=300.0)
BLOCK = runtime.block_frames(ORACLE_CFG)


def random_model(cfg, seed):
    """A small network with nontrivial normalization and batch-norm
    statistics, so every frame gets its own filter."""
    rng = np.random.default_rng(seed)
    c = cfg.cep_dim
    model = AcousticModel(cfg, hidden=(4, 3), seed=seed)
    model.in_mean = rng.normal(size=c)
    model.in_std = rng.uniform(0.5, 2.0, c)
    model.out_mean = rng.normal(size=c) * 0.1
    model.out_std = rng.uniform(0.05, 0.2, c)
    for layer in model.layers:
        for bn in (layer.bn_value, layer.bn_gate):
            bn.running_mean[:] = rng.normal(size=bn.running_mean.size) * 0.3
            bn.running_var[:] = rng.uniform(0.5, 1.5, bn.running_var.size)
    return model


def cpus(monkeypatch, count):
    """Make convert see `count` CPUs, so it runs that many workers."""
    monkeypatch.setattr(runtime.os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def test_convert_zero_differential_is_identity(small_cfg, rng):
    model = constant_model(small_cfg, np.zeros(small_cfg.cep_dim))
    wave = synth_source(small_cfg, 0.3, rng)
    out = convert(wave, model)
    assert out.sample_rate == wave.sample_rate
    assert len(out) == len(wave)
    assert np.max(np.abs(out.samples - wave.samples)) < 1e-9


def test_convert_constant_gain(small_cfg, rng):
    cep_d = np.zeros(small_cfg.cep_dim)
    cep_d[0] = np.log(2.0)
    model = constant_model(small_cfg, cep_d)
    wave = synth_source(small_cfg, 0.3, rng)
    out = convert(wave, model, taps=8)
    assert np.allclose(out.samples, np.clip(2.0 * wave.samples, -1, 1),
                       atol=1e-9)


def test_convert_applies_known_filter(small_cfg, rng):
    delta = np.zeros(small_cfg.cep_dim)
    delta[1] = 0.4
    delta[3] = -0.2
    model = constant_model(small_cfg, delta)
    src, tgt = make_pair(small_cfg, delta, 0.3, rng)
    out = convert(src, model)  # full-length filters
    assert np.max(np.abs(out.samples - tgt.samples)) < 1e-9


def test_convert_truncation_matches_manual_ola(small_cfg, rng):
    delta = rng.normal(size=small_cfg.cep_dim) * 0.3
    model = constant_model(small_cfg, delta)
    wave = synth_source(small_cfg, 0.25, rng)
    taps = 12
    out = convert(wave, model, taps=taps)
    u = Lifter.minimum_phase(small_cfg).coeffs
    h = conversion_filters(delta, u, small_cfg, small_cfg.fft_len)[0][:taps]
    n_frames = frame_count(len(wave), small_cfg.hop)
    filters = np.tile(h, (n_frames, 1))
    want = naive_ola(wave.samples, filters, small_cfg.hop)
    assert np.allclose(out.samples, np.clip(want, -1, 1), atol=1e-10)
    # A numpy integer is a tap count like any other.
    assert np.array_equal(convert(wave, model, taps=np.int64(taps)).samples,
                          out.samples)


def test_convert_filters_each_block_through_ola_filter(monkeypatch, rng):
    """convert calls spectral.ola_filter once per block, positionally, with
    the block's own samples and one filter per frame: the call that a
    tracer wrapping ola_filter at every liftervc binding counts taps x
    len(samples) on."""
    cfg = ORACLE_CFG
    original, calls = spectral.ola_filter, []

    def wrapped(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name == "liftervc" or name.startswith("liftervc.")) and \
                getattr(mod, "ola_filter", None) is original:
            monkeypatch.setattr(mod, "ola_filter", wrapped)
    wave = Waveform(rng.normal(size=(2 * BLOCK + 5) * cfg.hop + 7) * 0.1,
                    cfg.sample_rate)
    convert(wave, random_model(cfg, 3), taps=12)
    assert len(calls) == 3
    for args, kwargs in calls:
        assert not kwargs and len(args) == 3
        samples, filters = args[0], args[1]
        assert isinstance(samples, np.ndarray) and filters.shape[1] == 12
        assert len(filters) == frame_count(len(samples), cfg.hop)
    assert sum(len(args[0]) for args, _ in calls) == len(wave)


def test_convert_rejects_rate_mismatch(small_cfg):
    model = constant_model(small_cfg, np.zeros(small_cfg.cep_dim))
    with pytest.raises(ValueError):
        convert(Waveform(np.zeros(100), 48000), model)


@pytest.mark.parametrize("taps", [0, 65, 32.0, True, np.True_])
def test_convert_and_eval_refuse_bad_taps(small_cfg, rng, taps):
    """A tap count outside 1..fft_len, a float or a bool is refused by
    convert and eval_rmse with the one tap-count message."""
    model = constant_model(small_cfg, np.zeros(small_cfg.cep_dim))
    _, val = build_sweep_data(small_cfg, 1, 1, 0.2, 1, np.zeros(small_cfg.cep_dim))
    message = r"^truncation length must be in 1\.\.64$"
    with pytest.raises(ValueError, match=message):
        convert(synth_source(small_cfg, 0.1, rng), model, taps=taps)
    with pytest.raises(ValueError, match=message):
        eval_rmse(model, val, taps)


def test_eval_rmse_matches_chain_loss(small_cfg, rng):
    delta = np.zeros(small_cfg.cep_dim)
    delta[1] = 0.5
    train, val = build_sweep_data(small_cfg, 2, 2, 0.4, 3, delta)
    model = constant_model(small_cfg, delta)
    report = eval_rmse(model, val, taps=10)
    assert report.n_frames == len(val)
    assert report.per_utterance.shape == (val.n_utterances,)
    chain = chain_forward(model.forward(val.src_cep), model.lifter.coeffs,
                          val.spectra(slice(None)), val.tgt_cep, 10,
                          small_cfg)
    want = np.sqrt(chain.loss)
    assert report.rmse == pytest.approx(want, rel=1e-12)
    # pooled rmse is the frame-weighted quadratic mean of per-utterance rmses
    counts = np.diff(val.offsets)
    pooled = np.sqrt((report.per_utterance ** 2 * counts).sum() / counts.sum())
    assert report.rmse == pytest.approx(pooled, rel=1e-12)


@pytest.mark.parametrize("gate", [None, SubbandGate(crossover_hz=3000.0,
                                                    steepness_hz=300.0)])
@pytest.mark.parametrize("taps", [8, 16, 64])
def test_convert_applies_the_filter_the_chain_scores(small_cfg, rng, taps,
                                                     gate):
    """Train/serve agreement: the magnitude cepstrum of the filter convert
    applies, measured as its response to a unit impulse, equals the chain's
    estimate for the same model on a flat source spectrum. convert and
    eval_rmse both serve the model's own gate."""
    n, c = small_cfg.fft_len, small_cfg.cep_dim
    model = constant_model(small_cfg, rng.normal(size=c) * 0.3)
    model.subband = gate
    amplitude = 1e-2  # keeps the response clear of the output clamp
    x = np.zeros(2 * n + small_cfg.hop)
    x[n] = amplitude
    impulse = Waveform(x, small_cfg.sample_rate)
    served = convert(impulse, model, taps=taps).samples
    assert np.array_equal(
        served, convert(impulse, model, taps=taps, gate=gate).samples)
    if gate is not None:
        ungated = model.copy()
        ungated.subband = None
        assert not np.array_equal(
            served, convert(impulse, ungated, taps=taps).samples)
    y = served / amplitude
    # Every applied tap lands within y[:2n] (the onset delay is at most n/4);
    # folding it onto n samples shifts the filter circularly, which leaves
    # its magnitude unchanged.
    response = y[:2 * n].reshape(2, n).sum(axis=0)
    mag = np.maximum(np.abs(np.fft.fft(response)), MAG_FLOOR)
    measured = np.fft.ifft(np.log(mag)).real[:c]
    chain = chain_forward(model.forward(np.zeros(c))[None], model.lifter.coeffs,
                          np.ones((1, n), complex), np.zeros((1, c)), taps,
                          small_cfg, gate=gate)
    assert np.max(np.abs(measured - chain.cep_y[0])) < 1e-10
    # A unit impulse where the Hann window is exactly 1 has a flat spectrum.
    pulse = np.zeros(small_cfg.window_len)
    pulse[small_cfg.window_len // 2] = 1.0
    flat = TrainingSet(np.zeros((1, c)), np.zeros((1, c)), pulse, [0], [0, 1],
                       small_cfg)
    assert np.allclose(np.abs(flat.spectra([0])), 1.0, rtol=0.0, atol=1e-15)
    scored = chain_forward(model.forward(np.zeros(c))[None], model.lifter.coeffs,
                           flat.spectra([0]), np.zeros((1, c)), taps,
                           small_cfg, gate=gate)
    assert eval_rmse(model, flat, taps).rmse == np.sqrt(scored.loss)
    assert np.sqrt(scored.loss) == pytest.approx(np.sqrt(chain.loss),
                                                 rel=1e-12)


def test_metrics_report_csv(tmp_path, small_cfg, rng):
    delta = np.zeros(small_cfg.cep_dim)
    train, val = build_sweep_data(small_cfg, 2, 2, 0.4, 3, delta)
    model = constant_model(small_cfg, delta)
    report = eval_rmse(model, val, taps=8)
    path = tmp_path / "metrics.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "utterance,rmse"
    assert lines[-1].startswith("all,")
    assert float(lines[-1].split(",")[1]) == pytest.approx(report.rmse)
    for u, line in enumerate(lines[1:-1]):
        label, value = line.split(",")
        assert label == str(u)
        assert float(value) == report.per_utterance[u]


def test_cumulative_power_shape_and_limits(small_cfg, rng):
    delta = rng.normal(size=small_cfg.cep_dim) * 0.2
    train, val = build_sweep_data(small_cfg, 2, 1, 0.3, 5, delta)
    model = constant_model(small_cfg, delta)
    curve = cumulative_power(model, val)
    assert curve.shape == (small_cfg.fft_len,)
    assert np.all(np.diff(curve) >= -1e-12)
    assert curve[-1] == pytest.approx(1.0)
    assert curve[0] > 0.0
    tap95 = power_threshold_tap(curve, 0.95)
    assert curve[tap95] >= 0.95
    assert tap95 == 0 or curve[tap95 - 1] < 0.95


def test_cumulative_power_counts_from_the_time_origin():
    """A gated filter's time origin sits `delay` taps in; counted from
    there, the gate leaves the 0.95 tap of the full-band default
    differential where the ungated filter has it. The curve is that of the
    model's own gate."""
    cfg = AnalysisConfig.for_rate(48000)
    model = constant_model(cfg, default_differential(cfg))
    data = TrainingSet(np.zeros((2, cfg.cep_dim)), np.zeros((2, cfg.cep_dim)),
                       np.zeros(cfg.window_len), [0, 0], [0, 2], cfg)
    ungated = cumulative_power(model, data)
    model.subband = SubbandGate()
    gated = cumulative_power(model, data)
    h, delay = conversion_filters(default_differential(cfg),
                                  model.lifter.coeffs, cfg, cfg.fft_len,
                                  SubbandGate())
    cum = np.cumsum(np.roll(h, -delay) ** 2)
    assert np.allclose(gated, cum / cum[-1], rtol=0.0, atol=1e-12)
    assert gated[-1] == pytest.approx(1.0)
    assert power_threshold_tap(gated, 0.95) == power_threshold_tap(ungated, 0.95)


@settings(max_examples=30, deadline=None)
@given(n=st.one_of(
           st.integers(1, 3 * BLOCK * ORACLE_CFG.hop + 1),
           st.builds(lambda k, d: k * BLOCK * ORACLE_CFG.hop + d,
                     st.integers(1, 3), st.sampled_from((-1, 0, 1)))),
       taps=st.sampled_from((1, 7, FFT_CONV_THRESHOLD, FFT_CONV_THRESHOLD + 1,
                             ORACLE_CFG.fft_len)),
       gated=st.booleans(), seed=st.integers(0, 2**31))
def test_convert_matches_the_per_frame_oracle(n, taps, gated, seed):
    """From one sample to several blocks, at exactly k blocks of frames and
    one sample either side, on both sides of FFT_CONV_THRESHOLD, gated and
    ungated: the blocked conversion equals frame-by-frame conversion."""
    model = random_model(ORACLE_CFG, seed % 1000)
    model.subband = ORACLE_GATE if gated else None
    x = np.random.default_rng(seed).normal(size=n) * 0.1
    got = convert(Waveform(x, ORACLE_CFG.sample_rate), model, taps=taps).samples
    want = naive_convert(x, model, taps, model.subband)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("taps", [16, ORACLE_CFG.fft_len])
def test_convert_is_bit_identical_across_worker_counts(monkeypatch, taps):
    model = random_model(ORACLE_CFG, 5)
    model.subband = ORACLE_GATE
    x = np.random.default_rng(5).normal(size=(4 * BLOCK + 3) * ORACLE_CFG.hop)
    wave = Waveform(x * 0.1, ORACLE_CFG.sample_rate)
    outputs = []
    for count in (1, 2, 3):
        cpus(monkeypatch, count)
        outputs.append(convert(wave, model, taps=taps).samples)
    assert all(np.array_equal(outputs[0], out) for out in outputs[1:])


def random_dataset(n, split, seed):
    """A dataset of n frames in two utterances, the second from frame
    split, with random cepstra and a random waveform framed at random
    starts."""
    r = np.random.default_rng(seed)
    c, hop = ORACLE_CFG.cep_dim, ORACLE_CFG.hop
    wave = r.normal(size=n * hop + ORACLE_CFG.window_len)
    return TrainingSet(r.normal(size=(n, c)), r.normal(size=(n, c)), wave,
                       r.integers(0, n * hop + 1, size=n), [0, split, n],
                       ORACLE_CFG)


def assert_scores_ignore_worker_count(monkeypatch, model, data):
    """frame_losses, plain and through the chain at 32 taps, eval_rmse and
    cumulative_power are bit-identical for 1, 2 and 3 workers."""
    scores = []
    for count in (1, 2, 3):
        cpus(monkeypatch, count)
        report = eval_rmse(model, data, 32)
        scores.append((runtime.frame_losses(model, data),
                       runtime.frame_losses(model, data, 32),
                       report.per_utterance, np.array(report.rmse),
                       cumulative_power(model, data)))
    for other in scores[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(scores[0], other))


@pytest.mark.parametrize("gated", [False, True])
def test_dataset_scores_are_bit_identical_across_worker_counts(monkeypatch,
                                                               gated):
    """The dataset scores split a dataset into the same blocks for any
    worker count, and cumulative_power sums the blocks in frame order."""
    model = random_model(ORACLE_CFG, 9)
    model.subband = ORACLE_GATE if gated else None
    assert_scores_ignore_worker_count(monkeypatch, model,
                                      random_dataset(3 * BLOCK + 5, BLOCK + 7, 9))


def test_block_frames_caps_the_spectrum_values_per_block(monkeypatch,
                                                         small_cfg):
    """A block holds as many frames as keep frames times fft_len within
    BLOCK_VALUES: 1,024 at fft_len 64, 512 at 128, 128 at 16 kHz (512) and
    32 at 48 kHz (2,048). The budget is read at call time, and a block has
    at least one frame."""
    cfgs = (small_cfg, ORACLE_CFG, AnalysisConfig.for_rate(16000),
            AnalysisConfig.for_rate(48000))
    assert [runtime.block_frames(cfg) for cfg in cfgs] == [1024, 512, 128, 32]
    monkeypatch.setattr(runtime, "BLOCK_VALUES", 7 * 2048 + 5)
    assert [runtime.block_frames(cfg) for cfg in cfgs] == [224, 112, 28, 7]
    monkeypatch.setattr(runtime, "BLOCK_VALUES", 1)
    assert [runtime.block_frames(cfg) for cfg in cfgs] == [1, 1, 1, 1]


@pytest.mark.parametrize("n", [1, 5 * 32, 5 * 32 + 1, 17 * 32 + 3])
@pytest.mark.parametrize("gated", [False, True])
def test_blocks_sized_by_the_spectrum_budget(monkeypatch, n, gated):
    """With the budget at 5 spectra of ORACLE_CFG, every pass runs in
    5-frame blocks: convert still equals the per-frame oracle, and its
    output and the dataset scores do not depend on the worker count."""
    monkeypatch.setattr(runtime, "BLOCK_VALUES", 5 * ORACLE_CFG.fft_len + 3)
    design, sizes = runtime.conversion_filters, []

    def recording(cep_d, *args, **kwargs):
        sizes.append(len(cep_d))
        return design(cep_d, *args, **kwargs)

    monkeypatch.setattr(runtime, "conversion_filters", recording)
    model = random_model(ORACLE_CFG, 11)
    model.subband = ORACLE_GATE if gated else None
    x = np.random.default_rng(n).normal(size=n) * 0.1
    wave = Waveform(x, ORACLE_CFG.sample_rate)
    outputs = []
    for count in (1, 2, 3):
        cpus(monkeypatch, count)
        outputs.append(convert(wave, model, taps=12).samples)
    n_frames = frame_count(n, ORACLE_CFG.hop)
    blocks = [min(5, n_frames - start) for start in range(0, n_frames, 5)]
    assert sorted(sizes) == sorted(3 * blocks)
    assert all(np.array_equal(outputs[0], out) for out in outputs[1:])
    want = naive_convert(x, model, 12, model.subband)
    assert np.max(np.abs(outputs[0] - want)) < 1e-12
    full = convert(wave, model).samples
    assert np.max(np.abs(full - naive_convert(x, model, ORACLE_CFG.fft_len,
                                              model.subband))) < 1e-12
    data = random_dataset(3 * 5 + 2, 7, n)
    assert_scores_ignore_worker_count(monkeypatch, model, data)
    sizes.clear()
    cumulative_power(model, data)
    assert sorted(sizes) == [2, 5, 5, 5]


def test_convert_without_affinity_call_uses_cpu_count(monkeypatch):
    """Where os.sched_getaffinity does not exist (macOS, Windows), convert
    sizes its pool by os.cpu_count(), or runs one worker when that is
    unknown, with the one-worker output."""
    model = random_model(ORACLE_CFG, 7)
    wave = Waveform(np.random.default_rng(7).normal(size=3 * BLOCK * 32) * 0.1,
                    ORACLE_CFG.sample_rate)
    cpus(monkeypatch, 1)
    want = convert(wave, model, taps=16).samples
    monkeypatch.delattr(runtime.os, "sched_getaffinity")
    for count in (2, None):
        monkeypatch.setattr(runtime.os, "cpu_count", lambda: count)
        assert np.array_equal(convert(wave, model, taps=16).samples, want)


@pytest.mark.parametrize("n_blocks,count", [(1, 2), (3, 1)])
def test_convert_runs_every_block_on_the_pool(monkeypatch, n_blocks, count):
    """A one-block conversion, and a several-block one on one CPU, still
    run their blocks on a worker thread, never on the calling thread."""
    cpus(monkeypatch, count)
    design, threads = runtime.conversion_filters, []

    def recording(cep_d, *args, **kwargs):
        threads.append(threading.get_ident())
        return design(cep_d, *args, **kwargs)

    monkeypatch.setattr(runtime, "conversion_filters", recording)
    model = random_model(ORACLE_CFG, 8)
    wave = Waveform(np.zeros(n_blocks * BLOCK * ORACLE_CFG.hop),
                    ORACLE_CFG.sample_rate)
    convert(wave, model, taps=16)
    assert len(threads) == n_blocks
    assert threading.get_ident() not in threads


def test_convert_leaves_no_thread_behind(monkeypatch):
    cpus(monkeypatch, 2)
    model = random_model(ORACLE_CFG, 6)
    wave = Waveform(np.random.default_rng(6).normal(size=5 * BLOCK * 32) * 0.1,
                    ORACLE_CFG.sample_rate)
    before = threading.active_count()
    convert(wave, model)
    assert threading.active_count() == before


class BlockFailure(Exception):
    pass


def test_convert_reraises_a_block_error(monkeypatch):
    """An error inside one block reaches the caller as itself, and the
    workers are gone when it does."""
    cpus(monkeypatch, 2)
    design = runtime.conversion_filters

    def failing(cep_d, *args, **kwargs):
        if len(cep_d) < BLOCK:  # the last, partial block
            raise BlockFailure("design failed in the last block")
        return design(cep_d, *args, **kwargs)

    monkeypatch.setattr(runtime, "conversion_filters", failing)
    model = random_model(ORACLE_CFG, 7)
    wave = Waveform(np.zeros((3 * BLOCK + 1) * ORACLE_CFG.hop),
                    ORACLE_CFG.sample_rate)
    before = threading.active_count()
    with pytest.raises(BlockFailure, match="^design failed in the last block$"):
        convert(wave, model)
    assert threading.active_count() == before


def test_convert_memory_is_bounded_by_the_block(monkeypatch):
    """Traced peak of a gated full-length 48 kHz conversion with two
    workers: under 24 MB for 16 s of audio (27.3 MB with 128-frame blocks),
    and under 40 bytes more per added input sample from 4 s to 16 s
    (whole-file conversion needed about 430)."""
    cpus(monkeypatch, 2)
    cfg = AnalysisConfig.for_rate(48000)
    model = constant_model(cfg, default_differential(cfg))
    model.subband = SubbandGate()
    rng = np.random.default_rng(8)
    peaks = {}
    for seconds in (4, 16):
        wave = Waveform(rng.uniform(-0.05, 0.05, seconds * cfg.sample_rate),
                        cfg.sample_rate)
        tracemalloc.start()
        try:
            convert(wave, model)
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] < 24e6
    assert (peaks[16] - peaks[4]) / (12 * cfg.sample_rate) < 40.0
