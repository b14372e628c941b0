"""Self-tests of the benchmark's checks: each accepts the program's real
output and rejects a deliberately perturbed copy of it.

    PYTHONPATH=src python3 -m pytest benchmark -q
"""

from __future__ import annotations

import sys
import wave
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import liftervc as lv  # noqa: E402

import reference as ref  # noqa: E402
from reference import CheckError  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ConvertWorkload, Round, TrainWorkload  # noqa: E402


def _write_pcm(path, ints):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(np.asarray(ints, dtype="<i2").tobytes())


def test_check_close_rejects_small_error():
    x = np.linspace(-1, 1, 50)
    ref.check_close("x", x, x.copy(), 1e-12)
    y = x.copy()
    y[7] += 1e-6
    with pytest.raises(CheckError):
        ref.check_close("x", y, x, 1e-8)
    with pytest.raises(CheckError):
        ref.check_close("x", x[:-1], x, 1e-8)


def test_check_wav_rejects_changed_sample(tmp_path):
    y = np.sin(np.arange(400) / 7.0) * 0.5
    _write_pcm(tmp_path / "a.wav", ref.quantize(y))
    ref.check_wav("a", tmp_path / "a.wav", y)
    bad = ref.quantize(y)
    bad[100] += 3
    _write_pcm(tmp_path / "b.wav", bad)
    with pytest.raises(CheckError):
        ref.check_wav("b", tmp_path / "b.wav", y)
    _write_pcm(tmp_path / "c.wav", ref.quantize(y)[:-1])
    with pytest.raises(CheckError):
        ref.check_wav("c", tmp_path / "c.wav", y)


def test_check_dtw_path_rejects_bad_paths():
    rng = np.random.default_rng(0)
    src, tgt = rng.standard_normal((30, 5)), rng.standard_normal((24, 5))
    path = lv.dtw_align(src, tgt)
    ref.check_dtw_path(src, tgt, path)
    with pytest.raises(CheckError):
        ref.check_dtw_path(src, tgt, path[1:])           # endpoint not pinned
    with pytest.raises(CheckError):
        ref.check_dtw_path(src, tgt, path[:-1])
    backwards = path.copy()
    backwards[[5, 6]] = backwards[[6, 5]]
    with pytest.raises(CheckError):
        ref.check_dtw_path(src, tgt, backwards)          # non-monotone step
    edge = np.array([(i, 0) for i in range(30)] + [(29, j) for j in range(1, 24)])
    with pytest.raises(CheckError):
        ref.check_dtw_path(src, tgt, edge)               # costlier than diagonal


def test_check_loss_falls():
    ref.check_loss_falls("l", [1.0, 0.8, 0.7])
    with pytest.raises(CheckError):
        ref.check_loss_falls("l", [1.0, 0.8, 1.2])
    with pytest.raises(CheckError):
        ref.check_loss_falls("l", [1.0, float("nan")])


def test_check_cumulative_power():
    curve = np.cumsum(np.full(16, 1 / 16))
    ref.check_cumulative_power(curve, 16)
    dip = curve.copy()
    dip[5] = dip[3]
    with pytest.raises(CheckError):
        ref.check_cumulative_power(dip, 16)
    with pytest.raises(CheckError):
        ref.check_cumulative_power(curve * 0.99, 16)


def _tiny_training_set(cfg, seed=0):
    rng = np.random.default_rng(seed)
    pairs = lv.synthetic.make_pairs(cfg, 2, 0.3, rng)
    return lv.build_dataset(pairs, cfg, trim_db=None)


def test_check_eval_rejects_perturbed_report():
    cfg = lv.AnalysisConfig()
    data = _tiny_training_set(cfg)
    model = lv.AcousticModel(cfg, hidden=(16, 8), seed=1)
    report = lv.eval_rmse(model, data, 32)
    ref.check_eval(report, model, data, 32, cfg.fft_len)
    report.rmse *= 1 + 1e-6
    with pytest.raises(CheckError):
        ref.check_eval(report, model, data, 32, cfg.fft_len)
    report = lv.eval_rmse(model, data, 32)
    report.per_utterance = report.per_utterance[::-1] * 1.001
    with pytest.raises(CheckError):
        ref.check_eval(report, model, data, 32, cfg.fft_len)


def test_agreement_error_separates_filters():
    cfg = lv.AnalysisConfig()
    cep_d = lv.default_differential(cfg)
    h = ref.design_taps(cep_d, ref.min_phase_weights(cfg.cep_dim), cfg.fft_len, 32)[0]
    chain = lv.chain_forward(cep_d[None], lv.Lifter.minimum_phase(cfg).coeffs,
                             np.ones((1, cfg.fft_len)), np.zeros((1, cfg.cep_dim)),
                             32, cfg)
    response = np.concatenate([np.zeros(10), h, np.zeros(22)])
    assert ref.agreement_error(response, chain.cep_y[0], cfg.fft_len) < 1e-10
    response[15] += 0.05
    assert ref.agreement_error(response, chain.cep_y[0], cfg.fft_len) > 1e-3


@pytest.mark.parametrize("rate,gate", [(16000, None), (48000, lv.SubbandGate())])
def test_convert_round_checks(tmp_path, rate, gate):
    wl = ConvertWorkload(rate, (0.2, 0.35), gate)
    wl.setup(3, tmp_path)
    wl.prepare_checks()
    rnd = Round()
    wl.run_round(rnd)
    wl.check(rnd)
    assert rnd.attempted == 2 * 2 + 2
    # Only the gated short filter disagrees with the training chain.
    assert rnd.failed == (1 if gate is not None else 0)

    key = next(iter(rnd.outputs))
    samples, dst = rnd.outputs[key]
    perturbed = samples.copy()
    perturbed[len(perturbed) // 2] += 1e-5
    rnd.outputs[key] = (perturbed, dst)
    with pytest.raises(CheckError):
        wl.check(rnd)
    rnd.outputs[key] = (samples, dst)
    ints = ref.read_pcm(dst).copy()
    ints[10] += 2
    with wave.open(str(dst), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(ints.tobytes())
    with pytest.raises(CheckError):
        wl.check(rnd)


class _SmallTrain(TrainWorkload):
    N_PAIRS = {"train": 2, "val": 1, "test": 1}
    DURATION_S = 1.0


def test_train_round_checks(tmp_path):
    wl = _SmallTrain()
    wl.setup(4, tmp_path)
    rnd = Round()
    wl.run_round(rnd)
    wl.check(rnd)
    assert rnd.attempted == 5 + 2 * 4 and rnd.failed == 0

    out = rnd.outputs
    src, tgt, path = out["dtw"][0]
    out["dtw"][0] = (src, tgt, path[1:])
    with pytest.raises(CheckError):
        wl.check(rnd)
    out["dtw"][0] = (src, tgt, path)

    out["curve"] = out["curve"][::-1]
    with pytest.raises(CheckError):
        wl.check(rnd)


def test_tracer_self_time_and_restore():
    tracer = Tracer()
    tracer.run_id = 0
    outer = tracer.begin("op.x")
    inner = tracer.begin("spectral.stft")
    tracer.end(inner)
    tracer.end(outer)
    outer[1:3] = [0, 10_000_000_000]
    inner[1:3] = [2_000_000_000, 5_000_000_000]
    st = tracer.self_times(0)
    assert st == {"op.x": 7.0, "spectral.stft": 3.0}
    assert tracer.covered_s(0) == 3.0

    original = lv.runtime.stft
    tracer.install()
    assert lv.runtime.stft is not original and lv.align.stft is lv.runtime.stft
    cfg = lv.AnalysisConfig()
    tracer.run_id = 1
    lv.runtime.stft(lv.Waveform(np.zeros(800), 16000), cfg)
    tracer.uninstall()
    assert lv.runtime.stft is original
    assert tracer.counts_for(1) == {"spectral.stft_frames": 10}
