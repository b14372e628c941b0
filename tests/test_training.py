import csv
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from liftervc import (AcousticModel, AnalysisConfig, Lifter, TrainConfig,
                      TrainingSet, constant_model, cumulative_power,
                      eval_rmse, frame_losses, pretrain_conventional,
                      save_model, train_lifter)
from liftervc import runtime
from liftervc.align import alignment_features, dtw_align, trim_silence
from liftervc.cepstral import real_cepstrum
from liftervc.cli import main as cli
from liftervc.dataset import build_dataset
from liftervc.training import EpochRow, TrainLog, set_normalization
from liftervc.spectral import stft
from liftervc.synthetic import make_pairs

from naive import full_spectrum, naive_stft


def written_losses(log, path) -> list:
    """A log as to_csv writes it, without the wall-clock column (timings vary
    from run to run; everything else is reproducible bit for bit)."""
    log.to_csv(path)
    with open(path, newline="") as fh:
        return [row[:-1] for row in csv.reader(fh)]


def tiny_dataset(cfg, rng, n_pairs=3, duration_s=0.6, delta=None):
    if delta is None:
        delta = np.zeros(cfg.cep_dim)
        delta[0] = 0.4
        delta[2] = -0.25
    pairs = make_pairs(cfg, n_pairs, duration_s, rng, delta)
    return build_dataset(pairs, cfg, trim_db=None), delta


def test_dataset_structure(small_cfg, rng):
    data, _ = tiny_dataset(small_cfg, rng)
    assert data.n_utterances == 3
    assert np.all(np.diff(data.offsets) > 0)
    assert data.offsets[-1] == len(data)
    assert data.src_cep.shape[1] == small_cfg.cep_dim
    assert data.src_wave.ndim == 1 and data.frame_start.shape == (len(data),)
    assert data.spectra([0, 1]).shape == (2, small_cfg.bins)


def test_dataset_save_load_roundtrip(small_cfg, rng, tmp_path):
    data, _ = tiny_dataset(small_cfg, rng)
    path = tmp_path / "d.npz"
    data.save(path, small_cfg)
    loaded, meta = TrainingSet.load(path)
    assert meta == small_cfg
    assert np.array_equal(loaded.src_cep, data.src_cep)
    assert np.array_equal(loaded.src_wave, data.src_wave)
    assert np.array_equal(loaded.frame_start, data.frame_start)
    assert np.array_equal(loaded.offsets, data.offsets)
    assert loaded.cfg == small_cfg
    with pytest.raises(ValueError):
        TrainingSet.load(path, AnalysisConfig.for_rate(16000))


def test_package_never_needs_full_width_spectra(small_cfg, rng, tmp_path,
                                                monkeypatch):
    """Build, save, load, both training stages, eval and cumpow all run on
    the stored waveform and frame starts: the derived, allocating src_spec is
    never read."""
    def refuse(self):
        raise AssertionError("TrainingSet.src_spec was read")

    monkeypatch.setattr(TrainingSet, "src_spec", property(refuse))
    data, _ = tiny_dataset(small_cfg, rng)
    data.save(tmp_path / "d.npz", small_cfg)
    loaded, _ = TrainingSet.load(tmp_path / "d.npz", small_cfg)
    model = AcousticModel(small_cfg, hidden=(4, 3), seed=0)
    cfg = TrainConfig(taps=8, pretrain_lr=1e-3, finetune_lr=1e-4,
                      batch_size=64, epochs=1, seed=0)
    pretrain_conventional(model, loaded, cfg, loaded)
    train_lifter(model, loaded, cfg, loaded)
    eval_rmse(model, loaded, cfg.taps)
    cumulative_power(model, loaded)


def test_src_spec_is_the_mirrored_half(small_cfg, rng):
    """The derived full-width spectra, bit for bit, are the oracle's mirror
    of the half spectra, also across src_spec's blocks of rows."""
    data, _ = tiny_dataset(small_cfg, rng)
    full = data.src_spec
    assert full.shape == (len(data), small_cfg.fft_len)
    assert full.tobytes() == full_spectrum(data.spectra(slice(None)),
                                           small_cfg.fft_len).tobytes()
    assert len(data) % 256 and len(data) > 2 * 256  # a partial last block


def test_spectra_are_the_trimmed_sources_stft_rows(small_cfg):
    """spectra(rows) is, bit for bit, stft of each trimmed source at the
    rows its DTW path visits, whatever rows a batch asks for, and the
    oracle's per-frame DFT within 1e-12."""
    rng = np.random.default_rng(5)
    pairs = list(make_pairs(small_cfg, 3, 0.5, rng, edge_silence_s=0.05))
    data = build_dataset(pairs, small_cfg, trim_db=30.0)
    rows, oracle = [], []
    for src, tgt in pairs:
        src, tgt = (trim_silence(w, small_cfg, 30.0) for w in (src, tgt))
        spec = stft(src, small_cfg)
        path = dtw_align(alignment_features(real_cepstrum(spec, small_cfg)),
                         alignment_features(real_cepstrum(stft(tgt, small_cfg),
                                                          small_cfg)))
        rows.append(spec[path[:, 0]])
        oracle.append(naive_stft(src.samples, small_cfg)[path[:, 0]])
    want = np.concatenate(rows)
    assert data.spectra(slice(None)).tobytes() == want.tobytes()
    idx = np.random.default_rng(6).permutation(len(data))[:37]
    assert data.spectra(idx).tobytes() == want[idx].tobytes()
    got = full_spectrum(data.spectra(slice(None)), small_cfg.fft_len)
    assert np.max(np.abs(got - np.concatenate(oracle))) < 1e-12


def test_dataset_memory_and_file_size(tmp_path):
    """4 pairs of 4 s at 16 kHz: storing the source waveform and one frame
    start per path step, not spectra, keeps the .npz under 1,500 bytes a
    frame (half spectra took 4,752), build_dataset's traced peak within
    16 MiB (29.1 MiB with half spectra) and load's within 6 MiB (15.3)."""
    cfg = AnalysisConfig.for_rate(16000)
    waves = list(make_pairs(cfg, 4, 4.0, np.random.default_rng(0)))
    tracemalloc.start()
    try:
        data = build_dataset(waves, cfg, trim_db=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data.save(tmp_path / "d.npz", cfg)
    del data
    tracemalloc.start()
    try:
        loaded, _ = TrainingSet.load(tmp_path / "d.npz", cfg)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "d.npz").stat().st_size < 1500 * len(loaded)
    assert peak <= 16 * 2 ** 20
    assert load_peak <= 6 * 2 ** 20


def test_full_width_dataset_is_refused(small_cfg, rng, tmp_path, capsys):
    """An .npz that stores full-width src_spec, as older versions wrote, is
    refused with one line that says to re-run prep (test_cli covers the
    half-width src_half of the version after)."""
    data, _ = tiny_dataset(small_cfg, rng)
    path = tmp_path / "old.npz"
    np.savez(path, src_cep=data.src_cep, tgt_cep=data.tgt_cep,
             src_spec=data.src_spec, offsets=data.offsets,
             meta=np.array(json.dumps(asdict(small_cfg))))
    with pytest.raises(ValueError, match="prep"):
        TrainingSet.load(path)
    save_model(AcousticModel(small_cfg, hidden=(4, 3)), tmp_path / "m.lvc")
    code = cli(["eval", "--model", str(tmp_path / "m.lvc"), "--pairs", str(path)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and "prep" in err
    assert err.count("\n") == 1


def test_dataset_validates_offsets(small_cfg, rng):
    data, _ = tiny_dataset(small_cfg, rng)
    arrays = (data.src_cep, data.tgt_cep, data.src_wave, data.frame_start)
    with pytest.raises(ValueError):
        TrainingSet(*arrays, offsets=np.array([1, len(data)]), cfg=small_cfg)
    # Decreasing offsets, and an utterance with no frames.
    for offsets in ([0, 55, 50, len(data)], [0, 50, 50, len(data)]):
        with pytest.raises(ValueError, match="every utterance needs frames"):
            TrainingSet(*arrays, offsets=np.array(offsets), cfg=small_cfg)
    with pytest.raises(ValueError, match="no utterance pairs"):
        build_dataset([], small_cfg, trim_db=None)


def test_set_normalization_statistics(small_cfg, rng):
    data, _ = tiny_dataset(small_cfg, rng)
    model = AcousticModel(small_cfg, hidden=(4, 3), seed=0)
    set_normalization(model, data)
    assert np.allclose(model.in_mean, data.src_cep.mean(axis=0))
    diff = data.tgt_cep - data.src_cep
    assert np.allclose(model.out_mean, diff.mean(axis=0))
    assert np.all(model.in_std > 0)
    assert np.all(model.out_std > 0)


def test_cepstral_loss_of_perfect_constant_model(small_cfg, rng,
                                                 monkeypatch):
    """A constant model emitting the true differential scores exactly the
    mean squared residual of the dataset around that differential, however
    the frames are blocked; a network's chain losses and cumulative power
    do not depend on the block size either."""
    data, delta = tiny_dataset(small_cfg, rng)
    model = constant_model(small_cfg, delta)
    net = AcousticModel(small_cfg, hidden=(4, 3), seed=0)
    set_normalization(net, data)
    assert runtime.BLOCK_FRAMES == 128 and len(data) > 128
    scores = (lambda: frame_losses(net, data, 12),
              lambda: cumulative_power(net, data))
    want = [score() for score in scores]
    monkeypatch.setattr(runtime, "BLOCK_FRAMES", 7)
    got = frame_losses(model, data)
    err = data.src_cep + delta - data.tgt_cep
    assert np.allclose(got, (err * err).sum(axis=1), rtol=1e-12, atol=0.0)
    for score, expected in zip(scores, want):
        np.testing.assert_allclose(score(), expected, rtol=1e-12, atol=0.0)


def test_chain_loss_full_length_equals_cepstral_loss(small_cfg, rng):
    """With every tap kept and the minimum-phase lifter the chain estimate
    collapses to source + differential, so both losses agree."""
    data, delta = tiny_dataset(small_cfg, rng)
    model = constant_model(small_cfg, delta)
    a = frame_losses(model, data).mean()
    b = frame_losses(model, data, small_cfg.fft_len).mean()
    assert np.isclose(a, b, rtol=1e-9)


def test_pretrain_reduces_loss_and_logs(small_cfg, rng):
    data, _ = tiny_dataset(small_cfg, rng)
    model = AcousticModel(small_cfg, hidden=(8, 6), seed=1)
    tc = TrainConfig(pretrain_lr=1e-3, batch_size=64, epochs=8, seed=0)
    log = pretrain_conventional(model, data, tc, val_data=data)
    assert len(log.rows) == 8
    assert log.rows[-1].train_loss < log.rows[0].train_loss
    assert log.rows[-1].val_loss == pytest.approx(
        frame_losses(model, data).mean())
    assert log.rows[-1].rmse == pytest.approx(
        np.sqrt(log.rows[-1].val_loss))
    assert all(r.wall_time_s >= 0 for r in log.rows)


def test_training_set_rejects_empty(small_cfg, tmp_path, capsys):
    """A set without frames cannot be built, so no training stage or score
    guards against one, and `eval` on a zero-frame .npz exits 1 with one
    error line."""
    arrays = dict(src_cep=np.zeros((0, small_cfg.cep_dim)),
                  tgt_cep=np.zeros((0, small_cfg.cep_dim)),
                  src_wave=np.zeros(small_cfg.window_len),
                  frame_start=np.zeros(0, dtype=np.intp),
                  offsets=np.zeros(1, dtype=np.intp))
    with pytest.raises(ValueError, match="non-empty"):
        TrainingSet(**arrays, cfg=small_cfg)
    np.savez(tmp_path / "empty.npz", **arrays,
             meta=np.array(json.dumps(asdict(small_cfg))))
    save_model(AcousticModel(small_cfg, hidden=(4, 3)), tmp_path / "m.lvc")
    code = cli(["eval", "--model", str(tmp_path / "m.lvc"),
                "--pairs", str(tmp_path / "empty.npz")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and "non-empty" in err
    assert err.count("\n") == 1


def test_train_lifter_improves_truncated_loss(small_cfg, rng):
    """Fine-tuning at a harsh truncation must beat the fixed lifter on the
    training data it optimizes."""
    delta = np.zeros(small_cfg.cep_dim)
    delta[1] = 0.8
    delta[3] = -0.5
    data, _ = tiny_dataset(small_cfg, rng, n_pairs=4, delta=delta)
    model = AcousticModel(small_cfg, hidden=(8, 6), seed=1)
    pre = TrainConfig(pretrain_lr=1e-3, batch_size=64, epochs=12, seed=0)
    pretrain_conventional(model, data, pre)
    taps = 6
    before = frame_losses(model, data, taps).mean()
    ft = TrainConfig(taps=taps, finetune_lr=1e-3, batch_size=64, epochs=15,
                     seed=0)
    log = train_lifter(model, data, ft, val_data=data)
    after = frame_losses(model, data, taps).mean()
    assert after < before
    assert log.rows[-1].val_loss == pytest.approx(after)
    # the lifter moved away from the minimum-phase prefix
    fixed = Lifter.minimum_phase(small_cfg).coeffs
    assert not np.allclose(model.lifter.coeffs, fixed)


def test_training_is_deterministic(small_cfg, rng, tmp_path):
    data, _ = tiny_dataset(small_cfg, rng)

    def run():
        model = AcousticModel(small_cfg, hidden=(6, 4), seed=5)
        tc = TrainConfig(pretrain_lr=1e-3, batch_size=64, epochs=4, seed=5)
        log = pretrain_conventional(model, data, tc, val_data=data)
        ft = TrainConfig(taps=8, finetune_lr=5e-4, batch_size=64, epochs=3,
                         seed=5)
        log2 = train_lifter(model, data, ft, val_data=data)
        return log, log2, model

    log_a, log2_a, model_a = run()
    log_b, log2_b, model_b = run()
    for i, (a, b) in enumerate([(log_a, log_b), (log2_a, log2_b)]):
        assert (written_losses(a, tmp_path / f"a{i}.csv")
                == written_losses(b, tmp_path / f"b{i}.csv"))
    for (_, pa), (_, pb) in zip(model_a.param_entries(),
                                model_b.param_entries()):
        assert np.array_equal(pa, pb)


def test_train_log_csv_roundtrip(tmp_path):
    log = TrainLog()
    log.append(EpochRow(1, 0.5, 0.6, 0.7745966692414834, 1.234))
    log.append(EpochRow(2, 0.25, 0.3, 0.5477225575051661, 0.987))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "epoch,train_loss,val_loss,rmse,wall_time_s"
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 2
    # repr round trip keeps float64 losses exact
    assert float(back[0]["train_loss"]) == 0.5
    assert float(back[1]["rmse"]) == 0.5477225575051661
    assert float(back[0]["wall_time_s"]) == 1.234
    parsed = TrainLog([EpochRow(int(r["epoch"]), float(r["train_loss"]),
                                float(r["val_loss"]), float(r["rmse"]),
                                float(r["wall_time_s"])) for r in back])
    assert (written_losses(parsed, tmp_path / "parsed.csv")
            == written_losses(log, path))
