import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftervc import (AcousticModel, AnalysisConfig, SubbandGate, TrainingSet,
                      Waveform, convert, load_model, save_model, wav_read,
                      wav_write)
from liftervc.cli import main
from liftervc.dataset import ARRAYS
from liftervc.spectral import frame_count
from liftervc.synthetic import make_corpus


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus plus a config tuned for speed, shared by the workflow
    tests (read-only from their perspective)."""
    root = tmp_path_factory.mktemp("cli")
    cfg = AnalysisConfig(window_len=48, hop=16, fft_len=64, cep_dim=8)
    make_corpus(root, cfg=cfg, n_train=3, n_val=2, n_test=2,
                duration_s=0.4, seed=1, edge_silence_s=0.05)
    doc = json.loads((root / "config.json").read_text())
    doc["train"].update(epochs=3, batch_size=128, pretrain_lr=1e-3,
                        finetune_lr=5e-4)
    (root / "config.json").write_text(json.dumps(doc, indent=2))
    return root


def run_cli(*argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pretrained(workspace, tmp_path_factory):
    """The workspace corpus after `prep` and `pretrain`, in a directory of
    its own: config.json, train/val/test.npz and model.lvc, for the tests
    that read them (test_full_workflow runs and checks both commands
    itself)."""
    root = tmp_path_factory.mktemp("pretrained")
    doc = json.loads((workspace / "config.json").read_text())
    doc.update(model_file=str(root / "model.lvc"), output_dir=str(root))
    config = root / "config.json"
    config.write_text(json.dumps(doc))
    for command in ("prep", "pretrain"):
        assert run_cli(command, "--config", config)[0] == 0, command
    return root


def test_full_workflow(workspace, capsys):
    config = workspace / "config.json"

    code, out, err = run_cli("prep", "--config", config, capsys=capsys)
    assert code == 0, err
    for split in ("train", "val", "test"):
        assert (workspace / f"{split}.npz").exists()
    assert "train: 3 utterances" in out

    code, out, err = run_cli("pretrain", "--config", config, capsys=capsys)
    assert code == 0, err
    assert (workspace / "model.lvc").exists()
    assert (workspace / "pretrain_log.csv").exists()
    header = (workspace / "pretrain_log.csv").read_text().splitlines()[0]
    assert header == "epoch,train_loss,val_loss,rmse,wall_time_s"

    code, out, err = run_cli("train-lifter", "--config", config,
                             "--taps", 12, capsys=capsys)
    assert code == 0, err
    tuned_path = workspace / "model.l12.lvc"
    assert tuned_path.exists()
    assert (workspace / "train_lifter_log_l12.csv").exists()
    lifter_csv = (workspace / "lifter_l12.csv").read_text().splitlines()
    assert lifter_csv[0] == "quefrency,trained,minimum_phase"
    assert len(lifter_csv) == 1 + 8
    first = lifter_csv[1].split(",")
    assert first[0] == "0" and float(first[1]) != 0.0 and float(first[2]) == 1.0

    src = workspace / "test_000_src.wav"
    converted = workspace / "converted.wav"
    code, out, err = run_cli("convert", "--model", tuned_path, "--in", src,
                             "--out", converted, "--taps", 12, capsys=capsys)
    assert code == 0, err
    assert wav_read(converted).sample_rate == 16000

    code, out, err = run_cli("eval", "--model", tuned_path, "--pairs",
                             workspace / "test.npz", "--taps", 12,
                             "--out", workspace / "metrics.csv", capsys=capsys)
    assert code == 0, err
    assert "rmse" in out
    lines = (workspace / "metrics.csv").read_text().splitlines()
    assert lines[0] == "utterance,rmse"
    assert lines[-1].startswith("all,")

    # eval also accepts a CSV listing WAV pairs directly
    pairs_csv = workspace / "pairs.csv"
    pairs_csv.write_text(f"{src},{workspace / 'test_000_tgt.wav'}\n")
    code, out, err = run_cli("eval", "--model", tuned_path, "--pairs",
                             pairs_csv, capsys=capsys)
    assert code == 0, err

    code, out, err = run_cli("cumpow", "--model", tuned_path, "--pairs",
                             workspace / "test.npz",
                             "--out", workspace / "cumpow.csv", capsys=capsys)
    assert code == 0, err
    assert "cumulative power reaches 0.95 at tap" in out
    curve_lines = (workspace / "cumpow.csv").read_text().splitlines()
    assert curve_lines[0] == "tap,cumulative_power"
    assert len(curve_lines) == 1 + 64
    assert float(curve_lines[-1].split(",")[1]) == pytest.approx(1.0)


def test_prep_missing_config_fails(tmp_path, capsys):
    code, out, err = run_cli("prep", "--config", tmp_path / "nope.json",
                             capsys=capsys)
    assert code == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc", [{}, {"data": {"train": []}},
                                 {"data": {"train": [], "val": [], "test": []}}])
def test_prep_refuses_a_config_without_pairs(tmp_path, monkeypatch, capsys,
                                             doc):
    """prep with nothing to prepare exits 1 with one line before it creates
    the output directory (here the default `out`, relative to the working
    directory)."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli("prep", "--config", config, capsys=capsys)
    assert code == 1
    assert err == f"error: {config}: no pairs listed under data\n"
    assert sorted(tmp_path.iterdir()) == [config]


def test_prep_trims_training_splits_but_not_test(pretrained):
    """prep trims silence from the training and validation pairs and leaves
    the test pairs whole: each test utterance keeps its 0.05 s edge silence,
    so its frames are those of the raw WAVs."""
    doc = json.loads((pretrained / "config.json").read_text())
    for split in ("train", "val", "test"):
        data, cfg = TrainingSet.load(pretrained / f"{split}.npz")
        raw = [frame_count(len(wav_read(src)), cfg.hop)
               for src, _ in doc["data"][split]]
        frames = np.diff(data.offsets).tolist()
        if split == "test":
            assert frames == raw
        else:
            assert all(n < r for n, r in zip(frames, raw)), (split, frames, raw)


def test_pretrain_without_prep_fails(workspace, tmp_path, capsys):
    doc = json.loads((workspace / "config.json").read_text())
    doc["output_dir"] = str(tmp_path / "empty")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli("pretrain", "--config", config, capsys=capsys)
    assert code == 1
    assert "prep" in err


def test_convert_missing_model_fails(tmp_path, capsys):
    code, out, err = run_cli("convert", "--model", tmp_path / "missing.lvc",
                             "--in", "x.wav", "--out", "y.wav", capsys=capsys)
    assert code == 1
    assert err.startswith("error:")


def test_train_lifter_rejects_bad_taps(workspace, serving, tmp_path, capsys):
    """A tap count outside 1..fft_len fails with one line and no output,
    whether train-lifter, convert or eval is given it; eval fails before it
    reads a WAV of its pairs."""
    code, out, err = run_cli("train-lifter", "--config",
                             workspace / "config.json", "--taps", 0,
                             capsys=capsys)
    assert code == 1
    assert "taps" in err
    root, _ = serving
    model, src = root / "model.lvc", root / "src.wav"
    pairs, missing = tmp_path / "pairs.csv", tmp_path / "missing.csv"
    pairs.write_text(f"{src},{src}\n")
    missing.write_text(f"{tmp_path / 'no.wav'},{src}\n")
    out_path = tmp_path / "out"
    for argv in (("convert", "--in", src, "--out", out_path, "--taps", 0),
                 ("convert", "--in", src, "--out", out_path, "--taps", 65),
                 ("convert", "--in", src, "--out", out_path, "--taps", -100000),
                 ("convert", "--in", src, "--out", out_path,
                  "--taps", 10000000000000),
                 ("eval", "--pairs", pairs, "--out", out_path, "--taps", 65),
                 ("eval", "--pairs", missing, "--out", out_path, "--taps", 65)):
        code, out, err = run_cli(argv[0], "--model", model, *argv[1:],
                                 capsys=capsys)
        assert code == 1, argv
        assert err == "error: truncation length must be in 1..64\n"
        assert not out_path.exists()


def test_eval_rejects_malformed_pairs_csv(pretrained, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("one_column_only\n")
    code, out, err = run_cli("eval", "--model", pretrained / "model.lvc",
                             "--pairs", bad, capsys=capsys)
    assert code == 1
    assert "source,target" in err


def gated_run(pretrained, tmp_path, files=("model.lvc", "train.npz",
                                           "val.npz")):
    """A config in tmp_path, copied from the pretrained directory's, with
    the gate on; returns its path and document."""
    for name in files:
        shutil.copy(pretrained / name, tmp_path / name)
    doc = json.loads((pretrained / "config.json").read_text())
    doc.update(model_file=str(tmp_path / "model.lvc"), output_dir=str(tmp_path),
               subband={"crossover_hz": 4000.0, "steepness_hz": 500.0})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    return config, doc


def test_train_lifter_trains_the_gated_filter(pretrained, tmp_path, capsys):
    """With sub-band gating enabled in the config, train-lifter optimizes the
    gated filter and stores the gate in the model it saves: `eval` of that
    model, without flags, scores what training reported, and the same model
    saved ungated does not."""
    config, _ = gated_run(pretrained, tmp_path)
    code, out, err = run_cli("train-lifter", "--config", config, "--taps", 12,
                             capsys=capsys)
    assert code == 0, err
    trained = out.split("val rmse ")[1].split()[0]

    def eval_rmse(model_path):
        code, out, err = run_cli("eval", "--model", model_path,
                                 "--pairs", tmp_path / "val.npz", "--taps", 12,
                                 capsys=capsys)
        assert code == 0, err
        return f"{float(out.split()[1]):.6f}"

    tuned = load_model(tmp_path / "model.l12.lvc")
    assert tuned.subband == SubbandGate(crossover_hz=4000.0, steepness_hz=500.0)
    assert eval_rmse(tmp_path / "model.l12.lvc") == trained
    tuned.subband = None
    save_model(tuned, tmp_path / "ungated.lvc")
    assert eval_rmse(tmp_path / "ungated.lvc") != trained


def test_pretrain_stores_the_gate_that_convert_applies(workspace, pretrained,
                                                       tmp_path, capsys):
    """pretrain writes the config's gate into the model; convert, without
    flags, applies it; train-lifter replaces it with its own config's."""
    config, doc = gated_run(pretrained, tmp_path,
                            files=("train.npz", "val.npz"))
    code, out, err = run_cli("pretrain", "--config", config, capsys=capsys)
    assert code == 0, err
    gate = SubbandGate(crossover_hz=4000.0, steepness_hz=500.0)
    model = load_model(tmp_path / "model.lvc")
    assert model.subband == gate

    src = workspace / "test_000_src.wav"
    code, out, err = run_cli("convert", "--model", tmp_path / "model.lvc",
                             "--in", src, "--out", tmp_path / "out.wav",
                             "--taps", 12, capsys=capsys)
    assert code == 0, err
    got = (tmp_path / "out.wav").read_bytes()
    ungated = model.copy()
    ungated.subband = None
    for name, served in (("gated.wav", model), ("ungated.wav", ungated)):
        wav_write(tmp_path / name, convert(wav_read(src), served, taps=12))
    assert got == (tmp_path / "gated.wav").read_bytes()
    assert got != (tmp_path / "ungated.wav").read_bytes()

    del doc["subband"]
    config.write_text(json.dumps(doc))
    code, out, err = run_cli("train-lifter", "--config", config, "--taps", 12,
                             capsys=capsys)
    assert code == 0, err
    assert load_model(tmp_path / "model.l12.lvc").subband is None


@pytest.mark.parametrize("section,key,value,name", [
    ("train", "taps", True, "TrainConfig.taps"),
    ("train", "taps", 12.5, "TrainConfig.taps"),
    ("train", "epochs", 2.5, "TrainConfig.epochs"),
    ("analysis", "fft_len", "512", "AnalysisConfig.fft_len"),
    ("subband", "enabled", False, "'enabled'"),
    ("train", "pretrain_lr", float("nan"), "TrainConfig.pretrain_lr"),
    ("train", "finetune_lr", float("inf"), "TrainConfig.finetune_lr"),
    ("subband", "crossover_hz", float("nan"), "SubbandGate.crossover_hz"),
])
def test_config_values_are_type_checked(tmp_path, capsys, section, key,
                                        value, name):
    """A config value of the wrong type, or a NaN or infinite real, fails
    as the config loads, with a one-line error that names the field. The
    gate has no `enabled` key: a config that sets one fails the same way."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {key: value},
                                  "output_dir": str(tmp_path),
                                  "model_file": str(tmp_path / "model.lvc")}))
    code, out, err = run_cli("train-lifter", "--config", config,
                             capsys=capsys)
    assert code == 1
    assert name in err
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("key,value,name", [
    ("silence_threshold_db", True, "RunConfig.silence_threshold_db"),
    ("silence_threshold_db", "40", "RunConfig.silence_threshold_db"),
    ("data", {"train": [[1, 2]]}, "data.train"),
    ("model_file", 3, "RunConfig.model_file"),
    ("output_dir", ["out"], "RunConfig.output_dir"),
    ("silence_threshold_db", float("nan"), "RunConfig.silence_threshold_db"),
    ("silence_threshold_db", 0, "RunConfig.silence_threshold_db"),
    ("silence_threshold_db", -5, "RunConfig.silence_threshold_db"),
])
def test_run_config_fields_are_type_checked(tmp_path, capsys, key, value,
                                            name):
    """The run config's own fields are checked as it loads: `prep` exits 1
    with a one-line error naming the field, before it reads any audio."""
    doc = {"output_dir": str(tmp_path), "model_file": str(tmp_path / "m.lvc")}
    doc[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli("prep", "--config", config, capsys=capsys)
    assert code == 1
    assert name in err
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [config]


def test_train_lifter_rejects_gate_in_training_key(workspace, tmp_path,
                                                   capsys):
    """train.gate_in_training no longer exists: the gate is the config's
    subband, and a config that still sets the key is refused."""
    doc = json.loads((workspace / "config.json").read_text())
    doc["train"]["gate_in_training"] = True
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli("train-lifter", "--config", config, capsys=capsys)
    assert code == 1
    assert err.startswith("error:") and "gate_in_training" in err
    assert err.count("\n") == 1


def test_eval_rejects_non_finite_model(pretrained, tmp_path, capsys):
    """A model file with a NaN parameter fails at load with a one-line
    error naming the array, instead of scoring rmse nan."""
    model = load_model(pretrained / "model.lvc")
    model.w_out[0, 0] = np.nan
    path = tmp_path / "nan.lvc"
    save_model(model, path)
    code, out, err = run_cli("eval", "--model", path, "--pairs",
                             pretrained / "test.npz", capsys=capsys)
    assert code == 1
    assert err.startswith("error:") and "w_out" in err
    assert err.count("\n") == 1


def _set(a, index, value):
    a = a.copy()
    a[index] = value
    return a


@pytest.mark.parametrize("key,tamper,problem", [
    ("src_cep", lambda a: _set(a, (0, 0), np.nan), "finite"),
    ("tgt_cep", lambda a: _set(a, (1, 2), np.inf), "finite"),
    ("tgt_cep", lambda a: a[:, :-1], "shape"),
    ("src_cep", lambda a: a[:, :, None], "shape"),
    ("offsets", lambda a: np.array([0.5, a[-1]]), "integers"),
    ("frame_start", lambda a: _set(a, 3, -1), "lie in"),
    ("frame_start", lambda a: _set(a, -1, 10 ** 6), "lie in"),
    ("frame_start", lambda a: a.astype(float), "integers"),
    ("src_wave", lambda a: _set(a, 5, np.nan), "finite"),
    ("src_wave", lambda a: a[:, None], "shape"),
    ("src_half", lambda _: np.ones((4, 33), complex), "prep"),
], ids=["nan-src", "inf-tgt", "narrow-tgt", "3d-src", "float-offsets",
        "negative-start", "start-past-end", "float-starts", "nan-wave",
        "2d-wave", "half-spectra"])
def test_dataset_load_rejects_tampered_arrays(pretrained, tmp_path, capsys,
                                              key, tamper, problem):
    """A prepared dataset with a non-finite value, a wrong shape,
    non-integer offsets or frame starts, a frame start outside the stored
    waveform, or the stored spectra of an older layout is refused as it
    loads, by `pretrain` before it writes a model and by `eval` before it
    scores, with one line naming the file and the array."""
    with np.load(pretrained / "train.npz") as data:
        arrays = dict(data)
    arrays[key] = tamper(arrays.get(key))
    np.savez(tmp_path / "train.npz", **arrays)
    doc = json.loads((pretrained / "config.json").read_text())
    doc.update(model_file=str(tmp_path / "model.lvc"), output_dir=str(tmp_path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    for argv in (("pretrain", "--config", config),
                 ("eval", "--model", pretrained / "model.lvc",
                  "--pairs", tmp_path / "train.npz")):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 1, argv
        assert err.startswith(f"error: {tmp_path / 'train.npz'}: {key} ")
        assert problem in err and err.count("\n") == 1
    assert not (tmp_path / "model.lvc").exists()


def _edit_meta(arrays, **changes):
    """arrays with its meta document updated by changes (None: deleted)."""
    meta = json.loads(str(arrays["meta"]))
    meta.update(changes)
    meta = {key: value for key, value in meta.items() if value is not None}
    arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))


@pytest.mark.parametrize("tamper,problem", [
    (lambda a: a.pop("tgt_cep"), "tgt_cep is not a file in the archive"),
    (lambda a: a.pop("meta"), "meta is not a file in the archive"),
    (lambda a: _edit_meta(a, fft_len=None),
     "AnalysisConfig.fft_len must be int, got None"),
    (lambda a: _edit_meta(a, window="rectangular"),
     "stored analysis window 'rectangular' is not hann"),
    (None, "pickled"),
], ids=["no-array", "no-meta", "meta-lacks-field", "rectangular-window",
        "not-npz"])
def test_dataset_load_rejects_malformed_files(pretrained, tmp_path, tamper,
                                              problem):
    """A file that is not a dataset, one without an array or its meta, and
    a meta that lacks a field or names a window other than Hann are each
    refused in one line that names the file, with no config to compare."""
    path = tmp_path / "train.npz"
    if tamper is None:
        path.write_text("source,target\n")
    else:
        with np.load(pretrained / "train.npz") as data:
            arrays = dict(data)
        tamper(arrays)
        np.savez(path, **arrays)
    with pytest.raises(ValueError) as err:
        TrainingSet.load(path)
    message = str(err.value)
    assert message.startswith(f"{path}: ") and problem in message
    assert "\n" not in message


def test_dataset_with_a_stored_hann_window_loads(pretrained, tmp_path):
    """Datasets written while the window was a setting hold "window":
    "hann" in their meta; they load with every array bit for bit."""
    with np.load(pretrained / "train.npz") as data:
        arrays = dict(data)
    _edit_meta(arrays, window="hann")
    np.savez(tmp_path / "train.npz", **arrays)
    data, cfg = TrainingSet.load(tmp_path / "train.npz")
    assert cfg == TrainingSet.load(pretrained / "train.npz")[1]
    for name in ARRAYS:
        assert np.array_equal(getattr(data, name), arrays[name]), name


def test_prep_rejects_odd_fft_len(workspace, tmp_path, capsys):
    """An odd fft_len, or a hop longer than the window, fails as the config
    loads, not later in pretrain."""
    for key, value in (("fft_len", 63), ("hop", 49)):
        doc = json.loads((workspace / "config.json").read_text())
        doc["analysis"][key] = value
        doc["output_dir"] = str(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli("prep", "--config", config, capsys=capsys)
        assert code == 1
        assert err.startswith("error:") and key in err
        assert err.count("\n") == 1


def test_prep_rejects_all_silent_training_wav(workspace, tmp_path, capsys):
    """An all-zero training WAV has no level to trim silence against: prep
    exits 1 with one line and writes no dataset."""
    silent = tmp_path / "silent.wav"
    wav_write(silent, Waveform(np.zeros(4000), 16000))
    doc = json.loads((workspace / "config.json").read_text())
    doc["data"] = {"train": [[str(silent),
                              str(workspace / "train_000_tgt.wav")]]}
    doc["output_dir"] = str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli("prep", "--config", config, capsys=capsys)
    assert code == 1
    assert err == "error: waveform is entirely silent\n"
    assert list((tmp_path / "out").iterdir()) == []


@pytest.fixture(scope="module")
def serving(tmp_path_factory):
    """A small saved model, its file bytes, and a short source WAV."""
    root = tmp_path_factory.mktemp("serving")
    cfg = AnalysisConfig(window_len=48, hop=16, fft_len=64, cep_dim=8)
    save_model(AcousticModel(cfg, hidden=(4, 3)), root / "model.lvc")
    wav_write(root / "src.wav",
              Waveform(np.linspace(-0.5, 0.5, 100), cfg.sample_rate))
    return root, (root / "model.lvc").read_bytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_convert_rejects_every_truncated_model(serving, data):
    """Every strict prefix of a model file, the empty one included, makes
    convert exit 1 with a single error line."""
    root, raw = serving
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    path = root / "cut.lvc"
    path.write_bytes(raw[:cut])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _, _ = run_cli("convert", "--model", path, "--in",
                             root / "src.wav", "--out", root / "out.wav")
    assert code == 1
    assert err.getvalue().startswith("error:")
    assert err.getvalue().count("\n") == 1


def test_convert_rejects_empty_wav(serving, tmp_path, capsys):
    root, _ = serving
    empty = tmp_path / "empty.wav"
    wav_write(empty, Waveform(np.zeros(0), 16000))
    code, out, err = run_cli("convert", "--model", root / "model.lvc", "--in",
                             empty, "--out", tmp_path / "out.wav",
                             capsys=capsys)
    assert code == 1
    assert err.startswith("error:") and "empty waveform" in err
    assert not (tmp_path / "out.wav").exists()


def test_convert_one_sample_wav(serving, tmp_path, capsys):
    root, _ = serving
    single = tmp_path / "single.wav"
    wav_write(single, Waveform(np.array([0.25]), 16000))
    code, out, err = run_cli("convert", "--model", root / "model.lvc", "--in",
                             single, "--out", tmp_path / "out.wav",
                             capsys=capsys)
    assert code == 0, err
    assert len(wav_read(tmp_path / "out.wav")) == 1


def test_convert_all_silent_wav(serving, tmp_path, capsys):
    """Converting digital silence succeeds and gives digital silence of the
    same length."""
    root, _ = serving
    silent = tmp_path / "silent.wav"
    wav_write(silent, Waveform(np.zeros(1000), 16000))
    code, out, err = run_cli("convert", "--model", root / "model.lvc", "--in",
                             silent, "--out", tmp_path / "out.wav",
                             capsys=capsys)
    assert code == 0, err
    got = wav_read(tmp_path / "out.wav")
    assert len(got) == 1000
    assert not got.samples.any()
