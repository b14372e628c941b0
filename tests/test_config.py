import json

import pytest

from liftervc import AnalysisConfig, RunConfig, SubbandGate, TrainConfig
from liftervc import filters


def test_for_rate_standard_settings():
    nb = AnalysisConfig.for_rate(16000)
    assert (nb.window_len, nb.hop, nb.fft_len, nb.cep_dim) == (400, 80, 512, 40)
    fb = AnalysisConfig.for_rate(48000)
    assert (fb.window_len, fb.hop, fb.fft_len, fb.cep_dim) == (1200, 240, 2048, 120)
    with pytest.raises(ValueError):
        AnalysisConfig.for_rate(44100)


def test_for_rate_accepts_overrides():
    cfg = AnalysisConfig.for_rate(16000, cep_dim=30)
    assert cfg.cep_dim == 30
    assert cfg.fft_len == 512
    # An override replaces a 48 kHz default instead of clashing with it.
    cfg = AnalysisConfig.for_rate(48000, fft_len=4096)
    assert (cfg.window_len, cfg.hop, cfg.fft_len, cfg.cep_dim) == (1200, 240,
                                                                   4096, 120)


def test_analysis_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(window_len=600)  # longer than fft_len
    with pytest.raises(ValueError):
        AnalysisConfig(hop=500)  # longer than window
    with pytest.raises(ValueError):
        AnalysisConfig(cep_dim=300)  # above fft_len/2
    with pytest.raises(ValueError):
        AnalysisConfig(window="blackman")
    with pytest.raises(ValueError):
        AnalysisConfig(hop=0)
    with pytest.raises(ValueError, match="fft_len"):
        AnalysisConfig(window_len=48, hop=16, fft_len=63, cep_dim=8)
    with pytest.raises(ValueError, match="fft_len"):
        AnalysisConfig(window_len=2, hop=1, fft_len=2, cep_dim=1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(taps=0)
    with pytest.raises(ValueError):
        TrainConfig(pretrain_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_run_config_roundtrip(tmp_path):
    cfg = RunConfig(
        analysis=AnalysisConfig.for_rate(16000),
        train=TrainConfig(taps=64, epochs=5),
        data={"train": [["a.wav", "b.wav"]]},
        model_file="m.lvc",
        output_dir="outputs",
        subband=SubbandGate(crossover_hz=7000.0),
    )
    path = tmp_path / "config.json"
    cfg.to_json(path)
    back = RunConfig.from_json(path, check_paths=False)
    assert back.analysis == cfg.analysis
    assert back.train == cfg.train
    assert back.data == {"train": [("a.wav", "b.wav")]}
    assert back == cfg
    assert back.subband == SubbandGate(crossover_hz=7000.0, steepness_hz=200.0)


def test_run_config_document_roundtrip(tmp_path):
    """A document that sets every key to a non-default value is written
    back unchanged."""
    doc = {
        "analysis": {"sample_rate": 48000, "window_len": 1000, "hop": 200,
                     "fft_len": 1024, "cep_dim": 60, "window": "rectangular"},
        "train": {"taps": 96, "pretrain_lr": 0.002, "finetune_lr": 3e-05,
                  "batch_size": 64, "epochs": 7, "seed": 5},
        "data": {"train": [["a.wav", "b.wav"]], "val": [["c.wav", "d.wav"]],
                 "test": [["e.wav", "f.wav"]]},
        "model_file": "m.lvc",
        "output_dir": "results",
        "silence_threshold_db": 30.0,
        "subband": {"crossover_hz": 6000.0, "steepness_hz": 150.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    RunConfig.from_json(path, check_paths=False).to_json(path)
    assert json.loads(path.read_text()) == doc


def test_run_config_analysis_defaults_follow_the_rate(tmp_path):
    """A document that sets only the sample rate takes that rate's standard
    settings, and one at a rate with no standard settings is refused."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"analysis": {"sample_rate": 48000}}))
    assert RunConfig.from_json(path).analysis == AnalysisConfig.for_rate(48000)
    path.write_text(json.dumps({"analysis": {"sample_rate": 48000,
                                             "cep_dim": 60}}))
    assert (RunConfig.from_json(path).analysis
            == AnalysisConfig.for_rate(48000, cep_dim=60))
    for rate, shown in ((22050, "22050"), ("16000", "'16000'")):
        path.write_text(json.dumps({"analysis": {"sample_rate": rate}}))
        with pytest.raises(ValueError,
                           match=f"no standard settings for {shown} Hz"):
            RunConfig.from_json(path)


def test_run_config_disabled_gate_is_none(tmp_path):
    """The gate is written as in the model file: absent or null for none,
    else its parameters, with {} for the defaults."""
    path = tmp_path / "config.json"
    for doc in ({}, {"subband": None}):
        path.write_text(json.dumps(doc))
        assert RunConfig.from_json(path).subband is None
    path.write_text(json.dumps({"analysis": {"sample_rate": 48000},
                                "subband": {}}))
    assert RunConfig.from_json(path).subband == SubbandGate()
    # At 16 kHz the default 8 kHz crossover sits at Nyquist.
    path.write_text(json.dumps({"subband": {}}))
    with pytest.raises(ValueError, match="Nyquist"):
        RunConfig.from_json(path)


def test_subband_gate_has_one_class():
    assert filters.SubbandGate is SubbandGate


def test_run_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"analysis": {}, "not_a_key": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_json(path)


@pytest.mark.parametrize("doc,exc,match", [
    ({"subband": {"enable": True}}, TypeError, "'enable'"),
    ({"subband": {"crossover": 4000}}, TypeError, "'crossover'"),
    ({"data": {"training": [["a.wav", "b.wav"]]}}, ValueError,
     r"unknown data keys: \['training'\]"),
])
def test_run_config_rejects_unknown_section_keys(tmp_path, doc, exc, match):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(exc, match=match):
        RunConfig.from_json(path, check_paths=False)


def test_run_config_built_in_code_is_checked():
    """The data lists are checked as the dataclass is built, not only as a
    document loads."""
    with pytest.raises(ValueError, match=r"unknown data keys: \['training'\]"):
        RunConfig(data={"training": [("a.wav", "b.wav")]})
    with pytest.raises(ValueError, match="data.val"):
        RunConfig(data={"val": [("a.wav",)]})
    with pytest.raises(TypeError, match="RunConfig.data"):
        RunConfig(data=[("a.wav", "b.wav")])


def test_run_config_checks_paths(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"data": {"train": [["missing_src.wav", "missing_tgt.wav"]]}}))
    with pytest.raises(FileNotFoundError):
        RunConfig.from_json(path)
    RunConfig.from_json(path, check_paths=False)


def test_run_config_rejects_taps_beyond_fft(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"taps": 4096}}))
    with pytest.raises(ValueError):
        RunConfig.from_json(path)


def test_run_config_rejects_malformed_pairs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"data": {"train": [["only_one.wav"]]}}))
    with pytest.raises(ValueError):
        RunConfig.from_json(path, check_paths=False)
