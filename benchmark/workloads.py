"""The benchmark's workloads: inputs made from a seed, one round of
operations driven through liftervc's public API, and the checks of every
output of a round.

A round is the unit the runner repeats: the same operations on the same
inputs each time, so every round attempts the same number of operations and
a known fault fails the same share of them.

Calls into liftervc go through module attributes (`lv.convert`, not a name
imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import liftervc as lv
import liftervc.align

import reference as ref

# Sources are synthesized at 0.35 peak and the default differential filters
# have an L1 norm of at most 29 (any tap count, gated or not), so with this
# gain no converted sample can leave [-1, 1] and none is clamped.
SOURCE_GAIN = 0.09
IMPULSE_AMPLITUDE = 0.25
SHORT_TAPS = 32
# The program and the references differ only by rounding in float64.
OUTPUT_ATOL = 1e-8
# Largest cepstral difference, measured filter vs chain estimate, at which
# training and conversion are taken to use the same filter.
AGREEMENT_TOL = 1e-6


class Round:
    """Timings, work and outcomes of one pass over a workload's operations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = defaultdict(float)
        self.work = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.outputs = {}
        self.notes = {}
        self.run_id = -1
        self.op_times = []

    def begin(self, name: str):
        rec = self.tracer.begin("op." + name) if self.tracer else None
        return rec, time.perf_counter()

    def end(self, token, key: str, failed: bool = False, **work) -> None:
        """Close an operation opened by begin(): add its time under `key`
        and its work amounts under their names."""
        rec, t0 = token
        dt = time.perf_counter() - t0
        self.seconds[key] += dt
        self.op_times.append(dt)
        if rec is not None:
            self.tracer.end(rec)
        for name, amount in work.items():
            self.work[name] += amount
        self.attempted += 1
        self.failed += int(failed)


def _convert_file(rnd: Round, key: str, src: Path, dst: Path, model, taps: int,
                  gate=None):
    """One user-visible conversion: WAV in, convert, WAV out."""
    token = rnd.begin("convert_file")
    wave = lv.wav_read(src)
    out = lv.convert(wave, model, taps=taps, gate=gate)
    lv.wav_write(dst, out)
    rnd.end(token, key, **{f"{key}_audio_s": wave.duration})
    return out.samples


class ConvertWorkload:
    """Mixed-length utterances converted WAV to WAV by a constant model,
    each once at SHORT_TAPS and once at full length, plus one train/serve
    agreement operation per tap count."""

    def __init__(self, sample_rate: int, lengths_s: tuple, gate):
        self.sample_rate = sample_rate
        self.lengths_s = lengths_s
        self.gate = gate

    def describe(self) -> dict:
        return {"sample_rate": self.sample_rate, "lengths_s": list(self.lengths_s),
                "gate": None if self.gate is None else vars(self.gate),
                "model": "constant_model(cfg, default_differential(cfg))",
                "hidden": list(self.model.hidden), "taps": list(self.taps)}

    def setup(self, seed: int, work: Path) -> None:
        cfg = lv.AnalysisConfig.for_rate(self.sample_rate)
        rng = np.random.default_rng(seed)
        self.work = work
        self.sources = []
        for i, dur in enumerate(self.lengths_s):
            src = lv.synth_source(cfg, dur, rng)
            path = work / f"src_{i}.wav"
            lv.wav_write(path, lv.Waveform(src.samples * SOURCE_GAIN, cfg.sample_rate))
            self.sources.append(path)
        lv.save_model(lv.constant_model(cfg, lv.default_differential(cfg)),
                      work / "model.lvc")
        self.model = lv.load_model(work / "model.lvc", cfg)
        self.taps = (SHORT_TAPS, cfg.fft_len)

    def _impulse_response(self, taps: int) -> np.ndarray:
        """convert's response to a unit impulse, taps before and after it;
        the filter's onset delay is below taps, so the window holds all of
        the applied filter."""
        cfg = self.model.cfg
        x = np.zeros(2 * cfg.fft_len + cfg.hop)
        x[cfg.fft_len] = IMPULSE_AMPLITUDE
        y = lv.convert(lv.Waveform(x, cfg.sample_rate), self.model, taps=taps,
                       gate=self.gate).samples / IMPULSE_AMPLITUDE
        return y[cfg.fft_len - taps:cfg.fft_len + taps]

    def prepare_checks(self) -> None:
        """Expected outputs for every (utterance, taps), made once: the
        inputs and the model do not change between rounds."""
        cfg = self.model.cfg
        cep_d = lv.default_differential(cfg)
        self.expected = {}
        for taps in self.taps:
            if self.gate is None:
                h = ref.design_taps(cep_d, ref.min_phase_weights(cfg.cep_dim),
                                    cfg.fft_len, taps)[0]

                def apply(x, h=h):
                    return np.convolve(x, h)[:x.size]
            else:
                # Any fixed filter applied by overlap-add must act as a
                # convolution with its own impulse response.
                g = self._impulse_response(taps)
                if taps == cfg.fft_len:
                    ref.check_close(
                        "gated full-length magnitude",
                        ref.magnitude_from_response(g, cfg.fft_len),
                        ref.gated_magnitude(cep_d, cfg, self.gate.crossover_hz,
                                            self.gate.steepness_hz), 1e-8)

                def apply(x, g=g, taps=taps):
                    return ref.fft_convolve(x, g)[taps:taps + x.size]
            for i, path in enumerate(self.sources):
                x = ref.read_pcm(path) / ref.PCM_SCALE
                self.expected[(i, taps)] = np.clip(apply(x), -1.0, 1.0)

    def run_round(self, rnd: Round) -> None:
        for i, src in enumerate(self.sources):
            for taps in self.taps:
                key = "l32" if taps == SHORT_TAPS else "full"
                dst = self.work / f"out_{i}_{taps}.wav"
                rnd.outputs[(i, taps)] = (_convert_file(
                    rnd, key, src, dst, self.model, taps, self.gate), dst)
        cfg = self.model.cfg
        for taps in self.taps:
            # Train/serve agreement: the filter convert applies, measured
            # with an impulse, against chain_forward's estimate of the same
            # filter on a flat source spectrum.
            token = rnd.begin("agreement")
            response = self._impulse_response(taps)
            cep_d = self.model.forward(np.zeros(cfg.cep_dim))
            chain = lv.chain_forward(
                cep_d[None], self.model.lifter.coeffs,
                np.ones((1, cfg.fft_len), complex), np.zeros((1, cfg.cep_dim)),
                taps, cfg, gate=self.gate)
            err = ref.agreement_error(response, chain.cep_y[0], cfg.fft_len)
            rnd.end(token, "agreement", failed=err > AGREEMENT_TOL)
            rnd.notes[f"agreement_error_l{taps}"] = err

    def check(self, rnd: Round) -> None:
        for (i, taps), (samples, dst) in rnd.outputs.items():
            want = self.expected[(i, taps)]
            what = f"utterance {i} at {taps} taps"
            ref.check_close(what, samples, want, OUTPUT_ATOL)
            ref.check_wav(what, dst, want)


class TrainWorkload:
    """The offline pipeline as the CLI runs it, then conversion of every
    source utterance with the models it produced."""

    N_PAIRS = {"train": 2, "val": 1, "test": 1}
    # Digital silence around training and validation pairs exercises
    # trim_silence; test pairs are scored untrimmed, as `eval` scores them.
    EDGE_SILENCE_S = {"train": 0.1, "val": 0.1, "test": 0.0}
    DURATION_S = 4.0
    TRIM_DB = 40.0
    MODEL_SEED = 0

    def __init__(self):
        self.pretrain_cfg = lv.TrainConfig(pretrain_lr=5e-4, batch_size=512,
                                           epochs=4, seed=0)
        self.finetune_cfg = lv.TrainConfig(taps=SHORT_TAPS, finetune_lr=2e-5,
                                           batch_size=512, epochs=2, seed=0)
        self.dtw_calls = []
        self.first_rmse = None
        self._capture_dtw()

    def describe(self) -> dict:
        return {"sample_rate": 16000, "pairs": self.N_PAIRS,
                "duration_s": self.DURATION_S, "edge_silence_s": self.EDGE_SILENCE_S,
                "hidden": list(liftervc.model.default_hidden(self.cfg)),
                "pretrain_epochs": self.pretrain_cfg.epochs,
                "finetune_epochs": self.finetune_cfg.epochs,
                "batch_size": self.pretrain_cfg.batch_size, "taps": SHORT_TAPS}

    def _capture_dtw(self) -> None:
        """Keep each DTW path with its inputs for the prep check. One list
        append per alignment; installed beneath any tracing wrapper."""
        original = liftervc.align.dtw_align

        def dtw_align(src, tgt):
            path = original(src, tgt)
            self.dtw_calls.append((src, tgt, path))
            return path
        liftervc.align.dtw_align = dtw_align

    def setup(self, seed: int, work: Path) -> None:
        self.cfg = cfg = lv.AnalysisConfig.for_rate(16000)
        rng = np.random.default_rng(seed)
        delta = lv.default_differential(cfg)
        self.work = work
        self.pairs = {}
        for split, count in self.N_PAIRS.items():
            paths = []
            for i in range(count):
                src, tgt = lv.make_pair(cfg, delta, self.DURATION_S, rng,
                                        self.EDGE_SILENCE_S[split])
                pair = (work / f"{split}_{i}_src.wav", work / f"{split}_{i}_tgt.wav")
                lv.wav_write(pair[0], src)
                lv.wav_write(pair[1], tgt)
                paths.append(pair)
            self.pairs[split] = paths

    def prepare_checks(self) -> None:
        pass

    def _sources(self) -> list:
        """Every source utterance, in split order: what the trained models
        serve at the end of a round."""
        return [src for pairs in self.pairs.values() for src, _ in pairs]

    def run_round(self, rnd: Round) -> None:
        cfg, work = self.cfg, self.work
        self.dtw_calls.clear()
        built, sets = {}, {}
        token = rnd.begin("prep")
        for split, pairs in self.pairs.items():
            waves = [(lv.wav_read(s), lv.wav_read(t)) for s, t in pairs]
            trim = None if split == "test" else self.TRIM_DB
            built[split] = lv.build_dataset(waves, cfg, trim_db=trim)
            built[split].save(work / f"{split}.npz", cfg)
            sets[split], _ = lv.TrainingSet.load(work / f"{split}.npz", cfg)
        rnd.end(token, "prep", prep_frames=sum(len(d) for d in built.values()))
        train, val, test = sets["train"], sets["val"], sets["test"]

        token = rnd.begin("pretrain")
        model = lv.AcousticModel(cfg, seed=self.MODEL_SEED)
        pre_log = lv.pretrain_conventional(model, train, self.pretrain_cfg, val)
        rnd.end(token, "pretrain",
                pretrain_frames=self.pretrain_cfg.epochs * len(train))
        lv.save_model(model, work / "model.lvc")

        tuned = lv.load_model(work / "model.lvc", cfg)
        token = rnd.begin("finetune")
        ft_log = lv.train_lifter(tuned, train, self.finetune_cfg, val)
        rnd.end(token, "finetune",
                finetune_frames=self.finetune_cfg.epochs * len(train))
        lv.save_model(tuned, work / f"model.l{SHORT_TAPS}.lvc")

        served = lv.load_model(work / f"model.l{SHORT_TAPS}.lvc", cfg)
        token = rnd.begin("eval")
        report = lv.eval_rmse(served, test, SHORT_TAPS)
        rnd.end(token, "eval", eval_frames=len(test))
        token = rnd.begin("cumpow")
        curve = lv.cumulative_power(served, test)
        rnd.end(token, "cumpow")

        baseline = lv.load_model(work / "model.lvc", cfg)
        conversions = {}
        for i, src in enumerate(self._sources()):
            for key, taps, m in (("l32", SHORT_TAPS, served),
                                 ("full", cfg.fft_len, baseline)):
                dst = work / f"out_{i}_{taps}.wav"
                conversions[(i, taps)] = (_convert_file(rnd, key, src, dst, m, taps),
                                          dst, m)
        rnd.outputs = {"built": built, "sets": sets, "dtw": list(self.dtw_calls),
                       "pre_log": pre_log, "ft_log": ft_log, "report": report,
                       "served": served, "curve": curve, "conversions": conversions}
        rnd.notes["test_rmse_l32"] = report.rmse

    def check(self, rnd: Round) -> None:
        out, cfg = rnd.outputs, self.cfg
        for split, data in out["built"].items():
            loaded = out["sets"][split]
            for field in ("src_cep", "tgt_cep", "src_spec", "offsets"):
                if not np.array_equal(getattr(data, field), getattr(loaded, field)):
                    raise ref.CheckError(f"{split}.npz: {field} changed in save/load")
        n_calls = sum(self.N_PAIRS.values())
        if len(out["dtw"]) != n_calls:
            raise ref.CheckError(f"prep: {len(out['dtw'])} alignments, expected {n_calls}")
        path_frames = [len(path) for _, _, path in out["dtw"]]
        start = 0
        for split, count in self.N_PAIRS.items():
            frames = sum(path_frames[start:start + count])
            if frames != len(out["built"][split]):
                raise ref.CheckError(f"prep: {split} has {len(out['built'][split])} "
                                     f"frames, its paths {frames}")
            start += count
        for src, tgt, path in out["dtw"]:
            ref.check_dtw_path(src, tgt, path)
        ref.check_loss_falls("pretrain", [r.train_loss for r in out["pre_log"].rows])
        ref.check_loss_falls("finetune", [r.train_loss for r in out["ft_log"].rows])
        ref.check_eval(out["report"], out["served"], out["sets"]["test"],
                       SHORT_TAPS, cfg.fft_len)
        ref.check_cumulative_power(out["curve"], cfg.fft_len)
        if self.first_rmse is None:
            self.first_rmse = out["report"].rmse
        if out["report"].rmse != self.first_rmse:
            raise ref.CheckError(f"eval: rmse {out['report'].rmse!r} differs from "
                                 f"the first round's {self.first_rmse!r}")
        for (i, taps), (samples, dst, model) in out["conversions"].items():
            x = ref.read_pcm(self._sources()[i]) / ref.PCM_SCALE
            cep_d = ref.glu_forward(model, ref.cepstra(ref.spectra(x, cfg), cfg.cep_dim))
            filters = ref.design_taps(cep_d, model.lifter.coeffs, cfg.fft_len, taps)
            want = np.clip(ref.ola(x, filters, cfg.hop), -1.0, 1.0)
            what = f"source utterance {i} at {taps} taps"
            ref.check_close(what, samples, want, OUTPUT_ATOL)
            ref.check_wav(what, dst, want)


WORKLOADS = {
    "convert-16k": lambda: ConvertWorkload(16000, (0.5, 1.0, 2.0, 3.0, 5.0, 8.0), None),
    "convert-48k-subband": lambda: ConvertWorkload(48000, (0.5, 1.0, 2.0, 4.0),
                                                   lv.SubbandGate()),
    "train-16k-l32": TrainWorkload,
}
