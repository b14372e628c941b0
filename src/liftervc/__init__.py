"""Voice conversion by spectral-differential filtering with a trainable,
truncation-aware lifter and optional sub-band gating."""

from .align import align_pair, dtw_align, trim_silence
from .cepstral import MAG_FLOOR, Lifter, real_cepstrum, reconstruct_spectrum
from .chain import ChainResult, chain_backward, chain_forward
from .config import AnalysisConfig, RunConfig, SubbandGate, TrainConfig
from .dataset import TrainingSet, build_dataset
from .filters import (conversion_filters, design_filter, design_filter_adjoint,
                      gate_weights)
from .model import (AcousticModel, Adam, ModelFileError, constant_model,
                    load_model, save_model)
from .runtime import (MetricsReport, convert, cumulative_power, eval_rmse,
                      frame_losses, power_threshold_tap)
from .spectral import Waveform, ola_filter, stft
from .synthetic import (SweepResult, default_differential, make_corpus,
                        make_pair, run_tap_sweep, spectral_tilt_cepstrum,
                        synth_source)
from .training import TrainLog, pretrain_conventional, train_lifter
from .wavio import wav_read, wav_write

__version__ = "0.1.0"

__all__ = [
    "AcousticModel", "Adam", "AnalysisConfig", "ChainResult",
    "Lifter", "MAG_FLOOR", "MetricsReport", "ModelFileError", "RunConfig",
    "SubbandGate", "SweepResult", "TrainConfig", "TrainingSet", "TrainLog",
    "Waveform", "align_pair", "build_dataset",
    "chain_backward", "chain_forward", "constant_model", "conversion_filters",
    "convert", "cumulative_power", "default_differential", "design_filter",
    "design_filter_adjoint", "dtw_align", "eval_rmse",
    "frame_losses", "gate_weights", "load_model", "make_corpus", "make_pair",
    "ola_filter", "power_threshold_tap",
    "pretrain_conventional", "real_cepstrum", "reconstruct_spectrum",
    "run_tap_sweep", "save_model", "spectral_tilt_cepstrum", "stft",
    "synth_source", "train_lifter", "trim_silence", "wav_read", "wav_write",
]
