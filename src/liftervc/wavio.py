"""WAV file I/O for PCM 16-bit mono audio at 16 kHz or 48 kHz, and the CSV
writer every tabular artifact goes through."""

from __future__ import annotations

import wave

import numpy as np

from .spectral import Waveform

SUPPORTED_RATES = (16000, 48000)
SCALE = 32768.0


def wav_read(path) -> Waveform:
    """Read a mono 16-bit PCM WAV file; samples are scaled to [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getcomptype() != "NONE":
                raise ValueError(f"unsupported codec {fh.getcomptype()!r} in {path}")
            if fh.getnchannels() != 1:
                raise ValueError(
                    f"unsupported channel count {fh.getnchannels()} in {path} (mono only)")
            if fh.getsampwidth() != 2:
                raise ValueError(
                    f"unsupported sample width {8 * fh.getsampwidth()} bit in {path}")
            rate = fh.getframerate()
            if rate not in SUPPORTED_RATES:
                raise ValueError(f"unsupported sample rate {rate} Hz in {path}")
            raw = fh.readframes(fh.getnframes())
    except wave.Error as exc:
        raise ValueError(f"malformed WAV file {path}: {exc}") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / SCALE
    return Waveform(samples, rate)


def wav_write(path, wav: Waveform) -> None:
    """Write a waveform as mono 16-bit PCM.

    Samples are clamped to [-1, 1] and rounded half away from zero, so the
    quantization error is at most half a step and write/read round trips are
    within 1/32768 per sample.
    """
    if wav.sample_rate not in SUPPORTED_RATES:
        raise ValueError(f"unsupported sample rate {wav.sample_rate} Hz")
    x = np.clip(wav.samples, -1.0, 1.0) * SCALE
    ints = np.copysign(np.floor(np.abs(x) + 0.5), x)
    ints = np.clip(ints, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(wav.sample_rate)
        fh.writeframes(ints.tobytes())


def write_csv(path, header: str, rows) -> None:
    """Write a header line, then one comma-separated line per row. Floats are
    written by repr, so they read back bit for bit; other values by str."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
