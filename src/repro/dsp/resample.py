"""Resampling primitives, including the aliasing accelerometer ADC path.

A MEMS accelerometer has no acoustic anti-aliasing front end: the proof
mass responds to chassis vibration well above the output data rate, so
speech-band energy *folds down* into the few-hundred-hertz sensor stream.
That aliasing is the physical mechanism EmoLeak (and Spearphone/AccelEve
before it) exploits. :func:`sample_and_decimate` models it by point
sampling the high-rate vibration waveform with no low-pass, reading
only the input samples :func:`sample_support` lists, while
:func:`linear_resample` provides a conventional interpolating resampler
for the synthesis side.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "linear_resample",
    "sample_and_decimate",
    "sample_support",
    "decimate_no_antialias",
]


def linear_resample(x: np.ndarray, fs_in: float, fs_out: float) -> np.ndarray:
    """Linear-interpolation resampling from ``fs_in`` to ``fs_out``.

    Suitable for upsampling or modest, pre-band-limited downsampling.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if fs_in <= 0 or fs_out <= 0:
        raise ValueError("sampling rates must be positive")
    if x.size == 0:
        return x.copy()
    duration = x.size / fs_in
    n_out = max(1, int(round(duration * fs_out)))
    t_in = np.arange(x.size) / fs_in
    t_out = np.arange(n_out) / fs_out
    return np.interp(t_out, t_in, x)


def _adc_grid(n: int, fs_in: float, fs_out: float, phase: float):
    """The ADC's sample times ``t_out`` over an ``n``-sample input grid ``t_in``.

    Shared by :func:`sample_and_decimate` and :func:`sample_support` so
    the samples the ADC reads and the support callers fill cannot drift
    apart.
    """
    if fs_in <= 0 or fs_out <= 0:
        raise ValueError("sampling rates must be positive")
    if not 0.0 <= phase < 1.0:
        raise ValueError(f"phase must be in [0, 1), got {phase}")
    duration = n / fs_in
    n_out = int(np.floor((duration - phase / fs_out) * fs_out))
    n_out = max(1, n_out)
    t_out = (np.arange(n_out) + phase) / fs_out
    t_in = np.arange(n) / fs_in
    return t_out, t_in


def sample_and_decimate(
    x: np.ndarray, fs_in: float, fs_out: float, phase: float = 0.0
) -> np.ndarray:
    """Point-sample ``x`` at ``fs_out`` with *no* anti-alias filtering.

    Models an accelerometer ADC reading the instantaneous proof-mass
    position: energy above ``fs_out / 2`` aliases into the output band
    instead of being rejected. Only the input samples listed by
    :func:`sample_support` are read; the rest may hold anything.

    Parameters
    ----------
    phase:
        Fractional offset (in output-sample periods, ``[0, 1)``) of the
        first sample, modelling an arbitrary ADC clock phase.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    t_out, t_in = _adc_grid(x.size, fs_in, fs_out, phase)
    if x.size == 0:
        return x.copy()
    # Instantaneous sampling: interpolate between the two nearest high-rate
    # samples (the high-rate grid is dense enough that this is effectively
    # point sampling of the continuous waveform).
    return np.interp(t_out, t_in, x)


def sample_support(n: int, fs_in: float, fs_out: float, phase: float = 0.0) -> np.ndarray:
    """Sorted unique input indices :func:`sample_and_decimate` reads.

    ``np.interp`` reads the two high-rate samples ``j`` and ``j + 1``
    bracketing each output time (clipped to the signal), about
    ``2 * fs_out / fs_in`` of the input. A caller whose input is a pure
    function of the sample index (the handheld motion tones) can
    evaluate it only here and leave the other samples unset.
    """
    t_out, t_in = _adc_grid(n, fs_in, fs_out, phase)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    j = np.searchsorted(t_in, t_out, side="right") - 1
    read = np.zeros(n, dtype=bool)
    read[np.clip(j, 0, n - 1)] = True
    read[np.clip(j + 1, 0, n - 1)] = True
    return np.flatnonzero(read)


def decimate_no_antialias(x: np.ndarray, factor: int) -> np.ndarray:
    """Keep every ``factor``-th sample with no filtering (pure aliasing)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if factor < 1:
        raise ValueError("decimation factor must be >= 1")
    return x[::factor].copy()
