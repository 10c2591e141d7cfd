"""Butterworth IIR filter design and zero-phase filtering.

The paper uses high-pass filters in two places: an 8 Hz high-pass on the
*speech-region detection* path for the handheld/ear-speaker setting, and a
1 Hz high-pass in the Table I information-gain ablation (which is shown to
destroy the feature information and is therefore *not* used on the feature
path). Both are expressed through the helpers here.

Design is delegated to :func:`scipy.signal.butter` in second-order-section
form for numerical stability; the filtering helpers reuse memoized designs,
which are bitwise what a fresh design returns. Filtering uses
:func:`scipy.signal.sosfiltfilt` so the detection path adds no group delay
(matching the offline MATLAB analysis in the paper).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import signal as _signal

__all__ = [
    "butter_highpass",
    "butter_lowpass",
    "butter_bandpass",
    "cached_butter_highpass",
    "sosfilt_zero_phase",
    "sosfilt_zero_phase_batch",
    "highpass",
    "lowpass",
    "bandpass",
]


def _check_cutoff(cutoff_hz: float, fs: float) -> None:
    nyquist = 0.5 * fs
    if not 0.0 < cutoff_hz < nyquist:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie in (0, {nyquist}) for fs={fs} Hz"
        )


def butter_highpass(cutoff_hz: float, fs: float, order: int = 4) -> np.ndarray:
    """Design a Butterworth high-pass filter, returned as SOS sections."""
    _check_cutoff(cutoff_hz, fs)
    return _signal.butter(order, cutoff_hz, btype="highpass", fs=fs, output="sos")


@lru_cache(maxsize=64)
def _cached_design(design, *args) -> np.ndarray:
    sos = design(*args)
    sos.setflags(write=False)
    return sos


def cached_butter_highpass(cutoff_hz: float, fs: float, order: int = 4) -> np.ndarray:
    """Memoized :func:`butter_highpass` for hot loops.

    Butterworth design is deterministic in ``(cutoff, fs, order)``, so the
    cached sections are bitwise what a fresh design returns; the batched
    collection pipeline and :func:`highpass` use this to avoid
    re-designing the same filter once per call. Returns a writable copy
    (scipy's filters require writable coefficient buffers).
    """
    return _cached_design(butter_highpass, float(cutoff_hz), float(fs), int(order)).copy()


def butter_lowpass(cutoff_hz: float, fs: float, order: int = 4) -> np.ndarray:
    """Design a Butterworth low-pass filter, returned as SOS sections."""
    _check_cutoff(cutoff_hz, fs)
    return _signal.butter(order, cutoff_hz, btype="lowpass", fs=fs, output="sos")


def butter_bandpass(
    low_hz: float, high_hz: float, fs: float, order: int = 2
) -> np.ndarray:
    """Design a Butterworth band-pass filter, returned as SOS sections."""
    _check_cutoff(low_hz, fs)
    _check_cutoff(high_hz, fs)
    if low_hz >= high_hz:
        raise ValueError(f"band edges must satisfy low < high, got {low_hz} >= {high_hz}")
    return _signal.butter(
        order, (low_hz, high_hz), btype="bandpass", fs=fs, output="sos"
    )


#: Per-coefficient-set state for the zero-phase fast path: the odd-ext
#: edge length and the steady-state initial conditions. ``sosfilt_zi``
#: solves a small linear system, which dominates ``sosfiltfilt``'s
#: per-call overhead when the same filter runs over hundreds of rows.
_ZERO_PHASE_CACHE: dict = {}


def _zero_phase_state(sos: np.ndarray):
    key = sos.tobytes()
    entry = _ZERO_PHASE_CACHE.get(key)
    if entry is None:
        n_sections = sos.shape[0]
        ntaps = 2 * n_sections + 1
        ntaps -= min(int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum()))
        zi = _signal.sosfilt_zi(sos)
        zi.setflags(write=False)
        entry = (3 * ntaps, zi)
        _ZERO_PHASE_CACHE[key] = entry
    return entry


def sosfilt_zero_phase(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply an SOS filter forwards and backwards (zero phase).

    Replicates :func:`scipy.signal.sosfiltfilt` (default odd padding)
    step for step — odd extension, steady-state ``zi`` scaled by the
    first/last sample, forward and reverse passes — so the output is
    bitwise what sosfiltfilt returns, but the expensive ``sosfilt_zi``
    solve is computed once per coefficient set instead of once per call.
    Falls back to single-pass filtering for signals too short for the
    edge padding.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    pad = 3 * (sos.shape[0] * 2 + 1)
    if x.size <= pad:
        return _signal.sosfilt(sos, x)
    edge, zi = _zero_phase_state(sos)
    left = 2 * x[:1] - x[edge:0:-1]
    right = 2 * x[-1:] - x[-2 : -(edge + 2) : -1]
    ext = np.concatenate((left, x, right))
    y, _ = _signal.sosfilt(sos, ext, zi=zi * ext[:1])
    y, _ = _signal.sosfilt(sos, y[::-1], zi=zi * y[-1:])
    y = y[::-1]
    if edge > 0:
        y = y[edge:-edge]
    return y


def _length_buckets(sizes, max_ratio: float = 1.3) -> list:
    """Group indices by size so padded stacks waste bounded work.

    One stack padded to the longest row pays for every shorter row's
    padding; sorting the rows and splitting whenever a row exceeds
    ``max_ratio`` times its bucket's shortest keeps that waste under
    ~30% per bucket while still batching near-equal rows together.
    """
    order = sorted(range(len(sizes)), key=sizes.__getitem__)
    buckets = [[order[0]]]
    for i in order[1:]:
        if sizes[i] > max_ratio * sizes[buckets[-1][0]]:
            buckets.append([i])
        else:
            buckets[-1].append(i)
    return buckets


def sosfilt_zero_phase_batch(sos: np.ndarray, xs) -> list:
    """Zero-phase filter many 1-D signals with two stacked causal passes.

    Each row's output is bitwise :func:`sosfilt_zero_phase` of that row
    alone. Zero-phase filtering is not pad-safe *as a whole* (the odd
    extension and the reverse pass depend on where each signal ends),
    but each of its two constituent ``sosfilt`` passes is causal, so
    rows of different lengths can share one stacked call per direction:
    trailing zero padding never reaches back into a row's valid prefix,
    and per-row initial conditions ride along on the stacked ``zi``
    axis. This collapses ``2 * len(xs)`` filter calls into two.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    for i, x in enumerate(xs):
        if x.ndim != 1:
            raise ValueError(f"signal {i} must be 1-D, got shape {x.shape}")
    results: list = [None] * len(xs)
    pad = 3 * (sos.shape[0] * 2 + 1)
    live = []
    for i, x in enumerate(xs):
        if x.size <= pad:
            results[i] = _signal.sosfilt(sos, x)
        else:
            live.append(i)
    if not live:
        return results
    if len(live) == 1:
        results[live[0]] = sosfilt_zero_phase(sos, xs[live[0]])
        return results

    edge, zi = _zero_phase_state(sos)
    exts = []
    for i in live:
        x = xs[i]
        left = 2 * x[:1] - x[edge:0:-1]
        right = 2 * x[-1:] - x[-2 : -(edge + 2) : -1]
        exts.append(np.concatenate((left, x, right)))
    sizes = [e.size for e in exts]
    for bucket in _length_buckets(sizes):
        width = sizes[bucket[-1]]
        k = len(bucket)
        stack = np.zeros((k, width))
        heads = np.empty(k)
        for r, j in enumerate(bucket):
            stack[r, : sizes[j]] = exts[j]
            heads[r] = exts[j][0]
        fwd, _ = _signal.sosfilt(
            sos, stack, axis=-1, zi=zi[:, None, :] * heads[None, :, None]
        )
        rev = np.zeros((k, width))
        for r, j in enumerate(bucket):
            rev[r, : sizes[j]] = fwd[r, : sizes[j]][::-1]
            heads[r] = fwd[r, sizes[j] - 1]
        bwd, _ = _signal.sosfilt(
            sos, rev, axis=-1, zi=zi[:, None, :] * heads[None, :, None]
        )
        for r, j in enumerate(bucket):
            results[live[j]] = bwd[r, : sizes[j]][::-1][edge:-edge]
    return results


def highpass(x: np.ndarray, cutoff_hz: float, fs: float, order: int = 4) -> np.ndarray:
    """Zero-phase Butterworth high-pass of a 1-D signal."""
    return sosfilt_zero_phase(cached_butter_highpass(cutoff_hz, fs, order), x)


def lowpass(x: np.ndarray, cutoff_hz: float, fs: float, order: int = 4) -> np.ndarray:
    """Zero-phase Butterworth low-pass of a 1-D signal."""
    sos = _cached_design(butter_lowpass, float(cutoff_hz), float(fs), int(order))
    return sosfilt_zero_phase(sos.copy(), x)


def bandpass(
    x: np.ndarray, low_hz: float, high_hz: float, fs: float, order: int = 2
) -> np.ndarray:
    """Zero-phase Butterworth band-pass of a 1-D signal."""
    sos = _cached_design(
        butter_bandpass, float(low_hz), float(high_hz), float(fs), int(order)
    )
    return sosfilt_zero_phase(sos.copy(), x)
