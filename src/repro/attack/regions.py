"""Speech-region detection on accelerometer traces.

"The speech region corresponds to the period when a spike in the
accelerometer data is observed" (Section III-B2). The detector:

1. removes the static (gravity) offset;
2. optionally high-passes the trace — 8 Hz in the handheld/ear-speaker
   setting to suppress hand/body motion (used for *detection only*; the
   feature path always sees the raw region);
3. computes a short-window RMS envelope;
4. estimates the noise floor from a low percentile of that envelope and
   thresholds with hysteresis;
5. merges nearby regions and drops too-short ones.

The paper reports ~90 % region-extraction rate table-top and >=45 %
for the ear speaker; :func:`detection_rate` scores a detector against a
session's ground-truth playback log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.envelope import moving_rms
from repro.dsp.filters import cached_butter_highpass, highpass, sosfilt_zero_phase

__all__ = ["Region", "RegionDetector", "detection_rate"]


def _hysteresis_spans(
    envelope: np.ndarray, threshold_on: float, threshold_off: float
) -> List[Tuple[int, int]]:
    """Hysteresis thresholding as a transition walk.

    Equivalent to the per-sample loop (enter when ``value >=
    threshold_on`` while inactive, leave when ``value < threshold_off``
    while active, re-entry possible from the next sample) but walks only
    the precomputed crossing indices.
    """
    spans: List[Tuple[int, int]] = []
    on_idx = np.flatnonzero(envelope >= threshold_on)
    off_idx = np.flatnonzero(envelope < threshold_off)
    pos = 0
    while True:
        k = int(np.searchsorted(on_idx, pos))
        if k == on_idx.size:
            break
        start = int(on_idx[k])
        j = int(np.searchsorted(off_idx, start + 1))
        if j == off_idx.size:
            spans.append((start, int(envelope.size)))
            break
        end = int(off_idx[j])
        spans.append((start, end))
        pos = end + 1
    return spans


@dataclass(frozen=True)
class Region:
    """A detected speech region, in samples and seconds."""

    start: int
    end: int
    fs: float

    @property
    def start_s(self) -> float:
        return self.start / self.fs

    @property
    def end_s(self) -> float:
        return self.end / self.fs

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) / self.fs

    @property
    def center_s(self) -> float:
        return 0.5 * (self.start_s + self.end_s)

    def slice(self, trace: np.ndarray) -> np.ndarray:
        """Extract this region's raw samples from a trace."""
        return trace[self.start : self.end]


class RegionDetector:
    """Energy-spike speech-region detector.

    Parameters
    ----------
    highpass_hz:
        Detection-path high-pass cutoff (None = no filter, the table-top
        configuration; 8.0 = the paper's handheld configuration).
    envelope_window_s:
        RMS envelope window.
    threshold_factor:
        Region onset threshold as a multiple of the noise floor spread
        above the floor.
    release_factor:
        Hysteresis release threshold (fraction of the onset threshold).
    min_duration_s:
        Minimum region length.
    merge_gap_s:
        Regions closer than this are merged.
    floor_percentile:
        Envelope percentile used as the noise-floor estimate.
    min_peak_ratio:
        Signal-presence gate: if the envelope's 99th percentile is below
        ``min_peak_ratio`` times its median, the trace is treated as
        containing no speech at all (a pure noise floor is unimodal and
        tight; speech bursts stretch the upper tail).
    """

    def __init__(
        self,
        highpass_hz: Optional[float] = None,
        envelope_window_s: float = 0.05,
        threshold_factor: float = 3.0,
        release_factor: float = 0.55,
        min_duration_s: float = 0.08,
        merge_gap_s: float = 0.12,
        floor_percentile: float = 25.0,
        min_peak_ratio: float = 2.0,
    ):
        if highpass_hz is not None and highpass_hz <= 0:
            raise ValueError("highpass_hz must be positive or None")
        if threshold_factor <= 0:
            raise ValueError("threshold_factor must be positive")
        if not 0 < release_factor <= 1:
            raise ValueError("release_factor must be in (0, 1]")
        self.highpass_hz = highpass_hz
        self.envelope_window_s = float(envelope_window_s)
        self.threshold_factor = float(threshold_factor)
        self.release_factor = float(release_factor)
        self.min_duration_s = float(min_duration_s)
        self.merge_gap_s = float(merge_gap_s)
        self.floor_percentile = float(floor_percentile)
        self.min_peak_ratio = float(min_peak_ratio)

    def detection_signal(self, trace: np.ndarray, fs: float) -> np.ndarray:
        """The envelope the thresholds operate on (exposed for Fig. 4)."""
        trace = np.asarray(trace, dtype=float)
        if trace.ndim != 1:
            raise ValueError(f"expected a 1-D trace, got shape {trace.shape}")
        # Remove gravity/DC; an empty trace has no median (and no regions).
        x = trace - np.median(trace) if trace.size else trace
        if self.highpass_hz is not None and trace.size > 32:
            x = highpass(x, self.highpass_hz, fs, order=4)
        window = max(3, int(round(self.envelope_window_s * fs)))
        return moving_rms(x, window)

    @staticmethod
    def _otsu_threshold(log_env: np.ndarray) -> float:
        """Otsu's between-class-variance threshold on the log envelope.

        The log envelope of a recording is bimodal — a noise-floor mode
        and a speech mode — so Otsu's criterion finds the valley without
        assuming how much of the trace is speech.
        """
        lo, hi = float(log_env.min()), float(log_env.max())
        if hi - lo < 1e-9:
            return hi
        hist, edges = np.histogram(log_env, bins=64, range=(lo, hi))
        centers = 0.5 * (edges[:-1] + edges[1:])
        weights = hist / hist.sum()
        w0 = np.cumsum(weights)
        w1 = 1.0 - w0
        mu_all = np.sum(weights * centers)
        mu0_num = np.cumsum(weights * centers)
        with np.errstate(divide="ignore", invalid="ignore"):
            mu0 = mu0_num / w0
            mu1 = (mu_all - mu0_num) / w1
            between = w0 * w1 * (mu0 - mu1) ** 2
        between[~np.isfinite(between)] = 0.0
        return float(centers[int(np.argmax(between))])

    def _regions_from_envelope(
        self, envelope: np.ndarray, fs: float
    ) -> List[Region]:
        """Threshold an RMS envelope into regions (shared scalar/batched core)."""
        if envelope.size == 0:
            return []
        # One fused percentile call: numpy partitions the envelope once
        # for all four ranks, with each value bit-equal to a separate call.
        median, peak, floor, floor_hi = np.percentile(
            envelope,
            [50.0, 99.0, self.floor_percentile, self.floor_percentile + 10.0],
        )
        # Signal-presence gate: a speech-free trace has a tight, unimodal
        # envelope distribution; thresholding it would hallucinate regions.
        if peak < self.min_peak_ratio * max(median, 1e-12):
            return []
        # Noise-floor statistics from the quiet end of the envelope.
        noise_spread = max(floor_hi - floor, 1e-9)
        guard = floor + self.threshold_factor * noise_spread
        # Bimodal split between the noise and speech envelope modes.
        log_env = np.log10(np.maximum(envelope, 1e-12))
        otsu = 10.0 ** self._otsu_threshold(log_env)
        threshold_on = max(otsu, guard)
        threshold_off = max(
            floor + self.release_factor * (threshold_on - floor), floor
        )

        regions = _hysteresis_spans(envelope, threshold_on, threshold_off)

        # Merge regions separated by small gaps.
        merge_gap = int(round(self.merge_gap_s * fs))
        merged: List[Tuple[int, int]] = []
        for s, e in regions:
            if merged and s - merged[-1][1] <= merge_gap:
                merged[-1] = (merged[-1][0], e)
            else:
                merged.append((s, e))

        min_len = int(round(self.min_duration_s * fs))
        return [
            Region(start=s, end=e, fs=fs) for s, e in merged if e - s >= min_len
        ]

    def detect(self, trace: np.ndarray, fs: float) -> List[Region]:
        """Detect speech regions in an accelerometer trace."""
        if fs <= 0:
            raise ValueError("fs must be positive")
        envelope = self.detection_signal(trace, fs)
        return self._regions_from_envelope(envelope, fs)

    def _detection_signals(
        self, traces: Sequence[np.ndarray], fs: float
    ) -> List[np.ndarray]:
        """Batched :meth:`detection_signal`, byte-identical per row.

        DC removal and the optional zero-phase high-pass stay per row
        (``sosfiltfilt`` edge padding is not pad-safe; the filter design
        is cached), then the RMS envelopes of every row come from one
        cumulative sum over the padded ``x**2`` stack — a zero-padded
        row's cumsum prefix is exactly the unpadded cumsum, so the
        per-row window gathers reproduce ``moving_rms`` bit for bit.
        """
        rows = [np.asarray(t, dtype=float) for t in traces]
        for i, trace in enumerate(rows):
            if trace.ndim != 1:
                raise ValueError(f"trace {i} must be 1-D, got shape {trace.shape}")
        window = max(3, int(round(self.envelope_window_s * fs)))
        filtered: List[np.ndarray] = []
        for trace in rows:
            x = trace - np.median(trace) if trace.size else trace
            if self.highpass_hz is not None and trace.size > 32:
                sos = cached_butter_highpass(self.highpass_hz, fs, order=4)
                x = sosfilt_zero_phase(sos, x)
            filtered.append(x)
        envelopes: List[Optional[np.ndarray]] = [None] * len(rows)
        # Rows too short for the cumsum window path keep the scalar code
        # (moving_average's window-1 fallback is a straight copy).
        big = [i for i in range(len(rows)) if filtered[i].size >= 2]
        for i in range(len(rows)):
            if filtered[i].size < 2:
                envelopes[i] = moving_rms(filtered[i], window)
        if big:
            lengths = np.array([filtered[i].size for i in big], dtype=np.int64)
            stack = np.zeros((len(big), int(lengths.max())))
            for r, i in enumerate(big):
                stack[r, : lengths[r]] = filtered[i] ** 2
            csum = np.concatenate(
                [np.zeros((len(big), 1)), np.cumsum(stack, axis=-1)], axis=1
            )
            for r, i in enumerate(big):
                n = int(lengths[r])
                w = min(window, n)
                half_left = w // 2
                half_right = w - half_left - 1
                idx = np.arange(n)
                lo = np.maximum(idx - half_left, 0)
                hi = np.minimum(idx + half_right + 1, n)
                envelopes[i] = np.sqrt((csum[r, hi] - csum[r, lo]) / (hi - lo))
        return envelopes  # type: ignore[return-value]

    def detect_batch(
        self, traces: Sequence[np.ndarray], fs: float
    ) -> List[List[Region]]:
        """Batched :meth:`detect` over a ragged list of traces.

        Region boundaries are discrete, so this path always runs in
        double precision; every row's regions match the scalar call
        exactly regardless of batch composition.
        """
        if fs <= 0:
            raise ValueError("fs must be positive")
        envelopes = self._detection_signals(traces, fs)
        return [self._regions_from_envelope(env, fs) for env in envelopes]

    @classmethod
    def for_setting(cls, placement: str) -> "RegionDetector":
        """Paper-default detector for a placement.

        Table-top: no filter; handheld: 8 Hz high-pass on the detection
        path (Section III-B2) and a more permissive threshold because
        the ear-speaker signal is weak.
        """
        key = str(placement).lower()
        if "hand" in key:
            return cls(
                highpass_hz=8.0,
                threshold_factor=2.2,
                release_factor=0.6,
                min_duration_s=0.15,
                merge_gap_s=0.30,
            )
        return cls(highpass_hz=None)


def detection_rate(
    regions: Sequence[Region],
    truth_intervals: Sequence[Tuple[float, float]],
) -> float:
    """Fraction of ground-truth playback intervals hit by >=1 detection.

    An interval counts as extracted when some detected region *overlaps*
    it with positive duration, i.e. ``region.start_s < t_end`` and
    ``region.end_s > t_start`` — the paper's "extraction rate". A region
    that merely touches an interval's edge (zero-length intersection)
    does not count; a region's centre falling outside the interval is
    fine as long as the region itself overlaps it.
    """
    if not truth_intervals:
        raise ValueError("need at least one ground-truth interval")
    hits = 0
    for t_start, t_end in truth_intervals:
        for region in regions:
            if region.start_s < t_end and region.end_s > t_start:
                hits += 1
                break
    return hits / len(truth_intervals)
