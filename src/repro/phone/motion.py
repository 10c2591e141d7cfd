"""Handheld motion noise and envelope-coupled drift.

Two low-frequency processes distinguish the handheld/ear-speaker setting
from table-top:

1. **Hand/body motion** — physiological tremor (2-8 Hz) plus postural
   sway (0.1-1.5 Hz), essentially all below 8 Hz. This is why the paper
   applies an 8 Hz high-pass *only on the region-detection path* in the
   handheld setting (Fig. 4), and why table-top data needs no filter.

2. **Envelope-coupled drift** — with the phone pressed against the head,
   sustained speaker drive couples into very slow chassis orientation /
   pressure changes roughly proportional to the speech intensity
   envelope. This sub-1 Hz component is what gives the raw time-domain
   features (min/mean/max/CV) their information in Table I, and why even
   a 1 Hz high-pass destroys that information.

:class:`HandheldMotion` holds the configuration;
:class:`MotionProcess` is the stateful realisation. A session is
transmitted chunk-by-chunk (utterance at a time), so the process keeps
absolute time and filter state across chunks — the noise is one
continuous waveform, not independent per-chunk draws (which would put
discontinuity energy above 8 Hz at every chunk boundary).

The tones are evaluated only at the sample points the accelerometer ADC
reads (:meth:`MotionProcess.advance` with ``at``); the drift needs the
whole drive envelope and is computed at every audio sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from repro.dsp.envelope import moving_rms

__all__ = ["HandheldMotion", "MotionProcess"]


@dataclass(frozen=True)
class HandheldMotion:
    """Handheld-setting low-frequency acceleration parameters.

    Attributes
    ----------
    tremor_rms:
        RMS of physiological tremor (2-7.5 Hz band), m/s^2.
    sway_rms:
        RMS of postural sway / slow arm drift (0.1-1.5 Hz band), m/s^2.
    envelope_coupling:
        Gain from the speaker drive-force envelope to sub-1 Hz chassis
        drift, m/s^2 per unit force envelope. At ear-speaker drive
        levels (force envelope ~0.01) the default yields ~0.05-0.1 m/s^2
        of loudness-proportional drift — comparable to postural sway but,
        unlike sway, *correlated with the speech intensity*, which is
        what gives the raw min/mean/max features their Table I
        information.
    """

    tremor_rms: float = 0.025
    sway_rms: float = 0.03
    envelope_coupling: float = 18.0


class MotionProcess:
    """A continuous realisation of the handheld motion processes.

    Band-limited noise is a sum of random-phase sinusoids with
    frequencies drawn inside the band — zero out-of-band energy by
    construction, so the 8 Hz detection high-pass removes it exactly
    (filtering white noise into a 2-8 Hz band at an 8 kHz rate is
    numerically hopeless on short chunks). Absolute time advances across
    :meth:`advance` calls so consecutive chunks join smoothly, and the
    drift smoother keeps its one-pole filter state between chunks.
    """

    _N_COMPONENTS = 32

    def __init__(self, config: HandheldMotion, rng: np.random.Generator):
        self.config = config
        self._t_samples = 0
        self._tremor = self._draw_components(rng, 2.0, 7.5, config.tremor_rms)
        self._sway = self._draw_components(rng, 0.1, 1.5, config.sway_rms)
        self._drift_state = None  # lfilter zi for the one-pole smoother

    def _draw_components(self, rng, low_hz, high_hz, rms):
        freqs = rng.uniform(low_hz, high_hz, self._N_COMPONENTS)
        phases = rng.uniform(0.0, 2.0 * np.pi, self._N_COMPONENTS)
        amp = rms * np.sqrt(2.0 / self._N_COMPONENTS)
        return freqs, phases, amp

    def _tone_sum(self, components, t: np.ndarray) -> np.ndarray:
        freqs, phases, amp = components
        out = np.zeros(t.size)
        for f, phi in zip(freqs, phases):
            out += np.cos(2.0 * np.pi * f * t + phi)
        return amp * out

    def advance(self, n: int, fs: float, at: Optional[np.ndarray] = None) -> np.ndarray:
        """Next ``n`` samples of hand/body motion acceleration.

        With ``at`` (indices into the ``n`` samples) only those samples
        are evaluated and returned, in ``at``'s order; time still
        advances by ``n``. Each tone is a pure function of its sample
        index, so the values are bitwise the dense ones at ``at``. The
        channel passes the ADC's :func:`~repro.dsp.resample.sample_support`
        here: the sensor reads ~2 of every ``fs / accel_fs`` samples.
        """
        if n <= 0:
            return np.zeros(0)
        idx = np.arange(n) if at is None else np.asarray(at)
        t = (self._t_samples + idx) / fs
        self._t_samples += n
        out = np.zeros(idx.size)
        if self.config.tremor_rms > 0:
            out += self._tone_sum(self._tremor, t)
        if self.config.sway_rms > 0:
            out += self._tone_sum(self._sway, t)
        return out

    def drift(self, force: np.ndarray, fs: float) -> np.ndarray:
        """Sub-1 Hz drift proportional to the drive-force envelope.

        A fast moving-RMS envelope is smoothed by a one-pole low-pass
        (~0.4 Hz) whose state persists across chunks, so the drift is
        continuous over a whole recording session.
        """
        force = np.asarray(force, dtype=float)
        if force.size == 0 or self.config.envelope_coupling == 0:
            return np.zeros(force.size)
        fast = moving_rms(force - force.mean(), max(3, int(0.25 * fs)))
        pole = np.exp(-2.0 * np.pi * 0.4 / fs)
        b, a = [1.0 - pole], [1.0, -pole]
        if self._drift_state is None:
            self._drift_state = np.array([fast[0] * pole])
        slow, self._drift_state = lfilter(b, a, fast, zi=self._drift_state)
        return self.config.envelope_coupling * np.maximum(slow, 0.0)
