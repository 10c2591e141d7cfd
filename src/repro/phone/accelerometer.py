"""MEMS accelerometer ADC model.

The sensor front end is where the side channel becomes a data stream:

- the proof mass tracks chassis vibration to several kilohertz, but the
  output data rate is only a few hundred hertz and there is **no acoustic
  anti-aliasing filter**, so speech-band vibration folds into the output
  band (:func:`repro.dsp.resample.sample_and_decimate`);
- a gravity component rides on the sensitive (Z) axis;
- thermal-mechanical noise sets the resolution floor;
- the digital output is quantised to the sensor's LSB and clipped at its
  full-scale range.

Android 12's privacy cap is expressed by constructing the sensor with
``fs=200`` (ablation A1 / paper Section VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp.resample import sample_and_decimate

__all__ = ["Accelerometer"]

GRAVITY = 9.80665


@dataclass(frozen=True)
class Accelerometer:
    """Accelerometer output model (single sensitive axis).

    Attributes
    ----------
    fs:
        Output data rate in Hz (the Physics Toolbox default on the
        paper's phones is ≈400–500 Hz; Android 12 caps background apps
        at 200 Hz).
    noise_rms:
        RMS of the white sensor-noise floor, m/s^2.
    lsb:
        Quantisation step, m/s^2 (typical MEMS parts: ~0.0012 for a
        16-bit ±4 g range).
    full_scale:
        Clipping range, m/s^2 (±4 g default).
    include_gravity:
        Add the 1 g static offset on the sensitive axis (the paper's raw
        Z-axis traces sit near -9.8 / +9.8 m/s^2, Fig. 3b/4a).
    """

    fs: float = 420.0
    noise_rms: float = 0.0035
    lsb: float = 0.0012
    full_scale: float = 4.0 * GRAVITY
    include_gravity: bool = True

    def __post_init__(self) -> None:
        if self.fs <= 0:
            raise ValueError("sampling rate must be positive")
        if self.noise_rms < 0 or self.lsb < 0:
            raise ValueError("noise_rms and lsb must be non-negative")

    def sample(
        self,
        vibration: np.ndarray,
        fs_in: float,
        rng: np.random.Generator,
        slow_component: Optional[np.ndarray] = None,
        phase: Optional[float] = None,
    ) -> np.ndarray:
        """Digitise a high-rate vibration waveform.

        Parameters
        ----------
        vibration:
            Chassis acceleration at the sensor site, sampled at ``fs_in``.
        slow_component:
            Optional additional low-frequency acceleration (hand motion,
            envelope-coupled drift) at the same rate, added *before*
            sampling.
        phase:
            ADC clock phase in ``[0, 1)``; ``None`` draws it from ``rng``.
            A caller that needs the phase in advance (to know which
            samples the ADC reads) draws it itself and passes it here.
        """
        vibration = np.asarray(vibration, dtype=float)
        if vibration.ndim != 1:
            raise ValueError(f"expected a 1-D signal, got shape {vibration.shape}")
        total = vibration
        if slow_component is not None:
            slow_component = np.asarray(slow_component, dtype=float)
            if slow_component.shape != vibration.shape:
                raise ValueError(
                    "slow_component shape "
                    f"{slow_component.shape} != vibration shape {vibration.shape}"
                )
            total = total + slow_component
        if phase is None:
            phase = float(rng.uniform(0.0, 1.0))
        sampled = sample_and_decimate(total, fs_in, self.fs, phase=phase)
        if self.include_gravity:
            sampled = sampled + GRAVITY
        if self.noise_rms > 0:
            sampled = sampled + rng.normal(0.0, self.noise_rms, sampled.size)
        if self.lsb > 0:
            sampled = np.round(sampled / self.lsb) * self.lsb
        return np.clip(sampled, -self.full_scale, self.full_scale)
