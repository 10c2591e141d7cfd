"""Gyroscope sensor model — the accelerometer's weaker sibling.

Section III-B1 of the paper justifies using the accelerometer: prior
work (Spearphone, AccelEve/Ba et al.) found the gyroscope's audio
response to conductive speaker vibration is much weaker, because the
speaker shakes the chassis translationally and barely rotates it, and
gyroscope-based attacks (Gyrophone) relied on *shared-surface* vibration
from external speakers instead.

The model reuses the accelerometer ADC behaviour (no anti-alias filter,
quantisation, noise) but applies a rotational-coupling factor well below
unity to the vibration input, and omits the gravity offset (gyroscopes
measure angular rate, not specific force). It exists so the sensor-choice
ablation can *measure* the design rationale rather than assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp.resample import sample_and_decimate

__all__ = ["Gyroscope"]


@dataclass(frozen=True)
class Gyroscope:
    """Gyroscope output model (single axis, rad/s).

    Attributes
    ----------
    fs:
        Output data rate in Hz.
    rotational_coupling:
        Fraction of the chassis translational vibration that appears as
        angular rate (prior work measured an order of magnitude below
        the accelerometer's response; 0.04 reproduces that gap).
    noise_rms:
        White noise floor, rad/s (typical MEMS gyros: ~0.005).
    lsb:
        Quantisation step, rad/s.
    full_scale:
        Clipping range, rad/s.
    """

    fs: float = 420.0
    rotational_coupling: float = 0.04
    noise_rms: float = 0.005
    lsb: float = 0.0005
    full_scale: float = 35.0

    def __post_init__(self) -> None:
        if self.fs <= 0:
            raise ValueError("sampling rate must be positive")
        if not 0.0 <= self.rotational_coupling <= 1.0:
            raise ValueError("rotational_coupling must be in [0, 1]")
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
        """Digitise chassis vibration into an angular-rate stream.

        ``phase`` is the ADC clock phase, drawn from ``rng`` when ``None``
        (see :meth:`repro.phone.accelerometer.Accelerometer.sample`).
        """
        vibration = np.asarray(vibration, dtype=float)
        if vibration.ndim != 1:
            raise ValueError(f"expected a 1-D signal, got shape {vibration.shape}")
        total = self.rotational_coupling * vibration
        if slow_component is not None:
            slow_component = np.asarray(slow_component, dtype=float)
            if slow_component.shape != vibration.shape:
                raise ValueError(
                    "slow_component shape "
                    f"{slow_component.shape} != vibration shape {vibration.shape}"
                )
            total = total + self.rotational_coupling * slow_component
        if phase is None:
            phase = float(rng.uniform(0.0, 1.0))
        sampled = sample_and_decimate(total, fs_in, self.fs, phase=phase)
        if self.noise_rms > 0:
            sampled = sampled + rng.normal(0.0, self.noise_rms, sampled.size)
        if self.lsb > 0:
            sampled = np.round(sampled / self.lsb) * self.lsb
        return np.clip(sampled, -self.full_scale, self.full_scale)
