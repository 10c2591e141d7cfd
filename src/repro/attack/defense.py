"""Mitigation mechanisms (paper Section VI-B), as composable defenses.

The paper recommends: stricter sampling-rate limits with explicit user
permission, relocating the motion sensor away from the speakers, and
vibration-absorbing sensor mounting. Each is modelled as a defense that
transforms a :class:`~repro.phone.channel.VibrationChannel` scenario (or
post-processes its output stream, as an OS-level mitigation would), so
defense efficacy can be measured with the unchanged attack pipeline.

``evaluate_defense`` runs the attack against a defended channel and
reports residual accuracy — the number a platform security team would
want for each candidate mitigation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.attack.pipeline import EmoLeakAttack
from repro.dsp.filters import lowpass
from repro.phone.channel import VibrationChannel

__all__ = [
    "Defense",
    "RateLimitDefense",
    "SensorDampingDefense",
    "LowPassObfuscationDefense",
    "NoiseInjectionDefense",
    "QuantizationDefense",
    "ComposedDefense",
    "evaluate_defense",
]


class Defense:
    """Base defense: produce the defended channel for a scenario."""

    name: str = "none"

    def apply(self, channel: VibrationChannel) -> VibrationChannel:
        """Return a defended copy of ``channel`` (never mutates it)."""
        raise NotImplementedError

    def postprocess(self, trace: np.ndarray, fs: float) -> np.ndarray:
        """Optional OS-level transform of the sensor stream."""
        return trace

    def stream_stride(self, fs: float) -> int:
        """Decimation stride this defense forces on a stream at ``fs``.

        Non-trivial only for rate caps applied at the OS boundary (a
        stream arriving faster than the cap is sample-dropped). When the
        defense instead reconfigured the sensor via :meth:`apply`, the
        incoming rate already satisfies the cap and the stride is 1.
        """
        return 1

    def stream_fs(self, fs: float) -> float:
        """Effective stream rate after this defense's postprocess."""
        return fs / self.stream_stride(fs)

    def fingerprint(self) -> tuple:
        """Stable identity of this defense for cache keys.

        Covers the class and every constructor parameter — including RNG
        seeds — so two defended collections share a cache entry only when
        their defended numerics are actually identical.
        """
        if is_dataclass(self):
            params = tuple((f.name, getattr(self, f.name)) for f in fields(self))
        else:
            params = ()
        return (type(self).__name__, params)


@dataclass
class RateLimitDefense(Defense):
    """Cap the sensor output rate (the Android-12 mechanism).

    The paper measured that the deployed 200 Hz cap degrades but does
    not defeat the attack; stricter caps push further.
    """

    max_rate_hz: float = 200.0

    def __post_init__(self):
        if self.max_rate_hz <= 0:
            raise ValueError("max_rate_hz must be positive")
        self.name = f"rate_limit_{self.max_rate_hz:g}hz"

    def apply(self, channel: VibrationChannel) -> VibrationChannel:
        rate = min(self.max_rate_hz, channel.accel_fs)
        return VibrationChannel(
            device=channel.device,
            mode=channel.mode,
            placement=channel.placement,
            sample_rate=rate,
            sensor=channel.sensor,
            environment=channel.environment,
            seed=channel.seed,
        )

    def stream_stride(self, fs: float) -> int:
        # OS-boundary enforcement: a stream arriving above the cap is
        # decimated by an integer stride (sample dropping, no resample).
        # After apply() has reconfigured the sensor this is a no-op.
        return max(1, int(np.ceil(fs / self.max_rate_hz)))


@dataclass
class SensorDampingDefense(Defense):
    """Vibration-absorbing sensor mounting / relocation (hardware).

    Modelled as an attenuation of the speaker-to-IMU conductive path.
    """

    attenuation_db: float = 26.0

    def __post_init__(self):
        if self.attenuation_db < 0:
            raise ValueError("attenuation_db must be non-negative")
        self.name = f"damping_{self.attenuation_db:g}db"

    def apply(self, channel: VibrationChannel) -> VibrationChannel:
        factor = 10.0 ** (-self.attenuation_db / 20.0)
        device = replace(
            channel.device,
            loud_gain=channel.device.loud_gain * factor,
            ear_gain=channel.device.ear_gain * factor,
        )
        return VibrationChannel(
            device=device,
            mode=channel.mode,
            placement=channel.placement,
            sample_rate=channel.sample_rate,
            sensor=channel.sensor,
            environment=channel.environment,
            seed=channel.seed,
        )


@dataclass
class LowPassObfuscationDefense(Defense):
    """OS-side low-pass on sensor data handed to background apps.

    Legitimate motion uses (step counting, orientation) live below a few
    tens of hertz; speech-correlated content sits above. A software
    low-pass preserves utility while stripping the side channel.
    """

    cutoff_hz: float = 20.0

    def __post_init__(self):
        if self.cutoff_hz <= 0:
            raise ValueError("cutoff_hz must be positive")
        self.name = f"lowpass_{self.cutoff_hz:g}hz"

    def apply(self, channel: VibrationChannel) -> VibrationChannel:
        return channel

    def postprocess(self, trace: np.ndarray, fs: float) -> np.ndarray:
        if trace.size < 64 or self.cutoff_hz >= 0.45 * fs:
            return trace
        return lowpass(trace, self.cutoff_hz, fs, order=4)


@dataclass
class NoiseInjectionDefense(Defense):
    """OS-side masking noise added to background-app sensor streams."""

    noise_rms: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.noise_rms < 0:
            raise ValueError("noise_rms must be non-negative")
        self.name = f"noise_{self.noise_rms:g}"

    def apply(self, channel: VibrationChannel) -> VibrationChannel:
        return channel

    def postprocess(self, trace: np.ndarray, fs: float) -> np.ndarray:
        if self.noise_rms == 0:
            return trace
        # The noise stream is derived from (seed, trace content), not a
        # consumed instance RNG: the same trace always gets the same
        # mask regardless of call order, worker thread, or chunk
        # composition, while different seeds still
        # produce genuinely different defended streams.
        payload = np.ascontiguousarray(np.asarray(trace, dtype=np.float64))
        digest = hashlib.sha256(payload.tobytes()).digest()
        words = np.frombuffer(digest[:16], dtype=np.uint32)
        rng = np.random.default_rng(
            [0x4E4F4953, self.seed & 0xFFFFFFFF, *words.tolist()]
        )
        return trace + rng.normal(0.0, self.noise_rms, trace.size)


@dataclass
class QuantizationDefense(Defense):
    """OS-side coarse re-quantisation of background-app sensor streams.

    The hardware already quantises at the accelerometer's native LSB
    (~0.0012 m/s²); this defense rounds the delivered stream to a much
    coarser step, burying speech-band micro-vibrations below the
    quantisation floor while step-scale motion survives.
    """

    lsb: float = 0.005

    def __post_init__(self):
        if self.lsb < 0:
            raise ValueError("lsb must be non-negative")
        self.name = f"quant_{self.lsb:g}"

    def apply(self, channel: VibrationChannel) -> VibrationChannel:
        return channel

    def postprocess(self, trace: np.ndarray, fs: float) -> np.ndarray:
        if self.lsb == 0:
            return trace
        return np.round(trace / self.lsb) * self.lsb


@dataclass
class ComposedDefense(Defense):
    """An ordered stack of defenses applied as one unit.

    ``apply`` folds every stage's channel transform left to right;
    ``postprocess`` runs every stage's stream transform in the same
    order, threading the effective sample rate through rate-cap stages
    (a cap decimates the stream, so a low-pass placed *after* it sees
    the reduced rate — order is physically significant: anti-aliased
    filter-then-decimate differs from aliasing decimate-then-filter).

    An empty stack is the identity defense.
    """

    parts: Tuple[Defense, ...] = ()

    def __post_init__(self):
        self.parts = tuple(self.parts)
        self.name = "+".join(p.name for p in self.parts) or "none"

    def apply(self, channel: VibrationChannel) -> VibrationChannel:
        for part in self.parts:
            channel = part.apply(channel)
        return channel

    def postprocess(self, trace: np.ndarray, fs: float) -> np.ndarray:
        for part in self.parts:
            stride = part.stream_stride(fs)
            if stride > 1:
                trace = np.ascontiguousarray(trace[::stride])
                fs = fs / stride
            trace = part.postprocess(trace, fs)
        return trace

    def stream_stride(self, fs: float) -> int:
        # Composed stages may decimate at different points; expose the
        # aggregate rate change through stream_fs instead.
        return 1

    def stream_fs(self, fs: float) -> float:
        for part in self.parts:
            fs = part.stream_fs(fs)
        return fs

    def fingerprint(self) -> tuple:
        return (type(self).__name__, tuple(p.fingerprint() for p in self.parts))


def evaluate_defense(
    defense: Optional[Defense],
    corpus,
    channel: VibrationChannel,
    classifier: str = "random_forest",
    seed: int = 0,
    fast: bool = True,
):
    """Attack a defended channel; returns (accuracy, extraction_rate).

    ``defense=None`` measures the undefended baseline. An accuracy of
    1/n_classes is returned when the defense suppresses so many regions
    that no experiment can run (total denial counts as chance-level).
    """
    defended = defense.apply(channel) if defense is not None else channel
    has_postprocess = (
        defense is not None
        and type(defense).postprocess is not Defense.postprocess
    )
    if not has_postprocess:
        features = EmoLeakAttack(defended, seed=seed).collect_features(corpus)
    else:
        # OS-level post-processing transforms the *whole stream* before
        # the attacker sees it — detection must run on the transformed
        # trace, not just the feature extraction.
        from repro.attack.features import FEATURE_NAMES, extract_features
        from repro.attack.pipeline import FeatureDataset
        from repro.attack.regions import RegionDetector

        detector = RegionDetector.for_setting(defended.placement.value)
        defended.reseed(seed)
        rng = np.random.default_rng(seed + 29)
        rows, labels = [], []
        for spec in corpus.specs:
            audio = corpus.render(spec)
            pad = np.zeros(int(0.3 * corpus.audio_fs))
            trace = defended.transmit(
                np.concatenate([pad, audio, pad]), corpus.audio_fs, rng
            )
            trace = defense.postprocess(trace, defended.accel_fs)
            regions = detector.detect(trace, defended.accel_fs)
            if not regions:
                continue
            best = max(regions, key=lambda r: r.end - r.start)
            samples = best.slice(trace)
            if samples.size >= 4:
                rows.append(extract_features(samples, defended.accel_fs))
                labels.append(spec.emotion)
        features = FeatureDataset(
            X=np.vstack(rows) if rows else np.empty((0, len(FEATURE_NAMES))),
            y=np.array(labels),
            fs=defended.accel_fs,
            n_played=len(corpus.specs),
        )
    n_classes = len(set(corpus.emotions))
    if features.X.shape[0] < 5 * n_classes:
        return 1.0 / n_classes, features.extraction_rate
    # Imported here: repro.eval.experiment imports repro.attack at module
    # load, so a top-level import would be circular.
    from repro.eval.experiment import run_feature_experiment

    result = run_feature_experiment(features, classifier, seed=seed, fast=fast)
    return result.accuracy, features.extraction_rate
