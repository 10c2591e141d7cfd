"""Periodic-source music synthesis for the content-ID attack.

Kinetic Song Comprehension (PAPERS.md) identifies *played songs* from
phone motions: music reaching the accelerometer through the chassis is
the same side channel as speech, with a periodic source instead of a
glottal one. This module models a song as a beat-locked harmonic stack
plus percussive transients:

- **Harmonic stack**: a chord of partials at the song's root frequency
  (scaled by the chord's semitone intervals), each partial with a
  geometric amplitude rolloff set by the song's brightness.
- **Beat lock**: the stack's amplitude envelope pumps on the beat grid
  derived from the tempo, so the energy periodicity that survives the
  vibration channel encodes the tempo — the strongest song fingerprint
  at accelerometer rates.
- **Percussive transients**: short noise bursts with sharp exponential
  decay on the song's rhythm pattern (kick/snare-like accents).

:class:`MusicSynthesizer` mirrors the :class:`~repro.speech.synthesizer.
Synthesizer` contract — ``render`` per clip and ``render_batch`` over
many clips with per-clip generators — so the song corpus drops into the
collection engine's data plane (``Corpus.render_batch`` falls back to
per-spec rendering for corpora that override ``render``, keeping the
batched data plane byte-identical to per-clip rendering).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SongSpec", "SONGS", "MusicSynthesizer", "song_names"]


@dataclass(frozen=True)
class SongSpec:
    """A song's identity-bearing parameters.

    Attributes
    ----------
    name:
        Canonical song identifier (the content-ID label).
    tempo_bpm:
        Beat rate; the dominant low-frequency periodicity.
    root_hz:
        Root frequency of the harmonic stack.
    chord:
        Semitone offsets of the chord tones stacked on the root.
    brightness:
        Geometric rolloff of partial amplitudes in (0, 1); higher keeps
        more energy in upper partials.
    pattern:
        Percussion accents per beat subdivision over one bar of four
        beats at two subdivisions each (8 slots); 0 = silent slot.
    swing:
        Beat-envelope asymmetry in [0, 0.5): how quickly the pumped
        envelope decays after each beat.
    """

    name: str
    tempo_bpm: float
    root_hz: float
    chord: Tuple[int, ...] = (0, 4, 7)
    brightness: float = 0.55
    pattern: Tuple[float, ...] = (1.0, 0.0, 0.6, 0.0, 0.9, 0.0, 0.6, 0.3)
    swing: float = 0.25

    def __post_init__(self) -> None:
        if self.tempo_bpm <= 0:
            raise ValueError("tempo_bpm must be positive")
        if self.root_hz <= 0:
            raise ValueError("root_hz must be positive")
        if not 0.0 < self.brightness < 1.0:
            raise ValueError("brightness must be in (0, 1)")
        if len(self.pattern) != 8:
            raise ValueError("pattern must have 8 subdivision slots")


#: Built-in catalogue: eight songs with distinct tempo/harmony/rhythm
#: fingerprints, spanning the pop/rock/electronic tempo range.
SONGS: Dict[str, SongSpec] = {
    song.name: song
    for song in (
        SongSpec("ballad-62", 62.0, 98.0, (0, 3, 7), 0.45,
                 (1.0, 0.0, 0.0, 0.0, 0.7, 0.0, 0.0, 0.0), 0.18),
        SongSpec("groove-84", 84.0, 110.0, (0, 4, 7, 10), 0.55,
                 (1.0, 0.0, 0.5, 0.4, 0.9, 0.0, 0.5, 0.0), 0.30),
        SongSpec("pop-100", 100.0, 130.8, (0, 4, 7), 0.60,
                 (1.0, 0.0, 0.7, 0.0, 1.0, 0.0, 0.7, 0.0), 0.25),
        SongSpec("anthem-112", 112.0, 146.8, (0, 5, 7), 0.50,
                 (1.0, 0.3, 0.6, 0.3, 0.9, 0.3, 0.6, 0.3), 0.22),
        SongSpec("rock-126", 126.0, 164.8, (0, 7, 12), 0.65,
                 (1.0, 0.0, 0.8, 0.0, 1.0, 0.5, 0.8, 0.0), 0.28),
        SongSpec("dance-128", 128.0, 87.3, (0, 3, 7, 12), 0.70,
                 (1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5), 0.35),
        SongSpec("dnb-150", 150.0, 73.4, (0, 3, 10), 0.75,
                 (1.0, 0.0, 0.4, 0.9, 0.2, 0.8, 0.4, 0.0), 0.40),
        SongSpec("punk-168", 168.0, 196.0, (0, 5, 12), 0.68,
                 (1.0, 0.6, 1.0, 0.6, 1.0, 0.6, 1.0, 0.6), 0.32),
    )
}


def song_names() -> Tuple[str, ...]:
    """Canonical names of the built-in song catalogue."""
    return tuple(sorted(SONGS))


class MusicSynthesizer:
    """Render song clips at a fixed audio sampling rate."""

    def __init__(self, fs: float = 8000.0):
        if fs < 2000:
            raise ValueError("synthesis sampling rate must be >= 2000 Hz")
        self.fs = float(fs)

    def _beat_envelope(
        self, n: int, beat_len: float, swing: float, phase: float
    ) -> np.ndarray:
        """Beat-locked pumping envelope: exp decay restarted every beat."""
        t = np.arange(n, dtype=float) + phase * beat_len
        beat_pos = np.mod(t, beat_len) / beat_len
        decay = 3.0 + 9.0 * swing
        return 0.25 + 0.75 * np.exp(-decay * beat_pos)

    def render(
        self,
        song: SongSpec,
        rng: np.random.Generator,
        duration_s: float = 1.6,
        start_beat: Optional[float] = None,
    ) -> np.ndarray:
        """Render one clip of a song to a waveform in [-1, 1].

        Each clip starts at a (random or given) position in the bar and
        carries small per-clip detune/level perturbations, so clips of
        one song vary like excerpts of one recording while the tempo,
        harmony and rhythm fingerprints stay fixed.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        fs = self.fs
        n = int(round(duration_s * fs))
        beat_len = fs * 60.0 / song.tempo_bpm
        if start_beat is None:
            start_beat = float(rng.uniform(0.0, 8.0))
        detune = float(rng.lognormal(0.0, 0.004))
        level_jitter = float(rng.lognormal(0.0, 0.05))

        # Harmonic stack: chord tones x partials, beat-locked amplitude.
        t = np.arange(n, dtype=float)
        phase0 = start_beat * beat_len
        stack = np.zeros(n)
        nyquist = 0.45 * fs
        for semitone in song.chord:
            tone_hz = song.root_hz * detune * 2.0 ** (semitone / 12.0)
            partial = 1
            amp = 1.0
            while partial * tone_hz < nyquist and amp > 0.02:
                freq = partial * tone_hz
                # Fixed per-(tone, partial) phase offset keeps the clip a
                # deterministic function of (song, start position).
                phi = 2.0 * np.pi * freq * (t + phase0) / fs
                stack += amp * np.sin(phi + 0.7 * partial + 0.3 * semitone)
                amp *= song.brightness
                partial += 1
        envelope = self._beat_envelope(n, beat_len, song.swing, start_beat)
        stack *= envelope

        # Percussive transients on the 8-slot bar grid.
        percussion = np.zeros(n)
        slot_len = beat_len / 2.0
        decay_len = max(8, int(0.02 * fs))
        kick = np.exp(-np.arange(decay_len) / (0.004 * fs))
        first_slot = int(np.floor(phase0 / slot_len))
        slot = first_slot
        while (slot + 1) * slot_len - phase0 < n + slot_len:
            accent = song.pattern[slot % len(song.pattern)]
            slot_start = int(round(slot * slot_len - phase0))
            slot += 1
            if accent <= 0.0 or slot_start + 1 >= n:
                continue
            if slot_start < 0:
                continue
            burst = rng.normal(0.0, 1.0, decay_len) * kick
            stop = min(n, slot_start + decay_len)
            percussion[slot_start:stop] += accent * burst[: stop - slot_start]

        wave = stack + 2.2 * percussion
        # Level: normalise to a stable clip RMS with per-clip jitter.
        rms = np.sqrt(np.mean(wave**2))
        if rms > 0:
            wave = wave * (10 ** (-20.0 / 20.0) / rms) * level_jitter
        return np.clip(wave, -1.0, 1.0)

    def render_batch(
        self,
        songs: Sequence[SongSpec],
        rngs: Sequence[np.random.Generator],
        durations_s: Optional[Sequence[float]] = None,
    ) -> List[np.ndarray]:
        """Render many clips, each with its own generator.

        Mirrors ``Synthesizer.render_batch``'s contract: per-item RNG
        streams match the per-clip path exactly, so batched collection
        stays byte-identical to the reference.
        """
        if len(songs) != len(rngs):
            raise ValueError("songs and rngs must have the same length")
        if durations_s is None:
            durations_s = [1.6] * len(songs)
        elif len(durations_s) != len(songs):
            raise ValueError("durations_s must match the number of songs")
        return [
            self.render(song, rng, duration_s=duration)
            for song, rng, duration in zip(songs, rngs, durations_s)
        ]
