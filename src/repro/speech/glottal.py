"""Glottal source generation for the source-filter synthesizer.

Voiced excitation is a quasi-periodic pulse train whose instantaneous
period follows a supplied F0 contour, with cycle-level jitter (period
perturbation), shimmer (amplitude perturbation), a spectral-tilt low-pass
shaping the pulse, and additive aspiration noise for breathiness.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "glottal_source",
    "glottal_source_deferred",
    "glottal_finish_batch",
    "rosenberg_pulse",
]


def rosenberg_pulse(length: int, open_quotient: float = 0.6) -> np.ndarray:
    """One Rosenberg-style glottal flow-derivative pulse of ``length`` samples.

    A raised-cosine opening phase followed by a sharp closing spike —
    enough structure to give a realistic harmonic rolloff.
    """
    if length < 2:
        return np.array([1.0])
    open_quotient = float(np.clip(open_quotient, 0.2, 0.9))
    n_open = max(1, int(length * open_quotient))
    n_close = max(1, length - n_open)
    opening = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_open) / n_open))
    closing = np.cos(0.5 * np.pi * np.arange(n_close) / n_close)
    pulse = np.concatenate([opening, closing])[:length]
    # Flow derivative: differentiate to get the excitation spike at closure.
    deriv = np.diff(pulse, prepend=0.0)
    peak = np.max(np.abs(deriv))
    return deriv / peak if peak > 0 else deriv


#: Memoized read-only Rosenberg pulses keyed by length (default open
#: quotient only). Pulse shapes are deterministic functions of their
#: length, so the bank is shared process-wide; the lock makes concurrent
#: misses from the thread executor build each pulse exactly once.
_PULSE_BANK: Dict[int, np.ndarray] = {}
_PULSE_BANK_LOCK = threading.Lock()


def _banked_pulse(length: int) -> np.ndarray:
    pulse = _PULSE_BANK.get(length)
    if pulse is None:
        with _PULSE_BANK_LOCK:
            pulse = _PULSE_BANK.get(length)
            if pulse is None:
                pulse = rosenberg_pulse(length)
                pulse.setflags(write=False)
                _PULSE_BANK[length] = pulse
    return pulse


def glottal_source(
    f0_contour: np.ndarray,
    fs: float,
    rng: np.random.Generator,
    jitter: float = 0.01,
    shimmer: float = 0.04,
    tilt_db_per_octave: float = -12.0,
    breathiness: float = 0.08,
) -> np.ndarray:
    """Generate a glottal excitation following an F0 contour.

    Parameters
    ----------
    f0_contour:
        Per-sample fundamental frequency in Hz (values <= 0 mean unvoiced;
        those samples receive only aspiration noise).
    fs:
        Sampling rate in Hz.
    jitter / shimmer:
        Relative per-cycle perturbations of period and amplitude.
    tilt_db_per_octave:
        Spectral tilt applied with a one-pole low-pass whose strength is
        mapped from the tilt value (-18 = dark voice, -6 = bright voice).
    breathiness:
        Aspiration-noise mix in [0, 1].
    """
    f0_contour = np.asarray(f0_contour, dtype=float)
    if f0_contour.ndim != 1:
        raise ValueError(f"expected a 1-D F0 contour, got shape {f0_contour.shape}")
    n = f0_contour.size
    out = np.zeros(n)
    if n == 0:
        return out

    # Place glottal pulses by integrating instantaneous frequency.
    position = 0
    while position < n:
        f0 = f0_contour[position]
        if f0 <= 0:
            position += max(1, int(fs * 0.005))
            continue
        period = fs / f0
        period *= 1.0 + rng.normal(0.0, jitter)
        period = max(2.0, period)
        cycle_len = int(round(period))
        amplitude = 1.0 + rng.normal(0.0, shimmer)
        pulse = rosenberg_pulse(min(cycle_len, n - position))
        out[position : position + pulse.size] += amplitude * pulse
        position += cycle_len

    # Spectral tilt: one-pole low-pass, pole radius mapped from tilt.
    # -6 dB/oct (bright) -> weak pole, -18 dB/oct (dark) -> strong pole.
    tilt = float(np.clip(tilt_db_per_octave, -24.0, -3.0))
    pole = np.clip((-tilt - 3.0) / 21.0, 0.0, 0.95)
    if pole > 1e-3:
        from scipy.signal import lfilter

        out = lfilter([1.0 - pole], [1.0, -pole], out)

    # Aspiration noise, modulated by voicing so pauses stay quiet.
    voiced = (f0_contour > 0).astype(float)
    noise = rng.normal(0.0, 1.0, n) * (0.15 + 0.85 * voiced)
    rms_voice = np.sqrt(np.mean(out**2)) or 1.0
    rms_noise = np.sqrt(np.mean(noise**2)) or 1.0
    mix = float(np.clip(breathiness, 0.0, 1.0))
    out = (1.0 - mix) * out + mix * noise * (rms_voice / rms_noise)
    return out


def _flush_run(
    out: np.ndarray, start: int, length: int, amps: Sequence[float]
) -> None:
    """Place a run of equal-length, abutting glottal cycles.

    Pulses in a run tile ``out[start : start + len(amps) * length]``
    without overlap, so one broadcast multiply-add into the reshaped
    view performs exactly the reference's per-cycle
    ``out[p : p + length] += amplitude * pulse`` onto zeros.
    """
    pulse = _PULSE_BANK.get(length)
    if pulse is None:
        pulse = _banked_pulse(length)
    m = len(amps)
    if m == 1:
        view = out[start : start + length]
        np.add(view, pulse * amps[0], out=view)
    else:
        view = out[start : start + m * length].reshape(m, length)
        np.add(view, np.array(amps)[:, None] * pulse, out=view)


class _DeferredGlottal:
    """One syllable's glottal work after the RNG phase, before the tail.

    ``out`` holds the raw pulse train and ``noise`` the unscaled
    aspiration draw; the RNG-free spectral tilt and noise mix run later
    in :func:`glottal_finish_batch`, stacked across many syllables.
    ``noise is None`` marks a degenerate (empty) syllable that is
    already final.
    """

    __slots__ = ("out", "noise", "f0", "tilt_db_per_octave", "breathiness")

    def __init__(self, out, noise, f0, tilt_db_per_octave, breathiness):
        self.out = out
        self.noise = noise
        self.f0 = f0
        self.tilt_db_per_octave = tilt_db_per_octave
        self.breathiness = breathiness


def glottal_source_deferred(
    f0_contour: np.ndarray,
    fs: float,
    rng: np.random.Generator,
    jitter: float = 0.01,
    shimmer: float = 0.04,
    tilt_db_per_octave: float = -12.0,
    breathiness: float = 0.08,
) -> _DeferredGlottal:
    """RNG phase of the banked glottal source used by the batched data plane.

    Byte-identical output *and* byte-identical RNG-stream consumption
    against :func:`glottal_source`:

    - per-cycle pulses come from the process-wide memoized pulse bank
      instead of being rebuilt (``rosenberg_pulse`` is a pure function
      of length, and pulses never overlap, so slice-adds are exact);
    - the per-cycle ``rng.normal(0.0, s)`` draws are served from one
      block ``standard_normal`` draw (``loc + scale * z`` is how
      ``Generator.normal`` is defined), then the generator state is
      rewound and advanced by exactly the number of scalars the
      reference loop would have consumed — so every draw *after* this
      call sees the same stream.

    The RNG-free tail — spectral tilt and the breathiness mix — is left
    to :func:`glottal_finish_batch`, which runs it stacked over many
    syllables at once; ``glottal_finish_batch([work])[0]`` finishes a
    single syllable.
    """
    f0_contour = np.asarray(f0_contour, dtype=float)
    if f0_contour.ndim != 1:
        raise ValueError(f"expected a 1-D F0 contour, got shape {f0_contour.shape}")
    n = f0_contour.size
    out = np.zeros(n)
    if n == 0:
        return _DeferredGlottal(out, None, f0_contour, tilt_db_per_octave, breathiness)

    # Upper bound on per-cycle draws: two per cycle at the highest F0.
    max_f0 = float(f0_contour.max(initial=0.0))
    block = 2 * (int(n * max(max_f0, 1.0) / fs) + 8)
    state0 = rng.bit_generator.state
    # The cycle walk runs in plain Python floats: IEEE-754 arithmetic is
    # the same either way, and dodging per-element numpy scalars makes
    # the loop several times faster.
    z = rng.standard_normal(block).tolist()
    z_len = block
    used = 0
    # Sparse scalar reads: the walk touches one contour sample per cycle,
    # so item() beats materialising the whole contour as a Python list.
    f0_at = f0_contour.item
    fs_f = float(fs)
    jitter_f = float(jitter)
    shimmer_f = float(shimmer)
    unvoiced_step = max(1, int(fs_f * 0.005))

    # Consecutive cycles that land on the same rounded period form a
    # "run": their pulses abut exactly (the next cycle starts where the
    # previous one ends), so a whole run places with one broadcast
    # multiply-add into a reshaped view instead of one numpy call pair
    # per cycle. Each row still computes 0.0 + amplitude * pulse, so
    # the result is bitwise the reference's slice-adds onto zeros.
    run_start = 0
    run_len = 0
    run_amps: List[float] = []
    position = 0
    while position < n:
        f0 = f0_at(position)
        if f0 <= 0:
            if run_amps:
                _flush_run(out, run_start, run_len, run_amps)
                run_amps = []
                run_len = 0
            position += unvoiced_step
            continue
        if used + 2 > z_len:
            # Exhausted the block (pathological contour): rewind and
            # redraw a bigger one — stream-equivalent by construction.
            rng.bit_generator.state = state0
            block *= 2
            z = rng.standard_normal(block).tolist()
            z_len = block
        period = fs_f / f0
        # 1.0 + x absorbs the sign of a zero, so `jitter * z` matches
        # normal(0.0, jitter) = 0.0 + jitter*z bit for bit.
        period *= 1.0 + jitter_f * z[used]
        used += 1
        if period < 2.0:
            period = 2.0
        step = int(round(period))
        amplitude = 1.0 + shimmer_f * z[used]
        used += 1
        length = n - position
        if step < length:
            length = step
        if length == run_len and position == run_start + len(run_amps) * run_len:
            run_amps.append(amplitude)
        else:
            if run_amps:
                _flush_run(out, run_start, run_len, run_amps)
            run_start = position
            run_len = length
            run_amps = [amplitude]
        position += step
    if run_amps:
        _flush_run(out, run_start, run_len, run_amps)

    # Leave the generator exactly where the reference's scalar draws
    # would have left it.
    rng.bit_generator.state = state0
    if used:
        rng.standard_normal(used)

    noise = rng.normal(0.0, 1.0, n)
    return _DeferredGlottal(out, noise, f0_contour, tilt_db_per_octave, breathiness)


def glottal_finish_batch(works: Sequence[_DeferredGlottal]) -> List[np.ndarray]:
    """RNG-free tail of the banked glottal source, over many syllables.

    The spectral-tilt one-pole filter runs once per distinct pole over a
    padded stack of that pole's rows (end-padding is harmless to a
    causal filter), collapsing one ``lfilter`` call per syllable into one
    per emotion profile. The aspiration mix stays per row: it is a
    handful of elementwise passes whose stacked form would spend more on
    padded copies than it saves in call overhead. Every returned row is
    byte-identical to :func:`glottal_source` finishing that syllable
    alone.
    """
    from scipy.signal import lfilter

    live = [i for i, w in enumerate(works) if w.noise is not None]
    results: List[np.ndarray] = [w.out for w in works]
    if not live:
        return results

    # Spectral tilt, one filter call per distinct pole.
    by_pole: Dict[float, List[int]] = {}
    for i in live:
        tilt = float(np.clip(works[i].tilt_db_per_octave, -24.0, -3.0))
        pole = float(np.clip((-tilt - 3.0) / 21.0, 0.0, 0.95))
        if pole > 1e-3:
            by_pole.setdefault(pole, []).append(i)
    tilted: Dict[int, np.ndarray] = {}
    for pole, idxs in by_pole.items():
        b = [1.0 - pole]
        a = [1.0, -pole]
        if len(idxs) == 1:
            i = idxs[0]
            tilted[i] = lfilter(b, a, works[i].out)
        else:
            sizes = [works[i].out.size for i in idxs]
            stack = np.zeros((len(idxs), max(sizes)))
            for r, i in enumerate(idxs):
                stack[r, : sizes[r]] = works[i].out
            stack = lfilter(b, a, stack, axis=-1)
            for r, i in enumerate(idxs):
                tilted[i] = stack[r, : sizes[r]]

    for i in live:
        w = works[i]
        out = tilted.get(i, w.out)
        voiced = (w.f0 > 0).astype(float)
        noise = w.noise * (0.15 + 0.85 * voiced)
        rms_voice = np.sqrt(np.mean(out**2)) or 1.0
        rms_noise = np.sqrt(np.mean(noise**2)) or 1.0
        mix = float(np.clip(w.breathiness, 0.0, 1.0))
        results[i] = (1.0 - mix) * out + mix * noise * (rms_voice / rms_noise)
    return results
