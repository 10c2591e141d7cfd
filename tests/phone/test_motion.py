"""Tests for repro.phone.motion."""

import numpy as np
import pytest

from repro.dsp.filters import highpass
from repro.phone.motion import HandheldMotion, MotionProcess


@pytest.fixture()
def process():
    return MotionProcess(HandheldMotion(), np.random.default_rng(0))


class TestAdvance:
    def test_length(self, process):
        assert process.advance(1000, 8000.0).shape == (1000,)

    def test_zero_length(self, process):
        assert process.advance(0, 8000.0).size == 0

    def test_continuity_across_chunks(self):
        """Two chunked calls must equal one long call (same seed)."""
        a = MotionProcess(HandheldMotion(), np.random.default_rng(7))
        b = MotionProcess(HandheldMotion(), np.random.default_rng(7))
        whole = a.advance(2000, 8000.0)
        parts = np.concatenate([b.advance(800, 8000.0), b.advance(1200, 8000.0)])
        assert np.allclose(whole, parts)

    def test_at_indices_match_dense_bytes(self):
        """Evaluating at indices gives the dense samples there, and time
        still advances by the full chunk."""
        a = MotionProcess(HandheldMotion(), np.random.default_rng(3))
        b = MotionProcess(HandheldMotion(), np.random.default_rng(3))
        for n in (800, 1201, 5):
            at = np.unique(np.random.default_rng(n).integers(0, n, n // 5))
            dense = a.advance(n, 8000.0)
            assert b.advance(n, 8000.0, at=at).tobytes() == dense[at].tobytes()
        assert a._t_samples == b._t_samples == 2006

    def test_band_limited_below_8hz(self, process):
        """The detection high-pass must remove most motion noise."""
        fs = 420.0
        noise = process.advance(int(60 * fs), fs)
        # At the paper's 8 Hz cutoff the 7.5 Hz band edge is only partly
        # attenuated; the bulk of the motion energy must still go.
        assert np.std(highpass(noise, 8.0, fs, order=4)) < 0.3 * np.std(noise)
        # Slightly above the band the rejection is essentially total.
        assert np.std(highpass(noise, 12.0, fs, order=4)) < 0.05 * np.std(noise)

    def test_rms_calibration(self, process):
        fs = 420.0
        noise = process.advance(int(120 * fs), fs)
        config = HandheldMotion()
        expected = np.sqrt(config.tremor_rms**2 + config.sway_rms**2)
        assert np.std(noise) == pytest.approx(expected, rel=0.5)

    def test_disabled_components(self):
        quiet = MotionProcess(
            HandheldMotion(tremor_rms=0.0, sway_rms=0.0), np.random.default_rng(0)
        )
        assert np.allclose(quiet.advance(500, 420.0), 0.0)


class TestDrift:
    def test_proportional_to_level(self, process):
        fs = 8000.0
        rng = np.random.default_rng(1)
        quiet = 0.01 * rng.normal(size=int(2 * fs))
        loud = 0.1 * rng.normal(size=int(2 * fs))
        fresh = lambda: MotionProcess(HandheldMotion(), np.random.default_rng(0))
        d_quiet = fresh().drift(quiet, fs)
        d_loud = fresh().drift(loud, fs)
        assert d_loud[-2000:].mean() > 3 * d_quiet[-2000:].mean()

    def test_nonnegative(self, process):
        drift = process.drift(np.random.default_rng(2).normal(size=4000), 8000.0)
        assert np.all(drift >= 0)

    def test_state_persists_across_chunks(self):
        """Drift decays smoothly into a silent chunk instead of resetting."""
        proc = MotionProcess(HandheldMotion(), np.random.default_rng(0))
        fs = 8000.0
        loud = 0.2 * np.random.default_rng(3).normal(size=int(1 * fs))
        proc.drift(loud, fs)
        tail = proc.drift(np.zeros(int(0.05 * fs)), fs)
        assert tail[0] > 0.01  # memory of the loud chunk

    def test_empty(self, process):
        assert process.drift(np.zeros(0), 8000.0).size == 0

    def test_zero_coupling(self):
        proc = MotionProcess(
            HandheldMotion(envelope_coupling=0.0), np.random.default_rng(0)
        )
        drift = proc.drift(np.ones(1000), 8000.0)
        assert np.allclose(drift, 0.0)
