"""Tests for repro.dsp.filters."""

import numpy as np
import pytest

from repro.dsp.filters import (
    bandpass,
    butter_bandpass,
    butter_highpass,
    butter_lowpass,
    highpass,
    lowpass,
    sosfilt_zero_phase,
)


def tone(freq, fs, duration=2.0):
    t = np.arange(int(duration * fs)) / fs
    return np.sin(2 * np.pi * freq * t)


class TestDesign:
    def test_highpass_shape(self):
        sos = butter_highpass(8.0, 420.0, order=4)
        assert sos.ndim == 2 and sos.shape[1] == 6

    def test_invalid_cutoff_zero(self):
        with pytest.raises(ValueError):
            butter_highpass(0.0, 420.0)

    def test_invalid_cutoff_above_nyquist(self):
        with pytest.raises(ValueError):
            butter_lowpass(300.0, 420.0)

    def test_bandpass_order_of_edges(self):
        with pytest.raises(ValueError):
            butter_bandpass(50.0, 10.0, 420.0)


class TestHighpass:
    def test_removes_dc(self):
        x = np.ones(2000) * 5.0
        y = highpass(x, 8.0, 420.0)
        assert np.max(np.abs(y[100:-100])) < 1e-6

    def test_passes_high_frequency(self):
        fs = 420.0
        x = tone(100.0, fs)
        y = highpass(x, 8.0, fs)
        ratio = np.std(y[200:-200]) / np.std(x[200:-200])
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_attenuates_below_cutoff(self):
        fs = 420.0
        x = tone(1.0, fs, duration=8.0)
        y = highpass(x, 8.0, fs)
        assert np.std(y) < 0.05 * np.std(x)

    def test_zero_phase_no_delay(self):
        # A symmetric pulse stays centred after zero-phase filtering.
        fs = 420.0
        x = np.zeros(1001)
        x[500] = 1.0
        y = highpass(x, 8.0, fs)
        assert abs(int(np.argmax(np.abs(y))) - 500) <= 1


class TestLowpass:
    def test_passes_dc(self):
        x = np.ones(2000) * 3.0
        y = lowpass(x, 10.0, 420.0)
        assert np.allclose(y[200:-200], 3.0, atol=1e-6)

    def test_removes_high_frequency(self):
        fs = 420.0
        x = tone(150.0, fs)
        y = lowpass(x, 10.0, fs)
        # Interior only: filtfilt edge transients dominate the borders.
        assert np.std(y[200:-200]) < 0.02 * np.std(x[200:-200])


class TestBandpass:
    def test_passes_in_band(self):
        fs = 420.0
        x = tone(50.0, fs, 4.0)
        y = bandpass(x, 20.0, 100.0, fs)
        assert np.std(y[200:-200]) > 0.9 * np.std(x[200:-200])

    def test_rejects_out_of_band(self):
        fs = 420.0
        lo = tone(2.0, fs, 4.0)
        hi = tone(180.0, fs, 4.0)
        assert np.std(bandpass(lo, 20.0, 100.0, fs)) < 0.05
        assert np.std(bandpass(hi, 20.0, 100.0, fs)) < 0.05


class TestZeroPhase:
    def test_rejects_2d(self):
        sos = butter_highpass(8.0, 420.0)
        with pytest.raises(ValueError):
            sosfilt_zero_phase(sos, np.zeros((4, 4)))

    def test_short_signal_fallback(self):
        sos = butter_highpass(8.0, 420.0, order=4)
        y = sosfilt_zero_phase(sos, np.ones(10))
        assert y.shape == (10,)


class TestCachedDesigns:
    """The helpers' memoized designs filter bitwise like a fresh design."""

    @pytest.mark.parametrize("call", [
        lambda x: (highpass(x, 8.0, 420.0), butter_highpass(8.0, 420.0)),
        lambda x: (highpass(x, 250, 8000, order=2), butter_highpass(250, 8000, 2)),
        lambda x: (lowpass(x, 20.0, 420.0), butter_lowpass(20.0, 420.0)),
        lambda x: (bandpass(x, 5.0, 60.0, 420.0), butter_bandpass(5.0, 60.0, 420.0)),
    ])
    def test_matches_uncached_design(self, call):
        x = np.random.default_rng(3).normal(size=2000)
        for _ in range(2):  # first call designs, second hits the cache
            got, sos = call(x)
            assert got.tobytes() == sosfilt_zero_phase(sos, x).tobytes()

    def test_invalid_cutoff_still_raises(self):
        with pytest.raises(ValueError):
            lowpass(np.zeros(100), 300.0, 420.0)
        with pytest.raises(ValueError):
            bandpass(np.zeros(100), 60.0, 5.0, 420.0)
