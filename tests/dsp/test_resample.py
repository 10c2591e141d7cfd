"""Tests for repro.dsp.resample — including the aliasing ADC behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.resample import (
    decimate_no_antialias,
    linear_resample,
    sample_and_decimate,
    sample_support,
)


def tone(freq, fs, duration=1.0):
    t = np.arange(int(duration * fs)) / fs
    return np.sin(2 * np.pi * freq * t)


class TestLinearResample:
    def test_output_length(self):
        y = linear_resample(np.ones(8000), 8000.0, 420.0)
        assert y.size == 420

    def test_upsample_preserves_tone(self):
        fs_in, fs_out = 1000.0, 4000.0
        x = tone(50.0, fs_in, 1.0)
        y = linear_resample(x, fs_in, fs_out)
        # Cross-check frequency via zero crossings.
        crossings = np.sum(np.diff(np.signbit(y)) != 0)
        assert crossings == pytest.approx(100, abs=3)

    def test_identity_rate(self):
        x = np.arange(100.0)
        assert np.allclose(linear_resample(x, 100.0, 100.0), x)

    def test_empty(self):
        assert linear_resample(np.zeros(0), 100.0, 50.0).size == 0

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            linear_resample(np.ones(10), 0.0, 100.0)


class TestSampleAndDecimate:
    def test_aliases_above_nyquist(self):
        """A 300 Hz tone sampled at 420 Hz must appear at 120 Hz."""
        fs_in, fs_out = 8000.0, 420.0
        x = tone(300.0, fs_in, 2.0)
        y = sample_and_decimate(x, fs_in, fs_out)
        spectrum = np.abs(np.fft.rfft(y * np.hanning(y.size)))
        freqs = np.fft.rfftfreq(y.size, 1.0 / fs_out)
        peak = freqs[np.argmax(spectrum)]
        assert peak == pytest.approx(120.0, abs=2.0)

    def test_energy_not_rejected(self):
        """Unlike a proper decimator, above-Nyquist energy survives."""
        fs_in, fs_out = 8000.0, 420.0
        x = tone(1000.0, fs_in, 2.0)
        y = sample_and_decimate(x, fs_in, fs_out)
        assert np.std(y) > 0.3 * np.std(x)

    def test_in_band_preserved(self):
        fs_in, fs_out = 8000.0, 420.0
        x = tone(50.0, fs_in, 2.0)
        y = sample_and_decimate(x, fs_in, fs_out)
        spectrum = np.abs(np.fft.rfft(y * np.hanning(y.size)))
        freqs = np.fft.rfftfreq(y.size, 1.0 / fs_out)
        assert freqs[np.argmax(spectrum)] == pytest.approx(50.0, abs=1.0)

    def test_phase_offset(self):
        x = np.arange(800.0)
        a = sample_and_decimate(x, 800.0, 100.0, phase=0.0)
        b = sample_and_decimate(x, 800.0, 100.0, phase=0.5)
        assert b[0] > a[0]

    def test_invalid_phase(self):
        with pytest.raises(ValueError):
            sample_and_decimate(np.ones(10), 100.0, 50.0, phase=1.5)

    def test_duration_preserved(self):
        y = sample_and_decimate(np.ones(8000), 8000.0, 420.0)
        assert y.size == pytest.approx(420, abs=1)


class TestDecimateNoAntialias:
    def test_every_kth(self):
        x = np.arange(10.0)
        assert np.allclose(decimate_no_antialias(x, 3), [0, 3, 6, 9])

    def test_factor_one_identity(self):
        x = np.arange(5.0)
        assert np.allclose(decimate_no_antialias(x, 1), x)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            decimate_no_antialias(np.ones(5), 0)


def _assert_reads_only_support(n, fs_out, phase, seed=0):
    """NaN outside the support leaves the ADC output bitwise unchanged."""
    x = np.random.default_rng(seed).normal(size=n)
    support = sample_support(n, 8000.0, fs_out, phase)
    poisoned = np.full(n, np.nan)
    poisoned[support] = x[support]
    clean = sample_and_decimate(x, 8000.0, fs_out, phase=phase)
    got = sample_and_decimate(poisoned, 8000.0, fs_out, phase=phase)
    assert np.all(np.isfinite(got))
    assert got.tobytes() == clean.tobytes()


class TestSampleSupport:
    @pytest.mark.parametrize("fs_out", [420.0, 410.0, 200.0])
    @pytest.mark.parametrize("phase", [0.0, float(np.nextafter(1.0, 0.0))])
    @pytest.mark.parametrize("n", [0, 1, 2, 19, 8017])
    def test_adc_reads_only_support(self, fs_out, phase, n):
        _assert_reads_only_support(n, fs_out, phase)

    @given(
        st.integers(0, 4000),
        st.sampled_from([420.0, 410.0, 200.0, 500.0]),
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_adc_reads_only_support_property(self, n, fs_out, phase, seed):
        _assert_reads_only_support(n, fs_out, phase, seed)

    def test_sorted_unique_in_range(self):
        support = sample_support(8017, 8000.0, 420.0, 0.37)
        assert support.dtype.kind == "i"
        assert np.all(np.diff(support) > 0)
        assert support[0] >= 0 and support[-1] < 8017

    def test_about_two_samples_per_output(self):
        support = sample_support(80000, 8000.0, 420.0, 0.5)
        assert support.size == pytest.approx(2 * 4200, rel=0.01)

    def test_empty(self):
        assert sample_support(0, 8000.0, 420.0).size == 0

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError, match="phase"):
            sample_support(100, 8000.0, 420.0, phase=1.0)
