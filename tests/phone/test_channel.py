"""Tests for repro.phone.channel."""

import dataclasses

import numpy as np
import pytest

from repro.phone.accelerometer import GRAVITY
from repro.phone.channel import Placement, SpeakerMode, VibrationChannel
from tests.phone.reference import reference_transmit


def speech_like(fs=8000.0, duration=1.0, seed=0):
    """Band-limited noise burst approximating speech energy."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * fs)) / fs
    carrier = np.sin(2 * np.pi * 500 * t) + 0.5 * np.sin(2 * np.pi * 900 * t)
    envelope = 0.5 * (1 + np.sin(2 * np.pi * 3 * t))
    return 0.3 * carrier * envelope + 0.01 * rng.normal(size=t.size)


class TestConstruction:
    def test_device_by_name(self):
        channel = VibrationChannel("oneplus7t")
        assert channel.device.name == "oneplus7t"

    def test_default_scenario(self):
        channel = VibrationChannel("pixel5")
        assert channel.mode is SpeakerMode.LOUDSPEAKER
        assert channel.placement is Placement.TABLE_TOP

    def test_string_enums_accepted(self):
        channel = VibrationChannel("pixel5", mode="ear_speaker", placement="handheld")
        assert channel.mode is SpeakerMode.EAR_SPEAKER
        assert channel.placement is Placement.HANDHELD

    def test_sample_rate_override(self):
        channel = VibrationChannel("oneplus7t", sample_rate=200.0)
        assert channel.accel_fs == 200.0

    def test_default_rate_from_device(self):
        channel = VibrationChannel("oneplus7t")
        assert channel.accel_fs == 420.0

    def test_unknown_device(self):
        with pytest.raises(ValueError):
            VibrationChannel("nokia3310")


class TestTransmit:
    def test_output_rate(self):
        channel = VibrationChannel("oneplus7t")
        out = channel.transmit(speech_like(duration=2.0), 8000.0)
        assert out.size == pytest.approx(2 * 420, abs=3)

    def test_gravity_present(self):
        channel = VibrationChannel("oneplus7t")
        out = channel.transmit(speech_like(), 8000.0)
        assert out.mean() == pytest.approx(GRAVITY, abs=0.5)

    def test_speech_visible_above_noise_loudspeaker(self):
        channel = VibrationChannel("oneplus7t")
        speech = channel.transmit(speech_like(), 8000.0)
        silence = channel.transmit(np.zeros(8000), 8000.0)
        assert np.std(speech) > 3 * np.std(silence)

    def test_ear_speaker_much_weaker(self):
        loud = VibrationChannel("oneplus7t", mode="loudspeaker")
        ear = VibrationChannel("oneplus7t", mode="ear_speaker")
        x = speech_like()
        strong = loud.transmit(x, 8000.0)
        weak = ear.transmit(x, 8000.0)
        assert np.std(weak - weak.mean()) < 0.5 * np.std(strong - strong.mean())

    def test_handheld_noisier_than_tabletop_below_8hz(self):
        table = VibrationChannel("oneplus7t", placement="table_top")
        hand = VibrationChannel("oneplus7t", placement="handheld")
        silence = np.zeros(8000 * 10)
        quiet = table.transmit(silence, 8000.0)
        moving = hand.transmit(silence, 8000.0)
        assert np.std(moving) > 2 * np.std(quiet)

    def test_reseed_reproducible(self):
        channel = VibrationChannel("oneplus7t", placement="handheld")
        x = speech_like()
        channel.reseed(5)
        a = channel.transmit(x, 8000.0)
        channel.reseed(5)
        b = channel.transmit(x, 8000.0)
        assert np.array_equal(a, b)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            VibrationChannel("oneplus7t").transmit(np.zeros((2, 2)), 8000.0)

    def test_device_gain_ordering(self):
        """Stronger-coupling devices yield larger vibration signatures."""
        x = speech_like()
        def signal_std(name):
            channel = VibrationChannel(name)
            out = channel.transmit(x, 8000.0)
            return np.std(out - out.mean())
        assert signal_std("oneplus7t") > signal_std("pixel5")


class TestDenseOracle:
    """Sparse motion tones give the dense oracle's traces byte for byte."""

    @pytest.mark.parametrize("sensor", ["accelerometer", "gyroscope"])
    @pytest.mark.parametrize("environment", [None, "busy_office"])
    @pytest.mark.parametrize("sample_rate", [None, 200.0])
    def test_handheld_session_matches_dense_transmit(
        self, sensor, environment, sample_rate
    ):
        def make():
            channel = VibrationChannel(
                "oneplus9", mode="ear_speaker", placement="handheld",
                sensor=sensor, environment=environment,
                sample_rate=sample_rate, seed=11,
            )
            # Unquantised output, so a last-bit change in the slow
            # component's sum cannot hide below the LSB.
            channel._accel = dataclasses.replace(channel._accel, lsb=0.0)
            return channel

        gap = np.zeros(2800)
        chunks = [gap, speech_like(seed=1), gap, np.zeros(0),
                  speech_like(duration=0.63, seed=2), np.zeros(1), gap[:19]]
        fast, dense = make(), make()
        fast_rng, dense_rng = np.random.default_rng(5), np.random.default_rng(5)
        for chunk in chunks:
            got = fast.transmit(chunk, 8000.0, fast_rng)
            want = reference_transmit(dense, chunk, 8000.0, dense_rng)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # Both sessions consumed the same draws and motion time.
        assert fast_rng.random() == dense_rng.random()
        assert fast._motion._t_samples == dense._motion._t_samples

    def test_default_rng_matches_dense_transmit(self):
        fast = VibrationChannel("oneplus7t", mode="ear_speaker", placement="handheld")
        dense = VibrationChannel("oneplus7t", mode="ear_speaker", placement="handheld")
        for seed in range(3):
            x = speech_like(duration=0.4, seed=seed)
            assert fast.transmit(x, 8000.0).tobytes() == (
                reference_transmit(dense, x, 8000.0).tobytes()
            )
