"""Dense handheld transmit: hand-motion tones at every audio sample.

The test-side oracle for :meth:`VibrationChannel.transmit`, which
evaluates the hand-motion tones only at the samples the ADC reads. Here
the tones are evaluated at every audio sample, the environment noise is
drawn before the sensor draws its clock phase from the same generator,
and the slow component is summed as ``(tones + drift) + env``, so the
production trace must match this one byte for byte.
"""

import numpy as np

from repro.phone.channel import Placement


def reference_transmit(channel, audio, audio_fs, rng=None):
    """``channel.transmit(audio, audio_fs, rng)`` with dense motion tones."""
    audio = np.asarray(audio, dtype=float)
    if rng is None:
        rng = channel._rng
    force = channel._speaker.drive(audio, audio_fs)
    vibration = channel._chassis.transfer(force, audio_fs)
    slow = np.zeros_like(vibration)
    if channel.placement is Placement.HANDHELD:
        slow = slow + channel._motion.advance(vibration.size, audio_fs)
        slow = slow + channel._motion.drift(force, audio_fs)
    if channel.environment is not None:
        slow = slow + channel.environment.noise(vibration.size, audio_fs, rng)
    return channel._accel.sample(vibration, audio_fs, rng, slow_component=slow)
