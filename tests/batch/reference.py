"""Serial one-utterance-at-a-time collection through the scalar stages.

The test-side oracle for the engine's stacked chunks: every utterance
goes through the public scalar stages (``Corpus.render``,
``VibrationChannel.transmit``, ``RegionDetector.detect``,
``extract_features``, ``region_spectrogram_image``) with the engine's
own per-utterance RNG and channel derivation, so under the float64
batch policy ``collect_datasets`` must match it byte for byte.
"""

import numpy as np

from repro.attack import engine
from repro.attack.features import FEATURE_NAMES, extract_features
from repro.attack.regions import RegionDetector
from repro.attack.specimages import region_spectrogram_image


def reference_collect(corpus, channel, specs=None, seed=0, size=32):
    """A ``CollectionResult`` built one utterance at a time."""
    specs = list(specs if specs is not None else corpus.specs)
    detector = RegionDetector.for_setting(channel.placement.value)
    config = engine._PassConfig(corpus, channel, detector, seed, size, None)
    fs = channel.accel_fs
    stats = engine.CollectionStats(n_played=len(specs))
    pad = np.zeros(int(engine._UTTERANCE_PAD_S * corpus.audio_fs))
    features, feature_y, images, image_y = [], [], [], []
    for index, spec in enumerate(specs):
        audio = np.concatenate([pad, corpus.render(spec), pad])
        signal = engine._item_channel(config, index).transmit(
            audio, corpus.audio_fs, engine._item_rng(seed, index)
        )
        regions = detector.detect(signal, fs)
        stats.renders += 1
        stats.transmits += 1
        stats.regions_detected += len(regions)
        if not regions:
            continue
        stats.regions_used += 1
        best = max(regions, key=lambda r: float(
            np.sum((r.slice(signal) - np.mean(r.slice(signal))) ** 2)
        ))
        samples = best.slice(signal)
        if samples.size >= 4:
            features.append(extract_features(samples, fs))
            feature_y.append(spec.emotion)
        if best.end - best.start >= 8:
            images.append(region_spectrogram_image(signal, best, size=size))
            image_y.append(spec.emotion)
    X = np.vstack(features) if features else np.empty((0, len(FEATURE_NAMES)))
    stack = np.stack(images)[..., None] if images else np.empty((0, size, size, 1))
    return engine.CollectionResult(
        features=engine.FeatureDataset(X=X, y=np.array(feature_y), fs=fs),
        spectrograms=engine.SpectrogramDataset(images=stack, y=np.array(image_y), fs=fs),
        stats=stats,
    )
