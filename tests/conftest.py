"""Shared fixtures for the EmoLeak test suite.

Expensive artefacts (small corpora, collected datasets) are session-scoped
so the cost is paid once.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.attack.pipeline import EmoLeakAttack
from repro.datasets import build_tess
from repro.phone import VibrationChannel


_TESTS_DIR = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    """Numerical RuntimeWarnings fail every test under ``tests/``.

    Scoped to this directory so benchmark runs keep numpy's default
    warning behaviour.
    """
    for item in items:
        if _TESTS_DIR in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


@pytest.fixture(scope="session")
def tiny_tess():
    """A small TESS-style corpus (7 emotions x 2 speakers x 4 words)."""
    return build_tess(words_per_emotion=4, seed=123)


@pytest.fixture(scope="session")
def small_tess():
    """A mid-size TESS-style corpus for accuracy-sensitive tests."""
    return build_tess(words_per_emotion=10, seed=7)


@pytest.fixture(scope="session")
def loud_channel():
    """OnePlus 7T loudspeaker / table-top channel."""
    return VibrationChannel("oneplus7t", mode="loudspeaker", placement="table_top")


@pytest.fixture(scope="session")
def ear_channel():
    """OnePlus 7T ear-speaker / handheld channel."""
    return VibrationChannel("oneplus7t", mode="ear_speaker", placement="handheld")


@pytest.fixture(scope="session")
def tess_features(small_tess, loud_channel):
    """Feature dataset collected through the loudspeaker channel."""
    return EmoLeakAttack(loud_channel, seed=5).collect_features(small_tess)


@pytest.fixture(scope="session")
def tess_spectrograms(small_tess, loud_channel):
    """Spectrogram dataset collected through the loudspeaker channel."""
    return EmoLeakAttack(loud_channel, seed=5).collect_spectrograms(small_tess)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
