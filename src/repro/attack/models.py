"""The paper's two CNN architectures (Section IV-C2 and IV-D2).

**Spectrogram CNN** (image classifier): three convolutional layers — 128
filters with a (1,1) kernel, 128 filters, then 64 filters — each followed
by ReLU, dropout 0.2 and (2,2) max pooling; then flatten, two
32-neuron fully connected layers (dropout 0.25 after the second) and a
softmax output.

**Feature CNN** (time/frequency-domain classifier): five 1-D
convolutional layers over the z-scored 24-feature vector — 256, 256
(dropout 0.25 + pool 2 after the second), 128 with batch normalisation
(dropout 0.25 + pool 8 after), 64, 64 — all zero-padded ("same"), then
flatten and a softmax fully connected output layer.

``width_scale`` shrinks every filter bank proportionally for fast CI
runs; 1.0 reproduces the paper's layer sizes exactly.

Both builders are policy-aware: layers build their parameters in the
:mod:`repro.nn.policy` compute dtype (float64 by default, float32 via
``set_policy``/``--nn-dtype``), and every convolution runs through the
one im2col/GEMM lowering in :mod:`repro.nn.layers`. See
``benchmarks/test_nn_kernels.py`` for measured epoch-time speedups.
"""

from __future__ import annotations

from repro.nn.layers import (
    BatchNorm,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    MaxPool2D,
    ReLU,
)
from repro.nn.model import Sequential

__all__ = ["build_spectrogram_cnn", "build_feature_cnn"]


def _scaled(width: int, scale: float) -> int:
    return max(4, int(round(width * scale)))


def build_spectrogram_cnn(
    n_classes: int, width_scale: float = 1.0, seed: int = 0
) -> Sequential:
    """The paper's spectrogram image classifier for 32x32x1 inputs."""
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if width_scale <= 0:
        raise ValueError("width_scale must be positive")
    s = width_scale
    layers = [
        Conv2D(_scaled(128, s), (1, 1), padding="same"),
        ReLU(),
        Dropout(0.2, seed=seed + 1),
        MaxPool2D(2),
        Conv2D(_scaled(128, s), (3, 3), padding="same"),
        ReLU(),
        Dropout(0.2, seed=seed + 2),
        MaxPool2D(2),
        Conv2D(_scaled(64, s), (3, 3), padding="same"),
        ReLU(),
        Dropout(0.2, seed=seed + 3),
        MaxPool2D(2),
        Flatten(),
        Dense(32),
        ReLU(),
        Dense(32),
        ReLU(),
        Dropout(0.25, seed=seed + 4),
        Dense(n_classes),
    ]
    return Sequential(layers, n_classes=n_classes, seed=seed)


def build_feature_cnn(
    n_classes: int, width_scale: float = 1.0, seed: int = 0
) -> Sequential:
    """The paper's 1-D CNN over the 24 time/frequency features.

    Input shape per sample: ``(24, 1)`` (z-scored feature vector as a
    length-24 single-channel sequence).
    """
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if width_scale <= 0:
        raise ValueError("width_scale must be positive")
    s = width_scale
    layers = [
        Conv1D(_scaled(256, s), 3, padding="same"),
        ReLU(),
        Conv1D(_scaled(256, s), 3, padding="same"),
        ReLU(),
        Dropout(0.25, seed=seed + 1),
        MaxPool1D(2),
        Conv1D(_scaled(128, s), 3, padding="same"),
        BatchNorm(),
        ReLU(),
        Dropout(0.25, seed=seed + 2),
        MaxPool1D(8),
        Conv1D(_scaled(64, s), 3, padding="same"),
        ReLU(),
        Conv1D(_scaled(64, s), 3, padding="same"),
        ReLU(),
        Flatten(),
        Dense(n_classes),
    ]
    return Sequential(layers, n_classes=n_classes, seed=seed)
