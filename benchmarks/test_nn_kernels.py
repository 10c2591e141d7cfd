"""NN compute-kernel microbenchmarks: GEMM vs reference conv kernels.

Times the conv kernels three ways — the seed's kernel-offset loop in
float64 (``reference/f64``, the test-side layers of
``tests/nn/reference.py``), the production im2col GEMM lowering in
float64 (``gemm/f64``), and GEMM under the float32 precision policy
(``gemm/f32``) — first as isolated layer forward/backward
microbenchmarks, then as full one-epoch ``fit`` runs of the paper's
feature CNN and spectrogram CNN.

The acceptance gate lives here: the GEMM+float32 spectrogram-CNN epoch
must run at least 2x faster than the seed kernel path. All timings and
the derived speedups are written to ``BENCH_4.json`` (override the path
with ``EMOLEAK_BENCH_OUT``) so CI uploads the trajectory as an artifact.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.attack.models import build_feature_cnn, build_spectrogram_cnn
from repro.nn.layers import Conv1D, Conv2D
from repro.nn.optim import Adam
from repro.nn.policy import policy_scope

from benchmarks._common import print_header
from tests.nn.reference import reference_layer, use_reference_convs

#: (label, conv_kernel, compute_dtype). ``reference/f64`` is the seed path:
#: the "reference" conv kernel swaps in the test-side reference layers.
CONFIGS = [
    ("reference/f64", "reference", "float64"),
    ("gemm/f64", "gemm", "float64"),
    ("gemm/f32", "gemm", "float32"),
]

#: Filled by the tests, serialised to BENCH_4.json at session end.
RESULTS: dict[str, dict[str, float]] = {}


def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall time: the least-noisy point estimate on shared CI."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _print_block(name: str) -> None:
    print_header(f"NN kernel benchmark - {name}")
    block = RESULTS[name]
    base = block["reference/f64"]
    for label, _, _ in CONFIGS:
        secs = block[label]
        print(f"  {label:<14}: {secs * 1e3:9.2f} ms  ({base / secs:5.2f}x)")


@pytest.fixture(scope="module", autouse=True)
def _write_bench_artifact():
    """Write the timing trajectory once every benchmark has reported."""
    yield
    path = os.environ.get("EMOLEAK_BENCH_OUT", "BENCH_4.json")
    speedups = {
        name: {
            label: block["reference/f64"] / block[label]
            for label, _, _ in CONFIGS
        }
        for name, block in RESULTS.items()
    }
    payload = {
        "schema": "emoleak/nn-kernel-bench/v1",
        "numpy": np.__version__,
        "configs": [
            {"label": label, "conv_kernel": kernel, "compute_dtype": dtype}
            for label, kernel, dtype in CONFIGS
        ],
        "seconds": RESULTS,
        "speedup_vs_reference_f64": speedups,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\n[emoleak] wrote kernel benchmark trajectory to {path}")


def _conv_layer_seconds(make_layer, input_shape, x64, kernel, dtype):
    """Forward+backward wall time for one conv layer under a config."""
    with policy_scope(compute_dtype=dtype):
        layer = make_layer()
        if kernel == "reference":
            layer = reference_layer(layer)
        layer.build(input_shape, np.random.default_rng(0))
    x = x64.astype(layer.params[0].dtype)
    grad_shape = layer.forward(x, training=True).shape
    grad = np.ones(grad_shape, dtype=x.dtype)

    def step():
        layer.forward(x, training=True)
        layer.backward(grad)

    step()  # warm the im2col workspace before timing
    return _best_of(step)


class TestConvMicrobench:
    def test_conv2d_forward_backward(self):
        x64 = np.random.default_rng(1).normal(size=(32, 32, 32, 8))
        RESULTS["conv2d_32x32x8_f16k3"] = {
            label: _conv_layer_seconds(
                lambda: Conv2D(16, (3, 3), padding="same"),
                (32, 32, 8), x64, kernel, dtype,
            )
            for label, kernel, dtype in CONFIGS
        }
        _print_block("conv2d_32x32x8_f16k3")

    def test_conv1d_forward_backward(self):
        x64 = np.random.default_rng(2).normal(size=(64, 96, 8))
        RESULTS["conv1d_96x8_f16k5"] = {
            label: _conv_layer_seconds(
                lambda: Conv1D(16, 5, padding="same"),
                (96, 8), x64, kernel, dtype,
            )
            for label, kernel, dtype in CONFIGS
        }
        _print_block("conv1d_96x8_f16k5")


def _epoch_seconds(builder, shape, width_scale, n, kernel, dtype, batch_size=32):
    """One-epoch fit wall time for a paper CNN under a config."""
    rng = np.random.default_rng(0)
    X = rng.random((n,) + shape) - 0.5
    y = rng.integers(0, 4, n)
    with policy_scope(compute_dtype=dtype):
        model = builder(4, width_scale=width_scale, seed=0)
        if kernel == "reference":
            use_reference_convs(model)
        model.build(shape)

        def epoch():
            model.fit(
                X, y, epochs=1, batch_size=batch_size,
                optimizer=Adam(lr=1e-3), shuffle_seed=0,
            )

        epoch()  # warm workspaces + dtype casts before timing
        return _best_of(epoch, repeats=2)


class TestModelEpochBench:
    def test_feature_cnn_epoch(self):
        RESULTS["feature_cnn_epoch"] = {
            label: _epoch_seconds(
                build_feature_cnn, (24, 1), 0.5, 128, kernel, dtype
            )
            for label, kernel, dtype in CONFIGS
        }
        _print_block("feature_cnn_epoch")

    def test_spectrogram_cnn_epoch_meets_speedup_gate(self):
        """Acceptance gate: GEMM+float32 epoch >= 2x the seed kernel path.

        Paper-scale width: at toy widths the conv layers are too small to
        dominate and the measurement reflects Python overhead instead.
        """
        RESULTS["spectrogram_cnn_epoch"] = {
            label: _epoch_seconds(
                build_spectrogram_cnn, (32, 32, 1), 1.0, 64, kernel, dtype
            )
            for label, kernel, dtype in CONFIGS
        }
        _print_block("spectrogram_cnn_epoch")
        block = RESULTS["spectrogram_cnn_epoch"]
        speedup = block["reference/f64"] / block["gemm/f32"]
        assert speedup >= 2.0, (
            f"GEMM+float32 spectrogram epoch only {speedup:.2f}x faster than "
            f"the reference float64 kernels (gate: 2x)"
        )
