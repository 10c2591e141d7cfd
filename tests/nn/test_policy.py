"""Tests for the repro.nn precision policy."""

from dataclasses import fields

import numpy as np
import pytest

from repro.attack.models import build_feature_cnn, build_spectrogram_cnn
from repro.nn.layers import BatchNorm, Conv1D, Dense, Dropout, Flatten, ReLU
from repro.nn.model import Sequential
from repro.nn.policy import (
    DEFAULT_POLICY,
    PrecisionPolicy,
    get_policy,
    policy_scope,
    set_policy,
)


@pytest.fixture(autouse=True)
def _restore_policy():
    """Every test leaves the process-wide policy exactly as it found it."""
    before = get_policy()
    yield
    set_policy(compute_dtype=before.compute_dtype)


class TestPolicyObject:
    def test_default_is_float64_gemm(self):
        """float64 is the default and the dtype is the policy's only field."""
        assert DEFAULT_POLICY.compute_dtype == np.dtype(np.float64)
        assert [f.name for f in fields(PrecisionPolicy)] == ["compute_dtype"]

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="compute_dtype"):
            PrecisionPolicy(compute_dtype="float16")
        with pytest.raises(ValueError, match="compute_dtype"):
            set_policy(compute_dtype=np.int32)

    def test_set_policy_partial_update(self):
        set_policy(compute_dtype="float32")
        assert get_policy().compute_dtype == np.dtype(np.float32)
        assert set_policy() == PrecisionPolicy("float32")  # None keeps it

    def test_policy_scope_restores_on_exit(self):
        before = get_policy()
        with policy_scope(compute_dtype="float32") as p:
            assert p.compute_dtype == np.dtype(np.float32)
            assert get_policy() == p
        assert get_policy() == before

    def test_policy_scope_restores_on_error(self):
        before = get_policy()
        with pytest.raises(RuntimeError):
            with policy_scope(compute_dtype="float32"):
                raise RuntimeError("boom")
        assert get_policy() == before


class TestDtypePropagation:
    def _small_model(self):
        return Sequential(
            [Conv1D(4, 3), BatchNorm(), ReLU(), Dropout(0.2, seed=1),
             Flatten(), Dense(3)],
            n_classes=3,
            seed=0,
        )

    @pytest.mark.parametrize("name,dtype", [
        ("float32", np.float32), ("float64", np.float64),
    ])
    def test_params_and_outputs_follow_policy(self, name, dtype):
        with policy_scope(compute_dtype=name):
            model = self._small_model()
            X = np.random.default_rng(0).normal(size=(32, 8, 1))
            y = np.random.default_rng(1).integers(0, 3, 32)
            history = model.fit(X, y, epochs=2, batch_size=8)
        for layer in model.layers:
            for param in layer.params:
                assert param.dtype == dtype
            for grad in layer.grads:
                assert grad.dtype == dtype
        proba = model.predict_proba(X)
        assert proba.dtype == dtype
        assert np.all(np.isfinite(proba))
        assert np.isfinite(history.loss[-1])

    def test_batchnorm_running_stats_follow_policy(self):
        with policy_scope(compute_dtype="float32"):
            layer = BatchNorm()
            layer.build((4,), np.random.default_rng(0))
            out = layer.forward(
                np.random.default_rng(1).normal(size=(8, 4)).astype(np.float32),
                training=True,
            )
        assert layer.running_mean.dtype == np.float32
        assert out.dtype == np.float32

    def test_dropout_preserves_dtype(self):
        layer = Dropout(0.5, seed=0)
        x = np.ones((16, 16), dtype=np.float32)
        out = layer.forward(x, training=True)
        assert out.dtype == np.float32
        assert layer.backward(out).dtype == np.float32

    def test_float32_init_matches_cast_float64_init(self):
        """Both dtypes draw the same weights; float32 is the cast of float64."""
        with policy_scope(compute_dtype="float64"):
            d64 = Dense(4)
            d64.build((5,), np.random.default_rng(3))
        with policy_scope(compute_dtype="float32"):
            d32 = Dense(4)
            d32.build((5,), np.random.default_rng(3))
        np.testing.assert_array_equal(d32.W, d64.W.astype(np.float32))

    def test_dtype_pinned_at_build(self):
        """A model keeps its build-time dtype even if the policy changes."""
        with policy_scope(compute_dtype="float32"):
            model = self._small_model()
            model.build((8, 1))
        # Back under float64, inference still runs (and returns) float32.
        proba = model.predict_proba(np.random.default_rng(0).normal(size=(4, 8, 1)))
        assert proba.dtype == np.float32


class TestPaperModelsUnderPolicy:
    @pytest.mark.parametrize("builder,shape", [
        (build_feature_cnn, (24, 1)),
        (build_spectrogram_cnn, (32, 32, 1)),
    ])
    def test_float32_fit_runs(self, builder, shape):
        rng = np.random.default_rng(0)
        X = rng.random((24,) + shape)
        y = rng.integers(0, 4, 24)
        with policy_scope(compute_dtype="float32"):
            model = builder(4, width_scale=0.1, seed=0)
            history = model.fit(X, y, epochs=1, batch_size=8)
        assert np.isfinite(history.loss[0])
        assert model.predict_proba(X).dtype == np.float32


class TestCLIWiring:
    def test_cli_flags_set_policy(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["--scenario", "x", "--nn-dtype", "float32"])
        assert args.nn_dtype == "float32"

    def test_cli_rejects_unknown_dtype(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--nn-dtype", "float16"])
