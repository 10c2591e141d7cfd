"""Tests for repro.nn.layers, including numerical gradient checks."""

import numpy as np
import pytest

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


def numerical_grad_input(layer, x, eps=1e-5):
    """Central-difference dLoss/dInput for loss = sum(forward(x))."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = layer.forward(x.copy(), training=False).sum()
        x[idx] = orig - eps
        minus = layer.forward(x.copy(), training=False).sum()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def analytic_grad_input(layer, x):
    out = layer.forward(x.copy(), training=False)
    return layer.backward(np.ones_like(out))


def check_input_gradient(layer, x, atol=1e-5):
    analytic = analytic_grad_input(layer, x)
    numeric = numerical_grad_input(layer, x)
    assert np.allclose(analytic, numeric, atol=atol), (
        f"max diff {np.max(np.abs(analytic - numeric))}"
    )


def numerical_grad_params(layer, x, eps=1e-5):
    grads = []
    for p in layer.params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            plus = layer.forward(x.copy(), training=False).sum()
            p[idx] = orig - eps
            minus = layer.forward(x.copy(), training=False).sum()
            p[idx] = orig
            g[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def check_param_gradients(layer, x, atol=1e-5):
    out = layer.forward(x.copy(), training=False)
    layer.backward(np.ones_like(out))
    numeric = numerical_grad_params(layer, x)
    for analytic, num in zip(layer.grads, numeric):
        assert np.allclose(analytic, num, atol=atol)


class TestDense:
    def _build(self, d=5, units=3):
        layer = Dense(units)
        layer.build((d,), np.random.default_rng(0))
        return layer

    def test_output_shape(self):
        layer = self._build()
        out = layer.forward(np.ones((4, 5)), training=True)
        assert out.shape == (4, 3)

    def test_input_gradient(self):
        layer = self._build()
        check_input_gradient(layer, np.random.default_rng(1).normal(size=(3, 5)))

    def test_param_gradients(self):
        layer = self._build()
        check_param_gradients(layer, np.random.default_rng(2).normal(size=(3, 5)))

    def test_rejects_non_flat_input(self):
        layer = Dense(3)
        with pytest.raises(ValueError):
            layer.build((4, 4), np.random.default_rng(0))

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            Dense(0)


class TestReLU:
    def test_forward(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]), training=True)
        assert np.allclose(out, [0.0, 0.0, 2.0])

    def test_gradient_mask(self):
        layer = ReLU()
        x = np.array([-1.0, 0.5, 2.0])
        layer.forward(x, training=True)
        grad = layer.backward(np.ones(3))
        assert np.allclose(grad, [0.0, 1.0, 1.0])


class TestFlatten:
    def test_round_trip(self):
        layer = Flatten()
        x = np.random.default_rng(0).normal(size=(2, 3, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert back.shape == x.shape

    def test_output_shape_decl(self):
        assert Flatten().output_shape((3, 4, 5)) == (60,)


class TestDropout:
    def test_inference_identity(self):
        layer = Dropout(0.5)
        x = np.random.default_rng(0).normal(size=(10, 10))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_training_scales_kept_units(self):
        layer = Dropout(0.5, seed=0)
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)
        # Expectation preserved.
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, seed=1)
        x = np.ones((20, 20))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        assert np.array_equal(grad == 0, out == 0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestBatchNorm:
    def _build(self, c=4):
        layer = BatchNorm()
        layer.build((c,), np.random.default_rng(0))
        return layer

    def test_normalises_batch(self):
        layer = self._build()
        x = np.random.default_rng(0).normal(3.0, 2.0, size=(64, 4))
        out = layer.forward(x, training=True)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_used_at_inference(self):
        layer = self._build()
        rng = np.random.default_rng(1)
        for _ in range(200):
            layer.forward(rng.normal(5.0, 1.0, size=(32, 4)), training=True)
        out = layer.forward(np.full((4, 4), 5.0), training=False)
        assert np.allclose(out, 0.0, atol=0.2)

    def test_input_gradient(self):
        layer = self._build(c=3)
        x = np.random.default_rng(2).normal(size=(6, 3))
        out = layer.forward(x, training=True)
        analytic = layer.backward(np.ones_like(out))
        # Numerical check with the same batch statistics (training path).
        eps = 1e-5
        numeric = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp = x.copy(); xp[i, j] += eps
                xm = x.copy(); xm[i, j] -= eps
                lp = BatchNorm(); lp.build((3,), np.random.default_rng(0))
                lm = BatchNorm(); lm.build((3,), np.random.default_rng(0))
                numeric[i, j] = (
                    lp.forward(xp, training=True).sum()
                    - lm.forward(xm, training=True).sum()
                ) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_conv_shaped_input(self):
        layer = self._build(c=2)
        x = np.random.default_rng(3).normal(size=(4, 5, 2))
        out = layer.forward(x, training=True)
        assert out.shape == x.shape


class TestConv1D:
    def _build(self, c_in=2, filters=3, k=3, padding="same", length=7):
        layer = Conv1D(filters, k, padding=padding)
        layer.build((length, c_in), np.random.default_rng(0))
        return layer

    def test_same_padding_shape(self):
        layer = self._build()
        out = layer.forward(np.ones((2, 7, 2)), training=True)
        assert out.shape == (2, 7, 3)

    def test_valid_padding_shape(self):
        layer = self._build(padding="valid")
        out = layer.forward(np.ones((2, 7, 2)), training=True)
        assert out.shape == (2, 5, 3)

    def test_input_gradient_same(self):
        layer = self._build()
        check_input_gradient(layer, np.random.default_rng(1).normal(size=(2, 7, 2)))

    def test_input_gradient_valid(self):
        layer = self._build(padding="valid")
        check_input_gradient(layer, np.random.default_rng(2).normal(size=(2, 7, 2)))

    def test_param_gradients(self):
        layer = self._build()
        check_param_gradients(layer, np.random.default_rng(3).normal(size=(2, 7, 2)))

    def test_known_convolution(self):
        layer = Conv1D(1, 3, padding="valid")
        layer.build((5, 1), np.random.default_rng(0))
        layer.W[...] = np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1)
        layer.b[...] = 0.0
        x = np.arange(5.0).reshape(1, 5, 1)
        out = layer.forward(x, training=False)
        # (x[i]*1 + x[i+2]*-1) = -2 everywhere
        assert np.allclose(out.ravel(), -2.0)


class TestConv2D:
    def _build(self, c_in=2, filters=3, k=(3, 3), padding="same", hw=(6, 5)):
        layer = Conv2D(filters, k, padding=padding)
        layer.build((hw[0], hw[1], c_in), np.random.default_rng(0))
        return layer

    def test_same_padding_shape(self):
        layer = self._build()
        out = layer.forward(np.ones((2, 6, 5, 2)), training=True)
        assert out.shape == (2, 6, 5, 3)

    def test_valid_padding_shape(self):
        layer = self._build(padding="valid")
        out = layer.forward(np.ones((2, 6, 5, 2)), training=True)
        assert out.shape == (2, 4, 3, 3)

    def test_1x1_kernel(self):
        layer = self._build(k=(1, 1))
        out = layer.forward(np.ones((1, 6, 5, 2)), training=True)
        assert out.shape == (1, 6, 5, 3)

    def test_input_gradient_same(self):
        layer = self._build(hw=(4, 4))
        check_input_gradient(layer, np.random.default_rng(1).normal(size=(2, 4, 4, 2)))

    def test_input_gradient_valid(self):
        layer = self._build(padding="valid", hw=(4, 4))
        check_input_gradient(layer, np.random.default_rng(2).normal(size=(2, 4, 4, 2)))

    def test_param_gradients(self):
        layer = self._build(hw=(4, 4))
        check_param_gradients(layer, np.random.default_rng(3).normal(size=(2, 4, 4, 2)))

    def test_even_kernel_same_padding(self):
        layer = self._build(k=(2, 2))
        out = layer.forward(np.ones((1, 6, 5, 2)), training=True)
        assert out.shape == (1, 6, 5, 3)


class TestMaxPool1D:
    def test_shape(self):
        layer = MaxPool1D(2)
        out = layer.forward(np.ones((2, 8, 3)), training=True)
        assert out.shape == (2, 4, 3)

    def test_values(self):
        layer = MaxPool1D(2)
        x = np.array([1.0, 5.0, 2.0, 3.0]).reshape(1, 4, 1)
        out = layer.forward(x, training=True)
        assert np.allclose(out.ravel(), [5.0, 3.0])

    def test_gradient_routing(self):
        layer = MaxPool1D(2)
        x = np.array([1.0, 5.0, 2.0, 3.0]).reshape(1, 4, 1)
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[ [10.0], [20.0] ]]))
        assert np.allclose(grad.ravel(), [0, 10, 0, 20])

    def test_degenerate_pool_larger_than_length(self):
        layer = MaxPool1D(8)
        x = np.arange(3.0).reshape(1, 3, 1)
        out = layer.forward(x, training=True)
        assert out.shape == (1, 1, 1)
        assert out.ravel()[0] == 2.0
        grad = layer.backward(np.ones((1, 1, 1)))
        assert grad.ravel()[2] == 1.0 and grad.sum() == 1.0

    def test_input_gradient_numerical(self):
        layer = MaxPool1D(2)
        x = np.random.default_rng(4).normal(size=(2, 6, 2))
        check_input_gradient(layer, x)


class TestMaxPool2D:
    def test_shape(self):
        layer = MaxPool2D(2)
        out = layer.forward(np.ones((2, 8, 8, 3)), training=True)
        assert out.shape == (2, 4, 4, 3)

    def test_odd_size_cropped(self):
        layer = MaxPool2D(2)
        out = layer.forward(np.ones((1, 7, 5, 1)), training=True)
        assert out.shape == (1, 3, 2, 1)

    def test_values(self):
        layer = MaxPool2D(2)
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = layer.forward(x, training=True)
        assert np.allclose(out.ravel(), [5, 7, 13, 15])

    def test_gradient_routing(self):
        layer = MaxPool2D(2)
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 2, 2, 1)))
        assert grad.sum() == 4.0
        assert grad.ravel()[5] == 1.0 and grad.ravel()[15] == 1.0

    def test_input_gradient_numerical(self):
        layer = MaxPool2D(2)
        x = np.random.default_rng(5).normal(size=(2, 4, 4, 2))
        check_input_gradient(layer, x)

    def test_degenerate(self):
        layer = MaxPool2D(4)
        x = np.random.default_rng(6).normal(size=(1, 2, 2, 1))
        out = layer.forward(x, training=True)
        assert out.shape == (1, 1, 1, 1)
        assert out.ravel()[0] == x.max()
        assert out.shape[1:] == layer.output_shape(x.shape[1:])
        # Only the height is shorter than the pool: it is pooled whole
        # while the width still pools in windows of 2.
        layer = MaxPool2D(2)
        x = np.random.default_rng(7).normal(size=(3, 1, 8, 2))
        out = layer.forward(x, training=True)
        assert out.shape[1:] == layer.output_shape(x.shape[1:]) == (1, 4, 2)
        np.testing.assert_array_equal(
            out[:, 0], x[:, 0].reshape(3, 4, 2, 2).max(axis=2)
        )
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape and grad.sum() == out.size

    def test_one_short_axis_trains(self):
        """A model whose input is shorter than the pool on one axis fits."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(16, 1, 8, 2))
        y = rng.integers(0, 2, 16)
        model = Sequential([MaxPool2D(2), Flatten(), Dense(2)], n_classes=2, seed=0)
        history = model.fit(X, y, epochs=1, batch_size=8)
        assert np.isfinite(history.loss[0])
        assert model.predict_proba(X).shape == (16, 2)
