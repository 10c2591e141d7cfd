"""Parity and gradient checks for the conv lowering.

The production im2col/GEMM convolutions must agree with the original
kernel-offset reference (``tests/nn/reference.py``) to tight float64
tolerances — forward outputs, input gradients, and parameter gradients
— across padding modes, kernel shapes and channel counts.
Finite-difference checks then validate both implementations (and the
pooling/dense layers, which have one implementation each) against
central differences, so the parity test can't be satisfied by two
identically wrong implementations.
"""

import numpy as np
import pytest

from repro.nn.layers import Conv1D, Conv2D, Dense, MaxPool1D, MaxPool2D
from tests.nn.reference import ReferenceConv1D, ReferenceConv2D

RTOL = 1e-10
ATOL = 1e-12


#: The conv classes of each implementation, by finite-difference test id.
CONVS = {
    "reference": (ReferenceConv1D, ReferenceConv2D),
    "gemm": (Conv1D, Conv2D),
}


def _pair_conv2d(filters, kernel_size, padding, c_in, hw, seed=0):
    """The same Conv2D built as the reference and the production layer."""
    layers = []
    for cls in (ReferenceConv2D, Conv2D):
        layer = cls(filters, kernel_size, padding=padding)
        layer.build((hw[0], hw[1], c_in), np.random.default_rng(seed))
        layers.append(layer)
    return layers


def _pair_conv1d(filters, kernel_size, padding, c_in, length, seed=0):
    layers = []
    for cls in (ReferenceConv1D, Conv1D):
        layer = cls(filters, kernel_size, padding=padding)
        layer.build((length, c_in), np.random.default_rng(seed))
        layers.append(layer)
    return layers


def _run_both(ref, gem, x, grad_seed=99):
    """Forward + backward through both layers with the same upstream grad."""
    out_ref = ref.forward(x.copy(), training=False)
    out_gem = gem.forward(x.copy(), training=False)
    grad = np.random.default_rng(grad_seed).normal(size=out_ref.shape)
    dx_ref = ref.backward(grad.copy())
    dx_gem = gem.backward(grad.copy())
    return out_ref, out_gem, dx_ref, dx_gem


CONV2D_CASES = [
    # (filters, kernel_size, padding, c_in, (h, w))
    (3, (3, 3), "same", 2, (6, 5)),
    (3, (3, 3), "valid", 2, (6, 5)),
    (4, (1, 1), "same", 3, (5, 4)),
    (4, (1, 1), "valid", 3, (5, 4)),
    (2, (2, 2), "same", 1, (4, 6)),
    (2, (2, 2), "valid", 1, (4, 6)),
    (3, (3, 5), "same", 2, (7, 7)),
    (2, (5, 3), "valid", 4, (7, 6)),
    (1, (3, 3), "same", 1, (3, 3)),
]


class TestConv2DParity:
    @pytest.mark.parametrize("filters,ks,padding,c_in,hw", CONV2D_CASES)
    def test_forward_backward_match(self, filters, ks, padding, c_in, hw):
        ref, gem = _pair_conv2d(filters, ks, padding, c_in, hw)
        assert np.allclose(ref.W, gem.W) and ref.W.dtype == gem.W.dtype
        x = np.random.default_rng(1).normal(size=(3, hw[0], hw[1], c_in))
        out_ref, out_gem, dx_ref, dx_gem = _run_both(ref, gem, x)
        np.testing.assert_allclose(out_gem, out_ref, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(dx_gem, dx_ref, rtol=RTOL, atol=ATOL)
        for g_ref, g_gem in zip(ref.grads, gem.grads):
            np.testing.assert_allclose(g_gem, g_ref, rtol=RTOL, atol=ATOL)

    def test_single_row_batch(self):
        ref, gem = _pair_conv2d(2, (3, 3), "same", 2, (4, 4))
        x = np.random.default_rng(2).normal(size=(1, 4, 4, 2))
        out_ref, out_gem, dx_ref, dx_gem = _run_both(ref, gem, x)
        np.testing.assert_allclose(out_gem, out_ref, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(dx_gem, dx_ref, rtol=RTOL, atol=ATOL)

    def test_workspace_reused_across_batches(self):
        """A second same-shape batch reuses the im2col scratch buffer."""
        _, gem = _pair_conv2d(2, (3, 3), "same", 2, (4, 4))
        x = np.random.default_rng(3).normal(size=(2, 4, 4, 2))
        gem.forward(x, training=True)
        first = gem._cols_ws._buf
        gem.forward(x + 1.0, training=True)
        assert gem._cols_ws._buf is first


CONV1D_CASES = [
    # (filters, kernel_size, padding, c_in, length)
    (3, 3, "same", 2, 7),
    (3, 3, "valid", 2, 7),
    (4, 1, "same", 3, 5),
    (4, 1, "valid", 3, 5),
    (2, 2, "same", 1, 6),
    (2, 5, "valid", 2, 9),
]


class TestConv1DParity:
    @pytest.mark.parametrize("filters,ks,padding,c_in,length", CONV1D_CASES)
    def test_forward_backward_match(self, filters, ks, padding, c_in, length):
        ref, gem = _pair_conv1d(filters, ks, padding, c_in, length)
        x = np.random.default_rng(4).normal(size=(3, length, c_in))
        out_ref, out_gem, dx_ref, dx_gem = _run_both(ref, gem, x)
        np.testing.assert_allclose(out_gem, out_ref, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(dx_gem, dx_ref, rtol=RTOL, atol=ATOL)
        for g_ref, g_gem in zip(ref.grads, gem.grads):
            np.testing.assert_allclose(g_gem, g_ref, rtol=RTOL, atol=ATOL)


# -- finite-difference checks (both implementations) ----------------------------

def _numeric_grad_input(layer, x, eps=1e-5):
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


def _numeric_grad_params(layer, x, eps=1e-5):
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


def _check_gradients(layer, x, atol=1e-5):
    out = layer.forward(x.copy(), training=False)
    analytic_dx = layer.backward(np.ones_like(out))
    numeric_dx = _numeric_grad_input(layer, x)
    assert np.allclose(analytic_dx, numeric_dx, atol=atol), (
        f"dX max diff {np.max(np.abs(analytic_dx - numeric_dx))}"
    )
    if layer.params:
        layer.forward(x.copy(), training=False)
        layer.backward(np.ones_like(out))
        for analytic, numeric in zip(layer.grads, _numeric_grad_params(layer, x)):
            assert np.allclose(analytic, numeric, atol=atol)


@pytest.mark.parametrize("kernel", ["reference", "gemm"])
class TestFiniteDifference:
    def test_conv2d(self, kernel):
        conv2d = CONVS[kernel][1]
        for padding in ("same", "valid"):
            layer = conv2d(2, (3, 3), padding=padding)
            layer.build((4, 4, 2), np.random.default_rng(0))
            _check_gradients(
                layer, np.random.default_rng(1).normal(size=(2, 4, 4, 2))
            )

    def test_conv2d_pointwise(self, kernel):
        layer = CONVS[kernel][1](3, (1, 1))
        layer.build((3, 3, 2), np.random.default_rng(0))
        _check_gradients(layer, np.random.default_rng(2).normal(size=(2, 3, 3, 2)))

    def test_conv1d(self, kernel):
        conv1d = CONVS[kernel][0]
        for padding in ("same", "valid"):
            layer = conv1d(3, 3, padding=padding)
            layer.build((7, 2), np.random.default_rng(0))
            _check_gradients(layer, np.random.default_rng(3).normal(size=(2, 7, 2)))

    # Pooling and dense have one implementation: both ids run it.
    def test_maxpool2d(self, kernel):
        layer = MaxPool2D(2)
        _check_gradients(layer, np.random.default_rng(4).normal(size=(2, 4, 4, 2)))

    def test_maxpool1d(self, kernel):
        layer = MaxPool1D(2)
        _check_gradients(layer, np.random.default_rng(5).normal(size=(2, 6, 2)))

    def test_dense(self, kernel):
        layer = Dense(3)
        layer.build((5,), np.random.default_rng(0))
        _check_gradients(layer, np.random.default_rng(6).normal(size=(3, 5)))
