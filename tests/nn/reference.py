"""Test-only reference convolutions: the original kernel-offset summation.

Each reference layer is the production layer with ``forward``/``backward``
replaced by the seed's per-kernel-offset loop (one small matmul per
kernel tap, no im2col). They build, initialise and report shapes exactly
like :class:`~repro.nn.layers.Conv1D`/:class:`~repro.nn.layers.Conv2D`, so
a model can swap them in before ``build`` and draw the same weights.

They are the oracle for the parity tests in ``test_kernels.py``, the
golden-fit trajectory test and the ``reference/f64`` configuration of
``benchmarks/test_nn_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv1D, Conv2D, _pad_amounts

__all__ = ["ReferenceConv1D", "ReferenceConv2D", "reference_layer", "use_reference_convs"]


class ReferenceConv2D(Conv2D):
    """Conv2D through the kernel-offset summation."""

    def forward(self, x, training):
        ph0, ph1 = _pad_amounts(x.shape[1], self.kh, self.padding)
        pw0, pw1 = _pad_amounts(x.shape[2], self.kw, self.padding)
        xp = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
        self._xp = xp
        self._pads = (ph0, ph1, pw0, pw1)
        n, hp, wp, c = xp.shape
        h_out = hp - self.kh + 1
        w_out = wp - self.kw + 1
        out = np.tile(self.b, (n, h_out, w_out, 1))
        for i in range(self.kh):
            for j in range(self.kw):
                patch = xp[:, i : i + h_out, j : j + w_out, :]
                out += patch @ self.W[i, j]
        self._out_hw = (h_out, w_out)
        return out

    def backward(self, grad):
        xp = self._xp
        h_out, w_out = self._out_hw
        dxp = np.zeros_like(xp)
        self.grads[0][...] = 0.0
        for i in range(self.kh):
            for j in range(self.kw):
                patch = xp[:, i : i + h_out, j : j + w_out, :]
                self.grads[0][i, j] = np.tensordot(
                    patch, grad, axes=([0, 1, 2], [0, 1, 2])
                )
                dxp[:, i : i + h_out, j : j + w_out, :] += grad @ self.W[i, j].T
        self.grads[1][...] = grad.sum(axis=(0, 1, 2))
        ph0, ph1, pw0, pw1 = self._pads
        hp, wp = dxp.shape[1], dxp.shape[2]
        return dxp[:, ph0 : hp - ph1, pw0 : wp - pw1, :]


class ReferenceConv1D(Conv1D):
    """Conv1D through the kernel-offset summation."""

    def forward(self, x, training):
        p0, p1 = _pad_amounts(x.shape[1], self.k, self.padding)
        xp = np.pad(x, ((0, 0), (p0, p1), (0, 0)))
        self._xp = xp
        self._pads = (p0, p1)
        n, lp, c = xp.shape
        l_out = lp - self.k + 1
        out = np.tile(self.b, (n, l_out, 1))
        for i in range(self.k):
            out += xp[:, i : i + l_out, :] @ self.W[i]
        self._l_out = l_out
        return out

    def backward(self, grad):
        xp = self._xp
        l_out = self._l_out
        dxp = np.zeros_like(xp)
        self.grads[0][...] = 0.0
        for i in range(self.k):
            patch = xp[:, i : i + l_out, :]
            self.grads[0][i] = np.tensordot(patch, grad, axes=([0, 1], [0, 1]))
            dxp[:, i : i + l_out, :] += grad @ self.W[i].T
        self.grads[1][...] = grad.sum(axis=(0, 1))
        p0, p1 = self._pads
        lp = dxp.shape[1]
        return dxp[:, p0 : lp - p1, :]


def reference_layer(layer):
    """The unbuilt reference twin of a conv layer; other layers pass through."""
    if isinstance(layer, Conv2D):
        return ReferenceConv2D(layer.filters, (layer.kh, layer.kw), padding=layer.padding)
    if isinstance(layer, Conv1D):
        return ReferenceConv1D(layer.filters, layer.k, padding=layer.padding)
    return layer


def use_reference_convs(model):
    """Swap an unbuilt model's conv layers for their reference twins."""
    model.layers = [reference_layer(layer) for layer in model.layers]
    return model
