"""Layers: dense, conv, pooling, normalisation, dropout.

Conventions
-----------
- Channels-last layouts: Conv2D works on ``(N, H, W, C)``, Conv1D on
  ``(N, L, C)``, Dense on ``(N, D)``.
- ``forward(x, training)`` caches what ``backward(grad)`` needs;
  ``backward`` returns dLoss/dInput and fills ``self.grads`` parallel to
  ``self.params``.
- Convolutions use "same" zero padding (as the paper's feature CNN
  states) or "valid".
- Parameters are allocated in the :mod:`repro.nn.policy` compute dtype
  at ``build`` time.

There is one convolution lowering and one max-pool routine; the 1-D
layers run through them as height-1 images (``(N, L, C)`` viewed as
``(N, 1, L, C)``, a ``(k, c, f)`` kernel as ``(1, k, c, f)``). Each
convolution is one matrix multiply per direction: ``sliding_window_view``
gathers the receptive fields into a per-layer reusable im2col workspace
(grown once, then recycled every batch), the forward is
``cols @ W2d + b`` and the backward is two GEMMs (``colsᵀ @ grad`` for
dW, ``grad @ W2dᵀ`` followed by a kh·kw slice scatter-add for dX). 1x1
convolutions skip the gather entirely.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.activations import relu, relu_grad
from repro.nn.initializers import he_normal
from repro.nn.policy import get_policy

__all__ = [
    "Layer",
    "Dense",
    "Conv1D",
    "Conv2D",
    "MaxPool1D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
    "BatchNorm",
    "ReLU",
]


class _Workspace:
    """A grow-only scratch buffer reused across batches.

    ``get(shape, dtype)`` returns a C-contiguous array of that shape
    backed by one flat allocation that only grows (or is replaced on a
    dtype change), so steady-state training performs zero scratch
    allocations per batch.
    """

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf: Optional[np.ndarray] = None

    def get(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        size = int(np.prod(shape))
        dtype = np.dtype(dtype)
        if self._buf is None or self._buf.size < size or self._buf.dtype != dtype:
            self._buf = np.empty(max(size, 1), dtype=dtype)
        return self._buf[:size].reshape(shape)


class Layer:
    """Base layer: parameter/gradient registry plus the fwd/bwd API."""

    def __init__(self):
        self.params: List[np.ndarray] = []
        self.grads: List[np.ndarray] = []
        self.built = False

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters once the input shape (sans batch) is known."""
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape given the per-sample input shape."""
        return input_shape

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ReLU(Layer):
    """Elementwise rectifier."""

    def forward(self, x, training):
        self._x = x
        return relu(x)

    def backward(self, grad):
        return grad * relu_grad(self._x)


class Flatten(Layer):
    """Collapse all per-sample axes into one."""

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)

    def forward(self, x, training):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class Dense(Layer):
    """Fully connected layer."""

    def __init__(self, units: int):
        super().__init__()
        if units < 1:
            raise ValueError("units must be >= 1")
        self.units = int(units)

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise ValueError(f"Dense expects flat input, got shape {input_shape}")
        d = input_shape[0]
        dtype = get_policy().compute_dtype
        self.W = he_normal((d, self.units), fan_in=d, rng=rng).astype(dtype)
        self.b = np.zeros(self.units, dtype=dtype)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self.built = True

    def output_shape(self, input_shape):
        return (self.units,)

    def forward(self, x, training):
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad):
        self.grads[0][...] = self._x.T @ grad
        self.grads[1][...] = grad.sum(axis=0)
        return grad @ self.W.T


class Dropout(Layer):
    """Inverted dropout; identity at inference."""

    def __init__(self, rate: float, seed: int = 0):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = float(rate)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def forward(self, x, training):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        # Draw in the activation dtype: float64 inputs keep the original
        # stream; float32 inputs get native float32 draws (half the
        # bandwidth, no astype) at the cost of a policy-specific mask.
        draw_dtype = np.float32 if x.dtype == np.float32 else np.float64
        self._mask = (self._rng.random(x.shape, dtype=draw_dtype) < keep).astype(
            x.dtype
        )
        self._mask /= np.asarray(keep, dtype=x.dtype)
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class BatchNorm(Layer):
    """Batch normalisation over the channel (last) axis."""

    def __init__(self, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.momentum = float(momentum)
        self.eps = float(eps)

    def build(self, input_shape, rng):
        channels = input_shape[-1]
        dtype = get_policy().compute_dtype
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.params = [self.gamma, self.beta]
        self.grads = [np.zeros_like(self.gamma), np.zeros_like(self.beta)]
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.built = True

    def forward(self, x, training):
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        self._x_hat = (x - mean) / np.sqrt(var + self.eps)
        self._var = var
        self._axes = axes
        self._m = int(np.prod([x.shape[a] for a in axes]))
        return self.gamma * self._x_hat + self.beta

    def backward(self, grad):
        axes = self._axes
        self.grads[0][...] = np.sum(grad * self._x_hat, axis=axes)
        self.grads[1][...] = np.sum(grad, axis=axes)
        m = self._m
        inv_std = 1.0 / np.sqrt(self._var + self.eps)
        g = grad * self.gamma
        return (
            inv_std
            / m
            * (
                m * g
                - np.sum(g, axis=axes)
                - self._x_hat * np.sum(g * self._x_hat, axis=axes)
            )
        )


def _pad_amounts(size: int, kernel: int, padding: str) -> Tuple[int, int]:
    if padding == "valid":
        return 0, 0
    if padding == "same":
        total = max(kernel - 1, 0)
        return total // 2, total - total // 2
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


def _as_image(x: np.ndarray) -> np.ndarray:
    """View a ``(n, L, c)`` sequence as a height-1 ``(n, 1, L, c)`` image."""
    return x[:, None] if x.ndim == 3 else x


def _im2col(x, kh, kw, padding, ws):
    """Pad ``x`` ``(n, h, w, c)`` and gather its kh×kw receptive fields.

    Returns ``(cols, (h_out, w_out), pads)`` where ``cols`` holds one
    ``kh*kw*c`` row per output pixel, copied into the workspace ``ws``.
    1x1 kernels skip the gather: the pixels already are the rows.
    """
    n, _, _, c = x.shape
    if kh == 1 and kw == 1:
        return x.reshape(-1, c), x.shape[1:3], (0, 0, 0, 0)
    ph0, ph1 = _pad_amounts(x.shape[1], kh, padding)
    pw0, pw1 = _pad_amounts(x.shape[2], kw, padding)
    if ph0 or ph1 or pw0 or pw1:
        x = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
    h_out = x.shape[1] - kh + 1
    w_out = x.shape[2] - kw + 1
    # (n, h_out, w_out, c, kh, kw) view -> contiguous (rows, kh*kw*c).
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))
    cols6 = ws.get((n, h_out, w_out, kh, kw, c), x.dtype)
    np.copyto(cols6, windows.transpose(0, 1, 2, 4, 5, 3))
    cols = cols6.reshape(n * h_out * w_out, kh * kw * c)
    return cols, (h_out, w_out), (ph0, ph1, pw0, pw1)


class _Conv(Layer):
    """The one convolution lowering (stride 1, channels-last).

    Inputs are viewed as ``(n, h, w, c)`` images and weights as
    ``(kh, kw, c, f)``; :class:`Conv1D` runs here at height 1.
    """

    def __init__(self, filters: int, padding: str):
        super().__init__()
        if filters < 1:
            raise ValueError("filters must be >= 1")
        self.filters = int(filters)
        self.padding = padding
        self._cols_ws = _Workspace()
        self._dcols_ws = _Workspace()

    def _init_params(self, shape: Tuple[int, ...], rng) -> None:
        fan_in = int(np.prod(shape[:-1]))
        dtype = get_policy().compute_dtype
        self.W = he_normal(shape, fan_in, rng).astype(dtype)
        self.b = np.zeros(self.filters, dtype=dtype)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self.built = True

    def _kernel(self) -> np.ndarray:
        return self.W if self.W.ndim == 4 else self.W[None]

    def forward(self, x, training):
        W = self._kernel()
        kh, kw, _, f = W.shape
        self._x_shape = x.shape
        cols, (h_out, w_out), self._pads = _im2col(
            _as_image(x), kh, kw, self.padding, self._cols_ws
        )
        out = cols @ W.reshape(-1, f)
        out += self.b
        self._cols = cols
        self._out_hw = (h_out, w_out)
        out = out.reshape(x.shape[0], h_out, w_out, f)
        return out if x.ndim == 4 else out[:, 0]

    def backward(self, grad):
        W = self._kernel()
        kh, kw, c, f = W.shape
        W2 = W.reshape(-1, f)
        g2 = grad.reshape(-1, f)
        self.grads[0][...] = (self._cols.T @ g2).reshape(self.W.shape)
        if kh == 1 and kw == 1:
            self.grads[1][...] = g2.sum(axis=0)
            return (g2 @ W2.T).reshape(self._x_shape)
        n = self._x_shape[0]
        h_out, w_out = self._out_hw
        self.grads[1][...] = grad.sum(axis=tuple(range(grad.ndim - 1)))
        dcols = self._dcols_ws.get((g2.shape[0], kh * kw * c), self._cols.dtype)
        np.matmul(g2, W2.T, out=dcols)
        dcols6 = dcols.reshape(n, h_out, w_out, kh, kw, c)
        dxp = np.zeros(
            (n, h_out + kh - 1, w_out + kw - 1, c), dtype=dcols.dtype
        )
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + h_out, j : j + w_out, :] += dcols6[:, :, :, i, j, :]
        ph0, ph1, pw0, pw1 = self._pads
        hp, wp = dxp.shape[1], dxp.shape[2]
        return dxp[:, ph0 : hp - ph1, pw0 : wp - pw1, :].reshape(self._x_shape)


class Conv2D(_Conv):
    """2-D convolution (stride 1, channels-last), weights ``(kh, kw, c, f)``."""

    def __init__(self, filters: int, kernel_size, padding: str = "same"):
        super().__init__(filters, padding)
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.kh, self.kw = int(kernel_size[0]), int(kernel_size[1])
        if self.kh < 1 or self.kw < 1:
            raise ValueError("kernel dims must be >= 1")

    def build(self, input_shape, rng):
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (H, W, C) input, got {input_shape}")
        self._init_params((self.kh, self.kw, input_shape[2], self.filters), rng)

    def output_shape(self, input_shape):
        h, w, _ = input_shape
        if self.padding == "same":
            return (h, w, self.filters)
        return (h - self.kh + 1, w - self.kw + 1, self.filters)


class Conv1D(_Conv):
    """1-D convolution (stride 1, channels-last), weights ``(k, c, f)``."""

    def __init__(self, filters: int, kernel_size: int, padding: str = "same"):
        super().__init__(filters, padding)
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.k = int(kernel_size)

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(f"Conv1D expects (L, C) input, got {input_shape}")
        self._init_params((self.k, input_shape[1], self.filters), rng)

    def output_shape(self, input_shape):
        length, _ = input_shape
        if self.padding == "same":
            return (length, self.filters)
        return (length - self.k + 1, self.filters)


class _MaxPool(Layer):
    """The one non-overlapping max-pool routine over ``(n, h, w, c)``.

    Each window axis is clamped to the input's size, so an axis shorter
    than the pool is pooled whole and a trailing remainder is cropped;
    :class:`MaxPool1D` runs here at height 1. Ties route the gradient to
    the first maximum in row-major window order.
    """

    def __init__(self, pool_size: int = 2):
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.p = int(pool_size)

    def forward(self, x, training):
        self._shape = x.shape
        x4 = _as_image(x)
        n, h, w, c = x4.shape
        ph, pw = min(self.p, h), min(self.p, w)
        h_out, w_out = h // ph, w // pw
        xc = x4[:, : h_out * ph, : w_out * pw, :]
        blocks = xc.reshape(n, h_out, ph, w_out, pw, c).transpose(0, 1, 3, 5, 2, 4)
        blocks = blocks.reshape(n, h_out, w_out, c, ph * pw)
        self._argmax = blocks.argmax(axis=-1)
        self._hw, self._window = (h, w), (ph, pw)
        # One reduction pass: the max is the value at the argmax, so a
        # gather replaces a second full scan of the pooling windows.
        out = np.take_along_axis(blocks, self._argmax[..., None], axis=-1)[..., 0]
        return out if x.ndim == 4 else out[:, 0]

    def backward(self, grad):
        n, h_out, w_out, c = self._argmax.shape
        (h, w), (ph, pw) = self._hw, self._window
        # Flat pixel index of each window's corner, plus the offset of
        # each position inside a window, picked by the argmax.
        corner = (np.arange(n)[:, None, None] * h + np.arange(h_out)[:, None] * ph) * w
        corner = corner + np.arange(w_out) * pw
        within = (np.arange(ph)[:, None] * w + np.arange(pw)).ravel()
        flat_idx = (corner[..., None] + within[self._argmax]) * c + np.arange(c)
        dx = np.zeros(self._shape, dtype=grad.dtype)
        dx.reshape(-1)[flat_idx.ravel()] = grad.ravel()
        return dx


class MaxPool2D(_MaxPool):
    """Non-overlapping 2-D max pooling (trailing remainder cropped)."""

    def output_shape(self, input_shape):
        h, w, c = input_shape
        return (max(1, h // self.p), max(1, w // self.p), c)


class MaxPool1D(_MaxPool):
    """Non-overlapping 1-D max pooling (trailing remainder cropped)."""

    def output_shape(self, input_shape):
        length, c = input_shape
        return (max(1, length // self.p), c)
