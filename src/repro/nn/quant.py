"""Post-training int8 quantisation for the NN inference path.

The float32 feature CNN is the throughput ceiling of the serving stack;
this module turns a trained :class:`~repro.nn.model.Sequential` into an
inference-only int8 pipeline:

- **Weight codec** — :func:`quantize_weights` maps a float tensor to
  symmetric int8 (``[-127, 127]``) with one float32 scale per *output
  channel*; :func:`dequantize_weights` inverts it within half a scale
  step per element.
- **Fused inference** — :func:`fuse_inference` returns a
  ``training=False`` fast-path copy of a model: BatchNorm folded into
  the preceding conv/dense weights, Dropout layers removed. Predictions
  match the original inference path to float rounding.
- **Quantised layers** — :class:`QuantizedDense`,
  :class:`QuantizedConv1D` and :class:`QuantizedConv2D` run the
  int8×int8 matmul over the same im2col gather the float convolutions
  use. numpy has no int8 GEMM, so the integer operands are staged in
  float32 and multiplied through BLAS sgemm: every int8×int8 product is
  exact in float32 and the accumulation is float32 (the "int8 matmul
  with float32 accumulate" contract). Accumulation stays *integer
  exact* while the reduction depth is at most
  :data:`EXACT_ACCUM_DEPTH`; deeper reductions (none of the paper's
  layers) may round the low bits, which the tolerance-pinned fixtures
  cover. Activations are quantised dynamically **per sample**, so a
  batch answers exactly like the same rows served one by one.
- **Model quantisation** — :func:`quantize_model` fuses then quantises
  every parameterised layer into a :class:`QuantizedSequential`;
  :func:`quantize_adapter` wraps a fitted CNN adapter
  (:class:`~repro.eval.experiment.FeatureCNNClassifier` or
  :class:`~repro.eval.experiment.SpectrogramCNNClassifier`) into a
  :class:`QuantizedCNNClassifier` with the same predict API, ready for
  bundling.

Weights are quantised once, when the :class:`QuantizedSequential` is
built; that model is what serving deploys.
"""

from __future__ import annotations

import io
from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.activations import softmax
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
    _as_image,
    _im2col,
    _Workspace,
)
from repro.nn.losses import CategoricalCrossEntropy
from repro.nn.model import Sequential

__all__ = [
    "QMAX",
    "EXACT_ACCUM_DEPTH",
    "quantize_weights",
    "dequantize_weights",
    "quantize_activations",
    "fuse_inference",
    "QuantizedDense",
    "QuantizedConv1D",
    "QuantizedConv2D",
    "QuantizedSequential",
    "QuantizedCNNClassifier",
    "quantize_model",
    "quantize_adapter",
    "quantized_model_to_members",
    "quantized_model_from_members",
]

#: Symmetric int8 range: codes live in [-QMAX, QMAX]; -128 is unused so
#: that negation never overflows.
QMAX = 127

#: Largest reduction depth for which int8×int8 products accumulate
#: exactly in float32 (partial sums stay below 2**24).
EXACT_ACCUM_DEPTH = (1 << 24) // (QMAX * QMAX)


# -- weight / activation codec ----------------------------------------------


def quantize_weights(
    w: np.ndarray, axis: int = -1
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8 quantisation of a weight tensor.

    ``axis`` names the output-channel axis (last for every layer in
    :mod:`repro.nn.layers`). Returns ``(q, scales)`` with ``q`` int8 in
    ``[-QMAX, QMAX]`` and ``scales`` float32, one per output channel; an
    all-zero channel gets scale 1.0 so dequantisation is always defined.
    """
    w = np.asarray(w)
    axis = axis % w.ndim
    reduce_axes = tuple(a for a in range(w.ndim) if a != axis)
    amax = np.max(np.abs(w), axis=reduce_axes) if reduce_axes else np.abs(w)
    scales = np.where(amax > 0, amax / QMAX, 1.0).astype(np.float32)
    shape = [1] * w.ndim
    shape[axis] = -1
    q = np.clip(
        np.rint(w / scales.reshape(shape).astype(w.dtype)), -QMAX, QMAX
    ).astype(np.int8)
    return q, scales


def dequantize_weights(
    q: np.ndarray, scales: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Invert :func:`quantize_weights` (float32, within scale/2 per entry)."""
    q = np.asarray(q)
    axis = axis % q.ndim
    shape = [1] * q.ndim
    shape[axis] = -1
    return q.astype(np.float32) * np.asarray(scales, dtype=np.float32).reshape(
        shape
    )


def quantize_activations(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dynamic symmetric per-sample activation quantisation.

    Returns ``(xq, scale)``: ``xq`` is float32 holding exact integer
    codes in ``[-QMAX, QMAX]`` (kept in float32 so the following BLAS
    sgemm needs no cast) and ``scale`` has shape ``(n,)`` — one scale
    per sample, so the numerics of a row never depend on its batchmates.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim < 1:
        raise ValueError("expected a batched activation tensor")
    amax = np.abs(x).reshape(x.shape[0], -1).max(axis=1)
    scale = np.where(amax > 0, amax / QMAX, 1.0).astype(np.float32)
    broadcast = scale.reshape((-1,) + (1,) * (x.ndim - 1))
    xq = np.clip(np.rint(x / broadcast), -QMAX, QMAX)
    return xq, scale


# -- fused (training=False) inference ----------------------------------------


def _clone_stateless(layer):
    if isinstance(layer, ReLU):
        return ReLU()
    if isinstance(layer, Flatten):
        return Flatten()
    if isinstance(layer, MaxPool1D):
        return MaxPool1D(layer.p)
    if isinstance(layer, MaxPool2D):
        return MaxPool2D(layer.p)
    raise TypeError(f"cannot fuse a model containing {type(layer).__name__}")


def _clone_param_layer(layer, W: np.ndarray, b: np.ndarray):
    """A built copy of a conv/dense layer carrying the given weights."""
    if isinstance(layer, Conv1D):
        new = Conv1D(layer.filters, layer.k, padding=layer.padding)
    elif isinstance(layer, Conv2D):
        new = Conv2D(layer.filters, (layer.kh, layer.kw),
                     padding=layer.padding)
    elif isinstance(layer, Dense):
        new = Dense(layer.units)
    else:  # pragma: no cover - guarded by callers
        raise TypeError(f"not a parameterised layer: {type(layer).__name__}")
    new.W = np.ascontiguousarray(W)
    new.b = np.ascontiguousarray(b)
    new.params = [new.W, new.b]
    new.grads = [np.zeros_like(new.W), np.zeros_like(new.b)]
    new.built = True
    return new


def _clone_batchnorm(layer: BatchNorm) -> BatchNorm:
    new = BatchNorm(momentum=layer.momentum, eps=layer.eps)
    new.gamma = layer.gamma.copy()
    new.beta = layer.beta.copy()
    new.params = [new.gamma, new.beta]
    new.grads = [np.zeros_like(new.gamma), np.zeros_like(new.beta)]
    new.running_mean = layer.running_mean.copy()
    new.running_var = layer.running_var.copy()
    new.built = True
    return new


def fuse_inference(model: Sequential) -> Sequential:
    """An inference-only copy with BatchNorm folded and Dropout dropped.

    BatchNorm directly after a conv/dense layer becomes part of that
    layer's weights (``W' = W·s``, ``b' = s·(b − μ) + β`` with
    ``s = γ/√(σ²+ε)``); a BatchNorm with no foldable predecessor is kept
    as an inference-mode affine. The fused model shares no parameter
    arrays with the original and must not be trained further.
    """
    if not getattr(model, "_built", False):
        raise RuntimeError("model must be built/fitted before fusing")
    fused: List = []
    for layer in model.layers:
        if isinstance(layer, Dropout):
            continue  # identity at inference
        if isinstance(layer, BatchNorm):
            prev = fused[-1] if fused else None
            if isinstance(prev, (Conv1D, Conv2D, Dense)):
                s = (layer.gamma / np.sqrt(layer.running_var + layer.eps))
                s = s.astype(prev.W.dtype)
                W = prev.W * s  # broadcast over the output-channel axis
                b = s * (prev.b - layer.running_mean.astype(prev.b.dtype))
                b = b + layer.beta.astype(prev.b.dtype)
                fused[-1] = _clone_param_layer(prev, W, b)
            else:
                fused.append(_clone_batchnorm(layer))
            continue
        if isinstance(layer, (Conv1D, Conv2D, Dense)):
            fused.append(_clone_param_layer(layer, layer.W.copy(),
                                            layer.b.copy()))
            continue
        fused.append(_clone_stateless(layer))
    out = Sequential(fused, n_classes=model.n_classes, seed=model.seed)
    out._built = True
    out.input_shape_ = tuple(model.input_shape_)
    out._dtype = model._dtype
    return out


# -- quantised layers ---------------------------------------------------------


class _QuantizedLayer:
    """Shared plumbing: int8 codes + per-output-channel float32 scales."""

    def __init__(self, wq: np.ndarray, scales: np.ndarray, bias: np.ndarray):
        self.wq = np.asarray(wq, dtype=np.int8)
        self.scales = np.asarray(scales, dtype=np.float32)
        self.bias = np.asarray(bias, dtype=np.float32)
        if self.scales.shape != self.bias.shape:
            raise ValueError(
                f"scales {self.scales.shape} and bias {self.bias.shape} "
                "must both be per-output-channel"
            )
        # The GEMM operand: int8 codes staged in float32 (exact).
        self._wf = self.wq.astype(np.float32)

    def backward(self, grad):
        raise RuntimeError(
            f"{type(self).__name__} is inference-only (no backward pass)"
        )

    def _check_inference(self, training: bool) -> None:
        if training:
            raise RuntimeError(
                f"{type(self).__name__} is inference-only; pass training=False"
            )


class QuantizedDense(_QuantizedLayer):
    """Int8 fully connected layer (weights ``(d, units)`` int8)."""

    def __init__(self, wq, scales, bias):
        super().__init__(wq, scales, bias)
        if self.wq.ndim != 2:
            raise ValueError(f"expected (d, units) weights, got {self.wq.shape}")
        self._w2 = np.ascontiguousarray(self._wf)

    def forward(self, x, training=False):
        self._check_inference(training)
        xq, a = quantize_activations(x)
        acc = xq @ self._w2  # int8×int8 products, float32 accumulate
        return acc * (a[:, None] * self.scales[None, :]) + self.bias


class _QuantizedConv(_QuantizedLayer):
    """Int8 convolution (stride 1, channels-last) over ``(n, h, w, c)``.

    Lowered exactly like the float convolutions: the same im2col gather
    (:class:`QuantizedConv1D` runs at height 1), one matmul, then
    per-sample × per-channel dequantisation plus bias.
    """

    #: Weight rank: ``(k, c, f)`` for 1-D, ``(kh, kw, c, f)`` for 2-D.
    _WEIGHT_NDIM = 4

    def __init__(self, wq, scales, bias, padding: str = "same"):
        super().__init__(wq, scales, bias)
        if self.wq.ndim != self._WEIGHT_NDIM:
            raise ValueError(
                f"expected rank-{self._WEIGHT_NDIM} (..., c, f) weights, "
                f"got {self.wq.shape}"
            )
        self.padding = padding
        self.filters = self.wq.shape[-1]
        self._kernel_hw = (1,) * (4 - self.wq.ndim) + self.wq.shape[:-2]
        self._w2 = np.ascontiguousarray(self._wf.reshape(-1, self.filters))
        self._cols_ws = _Workspace()

    def forward(self, x, training=False):
        self._check_inference(training)
        xq, a = quantize_activations(x)
        cols, (h_out, w_out), _ = _im2col(
            _as_image(xq), *self._kernel_hw, self.padding, self._cols_ws
        )
        out = (cols @ self._w2).reshape(x.shape[0], h_out, w_out, self.filters)
        if x.ndim == 3:
            out = out[:, 0]
        a = a.reshape((-1,) + (1,) * (out.ndim - 1))
        return out * (a * self.scales) + self.bias


class QuantizedConv1D(_QuantizedConv):
    """Int8 1-D convolution, weights ``(k, c, f)`` int8."""

    _WEIGHT_NDIM = 3


class QuantizedConv2D(_QuantizedConv):
    """Int8 2-D convolution, weights ``(kh, kw, c, f)`` int8."""


# -- quantised model container ------------------------------------------------

_QUANT_LAYER_TYPES = {
    "qdense": QuantizedDense,
    "qconv1d": QuantizedConv1D,
    "qconv2d": QuantizedConv2D,
}


class QuantizedSequential:
    """Inference-only stack of quantised + stateless layers.

    Mirrors :meth:`Sequential.predict_proba` / ``predict`` /
    ``evaluate``; there is deliberately no ``fit``.
    """

    def __init__(self, layers: Sequence, n_classes: int,
                 input_shape: Tuple[int, ...]):
        self.layers = list(layers)
        self.n_classes = int(n_classes)
        self.input_shape_ = tuple(int(d) for d in input_shape)
        self.loss_fn = CategoricalCrossEntropy()

    def _forward_batched(self, X: np.ndarray,
                         batch_size: int = 256) -> np.ndarray:
        X = np.asarray(X, dtype=np.float32)
        chunks = []
        for start in range(0, X.shape[0], batch_size):
            out = X[start:start + batch_size]
            for layer in self.layers:
                out = layer.forward(out, False)
            chunks.append(out)
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)

    def predict_proba(self, X: np.ndarray, batch_size: int = 256) -> np.ndarray:
        return softmax(self._forward_batched(X, batch_size))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def evaluate(self, X: np.ndarray, y_codes: np.ndarray,
                 batch_size: int = 256) -> Tuple[float, float]:
        y_codes = np.asarray(y_codes, dtype=int)
        logits = self._forward_batched(X, batch_size)
        loss, proba = self.loss_fn.forward_codes(logits, y_codes)
        acc = float(np.mean(np.argmax(proba, axis=1) == y_codes))
        return loss, acc

    def quantization_summary(self) -> List[dict]:
        """Per-quantised-layer scale statistics (manifest metadata)."""
        summary = []
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, _QuantizedLayer):
                continue
            scales = layer.scales
            summary.append({
                "layer": i,
                "type": type(layer).__name__,
                "weight_shape": list(layer.wq.shape),
                "channels": int(scales.size),
                "scale_min": float(scales.min()),
                "scale_max": float(scales.max()),
                "scale_mean": float(scales.mean()),
            })
        return summary


def quantize_model(model: Sequential) -> QuantizedSequential:
    """Fuse then quantise every parameterised layer of a trained model."""
    fused = fuse_inference(model)
    qlayers: List = []
    for layer in fused.layers:
        if isinstance(layer, Dense):
            wq, scales = quantize_weights(layer.W, axis=-1)
            qlayers.append(
                QuantizedDense(wq, scales, layer.b.astype(np.float32))
            )
        elif isinstance(layer, Conv1D):
            wq, scales = quantize_weights(layer.W, axis=-1)
            qlayers.append(
                QuantizedConv1D(wq, scales, layer.b.astype(np.float32),
                                padding=layer.padding)
            )
        elif isinstance(layer, Conv2D):
            wq, scales = quantize_weights(layer.W, axis=-1)
            qlayers.append(
                QuantizedConv2D(wq, scales, layer.b.astype(np.float32),
                                padding=layer.padding)
            )
        elif isinstance(layer, BatchNorm):
            raise NotImplementedError(
                "unfoldable BatchNorm (no conv/dense predecessor) cannot "
                "be quantised"
            )
        else:
            qlayers.append(layer)  # stateless clone owned by the fused copy
    return QuantizedSequential(
        qlayers, n_classes=model.n_classes, input_shape=model.input_shape_
    )


# -- serialisation ------------------------------------------------------------


def quantized_model_to_members(q: QuantizedSequential) -> Tuple[dict, bytes]:
    """Serialise to ``(config dict, weights-npz bytes)`` (bundle members)."""
    specs: List[dict] = []
    arrays = {}
    for i, layer in enumerate(q.layers):
        if isinstance(layer, QuantizedDense):
            specs.append({"type": "qdense"})
        elif isinstance(layer, QuantizedConv1D):
            specs.append({"type": "qconv1d", "padding": layer.padding})
        elif isinstance(layer, QuantizedConv2D):
            specs.append({"type": "qconv2d", "padding": layer.padding})
        elif isinstance(layer, ReLU):
            specs.append({"type": "relu"})
            continue
        elif isinstance(layer, Flatten):
            specs.append({"type": "flatten"})
            continue
        elif isinstance(layer, MaxPool1D):
            specs.append({"type": "maxpool1d", "pool": layer.p})
            continue
        elif isinstance(layer, MaxPool2D):
            specs.append({"type": "maxpool2d", "pool": layer.p})
            continue
        else:
            raise TypeError(
                f"cannot serialise layer {type(layer).__name__}"
            )
        arrays[f"layer{i}_wq"] = layer.wq
        arrays[f"layer{i}_scales"] = layer.scales
        arrays[f"layer{i}_bias"] = layer.bias
    config = {
        "n_classes": q.n_classes,
        "input_shape": list(q.input_shape_),
        "layers": specs,
    }
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return config, buffer.getvalue()


def quantized_model_from_members(config: dict, weights: bytes,
                                 source: str = "<bytes>") -> QuantizedSequential:
    """Rebuild a :class:`QuantizedSequential` from its bundle members."""
    specs = list(config["layers"])
    layers: List = []
    with np.load(io.BytesIO(weights)) as bundle:
        for i, spec in enumerate(specs):
            kind = spec.get("type")
            if kind in _QUANT_LAYER_TYPES:
                try:
                    wq = bundle[f"layer{i}_wq"]
                    scales = bundle[f"layer{i}_scales"]
                    bias = bundle[f"layer{i}_bias"]
                except KeyError as exc:
                    raise ValueError(
                        f"{source}: missing quantised arrays for layer {i}"
                    ) from exc
                cls = _QUANT_LAYER_TYPES[kind]
                if kind == "qdense":
                    layers.append(cls(wq, scales, bias))
                else:
                    layers.append(
                        cls(wq, scales, bias,
                            padding=str(spec.get("padding", "same")))
                    )
            elif kind == "relu":
                layers.append(ReLU())
            elif kind == "flatten":
                layers.append(Flatten())
            elif kind == "maxpool1d":
                layers.append(MaxPool1D(int(spec["pool"])))
            elif kind == "maxpool2d":
                layers.append(MaxPool2D(int(spec["pool"])))
            else:
                raise ValueError(f"{source}: unknown layer type {kind!r}")
    return QuantizedSequential(
        layers,
        n_classes=int(config["n_classes"]),
        input_shape=tuple(int(d) for d in config["input_shape"]),
    )


# -- adapter ------------------------------------------------------------------


class QuantizedCNNClassifier:
    """Inference-only drop-in for the float CNN adapters.

    Carries the original adapter's label inventory and preprocessing
    (the feature CNN's z-scorer, the spectrogram CNN's −0.5 centring)
    in front of a :class:`QuantizedSequential`, so it packs and serves
    like any other bundle predictor.
    """

    def __init__(self, qmodel: QuantizedSequential, classes,
                 base_kind: str, scaler=None):
        if base_kind not in ("feature_cnn", "spectrogram_cnn"):
            raise ValueError(f"unknown base CNN kind {base_kind!r}")
        if base_kind == "feature_cnn" and scaler is None:
            raise ValueError("a quantised feature CNN needs its scaler")
        self.qmodel = qmodel
        self.classes_ = np.asarray(classes)
        self.base_kind = base_kind
        self._scaler = scaler

    def _inputs(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.base_kind == "feature_cnn":
            return self._scaler.transform(X)[..., None]
        if X.ndim == 3:
            X = X[..., None]
        return X - 0.5

    def predict_proba(self, X) -> np.ndarray:
        return self.qmodel.predict_proba(self._inputs(X))

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X, y) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y)))

    def quantization_summary(self) -> List[dict]:
        return self.qmodel.quantization_summary()


def quantize_adapter(adapter) -> QuantizedCNNClassifier:
    """Quantise a fitted CNN adapter into a bundle-ready predictor."""
    from repro.eval.experiment import (
        FeatureCNNClassifier,
        SpectrogramCNNClassifier,
    )

    if isinstance(adapter, FeatureCNNClassifier):
        base_kind, scaler = "feature_cnn", adapter._scaler
    elif isinstance(adapter, SpectrogramCNNClassifier):
        base_kind, scaler = "spectrogram_cnn", None
    else:
        raise TypeError(
            f"cannot quantise {type(adapter).__name__}; expected a fitted "
            "FeatureCNNClassifier or SpectrogramCNNClassifier"
        )
    adapter._check_fitted()
    qmodel = quantize_model(adapter._model)
    return QuantizedCNNClassifier(
        qmodel, classes=adapter.classes_, base_kind=base_kind, scaler=scaler
    )
