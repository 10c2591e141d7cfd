"""Per-layer timing by wrapping the program's public functions from outside.

The traced run patches each layer entry point at the name its caller
resolves (class attributes, or module globals where a module imported a
function by name) with a wrapper that times the call on a per-thread
stack. A layer's *self* time is its calls' duration minus the time spent
in wrapped calls nested inside them, so the rows add up without double
counting and whatever no wrapper covers is left as ``unattributed``.

Nothing inside ``src/`` is modified; :func:`install` returns a
:class:`LayerClock` whose :meth:`~LayerClock.report` gives the rows.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: nn layer classes timed forward and backward (self time summed over
#: instances). Flatten is left out: it only reshapes.
NN_LAYERS = (
    "Conv2D", "MaxPool2D", "Dropout", "Dense", "ReLU", "Conv1D", "MaxPool1D",
    "BatchNorm",
)

#: Time metrics each workload must see fire in a traced run; a zero here
#: means a wrapper missed its call site, not that the layer is free.
EXPECTED = {
    "paper-cell": [
        "datasets.build_s", "speech.render_s", "phone.transmit_s",
        "regions.detect_s", "features.extract_s", "specimages.render_s",
        "engine.collect_self_s", "ml.fit_s", "ml.predict_s",
        "nn.optim_s", "nn.loss_s", "nn.fit_self_s",
    ] + [f"nn.{n}.{d}_s" for n in NN_LAYERS for d in ("fwd", "bwd")],
    "collect-cold": [
        "datasets.build_s", "speech.render_s", "phone.transmit_s",
        "regions.detect_s", "features.extract_s", "specimages.render_s",
        "engine.collect_self_s", "ml.fit_s", "ml.predict_s",
    ],
    "serve-tcp": [
        "registry.load_s", "features.extract_s", "bundle.predict_s",
        "protocol.decode_s", "protocol.encode_s", "admission.admit_s",
        "server.batch_self_s",
    ] + [
        f"nn.{n}.fwd_s"
        for n in ("Conv1D", "MaxPool1D", "BatchNorm", "ReLU", "Dropout", "Dense")
    ],
}


class LayerClock:
    """Self-time accounting over wrapped calls, per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[dict] = []
        self.t0 = time.perf_counter()
        self.t_end: Optional[float] = None
        #: Latency samples (ms) recorded by hooks, e.g. queue waits.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._admitted: Dict[int, float] = {}

    # -- accounting ---------------------------------------------------------
    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {
                "stack": [],
                "self": defaultdict(float),
                "counts": defaultdict(float),
                "name": threading.current_thread().name,
            }
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, value: float, outermost_of: Optional[str] = None) -> None:
        """Add to a counter; with ``outermost_of``, only outside nested calls."""
        state = self._state()
        if outermost_of is not None and any(
            frame[0] == outermost_of for frame in state["stack"]
        ):
            return
        state["counts"][name] += value

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` timed under ``name``; ``after(args, kwargs, result)`` runs untimed."""
        clock = self

        def timed(*args, **kwargs):
            state = clock._state()
            stack = state["stack"]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                state["self"][name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", name)
        return timed

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    # -- report -------------------------------------------------------------
    def stop(self) -> None:
        self.t_end = time.perf_counter()

    def report(self) -> dict:
        """Self time per layer, counters, samples and the attribution sum."""
        wall = (self.t_end or time.perf_counter()) - self.t0
        with self._lock:
            threads = list(self._threads)
        self_s: Dict[str, float] = defaultdict(float)
        counts: Dict[str, float] = defaultdict(float)
        per_thread = {}
        for state in threads:
            for name, value in list(state["self"].items()):
                self_s[name] += value
            for name, value in list(state["counts"].items()):
                counts[name] += value
            per_thread[state["name"]] = sum(state["self"].values())
        timed_threads = [name for name, total in per_thread.items() if total > 0]
        thread_s = wall * max(1, len(timed_threads))
        return {
            "wall_s": wall,
            "threads": len(timed_threads),
            "thread_self_s": per_thread,
            "self_s": dict(self_s),
            "counts": dict(counts),
            "unattributed_s": thread_s - sum(self_s.values()),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }


def check_attribution(report: dict, workload: str) -> List[str]:
    """Problems with a traced run's rows; empty when the rows add up."""
    problems = []
    wall = report["wall_s"]
    for thread, total in report["thread_self_s"].items():
        if total > wall * 1.001 + 1e-3:
            problems.append(
                f"thread {thread}: layer self times {total:.3f}s exceed wall {wall:.3f}s"
            )
    total = sum(report["self_s"].values()) + report["unattributed_s"]
    expected_total = wall * max(1, report["threads"])
    if abs(total - expected_total) > 1e-6 * max(1.0, expected_total):
        problems.append(f"rows sum to {total:.6f}s, traced time is {expected_total:.6f}s")
    for name in EXPECTED[workload]:
        if report["self_s"].get(name, 0.0) <= 0.0:
            problems.append(f"wrapper {name} never fired on {workload}")
    return problems


def install() -> LayerClock:
    """Wrap every layer entry point the workloads reach; returns the clock."""
    import repro.attack.engine as engine
    import repro.datasets as datasets
    import repro.nn.layers as nn_layers
    import repro.serve.frontend as frontend
    import repro.serve.registry as registry
    import repro.serve.server as server
    from repro.attack.regions import RegionDetector
    from repro.datasets.base import Corpus
    from repro.ml.logistic import LogisticRegression
    from repro.nn.losses import CategoricalCrossEntropy
    from repro.nn.model import Sequential
    from repro.nn.optim import Adam
    from repro.phone.channel import VibrationChannel
    from repro.serve.admission import AdmissionController
    from repro.serve.bundle import ModelBundle
    from repro.serve.protocol import FrameDecoder

    clock = LayerClock()
    count = clock.count

    # datasets / registry: set-up work
    clock.patch(datasets, "build_corpus", "datasets.build_s")
    clock.patch(registry.ModelRegistry, "register", "registry.load_s")
    clock.patch(registry, "load_bundle", "registry.load_s")

    # speech
    clock.patch(Corpus, "render", "speech.render_s", after=lambda a, k, r: count(
        "speech.utterances", 1, outermost_of="speech.render_s"))
    clock.patch(Corpus, "render_batch", "speech.render_s", after=lambda a, k, r: count(
        "speech.utterances", len(r), outermost_of="speech.render_s"))

    # phone
    clock.patch(VibrationChannel, "transmit", "phone.transmit_s")
    clock.patch(VibrationChannel, "transmit_batch", "phone.transmit_s")

    # attack.regions
    clock.patch(RegionDetector, "detect", "regions.detect_s", after=lambda a, k, r: count(
        "regions.found", len(r), outermost_of="regions.detect_s"))
    clock.patch(RegionDetector, "detect_batch", "regions.detect_s", after=lambda a, k, r: count(
        "regions.found", sum(len(x) for x in r), outermost_of="regions.detect_s"))

    # attack.features, where the engine and the server imported it by name
    def one_row(a, k, r):
        count("features.rows", 1, outermost_of="features.extract_s")

    clock.patch(engine, "extract_features", "features.extract_s", after=one_row)
    clock.patch(server, "extract_features", "features.extract_s", after=one_row)
    clock.patch(engine, "extract_features_batch", "features.extract_s",
                after=lambda a, k, r: count("features.rows", len(r),
                                            outermost_of="features.extract_s"))

    # dsp.spectrogram through attack.specimages
    clock.patch(engine, "region_spectrogram_image", "specimages.render_s")
    clock.patch(engine, "region_spectrogram_images_batch", "specimages.render_s")

    # attack.engine: the pass itself, minus the stages above
    def collect_wrapper(fn):
        timed = clock.wrap("engine.collect_self_s", fn)

        def collect(*args, **kwargs):
            cache = kwargs.get("cache")
            before = cache.misses if cache is not None else 0
            result = timed(*args, **kwargs)
            if cache is not None:
                count("engine.cache_misses", cache.misses - before)
            return result

        return collect

    engine.collect_datasets = collect_wrapper(engine.collect_datasets)

    # ml
    clock.patch(LogisticRegression, "fit", "ml.fit_s")
    clock.patch(LogisticRegression, "predict_proba", "ml.predict_s")

    # nn training and inference
    for cls_name in NN_LAYERS:
        cls = getattr(nn_layers, cls_name)
        clock.patch(cls, "forward", f"nn.{cls_name}.fwd_s")
        clock.patch(cls, "backward", f"nn.{cls_name}.bwd_s")
    clock.patch(Adam, "step", "nn.optim_s")
    for attr in ("forward", "forward_codes", "backward"):
        clock.patch(CategoricalCrossEntropy, attr, "nn.loss_s")
    clock.patch(Sequential, "fit", "nn.fit_self_s")

    # serve.bundle inference
    clock.patch(ModelBundle, "predict_proba_with", "bundle.predict_s",
                after=lambda a, k, r: (count("bundle.calls", 1),
                                       count("bundle.rows", len(r))))

    # serve.protocol
    clock.patch(FrameDecoder, "feed", "protocol.decode_s",
                after=lambda a, k, r: count("protocol.frames", len(r)))
    clock.patch(frontend, "encode_message", "protocol.encode_s",
                after=lambda a, k, r: count("protocol.frames", 1))

    # serve.admission: admit/shed and the wait until dispatch
    def offered(args, kwargs, decision):
        if decision is not None:
            count("admission.shed", 1)
        else:
            clock._admitted[id(args[3] if len(args) > 3 else kwargs["item"])] = (
                time.perf_counter()
            )

    def dequeued(args, kwargs, entry):
        if entry is not None:
            t_admit = clock._admitted.pop(id(entry.item), None)
            if t_admit is not None:
                clock.samples["admission.wait_ms"].append(
                    1e3 * (time.perf_counter() - t_admit)
                )

    clock.patch(AdmissionController, "offer", "admission.admit_s", after=offered)
    clock.patch(AdmissionController, "next", "admission.admit_s", after=dequeued)

    # serve.server: queue wait from submit until the batch starts
    run_batch = clock.wrap("server.batch_self_s", server.InferenceServer._run_batch)

    def timed_batch(self, batch):
        now = time.perf_counter()
        clock.samples["server.queue_wait_ms"].extend(
            1e3 * (now - request.enqueued) for request in batch
        )
        count("server.batches", 1)
        count("server.batched_requests", len(batch))
        return run_batch(self, batch)

    server.InferenceServer._run_batch = timed_batch
    return clock
