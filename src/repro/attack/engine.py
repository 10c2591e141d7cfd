"""Parallel collection engine: stacked chunks, executors, caching, stats.

The collection stage — render each utterance, transmit it through the
vibration channel, detect speech regions, extract the Table II features
and the 32x32 spectrogram image — dominates the cost of regenerating a
paper table, and the per-utterance (table-top) protocol is embarrassingly
parallel. This module turns that loop into an engine:

- **Stacked chunks**: utterances are grouped into chunks of
  :data:`DEFAULT_BATCH_CHUNK` and every stage runs across the batch axis
  (``render_batch`` → ``transmit_batch`` → ``detect_batch`` → batched
  products). Under the default float64 batch policy the output is
  byte-identical to the committed goldens at any chunk size.
- **Deterministic rows**: every utterance gets its *own* RNG derived
  from ``(seed, item index)``, so the collected datasets are
  byte-identical at any worker count and under any executor.
- **Pluggable executors**: ``serial``, ``thread`` and ``process``;
  selected by name or defaulted from ``n_jobs``.
- **Single-pass collection**: :func:`collect_datasets` produces the
  :class:`FeatureDataset` *and* the :class:`SpectrogramDataset` from one
  shared render→transmit→detect pass, instead of paying collection twice
  when a table needs both (every ``cnn_spectrogram`` row).
- **Collection cache**: :class:`CollectionCache` keys a finished pass by
  ``(corpus, device, placement, rate, seed, …)`` so a whole paper table
  performs each collection exactly once; an optional on-disk store
  persists passes across runs (see :mod:`repro.eval.io`).
- **Instrumentation**: every stage runs inside a :mod:`repro.obs` span
  (``render`` → ``transmit`` → ``detect`` → ``product`` under a
  ``collect`` pass span), so timings survive exceptions and land in the
  process-wide metrics registry with per-scenario labels.
  :class:`CollectionStats` remains the backward-compatible summary
  object: per-pass records are built from the span durations, and
  :func:`global_stats` is a thin view over the registry.

The continuous-session (handheld) protocol is inherently sequential —
the hand-motion process is one continuous waveform across the session —
so there the engine parallelises the utterance *rendering*, keeps the
transmit chain serial (preserving the exact numerics of
:func:`repro.phone.recording.record_session`) and runs the shared
product step over the session's regions in float64.
"""

from __future__ import annotations

import copy
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attack.features import FEATURE_NAMES, extract_features_batch
from repro.attack.labeling import LABELING_VERSION, label_regions, match_regions
from repro.attack.regions import Region, RegionDetector
from repro.attack.specimages import region_spectrogram_images_batch
from repro.batch import batch_dtype
from repro.datasets.base import Corpus, UtteranceSpec, resolve_task
from repro.dsp.filters import cached_butter_highpass, sosfilt_zero_phase
from repro.obs import MetricsRegistry, metrics, trace, tracer
from repro.parallel import EXECUTOR_NAMES, resolve_executor
from repro.parallel import run_tasks as _run_tasks_generic
from repro.phone.channel import Placement, VibrationChannel

# The engine runs only the batched products, but the scalar ones stay
# importable from here: perfbench/layers.py times both by patching this
# module's names.
from repro.attack.features import extract_features  # noqa: F401
from repro.attack.specimages import region_spectrogram_image  # noqa: F401

__all__ = [
    "EXECUTOR_NAMES",
    "DEFAULT_BATCH_CHUNK",
    "CollectionStats",
    "FeatureDataset",
    "SpectrogramDataset",
    "CollectionResult",
    "CollectionCache",
    "collection_key",
    "collect_datasets",
    "collect_per_utterance_products",
    "iter_region_samples",
    "default_cache",
    "global_stats",
    "reset_global_stats",
    "run_tasks",
]

#: Seconds of silence padded around each per-utterance playback so the
#: region detector sees the noise floor (matches the paper's protocol).
_UTTERANCE_PAD_S = 0.3

#: Utterances per stacked batch chunk. Chunking bounds peak memory and
#: gives the process executor work units; results are identical at any
#: chunk size.
DEFAULT_BATCH_CHUNK = 32


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


@dataclass
class CollectionStats:
    """Counters and stage timers for one (or many) collection passes.

    Stage timers are *summed across workers*, so with ``n_jobs > 1`` they
    can exceed ``total_s`` (which is wall time). ``cache_hits`` counts
    whole passes served from a :class:`CollectionCache`.
    """

    renders: int = 0
    transmits: int = 0
    regions_detected: int = 0
    regions_used: int = 0
    n_played: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    render_s: float = 0.0
    transmit_s: float = 0.0
    detect_s: float = 0.0
    product_s: float = 0.0
    total_s: float = 0.0
    n_jobs: int = 1
    executor: str = "serial"

    def add(self, other: "CollectionStats") -> None:
        """Accumulate another stats record into this one (in place)."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in _TIMER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        # An aggregate reports the widest pool it saw (cache-hit records
        # carry the defaults and must not mask a parallel pass).
        if other.n_jobs > self.n_jobs:
            self.n_jobs = other.n_jobs
            self.executor = other.executor

    def summary(self) -> str:
        """One-line human-readable account of the pass."""
        return (
            f"transmits={self.transmits} renders={self.renders} "
            f"regions={self.regions_used}/{self.regions_detected} "
            f"cache={self.cache_hits}h/{self.cache_misses}m "
            f"[render {self.render_s:.2f}s, transmit {self.transmit_s:.2f}s, "
            f"detect {self.detect_s:.2f}s, featurize {self.product_s:.2f}s; "
            f"wall {self.total_s:.2f}s, {self.executor} x{self.n_jobs}]"
        )

    # -- registry view ------------------------------------------------------
    def to_registry(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Express this record as observability metrics.

        Counter fields become counters, stage timers become one timer
        observation each (``total_s`` under the ``collect`` timer), and
        the worker pool becomes the high-water ``engine.n_jobs`` gauge —
        so :meth:`add` on two records agrees with
        :meth:`MetricsRegistry.merge` on their registries.
        """
        registry = registry if registry is not None else MetricsRegistry()
        for name in _COUNTER_FIELDS:
            value = getattr(self, name)
            if value:
                registry.count(name, value)
        for name, timer in _TIMER_FIELDS.items():
            value = getattr(self, name)
            if value:
                registry.observe(timer, value)
        registry.gauge("engine.n_jobs", self.n_jobs, executor=self.executor)
        return registry

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "CollectionStats":
        """Thin :class:`CollectionStats` view over a metrics registry."""
        stats = cls()
        for name in _COUNTER_FIELDS:
            setattr(stats, name, int(registry.counter_total(name)))
        for name, timer in _TIMER_FIELDS.items():
            setattr(stats, name, registry.timer_total(timer).total_s)
        pools = [
            (value, dict(labels).get("executor", "serial"))
            for (gauge, labels), value in registry.snapshot()["gauges"].items()
            if gauge == "engine.n_jobs"
        ]
        if pools:
            width, executor = max(pools, key=lambda p: (p[0], p[1]))
            stats.n_jobs = int(width)
            stats.executor = executor
        return stats


#: CollectionStats counter field -> registry counter of the same name.
_COUNTER_FIELDS: Tuple[str, ...] = (
    "renders", "transmits", "regions_detected", "regions_used",
    "n_played", "cache_hits", "cache_misses",
)

#: CollectionStats timer field -> registry/span timer name.
_TIMER_FIELDS: Dict[str, str] = {
    "render_s": "render",
    "transmit_s": "transmit",
    "detect_s": "detect",
    "product_s": "product",
    "total_s": "collect",
}


def global_stats() -> CollectionStats:
    """The process-wide collection counters.

    A view assembled from the process-wide metrics registry: counters
    come from :func:`_publish`, stage timers from the engine's spans —
    which record on exception paths too, so time spent in a failing
    pass is still accounted.
    """
    return CollectionStats.from_registry(metrics())


def reset_global_stats() -> None:
    """Zero the process-wide collection counters (the metrics registry)."""
    metrics().clear()


def _publish(stats: CollectionStats) -> None:
    """Mirror a finished pass's counters into the process-wide registry.

    Only the *counter* fields are published: stage timers already
    reached the registry through span exits (or, for process-pool runs,
    through the aggregate spans recorded by the parent), so publishing
    them again would double-count.
    """
    registry = metrics()
    for name in _COUNTER_FIELDS:
        value = getattr(stats, name)
        if value:
            registry.count(name, value)
    registry.gauge("engine.n_jobs", stats.n_jobs, executor=stats.executor)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class FeatureDataset:
    """Extracted Table II features with labels and provenance."""

    X: np.ndarray
    y: np.ndarray
    feature_names: Tuple[str, ...] = FEATURE_NAMES
    fs: float = 0.0
    n_played: int = 0
    stats: Optional[CollectionStats] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}"
            )

    @property
    def extraction_rate(self) -> float:
        """Fraction of played utterances that yielded a usable region."""
        return self.X.shape[0] / self.n_played if self.n_played else 0.0


@dataclass
class SpectrogramDataset:
    """Region spectrogram images with labels."""

    images: np.ndarray  # (n, size, size, 1)
    y: np.ndarray
    fs: float = 0.0
    n_played: int = 0
    stats: Optional[CollectionStats] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"images has {self.images.shape[0]} rows but y has {self.y.shape[0]}"
            )

    @property
    def extraction_rate(self) -> float:
        return self.images.shape[0] / self.n_played if self.n_played else 0.0


@dataclass
class CollectionResult:
    """Both datasets from one shared render→transmit→detect pass."""

    features: FeatureDataset
    spectrograms: SpectrogramDataset
    stats: CollectionStats

    def __iter__(self):
        yield self.features
        yield self.spectrograms


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

# Per-worker context for the process executor; installed once per worker
# via the pool initializer so the corpus/channel are pickled once, not
# once per chunk.
_WORKER_CONTEXT: Optional["_PassConfig"] = None


def _init_worker(config: "_PassConfig") -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = config


def run_tasks(
    fn: Callable,
    items: Sequence,
    n_jobs: int = 1,
    executor: Optional[str] = None,
) -> List:
    """Run ``fn`` over ``items`` with the chosen executor, preserving order.

    Thin wrapper over :func:`repro.parallel.run_tasks` that keeps the
    engine's historical restriction: the ``process`` executor runs
    through :func:`collect_datasets` (which ships the pass config via a
    pool initializer), not through this helper.
    """
    if _resolve_executor(n_jobs, executor) == "process":
        raise ValueError(
            "the process executor runs through collect_datasets(); "
            "run_tasks() only supports 'serial' and 'thread'"
        )
    return _run_tasks_generic(fn, items, n_jobs=n_jobs, executor=executor)


#: Executor-name resolution now lives in :mod:`repro.parallel` (shared
#: with the training/evaluation engine); kept under the old name for the
#: engine's internal call sites.
_resolve_executor = resolve_executor


# ---------------------------------------------------------------------------
# Stacked utterance chunks (per-utterance protocol)
# ---------------------------------------------------------------------------


@dataclass
class _PassConfig:
    """Everything a worker needs to process one chunk of utterances."""

    corpus: Corpus
    channel: VibrationChannel
    detector: RegionDetector
    seed: int
    size: int
    feature_highpass_hz: Optional[float]
    # OS-level defense postprocess applied to every sensor trace before
    # detection. The channel stored above is already the *defended*
    # channel (defense.apply ran in collect_datasets), so rate-cap
    # stages are no-ops here and the stream rate equals accel_fs.
    defense: Optional[object] = None


def _item_rng(seed: int, index: int) -> np.random.Generator:
    """An utterance's own RNG: identical at any worker count or chunk size."""
    return np.random.default_rng([0x454D4F, seed & 0xFFFFFFFF, index])


def _item_channel(config: _PassConfig, index: int) -> VibrationChannel:
    """A channel safe for utterance ``index``.

    Table-top transmission is stateless given an explicit RNG, so the
    shared channel can be used from any worker. Handheld transmission
    advances the motion process, so each utterance gets its own reseeded
    copy — which is also what makes per-utterance handheld collection
    deterministic under parallelism and at any chunk size.
    """
    if config.channel.placement is not Placement.HANDHELD:
        return config.channel
    channel = copy.deepcopy(config.channel)
    channel.reseed(int(config.seed & 0xFFFFFF) * 1000003 + index)
    return channel


def _detect_chunk(config: _PassConfig, items: Sequence[Tuple[int, UtteranceSpec]]):
    """Render→transmit→detect one stacked chunk of ``(index, spec)`` items.

    Returns ``(signals, bests, stats)``: each row's sensor trace and its
    most energetic region, or None where the detector missed the
    utterance (the paper's dropped ~10 %). Raises on any per-row
    pathology (NaN audio poisoning the shared detector statistics, a
    corpus that rejects a spec, …); :func:`_run_batch_chunk` catches and
    degrades to per-row isolation.
    """
    stats = CollectionStats()
    corpus, detector = config.corpus, config.detector
    indices = [index for index, _ in items]
    specs = [spec for _, spec in items]
    rngs = [_item_rng(config.seed, index) for index in indices]
    n = len(items)

    render_batch = getattr(corpus, "render_batch", None)
    with trace("render", n=n, metric_labels={}) as span:
        if render_batch is not None:
            audios = render_batch(specs)
        else:
            audios = [corpus.render(spec) for spec in specs]
    stats.renders += n
    stats.render_s += span.duration_s

    # Pad with silence so the detector sees the noise floor.
    pad = np.zeros(int(_UTTERANCE_PAD_S * corpus.audio_fs))
    audios = [np.concatenate([pad, audio, pad]) for audio in audios]

    with trace("transmit", n=n, metric_labels={}) as span:
        if config.channel.placement is Placement.HANDHELD:
            # Handheld motion is stateful: per-item reseeded clones keep
            # every row independent of its chunk.
            signals = [
                _item_channel(config, index).transmit(audio, corpus.audio_fs, rng)
                for index, audio, rng in zip(indices, audios, rngs)
            ]
        else:
            signals = config.channel.transmit_batch(audios, corpus.audio_fs, rngs)
    stats.transmits += n
    stats.transmit_s += span.duration_s

    fs = config.channel.accel_fs
    if config.defense is not None:
        # The defense sees each unpadded trace on its own, exactly as
        # the OS boundary would deliver it.
        signals = [config.defense.postprocess(signal, fs) for signal in signals]
    detect_batch = getattr(detector, "detect_batch", None)
    with trace("detect", n=n, metric_labels={}) as span:
        if detect_batch is not None:
            regions_list = detect_batch(signals, fs)
        else:
            regions_list = [detector.detect(signal, fs) for signal in signals]
    stats.detect_s += span.duration_s

    bests: List[Optional[Region]] = []
    for signal, regions in zip(signals, regions_list):
        stats.regions_detected += len(regions)
        if not regions:
            bests.append(None)
            continue
        # One utterance => take the most energetic region.
        best = max(
            regions,
            key=lambda r: float(
                np.sum((r.slice(signal) - np.mean(r.slice(signal))) ** 2)
            ),
        )
        stats.regions_used += 1
        bests.append(best)
    return signals, bests, stats


def _products(
    signals: Sequence[np.ndarray],
    regions: Sequence[Region],
    fs: float,
    size: int,
    feature_highpass_hz: Optional[float],
    dtype: np.dtype,
) -> Tuple[List[Optional[np.ndarray]], List[Optional[np.ndarray]]]:
    """Table II feature row and spectrogram image of each region.

    ``regions[k]`` indexes into ``signals[k]``. A product is None where
    its region is too short for it (4 samples for features, 8 for an
    image). Both protocols share this step: stacked chunks pass the
    batch-policy dtype, the continuous session float64.
    """
    features: List[Optional[np.ndarray]] = [None] * len(regions)
    images: List[Optional[np.ndarray]] = [None] * len(regions)
    feat_rows, feat_pos = [], []
    for k, (signal, region) in enumerate(zip(signals, regions)):
        samples = region.slice(signal)
        if samples.size < 4:
            continue
        if feature_highpass_hz is not None and samples.size > 32:
            sos = cached_butter_highpass(feature_highpass_hz, fs, order=4)
            samples = sosfilt_zero_phase(sos, samples)
        feat_rows.append(samples)
        feat_pos.append(k)
    if feat_rows:
        matrix = extract_features_batch(feat_rows, fs, dtype=dtype)
        for row, k in zip(matrix, feat_pos):
            features[k] = row
    img_pos = [k for k, region in enumerate(regions) if region.end - region.start >= 8]
    if img_pos:
        shots = region_spectrogram_images_batch(
            [signals[k] for k in img_pos],
            [regions[k] for k in img_pos],
            size=size,
            dtype=dtype,
        )
        for k, image in zip(img_pos, shots):
            images[k] = image
    return features, images


def _process_batch_entry(items: List[Tuple[int, UtteranceSpec]]):
    return _run_batch_chunk(_WORKER_CONTEXT, items)


def _run_batch_chunk_fast(config: _PassConfig, items: Sequence[Tuple[int, UtteranceSpec]]):
    """One stacked chunk through every batched stage (raises on a bad row).

    Returns ``(rows, stats)`` with one ``(index, label|None,
    features|None, image|None)`` row per item, in item order.
    """
    signals, bests, stats = _detect_chunk(config, items)
    hit = [k for k, best in enumerate(bests) if best is not None]
    with trace("product", n=len(items), metric_labels={}) as span:
        features, images = _products(
            [signals[k] for k in hit],
            [bests[k] for k in hit],
            config.channel.accel_fs,
            config.size,
            config.feature_highpass_hz,
            batch_dtype(),
        )
    stats.product_s += span.duration_s

    rows: List[Tuple[int, Optional[str], Optional[np.ndarray], Optional[np.ndarray]]] = [
        (index, None, None, None) for index, _ in items
    ]
    for k, row_features, image in zip(hit, features, images):
        index, spec = items[k]
        rows[k] = (index, spec.emotion, row_features, image)
    return rows, stats


def _run_batch_chunk(config: _PassConfig, items: Sequence[Tuple[int, UtteranceSpec]]):
    """One chunk through the fast path, degrading to per-row isolation.

    If the stacked fast path raises — one poisoned utterance must not
    take down its batchmates — each row re-runs as a chunk of one; only
    the offending rows are dropped (counted under
    ``batch.rows_isolated``), and every healthy row keeps the exact
    product, dtype included, of a clean pass.
    """
    try:
        return _run_batch_chunk_fast(config, items)
    except Exception:
        metrics().count("batch.chunk_fallbacks")
    stats = CollectionStats()
    rows = []
    for item in items:
        try:
            (row,), row_stats = _run_batch_chunk_fast(config, [item])
        except Exception:
            metrics().count("batch.rows_isolated")
            rows.append((item[0], None, None, None))
            continue
        stats.add(row_stats)
        rows.append(row)
    return rows, stats


def _collect_batched(
    config: _PassConfig,
    specs: List[UtteranceSpec],
    n_jobs: int,
    executor: str,
) -> Tuple[List, CollectionStats]:
    """Fan stacked utterance chunks out over the chosen executor."""
    stats = CollectionStats(n_jobs=max(1, int(n_jobs)), executor=executor)
    indexed = list(enumerate(specs))
    chunk = DEFAULT_BATCH_CHUNK
    chunks = [indexed[i : i + chunk] for i in range(0, len(indexed), chunk)]
    ran_in_pool = executor == "process" and len(chunks) > 1 and n_jobs > 1
    if ran_in_pool:
        with ProcessPoolExecutor(
            max_workers=max(1, int(n_jobs)),
            initializer=_init_worker,
            initargs=(config,),
        ) as pool:
            outs = list(pool.map(_process_batch_entry, chunks, chunksize=1))
    else:
        def run_chunk(chunk_items):
            return _run_batch_chunk(config, chunk_items)

        outs = run_tasks(
            run_chunk,
            chunks,
            n_jobs=n_jobs,
            executor="serial" if executor == "process" else executor,
        )
    products = []
    for rows, chunk_stats in outs:
        stats.add(chunk_stats)
        for index, label, features, image in rows:
            if label is not None:
                products.append((index, label, features, image))
    if ran_in_pool:
        # Worker-process spans die with their workers; reconstruct the
        # stage timings as aggregate spans so the parent's trace and
        # registry still account for them (exactly once).
        tr = tracer()
        for field_name, span_name in _TIMER_FIELDS.items():
            if span_name == "collect":
                continue
            tr.record(
                span_name,
                getattr(stats, field_name),
                aggregated="worker-sum",
                n_jobs=stats.n_jobs,
            )
    return products, stats


def collect_per_utterance_products(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Optional[Sequence[UtteranceSpec]] = None,
    detector: Optional[RegionDetector] = None,
    seed: int = 0,
    size: int = 32,
    feature_highpass_hz: Optional[float] = None,
    n_jobs: int = 1,
    executor: Optional[str] = None,
) -> Tuple[List[Tuple[int, str, Optional[np.ndarray], Optional[np.ndarray]]], CollectionStats]:
    """Per-utterance collection products with spec provenance.

    Returns ``(products, stats)`` where each product is
    ``(spec_index, label, features|None, image|None)`` — the building
    block for consumers that need row→utterance alignment (e.g. the
    Spearphone speaker/gender baseline).
    """
    detector = detector or _default_detector(channel)
    specs = list(specs if specs is not None else corpus.specs)
    executor_name = _resolve_executor(n_jobs, executor)
    config = _PassConfig(
        corpus=corpus,
        channel=channel,
        detector=detector,
        seed=int(seed),
        size=int(size),
        feature_highpass_hz=feature_highpass_hz,
    )
    with trace(
        "collect",
        corpus=corpus.name,
        device=channel.device.name,
        placement=channel.placement.value,
        executor=executor_name,
        n_jobs=max(1, int(n_jobs)),
        api="products",
    ) as span:
        products, stats = _collect_batched(config, specs, n_jobs, executor_name)
        stats.n_played = len(specs)
        stats.total_s = span.elapsed()
        _publish(stats)
    return products, stats


def iter_region_samples(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Optional[Sequence[UtteranceSpec]] = None,
    detector: Optional[RegionDetector] = None,
    continuous: Optional[bool] = None,
    seed: int = 0,
):
    """Yield ``(label, region, trace)`` triples for every usable region.

    Serial generator over the engine's stacked chunks — the raw-material
    path for consumers that need region *samples* rather than finished
    features/images (e.g. data augmentation).
    """
    detector = detector or _default_detector(channel)
    if continuous is None:
        continuous = channel.placement is Placement.HANDHELD
    specs = list(specs if specs is not None else corpus.specs)

    if continuous:
        from repro.phone.recording import record_session

        session = record_session(corpus, channel, specs=specs, seed=seed)
        regions = detector.detect(session.trace, session.fs)
        for region, label in label_regions(regions, session.events):
            yield label, region, session.trace
        return

    config = _PassConfig(
        corpus=corpus,
        channel=channel,
        detector=detector,
        seed=int(seed),
        size=32,
        feature_highpass_hz=None,
    )
    indexed = list(enumerate(specs))
    for start in range(0, len(indexed), DEFAULT_BATCH_CHUNK):
        chunk = indexed[start : start + DEFAULT_BATCH_CHUNK]
        signals, bests, _stats = _detect_chunk(config, chunk)
        for (_, spec), signal, best in zip(chunk, signals, bests):
            if best is not None:
                yield spec.emotion, best, signal


# ---------------------------------------------------------------------------
# Continuous-session protocol
# ---------------------------------------------------------------------------


def _collect_continuous(
    config: _PassConfig,
    specs: List[UtteranceSpec],
    n_jobs: int,
    executor: str,
) -> Tuple[List, CollectionStats]:
    """One continuous recording session, labelled from the playback log.

    The transmit chain is inherently serial (the hand-motion process is
    continuous across the session), so parallelism is applied to the
    utterance rendering only; the session numerics are identical to a
    fully serial run.
    """
    from repro.phone.recording import record_session

    stats = CollectionStats(n_jobs=max(1, int(n_jobs)), executor=executor)

    # Pre-render in parallel; the session then looks waveforms up.
    render_executor = "serial" if executor == "process" else executor
    with trace("render", n=len(specs), metric_labels={}) as span:
        waves = run_tasks(
            config.corpus.render, specs, n_jobs=n_jobs, executor=render_executor
        )
    rendered: Dict[UtteranceSpec, np.ndarray] = dict(zip(specs, waves))
    stats.renders += len(specs)
    stats.render_s += span.duration_s

    with trace("transmit", continuous=True, metric_labels={}) as span:
        session = record_session(
            config.corpus,
            config.channel,
            specs=specs,
            seed=config.seed,
            renderer=rendered.__getitem__,
        )
    # record_session transmits a leading gap, then wave+gap per utterance.
    stats.transmits += 1 + 2 * len(specs)
    stats.transmit_s += span.duration_s

    session_trace = session.trace
    if config.defense is not None:
        # The whole recorded session passes through the OS boundary once;
        # the defended channel's rate already satisfies any cap, so the
        # stream rate is unchanged (see _PassConfig.defense).
        session_trace = config.defense.postprocess(session_trace, session.fs)

    with trace("detect", metric_labels={}) as span:
        regions = config.detector.detect(session_trace, session.fs)
    stats.detect_s += span.duration_s
    stats.regions_detected += len(regions)

    with trace("product", metric_labels={}) as span:
        # Product rows carry the matched playback *event* (not just its
        # emotion string) so a cached pass can be re-labelled for any
        # task — the event records speaker/utterance identity too.
        matched = list(match_regions(regions, session.events))
        features, images = _products(
            [session_trace] * len(matched),
            [region for region, _ in matched],
            session.fs,
            config.size,
            config.feature_highpass_hz,
            np.dtype(np.float64),
        )
        products = [
            (-1, event, row_features, image)
            for (_, event), row_features, image in zip(matched, features, images)
        ]
    stats.regions_used += len(products)
    stats.product_s += span.duration_s
    return products, stats


# ---------------------------------------------------------------------------
# Collection cache
# ---------------------------------------------------------------------------


def collection_key(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Sequence[UtteranceSpec],
    detector: RegionDetector,
    continuous: bool,
    seed: int,
    size: int = 32,
    feature_highpass_hz: Optional[float] = None,
    batch_dtype: Optional[str] = None,
    task: str = "emotion",
    defense=None,
) -> str:
    """Stable key for one collection pass.

    Readable prefix ``corpus-device-placement-rate-seed`` plus a digest
    over everything else that changes the numerics (spec list, device
    profile, detector configuration, sensor, environment, image size,
    feature-path filter, batch-policy compute dtype). Executor choice,
    worker count and chunk size are deliberately excluded: they do not
    change the result. ``batch_dtype=None`` normalises to ``"float64"``
    — the golden policy, byte-identical to the committed goldens, so
    keys minted before the batch policy existed stay valid; a float32
    hot-path pass keys separately.

    The label ``task`` only affects which labels are attached, never the
    physics, so the default emotion task keys exactly as before this
    parameter existed — warm emotion entries (in memory and on disk)
    stay valid. Non-emotion tasks key separately, fingerprinting
    ``(task, LABELING_VERSION)`` so a labeling-policy bump invalidates
    only re-labelled entries.

    A defended pass fingerprints the whole defense stack — class and
    every constructor parameter, *including noise seeds* — so defended
    runs that differ only in an injected-noise seed never share an
    entry. ``defense=None`` keys exactly as before this parameter
    existed.
    """
    import hashlib
    import re

    task_name = resolve_task(task)
    parts = [
        corpus.name,
        corpus.audio_fs,
        corpus.expressiveness,
        corpus.variability,
        tuple(
            (s.utterance_id, s.speaker_id, s.emotion, s.seed,
             s.mean_syllables, s.carrier)
            for s in specs
        ),
        repr(channel.device),
        channel.mode.value,
        channel.placement.value,
        channel.accel_fs,
        channel.sensor,
        repr(channel.environment),
        tuple(sorted((k, v) for k, v in vars(detector).items())),
        bool(continuous),
        int(seed),
        int(size),
        feature_highpass_hz,
        str(batch_dtype) if batch_dtype is not None else "float64",
    ]
    infix = ""
    if task_name != "emotion":
        parts.append((task_name, LABELING_VERSION))
        infix = f"{task_name}-"
    if defense is not None:
        parts.append(("defense", defense.fingerprint()))
        label = re.sub(r"[^A-Za-z0-9_.+-]", "_", getattr(defense, "name", "defended"))
        infix = f"{label[:48]}-{infix}"
    digest = hashlib.sha256(repr(tuple(parts)).encode()).hexdigest()[:16]
    rate = f"{channel.accel_fs:g}"
    return (
        f"{corpus.name}-{channel.device.name}-{channel.placement.value}"
        f"-{rate}hz-s{int(seed)}-{infix}{digest}"
    )


class CollectionCache:
    """Registry of finished collection passes.

    In-memory by default; pass ``cache_dir`` to also persist each pass as
    an ``.npz`` bundle (via :mod:`repro.eval.io`) that later processes —
    or later runs — can reload instead of re-collecting.

    Alongside finished (already-labelled) results the cache keeps a
    memory-only *products* layer keyed by the task-independent base key:
    the raw ``(index, record, features, image)`` rows of a physical
    pass. A request for the same corpus under a different label task is
    served by re-labelling those rows — zero extra collection cost.
    """

    def __init__(self, cache_dir=None):
        self._entries: Dict[str, CollectionResult] = {}
        self._products: Dict[str, Tuple[List, int]] = {}
        self._lock = threading.Lock()
        self.cache_dir = None
        if cache_dir is not None:
            from pathlib import Path

            self.cache_dir = Path(cache_dir)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries or self._disk_path(key) is not None

    def _disk_path(self, key: str):
        if self.cache_dir is None:
            return None
        path = self.cache_dir / f"{key}.npz"
        return path if path.exists() else None

    def lookup(self, key: str) -> Optional[CollectionResult]:
        """Return the cached pass for ``key``, or None."""
        with self._lock:
            result = self._entries.get(key)
        if result is not None:
            return result
        path = self._disk_path(key)
        if path is not None:
            from repro.eval.io import load_collection

            result = load_collection(path)
            with self._lock:
                self._entries[key] = result
            return result
        return None

    def store(self, key: str, result: CollectionResult) -> None:
        """Register a finished pass under ``key`` (and on disk if enabled)."""
        with self._lock:
            self._entries[key] = result
        if self.cache_dir is not None:
            from repro.eval.io import save_collection

            save_collection(result, self.cache_dir / f"{key}.npz")

    def store_products(self, base_key: str, products: List, n_played: int) -> None:
        """Keep a pass's raw product rows for later re-labelling.

        Memory-only by design: rows reference live record objects
        (specs indices / playback events) that the ``.npz`` bundle
        format does not carry.
        """
        with self._lock:
            self._products[base_key] = (list(products), int(n_played))

    def lookup_products(self, base_key: str) -> Optional[Tuple[List, int]]:
        """Raw ``(products, n_played)`` of a finished pass, or None."""
        with self._lock:
            return self._products.get(base_key)

    def clear(self) -> None:
        """Drop every in-memory entry (on-disk bundles are kept)."""
        with self._lock:
            self._entries.clear()
            self._products.clear()
        self.hits = 0
        self.misses = 0


#: The module-default cache shared by the suite, benchmarks and CLI.
DEFAULT_CACHE = CollectionCache()


def default_cache() -> CollectionCache:
    """The shared module-level collection cache."""
    return DEFAULT_CACHE


# ---------------------------------------------------------------------------
# The one-call collection API
# ---------------------------------------------------------------------------


def _default_detector(channel: VibrationChannel) -> RegionDetector:
    return RegionDetector.for_setting(channel.placement.value)


def _task_labelled_rows(
    products: Sequence[Tuple],
    specs: Sequence[UtteranceSpec],
    corpus: Corpus,
    task: str,
) -> List[Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]]:
    """Attach the task's label to each product row.

    Per-utterance rows carry ``index >= 0`` into ``specs`` and
    an emotion-string payload; continuous rows carry ``index == -1`` and
    the matched :class:`~repro.phone.recording.PlaybackEvent` as
    payload. Either record type exposes ``speaker_id``/``emotion``, so
    :meth:`Corpus.task_label` covers both.
    """
    labelled = []
    for index, payload, features, image in products:
        if task == "emotion":
            label = payload if isinstance(payload, str) else payload.emotion
        else:
            record = specs[index] if index >= 0 else payload
            label = corpus.task_label(record, task)
        labelled.append((label, features, image))
    return labelled


def _assemble_result(
    labelled: Sequence[Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]],
    fs: float,
    n_played: int,
    size: int,
    stats: CollectionStats,
) -> CollectionResult:
    """Build both datasets from labelled product rows."""
    rows = [(label, f) for label, f, _ in labelled if f is not None]
    X = np.vstack([f for _, f in rows]) if rows else np.empty((0, len(FEATURE_NAMES)))
    features = FeatureDataset(
        X=X,
        y=np.array([label for label, _ in rows]),
        fs=fs,
        n_played=n_played,
        stats=stats,
    )
    shots = [(label, img) for label, _, img in labelled if img is not None]
    stack = (
        np.stack([img for _, img in shots])[..., None]
        if shots
        else np.empty((0, size, size, 1))
    )
    spectrograms = SpectrogramDataset(
        images=stack,
        y=np.array([label for label, _ in shots]),
        fs=fs,
        n_played=n_played,
        stats=stats,
    )
    return CollectionResult(features=features, spectrograms=spectrograms, stats=stats)


def collect_datasets(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Optional[Sequence[UtteranceSpec]] = None,
    detector: Optional[RegionDetector] = None,
    continuous: Optional[bool] = None,
    seed: int = 0,
    size: int = 32,
    feature_highpass_hz: Optional[float] = None,
    n_jobs: int = 1,
    executor: Optional[str] = None,
    cache: Optional[CollectionCache] = None,
    task: str = "emotion",
    defense=None,
) -> CollectionResult:
    """Collect the feature *and* spectrogram datasets in one shared pass.

    Parameters
    ----------
    n_jobs:
        Worker count over the per-utterance protocol's chunks (and the
        rendering stage of the continuous protocol). Results are
        identical at any value.
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``; None picks serial
        for ``n_jobs <= 1`` and threads otherwise.
    cache:
        Optional :class:`CollectionCache`; a hit skips the pass entirely
        and returns the registered result object.
    task:
        Which label to attach to each collected region — one of
        :data:`repro.datasets.base.TASKS` (``emotion``, ``speaker-id``,
        ``gender``, ``content-id``). The physics of the pass is
        task-independent: with a ``cache``, a second task over the same
        corpus re-labels the cached product rows instead of re-running
        render→transmit→detect.
    defense:
        Optional :class:`repro.attack.defense.Defense` (or stack). Its
        ``apply`` reconfigures the channel before collection and its
        ``postprocess`` transforms every sensor trace before detection —
        the attacker only ever sees the defended stream. The defense
        fingerprint (parameters and seeds included) is folded into the
        cache key; relabel-from-cache still works across tasks *within*
        one defended configuration.
    """
    if defense is not None:
        channel = defense.apply(channel)
    detector = detector or _default_detector(channel)
    if continuous is None:
        continuous = channel.placement is Placement.HANDHELD
    specs = list(specs if specs is not None else corpus.specs)
    executor_name = _resolve_executor(n_jobs, executor)
    task_name = resolve_task(task)

    # Stacked chunks honour the batch policy; the continuous session's
    # products always compute in float64.
    active_dtype = np.dtype(np.float64) if continuous else batch_dtype()

    key = base_key = None
    if cache is not None:
        base_key = collection_key(
            corpus, channel, specs, detector, continuous, seed, size,
            feature_highpass_hz, batch_dtype=str(active_dtype),
            defense=defense,
        )
        key = base_key if task_name == "emotion" else collection_key(
            corpus, channel, specs, detector, continuous, seed, size,
            feature_highpass_hz, batch_dtype=str(active_dtype), task=task_name,
            defense=defense,
        )
        hit = cache.lookup(key)
        if hit is not None:
            cache.hits += 1
            _publish(CollectionStats(cache_hits=1))
            if hit.stats is not None:
                hit.stats.cache_hits += 1
            return hit
        # The task key missed, but a pass under another task may have
        # left its raw products behind: re-label instead of re-collect.
        cached_products = cache.lookup_products(base_key)
        if cached_products is not None:
            products, n_played = cached_products
            cache.hits += 1
            metrics().count("cache.relabel_hits")
            _publish(CollectionStats(cache_hits=1))
            stats = CollectionStats(n_played=n_played, cache_hits=1)
            result = _assemble_result(
                _task_labelled_rows(products, specs, corpus, task_name),
                channel.accel_fs,
                n_played,
                int(size),
                stats,
            )
            cache.store(key, result)
            return result
        cache.misses += 1

    config = _PassConfig(
        corpus=corpus,
        channel=channel,
        detector=detector,
        seed=int(seed),
        size=int(size),
        feature_highpass_hz=feature_highpass_hz,
        defense=defense,
    )
    with trace(
        "collect",
        corpus=corpus.name,
        device=channel.device.name,
        placement=channel.placement.value,
        executor=executor_name,
        n_jobs=max(1, int(n_jobs)),
        continuous=bool(continuous),
    ) as pass_span:
        collect = _collect_continuous if continuous else _collect_batched
        products, stats = collect(config, specs, n_jobs, executor_name)
        stats.n_played = len(specs)
        stats.cache_misses = 1 if cache is not None else 0
        stats.total_s = pass_span.elapsed()
        _publish(stats)

    result = _assemble_result(
        _task_labelled_rows(products, specs, corpus, task_name),
        channel.accel_fs,
        len(specs),
        int(size),
        stats,
    )
    if cache is not None and key is not None:
        cache.store_products(base_key, products, len(specs))
        cache.store(key, result)
    return result


def _rebuild_result(
    X: np.ndarray,
    y_features: np.ndarray,
    images: np.ndarray,
    y_images: np.ndarray,
    fs: float,
    n_played: int,
) -> CollectionResult:
    """Reassemble a CollectionResult from persisted arrays (see eval.io)."""
    stats = CollectionStats(n_played=n_played)
    features = FeatureDataset(
        X=X, y=y_features, fs=fs, n_played=n_played, stats=stats
    )
    spectrograms = SpectrogramDataset(
        images=images, y=y_images, fs=fs, n_played=n_played, stats=stats
    )
    return CollectionResult(features=features, spectrograms=spectrograms, stats=stats)
