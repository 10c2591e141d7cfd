"""Tests for the parallel collection engine (repro.attack.engine)."""

import numpy as np
import pytest

from repro.attack.engine import (
    DEFAULT_BATCH_CHUNK,
    CollectionCache,
    CollectionStats,
    collect_datasets,
    collection_key,
    global_stats,
    iter_region_samples,
    reset_global_stats,
    run_tasks,
)
from repro.attack.pipeline import (
    collect_feature_dataset,
    collect_spectrogram_dataset,
)
from repro.attack.regions import RegionDetector
from repro.datasets.base import Corpus
from repro.eval.io import load_collection, save_collection
from repro.eval.suite import run_table


def _subset(corpus, n):
    return corpus.specs[:n]


class TestExecutors:
    def test_run_tasks_serial_thread_equal(self):
        items = list(range(20))

        def fn(i):
            return i * i

        assert run_tasks(fn, items, 1, "serial") == run_tasks(fn, items, 4, "thread")

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_matches_serial(self, tiny_tess, loud_channel, executor):
        specs = _subset(tiny_tess, 8)
        serial = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=3)
        para = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=3,
            n_jobs=2, executor=executor,
        )
        assert np.array_equal(serial.features.X, para.features.X)
        assert np.array_equal(serial.features.y, para.features.y)
        assert np.array_equal(serial.spectrograms.images, para.spectrograms.images)
        assert np.array_equal(serial.spectrograms.y, para.spectrograms.y)

    def test_continuous_thread_matches_serial(self, tiny_tess, ear_channel):
        specs = _subset(tiny_tess, 6)
        serial = collect_datasets(tiny_tess, ear_channel, specs=specs, seed=2)
        para = collect_datasets(
            tiny_tess, ear_channel, specs=specs, seed=2, n_jobs=2, executor="thread"
        )
        assert np.array_equal(serial.features.X, para.features.X)
        assert np.array_equal(serial.spectrograms.images, para.spectrograms.images)

    def test_continuous_multi_chunk_thread_matches_serial(self, tiny_tess, ear_channel):
        """Rendering over several ``render_batch`` chunks on two threads
        gives byte-identical products to the serial pass."""
        specs = _subset(tiny_tess, DEFAULT_BATCH_CHUNK + 9)
        serial = collect_datasets(tiny_tess, ear_channel, specs=specs, seed=4)
        para = collect_datasets(
            tiny_tess, ear_channel, specs=specs, seed=4, n_jobs=2, executor="thread"
        )
        assert serial.features.X.shape[0] > 0
        assert serial.features.X.tobytes() == para.features.X.tobytes()
        assert serial.spectrograms.images.tobytes() == para.spectrograms.images.tobytes()
        assert np.array_equal(serial.features.y, para.features.y)
        assert np.array_equal(serial.spectrograms.y, para.spectrograms.y)
        assert serial.stats.renders == para.stats.renders == len(specs)

    def test_continuous_uses_render_override(self, tiny_tess, ear_channel):
        """A subclass overriding only ``render`` still renders the session."""
        calls = []

        class LouderCorpus(Corpus):
            def render(self, spec):
                calls.append(spec.utterance_id)
                return 2.0 * super().render(spec)

        louder = LouderCorpus(
            name=tiny_tess.name,
            emotions=tiny_tess.emotions,
            speakers=dict(tiny_tess.speakers),
            specs=list(tiny_tess.specs),
            audio_fs=tiny_tess.audio_fs,
        )
        specs = _subset(tiny_tess, 6)
        base = collect_datasets(tiny_tess, ear_channel, specs=specs, seed=2)
        loud = collect_datasets(louder, ear_channel, specs=specs, seed=2)
        assert sorted(calls) == sorted(spec.utterance_id for spec in specs)
        assert loud.features.X.tobytes() != base.features.X.tobytes()

    def test_unknown_executor_rejected(self, tiny_tess, loud_channel):
        with pytest.raises(ValueError):
            collect_datasets(
                tiny_tess, loud_channel, specs=_subset(tiny_tess, 2),
                n_jobs=2, executor="rayon",
            )


class TestSharedPass:
    def test_matches_independent_collectors(self, tiny_tess, loud_channel):
        specs = _subset(tiny_tess, 8)
        shared = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=7)
        features = collect_feature_dataset(
            tiny_tess, loud_channel, specs=specs, seed=7
        )
        spectrograms = collect_spectrogram_dataset(
            tiny_tess, loud_channel, specs=specs, seed=7
        )
        assert np.array_equal(shared.features.X, features.X)
        assert np.array_equal(shared.features.y, features.y)
        assert np.array_equal(shared.spectrograms.images, spectrograms.images)
        assert np.array_equal(shared.spectrograms.y, spectrograms.y)

    def test_stats_attached(self, tiny_tess, loud_channel):
        specs = _subset(tiny_tess, 5)
        result = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=1)
        assert result.stats is not None
        assert result.stats.transmits == 5
        assert result.stats.renders == 5
        assert result.stats.total_s > 0
        assert result.features.stats is result.stats
        assert "transmits=5" in result.stats.summary()

    def test_iter_region_samples_labels(self, tiny_tess, loud_channel):
        specs = _subset(tiny_tess, 5)
        rows = list(
            iter_region_samples(
                tiny_tess, loud_channel, specs,
                RegionDetector.for_setting("table_top"), False, 1,
            )
        )
        assert 0 < len(rows) <= 5
        assert all(label in set(tiny_tess.emotions) for label, _, _ in rows)


class TestCache:
    def test_hit_returns_same_object(self, tiny_tess, loud_channel):
        cache = CollectionCache()
        specs = _subset(tiny_tess, 6)
        first = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=4, cache=cache
        )
        second = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=4, cache=cache
        )
        assert second is first
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_key_separates_seeds_and_devices(self, tiny_tess, loud_channel):
        specs = _subset(tiny_tess, 4)
        detector = RegionDetector.for_setting("table_top")
        k0 = collection_key(tiny_tess, loud_channel, specs, detector, False, 0)
        k1 = collection_key(tiny_tess, loud_channel, specs, detector, False, 1)
        assert k0 != k1
        assert "oneplus7t" in k0 and "-s0-" in k0

    def test_disk_roundtrip(self, tiny_tess, loud_channel, tmp_path):
        specs = _subset(tiny_tess, 5)
        warm = CollectionCache(cache_dir=tmp_path)
        first = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=9, cache=warm
        )
        assert len(list(tmp_path.glob("*.npz"))) == 1
        # A fresh cache in a "new process" reloads the pass from disk.
        cold = CollectionCache(cache_dir=tmp_path)
        second = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=9, cache=cold
        )
        assert cold.hits == 1 and cold.misses == 0
        assert np.array_equal(first.features.X, second.features.X)
        assert np.array_equal(first.spectrograms.images, second.spectrograms.images)

    def test_save_load_collection(self, tiny_tess, loud_channel, tmp_path):
        result = collect_datasets(
            tiny_tess, loud_channel, specs=_subset(tiny_tess, 5), seed=6
        )
        path = tmp_path / "pass.npz"
        save_collection(result, path)
        loaded = load_collection(path)
        assert np.array_equal(result.features.X, loaded.features.X)
        assert np.array_equal(result.features.y, loaded.features.y)
        assert np.array_equal(result.spectrograms.images, loaded.spectrograms.images)
        assert loaded.features.n_played == result.features.n_played
        assert loaded.features.fs == result.features.fs


class TestStats:
    def test_add_and_summary(self):
        a = CollectionStats(transmits=3, renders=3, total_s=1.0)
        b = CollectionStats(transmits=2, renders=2, cache_hits=1)
        a.add(b)
        assert a.transmits == 5 and a.cache_hits == 1

    def test_one_pass_per_scenario(self):
        """run_table re-collects once per scenario, not once per classifier."""
        reset_global_stats()
        suite = run_table(
            "IV",
            subsample=3,
            classifiers=("logistic", "cnn_spectrogram"),
            fast=True,
            cache=CollectionCache(),
        )
        assert len(suite.cells) == 2
        stats = global_stats()
        # Table IV has one scenario (CREMA-D, 6 emotions); both classifier
        # rows must share one 18-utterance pass (3 per class x 6 emotions).
        # The two-phase run_table collects the scenario exactly once up
        # front and hands the bundle to every cell, so the second row no
        # longer needs even a cache hit.
        assert stats.transmits == 18
        assert stats.cache_hits == 0
        assert stats.cache_misses == 1
