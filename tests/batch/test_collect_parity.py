"""End-to-end parity: the stacked chunks vs a serial scalar reference.

Under the golden float64 batch policy, ``collect_datasets`` must return
datasets byte-identical to one-utterance-at-a-time collection through
the public scalar stages (:mod:`tests.batch.reference`), at any chunk
size and under any executor. This is the data plane's contract: the
batching is a pure reorganisation of the work, not a numerical variant.
"""

import numpy as np
import pytest

from repro.attack import engine
from repro.attack.engine import collect_datasets
from repro.attack.pipeline import EmoLeakAttack
from repro.batch import batch_policy_scope
from tests.batch.reference import reference_collect


def _bytes(result):
    return (
        result.features.X.tobytes(),
        result.features.y.tolist(),
        result.spectrograms.images.tobytes(),
        result.spectrograms.y.tolist(),
    )


@pytest.fixture(scope="module")
def reference(request):
    tiny_tess = request.getfixturevalue("tiny_tess")
    loud_channel = request.getfixturevalue("loud_channel")
    specs = tiny_tess.specs[:12]
    return specs, reference_collect(tiny_tess, loud_channel, specs=specs, seed=4)


class TestBatchedParity:
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_byte_identical_at_any_chunk_size(
        self, tiny_tess, loud_channel, reference, chunk, monkeypatch
    ):
        specs, ref = reference
        monkeypatch.setattr(engine, "DEFAULT_BATCH_CHUNK", chunk)
        got = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=4)
        assert _bytes(got) == _bytes(ref)

    @pytest.mark.parametrize(
        "executor,n_jobs", [("serial", 1), ("thread", 3), ("process", 2)]
    )
    def test_byte_identical_under_any_executor(
        self, tiny_tess, loud_channel, reference, executor, n_jobs, monkeypatch
    ):
        specs, ref = reference
        # Several chunks so the pool actually fans out.
        monkeypatch.setattr(engine, "DEFAULT_BATCH_CHUNK", 4)
        got = collect_datasets(
            tiny_tess,
            loud_channel,
            specs=specs,
            seed=4,
            executor=executor,
            n_jobs=n_jobs,
        )
        assert _bytes(got) == _bytes(ref)

    def test_default_pipeline_is_batched_and_identical(
        self, tiny_tess, loud_channel, reference
    ):
        specs, ref = reference
        got = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=4)
        assert _bytes(got) == _bytes(ref)

    def test_counters_match_reference(
        self, tiny_tess, loud_channel, reference, monkeypatch
    ):
        specs, ref = reference
        monkeypatch.setattr(engine, "DEFAULT_BATCH_CHUNK", 5)
        got = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=4)
        for field in ("renders", "transmits", "regions_detected", "regions_used",
                      "n_played"):
            assert getattr(got.stats, field) == getattr(ref.stats, field)

    def test_handheld_per_utterance_protocol(
        self, tiny_tess, ear_channel, monkeypatch
    ):
        # Handheld + continuous=False exercises the per-item channel
        # clones inside the batched transmit stage.
        specs = tiny_tess.specs[:6]
        ref = reference_collect(tiny_tess, ear_channel, specs=specs, seed=2)
        monkeypatch.setattr(engine, "DEFAULT_BATCH_CHUNK", 2)
        got = collect_datasets(
            tiny_tess, ear_channel, specs=specs, seed=2, continuous=False
        )
        assert _bytes(got) == _bytes(ref)

    def test_continuous_ignores_pipeline(self, tiny_tess, ear_channel, monkeypatch):
        """The continuous session ignores the chunk size and the batch policy."""
        specs = tiny_tess.specs[:4]
        ref = collect_datasets(tiny_tess, ear_channel, specs=specs, seed=2)
        monkeypatch.setattr(engine, "DEFAULT_BATCH_CHUNK", 1)
        with batch_policy_scope(compute_dtype="float32"):
            got = collect_datasets(tiny_tess, ear_channel, specs=specs, seed=2)
        assert got.features.X.dtype == np.float64
        assert _bytes(got) == _bytes(ref)


class TestAttackObjectPassThrough:
    def test_pipeline_knob_reaches_engine(
        self, tiny_tess, loud_channel, reference, monkeypatch
    ):
        """The attack object collects through the same chunked engine."""
        specs, ref = reference
        monkeypatch.setattr(engine, "DEFAULT_BATCH_CHUNK", 3)
        attack = EmoLeakAttack(loud_channel, seed=4)
        features = attack.collect_features(tiny_tess, specs=specs)
        assert features.X.tobytes() == ref.features.X.tobytes()
        both = attack.collect_datasets(tiny_tess, specs=specs)
        assert _bytes(both) == _bytes(ref)
