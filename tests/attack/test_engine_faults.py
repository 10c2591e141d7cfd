"""Fault injection: stage timing must survive mid-pass exceptions.

PR 1's inline ``perf_counter()`` arithmetic lost every stage timing of a
pass that died mid-stage: the per-item stats object went down with the
exception and ``_publish`` never ran. Spans record on their exception
path directly into the metrics registry, so a failing pass still
accounts for the time it burned — these tests patch the detector to
raise and assert the books still balance.

The failing passes run the continuous (handheld session) protocol: it
has no row isolation, so a detector error propagates out of
``collect_datasets``. Table-top chunks isolate failing rows instead
(see ``tests/batch/test_faults.py``).
"""

import numpy as np
import pytest

from repro.attack.engine import collect_datasets, global_stats
from repro.attack.regions import RegionDetector
from repro.obs import metrics, reset_observability, tracer


class ExplodingDetector:
    """Detector that raises after a configurable number of calls."""

    def __init__(self, fail_at: int = 0):
        self.calls = 0
        self.fail_at = fail_at

    def detect(self, signal, fs):
        self.calls += 1
        if self.calls > self.fail_at:
            raise RuntimeError("sensor fell off the table")
        return RegionDetector.for_setting("table_top").detect(signal, fs)


def _collect_session(corpus, channel, n_specs, detector):
    """One continuous-session pass over the first ``n_specs`` utterances."""
    return collect_datasets(
        corpus, channel, specs=corpus.specs[:n_specs], detector=detector, seed=1
    )


class TestExceptionAccounting:
    def test_stage_time_recorded_when_detector_raises(self, tiny_tess, ear_channel):
        reset_observability()
        with pytest.raises(RuntimeError, match="sensor fell off"):
            _collect_session(tiny_tess, ear_channel, 3, ExplodingDetector(fail_at=0))
        reg = metrics()
        # The render and transmit that *completed* before the failure are
        # accounted, even though the pass never published its stats.
        assert reg.timer_total("render").count == 1
        assert reg.timer_total("render").total_s > 0
        assert reg.timer_total("transmit").count == 1
        # The failing detect stage recorded its own elapsed time, tagged.
        assert reg.timer("detect", status="error").count == 1
        stats = global_stats()
        assert stats.render_s > 0
        assert stats.detect_s >= 0

    def test_spans_carry_error_status(self, tiny_tess, ear_channel):
        reset_observability()
        with pytest.raises(RuntimeError):
            _collect_session(tiny_tess, ear_channel, 3, ExplodingDetector(fail_at=0))
        (detect,) = tracer().find("detect")
        assert detect.status == "error"
        assert "RuntimeError" in detect.error
        (collect,) = tracer().find("collect")
        assert collect.status == "error"  # the failure propagates up the tree
        # The completed stages under the pass stayed "ok".
        (render,) = tracer().find("render")
        assert render.status == "ok"

    def test_partial_pass_accounts_every_completed_item(
        self, tiny_tess, ear_channel
    ):
        """Failing on pass 3 keeps passes 1-2 fully accounted."""
        reset_observability()
        detector = ExplodingDetector(fail_at=2)
        for _ in range(2):
            _collect_session(tiny_tess, ear_channel, 2, detector)
        with pytest.raises(RuntimeError):
            _collect_session(tiny_tess, ear_channel, 2, detector)
        reg = metrics()
        assert reg.timer_total("render").count == 3
        assert reg.timer_total("detect").count == 3
        assert reg.timer("detect", status="ok").count == 2
        assert reg.timer("detect", status="error").count == 1

    def test_counters_unpublished_on_failure(self, tiny_tess, ear_channel):
        """_publish never runs for a failed pass: counters stay zero while
        timers (spans) are still accounted — the exact asymmetry the
        global view is documented to have."""
        reset_observability()
        with pytest.raises(RuntimeError):
            _collect_session(tiny_tess, ear_channel, 3, ExplodingDetector(fail_at=0))
        stats = global_stats()
        assert stats.transmits == 0  # counter path needs a finished pass
        assert stats.transmit_s > 0  # timer path survived the exception

    def test_healthy_run_unaffected_by_prior_failure(
        self, tiny_tess, ear_channel, loud_channel
    ):
        reset_observability()
        with pytest.raises(RuntimeError):
            _collect_session(tiny_tess, ear_channel, 3, ExplodingDetector(fail_at=0))
        result = collect_datasets(
            tiny_tess, loud_channel, specs=tiny_tess.specs[:5], seed=1
        )
        assert result.features.X.shape[1] == 24
        assert np.all(np.isfinite(result.features.X))
        assert global_stats().transmits == 5
