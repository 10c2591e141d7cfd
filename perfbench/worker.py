"""Pipeline workloads (paper-cell, collect-cold) in a process of their own.

Started by ``run.py``; talks back through ``@@``-prefixed JSON lines on
stdout. The ``ready`` record marks the end of set-up (imports and the
corpus build), which the orchestrator times from process spawn. Unit
``k`` of a workload gets its own seed derived from the workload seed, so
the same seed replays the same units in any process.

    python perfbench/worker.py --workload paper-cell --seed 1 --first 0 --units 1
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.pin_blas()


def unit_seed(seed: int, k: int) -> int:
    return int(seed) * 1000 + k


def _check_arrays(bundle, scenario: str) -> list:
    import numpy as np

    problems = []
    features, images = bundle.features, bundle.spectrograms
    if features.X.shape[0] == 0 or not np.all(np.isfinite(features.X)):
        problems.append(f"{scenario}: feature matrix empty or not finite")
    if images.images.shape[0] == 0 or not np.all(np.isfinite(images.images)):
        problems.append(f"{scenario}: spectrogram images empty or not finite")
    if not features.extraction_rate > 0:
        problems.append(f"{scenario}: zero extraction rate")
    return problems


def _pass(scenario: str, subsample: int, seed: int, models) -> dict:
    """Cold collection of one scenario, then train and evaluate ``models``."""
    from repro.attack.engine import CollectionCache
    from repro.eval.experiment import collect_scenario_datasets, run_bundle_experiment

    bundle = collect_scenario_datasets(
        scenario, subsample=subsample, seed=seed, cache=CollectionCache()
    )
    record = {
        "scenario": scenario,
        "utterances": int(bundle.features.n_played),
        "regions_used": int(bundle.features.X.shape[0]),
        "problems": _check_arrays(bundle, scenario),
        "models": {},
    }
    for model in models:
        result = run_bundle_experiment(bundle, model, seed=seed, fast=True)
        record["models"][model] = {
            "accuracy": float(result.accuracy),
            "n_test": int(result.n_test),
            "n_classes": int(result.n_classes),
            "train_accuracy": (
                max(result.history.accuracy) if result.history is not None else None
            ),
        }
    return record


def run_unit(workload: str, seed: int) -> list:
    if workload == "paper-cell":
        return [_pass(common.PAPER_SCENARIO, common.PAPER_SUBSAMPLE, seed,
                      common.PAPER_MODELS)]
    return [
        _pass(scenario, subsample, seed, ("logistic",))
        for scenario, subsample in common.COLLECT_SCENARIOS
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper-cell", "collect-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, default=0, help="index of the first unit")
    parser.add_argument("--units", type=int, default=1, help="units to run")
    parser.add_argument("--trace", action="store_true",
                        help="wrap the layer entry points and report self times")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set-up is done")
    args = parser.parse_args(argv)

    import repro.attack.engine  # noqa: F401 - set-up: imports
    import repro.eval.experiment  # noqa: F401

    clock = None
    if args.trace:
        import layers

        clock = layers.install()
    from repro.attack.scenarios import get_scenario
    from repro.datasets import build_corpus

    scenarios = (
        [common.PAPER_SCENARIO] if args.workload == "paper-cell"
        else [name for name, _ in common.COLLECT_SCENARIOS]
    )
    for name in scenarios:
        build_corpus(get_scenario(name).dataset)
    common.emit({"event": "ready"})
    if args.setup_only:
        return 0

    units = []
    t_start = time.perf_counter()
    for k in range(args.first, args.first + args.units):
        t_unit = time.perf_counter()
        passes = run_unit(args.workload, unit_seed(args.seed, k))
        units.append({"wall_s": time.perf_counter() - t_unit, "passes": passes})
    elapsed = time.perf_counter() - t_start

    from repro.obs import tracer

    record = {
        "event": "done",
        "elapsed_s": elapsed,
        "units": units,
        "vm_hwm_mb": common.vm_hwm_mb(),
        "spans_retained": sum(1 for _ in tracer().spans()),
    }
    if clock is not None:
        clock.stop()
        record["layers"] = clock.report()
    common.emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
