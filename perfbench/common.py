"""Shared constants and helpers of the repository benchmark.

Every number that shapes a workload lives here, so the orchestrator
(``run.py``), the pipeline worker (``worker.py``), the server launcher
(``serve_launcher.py``) and the load generator (``loadgen.py``) agree on
one definition. The serving rates and outstanding counts are fixed
numbers (also written into ``BENCHMARK.json``); nothing here is derived
from a measurement of the code under test.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Checkout root: the directory holding ``BENCHMARK.json`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for bundles and layer reports; listed in ``.gitignore``.
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("paper-cell", "collect-cold", "serve-tcp")

#: BLAS threads per workload process. One thread keeps the CNN GEMMs from
#: oversubscribing a shared box (the serving workload runs a client and a
#: server process side by side) and is at most ``nproc`` everywhere.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: A run times at least this many set-ups (one per process it starts);
#: ``setup_s`` is their median.
MIN_SETUPS = 3

# -- paper-cell: one Table V cell (TESS loudspeaker, OnePlus 7T) -------------
PAPER_SCENARIO = "tess-loud-oneplus7t"
PAPER_SUBSAMPLE = 8
PAPER_MODELS = ("logistic", "cnn", "cnn_spectrogram")

# -- collect-cold: cold collection of a table-top and a handheld scenario ----
COLLECT_SCENARIOS = (
    ("cremad-loud-galaxys10", 40),  # batched pipeline, many speakers
    ("savee-ear-oneplus9", 40),  # handheld ear speaker, scalar stages
)

#: Logistic test accuracy, pooled over a run's scenarios and units, must
#: beat the pooled chance rate (1 / classes) by this much. A CNN cell has
#: 14 test rows, too few for a working CNN to stay clear of chance on
#: every seed, so the CNNs are checked on their best training accuracy over
#: the epochs, which stays near chance when the forward or backward pass
#: is broken.
ACCURACY_MARGIN = 0.05
TRAIN_ACCURACY_MARGIN = 0.20

# -- serve-tcp -----------------------------------------------------------------
SERVE_SCENARIO = PAPER_SCENARIO
SERVE_SUBSAMPLE = 12
STEADY_RPS = 150.0  # JSON feature vectors, within contract
WINDOWS_RPS = 50.0  # binary raw windows, about twice the contract
WINDOWS_CONTRACT_RPS = 25.0
WINDOWS_BURST = 10.0
STEADY_CONTRACT_RPS = 1000.0
STEADY_BURST = 200.0
CLOSED_CONNECTIONS = 2
CLOSED_OUTSTANDING = 16
#: Share of the measured seconds given to the open-loop phase.
OPEN_LOOP_SHARE = 0.7
#: The open-loop generator is healthy while its 99th-percentile lateness
#: stays under this; a run that fell further behind is invalid.
LATE_P99_LIMIT_MS = 25.0
#: Rows per tenant whose served answers are re-predicted in process.
CHECK_ROWS = 48
#: Served probabilities must equal the in-process ones within this.
PROBA_TOLERANCE = 1e-9
#: Seconds to wait for outstanding answers after a phase ends.
DRAIN_S = 10.0
#: Phase-2 throughput is the median of its per-slice answer rates.
THROUGHPUT_SLICE_S = 1.0


def tenant_specs() -> List[str]:
    """``--tenant`` arguments of the served front-end."""
    return [
        f"steady:{STEADY_CONTRACT_RPS:g}:{STEADY_BURST:g}",
        f"windows:{WINDOWS_CONTRACT_RPS:g}:{WINDOWS_BURST:g}",
        "closed:inf:1000",
    ]


def child_env() -> Dict[str, str]:
    """Environment for workload processes: ``src`` importable, BLAS pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_blas() -> None:
    """Pin BLAS threads for this process; call before importing numpy."""
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def fingerprint() -> Dict[str, object]:
    """What a result depends on besides the code: machine and toolchain."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries sort last."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def emit(record: dict) -> None:
    """One JSON record on its own stdout line (worker -> orchestrator)."""
    sys.stdout.write("@@" + json.dumps(record) + "\n")
    sys.stdout.flush()

