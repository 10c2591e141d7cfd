#!/usr/bin/env python3
"""Repository benchmark: paper-cell, collect-cold and serve-tcp workloads.

    python3 perfbench/run.py --workload paper-cell --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (``src/`` beside ``perfbench/``). With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric,
measured in a separate traced run that wraps the program's public
functions from outside (see ``layers.py``). Output checks run in both
modes; a failed check prints ``"correct": false`` and exits 1. A serving
run whose load generator fell behind its schedule is invalid: it prints
no result and exits 3. ``--out FILE`` also writes the full record with
the machine fingerprint, for ``compare.py``. See ``NOTES.md`` for why
each workload exists and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.pin_blas()

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

_LOADGEN = {
    f"loadgen.{phase}.{tenant}.{outcome}": "count"
    for phase, tenant in (("p1", "steady"), ("p1", "windows"), ("p2", "closed"))
    for outcome in ("sent", "ok", "shed_rate", "shed_backlog", "shed_other",
                    "error", "timeout", "lost")
}
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.threads": "count",
    "trace.overhead_s": "s",
    "unattributed_s": "s",
    "datasets.build_s": "s",
    "registry.load_s": "s",
    "speech.render_s": "s",
    "speech.utterances": "count",
    "phone.transmit_s": "s",
    "regions.detect_s": "s",
    "regions.found": "count",
    "regions.extraction_rate": "ratio",
    "features.extract_s": "s",
    "features.rows": "count",
    "specimages.render_s": "s",
    "engine.collect_self_s": "s",
    "engine.cache_misses": "count",
    "ml.fit_s": "s",
    "ml.predict_s": "s",
    "ml.acc_logistic": "ratio",
    **{
        f"nn.{layer}.{direction}_s": "s"
        for layer in ("Conv2D", "MaxPool2D", "Dropout", "Dense", "ReLU", "Conv1D",
                      "MaxPool1D", "BatchNorm")
        for direction in ("fwd", "bwd")
    },
    "nn.optim_s": "s",
    "nn.loss_s": "s",
    "nn.fit_self_s": "s",
    "nn.acc_cnn": "ratio",
    "nn.acc_cnn_spectrogram": "ratio",
    "bundle.predict_s": "s",
    "bundle.rows_per_call": "count",
    "protocol.decode_s": "s",
    "protocol.encode_s": "s",
    "protocol.frames": "count",
    "admission.admit_s": "s",
    "admission.shed": "count",
    "admission.wait_ms_p50": "ms",
    "server.batch_self_s": "s",
    "server.queue_wait_ms_p50": "ms",
    "server.batch_size_mean": "count",
    "obs.spans_retained": "count",
    "obs.spans_per_request": "count",
    "loadgen.steady_p95_ms": "ms",
    "loadgen.steady_p99_ms": "ms",
    "loadgen.late_ms_p99": "ms",
    "loadgen.late_ms_max": "ms",
    **_LOADGEN,
}

#: Whole-run limit for any one child process.
CHILD_TIMEOUT_S = 170.0


class InvalidRun(Exception):
    """The run cannot report its metrics (e.g. the generator fell behind)."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- child processes -------------------------------------------------------------
class Child:
    """A child process whose stdout is read on a thread, with a kill deadline."""

    def __init__(self, argv, *, watch: str = ""):
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=None,
            text=True,
            bufsize=1,
            cwd=str(common.ROOT),
            env={**common.child_env(), "PYTHONUNBUFFERED": "1"},
        )
        self.pid = self.proc.pid
        self.lines: list = []
        self.records: list = []
        self.ready = threading.Event()
        self.t_ready = None
        self._watch = watch
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._timer.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("@@"):
                record = json.loads(line[2:])
                self.records.append(record)
                if record.get("event") == "ready":
                    self._mark_ready()
                continue
            self.lines.append(line.rstrip("\n"))
            log(f"  [{Path(self.proc.args[1]).name}] {line.rstrip()}")
            if self._watch and self._watch in line:
                self._mark_ready()
        self.ready.set()

    def _mark_ready(self) -> None:
        if self.t_ready is None:
            self.t_ready = time.monotonic()
        self.ready.set()

    def wait(self) -> int:
        try:
            code = self.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            self._timer.cancel()
        self._reader.join(timeout=10)
        return code

    def stop(self) -> int:
        """SIGINT (the server drains), then wait; kill if it will not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._timer.cancel()
        self._reader.join(timeout=10)
        return code

    def record(self, event: str) -> dict:
        for record in self.records:
            if record.get("event") == event:
                return record
        raise RuntimeError(f"{self.proc.args[1]} sent no {event!r} record")


# -- pipeline workloads -------------------------------------------------------------
def run_worker(workload: str, seed: int, *extra: str) -> Child:
    child = Child([str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
                   *extra])
    code = child.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return child


def _model_rows(done: dict):
    for unit in done["units"]:
        for record in unit["passes"]:
            for model, res in record["models"].items():
                yield record["scenario"], model, res


def _pooled_accuracy(done: dict, model: str) -> float:
    """Test accuracy pooled over every test row of the run's units."""
    rows = [res for _, m, res in _model_rows(done) if m == model]
    n = sum(res["n_test"] for res in rows)
    return sum(res["accuracy"] * res["n_test"] for res in rows) / n if n else 0.0


def pipeline_checks(done: dict) -> list:
    """Array checks per pass, and each model's accuracy above chance.

    Logistic test accuracy is pooled over every scenario and unit of the
    run and compared with the pooled chance rate: one handheld SAVEE pass
    of a working pipeline scored 0.152 against a chance of 0.143, so a
    per-scenario floor would fail correct code. The CNNs are checked on
    their best training accuracy over the epochs (see
    ``common.ACCURACY_MARGIN``).
    """
    problems = [p for unit in done["units"] for record in unit["passes"]
                for p in record["problems"]]
    rows = [res for _, m, res in _model_rows(done) if m == "logistic"]
    n = sum(res["n_test"] for res in rows)
    floor = sum(res["n_test"] / res["n_classes"] for res in rows) / n + common.ACCURACY_MARGIN
    accuracy = _pooled_accuracy(done, "logistic")
    checks = [("logistic test", accuracy, floor)]
    for model in sorted({m for _, m, _ in _model_rows(done)} - {"logistic"}):
        rows = [res for _, m, res in _model_rows(done) if m == model]
        checks.append((f"{model} training",
                       statistics.mean(res["train_accuracy"] for res in rows),
                       1.0 / rows[0]["n_classes"] + common.TRAIN_ACCURACY_MARGIN))
    for name, accuracy, floor in checks:
        log(f"check: {name} accuracy {accuracy:.3f} (needs > {floor:.3f})")
        if not accuracy > floor:
            problems.append(f"{name} accuracy {accuracy:.3f} <= {floor:.3f}")
    return problems


def _pipeline_totals(done: dict) -> tuple:
    passes = [record for unit in done["units"] for record in unit["passes"]]
    utterances = sum(record["utterances"] for record in passes)
    regions = sum(record["regions_used"] for record in passes)
    operations = sum(1 + len(record["models"]) for record in passes)
    return utterances, regions, operations


def run_units(workload: str, seed: int, seconds: float) -> tuple:
    """One unit per fresh worker process until ``seconds`` have passed.

    A fresh process per unit spreads a run's samples over several
    processes, so neither one slow stretch of a shared box nor one
    process's luck sets the run's medians. Returns the set-up times, the
    units and each process's peak RSS.
    """
    setups, units, rss = [], [], []
    t_start = time.monotonic()
    while not units or time.monotonic() - t_start < seconds:
        child = run_worker(workload, seed, "--first", str(len(units)))
        setups.append(child.t_ready - child.t_spawn)
        done = child.record("done")
        units += done["units"]
        rss.append(done["vm_hwm_mb"])
    return setups, units, rss


def run_pipeline(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not traced:
        setups, units, rss = run_units(workload, seed, seconds)
        while len(setups) < common.MIN_SETUPS:
            probe = run_worker(workload, seed, "--setup-only")
            setups.append(probe.t_ready - probe.t_spawn)
        done = {"units": units}
        utterances, regions, operations = _pipeline_totals(done)
        walls = [unit["wall_s"] for unit in units]
        rates = [
            sum(record["utterances"] for record in unit["passes"]) / unit["wall_s"]
            for unit in units
        ]
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(rates),
            "latency_p50_ms": 1e3 * statistics.median(walls),
            "peak_rss_mb": max(rss),
        }
        log(f"units: {len(walls)}, utterances {utterances}, extraction rate "
            f"{regions / utterances:.3f}, setups {[round(s, 3) for s in setups]}")
        return {"metrics": metrics, "problems": pipeline_checks(done),
                "attempted": operations, "failed": 0}

    # Traced: the same units once untraced and once traced; the difference
    # in their time is the tracing overhead.
    _, plain_units, _ = run_units(workload, seed, seconds / 2)
    traced_done = run_worker(workload, seed, "--units", str(len(plain_units)),
                             "--trace").record("done")
    report = traced_done["layers"]
    utterances, regions, operations = _pipeline_totals(traced_done)
    import layers

    problems = pipeline_checks(traced_done) + layers.check_attribution(report, workload)
    extra = {
        "trace.overhead_s": traced_done["elapsed_s"] - sum(u["wall_s"] for u in plain_units),
        "regions.extraction_rate": regions / utterances,
        "ml.acc_logistic": _pooled_accuracy(traced_done, "logistic"),
        "nn.acc_cnn": _pooled_accuracy(traced_done, "cnn"),
        "nn.acc_cnn_spectrogram": _pooled_accuracy(traced_done, "cnn_spectrogram"),
        "obs.spans_retained": traced_done["spans_retained"],
        "obs.spans_per_request": traced_done["spans_retained"] / utterances,
    }
    return {"metrics": layer_metrics(report, extra), "report": report,
            "problems": problems, "attempted": operations, "failed": 0}


def layer_metrics(report: dict, extra: dict) -> dict:
    """Every per-layer metric, zero where the workload never reaches the layer."""
    self_s, counts, samples = report["self_s"], report["counts"], report["samples"]
    values = {name: 0.0 for name in PER_LAYER}
    values.update({k: v for k, v in self_s.items() if k in values})
    values.update({k: v for k, v in counts.items() if k in values})
    values["trace.wall_s"] = report["wall_s"]
    values["trace.threads"] = report["threads"]
    values["unattributed_s"] = report["unattributed_s"]
    values["engine.cache_misses"] = counts.get("engine.cache_misses", 0)
    if counts.get("bundle.calls"):
        values["bundle.rows_per_call"] = counts["bundle.rows"] / counts["bundle.calls"]
    if counts.get("server.batches"):
        values["server.batch_size_mean"] = (
            counts["server.batched_requests"] / counts["server.batches"]
        )
    for name, key in (("admission.wait_ms_p50", "admission.wait_ms"),
                      ("server.queue_wait_ms_p50", "server.queue_wait_ms")):
        if samples.get(key):
            values[name] = statistics.median(samples[key])
    values.update(extra)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics {sorted(unknown)}")
    return values


def print_layers(report: dict, overhead_s: float) -> None:
    wall, threads = report["wall_s"], max(1, report["threads"])
    log(f"traced wall {wall:.3f}s x {threads} thread(s); tracing overhead "
        f"{overhead_s:+.3f}s")
    for name, value in sorted(report["self_s"].items(), key=lambda kv: -kv[1]):
        log(f"  {name:<28} {value:9.4f}s  {100 * value / (wall * threads):5.1f}%")
    log(f"  {'unattributed':<28} {report['unattributed_s']:9.4f}s  "
        f"{100 * report['unattributed_s'] / (wall * threads):5.1f}%")


# -- serve-tcp ----------------------------------------------------------------------
def pack_bundle(seed: int, workdir: Path) -> Path:
    path = workdir / "bundle.zip"
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "bundle", "pack",
         "--scenario", common.SERVE_SCENARIO, "--cnn", "--fast",
         "--subsample", str(common.SERVE_SUBSAMPLE), "--seed", str(seed),
         "--out", str(path)],
        cwd=str(common.ROOT), env=common.child_env(), stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    for line in result.stdout.splitlines():
        log(f"  [pack] {line}")
    if result.returncode != 0:
        raise RuntimeError(f"bundle pack exited with {result.returncode}")
    return path


def request_rows(seed: int):
    """Feature rows, raw windows and labels from one collection pass."""
    import numpy as np

    from repro.attack.engine import iter_region_samples
    from repro.attack.features import extract_features
    from repro.attack.scenarios import get_scenario
    from repro.datasets import build_corpus

    scenario = get_scenario(common.SERVE_SCENARIO)
    corpus = build_corpus(scenario.dataset).subsample(
        per_class=common.SERVE_SUBSAMPLE, seed=seed + 1
    )
    channel = scenario.channel(seed=seed + 1)
    windows, labels = [], []
    for label, region, trace in iter_region_samples(corpus, channel, seed=seed + 1):
        window = np.array(region.slice(trace), dtype=float)
        if window.size >= 8:
            windows.append(window)
            labels.append(label)
    fs = float(channel.accel_fs)
    rows = [np.nan_to_num(extract_features(w, fs), nan=0.0) for w in windows]
    return rows, windows, labels, fs


def start_server(bundle: Path, probe_row, report: Path = None) -> tuple:
    """Spawn the server; returns (child, host, port, spawn-to-first-answer s)."""
    from repro.serve.frontend import FrontendClient

    argv = [str(HERE / "serve_launcher.py")]
    if report is not None:
        argv += ["--trace", str(report)]
    argv += ["--", "serve", "--bundle", str(bundle), "--listen", "127.0.0.1:0"]
    for spec in common.tenant_specs():
        argv += ["--tenant", spec]
    child = Child(argv, watch="listening :")
    if not child.ready.wait(CHILD_TIMEOUT_S) or child.proc.poll() is not None:
        child.stop()
        raise RuntimeError("server did not start listening")
    address = next(line for line in child.lines if "listening :" in line)
    host, port = address.split("listening :")[1].split()[0].rsplit(":", 1)
    with FrontendClient(host, int(port), tenant="probe") as client:
        reply = client.predict(probe_row)
    if reply.get("status") != "ok":
        child.stop()
        raise RuntimeError(f"first predict failed: {reply}")
    return child, host, int(port), time.monotonic() - child.t_spawn


def stop_server(child: Child) -> None:
    code = child.stop()
    if code != 0:
        raise RuntimeError(f"server exited with {code}")


def serve_checks(load: dict, bundle: Path, rows, windows, fs) -> list:
    """Exactly-once answers, the windows token budget, in-process agreement."""
    import numpy as np

    from repro.attack.features import extract_features
    from repro.serve.bundle import load_bundle

    opened, closed = load["open"], load["closed"]
    problems = opened["problems"] + closed["problems"]
    budget = common.WINDOWS_BURST + common.WINDOWS_CONTRACT_RPS * (
        opened["windows_span_s"] + 0.05) + 1
    windows_ok = opened["tenants"]["windows"]["ok"]
    log(f"check: windows ok {windows_ok} <= token budget {budget:.1f}")
    if windows_ok > budget:
        problems.append(f"windows got {windows_ok} ok answers; budget {budget:.1f}")
    model = load_bundle(bundle)
    worst = 0.0
    for tenant, samples in opened["samples"].items():
        if not samples:
            problems.append(f"no ok {tenant} answers to check")
            continue
        for role in {s["used"] for s in samples}:
            mine = [s for s in samples if s["used"] == role]
            if tenant == "steady":
                X = np.vstack([rows[s["row"]] for s in mine])
            else:
                X = np.vstack([
                    np.nan_to_num(extract_features(windows[s["row"]], fs), nan=0.0)
                    for s in mine
                ])
            proba = model.predict_proba_with(role, X)
            for s, expected in zip(mine, proba):
                label = str(model.labels[int(np.argmax(expected))])
                worst = max(worst, float(np.max(np.abs(np.asarray(s["proba"]) - expected))))
                if label != s["label"]:
                    problems.append(f"{tenant} row {s['row']}: served {s['label']}, "
                                    f"in-process {label}")
    log(f"check: served vs in-process probabilities differ by at most {worst:.2e} "
        f"(tolerance {common.PROBA_TOLERANCE:g})")
    if worst > common.PROBA_TOLERANCE:
        problems.append(f"served probabilities differ by {worst:.2e}")
    return problems


def loadgen_metrics(load: dict) -> dict:
    values = {}
    for phase, key in (("p1", "open"), ("p2", "closed")):
        for tenant, counts in load[key]["tenants"].items():
            for outcome, n in counts.items():
                values[f"loadgen.{phase}.{tenant}.{outcome}"] = n
    answered = [x for x in load["open"]["steady_latency_ms"] if x != float("inf")]
    values["loadgen.steady_p95_ms"] = common.percentile(answered, 95)
    values["loadgen.steady_p99_ms"] = common.percentile(answered, 99)
    late = load["open"]["late_ms"]
    values["loadgen.late_ms_p99"] = common.percentile(late, 99)
    values["loadgen.late_ms_max"] = max(late)
    return values


def serve_failures(load: dict) -> tuple:
    """(attempted, failed): sheds of windows above its contract are expected."""
    attempted = failed = 0
    for key in ("open", "closed"):
        for tenant, counts in load[key]["tenants"].items():
            attempted += counts["sent"]
            failed += counts["error"] + counts["timeout"] + counts["lost"]
            if tenant != "windows":
                failed += counts["shed_rate"] + counts["shed_backlog"] + counts["shed_other"]
    return attempted, failed


def describe_load(load: dict) -> None:
    for key in ("open", "closed"):
        for tenant, counts in load[key]["tenants"].items():
            log(f"loadgen {key:<6} {tenant:<8} " +
                " ".join(f"{k}={v}" for k, v in counts.items()))
    late = load["open"]["late_ms"]
    log(f"loadgen open-loop lateness: p99 {common.percentile(late, 99):.2f} ms, "
        f"max {max(late):.2f} ms over {len(late)} sends")


def served_accuracy(load: dict, labels) -> float:
    samples = load["open"]["samples"]["steady"]
    return sum(s["label"] == labels[s["row"]] for s in samples) / max(1, len(samples))


def run_serve(seed: int, seconds: float, traced: bool) -> dict:
    import loadgen

    common.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=common.WORK))
    try:
        bundle = pack_bundle(seed, workdir)
        rows, windows, labels, fs = request_rows(seed)
        log(f"requests: {len(rows)} rows / windows at {fs:g} Hz")
        if not traced:
            setups = []
            for probe in range(common.MIN_SETUPS):
                child, host, port, setup = start_server(bundle, rows[0])
                setups.append(setup)
                if probe < common.MIN_SETUPS - 1:
                    stop_server(child)
            try:
                load = loadgen.run_phases(host, port, rows, windows, fs, seed, seconds)
                rss = common.vm_hwm_mb(child.pid)
            finally:
                stop_server(child)
            describe_load(load)
            late_p99 = common.percentile(load["open"]["late_ms"], 99)
            if late_p99 > common.LATE_P99_LIMIT_MS:
                raise InvalidRun(f"open-loop generator ran {late_p99:.1f} ms late at p99 "
                                 f"(limit {common.LATE_P99_LIMIT_MS} ms)")
            steady = load["open"]["steady_latency_ms"]
            log("steady latency ms: " + ", ".join(
                f"p{q:g} {common.percentile(steady, q):.2f}" for q in (50, 90, 95, 99, 99.9)
            ) + f" over {len(steady)} requests")
            p50 = common.percentile(steady, 50)
            if p50 == float("inf"):
                raise InvalidRun("over half of the steady requests failed")
            log(f"served accuracy on checked steady rows: {served_accuracy(load, labels):.3f}; "
                f"setups {[round(s, 3) for s in setups]}")
            metrics = {
                "setup_s": statistics.median(setups),
                "throughput_per_s": load["closed"]["throughput_rps"],
                "latency_p50_ms": p50,
                "peak_rss_mb": rss,
            }
            problems = serve_checks(load, bundle, rows, windows, fs)
            attempted, failed = serve_failures(load)
            return {"metrics": metrics, "problems": problems,
                    "attempted": attempted, "failed": failed}

        # Traced: the same load against an untraced and a traced server.
        half = seconds / 2
        child, host, port, _ = start_server(bundle, rows[0])
        try:
            plain = loadgen.run_phases(host, port, rows, windows, fs, seed, half)
        finally:
            stop_server(child)
        report_path = workdir / "layers.json"
        child, host, port, _ = start_server(bundle, rows[0], report=report_path)
        try:
            load = loadgen.run_phases(host, port, rows, windows, fs, seed, half)
        finally:
            stop_server(child)
        describe_load(load)
        report = json.loads(report_path.read_text())
        import layers

        n_plain = plain["closed"]["tenants"]["closed"]["ok"]
        overhead = n_plain * (1.0 / load["closed"]["throughput_rps"]
                              - 1.0 / plain["closed"]["throughput_rps"])
        requests = sum(c["sent"] for k in ("open", "closed")
                       for c in load[k]["tenants"].values())
        extra = {
            "trace.overhead_s": overhead,
            "obs.spans_retained": report["spans_retained"],
            "obs.spans_per_request": report["spans_retained"] / requests,
            **loadgen_metrics(load),
        }
        problems = serve_checks(load, bundle, rows, windows, fs)
        problems += layers.check_attribution(report, "serve-tcp")
        attempted, failed = serve_failures(load)
        return {"metrics": layer_metrics(report, extra), "report": report,
                "problems": problems, "attempted": attempted, "failed": failed}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- entry point --------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the full record (with fingerprint) here")
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        log(f"no program to benchmark: {common.SRC / 'repro'} is missing; "
            f"run from the root of a full checkout")
        return 2
    sys.path.insert(0, str(common.SRC))
    fingerprint = common.fingerprint()
    log(f"fingerprint: {json.dumps(fingerprint)}")
    traced = bool(args.trace)
    try:
        if args.workload == "serve-tcp":
            result = run_serve(args.seed, args.seconds, traced)
        else:
            result = run_pipeline(args.workload, args.seed, args.seconds, traced)
    except InvalidRun as exc:
        log(f"INVALID RUN: {exc}")
        return 3
    if traced:
        print_layers(result["report"], result["metrics"]["trace.overhead_s"])
    units = PER_LAYER if traced else END_TO_END
    for problem in result["problems"]:
        log(f"CHECK FAILED: {problem}")
    correct = not result["problems"]
    for name, value in result["metrics"].items():
        print(f"{name:<32} {value:>14.6g} {units[name]}")
    line = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "fingerprint": fingerprint, "result": line,
        }, indent=1))
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
