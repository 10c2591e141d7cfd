"""Load generator of the serve-tcp workload: one asyncio client process.

Phase 1 is an open loop: Poisson arrivals at fixed absolute rates for the
``steady`` tenant (JSON feature vectors, within its contract) and the
``windows`` tenant (binary raw accelerometer windows at about twice its
token-bucket contract). Every request is timed from its scheduled send
time, so a stalled server also delays the requests queued behind the
stall. Phase 2 is a closed loop: each of two connections keeps a fixed
number of requests outstanding, which gives the served throughput.

All rates and counts come from :mod:`common`; none is calibrated.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from collections import Counter
from typing import Dict, List, Sequence

import numpy as np

import common
from repro.serve.frontend import AsyncFrontendClient

OUTCOMES = ("sent", "ok", "shed_rate", "shed_backlog", "shed_other", "error",
            "timeout", "lost")


class CountingClient(AsyncFrontendClient):
    """Counts the answers to every request id, so a duplicate is caught."""

    def __init__(self, host: str, port: int, tenant: str):
        super().__init__(host, port, tenant=tenant)
        self.answers: Counter = Counter()

    def _route(self, message):
        if message.get("id") is not None:
            self.answers[message["id"]] += 1
        super()._route(message)


def outcome(reply) -> str:
    """Accounting bucket of one reply (``None``: never answered)."""
    if reply is None:
        return "lost"
    status = reply.get("status")
    if status == "ok":
        return "ok"
    if status == "shed":
        reason = reply.get("reason")
        return f"shed_{reason}" if reason in ("rate", "backlog") else "shed_other"
    if status == "timeout":
        return "timeout"
    return "error"


def poisson_schedule(rng, rate: float, duration: float) -> List[float]:
    times, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            return times
        times.append(t)


class _Tracked:
    __slots__ = ("tenant", "row", "due", "sent", "done", "reply")

    def __init__(self, tenant, row, due, sent):
        self.tenant, self.row, self.due, self.sent = tenant, row, due, sent
        self.done = None
        self.reply = None


def _resolve(tracked: _Tracked, future) -> None:
    tracked.done = time.perf_counter()
    if not future.cancelled() and future.exception() is None:
        tracked.reply = future.result()


async def _settle(futures, clients) -> None:
    pending = [f for f in futures if not f.done()]
    if pending:
        await asyncio.wait(pending, timeout=common.DRAIN_S)
    for client in clients:
        await client.close()


def _exactly_once(clients, n_sent: int) -> List[str]:
    problems = []
    answered = 0
    for client in clients:
        extra = {i: n for i, n in client.answers.items() if n > 1}
        if extra:
            problems.append(f"tenant {client.tenant}: ids answered twice: {sorted(extra)[:5]}")
        answered += len(client.answers)
    if answered != n_sent:
        problems.append(f"{n_sent - answered} of {n_sent} requests never answered")
    return problems


async def open_loop(host, port, rows, windows, fs, seed: int, duration: float) -> dict:
    rng = np.random.default_rng([int(seed), 1])
    events = [(t, "steady") for t in poisson_schedule(rng, common.STEADY_RPS, duration)]
    events += [(t, "windows") for t in poisson_schedule(rng, common.WINDOWS_RPS, duration)]
    events.sort()
    clients = {
        tenant: await CountingClient(host, port, tenant).connect()
        for tenant in ("steady", "windows")
    }
    next_row = Counter()
    tracked: List[_Tracked] = []
    futures = []
    t0 = time.perf_counter() + 0.05
    for offset, tenant in events:
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        i = next_row[tenant]
        next_row[tenant] += 1
        if tenant == "steady":
            row = i % len(rows)
            future = clients[tenant].submit(rows[row])
        else:
            row = i % len(windows)
            future = clients[tenant].submit(window=windows[row], fs=fs, binary=True)
        item = _Tracked(tenant, row, due, time.perf_counter())
        future.add_done_callback(lambda f, item=item: _resolve(item, f))
        tracked.append(item)
        futures.append(future)
    await _settle(futures, clients.values())

    late_ms = [1e3 * (item.sent - item.due) for item in tracked]
    tenants = {}
    for tenant in ("steady", "windows"):
        mine = [item for item in tracked if item.tenant == tenant]
        counts = Counter(outcome(item.reply) for item in mine)
        counts["sent"] = len(mine)
        tenants[tenant] = {name: int(counts.get(name, 0)) for name in OUTCOMES}
    steady_ms = [
        1e3 * (item.done - item.due) if outcome(item.reply) == "ok" else float("inf")
        for item in tracked if item.tenant == "steady"
    ]
    windows_sent = [item.sent for item in tracked if item.tenant == "windows"]
    return {
        "tenants": tenants,
        "steady_latency_ms": steady_ms,
        "late_ms": late_ms,
        "windows_span_s": (windows_sent[-1] - windows_sent[0]) if windows_sent else 0.0,
        "problems": _exactly_once(clients.values(), len(tracked)),
        "samples": _samples(tracked),
    }


def _samples(tracked: Sequence[_Tracked]) -> Dict[str, list]:
    """The first ``CHECK_ROWS`` ok answers per tenant, for the in-process check."""
    out: Dict[str, list] = {"steady": [], "windows": []}
    for item in tracked:
        bucket = out[item.tenant]
        if len(bucket) < common.CHECK_ROWS and outcome(item.reply) == "ok":
            bucket.append({
                "row": item.row,
                "label": item.reply["label"],
                "used": item.reply["used"],
                "proba": item.reply["proba"],
            })
    return out


async def closed_loop(host, port, rows, duration: float) -> dict:
    clients = [
        await CountingClient(host, port, "closed").connect()
        for _ in range(common.CLOSED_CONNECTIONS)
    ]
    counts = Counter()
    ok_times: List[float] = []
    n_sent = 0
    t_start = time.perf_counter()
    t_end = t_start + duration

    async def keep_outstanding(client, first_row: int) -> None:
        nonlocal n_sent
        i = first_row
        while time.perf_counter() < t_end:
            future = client.submit(rows[i % len(rows)])
            n_sent += 1
            i += common.CLOSED_OUTSTANDING
            try:
                reply = await asyncio.wait_for(future, timeout=common.DRAIN_S)
            except (asyncio.TimeoutError, ConnectionError):
                reply = None
            kind = outcome(reply)
            counts[kind] += 1
            if kind == "ok":
                ok_times.append(time.perf_counter())

    await asyncio.gather(*[
        keep_outstanding(client, j)
        for client in clients
        for j in range(common.CLOSED_OUTSTANDING)
    ])
    for client in clients:
        await client.close()
    counts["sent"] = n_sent
    return {
        "tenants": {"closed": {name: int(counts.get(name, 0)) for name in OUTCOMES}},
        "throughput_rps": slice_rate(ok_times, t_start, duration),
        "problems": _exactly_once(clients, n_sent),
    }


def slice_rate(times: Sequence[float], t_start: float, duration: float) -> float:
    """Median answers per second over the whole slices of a window.

    A median over short slices keeps a stall of a shared machine from
    moving the figure as much as it moves the window's mean.
    """
    width = common.THROUGHPUT_SLICE_S
    n_slices = max(1, int(duration // width))
    counts = [0] * n_slices
    for t in times:
        k = int((t - t_start) // width)
        if 0 <= k < n_slices:
            counts[k] += 1
    return statistics.median(counts) / width


def run_phases(host, port, rows, windows, fs, seed: int, seconds: float) -> dict:
    """Phase 1 then phase 2 against a live front-end."""
    open_s = common.OPEN_LOOP_SHARE * seconds
    closed_s = seconds - open_s

    async def both():
        first = await open_loop(host, port, rows, windows, fs, seed, open_s)
        second = await closed_loop(host, port, rows, closed_s)
        return first, second

    first, second = asyncio.run(both())
    return {"open": first, "closed": second}
