#!/usr/bin/env python3
"""Compare two benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the records come from different machines or
toolchains (their fingerprints differ) or from different workloads or
modes. Otherwise prints each metric's base and new value and its change
as a share of the base; an end-to-end metric that got worse by more than
its bound in ``BENCHMARK.json`` is marked and makes the exit code 1.
One record per side is a single run: a claim needs the repeated runs
described in ``NOTES.md``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(base: dict, new: dict, spec: dict) -> int:
    if base["fingerprint"] != new["fingerprint"]:
        print("REFUSED: the records come from different machines or toolchains")
        for key in sorted(set(base["fingerprint"]) | set(new["fingerprint"])):
            a, b = base["fingerprint"].get(key), new["fingerprint"].get(key)
            if a != b:
                print(f"  {key}: {a!r} != {b!r}")
        return 2
    for key in ("workload", "trace", "seconds"):
        if base[key] != new[key]:
            print(f"REFUSED: {key} differs ({base[key]!r} vs {new[key]!r})")
            return 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    print(f"{'metric':<34} {'base':>12} {'new':>12} {'change':>8}")
    for name, entry in base["result"]["metrics"].items():
        a = entry["value"]
        b = new["result"]["metrics"][name]["value"]
        change = (b - a) / a if a else 0.0
        flag = ""
        metric = bounds.get(name)
        if metric is not None:
            loss = change if metric["better"] == "lower" else -change
            if loss > metric["bound"]:
                flag = f"  worse than bound {metric['bound']:.0%}"
                worse += 1
        print(f"{name:<34} {a:>12.5g} {b:>12.5g} {change:>+8.1%}{flag}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    return compare(base, new, json.loads(BENCHMARK.read_text()))


if __name__ == "__main__":
    sys.exit(main())
