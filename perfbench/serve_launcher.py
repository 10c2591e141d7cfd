"""Start ``repro serve --listen`` for the serve-tcp workload.

Pins BLAS threads, optionally wraps the layer entry points (``--trace
REPORT``), then calls the CLI entry point with the remaining arguments.
The server runs until SIGINT, drains, and returns; the traced launcher
then writes its layer report and obs span count to REPORT.

    python perfbench/serve_launcher.py [--trace REPORT] -- \
        serve --bundle B.zip --listen 127.0.0.1:0 --tenant steady:1000:200
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.pin_blas()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report_path = None
    if argv[:1] == ["--trace"]:
        report_path = Path(argv[1])
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from repro.cli import main as cli_main

    clock = None
    if report_path is not None:
        import layers

        clock = layers.install()
    code = cli_main(argv)
    if clock is not None:
        from repro.obs import tracer

        clock.stop()
        report = clock.report()
        report["spans_retained"] = sum(1 for _ in tracer().spans())
        report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
