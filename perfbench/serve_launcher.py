"""Run ``repro-serve serve`` with the serve layers traced.

Usage::

    python perfbench/serve_launcher.py TRACE.npz [serve flags...]

Installs the span wrappers, runs ``repro.serve.cli.main(["serve", ...])``
until SIGTERM/SIGINT, and writes the spans to ``TRACE.npz`` after the
graceful drain.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracing import Tracer, install_serve  # noqa: E402


def main(argv) -> int:
    trace_path, flags = argv[0], argv[1:]
    tracer = Tracer()
    install_serve(tracer)
    from repro.serve.cli import main as serve_main

    started = time.perf_counter()
    code = serve_main(["serve", *flags])
    tracer.dump(trace_path,
                {"process_wall_s": time.perf_counter() - started})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
