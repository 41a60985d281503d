"""Shared harness helpers for the ``*_baseline.py`` benchmark scripts.

Every baseline script carries the same scaffolding around its actual
measurements: the ``--quick`` / ``--check [BASELINE]`` / ``--json-out``
argument trio the CI smoke jobs drive, a host-environment block recorded
next to the numbers, trailing-newline JSON writes, and a regression gate
that compares a measured speedup *ratio* (host-independent) against the
committed baseline instead of absolute throughput (host-specific).  This
module is that scaffolding, factored out once; the scripts keep only the
measurements themselves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from typing import Optional, Sequence, Tuple


def environment_block(include_numpy: bool = True) -> dict:
    """The host/environment snapshot recorded in every committed baseline."""
    block = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if include_numpy:
        import numpy as np
        block["numpy"] = np.__version__
    block["cpu_count"] = os.cpu_count()
    block["usable_cpus"] = (len(os.sched_getaffinity(0))
                            if hasattr(os, "sched_getaffinity")
                            else os.cpu_count())
    return block


def write_json(path: str, document: dict, announce: bool = True) -> None:
    """Write ``document`` as indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    if announce:
        print(f"wrote {path}")


def make_parser(doc: str, *, output: str,
                check_help: str) -> argparse.ArgumentParser:
    """The baseline-script argument parser: ``--quick/--check/--json-out``.

    ``--check`` takes an optional baseline path and defaults to the
    script's committed ``output`` when given bare — exactly how the CI
    smoke jobs invoke it (``--quick --check``).
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="measure only the quick configuration; do not "
                             f"rewrite {os.path.basename(output)}")
    parser.add_argument("--check", nargs="?", const=output, default=None,
                        metavar="BASELINE", help=check_help)
    parser.add_argument("--json-out", default=None, metavar="PATH",
                        help="write the measured numbers to PATH (CI uploads "
                             "them as a workflow artifact)")
    return parser


def _dig(document: dict, path: Sequence[str]):
    for key in path:
        document = document[key]
    return document


def ratio_gate(baseline_path: str, measured: dict, *,
               ratio_path: Sequence[str], label: str, tolerance: float,
               informative_path: Optional[Sequence[str]] = None,
               informative_label: str = "", precision: int = 2,
               unit: str = "x") -> int:
    """Gate a measured speedup ratio against the committed baseline.

    Ratios (fast-vs-slow paths measured on one host in one process) are
    comparable across machines; the committed absolute numbers are host
    specific and only printed as an informative aside.  Returns a process
    exit code: 0 within ``tolerance`` of the committed ratio, 1 on a
    regression or a missing baseline.
    """
    try:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            committed = json.load(handle)
    except FileNotFoundError:
        print(f"no committed baseline at {baseline_path}; nothing to check")
        return 1
    reference = _dig(committed["quick"], ratio_path)
    current = _dig(measured, ratio_path)
    floor = reference * (1.0 - tolerance)
    verdict = "OK" if current >= floor else "REGRESSION"
    print(f"{label}: measured {current:.{precision}f}{unit} vs "
          f"committed {reference:.{precision}f}{unit} "
          f"(floor {floor:.{precision}f}{unit}) -> {verdict}")
    if informative_path is not None:
        print(f"(informative absolute {informative_label}: measured "
              f"{_dig(measured, informative_path):,.0f}, committed "
              f"{_dig(committed['quick'], informative_path):,.0f})")
    return 0 if current >= floor else 1
