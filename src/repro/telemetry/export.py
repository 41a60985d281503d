"""Export one fleet replicate's telemetry to a single ``.npz`` artifact.

The exported fleet is the *exact* fleet a ``repro-scenarios`` sweep cell
runs: the scenario goes through :func:`~repro.scenarios.fleet.build_fleet_spec`
and the matching replicate cell's derived streams, so the payload returned
here equals the sweep's payload for that cell and the telemetry describes
the run the user actually analyzed.

The artifact's ``meta`` document is derived purely from the scenario and
catalog (never from run state) and deliberately excludes execution knobs
— shards, trace level — so exports are bit-identical across
all of them (the sharded-identity contract).
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.scenarios.fleet import apply_fleet_axes, build_fleet_spec
from repro.scenarios.shard import ShardedFleetRun
from repro.scenarios.spec import ScenarioSpec
from repro.telemetry.writer import (DEFAULT_CHUNK_ROWS, TelemetryConfig,
                                    write_npz)
from repro.workloads.catalog import ModelCatalog, default_catalog


def export_fleet_telemetry(scenario: ScenarioSpec, out_path: str, *,
                           seed: int = 0, replicate: int = 0,
                           shards: Optional[int] = None,
                           trace_level: Optional[str] = None,
                           chunk_rows: int = DEFAULT_CHUNK_ROWS,
                           catalog: Optional[ModelCatalog] = None
                           ) -> Dict[str, Any]:
    """Run one fleet replicate with telemetry attached and write the npz.

    Args:
        scenario: The scenario to simulate.
        out_path: Artifact destination (a sibling ``.spool`` directory
            holds one part file per process and is removed afterwards;
            one left behind by an export killed before cleanup is
            removed first).
        seed: Sweep root seed (matches ``repro-scenarios --seed``).
        replicate: Which replicate cell to export.
        shards: Worker processes (``None`` reads ``REPRO_FLEET_SHARDS``).
        trace_level: Per-session trace level override.
        chunk_rows: Telemetry rows buffered per job/kind before flushing.
        catalog: Model catalog (defaults to the stock one).

    Returns:
        The fleet's JSON payload — bit-identical to the corresponding
        sweep cell's payload.
    """
    if replicate < 0:
        raise ConfigurationError("replicate must be >= 0")
    spec = build_fleet_spec(scenario, replicates=replicate + 1)
    cell = next(cell for cell in spec.cells()
                if cell.params["replicate"] == replicate)
    streams = cell.streams(seed)
    derived = apply_fleet_axes(
        ScenarioSpec.from_params(cell.params["scenario"]), cell.params)

    resolved_catalog = catalog if catalog is not None else default_catalog()
    meta = {
        "scenario": scenario.name,
        "seed": int(seed),
        "replicate": int(replicate),
        "chunk_rows": int(chunk_rows),
        "jobs": [
            {"rank": rank, "name": job.name, "model": job.model_name,
             "gflops": float(resolved_catalog.profile(job.model_name).gflops)}
            for rank, job in enumerate(derived.jobs)],
    }

    spool_dir = out_path + ".spool"
    # The spool is this exporter's own scratch: a leftover one must not
    # leak its members into this artifact.
    shutil.rmtree(spool_dir, ignore_errors=True)
    os.makedirs(spool_dir)
    try:
        runner = ShardedFleetRun(
            derived, streams, catalog=resolved_catalog, shards=shards,
            trace_level=trace_level,
            telemetry=TelemetryConfig(spool_dir=spool_dir,
                                      chunk_rows=int(chunk_rows)))
        payload = runner.run()
        write_npz(spool_dir, out_path, meta)
    finally:
        shutil.rmtree(spool_dir, ignore_errors=True)
    return payload
