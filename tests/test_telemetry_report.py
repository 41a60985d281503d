"""Out-of-core fleet report + artifact diff (:mod:`repro.telemetry`).

Covers the PR's two analysis surfaces from the artifact side:

* ``fleet_report`` — the streaming (chunk-fed) report is value-identical
  to the materialized one across trace levels, shard counts, partial
  final chunks, zero-draw/zero-step jobs, and empty artifacts;
* ``diff_artifacts`` — self-diff is identical (and byte-identical under
  ``--exact``), while value drift, NaN mismatches, row-count drift, and
  added/removed jobs are all localized and fail the CLI exit code.
"""

import json
import os
import random
import struct
import tracemalloc
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import DataError
from repro.scenarios.catalog import get_scenario
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySpool,
    diff_artifacts,
    export_fleet_telemetry,
    fleet_report,
    recalibrate,
    render_report,
    write_npz,
    TelemetryReader,
)
from repro.telemetry.cli import main as telemetry_cli
from repro.telemetry.report import render_hour_histogram


def _outcome(revoked, lifetime=None, hour=None):
    return SimpleNamespace(revoked=revoked, lifetime_hours=lifetime,
                           revocation_hour_local=hour)


def _build_artifact(tmp_path, name, jobs, chunk_rows=4, scenario="unit"):
    """Forge an artifact from ``{rank: {"steps": [...], "draws": [...]}}``."""
    spool_dir = str(tmp_path / f"{name}.spool")
    out_path = str(tmp_path / f"{name}.npz")
    os.makedirs(spool_dir)
    meta_jobs = []
    with TelemetrySpool(TelemetryConfig(spool_dir=spool_dir,
                                        chunk_rows=chunk_rows)) as spool:
        for rank, spec in sorted(jobs.items()):
            job = spool.job(rank, f"job-{rank}", "resnet_15", 0.589)
            job.register_worker(f"worker-{rank}", "k80", "us-east1")
            sink = job.step_sink()
            for row in spec.get("steps", []):
                sink.append_row(f"worker-{rank}", *row)
            for launch_hour, outcome in spec.get("draws", []):
                job.record_draw(f"worker-{rank}", launch_hour, outcome)
            meta_jobs.append({"rank": rank, "name": f"job-{rank}",
                              "model": "resnet_15", "gflops": 0.589})
    write_npz(spool_dir, out_path,
              {"scenario": scenario, "seed": 0, "chunk_rows": chunk_rows,
               "jobs": meta_jobs})
    return out_path


def _step_row(index, steps=10):
    start = float(index)
    return (start, start + 0.5, steps, steps * (index + 1), steps * (index + 1))


@pytest.fixture(scope="module")
def hetero_artifact(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("report") / "hetero.npz")
    export_fleet_telemetry(get_scenario("multi_region_hetero"), path, seed=1)
    return path


# ---------------------------------------------------------------------------
# fleet_report: streaming == materialized.
# ---------------------------------------------------------------------------
def test_report_streaming_equals_materialized_across_variants(tmp_path):
    scenario = get_scenario("multi_region_hetero")
    documents = []
    for label, kwargs in (
            ("single", {"shards": 1}),
            ("sharded", {"shards": 2}),
            ("summary", {"shards": 2, "trace_level": "summary"})):
        path = str(tmp_path / f"{label}.npz")
        export_fleet_telemetry(scenario, path, seed=1, **kwargs)
        with TelemetryReader(path) as reader:
            streamed = fleet_report(reader)
            materialized = fleet_report(reader, materialized=True)
        assert streamed == materialized, label
        streamed.pop("artifact")
        documents.append(streamed)
    # Shard count and trace level change nothing about the analysis.
    assert documents[0] == documents[1] == documents[2]


def test_report_partial_final_chunks(tmp_path):
    # chunk_rows=4 over 10 rows: two full chunks + one partial chunk.
    path = _build_artifact(tmp_path, "partial", {
        0: {"steps": [_step_row(i) for i in range(10)],
            "draws": [(7.0, _outcome(True, 3.25, 10.25))]},
    })
    with TelemetryReader(path) as reader:
        chunk_sizes = [len(c) for c in reader.step_chunks(0)]
        assert chunk_sizes == [4, 4, 2]
        streamed = fleet_report(reader)
        assert streamed == fleet_report(reader, materialized=True)
    job = streamed["jobs"][0]
    assert job["step_rows"] == 10
    assert job["steps_total"] == 100.0
    assert job["mean_step_seconds"] == pytest.approx(0.05)
    assert streamed["fleet"]["revocation_hour_histogram"][10] == 1


def test_report_zero_draw_and_zero_step_jobs(tmp_path):
    path = _build_artifact(tmp_path, "sparse", {
        0: {"steps": [_step_row(i) for i in range(3)]},   # no draws at all
        1: {"draws": [(0.0, _outcome(False))]},           # no step rows
    })
    with TelemetryReader(path) as reader:
        streamed = fleet_report(reader)
        assert streamed == fleet_report(reader, materialized=True)
        rendered = render_report(streamed)
    by_rank = {job["rank"]: job for job in streamed["jobs"]}
    assert by_rank[0]["draws"] == 0 and by_rank[0]["step_rows"] == 3
    assert by_rank[1]["step_rows"] == 0
    assert by_rank[1]["mean_step_seconds"] is None
    assert by_rank[1]["draws"] == 1 and by_rank[1]["revocations"] == 0
    assert " - " in rendered  # the no-steps job renders placeholder cells
    # The fleet summary only aggregates what exists.
    assert streamed["fleet"]["step_rows"] == 3
    assert sum(streamed["fleet"]["revocation_hour_histogram"]) == 0


def test_report_empty_artifact(tmp_path):
    spool_dir = str(tmp_path / "empty.spool")
    path = str(tmp_path / "empty.npz")
    os.makedirs(spool_dir)
    with TelemetrySpool(TelemetryConfig(spool_dir=spool_dir)):
        pass
    write_npz(spool_dir, path, {"scenario": "empty", "seed": 0, "jobs": []})
    with TelemetryReader(path) as reader:
        streamed = fleet_report(reader)
        assert streamed == fleet_report(reader, materialized=True)
    assert streamed["jobs"] == []
    assert streamed["fleet"]["step_time_seconds"] is None
    assert "0 jobs" in render_report(streamed)


def test_render_hour_histogram_shapes():
    counts = [0] * 24
    counts[13] = 4
    text = render_hour_histogram(counts, width=8)
    lines = text.splitlines()
    assert len(lines) == 25
    assert lines[14].endswith("#" * 8)
    assert render_hour_histogram([0] * 24).count("#") == 0


# ---------------------------------------------------------------------------
# diff_artifacts.
# ---------------------------------------------------------------------------
def test_diff_self_is_identical(tmp_path, hetero_artifact):
    copy = str(tmp_path / "copy.npz")
    export_fleet_telemetry(get_scenario("multi_region_hetero"), copy, seed=1)
    result = diff_artifacts(hetero_artifact, copy, exact=True)
    assert result.identical
    assert result.byte_identical is True
    assert result.meta_equal
    document = result.to_document()
    assert document["identical"] and document["jobs"] == []
    assert document["jobs_compared"] == 4
    assert "identical" in result.summary()


def test_diff_localizes_value_and_nan_differences(tmp_path):
    base = {
        0: {"steps": [_step_row(i) for i in range(6)],
            "draws": [(7.0, _outcome(True, 3.25, 10.25)),
                      (8.0, _outcome(False))]},
    }
    drifted = {
        0: {"steps": [_step_row(i) for i in range(5)] + [(5.0, 6.5, 10, 60, 60)],
            "draws": [(7.0, _outcome(True, 3.25, 10.25)),
                      (8.0, _outcome(True, 2.0, 9.0))]},
    }
    path_a = _build_artifact(tmp_path, "base", base)
    path_b = _build_artifact(tmp_path, "drifted", drifted)
    result = diff_artifacts(path_a, path_b)
    assert not result.identical
    job = result.jobs[0]
    # Row 5's end_time drifted by 1.0 second.
    assert job.steps.max_abs_delta["end_time"] == 1.0
    assert job.steps.max_abs_delta["start_time"] == 0.0
    # Draw 1 flipped revoked 0 -> 1, NaN lifetime vs a real value: inf.
    assert job.draws.max_abs_delta["revoked"] == 1.0
    assert job.draws.max_abs_delta["lifetime_hours"] == np.inf
    assert "max|delta|" in result.summary()
    # Both-NaN cells compare equal: self-diff of the NaN-bearing artifact.
    assert diff_artifacts(path_a, path_a, exact=True).identical


def test_diff_added_removed_jobs_and_row_counts(tmp_path):
    steps = [_step_row(i) for i in range(4)]
    path_a = _build_artifact(tmp_path, "jobs_a",
                             {0: {"steps": steps},
                              1: {"steps": steps}})
    path_b = _build_artifact(tmp_path, "jobs_b",
                             {1: {"steps": steps + [_step_row(4)]},
                              2: {"steps": steps}})
    result = diff_artifacts(path_a, path_b)
    assert result.removed_jobs == [0]
    assert result.added_jobs == [2]
    assert not result.meta_equal
    job = result.jobs[0]
    assert job.rank == 1
    assert (job.steps.rows_a, job.steps.rows_b) == (4, 5)
    assert not job.identical
    summary = result.summary()
    assert "jobs only in A: [0]" in summary
    assert "jobs only in B: [2]" in summary
    assert "steps rows 4 vs 5" in summary


# ---------------------------------------------------------------------------
# Corrupted members: a DataError naming the member, never a raw zip error.
# ---------------------------------------------------------------------------
def _flip_member_byte(path, out_path, member):
    """Copy ``path`` with one byte of ``member``'s array data flipped.

    The zip opens fine (the central directory is intact) but the member
    fails its CRC check when it is read — the lazy-read failure mode.
    """
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    name_len, extra_len = struct.unpack_from("<HH", data,
                                             info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    data[start + info.compress_size - 8] ^= 0x40
    with open(out_path, "wb") as handle:
        handle.write(bytes(data))
    return out_path


@pytest.fixture
def corrupted_artifact(tmp_path, hetero_artifact):
    return _flip_member_byte(hetero_artifact, str(tmp_path / "flipped.npz"),
                             "job000001/steps/000000.npy")


@pytest.mark.parametrize("analysis", [fleet_report, recalibrate])
def test_corrupted_member_raises_data_error(corrupted_artifact, analysis):
    with TelemetryReader(corrupted_artifact) as reader:
        with pytest.raises(DataError, match="job000001/steps/000000") as info:
            analysis(reader)
    assert corrupted_artifact in str(info.value)
    assert isinstance(info.value.__cause__, zipfile.BadZipFile)


def test_cli_report_on_corrupted_member_is_one_error_line(corrupted_artifact,
                                                          capsys):
    assert telemetry_cli(["report", corrupted_artifact]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: corrupted "
                                                   "telemetry member")
    assert "Traceback" not in captured.err


@pytest.fixture
def corrupted_registry(tmp_path, hetero_artifact):
    return _flip_member_byte(hetero_artifact, str(tmp_path / "registry.npz"),
                             "job000001/workers/gpus.npy")


def test_corrupted_worker_registry_raises_data_error(corrupted_registry,
                                                     hetero_artifact, capsys):
    # A registry that fails its CRC is an error, not a job with 0 workers
    # or an unequal registry.
    with TelemetryReader(corrupted_registry) as reader:
        with pytest.raises(DataError, match="job000001/workers/gpus"):
            fleet_report(reader)
    with pytest.raises(DataError, match="job000001/workers/gpus"):
        diff_artifacts(hetero_artifact, corrupted_registry)
    assert telemetry_cli(["report", corrupted_registry]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: corrupted "
                                                   "telemetry member")


def test_report_job_without_registry_uses_meta_worker_count(tmp_path):
    spool_dir = str(tmp_path / "meta-only.spool")
    path = str(tmp_path / "meta-only.npz")
    os.makedirs(spool_dir)
    with TelemetrySpool(TelemetryConfig(spool_dir=spool_dir)):
        pass
    write_npz(spool_dir, path, {"scenario": "unit", "seed": 0, "jobs": [
        {"rank": 3, "name": "job-3", "model": "resnet_15", "gflops": 0.589,
         "workers": 5}]})
    with TelemetryReader(path) as reader:
        assert not reader.has_workers(3)
        document = fleet_report(reader)
    assert document["jobs"][0]["workers"] == 5


#: Bits the flip sweep samples, with a fixed seed, out of the 1,232 in one
#: step chunk's npy header (128 bytes) and its central-directory name (26
#: bytes); the full sweep takes about 5 s.
SWEEP_BITS = 600
SWEEP_SEED = 17


def test_header_and_name_bit_flips_raise_data_error_or_match(tmp_path,
                                                             hetero_artifact):
    member = "job000001/steps/000000.npy"
    with zipfile.ZipFile(hetero_artifact) as archive:
        info = archive.getinfo(member)
    with open(hetero_artifact, "rb") as handle:
        data = handle.read()
    name_len, extra_len = struct.unpack_from("<HH", data,
                                             info.header_offset + 26)
    header = info.header_offset + 30 + name_len + extra_len
    header_end = header + 10 + struct.unpack_from("<H", data, header + 8)[0]
    name = member.encode("ascii")
    # The central directory follows every member, so its copy of the
    # name is the last one in the file.
    directory_name = data.rindex(name)
    assert directory_name > header_end
    offsets = list(range(header, header_end)) + list(
        range(directory_name, directory_name + len(name)))
    bits = [(offset, bit) for offset in offsets for bit in range(8)]

    def report(reader):
        document = fleet_report(reader)
        document.pop("artifact")
        return document

    def refit(reader):
        return recalibrate(reader).to_params()

    def analyse(path, analysis):
        with TelemetryReader(path) as reader:
            return analysis(reader)

    clean = {analysis: analyse(hetero_artifact, analysis)
             for analysis in (report, refit)}
    flipped = str(tmp_path / "flipped.npz")
    for offset, bit in random.Random(SWEEP_SEED).sample(bits, SWEEP_BITS):
        corrupted = bytearray(data)
        corrupted[offset] ^= 1 << bit
        with open(flipped, "wb") as handle:
            handle.write(corrupted)
        for analysis, expected in clean.items():
            try:
                result = analyse(flipped, analysis)
            except DataError:
                continue
            assert result == expected, (analysis.__name__, offset, bit)


@pytest.mark.parametrize("field, bit", [
    (6, 7),    # version needed to extract 148 (zipfile: NotImplementedError)
    (8, 0),    # the encrypted flag
    (23, 7),   # bit 31 of the compressed size: a 2 GiB member
    (33, 2),   # a 1 KiB comment that swallows the entries after this one
])
def test_directory_entry_bit_flips_raise_data_error(tmp_path, hetero_artifact,
                                                    capsys, field, bit):
    # ``field`` is a byte offset into the fixed 46-byte part of one step
    # chunk's central-directory entry.
    with open(hetero_artifact, "rb") as handle:
        data = bytearray(handle.read())
    # The central directory follows every member, so its copy of the name
    # is the last one in the file, right after the fixed part.
    entry = data.rindex(b"job000001/steps/000000.npy") - 46
    assert data[entry:entry + 4] == b"PK\x01\x02"
    data[entry + field] ^= 1 << bit
    flipped = str(tmp_path / "flipped.npz")
    with open(flipped, "wb") as handle:
        handle.write(data)
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            with TelemetryReader(flipped) as reader:
                fleet_report(reader)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # No buffer is ever sized from a directory field the entry cannot hold.
    assert peak < 4 * 1024 * 1024
    assert telemetry_cli(["report", flipped]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# ---------------------------------------------------------------------------
# CLI: report + diff subcommands.
# ---------------------------------------------------------------------------
def test_cli_report(tmp_path, capsys, hetero_artifact):
    report_json = str(tmp_path / "report.json")
    assert telemetry_cli(["report", hetero_artifact,
                          "--json", report_json]) == 0
    out = capsys.readouterr().out
    assert "fleet telemetry report" in out
    assert "local hour | revocations" in out
    with open(report_json, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert len(document["jobs"]) == 4
    assert document["fleet"]["step_rows"] > 0


def test_cli_diff_exit_codes(tmp_path, capsys, hetero_artifact):
    reseeded = str(tmp_path / "reseeded.npz")
    export_fleet_telemetry(get_scenario("multi_region_hetero"), reseeded,
                           seed=2)
    diff_json = str(tmp_path / "diff.json")
    assert telemetry_cli(["diff", hetero_artifact, hetero_artifact,
                          "--exact"]) == 0
    assert "byte identical: True" in capsys.readouterr().out
    assert telemetry_cli(["diff", hetero_artifact, reseeded,
                          "--json", diff_json]) == 1
    assert "compared jobs differ" in capsys.readouterr().out
    with open(diff_json, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["identical"] is False
    assert document["jobs_compared"] == 4
