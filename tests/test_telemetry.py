"""Columnar telemetry export + the online recalibration loop.

Covers the three tentpole contracts of :mod:`repro.telemetry`:

* the spool/npz writer is memory-bounded (fixed-size chunks) and its
  artifact is a pure function of the recorded rows, so a sharded export
  is byte-identical to the single-process export;
* recalibrating on a fleet's *own* telemetry recovers the generating
  parameters within the documented tolerances (self-consistency);
* the placement service's ``recalibrate`` op swaps the refit calibration
  in atomically — cache dropped, epoch bumped, decisions change.
"""

import asyncio
import errno
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import struct
import warnings
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (add_at_hour_distribution, per_bin_normalizers,
                     per_row_normalizers)

from repro.cloud.revocation import MAX_TRANSIENT_LIFETIME_HOURS
from repro.errors import ConfigurationError, DataError, SimulationError
from repro.modeling.placement import PlacementQuery
from repro.scenarios.catalog import get_scenario
from repro.serve.service import PlacementService
from repro.serve.transport import handle_request
from repro.telemetry import (
    RECOVERY_TOLERANCES,
    RecalibrationResult,
    TelemetryConfig,
    TelemetryReader,
    TelemetrySpool,
    calibration_scenario,
    check_recovery,
    export_fleet_telemetry,
    recalibrate,
    write_npz,
)
from repro.telemetry import writer
from repro.telemetry.cli import main as telemetry_cli
from repro.telemetry.writer import (DRAW_COLUMNS, STEP_COLUMNS,
                                    TELEMETRY_FORMAT_VERSION, JobTelemetry,
                                    _npy_bytes)

#: The self-consistency fleet: 240 jobs per (gpu, region) cell was
#: validated across seeds to land inside RECOVERY_TOLERANCES; seed 3 is
#: the committed test point (worst weibull rel err 0.27 vs 0.35 allowed).
SELFTEST_JOBS_PER_CELL = 240
SELFTEST_SEED = 3


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _outcome(revoked, lifetime=None, hour=None):
    return SimpleNamespace(revoked=revoked, lifetime_hours=lifetime,
                           revocation_hour_local=hour)


# ---------------------------------------------------------------------------
# Spool writer + reader round trip.
# ---------------------------------------------------------------------------
def test_spool_round_trip(tmp_path):
    spool_dir = str(tmp_path / "spool")
    out_path = str(tmp_path / "telemetry.npz")
    os.makedirs(spool_dir)
    with TelemetrySpool(TelemetryConfig(spool_dir=spool_dir,
                                        chunk_rows=4)) as spool:
        job = spool.job(0, "job-a", "resnet_32", 1.56)
        job.register_worker("worker-0", "k80", "us-east1")
        sink = job.step_sink()
        for index in range(10):
            sink.append_row("worker-0", float(index), index + 0.5,
                            10, 10 * (index + 1), 10 * (index + 1))
        job.record_draw("worker-0", 7.0, _outcome(True, 3.25, 10.25))
        job.record_draw("worker-0", 8.0, _outcome(False))
    # Every chunk went into the spool's one part file.
    assert os.listdir(spool_dir) == ["part0000"]
    write_npz(spool_dir, out_path, {"scenario": "unit", "jobs": []})

    with TelemetryReader(out_path) as reader:
        assert reader.ranks == [0]
        # chunk_rows=4 over 10 rows: two full chunks + one partial at close.
        assert [len(chunk) for chunk in reader.step_chunks(0)] == [4, 4, 2]
        ids, gpus, regions = reader.workers(0)
        assert list(ids) == ["worker-0"]
        assert list(gpus) == ["k80"] and list(regions) == ["us-east1"]
        steps = reader.step_rows(0)
        assert steps.shape == (10, len(STEP_COLUMNS))
        assert steps[:, 1].tolist() == [float(i) for i in range(10)]
        assert steps[-1, 4] == 100.0
        draws = reader.draw_rows(0)
        assert draws.shape == (2, len(DRAW_COLUMNS))
        assert draws[0, 2] == 1.0 and draws[0, 3] == 3.25
        assert draws[1, 2] == 0.0 and np.isnan(draws[1, 3])


def test_spool_unregistered_worker_gets_anonymous_slot(tmp_path):
    spool_dir = str(tmp_path / "spool")
    os.makedirs(spool_dir)
    with TelemetrySpool(TelemetryConfig(spool_dir=spool_dir)) as spool:
        job = spool.job(0, "job-a", "resnet_15", 0.589)
        job.step_sink().append_row("session-restart", 0.0, 1.0, 0, 0, 0)
        ids = job._worker_ids
        assert ids == ["session-restart"]
        assert job._worker_gpus == [""]


# ---------------------------------------------------------------------------
# Spool part files: one append-only file per spool, sealed at close.
# ---------------------------------------------------------------------------
def _fill(spool, ranks=(0,), rows=5):
    for rank in ranks:
        job = spool.job(rank, f"job-{rank}", "resnet_15", 0.589)
        job.register_worker("worker-0", "k80", "us-east1")
        sink = job.step_sink()
        for index in range(rows):
            sink.append_row("worker-0", float(index), index + 0.5,
                            10, 10 * (index + 1), 10 * (index + 1))
        job.record_draw("worker-0", 7.0, _outcome(True, 3.25, 10.25))


def _packed(tmp_path, label, *spools):
    """Spool each ``(part, ranks)`` into a fresh directory and pack it."""
    spool_dir = tmp_path / f"{label}.spool"
    spool_dir.mkdir()
    config = TelemetryConfig(spool_dir=str(spool_dir), chunk_rows=2)
    for part, ranks in spools:
        with TelemetrySpool(config, part=part) as spool:
            _fill(spool, ranks)
    out_path = str(tmp_path / f"{label}.npz")
    write_npz(str(spool_dir), out_path, {"scenario": "unit"})
    return spool_dir, out_path


def test_spool_writes_one_part_file_for_any_job_count(tmp_path):
    spool_dir, out_path = _packed(tmp_path, "fifty", (0, range(50)))
    assert os.listdir(spool_dir) == ["part0000"]
    with TelemetryReader(out_path) as reader:
        assert reader.ranks == list(range(50))
        assert [len(chunk) for chunk in reader.step_chunks(49)] == [2, 2, 1]


def test_spool_parts_merge_to_the_single_part_bytes(tmp_path):
    _, single = _packed(tmp_path, "single", (0, (0, 1, 2)))
    _, split = _packed(tmp_path, "split", (1, (1,)), (0, (0, 2)))
    assert _sha256(split) == _sha256(single)


def test_reopened_part_replaces_an_unsealed_one(tmp_path):
    _, clean = _packed(tmp_path, "clean", (0, (0, 1)))
    spool_dir = tmp_path / "crashed.spool"
    spool_dir.mkdir()
    config = TelemetryConfig(spool_dir=str(spool_dir), chunk_rows=2)
    with pytest.raises(RuntimeError, match="mid-run"):
        with TelemetrySpool(config, part=0) as spool:
            _fill(spool, (0, 1, 7))
            raise RuntimeError("mid-run failure")
    out_path = str(tmp_path / "crashed.npz")
    with pytest.raises(DataError, match="part0000 has no valid footer"):
        write_npz(str(spool_dir), out_path, {"scenario": "unit"})
    assert not os.path.exists(out_path)
    assert not os.path.exists(out_path + ".tmp")
    with TelemetrySpool(config, part=0) as spool:
        _fill(spool, (0, 1))
    write_npz(str(spool_dir), out_path, {"scenario": "unit"})
    assert _sha256(out_path) == _sha256(clean)


def test_write_npz_rejects_a_member_in_two_parts(tmp_path):
    with pytest.raises(DataError, match=r"'job000001__steps__000000\.npy' "
                                        r"appears in both .*part0000 and "
                                        r".*part0001"):
        _packed(tmp_path, "twice", (0, (0, 1)), (1, (1,)))


def test_write_npz_rejects_an_index_past_the_data(tmp_path):
    spool_dir, _ = _packed(tmp_path, "forged", (0, (0,)))
    part = spool_dir / "part0000"
    raw = part.read_bytes()
    index_offset, magic = struct.unpack("<Q8s", raw[-16:])
    index = json.loads(raw[index_offset:-16])
    index[-1][2] += 1
    body = json.dumps(index).encode()
    part.write_bytes(raw[:index_offset] + body + raw[-16:])
    with pytest.raises(DataError, match=r"part0000: member "
                                        r"'job000000__workers__regions\.npy' "
                                        r"ends at byte \d+, past the end"):
        write_npz(str(spool_dir), str(tmp_path / "out.npz"), {})


def test_write_npz_rejects_a_short_read(tmp_path, monkeypatch):
    spool_dir, _ = _packed(tmp_path, "shrunk", (0, (0,)))
    read_index = writer._read_index

    def stale_index(path, handle):
        # As if the part shrank after its index was read.
        *index, (key, offset, length) = read_index(path, handle)
        return index + [(key, offset, length + 1024)]

    monkeypatch.setattr(writer, "_read_index", stale_index)
    out_path = tmp_path / "out.npz"
    with pytest.raises(DataError, match=r"short read of telemetry spool "
                                        r"member 'job000000__workers__"
                                        r"regions\.npy' from .*part0000"):
        write_npz(str(spool_dir), str(out_path), {})
    assert sorted(os.listdir(tmp_path)) == ["shrunk.npz", "shrunk.spool"]


def _meta(version=TELEMETRY_FORMAT_VERSION):
    """A ``meta`` member for a forged artifact with no jobs."""
    return np.array(json.dumps({"format_version": version, "jobs": []}),
                    dtype=np.str_)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open descriptors through /proc/self/fd")
def test_reader_rejects_unknown_format(tmp_path):
    # write_npz always stamps the current version and stores members
    # uncompressed under the writer's names, so forge each artifact.
    rejected = []
    path = str(tmp_path / "version.npz")
    np.savez(path, meta=_meta(99))
    rejected.append((path, "format version"))
    path = str(tmp_path / "plain.npz")
    np.savez(path, rows=np.zeros(3))
    rejected.append((path, "no meta entry"))
    path = str(tmp_path / "compressed.npz")
    np.savez_compressed(path, meta=_meta())
    rejected.append((path, "compressed or encrypted"))
    path = str(tmp_path / "duplicate.npz")
    chunk = _npy_bytes(np.zeros((2, len(STEP_COLUMNS))))
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("meta.npy", _npy_bytes(_meta()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "Duplicate name"
            archive.writestr("job000000/steps/000000.npy", chunk)
            archive.writestr("job000000/steps/000000.npy", chunk)
    rejected.append((path, "duplicate telemetry member"))
    path = str(tmp_path / "unexpected.npz")
    np.savez(path, meta=_meta(), extra=np.zeros(3))
    rejected.append((path, "unexpected telemetry member 'extra.npy'"))

    for path, message in rejected:
        # A rejected artifact must close its file instead of leaking the
        # handle with the exception.  The exception's traceback keeps the
        # half-built reader alive, so garbage collection cannot close it.
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(DataError, match=message) as info:
            TelemetryReader(path)
        assert len(os.listdir("/proc/self/fd")) == before, path
        del info


_GOOD_HEADER = "{'descr': '<f8', 'fortran_order': True, 'shape': (2, 6), }"


@pytest.mark.parametrize("header, payload_rows", [
    (_GOOD_HEADER[:-3] + "'x'", 2),           # tokenize.TokenError
    ("1\n  2\n 3", 2),                         # IndentationError
    (_GOOD_HEADER.replace("'<f8'", "()"), 2),  # IndexError
    (_GOOD_HEADER.replace("'<f8'", "'O'"), 2),  # object dtype
    (_GOOD_HEADER, 1),                          # payload one row short
    (_GOOD_HEADER, 3),                          # payload one row long
])
def test_reader_rejects_crafted_npy_headers(tmp_path, header, payload_rows):
    # The member passes its CRC check (zipfile computes it), so only the
    # npy header and length checks stand between it and the caller.
    body = header.encode("latin1")
    member = (b"\x93NUMPY\x01\x00" + struct.pack("<H", len(body)) + body
              + bytes(8 * len(STEP_COLUMNS) * payload_rows))
    path = str(tmp_path / "crafted.npz")
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("meta.npy", _npy_bytes(_meta()))
        archive.writestr("job000000/steps/000000.npy", member)
    with TelemetryReader(path) as reader:
        with pytest.raises(DataError, match="job000000/steps/000000"):
            reader.step_rows(0)


def test_reader_wraps_unreadable_paths_in_data_error(tmp_path):
    # Missing files and non-npz bytes surface as DataError so the CLIs
    # print a clean "error:" line instead of a traceback.
    with pytest.raises(DataError, match="cannot open telemetry artifact"):
        TelemetryReader(str(tmp_path / "missing.npz"))
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"this is not a zip archive")
    with pytest.raises(DataError, match="cannot open telemetry artifact"):
        TelemetryReader(str(garbage))


def test_reader_job_meta_indexed_by_rank(tmp_path):
    spool_dir = str(tmp_path / "spool")
    out_path = str(tmp_path / "meta.npz")
    os.makedirs(spool_dir)
    with TelemetrySpool(TelemetryConfig(spool_dir=spool_dir)) as spool:
        spool.job(5, "job-five", "resnet_32", 1.56)
    # meta jobs deliberately unsorted: lookup must go by rank, not order.
    write_npz(spool_dir, out_path, {"scenario": "unit", "jobs": [
        {"rank": 7, "name": "job-seven"}, {"rank": 5, "name": "job-five"}]})
    with TelemetryReader(out_path) as reader:
        assert reader.job_meta(5)["name"] == "job-five"
        assert reader.job_meta(7)["name"] == "job-seven"
        with pytest.raises(DataError, match="rank 3"):
            reader.job_meta(3)


def test_reader_chunk_iterators_match_materialized(tmp_path):
    spool_dir = str(tmp_path / "spool")
    out_path = str(tmp_path / "chunks.npz")
    os.makedirs(spool_dir)
    with TelemetrySpool(TelemetryConfig(spool_dir=spool_dir,
                                        chunk_rows=4)) as spool:
        job = spool.job(0, "job-a", "resnet_15", 0.589)
        job.register_worker("worker-0", "k80", "us-east1")
        sink = job.step_sink()
        for index in range(11):
            sink.append_row("worker-0", float(index), index + 0.5,
                            10, 10 * (index + 1), 10 * (index + 1))
        for _ in range(6):
            job.record_draw("worker-0", 1.0, _outcome(False))
    write_npz(spool_dir, out_path, {"scenario": "unit", "jobs": []})
    with TelemetryReader(out_path) as reader:
        # Partial final chunks: 11 steps -> 4/4/3, 6 draws -> 4/2.
        step_chunks = list(reader.step_chunks(0))
        assert [len(chunk) for chunk in step_chunks] == [4, 4, 3]
        draw_chunks = list(reader.draw_chunks(0))
        assert [len(chunk) for chunk in draw_chunks] == [4, 2]
        np.testing.assert_array_equal(np.concatenate(step_chunks),
                                      reader.step_rows(0))
        np.testing.assert_array_equal(np.concatenate(draw_chunks),
                                      reader.draw_rows(0))
        # A rank with no recorded rows streams nothing and materializes
        # empty-but-shaped tables.
        assert list(reader.step_chunks(42)) == []
        assert reader.step_rows(42).shape == (0, len(STEP_COLUMNS))
        assert reader.draw_rows(42).shape == (0, len(DRAW_COLUMNS))


# ---------------------------------------------------------------------------
# Export identity: sharded == single-process, byte for byte.
# ---------------------------------------------------------------------------
def test_export_bit_identical_across_shards_and_trace_level(tmp_path):
    scenario = get_scenario("multi_region_hetero")
    digests = {}
    payloads = {}
    for label, kwargs in (
            ("single", {"shards": 1}),
            ("sharded", {"shards": 2}),
            ("summary", {"shards": 2, "trace_level": "summary"})):
        path = str(tmp_path / f"{label}.npz")
        payloads[label] = export_fleet_telemetry(scenario, path, seed=1,
                                                 **kwargs)
        digests[label] = _sha256(path)
    assert digests["single"] == digests["sharded"] == digests["summary"]
    assert payloads["single"] == payloads["sharded"] == payloads["summary"]
    # No spool directories left behind.
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".spool")]


#: sha256 of the ``multi_region_hetero`` seed-1 export by ``chunk_rows``,
#: pinned from the per-chunk-file spool the part files replaced (Python
#: 3.11.7, numpy 2.4.6).
EXPORT_PINS = {
    4096: "12dfd9dec87d8fe4d7100823fd83aa214cd6cbd8d70770edf9054badeca2b2e8",
    7: "52a931fd6c38290ce8706907ae799496b5e1ccbb23a391733ed9614858465e52",
    1: "e8aa8bd3985278fb21b2febcdac0d7baa90a78132cf4617fa8b308c4e70de533",
}


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("chunk_rows", sorted(EXPORT_PINS))
def test_export_bytes_are_pinned(tmp_path, chunk_rows, shards):
    path = str(tmp_path / "pinned.npz")
    export_fleet_telemetry(get_scenario("multi_region_hetero"), path, seed=1,
                           shards=shards, chunk_rows=chunk_rows)
    assert _sha256(path) == EXPORT_PINS[chunk_rows]


def test_export_through_shard_crashes_matches_the_pin(tmp_path, monkeypatch):
    # Shard 0 dies at its second draw request (simulated t=600 s), after
    # its first job's rows went into its part; the respawn truncates that
    # unsealed part and rewrites it.
    log = tmp_path / "chaos.jsonl"
    monkeypatch.setenv("REPRO_CHAOS",
                       "shard_crash:shard=0,at=2;shard_crash:shard=1,at=1")
    monkeypatch.setenv("REPRO_CHAOS_LOG", str(log))
    path = str(tmp_path / "crash.npz")
    export_fleet_telemetry(get_scenario("multi_region_hetero"), path, seed=1,
                           shards=2, chunk_rows=1)
    assert _sha256(path) == EXPORT_PINS[1]
    records = [json.loads(line) for line in log.read_text().splitlines()]
    crashes = {record["fault"]: record["time"] for record in records
               if record["event"] == "injected_shard_crash"}
    assert crashes == {"shard_crash:at=2,shard=0": 600.0,
                       "shard_crash:shard=1": 0.0}
    assert [record["event"] for record in records].count("shard_restart") == 2


def test_export_ignores_a_stale_spool(tmp_path):
    path = tmp_path / "stale.npz"
    stale = tmp_path / "stale.npz.spool"
    stale.mkdir()
    # A sealed part from an earlier 4-shard export and an unsealed one
    # from a killed export, both holding a rank this fleet does not have.
    config = TelemetryConfig(spool_dir=str(stale), chunk_rows=2)
    with TelemetrySpool(config, part=3) as spool:
        _fill(spool, (99,))
    with pytest.raises(RuntimeError):
        with TelemetrySpool(config, part=0) as spool:
            _fill(spool, (98,))
            raise RuntimeError("killed")
    export_fleet_telemetry(get_scenario("multi_region_hetero"), str(path),
                           seed=1, shards=2)
    assert _sha256(path) == EXPORT_PINS[4096]
    assert not stale.exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open descriptors through /proc/self/fd")
@pytest.mark.parametrize("shards", [1, 2])
def test_failed_export_leaks_no_descriptor_and_no_files(tmp_path, monkeypatch,
                                                        shards):
    if shards > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched sink reaches shard children through fork")
    record_step = JobTelemetry.record_step
    rows = []

    def failing_record_step(self, *args):
        rows.append(args)
        if len(rows) > 40:
            raise OSError(errno.ENOSPC, "No space left on device")
        record_step(self, *args)

    monkeypatch.setattr(JobTelemetry, "record_step", failing_record_step)
    path = tmp_path / "failed.npz"
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises((OSError, SimulationError), match="No space left"):
        export_fleet_telemetry(get_scenario("multi_region_hetero"), str(path),
                               seed=1, shards=shards, chunk_rows=4)
    assert len(os.listdir("/proc/self/fd")) == before
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Self-consistency: refit on the fleet's own telemetry recovers the
# generating parameters within RECOVERY_TOLERANCES.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def calibration_refit(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("telemetry") / "calibration.npz")
    export_fleet_telemetry(
        calibration_scenario(jobs_per_cell=SELFTEST_JOBS_PER_CELL),
        path, seed=SELFTEST_SEED)
    with TelemetryReader(path) as reader:
        return recalibrate(reader)


def test_recalibration_recovers_generating_parameters(calibration_refit):
    violations = check_recovery(calibration_refit)
    assert violations == []


def test_recalibration_anchors_match_step_time_table(calibration_refit):
    from repro.perf.calibration import STEP_TIME_ANCHORS
    # Refit anchors sit at the catalog's exact per-model gflops, which
    # differ slightly from the paper-table anchor grid — compare against
    # the reference curve interpolated at the refit abscissa.
    for gpu, refit_points in calibration_refit.anchors.items():
        xs, ys = zip(*sorted(STEP_TIME_ANCHORS[gpu]))
        for gflops, seconds in refit_points:
            expected = float(np.interp(gflops, xs, ys))
            assert seconds == pytest.approx(
                expected, rel=RECOVERY_TOLERANCES["anchor_rel"])


def test_recalibration_result_round_trips_through_params(calibration_refit):
    document = calibration_refit.to_params()
    json.dumps(document)  # must be JSON-encodable as-is
    restored = RecalibrationResult.from_params(document)
    assert restored.calibration == calibration_refit.calibration
    assert restored.hourly_weights == calibration_refit.hourly_weights
    assert restored.anchors == calibration_refit.anchors
    assert restored.noise_cov == calibration_refit.noise_cov


def test_recalibration_models_merge_over_defaults(calibration_refit):
    from repro.cloud.revocation import REVOCATION_CALIBRATION
    model = calibration_refit.revocation_model()
    # Observed cells are replaced, unobserved cells keep the stock values.
    observed = set(calibration_refit.calibration)
    for cell, params in model._calibration.items():
        if cell in observed:
            assert params == calibration_refit.calibration[cell]
        else:
            assert params == REVOCATION_CALIBRATION[cell]
    calibration_refit.step_time_model()  # anchors valid for every GPU


def test_calibration_scenario_validation():
    with pytest.raises(ConfigurationError):
        calibration_scenario(jobs_per_cell=1)
    with pytest.raises(ConfigurationError):
        calibration_scenario(total_steps=150)
    with pytest.raises(ConfigurationError):
        calibration_scenario(stagger_hours=-1.0)


# ---------------------------------------------------------------------------
# The tilted likelihood: batched sums == the per-row loops they replaced,
# bit for bit (compared on this machine, not against a frozen refit).
# ---------------------------------------------------------------------------
REFIT = importlib.import_module("repro.telemetry.recalibrate")
WEIBULL_SHAPES = (0.35, 0.8, 1.0, 1.7, 3.2)
WEIBULL_SCALES = (0.4, 2.5, 9.0, 40.0)


def _tilt_profile(seed):
    tilt = np.random.default_rng(seed).uniform(0.0, 2.0, size=24)
    tilt[[3, 4]] = 0.0  # forbidden hours
    return tilt


@pytest.mark.parametrize("shape", WEIBULL_SHAPES)
def test_tilt_normalizers_match_per_row_sums(shape):
    tilt = _tilt_profile(int(shape * 100))
    every_bin = np.arange(24)
    for scale in WEIBULL_SCALES:
        cap_mass = 1.0 - math.exp(-((MAX_TRANSIENT_LIFETIME_HOURS / scale)
                                    ** shape))
        batched = REFIT._tilt_normalizers(
            REFIT._grid_density(shape, scale, cap_mass),
            tilt[REFIT._GRID_HOUR_BINS[every_bin]])
        oracle = per_bin_normalizers(shape, scale, tilt, every_bin)
        assert np.array(batched).tobytes() == np.array(oracle).tobytes()


def test_tilted_fit_matches_the_per_row_likelihood(monkeypatch):
    rng = np.random.default_rng(8)
    lifetimes = rng.weibull(1.3, size=600) * 7.0
    lifetimes = lifetimes[lifetimes < MAX_TRANSIENT_LIFETIME_HOURS]
    launch_bins = rng.integers(0, 24, size=lifetimes.size)
    launch_bins[launch_bins == 13] = 12  # not every launch bin occurs
    tilt = _tilt_profile(8)
    batched = REFIT._fit_truncated_weibull(lifetimes, launch_bins, tilt)
    monkeypatch.setattr(REFIT, "_tilt_normalizers", per_row_normalizers)
    assert REFIT._fit_truncated_weibull(lifetimes, launch_bins,
                                        tilt) == batched


def test_hour_distribution_matches_add_at():
    for shape in WEIBULL_SHAPES:
        for scale in WEIBULL_SCALES:
            for launch_bin in range(24):
                got = REFIT._base_hour_distribution(shape, scale, launch_bin)
                oracle = add_at_hour_distribution(shape, scale, launch_bin)
                assert got.tobytes() == oracle.tobytes()


# ---------------------------------------------------------------------------
# Serve: the recalibrate op.
# ---------------------------------------------------------------------------
def _perturbed_result():
    from repro.cloud.revocation import RevocationCellParams
    return RecalibrationResult(
        calibration={("k80", "us-east1"): RevocationCellParams(0.6, 1.2, 6.0)},
        hourly_weights={"k80": tuple([1.0] * 24)})


def test_service_recalibrate_swaps_advisor_and_drops_cache():
    service = PlacementService(samples_per_option=50)
    query = PlacementQuery(gpu_name="k80", duration_hours=8.0,
                           hour_of_day_utc=3.0)
    before = service.answer_now(query)
    summary = service.recalibrate(_perturbed_result())
    assert summary["calibration_epoch"] == 1
    stats = service.stats()
    assert stats["recalibrations"] == 1
    assert stats["calibration_epoch"] == 1
    assert stats["cached_decisions"] == 0
    assert stats["cache_invalidations"] == 1
    after = service.answer_now(query)
    # The refit makes us-east1 K80s much worse; the decision must move.
    assert after.to_params() != before.to_params()


def test_transport_recalibrate_op():
    service = PlacementService(samples_per_option=50)
    document = {"op": "recalibrate",
                "calibration": _perturbed_result().to_params()}
    result = asyncio.run(handle_request(service, document))
    assert result["calibration_epoch"] == 1
    assert result["cells_refit"] == 1
    with pytest.raises(Exception, match="recalibrate requires"):
        asyncio.run(handle_request(service, {"op": "recalibrate"}))
    with pytest.raises(Exception, match="recalibrate"):
        asyncio.run(handle_request(service, {"op": "bogus"}))


# ---------------------------------------------------------------------------
# CLI: export + recalibrate subcommands.
# ---------------------------------------------------------------------------
def test_cli_export_then_recalibrate(tmp_path, capsys):
    artifact = str(tmp_path / "cal.npz")
    refit_json = str(tmp_path / "refit.json")
    assert telemetry_cli(["export", "telemetry_calibration",
                          "--jobs-per-cell", "4", "--out", artifact,
                          "--seed", "1"]) == 0
    assert "exported telemetry for 24 jobs" in capsys.readouterr().out
    assert telemetry_cli(["recalibrate", artifact,
                          "--json", refit_json]) == 0
    with open(refit_json, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    # 24 jobs is far below min_cell_draws: no revocation cells refit, but
    # the step-time anchors still recover from the step chunks.
    assert document["calibration"] == {}
    assert set(document["anchors"]) == {"k80", "p100", "v100"}


def test_cli_rejects_unknown_scenario(tmp_path, capsys):
    status = telemetry_cli(["export", "nope",
                            "--out", str(tmp_path / "x.npz")])
    assert status == 1
    assert "unknown scenario" in capsys.readouterr().err
