"""The three benchmark workloads and their input generators.

Each workload is a class with ``setup()`` (untimed here; ``setup_s`` is
measured separately in fresh interpreters, see ``run.py``), ``iterate()``
(one timed unit of work; the runner repeats it for ``--seconds``),
``check()`` (output checks, outside the timed region) and ``summarize()``
(end-to-end metrics).  The generators are copied here on purpose rather
than imported from ``benchmarks/``: those scripts exercise reference-only
code paths that are due to be deleted.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from hostclock import host_factor, reference_kernel, timed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 0

with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as _handle:
    #: Output digests for the default seed at full size.
    PINS: Dict[str, Dict[str, str]] = json.load(_handle)


def digest(document: Any) -> str:
    """sha256 of a JSON document in canonical form."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def median(values: List[float]) -> float:
    return float(statistics.median(values))


class Checks:
    """Collects output-check failures (each one counts as a failed op)."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


def check_fleet_payload(checks: Checks, payload: Dict[str, Any],
                        label: str) -> None:
    """Seed-independent invariants of a fleet payload."""
    total = payload["jobs_total"]
    checks.expect(payload["jobs_completed"] + payload["jobs_stalled"] == total,
                  f"{label}: completed + stalled != {total} jobs")
    for job in payload["jobs"]:
        if job["completed"]:
            checks.expect(job["steps_done"] == job["total_steps"],
                          f"{label}: job {job['name']} completed with "
                          f"{job['steps_done']}/{job['total_steps']} steps")


# ---------------------------------------------------------------------------
# storm_fleet
# ---------------------------------------------------------------------------
def scaled_storm(jobs: int, total_steps: int):
    """``revocation_storm`` scaled to ``jobs`` jobs.

    Job shape, region, launch hour, queueing and the pool-per-job ratio
    match the named scenario (3 jobs on a 12-slot pool); only the job
    count and steps per job are scaled.
    """
    from repro.scenarios.spec import JobSpec, ScenarioSpec

    specs = tuple(
        JobSpec(name=f"storm-{index}", model_name="resnet_15",
                total_steps=total_steps,
                workers=(("k80", "europe-west1"),) * 3,
                checkpoint_interval_steps=4000,
                queue_replacements=True)
        for index in range(jobs))
    return ScenarioSpec(
        name=f"revocation_storm_x{jobs}",
        description=f"revocation_storm scaled to {jobs} jobs",
        jobs=specs,
        pool_capacity={("k80", "europe-west1"): 4 * jobs},
        reclaim_seconds=1200.0,
        epoch_hour_utc=8.5)


class StormFleet:
    """One 100-job revocation_storm fleet per iteration, single process."""

    name = "storm_fleet"
    SIZES = {"full": {"jobs": 100, "total_steps": 10_000},
             "tiny": {"jobs": 6, "total_steps": 1_000}}

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed, self.size = seed, size
        self.config = self.SIZES[size]
        self.walls: List[float] = []
        self.rates: List[float] = []
        self.payload_digests: List[str] = []
        self.checks = Checks()
        self.attempted = 0

    def setup(self) -> None:
        import repro.scenarios.fleet  # noqa: F401 - the import is set-up
        self.scenario = scaled_storm(**self.config)

    def iterate(self) -> float:
        import repro.scenarios.fleet as fleet

        self.attempted += 1
        result, wall = timed(lambda: fleet.run_scenario(
            self.scenario, replicates=1, seed=self.seed, workers=1))
        payload = result.payloads()[0]
        steps = sum(job["steps_done"] for job in payload["jobs"])
        self.walls.append(wall)
        self.rates.append(steps / wall)
        self.payload_digests.append(digest(payload))
        check_fleet_payload(self.checks, payload, "storm_fleet")
        return wall

    def check(self) -> None:
        self.checks.expect(len(set(self.payload_digests)) == 1,
                           "storm_fleet: payload differs between iterations")
        if self.seed == DEFAULT_SEED and self.size == "full":
            self.checks.expect(
                self.payload_digests[0] == PINS["storm_fleet"]["payload"],
                "storm_fleet: payload sha256 differs from the pin")

    def summarize(self) -> Tuple[Dict[str, float], Dict[str, Tuple[float, str]]]:
        rate, wall = median(self.rates), median(self.walls)
        named = {"sim_steps_per_s": (rate, "steps/s"),
                 "fleet_wall_s": (wall, "s")}
        return {"rate_per_s": rate, "latency_ms": wall * 1e3}, named


# ---------------------------------------------------------------------------
# calibration_pipeline
# ---------------------------------------------------------------------------
class CalibrationPipeline:
    """Export (2 shards) -> fleet_report -> recalibrate, per iteration."""

    name = "calibration_pipeline"
    SIZES = {"full": {"jobs_per_cell": 40, "total_steps": 1_000},
             "tiny": {"jobs_per_cell": 30, "total_steps": 300}}
    SHARDS = 2

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed, self.size = seed, size
        self.config = self.SIZES[size]
        self.artifact = os.path.join(workdir, "calibration.npz")
        self.export_rates: List[float] = []
        self.report_walls: List[float] = []
        self.recal_walls: List[float] = []
        self.digests: List[Tuple[str, str, str]] = []
        self.checks = Checks()
        self.attempted = 0

    def setup(self) -> None:
        import repro.telemetry as telemetry

        self.scenario = telemetry.calibration_scenario(**self.config)
        # The parent, its forked shard children and the reference kernel
        # share one CPU, so the kernel measures the CPU the export runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def iterate(self) -> float:
        import repro.telemetry as telemetry

        payload, wall = timed(lambda: telemetry.export_fleet_telemetry(
            self.scenario, self.artifact, seed=self.seed, shards=self.SHARDS))
        self.attempted += 1
        steps = sum(job["steps_done"] for job in payload["jobs"])
        self.export_rates.append(steps / wall)
        check_fleet_payload(self.checks, payload, "calibration_pipeline")
        report, report_s = timed(lambda: self._analyse(telemetry.fleet_report))
        params, recal_s = timed(lambda: self._analyse(
            telemetry.recalibrate).to_params())
        self.attempted += 2
        self.report_walls.append(report_s)
        self.recal_walls.append(recal_s)
        fleet = report["fleet"]
        self.checks.expect(fleet["jobs"] == payload["jobs_total"],
                           "calibration_pipeline: report job count")
        self.checks.expect(fleet["steps_total"] == steps,
                           "calibration_pipeline: report steps != payload steps")
        report = dict(report)
        report.pop("artifact")  # a path, not a result
        self.digests.append((file_digest(self.artifact), digest(report),
                             digest(params)))
        return wall + report_s + recal_s

    def _analyse(self, analysis):
        import repro.telemetry as telemetry

        with telemetry.TelemetryReader(self.artifact) as reader:
            return analysis(reader)

    def check(self) -> None:
        self.checks.expect(len(set(self.digests)) == 1,
                           "calibration_pipeline: outputs differ between "
                           "iterations")
        if self.seed == DEFAULT_SEED and self.size == "full":
            pins = PINS["calibration_pipeline"]
            npz, report, params = self.digests[0]
            self.checks.expect(npz == pins["npz"],
                               "calibration_pipeline: npz sha256 differs")
            self.checks.expect(report == pins["report"],
                               "calibration_pipeline: fleet_report differs")
            self.checks.expect(params == pins["recalibration"],
                               "calibration_pipeline: recalibration differs")

    def summarize(self):
        report_s, recal_s = median(self.report_walls), median(self.recal_walls)
        rate = median(self.export_rates)
        named = {"sim_steps_per_s": (rate, "steps/s"),
                 "report_s": (report_s, "s"),
                 "recalibrate_s": (recal_s, "s")}
        return {"rate_per_s": rate,
                "latency_ms": (report_s + recal_s) * 1e3}, named


# ---------------------------------------------------------------------------
# placement_wire
# ---------------------------------------------------------------------------
GPUS = ("k80", "p100", "v100")
DURATIONS = tuple(float(hours) for hours in range(1, 25))
UTC_HOURS = tuple(hour / 2.0 for hour in range(48))

#: Calibration fleet behind the fixed ``recalibrate`` document.
DOC_FLEET = {"jobs_per_cell": 40, "total_steps": 300}


def query_grid(seed: int) -> List[Dict[str, Any]]:
    """Every (gpu, duration, half-hour) live-mode query, in a seeded order."""
    from repro.modeling.placement import PlacementQuery

    grid = [PlacementQuery(gpu_name=gpu, duration_hours=duration,
                           hour_of_day_utc=hour).to_params()
            for gpu in GPUS for duration in DURATIONS for hour in UTC_HOURS]
    order = np.random.default_rng(seed).permutation(len(grid))
    return [grid[int(index)] for index in order]


def calibration_document(workdir: str) -> Dict[str, Any]:
    """A fixed ``RecalibrationResult.to_params()`` document."""
    import repro.telemetry as telemetry

    path = os.path.join(workdir, "doc.npz")
    telemetry.export_fleet_telemetry(
        telemetry.calibration_scenario(**DOC_FLEET), path, seed=0, shards=1)
    with telemetry.TelemetryReader(path) as reader:
        return telemetry.recalibrate(reader).to_params()


class Server:
    """A placement server subprocess (``repro-serve serve --port 0``)."""

    def __init__(self, trace_path: Optional[str] = None):
        if trace_path is None:
            command = [sys.executable, "-u", "-m", "repro.serve", "serve",
                       "--port", "0"]
        else:
            command = [sys.executable, "-u",
                       os.path.join(HERE, "serve_launcher.py"), trace_path,
                       "--port", "0"]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT)
        self.address: Optional[Tuple[str, int]] = None

    def wait_ready(self, timeout: float = 60.0) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.process.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith("serving placement queries on "):
                host, _, port = line.split()[4].rpartition(":")
                self.address = (host, int(port))
                return self.address
        raise RuntimeError("placement server did not come up: " + self.stop())

    def stop(self) -> str:
        """SIGTERM (graceful drain), wait, and return the server's stderr."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            _, errors = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            _, errors = self.process.communicate()
        return errors.decode("utf-8", "replace")


class Connection:
    """One persistent client connection, closed-loop (lock-step)."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        #: (kind, round-trip seconds) per request, in send order.
        self.log: List[Tuple[str, float]] = []

    async def call(self, line: bytes, kind: str) -> bytes:
        started = time.perf_counter()
        self.writer.write(line)
        response = await self.reader.readline()
        self.log.append((kind, time.perf_counter() - started))
        return response


class PlacementWire:
    """Two connections to one server: answer phase, then batch phase."""

    name = "placement_wire"
    SIZES = {"full": {"answers_per_connection": 1500, "batches": 16,
                      "batch_size": 256, "sample_every": 61},
             "tiny": {"answers_per_connection": 150, "batches": 2,
                      "batch_size": 32, "sample_every": 7}}
    #: Seconds one round may take before it counts as failed.
    ROUND_TIMEOUT_S = 120.0

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.config = self.SIZES[size]
        self.checks = Checks()
        self.attempted = 0
        self.rounds: List[Dict[str, Any]] = []
        self.samples: List[Tuple[Dict[str, Any], bytes]] = []
        self.server: Optional[Server] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.cpus: Optional[set] = None
        self.connections: List[Connection] = []
        self.cursor = 0
        self.queries_sent = 0

    # -- set-up ----------------------------------------------------------------
    def start(self, trace_path: Optional[str] = None) -> None:
        """Start a server and build the calibration document alongside."""
        self.server = Server(trace_path)
        self.document = calibration_document(self.workdir)
        self.server.wait_ready()

    def setup(self) -> None:
        if self.server is None:
            self.start()
        self.grid = query_grid(self.seed)
        self.lines = [json.dumps({"op": "answer", "query": query}).encode()
                      + b"\n" for query in self.grid]
        self.recalibrate_line = json.dumps(
            {"op": "recalibrate", "calibration": self.document}).encode() + b"\n"
        # Client and server share one CPU: the reference kernel, run by
        # the client, then measures the CPU the server computes on, and
        # lock-step round trips never wait for a wake-up on another CPU.
        self.cpus = os.sched_getaffinity(0)
        cpu = {min(self.cpus)}
        os.sched_setaffinity(0, cpu)
        os.sched_setaffinity(self.server.process.pid, cpu)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._connect())

    async def _connect(self) -> None:
        from repro.serve.transport import MAX_LINE_BYTES

        host, port = self.server.address
        # The traced server numbers connections in accept order, so A is
        # connected and answered before B connects.
        for _ in range(2):
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES)
            connection = Connection(reader, writer)
            self.connections.append(connection)
            await self._ok(connection, b'{"op": "health"}\n', "health")

    async def _ok(self, connection: Connection, line: bytes, kind: str
                  ) -> Dict[str, Any]:
        self.attempted += 1
        response = json.loads(await connection.call(line, kind))
        self.checks.expect(response.get("ok") is True,
                           f"placement_wire: {kind} failed: {response}")
        return response.get("result")

    def _expect_ok(self, response: bytes, kind: str) -> bool:
        if response.startswith(b'{"ok": true'):
            return True
        self.checks.failures.append(
            f"placement_wire: {kind} failed: {response[:200]!r}")
        return False

    # -- one round ---------------------------------------------------------------
    async def _answers(self, connection: Connection, positions: List[int],
                       rtts: List[float]) -> None:
        every = self.config["sample_every"]
        lines, grid, samples = self.lines, self.grid, self.samples
        call = connection.call
        for count, position in enumerate(positions):
            response = await call(lines[position], "answer")
            rtts.append(connection.log[-1][1])
            if self._expect_ok(response, "answer") and count % every == 0:
                samples.append((grid[position], response))

    async def _round(self) -> Dict[str, Any]:
        a, b = self.connections
        per = self.config["answers_per_connection"]
        size = len(self.grid)
        first = self.cursor
        self.cursor += 2 * per
        positions = [(first + offset) % size for offset in range(2 * per)]
        rtts: List[float] = []

        before = reference_kernel()
        started = time.perf_counter()
        await self._ok(b, self.recalibrate_line, "recalibrate")
        await asyncio.gather(self._answers(a, positions[0::2], rtts),
                             self._answers(b, positions[1::2], rtts))
        answered = time.perf_counter()
        between = reference_kernel()
        self.attempted += 2 * per
        self.queries_sent += 2 * per

        batch_size = self.config["batch_size"]
        batch_started = time.perf_counter()
        for batch in range(self.config["batches"]):
            start = (self.cursor + batch * batch_size) % size
            queries = [self.grid[(start + offset) % size]
                       for offset in range(batch_size)]
            line = json.dumps({"op": "answer_many",
                               "queries": queries}).encode() + b"\n"
            self.attempted += 1
            response = await a.call(line, "answer_many")
            if self._expect_ok(response, "answer_many") and batch == 0:
                results = json.loads(response)["result"]
                self.samples.extend(
                    (query, json.dumps({"ok": True, "result": result}).encode())
                    for query, result in zip(queries[::7], results[::7]))
        batched = time.perf_counter()
        after = reference_kernel()
        self.cursor += self.config["batches"] * batch_size
        self.queries_sent += self.config["batches"] * batch_size
        stats = await self._ok(a, b'{"op": "stats"}\n', "stats")
        return {"answer_wall": answered - started,
                "answer_factor": host_factor(before, between),
                "answers": 2 * per, "rtts": rtts,
                "batch_wall": batched - batch_started,
                "batch_factor": host_factor(between, after),
                "batch_queries": self.config["batches"] * batch_size,
                "options_built": stats["score_options_built"],
                "epoch": stats["calibration_epoch"],
                "cache_hits": stats["cache_hits"],
                "queries_answered": stats["queries_answered"]}

    def iterate(self) -> float:
        round_ = self.loop.run_until_complete(
            asyncio.wait_for(self._round(), timeout=self.ROUND_TIMEOUT_S))
        self.rounds.append(round_)
        return (round_["answer_wall"] * round_["answer_factor"]
                + round_["batch_wall"] * round_["batch_factor"])

    def close(self) -> None:
        """Close the connections and stop the server (safe after a failed
        start)."""
        for connection in self.connections:
            connection.writer.close()
        if self.loop is not None:
            self.loop.run_until_complete(asyncio.sleep(0))
            self.loop.close()
        if self.cpus is not None:
            os.sched_setaffinity(0, self.cpus)
        if self.server is not None:
            self.server.stop()

    # -- checks and metrics --------------------------------------------------------
    def check(self) -> None:
        from repro.modeling.launch_advisor import LaunchAdvisor
        from repro.modeling.placement import PlacementQuery
        from repro.serve.service import PlacementService
        from repro.telemetry.recalibrate import RecalibrationResult

        # In-process reference under the same calibration epoch: the
        # server's default advisor after the fixed recalibrate document.
        service = PlacementService(advisor=LaunchAdvisor(
            samples_per_option=400, seed=0))
        service.recalibrate(RecalibrationResult.from_params(self.document))
        for query, response in self.samples:
            expected = service.answer_now(
                PlacementQuery.from_params(query)).to_params()
            wire = json.loads(response)["result"]
            self.checks.expect(
                json.loads(json.dumps(expected)) == wire,
                f"placement_wire: wire decision differs from in-process "
                f"answer for {query}")
        for index, round_ in enumerate(self.rounds, start=1):
            self.checks.expect(round_["epoch"] == index,
                               "placement_wire: calibration epoch mismatch")
            self.checks.expect(round_["options_built"] > 0,
                               "placement_wire: no options rebuilt after "
                               "recalibrate")
        if self.rounds:
            self.checks.expect(
                self.rounds[-1]["queries_answered"] == self.queries_sent,
                f"placement_wire: server answered "
                f"{self.rounds[-1]['queries_answered']} queries, "
                f"{self.queries_sent} sent")

    def summarize(self):
        # Pooled over rounds; each phase's times are scaled by the host
        # factor measured around that phase.
        rounds = self.rounds
        rtts = np.concatenate([np.asarray(r["rtts"]) * r["answer_factor"]
                               for r in rounds])
        qps = (sum(r["answers"] for r in rounds)
               / sum(r["answer_wall"] * r["answer_factor"] for r in rounds))
        batch_qps = (sum(r["batch_queries"] for r in rounds)
                     / sum(r["batch_wall"] * r["batch_factor"]
                           for r in rounds))
        p50, p99 = (float(value) for value in np.percentile(rtts, [50, 99]))
        named = {"answer_qps": (qps, "queries/s"),
                 "answer_p50_us": (p50 * 1e6, "us"),
                 "answer_p99_us": (p99 * 1e6, "us"),
                 "batch_qps": (batch_qps, "queries/s"),
                 "answer_samples": (len(rtts), "count")}
        return {"rate_per_s": qps, "latency_ms": p99 * 1e3}, named


WORKLOADS = {cls.name: cls for cls in (StormFleet, CalibrationPipeline,
                                       PlacementWire)}
