"""The online placement service (`repro.serve`) and its transport.

The serving invariants the ISSUE names:

* ``answer_many`` is bit-identical to the same queries issued as
  sequential singles;
* a decision cached at one pool version is structurally unservable after
  the pool moves (stale epochs never leak);
* answers are deterministic under a fixed advisor seed;
* the JSON-lines TCP transport round-trips queries, batches, and stats,
  and answers malformed input with an error line instead of dying.
"""

import asyncio
import gc
import json
import os
import pathlib
import signal
import socket
import struct
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import PlacementQuery
from repro.scenarios.pool import TransientPool
from repro.serve.service import PlacementService
from repro.serve.transport import (
    IDEMPOTENT_OPS,
    MAX_BATCH_QUERIES,
    MAX_LINE_BYTES,
    ServerConfig,
    TransportError,
    drain,
    handle_request,
    request,
    request_with_retry,
    serve_address,
    server_state,
    start_server,
)
from repro.simulation.engine import Simulator

SAMPLES = 50


def make_pool():
    return TransientPool(Simulator(), {("k80", "us-west1"): 2,
                                       ("k80", "europe-west1"): 2})


def make_service(pool=None, seed=0):
    advisor = LaunchAdvisor(samples_per_option=SAMPLES, seed=seed)
    return PlacementService(advisor=advisor, pool=pool)


def queries(count=12):
    return [PlacementQuery(gpu_name="k80",
                           duration_hours=float(1 + index % 4),
                           hour_of_day_utc=float((index * 5) % 24))
            for index in range(count)]


# ---------------------------------------------------------------------------
# Service invariants.
# ---------------------------------------------------------------------------
def test_batch_is_bit_identical_to_sequential_singles():
    batch = asyncio.run(make_service(make_pool()).answer_many(queries()))

    async def singles():
        service = make_service(make_pool())
        return [await service.answer(query) for query in queries()]

    assert batch == asyncio.run(singles())


def test_answers_are_deterministic_under_a_fixed_seed():
    first = asyncio.run(make_service(make_pool(), seed=4).answer_many(
        queries()))
    second = asyncio.run(make_service(make_pool(), seed=4).answer_many(
        queries()))
    assert first == second


def test_stale_epoch_decisions_are_never_served():
    pool = make_pool()
    service = make_service(pool)
    query = queries(1)[0]
    before = service.answer_now(query)
    assert before.pool_version == pool.version
    assert service.answer_now(query) is before  # cached within the epoch

    pool.acquire("k80", "us-west1")  # any transition bumps the version
    after = service.answer_now(query)
    assert after is not before
    assert after.pool_version == pool.version > before.pool_version
    assert service.cache_invalidations == 1
    assert service.stats()["cached_decisions"] == 1  # only the new epoch's
    # The transition consumed a slot, so feasibility actually moved too.
    taken = {option.region_name: option.acquirable
             for option in after.options}
    assert taken["us-west1"] == 1


def test_poolless_service_caches_forever():
    service = make_service(pool=None)
    query = queries(1)[0]
    first = service.answer_now(query)
    assert service.answer_now(query) is first
    assert first.pool_version is None
    assert service.cache_hits == 1 and service.cache_invalidations == 0


def test_answer_now_rejects_non_queries():
    with pytest.raises(ConfigurationError, match="PlacementQuery"):
        make_service().answer_now({"gpu_name": "k80"})


def test_warm_builds_the_full_table_and_steady_state_stays_warm():
    service = make_service(make_pool())
    built = service.warm()
    assert built == len(
        service.advisor.score_table.available_cells()) * 24
    asyncio.run(service.answer_many(queries()))
    assert service.stats()["score_options_built"] == built


def test_stats_counters():
    service = make_service(make_pool())
    asyncio.run(service.answer_many(queries(6) + queries(6)))
    stats = service.stats()
    assert stats["queries_answered"] == 12
    assert stats["cache_hits"] == 6
    assert stats["cached_decisions"] == 6
    assert stats["pool_version"] == service.pool.version


# ---------------------------------------------------------------------------
# Transport.
# ---------------------------------------------------------------------------
def test_handle_request_rejects_unknown_ops():
    with pytest.raises(ReproError, match="unknown op"):
        asyncio.run(handle_request(make_service(), {"op": "launch_missiles"}))


def test_tcp_round_trip_matches_in_process_answers():
    async def scenario():
        pool = make_pool()
        service = make_service(pool)
        server = await start_server(service)
        host, port = serve_address(server)
        try:
            documents = [{"op": "answer", "query": queries(1)[0].to_params()},
                         {"op": "answer_many",
                          "queries": [q.to_params() for q in queries(4)]},
                         {"op": "stats"}]
            responses = await request(host, port, documents)
        finally:
            server.close()
            await server.wait_closed()
        return service, responses

    service, responses = asyncio.run(scenario())
    single, batch, stats = responses
    assert single["ok"] and batch["ok"] and stats["ok"]
    # The wire decisions are the in-process decisions' wire format (the
    # cache answers the repeated first query, so numbers line up exactly).
    reference = make_service(make_pool())
    expected = asyncio.run(reference.answer_many(queries(4)))
    assert batch["result"] == [decision.to_params()
                               for decision in expected]
    assert single["result"] == expected[0].to_params()
    assert stats["result"]["queries_answered"] == 5
    # JSON round-tripped cleanly (no numpy scalars leaked).
    json.dumps(responses)


def test_tcp_errors_answer_error_lines_without_killing_the_stream():
    async def scenario():
        server = await start_server(make_service())
        host, port = serve_address(server)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            lines = [b"this is not json\n",
                     json.dumps({"op": "bogus"}).encode() + b"\n",
                     json.dumps({"op": "answer",
                                 "query": {"gpu_name": "k80"}}).encode()
                     + b"\n",
                     json.dumps({"op": "answer", "query": {
                         "gpu_name": "k80", "duration_hours": 1.0,
                         "hour_of_day_utc": 9.0}}).encode() + b"\n"]
            writer.write(b"".join(lines))
            await writer.drain()
            responses = [json.loads(await reader.readline())
                         for _ in lines]
            writer.close()
        finally:
            server.close()
            await server.wait_closed()
        return responses

    bad_json, bad_op, bad_query, good = asyncio.run(scenario())
    assert not bad_json["ok"] and bad_json["code"] == "bad_request"
    assert not bad_op["ok"] and "unknown op" in bad_op["error"]
    assert not bad_query["ok"]
    # The stream survived three bad requests and still answers good ones.
    assert good["ok"] and good["result"]["options"]


def test_tcp_answers_bad_request_for_non_finite_query_fields():
    base = {"gpu_name": "k80", "duration_hours": 1.0, "hour_of_day_utc": 9.0}
    bad = [dict(base, duration_hours=float("nan")),
           dict(base, hour_of_day_utc=float("inf")),
           {"gpu_name": "k80", "duration_hours": 1.0,
            "launch_hours": [8, float("-inf")]}]

    async def scenario():
        server = await start_server(make_service())
        host, port = serve_address(server)
        try:
            # json.dumps writes the NaN / Infinity tokens a lenient client
            # would send; the server must not answer them with a decision.
            return await request(host, port, [{"op": "answer", "query": query}
                                              for query in bad])
        finally:
            server.close()
            await server.wait_closed()

    responses = asyncio.run(scenario())
    for response, field in zip(responses, ("duration_hours",
                                           "hour_of_day_utc",
                                           "launch_hours")):
        assert not response["ok"] and response["code"] == "bad_request"
        assert field in response["error"]


def test_tcp_answers_bad_request_naming_a_mistyped_field():
    async def scenario():
        server = await start_server(make_service())
        host, port = serve_address(server)
        try:
            return await request(host, port, [
                {"op": "answer", "query": {"gpu_name": ["k80"],
                                           "duration_hours": 1.0,
                                           "hour_of_day_utc": 9.0}}])
        finally:
            server.close()
            await server.wait_closed()

    response = asyncio.run(scenario())[0]
    assert not response["ok"] and response["code"] == "bad_request"
    assert "gpu_name" in response["error"]


# ---------------------------------------------------------------------------
# Hardening: health, timeouts, backpressure, retries (PR 9).
# ---------------------------------------------------------------------------
def test_service_health_reports_uptime_and_epoch():
    service = make_service(make_pool())
    asyncio.run(service.answer_many(queries(3)))
    document = service.health()
    assert document["status"] == "ok"
    assert document["uptime_seconds"] >= 0.0
    assert document["calibration_epoch"] == 0
    assert document["queries_answered"] == 3
    assert document["cached_decisions"] == 3
    json.dumps(document)


def test_health_op_merges_transport_queue_depth():
    async def scenario():
        server = await start_server(
            make_service(), config=ServerConfig(max_connections=7))
        host, port = serve_address(server)
        try:
            return await request(host, port, [{"op": "health"}])
        finally:
            server.close()
            await server.wait_closed()

    response = asyncio.run(scenario())[0]
    assert response["ok"]
    document = response["result"]
    assert document["status"] == "ok"
    assert document["connections"] == 1  # the probing connection itself
    assert document["in_flight"] == 1    # the health request itself
    assert document["max_connections"] == 7
    assert document["requests_seen"] == 1


def test_server_config_validation():
    with pytest.raises(ConfigurationError):
        ServerConfig(request_timeout=0)
    with pytest.raises(ConfigurationError):
        ServerConfig(max_connections=0)


def test_non_finite_request_timeout_is_a_one_line_diagnostic(capsys):
    from repro.serve.cli import main

    for value in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="request_timeout"):
            ServerConfig(request_timeout=value)
    code = main(["serve", "--request-timeout", "nan", "--port", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: request_timeout")
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""


def test_slow_dispatch_answers_a_timeout_error_line(monkeypatch):
    """A hung dispatch (chaos serve_hang) burns the real wait_for window
    and answers a structured 'timeout' line; the server stays up."""
    monkeypatch.setenv("REPRO_CHAOS", "serve_hang:at=1,seconds=30")

    async def scenario():
        server = await start_server(
            make_service(), config=ServerConfig(request_timeout=0.2))
        host, port = serve_address(server)
        try:
            return await request(host, port,
                                 [{"op": "stats"}, {"op": "stats"}],
                                 timeout=10.0)
        finally:
            server.close()
            await server.wait_closed()

    hung, healthy = asyncio.run(scenario())
    assert not hung["ok"] and hung["code"] == "timeout"
    assert "timed out" in hung["error"]
    assert healthy["ok"], "the connection must survive a timed-out request"


def test_connection_cap_answers_overloaded_and_recovers():
    async def scenario():
        server = await start_server(
            make_service(), config=ServerConfig(max_connections=1))
        host, port = serve_address(server)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({"op": "stats"}).encode() + b"\n")
            await writer.drain()
            await reader.readline()  # the slot is now held open
            # A second connection is rejected with one structured line.
            reader2, writer2 = await asyncio.open_connection(host, port)
            rejected = json.loads(await reader2.readline())
            assert (await reader2.readline()) == b""  # then closed
            writer2.close()
            # Releasing the slot lets new connections through again.
            writer.close()
            await writer.wait_closed()
            recovered = await request(host, port, [{"op": "stats"}])
            state = server_state(server)
            return rejected, recovered[0], state.rejected_connections
        finally:
            server.close()
            await server.wait_closed()

    rejected, recovered, rejections = asyncio.run(scenario())
    assert not rejected["ok"] and rejected["code"] == "overloaded"
    assert recovered["ok"]
    assert rejections == 1


def test_drain_closes_idle_connections():
    """After the drain window the server closes connections a client left
    open: the client reads EOF, no handler is left, and wait_closed()
    returns (it waits for open connections from Python 3.12 on)."""
    async def scenario():
        server = await start_server(make_service())
        host, port = serve_address(server)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(json.dumps({"op": "health"}).encode() + b"\n")
        await writer.drain()
        assert json.loads(await reader.readline())["ok"]
        state = await drain(server, 0.5)
        tail = await asyncio.wait_for(reader.read(), 5)
        writer.close()
        await asyncio.wait_for(server.wait_closed(), 5)
        return state, tail

    state, tail = asyncio.run(scenario())
    assert tail == b""
    assert state.connections == 0 and state.in_flight == 0
    assert state.requests_seen == 1


def test_sigterm_closes_idle_connections_and_exits_cleanly():
    """SIGTERM while a client holds an idle connection: the drain closes
    it, so the handler leaves through EOF instead of being cancelled
    mid-read (a CancelledError traceback on 3.11, a hang from 3.12 on)."""
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "serve", "--port", "0",
         "--no-warm"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        banner = server.stdout.readline()
        host, _, port = banner.split()[4].rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as client:
            client.sendall(b'{"op": "health"}\n')
            assert json.loads(client.makefile().readline())["ok"]
            server.send_signal(signal.SIGTERM)
            out, err = server.communicate(timeout=10)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0
    assert err == ""
    assert "drained: 1 requests served" in out


def test_injected_reset_raises_transport_error_without_retry(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "serve_reset:at=1")

    async def scenario():
        server = await start_server(make_service())
        host, port = serve_address(server)
        try:
            with pytest.raises(TransportError, match="mid-response"):
                await request(host, port, [{"op": "stats"}])
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_retrying_client_converges_through_injected_resets(monkeypatch):
    """Two injected connection resets; the retrying client converges on
    the third attempt with the deterministic (seeded-jitter) backoff."""
    monkeypatch.setenv("REPRO_CHAOS", "serve_reset:at=1;serve_reset:at=2;seed=7")

    async def scenario():
        server = await start_server(make_service())
        host, port = serve_address(server)
        try:
            responses = await request_with_retry(
                host, port, [{"op": "stats"}], retries=3,
                backoff_seconds=0.01)
            return responses, server_state(server).requests_seen
        finally:
            server.close()
            await server.wait_closed()

    responses, seen = asyncio.run(scenario())
    assert responses[0]["ok"]
    assert seen == 3  # two resets + the answered attempt


def test_retry_reaches_a_server_that_comes_up_late():
    """Connect errors are retried: the server starts only after the first
    attempt has already failed."""
    async def scenario():
        service = make_service()
        probe = await start_server(service)
        host, port = serve_address(probe)
        probe.close()
        await probe.wait_closed()  # the port is now free and refusing

        server = None

        async def bring_up():
            nonlocal server
            await asyncio.sleep(0.15)
            server = await start_server(service, host=host, port=port)

        task = asyncio.ensure_future(bring_up())
        try:
            return await request_with_retry(
                host, port, [{"op": "stats"}], retries=5,
                backoff_seconds=0.05, jitter_seed=1)
        finally:
            await task
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario())[0]["ok"]


def test_non_idempotent_ops_get_exactly_one_attempt(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "serve_reset:at=1")
    assert "recalibrate" not in IDEMPOTENT_OPS

    async def scenario():
        server = await start_server(make_service())
        host, port = serve_address(server)
        try:
            with pytest.raises(TransportError):
                await request_with_retry(
                    host, port, [{"op": "recalibrate"}], retries=5,
                    backoff_seconds=0.01)
            return server_state(server).requests_seen
        finally:
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario()) == 1  # no second attempt happened


# ---------------------------------------------------------------------------
# Inline dispatch, the batch cap, and connection faults.
# ---------------------------------------------------------------------------
async def _until(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        await asyncio.sleep(0.01)


async def _exchange(host, port, documents):
    """:func:`request` without its client-side ``asyncio.wait_for``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b"".join(json.dumps(document).encode() + b"\n"
                              for document in documents))
        await writer.drain()
        return [json.loads(await reader.readline()) for _ in documents]
    finally:
        writer.close()
        await writer.wait_closed()


def test_sync_ops_answer_without_a_per_request_wait_for(monkeypatch):
    """No op awaits anything that can suspend, so without a chaos plan
    the handler awaits dispatch directly: every op still answers when
    ``asyncio.wait_for`` raises."""
    import repro.serve.transport as transport
    from repro.cloud.revocation import RevocationCellParams
    from repro.telemetry.recalibrate import RecalibrationResult

    def no_wait_for(*_args, **_kwargs):
        raise AssertionError("asyncio.wait_for on the request path")

    calibration = RecalibrationResult(
        calibration={("k80", "us-east1"): RevocationCellParams(0.6, 1.2, 6.0)},
        hourly_weights={"k80": tuple([1.0] * 24)}).to_params()
    documents = [{"op": "answer", "query": queries(1)[0].to_params()},
                 {"op": "answer_many",
                  "queries": [q.to_params() for q in queries(3)]},
                 {"op": "stats"}, {"op": "health"},
                 {"op": "recalibrate", "calibration": calibration}]

    async def scenario():
        server = await start_server(make_service())
        host, port = serve_address(server)
        try:
            monkeypatch.setattr(transport.asyncio, "wait_for", no_wait_for)
            return await _exchange(host, port, documents)
        finally:
            server.close()
            await server.wait_closed()

    responses = asyncio.run(scenario())
    assert [response["ok"] for response in responses] == [True] * 5, \
        responses
    assert responses[4]["result"]["calibration_epoch"] == 1


def test_a_pipelining_connection_does_not_starve_another():
    """Connection A pipelines 2,000 answers in one write, then B sends
    ``health``.  A buffered readline and an unpaused drain never yield,
    so the handler yields a loop turn after each response; without it the
    server took well over a thousand of A's requests before B's."""
    line = json.dumps({"op": "answer",
                       "query": queries(1)[0].to_params()}).encode() + b"\n"
    pipelined = 2000

    async def scenario():
        server = await start_server(make_service())
        host, port = serve_address(server)
        state = server_state(server)
        reader_a, writer_a = await asyncio.open_connection(host, port)
        reader_b, writer_b = await asyncio.open_connection(host, port)
        try:
            await _until(lambda: state.connections == 2)
            writer_a.write(line * pipelined)
            writer_b.write(b'{"op": "health"}\n')
            health = json.loads(await reader_b.readline())
            answers = [json.loads(await reader_a.readline())
                       for _ in range(pipelined)]
        finally:
            writer_a.close()
            writer_b.close()
            await _until(lambda: state.connections == 0)
            server.close()
            await server.wait_closed()
        return health, answers

    health, answers = asyncio.run(scenario())
    assert all(answer["ok"] for answer in answers)
    assert health["ok"]
    # requests_seen counts B's own request and every A request before it.
    taken_from_a = health["result"]["requests_seen"] - 1
    assert taken_from_a < pipelined // 4


def _reset(sock):
    """Close ``sock`` with a TCP reset instead of an orderly FIN."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()


def test_resets_and_over_long_lines_end_only_their_connection():
    """A peer reset (mid-request, or after the first byte of a 3,000-query
    reply) and a line over MAX_LINE_BYTES must not escape the handler to
    the loop's exception handler.  The long line is answered
    ``bad_request`` naming the limit, each connection is released, and
    the server keeps serving."""
    batch = {"op": "answer_many",
             "queries": [query.to_params() for query in queries(12)] * 250}

    async def scenario():
        loop = asyncio.get_running_loop()
        escaped = []
        loop.set_exception_handler(
            lambda _loop, context: escaped.append(context))
        server = await start_server(make_service())
        host, port = serve_address(server)
        state = server_state(server)

        async def connect(payload):
            sock = socket.socket()
            sock.setblocking(False)
            await loop.sock_connect(sock, (host, port))
            await loop.sock_sendall(sock, payload)
            return sock

        try:
            sock = await connect(b'{"op": "sta')
            await _until(lambda: state.connections == 1)
            _reset(sock)
            await _until(lambda: state.connections == 0)

            sock = await connect(json.dumps(batch).encode() + b"\n")
            assert await loop.sock_recv(sock, 1) == b"{"
            _reset(sock)
            await _until(lambda: state.connections == 0)

            sock = await connect(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = await loop.sock_recv(sock, 65536)
                assert chunk, f"EOF before a reply line: {reply!r}"
                reply += chunk
            sock.close()
            await _until(lambda: state.connections == 0)

            served = await _exchange(host, port, [{"op": "health"}])
            gc.collect()  # 3.9/3.10 report a lost task exception at GC
            await asyncio.sleep(0)
        finally:
            server.close()
            await server.wait_closed()
        return escaped, json.loads(reply), served[0]

    escaped, long_line, served = asyncio.run(scenario())
    assert escaped == []
    assert not long_line["ok"] and long_line["code"] == "bad_request"
    assert "MAX_LINE_BYTES" in long_line["error"]
    assert served["ok"] and served["result"]["connections"] == 1


def test_answer_many_takes_at_most_max_batch_queries():
    """A batch answers without a loop turn, so its size is capped; an
    oversized batch is refused before any query is parsed (the invalid
    documents here are never looked at), as is a non-list ``queries``."""
    document = queries(1)[0].to_params()
    service = make_service()
    at_cap = asyncio.run(handle_request(
        service, {"op": "answer_many",
                  "queries": [document] * MAX_BATCH_QUERIES}))
    assert len(at_cap) == MAX_BATCH_QUERIES

    async def scenario():
        server = await start_server(make_service())
        host, port = serve_address(server)
        try:
            return await request(host, port, [
                {"op": "answer_many",
                 "queries": [{"bogus": 1}] * (MAX_BATCH_QUERIES + 1)},
                {"op": "answer_many", "queries": {"gpu_name": "k80"}},
                {"op": "answer_many"},
                {"op": "answer_many", "queries": [document]}])
        finally:
            server.close()
            await server.wait_closed()

    over, mapping, missing, fine = asyncio.run(scenario())
    assert not over["ok"] and over["code"] == "bad_request"
    assert f"MAX_BATCH_QUERIES ({MAX_BATCH_QUERIES})" in over["error"]
    assert str(MAX_BATCH_QUERIES + 1) in over["error"]
    for refused in (mapping, missing):
        assert not refused["ok"] and refused["code"] == "bad_request"
        assert "'queries' list" in refused["error"]
    assert fine["ok"] and len(fine["result"]) == 1


def test_retry_rejects_negative_budget():
    with pytest.raises(ConfigurationError):
        asyncio.run(request_with_retry("127.0.0.1", 1, [{"op": "stats"}],
                                       retries=-1))


def test_query_connect_refused_is_a_one_line_diagnostic(capsys):
    from repro.serve.cli import main

    code = main(["query", "k80", "--duration", "2", "--utc-hour", "9",
                 "--connect", "127.0.0.1:1", "--retries", "0",
                 "--timeout", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot reach placement server")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


def test_query_connect_bad_address_is_an_argparse_error(capsys):
    from repro.serve.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["query", "k80", "--duration", "2",
                                   "--utc-hour", "9", "--connect", "nope"])
