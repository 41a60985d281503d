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
import json

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import PlacementQuery
from repro.scenarios.pool import TransientPool
from repro.serve.service import PlacementService
from repro.serve.transport import (
    IDEMPOTENT_OPS,
    ServerConfig,
    TransportError,
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
