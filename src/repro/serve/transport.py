"""JSON-lines TCP transport for the placement service.

Plain-stdlib :mod:`asyncio` framing: one request per line, one response
per line.  Requests are JSON objects with an ``op``:

* ``{"op": "answer", "query": {...}}`` — one
  :meth:`~repro.modeling.placement.PlacementQuery.to_params` document;
  responds with the decision's ``to_params()``.
* ``{"op": "answer_many", "queries": [{...}, ...]}`` — a batch of at
  most :data:`MAX_BATCH_QUERIES` queries, answered atomically
  (bit-identical to sequential singles).
* ``{"op": "stats"}`` — service counters.
* ``{"op": "health"}`` — liveness probe: service uptime, calibration
  epoch, and the transport's connection / in-flight queue depth.
* ``{"op": "recalibrate", "calibration": {...}}`` — one
  :meth:`~repro.telemetry.recalibrate.RecalibrationResult.to_params`
  document; swaps the advisor onto the refit calibration, bumps the
  calibration epoch, and drops every cached decision.

Every response line is ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": "...", "code": "..."}``; malformed input
answers an error line instead of killing the connection, so one bad
client request cannot take down the stream for the rest.  The one
exception is a line longer than :data:`MAX_LINE_BYTES`: it is answered
``bad_request`` and the connection is closed, because the rest of an
over-long line cannot be told apart from the next request.  A peer that
resets or drops its connection ends only that connection.  Error codes
are structural, not prose — clients branch on them:

``bad_request``
    The request itself is wrong (unknown op, malformed document, a batch
    over :data:`MAX_BATCH_QUERIES`, an over-long line).  Retrying
    verbatim can never succeed.
``timeout``
    An await in dispatch outran :attr:`ServerConfig.request_timeout`.
    Every op answers without suspending, so today only an injected
    ``serve_hang`` can.  The server stays up; the client may retry
    idempotent ops.
``overloaded``
    The connection cap (:attr:`ServerConfig.max_connections`) is hit;
    the server refuses the connection after answering this one line.
    Back off and retry.
``internal``
    An unexpected server-side failure; logged server-side, safe to
    retry idempotent ops.

Hardening knobs live on :class:`ServerConfig`; clients that need to
survive transient faults use :func:`request_with_retry`, which retries
connect errors, timeouts, mid-response closes, and ``overloaded``
replies with exponential backoff and seeded jitter — but only when every
op in the batch is idempotent (:data:`IDEMPOTENT_OPS`), because blindly
resending a ``recalibrate`` would double-apply it.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import chaos
from repro.errors import ConfigurationError, ReproError
from repro.modeling.placement import PlacementQuery
from repro.serve.service import PlacementService

#: Maximum request-line length (a MAX_BATCH_QUERIES batch fits
#: comfortably).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Most queries one ``answer_many`` request may carry.  A batch is answered
#: without a loop turn, so this bounds how long one request can hold every
#: other connection.
MAX_BATCH_QUERIES = 4096

#: Ops that are safe to resend verbatim: answering a query twice yields
#: the same decision, and reads have no side effects.  ``recalibrate``
#: is deliberately absent — resending it bumps the epoch again.
IDEMPOTENT_OPS = frozenset({"answer", "answer_many", "stats", "health"})


class TransportError(ReproError):
    """The server closed a connection mid-conversation (retryable)."""


@dataclass(frozen=True)
class ServerConfig:
    """Hardening knobs for :func:`start_server`.

    Args:
        request_timeout: Seconds an await in dispatch may take before the
            server answers a ``timeout`` error line instead.  Every op
            computes without suspending (a deadline cannot preempt that),
            so today this bounds only an injected ``serve_hang``.
        max_connections: Concurrent-connection cap; connection number
            ``max_connections + 1`` is answered with one ``overloaded``
            error line and closed (backpressure, not a silent drop).
    """

    request_timeout: float = 30.0
    max_connections: int = 64

    def __post_init__(self) -> None:
        if not 0 < self.request_timeout < math.inf:
            raise ConfigurationError(
                f"request_timeout must be positive and finite, got "
                f"{self.request_timeout}")
        if self.max_connections < 1:
            raise ConfigurationError(
                f"max_connections must be >= 1, got {self.max_connections}")


class ServerState:
    """Live transport state (one per started server).

    ``connections`` and ``in_flight`` are the queue-depth numbers the
    ``health`` op reports; the open connections' writers are kept so
    :func:`drain` can close them.  The chaos monitors implement the
    ``serve_reset`` / ``serve_hang`` fault kinds when a plan is active.
    """

    def __init__(self, config: ServerConfig):
        self.config = config
        #: Writers of the accepted connections whose handlers still run.
        self.writers: Set[asyncio.StreamWriter] = set()
        self.in_flight = 0
        self.requests_seen = 0
        self.rejected_connections = 0
        self.started_monotonic = time.monotonic()
        plan = chaos.active_plan()
        self.reset_monitor = (plan.monitor("serve_reset")
                              if plan is not None else None)
        self.hang_monitor = (plan.monitor("serve_hang")
                             if plan is not None else None)

    @property
    def connections(self) -> int:
        """Accepted connections whose handlers are still running."""
        return len(self.writers)

    def health(self, service: PlacementService) -> Dict[str, Any]:
        document = service.health()
        document.update({
            "connections": self.connections,
            "in_flight": self.in_flight,
            "requests_seen": self.requests_seen,
            "rejected_connections": self.rejected_connections,
            "max_connections": self.config.max_connections,
            "request_timeout_seconds": self.config.request_timeout,
        })
        return document


async def handle_request(service: PlacementService,
                         request: Dict[str, Any],
                         state: Optional[ServerState] = None) -> Any:
    """Dispatch one decoded request document; returns the result payload."""
    operation = request.get("op")
    if operation == "answer":
        query = PlacementQuery.from_params(request.get("query") or {})
        decision = await service.answer(query)
        return decision.to_params()
    if operation == "answer_many":
        documents = request.get("queries")
        if not isinstance(documents, list):
            raise ReproError(f"answer_many requires a 'queries' list, got "
                             f"{type(documents).__name__}")
        if len(documents) > MAX_BATCH_QUERIES:
            raise ReproError(
                f"answer_many takes at most MAX_BATCH_QUERIES "
                f"({MAX_BATCH_QUERIES}) queries, got {len(documents)}; "
                f"split the batch")
        queries = [PlacementQuery.from_params(document)
                   for document in documents]
        decisions = await service.answer_many(queries)
        return [decision.to_params() for decision in decisions]
    if operation == "stats":
        return service.stats()
    if operation == "health":
        if state is not None:
            return state.health(service)
        return service.health()
    if operation == "recalibrate":
        from repro.telemetry.recalibrate import RecalibrationResult
        document = request.get("calibration")
        if not isinstance(document, dict):
            raise ReproError(
                "recalibrate requires a 'calibration' object (a "
                "RecalibrationResult.to_params() document)")
        return service.recalibrate(RecalibrationResult.from_params(document))
    raise ReproError(f"unknown op {operation!r}; expected answer, "
                     f"answer_many, stats, health, or recalibrate")


async def _dispatch(service: PlacementService, request: Dict[str, Any],
                    state: ServerState) -> Any:
    """One request through the chaos gate and the service.

    Every op answers without suspending, so the connection handler awaits
    this directly: no task or timer per request.  The deadline sits on the
    one await here that can suspend, the injected ``serve_hang`` sleep; an
    op that comes to await real work must take the deadline the same way.
    """
    if state.hang_monitor:
        fault = state.hang_monitor.tick()
        if fault is not None:
            seconds = (fault.seconds if fault.seconds is not None
                       else chaos.plan.DEFAULT_HANG_SECONDS)
            chaos.log_event("injected_serve_hang", fault=fault.to_entry(),
                            seconds=seconds)
            await asyncio.wait_for(asyncio.sleep(seconds),
                                   state.config.request_timeout)
    return await handle_request(service, request, state)


def _error_response(exc: BaseException, code: str) -> Dict[str, Any]:
    return {"ok": False, "error": str(exc) or repr(exc), "code": code}


async def _send(writer: asyncio.StreamWriter,
                response: Dict[str, Any]) -> None:
    writer.write(json.dumps(response).encode("utf-8") + b"\n")
    await writer.drain()


async def _handle_connection(service: PlacementService,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             state: ServerState) -> None:
    if state.connections >= state.config.max_connections:
        # Backpressure, loudly: one structured line, then close.  A
        # silent drop would be indistinguishable from a network fault.
        state.rejected_connections += 1
        response = _error_response(
            ReproError(f"connection limit ({state.config.max_connections}) "
                       f"reached; retry after backoff"), "overloaded")
        try:
            await _send(writer, response)
        except (ConnectionError, OSError):  # pragma: no cover - racing peer
            pass
        writer.close()
        return
    state.writers.add(writer)
    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Over the reader's limit: the rest of the line cannot be
                # told apart from the next request, so answer and close.
                await _send(writer, _error_response(ReproError(
                    f"request line longer than MAX_LINE_BYTES "
                    f"({MAX_LINE_BYTES} bytes)"), "bad_request"))
                break
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            state.requests_seen += 1
            if state.reset_monitor:
                fault = state.reset_monitor.tick()
                if fault is not None:
                    chaos.log_event("injected_serve_reset",
                                    fault=fault.to_entry(),
                                    request=state.requests_seen)
                    # Close without replying: the client sees a
                    # mid-response EOF (TransportError) and must retry.
                    break
            state.in_flight += 1
            try:
                request = json.loads(text)
                if not isinstance(request, dict):
                    raise ReproError("a request must be a JSON object")
                result = await _dispatch(service, request, state)
                response = {"ok": True, "result": result}
            except asyncio.TimeoutError:
                response = _error_response(
                    ReproError(f"request timed out after "
                               f"{state.config.request_timeout:g}s"),
                    "timeout")
            except (ReproError, ValueError, TypeError, KeyError) as exc:
                response = _error_response(exc, "bad_request")
            except Exception as exc:  # pragma: no cover - defensive
                response = _error_response(exc, "internal")
            finally:
                state.in_flight -= 1
            await _send(writer, response)
            # Neither a buffered readline nor an unpaused drain yields, so
            # without this a pipelining client would hold the loop until
            # its buffer ran dry.
            await asyncio.sleep(0)
    except ConnectionError:
        pass  # The peer reset or dropped the connection: nobody to answer.
    finally:
        state.writers.discard(writer)
        # No ``wait_closed()`` here: a handler still running when its loop
        # shuts down is cancelled, and awaiting the closing transport from
        # inside the dying task just raises CancelledError into the event
        # loop's exception handler.  ``close()`` is enough — the loop
        # finishes the transport teardown on its own.
        writer.close()


async def start_server(service: PlacementService, host: str = "127.0.0.1",
                       port: int = 0,
                       config: Optional[ServerConfig] = None
                       ) -> asyncio.AbstractServer:
    """Start the JSON-lines server; ``port=0`` picks a free port.

    The bound address is ``server.sockets[0].getsockname()``; close with
    ``server.close()`` + ``await server.wait_closed()``.  The live
    :class:`ServerState` is retrievable via :func:`server_state` (the
    ``health`` op reads it too).
    """
    state = ServerState(config if config is not None else ServerConfig())

    async def connection(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        await _handle_connection(service, reader, writer, state)

    server = await asyncio.start_server(connection, host=host, port=port,
                                        limit=MAX_LINE_BYTES)
    server.repro_state = state  # type: ignore[attr-defined]
    return server


def server_state(server: asyncio.AbstractServer) -> ServerState:
    """The :class:`ServerState` attached by :func:`start_server`."""
    return server.repro_state  # type: ignore[attr-defined]


#: Seconds :func:`drain` waits for handlers to see EOF after it closes
#: their connections.  An idle handler exits on its next loop turn; only
#: one stuck in an await that EOF cannot wake (a ``serve_hang``) uses it.
CLOSE_GRACE_SECONDS = 1.0


async def drain(server: asyncio.AbstractServer, seconds: float) -> ServerState:
    """Graceful shutdown: stop accepting, then close every connection.

    In-flight requests get up to ``seconds`` to finish.  Then each open
    connection is closed from the server side, so its handler's pending
    read sees EOF and the handler exits through its normal path.  Left
    open, an idle handler is cancelled mid-read when the loop shuts down
    (a ``CancelledError`` traceback on Python 3.11), and from Python 3.12
    on ``Server.wait_closed()`` waits for it forever.
    Returns the server's :class:`ServerState`; ``in_flight`` then counts
    the requests still unfinished.
    """
    server.close()
    state = server_state(server)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + max(0.0, seconds)
    while state.in_flight and loop.time() < deadline:
        await asyncio.sleep(0.05)
    for writer in list(state.writers):
        writer.close()
    deadline = loop.time() + CLOSE_GRACE_SECONDS
    while state.writers and loop.time() < deadline:
        await asyncio.sleep(0.01)
    return state


async def request(host: str, port: int,
                  documents: List[Dict[str, Any]],
                  timeout: Optional[float] = 30.0) -> List[Dict[str, Any]]:
    """Client helper: send request documents, return the response documents.

    Opens one connection, pipelines every request in order, and reads one
    response line per request (the server answers in order).  A
    connection that closes before every response arrives raises
    :class:`TransportError` (retryable — see :func:`request_with_retry`).
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host=host, port=port, limit=MAX_LINE_BYTES),
        timeout)
    try:
        payload = b"".join(json.dumps(document).encode("utf-8") + b"\n"
                           for document in documents)
        writer.write(payload)
        await writer.drain()
        responses = []
        for _ in documents:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if not line:
                raise TransportError(
                    "server closed the connection mid-response")
            responses.append(json.loads(line.decode("utf-8")))
        return responses
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


def _is_overloaded(responses: List[Dict[str, Any]]) -> bool:
    return any(not response.get("ok")
               and response.get("code") == "overloaded"
               for response in responses)


async def request_with_retry(host: str, port: int,
                             documents: List[Dict[str, Any]], *,
                             timeout: Optional[float] = 30.0,
                             retries: int = 3,
                             backoff_seconds: float = 0.1,
                             max_backoff_seconds: float = 2.0,
                             jitter_seed: Optional[int] = None
                             ) -> List[Dict[str, Any]]:
    """:func:`request` with exponential backoff for transient faults.

    Retries connect errors (``OSError``), client-side timeouts,
    mid-response closes (:class:`TransportError`), and ``overloaded``
    replies — up to ``retries`` extra attempts, sleeping
    ``min(max_backoff, backoff * 2**attempt)`` scaled by a jitter factor
    in ``[0.5, 1.5)``.  The jitter stream is seeded (``jitter_seed``,
    defaulting to the active chaos plan's seed), so chaos runs back off
    deterministically.

    Only batches whose every op is in :data:`IDEMPOTENT_OPS` are
    retried; anything else (``recalibrate``) gets exactly one attempt,
    because resending a mutation the server may already have applied is
    worse than surfacing the fault.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    idempotent = all(document.get("op") in IDEMPOTENT_OPS
                     for document in documents)
    attempts = retries + 1 if idempotent else 1
    if jitter_seed is None:
        plan = chaos.active_plan()
        jitter_seed = plan.seed if plan is not None else 0
    rng = random.Random(jitter_seed)
    last_error: Optional[BaseException] = None
    for attempt in range(attempts):
        try:
            responses = await request(host, port, documents, timeout=timeout)
            if _is_overloaded(responses) and attempt + 1 < attempts:
                last_error = ReproError("server overloaded")
            else:
                return responses
        except (OSError, asyncio.TimeoutError, TransportError) as exc:
            if attempt + 1 >= attempts:
                raise
            last_error = exc
        delay = min(max_backoff_seconds, backoff_seconds * (2 ** attempt))
        delay *= 0.5 + rng.random()
        chaos.log_event("client_retry", attempt=attempt + 1,
                        delay_seconds=delay,
                        error=str(last_error) or repr(last_error))
        await asyncio.sleep(delay)
    raise ReproError(  # pragma: no cover - loop always returns or raises
        f"retry loop exhausted after {attempts} attempts: {last_error}")


def serve_address(server: asyncio.AbstractServer) -> Tuple[str, int]:
    """The ``(host, port)`` a started server is listening on."""
    host, port = server.sockets[0].getsockname()[:2]
    return host, port
