"""Command-line interface for the placement service.

Usage::

    python -m repro.serve query k80 --duration 2.0 --utc-hour 9
    python -m repro.serve query v100 --duration 8 --hours 0,8,16
    python -m repro.serve query k80 --duration 2 --utc-hour 9 \\
        --connect 127.0.0.1:7077
    python -m repro.serve serve --host 127.0.0.1 --port 7077

``query`` answers one placement question — offline against a local
advisor by default, or against a running server with ``--connect``
(connection failures and timeouts exit nonzero with a one-line
diagnostic, not a traceback).  ``serve`` starts the JSON-lines TCP front
end (see :mod:`repro.serve.transport` for the wire protocol and
hardening knobs) and runs until interrupted; SIGTERM/SIGINT trigger a
graceful drain — stop accepting, let in-flight requests finish for up to
``--drain-seconds``, then exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.cli import run_cli, write_json_out
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import PlacementQuery
from repro.serve.service import PlacementService
from repro.serve.transport import (
    ServerConfig,
    TransportError,
    request_with_retry,
    serve_address,
    server_state,
    start_server,
)


def _parse_hours(text: str) -> List[int]:
    try:
        return [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--hours expects comma-separated integers (got {text!r})")


def _parse_connect(text: str) -> Any:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"--connect expects HOST:PORT (got {text!r})")
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--connect expects a numeric port (got {port!r})")


def _add_advisor_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="advisor seed")
    sub.add_argument("--samples", type=int, default=400,
                     help="Monte-Carlo samples per (region, hour) option "
                          "(default: 400)")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Answer placement queries, one-shot or as a service.")
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="answer one placement query")
    query.add_argument("gpu", help="GPU type to place (e.g. k80)")
    query.add_argument("--duration", type=float, required=True,
                       metavar="HOURS", help="placement horizon in hours")
    query.add_argument("--num-workers", type=int, default=1,
                       help="cluster size (scales expected revocations)")
    query.add_argument("--regions", default=None, metavar="R1,R2",
                       help="candidate regions (default: every calibrated "
                            "region offering the GPU)")
    mode = query.add_mutually_exclusive_group(required=True)
    mode.add_argument("--hours", type=_parse_hours, default=None,
                      metavar="H1,H2",
                      help="grid mode: score these local launch hours")
    mode.add_argument("--utc-hour", type=float, default=None,
                      help="live mode: score each region at its local hour "
                           "for this UTC wall-clock hour")
    query.add_argument("--queue-weight", type=float, default=0.5,
                       help="queue-pressure penalty weight (default: 0.5)")
    query.add_argument("--connect", type=_parse_connect, default=None,
                       metavar="HOST:PORT",
                       help="send the query to a running repro-serve server "
                            "instead of answering offline")
    query.add_argument("--timeout", type=float, default=10.0,
                       help="per-attempt client timeout in seconds for "
                            "--connect (default: 10)")
    query.add_argument("--retries", type=int, default=2,
                       help="extra client attempts for --connect on connect "
                            "errors/timeouts (default: 2)")
    query.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                       help="also write the decision to a JSON file")
    _add_advisor_arguments(query)

    serve = commands.add_parser("serve", help="run the JSON-lines TCP server")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=7077,
                       help="bind port (0 picks a free port)")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip precomputing the score table at startup")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-request server dispatch timeout in seconds "
                            "(default: 30)")
    serve.add_argument("--max-connections", type=int, default=64,
                       help="concurrent connection cap; extra connections "
                            "get one 'overloaded' error line (default: 64)")
    serve.add_argument("--drain-seconds", type=float, default=5.0,
                       help="graceful-drain window on SIGTERM/SIGINT: stop "
                            "accepting, wait this long for in-flight "
                            "requests (default: 5)")
    _add_advisor_arguments(serve)
    return parser


def _build_query(args: argparse.Namespace) -> PlacementQuery:
    regions = None
    if args.regions:
        regions = tuple(token.strip() for token in args.regions.split(",")
                        if token.strip())
    return PlacementQuery(
        gpu_name=args.gpu, duration_hours=args.duration,
        num_workers=args.num_workers, region_names=regions,
        launch_hours=None if args.hours is None else tuple(args.hours),
        hour_of_day_utc=args.utc_hour, queue_weight=args.queue_weight)


def _query_remote(args: argparse.Namespace) -> int:
    """Answer one query over the wire; nonzero + one-line stderr on failure."""
    host, port = args.connect
    document = {"op": "answer", "query": _build_query(args).to_params()}
    try:
        responses = asyncio.run(request_with_retry(
            host, port, [document], timeout=args.timeout,
            retries=args.retries))
    except (ConnectionRefusedError, asyncio.TimeoutError, TransportError,
            OSError) as exc:
        reason = str(exc) or exc.__class__.__name__
        print(f"error: cannot reach placement server at {host}:{port} "
              f"({reason})", file=sys.stderr)
        return 2
    response = responses[0]
    if not response.get("ok"):
        print(f"error: server at {host}:{port} refused the query "
              f"[{response.get('code', 'unknown')}]: "
              f"{response.get('error', 'no detail')}", file=sys.stderr)
        return 2
    return _print_decision(response["result"], args, count_key="options")


def _print_decision(document: Dict[str, Any], args: argparse.Namespace, *,
                    count_key: str) -> int:
    print(json.dumps(document, indent=2, sort_keys=True))
    if args.json_out:
        write_json_out(args.json_out, document,
                       len(document.get(count_key) or ()), "ranked options")
    return 0


async def _serve_forever(args: argparse.Namespace) -> int:
    config = ServerConfig(request_timeout=args.request_timeout,
                          max_connections=args.max_connections)
    service = PlacementService(advisor=LaunchAdvisor(
        samples_per_option=args.samples, seed=args.seed))
    if not args.no_warm:
        built = service.warm()
        print(f"score table warmed: {built} (gpu, region, hour) options")
    server = await start_server(service, host=args.host, port=args.port,
                                config=config)
    host, port = serve_address(server)
    print(f"serving placement queries on {host}:{port} (JSON lines; "
          f"ops: answer, answer_many, stats, health, recalibrate)")

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms without loop signal handlers (e.g. Windows)
    try:
        await stop.wait()
        # Graceful drain: stop accepting first, then give in-flight
        # requests a bounded window to finish before tearing down.
        server.close()
        state = server_state(server)
        deadline = loop.time() + max(0.0, args.drain_seconds)
        while state.in_flight and loop.time() < deadline:
            await asyncio.sleep(0.05)
        print(f"drained: {state.requests_seen} requests served, "
              f"{state.in_flight} still in flight at shutdown")
    except asyncio.CancelledError:  # pragma: no cover - shutdown path
        pass
    finally:
        server.close()
        await server.wait_closed()
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "query":
        if args.connect is not None:
            return _query_remote(args)
        advisor = LaunchAdvisor(samples_per_option=args.samples,
                                seed=args.seed)
        decision = PlacementService(advisor=advisor).answer_now(
            _build_query(args))
        return _print_decision(decision.to_params(), args,
                               count_key="options")
    try:
        return asyncio.run(_serve_forever(args))
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    return run_cli(build_parser(), argv, _dispatch)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
