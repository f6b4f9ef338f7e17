"""Command-line interface.

::

    python -m repro solve GRAPH [options]     # find/enumerate maximum cliques
    python -m repro batch JOBS.json [options] # run a job file through the service
    python -m repro serve [options]           # network solve server (repro-wire/1)
    python -m repro router --backends H:P ... # consistent-hash cluster router
    python -m repro cluster-status            # per-backend health/routing view
    python -m repro client solve GRAPH        # solve against a running server
    python -m repro client stats|shutdown     # server statistics / graceful drain
    python -m repro info GRAPH                # structural statistics
    python -m repro datasets [--category C]   # list the surrogate suite
    python -m repro compare GRAPH             # BF vs PMC vs warp-DFS on one graph

``GRAPH`` is a file (.edges/.txt/.mtx/.clq/...) or the name of a
surrogate suite dataset (see ``python -m repro datasets``).

Global options: ``--log-level {debug,info,warning,error}`` controls
the ``repro`` logger hierarchy (``debug`` shows per-stage timings);
``solve``/``compare`` accept ``--trace PATH`` (JSON trace, schema in
docs/OBSERVABILITY.md) and ``--trace-chrome PATH`` (``chrome://tracing``
format).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core.config import PROBLEM_KINDS, SolverConfig
from .core.solver import MaxCliqueSolver
from .errors import (
    CheckpointError,
    DeviceLostError,
    DeviceOOMError,
    FaultPlanError,
    JobSpecError,
    SolverConfigError,
    SolveTimeoutError,
)
from .graph.csr import CSRGraph
from .gpusim.device import Device
from .gpusim.spec import DeviceSpec
from .log import configure as configure_logging, get_logger
from .trace import NULL_TRACER, JsonTracer

__all__ = ["build_parser", "main"]

MIB = 1 << 20

#: CLI output channel: results and listings, INFO level, plain stdout.
out = get_logger("cli")


def _load(name: str) -> CSRGraph:
    """Load a graph file, or fall back to a suite dataset name."""
    from .service.jobs import resolve_graph

    try:
        return resolve_graph(name)
    except JobSpecError as exc:
        raise SystemExit(f"error: {exc}")


def _make_tracer(args: argparse.Namespace):
    """A recording tracer when any trace output was requested."""
    if args.trace or args.trace_chrome:
        return JsonTracer()
    return NULL_TRACER


def _export_trace(tracer, args: argparse.Namespace) -> None:
    """Write requested trace files (also after OOM/timeout: partial
    traces are exactly what one wants when diagnosing those)."""
    if not getattr(tracer, "enabled", False):
        return
    # --json mode keeps stdout machine-parseable: demote to debug
    note = out.debug if getattr(args, "json", False) else out.info
    try:
        if args.trace:
            tracer.write_json(args.trace)
            note(f"trace: wrote {args.trace}")
        if args.trace_chrome:
            tracer.write_chrome_trace(args.trace_chrome)
            note(f"trace: wrote {args.trace_chrome} (chrome://tracing)")
    except OSError as exc:
        raise SystemExit(f"error: cannot write trace: {exc}")


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a structured JSON trace (spans, kernels, counters)",
    )
    p.add_argument(
        "--trace-chrome", metavar="PATH", default=None,
        help="write a Chrome-trace-format timeline (chrome://tracing)",
    )


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--problem",
        default="max-clique",
        choices=list(PROBLEM_KINDS),
        help="problem kind: maximum cliques (default), exact k-clique "
        "counting (requires --k), or maximal clique enumeration",
    )
    p.add_argument(
        "--k", type=int, default=None, metavar="K",
        help="clique size for --problem k-clique-count",
    )


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    _add_problem_args(p)
    p.add_argument(
        "--heuristic",
        default="multi-degree",
        choices=["none", "single-degree", "single-core", "multi-degree", "multi-core"],
        help="lower-bound heuristic (paper Section IV-A)",
    )
    p.add_argument(
        "--window", default=None,
        help="window size (int or 'auto') for the windowed search",
    )
    p.add_argument(
        "--window-order", default="natural",
        choices=["natural", "asc-degree", "desc-degree"],
    )
    p.add_argument(
        "--adaptive", action="store_true",
        help="recursive windowing: split windows that exceed memory",
    )
    p.add_argument(
        "--memory-mib", type=int, default=192,
        help="device memory budget in MiB (default 192)",
    )
    p.add_argument(
        "--time-limit", type=float, default=None,
        help="abort after this many wall seconds",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (alias of --time-limit; exits 3 "
        "with a timeout message when exceeded)",
    )
    p.add_argument(
        "--max-report", type=int, default=20,
        help="maximum cliques to print (count is always exact)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON result instead of text",
    )
    p.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="checkpoint file for the windowed search: resumed from if "
        "it exists, rewritten after every completed window, removed on "
        "success (requires --window)",
    )
    _add_trace_args(p)


def _add_service_args(p: argparse.ArgumentParser) -> None:
    """The SolveService knobs ``batch`` and ``serve`` share."""
    p.add_argument(
        "--devices", type=int, default=1,
        help="size of the simulated device pool (default 1)",
    )
    p.add_argument(
        "--policy", default="fifo", choices=["fifo", "sef"],
        help="job ordering: submission order or shortest-expected-first "
        "(default fifo)",
    )
    p.add_argument(
        "--cache-size", type=int, default=128,
        help="result-cache capacity in entries; 0 disables (default 128)",
    )
    p.add_argument(
        "--memory-mib", type=int, default=192,
        help="per-device memory budget in MiB (default 192)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-job wall-clock budget (jobs may override)",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per job along the degradation ladder (default 3)",
    )


def _make_service(args: argparse.Namespace, **kwargs):
    """The SolveService that the :func:`_add_service_args` flags describe."""
    from .service import SolveService

    return SolveService(
        devices=args.devices,
        spec=DeviceSpec(memory_bytes=args.memory_mib * MIB),
        policy=args.policy,
        cache_size=args.cache_size,
        max_attempts=args.max_attempts,
        default_timeout_s=args.timeout,
        **kwargs,
    )


def _add_listener_args(
    p: argparse.ArgumentParser,
    port: Optional[int],
    port_help: str,
    max_conns: Optional[int] = None,
) -> None:
    """The listening flags of ``serve``, ``router`` and ``chaos-proxy``.

    ``max_conns`` (the ``--max-conns`` default) also adds the
    ``--max-conns`` and ``--drain-timeout`` flags of the two endpoints
    that cap and drain connections.
    """
    p.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    p.add_argument("--port", type=int, default=port, help=port_help)
    p.add_argument(
        "--max-frame-mib", type=int, default=8,
        help="per-frame wire size limit in MiB (default 8)",
    )
    if max_conns is None:
        return
    p.add_argument(
        "--max-conns", type=int, default=max_conns,
        help=f"concurrent client connections before refusing "
        f"(default {max_conns})",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=60.0, metavar="SECONDS",
        help="graceful-drain budget on SIGTERM/shutdown (default 60)",
    )


def _checkpoint_round_trip(args: argparse.Namespace, graph, config):
    """Resolve ``solve --checkpoint``: (resume point, per-window sink).

    The file is the durable half of the round trip: loaded (and
    validated against this graph+config) when present, rewritten after
    every completed window, and deleted by the caller on success.
    """
    if args.checkpoint is None:
        return None, None
    if not config.resumable:
        raise SystemExit(
            "error: --checkpoint requires a windowed (--window) max-clique "
            f"search (got --problem {config.problem}, --window {args.window})"
        )
    from .core.checkpoint import load_checkpoint
    from .core.config import config_fingerprint

    path = Path(args.checkpoint)
    checkpoint = None
    if path.exists():
        try:
            checkpoint = load_checkpoint(path)
            checkpoint.validate_for(
                graph.fingerprint(), config_fingerprint(config)
            )
        except CheckpointError as exc:
            raise SystemExit(f"error: {exc}")
        if not args.json:
            out.info(
                f"checkpoint: resuming from {path} "
                f"({checkpoint.windows_done}/{checkpoint.total_windows} "
                f"windows done, best={checkpoint.omega})"
            )

    def sink(ckpt) -> None:
        try:
            ckpt.save(path)
        except OSError as exc:
            raise SystemExit(f"error: cannot write checkpoint {path}: {exc}")

    return checkpoint, sink


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = _load(args.graph)
    window = args.window
    if window is not None and window != "auto":
        window = int(window)
    try:
        config = SolverConfig(
            problem=args.problem,
            k=args.k,
            heuristic=args.heuristic,
            window_size=window,
            window_order=args.window_order,
            adaptive_windowing=args.adaptive,
            time_limit_s=args.timeout if args.timeout is not None else args.time_limit,
            max_cliques_report=max(args.max_report, 1),
        )
    except SolverConfigError as exc:
        raise SystemExit(f"error: {exc}")
    device = Device(DeviceSpec(memory_bytes=args.memory_mib * MIB))
    tracer = _make_tracer(args)
    checkpoint, checkpoint_sink = _checkpoint_round_trip(args, graph, config)
    if not args.json:
        out.info(f"graph: {graph}")
    try:
        result = MaxCliqueSolver(
            graph,
            config,
            device,
            tracer=tracer,
            checkpoint=checkpoint,
            checkpoint_sink=checkpoint_sink,
        ).solve()
        if args.checkpoint is not None:
            # the solve finished: the round trip is complete
            Path(args.checkpoint).unlink(missing_ok=True)
    except DeviceLostError as exc:
        out.info(f"device lost: {exc}")
        if args.checkpoint is not None and Path(args.checkpoint).exists():
            out.info(f"hint: re-run with the same --checkpoint {args.checkpoint}")
            out.info("      to resume from the last completed window")
        _export_trace(tracer, args)
        return 4
    except DeviceOOMError as exc:
        out.info(f"OOM: {exc}")
        out.info("hint: try --window 1024 (optionally --adaptive), a stronger")
        out.info("      --heuristic, or a larger --memory-mib budget")
        _export_trace(tracer, args)
        return 2
    except SolveTimeoutError as exc:
        out.info(f"timeout: {exc}")
        _export_trace(tracer, args)
        return 3
    if args.json:
        import json

        telemetry = {
            "model_time_s": result.model_time_s,
            "wall_time_s": result.wall_time_s,
            "peak_memory_bytes": result.peak_memory_bytes,
            "windows": len(result.windows),
            "stage_model_times_s": result.stage_times,
        }
        if config.problem == "k-clique-count":
            payload = {
                "problem": result.problem,
                "k": result.k,
                "count": result.count,
                "found_by": result.found_by,
                **telemetry,
            }
        elif config.problem == "maximal-enum":
            payload = {
                "problem": result.problem,
                "num_maximal_cliques": result.num_maximal_cliques,
                "max_clique_size": result.max_clique_size,
                "cliques": [
                    [int(v) for v in row]
                    for row in result.cliques[: args.max_report]
                ],
                "found_by": result.found_by,
                "enumerated_all": result.enumerated_all,
                **telemetry,
            }
        else:
            payload = {
                "problem": result.problem,
                "clique_number": result.clique_number,
                "num_maximum_cliques": result.num_maximum_cliques,
                "cliques": [row.tolist() for row in result.cliques[: args.max_report]],
                "found_by": result.found_by,
                "enumerated_all": result.enumerated_all,
                "heuristic": {
                    "kind": result.heuristic.kind,
                    "lower_bound": result.heuristic.lower_bound,
                },
                "pruned_fraction": result.pruned_fraction,
                **telemetry,
            }
        # machine-readable output bypasses logging so piping always works
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        _export_trace(tracer, args)
        return 0
    out.info(result.summary())
    if config.problem == "k-clique-count":
        _export_trace(tracer, args)
        return 0
    shown = min(args.max_report, len(result.cliques))
    for row in result.cliques[:shown]:
        out.info("  clique: " + " ".join(str(int(v)) for v in row))
    if config.problem == "maximal-enum":
        extra = result.num_maximal_cliques - shown
        if extra > 0:
            out.info(f"  ... and {extra} more maximal clique(s)")
    else:
        extra = result.num_maximum_cliques - shown
        if extra > 0 and result.enumerated_all:
            out.info(f"  ... and {extra} more maximum clique(s)")
    if result.stage_times:
        breakdown = "  ".join(
            f"{name}={t * 1e3:.3f}ms" for name, t in result.stage_times.items()
        )
        out.debug(f"  stages: {breakdown}")
    _export_trace(tracer, args)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .service.jobs import load_jobs

    try:
        requests = load_jobs(args.jobs)
    except JobSpecError as exc:
        out.info(f"error: {exc}")
        return 2
    fault_plan = None
    if args.fault_plan is not None:
        from .gpusim.faults import load_fault_plan

        try:
            fault_plan = load_fault_plan(args.fault_plan)
        except FaultPlanError as exc:
            out.info(f"error: {exc}")
            return 2
        if not args.json:
            out.info(
                f"chaos: injecting {len(fault_plan)} fault(s) from "
                f"{args.fault_plan}"
            )
    tracer = _make_tracer(args)
    service = _make_service(
        args,
        tracer=tracer,
        fault_plan=fault_plan,
        executor=args.executor,
        workers=args.workers,
    )
    for request in requests:
        service.submit(request)
    records = service.run()
    summary = service.summary()
    payload = {
        "jobs": [r.to_dict() for r in records],
        "summary": summary.to_dict(),
        "devices": service.pool.summary(),
    }
    import json

    if args.output:
        try:
            Path(args.output).write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise SystemExit(f"error: cannot write {args.output}: {exc}")
        if not args.json:
            out.info(f"batch: wrote {args.output}")
    if args.json:
        # machine-readable output bypasses logging so piping always works
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for r in records:
            if r.status != "ok":
                figures = r.error or ""
            elif r.problem == "k-clique-count":
                figures = f"count[k={r.k}]={r.k_clique_count}"
            elif r.problem == "maximal-enum":
                figures = f"maximal={r.num_maximal_cliques} omega={r.clique_number}"
            else:
                figures = f"omega={r.clique_number} x{r.num_maximum_cliques}"
            tags = "".join(
                [
                    " cache" if r.cache_hit else "",
                    " degraded" if r.degraded else "",
                    f" transient-retries={r.transient_retries}"
                    if r.transient_retries
                    else "",
                    f" migrations={r.migrations}" if r.migrations else "",
                ]
            )
            out.info(
                f"job {r.job_id} [{r.label}]: {r.status} {figures} "
                f"admission={r.admission} attempts={r.attempts} "
                f"model={r.model_time_s * 1e3:.3f}ms{tags}"
            )
        out.info(
            f"batch: {summary.ok}/{summary.total} ok, "
            f"{summary.rejected} rejected, {summary.failed} failed, "
            f"{summary.cache_hits} cache hit(s) on {summary.devices} device(s); "
            f"makespan {summary.makespan_model_s * 1e3:.3f} ms (model)"
        )
    _export_trace(tracer, args)
    return 0 if all(r.ok for r in records) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import ServerConfig, SolveServer
    from .trace import CounterTracer

    if args.workers < 1:
        raise SystemExit("error: --workers must be at least 1")
    service = _make_service(
        args,
        # counters-only tracer: the stats frame reports service.*
        # counters without forcing the threaded executor serial
        tracer=CounterTracer(),
        executor="threaded" if args.workers > 1 else "serial",
        workers=args.workers,
    )
    from .server import DEFAULT_PORT

    config = ServerConfig(
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        max_conns=args.max_conns,
        rate=args.rate,
        burst=args.burst,
        queue_depth=args.queue_depth,
        max_frame_bytes=args.max_frame_mib * MIB,
        drain_timeout_s=args.drain_timeout,
    )
    server = SolveServer(service, config)
    out.info(
        f"serve: {args.devices} device(s) x {args.memory_mib} MiB, "
        f"{args.workers} worker(s), queue depth {args.queue_depth}, "
        f"rate {'off' if args.rate <= 0 else f'{args.rate:g}/s'}"
    )
    try:
        server.run()
    except OSError as exc:
        raise SystemExit(f"error: cannot bind {args.host}:{args.port}: {exc}")
    summary = service.summary()
    out.info(
        f"serve: drained after {summary.total} job(s) "
        f"({summary.ok} ok, {summary.rejected} rejected, "
        f"{summary.failed} failed, {summary.cache_hits} cache hit(s))"
    )
    return 0


def _cmd_router(args: argparse.Namespace) -> int:
    from .cluster import DEFAULT_ROUTER_PORT, Router, RouterConfig
    from .server.client import _parse_address

    try:
        backends = [_parse_address(b) for b in args.backends]
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    config = RouterConfig(
        backends=backends,
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_ROUTER_PORT,
        replicas=args.replicas,
        max_conns=args.max_conns,
        max_frame_bytes=args.max_frame_mib * MIB,
        probe_interval_s=args.probe_interval,
        down_threshold=args.down_threshold,
        checkpoint_poll_s=args.checkpoint_poll,
        drain_timeout_s=args.drain_timeout,
        jitter_seed=args.jitter_seed,
    )
    try:
        router = Router(config)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    out.info(
        f"router: {len(backends)} backend(s), {args.replicas} ring "
        f"replica(s) each, probe every {args.probe_interval:g}s "
        f"(down after {args.down_threshold} misses)"
    )
    try:
        router.run()
    except OSError as exc:
        raise SystemExit(f"error: cannot bind {args.host}:{args.port}: {exc}")
    out.info(
        f"router: drained after "
        f"{router.stats.get('solves.accepted')} solve(s) "
        f"({router.stats.get('failover.total')} failover(s), "
        f"{router.stats.get('rebalanced.total')} rebalance(s))"
    )
    return 0


def _cmd_chaos_proxy(args: argparse.Namespace) -> int:
    from .errors import NetFaultPlanError
    from .netchaos import ChaosProxy, load_net_fault_plan
    from .server.client import _parse_address

    try:
        upstream = _parse_address(args.upstream)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    plan = None
    if args.plan is not None:
        try:
            plan = load_net_fault_plan(args.plan)
        except (OSError, NetFaultPlanError) as exc:
            raise SystemExit(f"error: cannot load {args.plan}: {exc}")
    proxy = ChaosProxy(
        upstream,
        plan=plan,
        host=args.host,
        port=args.port,
        max_frame_bytes=args.max_frame_mib * MIB,
    )
    if plan is None:
        out.info(
            f"chaos-proxy: transparent relay to "
            f"{upstream[0]}:{upstream[1]} (no fault plan)"
        )
    else:
        out.info(
            f"chaos-proxy: relaying to {upstream[0]}:{upstream[1]} with "
            f"{len(plan.events)} wire fault(s) and "
            f"{len(plan.partitions)} partition window(s) (seed {plan.seed})"
        )
    try:
        proxy.run()
    except OSError as exc:
        raise SystemExit(f"error: cannot bind {args.host}:{args.port}: {exc}")
    injected = proxy.counters.get("injected.total", 0)
    out.info(
        f"chaos-proxy: done after "
        f"{proxy.counters.get('conns.total', 0)} connection(s), "
        f"{injected} fault(s) injected"
    )
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    from .cluster import DEFAULT_ROUTER_PORT
    from .errors import ProtocolError, ServerError

    if args.port is None and not getattr(args, "addr", None):
        args.port = DEFAULT_ROUTER_PORT
    client = _make_client(args)
    try:
        with client:
            stats = client.stats()
    except (ServerError, ProtocolError) as exc:
        out.info(f"error: {exc}")
        return 1
    if "router" not in stats or "backends" not in stats:
        out.info(
            f"error: {client.host}:{client.port} answers stats but is "
            f"not a router (point this at `repro router`)"
        )
        return 1
    if args.json:
        import json

        sys.stdout.write(json.dumps(stats, indent=2) + "\n")
        return 0
    router = stats["router"]
    latency = router["latency"]
    out.info(
        f"router: {router.get('backends_available', 0)}/"
        f"{router.get('backends_total', 0)} backend(s) available, "
        f"{router.get('in_flight', 0)} solve(s) in flight"
        f"{' (draining)' if router.get('draining') else ''}"
    )
    out.info(
        f"routed: {router.get('routed.total', 0)} "
        f"(failed over {router.get('failover.total', 0)}, "
        f"resumed via checkpoint {router.get('failover.resumed', 0)}, "
        f"rebalanced {router.get('rebalanced.total', 0)}, "
        f"re-submitted {router.get('resubmits.total', 0)})"
    )
    out.info(
        f"latency: p50={latency['p50_ms']:.1f}ms p99={latency['p99_ms']:.1f}ms "
        f"over {latency['count']} request(s)"
    )
    for name, backend in sorted(stats["backends"].items()):
        health = backend["health"]
        link = "up" if backend.get("connected") else "no link"
        out.info(
            f"  {name:24s} {health['state']:8s} ({link})  "
            f"routed={backend.get('routed', 0)} "
            f"failed_over={backend.get('failed_over', 0)} "
            f"rebalanced={backend.get('rebalanced', 0)} "
            f"probe_misses={health['consecutive_failures']}"
        )
    return 0


def _make_client(args: argparse.Namespace):
    from .server import DEFAULT_PORT, SolveClient

    if getattr(args, "addr", None):
        try:
            return SolveClient(
                addresses=list(args.addr),
                timeout_s=args.wait,
                retries=args.retries,
            )
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"error: {exc}")
    return SolveClient(
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        timeout_s=args.wait,
        retries=args.retries,
    )


def _cmd_client_solve(args: argparse.Namespace) -> int:
    from .errors import ProtocolError, ServerError

    window = args.window
    if window is not None and window != "auto":
        window = int(window)
    config = {
        "heuristic": args.heuristic,
        "window_size": window,
        "window_order": args.window_order,
        "adaptive_windowing": args.adaptive,
        "max_cliques_report": max(args.max_report, 1),
    }
    if args.k is not None:
        config["k"] = args.k
    # ship local files gzip-compressed inline; anything else is a
    # dataset name (or server-side path) the server resolves itself
    if Path(args.graph).exists():
        graph = _load(args.graph)
    else:
        graph = args.graph
    client = _make_client(args)
    try:
        with client:
            reply = client.solve(
                graph,
                config=config,
                problem=args.problem,
                timeout_s=args.timeout,
                label=args.graph,
                deadline_s=args.deadline,
            )
    except (ServerError, ProtocolError) as exc:
        code = getattr(exc, "exit_code", 1)
        out.info(f"error: {exc}")
        return code if code != 0 else 1
    record = reply["record"]
    exit_code = int(reply.get("exit_code", 0))
    problem = record.get("problem", "max-clique")
    if args.json:
        import json

        if problem == "k-clique-count":
            payload = {
                "problem": problem,
                "k": record["k"],
                "count": record["k_clique_count"],
                "record": record,
            }
        elif problem == "maximal-enum":
            payload = {
                "problem": problem,
                "num_maximal_cliques": record["num_maximal_cliques"],
                "max_clique_size": record["clique_number"],
                "cliques": reply.get("cliques", [])[: args.max_report],
                "enumerated_all": record["enumerated_all"],
                "record": record,
            }
        else:
            payload = {
                "clique_number": record["clique_number"],
                "num_maximum_cliques": record["num_maximum_cliques"],
                "cliques": reply.get("cliques", [])[: args.max_report],
                "enumerated_all": record["enumerated_all"],
                "record": record,
            }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return exit_code
    if record["status"] != "ok":
        out.info(
            f"job {record['job_id']}: {record['status']} "
            f"({record.get('error') or record.get('admission_reason')})"
        )
        return exit_code
    tags = "".join(
        [
            " (cache)" if record["cache_hit"] else "",
            " (degraded)" if record["degraded"] else "",
        ]
    )
    shown = reply.get("cliques", [])[: args.max_report]
    if problem == "k-clique-count":
        out.info(
            f"{record['k_clique_count']} {record['k']}-clique(s){tags}"
        )
    elif problem == "maximal-enum":
        out.info(
            f"{record['num_maximal_cliques']} maximal clique(s), "
            f"omega = {record['clique_number']}{tags}"
        )
        for row in shown:
            out.info("  clique: " + " ".join(str(int(v)) for v in row))
        extra = (record["num_maximal_cliques"] or 0) - len(shown)
        if extra > 0:
            out.info(f"  ... and {extra} more maximal clique(s)")
    else:
        out.info(
            f"omega = {record['clique_number']}, "
            f"{record['num_maximum_cliques']} maximum clique(s){tags}"
        )
        for row in shown:
            out.info("  clique: " + " ".join(str(int(v)) for v in row))
        extra = (record["num_maximum_cliques"] or 0) - len(shown)
        if extra > 0 and record["enumerated_all"]:
            out.info(f"  ... and {extra} more maximum clique(s)")
    out.info(
        f"  server: attempts={record['attempts']} "
        f"admission={record['admission']} "
        f"model={record['model_time_s'] * 1e3:.3f}ms "
        f"wall={record['wall_time_s'] * 1e3:.1f}ms"
    )
    return exit_code


def _cmd_client_stats(args: argparse.Namespace) -> int:
    from .errors import ProtocolError, ServerError

    client = _make_client(args)
    try:
        with client:
            stats = client.stats()
    except (ServerError, ProtocolError) as exc:
        out.info(f"error: {exc}")
        return 1
    if args.json:
        import json

        sys.stdout.write(json.dumps(stats, indent=2) + "\n")
        return 0
    server = stats["server"]
    service = stats["service"]
    latency = server["latency"]
    out.info(
        f"connections: {server.get('connections_open', 0)} open / "
        f"{server.get('connections.total', 0)} total; "
        f"queue depth {server.get('queue_depth', 0)}, "
        f"in flight {server.get('in_flight', 0)}"
        f"{' (draining)' if server.get('draining') else ''}"
    )
    jobs = service["jobs"]
    out.info(
        f"jobs: {jobs['total']} total, {jobs['ok']} ok, "
        f"{jobs['rejected']} rejected, {jobs['failed']} failed, "
        f"{jobs['cache_hits']} cache hit(s)"
    )
    cache = service["cache"]
    out.info(
        f"cache: {cache['hits']} hits / {cache['misses']} misses, "
        f"{cache['size']}/{cache['capacity']} entries"
    )
    out.info(
        f"latency: p50={latency['p50_ms']:.1f}ms p99={latency['p99_ms']:.1f}ms "
        f"over {latency['count']} request(s)"
    )
    pool = service["pool"]
    out.info(
        f"pool: {pool['devices']} device(s), "
        f"makespan {pool['makespan_model_s'] * 1e3:.3f}ms (model), "
        f"{pool['device_faults']} fault(s)"
    )
    return 0


def _cmd_client_shutdown(args: argparse.Namespace) -> int:
    from .errors import ProtocolError, ServerError

    client = _make_client(args)
    try:
        with client:
            bye = client.shutdown()
    except (ServerError, ProtocolError) as exc:
        out.info(f"error: {exc}")
        return 1
    out.info(
        f"server draining: {bye.get('in_flight', 0)} in flight, "
        f"{bye.get('queued', 0)} queued"
    )
    return 0


def _parse_edge_pairs(pairs: List[str]) -> List[tuple]:
    """``["0,1", "2,3"]`` -> ``[(0, 1), (2, 3)]`` (CLI mutation syntax)."""
    out_pairs = []
    for spec in pairs:
        u, sep, v = spec.partition(",")
        if not sep or not u.strip().isdigit() or not v.strip().isdigit():
            raise SystemExit(
                f"error: edge {spec!r} is not of the form U,V (two "
                "non-negative integers)"
            )
        out_pairs.append((int(u), int(v)))
    return out_pairs


def _format_update(frame: dict) -> str:
    witness = ",".join(str(v) for v in frame.get("witness", []))
    tags = [frame.get("path", "?")]
    if frame.get("replayed"):
        tags.append("replayed")
    if frame.get("closed"):
        tags.append("closed")
    return (
        f"epoch {frame.get('epoch', '?'):>4}: omega={frame.get('omega', '?')} "
        f"maximum_cliques={frame.get('num_maximum_cliques', '?')} "
        f"witness=[{witness}] ({', '.join(tags)})"
    )


def _cmd_watch(args: argparse.Namespace) -> int:
    from .errors import ProtocolError, ServerError

    try:
        if args.graph is not None:
            graph = _load(args.graph) if Path(args.graph).exists() else args.graph
            opener = _make_client(args)
            with opener:
                opened = opener.open_session(graph, session=args.session)
            if not args.json:
                out.info(
                    f"opened session {opened['session']!r} "
                    f"(|V|={opened['num_vertices']}, "
                    f"|E|={opened['num_edges']})"
                )
        watcher = _make_client(args)
        seen = 0
        with watcher:
            for frame in watcher.subscribe(args.session):
                if args.json:
                    import json

                    sys.stdout.write(json.dumps(frame) + "\n")
                    sys.stdout.flush()
                else:
                    out.info(_format_update(frame))
                seen += 1
                if frame.get("closed"):
                    break
                if args.max_updates is not None and seen >= args.max_updates:
                    break
    except KeyboardInterrupt:
        return 0
    except (ServerError, ProtocolError) as exc:
        code = getattr(exc, "exit_code", 1)
        out.info(f"error: {exc}")
        return code if code != 0 else 1
    return 0


def _cmd_client_mutate(args: argparse.Namespace) -> int:
    from .errors import ProtocolError, ServerError

    inserts = _parse_edge_pairs(args.insert or [])
    deletes = _parse_edge_pairs(args.delete or [])
    if not inserts and not deletes:
        out.info("error: nothing to do (pass --insert and/or --delete)")
        return 1
    client = _make_client(args)
    try:
        with client:
            frame = client.mutate(args.session, insert=inserts, delete=deletes)
    except (ServerError, ProtocolError) as exc:
        code = getattr(exc, "exit_code", 1)
        out.info(f"error: {exc}")
        return code if code != 0 else 1
    if args.json:
        import json

        sys.stdout.write(json.dumps(frame) + "\n")
        return 0
    out.info(_format_update(frame))
    return 0


def _cmd_client_close_session(args: argparse.Namespace) -> int:
    from .errors import ProtocolError, ServerError

    client = _make_client(args)
    try:
        with client:
            frame = client.close_session(args.session)
    except (ServerError, ProtocolError) as exc:
        code = getattr(exc, "exit_code", 1)
        out.info(f"error: {exc}")
        return code if code != 0 else 1
    out.info(
        f"closed session {frame.get('session')!r} at " + _format_update(frame)
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .graph.stats import analyze

    graph = _load(args.graph)
    stats = analyze(graph, triangles=not args.no_triangles)
    out.info(f"graph:             {graph}")
    out.info(f"max degree:        {stats.max_degree}")
    out.info(f"degree p90/p99:    {stats.degree_p90:.0f} / {stats.degree_p99:.0f}")
    out.info(
        f"degeneracy:        {stats.degeneracy} (omega <= {stats.clique_upper_bound})"
    )
    if not args.no_triangles:
        out.info(f"triangles:         {stats.triangles}")
        out.info(f"clustering:        {stats.global_clustering:.4f}")
    out.info(f"prunability:       {stats.hardness_hint()}")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .datasets.suite import SUITE, load as load_dataset

    for spec in SUITE:
        if args.category and spec.category != args.category:
            continue
        if args.sizes:
            g = load_dataset(spec.name)
            out.info(
                f"{spec.name:24s} {spec.category:8s} |V|={g.num_vertices:>7d} "
                f"|E|={g.num_edges:>8d} deg={g.average_degree:6.1f}  {spec.notes}"
            )
        else:
            out.info(f"{spec.name:24s} {spec.category:8s} {spec.notes}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .baselines.gpu_dfs import gpu_dfs_max_clique
    from .baselines.pmc import pmc_max_clique

    graph = _load(args.graph)
    out.info(f"graph: {graph}")
    # one tracer spans all three solvers, so a single trace file shows
    # the per-phase comparison apples-to-apples
    tracer = _make_tracer(args)
    device = Device(DeviceSpec(memory_bytes=args.memory_mib * MIB))
    try:
        bf = MaxCliqueSolver(graph, SolverConfig(), device, tracer=tracer).solve()
        out.info(
            f"breadth-first (this paper): omega={bf.clique_number} "
            f"x{bf.num_maximum_cliques}  model={bf.model_time_s * 1e3:.3f} ms"
        )
        omega = bf.clique_number
    except DeviceOOMError:
        out.info("breadth-first (this paper): OOM at this budget")
        omega = None
    pmc = pmc_max_clique(graph, tracer=tracer)
    out.info(
        f"PMC CPU branch&bound:       omega={pmc.clique_number}  "
        f"model={pmc.model_time_s * 1e3:.3f} ms"
    )
    dfs = gpu_dfs_max_clique(
        graph,
        Device(DeviceSpec(memory_bytes=args.memory_mib * MIB)),
        tracer=tracer,
    )
    out.info(
        f"warp-parallel GPU DFS:      omega={dfs.clique_number}  "
        f"model={dfs.model_time_s * 1e3:.3f} ms  "
        f"(subtree imbalance {dfs.imbalance:.1f}x)"
    )
    agree = omega is None or (omega == pmc.clique_number == dfs.clique_number)
    # the other problem kinds, each against its exact CPU oracle
    from .baselines import count_k_cliques_reference, maximal_clique_set

    kc = MaxCliqueSolver(
        graph,
        SolverConfig(problem="k-clique-count", k=args.k),
        Device(DeviceSpec(memory_bytes=args.memory_mib * MIB)),
        tracer=tracer,
    ).solve()
    kc_ref = count_k_cliques_reference(graph, args.k)
    out.info(
        f"k-clique-count (k={args.k}):     count={kc.count}  "
        f"model={kc.model_time_s * 1e3:.3f} ms  "
        f"(CPU oracle: {kc_ref})"
    )
    me = MaxCliqueSolver(
        graph,
        SolverConfig(problem="maximal-enum"),
        Device(DeviceSpec(memory_bytes=args.memory_mib * MIB)),
        tracer=tracer,
    ).solve()
    me_ref = len(maximal_clique_set(graph))
    out.info(
        f"maximal-enum:               maximal={me.num_maximal_cliques}  "
        f"model={me.model_time_s * 1e3:.3f} ms  "
        f"(CPU oracle: {me_ref})"
    )
    agree = agree and kc.count == kc_ref and me.num_maximal_cliques == me_ref
    _export_trace(tracer, args)
    if not agree:
        out.info("warning: solvers disagree!")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Maximum clique enumeration on a simulated GPU"
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="repro logger level (debug shows per-stage timings)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="enumerate maximum cliques")
    p_solve.add_argument("graph", help="graph file or suite dataset name")
    _add_solver_args(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_batch = sub.add_parser(
        "batch", help="run a JSON job file through the solve service"
    )
    p_batch.add_argument("jobs", help="jobs file (JSON; see docs/SERVICE.md)")
    _add_service_args(p_batch)
    p_batch.add_argument(
        "--executor", default="serial", choices=["serial", "threaded"],
        help="batch executor: one job at a time, or host threads "
        "overlapping jobs across the device pool (byte-identical "
        "records; lower wall-clock on multi-core hosts)",
    )
    p_batch.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker threads for --executor threaded "
        "(default: one per device; clamped to the pool size)",
    )
    p_batch.add_argument(
        "--fault-plan", metavar="PATH", default=None,
        help="inject deterministic device faults from a fault-plan file "
        "(JSON, repro-fault-plan/1; see docs/SERVICE.md) -- results must "
        "match the fault-free run, only fault accounting differs",
    )
    p_batch.add_argument(
        "--json", action="store_true",
        help="emit the full JSON report ({jobs, summary, devices}) on stdout",
    )
    p_batch.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the JSON report to a file",
    )
    _add_trace_args(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_info = sub.add_parser("info", help="structural statistics")
    p_info.add_argument("graph")
    p_info.add_argument("--no-triangles", action="store_true")
    p_info.set_defaults(func=_cmd_info)

    p_data = sub.add_parser("datasets", help="list the surrogate suite")
    p_data.add_argument("--category", default=None)
    p_data.add_argument("--sizes", action="store_true", help="also build and show sizes")
    p_data.set_defaults(func=_cmd_datasets)

    p_cmp = sub.add_parser(
        "compare",
        help="BF vs PMC vs warp-DFS, plus the counting/enumeration "
        "kinds vs their exact CPU oracles",
    )
    p_cmp.add_argument("graph")
    p_cmp.add_argument("--memory-mib", type=int, default=192)
    p_cmp.add_argument(
        "--k", type=int, default=3, metavar="K",
        help="clique size for the k-clique-count row (default 3)",
    )
    _add_trace_args(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_serve = sub.add_parser(
        "serve", help="network solve server (repro-wire/1)"
    )
    _add_listener_args(
        p_serve,
        None,
        "TCP port (default 7421; 0 picks an ephemeral port)",
        max_conns=32,
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="solver worker threads; >1 enables the threaded batch "
        "executor (default 1)",
    )
    p_serve.add_argument(
        "--rate", type=float, default=0.0,
        help="per-connection solve rate limit in requests/second "
        "(token bucket; 0 disables, the default)",
    )
    p_serve.add_argument(
        "--burst", type=int, default=8,
        help="token-bucket burst size for --rate (default 8)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded solve queue; beyond it solves get a retriable "
        "server_busy error (default 64)",
    )
    _add_service_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_router = sub.add_parser(
        "router",
        help="consistent-hash cluster router over N solve servers",
    )
    p_router.add_argument(
        "--backends", nargs="+", required=True, metavar="HOST:PORT",
        help="backend solve servers (at least one)",
    )
    _add_listener_args(
        p_router,
        None,
        "TCP port (default 7431; 0 picks an ephemeral port)",
        max_conns=64,
    )
    p_router.add_argument(
        "--replicas", type=int, default=64, metavar="N",
        help="virtual nodes per backend on the hash ring (default 64)",
    )
    p_router.add_argument(
        "--probe-interval", type=float, default=0.5, metavar="SECONDS",
        help="seconds between per-backend health probes (default 0.5)",
    )
    p_router.add_argument(
        "--down-threshold", type=int, default=3,
        help="consecutive probe misses before a backend is down "
        "(default 3)",
    )
    p_router.add_argument(
        "--checkpoint-poll", type=float, default=0.25, metavar="SECONDS",
        help="seconds between checkpoint polls of in-flight resumable "
        "solves (default 0.25)",
    )
    p_router.add_argument(
        "--jitter-seed", type=int, default=None, metavar="SEED",
        help="seed the resubmit-backoff jitter stream (default: OS entropy)",
    )
    p_router.set_defaults(func=_cmd_router)

    p_chaos = sub.add_parser(
        "chaos-proxy",
        help="deterministic wire-fault injection proxy (repro-net-fault-plan/1)",
    )
    p_chaos.add_argument(
        "--upstream", required=True, metavar="HOST:PORT",
        help="the real endpoint to relay to (a repro serve or router)",
    )
    _add_listener_args(p_chaos, 0, "TCP port to listen on (default 0: ephemeral)")
    p_chaos.add_argument(
        "--plan", default=None, metavar="PLAN.json",
        help="repro-net-fault-plan/1 file; omit for a transparent relay",
    )
    p_chaos.set_defaults(func=_cmd_chaos_proxy)

    p_client = sub.add_parser(
        "client", help="talk to a running solve server"
    )
    client_sub = p_client.add_subparsers(dest="verb", required=True)

    def _add_client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--host", default="127.0.0.1",
            help="server host (default 127.0.0.1)",
        )
        p.add_argument(
            "--port", type=int, default=None,
            help="server port (default 7421)",
        )
        p.add_argument(
            "--retries", type=int, default=5,
            help="retries for retriable failures (default 5)",
        )
        p.add_argument(
            "--wait", type=float, default=120.0, metavar="SECONDS",
            help="socket timeout per reply (default 120)",
        )
        p.add_argument(
            "--addr", action="append", metavar="HOST:PORT", default=None,
            help="server address; repeat to give fallbacks the client "
            "rotates through on connection failure or a draining "
            "reject (overrides --host/--port)",
        )

    p_csolve = client_sub.add_parser(
        "solve", help="solve one graph against the server"
    )
    p_csolve.add_argument("graph", help="graph file or suite dataset name")
    _add_problem_args(p_csolve)
    p_csolve.add_argument(
        "--heuristic",
        default="multi-degree",
        choices=["none", "single-degree", "single-core", "multi-degree", "multi-core"],
        help="lower-bound heuristic (paper Section IV-A)",
    )
    p_csolve.add_argument(
        "--window", default=None,
        help="window size (int or 'auto') for the windowed search",
    )
    p_csolve.add_argument(
        "--window-order", default="natural",
        choices=["natural", "asc-degree", "desc-degree"],
    )
    p_csolve.add_argument(
        "--adaptive", action="store_true",
        help="recursive windowing: split windows that exceed memory",
    )
    p_csolve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (exits 3 when exceeded)",
    )
    p_csolve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="end-to-end answer budget, retries included; the remaining "
        "budget propagates on the wire so router and server stop "
        "working on the request once it is spent (exits 3)",
    )
    p_csolve.add_argument(
        "--max-report", type=int, default=20,
        help="maximum cliques to print (count is always exact)",
    )
    p_csolve.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON result instead of text",
    )
    _add_client_args(p_csolve)
    p_csolve.set_defaults(func=_cmd_client_solve)

    p_cstats = client_sub.add_parser(
        "stats", help="server gauges, latency percentiles, service counters"
    )
    p_cstats.add_argument(
        "--json", action="store_true",
        help="emit the raw stats frame as JSON",
    )
    _add_client_args(p_cstats)
    p_cstats.set_defaults(func=_cmd_client_stats)

    p_cshut = client_sub.add_parser(
        "shutdown", help="ask the server to drain and exit"
    )
    _add_client_args(p_cshut)
    p_cshut.set_defaults(func=_cmd_client_shutdown)

    p_cmut = client_sub.add_parser(
        "mutate", help="apply an edge insert/delete batch to a session"
    )
    p_cmut.add_argument("session", help="session id (see 'repro watch')")
    p_cmut.add_argument(
        "--insert", action="append", metavar="U,V", default=None,
        help="edge to insert; repeat for a batch",
    )
    p_cmut.add_argument(
        "--delete", action="append", metavar="U,V", default=None,
        help="edge to delete; repeat for a batch",
    )
    p_cmut.add_argument(
        "--json", action="store_true",
        help="emit the mutated frame as JSON",
    )
    _add_client_args(p_cmut)
    p_cmut.set_defaults(func=_cmd_client_mutate)

    p_cclose = client_sub.add_parser(
        "close-session", help="close a streaming graph session"
    )
    p_cclose.add_argument("session", help="session id to close")
    _add_client_args(p_cclose)
    p_cclose.set_defaults(func=_cmd_client_close_session)

    p_watch = sub.add_parser(
        "watch",
        help="subscribe to a streaming session and print ω(G) transitions",
    )
    p_watch.add_argument("session", help="session id to watch (or open)")
    p_watch.add_argument(
        "--graph", default=None, metavar="GRAPH",
        help="open the session first with this graph file or dataset name "
        "(omit to attach to an already-open session)",
    )
    p_watch.add_argument(
        "--max-updates", type=int, default=None, metavar="N",
        help="exit after N update frames (default: run until closed)",
    )
    p_watch.add_argument(
        "--json", action="store_true",
        help="emit update frames as JSON lines",
    )
    _add_client_args(p_watch)
    p_watch.set_defaults(func=_cmd_watch)

    p_cluster = sub.add_parser(
        "cluster-status",
        help="per-backend health and routing counters of a router",
    )
    p_cluster.add_argument(
        "--json", action="store_true",
        help="emit the raw router stats frame as JSON",
    )
    _add_client_args(p_cluster)
    p_cluster.set_defaults(func=_cmd_cluster_status)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
