"""Command-line interface.

::

    python -m repro solve GRAPH [options]     # solve one problem kind in-process
    python -m repro batch JOBS.json [options] # run a job file through the service
    python -m repro serve [options]           # network solve server (repro-wire/1)
    python -m repro router --backends H:P ... # consistent-hash cluster router
    python -m repro chaos-proxy --upstream H:P  # seeded wire-fault proxy
    python -m repro cluster-status            # per-backend health/routing view
    python -m repro client solve GRAPH        # solve against a running server
    python -m repro client stats|shutdown     # server statistics / graceful drain
    python -m repro client mutate|close-session SID  # streaming sessions
    python -m repro watch SID [--graph GRAPH] # follow a session's updates
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

``solve`` and ``client solve`` share one flag group
(:func:`_add_solve_args`, read by :func:`_config_fields`). How each
problem kind's answer prints -- in ``solve``, ``batch`` and ``client
solve``, as text or ``--json`` -- is one entry of :data:`_ANSWERS`.
A wire or server error of any ``client`` verb, ``watch`` or
``cluster-status`` is printed in one place, :func:`main`, which exits
with the status the error carries. Every ``--json`` output goes
through :func:`_print_json`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple

from .core.config import PROBLEM_KINDS, SolverConfig, is_time_budget
from .core.solver import MaxCliqueSolver
from .errors import (
    CheckpointError,
    DeviceLostError,
    DeviceOOMError,
    FaultPlanError,
    JobSpecError,
    ProtocolError,
    ServerError,
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


@dataclass(frozen=True)
class _Answer:
    """How one problem kind's answer prints."""

    #: ``(result attribute, wire-record field)`` pairs: the attributes
    #: ``solve --json`` lists, in order, and the record field ``client
    #: solve --json`` reads for each (None: the client leaves it out;
    #: ``cliques`` is the reply's clique rows)
    fields: Tuple[Tuple[str, Optional[str]], ...]
    #: ``batch`` figures of an ok job, formatted over its record
    batch: str
    #: ``client solve`` headline, formatted over the wire record
    headline: str
    #: noun of the clique rows (``maximum``, ``maximal``); None: no rows
    rows: Optional[str] = None
    #: the attribute and record field counting every row
    total: Optional[str] = None
    #: whether that count is exact even when not every row was enumerated
    total_exact: bool = False


#: every problem kind's answer, keyed by :data:`PROBLEM_KINDS` name
_ANSWERS = {
    "max-clique": _Answer(
        fields=(
            ("problem", None),
            ("clique_number", "clique_number"),
            ("num_maximum_cliques", "num_maximum_cliques"),
            ("cliques", "cliques"),
            ("found_by", None),
            ("enumerated_all", "enumerated_all"),
            ("heuristic", None),
            ("pruned_fraction", None),
        ),
        batch="omega={clique_number} x{num_maximum_cliques}",
        headline="omega = {clique_number}, {num_maximum_cliques} maximum clique(s)",
        rows="maximum",
        total="num_maximum_cliques",
    ),
    "k-clique-count": _Answer(
        fields=(
            ("problem", "problem"),
            ("k", "k"),
            ("count", "k_clique_count"),
            ("found_by", None),
        ),
        batch="count[k={k}]={k_clique_count}",
        headline="{k_clique_count} {k}-clique(s)",
    ),
    "maximal-enum": _Answer(
        fields=(
            ("problem", "problem"),
            ("num_maximal_cliques", "num_maximal_cliques"),
            ("max_clique_size", "clique_number"),
            ("cliques", "cliques"),
            ("found_by", None),
            ("enumerated_all", "enumerated_all"),
        ),
        batch="maximal={num_maximal_cliques} omega={clique_number}",
        headline="{num_maximal_cliques} maximal clique(s), omega = {clique_number}",
        rows="maximal",
        total="num_maximal_cliques",
        total_exact=True,
    ),
}


def _print_rows(
    answer: _Answer, rows, total: Optional[int], enumerated_all: bool
) -> None:
    """Print clique rows, then how many more the exact count holds."""
    for row in rows:
        out.info("  clique: " + " ".join(str(int(v)) for v in row))
    extra = (total or 0) - len(rows)
    if extra > 0 and (enumerated_all or answer.total_exact):
        out.info(f"  ... and {extra} more {answer.rows} clique(s)")


def _print_json(payload: Any, indent: Optional[int] = 2) -> None:
    """Write ``payload`` to stdout as JSON, bypassing logging so piping
    always works."""
    sys.stdout.write(json.dumps(payload, indent=indent) + "\n")
    sys.stdout.flush()


def _load(name: str) -> CSRGraph:
    """Load a graph file, or fall back to a suite dataset name."""
    from .service.jobs import resolve_graph

    try:
        return resolve_graph(name)
    except JobSpecError as exc:
        raise SystemExit(f"error: {exc}")


def _device(args: argparse.Namespace) -> Device:
    """A fresh simulated device with the ``--memory-mib`` budget."""
    return Device(DeviceSpec(memory_bytes=args.memory_mib * MIB))


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


def _add_solve_args(p: argparse.ArgumentParser) -> None:
    """The flags ``solve`` and ``client solve`` share."""
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
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (exits 3 when exceeded)",
    )
    p.add_argument(
        "--max-report", type=int, default=20,
        help="maximum cliques to print (count is always exact)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON result instead of text",
    )


def _config_fields(args: argparse.Namespace) -> dict:
    """The :class:`SolverConfig` fields the :func:`_add_solve_args` flags set."""
    window = args.window
    if window is not None and window != "auto":
        window = int(window)
    return {
        "problem": args.problem,
        "k": args.k,
        "heuristic": args.heuristic,
        "window_size": window,
        "window_order": args.window_order,
        "adaptive_windowing": args.adaptive,
        "max_cliques_report": max(args.max_report, 1),
    }


def _time_budget(text: str) -> float:
    """``--timeout`` of ``batch``/``serve``: :func:`is_time_budget` or exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if not is_time_budget(value):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive finite number of seconds"
        )
    return value


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
        "--timeout", type=_time_budget, default=None, metavar="SECONDS",
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


def _run_endpoint(endpoint, args: argparse.Namespace) -> None:
    """Serve until drained; a failed bind is a CLI error."""
    try:
        endpoint.run()
    except OSError as exc:
        raise SystemExit(f"error: cannot bind {args.host}:{args.port}: {exc}")


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
    try:
        config = SolverConfig(
            **_config_fields(args),
            time_limit_s=args.timeout if args.timeout is not None else args.time_limit,
        )
    except SolverConfigError as exc:
        raise SystemExit(f"error: {exc}")
    tracer = _make_tracer(args)
    checkpoint, checkpoint_sink = _checkpoint_round_trip(args, graph, config)
    if not args.json:
        out.info(f"graph: {graph}")
    try:
        result = MaxCliqueSolver(
            graph,
            config,
            _device(args),
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
    answer = _ANSWERS[config.problem]
    rows = result.cliques[: args.max_report] if answer.rows else []
    if args.json:
        payload = {}
        for attr, _ in answer.fields:
            if attr == "cliques":
                payload[attr] = [[int(v) for v in row] for row in rows]
            elif attr == "heuristic":
                payload[attr] = {
                    "kind": result.heuristic.kind,
                    "lower_bound": result.heuristic.lower_bound,
                }
            else:
                payload[attr] = getattr(result, attr)
        _print_json(
            {
                **payload,
                "model_time_s": result.model_time_s,
                "wall_time_s": result.wall_time_s,
                "peak_memory_bytes": result.peak_memory_bytes,
                "windows": len(result.windows),
                "stage_model_times_s": result.stage_times,
            }
        )
        _export_trace(tracer, args)
        return 0
    out.info(result.summary())
    if answer.rows:
        _print_rows(
            answer, rows, getattr(result, answer.total), result.enumerated_all
        )
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
        _print_json(payload)
    else:
        for r, job in zip(records, payload["jobs"]):
            if r.ok:
                figures = _ANSWERS[r.problem].batch.format(**job)
            else:
                figures = r.error or ""
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
    from .server import DEFAULT_PORT, ServerConfig, SolveServer
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
    _run_endpoint(server, args)
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
    _run_endpoint(router, args)
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
    _run_endpoint(proxy, args)
    injected = proxy.counters.get("injected.total", 0)
    out.info(
        f"chaos-proxy: done after "
        f"{proxy.counters.get('conns.total', 0)} connection(s), "
        f"{injected} fault(s) injected"
    )
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    from .cluster import DEFAULT_ROUTER_PORT

    if args.port is None and not args.addr:
        args.port = DEFAULT_ROUTER_PORT
    with _make_client(args) as client:
        stats = client.stats()
    if "router" not in stats or "backends" not in stats:
        out.info(
            f"error: {client.host}:{client.port} answers stats but is "
            f"not a router (point this at `repro router`)"
        )
        return 1
    if args.json:
        _print_json(stats)
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

    if args.addr:
        target = {"addresses": list(args.addr)}
    else:
        port = args.port if args.port is not None else DEFAULT_PORT
        target = {"host": args.host, "port": port}
    try:
        return SolveClient(**target, timeout_s=args.wait, retries=args.retries)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


def _wire_graph(name: str):
    """A local file ships gzip-compressed inline; anything else is a
    dataset name (or server-side path) the server resolves itself."""
    return _load(name) if Path(name).exists() else name


def _cmd_client_solve(args: argparse.Namespace) -> int:
    config = _config_fields(args)
    problem = config.pop("problem")
    graph = _wire_graph(args.graph)
    with _make_client(args) as client:
        reply = client.solve(
            graph,
            config=config,
            problem=problem,
            timeout_s=args.timeout,
            label=args.graph,
            deadline_s=args.deadline,
        )
    record = reply["record"]
    exit_code = int(reply.get("exit_code", 0))
    answer = _ANSWERS[record.get("problem", "max-clique")]
    rows = reply.get("cliques", [])[: args.max_report]
    if args.json:
        payload = {
            attr: rows if field == "cliques" else record[field]
            for attr, field in answer.fields
            if field is not None
        }
        _print_json({**payload, "record": record})
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
    out.info(answer.headline.format(**record) + tags)
    if answer.rows:
        _print_rows(answer, rows, record[answer.total], record["enumerated_all"])
    out.info(
        f"  server: attempts={record['attempts']} "
        f"admission={record['admission']} "
        f"model={record['model_time_s'] * 1e3:.3f}ms "
        f"wall={record['wall_time_s'] * 1e3:.1f}ms"
    )
    return exit_code


def _cmd_client_stats(args: argparse.Namespace) -> int:
    with _make_client(args) as client:
        stats = client.stats()
    if args.json:
        _print_json(stats)
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
    with _make_client(args) as client:
        bye = client.shutdown()
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
    try:
        if args.graph is not None:
            graph = _wire_graph(args.graph)
            with _make_client(args) as opener:
                opened = opener.open_session(graph, session=args.session)
            if not args.json:
                out.info(
                    f"opened session {opened['session']!r} "
                    f"(|V|={opened['num_vertices']}, "
                    f"|E|={opened['num_edges']})"
                )
        seen = 0
        with _make_client(args) as watcher:
            for frame in watcher.subscribe(args.session):
                if args.json:
                    _print_json(frame, indent=None)
                else:
                    out.info(_format_update(frame))
                seen += 1
                if frame.get("closed"):
                    break
                if args.max_updates is not None and seen >= args.max_updates:
                    break
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_client_mutate(args: argparse.Namespace) -> int:
    inserts = _parse_edge_pairs(args.insert or [])
    deletes = _parse_edge_pairs(args.delete or [])
    if not inserts and not deletes:
        out.info("error: nothing to do (pass --insert and/or --delete)")
        return 1
    with _make_client(args) as client:
        frame = client.mutate(args.session, insert=inserts, delete=deletes)
    if args.json:
        _print_json(frame, indent=None)
        return 0
    out.info(_format_update(frame))
    return 0


def _cmd_client_close_session(args: argparse.Namespace) -> int:
    with _make_client(args) as client:
        frame = client.close_session(args.session)
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

    def solve(config: SolverConfig):
        return MaxCliqueSolver(graph, config, _device(args), tracer=tracer).solve()

    try:
        bf = solve(SolverConfig())
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
    dfs = gpu_dfs_max_clique(graph, _device(args), tracer=tracer)
    out.info(
        f"warp-parallel GPU DFS:      omega={dfs.clique_number}  "
        f"model={dfs.model_time_s * 1e3:.3f} ms  "
        f"(subtree imbalance {dfs.imbalance:.1f}x)"
    )
    agree = omega is None or (omega == pmc.clique_number == dfs.clique_number)
    # the other problem kinds, each against its exact CPU oracle
    from .baselines import count_k_cliques_reference, maximal_clique_set

    kc = solve(SolverConfig(problem="k-clique-count", k=args.k))
    kc_ref = count_k_cliques_reference(graph, args.k)
    out.info(
        f"k-clique-count (k={args.k}):     count={kc.count}  "
        f"model={kc.model_time_s * 1e3:.3f} ms  "
        f"(CPU oracle: {kc_ref})"
    )
    me = solve(SolverConfig(problem="maximal-enum"))
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
    _add_solve_args(p_solve)
    p_solve.add_argument(
        "--memory-mib", type=int, default=192,
        help="device memory budget in MiB (default 192)",
    )
    p_solve.add_argument(
        "--time-limit", type=float, default=None,
        help="abort after this many wall seconds (--timeout wins)",
    )
    p_solve.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="checkpoint file for the windowed search: resumed from if "
        "it exists, rewritten after every completed window, removed on "
        "success (requires --window)",
    )
    _add_trace_args(p_solve)
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
    _add_solve_args(p_csolve)
    p_csolve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="end-to-end answer budget, retries included; the remaining "
        "budget propagates on the wire so router and server stop "
        "working on the request once it is spent (exits 3)",
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
    try:
        return args.func(args)
    except (ServerError, ProtocolError) as exc:
        # the one error path of every client verb, watch and cluster-status
        out.info(f"error: {exc}")
        return getattr(exc, "exit_code", 1) or 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
