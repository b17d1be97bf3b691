"""Command-line interface for the DDSketch reproduction.

Four subcommands cover the common workflows:

``sketch``
    Read one number per line (stdin or a file), build a DDSketch and print the
    requested quantiles along with exact count/min/max/average.  Values are
    ingested in NumPy batches (``--batch-size``, default 8192) through the
    vectorized ``add_batch`` path; ``--batch-size 1`` forces the per-value
    scalar path.  ``--variant uddsketch`` selects the uniform-collapse sketch
    (bounded memory with an adaptive ``alpha``); its report additionally
    prints the *effective* accuracy after any collapses.

``generate``
    Emit values from one of the evaluation data sets (pareto / span / power),
    one per line — handy for piping into ``sketch`` or external tools.

``evaluate``
    Run the Figure 10/11-style accuracy comparison for one data set and print
    the per-sketch relative and rank errors.

``bounds``
    Evaluate the Section 3 sketch-size bounds for a given stream size.

``serve``
    Run the cross-process aggregation server: accepts frame-v3 pushes over a
    length-prefixed socket protocol, persists every accepted frame to a
    crash-recoverable segment log under ``--data-dir``, and replays to a
    bit-exact state on restart.  Overload posture is tunable:
    ``--max-inflight`` / ``--max-connections`` bound the admission gate,
    ``--idle-timeout`` reaps stalled connections, ``--drain-timeout`` bounds
    the graceful shutdown, and ``--max-message-bytes`` rejects hostile
    length prefixes before any allocation.

``push``
    Read one number per line, sketch the values, and push the resulting
    frame to a running ``serve`` instance — the smallest possible agent.
    ``--retries`` / ``--deadline`` bound the attempt budget, and with
    ``--spool-dir`` a push that still fails is parked in a durable
    :class:`~repro.service.FrameSpool` (and replayed on the next run).

``load-gen``
    Run the agent-fleet load generator against a freshly started in-process
    server and write the measured end-to-end frames/sec and values/sec to
    ``BENCH_service.json`` (shared benchmark-artifact schema).  With
    ``--overload``, run the graceful-degradation benchmark instead — fleet
    at 1x and 2x admission capacity plus an outage-spool replay — and write
    ``BENCH_overload.json``.

``version``
    Print the package, Python and NumPy versions, the ingest-kernel
    backend and the frame compressions available on this host — the first
    thing to check when comparing benchmark numbers from two machines.

``simulate``
    Run the Section 1 monitoring fleet end to end — agents sketching skewed
    latencies, multi-sketch wire frames, a tag-aware aggregator — and print
    the distributed quantiles next to the exact ones.
    ``--series-cardinality N`` fans the metric out into ``N`` tagged
    endpoint series ingested through the grouped registry pipeline (flushed
    as multi-sketch wire frames, frame v3); the report then includes a
    tag-filtered per-endpoint p99 sample.  ``--shards N`` (with optional
    ``--workers K``) runs every agent on the sharded concurrent registry:
    per-shard ingest queues, a thread-pool flush, and one frame per shard
    on the wire.

Run ``python -m repro --help`` for details.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.ddsketch import DDSketch
from repro.core.uddsketch import UDDSketch
from repro.datasets.registry import dataset_names, get_dataset
from repro.evaluation.accuracy import measure_accuracy
from repro.evaluation.report import format_quantile_errors, format_table
from repro.exceptions import ReproError
from repro.theory.bounds import exponential_size_bound, pareto_size_bound


def _parse_quantiles(raw: str) -> List[float]:
    quantiles = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        quantile = float(part)
        if not 0 <= quantile <= 1:
            raise argparse.ArgumentTypeError(f"quantile {quantile} is not in [0, 1]")
        quantiles.append(quantile)
    if not quantiles:
        raise argparse.ArgumentTypeError("at least one quantile is required")
    return quantiles


def _parse_batch_size(raw: str) -> int:
    batch_size = int(raw)
    if batch_size < 1:
        raise argparse.ArgumentTypeError(f"batch size must be at least 1, got {batch_size}")
    return batch_size


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DDSketch reproduction: sketch streams, generate data sets, run experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sketch = subparsers.add_parser("sketch", help="sketch numbers from a file or stdin")
    sketch.add_argument("input", nargs="?", default="-", help="input file (default: stdin)")
    sketch.add_argument(
        "--relative-accuracy", type=float, default=0.01, help="alpha (default: 0.01)"
    )
    sketch.add_argument("--bin-limit", type=int, default=2048, help="bucket limit m (default: 2048)")
    sketch.add_argument(
        "--variant",
        choices=("ddsketch", "uddsketch"),
        default="ddsketch",
        help=(
            "sketch variant: 'ddsketch' collapses the lowest buckets when the limit "
            "is hit (paper Algorithm 3/4), 'uddsketch' collapses uniformly and "
            "degrades alpha instead (default: ddsketch)"
        ),
    )
    sketch.add_argument(
        "--batch-size",
        type=_parse_batch_size,
        default=8192,
        help="values per vectorized ingestion batch; 1 disables batching (default: 8192)",
    )
    sketch.add_argument(
        "--quantiles",
        type=_parse_quantiles,
        default=[0.5, 0.75, 0.9, 0.95, 0.99],
        help="comma-separated quantiles (default: 0.5,0.75,0.9,0.95,0.99)",
    )

    generate = subparsers.add_parser("generate", help="emit values from an evaluation data set")
    generate.add_argument("dataset", choices=list(dataset_names()))
    generate.add_argument("--size", type=int, default=10_000, help="number of values (default: 10000)")
    generate.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")

    evaluate = subparsers.add_parser("evaluate", help="accuracy comparison on one data set")
    evaluate.add_argument("dataset", choices=list(dataset_names()))
    evaluate.add_argument("--size", type=int, default=20_000, help="stream size (default: 20000)")
    evaluate.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    evaluate.add_argument(
        "--quantiles", type=_parse_quantiles, default=[0.5, 0.95, 0.99], help="quantiles to evaluate"
    )

    subparsers.add_parser(
        "version",
        help="print the package version and the active ingest-kernel backend",
    )

    bounds = subparsers.add_parser("bounds", help="evaluate the Section 3 size bounds")
    bounds.add_argument("--size", type=int, default=1_000_000, help="stream size n (default: 1e6)")
    bounds.add_argument(
        "--relative-accuracy", type=float, default=0.01, help="alpha (default: 0.01)"
    )

    simulate = subparsers.add_parser(
        "simulate", help="run the Section 1 monitoring fleet end to end"
    )
    simulate.add_argument("--hosts", type=int, default=8, help="fleet size (default: 8)")
    simulate.add_argument(
        "--intervals", type=int, default=12, help="flush intervals to simulate (default: 12)"
    )
    simulate.add_argument(
        "--requests-per-interval",
        type=int,
        default=5000,
        help="requests handled by the fleet per interval (default: 5000)",
    )
    simulate.add_argument(
        "--series-cardinality",
        type=int,
        default=1,
        help=(
            "number of tagged endpoint series the metric fans out into; "
            "values > 1 exercise the grouped registry ingestion and the "
            "multi-sketch wire frames (frame v3, version byte 0x03; "
            "default: 1)"
        ),
    )
    simulate.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "ingestion shards per agent; values > 1 run the sharded "
            "concurrent registry (per-shard ingest queues, thread-pool "
            "flush, one frame-v3 payload per shard on the wire; default: 1)"
        ),
    )
    simulate.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "flush worker threads per agent in sharded mode "
            "(default: one per shard, capped at the CPU count)"
        ),
    )
    simulate.add_argument(
        "--relative-accuracy", type=float, default=0.01, help="alpha (default: 0.01)"
    )
    simulate.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    simulate.add_argument(
        "--quantiles",
        type=_parse_quantiles,
        default=[0.5, 0.75, 0.9, 0.95, 0.99],
        help="comma-separated quantiles (default: 0.5,0.75,0.9,0.95,0.99)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the aggregation server (frame v3 over sockets, segment-log durability)",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        help=(
            "segment-log directory; accepted frames are persisted here and "
            "replayed to a bit-exact state on restart (default: in-memory only)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="listen address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0, help="listen port; 0 picks a free one")
    serve.add_argument(
        "--segment-bytes",
        type=int,
        default=4 * 1024 * 1024,
        help="segment rotation threshold in bytes (default: 4 MiB)",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=256,
        help="write a compacted snapshot every N accepted frames; 0 disables (default: 256)",
    )
    serve.add_argument(
        "--retention",
        type=int,
        default=64,
        help="flush-interval buckets retained for windowed queries (default: 64)",
    )
    serve.add_argument(
        "--interval-length",
        type=float,
        default=1.0,
        help="length of one retention bucket in seconds (default: 1.0)",
    )
    serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every accepted frame (survive OS crashes, not just process crashes)",
    )
    serve.add_argument(
        "--max-frames",
        type=int,
        default=0,
        help="exit after accepting N frames (0 = serve until interrupted; used by tests)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission gate: concurrent pushes beyond this are shed with OVERLOADED (default: 64)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=256,
        help="connections beyond this get one OVERLOADED reply and are closed (default: 256)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        help="seconds a connection may sit without a complete message before it is reaped (default: 300)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds a graceful shutdown waits for in-flight requests (default: 5)",
    )
    serve.add_argument(
        "--max-message-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="reject inbound messages whose length prefix exceeds this (default: 64 MiB)",
    )

    push = subparsers.add_parser(
        "push", help="sketch numbers from a file or stdin and push one frame to a server"
    )
    push.add_argument("input", nargs="?", default="-", help="input file (default: stdin)")
    push.add_argument("--host", default="127.0.0.1", help="server address (default: 127.0.0.1)")
    push.add_argument("--port", type=int, required=True, help="server port")
    push.add_argument("--metric", default="cli.values", help="metric name (default: cli.values)")
    push.add_argument(
        "--tag",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="tag the pushed series (repeatable)",
    )
    push.add_argument(
        "--agent-host",
        default="repro-push",
        help="producer identity used for deduplication (default: repro-push)",
    )
    push.add_argument(
        "--interval-start",
        type=float,
        default=0.0,
        help="interval timestamp carried by the pushed frame (default: 0.0)",
    )
    push.add_argument(
        "--relative-accuracy", type=float, default=0.01, help="alpha (default: 0.01)"
    )
    push.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retransmissions after a transport failure or OVERLOADED reply (default: 2)",
    )
    push.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="overall per-call budget in seconds across all retries (default: none)",
    )
    push.add_argument(
        "--spool-dir",
        default=None,
        help=(
            "durable spool directory: a push that fails after its retries is "
            "parked here (and previously spooled frames are replayed first)"
        ),
    )
    push.add_argument(
        "--compress",
        choices=("none", "zlib", "zstd"),
        default="none",
        help=(
            "compress the frame before pushing (zstd needs the optional "
            "zstandard module; the server decodes either form)"
        ),
    )

    query = subparsers.add_parser(
        "query",
        help="interactive quantile / threshold queries against a running server",
    )
    query.add_argument("--host", default="127.0.0.1", help="server address (default: 127.0.0.1)")
    query.add_argument("--port", type=int, required=True, help="server port")
    query.add_argument("--metric", required=True, help="metric to query")
    query.add_argument(
        "--quantiles",
        default="0.5,0.95,0.99",
        help="comma-separated quantiles (default: 0.5,0.95,0.99)",
    )
    query.add_argument(
        "--tag-filter",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="merge only series carrying this tag (repeatable)",
    )
    query.add_argument(
        "--window-start", type=float, default=None, help="window start timestamp (inclusive)"
    )
    query.add_argument(
        "--window-end", type=float, default=None, help="window end timestamp (exclusive)"
    )
    query.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=(
            "run a threshold query instead: list the series whose quantile "
            "estimate passes this value (uses the first entry of --quantiles)"
        ),
    )
    query.add_argument(
        "--below",
        action="store_true",
        help="with --threshold: match series strictly below instead of above",
    )

    load_gen = subparsers.add_parser(
        "load-gen",
        help="simulated agent fleet vs a real in-process server; writes BENCH_service.json",
    )
    load_gen.add_argument("--agents", type=int, default=100, help="fleet size (default: 100)")
    load_gen.add_argument(
        "--series", type=int, default=20, help="tagged series per agent (default: 20)"
    )
    load_gen.add_argument(
        "--intervals", type=int, default=4, help="flush intervals per agent (default: 4)"
    )
    load_gen.add_argument(
        "--values",
        type=int,
        default=2000,
        help="values per agent per interval (default: 2000)",
    )
    load_gen.add_argument(
        "--push-threads", type=int, default=4, help="concurrent client connections (default: 4)"
    )
    load_gen.add_argument(
        "--no-durability",
        action="store_true",
        help="skip the segment log (measures the pure in-memory ingest path)",
    )
    load_gen.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    load_gen.add_argument(
        "--overload",
        action="store_true",
        help=(
            "run the graceful-degradation benchmark instead: fleet at 1x and 2x "
            "admission capacity plus an outage-spool replay phase "
            "(writes BENCH_overload.json)"
        ),
    )
    load_gen.add_argument(
        "--output",
        default=None,
        help="benchmark artifact path (default: BENCH_service.json, or BENCH_overload.json with --overload)",
    )

    return parser


def _read_values(source: str, stdin=None) -> Iterable[float]:
    stream = stdin if source == "-" else open(source, "r", encoding="utf-8")
    try:
        for line in stream:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield float(line)
    finally:
        if source != "-":
            stream.close()


def _run_sketch(args: argparse.Namespace, stdin, stdout) -> int:
    if args.variant == "uddsketch":
        sketch = UDDSketch(relative_accuracy=args.relative_accuracy, bin_limit=args.bin_limit)
    else:
        sketch = DDSketch(relative_accuracy=args.relative_accuracy, bin_limit=args.bin_limit)
    if args.batch_size > 1:
        buffer: List[float] = []
        for value in _read_values(args.input, stdin):
            buffer.append(value)
            if len(buffer) >= args.batch_size:
                sketch.add_batch(np.asarray(buffer))
                buffer.clear()
        if buffer:
            sketch.add_batch(np.asarray(buffer))
    else:
        for value in _read_values(args.input, stdin):
            sketch.add(value)
    if sketch.is_empty:
        print("no values read", file=stdout)
        return 1
    rows = [
        ["count", f"{int(sketch.count)}"],
        ["min", f"{sketch.min:.6g}"],
        ["max", f"{sketch.max:.6g}"],
        ["average", f"{sketch.avg:.6g}"],
        ["buckets", f"{sketch.num_buckets}"],
        ["bytes", f"{sketch.size_in_bytes()}"],
    ]
    if args.variant == "uddsketch":
        # The guarantee is adaptive: report what it degraded to (and how many
        # uniform collapses got it there) next to the configured target.
        rows.append(["alpha (configured)", f"{sketch.initial_relative_accuracy:.6g}"])
        rows.append(["alpha (effective)", f"{sketch.relative_accuracy:.6g}"])
        rows.append(["collapses", f"{sketch.collapse_count}"])
    for quantile in args.quantiles:
        rows.append([f"p{quantile * 100:g}", f"{sketch.get_quantile_value(quantile):.6g}"])
    print(format_table(["statistic", "value"], rows), file=stdout)
    return 0


def _run_generate(args: argparse.Namespace, stdout) -> int:
    spec = get_dataset(args.dataset)
    for value in spec.generator(args.size, args.seed):
        print(f"{float(value):.9g}", file=stdout)
    return 0


def _run_evaluate(args: argparse.Namespace, stdout) -> int:
    measurement = measure_accuracy(
        args.dataset, args.size, quantiles=tuple(args.quantiles), seed=args.seed
    )
    print(f"dataset: {args.dataset}   n = {args.size}", file=stdout)
    print("", file=stdout)
    print("relative error:", file=stdout)
    print(format_quantile_errors(measurement.relative_errors, "sketch"), file=stdout)
    print("", file=stdout)
    print("rank error:", file=stdout)
    print(format_quantile_errors(measurement.rank_errors, "sketch"), file=stdout)
    return 0


def _run_bounds(args: argparse.Namespace, stdout) -> int:
    rows = [
        [
            "exponential(1)",
            f"{exponential_size_bound(args.size, alpha=args.relative_accuracy):.0f}",
        ],
        ["pareto(1, 1)", f"{pareto_size_bound(args.size, alpha=args.relative_accuracy):.0f}"],
    ]
    print(
        f"Theorem 9 bucket bounds for n = {args.size}, alpha = {args.relative_accuracy}",
        file=stdout,
    )
    print(format_table(["distribution", "bucket bound"], rows), file=stdout)
    return 0


def _run_version(stdout) -> int:
    import platform

    import repro
    from repro import kernel
    from repro.serialization.frame import frame_compressions

    rows = [
        ["repro", repro.__version__],
        ["python", platform.python_version()],
        ["numpy", np.__version__],
        ["kernel backend", kernel.active_backend()],
        ["frame compression", ",".join(frame_compressions())],
    ]
    print(format_table(["component", "value"], rows), file=stdout)
    return 0


def _run_simulate(args: argparse.Namespace, stdout) -> int:
    from repro.monitoring import MonitoringSimulation

    simulation = MonitoringSimulation(
        num_hosts=args.hosts,
        requests_per_interval=args.requests_per_interval,
        num_intervals=args.intervals,
        relative_accuracy=args.relative_accuracy,
        seed=args.seed,
        series_cardinality=args.series_cardinality,
        shards=args.shards,
        flush_workers=args.workers,
    )
    simulation.run()
    report = simulation.report(quantiles=tuple(args.quantiles))
    print(
        f"metric: {report.metric}   hosts = {report.num_hosts}   "
        f"intervals = {report.num_intervals}   series = {report.num_series}"
        + (f"   shards = {report.shards}" if report.shards > 1 else ""),
        file=stdout,
    )
    rows = [
        ["requests", f"{report.total_requests}"],
        ["bytes on wire", f"{report.bytes_on_wire}"],
        ["max relative error", f"{report.max_relative_error():.6g}"],
    ]
    print(format_table(["statistic", "value"], rows), file=stdout)
    print("", file=stdout)
    quantile_rows = [
        [
            f"p{quantile * 100:g}",
            f"{report.overall_quantiles[quantile]:.6g}",
            f"{report.exact_quantiles[quantile]:.6g}",
        ]
        for quantile in args.quantiles
    ]
    print(format_table(["quantile", "distributed", "exact"], quantile_rows), file=stdout)
    if report.endpoint_p99:
        print("", file=stdout)
        print("tag-filtered p99 per endpoint (first 5):", file=stdout)
        endpoint_rows = [
            [endpoint, f"{value:.6g}"]
            for endpoint, value in sorted(report.endpoint_p99.items())[:5]
        ]
        print(format_table(["endpoint", "p99"], endpoint_rows), file=stdout)
    return 0


def _run_serve(args: argparse.Namespace, stdout) -> int:
    import asyncio

    from repro.service import AggregationServer

    async def _serve() -> None:
        server = AggregationServer(
            data_dir=args.data_dir,
            host=args.host,
            port=args.port,
            interval_length=args.interval_length,
            retention_intervals=args.retention,
            max_segment_bytes=args.segment_bytes,
            snapshot_every=args.snapshot_every,
            fsync=args.fsync,
            max_inflight_pushes=args.max_inflight,
            max_connections=args.max_connections,
            idle_timeout=args.idle_timeout,
            drain_timeout=args.drain_timeout,
            max_message_bytes=args.max_message_bytes,
        )
        await server.start()
        recovery = server.last_recovery
        host, port = server.address
        print(f"listening on {host}:{port}", file=stdout, flush=True)
        if args.data_dir is not None:
            print(
                f"recovered {recovery.records_replayed} record(s) "
                f"after snapshot seq {recovery.snapshot_applied} "
                f"({len(recovery.quarantined)} quarantined region(s))",
                file=stdout,
                flush=True,
            )
        if args.max_frames > 0:
            # Test/diagnostic mode: poll until N frames arrived, then exit.
            while server.state.frames_applied < args.max_frames:
                await asyncio.sleep(0.01)
            await server.stop()
        else:
            await server.serve_until_stopped()
        print(
            f"served {server.state.frames_applied} frame(s), "
            f"{server.state.values_applied:.0f} values",
            file=stdout,
        )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _parse_tags(raw_tags: List[str]) -> dict:
    tags = {}
    for raw in raw_tags:
        key, separator, value = raw.partition("=")
        if not separator or not key:
            raise argparse.ArgumentTypeError(f"tags must look like KEY=VALUE, got {raw!r}")
        tags[key] = value
    return tags


def _run_push(args: argparse.Namespace, stdin, stdout) -> int:
    from repro.exceptions import ServiceError
    from repro.registry import SketchRegistry
    from repro.serialization.frame import compress_frame
    from repro.service import FrameSpool, ServiceClient

    tags = _parse_tags(args.tag)
    registry = SketchRegistry(
        sketch_factory=lambda: DDSketch(relative_accuracy=args.relative_accuracy)
    )
    values = [value for value in _read_values(args.input, stdin)]
    if not values:
        print("no values read", file=stdout)
        return 1
    registry.add_batch(args.metric, np.asarray(values, dtype=np.float64), tags=tags or None)
    spool = FrameSpool(args.spool_dir) if args.spool_dir is not None else None
    try:
        with ServiceClient(
            args.host, args.port, retries=args.retries, deadline=args.deadline
        ) as client:
            if spool is not None and spool.pending:
                try:
                    replayed = spool.drain(client.push_envelope)
                    print(f"replayed {replayed} spooled frame(s)", file=stdout)
                except ServiceError:
                    print(f"server unreachable; {spool.pending} frame(s) still spooled", file=stdout)
            # Each CLI run is a fresh producer incarnation with no durable
            # sequence state: seed the sequence from the wall clock so it
            # lands above anything an earlier run (or a spooled envelope
            # about to be replayed) already burned for this identity, while
            # in-run retransmits still reuse the same envelope and dedup
            # exactly-once.
            import time as _time

            envelope = client.build_envelope(
                compress_frame(registry.flush_frame(), args.compress),
                host=args.agent_host,
                interval_start=args.interval_start,
                sequence=max(
                    client.next_sequence(args.agent_host), int(_time.time() * 1000)
                ),
            )
            try:
                ack = client.push_envelope(envelope)
            except ServiceError as error:
                if spool is None:
                    raise
                spooled = spool.offer(envelope)
                print(
                    f"push failed ({error}); frame "
                    + ("spooled for replay" if spooled else "dropped (spool budget exceeded)"),
                    file=stdout,
                )
                return 0 if spooled else 2
            # The push is the operation; the stats line is informational.
            # A server that goes away between the ACK and this call must
            # not turn a successful push into a failure.
            try:
                stats = client.stats()
            except ServiceError:
                stats = None
    finally:
        if spool is not None:
            spool.close()
    print(
        f"pushed {len(values)} value(s) as ({ack['host']}, seq {ack['sequence']})"
        + (" [duplicate]" if ack["duplicate"] else ""),
        file=stdout,
    )
    if stats is not None:
        print(
            f"server now holds {stats['num_series']:.0f} series, "
            f"{stats['total_count']:.0f} values",
            file=stdout,
        )
    return 0


def _run_query(args: argparse.Namespace, stdout) -> int:
    from repro.service import ServiceClient

    try:
        quantiles = [float(entry) for entry in args.quantiles.split(",") if entry.strip()]
    except ValueError:
        print(f"--quantiles must be comma-separated numbers, got {args.quantiles!r}", file=stdout)
        return 2
    if not quantiles:
        print("--quantiles must name at least one quantile", file=stdout)
        return 2
    tag_filter = _parse_tags(args.tag_filter) or None
    with ServiceClient(args.host, args.port) as client:
        if args.threshold is not None:
            reply = client.query_threshold(
                args.metric,
                quantiles[0],
                args.threshold,
                above=not args.below,
                tag_filter=tag_filter,
                window_start=args.window_start,
                window_end=args.window_end,
            )
            direction = "<" if args.below else ">"
            print(
                f"{args.metric}: p{quantiles[0] * 100:g} {direction} {args.threshold:g} — "
                f"{len(reply['matches'])} of {reply['total_series']} series "
                f"(pruned {reply['pruned']}, scanned {reply['scanned']}, "
                f"prune rate {reply['prune_rate']:.1%})",
                file=stdout,
            )
            for name in reply["matches"]:
                print(f"  {name}", file=stdout)
            return 0
        reply = client.query_quantiles(
            args.metric,
            quantiles,
            tag_filter=tag_filter,
            window_start=args.window_start,
            window_end=args.window_end,
        )
        for quantile, value in zip(quantiles, reply["values"]):
            print(f"{args.metric} p{quantile * 100:g} = {value:.6g}", file=stdout)
    return 0


def _run_load_gen(args: argparse.Namespace, stdout) -> int:
    from repro.evaluation.artifacts import write_bench_artifact
    from repro.service.loadgen import run_load_generator, run_overload_benchmark

    if args.overload:
        sections = run_overload_benchmark(seed=args.seed)
        at_1x, at_2x = sections["capacity_1x"], sections["capacity_2x"]
        spool = sections["outage_spool"]
        rows = [
            ["1x frames/sec", f"{at_1x['frames_per_sec']:.0f}"],
            ["1x shed rate", f"{at_1x['shed_rate']:.3f}"],
            ["2x frames/sec", f"{at_2x['frames_per_sec']:.0f}"],
            ["2x shed rate", f"{at_2x['shed_rate']:.3f}"],
            ["2x push p99", f"{at_2x['push_p99_ms']:.1f} ms"],
            ["2x ping p99", f"{at_2x.get('ping_p99_ms', 0.0):.1f} ms"],
            ["frames spooled", f"{spool['frames_spooled']}"],
            ["frames recovered", f"{spool['frames_recovered']}"],
            ["frames dropped", f"{spool['frames_dropped']}"],
        ]
        print(format_table(["statistic", "value"], rows), file=stdout)
        output = args.output if args.output is not None else "BENCH_overload.json"
        for name, metrics in sections.items():
            path = write_bench_artifact(output, "overload", name, metrics)
        print(f"wrote {path}", file=stdout)
        return 0

    metrics = run_load_generator(
        num_agents=args.agents,
        series_per_agent=args.series,
        num_intervals=args.intervals,
        values_per_interval=args.values,
        push_threads=args.push_threads,
        durable=not args.no_durability,
        seed=args.seed,
    )
    rows = [
        ["agents x series", f"{metrics['agents']} x {metrics['series_per_agent']}"],
        ["frames pushed", f"{metrics['frames']}"],
        ["values pushed", f"{metrics['values']}"],
        ["bytes on wire", f"{metrics['bytes_on_wire']}"],
        ["durability", "segment log" if metrics["durable"] else "in-memory"],
        ["elapsed", f"{metrics['seconds']:.3f} s"],
        ["frames/sec", f"{metrics['frames_per_sec']:.0f}"],
        ["values/sec", f"{metrics['values_per_sec']:.0f}"],
        ["MB/sec", f"{metrics['mb_per_sec']:.2f}"],
    ]
    print(format_table(["statistic", "value"], rows), file=stdout)
    output = args.output if args.output is not None else "BENCH_service.json"
    path = write_bench_artifact(output, "service", "service_loadgen", metrics)
    print(f"wrote {path}", file=stdout)
    return 0


def main(argv: Optional[Sequence[str]] = None, stdin=None, stdout=None) -> int:
    """CLI entry point; returns the process exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sketch":
            return _run_sketch(args, stdin, stdout)
        if args.command == "generate":
            return _run_generate(args, stdout)
        if args.command == "evaluate":
            return _run_evaluate(args, stdout)
        if args.command == "bounds":
            return _run_bounds(args, stdout)
        if args.command == "version":
            return _run_version(stdout)
        if args.command == "simulate":
            return _run_simulate(args, stdout)
        if args.command == "serve":
            return _run_serve(args, stdout)
        if args.command == "push":
            return _run_push(args, stdin, stdout)
        if args.command == "query":
            return _run_query(args, stdout)
        if args.command == "load-gen":
            return _run_load_gen(args, stdout)
    except ReproError as error:
        print(f"error: {error}", file=stdout)
        return 2
    except ValueError as error:
        print(f"error: invalid input ({error})", file=stdout)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
