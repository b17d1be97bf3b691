"""Load generator: a simulated agent fleet hammering the real service.

This is the "millions of users" scenario from the ROADMAP run end to end:
``num_agents`` simulated :class:`~repro.monitoring.MetricAgent` hosts, each
fanning one metric out over ``series_per_agent`` tagged endpoint series,
flush one frame-v3 payload per interval and push it — through real push
envelopes, over a real TCP socket, into a real
:class:`~repro.service.server.AggregationServer` with (optionally) a real
segment log behind it.  ``push_threads`` concurrent
:class:`~repro.service.ServiceClient` connections drive the pushes, so the
measured frames/sec and values/sec are genuine end-to-end numbers: envelope
encode + socket + server decode + log append + registry merge + ACK.

The run is self-verifying: afterwards the server's total count must equal
the values generated, and the server's quantiles must be *identical* to a
local reference registry fed the same frames (full mergeability across the
process boundary, paper Section 2.1).  :func:`run_load_generator` returns
the measurements as a plain dict; the CLI (``repro load-gen``) and
``benchmarks/test_service_throughput.py`` write them into
``BENCH_service.json`` using the shared artifact schema
(:mod:`repro.evaluation.artifacts`).

:func:`run_overload_benchmark` is the degraded-mode companion: it throttles
the segment log to a known append capacity, drives the fleet at 1x and 2x
the admission gate, and measures what graceful degradation costs — shed
rate, retry counts, push latency percentiles, ping latency under overload —
plus a server-outage phase where agents spool frames to disk and replay
them after a restart.  Results land in ``BENCH_overload.json`` (CLI:
``repro load-gen --overload``).
"""

from __future__ import annotations

import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.ddsketch import DDSketch
from repro.exceptions import IllegalArgumentError, ServiceError
from repro.registry import SeriesKey, SketchRegistry
from repro.service.client import ServiceClient
from repro.service.server import serve_in_thread
from repro.service.spool import FrameSpool

#: The metric every simulated agent reports.
METRIC = "web.request.latency"


def build_fleet_frames(
    num_agents: int,
    series_per_agent: int,
    num_intervals: int,
    values_per_interval: int,
    relative_accuracy: float = 0.01,
    seed: int = 0,
) -> Tuple[List[Tuple[str, float, bytes]], int]:
    """Pre-build every frame the fleet will push.

    Returns ``(frames, total_values)`` where each frame is a
    ``(host, interval_start, payload)`` triple.  Frame building is kept out
    of the push-timing window so the benchmark measures the service, not
    the generator.  Deterministic in ``seed`` — two calls build
    byte-identical frames, which is how the multi-process e2e test's parent
    reconstructs what its children pushed.
    """
    if min(num_agents, series_per_agent, num_intervals, values_per_interval) < 1:
        raise IllegalArgumentError("fleet dimensions must all be positive")
    frames: List[Tuple[str, float, bytes]] = []
    total_values = 0
    keys = [
        SeriesKey(METRIC, (("endpoint", f"/e{index:04d}"),))
        for index in range(series_per_agent)
    ]
    for agent_index in range(num_agents):
        host = f"host-{agent_index:04d}"
        rng = np.random.default_rng(seed * 1_000_003 + agent_index)
        registry = SketchRegistry(
            sketch_factory=lambda: DDSketch(relative_accuracy=relative_accuracy)
        )
        for interval in range(num_intervals):
            group_indices = rng.integers(0, series_per_agent, values_per_interval)
            values = rng.lognormal(0.0, 1.5, values_per_interval)
            registry.ingest_grouped(keys, group_indices, values)
            frames.append((host, float(interval), registry.flush_frame()))
            total_values += values_per_interval
    return frames, total_values


def reference_registry(frames: List[Tuple[str, float, bytes]]) -> SketchRegistry:
    """The uncrashed, in-process reference: every frame merged locally."""
    reference = SketchRegistry()
    for _, _, payload in frames:
        reference.merge_frame(payload)
    return reference


def run_load_generator(
    num_agents: int = 100,
    series_per_agent: int = 20,
    num_intervals: int = 4,
    values_per_interval: int = 2_000,
    push_threads: int = 4,
    relative_accuracy: float = 0.01,
    seed: int = 0,
    data_dir: Optional[str] = None,
    durable: bool = True,
    snapshot_every: int = 0,
    retention_intervals: int = 64,
) -> Dict[str, Any]:
    """Run the fleet against a freshly started server; returns the metrics.

    With ``durable=True`` (the default) the server persists every accepted
    frame to a segment log (in ``data_dir`` or a temporary directory), so
    the measured throughput includes the write-ahead cost.  The returned
    dict is one ``metrics`` section in the shared BENCH schema; it also
    records that the server's answers matched the local reference exactly
    (``reference_match``) — a failed match raises instead of reporting.
    """
    frames, total_values = build_fleet_frames(
        num_agents,
        series_per_agent,
        num_intervals,
        values_per_interval,
        relative_accuracy=relative_accuracy,
        seed=seed,
    )
    bytes_on_wire = sum(len(payload) for _, _, payload in frames)
    temp_dir: Optional[tempfile.TemporaryDirectory] = None
    if durable and data_dir is None:
        temp_dir = tempfile.TemporaryDirectory(prefix="repro-loadgen-")
        data_dir = temp_dir.name
    try:
        with serve_in_thread(
            data_dir=data_dir if durable else None,
            snapshot_every=snapshot_every,
            retention_intervals=retention_intervals,
        ) as handle:
            host, port = handle.address
            elapsed = _push_all(frames, host, port, push_threads)
            with ServiceClient(host, port) as client:
                stats = client.stats()
                quantiles = (0.5, 0.95, 0.99)
                served = client.query_quantiles(METRIC, quantiles)["values"]
        reference = reference_registry(frames)
        expected = reference.quantiles(METRIC, quantiles)
        if stats["total_count"] != float(total_values):
            raise IllegalArgumentError(
                f"service lost data: {stats['total_count']} != {total_values}"
            )
        if served != expected:
            raise IllegalArgumentError(
                f"service quantiles diverged from the reference: {served} != {expected}"
            )
    finally:
        if temp_dir is not None:
            temp_dir.cleanup()
    return {
        "agents": num_agents,
        "series_per_agent": series_per_agent,
        "intervals": num_intervals,
        "frames": len(frames),
        "values": total_values,
        "bytes_on_wire": bytes_on_wire,
        "push_threads": push_threads,
        "durable": durable,
        "seconds": elapsed,
        "frames_per_sec": len(frames) / elapsed,
        "values_per_sec": total_values / elapsed,
        "mb_per_sec": bytes_on_wire / elapsed / 1e6,
        "reference_match": True,
        "p99": served[2],
    }


def _push_all(
    frames: List[Tuple[str, float, bytes]], host: str, port: int, push_threads: int
) -> float:
    """Push every frame through N concurrent clients; returns the wall time."""
    if push_threads < 1:
        raise IllegalArgumentError(f"push_threads must be positive, got {push_threads!r}")
    push_threads = min(push_threads, len(frames))
    # Partition whole hosts, not individual frames: each client assigns
    # per-host sequence numbers, so one host's frames must flow through one
    # client or the server would deduplicate colliding (host, sequence)
    # identities from different clients.
    hosts = sorted({host for host, _, _ in frames})
    host_to_shard = {host: index % push_threads for index, host in enumerate(hosts)}
    shards: List[List[Tuple[str, float, bytes]]] = [[] for _ in range(push_threads)]
    for frame in frames:
        shards[host_to_shard[frame[0]]].append(frame)
    shards = [shard for shard in shards if shard]
    errors: List[BaseException] = []

    def _worker(shard: List[Tuple[str, float, bytes]]) -> None:
        try:
            with ServiceClient(host, port) as client:
                for agent_host, interval_start, payload in shard:
                    client.push_frame(payload, host=agent_host, interval_start=interval_start)
        except BaseException as error:
            errors.append(error)

    threads = [
        threading.Thread(target=_worker, args=(shard,), daemon=True) for shard in shards
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return max(elapsed, 1e-9)


def _throttled_file_factory(delay: float):
    """A segment-log ``file_factory`` that sleeps ``delay`` per write.

    Gives the overload benchmark a *known* append capacity (roughly
    ``1 / delay`` frames/sec through the single-writer executor) so "1x"
    and "2x admission capacity" mean the same thing on any machine.
    """

    class _ThrottledFile:
        def __init__(self, raw) -> None:
            self._raw = raw

        def write(self, data: bytes) -> int:
            time.sleep(delay)
            return self._raw.write(data)

        def __getattr__(self, name):
            return getattr(self._raw, name)

    def _open(path, mode):
        return _ThrottledFile(open(path, mode))

    return _open


def _relabel_hosts(
    frames: List[Tuple[str, float, bytes]], prefix: str
) -> List[Tuple[str, float, bytes]]:
    """Prefix every frame's host so two phases never collide on dedup
    identities (each phase's clients restart per-host sequences at 1)."""
    return [(f"{prefix}-{host}", interval, payload) for host, interval, payload in frames]


def _push_all_timed(
    frames: List[Tuple[str, float, bytes]],
    host: str,
    port: int,
    push_threads: int,
    **client_kwargs: Any,
) -> Tuple[float, "np.ndarray", Dict[str, int]]:
    """Like :func:`_push_all` but records per-push latency and the summed
    client resilience counters (overload replies seen, retries, …)."""
    push_threads = min(max(push_threads, 1), len(frames))
    hosts = sorted({frame_host for frame_host, _, _ in frames})
    host_to_shard = {frame_host: index % push_threads for index, frame_host in enumerate(hosts)}
    shards: List[List[Tuple[str, float, bytes]]] = [[] for _ in range(push_threads)]
    for frame in frames:
        shards[host_to_shard[frame[0]]].append(frame)
    shards = [shard for shard in shards if shard]
    latencies: List[List[float]] = [[] for _ in shards]
    counters: Dict[str, int] = {}
    counters_lock = threading.Lock()
    errors: List[BaseException] = []

    def _worker(index: int, shard: List[Tuple[str, float, bytes]]) -> None:
        try:
            with ServiceClient(host, port, **client_kwargs) as client:
                for agent_host, interval_start, payload in shard:
                    begin = time.perf_counter()
                    client.push_frame(payload, host=agent_host, interval_start=interval_start)
                    latencies[index].append(time.perf_counter() - begin)
                with counters_lock:
                    for key, value in client.counters.items():
                        counters[key] = counters.get(key, 0) + value
        except BaseException as error:
            errors.append(error)

    threads = [
        threading.Thread(target=_worker, args=(index, shard), daemon=True)
        for index, shard in enumerate(shards)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(time.perf_counter() - start, 1e-9)
    if errors:
        raise errors[0]
    return elapsed, np.concatenate([np.asarray(shard) for shard in latencies]), counters


def _overload_phase_metrics(
    label: str,
    frames: List[Tuple[str, float, bytes]],
    elapsed: float,
    latencies: "np.ndarray",
    counters: Dict[str, int],
    shed_delta: int,
) -> Dict[str, Any]:
    """One BENCH section for a push phase: throughput, shedding, latency."""
    attempts = len(frames) + counters.get("overloads", 0)
    return {
        "load": label,
        "frames": len(frames),
        "seconds": elapsed,
        "frames_per_sec": len(frames) / elapsed,
        "shed_replies": counters.get("overloads", 0),
        "shed_rate": counters.get("overloads", 0) / max(attempts, 1),
        "server_pushes_shed": shed_delta,
        "client_retries": counters.get("retries", 0),
        "push_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "push_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
    }


def run_overload_benchmark(
    num_frames: int = 160,
    values_per_frame: int = 100,
    series_per_agent: int = 5,
    max_inflight_pushes: int = 4,
    write_delay: float = 0.002,
    overload_retry_after: float = 0.01,
    spool_intervals: int = 25,
    relative_accuracy: float = 0.01,
    seed: int = 0,
) -> Dict[str, Dict[str, Any]]:
    """Measure graceful degradation under overload and across an outage.

    Three self-verifying phases against one durable server whose segment
    log is throttled to a known append capacity (``1 / write_delay``
    frames/sec through the single-writer executor):

    1. ``capacity_1x`` — exactly ``max_inflight_pushes`` concurrent clients
       (the admission gate stays open): baseline throughput and latency.
    2. ``capacity_2x`` — twice as many clients: the gate sheds the excess
       with OVERLOADED replies, clients back off and retry, and a prober
       measures ping latency to show the event loop never wedges.
    3. ``outage_spool`` — an agent with a :class:`~repro.service.FrameSpool`
       keeps flushing while the server is down, then replays the spool into
       the restarted (recovered) server.

    Raises when any frame is lost — the returned sections (keyed like the
    BENCH schema) only ever describe a run in which ``frames_applied`` on
    the server equals every frame the fleet produced.
    """
    if spool_intervals < 1:
        raise IllegalArgumentError(
            f"spool_intervals must be positive, got {spool_intervals!r}"
        )
    base_frames, _ = build_fleet_frames(
        num_agents=max(2 * max_inflight_pushes, 2),
        series_per_agent=series_per_agent,
        num_intervals=max(num_frames // max(2 * max_inflight_pushes, 2), 1),
        values_per_interval=values_per_frame,
        relative_accuracy=relative_accuracy,
        seed=seed,
    )
    with tempfile.TemporaryDirectory(prefix="repro-overload-") as data_dir:
        handle = serve_in_thread(
            data_dir=data_dir,
            snapshot_every=0,
            max_inflight_pushes=max_inflight_pushes,
            overload_retry_after=overload_retry_after,
            log_file_factory=_throttled_file_factory(write_delay),
        )
        sections: Dict[str, Dict[str, Any]] = {}
        total_expected = 0
        try:
            host, port = handle.address
            retry_kwargs = {
                "timeout": 10.0,
                "retries": 32,
                "backoff_base": overload_retry_after,
                "backoff_cap": 0.1,
            }
            for label, thread_factor in (("1x", 1), ("2x", 2)):
                frames = _relabel_hosts(base_frames, f"c{thread_factor}")
                total_expected += len(frames)
                with ServiceClient(host, port) as observer:
                    shed_before = observer.stats()["pushes_shed"]
                ping_latencies: List[float] = []
                stop_probe = threading.Event()

                def _probe() -> None:
                    with ServiceClient(host, port, timeout=5.0) as prober:
                        while not stop_probe.is_set():
                            begin = time.perf_counter()
                            prober.ping()
                            ping_latencies.append(time.perf_counter() - begin)
                            time.sleep(0.01)

                prober_thread = threading.Thread(target=_probe, daemon=True)
                prober_thread.start()
                try:
                    elapsed, latencies, counters = _push_all_timed(
                        frames,
                        host,
                        port,
                        push_threads=thread_factor * max_inflight_pushes,
                        **retry_kwargs,
                    )
                finally:
                    stop_probe.set()
                    prober_thread.join(timeout=5)
                with ServiceClient(host, port) as observer:
                    shed_after = observer.stats()["pushes_shed"]
                section = _overload_phase_metrics(
                    label, frames, elapsed, latencies, counters, shed_after - shed_before
                )
                if ping_latencies:
                    section["ping_p99_ms"] = float(np.percentile(ping_latencies, 99)) * 1e3
                sections[f"capacity_{label}"] = section

            sections["outage_spool"] = _run_outage_spool_phase(
                handle, data_dir, spool_intervals, relative_accuracy
            )
            total_expected += sections["outage_spool"]["frames_produced"]
            with ServiceClient(host, port) as verifier:
                applied = verifier.stats()["frames_applied"]
            if applied != total_expected:
                raise IllegalArgumentError(
                    f"overload run lost frames: {applied} != {total_expected}"
                )
            for section in sections.values():
                section["no_frame_lost"] = True
        finally:
            replacement = getattr(handle, "replacement", None)
            if replacement is not None:
                replacement.stop()
            handle.stop()
    return sections


def _run_outage_spool_phase(
    handle, data_dir: str, spool_intervals: int, relative_accuracy: float
) -> Dict[str, Any]:
    """Stop the server mid-run, spool flushes to disk, replay after restart.

    Returns the phase's BENCH section; the caller folds
    ``frames_produced`` into its global conservation check.  The server in
    ``handle`` is stopped and a fresh one is started on the same port and
    data directory — ``handle`` itself is left stopped (its ``stop`` is
    idempotent), and the restarted server is swapped into the caller's
    scope via the returned handle attribute on ``handle.replacement``.
    """
    from repro.monitoring import MetricAgent

    host, port = handle.address
    agent = MetricAgent(
        host="spool-agent",
        sketch_factory=lambda: DDSketch(relative_accuracy=relative_accuracy),
    )
    rng = np.random.default_rng(7)
    produced = 0
    with tempfile.TemporaryDirectory(prefix="repro-spool-") as spool_dir:
        with FrameSpool(spool_dir) as spool:
            with ServiceClient(host, port, timeout=5.0, retries=0) as client:
                # A couple of healthy flushes, then the outage.
                for interval in range(2):
                    agent.record_batch("web.request.latency", rng.lognormal(0.0, 1.5, 50))
                    agent.push_frames(client, interval_start=float(interval), spool=spool)
                    produced += 1
                handle.stop()
                spooled_acks = 0
                for interval in range(2, 2 + spool_intervals):
                    agent.record_batch("web.request.latency", rng.lognormal(0.0, 1.5, 50))
                    acks = agent.push_frames(client, interval_start=float(interval), spool=spool)
                    produced += 1
                    spooled_acks += sum(1 for ack in acks if ack["status"] == "spooled")
                pending_during_outage = spool.pending
                # Restart on the same port with the same data directory: the
                # server recovers from its log, then the spool drains into it.
                replacement = serve_in_thread(data_dir=data_dir, snapshot_every=0, port=port)
                handle.replacement = replacement
                begin = time.perf_counter()
                deadline = begin + 60.0
                while spool.pending:
                    try:
                        spool.drain(client.push_envelope)
                    except ServiceError:
                        time.sleep(0.05)
                    if time.perf_counter() > deadline:
                        raise IllegalArgumentError("spool failed to drain after restart")
                drain_seconds = time.perf_counter() - begin
                counters = spool.counters
                return {
                    "frames_produced": produced,
                    "frames_spooled": counters["frames_spooled"],
                    "spooled_during_outage": pending_during_outage,
                    "spooled_acks": spooled_acks,
                    "frames_recovered": counters["frames_drained"],
                    "frames_dropped": counters["frames_dropped"],
                    "pending_after_drain": spool.pending,
                    "drain_seconds": drain_seconds,
                }
