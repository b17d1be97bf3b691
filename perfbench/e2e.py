"""The untraced run: real agents, a ``repro serve`` child, TCP pushes and queries.

Closed-loop workloads first push on two connections, each thread with its
own share of the agents: record a batch, call
:meth:`~repro.monitoring.MetricAgent.push_frames`, start the next batch a
short seeded think time after the ACK arrives.  In the read phase that
follows, one connection cycles slice, window and threshold queries over the
pushed state, with no pushes beside them.  The open-loop workload's writer
pushes on a fixed schedule and times each push from when it was due, beside
one closed-loop query client.  The closed-loop pushes are a fixed count;
every other phase runs for at least ``seconds`` and until each tail
percentile has ten samples beyond it.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.monitoring import MetricAgent
from repro.serialization.frame import compress_frame
from repro.service.protocol import decode_push_envelope

from checks import Checks, Ledger, check_answers
from harness import (
    RecordingClient,
    ServerProcess,
    median,
    metric,
    percentile,
    require_tail,
)
from workloads import METRIC, QUANTILES, THRESHOLD_QUANTILE, WINDOW_INTERVALS, FleetData, Workload

#: Server starts per run for ``setup_s`` and restarts for ``recovery_s``.
SETUP_REPEATS = 7
RECOVERY_REPEATS = 5
#: A run that cannot gather its samples within this many ``seconds`` fails.
PATIENCE = 8
#: Closed-loop intervals pushed before timing starts: the server's and the
#: agents' first pushes pay one-time costs (lazy imports, kernel loading).
WARMUP_INTERVALS = 4
#: Closed-loop pushers wait a uniform random time up to this long before each
#: batch.  Without it the two loops lock into one of several interleavings
#: for long stretches, and the push latency median jumps between runs.
THINK_S = 0.005


class Errors:
    """Failed or refused pushes and queries, counted across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def attempt(self, call, *args, **kwargs):
        with self._lock:
            self.attempted += 1
        try:
            return call(*args, **kwargs)
        except ReproError as error:
            with self._lock:
                self.failed += 1
                self.messages.append(f"{type(error).__name__}: {error}")
            return None

    def add_overloads(self, clients: List[RecordingClient]) -> None:
        # An OVERLOADED reply the client retried past still counts as refused.
        self.failed += sum(client.counters["overloads"] for client in clients)


def start_server(work: Path, name: str, workload: Workload, kernel_cache: Path, root: Path,
                 kernel: Optional[str] = None, data_dir: Optional[Path] = None) -> Tuple[ServerProcess, float]:
    """Start a server on ``data_dir`` (a fresh ``work/name`` by default) and time it."""
    if data_dir is None:
        data_dir = work / name
        data_dir.mkdir(parents=True)
    server = ServerProcess(root, data_dir, workload.snapshot_every, kernel_cache, kernel=kernel)
    try:
        return server, server.start()
    except BaseException:
        server.stop()
        raise


def preload_envelopes(data: FleetData, client: RecordingClient, ledger: Ledger) -> List[bytes]:
    """Build the retention's envelopes with real agents, ready to push."""
    workload = data.workload
    agents = [MetricAgent(host) for host in data.hosts]
    envelopes = []
    for interval in range(workload.preload_intervals):
        for host in data.active_hosts(interval):
            groups, values = data.batch(host, interval)
            agent = agents[host]
            agent.record_grouped(data.series[host], groups, values)
            (frame,) = agent.flush_shard_frames(float(interval))
            envelopes.append(
                client.build_envelope(
                    compress_frame(frame.payload, workload.compression),
                    host=frame.host,
                    interval_start=frame.interval_start,
                )
            )
            ledger.add(host, interval)
    return envelopes


class Worker(threading.Thread):
    """A thread whose target's exception is re-raised by :meth:`join`."""

    error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            super().run()
        except BaseException as error:  # re-raised in the joining thread
            self.error = error

    def join(self, timeout: Optional[float] = None) -> None:
        super().join(timeout)
        if self.error is not None:
            raise self.error


class PushLog:
    """Per-push ``(due, sent, acked)`` perf-counter stamps, across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.pushes: List[Tuple[float, float, float]] = []
        self.first_record: Optional[float] = None

    def started(self, at: float) -> None:
        with self._lock:
            if self.first_record is None or at < self.first_record:
                self.first_record = at

    def add(self, due: float, sent: float, acked: float) -> None:
        with self._lock:
            self.pushes.append((due, sent, acked))

    def __len__(self) -> int:
        return len(self.pushes)


def closed_loop_pusher(data, client, hosts, log: PushLog, ledger: Ledger,
                       errors: Errors) -> None:
    """Record and push each host's batches in turn, one interval after another.

    Pushes of the first :data:`WARMUP_INTERVALS` intervals are not timed.
    The intervals after them make ``push_samples`` timed pushes across all
    pushers, a fixed count so that the server's snapshots fall on the same
    frames and recovery replays the same log tail in every run.
    """
    workload = data.workload
    think = random.Random(f"{data.seed}/{hosts[0]}")
    agents = {host: MetricAgent(data.hosts[host]) for host in hosts}
    for interval in range(WARMUP_INTERVALS + workload.push_samples // workload.hosts):
        timed = interval >= WARMUP_INTERVALS
        for host in hosts:
            time.sleep(think.uniform(0.0, THINK_S))
            groups, values = data.batch(host, interval)
            if timed:
                log.started(time.perf_counter())
            agents[host].record_grouped(data.series[host], groups, values)
            sent = time.perf_counter()
            acks = errors.attempt(
                agents[host].push_frames, client, float(interval), compression=workload.compression
            )
            acked = time.perf_counter()
            if acks is not None:
                ledger.add(host, interval)
            if timed:
                log.add(sent, sent, acked)


def open_loop_writer(data, client, stop: threading.Event, log: PushLog, ledger: Ledger,
                     errors: Errors, newest: List[int], started: float) -> None:
    """Pushes ``push_rate`` frames per second, new intervals after the preload."""
    workload = data.workload
    agents = [MetricAgent(host) for host in data.hosts]
    period = 1.0 / workload.push_rate
    sequence = 0
    for interval in itertools.count(workload.preload_intervals):
        for host in data.active_hosts(interval):
            if stop.is_set():
                return
            due = started + sequence * period
            sequence += 1
            groups, values = data.batch(host, interval)
            log.started(time.perf_counter())
            agents[host].record_grouped(data.series[host], groups, values)
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            acks = errors.attempt(
                agents[host].push_frames, client, float(interval), compression=workload.compression
            )
            acked = time.perf_counter()
            if acks is not None:
                ledger.add(host, interval)
            log.add(due, sent, acked)
        newest[0] = interval


def query_once(client, data: FleetData, kind: str, newest: int):
    if kind == "threshold":
        return client.query_threshold(METRIC, THRESHOLD_QUANTILE, data.threshold)
    window = {}
    if kind == "window":
        window = {"window_start": float(newest - WINDOW_INTERVALS + 1), "window_end": float(newest + 1)}
    return client.query_quantiles(METRIC, QUANTILES, tag_filter=data.slice_filter(), **window)


def query_loop(client, data, latencies: Dict[str, List[float]], errors: Errors,
               newest: List[int], done) -> None:
    """Cycle slice, window and threshold queries until ``done()``."""
    for kind in itertools.cycle(("slice", "window", "threshold")):
        if done():
            return
        began = time.perf_counter()
        reply = errors.attempt(query_once, client, data, kind, newest[0])
        if reply is not None:
            latencies[kind].append(time.perf_counter() - began)


def run_untraced(workload: Workload, seed: int, seconds: float, work: Path, root: Path,
                 kernel_cache: Path) -> Tuple[Dict[str, dict], Dict[str, object], Checks, Errors]:
    data = FleetData(workload, seed)
    ledger = Ledger(data)
    errors = Errors()
    checks = Checks()
    record: Dict[str, object] = {}

    starts = []
    for attempt in range(SETUP_REPEATS - 1):
        server, elapsed = start_server(work, f"setup-{attempt}", workload, kernel_cache, root)
        server.stop()
        starts.append(elapsed)
    server, elapsed = start_server(work, "server", workload, kernel_cache, root)
    starts.append(elapsed)
    # At most two connections: closed-loop workloads read over their second
    # push connection once the push phase is over.  Clients dial lazily.
    clients = [server.client(timeout=60.0) for _ in range(workload.push_connections)]
    query_client = clients[1] if len(clients) > 1 else server.client(timeout=60.0)
    connections = clients if query_client in clients else clients + [query_client]
    try:
        preload_s = 0.0
        if workload.preload_intervals:
            envelopes = preload_envelopes(data, clients[0], ledger)
            began = time.perf_counter()
            for envelope in envelopes:
                clients[0].push_envelope(envelope)
            preload_s = time.perf_counter() - began
        setup_s = median(starts) + preload_s

        log = PushLog()
        latencies: Dict[str, List[float]] = {"slice": [], "window": [], "threshold": []}
        newest = [workload.preload_intervals - 1]
        began = time.perf_counter()
        deadline = began + PATIENCE * seconds

        def answered() -> bool:
            return min(len(samples) for samples in latencies.values()) >= workload.query_samples

        if workload.closed_loop:
            threads = [
                Worker(
                    target=closed_loop_pusher,
                    args=(data, clients[index],
                          list(range(index, workload.hosts, workload.push_connections)),
                          log, ledger, errors),
                )
                for index in range(workload.push_connections)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Read phase: queries over the pushed state on a quiescent
            # server; dashboard_mixed measures reads beside writes.
            newest[0] = ledger.newest()
            reads_began = time.perf_counter()
            query_loop(
                query_client, data, latencies, errors, newest,
                lambda: (time.perf_counter() - reads_began >= seconds and answered())
                or time.perf_counter() > deadline,
            )
        else:
            stop = threading.Event()
            writer = Worker(
                target=open_loop_writer,
                args=(data, clients[0], stop, log, ledger, errors, newest, began),
            )
            writer.start()
            try:
                query_loop(
                    query_client, data, latencies, errors, newest,
                    lambda: (time.perf_counter() - began >= seconds
                             and len(log) >= workload.push_samples and answered())
                    or time.perf_counter() > deadline,
                )
            finally:
                stop.set()
                writer.join()
        measured_s = time.perf_counter() - began
        errors.add_overloads(connections)

        pushes = [acked - due for due, _, acked in log.pushes]
        require_tail("flush_to_ack", pushes, 0.95)
        for kind, samples in latencies.items():
            require_tail(f"{kind}_query", samples, 0.90)
        lateness = [sent - due for due, sent, _ in log.pushes]
        new_values = len(log) * workload.values_per_frame
        ingest_s = max(acked for _, _, acked in log.pushes) - log.first_record

        envelopes = [envelope for client in clients for envelope in client.envelopes]
        counted = [
            envelope for envelope in envelopes
            if decode_push_envelope(envelope).interval_start < workload.count_intervals
        ]
        counted_values = len(counted) * workload.values_per_frame

        # Quiescent answers for the correctness checks.
        newest_interval = ledger.newest()
        served_slice = query_once(query_client, data, "slice", newest_interval)["values"]
        served_window = query_once(query_client, data, "window", newest_interval)["values"]
        served_threshold = query_once(query_client, data, "threshold", newest_interval)
        stats = query_client.stats()
        check_answers(checks, ledger, envelopes, stats, served_slice, served_window, served_threshold)
        rss_mb = server.peak_rss_mb()
    finally:
        for client in connections:
            client.close()
        server.stop()

    recoveries, recovered_counts = [], []
    for _ in range(RECOVERY_REPEATS):
        recovered, elapsed = start_server(work, "server", workload, kernel_cache, root,
                                          data_dir=server.data_dir)
        recoveries.append(elapsed)
        try:
            with recovered.client(timeout=60.0) as client:
                recovered_counts.append(client.stats()["total_count"])
        finally:
            recovered.stop()
    checks.expect(
        "recovery.total_count",
        all(count == stats["total_count"] for count in recovered_counts),
        f"{recovered_counts} after restarts != {stats['total_count']} before",
    )

    flush = sorted(pushes)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ingest_values_per_s": metric(new_values / ingest_s, "values/s"),
        "flush_to_ack_p50_ms": metric(percentile(flush, 0.50) * 1e3, "ms"),
        "flush_to_ack_p95_ms": metric(percentile(flush, 0.95) * 1e3, "ms"),
        "server_rss_mb": metric(rss_mb, "MiB"),
        "wire_bytes_per_value": metric(sum(map(len, counted)) / counted_values, "B/value"),
    }
    for kind in ("slice", "window", "threshold"):
        metrics[f"{kind}_query_p90_ms"] = metric(percentile(latencies[kind], 0.90) * 1e3, "ms")

    record.update(
        # Query medians and recovery are in the record only: on a host whose
        # speed drifts by half within minutes they spread across runs by more
        # than any bound allows (see README.md).
        query_p50_ms={kind: percentile(samples, 0.50) * 1e3 for kind, samples in latencies.items()},
        recovery_s=median(recoveries),
        samples={"pushes": len(pushes), **{f"{k}_queries": len(v) for k, v in latencies.items()}},
        setup={"server_starts_s": starts, "preload_s": preload_s},
        recoveries_s=recoveries,
        measured_s=measured_s,
        frames=len(envelopes),
        counts={
            "frames": len(counted),
            "series_per_frame": workload.series_per_host,
            "wire_bytes_per_value": sum(map(len, counted)) / counted_values,
        },
        writer_lateness={
            "lateness_p50_ms": percentile(lateness, 0.5) * 1e3,
            "lateness_max_ms": max(lateness) * 1e3,
            # Stalls make single pushes late; a generator that is behind
            # schedule is late on the typical push.
            "behind_schedule": (not workload.closed_loop)
            and percentile(lateness, 0.5) > 0.1 / workload.push_rate,
        },
    )
    return metrics, record, checks, errors
