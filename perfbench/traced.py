"""The traced run: where the time of one value's trip goes, layer by layer.

The run makes one serial pass per kernel backend (the active one, then
``numpy`` when it differs) on one connection, so no two spans overlap:

* client side, spans around each generator-side call: batch generation,
  ``record_grouped``, the agent flush, ``compress_frame``, the envelope
  build, the push round trip and each query;
* server side, the acknowledged envelopes are replayed in this process
  through the server's public accept pipeline in its order
  (``decode_push_envelope(validate_frame=True)`` -> ``is_duplicate`` ->
  ``SegmentLog.append`` -> ``ServiceState.apply``, with ``to_snapshot`` /
  ``write_snapshot`` at the server's cadence), then recovered with
  ``AggregationServer.recover`` and queried like the server was.

The pass is fixed work, so its counts repeat exactly for one seed and
``--seconds`` does not apply to it.  Its busy time is its wall time less
the open-loop sleeps to schedule slots.  The on-path spans must cover the
busy time to within 10%.  The same pass is made once more untraced; the
busy-time difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import kernel
from repro.core.ddsketch import DDSketch
from repro.kernel.segments import NEGATIVE, POSITIVE
from repro.monitoring import MetricAgent
from repro.serialization.frame import compress_frame, decode_frame
from repro.service import (
    AggregationServer,
    SegmentLog,
    ServiceState,
    decode_push_envelope,
    encode_push_envelope,
)

from checks import Checks, Ledger, check_answers
from e2e import Errors, preload_envelopes, query_once, start_server
from harness import metric, median
from workloads import METRIC, QUANTILES, THRESHOLD_QUANTILE, WINDOW_INTERVALS, FleetData, Workload

#: Queries per kind after a closed-loop pass (the open-loop pass interleaves
#: one query after every push instead).
CLOSED_LOOP_QUERIES = 6
COVERAGE_TOLERANCE = 0.10
#: Spans that are probes beside the path, not steps of it.
OFF_PATH = ("kernel.compute_keys", "serialization.decode_frame")


class Tracer:
    """In-memory spans: ``(name, duration)`` in the order they closed."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        began = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, time.perf_counter() - began))

    def self_times(self) -> Dict[str, float]:
        """Total time per span name (spans never nest)."""
        totals: Dict[str, float] = {}
        for name, duration in self.spans:
            totals[name] = totals.get(name, 0.0) + duration
        return totals

    def durations(self, name: str) -> List[float]:
        return [duration for span_name, duration in self.spans if span_name == name]


class _NoTracer:
    @contextlib.contextmanager
    def span(self, name: str):
        yield


NO_TRACE = _NoTracer()


def serial_pass(data: FleetData, server, tracer, ledger: Ledger,
                errors: Errors) -> Tuple[float, float, List[bytes], Dict[str, object]]:
    """Preload untraced, then push the pass's frames and ask its queries.

    Everything goes through one connection.  Returns the pass's wall time,
    the part of it spent waiting for open-loop schedule slots, every
    acknowledged envelope (preload first) and the pass's bookkeeping.
    """
    workload = data.workload
    client = server.client(timeout=60.0)
    try:
        preload = preload_envelopes(data, client, ledger)
        for envelope in preload:
            client.push_envelope(envelope)
        agents = [MetricAgent(host) for host in data.hosts]
        period = 0.0 if workload.closed_loop else 1.0 / workload.push_rate
        first = workload.preload_intervals
        frames: List[Tuple[int, int]] = []
        lateness: List[float] = []
        raw_bytes = compressed_bytes = 0
        kinds = ["slice", "window", "threshold"]
        pushes = 0
        waited = 0.0
        began = time.perf_counter()
        last_ack = began
        for interval in range(first, first + workload.trace_intervals):
            for host in data.active_hosts(interval):
                # A closed-loop connection is due to send again when its
                # previous ACK lands; an open-loop one at its schedule slot.
                due = began + pushes * period if period else last_ack
                if not period:
                    lateness.append(time.perf_counter() - due)
                with tracer.span("generator.batch"):
                    groups, values = data.batch(host, interval)
                with tracer.span("monitoring.record"):
                    agents[host].record_grouped(data.series[host], groups, values)
                with tracer.span("monitoring.flush"):
                    (frame,) = agents[host].flush_shard_frames(float(interval))
                with tracer.span("serialization.compress"):
                    body = compress_frame(frame.payload, workload.compression)
                with tracer.span("service.protocol.encode"):
                    envelope = client.build_envelope(
                        body, host=frame.host, interval_start=frame.interval_start
                    )
                if period:
                    # Sleeping to the slot is schedule, not work: it is
                    # neither spanned nor part of the pass's busy time.
                    slept = time.perf_counter()
                    wait = due - slept
                    if wait > 0:
                        time.sleep(wait)
                    waited += time.perf_counter() - slept
                    lateness.append(time.perf_counter() - due)
                with tracer.span("service.push"):
                    ack = errors.attempt(client.push_envelope, envelope)
                last_ack = time.perf_counter()
                pushes += 1
                if ack is not None:
                    frames.append((host, interval))
                    ledger.add(host, interval)
                    raw_bytes += len(frame.payload)
                    compressed_bytes += len(body)
                if period:
                    kind = kinds[(pushes - 1) % 3]
                    with tracer.span(f"query.{kind}"):
                        errors.attempt(query_once, client, data, kind, interval)
        if not period:
            newest = first + workload.trace_intervals - 1
            for index in range(CLOSED_LOOP_QUERIES * 3):
                kind = kinds[index % 3]
                with tracer.span(f"query.{kind}"):
                    errors.attempt(query_once, client, data, kind, newest)
        wall = time.perf_counter() - began
        info = {
            "frames": frames,
            "lateness": lateness,
            "compress_ratio": raw_bytes / compressed_bytes,
            "retries": client.counters["retries"],
            "overloads": client.counters["overloads"],
            "preloaded": len(preload),
        }
        return wall, waited, list(client.envelopes), info
    finally:
        client.close()


def replay_server(envelopes: List[bytes], traced_from: int, workload: Workload, data_dir: Path,
                  tracer: Tracer) -> Tuple[ServiceState, Dict[str, float]]:
    """The server's accept pipeline, in process, over the acknowledged envelopes.

    Envelopes before ``traced_from`` (the preload) build state untraced.
    """
    state = ServiceState()
    replay = {"snapshots": 0, "snapshot_s": 0.0, "segment_bytes": 0}
    since = 0
    log = SegmentLog(data_dir, fsync=False)
    try:
        for index, payload in enumerate(envelopes):
            span = (tracer if index >= traced_from else NO_TRACE).span
            before = sum(path.stat().st_size for path in log.segment_paths())
            with span("service.protocol.decode_push"):
                envelope = decode_push_envelope(payload, validate_frame=True)
            with span("service.state.dedup"):
                duplicate = state.is_duplicate(envelope.host, envelope.sequence)
            if duplicate:
                continue
            with span("service.segment_log.append"):
                applied = log.append(payload)
            with span("service.state.apply"):
                state.apply(envelope)
            if index >= traced_from:
                replay["segment_bytes"] += (
                    sum(path.stat().st_size for path in log.segment_paths()) - before
                )
            since += 1
            if since >= workload.snapshot_every:
                began = time.perf_counter()
                with span("service.state.to_snapshot"):
                    snapshot = state.to_snapshot()
                with span("service.segment_log.write_snapshot"):
                    log.write_snapshot(snapshot, applied)
                    log.compact(applied)
                replay["snapshots"] += 1
                replay["snapshot_s"] += time.perf_counter() - began
                since = 0
        for payload in envelopes[traced_from:]:
            frame = decode_push_envelope(payload).frame
            with tracer.span("serialization.decode_frame"):
                decode_frame(frame)
    finally:
        log.close()
    return state, replay


def layer_metrics(data: FleetData, server, work: Path, label: str,
                  ledger: Ledger, errors: Errors) -> Tuple[Dict[str, dict], Dict[str, object]]:
    """One backend's per-layer metrics from a traced pass plus its replay."""
    workload = data.workload
    tracer = Tracer()
    wall, waited, envelopes, info = serial_pass(data, server, tracer, ledger, errors)
    busy = wall - waited
    frames = info["frames"]
    values = len(frames) * workload.values_per_frame
    series = len(frames) * workload.series_per_host
    mapping = DDSketch(relative_accuracy=0.01).mapping
    for host, interval in frames:
        _, batch = data.batch(host, interval)
        with tracer.span("kernel.compute_keys"):
            split = kernel.compute_keys(mapping, batch)
            # Keys are computed lazily per sign; ask for them as ingest does.
            for sign, count in ((POSITIVE, split.num_positive), (NEGATIVE, split.num_negative)):
                if count:
                    split.key_range(sign)

    on_path = {
        name: seconds for name, seconds in tracer.self_times().items() if name not in OFF_PATH
    }
    coverage = sum(on_path.values()) / busy

    replay_dir = work / f"replay-{label}"
    state, replay = replay_server(envelopes, info["preloaded"], workload, replay_dir, tracer)
    recovered = AggregationServer(data_dir=replay_dir, snapshot_every=workload.snapshot_every)
    began = time.perf_counter()
    recovered.recover()
    recover_s = time.perf_counter() - began
    recovered.log.close()

    newest = max(interval for _, interval in frames)
    window = {"window_start": float(newest - WINDOW_INTERVALS + 1), "window_end": float(newest + 1)}
    query_ms, answers = {}, {}
    for kind, call in (
        ("slice", lambda: state.quantiles(METRIC, QUANTILES, tag_filter=data.slice_filter())),
        ("window", lambda: state.quantiles(METRIC, QUANTILES, tag_filter=data.slice_filter(),
                                           **window)),
        ("threshold", lambda: state.threshold_query(METRIC, THRESHOLD_QUANTILE, data.threshold)),
    ):
        samples = []
        for _ in range(3):
            began = time.perf_counter()
            answers[kind] = call()
            samples.append(time.perf_counter() - began)
        query_ms[kind] = median(samples) * 1e3
    threshold = answers["threshold"]

    totals = tracer.self_times()
    n = len(frames)
    server_stages = sum(
        totals[name]
        for name in (
            "service.protocol.decode_push",
            "service.state.dedup",
            "service.segment_log.append",
            "service.state.apply",
        )
    ) + sum(
        totals.get(name, 0.0)
        for name in ("service.state.to_snapshot", "service.segment_log.write_snapshot")
    )
    apply_s = totals["service.state.apply"]
    decode_s = totals["serialization.decode_frame"]
    pushes = tracer.durations("service.push")
    metrics = {
        "monitoring.record_ns_per_value": metric(totals["monitoring.record"] / values * 1e9, "ns"),
        "monitoring.flush_us_per_series": metric(totals["monitoring.flush"] / series * 1e6, "us"),
        "kernel.compute_keys_ns_per_value": metric(
            totals["kernel.compute_keys"] / values * 1e9, "ns"),
        "serialization.compress_us_per_frame": metric(
            totals["serialization.compress"] / n * 1e6, "us"),
        "serialization.compress_ratio": metric(info["compress_ratio"], "ratio"),
        "serialization.decode_frame_us_per_series": metric(decode_s / series * 1e6, "us"),
        "service.protocol.decode_push_us_per_frame": metric(
            totals["service.protocol.decode_push"] / n * 1e6, "us"),
        "service.segment_log.append_us_per_frame": metric(
            totals["service.segment_log.append"] / n * 1e6, "us"),
        "service.segment_log.bytes_per_value": metric(replay["segment_bytes"] / values, "B/value"),
        "service.segment_log.snapshot_ms": metric(
            replay["snapshot_s"] / max(1, replay["snapshots"]) * 1e3, "ms"),
        "service.segment_log.snapshots": metric(replay["snapshots"], "count"),
        "service.state.apply_us_per_series": metric(apply_s / series * 1e6, "us"),
        "registry.merge_us_per_series": metric((apply_s - decode_s) / series * 1e6, "us"),
        "service.state.recover_s": metric(recover_s, "s"),
        "service.state.slice_ms": metric(query_ms["slice"], "ms"),
        "service.state.window_ms": metric(query_ms["window"], "ms"),
        "service.state.threshold_ms": metric(query_ms["threshold"], "ms"),
        "query.prune_rate": metric(threshold.prune_rate, "ratio"),
        "query.scanned_series": metric(len(threshold.scanned), "count"),
        "service.transport_us_per_frame": metric((sum(pushes) - server_stages) / n * 1e6, "us"),
        "service.client.retries": metric(info["retries"], "count"),
        "service.client.overloads": metric(info["overloads"], "count"),
        "generator.lateness_ms": metric(median(info["lateness"]) * 1e3, "ms"),
        "trace.coverage": metric(coverage, "ratio"),
    }
    traced_envelopes = envelopes[info["preloaded"]:]
    counts = {
        "frames": n,
        "series_per_frame": series / n,
        "wire_bytes_per_value": sum(map(len, traced_envelopes)) / values,
        "service.segment_log.bytes_per_value": replay["segment_bytes"] / values,
        "service.segment_log.snapshots": replay["snapshots"],
        "query.scanned_series": len(threshold.scanned),
        "serialization.compress_ratio": info["compress_ratio"],
    }
    detail = {
        "counts": counts,
        "wall_s": wall,
        "busy_s": busy,
        "coverage": coverage,
        "self_time_s": {name: round(seconds, 6) for name, seconds in sorted(totals.items())},
        "envelopes": envelopes,
        "state": state,
    }
    return metrics, detail


def warm_up(data: FleetData) -> None:
    """Pay the generator's first-call costs before any pass is timed."""
    workload = data.workload
    agent = MetricAgent(data.hosts[0])
    groups, values = data.batch(0, 0)
    agent.record_grouped(data.series[0], groups, values)
    (frame,) = agent.flush_shard_frames(0.0)
    body = compress_frame(frame.payload, workload.compression)
    state = ServiceState()
    state.apply(decode_push_envelope(
        encode_push_envelope(body, frame.host, 1, 0.0), validate_frame=True))
    state.quantiles(METRIC, QUANTILES, tag_filter=data.slice_filter(), window_start=0.0,
                    window_end=1.0)
    state.threshold_query(METRIC, THRESHOLD_QUANTILE, data.threshold)


def run_traced(workload: Workload, seed: int, work: Path, root: Path, kernel_cache: Path,
               backend: str):
    data = FleetData(workload, seed)
    errors = Errors()
    checks = Checks()
    backends = [backend] + (["numpy"] if backend != "numpy" else [])
    warm_up(data)
    passes = {}
    try:
        for label in backends:
            kernel.set_backend(label)
            ledger = Ledger(data)
            server, _ = start_server(work, f"traced-{label}", workload, kernel_cache, root,
                                     kernel=label)
            try:
                layer, detail = layer_metrics(data, server, work, label, ledger, errors)
                newest = max(interval for _, interval in ledger.frames)
                with server.client() as client:
                    stats = client.stats()
                    served = {
                        kind: query_once(client, data, kind, newest)
                        for kind in ("slice", "window", "threshold")
                    }
            finally:
                server.stop()
            check_answers(checks, ledger, detail["envelopes"], stats, served["slice"]["values"],
                          served["window"]["values"], served["threshold"], prefix=f"{label}.")
            replayed = detail["state"]
            replayed_window = replayed.quantiles(
                METRIC, QUANTILES, tag_filter=data.slice_filter(),
                window_start=float(newest - WINDOW_INTERVALS + 1), window_end=float(newest + 1),
            )
            checks.expect(
                f"replay.{label}.matches_server",
                replayed.stats()["total_count"] == stats["total_count"]
                and replayed.frames_applied == stats["frames_applied"]
                and replayed.quantiles(METRIC, QUANTILES, tag_filter=data.slice_filter())
                == served["slice"]["values"]
                and replayed_window == served["window"]["values"],
                "the in-process replay of the accept pipeline diverged from the server",
            )
            checks.expect(
                f"coverage.{label}",
                abs(1.0 - detail["coverage"]) <= COVERAGE_TOLERANCE,
                f"spans cover {detail['coverage']:.1%} of the pass; "
                f"self times {detail['self_time_s']}",
            )
            passes[label] = (layer, detail)
    finally:
        kernel.set_backend(backend)

    active_layer, active_detail = passes[backend]
    numpy_layer, numpy_detail = passes["numpy"]
    checks.expect(
        "backends.identical_counts",
        active_detail["counts"] == numpy_detail["counts"],
        f"{active_detail['counts']} != {numpy_detail['counts']}",
    )

    # The same pass once more with tracing off, for the tracing overhead.
    server, _ = start_server(work, "untraced", workload, kernel_cache, root, kernel=backend)
    try:
        untraced_wall, untraced_waited, _, _ = serial_pass(
            data, server, NO_TRACE, Ledger(data), errors)
    finally:
        server.stop()
    errors.failed += int(active_layer["service.client.overloads"]["value"])
    errors.failed += int(numpy_layer["service.client.overloads"]["value"])

    metrics: Dict[str, dict] = dict(active_layer)
    metrics.update({f"numpy.{name}": entry for name, entry in numpy_layer.items()})
    untraced_busy = untraced_wall - untraced_waited
    metrics["trace.overhead_ratio"] = metric(active_detail["busy_s"] / untraced_busy - 1.0, "ratio")
    metrics["error_rate"] = metric(errors.failed / errors.attempted, "ratio")
    record = {
        "traced_wall_s": active_detail["wall_s"],
        "traced_busy_s": active_detail["busy_s"],
        "untraced_wall_s": untraced_wall,
        "untraced_busy_s": untraced_busy,
        "self_time_s": active_detail["self_time_s"],
        "counts": active_detail["counts"],
        "backends": backends,
    }
    return metrics, record, checks, errors
