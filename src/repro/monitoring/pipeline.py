"""End-to-end simulation of the paper's motivating monitoring scenario.

:class:`MonitoringSimulation` reproduces the setting of the paper's Section 1
(Figures 1 and 2): a fleet of hosts serving a web endpoint, each recording
skewed request latencies into a local agent, flushing its sketches every
interval, and a central aggregator answering quantile queries over any
host/time aggregation.  The simulation also keeps the exact raw values so the
benchmarks can verify that the distributed pipeline's answers match a single
sketch (and how close they are to the exact quantiles).

On top of the paper's single-metric setting, the simulation models **high
cardinality**: with ``series_cardinality > 1`` every request is labelled
with an ``endpoint`` tag, each host ingests its interval's latencies as one
columnar batch through the grouped registry pipeline
(:meth:`~repro.monitoring.MetricAgent.record_grouped`), and each flush ships
the host's whole series population as one multi-sketch wire frame
(:meth:`~repro.monitoring.MetricAgent.flush_frame`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.exact import ExactQuantiles
from repro.core.ddsketch import BaseDDSketch, DDSketch
from repro.datasets.synthetic import web_latency_values
from repro.exceptions import EmptySketchError, IllegalArgumentError
from repro.monitoring.agent import MetricAgent
from repro.monitoring.aggregator import Aggregator
from repro.registry import SeriesKey


@dataclass
class SimulationReport:
    """Summary of one simulation run, consumed by benchmarks and examples."""

    metric: str
    num_hosts: int
    num_intervals: int
    requests_per_interval: int
    total_requests: int
    bytes_on_wire: int
    series_cardinality: int = 1
    num_series: int = 1
    shards: int = 1
    average_series: List[Tuple[float, float]] = field(default_factory=list)
    p50_series: List[Tuple[float, float]] = field(default_factory=list)
    p75_series: List[Tuple[float, float]] = field(default_factory=list)
    p99_series: List[Tuple[float, float]] = field(default_factory=list)
    overall_quantiles: Dict[float, float] = field(default_factory=dict)
    exact_quantiles: Dict[float, float] = field(default_factory=dict)
    endpoint_p99: Dict[str, float] = field(default_factory=dict)

    def max_relative_error(self) -> float:
        """Worst relative error of the pipeline's overall quantiles vs exact."""
        worst = 0.0
        for quantile, estimate in self.overall_quantiles.items():
            actual = self.exact_quantiles[quantile]
            if actual != 0:
                worst = max(worst, abs(estimate - actual) / abs(actual))
        return worst


class MonitoringSimulation:
    """Simulates a fleet of hosts reporting latency sketches to an aggregator.

    Parameters
    ----------
    num_hosts:
        Number of containers/hosts serving the endpoint.
    requests_per_interval:
        Requests handled by the whole fleet per flush interval.
    num_intervals:
        Number of flush intervals to simulate.
    relative_accuracy:
        Accuracy of the DDSketches used by the agents and the aggregator.
    latency_generator:
        Callable ``(size, seed) -> np.ndarray`` producing the request
        latencies of one interval; defaults to the skewed web-latency mixture
        of the paper's Figure 3.
    seed:
        Seed for deterministic workloads.
    sketch_factory:
        Zero-argument callable creating the sketch used by every agent and
        by the aggregator's rollups; defaults to
        ``DDSketch(relative_accuracy=relative_accuracy)``.  Pass e.g.
        ``lambda: UDDSketch(relative_accuracy=0.01, bin_limit=256)`` to run
        the whole pipeline on the uniform-collapse variant — mismatched-alpha
        payloads (hosts that collapsed a different number of times) merge to
        the coarser guarantee instead of being rejected.
    series_cardinality:
        Number of tagged ``endpoint`` series the metric fans out into; 1
        keeps the paper's untagged single-series setting.
    shards:
        With ``shards > 1`` every agent runs on the sharded concurrency
        tier (:class:`~repro.registry.ShardedRegistry`): records buffer in
        per-shard ingest queues, each flush drains them on a thread pool,
        and the wire hop ships **one frame per shard** instead of one per
        host (the cross-process transport shape).  Results are bit-exact
        with ``shards=1`` on the same seed — sharding is a concurrency
        change, not an accuracy change.
    flush_workers:
        Thread-pool width for sharded flushes (default: one worker per
        shard, capped at the CPU count).
    """

    def __init__(
        self,
        num_hosts: int = 8,
        requests_per_interval: int = 5000,
        num_intervals: int = 24,
        relative_accuracy: float = 0.01,
        latency_generator: Optional[Callable[[int, Optional[int]], np.ndarray]] = None,
        seed: Optional[int] = 0,
        metric: str = "web.request.latency",
        sketch_factory: Optional[Callable[[], BaseDDSketch]] = None,
        series_cardinality: int = 1,
        shards: int = 1,
        flush_workers: Optional[int] = None,
    ) -> None:
        if num_hosts < 1:
            raise IllegalArgumentError(f"num_hosts must be positive, got {num_hosts!r}")
        if requests_per_interval < 1:
            raise IllegalArgumentError(
                f"requests_per_interval must be positive, got {requests_per_interval!r}"
            )
        if num_intervals < 1:
            raise IllegalArgumentError(f"num_intervals must be positive, got {num_intervals!r}")
        if series_cardinality < 1:
            raise IllegalArgumentError(
                f"series_cardinality must be positive, got {series_cardinality!r}"
            )
        if shards < 1:
            raise IllegalArgumentError(f"shards must be positive, got {shards!r}")
        self._num_hosts = int(num_hosts)
        self._requests_per_interval = int(requests_per_interval)
        self._num_intervals = int(num_intervals)
        self._relative_accuracy = float(relative_accuracy)
        self._latency_generator = latency_generator or web_latency_values
        self._seed = seed
        self._metric = metric
        self._series_cardinality = int(series_cardinality)
        if self._series_cardinality == 1:
            self._series_keys = [SeriesKey(metric)]
        else:
            self._series_keys = [
                SeriesKey(metric, (("endpoint", f"/endpoint-{index:03d}"),))
                for index in range(self._series_cardinality)
            ]

        if sketch_factory is None:
            sketch_factory = lambda: DDSketch(relative_accuracy=self._relative_accuracy)  # noqa: E731
        self._shards = int(shards)
        self._agents = [
            MetricAgent(
                host=f"host-{index:03d}",
                sketch_factory=sketch_factory,
                shards=self._shards,
                flush_workers=flush_workers,
            )
            for index in range(self._num_hosts)
        ]
        self._aggregator = Aggregator(interval_length=1.0, sketch_factory=sketch_factory)
        self._exact = ExactQuantiles()
        self._bytes_on_wire = 0
        self._intervals_run = 0

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def aggregator(self) -> Aggregator:
        """The central aggregator accumulating every flushed sketch."""
        return self._aggregator

    @property
    def exact(self) -> ExactQuantiles:
        """Exact record of every latency generated so far (for verification)."""
        return self._exact

    @property
    def metric(self) -> str:
        """Name of the simulated metric."""
        return self._metric

    @property
    def series_cardinality(self) -> int:
        """Number of tagged series the metric fans out into."""
        return self._series_cardinality

    @property
    def shards(self) -> int:
        """Ingestion shards per agent (1 = unsharded single-writer path)."""
        return self._shards

    @property
    def series_keys(self) -> List[SeriesKey]:
        """The tagged series of the simulated metric."""
        return list(self._series_keys)

    @property
    def intervals_run(self) -> int:
        """Number of intervals simulated so far."""
        return self._intervals_run

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #

    def run_interval(self, interval_index: Optional[int] = None) -> int:
        """Simulate one flush interval; returns the number of requests handled."""
        index = self._intervals_run if interval_index is None else int(interval_index)
        seed = None if self._seed is None else self._seed + index
        latencies = np.asarray(self._latency_generator(self._requests_per_interval, seed), dtype=np.float64)
        rng = np.random.default_rng(None if seed is None else seed + 10_000)
        assignments = rng.integers(0, self._num_hosts, size=len(latencies))
        series_codes = (
            np.zeros(len(latencies), dtype=np.int64)
            if self._series_cardinality == 1
            else rng.integers(0, self._series_cardinality, size=len(latencies))
        )

        # Partition the interval's latencies by host with one stable sort and
        # hand each agent its whole slice at once (preserving per-host arrival
        # order) as one grouped columnar batch across its tagged series.
        order = np.argsort(assignments, kind="stable")
        sorted_latencies = latencies[order]
        sorted_series = series_codes[order]
        boundaries = np.searchsorted(assignments[order], np.arange(self._num_hosts + 1))
        for host_index in range(self._num_hosts):
            low, high = boundaries[host_index], boundaries[host_index + 1]
            if high > low:
                self._agents[host_index].record_grouped(
                    self._series_keys,
                    sorted_series[low:high],
                    sorted_latencies[low:high],
                )
        self._exact.add_batch(latencies)

        # Each host flushes its whole series population as one wire frame —
        # or, on the sharded tier, as one frame per shard (the cross-process
        # transport shape); mergeability makes both arrivals equivalent.
        timestamp = float(index)
        for agent in self._agents:
            if self._shards > 1:
                frames = agent.flush_shard_frames(timestamp)
                self._bytes_on_wire += sum(frame.size_in_bytes for frame in frames)
                self._aggregator.ingest_frames(frames)
            else:
                frame = agent.flush_frame(timestamp)
                if frame is not None:
                    self._bytes_on_wire += frame.size_in_bytes
                    self._aggregator.ingest_frame(frame)
        self._intervals_run += 1
        return len(latencies)

    def run(self) -> SimulationReport:
        """Run the configured number of intervals and build the report."""
        while self._intervals_run < self._num_intervals:
            self.run_interval()
        return self.report()

    def report(self, quantiles: Sequence[float] = (0.5, 0.75, 0.9, 0.95, 0.99)) -> SimulationReport:
        """Build a :class:`SimulationReport` from the current state."""
        overall = dict(
            zip(quantiles, self._aggregator.quantiles(self._metric, quantiles))
        )
        exact = {quantile: self._exact.quantile(quantile) for quantile in quantiles}
        # One cross-series merge pass serves the averages and all three
        # per-interval quantile series (the dashboard read pattern).
        interval_sketches = self._aggregator.interval_series(self._metric)
        average_series = [
            (interval_start, sketch.avg)
            for interval_start, sketch in interval_sketches
            if sketch.count > 0
        ]
        interval_quantiles = [
            (interval_start, sketch.get_quantiles((0.5, 0.75, 0.99)))
            for interval_start, sketch in interval_sketches
        ]
        endpoint_p99: Dict[str, float] = {}
        if self._series_cardinality > 1:
            for key in self._series_keys:
                endpoint = dict(key.tags)["endpoint"]
                try:
                    endpoint_p99[endpoint] = self._aggregator.quantile(
                        self._metric, 0.99, tag_filter=key.tags
                    )
                except EmptySketchError:
                    continue  # an endpoint that received no traffic
        return SimulationReport(
            metric=self._metric,
            num_hosts=self._num_hosts,
            num_intervals=self._intervals_run,
            requests_per_interval=self._requests_per_interval,
            total_requests=int(self._exact.count),
            bytes_on_wire=self._bytes_on_wire,
            series_cardinality=self._series_cardinality,
            num_series=self._aggregator.num_series,
            shards=self._shards,
            average_series=average_series,
            p50_series=[(start, qs[0]) for start, qs in interval_quantiles if qs[0] is not None],
            p75_series=[(start, qs[1]) for start, qs in interval_quantiles if qs[1] is not None],
            p99_series=[(start, qs[2]) for start, qs in interval_quantiles if qs[2] is not None],
            overall_quantiles=overall,
            exact_quantiles=exact,
            endpoint_p99=endpoint_p99,
        )
