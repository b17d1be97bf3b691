"""The benchmark's workloads and their seeded input generators.

Every input is a pure function of ``(seed, host, interval)``, so two runs
with one seed push byte-identical frames in the same per-host order, and
the server receives nothing but these generated values.

Series are ``web.request.latency`` tagged ``endpoint``/``host``/``status``.
Each series draws lognormal latencies around its own scale: the endpoint
sets the base, a few statuses are slower, and one series in forty is a
slow outlier.  The outliers give the threshold query a selective target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.registry import SeriesKey

METRIC = "web.request.latency"
QUANTILES = (0.5, 0.9, 0.99)
#: The threshold query asks for series whose p99 passes this quantile of the
#: fleet's per-series p99s, so about 2% of series match.
THRESHOLD_QUANTILE = 0.99
THRESHOLD_SELECTIVITY = 0.98
#: Window queries read the newest this-many retained intervals.
WINDOW_INTERVALS = 8
SIGMA = 0.6


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Counts are per run unless stated otherwise."""

    name: str
    why: str
    hosts: int
    endpoints: int
    statuses: int
    values_per_frame: int
    compression: str
    snapshot_every: int
    push_connections: int
    #: Hosts that push in one interval; fewer than ``hosts`` models churn.
    active_hosts: int
    #: Intervals pushed into the server during set-up (the retention).
    preload_intervals: int = 0
    #: Open-loop push rate in frames per second; 0 means closed loop.
    push_rate: float = 0.0
    #: Intervals per host over which the deterministic counts are taken.
    count_intervals: int = 4
    #: Serial (traced) pass: intervals pushed after any preload.
    trace_intervals: int = 8
    #: Timed pushes (exactly, in closed loop) and least answers per query
    #: kind in an untraced run.
    push_samples: int = 210
    query_samples: int = 110

    @property
    def series_per_host(self) -> int:
        return self.endpoints * self.statuses

    @property
    def closed_loop(self) -> bool:
        return self.push_rate == 0.0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="highcard_ingest",
            why=(
                "per-series work (grouped ingest, frame encode and two decodes, "
                "state apply, snapshots) dominates and kernel arithmetic is near zero"
            ),
            hosts=8,
            endpoints=8,
            statuses=5,
            values_per_frame=800,
            compression="zlib",
            snapshot_every=128,
            push_connections=2,
            active_hosts=8,
            push_samples=768,
            trace_intervals=16,
        ),
        Workload(
            name="dashboard_mixed",
            why=(
                "tag-slice, window and threshold reads share one event loop with "
                "an open-loop writer over a full 64-interval retention"
            ),
            hosts=50,
            endpoints=5,
            statuses=5,
            values_per_frame=500,
            compression="zlib",
            snapshot_every=384,
            push_connections=1,
            active_hosts=6,
            preload_intervals=64,
            push_rate=8.0,
            count_intervals=64,
            trace_intervals=6,
        ),
    )
}


class FleetData:
    """Seeded series identities, value batches and query targets of a workload."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = int(seed)
        # The latency scales are the same for every seed, so the work a run
        # does depends on the seed only through the random draws.
        rng = np.random.default_rng([self.seed, 0x5EED])
        endpoint_mu = np.linspace(math.log(5.0), math.log(60.0), workload.endpoints)
        status_mu = np.where(np.arange(workload.statuses) >= workload.statuses - 2, 0.4, 0.0)
        self.hosts = [f"host-{index:03d}" for index in range(workload.hosts)]
        self.series: List[List[SeriesKey]] = []
        mu = []
        for host in self.hosts:
            keys, host_mu = [], []
            for endpoint in range(workload.endpoints):
                for status in range(workload.statuses):
                    keys.append(
                        SeriesKey(
                            METRIC,
                            (
                                ("endpoint", f"/e{endpoint:02d}"),
                                ("host", host),
                                ("status", str(200 + 100 * status)),
                            ),
                        )
                    )
                    host_mu.append(endpoint_mu[endpoint] + status_mu[status])
            self.series.append(keys)
            mu.append(host_mu)
        self.mu = np.asarray(mu) + rng.normal(0.0, 0.1, (workload.hosts, workload.series_per_host))
        outliers = rng.permutation(self.mu.size)[: max(1, self.mu.size // 40)]
        self.mu.flat[outliers] += 1.5
        # Theoretical per-series p99 (z = 2.326); the threshold sits at their
        # 98th percentile, so the query is selective but never empty.
        p99 = np.exp(self.mu + 2.326 * SIGMA)
        self.threshold = float(np.quantile(p99, THRESHOLD_SELECTIVITY))
        self.slice_endpoint = f"/e{self.seed % workload.endpoints:02d}"

    def batch(self, host: int, interval: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(group_indices, values)`` host ``host`` records in ``interval``."""
        rng = np.random.default_rng([self.seed, host, interval])
        groups = rng.integers(
            0, self.workload.series_per_host, self.workload.values_per_frame, dtype=np.int64
        )
        values = np.exp(self.mu[host][groups] + SIGMA * rng.standard_normal(groups.size))
        return groups, values

    def active_hosts(self, interval: int) -> List[int]:
        """Hosts pushing in ``interval`` (all of them unless the fleet churns)."""
        workload = self.workload
        if workload.active_hosts == workload.hosts:
            return list(range(workload.hosts))
        rng = np.random.default_rng([self.seed, 0xC0DE, interval])
        return sorted(rng.choice(workload.hosts, workload.active_hosts, replace=False).tolist())

    def slice_filter(self) -> Dict[str, str]:
        return {"endpoint": self.slice_endpoint}
