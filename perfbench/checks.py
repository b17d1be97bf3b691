"""Correctness checks every run makes on the server's answers.

* conservation: the server holds exactly the values and frames generated;
* bit-exact: served quantiles equal an in-process reference
  :class:`~repro.registry.SketchRegistry` fed the acknowledged frames;
* alpha oracle: served slice and window quantiles are within the sketch's
  relative accuracy of the exact quantiles of the generated values, under
  the paper's lower-quantile rank ``floor(q * (n - 1))``
  (:class:`~repro.baselines.exact.ExactQuantiles`);
* threshold: served matches equal a naive scan of every reference series.

A failed check is recorded in :attr:`Checks.failures` and fails the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.exact import ExactQuantiles
from repro.registry import SketchRegistry
from repro.serialization.frame import decode_frame
from repro.service.protocol import decode_push_envelope

from workloads import METRIC, QUANTILES, THRESHOLD_QUANTILE, WINDOW_INTERVALS, FleetData

ALPHA = 0.01


class Checks:
    """Accumulates check outcomes for one run."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.passed: List[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        (self.passed if ok else self.failures).append(name if ok else f"{name}: {detail}")

    @property
    def ok(self) -> bool:
        return not self.failures


class Ledger:
    """What the generator pushed: ``(host, interval)`` per acknowledged frame."""

    def __init__(self, data: FleetData) -> None:
        self.data = data
        self.frames: List[Tuple[int, int]] = []

    def add(self, host: int, interval: int) -> None:
        self.frames.append((host, interval))

    @property
    def values(self) -> int:
        return len(self.frames) * self.data.workload.values_per_frame

    def newest(self) -> int:
        """The newest interval any host pushed."""
        return max(interval for _, interval in self.frames)

    def newest_window(self) -> Tuple[float, float]:
        """The window queries ask for: the newest few intervals."""
        newest = self.newest()
        return float(newest - WINDOW_INTERVALS + 1), float(newest + 1)

    def exact_slice(
        self, window: Optional[Tuple[float, float]] = None
    ) -> List[float]:
        """Exact lower quantiles of the sliced values, optionally in a window."""
        data = self.data
        endpoint = int(data.slice_endpoint[2:])
        exact = ExactQuantiles()
        for host, interval in self.frames:
            if window is None or window[0] <= interval < window[1]:
                groups, values = data.batch(host, interval)
                exact.add_batch(values[groups // data.workload.statuses == endpoint])
        return [exact.quantile(q) for q in QUANTILES]


def build_reference(
    envelopes: Sequence[bytes], window: Tuple[float, float]
) -> Tuple[SketchRegistry, SketchRegistry]:
    """All-time and windowed reference registries fed the acknowledged frames."""
    everything, windowed = SketchRegistry(), SketchRegistry()
    for payload in envelopes:
        envelope = decode_push_envelope(payload)
        inside = window[0] <= envelope.interval_start < window[1]
        for key, sketch in decode_frame(envelope.frame):
            everything.merge_series(key, sketch)
            if inside:
                windowed.merge_series(key, sketch, copy=False)
    return everything, windowed


def within_alpha(estimates: Sequence[float], exact: Sequence[float]) -> bool:
    # The 1e-12 allowance covers float rounding in the bucket-value formula.
    return all(
        abs(estimate - truth) <= ALPHA * abs(truth) * (1 + 1e-12)
        for estimate, truth in zip(estimates, exact)
    )


def check_answers(
    checks: Checks,
    ledger: Ledger,
    envelopes: Sequence[bytes],
    stats: Dict[str, float],
    served_slice: Sequence[float],
    served_window: Sequence[float],
    served_threshold: Dict[str, object],
    prefix: str = "",
) -> None:
    """Run every check against one quiescent set of served answers."""
    data = ledger.data

    def expect(name: str, ok: bool, detail: str) -> None:
        checks.expect(prefix + name, ok, detail)

    expect(
        "conservation.total_count",
        stats["total_count"] == ledger.values,
        f"server {stats['total_count']} != generated {ledger.values}",
    )
    expect(
        "conservation.frames_applied",
        stats["frames_applied"] == len(ledger.frames) == len(envelopes),
        f"server {stats['frames_applied']}, generator {len(ledger.frames)}, "
        f"acked {len(envelopes)}",
    )
    window = ledger.newest_window()
    everything, windowed = build_reference(envelopes, window)
    reference_slice = everything.quantiles(METRIC, QUANTILES, tag_filter=data.slice_filter())
    reference_window = windowed.quantiles(METRIC, QUANTILES, tag_filter=data.slice_filter())
    expect(
        "bit_exact.slice",
        list(served_slice) == reference_slice,
        f"served {served_slice} != reference {reference_slice}",
    )
    expect(
        "bit_exact.window",
        list(served_window) == reference_window,
        f"served {served_window} != reference {reference_window}",
    )
    exact_slice = ledger.exact_slice()
    exact_window = ledger.exact_slice(window)
    expect(
        "alpha.slice",
        within_alpha(served_slice, exact_slice),
        f"served {served_slice} vs exact {exact_slice}",
    )
    expect(
        "alpha.window",
        within_alpha(served_window, exact_window),
        f"served {served_window} vs exact {exact_window}",
    )
    naive = sorted(
        str(key)
        for key, sketch in everything
        if sketch.get_quantile_value(THRESHOLD_QUANTILE) > data.threshold
    )
    expect(
        "threshold.matches",
        sorted(served_threshold["matches"]) == naive,
        f"served {len(served_threshold['matches'])} matches, naive scan {len(naive)}",
    )
    expect(
        "threshold.population",
        served_threshold["total_series"] == everything.num_series,
        f"{served_threshold['total_series']} != {everything.num_series}",
    )
