"""The server's per-frame work: one frame decode per push, incremental snapshots.

* A served push decodes its frame exactly once: validation keeps the decoded
  entries on the envelope and :meth:`ServiceState.apply` consumes them.
* ``to_snapshot`` re-encodes only the window buckets written since the last
  snapshot, yet its bytes always equal a snapshot that encodes every bucket
  afresh — across late (below-horizon) buckets, duplicates, evictions and
  ``from_snapshot`` round trips.
* Windowed reads merge only the series a query selects, and answer bit for
  bit like a merge of every series in the window.
* Frames applied while a snapshot persists count toward the next snapshot.
"""

import asyncio
import copy
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _service_testkit import make_envelope, make_frame
from repro.core.uddsketch import UDDSketch
from repro.exceptions import EmptySketchError
from repro.query import QueryEngine
from repro.registry import SeriesKey, SketchRegistry
from repro.serialization import frame as frame_module
from repro.service import AggregationServer, ServiceClient, ServiceState, serve_in_thread
from repro.service.protocol import decode_push_envelope, encode_push_envelope

_HOSTS = ("alpha", "beta", "gamma")
_RETENTION = 4
_FACTORIES = {
    "dd": None,
    "udd": lambda: UDDSketch(relative_accuracy=0.02, bin_limit=16),
}

_values = st.lists(
    st.one_of(
        st.floats(min_value=0.01, max_value=1e6),
        st.floats(min_value=-1e3, max_value=-0.01),
        st.just(0.0),
    ),
    min_size=1,
    max_size=6,
)
_apply = st.tuples(
    st.just("apply"),
    st.sampled_from(_HOSTS),
    _values,
    st.integers(min_value=0, max_value=12),  # interval bucket: evicts at retention 4
    st.sampled_from([None, {"endpoint": "/a"}, {"endpoint": "/b", "dc": "eu"}]),
)
_operation = st.one_of(_apply, _apply, st.just(("duplicate",)), st.just(("restore",)))


def _envelope(host, values, interval, tags, sequence, factory):
    registry = SketchRegistry(sketch_factory=factory)
    registry.add_batch("latency", np.asarray(values, dtype=np.float64), tags=tags)
    return encode_push_envelope(
        registry.flush_frame(), host=host, sequence=sequence, interval_start=float(interval)
    )


def _fresh_snapshot(state):
    """``to_snapshot()`` with every window bucket encoded from scratch."""
    clone = copy.deepcopy(state)
    clone._window_frames.clear()
    return clone.to_snapshot()


def _build_state(operations, factory, snapshot_each_step=False):
    state = ServiceState(retention_intervals=_RETENTION)
    sequences = {host: 0 for host in _HOSTS}
    applied = []
    for operation in operations:
        if operation[0] == "apply":
            _, host, values, interval, tags = operation
            sequences[host] += 1
            payload = _envelope(host, values, interval, tags, sequences[host], factory)
            state.apply(decode_push_envelope(payload, validate_frame=True))
            applied.append(payload)
        elif operation[0] == "duplicate" and applied:
            assert state.apply_envelope_bytes(applied[0]) == 0
        elif operation[0] == "restore":
            state = ServiceState.from_snapshot(
                state.to_snapshot(), retention_intervals=_RETENTION
            )
        if snapshot_each_step:
            assert state.to_snapshot() == _fresh_snapshot(state)
            assert set(state._window_frames) == set(state._windows)
    return state


class TestDecodeOnce:
    def test_served_push_decodes_each_frame_once(self, tmp_path, monkeypatch):
        calls = []
        original = frame_module.decode_frame

        def counting_decode(payload, *args, **kwargs):
            calls.append(len(payload))
            return original(payload, *args, **kwargs)

        monkeypatch.setattr(frame_module, "decode_frame", counting_decode)
        with serve_in_thread(data_dir=tmp_path) as handle:
            with ServiceClient(*handle.address, retries=0) as client:
                for sequence, value in enumerate((1.0, 2.0, 3.0), start=1):
                    client.push_frame(make_frame([value]), host="h", sequence=sequence)
                assert len(calls) == 3
                # A retransmission is validated (one decode), never applied.
                ack = client.push_frame(make_frame([1.0]), host="h", sequence=1)
                assert ack["duplicate"] is True
                assert len(calls) == 4
                assert client.stats()["total_count"] == 3.0

    def test_validated_entries_are_handed_over_once(self):
        payload = make_envelope([1.0, 5.0, 9.0])
        envelope = decode_push_envelope(payload, validate_frame=True)
        assert envelope.entries is not None
        assert envelope == decode_push_envelope(payload)
        first, second = ServiceState(), ServiceState()
        first.apply(envelope)
        assert envelope.entries is None
        # The first state adopted the decoded sketches; applying the same
        # envelope elsewhere decodes the frame afresh instead of sharing them.
        first.apply(decode_push_envelope(make_envelope([100.0], sequence=2)))
        second.apply(envelope)
        reference = ServiceState()
        reference.apply_envelope_bytes(payload)
        assert second.to_snapshot() == reference.to_snapshot()
        assert first.total_count() == 4.0


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    operations=st.lists(_operation, min_size=1, max_size=16),
    family=st.sampled_from(sorted(_FACTORIES)),
)
def test_incremental_snapshot_equals_full_reencode(operations, family):
    state = _build_state(operations, _FACTORIES[family], snapshot_each_step=True)
    snapshot = state.to_snapshot()
    restored = ServiceState.from_snapshot(snapshot, retention_intervals=_RETENTION)
    assert restored.to_snapshot() == snapshot
    # The bytes from_snapshot cached are what re-encoding its windows gives.
    assert _fresh_snapshot(restored) == snapshot


class TestFilteredWindowReads:
    @staticmethod
    def _full_window(state, window_start, window_end):
        """Every series of every bucket in the window, merged in bucket order."""
        full = SketchRegistry()
        for bucket in state.window_buckets():
            if state._bucket_of(window_start) <= bucket and bucket < window_end:
                full.merge(state._windows[bucket])
        return full

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        operations=st.lists(_apply, min_size=1, max_size=12),
        bounds=st.tuples(
            st.floats(min_value=0.0, max_value=13.0), st.floats(min_value=0.5, max_value=14.0)
        ),
    )
    def test_windowed_answers_equal_full_merge(self, operations, bounds):
        state = _build_state(operations, None)
        window_start, window_end = bounds
        full = self._full_window(state, window_start, window_end)
        window = {"window_start": window_start, "window_end": window_end}
        shapes = [
            {"tags": {"endpoint": "/a"}},
            {"tags": {"dc": "eu", "endpoint": "/b"}},
            {"tags": {}},
            {"tag_filter": {"endpoint": "/b"}},
            {"tag_filter": {"dc": "eu"}},
            {"tag_filter": {"endpoint": "/missing"}},
            {},
        ]
        for shape in shapes:
            # The window read merged exactly the series the query selects.
            selected = state._windowed_registry(
                window_start, window_end, "latency", shape.get("tags"), shape.get("tag_filter")
            )
            if "tags" in shape:
                wanted = [SeriesKey.of("latency", shape["tags"])]
            else:
                wanted = full.series_keys("latency", shape.get("tag_filter"))
            assert selected.series_keys() == [key for key in wanted if key in full]
            try:
                expected = full.quantiles("latency", (0.0, 0.5, 0.99, 1.0), **shape)
            except EmptySketchError:
                with pytest.raises(EmptySketchError):
                    state.quantiles("latency", (0.0, 0.5, 0.99, 1.0), **shape, **window)
                continue
            assert state.quantiles("latency", (0.0, 0.5, 0.99, 1.0), **shape, **window) == expected
        for tag_filter in (None, {"endpoint": "/a"}, {"endpoint": "/missing"}):
            for above in (True, False):
                expected = QueryEngine.over_registry(full).threshold_query(
                    "latency", 0.9, 50.0, above=above, tag_filter=tag_filter
                )
                served = state.threshold_query(
                    "latency", 0.9, 50.0, above=above, tag_filter=tag_filter, **window
                )
                assert served.matches == expected.matches
                assert served.scanned == expected.scanned
                assert served.total_series == expected.total_series

    def test_unknown_metric_in_window_is_empty(self):
        state = ServiceState()
        state.apply_envelope_bytes(make_envelope([1.0], interval_start=3.0))
        with pytest.raises(EmptySketchError):
            state.quantiles("other", (0.5,), window_start=0.0, window_end=10.0)
        assert state.quantiles("latency", (0.5,), window_start=0.0, window_end=10.0)


def test_frames_applied_during_a_snapshot_count_toward_the_next(tmp_path):
    server = AggregationServer(data_dir=tmp_path, snapshot_every=1000)
    server.recover()
    # The serving loop's single log-writer thread, where snapshots persist.
    server._log_writer = ThreadPoolExecutor(max_workers=1)
    release = threading.Event()
    persist = server._persist_snapshot

    def blocked_persist(payload, applied):
        assert release.wait(timeout=10)
        return persist(payload, applied)

    server._persist_snapshot = blocked_persist
    server._handle_push(make_envelope([1.0], sequence=1))

    async def scenario():
        snapshot = asyncio.ensure_future(server._write_snapshot_async())
        await asyncio.sleep(0.05)  # the payload is taken; persisting blocks
        assert not snapshot.done()
        server._handle_push(make_envelope([2.0], sequence=2))
        release.set()
        await asyncio.wait_for(snapshot, timeout=10)

    try:
        asyncio.run(scenario())
    finally:
        release.set()
        server._log_writer.shutdown(wait=True)
        server.log.close()
    # The snapshot holds the first frame only; the second still counts.
    assert server._frames_since_snapshot == 1
