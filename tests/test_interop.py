"""Property-based round trips through the DataDog proto interop codec.

The lossless direction — ``ours -> proto (with extensions) -> ours`` — must
preserve *everything*: binary-codec bytes (which pin mapping, store family,
bins, summaries, and UDD lineage all at once), exact quantiles, and the
collapse state of a mid-collapse UDDSketch.  The documented lossy direction
— a pure reference-schema payload, as DataDog's own encoders produce —
must still preserve counts exactly and every quantile to within the
mapping's relative accuracy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BaseDDSketch,
    DDSketch,
    FastDDSketch,
    LogCollapsingHighestDenseDDSketch,
    LogCollapsingLowestDenseDDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
    UDDSketch,
)
from repro.exceptions import DeserializationError
from repro.mapping import (
    CubicallyInterpolatedMapping,
    LinearlyInterpolatedMapping,
    LogarithmicMapping,
    QuadraticallyInterpolatedMapping,
)
from repro.serialization import encode_sketch, sketch_from_proto, sketch_to_proto

VARIANTS = {
    "default": lambda: DDSketch(relative_accuracy=0.02),
    "unbounded": lambda: LogUnboundedDenseDDSketch(relative_accuracy=0.02),
    "sparse": lambda: SparseDDSketch(relative_accuracy=0.02),
    "fast": lambda: FastDDSketch(relative_accuracy=0.02),
    "collapsing_lowest": lambda: LogCollapsingLowestDenseDDSketch(
        relative_accuracy=0.02, bin_limit=128
    ),
    "collapsing_highest": lambda: LogCollapsingHighestDenseDDSketch(
        relative_accuracy=0.02, bin_limit=128
    ),
    "uniform": lambda: UDDSketch(relative_accuracy=0.02, bin_limit=64),
}

_magnitudes = st.floats(
    min_value=1e-4, max_value=1e4, allow_nan=False, allow_infinity=False
)
_values = st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda x: -x))
_quantiles = (0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0)


def _build(variant: str, values: list) -> BaseDDSketch:
    sketch = VARIANTS[variant]()
    if values:
        sketch.add_batch(np.asarray(values, dtype=np.float64))
    return sketch


class TestLosslessRoundTrip:
    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        values=st.lists(_values, max_size=60),
    )
    @settings(deadline=None)
    def test_proto_round_trip_preserves_binary_codec_bytes(
        self, variant: str, values: list
    ) -> None:
        sketch = _build(variant, values)
        decoded = sketch_from_proto(sketch_to_proto(sketch))
        # encode_sketch pins mapping, store family, exact bins, summaries,
        # and UDD lineage in one comparison.
        assert encode_sketch(decoded) == encode_sketch(sketch)
        if sketch.count:
            for q in _quantiles:
                assert decoded.quantile(q) == sketch.quantile(q)

    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        values=st.lists(_values, max_size=40),
    )
    @settings(deadline=None)
    def test_proto_encoding_is_deterministic(self, variant: str, values: list) -> None:
        sketch = _build(variant, values)
        payload = sketch_to_proto(sketch)
        assert sketch_to_proto(sketch) == payload
        assert sketch_to_proto(sketch_from_proto(payload)) == payload

    def test_mid_collapse_uddsketch_survives_with_lineage(self) -> None:
        sketch = UDDSketch(relative_accuracy=0.005, bin_limit=32)
        sketch.add_batch(np.logspace(-4.0, 6.0, 5000))
        sketch.add_batch(-np.logspace(-2.0, 3.0, 800))
        assert sketch.collapse_count > 0
        decoded = sketch_from_proto(sketch_to_proto(sketch))
        assert isinstance(decoded, UDDSketch)
        assert decoded.collapse_count == sketch.collapse_count
        assert decoded.initial_relative_accuracy == sketch.initial_relative_accuracy
        assert decoded.relative_accuracy == sketch.relative_accuracy
        assert decoded.store.collapse_count == sketch.store.collapse_count
        assert decoded.bin_limit == sketch.bin_limit
        assert encode_sketch(decoded) == encode_sketch(sketch)
        # The decoded sketch must keep *behaving* like the original: the
        # next collapse-triggering ingest produces identical state.
        more = np.logspace(6.0, 9.0, 500)
        sketch.add_batch(more)
        decoded.add_batch(more)
        assert encode_sketch(decoded) == encode_sketch(sketch)

    @pytest.mark.parametrize(
        "mapping_cls",
        [
            LogarithmicMapping,
            LinearlyInterpolatedMapping,
            QuadraticallyInterpolatedMapping,
            CubicallyInterpolatedMapping,
        ],
    )
    def test_every_mapping_family_round_trips(self, mapping_cls) -> None:
        sketch = DDSketch(relative_accuracy=0.01, mapping=mapping_cls(0.01))
        sketch.add_batch(np.logspace(-2.0, 4.0, 300))
        decoded = sketch_from_proto(sketch_to_proto(sketch))
        assert type(decoded.mapping) is mapping_cls
        assert encode_sketch(decoded) == encode_sketch(sketch)

    def test_explicit_sketch_cls_pins_and_rejects(self) -> None:
        plain = sketch_to_proto(_build("default", [1.0, 2.0]))
        uniform = sketch_to_proto(_build("uniform", [1.0, 2.0]))
        assert isinstance(sketch_from_proto(uniform), UDDSketch)
        with pytest.raises(DeserializationError):
            sketch_from_proto(plain, sketch_cls=UDDSketch)
        with pytest.raises(DeserializationError):
            sketch_from_proto(uniform, sketch_cls=DDSketch)


class TestReferenceSchemaDirection:
    """The documented lossy direction: payloads without extension fields."""

    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        values=st.lists(_values, min_size=1, max_size=60),
    )
    @settings(deadline=None)
    def test_quantiles_survive_within_alpha(self, variant: str, values: list) -> None:
        sketch = _build(variant, values)
        decoded = sketch_from_proto(sketch_to_proto(sketch, extensions=False))
        assert math.isclose(decoded.count, sketch.count, rel_tol=1e-12)
        assert math.isclose(decoded.zero_count, sketch.zero_count, rel_tol=1e-12)
        alpha = sketch.mapping.relative_accuracy
        for q in _quantiles:
            ours, theirs = sketch.quantile(q), decoded.quantile(q)
            assert abs(theirs - ours) <= alpha * abs(ours) + 1e-9

    @given(values=st.lists(_magnitudes, min_size=1, max_size=60))
    @settings(deadline=None)
    def test_reconstructed_summaries_are_within_alpha(self, values: list) -> None:
        sketch = _build("default", values)
        decoded = sketch_from_proto(sketch_to_proto(sketch, extensions=False))
        alpha = sketch.mapping.relative_accuracy
        assert abs(decoded.min - sketch.min) <= alpha * abs(sketch.min) + 1e-12
        assert abs(decoded.max - sketch.max) <= alpha * abs(sketch.max) + 1e-12
        assert abs(decoded.sum - sketch.sum) <= alpha * np.abs(values).sum() + 1e-9

    def test_reference_store_families_default_to_schema_shapes(self) -> None:
        dense = sketch_from_proto(
            sketch_to_proto(_build("default", [1.0, 2.0, 3.0]), extensions=False)
        )
        sparse = sketch_from_proto(
            sketch_to_proto(_build("sparse", [1.0, 1e4]), extensions=False)
        )
        assert type(dense.store).__name__ == "DenseStore"
        assert type(sparse.store).__name__ == "SparseStore"

    def test_empty_reference_payload_decodes_empty(self) -> None:
        decoded = sketch_from_proto(sketch_to_proto(DDSketch(0.02), extensions=False))
        assert decoded.count == 0
        assert decoded.zero_count == 0

    def test_zero_only_reference_payload(self) -> None:
        sketch = DDSketch(relative_accuracy=0.02)
        sketch.add(0.0, 5.0)
        decoded = sketch_from_proto(sketch_to_proto(sketch, extensions=False))
        assert decoded.count == 5.0
        assert decoded.zero_count == 5.0
        assert decoded.min == 0.0 and decoded.max == 0.0
        assert decoded.quantile(0.5) == 0.0

    def test_foreign_unknown_fields_are_skipped(self) -> None:
        """A payload from a *newer* reference schema (extra fields we have
        never seen) must decode by skipping them, as protobuf requires."""
        from repro.serialization.interop import (
            _bytes_field,
            _double_field,
            _varint_field,
        )

        sketch = _build("default", [1.0, 2.0, 4.0])
        payload = sketch_to_proto(sketch, extensions=False)
        # Unknown varint field 15, unknown submessage field 9, unknown
        # fixed64 field 12 appended at the top level.
        payload += _varint_field(15, 12345)
        payload += _bytes_field(9, b"\x08\x01")
        payload += _double_field(12, 2.5)
        decoded = sketch_from_proto(payload)
        assert math.isclose(decoded.count, sketch.count, rel_tol=1e-12)

    def test_foreign_nonzero_index_offset_round_trips(self) -> None:
        """DataDog mappings may carry a non-zero indexOffset; it must
        survive decode and re-encode."""
        sketch = DDSketch(
            relative_accuracy=0.01, mapping=LogarithmicMapping(0.01, offset=3.5)
        )
        sketch.add_batch(np.logspace(0.0, 3.0, 100))
        decoded = sketch_from_proto(sketch_to_proto(sketch))
        assert decoded.mapping.offset == 3.5
        assert encode_sketch(decoded) == encode_sketch(sketch)
