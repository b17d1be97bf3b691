"""Tests for the preset sketch configurations and the sketch protocol."""

import pytest

from repro import (
    DDSketch,
    FastDDSketch,
    LogCollapsingHighestDenseDDSketch,
    LogCollapsingLowestDenseDDSketch,
    LogUnboundedDenseDDSketch,
    PaperDDSketch,
    SparseDDSketch,
    UDDSketch,
)
from repro.core.protocol import (
    QuantileSketch,
    TABLE1_METADATA,
    add_all,
    quantiles_of,
    sketch_metadata,
)
from repro.mapping import CubicallyInterpolatedMapping, LinearlyInterpolatedMapping, LogarithmicMapping
from repro.serialization import sketch_from_proto, sketch_to_proto
from repro.store import (
    CollapsingHighestDenseStore,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
)
from tests.conftest import assert_relative_accuracy

ALL_PRESETS = (
    DDSketch,
    FastDDSketch,
    LogCollapsingLowestDenseDDSketch,
    LogCollapsingHighestDenseDDSketch,
    LogUnboundedDenseDDSketch,
    SparseDDSketch,
)


class TestPresetConfigurations:
    def test_paper_alias_is_default_sketch(self):
        assert PaperDDSketch is DDSketch

    def test_default_sketch_uses_log_mapping_and_collapsing_stores(self):
        sketch = DDSketch()
        assert isinstance(sketch.mapping, LogarithmicMapping)
        assert isinstance(sketch.store, CollapsingLowestDenseStore)
        assert isinstance(sketch.negative_store, CollapsingHighestDenseStore)

    def test_fast_sketch_uses_interpolated_mapping(self):
        sketch = FastDDSketch()
        assert isinstance(sketch.mapping, CubicallyInterpolatedMapping)

    def test_fast_sketch_accepts_custom_mapping(self):
        mapping = LinearlyInterpolatedMapping(0.01)
        sketch = FastDDSketch(mapping=mapping)
        assert sketch.mapping is mapping

    def test_unbounded_sketch_uses_plain_dense_stores(self):
        sketch = LogUnboundedDenseDDSketch()
        assert isinstance(sketch.store, DenseStore)
        assert not isinstance(sketch.store, CollapsingLowestDenseStore)

    def test_sparse_sketch_uses_sparse_stores(self):
        sketch = SparseDDSketch()
        assert isinstance(sketch.store, SparseStore)

    def test_collapsing_highest_swaps_store_roles(self):
        sketch = LogCollapsingHighestDenseDDSketch()
        assert isinstance(sketch.store, CollapsingHighestDenseStore)
        assert isinstance(sketch.negative_store, CollapsingLowestDenseStore)

    def test_bin_limit_exposed(self):
        assert LogCollapsingLowestDenseDDSketch(bin_limit=123).bin_limit == 123
        assert FastDDSketch(bin_limit=77).bin_limit == 77

    @pytest.mark.parametrize("decoder", ["from_bytes", "from_dict", "proto"])
    @pytest.mark.parametrize(
        "family",
        [
            DDSketch,  # PaperDDSketch is the same class
            FastDDSketch,
            LogCollapsingLowestDenseDDSketch,
            LogCollapsingHighestDenseDDSketch,
            UDDSketch,
        ],
    )
    def test_decoded_bounded_sketch_keeps_its_bin_limit(self, family, decoder):
        sketch = family(relative_accuracy=0.02, bin_limit=96)
        sketch.add_all([0.5 * 1.1**i for i in range(300)])
        if decoder == "from_bytes":
            decoded = family.from_bytes(sketch.to_bytes())
        elif decoder == "from_dict":
            decoded = family.from_dict(sketch.to_dict())
        else:
            decoded = sketch_from_proto(sketch_to_proto(sketch), sketch_cls=family)
        assert type(decoded) is family
        assert decoded.bin_limit == 96
        copied = decoded.copy()
        assert copied.bin_limit == 96
        assert copied.to_bytes() == sketch.to_bytes()

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_every_preset_keeps_the_accuracy_guarantee(self, preset, rng):
        values = [rng.lognormvariate(0, 1.5) for _ in range(5_000)]
        sketch = preset(relative_accuracy=0.02)
        sketch.add_all(values)
        assert_relative_accuracy(sketch, values, 0.02)


class TestProtocol:
    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_presets_satisfy_quantile_sketch_protocol(self, preset):
        assert isinstance(preset(), QuantileSketch)

    def test_baselines_satisfy_protocol(self):
        from repro.baselines import GKArray, HDRHistogram, KLLSketch, MomentsSketch, TDigest

        for sketch in (GKArray(), HDRHistogram(), MomentsSketch(), TDigest(), KLLSketch()):
            assert isinstance(sketch, QuantileSketch)

    def test_table1_metadata_matches_paper(self):
        assert sketch_metadata("DDSketch").guarantee == "relative"
        assert sketch_metadata("DDSketch").value_range == "arbitrary"
        assert sketch_metadata("DDSketch").mergeability == "full"
        assert sketch_metadata("HDRHistogram").value_range == "bounded"
        assert sketch_metadata("GKArray").mergeability == "one-way"
        assert sketch_metadata("MomentsSketch").guarantee == "avg rank"
        assert len(TABLE1_METADATA) == 4

    def test_add_all_and_quantiles_of_helpers(self):
        sketch = add_all(DDSketch(), [1.0, 2.0, 3.0])
        assert sketch.count == 3
        estimates = quantiles_of(sketch, [0.0, 1.0])
        assert estimates[0] == pytest.approx(1.0, rel=0.01)
        assert estimates[1] == pytest.approx(3.0, rel=0.01)
