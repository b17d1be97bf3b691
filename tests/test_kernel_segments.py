"""Edge-case pinning for the kernel's audited batch-coercion entry point.

``add_batch`` and ``add_grouped_batch`` used to reimplement the
zero/negative/NaN filtering independently; both now funnel through
:func:`repro.kernel.coerce_values_weights` and
:func:`repro.kernel.compute_keys`.  These tests pin the consolidated
semantics directly at the kernel boundary — empty batches, all-zero batches,
mixed signs, non-finite rejection, scalar-weight broadcast, shape and
positivity validation — plus the backend-selection surface that remains
(``set_backend``/``active_backend`` accept and report only ``numpy``).
"""

import numpy as np
import pytest

from repro import DDSketch, IllegalArgumentError, LogUnboundedDenseDDSketch, kernel
from repro.mapping import CubicallyInterpolatedMapping, LogarithmicMapping


class TestCoerceValuesWeights:
    def test_empty_batch_passes_through(self):
        values, weights = kernel.coerce_values_weights(np.empty(0), None)
        assert values.size == 0
        assert weights is None

    def test_values_flattened_to_float64(self):
        values, _ = kernel.coerce_values_weights(np.array([[1, 2], [3, 4]]), None)
        assert values.dtype == np.float64
        assert values.shape == (4,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(IllegalArgumentError, match="finite"):
            kernel.coerce_values_weights(np.array([1.0, bad, 2.0]), None)

    def test_scalar_weight_broadcast(self):
        values, weights = kernel.coerce_values_weights(np.array([1.0, 2.0, 3.0]), 2.5)
        assert weights is not None
        np.testing.assert_array_equal(weights, np.array([2.5, 2.5, 2.5]))
        assert weights.shape == values.shape

    def test_weight_shape_mismatch_rejected(self):
        with pytest.raises(IllegalArgumentError, match="shape"):
            kernel.coerce_values_weights(np.array([1.0, 2.0]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_weight_rejected(self, bad):
        with pytest.raises(IllegalArgumentError, match="weight"):
            kernel.coerce_values_weights(np.array([1.0, 2.0]), np.array([1.0, bad]))

    def test_rejected_batch_leaves_sketch_unchanged(self):
        sketch = DDSketch(relative_accuracy=0.01)
        sketch.add(5.0)
        before = sketch.to_bytes()
        with pytest.raises(IllegalArgumentError):
            sketch.add_batch(np.array([1.0, np.nan]))
        with pytest.raises(IllegalArgumentError):
            sketch.add_batch(np.array([1.0, 2.0]), np.array([1.0, -3.0]))
        assert sketch.to_bytes() == before


class TestClassifyValue:
    def test_signs(self):
        mapping = LogarithmicMapping(0.01)
        sign, key = kernel.classify_value(mapping, 10.0)
        assert sign == kernel.POSITIVE and key == mapping.key(10.0)
        sign, key = kernel.classify_value(mapping, -10.0)
        assert sign == kernel.NEGATIVE and key == mapping.key(10.0)
        for near_zero in (0.0, mapping.min_possible, -mapping.min_possible, 1e-320):
            sign, key = kernel.classify_value(mapping, near_zero)
            assert sign == kernel.ZERO and key == 0


@pytest.mark.parametrize(
    "mapping", [LogarithmicMapping(0.01), CubicallyInterpolatedMapping(0.01)]
)
class TestComputeKeys:
    def test_all_zero_batch(self, mapping):
        values = np.zeros(10)
        split = kernel.compute_keys(mapping, values)
        assert split.num_positive == 0
        assert split.num_negative == 0
        assert split.num_zero == 10
        assert split.zero_mask.all()

    def test_mixed_sign_batch(self, mapping):
        values = np.array([3.0, -2.0, 0.0, 7.5, -0.25, 1e-320])
        split = kernel.compute_keys(mapping, values)
        assert split.num_positive == 2
        assert split.num_negative == 2
        assert split.num_zero == 2
        np.testing.assert_array_equal(
            split.keys_for(kernel.POSITIVE), mapping.key_batch(np.array([3.0, 7.5]))
        )
        np.testing.assert_array_equal(
            split.keys_for(kernel.NEGATIVE), mapping.key_batch(np.array([2.0, 0.25]))
        )
        assert split.key_range(kernel.POSITIVE) == (
            int(split.keys_for(kernel.POSITIVE).min()),
            int(split.keys_for(kernel.POSITIVE).max()),
        )

    def test_selection_totals(self, mapping):
        values = np.array([1.0, -1.0, 4.0, 0.0])
        weights = np.array([0.5, 2.0, 1.25, 8.0])
        split = kernel.compute_keys(mapping, values)
        positive = split.selection(kernel.POSITIVE, weights)
        assert positive.keys.size == 2
        assert positive.total == float(np.array([0.5, 1.25]).sum())
        np.testing.assert_array_equal(positive.weights, np.array([0.5, 1.25]))
        unit = split.selection(kernel.NEGATIVE)
        assert unit.weights is None
        assert unit.total == 1.0


class TestSketchLevelEdgeCases:
    def test_empty_batch_is_a_noop(self):
        sketch = LogUnboundedDenseDDSketch(0.01)
        before = sketch.to_bytes()
        assert sketch.add_batch(np.empty(0)) is sketch
        assert sketch.to_bytes() == before
        assert sketch.count == 0.0

    def test_all_zero_batch_lands_in_zero_bucket(self):
        sketch = LogUnboundedDenseDDSketch(0.01)
        sketch.add_batch(np.zeros(7))
        assert sketch.zero_count == 7.0
        assert sketch.count == 7.0
        assert sketch.store.is_empty and sketch.negative_store.is_empty

    def test_batch_matches_scalar_loop(self):
        values = np.array([3.0, -2.0, 0.0, 7.5, -0.25, 1e-320, 0.5])
        batched = LogUnboundedDenseDDSketch(0.01).add_batch(values)
        looped = LogUnboundedDenseDDSketch(0.01)
        for value in values.tolist():
            looped.add(value)
        assert batched.to_bytes() == looped.to_bytes()


class TestBackendSelection:
    @pytest.mark.parametrize("name", ["cuda", "native", "auto"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(IllegalArgumentError, match="unknown kernel backend"):
            kernel.set_backend(name)

    def test_numpy_backend_always_selectable(self):
        assert kernel.set_backend("numpy") == "numpy"
        assert kernel.active_backend() == "numpy"
