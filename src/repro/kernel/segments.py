"""Segments: the universal currency of the columnar ingest kernel.

Every ingest path in the repository — scalar :meth:`~repro.core.BaseDDSketch.add`,
:meth:`~repro.core.BaseDDSketch.add_batch`, and the grouped high-cardinality
pipeline — now speaks the same language: a batch of values is split by sign,
mapped to integer bucket keys, binned into contiguous ``(keys, counts)``
*segments*, and fanned out into stores.  This module holds the value and
container half of that pipeline:

* :func:`coerce_values_weights` — the single audited entry point for the
  zero/negative/NaN filtering that ``add_batch`` and ``add_grouped_batch``
  previously each reimplemented,
* :func:`classify_value` — the scalar sign split used by ``add``/``delete``,
* :class:`SignSplit` / :class:`Selection` — the sign split of a batch and
  one sign's keyed slice of it, and
* :func:`apply_segments` — the fan-out of pre-binned rows into stores via
  their ``_add_binned_segment`` hook.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import IllegalArgumentError

#: Sign labels used throughout the kernel layer: a value strictly above the
#: mapping's ``min_possible`` is POSITIVE, strictly below ``-min_possible`` is
#: NEGATIVE (stored by magnitude), and everything in between is ZERO.
POSITIVE = 1
NEGATIVE = -1
ZERO = 0


def coerce_values_weights(
    values: "np.ndarray",
    weights: Optional[Union[float, "np.ndarray"]],
) -> Tuple["np.ndarray", Optional["np.ndarray"]]:
    """Normalize and validate one ingestion batch (the audited entry point).

    Returns flat finite ``float64`` values plus either ``None`` (unit
    weights) or a matching array of positive finite weights (a scalar weight
    is broadcast).  Every batch entry point — ``add_batch``,
    ``add_grouped_batch``, and the registry flush paths that delegate to
    them — funnels through this one function, so the edge-case semantics
    (empty batch, all-zero values, mixed signs, non-finite rejection) are
    defined exactly once and pinned by ``tests/test_kernel_segments.py``.

    Raises
    ------
    IllegalArgumentError
        If any value is non-finite, any weight is non-finite or not strictly
        positive, or the weight shape does not match the value shape.
        Validation happens before any sketch mutation, so a rejected batch
        leaves its target unchanged.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise IllegalArgumentError(f"value must be a finite number, got {bad!r}")
    if weights is None:
        return values, None
    weight_array = np.asarray(weights, dtype=np.float64)
    if weight_array.ndim == 0:
        weight_array = np.full(values.shape, float(weight_array))
    else:
        weight_array = weight_array.reshape(-1)
    if weight_array.shape != values.shape:
        raise IllegalArgumentError(
            f"weights shape {weight_array.shape} does not match "
            f"values shape {values.shape}"
        )
    if not np.isfinite(weight_array).all() or not (weight_array > 0.0).all():
        bad = weight_array[~(np.isfinite(weight_array) & (weight_array > 0.0))][0]
        raise IllegalArgumentError(
            f"weight must be a positive finite number, got {bad!r}"
        )
    return values, weight_array


def classify_value(mapping, value: float) -> Tuple[int, int]:
    """Scalar sign split: return ``(sign, key)`` for one value.

    ``sign`` is :data:`POSITIVE`, :data:`NEGATIVE` or :data:`ZERO`; ``key``
    is the bucket key of the value's magnitude (0 for the zero bucket).
    This is the scalar adapter over the kernel's sign-split semantics, used
    by :meth:`~repro.core.BaseDDSketch.add` and ``delete`` so that the
    scalar and batch paths share one classification rule.
    """
    min_possible = mapping.min_possible
    if value > min_possible:
        return POSITIVE, mapping.key(value)
    if value < -min_possible:
        return NEGATIVE, mapping.key(-value)
    return ZERO, 0


class Selection:
    """One sign's slice of a batch, ready to be binned into a store.

    Built by :meth:`SignSplit.selection` for value batches and directly by
    :meth:`~repro.store.DenseStore.add_batch` for already-keyed batches.
    Carries everything a store adapter needs to place its window and
    accumulate the batch:

    * ``keys`` — non-empty flat ``int64`` bucket keys,
    * ``weights`` — per-sample weights, or ``None`` for unit weights,
    * ``min_key`` / ``max_key`` — key range of the selection,
    * ``total`` — total selected weight (``float(keys.size)`` for unit
      weights, a pairwise ``numpy.sum`` of the weights otherwise).
    """

    __slots__ = ("keys", "weights", "min_key", "max_key", "total")

    def __init__(self, keys: "np.ndarray", weights: Optional["np.ndarray"] = None) -> None:
        self.keys = keys
        self.weights = weights
        self.min_key = int(keys.min())
        self.max_key = int(keys.max())
        self.total = float(keys.size) if weights is None else float(weights.sum())


class SignSplit:
    """Sign split of a value batch against a mapping (:func:`repro.kernel.compute_keys`).

    Values strictly above ``mapping.min_possible`` are :data:`POSITIVE`,
    values strictly below its negation are :data:`NEGATIVE` (keyed by
    magnitude), and the rest go to the zero bucket.  The masks are computed
    up front; each sign's keys come from one
    :meth:`~repro.mapping.KeyMapping.key_batch` call when asked for.
    """

    __slots__ = ("values", "num_positive", "num_negative", "_mapping", "_masks")

    def __init__(self, mapping, values: "np.ndarray") -> None:
        min_possible = mapping.min_possible
        positive_mask = values > min_possible
        negative_mask = values < -min_possible
        self.values = values
        self.num_positive = int(np.count_nonzero(positive_mask))
        self.num_negative = int(np.count_nonzero(negative_mask))
        self._mapping = mapping
        self._masks = {POSITIVE: positive_mask, NEGATIVE: negative_mask}

    @property
    def num_zero(self) -> int:
        """Number of samples routed to the zero bucket."""
        return self.values.size - self.num_positive - self.num_negative

    @property
    def positive_mask(self) -> "np.ndarray":
        """Mask of the strictly-positive (indexable) samples."""
        return self._masks[POSITIVE]

    @property
    def negative_mask(self) -> "np.ndarray":
        """Mask of the strictly-negative (indexable) samples."""
        return self._masks[NEGATIVE]

    @property
    def zero_mask(self) -> "np.ndarray":
        """Mask of the samples routed to the zero bucket."""
        return ~(self._masks[POSITIVE] | self._masks[NEGATIVE])

    def keys_for(self, sign: int) -> "np.ndarray":
        """``int64`` bucket keys of the samples with the given sign, in input order."""
        selected = self.values[self._masks[sign]]
        if sign == NEGATIVE:
            selected = -selected
        return self._mapping.key_batch(selected)

    def key_range(self, sign: int) -> Tuple[int, int]:
        """``(min_key, max_key)`` over the samples with the given sign."""
        keys = self.keys_for(sign)
        return int(keys.min()), int(keys.max())

    def selection(
        self, sign: int, weight_array: Optional["np.ndarray"] = None
    ) -> Selection:
        """Package one non-empty sign of the split (plus optional weights) for a store."""
        weights = None if weight_array is None else weight_array[self._masks[sign]]
        return Selection(self.keys_for(sign), weights)


def apply_segments(
    stores: Sequence, offset: int, cells, totals: "np.ndarray"
) -> None:
    """Fan pre-binned rows out into stores via ``_add_binned_segment``.

    ``cells`` is the grouped binning result (``num_groups x span``, row
    ``g`` holding the per-key counts for ``stores[g]`` starting at key
    ``offset``); ``totals`` the per-group input-order weight totals from
    :func:`repro.store.grouped.group_totals`.  Each non-empty row is trimmed
    to its non-zero extent and handed to the store's
    ``_add_binned_segment`` hook, which performs the window placement and
    boundary folding exactly as its ``add_batch`` would.
    """
    for group in np.flatnonzero(totals > 0.0).tolist():
        row = cells[group]
        nonzero = np.flatnonzero(row)
        first, last = int(nonzero[0]), int(nonzero[-1])
        stores[group]._add_binned_segment(
            offset + first, row[first : last + 1], float(totals[group])
        )
