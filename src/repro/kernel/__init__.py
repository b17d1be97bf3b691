"""The columnar ingest kernel: one engine behind every ingest path.

``repro.kernel`` is the single place where values become *(keys, counts)*
segments.  The scalar :meth:`~repro.core.BaseDDSketch.add`, the vectorized
:meth:`~repro.core.BaseDDSketch.add_batch`, the grouped high-cardinality
pipeline (:func:`repro.store.grouped.add_grouped_batch`), the registry flush
paths, and the frame-v3 bucket codec all call into this module instead of
carrying their own key-computation or binning loops.

Every operation is a NumPy array expression (mask comparisons,
``key_batch`` per sign, ``clip`` + ``bincount`` binning, the flat-index
grouped ``bincount``) or, for the wire codecs, a per-bucket varint loop
(:mod:`repro.kernel.codec`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import IllegalArgumentError
from repro.kernel.codec import decode_bucket_pairs, encode_bucket_pairs, encode_proto_bins
from repro.kernel.segments import (
    NEGATIVE,
    POSITIVE,
    ZERO,
    Selection,
    SignSplit,
    apply_segments,
    classify_value,
    coerce_values_weights,
)

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "ZERO",
    "Selection",
    "SignSplit",
    "active_backend",
    "apply_segments",
    "bin_grouped",
    "bin_selection",
    "classify_value",
    "coerce_values_weights",
    "compute_keys",
    "decode_bucket_pairs",
    "encode_bucket_pairs",
    "encode_proto_bins",
    "set_backend",
]


def set_backend(name: str) -> str:
    """Select the kernel backend; ``"numpy"`` is the only one.

    Returns ``"numpy"``.  Any other name raises
    :class:`~repro.exceptions.IllegalArgumentError`.
    """
    if str(name).strip().lower() != "numpy":
        raise IllegalArgumentError(
            f"unknown kernel backend {name!r}; the only backend is 'numpy'"
        )
    return "numpy"


def active_backend() -> str:
    """Name of the backend serving kernel calls: always ``"numpy"``."""
    return "numpy"


def compute_keys(mapping, values) -> SignSplit:
    """Sign-split a float64 value batch and compute its bucket keys.

    The single kernel behind every batch ingest path: values strictly above
    ``mapping.min_possible`` map through ``mapping``'s key function, values
    strictly below its negation map by magnitude, and the remainder land in
    the zero bucket.  Returns a :class:`SignSplit` exposing per-sign masks,
    keys, key ranges, and :meth:`~SignSplit.selection` packaging.
    """
    return SignSplit(mapping, values)


def bin_selection(selection: Selection, lo: int, hi: int) -> "np.ndarray":
    """Bin a :class:`Selection` into the key window ``[lo, hi]``.

    Returns a dense count array of ``hi - lo + 1`` cells.  Out-of-window
    keys clip onto the boundary cells — exactly where a bounded store's
    per-item path folds them.  ``bincount`` accumulates in input order, so
    fractional weights sum in the same order as a per-item loop.
    """
    indices = np.clip(selection.keys, lo, hi) - lo
    return np.bincount(indices, weights=selection.weights, minlength=hi - lo + 1)


def bin_grouped(
    group_indices: "np.ndarray",
    keys: "np.ndarray",
    weights: Optional["np.ndarray"],
    num_groups: int,
    offset: int,
    span: int,
    scratch=None,
) -> "np.ndarray":
    """Bin a grouped batch into a ``num_groups x span`` cell grid.

    Cell ``(g, k - offset)`` accumulates the weight of every sample with
    group ``g`` and key ``k``; the caller guarantees all keys fall in
    ``[offset, offset + span)``.  One combined ``bincount`` runs over the
    flat index ``group * span + key - offset``.  ``scratch`` (a
    :class:`repro.store.grouped.GroupedScratch`) lets a single-writer caller
    reuse the batch-sized flat-index temporary; the in-place arithmetic
    produces bit-identical indices.
    """
    if scratch is None:
        flat = group_indices * span + (keys - offset)
    else:
        flat = scratch.flat_index(keys.size)
        np.multiply(group_indices, span, out=flat)
        np.add(flat, keys, out=flat)
        if offset:
            flat -= offset
    cells = np.bincount(flat, weights=weights, minlength=num_groups * span)
    return cells.reshape(num_groups, span)
