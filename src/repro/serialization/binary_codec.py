"""Compact binary serialization for DDSketch.

This is the payload format of the paper's motivating monitoring pipeline
(Section 1, Figure 1), where every agent ships its sketch to the backend each
flush interval.  The wire format mirrors what a production metrics agent
would send: a small header describing the mapping, followed by the three
bucket groups (negative magnitudes, zero, positives).  Bucket keys are delta-encoded (zig-zag varints)
and counts are 8-byte floats, so a typical 1%-accuracy sketch of a latency
distribution fits in a few kilobytes.

Format (all multi-byte integers are varints unless noted)::

    magic        2 bytes   b"DD"
    version      varint    currently 2
    mapping type varint    index into _MAPPING_CODES
    rel accuracy float64   the *current* accuracy (defines the current gamma)
    offset       float64
    collapses    varint    uniform collapse count (0 for non-UDDSketch), v2+
    initial acc  float64   accuracy before any uniform collapse, v2+
    zero count   float64
    count        float64
    sum          float64
    min          float64   (NaN when the sketch is empty)
    max          float64   (NaN when the sketch is empty)
    store type   varint    index into _STORE_CODES (positive store)
    bin limit    varint    0 when the store is unbounded
    collapses    varint    only for the uniform-collapse store type
    n buckets    varint
    buckets      n * (zig-zag delta key, float64 count)
    store type   varint    (negative store; same layout as the positive one)
    ...

Version 1 payloads (no sketch/store collapse fields) are still decoded.
Decoding is fuzz-hardened: any malformed payload — truncated, bit-flipped,
or adversarial (e.g. a bucket count or key span implying an absurd
allocation) — raises :class:`~repro.exceptions.DeserializationError` rather
than an ``IndexError``/``MemoryError`` from the decoding internals.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple, Type

import numpy as np

from repro import kernel
from repro.exceptions import DeserializationError, ReproError
from repro.mapping import (
    CubicallyInterpolatedMapping,
    KeyMapping,
    LinearlyInterpolatedMapping,
    LogarithmicMapping,
    QuadraticallyInterpolatedMapping,
)
from repro.serialization.encoding import (
    VarintReader,
    encode_float,
    encode_varint,
)
from repro.store import (
    CollapsingHighestDenseStore,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
    Store,
    UniformCollapsingDenseStore,
)

_MAGIC = b"DD"
_VERSION = 2
#: Versions this decoder accepts; version 1 simply lacks the collapse fields.
_SUPPORTED_VERSIONS = (1, 2)

#: Largest key span a decoded dense store may cover.  A genuine sketch at the
#: finest supported accuracy (alpha = 1e-4) over the full positive float range
#: spans ~7e6 keys, well under this cap; anything larger is a malformed or
#: adversarial payload that would otherwise trigger a giant allocation.
_MAX_DECODED_KEY_SPAN = 1 << 23

#: Minimum wire size of one encoded bucket: a 1-byte delta plus an 8-byte
#: count.  Used to reject bucket counts that cannot fit in the payload.
_MIN_BUCKET_BYTES = 9

#: Sanity cap on deserialized collapse counts; see
#: :data:`repro.core.uddsketch.MAX_COLLAPSE_COUNT` for the rationale.
_MAX_COLLAPSE_COUNT = 64

_MAPPING_CODES: List[Type[KeyMapping]] = [
    LogarithmicMapping,
    LinearlyInterpolatedMapping,
    QuadraticallyInterpolatedMapping,
    CubicallyInterpolatedMapping,
]

_STORE_CODES: List[Type[Store]] = [
    DenseStore,
    SparseStore,
    CollapsingLowestDenseStore,
    CollapsingHighestDenseStore,
    UniformCollapsingDenseStore,
]


def _encode_store(store: Store) -> bytes:
    out = bytearray()
    out += encode_varint(_STORE_CODES.index(type(store)))
    bin_limit = getattr(store, "bin_limit", 0) or 0
    out += encode_varint(int(bin_limit))
    if isinstance(store, UniformCollapsingDenseStore):
        # The collapse count is part of the store's identity: the decoder
        # must restore it so the owning sketch's gamma bookkeeping survives
        # the round trip.
        out += encode_varint(store.collapse_count)
    # Export the bucket contents as ndarrays (one flatnonzero pass for the
    # dense stores) and delta-encode the key array in one vectorized diff —
    # no Bucket objects or intermediate dicts on the encode path.
    keys, counts = store.nonzero_bins()
    out += encode_varint(int(keys.size))
    deltas = np.diff(keys, prepend=np.int64(0))
    out += kernel.encode_bucket_pairs(deltas, counts)
    return bytes(out)


def _decode_store(reader: VarintReader, version: int) -> Store:
    store_code = reader.read_varint()
    if store_code >= len(_STORE_CODES):
        raise DeserializationError(f"unknown store code {store_code}")
    store_cls = _STORE_CODES[store_code]
    bin_limit = reader.read_varint()
    collapse_count = 0
    if store_cls is UniformCollapsingDenseStore and version >= 2:
        collapse_count = reader.read_varint()
        if collapse_count > _MAX_COLLAPSE_COUNT:
            raise DeserializationError(
                f"collapse count {collapse_count} outside [0, {_MAX_COLLAPSE_COUNT}]"
            )
    kwargs: Dict[str, Any] = {}
    if store_cls in (CollapsingLowestDenseStore, CollapsingHighestDenseStore):
        kwargs["bin_limit"] = bin_limit if bin_limit > 0 else 2048
    elif store_cls is UniformCollapsingDenseStore:
        kwargs["bin_limit"] = bin_limit if bin_limit > 1 else 2048
    store = store_cls(**kwargs)
    num_buckets = reader.read_varint()
    if num_buckets == 0:
        if isinstance(store, UniformCollapsingDenseStore):
            store._collapse_count = collapse_count
        return store
    if num_buckets > reader.remaining // _MIN_BUCKET_BYTES:
        raise DeserializationError(
            f"bucket count {num_buckets} cannot fit in the remaining payload"
        )
    deltas, counts = kernel.decode_bucket_pairs(reader, num_buckets)
    # Un-delta the keys with one cumulative pass, then rebuild the store
    # through the vectorized bulk-insertion path (one allocation + one
    # bincount for the dense stores) instead of one add() per bucket.
    keys = np.cumsum(deltas)
    span = int(keys.max()) - int(keys.min()) + 1
    if span > _MAX_DECODED_KEY_SPAN:
        raise DeserializationError(
            f"decoded key span {span} exceeds the sanity limit {_MAX_DECODED_KEY_SPAN}"
        )
    if not np.isfinite(counts).all() or (counts < 0.0).any():
        raise DeserializationError("bucket counts must be finite and non-negative")
    store.add_batch(keys, counts)
    if isinstance(store, UniformCollapsingDenseStore):
        if store.collapse_count:
            # A well-formed payload's span already fits its bin limit; a fold
            # during the rebuild means the declared limit and the encoded
            # buckets contradict each other.
            raise DeserializationError(
                "encoded bucket span exceeds the store's declared bin limit"
            )
        # Restore the collapse count recorded at serialization time.
        store._collapse_count = collapse_count
    return store


def encode_sketch(sketch: Any) -> bytes:
    """Serialize a :class:`~repro.core.BaseDDSketch` to compact bytes."""
    mapping = sketch.mapping
    out = bytearray()
    out += _MAGIC
    out += encode_varint(_VERSION)
    out += encode_varint(_MAPPING_CODES.index(type(mapping)))
    out += encode_float(mapping.relative_accuracy)
    out += encode_float(mapping.offset)
    # Uniform-collapse lineage (UDDSketch): how many times gamma was squared
    # and what the guarantee was before the first collapse.  Plain sketches
    # write the neutral values (0 collapses, initial == current accuracy).
    out += encode_varint(int(getattr(sketch, "collapse_count", 0)))
    out += encode_float(
        float(getattr(sketch, "initial_relative_accuracy", mapping.relative_accuracy))
    )
    out += encode_float(sketch.zero_count)
    out += encode_float(sketch.count)
    out += encode_float(sketch.sum)
    if sketch.count > 0:
        out += encode_float(sketch.min)
        out += encode_float(sketch.max)
    else:
        out += encode_float(math.nan)
        out += encode_float(math.nan)
    out += _encode_store(sketch.store)
    out += _encode_store(sketch.negative_store)
    return bytes(out)


def decode_sketch(payload: bytes, sketch_cls: Any = None) -> Any:
    """Deserialize a sketch produced by :func:`encode_sketch`.

    When ``sketch_cls`` is not given, payloads carrying uniform-collapse
    stores decode to :class:`~repro.core.UDDSketch` (so the adaptive-accuracy
    merge semantics survive a trip through the wire) and everything else to
    :class:`~repro.core.BaseDDSketch`.

    Raises
    ------
    DeserializationError
        For any malformed payload.  Low-level failures (truncation, absurd
        counts, non-finite summaries) are all normalized to this error so
        that callers never see an ``IndexError`` or similar escape from the
        decoding internals.
    """
    from repro.core.ddsketch import BaseDDSketch
    from repro.core.uddsketch import UDDSketch

    if sketch_cls is None:
        sketch_cls = BaseDDSketch
    if payload[:2] != _MAGIC:
        raise DeserializationError("payload does not start with the DDSketch magic bytes")
    reader = VarintReader(payload[2:])
    try:
        version = reader.read_varint()
        if version not in _SUPPORTED_VERSIONS:
            raise DeserializationError(f"unsupported format version {version}")
        mapping_code = reader.read_varint()
        if mapping_code >= len(_MAPPING_CODES):
            raise DeserializationError(f"unknown mapping code {mapping_code}")
        relative_accuracy = reader.read_float()
        offset = reader.read_float()
        mapping = _MAPPING_CODES[mapping_code](relative_accuracy, offset=offset)
        collapse_count = 0
        initial_accuracy = relative_accuracy
        if version >= 2:
            collapse_count = reader.read_varint()
            if collapse_count > _MAX_COLLAPSE_COUNT:
                raise DeserializationError(
                    f"collapse count {collapse_count} outside [0, {_MAX_COLLAPSE_COUNT}]"
                )
            initial_accuracy = reader.read_float()
            if not (0.0 < initial_accuracy < 1.0):
                raise DeserializationError(
                    f"initial relative accuracy {initial_accuracy!r} is not in (0, 1)"
                )
        zero_count = reader.read_float()
        count = reader.read_float()
        total = reader.read_float()
        minimum = reader.read_float()
        maximum = reader.read_float()
        if not math.isfinite(zero_count) or zero_count < 0.0:
            raise DeserializationError(f"invalid zero count {zero_count!r}")
        if not math.isfinite(count) or count < 0.0:
            raise DeserializationError(f"invalid total count {count!r}")
        if not math.isfinite(total):
            raise DeserializationError(f"invalid sum {total!r}")
        store = _decode_store(reader, version)
        negative_store = _decode_store(reader, version)
        if not reader.exhausted:
            raise DeserializationError(
                f"{len(payload) - 2 - reader.offset} trailing bytes after the sketch"
            )
    except ReproError as error:
        if isinstance(error, DeserializationError):
            raise
        # Anything the library itself rejected (e.g. an out-of-range mapping
        # accuracy or a non-finite bucket weight) means the payload is bad.
        raise DeserializationError(f"malformed sketch payload: {error}") from error

    uniform_stores = sum(
        isinstance(s, UniformCollapsingDenseStore) for s in (store, negative_store)
    )
    if sketch_cls is BaseDDSketch and uniform_stores:
        # The generic base class was requested for a payload carrying
        # uniform-collapse state: upgrade so the adaptive-alpha merge
        # semantics survive the wire.  Explicit subclasses are honored —
        # but the class/store pairing must be sound either way (see the
        # matching guard in BaseDDSketch.from_dict).
        sketch_cls = UDDSketch
    if uniform_stores and not issubclass(sketch_cls, UDDSketch):
        raise DeserializationError(
            "payload carries uniform-collapse stores; decode it as a UDDSketch "
            "(or let the default class auto-upgrade)"
        )
    if issubclass(sketch_cls, UDDSketch):
        if uniform_stores != 2:
            raise DeserializationError(
                "a UDDSketch payload requires two uniform-collapse stores, got "
                f"{type(store).__name__}/{type(negative_store).__name__}"
            )
        if offset != 0.0:
            raise DeserializationError(
                f"a UDDSketch mapping must have offset 0, got {offset!r}"
            )
    sketch = sketch_cls.__new__(sketch_cls)
    BaseDDSketch.__init__(
        sketch,
        mapping=mapping,
        store=store,
        negative_store=negative_store,
        zero_count=zero_count,
    )
    sketch._count = count
    sketch._sum = total
    sketch._min = float("inf") if math.isnan(minimum) else minimum
    sketch._max = float("-inf") if math.isnan(maximum) else maximum
    if isinstance(sketch, UDDSketch):
        sketch._collapse_count = collapse_count
        sketch._initial_relative_accuracy = initial_accuracy
    return sketch


def _round_trip_size(sketch: Any) -> Tuple[int, int]:
    """Return (encoded size in bytes, number of buckets); used by benchmarks."""
    encoded = encode_sketch(sketch)
    return len(encoded), sketch.num_buckets
