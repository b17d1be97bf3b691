"""Wire interoperability with the DataDog DDSketch protobuf schema.

DDSketch's headline property — full mergeability (paper Section 2.1) — only
pays off in production when sketches can cross process *and vendor*
boundaries.  DataDog's reference implementations (``sketches-py``,
``sketches-go``, ``sketches-java``) exchange sketches as protobuf messages;
this module speaks that schema with a hand-rolled proto wire-format codec —
no ``protobuf`` dependency — so our agents and aggregators can exchange
sketches with the reference ecosystem.

The reference schema (``DDSketch.proto``)::

    message DDSketch {
      IndexMapping mapping        = 1;
      Store        positiveValues = 2;
      Store        negativeValues = 3;
      double       zeroCount      = 4;
    }
    message IndexMapping {
      double        gamma         = 1;
      double        indexOffset   = 2;
      Interpolation interpolation = 3;   // NONE, LINEAR, QUADRATIC, CUBIC
    }
    message Store {
      map<sint32, double> binCounts               = 1;
      repeated double     contiguousBinCounts     = 2 [packed = true];
      sint32              contiguousBinIndexOffset = 3;
    }

``Interpolation.NONE`` corresponds to our exact
:class:`~repro.mapping.LogarithmicMapping`; the three interpolated variants
map one-to-one onto ours.

**Extension fields.**  The reference schema carries no summary statistics
and no UDDSketch lineage — but protobuf decoders skip unknown fields, so we
additionally write high-numbered fields that reference decoders ignore and
our decoder honors.  On the sketch: ``100`` count, ``101`` sum, ``102`` min,
``103`` max (doubles), ``104`` the effective relative accuracy (double),
``105`` the uniform collapse count (varint), ``106`` the initial relative
accuracy before any collapse (double).  On each store: ``100`` the store
family code plus one (varint; the index into the binary codec's store
table), ``101`` the bin limit (varint), ``102`` the store's own collapse
count (varint).  With extensions (the default), ``ours -> proto -> ours``
is **lossless**: store family, exact bins, exact summaries, and UDDSketch
collapse/alpha state all survive — Epicoco et al.'s collapse lineage (arXiv
2004.08604) must cross the boundary or merge semantics silently degrade.

**Lossy directions, documented.**  Encoding with ``extensions=False``
produces the pure reference schema: summary statistics are dropped (a
reference decoder never had them) and every store family flattens to the
schema's dense/sparse shapes.  Decoding a payload *without* extensions (ours
in reference mode, or one produced by DataDog's encoders) reconstructs
``count`` exactly from the bins, and ``sum``/``min``/``max`` approximately
from bucket representative values — each within the mapping's relative
accuracy, the same guarantee quantiles carry.  The store family defaults to
dense for contiguous payloads and sparse for map payloads; the effective
alpha is recovered from ``gamma`` (within one ulp).

Like every decoder in this repository, :func:`sketch_from_proto` is
fuzz-hardened: truncated varints, absurd declared lengths, unsupported wire
types, non-finite or negative counts, bucket spans implying giant
allocations, and inconsistent collapse state all raise
:class:`~repro.exceptions.DeserializationError` — never an ``IndexError``
or ``MemoryError`` from the internals.  The per-bucket encode loop is
:func:`repro.kernel.encode_proto_bins`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type, Union

import numpy as np

from repro import kernel
from repro.exceptions import DeserializationError, IllegalArgumentError, ReproError
from repro.mapping import (
    CubicallyInterpolatedMapping,
    KeyMapping,
    LinearlyInterpolatedMapping,
    LogarithmicMapping,
    QuadraticallyInterpolatedMapping,
)
from repro.serialization.binary_codec import (
    _MAX_COLLAPSE_COUNT,
    _MAX_DECODED_KEY_SPAN,
    _STORE_CODES,
)
from repro.serialization.encoding import decode_varint, encode_varint
from repro.store import SparseStore, Store, UniformCollapsingDenseStore

__all__ = [
    "sketch_to_proto",
    "sketch_from_proto",
    "INTERPOLATION_CODES",
]

_DOUBLE = struct.Struct("<d")

#: ``IndexMapping.Interpolation`` enum values, index-aligned with the enum.
INTERPOLATION_CODES: List[Type[KeyMapping]] = [
    LogarithmicMapping,  # NONE: the exact logarithm needs no interpolation
    LinearlyInterpolatedMapping,
    QuadraticallyInterpolatedMapping,
    CubicallyInterpolatedMapping,
]

# --- DDSketch message fields -------------------------------------------- #
_F_MAPPING = 1
_F_POSITIVE = 2
_F_NEGATIVE = 3
_F_ZERO_COUNT = 4
_F_EXT_COUNT = 100
_F_EXT_SUM = 101
_F_EXT_MIN = 102
_F_EXT_MAX = 103
_F_EXT_ALPHA = 104
_F_EXT_COLLAPSES = 105
_F_EXT_INITIAL_ALPHA = 106

# --- IndexMapping message fields ---------------------------------------- #
_F_GAMMA = 1
_F_INDEX_OFFSET = 2
_F_INTERPOLATION = 3

# --- Store message fields ----------------------------------------------- #
_F_BIN_COUNTS = 1
_F_CONTIGUOUS = 2
_F_CONTIGUOUS_OFFSET = 3
_F_EXT_STORE_CODE = 100
_F_EXT_BIN_LIMIT = 101
_F_EXT_STORE_COLLAPSES = 102

#: The schema's bin keys are ``sint32``; our int64 keys must fit.
_SINT32_MIN = -(1 << 31)
_SINT32_MAX = (1 << 31) - 1

#: Ceiling on a decoded bin limit; mirrors the dense key-span guard (a
#: larger limit could never be exercised by a decodable payload anyway).
_MAX_BIN_LIMIT = _MAX_DECODED_KEY_SPAN

# Wire types.
_WT_VARINT = 0
_WT_FIXED64 = 1
_WT_BYTES = 2
_WT_FIXED32 = 5


# ---------------------------------------------------------------------- #
# Low-level wire helpers
# ---------------------------------------------------------------------- #


def _tag(field: int, wire: int) -> bytes:
    return encode_varint((field << 3) | wire)


def _varint_field(field: int, value: int) -> bytes:
    return _tag(field, _WT_VARINT) + encode_varint(int(value))


def _double_field(field: int, value: float) -> bytes:
    return _tag(field, _WT_FIXED64) + _DOUBLE.pack(float(value))


def _bytes_field(field: int, payload: bytes) -> bytes:
    return _tag(field, _WT_BYTES) + encode_varint(len(payload)) + payload


def _sint_field(field: int, value: int) -> bytes:
    value = int(value)
    mapped = value * 2 if value >= 0 else -value * 2 - 1
    return _tag(field, _WT_VARINT) + encode_varint(mapped)


def _check_sint32(keys: "np.ndarray") -> None:
    if keys.size and (int(keys.min()) < _SINT32_MIN or int(keys.max()) > _SINT32_MAX):
        raise IllegalArgumentError(
            "bucket keys fall outside the sint32 range of the DataDog schema"
        )


def _unzigzag32(mapped: int, what: str) -> int:
    if mapped > 0xFFFFFFFF:
        raise DeserializationError(f"{what} exceeds the sint32 wire range")
    value = mapped // 2 if mapped % 2 == 0 else -(mapped + 1) // 2
    if value < _SINT32_MIN or value > _SINT32_MAX:
        raise DeserializationError(f"{what} {value} is outside the sint32 range")
    return value


def _iter_fields(
    data: bytes, what: str
) -> Iterator[Tuple[int, int, Union[int, bytes]]]:
    """Yield ``(field_number, wire_type, value)`` over one proto message.

    ``value`` is the raw varint integer for wire type 0 and the raw bytes
    for wire types 1/2/5.  Unknown fields are the *caller's* business (it
    skips what it does not understand); malformed structure — truncated
    varints, a length running past the payload, the long-deprecated group
    wire types — raises :class:`DeserializationError` here.
    """
    position = 0
    length = len(data)
    while position < length:
        tag, position = decode_varint(data, position)
        field, wire = tag >> 3, tag & 0x07
        if field == 0:
            raise DeserializationError(f"field number 0 is invalid in {what}")
        if wire == _WT_VARINT:
            value, position = decode_varint(data, position)
        elif wire == _WT_FIXED64:
            if position + 8 > length:
                raise DeserializationError(f"truncated fixed64 field in {what}")
            value = data[position : position + 8]
            position += 8
        elif wire == _WT_BYTES:
            declared, position = decode_varint(data, position)
            if declared > length - position:
                raise DeserializationError(
                    f"length-delimited field of {declared} bytes exceeds the "
                    f"remaining {length - position} in {what}"
                )
            value = data[position : position + declared]
            position += declared
        elif wire == _WT_FIXED32:
            if position + 4 > length:
                raise DeserializationError(f"truncated fixed32 field in {what}")
            value = data[position : position + 4]
            position += 4
        else:
            raise DeserializationError(
                f"unsupported proto wire type {wire} in {what}"
            )
        yield field, wire, value


def _expect_double(wire: int, value: Union[int, bytes], what: str) -> float:
    if wire != _WT_FIXED64:
        raise DeserializationError(f"{what} must be a fixed64 double")
    return _DOUBLE.unpack(value)[0]


def _expect_varint(wire: int, value: Union[int, bytes], what: str) -> int:
    if wire != _WT_VARINT:
        raise DeserializationError(f"{what} must be a varint")
    return int(value)


# ---------------------------------------------------------------------- #
# Encoding: ours -> proto
# ---------------------------------------------------------------------- #


def _mapping_to_proto(mapping: KeyMapping) -> bytes:
    if type(mapping) not in INTERPOLATION_CODES:
        raise IllegalArgumentError(
            f"mapping {type(mapping).__name__} has no DataDog schema equivalent"
        )
    out = bytearray()
    out += _double_field(_F_GAMMA, mapping.gamma)
    if mapping.offset != 0.0:
        out += _double_field(_F_INDEX_OFFSET, mapping.offset)
    interpolation = INTERPOLATION_CODES.index(type(mapping))
    if interpolation:
        out += _varint_field(_F_INTERPOLATION, interpolation)
    return bytes(out)


def _store_to_proto(store: Store, extensions: bool) -> bytes:
    keys, counts = store.nonzero_bins()
    _check_sint32(keys)
    out = bytearray()
    span = int(keys.max()) - int(keys.min()) + 1 if keys.size else 0
    # Dense stores normally travel as the schema's packed contiguous form
    # (8 bytes per slot); a pathologically gappy store (or a SparseStore)
    # uses map entries instead.  The rule is a pure function of the bins,
    # so encoding stays deterministic — golden vectors depend on that.
    contiguous = keys.size > 0 and not isinstance(store, SparseStore) and (
        span <= 8 * int(keys.size) + 16
    )
    if contiguous:
        offset = int(keys.min())
        dense = np.zeros(span, dtype=np.float64)
        dense[keys - offset] = counts
        out += _bytes_field(_F_CONTIGUOUS, dense.astype("<f8").tobytes())
        if offset:
            out += _sint_field(_F_CONTIGUOUS_OFFSET, offset)
    elif keys.size:
        out += kernel.encode_proto_bins(keys, counts)
    if extensions:
        out += _varint_field(_F_EXT_STORE_CODE, _STORE_CODES.index(type(store)) + 1)
        bin_limit = int(getattr(store, "bin_limit", 0) or 0)
        if bin_limit:
            out += _varint_field(_F_EXT_BIN_LIMIT, bin_limit)
        if isinstance(store, UniformCollapsingDenseStore) and store.collapse_count:
            out += _varint_field(_F_EXT_STORE_COLLAPSES, store.collapse_count)
    return bytes(out)


def sketch_to_proto(sketch: Any, extensions: bool = True) -> bytes:
    """Serialize a sketch as a DataDog ``DDSketch`` protobuf message.

    With ``extensions=True`` (the default) the payload additionally carries
    the high-numbered fields described in the module docstring, making
    ``sketch_from_proto(sketch_to_proto(s))`` lossless; reference decoders
    skip them.  ``extensions=False`` emits the pure reference schema —
    summary statistics and store-family/UDD lineage are dropped (the
    documented lossy direction).

    Raises
    ------
    IllegalArgumentError
        For a mapping family outside the schema's enum or bucket keys
        outside ``sint32``.
    """
    mapping = sketch.mapping
    out = bytearray()
    out += _bytes_field(_F_MAPPING, _mapping_to_proto(mapping))
    out += _bytes_field(_F_POSITIVE, _store_to_proto(sketch.store, extensions))
    out += _bytes_field(_F_NEGATIVE, _store_to_proto(sketch.negative_store, extensions))
    if sketch.zero_count:
        out += _double_field(_F_ZERO_COUNT, sketch.zero_count)
    if extensions:
        if sketch.count > 0:
            out += _double_field(_F_EXT_COUNT, sketch.count)
            out += _double_field(_F_EXT_SUM, sketch.sum)
            out += _double_field(_F_EXT_MIN, sketch.min)
            out += _double_field(_F_EXT_MAX, sketch.max)
        out += _double_field(_F_EXT_ALPHA, mapping.relative_accuracy)
        collapse_count = int(getattr(sketch, "collapse_count", 0))
        if collapse_count:
            out += _varint_field(_F_EXT_COLLAPSES, collapse_count)
        initial = float(
            getattr(sketch, "initial_relative_accuracy", mapping.relative_accuracy)
        )
        if initial != mapping.relative_accuracy:
            out += _double_field(_F_EXT_INITIAL_ALPHA, initial)
    return bytes(out)


# ---------------------------------------------------------------------- #
# Decoding: proto -> ours
# ---------------------------------------------------------------------- #


@dataclass
class _StoreParse:
    """One decoded ``Store`` message, before a store object is built."""

    map_bins: Dict[int, float] = dataclass_field(default_factory=dict)
    contiguous: List[float] = dataclass_field(default_factory=list)
    contiguous_offset: int = 0
    had_contiguous: bool = False
    store_code: Optional[int] = None
    bin_limit: int = 0
    collapse_count: int = 0


def _parse_map_entry(data: bytes) -> Tuple[int, float]:
    key = 0
    count = 0.0
    for field, wire, value in _iter_fields(data, "binCounts entry"):
        if field == 1:
            key = _unzigzag32(
                _expect_varint(wire, value, "binCounts key"), "binCounts key"
            )
        elif field == 2:
            count = _expect_double(wire, value, "binCounts value")
        # Unknown entry fields are skipped, as protobuf requires.
    return key, count


def _parse_store(data: bytes, what: str) -> _StoreParse:
    parse = _StoreParse()
    for field, wire, value in _iter_fields(data, what):
        if field == _F_BIN_COUNTS:
            if wire != _WT_BYTES:
                raise DeserializationError(f"{what} binCounts entry must be a message")
            key, count = _parse_map_entry(value)
            # Protobuf map semantics: a duplicate key's last entry wins.
            parse.map_bins[key] = count
        elif field == _F_CONTIGUOUS:
            if wire == _WT_BYTES:
                if len(value) % 8:
                    raise DeserializationError(
                        f"{what} packed contiguousBinCounts length {len(value)} "
                        "is not a multiple of 8"
                    )
                parse.contiguous.extend(np.frombuffer(value, dtype="<f8").tolist())
            elif wire == _WT_FIXED64:
                parse.contiguous.append(_DOUBLE.unpack(value)[0])
            else:
                raise DeserializationError(
                    f"{what} contiguousBinCounts must be packed or fixed64"
                )
            parse.had_contiguous = True
        elif field == _F_CONTIGUOUS_OFFSET:
            parse.contiguous_offset = _unzigzag32(
                _expect_varint(wire, value, f"{what} contiguousBinIndexOffset"),
                f"{what} contiguousBinIndexOffset",
            )
        elif field == _F_EXT_STORE_CODE:
            code = _expect_varint(wire, value, f"{what} store-family extension")
            if not 1 <= code <= len(_STORE_CODES):
                raise DeserializationError(f"unknown store-family code {code} in {what}")
            parse.store_code = code - 1
        elif field == _F_EXT_BIN_LIMIT:
            parse.bin_limit = _expect_varint(wire, value, f"{what} bin-limit extension")
            if parse.bin_limit > _MAX_BIN_LIMIT:
                raise DeserializationError(
                    f"bin limit {parse.bin_limit} exceeds the sanity limit in {what}"
                )
        elif field == _F_EXT_STORE_COLLAPSES:
            parse.collapse_count = _expect_varint(
                wire, value, f"{what} collapse-count extension"
            )
            if parse.collapse_count > _MAX_COLLAPSE_COUNT:
                raise DeserializationError(
                    f"collapse count {parse.collapse_count} outside "
                    f"[0, {_MAX_COLLAPSE_COUNT}] in {what}"
                )
        # Unknown fields are skipped, as protobuf requires.
    return parse


def _build_store(parse: _StoreParse, what: str) -> Store:
    bins: Dict[int, float] = {}
    if parse.contiguous:
        if len(parse.contiguous) > _MAX_DECODED_KEY_SPAN:
            raise DeserializationError(
                f"contiguous bin span {len(parse.contiguous)} exceeds the "
                f"sanity limit {_MAX_DECODED_KEY_SPAN} in {what}"
            )
        for index, count in enumerate(parse.contiguous):
            if count:
                bins[parse.contiguous_offset + index] = count
    for key, count in parse.map_bins.items():
        if count:
            bins[key] = bins.get(key, 0.0) + count
    keys = np.fromiter(sorted(bins), dtype=np.int64, count=len(bins))
    counts = np.asarray([bins[key] for key in sorted(bins)], dtype=np.float64)
    if counts.size and (not np.isfinite(counts).all() or (counts < 0.0).any()):
        raise DeserializationError(f"bucket counts must be finite and non-negative in {what}")
    if keys.size:
        span = int(keys.max()) - int(keys.min()) + 1
        if span > _MAX_DECODED_KEY_SPAN:
            raise DeserializationError(
                f"decoded key span {span} exceeds the sanity limit "
                f"{_MAX_DECODED_KEY_SPAN} in {what}"
            )
    if parse.store_code is not None:
        store_cls = _STORE_CODES[parse.store_code]
    elif parse.had_contiguous or not bins:
        store_cls = _STORE_CODES[0]  # DenseStore, the reference default
    else:
        store_cls = SparseStore
    kwargs: Dict[str, Any] = {}
    if store_cls is not SparseStore and store_cls is not _STORE_CODES[0]:
        # Every bounded family takes a bin limit; fall back to the binary
        # codec's historical default when the payload carries none.
        floor = 1 if store_cls is UniformCollapsingDenseStore else 0
        kwargs["bin_limit"] = parse.bin_limit if parse.bin_limit > floor else 2048
    store = store_cls(**kwargs)
    if keys.size:
        store.add_batch(keys, counts)
    if isinstance(store, UniformCollapsingDenseStore):
        if store.collapse_count:
            raise DeserializationError(
                f"encoded bucket span exceeds the store's declared bin limit in {what}"
            )
        store._collapse_count = parse.collapse_count
    return store


def _parse_mapping(
    data: bytes, alpha_override: Optional[float]
) -> KeyMapping:
    gamma: Optional[float] = None
    index_offset = 0.0
    interpolation = 0
    for field, wire, value in _iter_fields(data, "IndexMapping"):
        if field == _F_GAMMA:
            gamma = _expect_double(wire, value, "mapping gamma")
        elif field == _F_INDEX_OFFSET:
            index_offset = _expect_double(wire, value, "mapping indexOffset")
        elif field == _F_INTERPOLATION:
            interpolation = _expect_varint(wire, value, "mapping interpolation")
        # Unknown fields are skipped.
    if gamma is None:
        raise DeserializationError("IndexMapping carries no gamma")
    if not math.isfinite(gamma) or gamma <= 1.0:
        raise DeserializationError(f"mapping gamma {gamma!r} is not a finite value > 1")
    if interpolation >= len(INTERPOLATION_CODES):
        raise DeserializationError(f"unknown mapping interpolation {interpolation}")
    if not math.isfinite(index_offset):
        raise DeserializationError(f"mapping indexOffset {index_offset!r} is not finite")
    if alpha_override is not None:
        alpha = alpha_override
        if not 0.0 < alpha < 1.0:
            raise DeserializationError(
                f"relative-accuracy extension {alpha!r} is not in (0, 1)"
            )
    else:
        # The documented lossy direction: a foreign payload carries only
        # gamma, and alpha = (gamma - 1) / (gamma + 1) reconstructs the
        # mapping to within one ulp of the producer's.
        alpha = (gamma - 1.0) / (gamma + 1.0)
    mapping = INTERPOLATION_CODES[interpolation](alpha, offset=index_offset)
    if not math.isclose(mapping.gamma, gamma, rel_tol=1e-9):
        raise DeserializationError(
            f"mapping gamma {gamma!r} is inconsistent with the declared "
            f"relative accuracy {alpha!r}"
        )
    return mapping


def _reconstruct_summaries(
    mapping: KeyMapping, store: Store, negative_store: Store, zero_count: float
) -> Tuple[float, float, float, float]:
    """Rebuild ``(count, sum, min, max)`` from the bins, within alpha.

    ``count`` is exact (bin counts are exact); the other three use bucket
    representative values, so each lands within the mapping's relative
    accuracy of the producer's true statistic — the documented lossy
    direction for payloads without summary extensions.
    """
    pos_keys, pos_counts = store.nonzero_bins()
    neg_keys, neg_counts = negative_store.nonzero_bins()
    count = zero_count + float(pos_counts.sum()) + float(neg_counts.sum())
    total = 0.0
    if pos_keys.size:
        total += float(np.dot(pos_counts, mapping.value_batch(pos_keys)))
    if neg_keys.size:
        total -= float(np.dot(neg_counts, mapping.value_batch(neg_keys)))
    minimum = math.inf
    maximum = -math.inf
    if neg_keys.size:
        minimum = -mapping.value(int(neg_keys.max()))
        maximum = -mapping.value(int(neg_keys.min()))
    if zero_count > 0:
        minimum = min(minimum, 0.0)
        maximum = max(maximum, 0.0)
    if pos_keys.size:
        minimum = min(minimum, mapping.value(int(pos_keys.min())))
        maximum = max(maximum, mapping.value(int(pos_keys.max())))
    return count, total, minimum, maximum


def sketch_from_proto(payload: bytes, sketch_cls: Any = None) -> Any:
    """Deserialize a DataDog ``DDSketch`` protobuf message into a sketch.

    Payloads carrying our extension fields decode losslessly (exact
    summaries, store families, and UDDSketch lineage); pure reference-schema
    payloads — e.g. produced by ``sketches-py`` — reconstruct summaries from
    the bins as documented in the module docstring.  As with the binary
    codec, a payload whose stores are uniform-collapsing auto-upgrades to
    :class:`~repro.core.UDDSketch` unless ``sketch_cls`` pins a class (a
    mismatched pairing is rejected).

    Raises
    ------
    DeserializationError
        For any malformed payload: truncated or over-long varints, field
        lengths exceeding the payload, unsupported wire types, unknown
        enum/store codes, non-finite or negative counts, bucket spans or
        bin limits implying giant allocations, or inconsistent
        mapping/collapse declarations.
    """
    from repro.core.ddsketch import BaseDDSketch
    from repro.core.uddsketch import UDDSketch

    if not isinstance(payload, (bytes, bytearray, memoryview)):
        raise DeserializationError(
            f"proto payload must be bytes, got {type(payload).__name__}"
        )
    payload = bytes(payload)
    if sketch_cls is None:
        sketch_cls = BaseDDSketch
    try:
        mapping_bytes: Optional[bytes] = None
        positive_bytes = b""
        negative_bytes = b""
        zero_count = 0.0
        ext: Dict[int, float] = {}
        collapse_count = 0
        for field, wire, value in _iter_fields(payload, "DDSketch"):
            if field == _F_MAPPING:
                if wire != _WT_BYTES:
                    raise DeserializationError("DDSketch mapping must be a message")
                mapping_bytes = value
            elif field == _F_POSITIVE:
                if wire != _WT_BYTES:
                    raise DeserializationError("DDSketch positiveValues must be a message")
                positive_bytes = value
            elif field == _F_NEGATIVE:
                if wire != _WT_BYTES:
                    raise DeserializationError("DDSketch negativeValues must be a message")
                negative_bytes = value
            elif field == _F_ZERO_COUNT:
                zero_count = _expect_double(wire, value, "DDSketch zeroCount")
            elif field in (_F_EXT_COUNT, _F_EXT_SUM, _F_EXT_MIN, _F_EXT_MAX,
                           _F_EXT_ALPHA, _F_EXT_INITIAL_ALPHA):
                ext[field] = _expect_double(wire, value, f"DDSketch extension {field}")
            elif field == _F_EXT_COLLAPSES:
                collapse_count = _expect_varint(wire, value, "DDSketch collapse extension")
                if collapse_count > _MAX_COLLAPSE_COUNT:
                    raise DeserializationError(
                        f"collapse count {collapse_count} outside [0, {_MAX_COLLAPSE_COUNT}]"
                    )
            # Unknown fields are skipped, as protobuf requires.
        if mapping_bytes is None:
            raise DeserializationError("DDSketch payload carries no IndexMapping")
        mapping = _parse_mapping(mapping_bytes, ext.get(_F_EXT_ALPHA))
        store = _build_store(_parse_store(positive_bytes, "positiveValues"), "positiveValues")
        negative_store = _build_store(
            _parse_store(negative_bytes, "negativeValues"), "negativeValues"
        )
        if not math.isfinite(zero_count) or zero_count < 0.0:
            raise DeserializationError(f"invalid zero count {zero_count!r}")
        count, total, minimum, maximum = _reconstruct_summaries(
            mapping, store, negative_store, zero_count
        )
        if _F_EXT_COUNT in ext:
            count = ext[_F_EXT_COUNT]
            if not math.isfinite(count) or count < 0.0:
                raise DeserializationError(f"invalid total count {count!r}")
        if _F_EXT_SUM in ext:
            total = ext[_F_EXT_SUM]
            if not math.isfinite(total):
                raise DeserializationError(f"invalid sum {total!r}")
        if _F_EXT_MIN in ext:
            minimum = ext[_F_EXT_MIN]
            if not math.isfinite(minimum):
                raise DeserializationError(f"invalid minimum {minimum!r}")
        if _F_EXT_MAX in ext:
            maximum = ext[_F_EXT_MAX]
            if not math.isfinite(maximum):
                raise DeserializationError(f"invalid maximum {maximum!r}")
        initial_accuracy = ext.get(_F_EXT_INITIAL_ALPHA, mapping.relative_accuracy)
        if not 0.0 < initial_accuracy < 1.0:
            raise DeserializationError(
                f"initial relative accuracy {initial_accuracy!r} is not in (0, 1)"
            )
    except DeserializationError:
        raise
    except ReproError as error:
        # Anything the library itself rejected (e.g. an out-of-range mapping
        # accuracy or a non-finite bucket weight) means the payload is bad.
        raise DeserializationError(f"malformed proto payload: {error}") from error

    uniform_stores = sum(
        isinstance(s, UniformCollapsingDenseStore) for s in (store, negative_store)
    )
    if sketch_cls is BaseDDSketch and uniform_stores:
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
        if mapping.offset != 0.0:
            raise DeserializationError(
                f"a UDDSketch mapping must have offset 0, got {mapping.offset!r}"
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
    sketch._min = minimum
    sketch._max = maximum
    if isinstance(sketch, UDDSketch):
        sketch._collapse_count = collapse_count
        sketch._initial_relative_accuracy = initial_accuracy
    return sketch
