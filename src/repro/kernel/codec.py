"""The bucket codec loops of the columnar ingest kernel.

Frame v3 and the binary sketch format carry each store's buckets as
``(zig-zag key delta, float64 count)`` pairs; the DataDog-proto interop codec
wraps the same pair bytes in ``binCounts`` map entries.  These are the only
per-bucket Python loops left on the wire path.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import DeserializationError


def encode_bucket_pairs(deltas: "np.ndarray", counts: "np.ndarray") -> bytes:
    """Encode frame-v3 ``(zig-zag key delta, float64 count)`` bucket pairs."""
    # Imported here: repro.serialization imports the sketch classes, which
    # import this package.
    from repro.serialization.encoding import encode_float, encode_zigzag

    out = bytearray()
    for delta, count in zip(deltas.tolist(), counts.tolist()):
        out += encode_zigzag(delta)
        out += encode_float(count)
    return bytes(out)


def decode_bucket_pairs(reader, num_buckets: int) -> Tuple["np.ndarray", "np.ndarray"]:
    """Decode ``num_buckets`` frame-v3 bucket pairs from a varint reader.

    Returns ``(deltas, counts)`` arrays and advances ``reader`` past the
    consumed bytes.  Truncated or over-long varints and key deltas outside
    ``int64`` raise :class:`~repro.exceptions.DeserializationError`.
    """
    from repro.serialization.encoding import decode_float, decode_varint

    # One pass over the payload with a local offset: this loop runs once
    # per bucket of every decoded store, so it skips the reader's
    # per-field method calls and numpy's per-element stores.
    payload = reader._payload
    offset = reader._offset
    deltas = []
    counts = []
    for _ in range(num_buckets):
        mapped, offset = decode_varint(payload, offset)
        deltas.append((mapped >> 1) ^ -(mapped & 1))
        count, offset = decode_float(payload, offset)
        counts.append(count)
    reader._offset = offset
    try:
        return np.array(deltas, dtype=np.int64), np.array(counts, dtype=np.float64)
    except OverflowError as error:
        raise DeserializationError(f"bucket key delta outside int64: {error}") from error


def encode_proto_bins(keys: "np.ndarray", counts: "np.ndarray") -> bytes:
    """Encode sparse bins as DataDog-proto ``binCounts`` map entries.

    Each ``(key, count)`` becomes one length-delimited map-entry submessage
    of the ``Store`` proto (tag ``0x0a``): field 1, the ``sint32`` zig-zag
    key (tag ``0x08``), then field 2, the ``double`` count (tag ``0x11``).
    """
    from repro.serialization.encoding import encode_float, encode_varint, encode_zigzag

    out = bytearray()
    for key, count in zip(keys.tolist(), counts.tolist()):
        zigzag = encode_zigzag(key)
        # 1 tag byte before the key, 1 before the 8-byte count.
        out += b"\x0a" + encode_varint(len(zigzag) + 10)
        out += b"\x08" + zigzag + b"\x11" + encode_float(count)
    return bytes(out)
