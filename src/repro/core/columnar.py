"""On-disk format rev 1.2 — compressed columnar log images.

A fixed-width TEE-Perf image spends 24 (v1) or 32 (v2) bytes per
entry, but the columns are wildly compressible: counters are
near-monotonic (per thread they only ever grow, and by small steps),
addresses draw from the program's small function alphabet, thread ids
barely change within a thread-sorted run.  Rev 1.2 exploits exactly
that: the persisted payload is the *columns* of the log, delta- and
dictionary-transformed and LEB128-varint packed, in CRC-guarded
blocks.  On the standard workloads the image shrinks 3-5x; decoding is
one vectorised numpy pass per block, and
:class:`~repro.core.log.LogImage` — the one reader — decodes rev 1.2
transparently whenever the header carries ``FLAG_COMPRESSED``.

Image layout (all integers little-endian u64 unless noted)::

    64-byte header        exactly the rev 1.0/1.1 header, with
                          FLAG_COMPRESSED set; `tail` is the total
                          entry count; the version field still names
                          the *entry layout* (v1/v2) the columns carry
    8 bytes               payload magic "TPCOL12\\0"
    u64                   block count
    blocks                each:
      u64 payload_len     bytes of the column sections below
      u64 count           entries in this block
      u64 crc32           zlib.crc32 of the payload bytes
      payload             one section per column, each
                          ``u64 section_len`` + section bytes

Column encodings (fixed per column, part of the format)::

    kind        plain LEB128 (0/1 - one byte per entry)
    counter     zigzag(delta) LEB128; deltas in wraparound u64
                arithmetic, the first delta is from 0
    addr        dictionary: varint count + zigzag-delta-packed sorted
                uniques + plain LEB128 indices
    tid         zigzag(delta) LEB128
    call_site   dictionary (v2 layouts only)

The codec is order-preserving — ``decode(encode(entries)) ==
entries``, entry for entry, whatever the input order (the rev 1.2
identity oracle).  :func:`encode_log` *additionally* stable-sorts
entries by thread id before encoding (``sort_by_thread=True``, the
default): per-thread order — the only order the format guarantees and
the analyzer consumes — is untouched, while counters become
near-monotonic within each run, which is where the compression comes
from.

Damage tolerance: every block carries its own CRC32, so salvage
(:mod:`repro.core.recovery`) quarantines exactly the damaged block —
`payload_len` lets the scan skip over it and keep every healthy block
after it.  :func:`scan_blocks` is the one walk of the block directory;
the strict reader raises where salvage quarantines.

Without numpy every path falls back to pure-Python loops — slower,
byte-identical output.
"""

import struct
import zlib
from collections import namedtuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a hard dep in-tree
    _np = None

from repro.core.errors import LogFormatError
from repro.core.log import (
    FLAG_COMPRESSED,
    FLAG_SEALED,
    HEADER_SIZE,
    MAGIC,
    SharedLog,
    LogImage,
    _ENTRY_SIZES,
    _HEADER,
    _VERSION_SHIFT,
)

__all__ = [
    "COLUMNAR_MAGIC",
    "DEFAULT_CODEC_BLOCK",
    "decode_delta",
    "decode_dictionary",
    "decode_log",
    "decode_varint",
    "encode_delta",
    "encode_dictionary",
    "encode_log",
    "encode_varint",
]

COLUMNAR_MAGIC = b"TPCOL12\x00"

#: Entries per codec block.  64k entries keep a block's decoded
#: columns around half a megabyte (v1) — one vectorised pass each, and
#: fine-grained enough that quarantining a damaged block loses little.
DEFAULT_CODEC_BLOCK = 65536

_U64 = struct.Struct("<Q")
_BLOCK_HEADER = struct.Struct("<3Q")  # payload_len, count, crc32
_DICT_HEADER = struct.Struct("<2Q")  # unique count, packed-unique bytes
_MAX_VARINT = 10  # ceil(64 / 7)
_WORD = 1 << 64


# ----------------------------------------------------------------------
# LEB128 varints

def encode_varint(values):
    """Pack a sequence of u64 values as LEB128 varints (one stream)."""
    if _np is not None:
        values = _np.ascontiguousarray(values, dtype=_np.uint64)
        n = len(values)
        if not n:
            return b""
        # Byte count per value: 1 + how many 7-bit shifts stay nonzero.
        nb = _np.ones(n, dtype=_np.int64)
        tmp = values >> _np.uint64(7)
        while tmp.any():
            nb += tmp != 0
            tmp >>= _np.uint64(7)
        ends = _np.cumsum(nb)
        starts = ends - nb
        out = _np.zeros(int(ends[-1]), dtype=_np.uint8)
        for i in range(int(nb.max())):
            m = nb > i
            byte = (
                (values[m] >> _np.uint64(7 * i)) & _np.uint64(0x7F)
            ).astype(_np.uint8)
            byte |= (nb[m] > i + 1).astype(_np.uint8) << 7
            out[starts[m] + i] = byte
        return out.tobytes()
    parts = bytearray()
    for v in values:
        v = int(v) & (_WORD - 1)
        while True:
            byte = v & 0x7F
            v >>= 7
            parts.append(byte | 0x80 if v else byte)
            if not v:
                break
    return bytes(parts)


def decode_varint(data, count):
    """Decode exactly `count` LEB128 varints; the stream must contain
    neither more nor fewer (:class:`LogFormatError` otherwise)."""
    if _np is not None:
        arr = _np.frombuffer(data, dtype=_np.uint8)
        ends = _np.flatnonzero((arr & 0x80) == 0)
        if len(ends) != count or (count and ends[-1] != len(arr) - 1) \
                or (not count and len(arr)):
            raise LogFormatError(
                f"malformed varint stream: {len(ends)} terminators in "
                f"{len(arr)} bytes, expected {count} values"
            )
        if not count:
            return _np.zeros(0, dtype=_np.uint64)
        starts = _np.empty(count, dtype=_np.int64)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        lengths = ends - starts + 1
        if int(lengths.max()) > _MAX_VARINT:
            raise LogFormatError(
                f"varint longer than {_MAX_VARINT} bytes in stream"
            )
        out = _np.zeros(count, dtype=_np.uint64)
        for i in range(int(lengths.max())):
            m = lengths > i
            out[m] |= (
                (arr[starts[m] + i] & _np.uint64(0x7F)).astype(_np.uint64)
                << _np.uint64(7 * i)
            )
        return out
    out = []
    value = shift = 0
    for byte in bytes(data):
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift >= 7 * _MAX_VARINT:
                raise LogFormatError(
                    f"varint longer than {_MAX_VARINT} bytes in stream"
                )
        else:
            out.append(value & (_WORD - 1))
            value = shift = 0
    if len(out) != count or shift:
        raise LogFormatError(
            f"malformed varint stream: {len(out)} values decoded, "
            f"expected {count}"
        )
    return out


# ----------------------------------------------------------------------
# Zigzag deltas (counters, thread ids)

def encode_delta(values):
    """Delta + zigzag + varint: near-monotonic u64 columns become
    ~1 byte per entry.  Deltas use wraparound u64 arithmetic, so
    max-u64 values and non-monotonic regressions round-trip exactly."""
    if _np is not None:
        values = _np.ascontiguousarray(values, dtype=_np.uint64)
        if not len(values):
            return b""
        deltas = _np.diff(values, prepend=_np.uint64(0))
        sign = (deltas.view(_np.int64) >> _np.int64(63)).view(_np.uint64)
        return encode_varint((deltas << _np.uint64(1)) ^ sign)
    out, prev = [], 0
    for v in values:
        v = int(v) & (_WORD - 1)
        delta = (v - prev) & (_WORD - 1)
        prev = v
        # Zigzag the signed interpretation of the wraparound delta.
        signed = delta - _WORD if delta >> 63 else delta
        out.append(((signed << 1) ^ (signed >> 63)) & (_WORD - 1))
    return encode_varint(out)


def decode_delta(data, count):
    """Invert :func:`encode_delta` for exactly `count` values."""
    zig = decode_varint(data, count)
    if _np is not None:
        signed = (zig >> _np.uint64(1)).view(_np.int64) ^ -(
            (zig & _np.uint64(1)).view(_np.int64)
        )
        return _np.cumsum(signed.view(_np.uint64), dtype=_np.uint64)
    out, prev = [], 0
    for z in zig:
        delta = (z >> 1) ^ -(z & 1)
        prev = (prev + delta) & (_WORD - 1)
        out.append(prev)
    return out


# ----------------------------------------------------------------------
# Dictionary columns (addresses, call sites)

def encode_dictionary(values):
    """Dictionary-pack a small-alphabet column: the sorted unique
    values delta-packed once, then one varint index per entry."""
    if _np is not None:
        values = _np.ascontiguousarray(values, dtype=_np.uint64)
        uniq, inverse = _np.unique(values, return_inverse=True)
    else:
        uniq = sorted({int(v) & (_WORD - 1) for v in values})
        index = {v: i for i, v in enumerate(uniq)}
        inverse = [index[int(v) & (_WORD - 1)] for v in values]
    packed = encode_delta(uniq)
    return (
        _DICT_HEADER.pack(len(uniq), len(packed))
        + packed
        + encode_varint(inverse)
    )


def decode_dictionary(data, count):
    """Invert :func:`encode_dictionary` for exactly `count` values."""
    view = memoryview(data)
    if len(view) < _DICT_HEADER.size:
        raise LogFormatError(
            f"dictionary section truncated: {len(view)} bytes"
        )
    n_uniq, packed_len = _DICT_HEADER.unpack_from(view, 0)
    body = view[_DICT_HEADER.size:]
    if packed_len > len(body) or (count and not n_uniq):
        raise LogFormatError(
            f"dictionary section inconsistent: {n_uniq} uniques in "
            f"{packed_len} bytes, section holds {len(body)}"
        )
    uniq = decode_delta(body[:packed_len], n_uniq)
    idx = decode_varint(body[packed_len:], count)
    if _np is not None:
        if count and int(idx.max()) >= n_uniq:
            raise LogFormatError(
                f"dictionary index {int(idx.max())} out of range "
                f"({n_uniq} uniques)"
            )
        return uniq[idx]
    out = []
    for i in idx:
        if i >= n_uniq:
            raise LogFormatError(
                f"dictionary index {i} out of range ({n_uniq} uniques)"
            )
        out.append(uniq[i])
    return out


# ----------------------------------------------------------------------
# Blocks

# (encoder, decoder) per column position; call_site reuses the addr
# scheme.  Fixed per column — part of the format, not negotiated.
_COLUMN_CODECS = (
    (encode_varint, decode_varint),       # kind
    (encode_delta, decode_delta),         # counter
    (encode_dictionary, decode_dictionary),  # addr
    (encode_delta, decode_delta),         # tid
    (encode_dictionary, decode_dictionary),  # call_site
)


def _encode_block(kind, counter, addr, tid, call_site):
    columns = [kind, counter, addr, tid]
    if call_site is not None:
        columns.append(call_site)
    sections = []
    for column, (encode, _) in zip(columns, _COLUMN_CODECS):
        packed = encode(column)
        sections.append(_U64.pack(len(packed)))
        sections.append(packed)
    payload = b"".join(sections)
    return (
        _BLOCK_HEADER.pack(len(payload), len(kind), zlib.crc32(payload))
        + payload
    )


def _decode_block_payload(payload, count, version):
    """Decode one block's column sections into a column tuple.

    Raises :class:`LogFormatError` on any structural damage — the
    strict reader treats that as fatal, salvage as a quarantine.
    """
    n_columns = 5 if _ENTRY_SIZES[version] == 32 else 4
    view = memoryview(payload)
    offset = 0
    columns = []
    for position in range(n_columns):
        if offset + _U64.size > len(view):
            raise LogFormatError(
                f"block payload truncated in section {position} "
                f"(offset {offset})"
            )
        (length,) = _U64.unpack_from(view, offset)
        offset += _U64.size
        if offset + length > len(view):
            raise LogFormatError(
                f"block section {position} claims {length} bytes, "
                f"payload holds {len(view) - offset}"
            )
        decode = _COLUMN_CODECS[position][1]
        columns.append(decode(view[offset : offset + length], count))
        offset += length
    if offset != len(view):
        raise LogFormatError(
            f"{len(view) - offset} stray bytes after block sections"
        )
    if n_columns == 4:
        columns.append(None)
    return tuple(columns)


#: One block directory entry: where the payload sits, how many entries
#: it holds, and the CRC32 it must match.
Block = namedtuple("Block", "payload_at count crc payload_len")


def scan_blocks(buf):
    """Walk a rev 1.2 image's block directory; no payload is touched.

    Returns ``(blocks, damage)``: the :class:`Block` of every block
    whose header and payload lie inside the image, in order, and
    ``None`` — or, where the directory stops short (payload magic
    missing, a block header or payload running off the end), a
    message saying where.  The strict reader raises that message;
    salvage keeps the blocks and quarantines the rest.
    """
    view = memoryview(buf)
    magic_end = HEADER_SIZE + len(COLUMNAR_MAGIC)
    if bytes(view[HEADER_SIZE:magic_end]) != COLUMNAR_MAGIC:
        return [], (
            f"missing columnar payload magic at offset {HEADER_SIZE} "
            f"(expected {COLUMNAR_MAGIC!r})"
        )
    if len(view) < magic_end + _U64.size:
        return [], "truncated before the block count"
    (n_blocks,) = _U64.unpack_from(view, magic_end)
    blocks = []
    offset = magic_end + _U64.size
    for index in range(n_blocks):
        if offset + _BLOCK_HEADER.size > len(view):
            return blocks, (
                f"block {index} header truncated at offset {offset}"
            )
        payload_len, count, crc = _BLOCK_HEADER.unpack_from(view, offset)
        payload_at = offset + _BLOCK_HEADER.size
        if payload_at + payload_len > len(view):
            return blocks, (
                f"block {index} claims {payload_len} payload bytes at "
                f"offset {payload_at}, image holds "
                f"{len(view) - payload_at}"
            )
        blocks.append(Block(payload_at, count, crc, payload_len))
        offset = payload_at + payload_len
    return blocks, None


def decode_block(payload, block, version):
    """CRC-check and decode one block's `payload` (the bytes `block`
    points at) into its column tuple ``(kind, counter, addr, tid,
    call_site)``.  The decoded columns are fresh arrays: nothing keeps
    the image pinned."""
    if zlib.crc32(payload) != block.crc:
        raise LogFormatError(
            f"block CRC mismatch at offset {block.payload_at} "
            f"({block.count} entries) — salvage with "
            f"repro.core.recovery.recover_log"
        )
    return _decode_block_payload(payload, block.count, version)


# ----------------------------------------------------------------------
# Whole-image encode / decode

def encode_log(source, block_entries=DEFAULT_CODEC_BLOCK,
               sort_by_thread=True):
    """Encode a log into a rev 1.2 compressed columnar image.

    `source` is any log source :meth:`~repro.core.log.LogImage.of`
    accepts (a rev 1.2 image works too, so re-encoding is a no-op
    round trip).  With `sort_by_thread` (default) entries are
    stable-sorted by thread id first: per-thread order — the only
    order the format guarantees — is preserved exactly, and counters
    become near-monotonic within each thread's run, which is where
    the compression ratio comes from.  Pass ``sort_by_thread=False``
    to encode the sequence as-is (the identity-oracle configuration).

    Returns the complete image as ``bytes``.
    """
    if block_entries < 1:
        raise ValueError(
            f"block_entries must be positive: {block_entries}"
        )
    with LogImage.of(source) as image:
        header = image.header
        cols = image.columns()
    if _np is not None:
        kind, counter, addr, tid, call_site = cols.as_arrays()
    else:
        kind, counter, addr, tid, call_site = cols.as_lists()
    total = len(kind)
    if sort_by_thread and total:
        if _np is not None:
            order = _np.argsort(tid, kind="stable")
            kind, counter = kind[order], counter[order]
            addr, tid = addr[order], tid[order]
            if call_site is not None:
                call_site = call_site[order]
        else:
            order = sorted(range(total), key=tid.__getitem__)
            kind = [kind[i] for i in order]
            counter = [counter[i] for i in order]
            addr = [addr[i] for i in order]
            tid = [tid[i] for i in order]
            if call_site is not None:
                call_site = [call_site[i] for i in order]

    # The header travels unchanged except: FLAG_COMPRESSED on, the
    # seal machinery off (block CRCs are rev 1.2's integrity story),
    # and the tail pinned to the encoded entry count.
    flags = (header.flags | FLAG_COMPRESSED) & ~FLAG_SEALED
    words = _HEADER.pack(
        MAGIC,
        flags | (header.version << _VERSION_SHIFT),
        header.shm_base,
        header.pid,
        header.capacity,
        total,
        header.profiler_addr,
        0,  # no seal watermark in rev 1.2
    )
    blocks = []
    for start in range(0, total, block_entries):
        end = min(start + block_entries, total)
        blocks.append(
            _encode_block(
                kind[start:end],
                counter[start:end],
                addr[start:end],
                tid[start:end],
                call_site[start:end] if call_site is not None else None,
            )
        )
    return b"".join(
        [words, COLUMNAR_MAGIC, _U64.pack(len(blocks))] + blocks
    )


def decode_log(source):
    """Expand a log image into a fixed-width
    :class:`~repro.core.log.SharedLog` (rev 1.0 semantics, same
    entries in the image's order) — the convert-back path."""
    with LogImage.of(source) as image:
        header = image.header
        out = SharedLog.create(
            max(1, header.capacity, len(image)),
            pid=header.pid,
            profiler_addr=header.profiler_addr,
            shm_base=header.shm_base,
            multithread=header.multithread,
            version=header.version,
        )
        for cols in image.column_chunks():
            out.append_columns(
                cols.kind, cols.counter, cols.addr, cols.tid,
                cols.call_site,
            )
    out._store_tail()
    return out
