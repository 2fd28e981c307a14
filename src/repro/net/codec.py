"""Binary wire codec for protocol payloads (substrate S31).

The simulator passes Python objects between player generators; a real
deployment would serialize them.  This codec pins down that wire format —
a compact, self-describing TLV encoding of the payload vocabulary the
protocols use (strings for tags, ints for field elements and ids, nested
tuples, None for absences) — and doubles as ground truth for the byte
sizes the metrics layer estimates.

Format (big-endian):

=========  ==============================================
type byte  encoding
=========  ==============================================
``N``      None
``T``      bool True        ``F``  bool False
``i``      varint-length + unsigned big-endian int
``j``      like ``i`` but negative (absolute value stored)
``s``      varint-length + UTF-8 bytes
``(``      varint count + that many encoded items (tuple)
=========  ==============================================

Varints are LEB128 (7 bits per byte, high bit = continuation).  Tuples
nest at most :data:`MAX_DEPTH` deep; deeper data is a :class:`CodecError`
on either side.
"""

from __future__ import annotations

from typing import Any, Tuple


class CodecError(Exception):
    """Malformed wire data or unsupported payload type."""


def _write_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise CodecError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 10 * 7:
            raise CodecError("varint too long")


#: deepest tuple nesting either direction accepts (protocol payloads
#: nest at most 7 deep, in the gradecast echo); deeper data is refused
#: with :class:`CodecError` before it can exhaust the interpreter stack
MAX_DEPTH = 64

#: an int of at most this many bits has a magnitude of at most 127
#: bytes, so its length varint is one byte: the fast path's shape
_SHORT_INT_BITS = 127 * 8

_NONE, _TRUE, _FALSE = 0x4E, 0x54, 0x46   # N T F
_INT, _NEG, _STR, _TUPLE = 0x69, 0x6A, 0x73, 0x28   # i j s (

#: type byte + one-byte length, for every length a one-byte varint holds
_INT_HEAD = [bytes((_INT, size)) for size in range(0x80)]
_TUPLE_HEAD = [bytes((_TUPLE, count)) for count in range(0x80)]


def _too_deep() -> CodecError:
    return CodecError(f"tuple nesting deeper than {MAX_DEPTH}")


def _encode_into(payload: Any, out: bytearray, depth: int = 0) -> None:
    # fast path: a non-negative plain int below 2^1016 (bool and int
    # subclasses take the general branches)
    kind = type(payload)
    if kind is int and payload >= 0:
        bits = payload.bit_length()
        if bits <= _SHORT_INT_BITS:
            size = (bits + 7) >> 3 or 1
            out += _INT_HEAD[size]
            out += payload.to_bytes(size, "big")
            return
    if kind is tuple or isinstance(payload, tuple):
        if depth >= MAX_DEPTH:
            raise _too_deep()
        count = len(payload)
        if count < 0x80:
            out += _TUPLE_HEAD[count]
        else:
            out.append(_TUPLE)
            _write_varint(count, out)
        for item in payload:
            _encode_into(item, out, depth + 1)
    elif payload is None:
        out.append(_NONE)
    elif payload is True:
        out.append(_TRUE)
    elif payload is False:
        out.append(_FALSE)
    elif isinstance(payload, int):
        magnitude = abs(payload)
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        out.append(_INT if payload >= 0 else _NEG)
        _write_varint(len(raw), out)
        out.extend(raw)
    elif isinstance(payload, str):
        raw = payload.encode("utf-8")
        out.append(_STR)
        _write_varint(len(raw), out)
        out.extend(raw)
    else:
        raise CodecError(
            f"unsupported payload type {type(payload).__name__}; the wire "
            f"vocabulary is None/bool/int/str/tuple"
        )


def encode(payload: Any) -> bytes:
    """Serialize a protocol payload to bytes."""
    out = bytearray()
    _encode_into(payload, out)
    return bytes(out)


def _decode_from(data: bytes, offset: int, depth: int = 0) -> Tuple[Any, int]:
    size = len(data)
    if offset >= size:
        raise CodecError("truncated payload")
    kind = data[offset]
    offset += 1
    # fast path: an int with a one-byte length
    if kind == _INT and offset < size and data[offset] < 0x80:
        end = offset + 1 + data[offset]
        if end > size:
            raise CodecError("truncated int")
        return int.from_bytes(data[offset + 1 : end], "big"), end
    if kind == _TUPLE:
        if depth >= MAX_DEPTH:
            raise _too_deep()
        if offset < size and data[offset] < 0x80:
            count = data[offset]
            offset += 1
        else:
            count, offset = _read_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset, depth + 1)
            items.append(item)
        return tuple(items), offset
    if kind == _NONE:
        return None, offset
    if kind == _TRUE:
        return True, offset
    if kind == _FALSE:
        return False, offset
    if kind == _INT or kind == _NEG:
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise CodecError("truncated int")
        value = int.from_bytes(data[offset : offset + length], "big")
        offset += length
        return (value if kind == _INT else -value), offset
    if kind == _STR:
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise CodecError("truncated string")
        try:
            text = data[offset : offset + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8") from exc
        return text, offset + length
    raise CodecError(f"unknown type byte {kind:#x}")


def decode(data: bytes) -> Any:
    """Deserialize wire bytes back into a payload."""
    payload, offset = _decode_from(data, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes")
    return payload


def encoded_size(payload: Any) -> int:
    """Exact wire size in bytes (the metrics layer's k-bit accounting is
    the paper's model; this is the engineering ground truth)."""
    return len(encode(payload))
