"""A compact, deterministic binary encoding of the JSON type universe.

Two on-disk formats are built from it: the storage layer's WAL records
(:mod:`repro.storage.wal`) and the flight recorder's ``ARFR3`` dumps
(:mod:`repro.obs.recorder`).  :meth:`repro.storage.base.Store.digest`
hashes the same encoding of each stored object, so two stores holding the
same objects agree byte for byte.  Nothing on a socket uses it: every
runtime frame body is JSON (:mod:`repro.runtime.protocol`), which the
repo's benchmark measured as the faster codec on the program's own
frames.

Design rules
------------
* **Same value space as JSON.**  ``decode(encode(x)) ==
  json.loads(json.dumps(x))`` for every encodable ``x``: tuples become
  lists, dict keys must be strings (we *reject* non-string keys instead of
  silently coercing them the way ``json.dumps`` does — a binary body must
  never decode to something JSON would have spelled differently).
* **Self-identifying bodies.**  Every binary body starts with the magic
  byte ``0xC1`` — deliberately the one byte msgpack reserves as
  "never used", and one no JSON body can start with (JSON objects start
  with ``{`` = 0x7B).
* **msgpack-compatible core tags.**  The type tags follow the msgpack
  layout (fixint/fixstr/fixarray/fixmap, ``0xC0`` nil, ``0xCB`` float64,
  ``0xD3`` int64, …) so the format is boring and auditable; arbitrary-
  precision ints ride in an ext payload (``0xC7``) because the paper's
  query ids are unbounded Python ints.
"""

from __future__ import annotations

import struct
from typing import Any, List

__all__ = [
    "BINARY_MAGIC",
    "BinaryCodecError",
    "encode_binary",
    "decode_binary",
]

#: first byte of every binary frame body (msgpack's "never used" byte;
#: JSON bodies always start with ``{`` = 0x7B)
BINARY_MAGIC = 0xC1

_NIL = 0xC0
_FALSE = 0xC2
_TRUE = 0xC3
_EXT8 = 0xC7  # ext8: 1-byte length, 1-byte type tag, payload
_INT64 = 0xD3
_FLOAT64 = 0xCB
_STR32 = 0xDB
_ARRAY32 = 0xDD
_MAP32 = 0xDF

#: ext type tag for arbitrary-precision integers (sign byte + magnitude)
_EXT_BIGINT = 0x01

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_pack_float64 = struct.Struct(">Bd").pack
_pack_int64 = struct.Struct(">Bq").pack
_unpack_float64 = struct.Struct(">d").unpack_from
_unpack_int64 = struct.Struct(">q").unpack_from


class BinaryCodecError(ValueError):
    """Raised on unencodable values or malformed binary bodies."""


def _encode_value(value: Any, out: bytearray) -> None:
    """Append ``value``'s encoding to ``out``.

    Exact-class dispatch ordered by frame-payload frequency (str keys and
    small ints dominate); subclasses and bools fall through to the tail.
    ``bytearray.append`` takes a raw int, so the fixint/fixstr/fixmap tags
    cost no intermediate ``bytes`` objects.
    """
    cls = value.__class__
    if cls is str:
        body = value.encode("utf-8")
        size = len(body)
        if size <= 31:
            out.append(0xA0 | size)  # fixstr
        else:
            out.append(_STR32)
            out += size.to_bytes(4, "big")
        out += body
    elif cls is int:
        if 0 <= value <= 0x7F:
            out.append(value)  # positive fixint
        elif -32 <= value < 0:
            out.append(0x100 + value)  # negative fixint
        elif _INT64_MIN <= value <= _INT64_MAX:
            out += _pack_int64(_INT64, value)
        else:
            # Arbitrary-precision int: ext8 with sign byte + magnitude.
            magnitude = abs(value)
            payload = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
            if len(payload) + 1 > 0xFF:
                # repr(value) could itself exceed CPython's int->str digit
                # limit, so report the size instead of the value.
                raise BinaryCodecError(
                    f"integer magnitude too large to encode ({magnitude.bit_length()} bits)"
                )
            out += bytes((_EXT8, len(payload) + 1, _EXT_BIGINT, 1 if value < 0 else 0))
            out += payload
    elif cls is float:
        out += _pack_float64(_FLOAT64, value)
    elif cls is dict:
        size = len(value)
        if size <= 15:
            out.append(0x80 | size)  # fixmap
        else:
            out.append(_MAP32)
            out += size.to_bytes(4, "big")
        for key, item in value.items():
            if not isinstance(key, str):
                raise BinaryCodecError(
                    f"binary frames require string dict keys, got {key!r}"
                )
            kbody = key.encode("utf-8")
            ksize = len(kbody)
            if ksize <= 31:
                out.append(0xA0 | ksize)
            else:
                out.append(_STR32)
                out += ksize.to_bytes(4, "big")
            out += kbody
            _encode_value(item, out)
    elif cls is list or cls is tuple:
        size = len(value)
        if size <= 15:
            out.append(0x90 | size)  # fixarray
        else:
            out.append(_ARRAY32)
            out += size.to_bytes(4, "big")
        for item in value:
            _encode_value(item, out)
    elif value is None:
        out.append(_NIL)
    elif value is True:
        out.append(_TRUE)
    elif value is False:
        out.append(_FALSE)
    else:
        # Subclass slow path (bool already handled: its __class__ is bool
        # and True/False are singletons, so isinstance ordering is safe).
        if isinstance(value, bool):
            out.append(_TRUE if value else _FALSE)
        elif isinstance(value, int):
            _encode_value(int(value), out)
        elif isinstance(value, float):
            out += _pack_float64(_FLOAT64, float(value))
        elif isinstance(value, str):
            _encode_value(str(value), out)
        elif isinstance(value, (list, tuple)):
            _encode_value(list(value), out)
        elif isinstance(value, dict):
            _encode_value(dict(value), out)
        else:
            raise BinaryCodecError(
                f"value of type {type(value).__name__} is not encodable: {value!r}"
            )


def encode_binary(payload: Any) -> bytes:
    """Encode one frame body: the ``0xC1`` magic followed by the value.

    The result is a frame *body* — the caller adds the shared 4-byte
    length prefix, exactly as for JSON bodies.
    """
    out = bytearray(b"\xc1")
    _encode_value(payload, out)
    return bytes(out)


def _decode_value(body: bytes, offset: int) -> tuple:
    """Decode one value at ``offset``; returns ``(value, next_offset)``.

    Branches ordered by payload frequency: fixstr (every dict key) and
    small ints dominate real frames.
    """
    try:
        tag = body[offset]
    except IndexError:
        raise BinaryCodecError("truncated binary frame body") from None
    offset += 1
    if 0xA0 <= tag <= 0xBF:  # fixstr
        end = offset + (tag & 0x1F)
        if end > len(body):
            raise BinaryCodecError("truncated binary string")
        return body[offset:end].decode("utf-8"), end
    if tag <= 0x7F:  # positive fixint
        return tag, offset
    if 0x80 <= tag <= 0x8F:  # fixmap
        return _decode_map(body, offset, tag & 0x0F)
    if 0x90 <= tag <= 0x9F:  # fixarray
        return _decode_array(body, offset, tag & 0x0F)
    if tag >= 0xE0:  # negative fixint
        return tag - 0x100, offset
    if tag == _NIL:
        return None, offset
    if tag == _TRUE:
        return True, offset
    if tag == _FALSE:
        return False, offset
    if tag == _INT64:
        if offset + 8 > len(body):
            raise BinaryCodecError("truncated int64")
        return _unpack_int64(body, offset)[0], offset + 8
    if tag == _FLOAT64:
        if offset + 8 > len(body):
            raise BinaryCodecError("truncated float64")
        return _unpack_float64(body, offset)[0], offset + 8
    if tag == _STR32:
        if offset + 4 > len(body):
            raise BinaryCodecError("truncated str32 header")
        size = int.from_bytes(body[offset : offset + 4], "big")
        offset += 4
        end = offset + size
        if end > len(body):
            raise BinaryCodecError("truncated binary string")
        return body[offset:end].decode("utf-8"), end
    if tag == _ARRAY32:
        if offset + 4 > len(body):
            raise BinaryCodecError("truncated array32 header")
        size = int.from_bytes(body[offset : offset + 4], "big")
        return _decode_array(body, offset + 4, size)
    if tag == _MAP32:
        if offset + 4 > len(body):
            raise BinaryCodecError("truncated map32 header")
        size = int.from_bytes(body[offset : offset + 4], "big")
        return _decode_map(body, offset + 4, size)
    if tag == _EXT8:
        if offset + 2 > len(body):
            raise BinaryCodecError("truncated ext8 header")
        size = body[offset]
        ext_type = body[offset + 1]
        offset += 2
        end = offset + size
        if end > len(body):
            raise BinaryCodecError("truncated ext8 payload")
        if ext_type != _EXT_BIGINT or size < 1:
            raise BinaryCodecError(f"unknown ext type 0x{ext_type:02x}")
        sign = body[offset]
        magnitude = int.from_bytes(body[offset + 1 : end], "big")
        return (-magnitude if sign else magnitude), end
    raise BinaryCodecError(f"unknown binary type tag 0x{tag:02x}")


def _decode_array(body: bytes, offset: int, size: int) -> tuple:
    items = []
    append = items.append
    for _ in range(size):
        item, offset = _decode_value(body, offset)
        append(item)
    return items, offset


def _decode_map(body: bytes, offset: int, size: int) -> tuple:
    result = {}
    for _ in range(size):
        # Inline the fixstr fast path: in real frames virtually every key
        # is a short string, so this skips a call per key.
        try:
            tag = body[offset]
        except IndexError:
            raise BinaryCodecError("truncated binary frame body") from None
        if 0xA0 <= tag <= 0xBF:
            offset += 1
            end = offset + (tag & 0x1F)
            if end > len(body):
                raise BinaryCodecError("truncated binary string")
            key = body[offset:end].decode("utf-8")
            offset = end
        else:
            key, offset = _decode_value(body, offset)
            if not isinstance(key, str):
                raise BinaryCodecError(f"binary map key must be a string, got {key!r}")
        value, offset = _decode_value(body, offset)
        result[key] = value
    return result, offset


def decode_binary(body: bytes) -> Any:
    """Decode a binary frame body (including the leading ``0xC1`` magic)."""
    if not body or body[0] != BINARY_MAGIC:
        raise BinaryCodecError("binary frame body must start with the 0xC1 magic byte")
    value, offset = _decode_value(body, 1)
    if offset != len(body):
        raise BinaryCodecError(
            f"trailing garbage in binary frame: {len(body) - offset} unread bytes"
        )
    return value
