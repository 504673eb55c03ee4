"""Checkpoint bytes built by hand, for tests that need a valid trailer around
content that save_checkpoint never writes.

A checkpoint is b"CLTA\\x02", the metadata's length (<I) and its bytes, the
parameter blocks, then a <QI trailer: the file's length and the CRC32 of every
byte before it. This module uses only the standard library and shares no code
with the package.
"""

import struct
import zlib


def v2_bytes(meta_json: bytes, blocks: bytes) -> bytes:
    """A version 2 file with a valid trailer, whatever its metadata and blocks hold."""
    body = b"CLTA\x02" + struct.pack("<I", len(meta_json)) + meta_json + blocks
    return body + struct.pack("<QI", len(body) + 12, zlib.crc32(body))


def v2_parts(raw: bytes) -> tuple[bytes, bytes]:
    """The metadata bytes and the block bytes of the version 2 file raw."""
    assert raw[:5] == b"CLTA\x02"
    (meta_len,) = struct.unpack_from("<I", raw, 5)
    return raw[9:9 + meta_len], raw[9 + meta_len:-12]


def block(name: str, values: list[float], rows: int, cols: int = 0) -> bytes:
    """One parameter block: the name's length and UTF-8 bytes, rows and cols,
    then the values as little-endian float64."""
    nb = name.encode("utf-8")
    return (struct.pack(f"<I{len(nb)}sII", len(nb), nb, rows, cols)
            + struct.pack(f"<{len(values)}d", *values))
