"""Tiny REAL image-file builders (stdlib only) — deterministic fixtures for
the multimodal decode path.

Emits spec-valid PNG (IHDR + pHYs + zlib IDAT + CRC-checked chunks), GIF
(GIF89a header, logical screen descriptor, global color table, genuine LZW
pixel data via the clear-code-per-pixel "uncompressed" technique) and BMP
(BITMAPINFOHEADER, 24-bpp padded rows, pixels-per-meter density fields).
The header decoder in ``ops/multimodal.py`` is never consulted here — the
builder encodes dimensions/density chosen FIRST, so the build→decode
round-trip stays a real test of the decoder.

Payloads are padded with trailing NUL bytes to a fixed ``IMG_BYTES`` total
(legal after PNG IEND / GIF trailer / BMP pixel data) so byte accounting
is a closed-form function of the item id — which is what lets the DuckDB
oracle recompute ``n_bytes`` without being able to run zlib.
"""

from __future__ import annotations

import struct
import zlib

IMG_BYTES = 2048  # fixed padded payload size (oracle-recomputable)

_INCH_PER_METER = 0.0254


def _ppm(dpi: int) -> int:
    """Pixels-per-meter for a dpi such that round(ppm * 0.0254) == dpi."""
    return round(dpi / _INCH_PER_METER)


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def tiny_png(w: int, h: int, dpi: int = 72) -> bytes:
    """8-bit grayscale PNG with a pHYs density chunk; deterministic pixels."""
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    phys = struct.pack(">IIB", _ppm(dpi), _ppm(dpi), 1)
    raw = b"".join(
        b"\x00" + bytes((x * 31 + y * 17) % 251 for x in range(w))
        for y in range(h)
    )
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"pHYs", phys)
        + _png_chunk(b"IDAT", zlib.compress(raw, 6))
        + _png_chunk(b"IEND", b"")
    )


def tiny_gif(w: int, h: int) -> bytes:
    """2-color GIF89a. Pixel data is genuine LZW: a clear code before every
    pixel code keeps the code width fixed at 3 bits (the standard
    "uncompressed GIF" encoding) — decodable by any conforming reader."""
    out = bytearray(b"GIF89a")
    out += struct.pack("<HH", w, h)
    out += bytes([0xF0, 0, 0])  # GCT present, 2 entries; bg 0; aspect 0
    out += b"\x00\x00\x00\xff\xff\xff"  # global color table
    out += b"\x2c" + struct.pack("<HHHH", 0, 0, w, h) + b"\x00"
    out += b"\x02"  # LZW minimum code size (2 → clear=4, eof=5, 3-bit codes)
    codes: list[int] = [4]
    for i in range(w * h):
        codes.append((i * 7) % 2)  # deterministic 2-color pattern
        codes.append(4)  # clear → table never grows, width stays 3 bits
    codes[-1] = 5  # final clear becomes EOF
    bits = bitpos = 0
    data = bytearray()
    for c in codes:  # LSB-first bit packing per the GIF spec
        bits |= c << bitpos
        bitpos += 3
        while bitpos >= 8:
            data.append(bits & 0xFF)
            bits >>= 8
            bitpos -= 8
    if bitpos:
        data.append(bits & 0xFF)
    for off in range(0, len(data), 255):  # sub-blocks
        chunk = data[off : off + 255]
        out += bytes([len(chunk)]) + chunk
    out += b"\x00\x3b"  # block terminator + trailer
    return bytes(out)


def tiny_bmp(w: int, h: int, dpi: int = 72) -> bytes:
    """24-bpp bottom-up BMP with density fields; deterministic pixels."""
    row = (3 * w + 3) & ~3
    img_size = row * h
    header = b"BM" + struct.pack("<IHHI", 54 + img_size, 0, 0, 54)
    dib = struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size,
        _ppm(dpi), _ppm(dpi), 0, 0,
    )
    rows = bytearray()
    for y in range(h):
        r = bytearray()
        for x in range(w):
            r += bytes(((x * 13 + y * 7 + c * 3) % 256 for c in range(3)))
        r += b"\x00" * (row - len(r))
        rows += r
    return header + dib + bytes(rows)


def pad_payload(raw: bytes, size: int = IMG_BYTES) -> bytes:
    """Pad with trailing NULs to exactly ``size`` bytes (legal trailing data
    for all three containers). Raises if the image exceeds the budget —
    the fixture formulas are sized so it never does."""
    if len(raw) > size:
        raise ValueError(f"image payload {len(raw)} bytes exceeds pad {size}")
    return raw + b"\x00" * (size - len(raw))
