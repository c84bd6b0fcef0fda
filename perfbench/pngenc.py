"""PNG encoder with per-row filter selection, for benchmark inputs.

The package's own encoder writes every row with filter 0 (None). Files
from other encoders mix all five filter types, and the decoder's speed
depends heavily on which ones it meets, so the benchmark writes its PNG
inputs here. Adaptive mode picks each row's filter with the heuristic
the PNG specification recommends: the smallest sum of absolute values
of the filtered bytes, each byte read as a signed value.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

FILTER_NAMES = ("none", "sub", "up", "avg", "paeth")

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _filtered_rows(img8: np.ndarray) -> np.ndarray:
    """All five filtered forms of every row: (5, h, w*c) uint8, indexed
    by PNG filter type."""
    h, w, c = img8.shape
    cur = img8.reshape(h, w * c).astype(np.int16)
    up = np.zeros_like(cur)
    up[1:] = cur[:-1]
    left = np.zeros_like(cur)
    left[:, c:] = cur[:, :-c]
    upleft = np.zeros_like(cur)
    upleft[:, c:] = up[:, :-c]
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    out = np.stack([cur, cur - left, cur - up, cur - (left + up) // 2, cur - paeth])
    return (out & 0xFF).astype(np.uint8)


def _choose_filters(candidates: np.ndarray) -> np.ndarray:
    """Per-row filter type by minimum sum of signed absolute bytes;
    ties go to the lower filter type."""
    signed = candidates.astype(np.int16)
    cost = np.minimum(signed, 256 - signed).sum(axis=2)
    return cost.argmin(axis=0)


def encode_png(img8: np.ndarray, filter_type: int | None = None) -> tuple[bytes, np.ndarray]:
    """Encode an (h, w, 1|3) uint8 image; returns the file bytes and the
    filter type of each row. filter_type None selects a filter per row;
    0..4 uses that filter on every row."""
    if img8.dtype != np.uint8 or img8.ndim != 3 or img8.shape[2] not in (1, 3):
        raise ValueError(f"expected (h, w, 1|3) uint8 image, got {img8.dtype} {img8.shape}")
    h, w, c = img8.shape
    candidates = _filtered_rows(img8)
    if filter_type is None:
        types = _choose_filters(candidates)
    else:
        types = np.full(h, filter_type)
    rows = candidates[types, np.arange(h)]
    raw = np.concatenate([types.astype(np.uint8)[:, None], rows], axis=1).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if c == 1 else 2, 0, 0, 0)
    png = (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw, 6))
        + _chunk(b"IEND", b"")
    )
    return png, types
