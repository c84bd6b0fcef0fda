"""Image containers, file I/O, and geometric preprocessing.

Images are numpy arrays of shape (H, W, C) with C in {1, 3}, float32,
nominally in [0, 1]. Intermediate results (e.g. noisy images) may leave
[0, 1]; clamping happens only when an image is written to disk.

File I/O covers 8-bit PNG (gray / RGB, no alpha), read and written, with a
hand-rolled codec so the quantization rule is bit-exact: bytes load as v/255
and values save as round-half-up(255*v) after clamping to [0, 1]. A float
sidecar (.f32) keeps an image unquantized and unclamped; load_image reads it.
"""

from __future__ import annotations

import struct
import sys
import zlib
from pathlib import Path

import numpy as np


class ImageError(ValueError):
    """An image file load_image cannot read: an unknown format or variant, a
    payload shorter than its header promises, or no pixels."""


def as_image(data, dtype=np.float32) -> np.ndarray:
    """Validate and normalize an array into (H, W, C) image form (float32 by default).

    2-D input gets a singleton channel axis. Raises ValueError for
    shapes that are not H x W or H x W x {1,3}.
    """
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError(f"expected HxW or HxWx{{1,3}} array, got shape {arr.shape}")
    return arr


def as_images(data) -> np.ndarray:
    """as_image, except that a 4-D array passes as an (N, H, W, C) batch."""
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim != 4:
        return as_image(arr)
    if arr.shape[3] not in (1, 3):
        raise ValueError(f"expected NxHxWx{{1,3}} batch, got shape {arr.shape}")
    return arr


def to_bytes(img: np.ndarray) -> np.ndarray:
    """Clamp to [0,1] and quantize to uint8 with round-half-up."""
    img = as_image(img)
    q = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5)
    return q.astype(np.uint8)


def from_bytes(raw: np.ndarray) -> np.ndarray:
    """Map uint8 values to float32 v/255."""
    return as_image(raw.astype(np.float32) / 255.0)


# ---------------------------------------------------------------------------
# PNG (8-bit gray or RGB, no alpha, no interlace)
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def _write_png(img8: np.ndarray, path: Path) -> None:
    h, w, c = img8.shape
    color_type = 0 if c == 1 else 2
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    # filter byte 0 (None) per scanline
    raw = np.concatenate([np.zeros((h, 1), np.uint8), img8.reshape(h, w * c)], axis=1)
    data = (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw.tobytes(), 1))
        + _png_chunk(b"IEND", b"")
    )
    path.write_bytes(data)


def _predict(ftype: int, left, up, upleft):
    """Predictor of PNG filter type 1-4 (Sub, Up, Average, Paeth)."""
    if ftype == 1:
        return left
    if ftype == 2:
        return up
    if ftype == 3:
        return (left + up) >> 1
    du, dl = up - upleft, left - upleft
    pa, pb, pc = np.abs(du), np.abs(dl), np.abs(du + dl)
    return np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))


def _unfilter_scanlines(raw: bytes, h: int, w: int, c: int) -> np.ndarray:
    stride = w * c
    if len(raw) < h * (stride + 1):
        raise ImageError("PNG pixel data shorter than header dimensions")
    rows = np.frombuffer(raw, np.uint8, h * (stride + 1)).reshape(h, stride + 1)
    ftype = rows[:, 0]
    if not ftype.any():
        return rows[:, 1:].reshape(h, w, c).copy()
    if ftype.max() > 4:
        raise ImageError(f"unknown PNG filter type {ftype.max()}")
    if not np.isin(ftype, (1, 3, 4)).any():
        # None and Up only: each row is the byte sum, mod 256, of the rows
        # down from the last None row, i.e. a difference of running sums
        total = np.zeros((h + 1, stride), np.uint8)
        np.cumsum(rows[:, 1:], axis=0, dtype=np.uint8, out=total[1:])
        start = np.maximum.accumulate(np.where(ftype == 0, np.arange(h), 0))
        return (total[1:] - total[start]).reshape(h, w, c)
    # Pixel (y, x) depends only on its left, up and up-left neighbours, so a
    # whole anti-diagonal y + x = d decodes at once from the two before it.
    # Bands of at most w rows keep the buffer a few times the image's size;
    # in one, pixel (y, x) is decoded in place at diag[y + x + 2, y + 1].
    out = np.empty((h, w, c), np.uint8)
    for top in range(0, h, max(w, 1)):
        n = min(w, h - top)
        types = ftype[top : top + n, None]
        used = [(np.repeat(types == f, c, 1).astype(np.int16), f) for f in np.unique(types) if f]
        diag = np.zeros((n + w + 1, n + 1, c), np.int16)
        if top:
            diag[1 : w + 1, 0] = out[top - 1]
        s0, s1, s2 = diag.strides
        pixels = np.lib.stride_tricks.as_strided(diag[2:, 1:], (n, w, c), (s0 + s1, s0, s2))
        pixels[...] = rows[top : top + n, 1:].reshape(n, w, c)
        for d in range(2, n + w + 1):
            lo, hi = max(0, d - 1 - w), min(n, d - 1)
            left, up, upleft = diag[d - 1, lo + 1 : hi + 1], diag[d - 1, lo:hi], diag[d - 2, lo:hi]
            pred = sum(m[lo:hi] * _predict(f, left, up, upleft) for m, f in used)
            cur = diag[d, lo + 1 : hi + 1]
            np.bitwise_and(cur + pred, 0xFF, out=cur)
        out[top : top + n] = pixels
    return out


def _read_png(data: bytes) -> np.ndarray:
    pos = 8
    width = height = channels = None
    idat = bytearray()
    seen_end = False
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        if len(payload) < length:
            raise ImageError("PNG chunk extends past end of file")
        pos += 12 + length
        if tag == b"IHDR":
            if length != 13:
                raise ImageError(f"PNG IHDR chunk has {length} bytes, not 13")
            width, height, depth, ctype, _, _, interlace = struct.unpack(">IIBBBBB", payload)
            if depth != 8:
                raise ImageError(f"PNG bit depth {depth}, only 8 supported")
            if ctype not in (0, 2):
                raise ImageError(
                    f"PNG color type {ctype}, only gray(0)/RGB(2) supported"
                )
            if interlace != 0:
                raise ImageError("interlaced PNG not supported")
            channels = 1 if ctype == 0 else 3
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            seen_end = True
            break
    if width is None:
        raise ImageError("PNG missing IHDR chunk")
    if not seen_end or not idat:
        raise ImageError("PNG missing IDAT/IEND chunks")
    # inflate only the bytes the header asks for, so a small file cannot expand to
    # gigabytes (a max_length of 0 means no limit; above sys.maxsize it overflows)
    need = height * (width * channels + 1)
    try:
        raw = zlib.decompressobj().decompress(bytes(idat), min(need, sys.maxsize) or 1)
    except zlib.error as exc:
        raise ImageError(f"PNG pixel data undecodable: {exc}") from exc
    return _unfilter_scanlines(raw, height, width, channels)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def load_image(path) -> np.ndarray:
    """Load a PNG file as a float32 (H, W, C) image in [0, 1],
    or a float sidecar (see save_float_image) exactly as it was saved.

    8-bit values map to v/255 exactly. Raises FileNotFoundError, or an
    ImageError whose message starts with the path, also for zero pixels.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such image file: {path}")
    data = path.read_bytes()
    try:
        if data[:8] == _F32_MAGIC:
            img = _read_float(data)
        elif data[:8] == _PNG_SIG:
            img = from_bytes(_read_png(data))
        else:
            raise ImageError("unrecognized image format")
        if 0 in img.shape[:2]:
            raise ImageError(f"image is {img.shape[1]}x{img.shape[0]}, with no pixels")
    except ImageError as exc:
        raise ImageError(f"{path}: {exc}") from None
    return img


def save_image(img: np.ndarray, path) -> None:
    """Write an image as PNG (.png).

    Values are clamped to [0, 1] then quantized with round-half-up.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix != ".png":
        raise ValueError(f"unsupported output extension {suffix!r}")
    _write_png(to_bytes(img), path)


_F32_MAGIC = b"N2NIMGF1"


def _read_float(data: bytes) -> np.ndarray:
    if len(data) < 20:
        raise ImageError(f"sidecar has {len(data)} bytes, its header needs 20")
    h, w, c = struct.unpack("<III", data[8:20])
    if c not in (1, 3):
        raise ImageError(f"sidecar has {c} channels, expected 1 or 3")
    need = h * w * c
    payload = len(data) - 20
    if payload % 4 or payload // 4 < need:
        raise ImageError(
            f"sidecar has {payload} payload bytes, needs {need} whole float32 values"
        )
    img = np.frombuffer(data, "<f4", need, 20).reshape(h, w, c).astype(np.float32)
    if not np.isfinite(img).all():
        raise ImageError("sidecar holds non-finite values")
    return img


def save_float_image(img: np.ndarray, path) -> None:
    """Write an unclamped float32 image verbatim (magic, u32 h/w/c
    little-endian, then raw float32-LE values)."""
    img = as_image(img)
    h, w, c = img.shape
    header = _F32_MAGIC + struct.pack("<III", h, w, c)
    Path(path).write_bytes(header + np.ascontiguousarray(img, "<f4").tobytes())


def random_crop(img: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Extract a uniformly placed size x size crop (exact window copy)."""
    img = as_image(img)
    h, w = img.shape[:2]
    if size > min(h, w):
        raise ValueError(f"crop size {size} exceeds image bounds {h}x{w}")
    top = int(rng.integers(0, h - size + 1))
    left = int(rng.integers(0, w - size + 1))
    return img[top : top + size, left : left + size].copy()
