import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from nbr2nbr.imaging import (
    ImageError,
    from_bytes,
    load_image,
    random_crop,
    save_float_image,
    save_image,
    to_bytes,
)


def test_load_handwritten_png(tmp_path):
    # 2x2 gray PNG with bytes {0, 128, 255, 64}, each row after filter byte 0
    path = tmp_path / "tiny.png"
    path.write_bytes(_png_bytes(2, 2, idat=zlib.compress(bytes([0, 0, 128, 0, 255, 64]))))
    img = load_image(path)
    assert img.shape == (2, 2, 1)
    expected = np.array([[0, 128], [255, 64]], dtype=np.float64) / 255.0
    np.testing.assert_allclose(img[:, :, 0], expected, rtol=0, atol=1e-7)


def test_all_zero_png(tmp_path):
    path = tmp_path / "zero.png"
    save_image(np.zeros((4, 4, 1)), path)
    img = load_image(path)
    assert img.shape == (4, 4, 1)
    assert np.all(img == 0.0)


@pytest.mark.parametrize("ext,channels", [(".png", 1), (".png", 3)])
def test_roundtrip_within_quantization(tmp_path, ext, channels):
    rng = np.random.default_rng(42)
    img = rng.random((13, 17, channels)).astype(np.float32)
    path = tmp_path / f"rt{ext}"
    save_image(img, path)
    back = load_image(path)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-7


@pytest.mark.parametrize("name", ["a.pgm", "a.ppm", "a.f32", "a"])
def test_save_image_writes_png_only(tmp_path, name):
    with pytest.raises(ValueError, match="unsupported output extension"):
        save_image(np.zeros((2, 2, 1)), tmp_path / name)
    assert not (tmp_path / name).exists()


def test_save_load_fixed_point_after_first_quantization(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.random((8, 8, 1)).astype(np.float32)
    p1, p2 = tmp_path / "a.png", tmp_path / "b.png"
    save_image(img, p1)
    once = load_image(p1)
    save_image(once, p2)
    twice = load_image(p2)
    np.testing.assert_array_equal(once, twice)


def test_save_clamps_and_saturates():
    img8 = to_bytes(np.full((2, 2, 1), 3.7))
    assert np.all(img8 == 255)
    img8 = to_bytes(np.full((2, 2, 1), -1.0))
    assert np.all(img8 == 0)


def test_round_half_up():
    # 0.5 * 255 = 127.5 -> byte 128
    assert to_bytes(np.full((1, 1, 1), 0.5))[0, 0, 0] == 128


def test_missing_file_reported_distinctly(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_image(tmp_path / "nope.png")


def test_unsupported_bit_depth(tmp_path):
    path = tmp_path / "deep.png"
    path.write_bytes(_png_bytes(2, 2, depth=16))
    with pytest.raises(ImageError, match="PNG bit depth 16, only 8 supported"):
        load_image(path)


def test_truncated_payload(tmp_path):
    full = tmp_path / "full.png"
    save_image(np.ones((8, 8, 1)) * 0.5, full)
    cut = tmp_path / "cut.png"
    cut.write_bytes(full.read_bytes()[:40])
    with pytest.raises(ImageError, match="PNG missing IDAT/IEND chunks"):
        load_image(cut)


def _png_bytes(width, height, ctype=0, idat=None, depth=8):
    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    ihdr = struct.pack(">IIBBBBB", width, height, depth, ctype, 0, 0, 0)
    if idat is None:
        idat = zlib.compress(bytes(height * (width + 1)))
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat)
            + chunk(b"IEND", b""))


@pytest.mark.parametrize("name,data", [
    ("w0.png", _png_bytes(0, 4)),
    ("h0.png", _png_bytes(4, 0)),
    ("w0.f32", b"N2NIMGF1" + struct.pack("<III", 4, 0, 1)),
    ("h0.f32", b"N2NIMGF1" + struct.pack("<III", 0, 4, 3)),
])
def test_image_without_pixels_is_refused(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ImageError, match="no pixels"):
        load_image(path)


def test_image_errors_name_the_file(tmp_path):
    path = tmp_path / "short.png"
    path.write_bytes(_png_bytes(4, 4, idat=zlib.compress(bytes(7))))  # 20 bytes promised
    with pytest.raises(ImageError) as info:
        load_image(path)
    assert str(info.value) == f"{path}: PNG pixel data shorter than header dimensions"
    assert issubclass(ImageError, ValueError)


@pytest.mark.parametrize("width,height", [(1, 1), (4, 0)])
def test_png_inflates_only_what_its_header_needs(tmp_path, width, height):
    # 64 MiB of deflated zeros, a 64 KB file, behind a header that needs 2 bytes or none
    deflate = zlib.compressobj()
    idat = b"".join(deflate.compress(bytes(1 << 20)) for _ in range(64)) + deflate.flush()
    path = tmp_path / "bomb.png"
    path.write_bytes(_png_bytes(width, height, idat=idat))
    tracemalloc.start()
    try:
        if height:
            assert load_image(path).shape == (1, 1, 1)
        else:
            with pytest.raises(ImageError, match="no pixels"):
                load_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_png_header_past_addressable_size_is_truncated(tmp_path):
    # (2^32 - 1)^2 RGB pixels need more bytes than any buffer can hold
    path = tmp_path / "huge.png"
    path.write_bytes(_png_bytes(2**32 - 1, 2**32 - 1, ctype=2, idat=zlib.compress(bytes(64))))
    with pytest.raises(ImageError, match="shorter than header"):
        load_image(path)


def test_random_crop_identity_at_full_size():
    rng = np.random.default_rng(0)
    img = rng.random((6, 6, 1)).astype(np.float32)
    crop = random_crop(img, 6, rng)
    np.testing.assert_array_equal(crop, img)


def test_random_crop_uniform_offsets():
    # 3x3 image, size 2: all 4 offsets should appear about equally
    img = np.arange(9, dtype=np.float32).reshape(3, 3, 1) / 9.0
    rng = np.random.default_rng(7)
    counts = {}
    n = 10_000
    for _ in range(n):
        c = random_crop(img, 2, rng)
        key = float(c[0, 0, 0])
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 4
    # chi-square with 3 dof; critical value at alpha=0.001 is 16.27
    chi2 = sum((c - n / 4) ** 2 / (n / 4) for c in counts.values())
    assert chi2 < 16.27


def test_random_crop_deterministic():
    img = np.random.default_rng(1).random((10, 10, 1)).astype(np.float32)
    a = random_crop(img, 4, np.random.default_rng(55))
    b = random_crop(img, 4, np.random.default_rng(55))
    np.testing.assert_array_equal(a, b)


def test_random_crop_shares_exact_window_values():
    img = np.random.default_rng(2).random((10, 10, 1)).astype(np.float32)
    rng = np.random.default_rng(9)
    crop = random_crop(img, 5, rng)
    # the crop must appear verbatim somewhere in the source
    found = any(
        np.array_equal(img[r : r + 5, c : c + 5], crop)
        for r in range(6)
        for c in range(6)
    )
    assert found


def test_crop_too_large_raises():
    with pytest.raises(ValueError):
        random_crop(np.zeros((4, 4, 1)), 5, np.random.default_rng(0))


def test_float_sidecar_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    img = (rng.standard_normal((9, 7, 1)) * 2).astype(np.float32)  # unclamped
    path = tmp_path / "x.f32"
    save_float_image(img, path)
    np.testing.assert_array_equal(load_image(path), img)


def _paeth_reference(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _encode_png(img8, filters):
    """PNG bytes of an (h, w, 1|3) uint8 image whose row y is written
    with filter type filters[y], filtered byte by byte (a type above 4
    is written unfiltered, with its type byte)."""
    h, w, c = img8.shape
    rows = img8.reshape(h, w * c).astype(int)
    raw = bytearray()
    for y, ftype in enumerate(filters):
        raw.append(ftype)
        for i in range(w * c):
            a = rows[y, i - c] if i >= c else 0
            b = rows[y - 1, i] if y else 0
            ul = rows[y - 1, i - c] if y and i >= c else 0
            pred = (0, a, b, (a + b) // 2, _paeth_reference(a, b, ul))[ftype] if ftype < 5 else 0
            raw.append((rows[y, i] - pred) % 256)

    def chunk(tag, payload):
        crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if c == 1 else 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(raw)))
        + chunk(b"IEND", b"")
    )


@pytest.mark.parametrize(
    "shape",
    [(1, 1, 1), (1, 1, 3), (1, 9, 1), (1, 9, 3), (7, 1, 1), (7, 1, 3),
     (5, 13, 1), (6, 11, 3), (13, 5, 3), (16, 3, 1)],
)
def test_png_filters_decode_exactly(tmp_path, shape):
    # one filter for every row, then a random filter per row, then a random
    # None or Up per row (decoded without the wavefront); images taller
    # than wide are decoded in several bands, and a four-level image makes
    # Paeth's tie-breaks matter
    rng = np.random.default_rng(sum(shape))
    plans = [[f] * shape[0] for f in range(5)]
    plans += [rng.integers(0, 5, shape[0]).tolist() for _ in range(4)]
    plans += [(2 * rng.integers(0, 2, shape[0])).tolist() for _ in range(4)]
    path = tmp_path / "f.png"
    for levels in (256, 4):
        img8 = (rng.integers(0, levels, shape) * (255 // (levels - 1))).astype(np.uint8)
        for filters in plans:
            path.write_bytes(_encode_png(img8, filters))
            np.testing.assert_array_equal(load_image(path), from_bytes(img8), err_msg=str(filters))


def test_png_filter_type_5_unsupported(tmp_path):
    img8 = np.random.default_rng(0).integers(0, 256, (4, 5, 3), dtype=np.uint8)
    path = tmp_path / "bad.png"
    path.write_bytes(_encode_png(img8, [1, 4, 5, 0]))
    with pytest.raises(ImageError, match="unknown PNG filter type 5"):
        load_image(path)
