"""Fuzz tests of the file readers and of the noise spec parser.

A byte-mutated PNG, PGM/PPM, .f32 image or .n2nckpt checkpoint either
loads, with finite values only, or raises ValueError (ImageError is
one), which the CLI reports as exit 3; any other exception would end a
command in a traceback. A state.npz with one array dropped or replaced
resumes or exits 3.
Any text parses to a NoiseModel or raises ValueError, as --noise
must. Examples are derandomized, so a run is reproducible, and kept
few, so the module adds only seconds.
"""

import re
import struct
import zlib

import numpy as np
import pytest

from nbr2nbr.cli import main
from nbr2nbr.imaging import ImageError, load_image, save_float_image, save_image, to_bytes
from nbr2nbr.network import ArchDescriptor, build_network, load_checkpoint, save_checkpoint
from nbr2nbr.noise import NoiseModel, parse_noise_spec

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402 (after the skip)
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """data with one to eight byte edits: set, insert, delete or truncate.
    Half the edits land in the first 32 bytes, where the headers are."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(("set", "insert", "delete", "truncate")))
        end = max(len(out) - 1, 0)
        pos = draw(st.integers(0, min(end, 31)) | st.integers(0, end))
        if op == "set" and out:
            out[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            out[pos:pos] = draw(st.binary(min_size=1, max_size=4))
        elif op == "delete":
            del out[pos : pos + draw(st.integers(1, 4))]
        elif op == "truncate":
            del out[pos:]
    return bytes(out)


def _seed_files(directory) -> dict[str, bytes]:
    rng = np.random.default_rng(0)
    for name, shape in (("gray.png", (6, 5, 1)), ("rgb.png", (4, 7, 3))):
        save_image(rng.random(shape), directory / name)
    for name, magic, (h, w, c) in (("gray.pgm", b"P5", (5, 6, 1)), ("rgb.ppm", b"P6", (3, 4, 3))):
        header = magic + f"\n{w} {h}\n255\n".encode()
        (directory / name).write_bytes(header + to_bytes(rng.random((h, w, c))).tobytes())
    save_float_image(rng.standard_normal((4, 3, 3)), directory / "img.f32")
    net = build_network(ArchDescriptor(1, 1, 2, 1), np.random.default_rng(1))
    save_checkpoint(net, directory / "m.n2nckpt")
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    return directory, _seed_files(directory)


def _loads_or_data_error(load, path, data: bytes):
    """What load makes of data, or None for a data error."""
    path.write_bytes(data)
    try:
        return load(path)
    except ValueError:
        return None


@pytest.mark.parametrize("name", ["gray.png", "rgb.png", "gray.pgm", "rgb.ppm", "img.f32"])
def test_mutated_image_loads_or_is_data_error(seeds, name):
    directory, files = seeds

    @FUZZ
    @given(mutations(files[name]))
    def check(data):
        img = _loads_or_data_error(load_image, directory / ("mutated-" + name), data)
        assert img is None or np.isfinite(img).all()

    check()


@FUZZ
@given(hnp.arrays(np.float32, st.tuples(st.integers(1, 3), st.integers(1, 3),
                                        st.sampled_from((1, 3)))))
def test_float_sidecar_loads_exactly_or_refuses_non_finite(seeds, img):
    path = seeds[0] / "any.f32"
    save_float_image(img, path)
    if np.isfinite(img).all():
        assert load_image(path).tobytes() == img.tobytes()
    else:
        with pytest.raises(ImageError, match=f"^{re.escape(str(path))}: sidecar holds non-finite"):
            load_image(path)


def test_mutated_checkpoint_loads_or_is_data_error(seeds):
    directory, files = seeds

    @FUZZ
    @given(mutations(files["m.n2nckpt"]))
    def check(data):
        _loads_or_data_error(load_checkpoint, directory / "mutated.n2nckpt", data)

    check()


def _png(width: int, height: int, ctype: int, scanlines: bytes) -> bytes:
    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    ihdr = struct.pack(">IIBBBBB", width, height, 8, ctype, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(scanlines)) + chunk(b"IEND", b""))


@FUZZ
@given(width=st.integers(1, 6), height=st.integers(1, 6), ctype=st.sampled_from((0, 2)),
       data=st.data())
def test_mutated_png_scanlines_decode_or_are_data_error(seeds, width, height, ctype, data):
    # mutations behind the deflate layer reach the filter decoder: filter
    # bytes of every type, including unknown ones, and short pixel data
    channels = 1 if ctype == 0 else 3
    rows = data.draw(st.lists(
        st.tuples(st.integers(0, 5), st.binary(min_size=width * channels,
                                                max_size=width * channels)),
        min_size=height, max_size=height))
    scanlines = data.draw(mutations(b"".join(bytes([f]) + row for f, row in rows)))
    path = seeds[0] / "scanlines.png"
    path.write_bytes(_png(width, height, ctype, scanlines))
    try:
        img = load_image(path)
    except ValueError:
        return
    assert img.shape == (height, width, channels)


@pytest.fixture(scope="module")
def trained_state(tmp_path_factory):
    """The train flags of a finished 2-epoch run, and its state.npz arrays."""
    directory = tmp_path_factory.mktemp("state")
    (directory / "data").mkdir()
    for i, shape in enumerate(((20, 20, 1), (16, 24, 1))):
        save_image(np.random.default_rng(i).random(shape), directory / "data" / f"{i}.png")
    flags = ["--data", str(directory / "data"), "--out", str(directory / "run"),
             "--batch", "2", "--crop", "16", "--depth", "1", "--width", "4", "--tail", "1"]
    assert main(["train", "--epochs", "2"] + flags) == 0
    with np.load(directory / "run" / "state.npz") as z:
        return directory, flags, dict(z)


STATE_KEYS = ("params", "m", "v", "t", "next_epoch", "rng_state", "options")
SMALL_ARRAYS = hnp.arrays(
    st.sampled_from(("bool", "uint8", "int8", "int64", "uint64", "float32", "float64",
                     "complex64", "<U2")),
    hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))


@FUZZ
@given(key=st.sampled_from(STATE_KEYS),
       value=st.none() | st.integers(-3, 3).map(np.int64) | SMALL_ARRAYS)
def test_mutated_training_state_resumes_or_is_data_error(trained_state, key, value):
    # one array dropped (None) or replaced; --epochs 3 trains an epoch on a resume
    directory, flags, arrays = trained_state
    path = directory / "mutated.npz"
    np.savez(path, **{k: a for k, a in arrays.items() if k != key},
             **({} if value is None else {key: value}))
    with np.errstate(all="ignore"):
        rc = main(["train", "--epochs", "3", "--resume", str(path)] + flags)
    assert rc in (0, 3)


FAMILIES = (("gauss", "gaussian"), ("poisson", "poisson"))
SPEC_TEXT = st.from_regex(r"(gauss|poisson)[-+_.0-9einfa ]{0,12}", fullmatch=True)


@FUZZ
@given(spec=st.text(max_size=16) | SPEC_TEXT)
def test_any_noise_spec_parses_or_is_data_error(spec):
    try:
        model = parse_noise_spec(spec)
    except ValueError:
        return
    assert isinstance(model, NoiseModel)


LEVELS = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)


@FUZZ
@given(names=st.sampled_from(FAMILIES), level=LEVELS, upper=st.none() | LEVELS)
def test_noise_spec_round_trips(names, level, upper):
    # the shortest positional digits (the grammar has no exponent) that read back the same float
    prefix, family = names
    if upper is not None:
        level, upper = sorted((level, upper))
    assume(family == "gaussian" or level > 0)
    spec = prefix + "_".join(np.format_float_positional(v, trim="-")
                             for v in (level, upper) if v is not None)
    model = parse_noise_spec(spec)
    assert (model.family, model.level, model.upper) == (family, level, upper)


@FUZZ
@given(prefix=st.sampled_from([p for p, _ in FAMILIES]),
       levels=st.lists(st.integers(1, 99), min_size=3, max_size=4).map(sorted))
def test_noise_spec_with_two_underscores_is_refused(prefix, levels):
    # float() reads digit-group underscores: split at the first '_' only, gauss5_50_7
    # would be sigma in [5, 507]
    with pytest.raises(ValueError, match="at most one '_'"):
        parse_noise_spec(prefix + "_".join(map(str, levels)))
