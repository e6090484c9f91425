"""Baseline JPEG codec (ops/jpeg.py): component round-trips (DCT,
Huffman tables, bit I/O), whole-stream round-trips (exact on the
block-constant quality-100 subdomain, PSNR-bounded in general), marker
robustness, and the multimodal integration."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from deduce_ray.ops.jpeg import (  # noqa: E402
    _AC_SPEC,
    _BitReader,
    _BitWriter,
    _DC_SPEC,
    _DCT_M,
    _HuffDecoder,
    _canonical_codes,
    _quant_table,
    _BASE_LUMA_Q,
    decode_jpeg,
    decode_jpeg_rgb,
    encode_jpeg,
)


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return float("inf") if mse == 0 else 10 * np.log10(255.0**2 / mse)


def test_dct_orthonormal():
    assert np.allclose(_DCT_M @ _DCT_M.T, np.eye(8), atol=1e-12)


def test_quality_scaling():
    assert np.all(_quant_table(_BASE_LUMA_Q, 100) == 1)
    assert np.all(_quant_table(_BASE_LUMA_Q, 50) == _BASE_LUMA_Q)
    assert np.all(
        _quant_table(_BASE_LUMA_Q, 10) >= _quant_table(_BASE_LUMA_Q, 90)
    )
    with pytest.raises(ValueError):
        _quant_table(_BASE_LUMA_Q, 0)


def test_huffman_tables_canonical_and_roundtrip():
    """Every emitted symbol survives write -> (stuffed bytes) -> read,
    and no code is a prefix of another."""
    for spec in (_DC_SPEC, _AC_SPEC):
        codes = _canonical_codes(*spec)
        as_bits = {
            format(c, f"0{length}b") for c, length in codes.values()
        }
        assert len(as_bits) == len(codes)
        for s in as_bits:
            for t in as_bits:
                assert s == t or not t.startswith(s)
        # all-ones code of the table's length is unused (T.81 practice)
        maxlen = max(length for _, length in codes.values())
        assert "1" * maxlen not in as_bits

    w = _BitWriter()
    symbols = list(_canonical_codes(*_AC_SPEC))
    dec = _HuffDecoder(*_AC_SPEC)
    for sym in symbols:
        code, length = _canonical_codes(*_AC_SPEC)[sym]
        w.write(code, length)
    data = w.flush()
    br = _BitReader(data, 0)
    for sym in symbols:
        assert dec.read(br) == sym


def test_bit_stuffing_roundtrip():
    """0xFF bytes produced by the writer are stuffed and transparently
    unstuffed by the reader."""
    w = _BitWriter()
    w.write(0xFF, 8)
    w.write(0xFF, 8)
    w.write(0x5, 4)
    data = w.flush()
    assert data.count(b"\xff\x00") >= 2
    br = _BitReader(data, 0)
    assert br.read_bits(8) == 0xFF
    assert br.read_bits(8) == 0xFF
    assert br.read_bits(4) == 0x5


def test_block_constant_gray_exact_q100():
    rng = np.random.RandomState(11)
    vals = rng.randint(0, 256, size=(5, 7), dtype=np.uint8)
    img = np.kron(vals, np.ones((8, 8), dtype=np.uint8))
    dec = decode_jpeg(encode_jpeg(img, quality=100))
    assert dec.shape == (40, 56, 1)
    assert np.array_equal(dec[..., 0], img)


def test_general_gray_psnr():
    rng = np.random.RandomState(12)
    img = rng.randint(0, 256, size=(32, 24), dtype=np.uint8)
    for q, floor in ((100, 45.0), (90, 28.0), (50, 18.0)):
        dec = decode_jpeg(encode_jpeg(img, quality=q))[..., 0]
        assert _psnr(img, dec) > floor, q


def test_color_smooth_roundtrip():
    x = np.linspace(0, 255, 48).astype(np.uint8)
    r, g = np.meshgrid(x, x)
    img = np.stack(
        [r, g, np.full_like(r, 100)], axis=-1
    ).astype(np.uint8)
    dec = decode_jpeg_rgb(encode_jpeg(img, quality=95))
    assert dec.shape == img.shape
    assert _psnr(img, dec) > 35.0


def test_non_multiple_of_8_crops():
    rng = np.random.RandomState(13)
    img = rng.randint(0, 256, size=(19, 11), dtype=np.uint8)
    dec = decode_jpeg(encode_jpeg(img, quality=100))
    assert dec.shape == (19, 11, 1)


def test_decoder_rejects_garbage_and_nonbaseline():
    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg")
    img = np.zeros((8, 8), dtype=np.uint8)
    payload = bytearray(encode_jpeg(img, quality=100))
    sof = payload.find(b"\xff\xc0")
    payload[sof + 1] = 0xC2  # flip SOF0 -> SOF2 (progressive)
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(payload))


def test_encoder_rejects_bad_input():
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((0, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((4, 4, 2), dtype=np.uint8))


def test_multimodal_integration():
    """decode_image / decode_image_rgbsum route JPEG payloads through
    the real codec with the gray 3v convention."""
    from deduce_ray.ops.multimodal import decode_image, decode_image_rgbsum

    vals = np.arange(4, dtype=np.uint8).reshape(2, 2) * 60 + 10
    img = np.kron(vals, np.ones((8, 8), dtype=np.uint8))
    payload = encode_jpeg(img, quality=100)
    gray = decode_image(payload, 16, 16)
    assert gray.shape == (16, 16)
    assert np.allclose(gray, img.astype(np.float32) / 255.0)
    rgbsum = decode_image_rgbsum(payload)
    assert np.array_equal(rgbsum, img.ravel().astype(np.int64) * 3)


def test_jpeg_synthesizer_matches_seed(ray_session):
    """The synthesized corpus decodes back to exactly the seed-derived
    block values (the oracle's premise), negative ids included."""
    import hashlib

    import pyarrow as pa

    from deduce_ray.ops.multimodal import (
        decode_image_rgbsum,
        synthesize_media_jpeg_batch,
    )

    batch = pa.table({"doc_id": pa.array([-3, 0, 5], type=pa.int64())})
    out = synthesize_media_jpeg_batch(batch)
    for row in out.to_pylist():
        i = row["media_id"]
        w, h = row["width"], row["height"]
        seed = hashlib.sha256(f"media:{i}".encode()).digest()
        nb = (h // 8) * (w // 8)
        reps = nb // 32 + 1
        block_vals = np.frombuffer(seed * reps, dtype=np.uint8)[:nb]
        expect = np.kron(
            block_vals.reshape(h // 8, w // 8),
            np.ones((8, 8), dtype=np.uint8),
        )
        got = decode_image_rgbsum(row["payload"])
        assert np.array_equal(got, expect.ravel().astype(np.int64) * 3), i


def test_zigzag_is_t81_order():
    """The zigzag table is shared by the encoder and the decoder, so a
    round-trip cannot catch a wrong one (a transposed table round-trips
    too, but decodes other encoders' files wrongly): pin it to the
    canonical T.81 scan."""
    from deduce_ray.ops.jpeg import _UNZIGZAG, _ZIGZAG

    t81 = [
        0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
    ]
    assert _ZIGZAG.tolist() == t81
    assert _ZIGZAG[_UNZIGZAG].tolist() == list(range(64))
