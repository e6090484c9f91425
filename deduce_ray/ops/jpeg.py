"""Baseline JPEG (ITU-T T.81 / JFIF) encoder + decoder in numpy.

Public-knowledge implementation of the baseline sequential DCT process:
8x8 blocks, level shift, 2-D DCT-II, uniform quantization, zigzag,
DC-difference + run-length AC entropy coding with CANONICAL Huffman
tables, 0xFF byte stuffing, SOI/APP0/DQT/SOF0/DHT/SOS/EOI markers.
Both grayscale (1 component) and 4:4:4 YCbCr color (3 components) are
supported; no subsampling, no progressive mode, no restart markers.

The encoder emits its OWN canonical Huffman tables in DHT (legal per
T.81 — tables are part of the stream): 4-bit codes for the 12 DC
categories and 8-bit codes for the 162 AC symbols, built by the
canonical-code rule the decoder also applies, so the two sides share
one table constructor.  Compression is modest; correctness and
parseability are the point.

Exactness property used by the ``media_features_jpeg`` oracle: at
``quality=100`` every quantizer step is 1, and a block whose pixels are
CONSTANT has a single nonzero coefficient DC = 8*(v-128) — an integer,
so quantization loses nothing, and the IDCT reconstructs the constant
exactly (DC/8 is a power-of-two division, exact in float64).
Block-constant images therefore round-trip BIT-EXACTLY through the full
real pipeline (DCT -> Huffman -> stuffing -> parse -> Huffman decode ->
IDCT), which makes JPEG payloads integer-exactly value-checkable from
their generating seed, the same proof shape as the PNG path
(ops/multimodal.py).  General images are lossy as usual and are
round-trip tested by PSNR bound instead.
"""

from __future__ import annotations

import struct

import numpy as np

# ITU-T T.81 Annex K.1 luminance quantization table (zigzag-free,
# row-major), scaled by the IJG quality curve in _quant_table.
_BASE_LUMA_Q = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.int64)

# K.2 chrominance table
_BASE_CHROMA_Q = np.array([
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
], dtype=np.int64)


def _quant_table(base: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality scaling: 100 -> all ones (lossless quantizer)."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (base * scale + 50) // 100
    return np.clip(q, 1, 255).astype(np.int64)


def _zigzag_order() -> np.ndarray:
    """Indices mapping a row-major flat 8x8 block to zigzag order (T.81
    Figure A.6): odd anti-diagonals run down-left, so they sort by row;
    even ones run up-right, so they sort by column."""
    order = sorted(
        ((r, c) for r in range(8) for c in range(8)),
        key=lambda rc: (rc[0] + rc[1],
                        rc[0] if (rc[0] + rc[1]) % 2 else rc[1]),
    )
    return np.array([r * 8 + c for r, c in order], dtype=np.int64)


_ZIGZAG = _zigzag_order()
_UNZIGZAG = np.argsort(_ZIGZAG)


def _dct_matrix() -> np.ndarray:
    n = np.arange(8)
    k = n.reshape(8, 1)
    m = np.cos((2 * n + 1) * k * np.pi / 16) / 2.0
    m[0, :] /= np.sqrt(2.0)
    return m


_DCT_M = _dct_matrix()


def _blocks_of(plane: np.ndarray) -> np.ndarray:
    """(h, w) -> (n_blocks, 8, 8) in row-major block order; h, w must be
    multiples of 8 (callers pad first)."""
    h, w = plane.shape
    return (
        plane.reshape(h // 8, 8, w // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
    )


def _unblocks(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    return (
        blocks.reshape(h // 8, w // 8, 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(h, w)
    )


def _fdct(blocks: np.ndarray) -> np.ndarray:
    return np.einsum("ij,njk,lk->nil", _DCT_M, blocks, _DCT_M)


def _idct(coefs: np.ndarray) -> np.ndarray:
    return np.einsum("ji,njk,kl->nil", _DCT_M, coefs, _DCT_M)


# ---------------------------------------------------------------------------
# canonical Huffman tables
# ---------------------------------------------------------------------------


def _dc_table_spec() -> tuple[bytes, bytes]:
    """(BITS, HUFFVAL) for the 12 DC categories, all at code length 4
    (12 < 16 codes, all-ones code left unused per T.81 practice)."""
    bits = bytearray(16)
    bits[3] = 12  # 12 codes of length 4
    return bytes(bits), bytes(range(12))


def _ac_table_spec() -> tuple[bytes, bytes]:
    """(BITS, HUFFVAL) for the 162 baseline AC symbols at code length 8:
    EOB (0x00), ZRL (0xF0), and (run 0..15, size 1..10)."""
    vals = [0x00, 0xF0] + [
        (run << 4) | size for run in range(16) for size in range(1, 11)
    ]
    bits = bytearray(16)
    bits[7] = len(vals)  # 162 codes of length 8 (<= 255 available)
    return bytes(bits), bytes(vals)


def _canonical_codes(bits: bytes, vals: bytes) -> dict[int, tuple[int, int]]:
    """symbol -> (code, length) by the T.81 canonical-code generation."""
    out: dict[int, tuple[int, int]] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


_DC_SPEC = _dc_table_spec()
_AC_SPEC = _ac_table_spec()
_DC_CODES = _canonical_codes(*_DC_SPEC)
_AC_CODES = _canonical_codes(*_AC_SPEC)


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, code: int, length: int) -> None:
        self._acc = (self._acc << length) | (code & ((1 << length) - 1))
        self._nbits += length
        while self._nbits >= 8:
            self._nbits -= 8
            byte = (self._acc >> self._nbits) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:  # byte stuffing
                self.out.append(0x00)
        self._acc &= (1 << self._nbits) - 1

    def flush(self) -> bytes:
        if self._nbits:
            pad = 8 - self._nbits
            self.write((1 << pad) - 1, pad)  # pad with 1-bits per T.81
        return bytes(self.out)


class _BitReader:
    """Reads the entropy-coded segment with 0xFF00 unstuffing; stops at
    any other marker."""

    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos
        self._acc = 0
        self._nbits = 0

    def read_bit(self) -> int:
        if self._nbits == 0:
            d = self.data
            p = self.pos
            if p >= len(d):
                raise ValueError("JPEG entropy stream truncated")
            b = d[p]
            p += 1
            if b == 0xFF:
                if p >= len(d):
                    raise ValueError("JPEG entropy stream truncated at FF")
                nxt = d[p]
                if nxt == 0x00:
                    p += 1  # stuffed byte
                else:
                    raise ValueError(
                        f"unexpected marker 0xFF{nxt:02x} inside scan"
                    )
            self._acc = b
            self._nbits = 8
            self.pos = p
        self._nbits -= 1
        return (self._acc >> self._nbits) & 1

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v


def _category(v: int) -> int:
    return int(v).bit_length() if v >= 0 else int(-v).bit_length()


def _amplitude_bits(v: int, size: int) -> int:
    # negative amplitudes are stored as v - 1 in `size` bits (one's
    # complement convention of T.81 F.1.4.1)
    return v if v >= 0 else v + (1 << size) - 1


def _extend(bits: int, size: int) -> int:
    if size == 0:
        return 0
    if bits < (1 << (size - 1)):
        return bits - (1 << size) + 1
    return bits


def _encode_component(
    writer: _BitWriter, qcoefs: np.ndarray, pred: int
) -> int:
    """Entropy-code one component's quantized zigzag blocks (n, 64);
    returns the updated DC predictor."""
    for blk in qcoefs:
        dc = int(blk[0])
        diff = dc - pred
        pred = dc
        size = _category(diff)
        code, length = _DC_CODES[size]
        writer.write(code, length)
        if size:
            writer.write(_amplitude_bits(diff, size), size)
        run = 0
        last_nz = int(np.max(np.nonzero(blk)[0])) if np.any(blk[1:]) else 0
        for k in range(1, 64):
            if k > last_nz:
                break
            v = int(blk[k])
            if v == 0:
                run += 1
                continue
            while run > 15:
                code, length = _AC_CODES[0xF0]  # ZRL
                writer.write(code, length)
                run -= 16
            size = _category(v)
            if size > 10:
                raise ValueError(f"AC coefficient {v} out of baseline range")
            code, length = _AC_CODES[(run << 4) | size]
            writer.write(code, length)
            writer.write(_amplitude_bits(v, size), size)
            run = 0
        if last_nz < 63:
            code, length = _AC_CODES[0x00]  # EOB
            writer.write(code, length)
    return pred


def _quantized_blocks(plane: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(h, w) uint8 plane -> (n, 64) int zigzag quantized coefficients."""
    blocks = _blocks_of(plane.astype(np.float64) - 128.0)
    coefs = _fdct(blocks)
    qd = np.round(coefs / q).astype(np.int64)
    return qd.reshape(-1, 64)[:, _ZIGZAG]


def _pad_to_8(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    ph, pw = (-h) % 8, (-w) % 8
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    return plane


def _rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    r = rgb[..., 0].astype(np.float64)
    g = rgb[..., 1].astype(np.float64)
    b = rgb[..., 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.clip(
        np.round(np.stack([y, cb, cr], axis=-1)), 0, 255
    ).astype(np.uint8)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y = ycc[..., 0].astype(np.float64)
    cb = ycc[..., 1].astype(np.float64) - 128.0
    cr = ycc[..., 2].astype(np.float64) - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(
        np.round(np.stack([r, g, b], axis=-1)), 0, 255
    ).astype(np.uint8)


def _dqt_segment(tid: int, q: np.ndarray) -> bytes:
    body = bytes([tid]) + bytes(int(v) for v in q.reshape(64)[_ZIGZAG])
    return b"\xff\xdb" + struct.pack(">H", 2 + len(body)) + body


def _dht_segment(tclass: int, tid: int, spec: tuple[bytes, bytes]) -> bytes:
    bits, vals = spec
    body = bytes([(tclass << 4) | tid]) + bits + vals
    return b"\xff\xc4" + struct.pack(">H", 2 + len(body)) + body


def encode_jpeg(pixels: np.ndarray, quality: int = 85) -> bytes:
    """Baseline JFIF encode.  ``pixels``: (h, w) uint8 grayscale or
    (h, w, 3) uint8 RGB (encoded 4:4:4 YCbCr).  Dimensions are padded to
    block multiples internally (edge replication); SOF0 records the true
    size and the decoder crops back."""
    if pixels.dtype != np.uint8 or pixels.ndim not in (2, 3):
        raise ValueError("encode_jpeg expects (h, w)[, 3] uint8")
    gray = pixels.ndim == 2
    if not gray and pixels.shape[2] != 3:
        raise ValueError("color input must have 3 channels")
    h, w = pixels.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("empty image")

    qy = _quant_table(_BASE_LUMA_Q, quality)
    planes: list[tuple[np.ndarray, np.ndarray, int]] = []
    if gray:
        planes.append((_pad_to_8(pixels), qy, 0))
    else:
        ycc = _rgb_to_ycbcr(pixels)
        qc = _quant_table(_BASE_CHROMA_Q, quality)
        planes.append((_pad_to_8(ycc[..., 0]), qy, 0))
        planes.append((_pad_to_8(ycc[..., 1]), qc, 1))
        planes.append((_pad_to_8(ycc[..., 2]), qc, 1))

    qblocks = [_quantized_blocks(p, q) for p, q, _ in planes]

    # interleaved scan: one block per component per MCU (all 1x1)
    writer = _BitWriter()
    preds = [0] * len(planes)
    n_mcu = qblocks[0].shape[0]
    for m in range(n_mcu):
        for c in range(len(planes)):
            preds[c] = _encode_component(
                writer, qblocks[c][m : m + 1], preds[c]
            )
    scan = writer.flush()

    out = bytearray(b"\xff\xd8")  # SOI
    out += (
        b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00"
        + b"\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    )
    out += _dqt_segment(0, qy)
    if not gray:
        out += _dqt_segment(1, _quant_table(_BASE_CHROMA_Q, quality))
    ncomp = 1 if gray else 3
    sof = struct.pack(">BHHB", 8, h, w, ncomp)
    for ci in range(ncomp):
        tq = 0 if ci == 0 else 1
        sof += bytes([ci + 1, 0x11, tq])  # 1x1 sampling
    out += b"\xff\xc0" + struct.pack(">H", 2 + len(sof)) + sof
    out += _dht_segment(0, 0, _DC_SPEC)
    out += _dht_segment(1, 0, _AC_SPEC)
    sos = bytes([ncomp])
    for ci in range(ncomp):
        sos += bytes([ci + 1, 0x00])  # DC table 0, AC table 0
    sos += b"\x00\x3f\x00"
    out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos
    out += scan
    out += b"\xff\xd9"  # EOI
    return bytes(out)


class _HuffDecoder:
    def __init__(self, bits: bytes, vals: bytes) -> None:
        # (length, code) -> symbol
        self.by_len: dict[int, dict[int, int]] = {}
        for sym, (code, length) in _canonical_codes(bits, vals).items():
            self.by_len.setdefault(length, {})[code] = sym

    def read(self, br: _BitReader) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | br.read_bit()
            table = self.by_len.get(length)
            if table is not None:
                sym = table.get(code)
                if sym is not None:
                    return sym
        raise ValueError("invalid Huffman code in JPEG stream")


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Decode baseline JPEG -> (h, w, channels) uint8 (1 channel for
    grayscale, 3 for color).  Supports what a baseline decoder must:
    arbitrary quant/Huffman tables from the stream, 1x1 sampling,
    byte stuffing; progressive/subsampled streams raise."""
    if not payload.startswith(b"\xff\xd8"):
        raise ValueError("not a JPEG payload (missing SOI)")
    pos = 2
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], _HuffDecoder] = {}
    frame = None
    while pos < len(payload):
        if payload[pos] != 0xFF:
            raise ValueError(f"expected marker at offset {pos}")
        marker = payload[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            continue  # parameterless
        seglen = struct.unpack(">H", payload[pos : pos + 2])[0]
        body = payload[pos + 2 : pos + seglen]
        if marker == 0xDB:  # DQT (possibly several tables)
            off = 0
            while off < len(body):
                pq, tid = body[off] >> 4, body[off] & 0x0F
                if pq != 0:
                    raise NotImplementedError("16-bit quant tables")
                flat = np.frombuffer(
                    body[off + 1 : off + 65], dtype=np.uint8
                ).astype(np.int64)
                q = np.empty(64, dtype=np.int64)
                q[_ZIGZAG] = flat
                qtables[tid] = q.reshape(8, 8)
                off += 65
        elif marker == 0xC4:  # DHT
            off = 0
            while off < len(body):
                tclass, tid = body[off] >> 4, body[off] & 0x0F
                bits = body[off + 1 : off + 17]
                n = sum(bits)
                vals = body[off + 17 : off + 17 + n]
                htables[(tclass, tid)] = _HuffDecoder(bits, vals)
                off += 17 + n
        elif marker == 0xC0:  # SOF0 baseline
            prec, h, w, ncomp = struct.unpack(">BHHB", body[:6])
            if prec != 8:
                raise NotImplementedError("only 8-bit precision")
            comps = []
            for ci in range(ncomp):
                cid, hv, tq = body[6 + 3 * ci : 9 + 3 * ci]
                if hv != 0x11:
                    raise NotImplementedError(
                        "only 1x1 sampling (no chroma subsampling)"
                    )
                comps.append((cid, tq))
            frame = (h, w, comps)
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"non-baseline JPEG process (SOF marker 0xFF{marker:02x})"
            )
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise ValueError("SOS before SOF0")
            ns = body[0]
            scan_tables = []
            for si in range(ns):
                cs, tt = body[1 + 2 * si], body[2 + 2 * si]
                scan_tables.append((cs, tt >> 4, tt & 0x0F))
            h, w, comps = frame
            bh, bw = -(-h // 8) * 8, -(-w // 8) * 8
            n_mcu = (bh // 8) * (bw // 8)
            br = _BitReader(payload, pos + seglen)
            preds = [0] * len(comps)
            planes = [
                np.empty((n_mcu, 8, 8), dtype=np.float64) for _ in comps
            ]
            for m in range(n_mcu):
                for c, (cid, tq) in enumerate(comps):
                    _, td, ta = scan_tables[c]
                    dc_t = htables[(0, td)]
                    ac_t = htables[(1, ta)]
                    zz = np.zeros(64, dtype=np.int64)
                    size = dc_t.read(br)
                    diff = _extend(br.read_bits(size), size) if size else 0
                    preds[c] += diff
                    zz[0] = preds[c]
                    k = 1
                    while k < 64:
                        sym = ac_t.read(br)
                        if sym == 0x00:  # EOB
                            break
                        run, size = sym >> 4, sym & 0x0F
                        if size == 0:
                            if run != 15:
                                raise ValueError("bad AC symbol")
                            k += 16  # ZRL
                            continue
                        k += run
                        if k > 63:
                            raise ValueError("AC index overflow")
                        zz[k] = _extend(br.read_bits(size), size)
                        k += 1
                    coefs = np.empty(64, dtype=np.int64)
                    coefs = zz[_UNZIGZAG].reshape(8, 8)
                    planes[c][m] = coefs * qtables[tq]
            out_planes = []
            for c in range(len(comps)):
                px = _idct(planes[c]) + 128.0
                plane = _unblocks(px, bh, bw)[:h, :w]
                out_planes.append(
                    np.clip(np.round(plane), 0, 255).astype(np.uint8)
                )
            return np.stack(out_planes, axis=-1) if len(out_planes) > 1 \
                else out_planes[0][..., None]
        else:
            pass  # skip APPn/COM/unknown
        pos += seglen
    raise ValueError("no scan data found in JPEG payload")


def decode_jpeg_rgb(payload: bytes) -> np.ndarray:
    """(h, w, 3) RGB for color streams; grayscale stays 1-channel."""
    px = decode_jpeg(payload)
    if px.shape[2] == 3:
        return _ycbcr_to_rgb(px)
    return px
