"""Multimodal (image/audio/video) column plumbing.

Media payloads are opaque ``binary`` columns with typed metadata
(``media_type``, ``width``/``height``/``duration_ms``…).  Decode /
resize / feature-extract run as plain-task ``map_batches`` stages with
SMALL batch sizes (payload bytes × batch_size must fit the worker heap —
the block-sizing rule for wide binary rows).

Decode is REAL for every image/audio format the engine emits —
uncompressed 24-bit BMP, PNG (stdlib zlib + the five scanline
filters), GIF (LZW), baseline AND progressive JPEG
(``rayflow/ops/jpeg.py``, pure numpy Huffman+DCT from the public
T.81 spec incl. §G successive approximation) and PCM-16 WAV are
decoded to actual pixels/samples and featurized from them.  Only
genuinely library-bound formats (non-MJPG video codecs,
arithmetic-coded JPEG, non-PCM audio) still raise
``NotImplementedError`` at the exact point ffmpeg would plug in;
with ``fake=True`` (default) every payload gets a deterministic
pseudo-decode derived from its bytes, and ``fallback_pseudo=True``
keeps real pipelines flowing past undecodable payloads.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from rayflow.ops import register_op
from rayflow.ops.kernels import per_process

#: media table schema: opaque payload + typed metadata.
MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("media_type", pa.string()),       # image/png, audio/wav, ...
    ("payload", pa.large_binary()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])


def synth_media_table(n: int, seed: int = 42, payload_bytes: int = 4096) -> pa.Table:
    """Deterministic fake media fixture (no external data).

    Payloads carry REAL container headers (PNG IHDR / WAV fmt chunk —
    see :func:`synth_png` / :func:`synth_wav`) followed by seeded random
    body bytes, so header-level ops (``media_probe``) exercise genuine
    parsing while decode stays stubbed."""
    rng = np.random.default_rng(seed)
    types = np.array(["image/png", "audio/wav"])[rng.integers(0, 2, n)]
    widths = rng.integers(16, 256, n, dtype=np.int32)
    heights = rng.integers(16, 256, n, dtype=np.int32)
    payloads = []
    for i in range(n):
        head = (synth_png(int(widths[i]), int(heights[i]))
                if types[i] == "image/png" else synth_wav(16000, 1))
        body = rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes()
        payloads.append(head + body)
    return pa.table({
        "media_id": pa.array(np.arange(n, dtype=np.int64)),
        "media_type": pa.array(types),
        "payload": pa.array(payloads, pa.large_binary()),
        "width": pa.array(widths),
        "height": pa.array(heights),
        "duration_ms": pa.array(rng.integers(0, 10_000, n, dtype=np.int32)),
    })


def decode_bmp(payload: bytes) -> np.ndarray:
    """REAL pure-stdlib/numpy decode of an uncompressed 24-bit BMP →
    (h, w, 3) uint8 RGB array.  Covers the one mainstream image
    container that needs no codec library; compressed formats raise
    ``NotImplementedError`` at the exact point Pillow would plug in."""
    import struct

    if payload[:2] != b"BM" or len(payload) < 54:
        raise ValueError("not a BMP payload")
    (data_off,) = struct.unpack("<I", payload[10:14])
    w, h = struct.unpack("<ii", payload[18:26])
    (bpp,) = struct.unpack("<H", payload[28:30])
    (comp,) = struct.unpack("<I", payload[30:34])
    if bpp != 24 or comp != 0:
        raise NotImplementedError(
            f"BMP bpp={bpp} compression={comp}: only uncompressed 24-bit "
            "decodes without a codec library")
    bottom_up = h > 0
    h = abs(h)
    row_bytes = (w * 3 + 3) // 4 * 4
    buf = np.frombuffer(payload, np.uint8, count=row_bytes * h,
                        offset=data_off)
    px = buf.reshape(h, row_bytes)[:, : w * 3].reshape(h, w, 3)[..., ::-1]
    return px[::-1] if bottom_up else px


def decode_png(payload: bytes) -> np.ndarray:
    """REAL pure-stdlib PNG decode → (h, w, channels) uint8 array:
    zlib-inflate the IDAT stream, then undo the five scanline filters
    (none/sub/up/average/paeth) with numpy per row.  Supports the
    common web cases — 8-bit grayscale (0), RGB (2), palette (3),
    gray+alpha (4), RGBA (6), non-interlaced.  16-bit depth and Adam7
    interlacing raise ``NotImplementedError`` where a codec library
    would take over (upstream Benthos likewise shells image work out
    to external tooling)."""
    import struct
    import zlib as _z

    if payload[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG payload")
    pos, ihdr, plte, idat = 8, None, None, []
    while pos + 8 <= len(payload):
        (size,) = struct.unpack(">I", payload[pos:pos + 4])
        ctype = payload[pos + 4:pos + 8]
        body = payload[pos + 8:pos + 8 + size]
        if ctype == b"IHDR":
            ihdr = body
        elif ctype == b"PLTE":
            plte = body
        elif ctype == b"IDAT":
            idat.append(body)
        elif ctype == b"IEND":
            break
        pos += 12 + size
    if ihdr is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    w, h, depth, color, comp, filt, interlace = struct.unpack(
        ">IIBBBBB", ihdr)
    if depth != 8 or interlace != 0 or comp != 0 or filt != 0:
        raise NotImplementedError(
            f"PNG depth={depth} interlace={interlace}: only 8-bit "
            "non-interlaced decodes without a codec library")
    channels = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}.get(color)
    if channels is None:
        raise ValueError(f"PNG bad color type {color}")
    raw = np.frombuffer(_z.decompress(b"".join(idat)), np.uint8)
    stride = w * channels
    if len(raw) < h * (stride + 1):
        raise ValueError("PNG IDAT truncated")
    rows = raw[: h * (stride + 1)].reshape(h, stride + 1)
    ftypes = rows[:, 0]
    out = np.zeros((h, stride), dtype=np.uint8)
    bpp = channels
    for y in range(h):
        ft = int(ftypes[y])
        cur = rows[y, 1:].astype(np.int64)
        up = out[y - 1].astype(np.int64) if y else np.zeros(stride, np.int64)
        if ft == 0:
            line = cur
        elif ft == 1:   # sub: per-lane cumulative sum mod 256
            line = cur.reshape(-1, bpp).cumsum(axis=0) & 0xFF
            line = line.reshape(-1)
        elif ft == 2:   # up
            line = (cur + up) & 0xFF
        elif ft == 3:   # average — sequential in x (depends on left+up)
            line = np.empty(stride, np.int64)
            for x in range(stride):
                left = line[x - bpp] if x >= bpp else 0
                line[x] = (cur[x] + ((left + up[x]) >> 1)) & 0xFF
        elif ft == 4:   # paeth — sequential in x
            line = np.empty(stride, np.int64)
            for x in range(stride):
                a = line[x - bpp] if x >= bpp else 0
                b = up[x]
                c = up[x - bpp] if x >= bpp else 0
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc_) else \
                    (b if pb <= pc_ else c)
                line[x] = (cur[x] + pred) & 0xFF
        else:
            raise ValueError(f"PNG bad filter type {ft}")
        out[y] = line.astype(np.uint8)
    px = out.reshape(h, w, channels)
    if color == 3:
        if plte is None:
            raise ValueError("PNG palette image missing PLTE")
        pal = np.frombuffer(plte, np.uint8).reshape(-1, 3)
        px = pal[px[..., 0]]
    return px


def _gif_lzw_decode(data: bytes, min_code_size: int) -> np.ndarray:
    """GIF-variant LZW decompression → uint8 palette-index array.
    Sequential by nature (each code extends the dictionary), so this
    runs per payload inside the ``media_decode`` tasks — the
    parallelism axis is payloads, not bytes."""
    clear = 1 << min_code_size
    end_code = clear + 1
    table: list[bytes] = [bytes([i]) for i in range(clear)] + [b"", b""]
    code_size = min_code_size + 1
    out = bytearray()
    prev: bytes | None = None
    acc = nbits = pos = 0
    n = len(data)
    while True:
        while nbits < code_size and pos < n:
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        if nbits < code_size:
            break
        code = acc & ((1 << code_size) - 1)
        acc >>= code_size
        nbits -= code_size
        if code == clear:
            table = [bytes([i]) for i in range(clear)] + [b"", b""]
            code_size = min_code_size + 1
            prev = None
            continue
        if code == end_code:
            break
        if prev is None:
            if code >= len(table):
                raise ValueError("corrupt GIF LZW stream (first code)")
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError("corrupt GIF LZW stream")
        out += entry
        prev = entry
        if len(table) >= (1 << code_size) and code_size < 12:
            code_size += 1
    return np.frombuffer(bytes(out), np.uint8)


def decode_gif(payload: bytes) -> tuple[list[np.ndarray], list[int]]:
    """REAL pure-stdlib GIF decode → ``(frames, delays_ms)``: each frame
    a composited full-logical-screen ``(h, w, 3)`` uint8 array.  Handles
    87a/89a, global+local color tables, interlacing, transparency and
    disposal methods 0-3 — the full static/animated web-GIF core."""
    import struct

    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF payload")
    w, h, flags, bg, _aspect = struct.unpack("<HHBBB", payload[6:13])
    pos = 13
    gct = None
    if flags & 0x80:
        size = 2 << (flags & 7)
        gct = np.frombuffer(payload[pos:pos + 3 * size],
                            np.uint8).reshape(size, 3)
        pos += 3 * size
    frames: list[np.ndarray] = []
    delays: list[int] = []
    canvas = np.zeros((h, w, 3), np.uint8)
    if gct is not None and bg < len(gct):
        canvas[:] = gct[bg]
    transparent: int | None = None
    delay_ms = 0
    disposal = 0
    while pos < len(payload):
        b0 = payload[pos]
        pos += 1
        if b0 == 0x3B:                      # trailer
            break
        if b0 == 0x21:                      # extension
            label = payload[pos]
            pos += 1
            blocks = []
            while True:
                sz = payload[pos]
                pos += 1
                if sz == 0:
                    break
                blocks.append(payload[pos:pos + sz])
                pos += sz
            if label == 0xF9 and blocks:    # graphic control
                gce = blocks[0]
                delay_ms = struct.unpack("<H", gce[1:3])[0] * 10
                disposal = (gce[0] >> 2) & 7
                transparent = gce[3] if gce[0] & 1 else None
        elif b0 == 0x2C:                    # image descriptor
            il, it, iw, ih, iflags = struct.unpack(
                "<HHHHB", payload[pos:pos + 9])
            pos += 9
            pal = gct
            if iflags & 0x80:
                size = 2 << (iflags & 7)
                pal = np.frombuffer(payload[pos:pos + 3 * size],
                                    np.uint8).reshape(size, 3)
                pos += 3 * size
            if pal is None:
                raise ValueError("GIF image without a color table")
            mcs = payload[pos]
            pos += 1
            data = bytearray()
            while True:
                sz = payload[pos]
                pos += 1
                if sz == 0:
                    break
                data += payload[pos:pos + sz]
                pos += sz
            idx = _gif_lzw_decode(bytes(data), mcs)
            if len(idx) < iw * ih:
                raise ValueError("GIF frame data truncated")
            idx = idx[:iw * ih].reshape(ih, iw)
            if iflags & 0x40:               # interlaced: pass order 8/8 .. 1/2
                rows = np.concatenate([np.arange(0, ih, 8),
                                       np.arange(4, ih, 8),
                                       np.arange(2, ih, 4),
                                       np.arange(1, ih, 2)])
                de = np.empty_like(idx)
                de[rows] = idx
                idx = de
            region = canvas[it:it + ih, il:il + iw]
            prev_region = region.copy()
            rgb = pal[np.minimum(idx, len(pal) - 1)]
            if transparent is not None:
                region[:] = np.where((idx != transparent)[..., None],
                                     rgb, region)
            else:
                region[:] = rgb
            frames.append(canvas.copy())
            delays.append(delay_ms)
            if disposal == 2:               # restore background
                canvas[it:it + ih, il:il + iw] = (
                    gct[bg] if gct is not None and bg < len(gct) else 0)
            elif disposal == 3:             # restore previous
                canvas[it:it + ih, il:il + iw] = prev_region
            transparent, delay_ms, disposal = None, 0, 0
        else:
            raise ValueError(f"unknown GIF block 0x{b0:02x}")
    if not frames:
        raise ValueError("GIF contains no image data")
    return frames, delays


def synth_gif(frames: list[np.ndarray], delays_ms: list[int] | None = None,
              transparent_from: np.ndarray | None = None) -> bytes:
    """Deterministic pure-stdlib GIF encoder (test/bench fixture — the
    inverse of :func:`decode_gif`).  Builds one global palette from all
    frames (≤256 distinct colors) and writes each frame as a full-screen
    image with fixed-width LZW codes, emitting CLEAR before the decoder
    dictionary would widen them — the classic "uncompressed GIF"
    technique, bit-exact under any conformant decoder."""
    import struct

    if not frames:
        raise ValueError("need at least one frame")
    h, w = frames[0].shape[:2]
    colors = np.unique(
        np.concatenate([f.reshape(-1, 3) for f in frames]), axis=0)
    if len(colors) > 256:
        raise ValueError("synth_gif supports at most 256 distinct colors")
    bits = max(2, int(np.ceil(np.log2(max(len(colors), 2)))))
    pal_n = 1 << bits
    pal = np.zeros((pal_n, 3), np.uint8)
    pal[:len(colors)] = colors
    # color → index via lexicographic searchsorted over the sorted uniques
    keys = (colors[:, 0].astype(np.int64) << 16) | \
           (colors[:, 1].astype(np.int64) << 8) | colors[:, 2]

    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (bits - 1), 0, 0)
    out += pal.tobytes()
    mcs = bits
    clear, end_code = 1 << mcs, (1 << mcs) + 1
    code_size = mcs + 1
    # keep the decoder's table below 2^(mcs+1): CLEAR every (clear-2) codes
    flush_every = max(clear - 2, 1)
    for fi, f in enumerate(frames):
        if f.shape[:2] != (h, w):
            raise ValueError("all frames must share the logical screen size")
        delay = (delays_ms[fi] if delays_ms else 0) // 10
        out += bytes([0x21, 0xF9, 4, 0, delay & 0xFF, (delay >> 8) & 0xFF,
                      0, 0])
        out += struct.pack("<BHHHHB", 0x2C, 0, 0, w, h, 0)
        fk = (f[..., 0].astype(np.int64) << 16) | \
             (f[..., 1].astype(np.int64) << 8) | f[..., 2].astype(np.int64)
        idx = np.searchsorted(keys, fk.reshape(-1))
        out.append(mcs)
        acc = nbits = 0
        packed = bytearray()

        def emit(code):
            nonlocal acc, nbits
            acc |= int(code) << nbits
            nbits += code_size
            while nbits >= 8:
                packed.append(acc & 0xFF)
                acc >>= 8
                nbits -= 8

        emit(clear)
        for i, v in enumerate(idx):
            if i and i % flush_every == 0:
                emit(clear)
            emit(v)
        emit(end_code)
        if nbits:
            packed.append(acc & 0xFF)
        for off in range(0, len(packed), 255):
            chunk = packed[off:off + 255]
            out.append(len(chunk))
            out += chunk
        out.append(0)
    out.append(0x3B)
    return bytes(out)


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """REAL WAV decode → ((n_samples, channels) int16, rate).

    Handles every registered encoding the RIFF/WAVE spec family
    defines without a licensed codec: integer PCM at 8/16/24/32 bits
    (format tag 1), IEEE float 32/64 (tag 3), ITU-T G.711 A-law /
    mu-law (tags 6/7), IMA/DVI4 ADPCM (tag 0x11) and
    WAVE_FORMAT_EXTENSIBLE (0xFFFE, resolved through its SubFormat
    GUID).  The compressed decoders live in :mod:`rayflow.ops.audio`
    (vectorized LUT / block-parallel numpy).  Anything else — MP3,
    AAC and friends — raises ``NotImplementedError`` where a real
    audio library would take over."""
    import struct

    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a WAV payload")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        (size,) = struct.unpack("<I", payload[pos + 4:pos + 8])
        body = payload[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError("WAV missing fmt/data chunk")
    audio_fmt, ch, rate = struct.unpack("<HHI", fmt[:8])
    (block_align,) = struct.unpack("<H", fmt[12:14])
    (bits,) = struct.unpack("<H", fmt[14:16])
    ch = max(ch, 1)
    if audio_fmt == 0xFFFE and len(fmt) >= 26:
        # EXTENSIBLE: the effective tag is the SubFormat GUID's first
        # two bytes (KSDATAFORMAT_SUBTYPE_{PCM,IEEE_FLOAT,...}).
        (audio_fmt,) = struct.unpack("<H", fmt[24:26])

    from rayflow.ops import audio as _audio

    if audio_fmt == 1:
        a = _audio.pcm_to_int16(data, bits)
    elif audio_fmt == 3:
        a = _audio.float_to_int16(data, bits)
    elif audio_fmt == 6:
        a = _audio.alaw_decode(data)
    elif audio_fmt == 7:
        a = _audio.ulaw_decode(data)
    elif audio_fmt == 2:
        return _audio.ms_adpcm_decode_blocks(data, block_align, ch), rate
    elif audio_fmt == 0x11:
        return _audio.adpcm_decode_blocks(data, block_align, ch), rate
    else:
        raise NotImplementedError(
            f"WAV fmt={audio_fmt} bits={bits}: PCM/float/G.711/MS+IMA-"
            "ADPCM decode natively; this tag needs an audio library")
    n = len(a) // ch
    return a[: n * ch].reshape(n, ch), rate


def decode_image_pixels(payload: bytes) -> np.ndarray:
    """Magic-byte dispatch to the native decoders → (h, w, 3) uint8
    RGB pixels (video containers yield the first frame).  Raises
    ``NotImplementedError`` for formats without a native codec and
    ``ValueError`` for corrupt payloads — callers choose fallback vs
    dead-letter."""
    if payload[:2] == b"BM":
        px = decode_bmp(payload)
    elif payload[:8] == b"\x89PNG\r\n\x1a\n":
        px = decode_png(payload)               # channel fixup in the tail
    elif payload[:6] in (b"GIF87a", b"GIF89a"):
        frames, _delays = decode_gif(payload)
        px = frames[0]
    elif payload[:2] == b"\xff\xd8":
        from rayflow.ops.jpeg import decode_jpeg

        px = decode_jpeg(payload)
    elif payload[:4] == b"RIFF" and payload[8:12] == b"AVI ":
        from rayflow.ops.avi import decode_avi

        frames, _fps = decode_avi(payload)
        px = frames[0]
    else:
        raise NotImplementedError(
            "payload needs a codec library not present in this "
            "environment (BMP/PNG/GIF/JPEG/AVI decode natively); "
            "pass fallback_pseudo=True to keep the pipeline flowing")
    if px.ndim == 2:
        px = px[:, :, None]
    if px.shape[2] < 3:
        px = np.repeat(px[..., :1], 3, axis=2)
    return px[..., :3]


def resize_bilinear(px: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize, pure numpy (the standard
    align_corners=False convention used by PIL/TF/torch)."""
    h, w, _c = px.shape
    y = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    x = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(y).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(x).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(y - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(x - x0, 0.0, 1.0)[None, :, None]
    p = px.astype(np.float64)
    r0, r1 = p[y0], p[y1]              # gather each source-row set once
    top = r0[:, x0] * (1.0 - wx) + r0[:, x1] * wx
    bot = r1[:, x0] * (1.0 - wx) + r1[:, x1] * wx
    out = top * (1.0 - wy) + bot * wy
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


class MediaResizer:
    """Resize stage: decode → bilinear resize → re-encode as PNG.  Same
    heap math as :class:`MediaDecoder`: batch bytes ≈ payload ×
    batch_size must fit the worker.

    All non-payload columns (ids, metadata, whatever the dataset
    carries) pass through unchanged for surviving rows; the payload,
    ``media_type``, ``width`` and ``height`` columns are replaced (or
    appended) with the resized values — no column-name assumptions
    beyond ``payload_col``."""

    def __init__(self, width: int, height: int,
                 payload_col: str = "payload",
                 on_non_image: str = "drop"):
        if on_non_image not in ("drop", "error"):
            raise ValueError("on_non_image must be 'drop' or 'error'")
        self.w, self.h = int(width), int(height)
        self.payload_col = payload_col
        self.on_non_image = on_non_image

    def __call__(self, t: pa.Table) -> pa.Table:
        import zlib as _z

        keep, outs = [], []
        payloads = t.column(self.payload_col).to_pylist()
        for i, payload in enumerate(payloads):
            try:
                px = decode_image_pixels(payload)
            except (NotImplementedError, ValueError, _z.error):
                if self.on_non_image == "drop":
                    continue
                raise
            outs.append(synth_png_pixels(resize_bilinear(px, self.h, self.w)))
            keep.append(i)
        out = t.take(pa.array(keep, pa.int64()))
        n = len(keep)

        def _set(tbl: pa.Table, name: str, arr) -> pa.Table:
            if name in tbl.column_names:
                return tbl.set_column(tbl.column_names.index(name), name, arr)
            return tbl.append_column(name, arr)

        out = _set(out, self.payload_col, pa.array(outs, pa.binary()))
        out = _set(out, "media_type",
                   pa.array(["image/png"] * n, pa.string()))
        out = _set(out, "width", pa.array([self.w] * n, pa.int32()))
        return _set(out, "height", pa.array([self.h] * n, pa.int32()))


@register_op("media_resize")
def build_media_resize(*, width: int, height: int,
                       payload_col: str = "payload",
                       on_non_image: str = "drop",
                       batch_size: int = 32):
    """Decode → bilinear resize → PNG re-encode as a plain-task
    ``map_batches`` stage; non-image payloads drop (default) or raise."""

    def apply(ds):
        return ds.map_batches(
            per_process(MediaResizer, width, height, payload_col,
                        on_non_image),
            batch_size=batch_size, batch_format="pyarrow",
            zero_copy_batch=True,
        )

    return apply


class MediaDecoder:
    """Decode stage.  Heavy init (codec contexts, model weights) belongs
    in ``__init__``: :func:`per_process` builds one instance per worker
    process, so it runs once per process — never per batch.

    ``fake=True`` (default): deterministic pseudo-features for every
    payload (pipeline plumbing without any codec).  ``fake=False``:
    REAL decode — BMP/PNG/GIF/JPEG (baseline + progressive)/PCM-WAV
    are decoded with numpy/stdlib and featurized from actual
    pixels/samples; formats that need an absent codec (non-MJPG
    video, arithmetic JPEG, non-PCM audio) raise
    ``NotImplementedError`` per payload, or fall back to the pseudo
    path when ``fallback_pseudo=True``."""

    def __init__(self, feature_dim: int = 32, fake: bool = True,
                 fallback_pseudo: bool = False):
        if feature_dim < 6:
            raise ValueError("feature_dim must be >= 6")
        self.dim = feature_dim
        self.fake = fake
        self.fallback = fallback_pseudo

    def _fake_decode(self, payload: bytes) -> np.ndarray:
        # deterministic pseudo-features: sha256-seeded uniform vector
        digest = hashlib.sha256(payload).digest()
        seed = int.from_bytes(digest[:8], "little")
        return np.random.default_rng(seed).random(self.dim, dtype=np.float64)

    def _image_features(self, px: np.ndarray) -> np.ndarray:
        gray = px.astype(np.float64).mean(axis=2)
        hist, _ = np.histogram(gray, bins=self.dim - 4, range=(0.0, 255.0))
        hist = hist / max(gray.size, 1)
        head = [float(px.shape[1]), float(px.shape[0]),
                float(gray.mean()), float(gray.std())]
        return np.concatenate([head, hist])

    def _audio_features(self, samples: np.ndarray, rate: int) -> np.ndarray:
        mono = samples.astype(np.float64).mean(axis=1)
        if len(mono) == 0:
            return np.zeros(self.dim, dtype=np.float64)
        rms = float(np.sqrt(np.mean(mono ** 2)))
        zcr = float(np.mean(np.signbit(mono[:-1]) != np.signbit(mono[1:]))) \
            if len(mono) > 1 else 0.0
        hist, _ = np.histogram(mono, bins=self.dim - 4,
                               range=(-32768.0, 32768.0))
        hist = hist / len(mono)
        return np.concatenate([[float(rate), float(samples.shape[1]),
                                rms, zcr], hist])

    def _real_decode(self, payload: bytes) -> np.ndarray:
        import zlib as _z

        try:
            if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
                samples, rate = decode_wav(payload)
                return self._audio_features(samples, rate)
            return self._image_features(decode_image_pixels(payload))
        except (NotImplementedError, ValueError, _z.error):
            # absent codec OR corrupt payload: the fallback keeps the
            # pipeline flowing either way (dead-lettering is the
            # caller's job via reject_errored when it matters)
            if self.fallback:
                return self._fake_decode(payload)
            raise

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t.column("payload").to_pylist()
        decode = self._fake_decode if self.fake else self._real_decode
        feats = [decode(p) for p in payloads]
        return pa.table({
            "media_id": t.column("media_id"),
            "media_type": t.column("media_type"),
            "feature": pa.array([f.tolist() for f in feats],
                                type=pa.list_(pa.float64())),
            "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
        })


@register_op("media_decode")
def build_media_decode(*, feature_dim: int = 32, fake: bool = True,
                       fallback_pseudo: bool = False,
                       batch_size: int = 64):
    """Binary payload → feature vector.  Small ``batch_size`` on purpose:
    batch bytes ≈ payload_size × batch_size must stay well under the
    worker heap."""

    def apply(ds):
        return ds.map_batches(
            per_process(MediaDecoder, feature_dim, fake, fallback_pseudo),
            batch_size=batch_size, batch_format="pyarrow",
            zero_copy_batch=True,
        )

    return apply


def probe_media_header(payload: bytes) -> tuple[str, int, int] | None:
    """REAL (non-stub) media introspection: parse container headers with
    stdlib byte arithmetic only — PNG, GIF, BMP, baseline/progressive
    JPEG, and WAV (returns sample-rate as "width", channels as
    "height").  Returns (format, width, height) or None if unknown.
    This is the honest subset of "decode" that needs no codec library:
    it reads the same bytes a real decoder would, so the schema and
    batching around it transfer unchanged when Pillow/ffmpeg plug in."""
    import struct

    if len(payload) < 10:
        return None
    if payload[:8] == b"\x89PNG\r\n\x1a\n" and len(payload) >= 24:
        w, h = struct.unpack(">II", payload[16:24])
        return ("png", w, h)
    if payload[:6] in (b"GIF87a", b"GIF89a") and len(payload) >= 10:
        w, h = struct.unpack("<HH", payload[6:10])
        return ("gif", w, h)
    if payload[:2] == b"BM" and len(payload) >= 26:
        w, h = struct.unpack("<ii", payload[18:26])
        return ("bmp", w, abs(h))
    if len(payload) >= 12 and payload[:4] == b"RIFF" \
            and payload[8:12] == b"AVI ":
        from rayflow.ops.avi import probe_avi

        got = probe_avi(payload)
        return ("avi", got[0], got[1]) if got else ("avi", 0, 0)
    if len(payload) >= 12 and payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        # find the fmt chunk: channels @+2, sample rate @+4
        pos = 12
        while pos + 8 <= len(payload):
            cid = payload[pos:pos + 4]
            (size,) = struct.unpack("<I", payload[pos + 4:pos + 8])
            if cid == b"fmt " and pos + 16 <= len(payload):
                (ch,) = struct.unpack("<H", payload[pos + 10:pos + 12])
                (rate,) = struct.unpack("<I", payload[pos + 12:pos + 16])
                return ("wav", rate, ch)
            pos += 8 + size + (size & 1)
        return ("wav", 0, 0)
    if payload[:2] == b"\xff\xd8":  # JPEG: walk segments to a SOFn marker
        pos = 2
        while pos + 9 <= len(payload):
            if payload[pos] != 0xFF:
                pos += 1
                continue
            marker = payload[pos + 1]
            if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
                pos += 2
                continue
            (size,) = struct.unpack(">H", payload[pos + 2:pos + 4])
            if 0xC0 <= marker <= 0xCF and marker not in (0xC4, 0xC8, 0xCC):
                h, w = struct.unpack(">HH", payload[pos + 5:pos + 9])
                return ("jpeg", w, h)
            pos += 2 + size
        return ("jpeg", 0, 0)
    return None


@register_op("media_probe")
def build_media_probe(*, payload_col: str = "payload",
                      batch_size: int = 256):
    """Parse real container headers out of the binary payload column →
    ``probe_format``/``probe_width``/``probe_height`` columns (null for
    unrecognized payloads).  Pure stdlib; per-row by necessity (variable
    binary headers), but each probe touches only the first bytes of the
    buffer — no full-payload scan, no codec."""

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            fmts, ws, hs = [], [], []
            for p in t.column(payload_col).to_pylist():
                got = probe_media_header(p) if p is not None else None
                if got is None:
                    fmts.append(None)
                    ws.append(None)
                    hs.append(None)
                else:
                    fmts.append(got[0])
                    ws.append(got[1])
                    hs.append(got[2])
            return (t.append_column("probe_format", pa.array(fmts, pa.string()))
                     .append_column("probe_width", pa.array(ws, pa.int32()))
                     .append_column("probe_height", pa.array(hs, pa.int32())))

        return ds.map_batches(fn, batch_size=batch_size,
                              batch_format="pyarrow", zero_copy_batch=True)

    return apply


def synth_png(width: int, height: int) -> bytes:
    """Minimal REAL PNG byte stream (header + IHDR; no pixel data) —
    enough for any header parser, ours or Pillow's, to read dimensions."""
    import struct
    import zlib as _z

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    chunk = b"IHDR" + ihdr
    return (b"\x89PNG\r\n\x1a\n"
            + struct.pack(">I", len(ihdr)) + chunk
            + struct.pack(">I", _z.crc32(chunk) & 0xFFFFFFFF))


def synth_png_pixels(pixels: np.ndarray, color: int | None = None,
                     filter_type: int = 0) -> bytes:
    """REAL full PNG (header + IDAT + IEND) from an (h, w, c) uint8
    array — round-trips through :func:`decode_png` bit-exactly.
    ``filter_type`` applies the given scanline filter to every row
    (0=none 1=sub 2=up 3=average 4=paeth), exercising each defilter
    path in tests."""
    import struct
    import zlib as _z

    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    h, w, c = pixels.shape
    if color is None:
        color = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    px = pixels.astype(np.int64)
    flat = px.reshape(h, w * c)
    bpp = c
    rows = []
    prev = np.zeros(w * c, np.int64)
    for y in range(h):
        cur = flat[y]
        if filter_type == 0:
            enc = cur
        elif filter_type == 1:
            left = np.concatenate([np.zeros(bpp, np.int64), cur[:-bpp]])
            enc = (cur - left) & 0xFF
        elif filter_type == 2:
            enc = (cur - prev) & 0xFF
        elif filter_type == 3:
            left = np.concatenate([np.zeros(bpp, np.int64), cur[:-bpp]])
            enc = (cur - ((left + prev) >> 1)) & 0xFF
        elif filter_type == 4:
            left = np.concatenate([np.zeros(bpp, np.int64), cur[:-bpp]])
            upleft = np.concatenate([np.zeros(bpp, np.int64), prev[:-bpp]])
            p = left + prev - upleft
            pa_, pb, pc_ = np.abs(p - left), np.abs(p - prev), \
                np.abs(p - upleft)
            pred = np.where((pa_ <= pb) & (pa_ <= pc_), left,
                            np.where(pb <= pc_, prev, upleft))
            enc = (cur - pred) & 0xFF
        else:
            raise ValueError(f"bad filter_type {filter_type}")
        rows.append(bytes([filter_type]) + enc.astype(np.uint8).tobytes())
        prev = cur
    raw = b"".join(rows)

    def chunk(ctype: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + ctype + body
                + struct.pack(">I", _z.crc32(ctype + body) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", _z.compress(raw)) + chunk(b"IEND", b""))


def synth_wav(rate: int = 16000, channels: int = 1,
              samples: np.ndarray | None = None,
              encoding: str = "pcm16") -> bytes:
    """REAL WAV byte stream; pass ``samples`` ((n, ch) int16) for a
    fully decodable payload, omit for a header-only fixture.

    ``encoding`` selects the data-chunk codec (every one round-trips
    through :func:`decode_wav`): ``pcm8 pcm16 pcm24 pcm32 float32
    float64 alaw ulaw adpcm ms_adpcm`` — the non-PCM encoders live in
    :mod:`rayflow.ops.audio`."""
    import struct

    from rayflow.ops import audio as _audio

    s = None if samples is None else \
        np.ascontiguousarray(samples, dtype="<i2")
    if s is not None and s.ndim == 1:
        s = s[:, None]
    tag, bits, block = 1, 16, channels * 2
    if encoding == "pcm16":
        data = b"" if s is None else s.tobytes()
    elif encoding == "pcm8":
        bits, block = 8, channels
        data = b"" if s is None else \
            (((s.astype(np.int32) >> 8) + 128).astype(np.uint8)).tobytes()
    elif encoding == "pcm24":
        bits, block = 24, channels * 3
        if s is None:
            data = b""
        else:
            v = (s.astype(np.int32) << 8).ravel()
            b3 = np.empty((len(v), 3), np.uint8)
            b3[:, 0], b3[:, 1], b3[:, 2] = v & 0xFF, (v >> 8) & 0xFF, \
                (v >> 16) & 0xFF
            data = b3.tobytes()
    elif encoding == "pcm32":
        bits, block = 32, channels * 4
        data = b"" if s is None else \
            (s.astype("<i4") << 16).tobytes()
    elif encoding in ("float32", "float64"):
        tag, bits = 3, (32 if encoding == "float32" else 64)
        block = channels * bits // 8
        dt = "<f4" if bits == 32 else "<f8"
        data = b"" if s is None else \
            (s.astype(np.float64) / 32767.0).astype(dt).tobytes()
    elif encoding in ("alaw", "ulaw"):
        tag, bits, block = (6 if encoding == "alaw" else 7), 8, channels
        enc = _audio.alaw_encode if encoding == "alaw" else _audio.ulaw_encode
        data = b"" if s is None else enc(s).tobytes()
    elif encoding == "adpcm":
        tag, bits = 0x11, 4
        block = 256 * channels          # 4-byte header + 252 data bytes/ch
        data = b"" if s is None else \
            _audio.adpcm_encode_blocks(s, block)
    elif encoding == "ms_adpcm":
        tag, bits = 2, 4
        block = 256 * channels          # 7-byte header/ch + codes
        data = b"" if s is None else \
            _audio.ms_adpcm_encode_blocks(s, block)
    else:
        raise ValueError(f"synth_wav: unknown encoding {encoding!r}")
    fmt = struct.pack("<HHIIHH", tag, channels, rate,
                      rate * max(block, 1), block, bits)
    return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)


def synth_bmp(pixels: np.ndarray) -> bytes:
    """REAL uncompressed 24-bit BMP from an (h, w, 3) uint8 RGB array —
    round-trips through :func:`decode_bmp` bit-exactly."""
    import struct

    h, w, _ = pixels.shape
    row_bytes = (w * 3 + 3) // 4 * 4
    rows = np.zeros((h, row_bytes), dtype=np.uint8)
    rows[:, : w * 3] = pixels[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up BGR
    data = rows.tobytes()
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(data),
                       2835, 2835, 0, 0)
    head = struct.pack("<2sIHHI", b"BM", 14 + 40 + len(data), 0, 0, 14 + 40)
    return head + info + data


def synth_real_media_table(n: int, seed: int = 42) -> pa.Table:
    """Fully DECODABLE media fixture: cycling 24-bit BMPs (seeded random
    pixels), PCM-16 WAVs (seeded noise), animated 16-color GIFs,
    baseline JPEGs and MJPEG AVI clips — exercises the real decode
    paths end-to-end with no external data or codec."""
    from rayflow.ops.avi import synth_avi
    from rayflow.ops.jpeg import synth_jpeg

    rng = np.random.default_rng(seed)
    types, payloads, widths, heights, durs = [], [], [], [], []
    for i in range(n):
        if i % 5 == 4:
            w, h = int(rng.integers(8, 24)), int(rng.integers(8, 24))
            nf = int(rng.integers(2, 5))
            fps = float(rng.integers(5, 20))
            clip = [rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
                    for _ in range(nf)]
            payloads.append(synth_avi(clip, fps=fps))
            types.append("video/avi")
            widths.append(w)
            heights.append(h)
            durs.append(int(nf * 1000.0 / fps))
        elif i % 4 == 0:
            w, h = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            payloads.append(synth_bmp(px))
            types.append("image/bmp")
            widths.append(w)
            heights.append(h)
            durs.append(0)
        elif i % 4 == 3:
            w, h = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            payloads.append(synth_jpeg(
                px, quality=90, subsample=bool(i % 8 == 7)))
            types.append("image/jpeg")
            widths.append(w)
            heights.append(h)
            durs.append(0)
        elif i % 4 == 2:
            w, h = int(rng.integers(8, 24)), int(rng.integers(8, 24))
            nf = int(rng.integers(2, 5))
            frames = [(rng.integers(0, 16, (h, w, 1), dtype=np.uint8)
                       .repeat(3, axis=2) * 17) for _ in range(nf)]
            delays = [int(rng.integers(1, 20)) * 10 for _ in range(nf)]
            payloads.append(synth_gif(frames, delays_ms=delays))
            types.append("image/gif")
            widths.append(w)
            heights.append(h)
            durs.append(sum(delays))
        else:
            ns = int(rng.integers(400, 3200))
            pcm = rng.integers(-20000, 20000, (ns, 1), dtype=np.int16)
            payloads.append(synth_wav(16000, 1, pcm))
            types.append("audio/wav")
            widths.append(0)
            heights.append(0)
            durs.append(int(ns / 16))
    return pa.table({
        "media_id": pa.array(np.arange(n, dtype=np.int64)),
        "media_type": pa.array(types),
        "payload": pa.array(payloads, pa.large_binary()),
        "width": pa.array(widths, pa.int32()),
        "height": pa.array(heights, pa.int32()),
        "duration_ms": pa.array(durs, pa.int32()),
    })


@register_op("gif_frames")
def build_gif_frames(*, payload_col: str = "payload", batch_size: int = 32,
                     fallback_skip: bool = False):
    """REAL animated-frame extraction: explode each GIF payload into one
    row per decoded frame (frame_ms = cumulative delay) with per-frame
    pixel stats — the working form of the ``media_frame_sample`` stub
    for the one animated container the stdlib can decode.  Plain tasks
    (decode is per-payload sequential LZW); non-GIF payloads raise, or
    are skipped with ``fallback_skip=True``."""

    class GifFrames:
        def __call__(self, t: pa.Table) -> pa.Table:
            ids, fidx, fms, hh, ww, mean = [], [], [], [], [], []
            for i in range(t.num_rows):
                payload = t.column(payload_col)[i].as_py()
                mid = t.column("media_id")[i].as_py()
                try:
                    frames, delays = decode_gif(payload)
                except ValueError:
                    if fallback_skip:
                        continue
                    raise
                ts = 0
                for j, (f, d) in enumerate(zip(frames, delays)):
                    ids.append(mid)
                    fidx.append(j)
                    fms.append(ts)
                    hh.append(f.shape[0])
                    ww.append(f.shape[1])
                    mean.append(float(f.mean()))
                    ts += d
            return pa.table({
                "media_id": pa.array(ids, pa.int64()),
                "frame_idx": pa.array(fidx, pa.int32()),
                "frame_ms": pa.array(fms, pa.int32()),
                "height": pa.array(hh, pa.int32()),
                "width": pa.array(ww, pa.int32()),
                "px_mean": pa.array(mean, pa.float64()),
            })

    def apply(ds):
        return ds.map_batches(per_process(GifFrames), batch_size=batch_size,
                              batch_format="pyarrow", zero_copy_batch=True)

    return apply


@register_op("media_frame_sample")
def build_media_frame_sample(*, every_ms: int = 1000,
                             batch_size: int = 16):
    """Video → frame rows: one output row per ``every_ms`` of playback.

    REAL frame extraction for the containers that decode natively —
    MJPEG AVI (``rayflow/ops/avi.py``) and animated GIF — emitting the
    active frame's index and pixel stats at each sampled timestamp.
    Other media types still get timestamp-only rows (null
    frame_idx/stats) from the ``duration_ms`` column, so mixed tables
    keep one schema.  Plain tasks: decode is per-payload sequential."""

    class FrameSampler:
        def __call__(self, t: pa.Table) -> pa.Table:
            from rayflow.ops.avi import decode_avi

            ids, types, stamps = [], [], []
            fidx, hh, ww, mean = [], [], [], []
            for i in range(t.num_rows):
                mid = t.column("media_id")[i].as_py()
                mt = t.column("media_type")[i].as_py()
                payload = t.column("payload")[i].as_py() \
                    if "payload" in t.column_names else None
                frames = bounds = None
                if payload is not None and payload[:4] == b"RIFF" \
                        and payload[8:12] == b"AVI ":
                    fs, fps = decode_avi(payload)
                    frames = fs
                    bounds = [j * 1000.0 / fps for j in range(len(fs))]
                    dur = int(len(fs) * 1000.0 / fps)
                elif payload is not None and payload[:6] in (b"GIF87a",
                                                             b"GIF89a"):
                    fs, delays = decode_gif(payload)
                    frames = fs
                    bounds, acc = [], 0
                    for d in delays:
                        bounds.append(float(acc))
                        acc += d
                    dur = acc
                else:
                    dur = t.column("duration_ms")[i].as_py() or 0 \
                        if "duration_ms" in t.column_names else 0
                for ts in range(0, max(dur, 1), every_ms):
                    ids.append(mid)
                    types.append(mt)
                    stamps.append(ts)
                    if frames is None:
                        fidx.append(None)
                        hh.append(None)
                        ww.append(None)
                        mean.append(None)
                    else:
                        j = int(np.searchsorted(bounds, ts, "right")) - 1
                        f = frames[max(j, 0)]
                        fidx.append(max(j, 0))
                        hh.append(f.shape[0])
                        ww.append(f.shape[1])
                        mean.append(float(f.mean()))
            return pa.table({
                "media_id": pa.array(ids, pa.int64()),
                "media_type": pa.array(types, pa.string()),
                "frame_ms": pa.array(stamps, pa.int32()),
                "frame_idx": pa.array(fidx, pa.int32()),
                "height": pa.array(hh, pa.int32()),
                "width": pa.array(ww, pa.int32()),
                "px_mean": pa.array(mean, pa.float64()),
            })

    def apply(ds):
        return ds.map_batches(per_process(FrameSampler),
                              batch_size=batch_size,
                              batch_format="pyarrow", zero_copy_batch=True)

    return apply


class AudioFeaturizer:
    """Audio feature-extraction stage: PCM-16 WAV payloads →
    (duration_s, sample_rate, n_channels, rms, peak).  One decode per
    row (variable binary), numpy reductions per clip; non-audio /
    unsupported-codec payloads drop (default) or error, mirroring
    MediaResizer's contract."""

    def __init__(self, *, payload_col: str = "payload",
                 id_col: str = "media_id", on_non_audio: str = "drop"):
        if on_non_audio not in ("drop", "error"):
            raise ValueError("on_non_audio must be 'drop' or 'error'")
        self.payload_col = payload_col
        self.id_col = id_col
        self.on_non_audio = on_non_audio

    def __call__(self, t: pa.Table) -> pa.Table:
        keep, dur, rate_o, ch_o, rms_o, peak_o = [], [], [], [], [], []
        for i, p in enumerate(t.column(self.payload_col).to_pylist()):
            try:
                if p is None:
                    raise ValueError("null payload")
                pcm, rate = decode_wav(p)
            except (ValueError, NotImplementedError, IndexError,
                    __import__("struct").error):
                if self.on_non_audio == "error":
                    raise
                continue
            keep.append(i)
            x = pcm.astype(np.float64) / 32768.0
            dur.append(pcm.shape[0] / rate if rate else 0.0)
            rate_o.append(rate)
            ch_o.append(pcm.shape[1])
            rms_o.append(float(np.sqrt(np.mean(x * x))) if x.size else 0.0)
            peak_o.append(float(np.abs(x).max()) if x.size else 0.0)
        base = t.take(pa.array(keep, pa.int64()))
        out = base.drop_columns([self.payload_col])
        return (out.append_column("duration_s", pa.array(dur, pa.float64()))
                   .append_column("sample_rate", pa.array(rate_o, pa.int32()))
                   .append_column("n_channels", pa.array(ch_o, pa.int32()))
                   .append_column("rms", pa.array(rms_o, pa.float64()))
                   .append_column("peak", pa.array(peak_o, pa.float64())))


@register_op("audio_features")
def build_audio_features(*, payload_col: str = "payload",
                         id_col: str = "media_id",
                         on_non_audio: str = "drop",
                         batch_size: int = 64):
    """Audio feature-extract stage (the training-pipeline filter that
    drops silent/clipped/too-short clips): plain-task ``map_batches``
    over binary WAV payloads → per-clip duration/rate/channels/RMS/peak
    columns; payload column is dropped from the output (features are
    what flows on).  Small batches — payloads are large binaries."""
    if on_non_audio not in ("drop", "error"):
        raise ValueError("on_non_audio must be 'drop' or 'error'")

    def apply(ds):
        return ds.map_batches(
            per_process(AudioFeaturizer, payload_col=payload_col,
                        id_col=id_col, on_non_audio=on_non_audio),
            batch_size=batch_size, batch_format="pyarrow",
            zero_copy_batch=True,
        )

    return apply
