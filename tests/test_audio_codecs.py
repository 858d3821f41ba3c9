"""Non-PCM WAV codec tests (rayflow/ops/audio.py): G.711 A-law /
mu-law, IMA ADPCM, PCM depths, IEEE float, WAVE_FORMAT_EXTENSIBLE.

Round-trip rules per codec family:
* integer PCM (8/24/32) — exact up to the depth's own truncation,
* float 32/64 — exact after the standard [-1,1] narrowing,
* G.711 — nearest-codeword quantization, error bounded by half the
  top-segment step (512 LSB) and exactly idempotent,
* IMA ADPCM — lossy predictive coder, checked by tracking error on a
  band-limited signal plus exact decoder/encoder state agreement.
"""

import struct

import numpy as np
import pytest

from rayflow.ops.audio import (adpcm_decode_blocks, adpcm_encode_blocks,
                               alaw_decode, alaw_encode, ulaw_decode,
                               ulaw_encode, ALAW_DECODE, ULAW_DECODE)
from rayflow.ops.multimodal import decode_wav, synth_wav


def _pcm(n=2001, ch=2, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(-32768, 32767, (n, ch), dtype=np.int16)


# --- G.711 tables against the ITU scalar definition ----------------

def _ulaw_scalar(code: int) -> int:
    code = ~code & 0xFF
    t = ((code & 0x0F) << 3) + 0x84
    t <<= (code & 0x70) >> 4
    return 0x84 - t if code & 0x80 else t - 0x84


def _alaw_scalar(code: int) -> int:
    code ^= 0x55
    t = (code & 0x0F) << 4
    seg = (code & 0x70) >> 4
    if seg == 0:
        t += 8
    elif seg == 1:
        t += 0x108
    else:
        t = (t + 0x108) << (seg - 1)
    return t if code & 0x80 else -t


def test_g711_tables_match_scalar_spec():
    assert [int(v) for v in ULAW_DECODE] == \
        [_ulaw_scalar(c) for c in range(256)]
    assert [int(v) for v in ALAW_DECODE] == \
        [_alaw_scalar(c) for c in range(256)]


# Max error = max(half the top-segment step, clip past the largest
# codeword: mu-law tops at ±32124 → 644, A-law at ±32256 → 512).
@pytest.mark.parametrize("enc,dec,half_step", [
    (ulaw_encode, ulaw_decode, 644), (alaw_encode, alaw_decode, 512)])
def test_g711_nearest_codeword_roundtrip(enc, dec, half_step):
    x = _pcm(4001, 1).ravel()
    once = dec(enc(x))
    assert np.max(np.abs(once.astype(np.int32) - x.astype(np.int32))) \
        <= half_step
    assert np.array_equal(dec(enc(once)), once)   # idempotent


@pytest.mark.parametrize("encoding,exact", [
    ("pcm16", True), ("pcm24", True), ("pcm32", True),
    ("float32", True), ("float64", True)])
def test_wav_lossless_encodings(encoding, exact):
    pcm = _pcm()
    out, rate = decode_wav(synth_wav(8000, 2, pcm, encoding=encoding))
    assert rate == 8000
    assert np.array_equal(out, pcm)


def test_wav_pcm8_truncates_to_top_byte():
    pcm = _pcm()
    out, _ = decode_wav(synth_wav(8000, 2, pcm, encoding="pcm8"))
    assert np.array_equal(out, (pcm.astype(np.int32) >> 8 << 8)
                          .astype(np.int16))


@pytest.mark.parametrize("encoding", ["alaw", "ulaw"])
def test_wav_g711_payloads(encoding):
    pcm = _pcm(513, 2)
    out, rate = decode_wav(synth_wav(8000, 2, pcm, encoding=encoding))
    assert rate == 8000 and out.shape == pcm.shape
    assert np.max(np.abs(out.astype(np.int32) - pcm.astype(np.int32))) \
        <= 644


@pytest.mark.parametrize("channels", [1, 2])
def test_wav_ima_adpcm_tracks_signal(channels):
    t = np.arange(6000, dtype=np.float64)
    sig = (8000.0 * np.sin(2 * np.pi * 440 * t / 16000)).astype(np.int16)
    pcm = np.stack([sig + c * 100 for c in range(channels)], axis=1) \
        .astype(np.int16)
    out, rate = decode_wav(synth_wav(16000, channels, pcm,
                                     encoding="adpcm"))
    assert rate == 16000
    out = out[: len(pcm)]                   # tail block is zero-padded
    err = out.astype(np.float64) - pcm.astype(np.float64)
    assert np.sqrt(np.mean(err ** 2)) < 300     # ~ -29 dB coder noise
    assert np.array_equal(out[0], pcm[0])       # header predictor exact


@pytest.mark.parametrize("channels", [1, 2])
def test_wav_ms_adpcm_tracks_signal(channels):
    t = np.arange(6000, dtype=np.float64)
    sig = (8000.0 * np.sin(2 * np.pi * 440 * t / 16000)).astype(np.int16)
    pcm = np.stack([sig + c * 100 for c in range(channels)], axis=1) \
        .astype(np.int16)
    out, rate = decode_wav(synth_wav(16000, channels, pcm,
                                     encoding="ms_adpcm"))
    assert rate == 16000
    out = out[: len(pcm)]
    err = out.astype(np.float64) - pcm.astype(np.float64)
    assert np.sqrt(np.mean(err ** 2)) < 300
    assert np.array_equal(out[:2], pcm[:2])     # header samples exact


def test_ms_adpcm_block_parallel_matches_scalar_reference():
    """Lock-step numpy MS-ADPCM decoder vs a scalar reference over the
    registration's predictor/adaptation rules."""
    from rayflow.ops.audio import (ms_adpcm_decode_blocks,
                                   ms_adpcm_encode_blocks)

    rng = np.random.default_rng(13)
    pcm = (5000 * np.sin(np.cumsum(rng.normal(0, 0.15, 2500)))) \
        .astype(np.int16)[:, None]
    data = ms_adpcm_encode_blocks(pcm, 256)
    fast = ms_adpcm_decode_blocks(data, 256, 1).ravel()

    coef = [(256, 0), (512, -256), (0, 0), (192, 64), (240, 0),
            (460, -208), (392, -232)]
    adapt = [230, 230, 230, 230, 307, 409, 512, 614,
             768, 614, 512, 409, 307, 230, 230, 230]
    slow = []
    for off in range(0, len(data), 256):
        blk = data[off:off + 256]
        c1, c2 = coef[min(blk[0], 6)]
        delta = max(struct.unpack("<h", blk[1:3])[0], 16)
        s1 = struct.unpack("<h", blk[3:5])[0]
        s2 = struct.unpack("<h", blk[5:7])[0]
        slow += [s2, s1]
        for byte in blk[7:]:
            for code in (byte >> 4, byte & 0x0F):
                signed = code - 16 if code >= 8 else code
                pred = (s1 * c1 + s2 * c2) >> 8
                new = max(-32768, min(32767, pred + signed * delta))
                s2, s1 = s1, new
                delta = max((adapt[code] * delta) >> 8, 16)
                slow.append(new)
    assert np.array_equal(fast, np.array(slow, np.int16))


def test_adpcm_block_parallel_matches_scalar_reference():
    """Lock-step numpy decoder vs a one-stream-at-a-time scalar
    reference over the same spec rules."""
    rng = np.random.default_rng(11)
    pcm = (4000 * np.sin(np.cumsum(rng.normal(0, 0.2, 3000)))) \
        .astype(np.int16)[:, None]
    data = adpcm_encode_blocks(pcm, 256)
    fast = adpcm_decode_blocks(data, 256, 1).ravel()

    steps = [7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28,
             31, 34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107,
             118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
             337, 371, 408, 449, 494, 544, 598, 658, 724, 796, 876,
             963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
             2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871,
             5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487,
             12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623,
             27086, 29794, 32767]
    adj = [-1, -1, -1, -1, 2, 4, 6, 8]
    slow = []
    for off in range(0, len(data), 256):
        blk = data[off:off + 256]
        pred = struct.unpack("<h", blk[:2])[0]
        idx = blk[2]
        slow.append(pred)
        for byte in blk[4:]:
            for nib in (byte & 0x0F, byte >> 4):
                step = steps[idx]
                diff = step >> 3
                if nib & 1:
                    diff += step >> 2
                if nib & 2:
                    diff += step >> 1
                if nib & 4:
                    diff += step
                pred = max(-32768, min(32767,
                                       pred - diff if nib & 8
                                       else pred + diff))
                idx = max(0, min(88, idx + adj[nib & 7] if nib < 8
                                 else idx + adj[nib & 7]))
                slow.append(pred)
    assert np.array_equal(fast, np.array(slow, np.int16))


def test_wav_extensible_resolves_subformat():
    pcm = _pcm(301, 1)
    # fmt chunk as WAVE_FORMAT_EXTENSIBLE wrapping PCM: the 16 base
    # bytes, cbSize=22, validBits=16, channelMask, then the
    # KSDATAFORMAT_SUBTYPE_PCM GUID (00000001-0000-0010-8000-
    # 00AA00389B71) serialized little-endian-first.
    sub_pcm_guid = bytes.fromhex("01000000" "0000" "1000"
                                 "800000aa00389b71")
    fmt = (struct.pack("<HHIIHH", 0xFFFE, 1, 44100, 88200, 2, 16)
           + struct.pack("<HHI", 22, 16, 0x1) + sub_pcm_guid)
    data = np.ascontiguousarray(pcm, "<i2").tobytes()
    payload = (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8
                                     + len(data)) + b"WAVE"
               + b"fmt " + struct.pack("<I", len(fmt)) + fmt
               + b"data" + struct.pack("<I", len(data)) + data)
    out, rate = decode_wav(payload)
    assert rate == 44100
    assert np.array_equal(out, pcm)


def test_wav_unknown_tag_still_fails_loud():
    pcm = _pcm(64, 1)
    payload = bytearray(synth_wav(8000, 1, pcm))
    payload[20:22] = struct.pack("<H", 0x55)    # MPEG Layer 3
    with pytest.raises(NotImplementedError):
        decode_wav(bytes(payload))


def test_audio_features_decode_g711_payload(ray_session):
    """The media pipeline's audio stage now reads G.711 payloads."""
    import pyarrow as pa
    import ray.data as rd

    from rayflow.ops import build_op

    t = np.arange(16000, dtype=np.float64)
    sig = (6000 * np.sin(2 * np.pi * 220 * t / 16000)).astype(np.int16)
    tbl = pa.table({
        "media_id": pa.array([0, 1], pa.int64()),
        "media_type": pa.array(["audio/wav"] * 2),
        "payload": pa.array([
            synth_wav(16000, 1, sig[:, None], encoding="ulaw"),
            synth_wav(16000, 1, sig[:, None], encoding="adpcm")],
            pa.binary()),
    })
    out = build_op({"op": "audio_features", "batch_size": 2})(
        rd.from_arrow(tbl)).to_pandas()
    assert len(out) == 2                    # neither payload dropped
    assert (out["sample_rate"] == 16000).all()
    assert (out["n_channels"] == 1).all()
    # 6000/32768 amplitude sine → RMS ≈ 0.129 for both codecs
    assert (out["rms"] > 0.10).all() and (out["rms"] < 0.16).all()
