import math
import struct
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from prosemph import corpus, dsp
from prosemph.errors import (
    AllUnvoicedError,
    EmptyAlignmentError,
    MalformedFileError,
    TooShortError,
    UnsupportedEncodingError,
)

SR = 24000
CFG = dsp.FrameConfig()


def test_read_wav_pcm16_zeros(tmp_path):
    p = tmp_path / "z.wav"
    wavfile.write(p, SR, np.zeros(SR, dtype=np.int16))
    w = dsp.read_wav(p)
    assert w.sample_rate == SR
    assert len(w.samples) == SR
    assert np.all(w.samples == 0)


def test_read_wav_pcm16_scaling(tmp_path):
    p = tmp_path / "m.wav"
    wavfile.write(p, SR, np.full(100, 32767, dtype=np.int16))
    w = dsp.read_wav(p)
    assert w.samples[0] == pytest.approx(32767 / 32768)


def test_read_wav_stereo_cancellation(tmp_path):
    x = (np.random.default_rng(0).normal(size=1000) * 0.1).astype(np.float32)
    p = tmp_path / "s.wav"
    wavfile.write(p, SR, np.stack([x, -x], axis=1))
    w = dsp.read_wav(p)
    assert np.max(np.abs(w.samples)) < 1e-9


def test_read_wav_rejects_int32(tmp_path):
    p = tmp_path / "i32.wav"
    wavfile.write(p, SR, np.zeros(100, dtype=np.int32))
    with pytest.raises(UnsupportedEncodingError):
        dsp.read_wav(p)


def noise_frames(dtype, channels, n=301):
    """n frames of full-scale noise in each of `channels` channels."""
    x = np.random.default_rng(channels).uniform(-1, 1, size=(n, channels))
    return (x * 32767).astype(dtype) if dtype == "<i2" else x.astype(dtype)


def riff(*chunks, magic=b"RIFF"):
    """A WAV file of (chunk id, body) chunks, an odd body followed by its pad byte."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(b)) + b + b"\0" * (len(b) % 2)
                              for cid, b in chunks)
    return magic + struct.pack("<I", len(body)) + body


def fmt_chunk(tag, channels, bits, container, extensible=False):
    """A `fmt ` body; with extensible, tag goes into a WAVE_FORMAT_EXTENSIBLE
    subformat GUID (RFC 2361)."""
    block = channels * container
    head = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, SR, SR * block,
                       block, bits)
    if not extensible:
        return head
    guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return head + struct.pack("<HHI", 22, bits, 0) + guid


def scipy_read(path):
    """read_wav as it was on scipy.io.wavfile, which must read `path` without a
    warning: the rate and the samples."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    else:
        samples = data.astype(np.float64)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return rate, samples


@pytest.mark.parametrize("layout", ["scipy", "extensible", "odd_list_chunk"])
@pytest.mark.parametrize("channels", [1, 2, 5])
@pytest.mark.parametrize("dtype", ["<i2", "<f4"])
def test_read_wav_matches_scipy(tmp_path, dtype, channels, layout):
    x = noise_frames(dtype, channels)
    p = tmp_path / "x.wav"
    if layout == "scipy":
        wavfile.write(p, SR, x[:, 0] if channels == 1 else x)
    else:
        tag, bits, container = (1, 16, 2) if dtype == "<i2" else (3, 32, 4)
        fmt = fmt_chunk(tag, channels, bits, container, extensible=layout == "extensible")
        extra = [(b"LIST", b"INFOa")] if layout == "odd_list_chunk" else []
        p.write_bytes(riff((b"fmt ", fmt), *extra, (b"data", x.tobytes())))
    rate, expected = scipy_read(p)
    w = dsp.read_wav(p)
    assert w.sample_rate == rate == SR
    assert w.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("encoding", ["uint8", "float64", "pcm24", "rifx", "rf64"])
def test_read_wav_rejects_other_encodings(tmp_path, encoding):
    p = tmp_path / "x.wav"
    if encoding in ("uint8", "float64"):
        wavfile.write(p, SR, np.zeros(100, dtype=encoding))
    elif encoding == "pcm24":
        p.write_bytes(riff((b"fmt ", fmt_chunk(1, 1, 24, 3)), (b"data", bytes(300))))
    else:
        # the magic alone decides: neither byte layout is read
        p.write_bytes(riff((b"fmt ", fmt_chunk(1, 1, 16, 2)), (b"data", bytes(200)),
                           magic=encoding.upper().encode()))
    with pytest.raises(UnsupportedEncodingError):
        dsp.read_wav(p)


PCM16_FMT = fmt_chunk(1, 1, 16, 2)


@pytest.mark.parametrize("blob", [
    b"RIFF\x04\x00\x00\x00AVI ",
    riff((b"fmt ", PCM16_FMT[:14]), (b"data", bytes(200))),
    riff((b"data", bytes(200))),
    riff((b"fmt ", PCM16_FMT), (b"LIST", b"INFO")),
    riff((b"data", bytes(200)), (b"fmt ", PCM16_FMT)),
    riff((b"fmt ", fmt_chunk(1, 0, 16, 2)), (b"data", bytes(200))),
    riff((b"fmt ", fmt_chunk(1, 1, 16, 2, extensible=True)[:38]), (b"data", bytes(200))),
    riff((b"fmt ", PCM16_FMT[:8] + b"\x01" + PCM16_FMT[9:]), (b"data", bytes(200))),
    riff((b"fmt ", fmt_chunk(3, 2, 32, 4)), (b"data", bytes(12))),
    riff((b"fmt ", PCM16_FMT), (b"data", b"")),
], ids=["bad_magic", "short_fmt", "no_fmt", "no_data", "data_before_fmt", "no_channels",
        "short_extensible_fmt", "bad_byte_rate", "partial_frame", "no_sample"])
def test_read_wav_structural_fault_is_malformed(tmp_path, blob):
    p = tmp_path / "x.wav"
    p.write_bytes(blob)
    with pytest.raises(MalformedFileError):
        dsp.read_wav(p)


@pytest.mark.parametrize("fmt, data, fault", [
    # 200 float32 stereo frames with one stray byte each: 450 whole float32 values
    (struct.pack("<HHIIHH", 3, 2, SR, SR * 9, 9, 32), bytes(1800), "block size 9"),
    (struct.pack("<HHIIHH", 1, 1, SR, SR * 3, 3, 16), bytes(300), "block size 3"),
    (PCM16_FMT, bytes(201), "201 bytes is not a whole number of 2-byte"),
    # 100 float32 stereo frames and two stray bytes: 200 whole values, an even count
    (fmt_chunk(3, 2, 32, 4), bytes(802), "802 bytes is not a whole number of 8-byte"),
], ids=["block_align_of_9_for_float32_stereo", "block_align_of_3_for_pcm16_mono",
        "odd_pcm16_data", "float32_stereo_data_with_stray_bytes"])
def test_read_wav_names_a_frame_fault(tmp_path, fmt, data, fault):
    p = tmp_path / "x.wav"
    p.write_bytes(riff((b"fmt ", fmt), (b"data", data)))
    with pytest.raises(MalformedFileError, match=fault):
        dsp.read_wav(p)


@pytest.mark.parametrize("dtype", ["<i2", "<f4"])
def test_read_wav_cut_short_is_malformed(tmp_path, dtype):
    p = tmp_path / "x.wav"
    wavfile.write(p, SR, noise_frames(dtype, 2))
    blob = p.read_bytes()
    header = blob.index(b"data") + 8
    for cut in [*range(header), header, header + 1, header + 3,
                (header + len(blob)) // 2, len(blob) - 1]:
        p.write_bytes(blob[:cut])
        with pytest.raises(MalformedFileError):
            dsp.read_wav(p)


def test_frame_energy_constant():
    w = dsp.Waveform(np.full(SR, 0.5), SR)
    t = dsp.frame_energy(w, CFG)
    assert t.values == pytest.approx(20 * math.log10(0.5), abs=1e-6)


def test_frame_energy_silence_floor():
    w = dsp.Waveform(np.zeros(SR), SR)
    t = dsp.frame_energy(w, CFG)
    assert np.all(t.values == pytest.approx(-200.0))


def test_frame_energy_sine_matches_brute_force():
    # oracle: per-frame RMS summed explicitly, no shared framing code
    n = SR
    x = np.sin(2 * np.pi * 300 * np.arange(n) / SR)
    w = dsp.Waveform(x, SR)
    t = dsp.frame_energy(w, CFG)
    flen, hop = int(round(CFG.frame_length_sec * SR)), int(round(CFG.hop_sec * SR))
    expected = []
    i = 0
    while i + flen <= n:
        frame = x[i : i + flen]
        rms = math.sqrt(sum(v * v for v in frame) / flen)
        expected.append(20 * math.log10(rms + 1e-10))
        i += hop
    assert len(t.values) == len(expected)
    assert t.values == pytest.approx(expected, abs=1e-9)
    # interior frames of a unit sine sit near -3.01 dB
    assert np.median(t.values) == pytest.approx(20 * math.log10(1 / math.sqrt(2)), abs=0.05)


def test_frame_count_formula(rng):
    for _ in range(30):
        n = int(rng.integers(2000, 40000))
        w = dsp.Waveform(rng.normal(size=n) * 0.1, SR)
        t = dsp.frame_energy(w, CFG)
        flen = int(round(CFG.frame_length_sec * SR))
        hop = int(round(CFG.hop_sec * SR))
        assert len(t.values) == (n - flen) // hop + 1


def test_frame_energy_too_short():
    with pytest.raises(TooShortError):
        dsp.frame_energy(dsp.Waveform(np.zeros(10), SR), CFG)


def test_estimate_f0_frame_shorter_than_shortest_lag():
    x = np.sin(2 * np.pi * 100 * np.arange(SR) / SR)
    # 240-sample frames hold no lag from 24000 // 70 = 342 samples on
    cfg = dsp.FrameConfig(frame_length_sec=0.01, f0_max_hz=70.0)
    with pytest.raises(TooShortError, match=r"shortest F0 lag \(342 samples\)"):
        dsp.estimate_f0(dsp.Waveform(x, SR), cfg)
    # 343-sample frames hold exactly that one lag
    cfg = dsp.FrameConfig(frame_length_sec=343 / SR, f0_max_hz=70.0)
    assert len(dsp.estimate_f0(dsp.Waveform(x, SR), cfg).values) > 0


def test_estimate_f0_pure_sine():
    x = np.sin(2 * np.pi * 200 * np.arange(SR) / SR)
    t = dsp.estimate_f0(dsp.Waveform(x, SR), CFG)
    interior = t.values[2:-2]
    assert np.all(np.abs(interior - 200) < 2)


def test_estimate_f0_white_noise_mostly_unvoiced():
    x = np.random.default_rng(7).normal(size=SR) * 0.1
    t = dsp.estimate_f0(dsp.Waveform(x, SR), CFG)
    assert np.mean(t.values == 0) > 0.9


def test_estimate_f0_silence():
    t = dsp.estimate_f0(dsp.Waveform(np.zeros(SR), SR), CFG)
    assert np.all(t.values == 0)


@pytest.mark.parametrize("f", [80, 120, 180, 250, 330, 400])
def test_estimate_f0_sweep_within_one_percent(f):
    x = np.sin(2 * np.pi * f * np.arange(SR) / SR)
    t = dsp.estimate_f0(dsp.Waveform(x, SR), CFG)
    interior = t.values[2:-2]
    assert np.all(np.abs(interior - f) / f < 0.01)


def reference_f0(x, sr, cfg):
    """estimate_f0 frame by frame: the normalized autocorrelation lag by lag,
    then a climb to the local peak one lag at a time."""
    flen = int(round(cfg.frame_length_sec * sr))
    hop = int(round(cfg.hop_sec * sr))
    lag_min = max(2, int(math.floor(sr / cfg.f0_max_hz)))
    lag_max = min(int(math.ceil(sr / cfg.f0_min_hz)), flen - 1)
    out = []
    for begin in range(0, len(x) - flen + 1, hop):
        f = x[begin : begin + flen] - x[begin : begin + flen].mean()
        r = []
        for tau in range(lag_min, lag_max + 1):
            head, tail = f[: flen - tau], f[tau:]
            denom = math.sqrt(np.dot(head, head) * np.dot(tail, tail))
            r.append(np.dot(head, tail) / denom if denom > 1e-12 else 0.0)
        peak = max(r)
        if peak < cfg.voicing_threshold or np.dot(f, f) <= 1e-12:
            out.append(0.0)
            continue
        k = next(j for j, v in enumerate(r) if v >= peak - 0.01)
        while k + 1 < len(r) and r[k + 1] > r[k]:
            k += 1
        tau = float(lag_min + k)
        if 0 < k < len(r) - 1:
            d = r[k - 1] - 2 * r[k] + r[k + 1]
            if abs(d) > 1e-12:
                tau += 0.5 * (r[k - 1] - r[k + 1]) / d
        out.append(sr / tau)
    return np.array(out)


def assert_matches_reference(x, sr, cfg):
    fast = dsp.estimate_f0(dsp.Waveform(x, sr), cfg).values
    ref = reference_f0(x, sr, cfg)
    assert np.array_equal(fast > 0, ref > 0)
    voiced = ref > 0
    assert fast[voiced] == pytest.approx(ref[voiced], rel=1e-9)
    return fast


_segment = st.tuples(
    st.sampled_from(["sine", "noise", "silence"]),
    st.floats(0.02, 0.3),   # seconds
    st.floats(0.05, 1.0),   # amplitude
    st.floats(60.0, 480.0),  # sine frequency, Hz
)


@settings(max_examples=25, deadline=None)
@given(sr=st.sampled_from([8000, 16000, 24000]),
       segments=st.lists(_segment, min_size=1, max_size=4),
       threshold=st.sampled_from([0.3, 0.6, 0.9]),
       seed=st.integers(0, 2**32 - 1))
def test_estimate_f0_matches_reference(sr, segments, threshold, seed):
    rng = np.random.default_rng(seed)
    pieces = []
    for kind, dur, amp, freq in segments:
        n = int(dur * sr)
        if kind == "sine":
            pieces.append(amp * np.sin(2 * np.pi * freq * np.arange(n) / sr + rng.uniform(0, 6)))
        elif kind == "noise":
            pieces.append(amp * rng.normal(size=n))
        else:
            pieces.append(np.zeros(n))
    x = np.concatenate(pieces + [np.zeros(int(0.05 * sr))])  # at least one frame
    assert_matches_reference(x, sr, dsp.FrameConfig(voicing_threshold=threshold))


def test_estimate_f0_matches_reference_with_clipped_lag_max():
    # ceil(24000 / 10) = 2400 lags do not fit a 1104-sample frame
    cfg = dsp.FrameConfig(f0_min_hz=10.0)
    x = np.sin(2 * np.pi * 130 * np.arange(SR // 2) / SR)
    f0 = assert_matches_reference(x, SR, cfg)
    assert (f0 > 0).all()


def test_estimate_f0_matches_reference_at_8_khz():
    sr = 8000
    t = np.arange(sr) / sr
    x = np.sin(2 * np.pi * 180 * t) + 0.1 * np.random.default_rng(3).normal(size=sr)
    f0 = assert_matches_reference(x, sr, CFG)
    assert np.abs(f0[2:-2] - 180).max() < 2


def test_estimate_f0_climb_ending_on_the_last_lag_is_not_refined():
    # a 58 Hz period (414 samples) is longer than the last lag, 24000 / 60
    # = 400, so the correlation still rises there and no parabola is fitted
    x = np.sin(2 * np.pi * 58 * np.arange(SR // 2) / SR)
    f0 = assert_matches_reference(x, SR, CFG)
    assert (f0 == SR / 400).all()


def mixed_signal(seconds, sr=SR):
    """A pitch glide with a noise burst and a silent gap, so that voiced and
    unvoiced frames both fall inside and across blocks."""
    n = int(seconds * sr)
    t = np.arange(n) / sr
    x = 0.4 * np.sin(2 * np.pi * (110 * t + 40 * t**2))
    x[n // 4 : n // 4 + sr // 3] = 0.2 * np.random.default_rng(11).normal(size=sr // 3)
    x[n // 2 : n // 2 + sr // 5] = 0.0
    return x


def test_estimate_f0_blocks_match_reference():
    x = mixed_signal(3.4)
    num_frames = len(dsp.frame_energy(dsp.Waveform(x, SR), CFG).values)
    # at least five blocks, the last one ragged
    assert num_frames >= 5 * dsp.FRAME_BLOCK and num_frames % dsp.FRAME_BLOCK
    f0 = assert_matches_reference(x, SR, CFG)
    assert 0 < np.mean(f0 > 0) < 1


def test_estimate_f0_independent_of_block_size(monkeypatch):
    w = dsp.Waveform(mixed_signal(1.7), SR)
    default = dsp.estimate_f0(w, CFG).values
    for k in (1, 7):
        monkeypatch.setattr(dsp, "FRAME_BLOCK", k)
        assert np.array_equal(dsp.estimate_f0(w, CFG).values, default)


@pytest.mark.parametrize("block", [None, 1, 7])
def test_frame_energy_bits_match_the_whole_framed_view(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(dsp, "FRAME_BLOCK", block)
    k = dsp.FRAME_BLOCK
    flen, hop = int(round(CFG.frame_length_sec * SR)), int(round(CFG.hop_sec * SR))
    x = mixed_signal(1.1)
    # one frame, a block but one, a block, a block and one, several ragged blocks
    for count in sorted({1, max(k - 1, 1), k, k + 1, 3 * k + 2}):
        w = dsp.Waveform(x[: flen + (count - 1) * hop], SR)
        frames = dsp._frame_signal(w.samples, SR, CFG)
        expected = 20 * np.log10(np.sqrt(np.mean(frames**2, axis=1)) + 1e-10)
        values = dsp.frame_energy(w, CFG).values
        assert len(values) == count
        assert np.array_equal(values, expected)


def test_next_fast_len_matches_scipy():
    from scipy import fft

    ns = range(1, 5001)
    assert [dsp._next_fast_len(n) for n in ns] == [fft.next_fast_len(n, real=True) for n in ns]


@pytest.mark.parametrize("sr", [8000, 16000, 22050, 44100, 48000])
def test_estimate_f0_bits_match_scipy_fft(monkeypatch, sr):
    from scipy import fft

    # a noisy pitch glide, then a noise burst, so that some frames are unvoiced
    t = np.arange(int(0.7 * sr)) / sr
    noise = np.random.default_rng(sr).normal(size=len(t))
    x = np.where(t < 0.5, 0.4 * np.sin(2 * np.pi * (110 * t + 40 * t**2)) + 0.05 * noise,
                 0.3 * noise)
    w = dsp.Waveform(x, sr)
    f0 = dsp.estimate_f0(w, CFG).values
    monkeypatch.setattr(np.fft, "rfft", fft.rfft)
    monkeypatch.setattr(np.fft, "irfft", fft.irfft)
    monkeypatch.setattr(dsp, "_next_fast_len", partial(fft.next_fast_len, real=True))
    assert f0.tobytes() == dsp.estimate_f0(w, CFG).values.tobytes()
    assert 0 < np.mean(f0 > 0) < 1


@pytest.mark.parametrize("hops", [1, 2, 3, 5, 7])
def test_estimate_f0_independent_of_frame_position(hops):
    # dropping whole hops from the front moves every frame to another place
    # in its block; the frames both inputs share keep bit-equal F0
    x = mixed_signal(1.7)
    hop = int(round(CFG.hop_sec * SR))
    full = dsp.estimate_f0(dsp.Waveform(x, SR), CFG).values
    shifted = dsp.estimate_f0(dsp.Waveform(x[hops * hop :], SR), CFG).values
    assert np.array_equal(shifted, full[hops:])


RATES = [8000, 16000, 22050, 24000, 44100, 48000]


@pytest.mark.parametrize("sr, factor", zip(RATES, [1, 2, 2, 3, 3, 6]))
def test_decimation_factor_of_the_default_frames(sr, factor):
    hop = int(round(CFG.hop_sec * sr))
    flen = int(round(CFG.frame_length_sec * sr))
    assert dsp._decimation_factor(sr, hop, flen, CFG.f0_max_hz) == factor


def test_decimation_factor_keeps_the_shortest_lag_in_the_frame():
    # at 70 Hz, 24000 / 20 = 1200 Hz is the lowest rate; its shortest lag,
    # 17 samples, needs 18-sample frames, which 350 // 20 = 17 are not
    assert dsp._decimation_factor(24000, 240, 360, 70.0) == 20
    assert dsp._decimation_factor(24000, 240, 350, 70.0) == 15
    # 343 samples hold only the one lag 342, which no decimated frame holds
    assert dsp._decimation_factor(24000, 240, 343, 70.0) == 1


@pytest.mark.parametrize("d", [2, 3, 6])
def test_decimate_is_the_reflected_low_pass_every_dth_sample(d):
    x = np.random.default_rng(d).normal(size=40 * d + d - 1)
    assert dsp._decimate(np.ones(40 * d), d) == pytest.approx(np.ones(40))  # DC gain 1
    half = dsp.LOWPASS_HALF * d
    taps = np.hamming(2 * half + 1) * np.sinc(0.9 / d * np.arange(-half, half + 1))
    padded = np.pad(x, half, mode="reflect")
    want = [padded[m * d : m * d + 2 * half + 1] @ taps / taps.sum()
            for m in range(len(x) // d)]
    assert dsp._decimate(x, d) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("sr", RATES)
def test_decimated_f0_stays_within_tolerance_of_the_full_rate_track(sr):
    # bounds fixed before measuring: V/UV agreement >= 99%, and on frames both
    # call voiced a median |df0|/f0 <= 1e-4 and a 99th percentile <= 1e-2
    t = np.arange(3 * sr) / sr
    sweep = 0.4 * np.sin(2 * np.pi * 80 * 3 / np.log(5) * (5 ** (t / 3) - 1))  # 80-400 Hz
    for x in (mixed_signal(3.4, sr), sweep):
        w = dsp.Waveform(x, sr)
        full, dec = dsp.estimate_f0(w, CFG).values, dsp.decimated_f0(w, CFG).values
        assert len(dec) == len(full) == len(dsp.frame_energy(w, CFG).values)
        assert np.mean((dec > 0) == (full > 0)) >= 0.99
        both = (dec > 0) & (full > 0)
        rel = np.abs(dec[both] - full[both]) / full[both]
        assert np.median(rel) <= 1e-4
        assert np.percentile(rel, 99) <= 1e-2


@pytest.mark.parametrize("sr", [16000, 22050, 44100])
def test_decimated_f0_keeps_the_frame_count_at_every_length(sr):
    # at 44.1 kHz a frame is 2029 samples, and 676 decimated ones span 2028
    flen = int(round(CFG.frame_length_sec * sr))
    hop = int(round(CFG.hop_sec * sr))
    x = np.sin(2 * np.pi * 150 * np.arange(flen + 2 * hop) / sr)
    for n in range(flen, flen + 2 * hop + 1, 7 if sr != 44100 else 1):
        w = dsp.Waveform(x[:n], sr)
        assert len(dsp.decimated_f0(w, CFG).values) == (n - flen) // hop + 1


@pytest.mark.parametrize("frame, error", [
    ({"frame_length_sec": 0.01, "f0_max_hz": 70.0}, "240-sample frame shorter than the "
                                                    r"shortest F0 lag \(342 samples\)"),
    ({"f0_max_hz": 12000.0}, "f0_max_hz 12000 is not below the Nyquist frequency of 24000"),
    ({"hop_sec": 1e-9}, "hop_sec 1e-09 is under one sample at 24000 Hz"),
    ({"frame_length_sec": 2.0}, "waveform of 24000 samples shorter than a 2 s frame"),
])
def test_decimated_f0_checks_the_frame_at_the_files_own_rate(frame, error):
    w = dsp.Waveform(np.sin(2 * np.pi * 100 * np.arange(SR) / SR), SR)
    cfg = dsp.FrameConfig(**frame)
    for f0 in (dsp.estimate_f0, dsp.decimated_f0):
        with pytest.raises((TooShortError, UnsupportedEncodingError), match=error):
            f0(w, cfg)


def test_frame_signal_is_a_read_only_view():
    x = np.arange(SR, dtype=np.float64)
    frames = dsp._frame_signal(x, SR, CFG)
    assert np.shares_memory(frames, x)
    assert frames[3, 0] == 3 * int(round(CFG.hop_sec * SR))
    with pytest.raises(ValueError):
        frames[0, 0] = 1.0


def test_interpolate_unvoiced_midpoint():
    t = dsp.ProsodicTrack(np.array([100.0, 0.0, 200.0]), 100.0, "f0_hz")
    out = dsp.interpolate_unvoiced(t)
    assert out.values == pytest.approx([100, 150, 200])


def test_interpolate_unvoiced_edge_hold():
    t = dsp.ProsodicTrack(np.array([0.0, 100.0, 0.0]), 100.0, "f0_hz")
    out = dsp.interpolate_unvoiced(t)
    assert out.values == pytest.approx([100, 100, 100])


def test_interpolate_unvoiced_identity_and_idempotent(rng):
    v = rng.uniform(80, 300, size=50)
    v[rng.integers(0, 50, 10)] = 0
    v[0] = 120  # keep at least one voiced frame
    t = dsp.ProsodicTrack(v, 100.0, "f0_hz")
    once = dsp.interpolate_unvoiced(t)
    twice = dsp.interpolate_unvoiced(once)
    assert np.all(once.values > 0)
    assert np.array_equal(once.values, twice.values)


def test_interpolate_all_unvoiced():
    with pytest.raises(AllUnvoicedError):
        dsp.interpolate_unvoiced(dsp.ProsodicTrack(np.zeros(5), 100.0, "f0_hz"))


def make_utt(durations):
    times, t = [], 0.0
    for d in durations:
        times.append((t, t + d))
        t += d
    n = len(durations)
    return corpus.Utterance(
        id="d", chars=tuple("x" * n), word_spans=tuple((i, i + 1) for i in range(n)),
        phones_per_char=(1,) * n, char_times=tuple(times),
    )


def test_duration_signal_two_chars():
    t = dsp.duration_signal(make_utt([0.2, 0.4]), 100.0)
    assert len(t.values) == 60
    assert t.values[:20] == pytest.approx(math.log(0.2 + 1e-10))
    assert t.values[20:] == pytest.approx(math.log(0.4 + 1e-10))


def test_duration_signal_single_char():
    t = dsp.duration_signal(make_utt([1.0]), 100.0)
    assert t.values == pytest.approx(math.log(1.0 + 1e-10), abs=1e-9)


def test_duration_signal_equal_durations_constant():
    t = dsp.duration_signal(make_utt([0.3, 0.3, 0.3]), 100.0)
    assert np.ptp(t.values) == 0


def test_duration_signal_frame_count(rng):
    for _ in range(20):
        durs = rng.uniform(0.05, 0.5, size=int(rng.integers(1, 8)))
        utt = make_utt(list(durs))
        fr = 100.0
        t = dsp.duration_signal(utt, fr)
        assert len(t.values) == math.ceil(utt.char_times[-1][1] * fr - 1e-9)


def test_duration_signal_empty_alignment():
    utt = corpus.Utterance(
        id="e", chars=("x",), word_spans=((0, 1),), phones_per_char=(1,),
        char_times=((0.0, 0.0),),
    )
    with pytest.raises(EmptyAlignmentError):
        dsp.duration_signal(utt, 100.0)
