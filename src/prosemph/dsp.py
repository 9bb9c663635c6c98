"""Frame-level prosodic signal extraction: energy, F0 and duration tracks."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Utterance
from .errors import (
    AllUnvoicedError,
    EmptyAlignmentError,
    FrameRateMismatchError,
    MalformedFileError,
    TooShortError,
    UnsupportedEncodingError,
)

LOG_EPS = 1e-10
# frames per block of frame_energy and estimate_f0, measured at the decimated
# rate: 256 saved 12 of 81 ms in estimate_f0 alone but no clear label time
FRAME_BLOCK = 32
# decimated_f0 keeps at least this many samples a period of f0_max_hz
F0_SAMPLES_PER_PERIOD = 16
# half the taps of decimated_f0's low-pass, in decimated samples
LOWPASS_HALF = 12

TRACK_KINDS = ("f0_hz", "energy_db", "duration", "combined", "zscore")


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray  # float64, [-1, 1]
    sample_rate: int

    def __post_init__(self):
        if self.samples.size == 0:
            raise MalformedFileError("empty waveform")
        # min and max carry a NaN or an infinity, so no boolean copy is made
        if not np.isfinite([self.samples.min(), self.samples.max()]).all():
            raise MalformedFileError("waveform has non-finite samples")
        if self.sample_rate <= 0:
            raise MalformedFileError(f"bad sample rate {self.sample_rate}")


@dataclass(frozen=True)
class ProsodicTrack:
    values: np.ndarray  # float64
    frame_rate: float
    kind: str

    def __post_init__(self):
        if self.values.size == 0:
            raise MalformedFileError("empty track")
        if self.frame_rate <= 0:
            raise MalformedFileError(f"bad frame rate {self.frame_rate}")
        if self.kind not in TRACK_KINDS:
            raise MalformedFileError(f"unknown track kind {self.kind!r}")


@dataclass(frozen=True)
class FrameConfig:
    frame_length_sec: float = 0.046
    hop_sec: float = 0.010
    f0_min_hz: float = 60.0
    f0_max_hz: float = 500.0
    voicing_threshold: float = 0.6

    def __post_init__(self):
        if not 0 < self.hop_sec <= self.frame_length_sec:
            raise ValueError("need 0 < hop_sec <= frame_length_sec")
        if not 0 < self.f0_min_hz < self.f0_max_hz:
            raise ValueError("need 0 < f0_min_hz < f0_max_hz")

    @property
    def frame_rate(self) -> float:
        return 1.0 / self.hop_sec


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# a WAVE_FORMAT_EXTENSIBLE subformat GUID (RFC 2361) past its leading format tag
_SUBFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file (PCM16 or float32, also as the subformat of
    WAVE_FORMAT_EXTENSIBLE, any channel count) as a mono [-1,1] waveform: the
    channels are averaged. Chunks other than `fmt ` and `data` are skipped.

    A structural fault (a bad magic, a short header, `fmt ` or `data` chunk, a
    missing chunk, a block size other than channels x sample bytes, a `data`
    chunk that is not whole frames) raises MalformedFileError; any other
    encoding, RIFX and RF64 too, raises UnsupportedEncodingError.
    """
    try:
        blob = memoryview(Path(path).read_bytes())
    except OSError as exc:
        raise MalformedFileError(f"cannot read {path}: {exc}") from exc
    if blob[:4] in (b"RIFX", b"RF64"):
        raise UnsupportedEncodingError(f"{path}: {bytes(blob[:4]).decode()} files are not read")
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedFileError(f"{path}: not a RIFF/WAVE file")
    fmt, pos = None, 12
    while True:
        if len(blob) < pos + 8:
            raise MalformedFileError(f"{path}: no {'fmt ' if fmt is None else 'data'} chunk")
        cid, (size,) = bytes(blob[pos : pos + 4]), struct.unpack_from("<I", blob, pos + 4)
        start, pos = pos + 8, pos + 8 + size + size % 2  # a pad byte follows an odd size
        if len(blob) < start + size:
            raise MalformedFileError(
                f"{path}: {cid!r} chunk of {size} bytes cut short at {len(blob) - start}")
        if cid == b"data":
            break
        if cid == b"fmt ":
            fmt = blob[start : start + size]
    if fmt is None:
        raise MalformedFileError(f"{path}: data chunk before the fmt chunk")
    if len(fmt) < 16:
        raise MalformedFileError(f"{path}: fmt chunk of {len(fmt)} bytes, under 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE:
        if len(fmt) < 40 or struct.unpack_from("<H", fmt, 16)[0] < 22:
            raise MalformedFileError(f"{path}: short WAVE_FORMAT_EXTENSIBLE fmt chunk")
        if fmt[28:40] == _SUBFORMAT_TAIL:
            (tag,) = struct.unpack_from("<I", fmt, 24)
    if channels == 0:
        raise MalformedFileError(f"{path}: no channels")
    if tag == _PCM and byte_rate != rate * block_align:
        raise MalformedFileError(f"{path}: byte rate {byte_rate} is not "
                                 f"{rate} Hz x {block_align}-byte frames")
    if tag == _PCM and 8 < bits <= 16:
        dtype, scale = "<i2", 32768.0
    elif tag == _IEEE_FLOAT and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise UnsupportedEncodingError(
            f"{path}: format tag {tag:#x} with {bits}-bit samples; "
            "only PCM16 and float32 are read")
    container = np.dtype(dtype).itemsize
    if block_align != channels * container:
        raise MalformedFileError(f"{path}: block size {block_align} is not {channels} "
                                 f"channels x {container}-byte samples")
    if size % block_align:
        raise MalformedFileError(f"{path}: data chunk of {size} bytes is not a whole "
                                 f"number of {block_align}-byte frames")
    samples = np.frombuffer(blob, dtype, size // container, start).astype(np.float64)
    samples /= scale
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return Waveform(samples=samples, sample_rate=rate)


def _frame_signal(samples: np.ndarray, sr: int, cfg: FrameConfig) -> np.ndarray:
    """Overlapping frames [num_frames x frame_length]: a read-only view, no copy."""
    # a frame over len + 1 samples is too short already, however large (or inf)
    flen = int(round(min(cfg.frame_length_sec * sr, len(samples) + 1)))
    if len(samples) < flen:
        raise TooShortError(
            f"waveform of {len(samples)} samples shorter than a "
            f"{cfg.frame_length_sec:g} s frame at {sr} Hz"
        )
    hop = int(round(cfg.hop_sec * sr))  # hop_sec <= frame_length_sec: finite here
    if hop < 1:
        raise UnsupportedEncodingError(f"hop_sec {cfg.hop_sec:g} is under one sample at {sr} Hz")
    return np.lib.stride_tricks.sliding_window_view(samples, flen)[::hop]


def frame_energy(w: Waveform, cfg: FrameConfig) -> ProsodicTrack:
    """Per-frame RMS energy in dB: 20*log10(rms + 1e-10).

    Frames are squared FRAME_BLOCK at a time into one reused buffer, so no
    array of frames x frame length is made; each frame is still averaged
    as one row, so its value does not depend on the block size.
    """
    frames = _frame_signal(w.samples, w.sample_rate, cfg)
    buf = np.empty((min(FRAME_BLOCK, len(frames)), frames.shape[1]))
    ms = np.empty(len(frames))
    for a in range(0, len(frames), FRAME_BLOCK):
        x = frames[a : a + FRAME_BLOCK]
        np.mean(np.square(x, out=buf[: len(x)]), axis=1, out=ms[a : a + len(x)])
    db = 20.0 * np.log10(np.sqrt(ms) + LOG_EPS)
    return ProsodicTrack(values=db, frame_rate=cfg.frame_rate, kind="energy_db")


def _next_fast_len(n: int) -> int:
    """The smallest 2·3·5-smooth integer >= n: an FFT length pocketfft runs fast."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _f0_frames(w: Waveform, cfg: FrameConfig) -> tuple[np.ndarray, int, int]:
    """estimate_f0's frames of w (a view) and its shortest and longest lag in
    samples, once f0_max_hz, the frame and the lags pass their checks at w's rate."""
    sr = w.sample_rate
    if not cfg.f0_max_hz < sr / 2:
        raise UnsupportedEncodingError(
            f"f0_max_hz {cfg.f0_max_hz:g} is not below the Nyquist frequency of {sr} Hz")
    frames = _frame_signal(w.samples, sr, cfg)
    flen = frames.shape[1]
    lag_min = max(2, int(math.floor(sr / cfg.f0_max_hz)))
    # capped before the ceil, so a vanishing f0_min_hz (sr / f0_min_hz = inf) clips too
    lag_max = int(math.ceil(min(sr / cfg.f0_min_hz, flen - 1)))
    if lag_max < lag_min:
        raise TooShortError(
            f"{flen}-sample frame shorter than the shortest F0 lag ({lag_min} samples)")
    return frames, lag_min, lag_max


def estimate_f0(w: Waveform, cfg: FrameConfig) -> ProsodicTrack:
    """Per-frame F0 via normalized autocorrelation peak picking.

    Frames whose best normalized correlation falls below the voicing
    threshold are reported as 0 (unvoiced). Peak lag is refined by
    parabolic interpolation.

    Frames are processed FRAME_BLOCK at a time, so each step's arrays stay
    small enough for the cache. The autocorrelation of each frame comes
    from an FFT of `_next_fast_len(flen + lag_max)` points: any length >=
    flen + lag_max keeps the circular wrap out of lags 0..lag_max, the only
    lags read. Its power spectrum is `re**2 + im**2`, elementwise and real,
    so a frame's F0 does not depend on the frame's position in its block.
    """
    sr = w.sample_rate
    frames, lag_min, lag_max = _f0_frames(w, cfg)
    flen = frames.shape[1]
    last = lag_max - lag_min
    nfft = _next_fast_len(flen + lag_max)

    out = np.zeros(len(frames))
    for a in range(0, len(frames), FRAME_BLOCK):
        x = frames[a : a + FRAME_BLOCK]
        x = x - x.mean(axis=1, keepdims=True)
        # raw autocorrelation at lags lag_min..lag_max via FFT
        spec = np.fft.rfft(x, n=nfft, axis=1)
        acf = np.fft.irfft(spec.real**2 + spec.imag**2, n=nfft, axis=1)
        # normalization energies of the two overlapping segments, per lag:
        # sum x[0 : flen-tau]^2 and sum x[tau : flen]^2
        sq = np.cumsum(x**2, axis=1)
        total = sq[:, -1]
        e_head = sq[:, flen - 1 - lag_max : flen - lag_min][:, ::-1]
        e_tail = total[:, None] - sq[:, lag_min - 1 : lag_max]
        denom = np.sqrt(e_head * e_tail)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(denom > 1e-12, acf[:, lag_min : lag_max + 1] / denom, 0.0)
        peak = r.max(axis=1)
        voiced = np.flatnonzero((peak >= cfg.voicing_threshold) & (total > 1e-12))
        r, peak = r[voiced], peak[voiced]
        # prefer the shortest near-maximal lag to avoid subharmonic picks, then
        # climb to its local peak: the first lag from there on whose successor
        # is no higher, else the last lag
        start = np.argmax(r >= peak[:, None] - 0.01, axis=1)
        stop = np.ones(r.shape, dtype=bool)
        stop[:, :-1] = (r[:, 1:] <= r[:, :-1]) & (np.arange(last) >= start[:, None])
        k = np.argmax(stop, axis=1)
        tau = (lag_min + k).astype(np.float64)
        # parabolic refinement around an inner peak
        (i,) = np.nonzero((k > 0) & (k < last))
        below, at, above = r[i, k[i] - 1], r[i, k[i]], r[i, k[i] + 1]
        d = below - 2 * at + above
        curved = np.abs(d) > 1e-12
        tau[i[curved]] += 0.5 * (below - above)[curved] / d[curved]
        out[a + voiced] = sr / tau
    return ProsodicTrack(values=out, frame_rate=cfg.frame_rate, kind="f0_hz")


def _decimation_factor(sr: int, hop: int, flen: int, f0_max_hz: float) -> int:
    """The largest d dividing sr and hop with sr / d >= F0_SAMPLES_PER_PERIOD *
    f0_max_hz whose frame of flen // d samples still holds the shortest lag at
    sr / d; 1 (no decimation) when no d > 1 qualifies."""
    for d in range(hop, 1, -1):
        if (sr % d == hop % d == 0 and sr / d >= F0_SAMPLES_PER_PERIOD * f0_max_hz
                and flen // d - 1 >= max(2, math.floor(sr / d / f0_max_hz))):
            return d
    return 1


def _decimate(x: np.ndarray, d: int) -> np.ndarray:
    """x low-passed and decimated by d > 1: len(x) // d samples, sample m
    being sum_j h[j] * x[(m - LOWPASS_HALF) * d + j], with x reflected about
    its first and last sample. h is a windowed sinc of 2 * LOWPASS_HALF * d + 1
    Hamming taps, cut off at 0.45 / d cycles a sample, with unit gain at DC.
    One phase x[p::d] at a time is padded and correlated with the taps
    h[p::d], so no padded copy of x is made. Needs len(x) > LOWPASS_HALF * d."""
    n, m, half = len(x), len(x) // d, LOWPASS_HALF
    j = np.arange(-half * d, half * d + 1)
    h = np.zeros((2 * half + 1) * d)
    h[: len(j)] = 0.9 / d * np.sinc(0.9 / d * j) * np.hamming(len(j))
    taps = (h / h.sum()).reshape(2 * half + 1, d).T.copy()  # taps[p, q] = h[q * d + p]
    y = np.zeros(m)
    for p in range(d):
        # x[(k - half) * d + p] for k < m + 2 * half, reflected about x[0] and
        # x[n - 1]: the half before x[p], x[p::d], and the rest past the end
        head, body = x[half * d - p : 0 : -d], x[p::d]
        past = p + len(body) * d  # the first index past the end
        tail = x[2 * (n - 1) - past :: -d][: m + half - len(body)]
        y += np.correlate(np.concatenate((head, body, tail)), taps[p], "valid")
    return y


def decimated_f0(w: Waveform, cfg: FrameConfig) -> ProsodicTrack:
    """estimate_f0 of w low-passed and decimated by _decimation_factor (1 at
    8 kHz, 2 at 16 and 22.05 kHz, 3 at 24 and 44.1 kHz, 6 at 48 kHz for the
    default frames): frames of flen // d samples every hop / d, so each starts
    where frame_energy's does, and the track keeps frame_energy's frame count.
    The checks of estimate_f0 run at w's own rate, so a frame config that w's
    rate cannot meet fails with estimate_f0's message."""
    frames, _, _ = _f0_frames(w, cfg)
    count, flen = frames.shape
    sr, hop = w.sample_rate, int(round(cfg.hop_sec * w.sample_rate))
    d = _decimation_factor(sr, hop, flen, cfg.f0_max_hz)
    if d > 1:
        w = Waveform(_decimate(w.samples, d), sr // d)
        # a frame of flen // d samples at sr // d may leave room for one more frame
        cfg = replace(cfg, frame_length_sec=max(cfg.hop_sec, flen // d * d / sr))
    return ProsodicTrack(values=estimate_f0(w, cfg).values[:count],
                         frame_rate=cfg.frame_rate, kind="f0_hz")


def interpolate_unvoiced(t: ProsodicTrack) -> ProsodicTrack:
    """Fill unvoiced (zero) frames by linear interpolation between voiced ones.

    Leading and trailing gaps take the nearest voiced value. Idempotent.
    """
    if t.kind != "f0_hz":
        raise ValueError(f"expected an f0_hz track, got {t.kind}")
    v = t.values
    voiced = v > 0
    if not voiced.any():
        raise AllUnvoicedError("track has no voiced frame")
    idx = np.arange(len(v))
    filled = np.interp(idx, idx[voiced], v[voiced])
    return ProsodicTrack(values=filled, frame_rate=t.frame_rate, kind="f0_hz")


def duration_signal(utt: Utterance, frame_rate: float) -> ProsodicTrack:
    """Piecewise-constant log-duration signal sampled at frame rate.

    Frame i (at time i/frame_rate) inside character c's span takes value
    log(duration_c + eps); frames between spans hold the previous value.
    """
    ends = [e for _, e in utt.char_times]
    total = ends[-1] if ends else 0.0
    if total <= 0:
        raise EmptyAlignmentError(f"{utt.id}: char_times cover no positive span")
    num_frames = int(math.ceil(total * frame_rate - 1e-9))
    values = np.empty(num_frames)
    log_durs = [math.log(e - s + LOG_EPS) for s, e in utt.char_times]
    c = 0
    current = log_durs[0]
    for i in range(num_frames):
        t = i / frame_rate
        while c < len(utt.char_times) and t >= utt.char_times[c][1]:
            c += 1
        if c < len(utt.char_times) and t >= utt.char_times[c][0]:
            current = log_durs[c]
        values[i] = current
    return ProsodicTrack(values=values, frame_rate=frame_rate, kind="duration")


def check_same_frame_rate(*tracks: ProsodicTrack) -> float:
    rates = {t.frame_rate for t in tracks}
    if len(rates) != 1:
        raise FrameRateMismatchError(f"tracks have mixed frame rates {sorted(rates)}")
    return rates.pop()
