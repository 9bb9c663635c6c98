"""Unsupervised emphasis pseudo-labeling.

Pipeline: normalized pitch/energy/duration tracks are fused by a weighted
sum, analyzed with a Ricker-wavelet continuous wavelet transform, reduced
to one prominence score per character, and thresholded into binary labels.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .corpus import EmphasisLabels, Utterance
from .errors import BandOutOfRangeError, ProsemphError


@dataclass(frozen=True)
class CombineWeights:
    w_f0: float = 1.0
    w_energy: float = 1.0
    w_duration: float = 1.0

    def __post_init__(self):
        if min(self.w_f0, self.w_energy, self.w_duration) < 0:
            raise ValueError("weights must be non-negative")
        if self.w_f0 + self.w_energy + self.w_duration <= 0:
            raise ValueError("at least one weight must be positive")


# widest scored wavelet scale allowed, in frames; bounds the largest kernel
MAX_SCALE_FRAMES = 1024
# the version of label_utterance's algorithm, which a config does not set:
# 1 estimated F0 at the file's own rate, 2 on a decimated copy (dsp.decimated_f0)
LABEL_VERSION = 2


@dataclass(frozen=True)
class WaveletConfig:
    scales_per_octave: int = 2
    base_scale_frames: float = 4.0

    def __post_init__(self):
        if self.scales_per_octave < 1 or not self.base_scale_frames > 0:
            raise ValueError("scales_per_octave and base_scale_frames must be positive")


@dataclass(frozen=True)
class ProminenceConfig:
    weights: CombineWeights = field(default_factory=CombineWeights)
    wavelet: WaveletConfig = field(default_factory=WaveletConfig)
    band: tuple[int, int] = (2, 9)  # scale-index band used for scoring
    threshold_sigma: float = 1.0
    frame: dsp.FrameConfig = field(default_factory=dsp.FrameConfig)

    def __post_init__(self):
        lo, hi = self.band
        if not 0 <= lo <= hi:
            raise ValueError("band must be scale indices 0 <= lo <= hi")
        w = self.wavelet
        # scale hi, base_scale_frames * 2^(hi / scales_per_octave), in log2
        if hi / w.scales_per_octave > math.log2(MAX_SCALE_FRAMES / w.base_scale_frames):
            raise ValueError(f"scale {hi}, {w.base_scale_frames:g} * 2^({hi}/"
                             f"{w.scales_per_octave}) frames, is wider than "
                             f"{MAX_SCALE_FRAMES}")


@dataclass(frozen=True)
class Scalogram:
    coefficients: np.ndarray  # [num_scales x num_frames]
    scales_frames: np.ndarray  # strictly increasing, in frames
    frame_rate: float

    def __post_init__(self):
        if self.coefficients.shape[0] != len(self.scales_frames):
            raise ValueError("row count must match number of scales")
        if np.any(np.diff(self.scales_frames) <= 0):
            raise ValueError("scales must be strictly increasing")


@dataclass(frozen=True)
class ProminenceResult:
    scores: np.ndarray  # one per character
    labels: EmphasisLabels  # source == "pseudo"


class LargeScaleTruncatedWarning(UserWarning):
    """Track shorter than 4x the largest wavelet scale; borders zero-padded."""


def standardize(v: np.ndarray) -> np.ndarray:
    """(v - mean) / std, or all zeros when the variance is below 1e-12."""
    std = v.std()
    return np.zeros_like(v) if std**2 < 1e-12 else (v - v.mean()) / std


def zscore(t: dsp.ProsodicTrack) -> dsp.ProsodicTrack:
    """Standardize a track to mean 0, variance 1 (all zeros if degenerate)."""
    return dsp.ProsodicTrack(values=standardize(t.values), frame_rate=t.frame_rate,
                             kind="zscore")


def combine(
    f0: dsp.ProsodicTrack,
    energy: dsp.ProsodicTrack,
    dur: dsp.ProsodicTrack,
    w: CombineWeights,
) -> dsp.ProsodicTrack:
    """Weighted sum of three z-scored tracks, truncated to the shortest."""
    dsp.check_same_frame_rate(f0, energy, dur)
    n = min(len(f0.values), len(energy.values), len(dur.values))
    values = (
        w.w_f0 * f0.values[:n]
        + w.w_energy * energy.values[:n]
        + w.w_duration * dur.values[:n]
    )
    return dsp.ProsodicTrack(values=values, frame_rate=f0.frame_rate, kind="combined")


@functools.lru_cache(maxsize=64)  # a config scores a dozen scales or so
def ricker_kernel(scale: float) -> np.ndarray:
    """Discrete Ricker (Mexican hat) wavelet at the given scale in frames.

    Sampled over +-4 scales and normalized to unit L2 norm, so each
    scalogram row of a unit-variance white-noise input has unit expected
    variance. Built once per scale and returned read-only, as every
    caller shares it.
    """
    half = max(1, int(math.ceil(4.0 * scale)))
    t = np.arange(-half, half + 1, dtype=np.float64)
    u = t / scale
    psi = (2.0 / (math.sqrt(3.0 * scale) * math.pi**0.25)) * (1 - u**2) * np.exp(-(u**2) / 2)
    psi /= np.linalg.norm(psi)
    psi.setflags(write=False)
    return psi


def cwt_ricker(
    t: dsp.ProsodicTrack,
    num_scales: int = 12,
    scales_per_octave: int = 2,
    base_scale_frames: float = 4.0,
) -> Scalogram:
    """Continuous wavelet transform of the mean-removed track.

    Scale j is base_scale_frames * 2^(j / scales_per_octave). Each row is
    the centred len(track) slice of the full convolution, read from numpy's
    "same" mode so the outputs outside it are not computed; borders are
    zero-padded at any track length, shorter than the kernel too; a track
    shorter than 4x the largest scale triggers a LargeScaleTruncatedWarning
    but coefficients are still computed.
    """
    if num_scales < 1:
        raise ValueError("num_scales must be >= 1")
    scales = base_scale_frames * 2.0 ** (np.arange(num_scales) / scales_per_octave)
    x = t.values - t.values.mean()
    if len(x) < 4 * scales[-1]:
        warnings.warn(
            f"track of {len(x)} frames shorter than 4x largest scale "
            f"({scales[-1]:.1f} frames)",
            LargeScaleTruncatedWarning,
            stacklevel=2,
        )
    rows = np.empty((num_scales, len(x)))
    for j, s in enumerate(scales):
        k = ricker_kernel(s)
        lo = (len(k) - 1) // 2 - (min(len(x), len(k)) - 1) // 2
        rows[j] = np.convolve(x, k, "same")[lo : lo + len(x)]
    return Scalogram(coefficients=rows, scales_frames=scales, frame_rate=t.frame_rate)


def prominence_scores(
    sc: Scalogram, utt: Utterance, band: tuple[int, int]
) -> np.ndarray:
    """Per-character prominence: max coefficient over the scale band within
    each character's time span. Characters whose span covers no frame take
    the minimum finite score."""
    lo, hi = band
    if not (0 <= lo <= hi < sc.coefficients.shape[0]):
        raise BandOutOfRangeError(
            f"band {band} invalid for {sc.coefficients.shape[0]} scales"
        )
    band_max = sc.coefficients[lo : hi + 1].max(axis=0)  # per-frame max over band
    num_frames = len(band_max)
    scores = np.full(utt.num_chars, -np.inf)
    for i, (s, e) in enumerate(utt.char_times):
        a = int(math.ceil(s * sc.frame_rate - 1e-9))
        b = min(num_frames, int(math.ceil(e * sc.frame_rate - 1e-9)))
        if a < b:
            scores[i] = band_max[a:b].max()
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        return np.zeros(utt.num_chars)
    scores[~np.isfinite(scores)] = finite.min()
    return scores


def quantize(
    scores: np.ndarray, threshold_sigma: float, utterance_id: str = ""
) -> EmphasisLabels:
    """Threshold per-utterance z-scored prominence scores into binary labels.

    Confidence is logistic((z - threshold) * 4): exactly 0.5 at threshold,
    approaching 1 for strong prominence. Zero-variance scores give all-zero
    labels.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one character")
    z = standardize(scores)
    if not z.any():  # only degenerate scores standardize to all zeros
        labels = np.zeros(len(scores), dtype=int)
        conf = np.zeros(len(scores))
    else:
        labels = (z >= threshold_sigma).astype(int)
        conf = 1.0 / (1.0 + np.exp(-(z - threshold_sigma) * 4.0))
    return EmphasisLabels(
        utterance_id=utterance_id,
        labels=tuple(int(l) for l in labels),
        confidences=tuple(float(c) for c in conf),
        source="pseudo",
    )


def label_utterance(
    wav_path, utt: Utterance, cfg: ProminenceConfig
) -> ProminenceResult:
    """Full unsupervised labeling pipeline for one utterance.

    Deterministic for a fixed config; component errors propagate with the
    utterance id attached.
    """
    try:
        w = dsp.read_wav(wav_path)
        frame_rate = cfg.frame.frame_rate
        energy = dsp.frame_energy(w, cfg.frame)
        f0 = dsp.interpolate_unvoiced(dsp.decimated_f0(w, cfg.frame))
        logf0 = dsp.ProsodicTrack(
            values=np.log(f0.values), frame_rate=frame_rate, kind="f0_hz"
        )
        dur = dsp.duration_signal(utt, frame_rate)
        fused = combine(zscore(logf0), zscore(energy), zscore(dur), cfg.weights)
        # scales 0..hi only: the band alone decides what is computed
        sc = cwt_ricker(fused, num_scales=cfg.band[1] + 1, **vars(cfg.wavelet))
        scores = prominence_scores(sc, utt, cfg.band)
        labels = quantize(scores, cfg.threshold_sigma, utterance_id=utt.id)
    except ProsemphError as exc:
        raise type(exc)(f"{utt.id}: {exc}") from exc
    return ProminenceResult(scores=scores, labels=labels)
