#!/usr/bin/env python3
"""Walk through the unsupervised emphasis-labeling pipeline on synthetic audio.

A five-character utterance is synthesized as a sine carrier; character 3 gets
the canonical prominence bump (+4 semitones, +6 dB, 1.6x duration). The script
then runs every stage explicitly — framing, F0 tracking, duration signal,
z-scoring, combination, wavelet analysis, per-character scoring, quantization —
and prints what each stage produced.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from prosemph import corpus, dsp, prominence

# the demo utterance is short relative to the largest analysis scale, which
# the library flags; harmless here
warnings.simplefilter("ignore", prominence.LargeScaleTruncatedWarning)

SR = 24000
EMPHASIZED = 3


def synthesize():
    durs = np.array([0.25, 0.25, 0.25, 0.25, 0.25])
    f0s = np.array([220.0] * 5)
    amps = np.array([0.3] * 5)
    durs[EMPHASIZED] *= 1.6
    f0s[EMPHASIZED] *= 2 ** (4 / 12)
    amps[EMPHASIZED] *= 10 ** (6 / 20)
    pieces, times = [], []
    phase, t = 0.0, 0.0
    for d, f, a in zip(durs, f0s, amps):
        n = int(round(d * SR))
        ph = phase + 2 * np.pi * f / SR * np.arange(n)
        pieces.append(a * np.sin(ph))
        phase = ph[-1] + 2 * np.pi * f / SR
        times.append((t, t + n / SR))
        t += n / SR
    utt = corpus.Utterance(
        id="demo",
        chars=tuple("abcde"),
        word_spans=tuple((i, i + 1) for i in range(5)),
        phones_per_char=(1,) * 5,
        char_times=tuple(times),
    )
    return utt, np.concatenate(pieces)


def main():
    utt, wav = synthesize()
    print(f"synthesized {utt.char_times[-1][1]:.2f}s utterance, "
          f"emphasis injected on char index {EMPHASIZED} "
          f"({utt.chars[EMPHASIZED]!r})\n")

    frame_cfg = dsp.FrameConfig()
    w = dsp.Waveform(wav, SR)

    energy = dsp.frame_energy(w, frame_cfg)
    print(f"energy track: {len(energy.values)} frames at "
          f"{energy.frame_rate:.0f} Hz, range "
          f"[{energy.values.min():.1f}, {energy.values.max():.1f}] dB")

    f0 = dsp.interpolate_unvoiced(dsp.estimate_f0(w, frame_cfg))
    print(f"F0 track: median {np.median(f0.values):.1f} Hz, "
          f"max {f0.values.max():.1f} Hz (emphasized char is +4 semitones)")

    dur = dsp.duration_signal(utt, energy.frame_rate)
    print(f"duration signal: {len(dur.values)} frames, "
          f"{len(set(np.round(dur.values, 6)))} distinct levels\n")

    # Each cue is z-scored so a unit means one standard deviation, then the
    # three cues are summed with equal weight.
    log_f0 = dsp.ProsodicTrack(np.log(f0.values), f0.frame_rate, "f0_hz")
    combined = prominence.combine(
        prominence.zscore(energy),
        prominence.zscore(log_f0),
        prominence.zscore(dur),
        prominence.CombineWeights(),
    )
    print(f"combined z-track: {len(combined.values)} frames, "
          f"peak {combined.values.max():.2f} sigma")

    cfg = prominence.ProminenceConfig()
    # label computes only the scales up to the top of the scored band
    scalogram = prominence.cwt_ricker(
        combined, cfg.band[1] + 1, cfg.wavelet.scales_per_octave,
        cfg.wavelet.base_scale_frames,
    )
    print(f"scalogram: {scalogram.coefficients.shape[0]} scales x "
          f"{scalogram.coefficients.shape[1]} frames, scales "
          f"{scalogram.scales_frames[0]:.0f}..{scalogram.scales_frames[-1]:.0f} "
          f"frames")

    scores = prominence.prominence_scores(scalogram, utt, cfg.band)
    labels = prominence.quantize(scores, cfg.threshold_sigma, utt.id)
    print("\nper-character results:")
    print(f"  {'char':>5} {'score':>8} {'label':>6} {'confidence':>11}")
    for ch, s, l, c in zip(utt.chars, scores, labels.labels, labels.confidences):
        marker = "  <-- injected" if l else ""
        print(f"  {ch:>5} {s:8.3f} {l:6d} {c:11.3f}{marker}")

    # The one-call entry point reproduces the same labels from a WAV file.
    with tempfile.TemporaryDirectory() as td:
        p = Path(td) / "demo.wav"
        wavfile.write(p, SR, wav.astype(np.float32))
        res = prominence.label_utterance(p, utt, cfg)
    assert res.labels.labels == labels.labels
    print("\nlabel_utterance() on the WAV file reproduces the same labels.")


if __name__ == "__main__":
    main()
