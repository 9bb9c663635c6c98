import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosemph import corpus, dsp, prominence
from prosemph.errors import BandOutOfRangeError, FrameRateMismatchError

from synth import short_audio, synth_utterance, write_wav


def track(values, fr=100.0, kind="zscore"):
    return dsp.ProsodicTrack(np.asarray(values, dtype=float), fr, kind)


def test_zscore_closed_form():
    out = prominence.zscore(track([1.0, 2.0, 3.0], kind="energy_db"))
    assert out.values == pytest.approx([-1.224744871, 0.0, 1.224744871])


def test_zscore_constant_is_zero():
    out = prominence.zscore(track([5.0] * 10, kind="energy_db"))
    assert np.all(out.values == 0)


def test_zscore_idempotent(rng):
    t = track(rng.normal(size=100), kind="energy_db")
    once = prominence.zscore(t)
    twice = prominence.zscore(once)
    assert once.values == pytest.approx(twice.values)


def test_combine_projection(rng):
    a = track(rng.normal(size=20))
    zero = track(np.zeros(20))
    out = prominence.combine(a, zero, zero, prominence.CombineWeights(1, 0, 0))
    assert out.values == pytest.approx(a.values)


def test_combine_cancellation(rng):
    a = track(rng.normal(size=20))
    neg = track(-a.values)
    zero = track(np.zeros(20))
    out = prominence.combine(a, neg, zero, prominence.CombineWeights(1, 1, 1))
    assert np.max(np.abs(out.values)) < 1e-12


def test_combine_linearity():
    ones = track(np.ones(2))
    out = prominence.combine(ones, ones, ones, prominence.CombineWeights(2, 1, 1))
    assert out.values == pytest.approx([4, 4])


def test_combine_frame_rate_mismatch():
    with pytest.raises(FrameRateMismatchError):
        prominence.combine(
            track(np.ones(4), fr=100), track(np.ones(4), fr=50),
            track(np.ones(4), fr=100), prominence.CombineWeights(),
        )


def test_combine_truncates_to_min():
    out = prominence.combine(
        track(np.ones(10)), track(np.ones(8)), track(np.ones(9)),
        prominence.CombineWeights(1, 1, 1),
    )
    assert len(out.values) == 8


# -- CWT ---------------------------------------------------------------------


def test_cwt_annihilates_constants():
    sc = prominence.cwt_ricker(track(np.full(300, 3.7)), num_scales=8)
    assert np.max(np.abs(sc.coefficients)) <= 1e-6


def test_cwt_linearity(rng):
    x = rng.normal(size=200)
    y = rng.normal(size=200)
    a, b = 0.7, -1.3
    cx = prominence.cwt_ricker(track(x), num_scales=6).coefficients
    cy = prominence.cwt_ricker(track(y), num_scales=6).coefficients
    cxy = prominence.cwt_ricker(track(a * x + b * y), num_scales=6).coefficients
    assert np.max(np.abs(cxy - (a * cx + b * cy))) < 1e-9


def test_cwt_impulse_symmetry():
    x = np.zeros(301)
    k = 150
    x[k] = 1.0
    sc = prominence.cwt_ricker(track(x), num_scales=8)
    for row in sc.coefficients:
        assert int(np.argmax(np.abs(row))) == k


def brute_force_response(x, scale):
    """Independent direct convolution with the Ricker formula."""
    half = max(1, int(math.ceil(4 * scale)))
    t = np.arange(-half, half + 1, dtype=float)
    u = t / scale
    psi = (2 / (math.sqrt(3 * scale) * math.pi**0.25)) * (1 - u**2) * np.exp(-u**2 / 2)
    psi = psi / math.sqrt(np.sum(psi**2))
    xm = x - x.mean()
    best = 0.0
    for center in range(len(x)):
        acc = 0.0
        for j, w in enumerate(psi):
            idx = center + j - half
            if 0 <= idx < len(x):
                acc += w * xm[idx]
        best = max(best, abs(acc))
    return best


def test_cwt_cosine_scale_localization():
    period = 24.0  # frames
    n = 400
    x = np.cos(2 * np.pi * np.arange(n) / period)
    sc = prominence.cwt_ricker(track(x), num_scales=12, scales_per_octave=2,
                               base_scale_frames=2.0)
    interior = slice(n // 4, 3 * n // 4)
    row_peak = np.max(np.abs(sc.coefficients[:, interior]), axis=1)
    got_scale = sc.scales_frames[int(np.argmax(row_peak))]
    # dense-sweep oracle over the same scale range
    dense = np.geomspace(sc.scales_frames[0], sc.scales_frames[-1], 60)
    responses = [brute_force_response(x[:150], s) for s in dense]
    oracle_scale = dense[int(np.argmax(responses))]
    step = 2 ** (1 / 2)  # one scale step at 2 scales per octave
    assert got_scale / oracle_scale < step * 1.0001
    assert oracle_scale / got_scale < step * 1.0001


def test_cwt_warns_on_short_track():
    with pytest.warns(prominence.LargeScaleTruncatedWarning):
        prominence.cwt_ricker(track(np.random.default_rng(0).normal(size=50)),
                              num_scales=12)


def test_cwt_white_noise_unit_row_variance(rng):
    # energy normalization: each row of unit-variance noise has ~unit variance
    x = rng.normal(size=200000)
    sc = prominence.cwt_ricker(track(x), num_scales=4, base_scale_frames=4.0)
    for row in sc.coefficients:
        assert row.var() == pytest.approx(1.0, rel=0.05)


@short_audio
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 400), st.integers(1, 10), st.integers(1, 4), st.integers(2, 4),
       st.floats(0.5, 6.0), st.integers(0, 2**32 - 1))
def test_cwt_rows_do_not_depend_on_num_scales(n, k, extra, spo, base, seed):
    # label computes only scales 0..hi, so each row must keep its bytes
    # whatever the number of scales computed after it
    x = track(np.random.default_rng(seed).normal(size=n))
    few = prominence.cwt_ricker(x, k, scales_per_octave=spo, base_scale_frames=base)
    many = prominence.cwt_ricker(x, k + extra, scales_per_octave=spo,
                                 base_scale_frames=base)
    assert few.coefficients.tobytes() == many.coefficients[:k].tobytes()
    assert few.scales_frames.tobytes() == many.scales_frames[:k].tobytes()


@pytest.mark.parametrize("n", [1, 7, 40, 100, 300, 726, 727, 900])
def test_cwt_rows_are_zero_padded_direct_sums(n):
    # the kernels of scales 0..9 have 33 to 727 taps: n runs from shorter
    # than all of them to longer than all of them
    t = track(np.random.default_rng(n).normal(size=n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", prominence.LargeScaleTruncatedWarning)
        sc = prominence.cwt_ricker(t, num_scales=10)
    x = t.values - t.values.mean()
    for row, s in zip(sc.coefficients, sc.scales_frames):
        k = prominence.ricker_kernel(s)
        h = (len(k) - 1) // 2
        padded = np.concatenate([np.zeros(h), x, np.zeros(h)])
        # row[i] = sum_j x[i + h - j] k[j], x zero outside the track
        want = np.array([padded[i : i + len(k)] @ k[::-1] for i in range(n)])
        assert np.allclose(row, want, rtol=1e-12, atol=1e-12)
        if n >= len(k):
            assert row.tobytes() == np.convolve(x, k, "same").tobytes()


def test_widest_scored_scale_is_bounded():
    prominence.ProminenceConfig(band=(2, 16))  # 4 * 2^(16/2) = 1024 frames
    for kw in ({"band": (2, 17)}, {"band": (2, 5000)},
               {"wavelet": prominence.WaveletConfig(base_scale_frames=1e9)}):
        with pytest.raises(ValueError, match="wider than 1024"):
            prominence.ProminenceConfig(**kw)
    with pytest.raises(ValueError, match="0 <= lo <= hi"):
        prominence.ProminenceConfig(band=(5, 4))
    # 4 * 2^(26/4) = 362 frames
    prominence.ProminenceConfig(wavelet=prominence.WaveletConfig(scales_per_octave=4),
                                band=(2, 26))


def test_label_warns_against_the_widest_scored_scale(tmp_path):
    # 20 chars of about 0.25 s: about 500 frames, more than 4x the widest
    # scored scale (scale 9, 90.5 frames) but less than 4x scale 11
    utt, wav = synth_utterance("long", np.random.default_rng(5), num_chars=20,
                               emphasized=7)
    write_wav(tmp_path / "long.wav", wav)
    with warnings.catch_warnings():
        warnings.simplefilter("error", prominence.LargeScaleTruncatedWarning)
        res = prominence.label_utterance(tmp_path / "long.wav", utt,
                                         prominence.ProminenceConfig())
    assert res.labels.labels[7] == 1


# -- per-character scoring ---------------------------------------------------


def five_char_utt():
    return corpus.Utterance(
        id="p", chars=tuple("abcde"), word_spans=tuple((i, i + 1) for i in range(5)),
        phones_per_char=(1,) * 5,
        char_times=tuple((i * 0.2, (i + 1) * 0.2) for i in range(5)),
    )


def scalogram(coeffs, fr=100.0):
    k = coeffs.shape[0]
    return prominence.Scalogram(
        coefficients=coeffs, scales_frames=np.arange(1, k + 1, dtype=float),
        frame_rate=fr,
    )


def test_prominence_scores_all_zero():
    sc = scalogram(np.zeros((3, 100)))
    scores = prominence.prominence_scores(sc, five_char_utt(), (0, 2))
    assert scores == pytest.approx(np.zeros(5))


def test_prominence_scores_locality():
    c = np.zeros((3, 100))
    c[1, 45] = 2.5  # inside char 2's span [0.4, 0.6)
    scores = prominence.prominence_scores(scalogram(c), five_char_utt(), (0, 2))
    assert int(np.argmax(scores)) == 2


def test_prominence_scores_symmetry():
    c = np.zeros((3, 100))
    c[0, 10] = 1.5  # char 0
    c[0, 70] = 1.5  # char 3
    scores = prominence.prominence_scores(scalogram(c), five_char_utt(), (0, 2))
    assert abs(scores[0] - scores[3]) < 1e-9


def test_prominence_scores_band_out_of_range():
    with pytest.raises(BandOutOfRangeError):
        prominence.prominence_scores(scalogram(np.zeros((3, 100))),
                                     five_char_utt(), (0, 5))


def test_quantize_single_outlier():
    lab = prominence.quantize(np.array([0.0, 0, 10, 0]), 1.0)
    assert lab.labels == (0, 0, 1, 0)
    assert lab.source == "pseudo"


def test_quantize_constant_scores():
    lab = prominence.quantize(np.array([2.0, 2, 2]), 1.0)
    assert lab.labels == (0, 0, 0)


def test_quantize_boundary_confidence():
    # scores whose z-values are exactly [-1, ..., +1]*k; pick one at threshold
    scores = np.array([0.0, 2.0])  # z = [-1, +1]
    lab = prominence.quantize(scores, 1.0)
    assert lab.labels == (0, 1)
    assert lab.confidences[1] == pytest.approx(0.5)


def test_quantize_monotone_in_threshold(rng):
    scores = rng.normal(size=30)
    counts = []
    for sigma in (0.0, 0.5, 1.0, 1.5, 2.0):
        counts.append(sum(prominence.quantize(scores, sigma).labels))
    assert counts == sorted(counts, reverse=True)


# -- end-to-end --------------------------------------------------------------


@short_audio
def test_label_utterance_injected_prominence(tmp_path):
    rng = np.random.default_rng(5)
    utt, wav = synth_utterance("inj", rng, emphasized=3)
    p = tmp_path / "inj.wav"
    write_wav(p, wav)
    res = prominence.label_utterance(p, utt, prominence.ProminenceConfig())
    assert res.labels.labels == (0, 0, 0, 1, 0)


@short_audio
def test_label_utterance_flat_monotone(tmp_path):
    rng = np.random.default_rng(5)
    utt, wav = synth_utterance("flat", rng, emphasized=None, jitter=False)
    p = tmp_path / "flat.wav"
    write_wav(p, wav)
    res = prominence.label_utterance(p, utt, prominence.ProminenceConfig())
    assert res.labels.labels == (0,) * 5


@short_audio
def test_label_utterance_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    utt, wav = synth_utterance("det", rng, emphasized=1)
    p = tmp_path / "det.wav"
    write_wav(p, wav)
    cfg = prominence.ProminenceConfig()
    a = prominence.label_utterance(p, utt, cfg)
    b = prominence.label_utterance(p, utt, cfg)
    assert np.array_equal(a.scores, b.scores)
    assert a.labels == b.labels


def test_label_utterance_memory_stays_near_the_waveform(tmp_path):
    # 15 s at 24 kHz: a 2.75 MiB float64 waveform; no temporary of frames x
    # frame length (13 MB in float64) may be made
    utt, wav = synth_utterance("long", np.random.default_rng(3), num_chars=60)
    assert len(wav) >= 15 * 24000
    p = tmp_path / "long.wav"
    write_wav(p, wav)
    tracemalloc.start()
    try:
        prominence.label_utterance(p, utt, prominence.ProminenceConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_scale_shift_invariance_of_labels(rng):
    # a*v + b on the combined track leaves quantized labels unchanged
    utt = five_char_utt()
    v = rng.normal(size=100)
    for a, b in ((2.5, 1.0), (0.3, -4.0)):
        sc1 = prominence.cwt_ricker(track(v), num_scales=6)
        sc2 = prominence.cwt_ricker(track(a * v + b), num_scales=6)
        s1 = prominence.prominence_scores(sc1, utt, (0, 5))
        s2 = prominence.prominence_scores(sc2, utt, (0, 5))
        assert prominence.quantize(s1, 1.0).labels == prominence.quantize(s2, 1.0).labels


def test_label_count_includes_zero_length_spans():
    utt = corpus.Utterance(
        id="z", chars=("a", "b", "c"), word_spans=((0, 1), (1, 2), (2, 3)),
        phones_per_char=(1, 1, 1),
        char_times=((0.0, 0.3), (0.3, 0.3), (0.3, 0.6)),  # char 1 zero-length
    )
    sc = scalogram(np.random.default_rng(1).normal(size=(3, 60)))
    scores = prominence.prominence_scores(sc, utt, (0, 2))
    assert len(scores) == 3
    assert np.isfinite(scores).all()
    assert len(prominence.quantize(scores, 1.0).labels) == 3
