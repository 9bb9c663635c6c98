"""Seeded input generators for the benchmark workloads.

The seed changes content only: pitch, energy and timing jitter, which
character is prominent, the characters, tags and tree shape.  The amount
of work is fixed by the utterance index (characters per utterance, words
and their lengths, phones per character), so runs with different seeds
measure the same load.
"""

from __future__ import annotations

import numpy as np
from scipy.io import wavfile

from prosemph import corpus
from prosemph.tagset import Tagset

SR = 24000
CHAR_SEC = 0.25  # nominal character duration of the synthetic speech

# ---------------------------------------------------------------------------
# audio: sine-carrier speech with one injected prominent character


def audio_lengths(count: int) -> list[int]:
    """Characters per utterance, geometric from 4 (~1 s of audio) to 60
    (~15 s)."""
    steps = np.arange(count) / max(count - 1, 1)
    return [int(round(4 * 15.0 ** f)) for f in steps]


def audio_utterance(uid: str, rng, num_chars: int, emphasized: int):
    """One utterance with its waveform at SR Hz.

    Every character carries a sine at ~220 Hz for ~0.25 s with small pitch,
    energy and duration jitter; the emphasized one is raised by 4
    semitones and 6 dB and lengthened 1.6x.
    """
    durs = CHAR_SEC * rng.uniform(0.95, 1.05, num_chars)
    f0s = 220.0 * 2 ** (rng.uniform(-0.5, 0.5, num_chars) / 12)
    amps = 0.3 * 10 ** (rng.uniform(-0.5, 0.5, num_chars) / 20)
    durs[emphasized] *= 1.6
    f0s[emphasized] *= 2 ** (4 / 12)
    amps[emphasized] *= 10 ** (6 / 20)
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
        id=uid,
        chars=tuple(chr(0x4E00 + i) for i in range(num_chars)),
        word_spans=tuple((i, i + 1) for i in range(num_chars)),
        phones_per_char=(1,) * num_chars,
        char_times=tuple(times),
    )
    return utt, np.concatenate(pieces)


def write_audio_corpus(corpus_dir, wav_dir, count: int, seed: int) -> dict:
    """Writes <id>.utt.json and <id>.wav; returns {id: (Utterance,
    emphasized index, audio seconds)}."""
    rng = np.random.default_rng(seed)
    truth = {}
    for i, n in enumerate(audio_lengths(count)):
        uid = f"a{i:03d}"
        emphasized = int(rng.integers(0, n))
        utt, wav = audio_utterance(uid, rng, n, emphasized)
        corpus.save_utterance(utt, corpus_dir / f"{uid}.utt.json")
        wavfile.write(wav_dir / f"{uid}.wav", SR, wav.astype(np.float32))
        truth[uid] = (utt, emphasized, len(wav) / SR)
    return truth


# ---------------------------------------------------------------------------
# text: learnable corpus whose gold emphasis is the unique adjective
# attached to the root by ATT

# Word lengths of the four utterance shapes, cycled by index: 6.75 chars
# and 15.5 graph edges per utterance on average.
TEXT_SHAPES = ((2, 1, 2), (1, 2, 1, 2), (1, 2, 1, 2, 1), (2, 1, 2, 1, 2, 1))
_CHAR_POOL = [chr(0x4E00 + i) for i in range(200)]


def text_example(uid: str, rng, tagset: Tagset, word_lens):
    """(Utterance, DepAnnotation, gold EmphasisLabels) for one utterance."""
    adj = tagset.pos["a"]
    non_adj = [tagset.pos[t] for t in ("n", "v", "d", "m", "r")]
    rels = [tagset.rel[r] for r in ("SBV", "VOB", "ADV", "CMP", "COO")]
    lens = [int(x) for x in rng.permutation(word_lens)]
    nw = len(lens)
    root = int(rng.integers(0, nw))
    others = [w for w in range(nw) if w != root]
    rng.shuffle(others)
    target, distractor = others[0], others[1]
    pos, heads, rel_ids = [], [], []
    for w in range(nw):
        if w == root:
            pos.append(int(rng.choice(non_adj)))
            heads.append(None)
            rel_ids.append(tagset.root_id)
        elif w == target:
            pos.append(adj)
            heads.append(root)
            rel_ids.append(tagset.rel["ATT"])
        elif w == distractor:
            # decoy adjective hanging off the target, never via ATT
            pos.append(adj)
            heads.append(target)
            rel_ids.append(int(rng.choice(rels)))
        else:
            pos.append(int(rng.choice(non_adj)))
            heads.append(root)
            rel_ids.append(int(rng.choice(rels)))
    spans, s = [], 0
    for length in lens:
        spans.append((s, s + length))
        s += length
    n = s
    phones = [1 + i % 3 for i in range(n)]
    utt = corpus.Utterance(
        id=uid,
        chars=tuple(rng.choice(_CHAR_POOL) for _ in range(n)),
        word_spans=tuple(spans),
        phones_per_char=tuple(int(x) for x in rng.permutation(phones)),
        char_times=tuple((i * 0.2, (i + 1) * 0.2) for i in range(n)),
    )
    ann = corpus.DepAnnotation(
        utterance_id=uid, pos_tags=tuple(pos), heads=tuple(heads),
        relations=tuple(rel_ids),
    )
    ann.validate(utt, tagset)
    gold = [0] * n
    for c in range(*spans[target]):
        gold[c] = 1
    labels = corpus.EmphasisLabels(uid, tuple(gold), (1.0,) * n, "human")
    return utt, ann, labels


def write_text_corpus(corpus_dir, count: int, seed: int, tagset: Tagset) -> dict:
    """Writes <id>.utt.json, <id>.ann.json and gold <id>.lab.tsv; returns
    {id: (Utterance, gold labels)}."""
    rng = np.random.default_rng(seed)
    truth = {}
    for i in range(count):
        uid = f"u{i:04d}"
        utt, ann, labels = text_example(uid, rng, tagset, TEXT_SHAPES[i % len(TEXT_SHAPES)])
        corpus.save_utterance(utt, corpus_dir / f"{uid}.utt.json")
        corpus.save_annotation(ann, tagset, corpus_dir / f"{uid}.ann.json")
        corpus.save_labels(labels, corpus_dir / f"{uid}.lab.tsv")
        truth[uid] = (utt, labels.labels)
    return truth
