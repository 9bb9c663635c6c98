"""Deterministic synthetic data generators shared across the test suite.

Two families:
  - sine-carrier "speech" with an optionally injected prominent character
    (+4 semitones F0, +6 dB energy, 1.6x duration) for the unsupervised
    labeling pipeline;
  - a dependency-annotated text corpus whose gold emphasis is the unique
    adjective-tagged word attached to the root, for predictor training.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.io import wavfile

from prosemph import corpus
from prosemph.graph import CharGraph, build_char_graph
from prosemph.model import Example
from prosemph.tagset import Tagset

SR = 24000


def synth_utterance(uid: str, rng, num_chars: int = 5, emphasized: int | None = None,
                    jitter: bool = True):
    """Sine-carrier utterance; returns (Utterance, float waveform at 24 kHz)."""
    base_dur, base_f0, base_amp = 0.25, 220.0, 0.3
    durs = np.full(num_chars, base_dur)
    f0s = np.full(num_chars, base_f0)
    amps = np.full(num_chars, base_amp)
    if jitter:
        durs = durs * rng.uniform(0.95, 1.05, num_chars)
        f0s = f0s * 2 ** (rng.uniform(-0.5, 0.5, num_chars) / 12)
        amps = amps * 10 ** (rng.uniform(-0.5, 0.5, num_chars) / 20)
    if emphasized is not None:
        durs[emphasized] *= 1.6
        f0s[emphasized] *= 2 ** (4 / 12)
        amps[emphasized] *= 10 ** (6 / 20)
    pieces = []
    times = []
    phase, t = 0.0, 0.0
    for d, f, a in zip(durs, f0s, amps):
        n = int(round(d * SR))
        ph = phase + 2 * np.pi * f / SR * np.arange(n)
        pieces.append(a * np.sin(ph))
        phase = ph[-1] + 2 * np.pi * f / SR
        times.append((t, t + n / SR))
        t += n / SR
    wav = np.concatenate(pieces)
    chars = tuple(chr(ord("a") + i) for i in range(num_chars))
    utt = corpus.Utterance(
        id=uid,
        chars=chars,
        word_spans=tuple((i, i + 1) for i in range(num_chars)),
        phones_per_char=(1,) * num_chars,
        char_times=tuple(times),
    )
    return utt, wav


def write_wav(path, wav: np.ndarray) -> None:
    wavfile.write(path, SR, wav.astype(np.float32))


# synthetic utterances are short next to the widest scored wavelet scale, so
# labeling them warns by design; tests that label them mark themselves with this
short_audio = pytest.mark.filterwarnings(
    "ignore::prosemph.prominence.LargeScaleTruncatedWarning")


# ---------------------------------------------------------------------------
# learnable text corpus: emphasize the unique adjective attached to the root


_CHAR_POOL = [chr(0x4E00 + i) for i in range(200)]


def gen_learnable_example(uid: str, rng, tagset: Tagset) -> Example:
    adj = tagset.pos["a"]
    non_adj = [tagset.pos[t] for t in ("n", "v", "d", "m", "r")]
    rels = [tagset.rel[r] for r in ("SBV", "VOB", "ADV", "CMP", "COO")]
    nw = int(rng.integers(3, 7))
    lens = rng.integers(1, 3, nw)
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
        spans.append((s, s + int(length)))
        s += int(length)
    n = s
    utt = corpus.Utterance(
        id=uid,
        chars=tuple(rng.choice(_CHAR_POOL) for _ in range(n)),
        word_spans=tuple(spans),
        phones_per_char=tuple(int(x) for x in rng.integers(1, 4, n)),
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
    return Example(utt=utt, ann=ann, labels=labels)


def gen_learnable_corpus(count: int, seed: int, tagset: Tagset) -> list[Example]:
    rng = np.random.default_rng(seed)
    return [gen_learnable_example(f"u{i:04d}", rng, tagset) for i in range(count)]


def strip_dependency_edges(g: CharGraph, tagset: Tagset) -> CharGraph:
    """Keep only SEQ/BOS/EOS edges (the structure-ablation condition)."""
    keep = np.isin(g.edges[:, 2], (tagset.seq_id, tagset.bos_id, tagset.eos_id))
    return CharGraph(num_nodes=g.num_nodes, edges=g.edges[keep])


def with_graphs(examples: list[Example], tagset: Tagset, ablated: bool = False):
    for ex in examples:
        g = build_char_graph(ex.utt, ex.ann, tagset)
        ex.graph = strip_dependency_edges(g, tagset) if ablated else g
    return examples


def random_utterance(rng, num_words=None, max_word_len=3, max_phones=3):
    """Random structurally valid utterance for property tests."""
    if num_words is None:
        num_words = int(rng.integers(1, 6))
    lens = [int(rng.integers(1, max_word_len + 1)) for _ in range(num_words)]
    spans, s = [], 0
    for length in lens:
        spans.append((s, s + length))
        s += length
    n = s
    return corpus.Utterance(
        id="rnd",
        chars=tuple(chr(ord("A") + (i % 26)) for i in range(n)),
        word_spans=tuple(spans),
        phones_per_char=tuple(int(x) for x in rng.integers(1, max_phones + 1, n)),
        char_times=tuple((i * 0.1, (i + 1) * 0.1) for i in range(n)),
    )


# one "[criterion N] PASS/FAIL" line per acceptance criterion, emitted after
# the run so pytest's output capture cannot swallow them
ACCEPTANCE_LINES: list[str] = []
