#!/usr/bin/env python3
"""Train the graph-based emphasis predictor on a small synthetic text corpus.

The corpus follows a deterministic rule the model can discover from structure
alone: the emphasized word is the unique adjective whose dependency head is
the root. The script trains briefly, evaluates on held-out utterances, and
shows confidence-based filtering of the predictions.
"""

import numpy as np

from prosemph import corpus, embeddings, metrics, model as M
from prosemph.graph import build_char_graph
from prosemph.tagset import default_tagset

CHAR_POOL = [chr(0x4E00 + i) for i in range(200)]


def make_example(uid, rng, tagset):
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
    utt = corpus.Utterance(
        id=uid,
        chars=tuple(rng.choice(CHAR_POOL) for _ in range(s)),
        word_spans=tuple(spans),
        phones_per_char=tuple(int(x) for x in rng.integers(1, 4, s)),
        char_times=tuple((i * 0.2, (i + 1) * 0.2) for i in range(s)),
    )
    ann = corpus.DepAnnotation(uid, tuple(pos), tuple(heads), tuple(rel_ids))
    gold = [0] * s
    for c in range(*spans[target]):
        gold[c] = 1
    lab = corpus.EmphasisLabels(uid, tuple(gold), (1.0,) * s, "human")
    # built once here: training builds a missing graph at every step
    return M.Example(utt=utt, ann=ann, labels=lab, graph=build_char_graph(utt, ann, tagset))


def main():
    tagset = default_tagset()
    rng = np.random.default_rng(0)
    data = [make_example(f"u{i:03d}", rng, tagset) for i in range(120)]
    train_set, test_set = data[:100], data[100:]
    print(f"corpus: {len(train_set)} train / {len(test_set)} held-out "
          f"utterances; rule: emphasize the adjective attached to the root\n")

    provider = embeddings.hash_provider(dim=32, seed=0)
    model = M.PredictorModel(
        tagset, provider,
        M.ModelConfig(hidden_dim=32, semantic_dim=32, seed=0),
    )
    cfg = M.TrainConfig(epochs=15, learning_rate=1e-3, batch_size=16, seed=0)
    print(f"training: hidden {model.config.hidden_dim}, "
          f"{model.config.num_iterations} message-passing iterations, "
          f"{cfg.epochs} epochs, lr {cfg.learning_rate}")
    records = M.train(model, train_set, cfg)
    for rec in records[:: max(1, len(records) // 5)]:
        print(f"  epoch {rec['epoch']:3d}  loss {rec['loss']:.4f}")

    labs = model.predict(test_set)
    predicted = {lab.utterance_id: lab for lab in labs}
    gold = {ex.utt.id: ex.labels for ex in test_set}
    m = metrics.evaluate(predicted, gold)
    print(f"\nheld-out: precision {m.precision:.3f}, recall {m.recall:.3f}, "
          f"F {m.f_score:.3f} (tp {m.tp}, fp {m.fp}, fn {m.fn})")

    for tau in (0.5, 0.9, 0.99):
        kept = sum(
            metrics.filter_by_confidence(gold[uid], predicted[uid], tau)
            for uid in gold
        )
        print(f"confidence filter tau={tau:>4}: keeps {kept}/{len(gold)} "
              f"held-out utterances")


if __name__ == "__main__":
    main()
