#!/usr/bin/env python3
"""Build phone-level conditioning tensors for one annotated utterance.

Shows the three-way linguistic embedding (dependency relation + POS +
projected semantics, all expanded to phone resolution), the binary emphasis
embedding, and the bit-exact binary container round trip.
"""

import tempfile
from pathlib import Path

import numpy as np

from prosemph import conditioning, corpus, embeddings
from prosemph.graph import graph2relation
from prosemph.tagset import default_tagset

COND_DIM = 16
EMPH_DIM = 4
SEM_DIM = 8


def main():
    tagset = default_tagset()
    # "红花 开 了": adjective-modified noun subject, verb root, particle
    utt = corpus.Utterance(
        id="demo",
        chars=("红", "花", "开", "了"),
        word_spans=((0, 2), (2, 3), (3, 4)),
        phones_per_char=(2, 2, 2, 1),
        char_times=((0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.7)),
    )
    ann = corpus.DepAnnotation(
        utterance_id="demo",
        pos_tags=(tagset.pos["n"], tagset.pos["v"], tagset.pos["u"]),
        heads=(1, None, 1),
        relations=(tagset.rel["SBV"], tagset.root_id, tagset.rel["RAD"]),
    )
    labels = corpus.EmphasisLabels("demo", (1, 1, 0, 0), (1.0,) * 4, "human")

    rel_names = {v: k for k, v in tagset.rel.items()}
    rel_names[tagset.root_id] = "ROOT"
    rel_ids = graph2relation(ann, tagset).relation_ids
    print("utterance:", " ".join(
        "".join(utt.chars[s:e]) for s, e in utt.word_spans
    ))
    print("word relations:", [rel_names[r] for r in rel_ids])
    print(f"emphasis labels per char: {labels.labels}\n")

    # the tables `condition --seed 7` draws, for a semantic dim of SEM_DIM
    seed = 7
    tables = conditioning.draw_tables(tagset, SEM_DIM, COND_DIM, EMPH_DIM, seed)
    provider = embeddings.hash_provider(dim=SEM_DIM, seed=seed)

    ling = conditioning.build_linguistic(utt, ann, provider, tables, tagset)
    emph = conditioning.build_emphasis(labels, tables, utt)
    print(f"linguistic matrix: {ling.shape} "
          f"({utt.num_phones} phones x {COND_DIM} dims)")
    print(f"emphasis matrix:   {emph.shape}")

    # Phones of the same word share a linguistic row unless semantics differ
    # per character; phones of the same char always share a row.
    same_char = np.array_equal(ling[0], ling[1])
    print(f"phones 0 and 1 (both char '红') share a row: {same_char}")
    print(f"emphasized chars map to emphasis-table row 1: "
          f"{np.array_equal(emph[0], tables.emph[1])}\n")

    bundle = conditioning.ConditioningBundle(
        utterance_id=utt.id,
        linguistic=ling.astype(np.float32),
        emphasis=emph,
    )
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "demo.cond.bin"
        conditioning.export_bundle(bundle, path)
        size = path.stat().st_size
        back = conditioning.load_bundle(path)
    print(f"container: {size} bytes on disk")
    print(f"round trip bit-exact: "
          f"{np.array_equal(back.linguistic, bundle.linguistic) and np.array_equal(back.emphasis, bundle.emphasis)}")


if __name__ == "__main__":
    main()
