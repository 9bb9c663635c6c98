import dataclasses
import io
import json

import numpy as np
import pytest

from prosemph import cli, corpus
from prosemph.errors import (
    CyclicDependencyError,
    InconsistentAlignmentError,
    MalformedFileError,
    WordCountMismatchError,
)

from synth import random_utterance


def write_json(path, obj):
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")


VALID_UTT = {
    "id": "u1",
    "chars": ["你", "好"],
    "word_spans": [[0, 2]],
    "phones_per_char": [2, 2],
    "char_times": [[0.0, 0.2], [0.2, 0.5]],
}


def test_load_utterance_minimal(tmp_path):
    p = tmp_path / "u1.utt.json"
    write_json(p, VALID_UTT)
    utt = corpus.load_utterance(p)
    assert utt.num_chars == 2
    assert utt.num_words == 1
    assert utt.num_phones == 4


def test_load_utterance_overlapping_spans(tmp_path):
    bad = dict(VALID_UTT, word_spans=[[0, 1], [0, 2]])
    p = tmp_path / "u1.utt.json"
    write_json(p, bad)
    with pytest.raises(InconsistentAlignmentError):
        corpus.load_utterance(p)


def test_load_utterance_phone_count_mismatch(tmp_path):
    bad = dict(VALID_UTT, phones_per_char=[2])
    p = tmp_path / "u1.utt.json"
    write_json(p, bad)
    with pytest.raises(InconsistentAlignmentError):
        corpus.load_utterance(p)


@pytest.mark.parametrize("times", [[[0.0, 0.2], [0.2, float("inf")]],
                                   [[0.0, float("nan")], [0.2, 0.5]]])
def test_load_utterance_non_finite_times(tmp_path, times):
    p = tmp_path / "u1.utt.json"
    write_json(p, dict(VALID_UTT, char_times=times))  # json writes Infinity / NaN
    with pytest.raises(InconsistentAlignmentError):
        corpus.load_utterance(p)


def test_load_utterance_not_json(tmp_path):
    p = tmp_path / "u1.utt.json"
    p.write_text("not json", encoding="utf-8")
    with pytest.raises(MalformedFileError):
        corpus.load_utterance(p)


def test_huge_numbers_are_malformed(tmp_path, tagset):
    # json reads 1e999 as inf, which int() cannot take
    write_json(tmp_path / "u1.utt.json", dict(VALID_UTT, phones_per_char=[2, 1e999]))
    with pytest.raises(MalformedFileError):
        corpus.load_utterance(tmp_path / "u1.utt.json")
    write_json(tmp_path / "u1.ann.json",
               {"utterance_id": "u1", "pos": ["n"], "heads": [1e999], "rels": ["ROOT"]})
    with pytest.raises(MalformedFileError):
        corpus.load_annotation(tmp_path / "u1.ann.json", three_word_utt(), tagset)


@pytest.mark.parametrize("field, value", [
    ("phones_per_char", [2, 3.7]),
    ("phones_per_char", [2, True]),
    ("word_spans", [[0, 2.0]]),
    ("word_spans", [[False, 2]]),
    ("chars", ["你", 1]),
    ("chars", ["你", None]),
    ("heads", [0.9]),
    ("heads", [True]),
    ("char_times", [["0", "0.2"], ["0.2", "0.5"]]),
    ("char_times", [[0, True], [0.2, 0.5]]),
])
def test_corpus_entries_must_be_exact_json_types(tmp_path, tagset, field, value):
    # int() would read 3.7 as 3 and true as 1, float() "0" as 0.0 and true as 1.0,
    # and str() would read 1 as "1"
    if field == "heads":
        path = tmp_path / "u3.ann.json"
        write_json(path, {"utterance_id": "u3", "pos": ["n", "v", "n"],
                          "heads": [1, None, *value], "rels": ["SBV", "ROOT", "VOB"]})
        with pytest.raises(MalformedFileError, match=f"{field}: expected int"):
            corpus.load_annotation(path, three_word_utt(), tagset)
        return
    path = tmp_path / "u1.utt.json"
    write_json(path, dict(VALID_UTT, **{field: value}))
    kind = "str" if field == "chars" else "int"
    with pytest.raises(MalformedFileError, match=f"{field}: expected {kind}"):
        corpus.load_utterance(path)


@pytest.mark.parametrize("field, value", [
    ("id", 7),
    ("utterance_id", 7),
    ("pos", [None, "v", "n"]),
    ("rels", ["SBV", "ROOT", 2]),
])
def test_corpus_strings_must_be_json_strings(tmp_path, tagset, field, value):
    # str() would read 7 as "7", so 7.utt.json declaring the id 7 would load,
    # and None as "None", an unknown POS tag
    if field == "id":
        path = tmp_path / "7.utt.json"
        write_json(path, dict(VALID_UTT, id=value))
        with pytest.raises(MalformedFileError, match="id: expected str, got 7"):
            corpus.load_item_utterance(tmp_path, "7")
        return
    path = tmp_path / "7.ann.json"
    ann = {"utterance_id": "7", "pos": ["n", "v", "n"], "heads": [1, None, 1],
           "rels": ["SBV", "ROOT", "VOB"]}
    write_json(path, dict(ann, **{field: value}))
    utt = dataclasses.replace(three_word_utt(), id="7")
    with pytest.raises(MalformedFileError, match=f"{field}: expected str"):
        corpus.load_annotation(path, utt, tagset)


@pytest.mark.parametrize("span", [[0, 1, 2], [0], 2])
def test_word_span_that_is_not_a_pair_is_malformed(tmp_path, span):
    path = tmp_path / "u1.utt.json"
    write_json(path, dict(VALID_UTT, word_spans=[span]))
    with pytest.raises(MalformedFileError):
        corpus.load_utterance(path)


def three_word_utt():
    return corpus.Utterance(
        id="u3",
        chars=("a", "b", "c"),
        word_spans=((0, 1), (1, 2), (2, 3)),
        phones_per_char=(1, 1, 1),
        char_times=((0, 0.1), (0.1, 0.2), (0.2, 0.3)),
    )


def test_load_annotation_valid(tmp_path, tagset):
    utt = three_word_utt()
    p = tmp_path / "u3.ann.json"
    write_json(p, {"utterance_id": "u3", "pos": ["n", "v", "n"],
                   "heads": [1, None, 1], "rels": ["SBV", "ROOT", "VOB"]})
    ann = corpus.load_annotation(p, utt, tagset)
    assert ann.root_words() == [1]
    assert ann.relations[0] == tagset.rel["SBV"]


def test_load_annotation_cycle(tmp_path, tagset):
    utt = corpus.Utterance(
        id="u2", chars=("a", "b"), word_spans=((0, 1), (1, 2)),
        phones_per_char=(1, 1), char_times=((0, 0.1), (0.1, 0.2)),
    )
    p = tmp_path / "u2.ann.json"
    write_json(p, {"utterance_id": "u2", "pos": ["n", "v"],
                   "heads": [1, 0], "rels": ["SBV", "VOB"]})
    with pytest.raises(CyclicDependencyError):
        corpus.load_annotation(p, utt, tagset)


def test_load_annotation_word_count_mismatch(tmp_path, tagset):
    utt = three_word_utt()
    p = tmp_path / "u3.ann.json"
    write_json(p, {"utterance_id": "u3", "pos": ["n", "v"],
                   "heads": [1, None], "rels": ["SBV", "ROOT"]})
    with pytest.raises(WordCountMismatchError):
        corpus.load_annotation(p, utt, tagset)


@pytest.mark.parametrize("reserved", ["ROOT", "BOS", "EOS", "SEQ"])
def test_dependent_word_with_a_reserved_relation_is_malformed(tmp_path, tagset, reserved):
    # the character graph would send the dependency through the matrices of
    # its own ROOT, sentence-boundary or intra-word edges
    p = tmp_path / "u3.ann.json"
    write_json(p, {"utterance_id": "u3", "pos": ["n", "v", "n"],
                   "heads": [1, None, 1], "rels": ["SBV", "ROOT", reserved]})
    with pytest.raises(MalformedFileError,
                       match=f"^u3: dependent word 2 carries the reserved relation {reserved}$"):
        corpus.load_annotation(p, three_word_utt(), tagset)


def test_labels_roundtrip(tmp_path):
    lab = corpus.EmphasisLabels("u1", (0, 1, 0), (0.2, 0.9, 0.1), "pseudo")
    p = tmp_path / "u1.lab.tsv"
    corpus.save_labels(lab, p)
    back = corpus.load_labels(p, "u1")
    assert back.labels == lab.labels
    assert back.source == "pseudo"
    assert back.confidences == pytest.approx(lab.confidences)


def test_utterance_roundtrip(tmp_path, rng, tiny_utt):
    for utt in [tiny_utt, *(random_utterance(rng) for _ in range(20))]:
        p = tmp_path / "rnd.utt.json"
        corpus.save_utterance(utt, p)
        assert corpus.load_utterance(p) == utt
        assert p.read_bytes() == json_dump_bytes(p)


def test_annotation_roundtrip(tmp_path, tagset, tiny_utt, tiny_ann):
    p = tmp_path / "u1.ann.json"
    corpus.save_annotation(tiny_ann, tagset, p)
    assert corpus.load_annotation(p, tiny_utt, tagset) == tiny_ann
    assert p.read_bytes() == json_dump_bytes(p)


def json_dump_bytes(path):
    """The bytes json.dump writes for the object in path, as the corpus writers
    call it, with a final newline."""
    f = io.StringIO()
    json.dump(json.loads(path.read_text(encoding="utf-8")), f, ensure_ascii=False)
    return (f.getvalue() + "\n").encode("utf-8")


# -- forest acceptance property ---------------------------------------------


def brute_force_is_forest(heads):
    """Independent check: acyclic head graph with at least one root."""
    n = len(heads)
    if not any(h is None for h in heads):
        return False
    for start in range(n):
        w, hops = start, 0
        while heads[w] is not None:
            w = heads[w]
            hops += 1
            if hops > n:
                return False
    return True


def test_annotation_accepts_iff_forest(tagset, rng):
    for _ in range(300):
        n = int(rng.integers(1, 9))
        heads = []
        for w in range(n):
            cand = [None] + [x for x in range(n) if x != w]
            heads.append(cand[int(rng.integers(0, len(cand)))])
        utt = corpus.Utterance(
            id="f", chars=tuple("x" * n), word_spans=tuple((i, i + 1) for i in range(n)),
            phones_per_char=(1,) * n,
            char_times=tuple((i * 0.1, (i + 1) * 0.1) for i in range(n)),
        )
        rels = tuple(
            tagset.root_id if h is None else tagset.rel["ATT"] for h in heads
        )
        ann = corpus.DepAnnotation("f", (tagset.pos["n"],) * n, tuple(heads), rels)
        if brute_force_is_forest(heads):
            ann.validate(utt, tagset)
        else:
            with pytest.raises(CyclicDependencyError):
                ann.validate(utt, tagset)


# -- corpus validation -------------------------------------------------------


def write_valid_set(d, uid, tagset):
    write_json(d / f"{uid}.utt.json", dict(VALID_UTT, id=uid))
    write_json(d / f"{uid}.ann.json",
               {"utterance_id": uid, "pos": ["n"], "heads": [None], "rels": ["ROOT"]})


def validate(corpus_dir, out):
    """Run `validate --out`; its exit code and validation.json entries."""
    rc = cli.main(["validate", "--corpus", str(corpus_dir), "--out", str(out)])
    return rc, json.loads((out / "validation.json").read_text(encoding="utf-8"))


def test_validate_corpus_all_pass(tmp_path, tagset, capsys):
    for uid in ("a", "b", "c"):
        write_valid_set(tmp_path, uid, tagset)
    rc, entries = validate(tmp_path, tmp_path / "out")
    assert rc == 0 and len(entries) == 3 and all(e["ok"] for e in entries)
    assert capsys.readouterr().out.endswith("3 pass, 0 fail\n")


def test_validate_corpus_missing_annotation(tmp_path, tagset):
    write_valid_set(tmp_path, "a", tagset)
    write_json(tmp_path / "b.utt.json", dict(VALID_UTT, id="b"))
    rc, entries = validate(tmp_path, tmp_path / "out")
    failing = {e["utterance_id"]: e["failure"] for e in entries if not e["ok"]}
    assert rc == 1
    assert failing == {"b": f"MalformedFileError: {tmp_path / 'b.ann.json'}: no such file"}


def test_validate_corpus_declared_id_mismatch(tmp_path, tagset):
    write_valid_set(tmp_path, "a", tagset)
    write_valid_set(tmp_path, "b", tagset)
    write_json(tmp_path / "b.utt.json", dict(VALID_UTT, id="zz"))
    rc, entries = validate(tmp_path, tmp_path / "out")
    failing = {e["utterance_id"]: e["failure"] for e in entries if not e["ok"]}
    assert rc == 1
    assert failing == {"b": "MalformedFileError: b.utt.json declares id 'zz'"}


def test_validate_corpus_empty_dir(tmp_path, tagset, capsys):
    rc, entries = validate(tmp_path, tmp_path / "out")
    assert rc == 0 and entries == []
    assert capsys.readouterr().out == "0 pass, 0 fail\n"


def test_validate_corpus_bad_labels(tmp_path, tagset, capsys):
    write_valid_set(tmp_path, "a", tagset)
    (tmp_path / "a.lab.tsv").write_text("#source=pseudo\n0\t1\t0.9\n", encoding="utf-8")
    rc, entries = validate(tmp_path, tmp_path / "out")
    assert rc == 1 and [e["ok"] for e in entries] == [False]  # 1 label row, 2 chars
    assert capsys.readouterr().out.endswith("0 pass, 1 fail\n")
