"""Pinned bytes of the three binary containers; malformed-input handling of
those and of the corpus text files."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosemph import cli, conditioning, corpus, embeddings
from prosemph.codec import Writer
from prosemph.errors import OutputWriteError, ProsemphError
from prosemph.model import ModelConfig, PredictorModel
from prosemph.tagset import default_tagset

# SHA-256 of each container written from the fixed inputs below.  A change
# here changes the on-disk format: bump the container's version instead.
GOLDEN = {
    "pemo": "be058739d1ddd47d0be879bdeae1bcf4abfa0e1c58a9d8fcef23843ae8415e6e",
    "pemb": "62f09b825cd24675c204bdbc934266475b7bec26a1b161f72cd771c9f7425051",
    "pcnd": "32dc46ef4e9146b22b77ab35660d632751b8c8c0f58638e0cdb92be913452fcf",
}


def write_pemo(tagset, path):
    provider = embeddings.hash_provider(dim=8)
    model = PredictorModel(
        tagset, provider,
        ModelConfig(hidden_dim=6, head_hidden=5, semantic_dim=8, seed=3))
    model.save(path)
    return provider


def write_pemb(path):
    store = {
        "u1": embeddings.hash_embedding(("你", "好", "吗"), 8, 0),
        "u2": embeddings.hash_embedding(("a", "b"), 8, 1),
    }
    embeddings.save_semantic(store, 8, path)


def write_pcnd(path):
    bundle = conditioning.ConditioningBundle(
        "utt-42",
        np.arange(12, dtype=np.float32).reshape(3, 4) / 7,
        np.arange(6, dtype=np.float32).reshape(3, 2) - 2.5,
    )
    conditioning.export_bundle(bundle, path)


def write_corpus_item(tagset, d):
    """One item of a corpus, u1.utt.json, u1.ann.json and u1.lab.tsv, in d."""
    d.mkdir()
    utt = corpus.Utterance("u1", ("你", "好", "吗"), ((0, 2), (2, 3)), (2, 2, 1),
                           ((0.0, 0.2), (0.2, 0.4), (0.4, 0.6)))
    ann = corpus.DepAnnotation("u1", (tagset.pos["n"], tagset.pos["v"]), (1, None),
                               (tagset.rel["SBV"], tagset.root_id))
    corpus.save_utterance(utt, d / "u1.utt.json")
    corpus.save_annotation(ann, tagset, d / "u1.ann.json")
    corpus.save_labels(corpus.EmphasisLabels("u1", (0, 1, 0), (0.25, 0.9, 0.125), "pseudo"),
                       d / "u1.lab.tsv")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_bytes(tagset, tmp_path):
    write_pemo(tagset, tmp_path / "m.pemo")
    write_pemb(tmp_path / "s.pemb")
    write_pcnd(tmp_path / "c.pcnd")
    digests = {
        "pemo": sha256(tmp_path / "m.pemo"),
        "pemb": sha256(tmp_path / "s.pemb"),
        "pcnd": sha256(tmp_path / "c.pcnd"),
    }
    assert digests == GOLDEN


def test_writer_floats_bytes(tmp_path):
    """floats writes the little-endian float32 bytes of any array layout."""
    base = np.arange(24, dtype=np.float64).reshape(4, 6) / 7
    arrays = [base, np.asfortranarray(base), base[::2, 1::3],
              base.astype(np.float32)[:, ::-1], np.empty((0, 3)),
              base.astype(">f4")]
    w = Writer(b"TEST", 1)
    for arr in arrays:
        w.floats(arr)
    w.save(tmp_path / "f.bin")
    want = b"".join(np.ascontiguousarray(a, "<f4").tobytes() for a in arrays)
    assert (tmp_path / "f.bin").read_bytes()[8:] == want


# -- malformed input -----------------------------------------------------------


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """kind -> (valid bytes, loader, path the loader reads mutated copies from)."""
    d = tmp_path_factory.mktemp("containers")
    tagset = default_tagset()
    provider = write_pemo(tagset, d / "m.pemo")
    write_pemb(d / "s.pemb")
    write_pcnd(d / "c.pcnd")
    files = {}
    for kind, name in (("utt", "u1.utt.json"), ("ann", "u1.ann.json"), ("lab", "u1.lab.tsv")):
        write_corpus_item(tagset, d / kind)  # own copy: the other files stay whole
        files[kind] = d / kind / name

    def load_item(p):
        return corpus.load_item(p.parent, "u1", tagset)

    return {
        "pemo": ((d / "m.pemo").read_bytes(),
                 lambda p: PredictorModel.load(p, tagset, provider), d / "x.pemo"),
        "pemb": ((d / "s.pemb").read_bytes(), embeddings.load_semantic, d / "x.pemb"),
        "pcnd": ((d / "c.pcnd").read_bytes(), conditioning.load_bundle, d / "x.pcnd"),
        "utt": (files["utt"].read_bytes(), load_item, files["utt"]),
        "ann": (files["ann"].read_bytes(), load_item, files["ann"]),
        "lab": (files["lab"].read_bytes(), lambda p: corpus.load_labels(p, "u1", 3),
                files["lab"]),
    }


def damage(size: int):
    """("cut", n): keep the first n < size bytes; ("flip", i, bit): flip one
    bit.  Half of the flips land in the first 128 bytes, the headers."""
    cut = st.tuples(st.just("cut"), st.integers(0, size - 1))
    pos = st.integers(0, min(size, 128) - 1) | st.integers(0, size - 1)
    flip = st.tuples(st.just("flip"), pos, st.integers(0, 7))
    return cut | flip


def apply(blob: bytes, damage) -> bytes:
    if damage[0] == "cut":
        return blob[: damage[1]]
    out = bytearray(blob)
    out[damage[1]] ^= 1 << damage[2]
    return bytes(out)


@pytest.mark.parametrize("kind", ["pemo", "pemb", "pcnd", "utt", "ann", "lab"])
def test_damaged_container_loads_or_raises_typed_error(kind, containers):
    blob, load, path = containers[kind]
    path.write_bytes(blob)
    load(path)  # the undamaged file loads

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(damage(len(blob)))
    def check(d):
        path.write_bytes(apply(blob, d))
        try:
            load(path)
        except ProsemphError:
            pass

    check()


def _model_holding(value):
    model = PredictorModel(default_tagset(), embeddings.hash_provider(dim=8),
                           ModelConfig(hidden_dim=6, head_hidden=5, semantic_dim=8))
    model.params["head_W2"][0, -1] = value
    return model


# each writer of a file a run writes, putting `value` in one of its numbers
NON_FINITE_WRITERS = {
    "lab.tsv": lambda value, path: corpus.save_labels(
        corpus.EmphasisLabels("u1", (0, 1), (0.5, value), "predicted"), path),
    "scores.tsv": lambda value, path: cli._save_scores([0.1, value, 0.3], path),
    "json": lambda value, path: cli._save_json({"f_score": value}, path),
    "pemb": lambda value, path: embeddings.save_semantic(
        {"u1": np.array([[0.5, value]])}, 2, path),
    "pemo": lambda value, path: _model_holding(value).save(path),
    "cond.bin": lambda value, path: conditioning.export_bundle(
        conditioning.ConditioningBundle("u1", np.array([[0.5, value]]), np.zeros((1, 2))),
        path),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_WRITERS))
def test_writers_refuse_a_non_finite_value(tmp_path, kind, value):
    path = tmp_path / f"u1.{kind}"
    with pytest.raises(OutputWriteError, match=rf"^cannot write u1\.{kind}: "):
        NON_FINITE_WRITERS[kind](value, path)
    assert not path.exists()


def test_container_refuses_a_double_beyond_float32(tmp_path):
    # 1e39 is finite, but float32 holds it as inf
    w = Writer(b"TEST", 1)
    with np.errstate(over="ignore"):
        w.floats(np.array([1.0, 1e39]))
    with pytest.raises(OutputWriteError, match="float32 data holds a NaN or an infinity"):
        w.save(tmp_path / "x.bin")
    assert not (tmp_path / "x.bin").exists()
