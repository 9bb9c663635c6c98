import ctypes
import dataclasses
import errno
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from prosemph import cli, conditioning, corpus, prominence

from synth import gen_learnable_corpus, short_audio, synth_utterance, write_wav


def write_labeled_corpus(d, tagset, count=8, seed=0):
    d.mkdir(parents=True, exist_ok=True)
    for ex in gen_learnable_corpus(count, seed, tagset):
        uid = ex.utt.id
        corpus.save_utterance(ex.utt, d / f"{uid}.utt.json")
        corpus.save_annotation(ex.ann, tagset, d / f"{uid}.ann.json")
        corpus.save_labels(ex.labels, d / f"{uid}.lab.tsv")


def write_audio_corpus(d, wav_dir, count=3, skip_wav=(), seed=0):
    d.mkdir(parents=True, exist_ok=True)
    wav_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for i in range(count):
        uid = f"a{i}"
        utt, wav = synth_utterance(uid, rng, emphasized=i % 5)
        corpus.save_utterance(utt, d / f"{uid}.utt.json")
        if uid not in skip_wav:
            write_wav(wav_dir / f"{uid}.wav", wav)


def small_train_config(path):
    cfg = {
        "model": {"hidden_dim": 16, "num_iterations": 2, "head_hidden": 8},
        "train": {"epochs": 3, "learning_rate": 1e-3, "batch_size": 4, "seed": 0},
        "semantic": {"mode": "hash", "dim": 16, "seed": 0},
    }
    path.write_text(json.dumps(cfg))
    return path


def save_small_model(tagset, path):
    from prosemph import embeddings, model as M

    M.PredictorModel(tagset, embeddings.hash_provider(dim=16, seed=0), M.ModelConfig(
        hidden_dim=16, num_iterations=2, head_hidden=8, semantic_dim=16,
    )).save(path)


@short_audio
def test_cli_import_loads_no_scipy(tmp_path):
    # every prosody-emph process, and every label --jobs worker, imports the
    # CLI: label reads WAV and runs its FFTs with numpy, and only the GGNN's
    # first propagation (train, predict) loads scipy.sparse; only label
    # --jobs N, N > 1, loads a process pool
    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    write_audio_corpus(c, w, count=1)
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = ["label", "--corpus", str(c), "--wav", str(w), "--out", str(out)]
    code = (f"import sys; sys.path.insert(0, {src!r}); import prosemph.cli; "
            f"rc = prosemph.cli.main({argv!r}); "
            "print(rc, *(sorted(m for m in sys.modules if m.split('.')[0] in top)"
            " for top in (['scipy'], ['multiprocessing', 'concurrent'])))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [] []"
    assert (out / "a0.lab.tsv").exists()


def test_validate_ok(tmp_path, tagset, capsys):
    c = tmp_path / "corpus"
    write_labeled_corpus(c, tagset, count=3)
    rc = cli.main(["validate", "--corpus", str(c)])
    assert rc == 0
    assert "3 pass, 0 fail" in capsys.readouterr().out


@short_audio
def test_label_end_to_end(tmp_path):
    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    write_audio_corpus(c, w, count=3)
    rc = cli.main(["label", "--corpus", str(c), "--wav", str(w),
                   "--out", str(out), "--scores"])
    assert rc == 0
    for i in range(3):
        assert (out / f"a{i}.lab.tsv").exists()
        assert (out / f"a{i}.scores.tsv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "label"
    assert manifest["input_count"] == 3
    lab = corpus.load_labels(out / "a1.lab.tsv", "a1")
    assert lab.labels == (0, 1, 0, 0, 0)
    assert lab.source == "pseudo"


@short_audio
def test_label_missing_wav_partial_failure(tmp_path):
    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    write_audio_corpus(c, w, count=3, skip_wav={"a1"})
    rc = cli.main(["label", "--corpus", str(c), "--wav", str(w), "--out", str(out)])
    assert rc == 1
    assert (out / "a0.lab.tsv").exists()
    assert (out / "a2.lab.tsv").exists()
    assert not (out / "a1.lab.tsv").exists()
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["a1"]


@short_audio
def test_label_rerun_byte_identical(tmp_path):
    c, w = tmp_path / "c", tmp_path / "wav"
    write_audio_corpus(c, w, count=2)
    outs = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        assert cli.main(["label", "--corpus", str(c), "--wav", str(w),
                         "--out", str(out), "--scores"]) == 0
        outs.append(out)
    for name in ("a0.lab.tsv", "a0.scores.tsv", "a1.lab.tsv", "a1.scores.tsv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_train_predict_filter_evaluate(tmp_path, tagset, capsys):
    c = tmp_path / "corpus"
    write_labeled_corpus(c, tagset, count=8)
    cfg = small_train_config(tmp_path / "cfg.json")
    train_out = tmp_path / "train"
    rc = cli.main(["train", "--corpus", str(c), "--config", str(cfg),
                   "--out", str(train_out)])
    assert rc == 0
    ckpt = train_out / "model.pemo"
    assert ckpt.exists()
    assert (train_out / "train_log.ldjson").exists()

    pred_out = tmp_path / "pred"
    rc = cli.main(["predict", "--corpus", str(c), "--config", str(cfg),
                   "--checkpoint", str(ckpt), "--out", str(pred_out)])
    assert rc == 0
    pred_files = sorted(pred_out.glob("*.lab.tsv"))
    assert len(pred_files) == 8

    # evaluating the gold directory against itself is perfect
    ev = tmp_path / "eval_self"
    rc = cli.main(["evaluate", "--predicted", str(c), "--gold", str(c),
                   "--out", str(ev)])
    assert rc == 0
    m = json.loads((ev / "metrics.json").read_text())
    assert (m["precision"], m["recall"], m["f_score"]) == (1.0, 1.0, 1.0)

    # evaluating real predictions produces well-formed metrics
    ev2 = tmp_path / "eval_pred"
    rc = cli.main(["evaluate", "--predicted", str(pred_out), "--gold", str(c),
                   "--out", str(ev2)])
    assert rc == 0
    m2 = json.loads((ev2 / "metrics.json").read_text())
    assert set(m2) == {"precision", "recall", "f_score", "tp", "fp", "fn"}

    # an impossible confidence bound keeps nothing
    f_out = tmp_path / "filt"
    rc = cli.main(["filter", "--corpus", str(c), "--predicted", str(pred_out),
                   "--tau", "1.01", "--out", str(f_out)])
    assert rc == 0
    assert json.loads((f_out / "kept.json").read_text()) == []

    capsys.readouterr()


def test_condition_end_to_end(tmp_path, tagset):
    from prosemph import conditioning

    c = tmp_path / "corpus"
    write_labeled_corpus(c, tagset, count=3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cond_dim": 16, "emph_dim": 4,
                               "semantic": {"mode": "hash", "dim": 8, "seed": 0}}))
    out = tmp_path / "cond"
    rc = cli.main(["condition", "--corpus", str(c), "--config", str(cfg),
                   "--out", str(out), "--seed", "7"])
    assert rc == 0
    bundles = sorted(out.glob("*.cond.bin"))
    assert len(bundles) == 3
    b = conditioning.load_bundle(bundles[0])
    assert b.cond_dim == 16 and b.emph_dim == 4
    # rerun is byte identical
    out2 = tmp_path / "cond2"
    assert cli.main(["condition", "--corpus", str(c), "--config", str(cfg),
                     "--out", str(out2), "--seed", "7"]) == 0
    for p in bundles:
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_missing_out_is_usage_error(tmp_path):
    import pytest

    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--corpus", str(tmp_path)])
    assert e.value.code == 2


def test_predict_bad_checkpoint_exits_one(tmp_path, tagset, capsys):
    c = tmp_path / "corpus"
    write_labeled_corpus(c, tagset, count=1)
    bad = tmp_path / "bad.pemo"
    bad.write_bytes(b"not a checkpoint")
    rc = cli.main(["predict", "--corpus", str(c), "--checkpoint", str(bad),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_train_bad_config_key_is_usage_error(tmp_path, tagset, capsys):
    c = tmp_path / "corpus"
    write_labeled_corpus(c, tagset, count=1)
    cfg = tmp_path / "cfg.json"
    for section, bad in (("train", {"optimiser": "adam"}),
                         ("train", {"epochs": -1}),
                         ("train", {"epochs": 2.5}),
                         ("train", {"batch_size": 2.5}),
                         ("model", {"hidden_dim": 0})):
        cfg.write_text(json.dumps({section: bad}))
        rc = cli.main(["train", "--corpus", str(c), "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"{section}.{next(iter(bad))}" in err[0]


@pytest.mark.parametrize("section", ["ab", [["epochs", 3]]])
def test_train_section_that_is_no_object_is_usage_error(tmp_path, tagset, capsys,
                                                        section):
    c = tmp_path / "corpus"
    write_labeled_corpus(c, tagset, count=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": section}))
    rc = cli.main(["train", "--corpus", str(c), "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _usage_error_line(capsys) == "error: config key train: expected a JSON object"
    assert not (tmp_path / "o").exists()


def test_predict_missing_semantic_rows_fail_per_item(tmp_path, tagset):
    from prosemph import embeddings, model as M

    c, lean = tmp_path / "corpus", tmp_path / "lean"
    # more than one pack, so the missing item shifts every later pack
    write_labeled_corpus(c, tagset, count=M.PREDICT_PACK + 6)
    ids = corpus.corpus_ids(c)
    gone = ids[2]
    lean.mkdir()
    for p in c.iterdir():
        if not p.name.startswith(gone + "."):
            (lean / p.name).write_bytes(p.read_bytes())
    rng = np.random.default_rng(3)
    store = {uid: rng.standard_normal(
        (corpus.load_utterance(c / f"{uid}.utt.json").num_chars, 16)
    ).astype(np.float32) for uid in ids if uid != gone}
    embeddings.save_semantic(store, 16, tmp_path / "sem.pemb")
    provider = embeddings.load_semantic(tmp_path / "sem.pemb")
    M.PredictorModel(tagset, provider, M.ModelConfig(
        hidden_dim=16, head_hidden=8, semantic_dim=16, seed=1)).save(tmp_path / "m.pemo")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"semantic": {"mode": "file_backed", "path": str(tmp_path / "sem.pemb")}}))

    def predict(corpus_dir, out):
        return cli.main(["predict", "--corpus", str(corpus_dir), "--config", str(cfg),
                         "--checkpoint", str(tmp_path / "m.pemo"), "--out", str(out)])

    assert predict(c, tmp_path / "full") == 1
    failures = json.loads((tmp_path / "full" / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == [gone]
    assert predict(lean, tmp_path / "lean_out") == 0
    for uid in ids:
        got = tmp_path / "full" / f"{uid}.lab.tsv"
        if uid == gone:
            assert not got.exists()
        else:
            assert got.read_bytes() == (tmp_path / "lean_out" / f"{uid}.lab.tsv").read_bytes()


@pytest.mark.parametrize("fault", ["missing", "short", "non_finite"])
def test_train_missing_semantic_rows_fail_per_item(tmp_path, tagset, fault):
    from prosemph import embeddings

    c, lean = tmp_path / "corpus", tmp_path / "lean"
    write_labeled_corpus(c, tagset, count=6)
    ids = corpus.corpus_ids(c)
    bad = ids[2]
    lean.mkdir()
    for p in c.iterdir():
        if not p.name.startswith(bad + "."):
            (lean / p.name).write_bytes(p.read_bytes())
    rng = np.random.default_rng(3)
    store = {uid: rng.standard_normal(
        (corpus.load_utterance(c / f"{uid}.utt.json").num_chars, 16)
    ).astype(np.float32) for uid in ids}
    if fault == "missing":
        del store[bad]
    elif fault == "short":  # one row fewer than the item has chars
        store[bad] = store[bad][:-1]
    embeddings.save_semantic(store, 16, tmp_path / "sem.pemb")
    if fault == "non_finite":  # as another encoder may write it: save_semantic will not
        blob, first = (tmp_path / "sem.pemb").read_bytes(), store[bad][0, 0].tobytes()
        assert blob.count(first) == 1
        (tmp_path / "sem.pemb").write_bytes(blob.replace(first, np.float32(np.nan).tobytes()))
    cfg = json.loads(small_train_config(tmp_path / "cfg.json").read_text())
    cfg["semantic"] = {"mode": "file_backed", "path": str(tmp_path / "sem.pemb")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))

    def train(corpus_dir, out):
        return cli.main(["train", "--corpus", str(corpus_dir),
                         "--config", str(tmp_path / "cfg.json"), "--out", str(out)])

    assert train(c, tmp_path / "full") == 1
    failures = json.loads((tmp_path / "full" / "failures.json").read_text())
    error = {"missing": "UnknownUtteranceError", "short": "DimMismatchError",
             "non_finite": "MalformedFileError"}[fault]
    assert [f["utterance_id"] for f in failures] == [bad]
    assert failures[0]["error"].startswith(f"{error}: ")
    assert train(lean, tmp_path / "lean_out") == 0
    for name in ("model.pemo", "train_log.ldjson"):
        assert ((tmp_path / "full" / name).read_bytes()
                == (tmp_path / "lean_out" / name).read_bytes())


def _usage_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return err[0]


@short_audio
def test_label_version_is_recorded_and_hashed_but_is_no_config_key(tmp_path, capsys):
    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    write_audio_corpus(c, w, count=1)
    argv = ["label", "--corpus", str(c), "--wav", str(w)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["label_version"] == prominence.LABEL_VERSION == 2
    blob = json.dumps({**dataclasses.asdict(prominence.ProminenceConfig()),
                       "label_version": 2}, sort_keys=True, default=str)
    assert manifest["config_hash"] == hashlib.sha256(blob.encode("utf-8")).hexdigest()
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"label_version": 1}))
    assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert _usage_error_line(capsys) == "error: config key label_version: unknown key"
    assert not (tmp_path / "o").exists()


@short_audio
def test_label_bad_config_key_is_usage_error(tmp_path, capsys):
    c, w = tmp_path / "c", tmp_path / "wav"
    write_audio_corpus(c, w, count=1)
    cfg = tmp_path / "cfg.json"
    for bad, key in (({"weights": {"w_pitch": 1}}, "weights.w_pitch"),
                     ({"wavelet": {"num_scales": "many"}}, "wavelet.num_scales"),
                     ({"wavelet": {"num_scales": 12}}, "wavelet.num_scales"),
                     ({"band": [2, 40]}, "band"),
                     ({"band": [2, 10**400]}, "band"),
                     ({"bands": [2, 9]}, "bands"),
                     ({"frame": {"f0_min_hz": True}}, "frame.f0_min_hz"),
                     ({"weights": {"w_f0": True}}, "weights.w_f0"),
                     ({"threshold_sigma": float("inf")}, "threshold_sigma"),
                     ({"band": 5}, "band"),
                     ({"band": [2.0, 9]}, "band")):
        cfg.write_text(json.dumps(bad))
        rc = cli.main(["label", "--corpus", str(c), "--wav", str(w), "--config",
                       str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert _usage_error_line(capsys).startswith(f"error: config key {key}: ")
    # band is checked against the configured wavelet, not the default one, and
    # each key against the file's other keys, not only against the defaults
    for good in ({"wavelet": {"scales_per_octave": 4}, "band": [2, 26]},
                 {"frame": {"frame_length_sec": 0.06, "hop_sec": 0.05}}):
        cfg.write_text(json.dumps(good))
        assert cli.main(["label", "--corpus", str(c), "--wav", str(w), "--config",
                         str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "a0.lab.tsv").exists()


@pytest.mark.parametrize("bad", [{"band": [2, 40]}, {"band": [2, 26]},
                                 {"wavelet": {"base_scale_frames": 1e9}}])
def test_label_too_wide_scale_is_usage_error(tmp_path, capsys, monkeypatch, bad):
    from prosemph import prominence

    def no_kernel(scale):
        raise AssertionError(f"kernel of scale {scale} built")

    monkeypatch.setattr(prominence, "ricker_kernel", no_kernel)
    c, w = tmp_path / "c", tmp_path / "wav"
    write_audio_corpus(c, w, count=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    assert cli.main(["label", "--corpus", str(c), "--wav", str(w), "--config",
                     str(cfg), "--out", str(tmp_path / "o")]) == 2
    line = _usage_error_line(capsys)
    assert line.startswith("error: config ") and "wider than 1024" in line


@pytest.mark.parametrize("content", [
    {"pos": {"n": "x"}, "rel": {}},
    {"pos": ["n"], "rel": {}},
    {"pos": {"n": 0}, "rel": {"ROOT": [0]}},
    b"\xff",
    {"pos": {"n": 0.9, "v": 1.7}, "rel": {}},
    {"pos": {"n": False, "v": True}, "rel": {}},
])
def test_bad_tagset_is_one_error_line(tmp_path, tagset, capsys, content):
    c = tmp_path / "corpus"
    write_labeled_corpus(c, tagset, count=1)
    path = tmp_path / "tagset.json"
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(
        dict(content, rel={**tagset.rel, **content["rel"]})).encode())
    assert cli.main(["validate", "--corpus", str(c), "--tagset", str(path)]) == 1
    assert _usage_error_line(capsys).startswith("error: MalformedFileError: ")


@pytest.mark.parametrize("command, bad, key", [
    ("condition", {"semantic": {"mode": "file_backed"}}, "semantic.path"),
    ("predict", {"semantic": {"mode": "bert"}}, "semantic.mode"),
    ("train", {"semantic": {"dim": "big"}}, "semantic.dim"),
    ("condition", {"semantic": {"seed": -1}}, "semantic.seed"),
    ("train", {"semantic": {"dims": 16}}, "semantic.dims"),
    ("condition", {"cond_dim": "big"}, "cond_dim"),
    ("condition", {"emph_dim": 0}, "emph_dim"),
    ("condition", {"seed": 1.5}, "seed"),
    ("train", {"val_fraction": "half"}, "val_fraction"),
    ("train", {"val_fraction": 1.0}, "val_fraction"),
    ("train", {"epochs": 3}, "epochs"),
    ("condition", {"cnod_dim": 4}, "cnod_dim"),
    ("train", {"model": {"hidden_dim": 8}, "seed": "x"}, "seed"),
    ("train", {"model": {"seed": 3}}, "model.seed"),
    ("train", {"model": {"semantic_dim": 16}}, "model.semantic_dim"),
    ("train", {"train": {"epochs": True}}, "train.epochs"),
    ("train", {"train": {"learning_rate": float("nan")}}, "train.learning_rate"),
    ("train", {"train": {"class_weight_positive": "x"}}, "train.class_weight_positive"),
    ("train", {"train": {"class_weight_positive": -5}}, "train.class_weight_positive"),
    ("train", {"model": {"hidden_dim": True}}, "model.hidden_dim"),
    *((command, bad, key) for command in ("predict", "condition") for bad, key in (
        ({"train": "ab"}, "train"),
        ({"model": {"hidden_dim": "x"}}, "model.hidden_dim"),
        ({"val_fraction": 7}, "val_fraction"))),
    # a u32 field stores each of these dims; the config is rejected before any
    # table or parameter is allocated
    *((command, bad, key) for value in (10**30, 2**32) for command, bad, key in (
        ("condition", {"cond_dim": value}, "cond_dim"),
        ("condition", {"emph_dim": value}, "emph_dim"),
        ("train", {"model": {"hidden_dim": value}}, "model.hidden_dim"),
        ("train", {"model": {"head_hidden": value}}, "model.head_hidden"),
        ("train", {"model": {"pos_dim": value}}, "model.pos_dim"),
        ("condition", {"semantic": {"dim": value}}, "semantic.dim"))),
])
def test_bad_top_level_or_semantic_key_is_usage_error(tmp_path, tagset, capsys,
                                                      command, bad, key):
    c = tmp_path / "corpus"
    write_labeled_corpus(c, tagset, count=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    argv = [command, "--corpus", str(c), "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "predict":
        argv += ["--checkpoint", str(tmp_path / "absent.pemo")]
    assert cli.main(argv) == 2
    assert _usage_error_line(capsys).startswith(f"error: config key {key}: ")


def _break_item(c, uid, fault):
    if fault == "ann_not_json":
        (c / f"{uid}.ann.json").write_text("{not json", encoding="utf-8")
    else:  # the utterance file declares another id
        obj = json.loads((c / f"{uid}.utt.json").read_text(encoding="utf-8"))
        (c / f"{uid}.utt.json").write_text(json.dumps(dict(obj, id="zz")), encoding="utf-8")


@pytest.mark.parametrize("fault", ["ann_not_json", "id_mismatch"])
@pytest.mark.parametrize("command, outputs", [
    ("train", ["model.pemo", "train_log.ldjson"]),
    ("predict", ["u0000.lab.tsv", "u0002.lab.tsv"]),
    ("condition", ["u0000.cond.bin", "u0002.cond.bin"]),
])
def test_bad_item_fails_alone(tmp_path, tagset, command, outputs, fault):
    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    _break_item(c, "u0001", fault)
    cfg = small_train_config(tmp_path / "cfg.json")
    argv = [command, "--corpus", str(c), "--config", str(cfg), "--out", str(out)]
    if command == "predict":
        save_small_model(tagset, tmp_path / "m.pemo")
        argv += ["--checkpoint", str(tmp_path / "m.pemo")]
    assert cli.main(argv) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["u0001"]
    assert failures[0]["error"].startswith("MalformedFileError: ")
    for name in outputs:
        assert (out / name).exists()
    assert not list(out.glob("u0001.*")) and not list(out.glob("zz.*"))


def test_train_with_no_item_left_writes_failures(tmp_path, tagset, capsys):
    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=1)
    _break_item(c, "u0000", "ann_not_json")
    assert cli.main(["train", "--corpus", str(c), "--out", str(out)]) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["u0000"]
    assert not (out / "model.pemo").exists()
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: EmptyDatasetError: training dataset is empty")


def test_train_that_diverges_fails_the_run_and_leaves_no_log(tmp_path, tagset, capsys):
    c, out, cfg = tmp_path / "corpus", tmp_path / "out", tmp_path / "cfg.json"
    write_labeled_corpus(c, tagset, count=6)
    # one batch an epoch: epoch 0 is logged, its update overflows epoch 1's loss
    cfg.write_text(json.dumps({
        "model": {"hidden_dim": 8, "head_hidden": 4},
        "train": {"epochs": 3, "learning_rate": 1e30, "batch_size": 32},
        "semantic": {"mode": "hash", "dim": 8}}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["train", "--corpus", str(c), "--config", str(cfg),
                         "--out", str(out)]) == 1
    assert _usage_error_line(capsys) == "error: NonFiniteLossError: epoch 1: loss nan"
    assert sorted(p.name for p in out.iterdir()) == ["failures.json"]


def test_predict_from_a_diverged_checkpoint_fails_every_item(tmp_path, tagset, capsys):
    c, cfg = tmp_path / "corpus", tmp_path / "cfg.json"
    write_labeled_corpus(c, tagset, count=6)
    # one batch, one epoch: its loss is finite, but the update leaves weights
    # near 1e30, finite, so model.pemo loads and predict's forward overflows
    cfg.write_text(json.dumps({
        "model": {"hidden_dim": 8, "head_hidden": 4},
        "train": {"epochs": 1, "learning_rate": 1e30, "batch_size": 32},
        "semantic": {"mode": "hash", "dim": 8}}))
    run, pred = tmp_path / "run", tmp_path / "pred"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["train", "--corpus", str(c), "--config", str(cfg),
                         "--out", str(run)]) == 0
        assert cli.main(["predict", "--corpus", str(c), "--config", str(cfg),
                         "--checkpoint", str(run / "model.pemo"), "--out", str(pred)]) == 1
    ids = [f"u{i:04d}" for i in range(6)]
    failures = json.loads((pred / "failures.json").read_text())
    assert failures == [{"utterance_id": uid, "error": f"OutputWriteError: cannot write "
                         f"{uid}.lab.tsv: confidence of char 0 is not finite"} for uid in ids]
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in pred.iterdir()) == ["failures.json", "manifest.json"]
    assert json.loads((pred / "manifest.json").read_text())["output_paths"] == []
    assert not any("nan" in p.read_text().lower() for p in pred.iterdir())


def test_train_whose_weights_overflow_writes_no_checkpoint(tmp_path, tagset, capsys):
    c, out, cfg = tmp_path / "corpus", tmp_path / "out", tmp_path / "cfg.json"
    write_labeled_corpus(c, tagset, count=6)
    # one batch, one epoch: its loss is finite, but the update takes weights
    # past float32's largest value, so model.pemo would hold infinities
    cfg.write_text(json.dumps({
        "model": {"hidden_dim": 8, "head_hidden": 4},
        "train": {"epochs": 1, "learning_rate": 1e39, "batch_size": 32},
        "semantic": {"mode": "hash", "dim": 8}}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["train", "--corpus", str(c), "--config", str(cfg),
                         "--out", str(out)]) == 1
    assert _usage_error_line(capsys) == ("error: OutputWriteError: cannot write model.pemo: "
                                         "float32 data holds a NaN or an infinity")
    assert sorted(p.name for p in out.iterdir()) == ["failures.json"]


def test_non_finite_whole_run_result_fails_the_run(tmp_path, tagset, capsys, monkeypatch):
    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=2)
    nan = cli.metrics.Metrics(math.nan, math.nan, math.nan, 0, 0, 0)
    monkeypatch.setattr(cli.metrics, "evaluate", lambda predicted, gold: nan)
    assert cli.main(["evaluate", "--predicted", str(c), "--gold", str(c),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: OutputWriteError: cannot write metrics.json: Out of range float values "
        "are not JSON compliant: nan"]
    assert sorted(p.name for p in out.iterdir()) == ["failures.json"]


def test_train_with_no_item_left_after_the_split_writes_failures(tmp_path, tagset,
                                                                 capsys):
    c, out, cfg = tmp_path / "corpus", tmp_path / "out", tmp_path / "cfg.json"
    write_labeled_corpus(c, tagset, count=2)
    _break_item(c, "u0001", "ann_not_json")
    # the one item left goes to validation
    cfg.write_text(json.dumps({"val_fraction": 0.5}))
    assert cli.main(["train", "--corpus", str(c), "--config", str(cfg),
                     "--out", str(out)]) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["u0001"]
    assert not (out / "model.pemo").exists()
    err = capsys.readouterr().err
    assert "u0001\tfail\tMalformedFileError: " in err
    assert err.splitlines()[-1] == "error: EmptyDatasetError: training dataset is empty"


@short_audio
@pytest.mark.parametrize("fault", ["nan_audio", "truncated_wav", "infinite_char_time",
                                   "id_mismatch"])
def test_label_bad_item_fails_alone(tmp_path, capsys, fault):
    from scipy.io import wavfile

    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    write_audio_corpus(c, w, count=3)
    if fault == "nan_audio":
        rate, wav = wavfile.read(w / "a1.wav")
        wav[1000:1100] = np.nan
        wavfile.write(w / "a1.wav", rate, wav)
    elif fault == "truncated_wav":
        # cut inside the fmt chunk
        (w / "a1.wav").write_bytes((w / "a1.wav").read_bytes()[:30])
    elif fault == "infinite_char_time":
        obj = json.loads((c / "a1.utt.json").read_text(encoding="utf-8"))
        obj["char_times"][-1][1] = float("inf")
        (c / "a1.utt.json").write_text(json.dumps(obj), encoding="utf-8")
    else:
        _break_item(c, "a1", fault)
    rc = cli.main(["label", "--corpus", str(c), "--wav", str(w), "--out", str(out)])
    assert rc == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["a1"]
    assert (out / "a0.lab.tsv").exists() and (out / "a2.lab.tsv").exists()
    assert not (out / "a1.lab.tsv").exists() and not (out / "zz.lab.tsv").exists()
    assert "Traceback" not in capsys.readouterr().err


@short_audio
def test_label_jobs_write_the_same_bytes(tmp_path):
    c, w = tmp_path / "c", tmp_path / "wav"
    write_audio_corpus(c, w, count=3, skip_wav={"a1"})
    files = []
    for jobs in (1, 2):
        out = tmp_path / f"out{jobs}"
        assert cli.main(["label", "--corpus", str(c), "--wav", str(w), "--out",
                         str(out), "--scores", "--jobs", str(jobs)]) == 1
        files.append({p.name: p.read_bytes() for p in out.iterdir()
                      if p.name != "manifest.json"})
    assert files[0] == files[1]
    assert sorted(files[0]) == ["a0.lab.tsv", "a0.scores.tsv", "a2.lab.tsv",
                                "a2.scores.tsv", "failures.json"]


def _predicted_copy(c, pred):
    pred.mkdir()
    for p in c.glob("*.lab.tsv"):
        (pred / p.name).write_bytes(p.read_bytes())


@pytest.mark.parametrize("fault, error", [
    ("bad_utf8", {"filter": "MalformedFileError", "evaluate": "MalformedFileError"}),
    ("one_row", {"filter": "LengthMismatchError",
                 "evaluate": "InconsistentAlignmentError"}),
    # the pseudo (gold) and the predicted file both hold only their header
    ("header_only", {"filter": "MalformedFileError", "evaluate": "MalformedFileError"}),
])
@pytest.mark.parametrize("command", ["filter", "evaluate"])
def test_bad_predicted_labels_fail_alone(tmp_path, tagset, command, fault, error):
    c, pred, out = tmp_path / "corpus", tmp_path / "pred", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    _predicted_copy(c, pred)
    row = {"bad_utf8": b"0\t1\t\xff\n", "one_row": b"0\t1\t1.0\n", "header_only": b""}[fault]
    (pred / "u0001.lab.tsv").write_bytes(b"#source=predicted\n" + row)
    if fault == "header_only":
        (c / "u0001.lab.tsv").write_bytes(b"#source=pseudo\n")
    if command == "filter":
        argv = ["filter", "--corpus", str(c), "--predicted", str(pred), "--tau", "0.5"]
    else:
        argv = ["evaluate", "--predicted", str(pred), "--gold", str(c)]
    assert cli.main(argv + ["--out", str(out)]) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["u0001"]
    assert failures[0]["error"].startswith(error[command] + ": ")
    if fault == "header_only":
        assert failures[0]["error"].endswith("u0001.lab.tsv: no label rows")
    if command == "filter":
        assert json.loads((out / "kept.json").read_text()) == ["u0000", "u0002"]
    else:
        tp = sum(sum(corpus.load_labels(c / f"{uid}.lab.tsv", uid).labels)
                 for uid in ("u0000", "u0002"))
        m = json.loads((out / "metrics.json").read_text())
        assert (m["tp"], m["fp"], m["fn"]) == (tp, 0, 0)


def test_evaluate_missing_prediction_fails_the_run(tmp_path, tagset, capsys):
    c, pred, out = tmp_path / "corpus", tmp_path / "pred", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    _predicted_copy(c, pred)
    (pred / "u0002.lab.tsv").unlink()
    assert cli.main(["evaluate", "--predicted", str(pred), "--gold", str(c),
                     "--out", str(out)]) == 1
    assert _usage_error_line(capsys).startswith("error: UtteranceSetMismatchError: ")
    assert not (out / "metrics.json").exists()


def test_failed_evaluate_leaves_no_earlier_result(tmp_path, tagset, capsys):
    c, pred, out = tmp_path / "corpus", tmp_path / "pred", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    _predicted_copy(c, pred)
    argv = ["evaluate", "--predicted", str(pred), "--gold", str(c), "--out", str(out)]
    assert cli.main(argv) == 0
    assert json.loads((out / "metrics.json").read_text())["f_score"] == 1.0
    (pred / "u0002.lab.tsv").unlink()
    assert cli.main(argv) == 1
    assert "UtteranceSetMismatchError" in capsys.readouterr().err
    for name in ("metrics.json", "failures.json", "manifest.json"):
        assert not (out / name).exists()


@pytest.mark.parametrize("fault", ["out_is_a_file", "directory_at_result"])
def test_out_that_cannot_be_created_or_cleared_is_usage_error(tmp_path, tagset, capsys,
                                                               fault):
    c, pred, out = tmp_path / "corpus", tmp_path / "pred", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=2)
    _predicted_copy(c, pred)
    if fault == "out_is_a_file":
        out.write_text("not a directory")
    else:
        (out / "metrics.json").mkdir(parents=True)
    assert cli.main(["evaluate", "--predicted", str(pred), "--gold", str(c),
                     "--out", str(out)]) == 2
    assert _usage_error_line(capsys).startswith(f"error: --out {out}: cannot create or clear")
    if fault == "out_is_a_file":
        assert out.read_text() == "not a directory"
    else:
        assert sorted(p.name for p in out.iterdir()) == ["metrics.json"]


def _files(d):
    return {q.name: q.read_bytes() for q in sorted(d.iterdir()) if q.is_file()}


@short_audio
def test_label_item_output_fault_fails_alone(tmp_path, capsys, monkeypatch):
    c, w, clean, out = tmp_path / "c", tmp_path / "wav", tmp_path / "clean", tmp_path / "out"
    write_audio_corpus(c, w, count=3)
    argv = ["label", "--corpus", str(c), "--wav", str(w), "--scores", "--out"]
    assert cli.main([*argv, str(clean)]) == 0
    expected = {name: data for name, data in _files(clean).items() if name.startswith("a")}
    # a directory where a1's labels go cannot be cleared
    (out / "a1.lab.tsv").mkdir(parents=True)
    assert cli.main([*argv, str(out)]) == 1
    assert json.loads((out / "failures.json").read_text()) == [
        {"utterance_id": "a1", "error": "OutputWriteError: cannot clear a1.lab.tsv: "
                                        "Is a directory"}]
    assert "Traceback" not in capsys.readouterr().err
    assert {n: d for n, d in _files(out).items() if n.startswith("a")} == {
        n: d for n, d in expected.items() if not n.startswith("a1.")}
    assert json.loads((out / "manifest.json").read_text())["output_paths"] == sorted(
        n for n in expected if not n.startswith("a1."))
    # a write that fails takes the item's files already written with it
    (out / "a1.lab.tsv").rmdir()
    real = cli._save_scores

    def save_scores(scores, path):
        if path.name.startswith("a1."):
            raise OSError(28, "No space left on device")
        real(scores, path)

    monkeypatch.setattr(cli, "_save_scores", save_scores)
    assert cli.main([*argv, str(out)]) == 1
    assert json.loads((out / "failures.json").read_text()) == [
        {"utterance_id": "a1", "error": "OutputWriteError: cannot write a1.scores.tsv: "
                                        "No space left on device"}]
    assert {n: d for n, d in _files(out).items() if n.startswith("a")} == {
        n: d for n, d in expected.items() if not n.startswith("a1.")}
    assert json.loads((out / "manifest.json").read_text())["output_paths"] == sorted(
        n for n in expected if not n.startswith("a1."))


@pytest.mark.parametrize("command, module, writer, suffix", [
    ("predict", corpus, "save_labels", ".lab.tsv"),
    ("filter", corpus, "save_labels", ".lab.tsv"),
    ("condition", conditioning, "export_bundle", ".cond.bin"),
], ids=["predict", "filter", "condition"])
def test_item_output_that_cannot_be_written_fails_alone(tmp_path, tagset, capsys,
                                                        monkeypatch, command, module,
                                                        writer, suffix):
    # the suite runs as root, which no file mode stops, so the writer raises
    c, clean, out = tmp_path / "corpus", tmp_path / "clean", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    argv = [command, "--corpus", str(c)]
    if command == "filter":
        _predicted_copy(c, tmp_path / "pred")
        argv += ["--predicted", str(tmp_path / "pred")]
    else:
        argv += ["--config", str(small_train_config(tmp_path / "cfg.json"))]
    if command == "predict":
        save_small_model(tagset, tmp_path / "m.pemo")
        argv += ["--checkpoint", str(tmp_path / "m.pemo")]
    assert cli.main([*argv, "--out", str(clean)]) == 0
    expected = {f"u000{i}{suffix}": (clean / f"u000{i}{suffix}").read_bytes()
                for i in (0, 2)}
    real = getattr(module, writer)

    def fails_for_u0001(obj, path):
        real(obj, path)
        if path.name.startswith("u0001."):  # after writing part of the file
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(module, writer, fails_for_u0001)
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert json.loads((out / "failures.json").read_text()) == [
        {"utterance_id": "u0001",
         "error": f"OutputWriteError: cannot write u0001{suffix}: No space left on device"}]
    assert "Traceback" not in capsys.readouterr().err
    assert {q.name: q.read_bytes() for q in sorted(out.glob(f"*{suffix}"))} == expected


def _full_disk_on(monkeypatch, name):
    """Make open raise ENOSPC once it has begun writing a file called name: the
    suite runs as root, which no file mode stops."""
    real_open = open

    def full_disk_open(file, mode="r", *args, **kwargs):
        if "w" in mode and Path(file).name == name:
            with real_open(file, mode, *args, **kwargs) as f:
                f.write(b"P" if "b" in mode else "{")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", full_disk_open)


WHOLE_RUN_WRITE_FAULTS = [
    # failures.json comes first, then the results, then manifest.json
    ("train", "train_log.ldjson", ["failures.json"]),
    ("train", "model.pemo", ["failures.json"]),  # the log goes with the checkpoint
    ("validate", "validation.json", ["failures.json"]),
    ("filter", "kept.json", ["failures.json", "u0000.lab.tsv", "u0001.lab.tsv",
                             "u0002.lab.tsv"]),
    ("evaluate", "metrics.json", ["failures.json"]),
    ("evaluate", "failures.json", []),
    ("evaluate", "manifest.json", ["failures.json", "metrics.json"]),
]


@pytest.mark.parametrize("command, name, left", WHOLE_RUN_WRITE_FAULTS)
def test_whole_run_output_that_cannot_be_written_fails_the_run(tmp_path, tagset, capsys,
                                                               monkeypatch, command, name,
                                                               left):
    # the cases fail every whole-run result of every command
    assert {(c, n) for c, n, _ in WHOLE_RUN_WRITE_FAULTS} >= {
        (c, n) for c, (results, _, _) in cli.WRITES.items() for n in results}
    c, pred, out = tmp_path / "corpus", tmp_path / "pred", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    _predicted_copy(c, pred)
    cfg = small_train_config(tmp_path / "cfg.json")
    argv = {
        "train": ["--corpus", str(c), "--config", str(cfg)],
        "validate": ["--corpus", str(c)],
        "filter": ["--corpus", str(c), "--predicted", str(pred)],
        "evaluate": ["--predicted", str(pred), "--gold", str(c)],
    }[command]
    _full_disk_on(monkeypatch, name)
    assert cli.main([command, *argv, "--out", str(out)]) == 1
    monkeypatch.undo()
    assert _usage_error_line(capsys) == (
        f"error: OutputWriteError: cannot write {name}: No space left on device")
    # neither a partial file nor a manifest.json
    assert sorted(p.name for p in out.iterdir()) == left


def test_finish_writes_only_the_results_the_table_lists(tmp_path):
    out = tmp_path / "out"
    for results in ({"metrics.json": (cli._save_json, {}), "other.json": (cli._save_json, {})},
                    {}):
        run = cli._Run("evaluate", out)
        with pytest.raises(ValueError, match=r"evaluate writes the results \('metrics.json',\)"):
            run.finish({}, 0, results)
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, name, error", [
    ("filter", "kept.json", "LengthMismatchError"),
    ("train", "model.pemo", "MalformedFileError"),
])
def test_whole_run_write_fault_comes_after_the_failed_items(tmp_path, tagset, capsys,
                                                            monkeypatch, command, name,
                                                            error):
    c, pred, out = tmp_path / "corpus", tmp_path / "pred", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    if command == "filter":
        _predicted_copy(c, pred)
        (pred / "u0001.lab.tsv").write_bytes(b"#source=predicted\n0\t1\t1.0\n")
        argv = ["--corpus", str(c), "--predicted", str(pred)]
    else:
        _break_item(c, "u0001", "ann_not_json")
        argv = ["--corpus", str(c), "--config", str(small_train_config(tmp_path / "c.json"))]
    _full_disk_on(monkeypatch, name)
    assert cli.main([command, *argv, "--out", str(out)]) == 1
    monkeypatch.undo()
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["u0001"]
    assert failures[0]["error"].startswith(f"{error}: ")
    assert capsys.readouterr().err.splitlines() == [
        f"u0001\tfail\t{failures[0]['error']}",
        f"error: OutputWriteError: cannot write {name}: No space left on device"]
    assert not (out / "manifest.json").exists() and not (out / name).exists()


@pytest.mark.parametrize("command, suffix", [("predict", ".lab.tsv"),
                                             ("condition", ".cond.bin")])
def test_run_goes_over_the_ids_it_opened_with(tmp_path, tagset, monkeypatch, command,
                                              suffix):
    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    argv = [command, "--corpus", str(c), "--out", str(out),
            "--config", str(small_train_config(tmp_path / "cfg.json"))]
    if command == "predict":
        save_small_model(tagset, tmp_path / "m.pemo")
        argv += ["--checkpoint", str(tmp_path / "m.pemo")]
    real, calls = corpus.corpus_ids, []

    def grows(*args):  # u0002 appears after the first listing
        calls.append(args)
        return real(*args)[:2] if len(calls) == 1 else real(*args)

    monkeypatch.setattr(corpus, "corpus_ids", grows)
    assert cli.main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["input_count"], manifest["output_paths"]) == (
        2, [f"u0000{suffix}", f"u0001{suffix}"])
    assert sorted(p.name for p in out.iterdir()) == [
        "failures.json", "manifest.json", f"u0000{suffix}", f"u0001{suffix}"]


@pytest.mark.parametrize("command, bad, key", [
    # the README default model: 4 float32 copies of 11.18M parameters
    ("train", {}, "model.hidden_dim"),
    ("train", {"semantic": {"dim": 2**24}}, "semantic.dim"),
    ("condition", {"cond_dim": 2**20}, "cond_dim"),
    ("condition", {"semantic": {"dim": 2**26}}, "semantic.dim"),
])
def test_config_too_large_for_the_memory_is_usage_error(tmp_path, tagset, capsys,
                                                        monkeypatch, command, bad, key):
    c, out, cfg = tmp_path / "corpus", tmp_path / "out", tmp_path / "cfg.json"
    write_labeled_corpus(c, tagset, count=2)
    cfg.write_text(json.dumps(bad))
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**14}  # 64 MiB
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)

    def allocates(*args, **kwargs):
        raise AssertionError("numpy allocated before the size check")

    for name in ("empty", "zeros", "ones"):
        monkeypatch.setattr(np, name, allocates)
    monkeypatch.setattr(np.random, "default_rng", allocates)
    assert cli.main([command, "--corpus", str(c), "--config", str(cfg),
                     "--out", str(out)]) == 2
    line = _usage_error_line(capsys)
    assert line.startswith(f"error: config key {key}: the run would hold ")
    assert line.endswith("more than the machine's 67,108,864 bytes of memory")
    # the run record was open: --out exists, with no manifest.json or failures.json
    assert list(out.iterdir()) == []


def test_repaired_rerun_clears_failures(tmp_path, tagset):
    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    ann = (c / "u0001.ann.json").read_bytes()
    _break_item(c, "u0001", "ann_not_json")
    argv = ["condition", "--corpus", str(c), "--config",
            str(small_train_config(tmp_path / "cfg.json")), "--out", str(out)]
    assert cli.main(argv) == 1
    (c / "u0001.ann.json").write_bytes(ann)
    assert cli.main(argv) == 0
    assert json.loads((out / "failures.json").read_text()) == []


def test_filter_then_condition_on_kept_labels(tmp_path, tagset):
    c, pred, kept = tmp_path / "corpus", tmp_path / "pred", tmp_path / "kept"
    write_labeled_corpus(c, tagset, count=4)
    pred.mkdir()
    for i, uid in enumerate(corpus.corpus_ids(c)):
        lab = corpus.load_labels(c / f"{uid}.lab.tsv", uid)
        # odd items are predicted with one label flipped, so filter drops them
        labels = lab.labels if i % 2 == 0 else (1 - lab.labels[0],) + lab.labels[1:]
        corpus.save_labels(corpus.EmphasisLabels(uid, labels, lab.confidences,
                                                 "predicted"), pred / f"{uid}.lab.tsv")
    assert cli.main(["filter", "--corpus", str(c), "--predicted", str(pred),
                     "--tau", "0.9", "--out", str(kept)]) == 0
    assert json.loads((kept / "kept.json").read_text()) == ["u0000", "u0002"]
    assert sorted(p.name for p in kept.glob("*.lab.tsv")) == ["u0000.lab.tsv",
                                                              "u0002.lab.tsv"]
    for p in kept.glob("*.lab.tsv"):
        assert p.read_bytes() == (c / p.name).read_bytes()
    cond = tmp_path / "cond"
    assert cli.main(["condition", "--corpus", str(c), "--labels", str(kept), "--config",
                     str(small_train_config(tmp_path / "cfg.json")), "--out",
                     str(cond)]) == 0
    assert sorted(p.name for p in cond.glob("*.cond.bin")) == ["u0000.cond.bin",
                                                               "u0002.cond.bin"]


REQUIRED_OPTIONS = {"label": ["--wav", "w"], "predict": ["--checkpoint", "m.pemo"],
                    "filter": ["--predicted", "p"],
                    "evaluate": ["--predicted", "p", "--gold", "g"]}


@pytest.mark.parametrize("argv", [
    ["label", "--wav", "w", "--jobs", "0"],
    ["train", "--jobs", "-1"],
    # --jobs 2 for each command that takes only --jobs 1
    *([command, *REQUIRED_OPTIONS.get(command, []), "--jobs", "2"]
      for command, (_, _, jobs) in cli.WRITES.items() if not jobs),
])
def test_jobs_other_than_one_only_for_label(tmp_path, capsys, argv):
    if argv[0] != "evaluate":  # evaluate takes no --corpus
        argv = argv + ["--corpus", str(tmp_path)]
    argv = argv + ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert _usage_error_line(capsys).startswith("error: --jobs ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "condition"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    argv = [command, "--corpus", str(tmp_path), "--seed", "-1", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert _usage_error_line(capsys) == "error: --seed -1: expected an integer >= 0"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_non_finite_tau_is_usage_error(tmp_path, capsys, tau):
    # NaN kept nothing with exit 0; a tau above 1 stays valid (it keeps nothing)
    argv = ["filter", "--corpus", str(tmp_path), "--predicted", str(tmp_path),
            f"--tau={tau}", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert _usage_error_line(capsys) == f"error: --tau {float(tau)}: expected a finite number"
    assert not (tmp_path / "o").exists()


# sha256 of every file `label --scores` writes for the corpus below, recorded
# at label version 2, F0 on a decimated signal; the same on the SkylakeX,
# Haswell, Sandybridge, Nehalem and Katmai kernels of OpenBLAS 0.3.31
LABEL_GOLDEN = {
    "g0.lab.tsv": "cbf019b83767dac67f8610eda8b2215ca00b7120e54a1a5426c1acd4c8f745b8",
    "g0.scores.tsv": "8d99d6ad34cbe6e948fec7fbea3e81e6a53e47745c92a2db7cbe9f0967bf139f",
    "g1.lab.tsv": "0f86db01fa401d6d3a806fd6c0a74afff6fb8a6f461a649b9135878570a2b371",
    "g1.scores.tsv": "856186b8020e960c1e4b834726095c8f877b07268e5f764ec2acf8d7d2128ec3",
    "g2.lab.tsv": "b6d0e331bf60b7ea26d467cdcda9fac082c5ea0b686ac8ac09a3c6a89cc673a0",
    "g2.scores.tsv": "2976ecf61dec2366a16698f57e84c066ed9c5e1e5de59440e38f82b4d43e2972",
}


def _label_golden_argv(d) -> list[str]:
    """The corpus and WAV files of test_label_golden_bytes, in d; the label
    command line but for --out."""
    c, w = d / "c", d / "wav"
    c.mkdir()
    w.mkdir()
    rng = np.random.default_rng(8)
    # 1 s, 3.25 s and 8 s of sine-carrier speech, the middle one without emphasis
    for uid, num_chars, emphasized in (("g0", 4, 2), ("g1", 13, None), ("g2", 32, 20)):
        utt, wav = synth_utterance(uid, rng, num_chars=num_chars, emphasized=emphasized)
        corpus.save_utterance(utt, c / f"{uid}.utt.json")
        write_wav(w / f"{uid}.wav", wav)
    return ["label", "--corpus", str(c), "--wav", str(w), "--scores"]


@short_audio
def test_label_golden_bytes(tmp_path):
    out = tmp_path / "out"
    assert cli.main([*_label_golden_argv(tmp_path), "--out", str(out)]) == 0
    assert _digests(sorted(out.glob("*.tsv"))) == LABEL_GOLDEN


@pytest.mark.skipif(platform.machine() != "x86_64" or cli._blas_core() is None,
                    reason="forces an x86-64 OpenBLAS kernel")
def test_label_bytes_agree_across_blas_kernels(tmp_path):
    """Label bytes do not depend on the BLAS kernel, though the F0 low-pass
    sums its products in a BLAS matrix product and the wavelet transform in
    BLAS dot: the label golden run, in a subprocess on the kernel
    OPENBLAS_CORETYPE=Prescott forces, writes LABEL_GOLDEN's bytes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": src}
    out = tmp_path / "forced"
    proc = subprocess.run([sys.executable, "-m", "prosemph.cli",
                           *_label_golden_argv(tmp_path), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # OpenBLAS 0.3.31 names the kernel it forces for Prescott Katmai
    assert json.loads((out / "manifest.json").read_text())["blas_core"] in ("Prescott",
                                                                          "Katmai")
    assert _digests(sorted(out.glob("*.tsv"))) == LABEL_GOLDEN


def test_blas_core_is_read_once_per_process(monkeypatch):
    core = cli._blas_core()

    def read(*args, **kwargs):
        raise AssertionError("the BLAS core was looked up again")

    # the lookup reads /proc/self/maps and opens each BLAS library it names
    monkeypatch.setattr("builtins.open", read)
    monkeypatch.setattr(ctypes, "CDLL", read)
    assert cli._blas_core() == core


# sha256 of every <id>.cond.bin `condition --seed 7` writes for the corpus
# below, per semantic mode, recorded before the tables moved out of the CLI
COND_GOLDEN = {
    "hash": {
        "k0.cond.bin": "91c4197365ad0bfffb8f965b0bb254138fc5993ce85eb6963777583000e101a5",
        "k1.cond.bin": "70b47488cb39025082fbb16f38d0a12afebaa11d84a316cf6945ec4624cb0ca6",
        "k2.cond.bin": "19600987230ea4ef5afebc9b537770cecdd2072701a60f7950402e1ddb0d6969",
    },
    "file_backed": {
        "k0.cond.bin": "bd757a4fd8e88ea980c3bbcbc0dd93de4b1e30c7925018602ff1e3267fdee139",
        "k1.cond.bin": "64b923b47add403ff83029ff037c3a9abc6d50533ec6b0d6a8ca66f45e26ab15",
        "k2.cond.bin": "1f6a0dc09463a74e79221132c8e4121ac6f98ea12a577228704246434a3859c7",
    },
}


def test_condition_golden_bytes(tmp_path, tagset):
    import hashlib

    from prosemph import embeddings

    c = tmp_path / "c"
    c.mkdir()
    p, r = tagset.pos, tagset.rel
    # (chars, word spans, phones per char, POS, heads, relations, labels)
    items = {
        "k0": ("红花开了", ((0, 2), (2, 3), (3, 4)), (2, 2, 2, 1), ("n", "v", "u"),
               (1, None, 1), ("SBV", None, "RAD"), (1, 1, 0, 0)),
        "k1": ("我们去", ((0, 2), (2, 3)), (1, 3, 2), ("r", "v"),
               (1, None), ("SBV", None), (0, 0, 1)),
        "k2": ("好", ((0, 1),), (3,), ("a",), (None,), (None,), (0,)),
    }
    store = {}
    for uid, (chars, spans, phones, pos, heads, rels, labels) in items.items():
        n = len(chars)
        utt = corpus.Utterance(uid, tuple(chars), spans, phones,
                               tuple((0.1 * i, 0.1 * (i + 1)) for i in range(n)))
        ann = corpus.DepAnnotation(uid, tuple(p[t] for t in pos), heads,
                                   tuple(r[t] if t else tagset.root_id for t in rels))
        corpus.save_utterance(utt, c / f"{uid}.utt.json")
        corpus.save_annotation(ann, tagset, c / f"{uid}.ann.json")
        corpus.save_labels(corpus.EmphasisLabels(uid, labels, (1.0,) * n, "human"),
                           c / f"{uid}.lab.tsv")
        store[uid] = np.random.default_rng(n).normal(size=(n, 6)).astype(np.float32)
    embeddings.save_semantic(store, 6, tmp_path / "sem.pemb")
    digests = {}
    for mode, semantic in (("hash", {"mode": "hash", "dim": 5, "seed": 3}),
                           ("file_backed", {"mode": "file_backed",
                                            "path": str(tmp_path / "sem.pemb")})):
        cfg, out = tmp_path / f"{mode}.json", tmp_path / mode
        cfg.write_text(json.dumps({"cond_dim": 12, "emph_dim": 4, "semantic": semantic}))
        assert cli.main(["condition", "--corpus", str(c), "--config", str(cfg),
                         "--seed", "7", "--out", str(out)]) == 0
        digests[mode] = {q.name: hashlib.sha256(q.read_bytes()).hexdigest()
                         for q in sorted(out.glob("*.cond.bin"))}
    assert digests == COND_GOLDEN


# sha256 of model.pemo and train_log.ldjson `train` writes for the run below, by
# the OpenBLAS core name (cli._blas_core) of the kernels that ran it: each family
# sums its float32 matmuls in its own order. SkylakeX was recorded before the
# GGNN backward was folded into one routine per operation, the others with
# OpenBLAS 0.3.31 forced by OPENBLAS_CORETYPE (Zen reports Haswell, Prescott Katmai).
TRAIN_GOLDEN = {
    "SkylakeX": {
        "model.pemo": "72ba999a04512885689fdc1fb92f2ace52a726dbb08c9cc71465228aa5dcfdac",
        "train_log.ldjson": "b89525f831056592ed95a309246fd1b5955185a1732ebd7d89bfb6fce7bcc5c1",
    },
    "Haswell": {
        "model.pemo": "556e880aa7a2328a3d34c3052a67fcb691256fd30e1205d870320b5ea2c6e9e7",
        "train_log.ldjson": "ffc6811ca4bd214ad06fd7e59ac398b703abb3cb2982ca6aab4ae54d717f0d4d",
    },
    "Sandybridge": {
        "model.pemo": "2c0fe89a49bc3aaf4600e73c3c7470a8d739a6fd74ccd97e14579ec398bbe1c0",
        "train_log.ldjson": "9a5ede335ffb10de0e6691d579f5bbad71d5c1b683d9f7b743ff4405de0122cc",
    },
    "Nehalem": {
        "model.pemo": "30ef234251f4b30bd9020331547587562d35062541ba811163fd060eee2a380d",
        "train_log.ldjson": "94df7668acbc40bd68d1c12eff31b52c77aed0e64795ba3f5ca824b1cfbb4090",
    },
    "Katmai": {
        "model.pemo": "35cfe85b895a5e0edb11c7621befe992dadfa64c4e9cfc6356b3123f62999b66",
        "train_log.ldjson": "eed090d7c9cc3fa34bc4b1c8908a5a9ab5035d66b030cc88750e76299ab70ad4",
    },
}
# its epoch losses and validation F-scores, on any kernel: the losses of the five
# families above spread by under 2e-7 of their value
TRAIN_LOSSES = [0.9909037485365207, 0.8483551810951978, 0.73971383008612]
TRAIN_LOSS_RTOL = 1e-5
TRAIN_VAL_F = [0.32876712328767127, 0.34374999999999994, 0.4067796610169491]


def _digests(paths) -> dict:
    import hashlib

    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_train_golden_bytes(tmp_path, tagset):
    """A trained checkpoint and its log, byte for byte. At hidden_dim 64,
    msg_W has 147,456 elements, three ADAM_BLOCK slices, and val_fraction
    puts the validation metrics in the log. The digests hold for one OpenBLAS
    core family; on any kernel the epoch losses stay within TRAIN_LOSS_RTOL."""
    from prosemph import embeddings, model as M

    c, out = tmp_path / "c", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=40)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "val_fraction": 0.25, "seed": 3,
        "model": {"hidden_dim": 64, "num_iterations": 3, "head_hidden": 16},
        "train": {"epochs": 3, "learning_rate": 1e-3, "batch_size": 8, "seed": 1},
        "semantic": {"mode": "hash", "dim": 16, "seed": 2},
    }))
    assert cli.main(["train", "--corpus", str(c), "--config", str(cfg),
                     "--out", str(out)]) == 0
    msg_W = M.PredictorModel.load(out / "model.pemo", tagset,
                                  embeddings.hash_provider(dim=16, seed=2)).params["msg_W"]
    assert 2 * M.ADAM_BLOCK < msg_W.size <= 3 * M.ADAM_BLOCK
    log = [json.loads(line) for line in (out / "train_log.ldjson").read_text().splitlines()]
    assert [rec["loss"] for rec in log] == pytest.approx(TRAIN_LOSSES, rel=TRAIN_LOSS_RTOL)
    assert [rec["val_f"] for rec in log] == TRAIN_VAL_F
    core = cli._blas_core()
    if core not in TRAIN_GOLDEN:
        pytest.skip(f"no train digests recorded for BLAS core {core}")
    assert _digests(out / name for name in ("model.pemo", "train_log.ldjson")) == (
        TRAIN_GOLDEN[core])


def _dense_adam_step(self, params, grads):
    """AdamOptimizer.step as it was before it skipped untouched slices."""
    from prosemph.model import ADAM_BLOCK

    self.t += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    c1, c2 = 1 - b1**self.t, 1 - b2**self.t
    for k in params:
        p = params[k].reshape(-1, copy=False)
        g = grads[k].reshape(-1, copy=False)
        m = self.m[k].reshape(-1, copy=False)
        v = self.v[k].reshape(-1, copy=False)
        n = min(len(p), ADAM_BLOCK)
        upd, den = np.empty(n, p.dtype), np.empty(n, p.dtype)
        for a in range(0, len(p), ADAM_BLOCK):
            s = slice(a, a + ADAM_BLOCK)
            gs, ms, vs = g[s], m[s], v[s]
            u, d = upd[: len(gs)], den[: len(gs)]
            ms *= b1
            np.multiply(gs, 1 - b1, out=u)
            ms += u
            np.multiply(gs, 1 - b2, out=d)
            d *= gs
            vs *= b2
            vs += d
            np.divide(ms, c1, out=u)
            u *= self.lr
            np.divide(vs, c2, out=d)
            np.sqrt(d, out=d)
            d += eps
            u /= d
            p[s] -= u


def test_train_skipping_untouched_slices_writes_the_dense_bytes(tmp_path, tagset,
                                                                monkeypatch):
    """At hidden_dim 128 each msg_W slice of ADAM_BLOCK elements holds two
    relations in both directions, so IOB/FOB, LAD/RAD and IS/WP fill slices
    that no item of write_labeled_corpus has an edge of. Adam skips them, and
    the checkpoint and log are those of the dense update, byte for byte: both
    runs use the same BLAS kernels, so this holds on any of them."""
    from prosemph import model as M

    c = tmp_path / "c"
    write_labeled_corpus(c, tagset, count=16)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "val_fraction": 0.25,
        "model": {"hidden_dim": 128, "num_iterations": 2, "head_hidden": 8},
        "train": {"epochs": 2, "learning_rate": 1e-3, "batch_size": 4, "seed": 1},
        "semantic": {"mode": "hash", "dim": 16, "seed": 2},
    }))
    skipped, step = [], M.AdamOptimizer.step

    def counting_step(self, params, grads):
        step(self, params, grads)
        skipped.append([i for i, done in enumerate(self.started["msg_W"]) if not done])

    written = {}
    for name, fn in (("skip", counting_step), ("dense", _dense_adam_step)):
        monkeypatch.setattr(M.AdamOptimizer, "step", fn)
        assert cli.main(["train", "--corpus", str(c), "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
        written[name] = {f: (tmp_path / name / f).read_bytes()
                         for f in ("model.pemo", "train_log.ldjson")}
    assert M.ADAM_BLOCK == 4 * 128 * 128
    # at every step: the slices of IOB/FOB, LAD/RAD and IS/WP
    assert skipped and all(ids == [1, 5, 6] for ids in skipped)
    assert written["skip"] == written["dense"]


# sha256 of every <id>.lab.tsv `predict` writes for the run below, by OpenBLAS
# core name as TRAIN_GOLDEN. SkylakeX was recorded before hash-mode semantic
# rows were memoized per character; on the other families u0002's row 7
# confidence reads 0.510306, not 0.510307.
_PREDICT_SKYLAKEX = {
    "u0000.lab.tsv": "2b2b00945cb8eadb95da350a724bc9092f5a31382bee467497e4eb8e27134413",
    "u0001.lab.tsv": "05224e2bab92169e96a4b362e4ac6da3fd148205004dce18c240c9f4e688c1cd",
    "u0002.lab.tsv": "97358f92e168057cfe21ae962d541596cd80c481ae5e59b355c91f3f11792a44",
    "u0003.lab.tsv": "ffe87ba7cb0ab475eb2befc42f1a10abd456cba6afcfbeed25a4b6bd7b10ab0b",
    "u0004.lab.tsv": "43354bf67b1e3a32f60a0e83d3c35c2ae7c47591d02562c4e36214c891291600",
    "u0005.lab.tsv": "c358946e996c41b2a652959574d4caad1e07f4a85a06617bbe5133485ce60871",
}
PREDICT_GOLDEN = {"SkylakeX": _PREDICT_SKYLAKEX} | {
    core: _PREDICT_SKYLAKEX
    | {"u0002.lab.tsv": "a0f21bd5470662c49ec0f7deb57b497b6701f27d00b4d6fcd618854157b25e02"}
    for core in ("Haswell", "Sandybridge", "Nehalem", "Katmai")}
# its labels, on any kernel
PREDICT_LABELS = {
    "u0000": "0000011100",
    "u0001": "001000",
    "u0002": "0000110000",
    "u0003": "00010",
    "u0004": "1001",
    "u0005": "0101001",
}


def _predict_golden_argv(d, tagset) -> list[str]:
    """The corpus, checkpoint and config of test_predict_golden_bytes, in d;
    the predict command line but for --out. The items draw their chars from an
    alphabet of six, ASCII, CJK and an astral char, so chars repeat within an
    item and across items."""
    import dataclasses

    from prosemph import embeddings, model as M

    c = d / "c"
    c.mkdir()
    rng = np.random.default_rng(5)
    utts = []
    for ex in gen_learnable_corpus(6, 4, tagset):
        chars = rng.choice(list("aZ好红我😀"), len(ex.utt.chars))
        utt = dataclasses.replace(ex.utt, chars=tuple(map(str, chars)))
        corpus.save_utterance(utt, c / f"{utt.id}.utt.json")
        corpus.save_annotation(ex.ann, tagset, c / f"{utt.id}.ann.json")
        utts.append(utt)
    assert any(len(set(u.chars)) < len(u.chars) for u in utts)
    assert set(utts[0].chars) & set(utts[1].chars)
    M.PredictorModel(tagset, embeddings.hash_provider(dim=5, seed=3), M.ModelConfig(
        hidden_dim=16, num_iterations=2, head_hidden=8, semantic_dim=5, seed=4,
    )).save(d / "m.pemo")
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps({"semantic": {"mode": "hash", "dim": 5, "seed": 3}}))
    return ["predict", "--corpus", str(c), "--config", str(cfg),
            "--checkpoint", str(d / "m.pemo")]


def _labels(out) -> dict:
    """{id: its labels as a string of 0s and 1s} of each <id>.lab.tsv in out."""
    uids = sorted(p.name.removesuffix(".lab.tsv") for p in out.glob("*.lab.tsv"))
    return {uid: "".join(map(str, corpus.load_labels(out / f"{uid}.lab.tsv", uid).labels))
            for uid in uids}


def test_predict_golden_bytes(tmp_path, tagset):
    """Predicted labels, byte for byte, in semantic mode hash. The digests hold
    for one OpenBLAS core family; the labels on any kernel."""
    out = tmp_path / "out"
    assert cli.main([*_predict_golden_argv(tmp_path, tagset), "--out", str(out)]) == 0
    assert _labels(out) == PREDICT_LABELS
    core = cli._blas_core()
    if core not in PREDICT_GOLDEN:
        pytest.skip(f"no predict digests recorded for BLAS core {core}")
    assert _digests(sorted(out.glob("*.lab.tsv"))) == PREDICT_GOLDEN[core]


@pytest.mark.skipif(platform.machine() != "x86_64" or cli._blas_core() is None,
                    reason="forces an x86-64 OpenBLAS kernel")
def test_predict_labels_agree_across_blas_kernels(tmp_path, tagset):
    """The predict golden run gives the same labels on this process's kernel
    and, in a subprocess, on the one OPENBLAS_CORETYPE=Prescott forces, which
    any x86-64 CPU runs. Against SkylakeX, u0002.lab.tsv differs there in the
    last digit of one confidence."""
    argv = _predict_golden_argv(tmp_path, tagset)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "prosemph.cli", *argv,
                           "--out", str(tmp_path / "forced")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    forced = json.loads((tmp_path / "forced" / "manifest.json").read_text())
    # OpenBLAS 0.3.31 names the kernel it forces for Prescott Katmai
    assert forced["blas_core"] in ("Prescott", "Katmai")
    assert cli.main([*argv, "--out", str(tmp_path / "own")]) == 0
    assert _labels(tmp_path / "own") == _labels(tmp_path / "forced") == PREDICT_LABELS


# -- a rerun into the same --out -------------------------------------------------


@short_audio
def test_label_rerun_removes_a_failed_items_outputs(tmp_path):
    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    write_audio_corpus(c, w, count=3)
    argv = ["label", "--corpus", str(c), "--wav", str(w), "--out", str(out), "--scores"]
    assert cli.main(argv) == 0
    (w / "a1.wav").unlink()
    assert cli.main(argv) == 1
    assert [f["utterance_id"] for f in json.loads((out / "failures.json").read_text())] \
        == ["a1"]
    assert sorted(p.name for p in out.glob("*.tsv")) == [
        "a0.lab.tsv", "a0.scores.tsv", "a2.lab.tsv", "a2.scores.tsv"]


@pytest.mark.parametrize("command, suffix", [("predict", ".lab.tsv"),
                                             ("condition", ".cond.bin")])
def test_rerun_removes_a_failed_items_output(tmp_path, tagset, command, suffix):
    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    argv = [command, "--corpus", str(c), "--config",
            str(small_train_config(tmp_path / "cfg.json")), "--out", str(out)]
    if command == "predict":
        save_small_model(tagset, tmp_path / "m.pemo")
        argv += ["--checkpoint", str(tmp_path / "m.pemo")]
    assert cli.main(argv) == 0
    assert (out / f"u0001{suffix}").exists()
    _break_item(c, "u0001", "ann_not_json")
    assert cli.main(argv) == 1
    assert sorted(p.name for p in out.glob(f"*{suffix}")) == [
        f"u0000{suffix}", f"u0002{suffix}"]


def test_filter_rerun_removes_labels_no_longer_kept(tmp_path, tagset):
    c, pred, kept = tmp_path / "corpus", tmp_path / "pred", tmp_path / "kept"
    write_labeled_corpus(c, tagset, count=2)
    pred.mkdir()
    for uid, confidence in (("u0000", 0.95), ("u0001", 0.8)):
        lab = corpus.load_labels(c / f"{uid}.lab.tsv", uid)
        corpus.save_labels(corpus.EmphasisLabels(
            uid, lab.labels, (confidence,) * len(lab.labels), "predicted"),
            pred / f"{uid}.lab.tsv")
    for tau, ids in (("0.5", ["u0000", "u0001"]), ("0.9", ["u0000"])):
        assert cli.main(["filter", "--corpus", str(c), "--predicted", str(pred),
                         "--tau", tau, "--out", str(kept)]) == 0
        assert json.loads((kept / "kept.json").read_text()) == ids
        assert sorted(p.name for p in kept.glob("*.lab.tsv")) == [
            f"{uid}.lab.tsv" for uid in ids]


def test_filter_rerun_removes_labels_of_an_id_no_longer_predicted(tmp_path, tagset):
    c, pred, kept = tmp_path / "corpus", tmp_path / "pred", tmp_path / "kept"
    write_labeled_corpus(c, tagset, count=3)
    _predicted_copy(c, pred)
    argv = ["filter", "--corpus", str(c), "--predicted", str(pred), "--tau", "0.5",
            "--out", str(kept)]
    assert cli.main(argv) == 0
    (pred / "u0001.lab.tsv").unlink()
    assert cli.main(argv) == 0
    assert json.loads((kept / "kept.json").read_text()) == ["u0000", "u0002"]
    assert sorted(p.name for p in kept.glob("*.lab.tsv")) == ["u0000.lab.tsv",
                                                              "u0002.lab.tsv"]


@pytest.mark.parametrize("into", ["corpus", "pred"])
def test_filter_into_its_own_input_is_usage_error(tmp_path, tagset, capsys, into):
    c, pred = tmp_path / "corpus", tmp_path / "pred"
    write_labeled_corpus(c, tagset, count=2)
    _predicted_copy(c, pred)
    before = {p: p.read_bytes() for d in (c, pred) for p in d.iterdir()}
    assert cli.main(["filter", "--corpus", str(c), "--predicted", str(pred),
                     "--out", str(tmp_path / into / ".")]) == 2
    assert _usage_error_line(capsys).startswith("error: filter --out ")
    assert {p: p.read_bytes() for d in (c, pred) for p in d.iterdir()} == before


def test_failed_train_leaves_no_earlier_result(tmp_path, tagset):
    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=2)
    argv = ["train", "--corpus", str(c), "--config",
            str(small_train_config(tmp_path / "cfg.json")), "--out", str(out)]
    assert cli.main(argv) == 0
    for uid in ("u0000", "u0001"):
        _break_item(c, uid, "ann_not_json")
    assert cli.main(argv) == 1
    assert sorted(p.name for p in out.iterdir()) == ["failures.json"]


@short_audio
def test_label_frame_shorter_than_shortest_lag_fails_the_item(tmp_path, capsys):
    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    write_audio_corpus(c, w, count=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame": {"frame_length_sec": 0.01, "f0_max_hz": 70}}))
    assert cli.main(["label", "--corpus", str(c), "--wav", str(w), "--config", str(cfg),
                     "--out", str(out)]) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["a0"]
    assert failures[0]["error"].startswith("TooShortError: a0: 240-sample frame shorter ")
    assert "Traceback" not in capsys.readouterr().err


@short_audio
@pytest.mark.parametrize("frame", [{"hop_sec": 1e-9}, {"f0_max_hz": 20000.0}])
def test_label_frame_the_sample_rate_cannot_meet_fails_each_item(tmp_path, capsys, frame):
    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    write_audio_corpus(c, w, count=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame": frame}))
    assert cli.main(["label", "--corpus", str(c), "--wav", str(w), "--config", str(cfg),
                     "--out", str(out)]) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["a0", "a1"]
    assert all(f["error"].startswith("UnsupportedEncodingError: ") for f in failures)
    assert "Traceback" not in capsys.readouterr().err


@short_audio
def test_label_frame_whose_samples_overflow_fails_each_item(tmp_path, capsys):
    # 1e308 s times the sample rate is inf samples
    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    write_audio_corpus(c, w, count=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame": {"frame_length_sec": 1e308, "hop_sec": 1e308}}))
    assert cli.main(["label", "--corpus", str(c), "--wav", str(w), "--config", str(cfg),
                     "--out", str(out)]) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["a0", "a1"]
    assert all(f["error"].startswith("TooShortError: ") for f in failures)
    assert "Traceback" not in capsys.readouterr().err


@short_audio
def test_label_vanishing_f0_min_clips_to_the_longest_lag(tmp_path):
    # sr / 5e-324 is inf and sr / 1.0 is 24000: both lags clip to the frame
    c, w = tmp_path / "c", tmp_path / "wav"
    write_audio_corpus(c, w, count=2)
    written = []
    for f0_min in (5e-324, 1.0):
        cfg, out = tmp_path / "cfg.json", tmp_path / f"out{f0_min}"
        cfg.write_text(json.dumps({"frame": {"f0_min_hz": f0_min}}))
        assert cli.main(["label", "--corpus", str(c), "--wav", str(w), "--config",
                         str(cfg), "--out", str(out), "--scores"]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))})
    assert len(written[0]) == 4 and written[0] == written[1]


def test_failed_predict_leaves_no_earlier_result(tmp_path, tagset, capsys):
    c, out, ckpt = tmp_path / "corpus", tmp_path / "out", tmp_path / "m.pemo"
    write_labeled_corpus(c, tagset, count=2)
    save_small_model(tagset, ckpt)
    argv = ["predict", "--corpus", str(c), "--config",
            str(small_train_config(tmp_path / "cfg.json")), "--checkpoint", str(ckpt),
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "failures.json", "manifest.json", "u0000.lab.tsv", "u0001.lab.tsv"]
    ckpt.write_bytes(ckpt.read_bytes()[:4])
    assert cli.main(argv) == 1
    assert "MalformedFileError" in _usage_error_line(capsys)
    assert list(out.iterdir()) == []


def test_predict_into_its_corpus_is_usage_error(tmp_path, tagset, capsys):
    c = tmp_path / "corpus"
    write_labeled_corpus(c, tagset, count=2)
    (tmp_path / "m.pemo").write_bytes(b"PEMO")
    labels = {p.name: p.read_bytes() for p in c.glob("*.lab.tsv")}
    assert cli.main(["predict", "--corpus", str(c), "--checkpoint",
                     str(tmp_path / "m.pemo"), "--out", str(c / ".")]) == 2
    assert "predict --out must differ from --corpus" in _usage_error_line(capsys)
    assert {p.name: p.read_bytes() for p in c.glob("*.lab.tsv")} == labels
    assert len(labels) == 2


# the options each subcommand used to accept without reading them
@pytest.mark.parametrize("command, option", [
    ("validate", "--config"), ("validate", "--seed"),
    ("label", "--tagset"), ("label", "--seed"),
    ("predict", "--seed"),
    ("filter", "--tagset"), ("filter", "--config"), ("filter", "--seed"),
    ("evaluate", "--corpus"), ("evaluate", "--tagset"), ("evaluate", "--config"),
    ("evaluate", "--seed"),
])
def test_option_a_subcommand_does_not_read_is_usage_error(tmp_path, capsys, command,
                                                         option):
    required = {"validate": ["--corpus", "c"], "label": ["--corpus", "c", "--wav", "w"],
                "predict": ["--corpus", "c", "--checkpoint", "m"],
                "filter": ["--corpus", "c", "--predicted", "p"],
                "evaluate": ["--predicted", "p", "--gold", "g"]}
    argv = [command, *required[command], "--out", str(tmp_path / "o"), option, "1"]
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def write_readme_corpus(corpus_dir, wav_dir, tagset, count, misplaced):
    """Sine-carrier utterances of five one-char words. The one adjective hangs
    off the root by ATT and has gold label 1; it is also the char with injected
    prominence, except in the `misplaced` last utterances, where that char is
    the next word."""
    corpus_dir.mkdir()
    wav_dir.mkdir()
    rng = np.random.default_rng(11)
    for i in range(count):
        uid, emph = f"r{i}", i % 5
        utt, wav = synth_utterance(
            uid, rng, emphasized=(emph + 1) % 5 if i >= count - misplaced else emph)
        root = (emph + 2) % 5
        ann = corpus.DepAnnotation(
            uid, tuple(tagset.pos["a" if w == emph else "n"] for w in range(5)),
            tuple(None if w == root else root for w in range(5)),
            tuple(tagset.root_id if w == root else
                  tagset.rel["ATT" if w == emph else "SBV"] for w in range(5)))
        gold = tuple(int(w == emph) for w in range(5))
        corpus.save_utterance(utt, corpus_dir / f"{uid}.utt.json")
        corpus.save_annotation(ann, tagset, corpus_dir / f"{uid}.ann.json")
        corpus.save_labels(corpus.EmphasisLabels(uid, gold, (1.0,) * 5, "human"),
                           corpus_dir / f"{uid}.lab.tsv")
        write_wav(wav_dir / f"{uid}.wav", wav)


@short_audio
def test_readme_chain(tmp_path, tagset, monkeypatch):
    """The README's command chain, line by line, on synthetic audio and text."""
    monkeypatch.chdir(tmp_path)
    write_readme_corpus(tmp_path / "corpus", tmp_path / "wav", tagset, count=10,
                        misplaced=3)
    # a non-default semantic dim: predict and condition need the same config
    (tmp_path / "train.json").write_text(json.dumps({
        "model": {"hidden_dim": 16, "num_iterations": 2, "head_hidden": 8},
        "train": {"epochs": 60, "learning_rate": 1e-2, "batch_size": 4},
        "semantic": {"mode": "hash", "dim": 16, "seed": 0},
    }))
    chain = [
        "validate --corpus corpus/",
        "label --corpus corpus/ --wav wav/ --out labels/ --jobs 2",
        # on corpus/ (the gold labels), not labels/: trained on the pseudo labels,
        # 3 of 10 of which contradict the adjective rule, the model keeps only
        # r0, r1, r5 and r6 at tau 0.9
        "train --corpus corpus/ --config train.json --out run/",
        "predict --corpus corpus/ --config train.json --checkpoint run/model.pemo "
        "--out pred/",
        "filter --corpus labels/ --predicted pred/ --tau 0.9 --out kept/",
        "evaluate --predicted pred/ --gold corpus/ --out eval/",  # gold: the corpus's
        "condition --corpus corpus/ --config train.json --labels kept/ --out cond/",
    ]
    for line in chain:
        assert cli.main(line.split()) == 0, line
    # the model reproduces the pseudo label wherever prominence and adjective agree
    kept = json.loads((tmp_path / "kept" / "kept.json").read_text())
    assert kept == [f"r{i}" for i in range(7)]
    assert sorted(p.name for p in (tmp_path / "cond").glob("*.cond.bin")) == [
        f"{uid}.cond.bin" for uid in kept]


def test_label_jobs_issues_worker_warnings_in_the_parent(tmp_path, capfd):
    c, w = tmp_path / "c", tmp_path / "wav"
    write_audio_corpus(c, w, count=3)
    caught = {}
    for jobs in (1, 2):
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            assert cli.main(["label", "--corpus", str(c), "--wav", str(w),
                             "--out", str(tmp_path / f"out{jobs}"),
                             "--jobs", str(jobs)]) == 0
        caught[jobs] = [(x.category, str(x.message)) for x in log]
    # every synthetic utterance is short next to the widest scored scale
    assert len(caught[1]) == 3
    assert {cat.__name__ for cat, _ in caught[1]} == {"LargeScaleTruncatedWarning"}
    assert caught[2] == caught[1]
    # recorded in this process, none printed by the workers
    assert "Warning" not in capfd.readouterr().err


def test_train_reads_labels_from_labels_dir(tmp_path, tagset):
    c, labels = tmp_path / "corpus", tmp_path / "labels"
    write_labeled_corpus(c, tagset, count=6)
    labels.mkdir()
    for p in c.glob("*.lab.tsv"):
        shutil.move(p, labels / p.name)
    cfg = small_train_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--corpus", str(c), "--labels", str(labels),
                     "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    # the same labels copied into a corpus of their own
    both = tmp_path / "both"
    shutil.copytree(c, both)
    for p in labels.iterdir():
        shutil.copy(p, both / p.name)
    assert cli.main(["train", "--corpus", str(both), "--config", str(cfg),
                     "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "model.pemo").read_bytes()
            == (tmp_path / "b" / "model.pemo").read_bytes())


@pytest.mark.parametrize("fault", ["tagset_not_json", "semantic_cut_to_magic"])
@pytest.mark.parametrize("command", ["train", "predict", "condition"])
def test_whole_run_failure_leaves_no_earlier_result(tmp_path, tagset, capsys, command,
                                                    fault):
    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=2)
    cfg = small_train_config(tmp_path / "cfg.json")
    argv = [command, "--corpus", str(c), "--out", str(out)]
    if command == "predict":
        save_small_model(tagset, tmp_path / "m.pemo")
        argv += ["--checkpoint", str(tmp_path / "m.pemo")]
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    clean = {p.name for p in out.iterdir()}
    assert {"manifest.json", "failures.json"} < clean
    if fault == "tagset_not_json":
        (tmp_path / "tagset.json").write_text("{not json", encoding="utf-8")
        argv += ["--config", str(cfg), "--tagset", str(tmp_path / "tagset.json")]
    else:
        (tmp_path / "sem.pemb").write_bytes(b"PEMB")
        bad = json.loads(cfg.read_text())
        bad["semantic"] = {"mode": "file_backed", "path": str(tmp_path / "sem.pemb")}
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        argv += ["--config", str(tmp_path / "bad.json")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert _usage_error_line(capsys).startswith("error: MalformedFileError: ")
    assert not clean & {p.name for p in out.iterdir()}


@pytest.mark.parametrize("command, option", [
    ("validate", "corpus"), ("label", "corpus"), ("label", "wav"),
    ("train", "corpus"), ("train", "labels"), ("predict", "corpus"),
    ("filter", "corpus"), ("filter", "predicted"), ("evaluate", "predicted"),
    ("evaluate", "gold"), ("condition", "corpus"), ("condition", "labels"),
])
def test_missing_input_directory_is_usage_error(tmp_path, capsys, command, option):
    empty, nope = tmp_path / "empty", tmp_path / "nope"
    empty.mkdir()
    names = {"validate": ["corpus"], "label": ["corpus", "wav"], "train": ["corpus"],
             "predict": ["corpus"], "filter": ["corpus", "predicted"],
             "evaluate": ["predicted", "gold"], "condition": ["corpus"]}[command]
    argv = [command, "--out", str(tmp_path / "o")]
    if command == "predict":
        argv += ["--checkpoint", str(tmp_path / "m.pemo")]
    for name in dict.fromkeys([*names, option]):
        argv += [f"--{name}", str(nope if name == option else empty)]
    assert cli.main(argv) == 2
    assert _usage_error_line(capsys) == f"error: --{option} {nope}: not a directory"
    assert not (tmp_path / "o").exists()
    # an existing empty directory is a valid input
    argv[argv.index(str(nope))] = str(empty)
    assert cli.main(argv) in (0, 1)
    assert "error: --" not in capsys.readouterr().err


@short_audio
def test_every_command_writes_the_same_manifest_keys(tmp_path, tagset, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_readme_corpus(tmp_path / "corpus", tmp_path / "wav", tagset, count=4,
                        misplaced=0)
    # one unlabeled id, which train and condition leave out but still ran over
    (tmp_path / "corpus" / "r3.lab.tsv").unlink()
    small_train_config(tmp_path / "cfg.json")
    chain = {
        "validate": "validate --corpus corpus --out v",
        "label": "label --corpus corpus --wav wav --out labels",
        "train": "train --corpus corpus --config cfg.json --out run",
        "predict": "predict --corpus corpus --config cfg.json --checkpoint run/model.pemo "
                   "--out pred",
        "filter": "filter --corpus labels --predicted pred --out kept",
        "evaluate": "evaluate --predicted pred --gold labels --out eval",
        "condition": "condition --corpus corpus --config cfg.json --out cond",
    }
    assert list(chain) == list(cli.WRITES)
    ids = corpus.corpus_ids(tmp_path / "corpus")
    recorded = {}
    for command, line in chain.items():
        assert cli.main(line.split()) == 0, line
        manifest = json.loads((tmp_path / line.split()[-1] / "manifest.json").read_text())
        keys = {"command", "config_hash", "seed", "input_count", "output_paths",
                "wall_time_sec", "peak_rss_mb", "blas_core"}
        assert set(manifest) == (keys | {"label_version"} if command == "label" else keys)
        assert manifest["peak_rss_mb"] > 0
        # the OpenBLAS core name, such as "SkylakeX", or null without OpenBLAS
        assert manifest["blas_core"] is None or manifest["blas_core"].isprintable()
        recorded[command] = manifest["command"], manifest["input_count"], manifest["blas_core"]
        # every file the run wrote, but for the two that record the run itself
        out = tmp_path / line.split()[-1]
        assert manifest["output_paths"] == sorted(
            p.name for p in out.iterdir() if p.name not in ("manifest.json", "failures.json"))
        # and each is a record, a result or an item's output the table gives the command
        results, suffixes, _ = cli.WRITES[command]
        allowed = {*cli._RECORDS, *results, *(uid + s for uid in ids for s in suffixes)}
        assert {p.name for p in out.iterdir()} <= allowed
    core = recorded["validate"][2]
    assert recorded == {command: (command, 4, core) for command in chain}


def test_validate_out_follows_the_run_rule(tmp_path, tagset, capsys):
    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    _break_item(c, "u0001", "ann_not_json")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["validate", "--corpus", str(c)]) == 1
    assert sorted(tmp_path.rglob("*")) == before
    listing = capsys.readouterr()
    assert cli.main(["validate", "--corpus", str(c), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured == listing
    assert captured.err.startswith("u0001\tfail\tMalformedFileError: ")
    assert sorted(p.name for p in out.iterdir()) == [
        "failures.json", "manifest.json", "validation.json"]
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["u0001"]
    assert json.loads((out / "validation.json").read_text()) == [
        {"utterance_id": uid, "ok": uid != "u0001",
         "failure": failures[0]["error"] if uid == "u0001" else None}
        for uid in ("u0000", "u0001", "u0002")]
