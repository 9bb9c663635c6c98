import json

import numpy as np
import pytest

from prosemph import cli, corpus

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


def _usage_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return err[0]


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
                     ({"bands": [2, 9]}, "bands")):
        cfg.write_text(json.dumps(bad))
        rc = cli.main(["label", "--corpus", str(c), "--wav", str(w), "--config",
                       str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert _usage_error_line(capsys).startswith(f"error: config key {key}: ")
    # band is checked against the configured wavelet, not the default one
    cfg.write_text(json.dumps({"wavelet": {"scales_per_octave": 4}, "band": [2, 26]}))
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
    from prosemph import embeddings, model as M

    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    _break_item(c, "u0001", fault)
    cfg = small_train_config(tmp_path / "cfg.json")
    argv = [command, "--corpus", str(c), "--config", str(cfg), "--out", str(out)]
    if command == "predict":
        M.PredictorModel(tagset, embeddings.hash_provider(dim=16, seed=0), M.ModelConfig(
            hidden_dim=16, num_iterations=2, head_hidden=8, semantic_dim=16,
        )).save(tmp_path / "m.pemo")
        argv += ["--checkpoint", str(tmp_path / "m.pemo")]
    assert cli.main(argv) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["u0001"]
    assert failures[0]["error"].startswith("MalformedFileError: ")
    for name in outputs:
        assert (out / name).exists()
    assert not list(out.glob("u0001.*")) and not list(out.glob("zz.*"))


def test_train_with_no_item_left_writes_failures(tmp_path, tagset):
    c, out = tmp_path / "corpus", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=1)
    _break_item(c, "u0000", "ann_not_json")
    assert cli.main(["train", "--corpus", str(c), "--out", str(out)]) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["u0000"]
    assert not (out / "model.pemo").exists()


@short_audio
@pytest.mark.parametrize("fault", ["nan_audio", "infinite_char_time", "id_mismatch"])
def test_label_bad_item_fails_alone(tmp_path, fault):
    from scipy.io import wavfile

    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    write_audio_corpus(c, w, count=3)
    if fault == "nan_audio":
        rate, wav = wavfile.read(w / "a1.wav")
        wav[1000:1100] = np.nan
        wavfile.write(w / "a1.wav", rate, wav)
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
])
@pytest.mark.parametrize("command", ["filter", "evaluate"])
def test_bad_predicted_labels_fail_alone(tmp_path, tagset, command, fault, error):
    c, pred, out = tmp_path / "corpus", tmp_path / "pred", tmp_path / "out"
    write_labeled_corpus(c, tagset, count=3)
    _predicted_copy(c, pred)
    row = b"0\t1\t\xff\n" if fault == "bad_utf8" else b"0\t1\t1.0\n"
    (pred / "u0001.lab.tsv").write_bytes(b"#source=predicted\n" + row)
    if command == "filter":
        argv = ["filter", "--corpus", str(c), "--predicted", str(pred), "--tau", "0.5"]
    else:
        argv = ["evaluate", "--predicted", str(pred), "--gold", str(c)]
    assert cli.main(argv + ["--out", str(out)]) == 1
    failures = json.loads((out / "failures.json").read_text())
    assert [f["utterance_id"] for f in failures] == ["u0001"]
    assert failures[0]["error"].startswith(error[command] + ": ")
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


@pytest.mark.parametrize("argv", [
    ["label", "--wav", "w", "--jobs", "0"],
    ["train", "--jobs", "-1"],
    ["validate", "--jobs", "2"],
    ["train", "--jobs", "2"],
    ["predict", "--checkpoint", "m.pemo", "--jobs", "2"],
    ["filter", "--predicted", "p", "--jobs", "2"],
    ["evaluate", "--predicted", "p", "--gold", "g", "--jobs", "2"],
    ["condition", "--jobs", "2"],
])
def test_jobs_other_than_one_only_for_label(tmp_path, capsys, argv):
    argv = argv + ["--corpus", str(tmp_path), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert _usage_error_line(capsys).startswith("error: --jobs ")
    assert not (tmp_path / "o").exists()
