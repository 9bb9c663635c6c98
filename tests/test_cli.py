import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

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


def save_small_model(tagset, path):
    from prosemph import embeddings, model as M

    M.PredictorModel(tagset, embeddings.hash_provider(dim=16, seed=0), M.ModelConfig(
        hidden_dim=16, num_iterations=2, head_hidden=8, semantic_dim=16,
    )).save(path)


def test_cli_import_loads_no_scipy_signal():
    # every prosody-emph process imports the label code; the CWT convolves
    # with numpy, so the 400-odd modules of scipy.signal stay unloaded
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import prosemph.cli; "
            "print('scipy.signal' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    if argv[0] != "evaluate":  # evaluate takes no --corpus
        argv = argv + ["--corpus", str(tmp_path)]
    argv = argv + ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert _usage_error_line(capsys).startswith("error: --jobs ")
    assert not (tmp_path / "o").exists()


# sha256 of every file `label --scores` writes for the corpus below, recorded
# before the F0 autocorrelation changed its FFT size and its peak climb
LABEL_GOLDEN = {
    "g0.lab.tsv": "a74123ea3d1f9cf0386b6e13bf455fed3a52cfadfb21b60793bfb0a4ac741afc",
    "g0.scores.tsv": "4d78390422cb885339205aed3bd7c6067d7782f2672fff6a9b0b49ad73c0c745",
    "g1.lab.tsv": "9047dd83de5690730cc68b1d16a6e2f95e7ab6107345f7b2db9e4eab63344f78",
    "g1.scores.tsv": "ae950272ff40c6fbc297daa81b599700873434ffda7abe7b457f4089fbeb8e45",
    "g2.lab.tsv": "11a67866e826d112c0b50f804cb1afbecda95d7e97e17377e1d98a18354b15cd",
    "g2.scores.tsv": "a7ea589149b55e7dc2e0f8193ed1b84cd0c55bd579d26ad0252ac3fb20c40ec9",
}


@short_audio
def test_label_golden_bytes(tmp_path):
    import hashlib

    c, w, out = tmp_path / "c", tmp_path / "wav", tmp_path / "out"
    c.mkdir()
    w.mkdir()
    rng = np.random.default_rng(8)
    # 1 s, 3.25 s and 8 s of sine-carrier speech, the middle one without emphasis
    for uid, num_chars, emphasized in (("g0", 4, 2), ("g1", 13, None), ("g2", 32, 20)):
        utt, wav = synth_utterance(uid, rng, num_chars=num_chars, emphasized=emphasized)
        corpus.save_utterance(utt, c / f"{uid}.utt.json")
        write_wav(w / f"{uid}.wav", wav)
    assert cli.main(["label", "--corpus", str(c), "--wav", str(w), "--out", str(out),
                     "--scores"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("*.tsv"))}
    assert digests == LABEL_GOLDEN


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
    recorded = {}
    for command, line in chain.items():
        assert cli.main(line.split()) == 0, line
        manifest = json.loads((tmp_path / line.split()[-1] / "manifest.json").read_text())
        assert set(manifest) == {"command", "config_hash", "seed", "input_count",
                                 "output_paths", "wall_time_sec", "peak_rss_mb"}
        assert manifest["peak_rss_mb"] > 0
        recorded[command] = manifest["command"], manifest["input_count"]
    assert recorded == {command: (command, 4) for command in chain}


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
