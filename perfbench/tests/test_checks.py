"""Each output check passes on real CLI output and fails once it is corrupted."""

import contextlib
import io
import json

import pytest

import checks
from inputs import write_audio_corpus, write_text_corpus
from prosemph import cli
from prosemph.embeddings import hash_provider
from prosemph.tagset import default_tagset

TAGSET = default_tagset()
CONFIG = {
    "model": {"hidden_dim": 8, "num_iterations": 2, "head_hidden": 8},
    "train": {"epochs": 2, "learning_rate": 1e-3, "batch_size": 4},
    "semantic": {"mode": "hash", "dim": 8, "seed": 0},
    "cond_dim": 8, "emph_dim": 4,
}
NEAR_S = 0.905


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def rewrite_label(path, index, value):
    lines = path.read_text().splitlines()
    i, _, conf = lines[index + 1].split("\t")
    lines[index + 1] = f"{i}\t{value}\t{conf}"
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def labeled(tmp_path_factory):
    d = tmp_path_factory.mktemp("label")
    (d / "c").mkdir()
    (d / "w").mkdir()
    truth = write_audio_corpus(d / "c", d / "w", 3, seed=0)
    run(["label", "--corpus", str(d / "c"), "--wav", str(d / "w"), "--out", str(d / "out")])
    return d / "out", truth


@pytest.fixture(scope="module")
def text_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("text")
    (d / "c").mkdir()
    truth = write_text_corpus(d / "c", 12, seed=0, tagset=TAGSET)
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    c = str(d / "c")
    run(["train", "--corpus", c, "--config", str(cfg), "--out", str(d / "train")])
    run(["predict", "--corpus", c, "--config", str(cfg), "--out", str(d / "predict"),
         "--checkpoint", str(d / "train" / "model.pemo")])
    run(["evaluate", "--predicted", str(d / "predict"), "--gold", c,
         "--out", str(d / "evaluate")])
    run(["condition", "--corpus", c, "--config", str(cfg), "--labels",
         str(d / "predict"), "--out", str(d / "condition")])
    return d, {uid: utt for uid, (utt, _) in truth.items()}, truth


def test_label_recovery_passes_then_fails_on_a_missed_injection(labeled, tmp_path):
    out, truth = labeled
    info = checks.label_recovery(out, truth, NEAR_S)
    assert info["hit_frac"] == 1.0
    bad = tmp_path / "bad"
    bad.mkdir()
    for p in out.glob("*.lab.tsv"):
        (bad / p.name).write_bytes(p.read_bytes())
    uid, (_, injected, _) = next(iter(truth.items()))
    rewrite_label(bad / f"{uid}.lab.tsv", injected, 0)
    with pytest.raises(checks.CheckError, match="injected characters hit"):
        checks.label_recovery(bad, truth, NEAR_S)


def test_label_recovery_fails_on_a_far_spurious_label(labeled, tmp_path):
    out, truth = labeled
    for p in out.glob("*.lab.tsv"):
        (tmp_path / p.name).write_bytes(p.read_bytes())
    uid, (utt, injected, _) = max(truth.items(), key=lambda kv: kv[1][0].num_chars)
    far = 0 if injected > utt.num_chars // 2 else utt.num_chars - 1
    rewrite_label(tmp_path / f"{uid}.lab.tsv", far, 1)
    with pytest.raises(checks.CheckError, match="spurious"):
        checks.label_recovery(tmp_path, truth, NEAR_S)
    (tmp_path / f"{uid}.lab.tsv").unlink()
    with pytest.raises(checks.CheckError, match="MalformedFileError"):
        checks.label_recovery(tmp_path, truth, NEAR_S)


def test_train_outputs_fail_on_nan_loss_and_truncated_checkpoint(text_run, tmp_path):
    d, _, _ = text_run
    provider = hash_provider(dim=8)
    checks.train_outputs(d / "train", TAGSET, provider, epochs=2)
    with pytest.raises(checks.CheckError, match="epoch records"):
        checks.train_outputs(d / "train", TAGSET, provider, epochs=3)

    log = (d / "train" / "train_log.ldjson").read_text().splitlines()
    rec = json.loads(log[-1])
    rec["loss"] = float("nan")
    (tmp_path / "train_log.ldjson").write_text("\n".join(log[:-1] + [json.dumps(rec)]))
    (tmp_path / "model.pemo").write_bytes((d / "train" / "model.pemo").read_bytes())
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.train_outputs(tmp_path, TAGSET, provider, epochs=2)

    (tmp_path / "train_log.ldjson").write_text("\n".join(log) + "\n")
    blob = (d / "train" / "model.pemo").read_bytes()
    (tmp_path / "model.pemo").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(checks.CheckError, match="does not load"):
        checks.train_outputs(tmp_path, TAGSET, provider, epochs=2)


def test_predicted_labels_fail_on_a_missing_row(text_run, tmp_path):
    d, utts, _ = text_run
    checks.predicted_labels(d / "predict", utts)
    for p in (d / "predict").glob("*.lab.tsv"):
        (tmp_path / p.name).write_bytes(p.read_bytes())
    victim = tmp_path / f"{next(iter(utts))}.lab.tsv"
    victim.write_text("".join(victim.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(checks.CheckError, match="labels for"):
        checks.predicted_labels(tmp_path, utts)


def test_evaluation_fails_on_a_miscounted_positive(text_run, tmp_path):
    d, _, truth = text_run
    positives = sum(sum(gold) for _, gold in truth.values())
    checks.evaluation(d / "evaluate", positives)
    m = json.loads((d / "evaluate" / "metrics.json").read_text())
    m["fn"] += 1
    (tmp_path / "metrics.json").write_text(json.dumps(m))
    with pytest.raises(checks.CheckError, match="gold positives"):
        checks.evaluation(tmp_path, positives)


def test_bundles_fail_on_truncation_and_wrong_phone_count(text_run, tmp_path):
    d, utts, _ = text_run
    checks.bundles(d / "condition", utts)
    for p in (d / "condition").glob("*.cond.bin"):
        (tmp_path / p.name).write_bytes(p.read_bytes())
    uid = next(iter(utts))
    blob = (tmp_path / f"{uid}.cond.bin").read_bytes()
    (tmp_path / f"{uid}.cond.bin").write_bytes(blob[:-4])
    with pytest.raises(checks.CheckError, match="MalformedFileError"):
        checks.bundles(tmp_path, utts)
    (tmp_path / f"{uid}.cond.bin").write_bytes(blob)
    other = next(u for u in utts.values() if u.num_phones != utts[uid].num_phones)
    with pytest.raises(checks.CheckError, match="phones"):
        checks.bundles(tmp_path, {uid: other})


def test_tree_digest_ignores_only_the_manifest(text_run, tmp_path):
    d, _, _ = text_run
    for p in (d / "predict").iterdir():
        (tmp_path / p.name).write_bytes(p.read_bytes())
    before = checks.tree_digest(tmp_path)
    (tmp_path / "manifest.json").write_text("{}")
    assert checks.tree_digest(tmp_path) == before
    victim = next(tmp_path.glob("*.lab.tsv"))
    blob = bytearray(victim.read_bytes())
    blob[-2] = ord("0") if blob[-2] != ord("0") else ord("1")
    victim.write_bytes(bytes(blob))
    assert checks.tree_digest(tmp_path) != before
