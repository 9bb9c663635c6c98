"""Acceptance gate: one test per release criterion.

Each test prints a single `[criterion N] PASS/FAIL` line (directly to the
terminal, bypassing capture) so a full run yields one line per criterion.
The heavyweight training runs for criteria 3 and 4 share a module fixture.
"""

import json
import shutil
import sys
import time

import numpy as np
import pytest

from prosemph import cli, corpus, embeddings, metrics, model as M, prominence
from prosemph.graph import (
    build_char_graph,
    expand_char_to_phone,
    expand_word_to_char,
    graph2relation,
)
from prosemph.tagset import default_tagset

import synth
from synth import (
    gen_learnable_corpus,
    random_utterance,
    short_audio,
    strip_dependency_edges,
    synth_utterance,
    with_graphs,
    write_wav,
)
from test_graph import enumerate_forests, oracle_graph2relation
from test_prominence import brute_force_response


def report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    line = f"[criterion {n:2d}] {status} - {desc}{extra}"
    synth.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


TAGSET = default_tagset()


# -- criterion 1: gradient fidelity ------------------------------------------


def _random_instance(rng, uid):
    num_chars = int(rng.integers(1, 5))  # graph has num_chars + 2 <= 6 nodes
    cuts = sorted(set([0, num_chars]) | set(
        int(c) for c in rng.integers(1, num_chars, size=2)
    )) if num_chars > 1 else [0, 1]
    spans = tuple(zip(cuts[:-1], cuts[1:]))
    utt = corpus.Utterance(
        uid, tuple(chr(ord("a") + i) for i in range(num_chars)), spans,
        (1,) * num_chars,
        tuple((i * 0.1, (i + 1) * 0.1) for i in range(num_chars)),
    )
    nw = len(spans)
    root = int(rng.integers(0, nw))
    heads = tuple(None if w == root else root for w in range(nw))
    rels = tuple(
        TAGSET.root_id if w == root else int(rng.integers(0, 14))
        for w in range(nw)
    )
    pos = tuple(int(x) for x in rng.integers(0, TAGSET.num_pos, nw))
    ann = corpus.DepAnnotation(uid, pos, heads, rels)
    lab = corpus.EmphasisLabels(
        uid, tuple(int(x) for x in rng.integers(0, 2, num_chars)),
        (1.0,) * num_chars, "human",
    )
    return utt, ann, lab


def test_criterion_1_gradient_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    eps = 1e-4
    for inst in range(20):
        prov = embeddings.hash_provider(dim=8, seed=inst)
        cfg = M.ModelConfig(hidden_dim=8, num_iterations=3, head_hidden=4,
                            pos_dim=4, semantic_dim=8, seed=inst)
        model = M.PredictorModel(TAGSET, prov, cfg, dtype=np.float64)
        batch = [M.Example(*_random_instance(rng, f"g{inst}"))]
        _, grads = model.loss_and_grads(batch)
        for name, arr in model.params.items():
            flat = arr.reshape(-1)
            idxs = rng.choice(flat.size, size=min(3, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = model.loss_and_grads(batch)
                flat[i] = orig - eps
                lm, _ = model.loss_and_grads(batch)
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                g = grads[name].reshape(-1)[i]
                denom = max(1e-8, abs(g) + abs(fd))
                worst = max(worst, abs(g - fd) / denom)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 30
    report(1, "gradient fidelity vs central finite differences", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 30


# -- criterion 2: synthetic prominence recovery ------------------------------


@short_audio
def test_criterion_2_prominence_recovery(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    cfg = prominence.ProminenceConfig()
    hits = 0
    spurious = 0
    n = 200
    for i in range(n):
        emph = int(rng.integers(0, 5))
        utt, wav = synth_utterance(f"p{i}", rng, emphasized=emph)
        p = tmp_path / f"p{i}.wav"
        write_wav(p, wav)
        res = prominence.label_utterance(p, utt, cfg)
        if res.labels.labels[emph] == 1:
            hits += 1
        spurious += sum(res.labels.labels) - res.labels.labels[emph]
    elapsed = time.monotonic() - t0
    ok = hits >= 0.95 * n and spurious / n <= 0.1 and elapsed < 120
    report(2, "injected-prominence recovery on 200 synthetic utterances", ok,
           f"hit {hits}/{n}, {spurious / n:.3f} spurious/utt, {elapsed:.1f}s")
    assert hits >= 0.95 * n
    assert spurious / n <= 0.1
    assert elapsed < 120


# -- criteria 3 and 4: learnability and ablation (shared training runs) ------


def _heldout_f(model, test_set, ablated):
    predicted, gold = {}, {}
    for ex in test_set:
        g = ex.graph
        if ablated:
            g = strip_dependency_edges(g, TAGSET)
        probs, _ = model.forward(ex.utt, ex.ann, g)
        labels = tuple(int(p[1] > p[0]) for p in probs)
        confs = tuple(float(max(p)) for p in probs)
        predicted[ex.utt.id] = corpus.EmphasisLabels(
            ex.utt.id, labels, confs, "predicted"
        )
        gold[ex.utt.id] = ex.labels
    return metrics.evaluate(predicted, gold).f_score


@pytest.fixture(scope="module")
def learnability_runs():
    t0 = time.monotonic()
    data = with_graphs(gen_learnable_corpus(500, 99, TAGSET), TAGSET)
    train_set, test_set = data[:400], data[400:]
    prov = embeddings.hash_provider(dim=32, seed=0)
    scores = {}
    for condition in ("full", "ablated"):
        examples = [
            M.Example(
                ex.utt, ex.ann, ex.labels,
                strip_dependency_edges(ex.graph, TAGSET)
                if condition == "ablated" else ex.graph,
            )
            for ex in train_set
        ]
        model = M.PredictorModel(
            TAGSET, prov, M.ModelConfig(hidden_dim=32, semantic_dim=32, seed=0)
        )
        M.train(model, examples, M.TrainConfig())
        scores[condition] = _heldout_f(model, test_set, condition == "ablated")
    return scores, time.monotonic() - t0


def test_criterion_3_synthetic_learnability(learnability_runs):
    scores, elapsed = learnability_runs
    ok = scores["full"] >= 0.95 and elapsed < 600
    report(3, "500-utterance learnability, held-out micro F", ok,
           f"F={scores['full']:.3f}, both runs {elapsed:.1f}s")
    assert scores["full"] >= 0.95
    assert elapsed < 600


def test_criterion_4_ablation_direction(learnability_runs):
    scores, _ = learnability_runs
    drop = scores["full"] - scores["ablated"]
    ok = drop >= 0.2
    report(4, "dependency-edge ablation drops held-out F", ok,
           f"full {scores['full']:.3f} vs ablated {scores['ablated']:.3f}")
    assert drop >= 0.2


# -- criterion 5: graph2relation exhaustive oracle ---------------------------


def test_criterion_5_graph2relation_oracle():
    t0 = time.monotonic()
    checked = 0
    ok = True
    for n in (1, 2, 3, 4):
        for ann in enumerate_forests(n, 5, TAGSET):
            got = graph2relation(ann, TAGSET).relation_ids
            if got != oracle_graph2relation(ann, TAGSET):
                ok = False
            checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10
    report(5, "word-to-relation mapping vs brute-force oracle", ok,
           f"{checked} forests, {elapsed:.1f}s")
    assert ok


# -- criterion 6: length-regulator properties --------------------------------


def test_criterion_6_length_regulators():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        utt = random_utterance(rng)
        wv = rng.normal(size=(utt.num_words, 3))
        cv = expand_word_to_char(wv, utt)
        pv = expand_char_to_phone(cv, utt)
        if cv.shape[0] != utt.num_chars or pv.shape[0] != utt.num_phones:
            ok = False
        repeats = [sum(utt.phones_per_char[s:e]) for s, e in utt.word_spans]
        if not np.array_equal(pv, np.repeat(wv, repeats, axis=0)):
            ok = False
    report(6, "length regulators: sizes and composition law, 1000 instances", ok)
    assert ok


# -- criterion 7: CWT properties ---------------------------------------------


def test_criterion_7_cwt_properties():
    from prosemph.dsp import ProsodicTrack

    def track(v):
        return ProsodicTrack(np.asarray(v, dtype=float), 100.0, "zscore")

    rng = np.random.default_rng(3)
    ok = True
    # annihilation
    sc = prominence.cwt_ricker(track(np.full(300, 2.2)), num_scales=8)
    ok &= bool(np.max(np.abs(sc.coefficients)) <= 1e-6)
    # linearity
    x, y = rng.normal(size=250), rng.normal(size=250)
    cx = prominence.cwt_ricker(track(x), num_scales=6).coefficients
    cy = prominence.cwt_ricker(track(y), num_scales=6).coefficients
    cxy = prominence.cwt_ricker(track(1.7 * x - 0.4 * y), num_scales=6).coefficients
    ok &= bool(np.max(np.abs(cxy - (1.7 * cx - 0.4 * cy))) < 1e-9)
    # impulse symmetry
    imp = np.zeros(301)
    imp[150] = 1.0
    sc = prominence.cwt_ricker(track(imp), num_scales=8)
    ok &= all(int(np.argmax(np.abs(row))) == 150 for row in sc.coefficients)
    # cosine scale localization vs dense sweep
    n = 400
    cos = np.cos(2 * np.pi * np.arange(n) / 24.0)
    sc = prominence.cwt_ricker(track(cos), num_scales=12, scales_per_octave=2,
                               base_scale_frames=2.0)
    interior = slice(n // 4, 3 * n // 4)
    row_peak = np.max(np.abs(sc.coefficients[:, interior]), axis=1)
    got = sc.scales_frames[int(np.argmax(row_peak))]
    dense = np.geomspace(sc.scales_frames[0], sc.scales_frames[-1], 60)
    oracle = dense[int(np.argmax([brute_force_response(cos[:150], s)
                                  for s in dense]))]
    step = 2 ** 0.5
    ok &= bool(max(got / oracle, oracle / got) < step * 1.0001)
    report(7, "wavelet transform analytic properties", ok)
    assert ok


# -- criterion 8: metric harness fixtures ------------------------------------


def test_criterion_8_metric_fixtures():
    def labset(emph, n=8):
        return corpus.EmphasisLabels(
            "u", tuple(1 if i in emph else 0 for i in range(n)), (1.0,) * n,
            "predicted",
        )

    m1 = metrics.evaluate({"u": labset({2, 5})}, {"u": labset({2, 7})})
    m2 = metrics.evaluate({"u": labset({1, 3})}, {"u": labset({1, 3})})
    m3 = metrics.evaluate({"u": labset(set())}, {"u": labset({0, 2})})
    ok = (
        (m1.precision, m1.recall, m1.f_score) == (0.5, 0.5, 0.5)
        and (m2.precision, m2.recall, m2.f_score) == (1.0, 1.0, 1.0)
        and (m3.precision, m3.recall, m3.f_score) == (0.0, 0.0, 0.0)
    )
    report(8, "hand-counted metric fixtures", ok)
    assert ok


# -- criterion 9: end-to-end determinism -------------------------------------


def _make_audio_corpus(c, w, count=2):
    c.mkdir(parents=True)
    w.mkdir(parents=True)
    rng = np.random.default_rng(1)
    for i in range(count):
        uid = f"a{i}"
        utt, wav = synth_utterance(uid, rng, emphasized=i % 5)
        corpus.save_utterance(utt, c / f"{uid}.utt.json")
        write_wav(w / f"{uid}.wav", wav)


def _make_labeled_corpus(c, count=6):
    c.mkdir(parents=True)
    for ex in gen_learnable_corpus(count, 5, TAGSET):
        uid = ex.utt.id
        corpus.save_utterance(ex.utt, c / f"{uid}.utt.json")
        corpus.save_annotation(ex.ann, TAGSET, c / f"{uid}.ann.json")
        corpus.save_labels(ex.labels, c / f"{uid}.lab.tsv")


def _tree_bytes(d, exclude=("manifest.json",)):
    out = {}
    for p in sorted(d.rglob("*")):
        if p.is_file() and p.name not in exclude:
            out[str(p.relative_to(d))] = p.read_bytes()
    return out


@short_audio
def test_criterion_9_determinism(tmp_path):
    audio_c, wav = tmp_path / "ac", tmp_path / "wav"
    _make_audio_corpus(audio_c, wav)
    text_c = tmp_path / "tc"
    _make_labeled_corpus(text_c)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"hidden_dim": 16, "num_iterations": 2, "head_hidden": 8},
        "train": {"epochs": 2, "learning_rate": 1e-3, "batch_size": 4, "seed": 0},
        "semantic": {"mode": "hash", "dim": 16, "seed": 0},
        "cond_dim": 16, "emph_dim": 4,
    }))
    trees = {}
    for run in range(2):
        base = tmp_path / f"run{run}"
        assert cli.main(["label", "--corpus", str(audio_c), "--wav", str(wav),
                         "--out", str(base / "label"), "--scores"]) == 0
        assert cli.main(["train", "--corpus", str(text_c), "--config", str(cfg),
                         "--out", str(base / "train")]) == 0
        assert cli.main(["predict", "--corpus", str(text_c), "--config", str(cfg),
                         "--checkpoint", str(base / "train" / "model.pemo"),
                         "--out", str(base / "predict")]) == 0
        assert cli.main(["condition", "--corpus", str(text_c), "--config", str(cfg),
                         "--out", str(base / "cond"), "--seed", "7"]) == 0
        trees[run] = {
            sub: _tree_bytes(base / sub)
            for sub in ("label", "train", "predict", "cond")
        }
    same = {sub: trees[0][sub] == trees[1][sub]
            for sub in ("label", "train", "predict", "cond")}
    ok = all(same.values())
    report(9, "label/train/predict/condition reruns byte-identical", ok,
           ", ".join(f"{k}:{'=' if v else '!='}" for k, v in same.items()))
    assert ok
    shutil.rmtree(tmp_path / "run0", ignore_errors=True)


# -- criterion 10: confidence-filter contract --------------------------------


def test_criterion_10_filter_contract(tmp_path):
    pseudo_dir = tmp_path / "pseudo"
    pred_dir = tmp_path / "pred"
    pseudo_dir.mkdir()
    pred_dir.mkdir()
    rng = np.random.default_rng(42)
    for i in range(40):
        uid = f"f{i}"
        n = int(rng.integers(1, 6))
        labels = tuple(int(x) for x in rng.integers(0, 2, n))
        corpus.save_labels(
            corpus.EmphasisLabels(uid, labels, (1.0,) * n, "pseudo"),
            pseudo_dir / f"{uid}.lab.tsv",
        )
        confs = tuple(float(c) for c in rng.uniform(0.4, 1.0, n))
        corpus.save_labels(
            corpus.EmphasisLabels(uid, labels, confs, "predicted"),
            pred_dir / f"{uid}.lab.tsv",
        )
    sizes = []
    for tau in (0.5, 0.7, 0.9, 1.01):
        out = tmp_path / f"tau{tau}"
        assert cli.main(["filter", "--corpus", str(pseudo_dir),
                         "--predicted", str(pred_dir), "--tau", str(tau),
                         "--out", str(out)]) == 0
        sizes.append(len(json.loads((out / "kept.json").read_text())))
    ok = all(a >= b for a, b in zip(sizes, sizes[1:])) and sizes[-1] == 0
    report(10, "tau sweep: kept counts non-increasing, tau>1 empty", ok,
           f"sizes {sizes}")
    assert ok
