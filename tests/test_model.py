import math

import numpy as np
import pytest

from prosemph import corpus, embeddings, model as M
from prosemph.errors import DimMismatchError, EmptyDatasetError
from prosemph.graph import CharGraph, build_char_graph

from synth import gen_learnable_corpus


def small_model(tagset, hidden=8, sem=8, pos=4, head=4, iters=3, seed=0,
                dtype=np.float64):
    prov = embeddings.hash_provider(dim=sem, seed=seed)
    cfg = M.ModelConfig(hidden_dim=hidden, num_iterations=iters, head_hidden=head,
                        pos_dim=pos, semantic_dim=sem, seed=seed)
    return M.PredictorModel(tagset, prov, cfg, dtype=dtype)


def small_example(tagset, uid="g1"):
    utt = corpus.Utterance(
        uid, ("a", "a", "c", "d"), ((0, 2), (2, 4)), (1, 2, 1, 1),
        ((0, 0.1), (0.1, 0.2), (0.2, 0.3), (0.3, 0.4)),
    )
    ann = corpus.DepAnnotation(
        uid, (tagset.pos["n"], tagset.pos["v"]), (1, None),
        (tagset.rel["SBV"], tagset.root_id),
    )
    lab = corpus.EmphasisLabels(uid, (0, 1, 0, 0), (1.0,) * 4, "human")
    return utt, ann, lab


# -- node init ---------------------------------------------------------------


def test_node_init_zero_projection(tagset):
    m = small_model(tagset)
    utt, ann, _ = small_example(tagset)
    m.params["proj_W"][:] = 0
    m.params["proj_b"][:] = 0
    h0, _ = m.node_init(utt, ann)
    assert h0.shape == (6, 8)
    assert np.all(h0[1:-1] == 0)
    assert np.array_equal(h0[0], m.params["bos"])
    assert np.array_equal(h0[-1], m.params["eos"])


def test_node_init_identity_projection(tagset):
    m = small_model(tagset, hidden=8, sem=4, pos=4)
    utt, ann, _ = small_example(tagset)
    m.params["proj_W"][:] = np.eye(8)
    m.params["proj_b"][:] = 0
    h0, cache = m.node_init(utt, ann)
    assert h0[1:-1] == pytest.approx(cache["x"])


def test_node_init_identical_chars_same_word(tagset):
    m = small_model(tagset)
    utt, ann, _ = small_example(tagset)  # chars 0 and 1 are both "a", same word
    h0, _ = m.node_init(utt, ann)
    assert np.array_equal(h0[1], h0[2])


# -- GGN ---------------------------------------------------------------------


def test_ggn_zero_iterations_is_identity(tagset):
    m = small_model(tagset, iters=0)
    utt, ann, _ = small_example(tagset)
    g = build_char_graph(utt, ann, tagset)
    h0, _ = m.node_init(utt, ann)
    hT, _ = m.ggn_forward(g, h0)
    assert np.array_equal(hT, h0)


def test_ggn_no_edges_matches_scalar_gru(tagset):
    # hidden_dim 1, empty edge set: h' = z*h + (1-z)*tanh(Uc*(r*h) + bc)
    m = small_model(tagset, hidden=1, sem=1, pos=1, head=1, iters=1)
    vals = {"gru_Uz": 0.7, "gru_bz": -0.2, "gru_Ur": 0.3, "gru_br": 0.1,
            "gru_Uc": 1.1, "gru_bc": 0.05,
            "gru_Wz": 0.0, "gru_Wr": 0.0, "gru_Wc": 0.0}
    for k, v in vals.items():
        m.params[k][:] = v
    g = CharGraph(num_nodes=2, edges=np.empty((0, 4), dtype=np.int64))
    h = 0.4
    h0 = np.array([[h], [h]])
    hT, _ = m.ggn_forward(g, h0)

    def sigmoid(x):
        return 1 / (1 + math.exp(-x))

    z = sigmoid(0.7 * h - 0.2)
    r = sigmoid(0.3 * h + 0.1)
    c = math.tanh(1.1 * (r * h) + 0.05)
    expected = z * h + (1 - z) * c
    assert hT == pytest.approx(np.full((2, 1), expected))


def test_ggn_permutation_equivariance(tagset):
    m = small_model(tagset, hidden=6, iters=3)
    rng = np.random.default_rng(3)
    n = 5
    edges = []
    for u, v, r in ((0, 1, 2), (1, 3, 5), (2, 3, 1), (4, 0, 7)):
        edges.append((u, v, r, 0))
        edges.append((v, u, r, 1))
    g = CharGraph(num_nodes=n, edges=np.array(edges, dtype=np.int64))
    h0 = rng.normal(size=(n, 6))
    hT, _ = m.ggn_forward(g, h0)

    perm = np.array([3, 0, 4, 1, 2])  # new id of each old node
    p_edges = [(int(perm[u]), int(perm[v]), r, d) for u, v, r, d in edges]
    gp = CharGraph(num_nodes=n, edges=np.array(p_edges, dtype=np.int64))
    h0p = np.empty_like(h0)
    h0p[perm] = h0
    hTp, _ = m.ggn_forward(gp, h0p)
    assert hTp[perm] == pytest.approx(hT, abs=1e-12)


# -- forward / loss ----------------------------------------------------------


def test_forward_zero_head_uniform(tagset):
    m = small_model(tagset)
    utt, ann, _ = small_example(tagset)
    for k in ("head_W1", "head_b1", "head_W2", "head_b2"):
        m.params[k][:] = 0
    probs, _ = m.forward(utt, ann)
    assert probs == pytest.approx(np.full((4, 2), 0.5))


def test_forward_rows_sum_to_one(tagset):
    m = small_model(tagset, seed=11)
    utt, ann, _ = small_example(tagset)
    probs, _ = m.forward(utt, ann)
    assert probs.shape == (utt.num_chars, 2)
    assert probs.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-9)
    assert np.all((probs > 0) & (probs < 1))


def test_loss_uniform_is_ln2(tagset):
    m = small_model(tagset)
    utt, ann, lab = small_example(tagset)
    for k in ("head_W1", "head_b1", "head_W2", "head_b2"):
        m.params[k][:] = 0
    loss, _ = m.loss_and_grads([M.Example(utt, ann, lab)], class_weight_positive=1.0)
    assert loss == pytest.approx(math.log(2))


def test_loss_perfect_prediction_near_zero(tagset):
    m = small_model(tagset)
    utt, ann, _ = small_example(tagset)
    lab = corpus.EmphasisLabels(utt.id, (0, 0, 0, 0), (1.0,) * 4, "human")
    m.params["head_W1"][:] = 0
    m.params["head_W2"][:] = 0
    m.params["head_b2"][:] = [30.0, -30.0]  # class 0 certain
    loss, _ = m.loss_and_grads([M.Example(utt, ann, lab)], class_weight_positive=1.0)
    assert loss <= 1e-6


def test_class_weight_scales_positive_terms(tagset):
    m = small_model(tagset)
    utt, ann, _ = small_example(tagset)
    for k in ("head_W1", "head_b1", "head_W2", "head_b2"):
        m.params[k][:] = 0
    lab = corpus.EmphasisLabels(utt.id, (1, 1, 1, 1), (1.0,) * 4, "human")
    loss, _ = m.loss_and_grads([M.Example(utt, ann, lab)], class_weight_positive=3.0)
    assert loss == pytest.approx(3 * math.log(2))


# -- gradients ---------------------------------------------------------------


def relative_error(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def fd_check(model, batch, rng, samples_per_tensor=6, eps=1e-5):
    loss, grads = model.loss_and_grads(batch)
    worst = 0.0
    for name, arr in model.params.items():
        flat = arr.reshape(-1)
        idxs = rng.choice(flat.size, size=min(samples_per_tensor, flat.size),
                          replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = model.loss_and_grads(batch)
            flat[i] = orig - eps
            lm, _ = model.loss_and_grads(batch)
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, relative_error(grads[name].reshape(-1)[i], fd))
    return worst


def test_full_model_gradient_check(tagset):
    rng = np.random.default_rng(77)
    for seed in range(5):
        m = small_model(tagset, seed=seed)
        utt, ann, lab = small_example(tagset, uid=f"gc{seed}")
        worst = fd_check(m, [M.Example(utt, ann, lab)], rng)
        assert worst <= 1e-4


def test_gradient_check_batched(tagset):
    rng = np.random.default_rng(5)
    m = small_model(tagset, seed=1)
    batch = []
    for uid in ("b1", "b2"):
        utt, ann, lab = small_example(tagset, uid=uid)
        batch.append(M.Example(utt, ann, lab))
    assert fd_check(m, batch, rng) <= 1e-4


# -- predict -----------------------------------------------------------------


def test_predict_confident_negative(tagset):
    m = small_model(tagset)
    utt, ann, _ = small_example(tagset)
    m.params["head_W1"][:] = 0
    m.params["head_W2"][:] = 0
    m.params["head_b2"][:] = [math.log(9), 0.0]  # probs (0.9, 0.1)
    lab = m.predict([M.Example(utt, ann)])[0]
    assert lab.labels == (0, 0, 0, 0)
    assert lab.confidences == pytest.approx((0.9,) * 4)
    assert lab.source == "predicted"


def test_predict_tie_breaks_to_zero(tagset):
    m = small_model(tagset)
    utt, ann, _ = small_example(tagset)
    for k in ("head_W1", "head_b1", "head_W2", "head_b2"):
        m.params[k][:] = 0
    lab = m.predict([M.Example(utt, ann)])[0]
    assert lab.labels == (0, 0, 0, 0)
    assert lab.confidences == pytest.approx((0.5,) * 4)


def test_logit_shift_invariance(tagset):
    m = small_model(tagset, seed=4)
    utt, ann, _ = small_example(tagset)
    before = m.predict([M.Example(utt, ann)])[0]
    m.params["head_b2"][:] += 7.3
    after = m.predict([M.Example(utt, ann)])[0]
    assert before.labels == after.labels


# -- training ----------------------------------------------------------------


def tiny_dataset(tagset, count=24, seed=0):
    return gen_learnable_corpus(count, seed, tagset)


def test_train_loss_decreases(tagset):
    data = tiny_dataset(tagset)
    prov = embeddings.hash_provider(dim=16, seed=0)
    m = M.PredictorModel(tagset, prov,
                         M.ModelConfig(hidden_dim=16, semantic_dim=16, seed=0))
    cfg = M.TrainConfig(epochs=10, learning_rate=1e-3, batch_size=8, seed=0)
    recs = M.train(m, data, cfg)
    assert recs[9]["loss"] < recs[0]["loss"]


def test_train_deterministic_checkpoints(tagset, tmp_path):
    data = tiny_dataset(tagset)
    prov = embeddings.hash_provider(dim=16, seed=0)
    cfg = M.TrainConfig(epochs=2, batch_size=8, seed=3)
    paths = []
    for run in range(2):
        m = M.PredictorModel(tagset, prov,
                             M.ModelConfig(hidden_dim=16, semantic_dim=16, seed=3))
        p = tmp_path / f"run{run}.pemo"
        M.train(m, [M.Example(e.utt, e.ann, e.labels) for e in data], cfg,
                checkpoint_path=p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_zero_lr_keeps_params(tagset):
    data = tiny_dataset(tagset, count=8)
    prov = embeddings.hash_provider(dim=16, seed=0)
    m = M.PredictorModel(tagset, prov,
                         M.ModelConfig(hidden_dim=16, semantic_dim=16, seed=0))
    before = {k: v.copy() for k, v in m.params.items()}
    M.train(m, data, M.TrainConfig(epochs=2, learning_rate=0.0, batch_size=4, seed=0))
    for k in before:
        assert np.array_equal(before[k], m.params[k])


def test_train_empty_dataset(tagset):
    prov = embeddings.hash_provider(dim=16, seed=0)
    m = M.PredictorModel(tagset, prov,
                         M.ModelConfig(hidden_dim=16, semantic_dim=16))
    with pytest.raises(EmptyDatasetError):
        M.train(m, [], M.TrainConfig())


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tagset, tmp_path):
    prov = embeddings.hash_provider(dim=16, seed=0)
    m = M.PredictorModel(tagset, prov,
                         M.ModelConfig(hidden_dim=16, semantic_dim=16, seed=8))
    utt, ann, _ = small_example(tagset)
    before = m.predict([M.Example(utt, ann)])[0]
    p = tmp_path / "m.pemo"
    m.save(p)
    loaded = M.PredictorModel.load(p, tagset, prov)
    after = loaded.predict([M.Example(utt, ann)])[0]
    assert before == after
    for k in m.params:
        assert np.array_equal(m.params[k], loaded.params[k])


def test_load_draws_no_init(tagset, tmp_path, monkeypatch):
    """load binds the read tensors; it draws no random init to discard."""
    prov = embeddings.hash_provider(dim=16, seed=0)
    m = M.PredictorModel(tagset, prov, M.ModelConfig(hidden_dim=16, semantic_dim=16))
    m.save(tmp_path / "m.pemo")

    def no_init(self):
        raise AssertionError("load drew an init")

    monkeypatch.setattr(M.PredictorModel, "_init_params", no_init)
    loaded = M.PredictorModel.load(tmp_path / "m.pemo", tagset, prov)
    assert (loaded.tagset, loaded.provider, loaded.config) == (tagset, prov, m.config)
    assert loaded.dtype == np.float32
    for k, v in m.params.items():
        assert np.array_equal(loaded.params[k], v)
        assert loaded.params[k].flags.writeable and loaded.params[k].flags.owndata
    with pytest.raises(DimMismatchError):
        M.PredictorModel.load(tmp_path / "m.pemo", tagset, embeddings.hash_provider(dim=8))


def test_init_params_match_whole_tensor_draws(tagset):
    """The blocked draws give the whole-tensor rng.uniform(...).astype bits."""
    cfg = M.ModelConfig(hidden_dim=64, head_hidden=8, semantic_dim=8, seed=5)
    shapes = M._param_shapes(cfg, tagset)
    assert any(math.prod(s) > M.INIT_BLOCK and math.prod(s) % M.INIT_BLOCK
               for s in shapes.values())
    params = M.PredictorModel(tagset, embeddings.hash_provider(dim=8), cfg).params
    rng = np.random.default_rng(cfg.seed)
    for name, shape in shapes.items():
        if name in ("bos", "eos", "pos_table") or len(shape) < 2:
            limit = 0.1
        else:
            limit = np.sqrt(6.0 / (shape[-1] + shape[-2]))
        if "_b" in name:
            want = np.full(shape, name == "gru_bz", np.float32)
        else:
            want = rng.uniform(-limit, limit, size=shape).astype(np.float32)
        assert params[name].dtype == np.float32
        assert np.array_equal(params[name], want), name


def test_checkpoint_rejects_wrong_magic(tagset, tmp_path):
    p = tmp_path / "bad.pemo"
    p.write_bytes(b"JUNK" + b"\x00" * 40)
    prov = embeddings.hash_provider(dim=16, seed=0)
    from prosemph.errors import MalformedFileError

    with pytest.raises(MalformedFileError):
        M.PredictorModel.load(p, tagset, prov)


def test_provider_dim_mismatch(tagset):
    prov = embeddings.hash_provider(dim=8, seed=0)
    with pytest.raises(DimMismatchError):
        M.PredictorModel(tagset, prov, M.ModelConfig(semantic_dim=16))


# -- packed minibatches ------------------------------------------------------


def varied_batch(tagset, lengths=(1, 3, 5, 8)):
    """Utterances of different lengths with two-char words chained by
    alternating SBV/ATT arcs, and random labels."""
    rng = np.random.default_rng(21)
    batch = []
    for k, n in enumerate(lengths):
        uid = f"v{k}"
        spans = tuple((s, min(s + 2, n)) for s in range(0, n, 2))
        words = len(spans)
        utt = corpus.Utterance(
            uid, tuple(chr(ord("a") + (3 * i + k) % 26) for i in range(n)), spans,
            (1,) * n, tuple((i * 0.1, (i + 1) * 0.1) for i in range(n)),
        )
        ann = corpus.DepAnnotation(
            uid, tuple(tagset.pos["nv"[w % 2]] for w in range(words)),
            tuple(w + 1 if w + 1 < words else None for w in range(words)),
            tuple(tagset.rel[("SBV", "ATT")[w % 2]] if w + 1 < words
                  else tagset.root_id for w in range(words)),
        )
        lab = corpus.EmphasisLabels(
            uid, tuple(int(x) for x in rng.integers(0, 2, n)), (1.0,) * n, "human")
        batch.append(M.Example(utt, ann, lab))
    return batch


def test_packed_loss_is_char_weighted_sum_of_singles(tagset):
    m = small_model(tagset, seed=2)
    batch = varied_batch(tagset)
    loss, grads = m.loss_and_grads(batch)
    total = sum(ex.utt.num_chars for ex in batch)
    want_loss = 0.0
    want = m.zero_grads()
    for ex in batch:
        li, gi = m.loss_and_grads([ex])
        share = ex.utt.num_chars / total
        want_loss += share * li
        for k in want:
            want[k] += share * gi[k]
    assert loss == pytest.approx(want_loss, rel=0, abs=1e-10)
    for k in want:
        assert np.abs(grads[k] - want[k]).max() <= 1e-10, k


def test_gradient_check_packed_varied_lengths(tagset):
    m = small_model(tagset, seed=3)
    assert fd_check(m, varied_batch(tagset), np.random.default_rng(9)) <= 1e-4


def test_ggn_union_blocks_are_independent(tagset):
    from prosemph.graph import disjoint_union

    m = small_model(tagset, seed=5)
    parts = [(ex.utt, ex.ann) for ex in varied_batch(tagset, lengths=(3, 6))]
    graphs = [build_char_graph(utt, ann, tagset) for utt, ann in parts]
    h0s = [m.node_init(utt, ann)[0] for utt, ann in parts]
    union = disjoint_union(graphs)
    assert union.num_nodes == sum(g.num_nodes for g in graphs)
    packed, _ = m.ggn_forward(union, np.vstack(h0s))
    alone = np.vstack([m.ggn_forward(g, h0)[0] for g, h0 in zip(graphs, h0s)])
    assert np.abs(packed - alone).max() <= 1e-12


def test_packed_predict_matches_single_forward(tagset):
    m = small_model(tagset, seed=6)
    batch = varied_batch(tagset, lengths=(1, 3, 5, 8) * (M.PREDICT_PACK // 4 + 1))
    labs = m.predict(batch)
    assert len(labs) > M.PREDICT_PACK  # crosses a pack boundary
    for ex, lab in zip(batch, labs):
        probs, _ = m.forward(ex.utt, ex.ann)
        assert lab.utterance_id == ex.utt.id
        assert lab.labels == tuple(int(p1 > p0) for p0, p1 in probs)
        assert lab.confidences == pytest.approx(probs.max(axis=1), abs=1e-12)


def test_prebuilt_graph_is_the_graph_built_on_demand(tagset):
    m = small_model(tagset, seed=7)
    batch = varied_batch(tagset)  # graph=None: the model builds each graph
    prebuilt = [M.Example(ex.utt, ex.ann, ex.labels, build_char_graph(ex.utt, ex.ann, tagset))
                for ex in batch]
    loss, grads = m.loss_and_grads(batch)
    loss_pre, grads_pre = m.loss_and_grads(prebuilt)
    assert loss == loss_pre
    assert all(np.array_equal(grads[k], grads_pre[k]) for k in grads)
    assert m.predict(batch) == m.predict(prebuilt)


def test_adam_in_place_step_is_bit_identical():
    """Three steps of the in-place update against the plain formula."""
    rng = np.random.default_rng(4)
    # "d" spans more than one ADAM_BLOCK and ends in a partial block
    shapes = {"a": (7, 5), "b": (3,), "c": (2, 3, 4), "d": (3, M.ADAM_BLOCK // 2 + 7)}
    assert math.prod(shapes["d"]) > M.ADAM_BLOCK
    assert math.prod(shapes["d"]) % M.ADAM_BLOCK
    params = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros_like(v) for k, v in params.items()}
    ref_v = {k: np.zeros_like(v) for k, v in params.items()}
    opt = M.AdamOptimizer(params, learning_rate=1e-2)
    b1, b2, lr, eps = 0.9, 0.999, 1e-2, 1e-8
    for t in range(1, 4):
        grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
        opt.step(params, grads)
        for k, g in grads.items():
            ref_m[k] = b1 * ref_m[k] + (1 - b1) * g
            ref_v[k] = b2 * ref_v[k] + (1 - b2) * g * g
            mhat = ref_m[k] / (1 - b1**t)
            vhat = ref_v[k] / (1 - b2**t)
            ref[k] -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(ref[k].dtype)
    for k in shapes:
        assert np.array_equal(params[k], ref[k])
        assert np.array_equal(opt.m[k], ref_m[k])
        assert np.array_equal(opt.v[k], ref_v[k])
