import itertools

import numpy as np
import pytest

from spans import Recorder, Span, Tracer, layer_totals, self_times


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # root 0-10 { a 1-4 { g 2-3 }, b 5-7 }
    rec = Recorder(clock=fake_clock([0, 1, 2, 3, 4, 5, 7, 10]))
    root = rec.begin("root", "u1")
    a = rec.begin("a")
    g = rec.begin("g")
    rec.end(g)
    rec.end(a)
    b = rec.begin("b")
    rec.end(b)
    rec.end(root)
    assert self_times(rec.spans) == [5, 2, 1, 2]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert {s.item for s in rec.spans} == {"u1"}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("p", 0.0, 10.0, None, None),
        Span("c", 1.0, 5.0, 0, None),
        Span("c", 3.0, 6.0, 0, None),
        Span("c", 9.0, 12.0, 0, None),  # runs past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 1)


def test_layer_totals_do_not_double_count_recursion():
    spans = [
        Span("f", 0.0, 4.0, None, None),
        Span("f", 1.0, 3.0, 0, None),
        Span("h", 1.5, 2.0, 1, None),
    ]
    t = layer_totals(spans)
    assert t["f"] == {"s": 4.0, "self_s": 2.0 + 1.5, "calls": 2}
    assert t["h"] == {"s": 0.5, "self_s": 0.5, "calls": 1}


def test_spans_must_close_in_order():
    rec = Recorder(clock=itertools.count().__next__)
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def test_tracer_wraps_public_layers_and_restores_them(tagset, tiny_utt, tiny_ann):
    from prosemph import graph, model
    from prosemph.embeddings import hash_provider

    originals = (graph.build_char_graph, model.build_char_graph,
                 model.PredictorModel.forward, model.PredictorModel.__dict__["load"])
    m = model.PredictorModel(
        tagset, hash_provider(dim=8),
        model.ModelConfig(hidden_dim=4, head_hidden=4, semantic_dim=8))
    opt = model.AdamOptimizer(m.params, 1e-3)
    rec = Recorder()
    seen = []
    with Tracer(rec, {"graph.build_char_graph": lambda a, k, r: seen.append(len(r.edges))}):
        assert model.build_char_graph is graph.build_char_graph
        assert isinstance(model.PredictorModel.__dict__["load"], classmethod)
        probs, _ = m.forward(tiny_utt, tiny_ann)
        opt.step(m.params, m.zero_grads())
    assert (graph.build_char_graph, model.build_char_graph, model.PredictorModel.forward,
            model.PredictorModel.__dict__["load"]) == originals
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)

    names = [s.name for s in rec.spans]
    assert names[0] == "model.forward"
    for name in ("graph.build_char_graph", "model.node_init",
                 "embeddings.semantic_rows", "model.ggn_forward", "model.adam_step"):
        assert name in names
    forward = rec.spans[0]
    forward_items = {s.item for s in rec.spans if s.end <= forward.end}
    assert forward_items == {tiny_utt.id}
    rows = names.index("embeddings.semantic_rows")
    assert rec.spans[rec.spans[rows].parent].name == "model.node_init"
    assert seen == [len(graph.build_char_graph(tiny_utt, tiny_ann, tagset).edges)]


@pytest.fixture
def tagset():
    from prosemph.tagset import default_tagset

    return default_tagset()


@pytest.fixture
def tiny_utt():
    from prosemph import corpus

    return corpus.Utterance(
        id="u1", chars=("a", "b", "c"), word_spans=((0, 2), (2, 3)),
        phones_per_char=(2, 2, 1), char_times=((0.0, 0.2), (0.2, 0.4), (0.4, 0.6)))


@pytest.fixture
def tiny_ann(tagset, tiny_utt):
    from prosemph import corpus

    return corpus.DepAnnotation(
        utterance_id="u1", pos_tags=(tagset.pos["n"], tagset.pos["v"]),
        heads=(1, None), relations=(tagset.rel["SBV"], tagset.root_id))
