"""Graph-neural emphasis predictor.

Character nodes are initialized from POS and semantic embeddings, encoded
by a gated graph network (GRU-style updates, per-relation per-direction
message weights mixed from shared bases, fixed iteration count) over the
BOS/EOS-augmented character graph, and classified per character by a
two-layer head.

All gradients are analytic and hand-derived; finite-difference tests in
the suite pin them down. Everything is plain numpy so training is
deterministic and checkpoints are bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import DepAnnotation, EmphasisLabels, Utterance
from .codec import U32_LIMIT, Reader, Writer
from .embeddings import (
    POS_DIM_DEFAULT,
    SEMANTIC_DIM_DEFAULT,
    SemanticProvider,
)
from .errors import DimMismatchError, EmptyDatasetError, LengthMismatchError, NonFiniteLossError
from .graph import CharGraph, build_char_graph, disjoint_union, expand_word_to_char
from .metrics import evaluate
from .tagset import Tagset

PEMO_MAGIC = b"PEMO"
PEMO_VERSION = 3

HIDDEN_DEFAULT = 512
ITERATIONS_DEFAULT = 3
HEAD_HIDDEN_DEFAULT = 128
NUM_CLASSES = 2
# shared bases whose mix is each (relation, direction)'s message matrix
MSG_BASES = 4
# utterances per packed propagation when predicting
PREDICT_PACK = 64
# elements per slice of the blocked Adam update and of the blocked init draws
ADAM_BLOCK = 1 << 16
INIT_BLOCK = 1 << 16


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = HIDDEN_DEFAULT
    num_iterations: int = ITERATIONS_DEFAULT
    head_hidden: int = HEAD_HIDDEN_DEFAULT
    pos_dim: int = POS_DIM_DEFAULT
    semantic_dim: int = SEMANTIC_DIM_DEFAULT
    seed: int = 0

    def __post_init__(self):
        dims = (self.hidden_dim, self.head_hidden, self.pos_dim, self.semantic_dim)
        if not all(type(v) is int for v in (*dims, self.num_iterations, self.seed)):
            raise ValueError("model config values must be integers")
        if (min(dims) < 1 or max(dims) >= U32_LIMIT or self.num_iterations < 0
                or self.seed < 0):
            raise ValueError("model dims must be in 1..2**32-1, num_iterations and seed >= 0")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 5e-5
    batch_size: int = 32
    seed: int = 0
    class_weight_positive: float = 3.0

    def __post_init__(self):
        if (min(self.epochs, self.learning_rate, self.seed, self.class_weight_positive) < 0
                or self.batch_size < 1):
            raise ValueError("need batch_size >= 1 and the other train values >= 0")


@dataclass
class Example:
    """One utterance as the model reads it; `labels` only the loss reads."""

    utt: Utterance
    ann: DepAnnotation
    labels: EmphasisLabels | None = None
    graph: CharGraph | None = None


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _scatter_sum(rows, x, num_rows):
    """out[i] = the sum of the x[e] with rows[e] == i, added in edge order
    from +0.0: the bits of the CSR product that sums x into its rows. Pass k
    adds the k-th edge of every row at once, up to the largest in-degree."""
    counts = np.bincount(rows, minlength=num_rows)
    order = np.argsort(rows, kind="stable")
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    out = np.zeros((num_rows, x.shape[1]), x.dtype)
    for k in range(counts.max(initial=0)):
        e = order[rank == k]
        out[rows[e]] += x[e]
    return out


def _fill_uniform(rng, limit, out):
    """out[...] = rng.uniform(-limit, limit, out.shape), drawn INIT_BLOCK
    doubles at a time straight into out (C-contiguous): each double takes one
    64-bit draw, so the stream and the values are those of the whole-tensor
    draw, cast to out's dtype."""
    flat = out.reshape(-1, copy=False)
    for a in range(0, flat.size, INIT_BLOCK):
        part = flat[a : a + INIT_BLOCK]
        part[...] = rng.uniform(-limit, limit, size=part.size)


def _affine_backward(dy, x, W, gW, gb):
    """Backward of y = x @ W.T + b: adds into gW and gb, returns d(x)."""
    gW += dy.T @ x
    gb += dy.sum(axis=0)
    return dy @ W


def param_shapes(cfg: ModelConfig, tagset: Tagset) -> dict[str, tuple[int, ...]]:
    H, R, K = cfg.hidden_dim, tagset.num_relations, cfg.head_hidden
    shapes = {
        "proj_W": (H, cfg.semantic_dim + cfg.pos_dim), "proj_b": (H,),
        "bos": (H,), "eos": (H,), "pos_table": (tagset.num_pos, cfg.pos_dim),
        # W[slot, d] = sum over b of msg_a[slot, d, b] * msg_V[b], with one
        # slot per relation but ROOT: Tagset.msg_slot
        "msg_V": (MSG_BASES, H, H), "msg_a": (R - 1, 2, MSG_BASES), "msg_b": (R - 1, 2, H),
        "head_W1": (K, H), "head_b1": (K,),
        "head_W2": (NUM_CLASSES, K), "head_b2": (NUM_CLASSES,),
    }
    for g in ("z", "r", "c"):
        shapes |= {f"gru_W{g}": (H, H), f"gru_U{g}": (H, H), f"gru_b{g}": (H,)}
    return shapes


class PredictorModel:
    """Full predictor: parameters, tagset binding and a semantic provider."""

    def __init__(
        self,
        tagset: Tagset,
        provider: SemanticProvider,
        config: ModelConfig = ModelConfig(),
        dtype=np.float32,
    ):
        self._bind(tagset, provider, config, dtype)
        self.params = self._init_params()

    def _bind(self, tagset, provider, config, dtype):
        if provider.dim != config.semantic_dim:
            raise DimMismatchError(
                f"provider dim {provider.dim} != configured semantic dim "
                f"{config.semantic_dim}"
            )
        self.tagset = tagset
        self.provider = provider
        self.config = config
        self.dtype = dtype

    def _init_params(self) -> dict[str, np.ndarray]:
        """Glorot weights, U(-0.1, 0.1) embeddings, zero biases, and
        msg_a from U(±sqrt(3 / MSG_BASES)), so that each mixed message
        matrix has the variance of a Glorot draw. Drawn in `param_shapes`
        order, which the checkpoint bytes depend on."""
        rng = np.random.default_rng(self.config.seed)
        p = {}
        for name, shape in param_shapes(self.config, self.tagset).items():
            if "_b" in name:
                p[name] = np.zeros(shape, dtype=self.dtype)
                continue
            if name in ("bos", "eos", "pos_table"):
                limit = 0.1
            elif name == "msg_a":
                limit = np.sqrt(3.0 / MSG_BASES)
            else:
                limit = np.sqrt(6.0 / (shape[-1] + shape[-2]))
            p[name] = np.empty(shape, dtype=self.dtype)
            _fill_uniform(rng, limit, p[name])
        # update gate starts open toward state retention
        p["gru_bz"] = np.ones_like(p["gru_bz"])
        return p

    # -- feature assembly ---------------------------------------------------

    def node_init(self, utt: Utterance, ann: DepAnnotation):
        """Initial node matrix [num_nodes x hidden] plus backward cache."""
        p = self.params
        sem = np.asarray(
            self.provider.rows(utt.id, utt.chars), dtype=self.dtype
        )
        if sem.shape[1] != self.config.semantic_dim:
            raise DimMismatchError(
                f"{utt.id}: semantic rows of dim {sem.shape[1]}, expected "
                f"{self.config.semantic_dim}"
            )
        pos_char_ids = expand_word_to_char(np.asarray(ann.pos_tags), utt)
        pos_vec = p["pos_table"][pos_char_ids]
        x = np.concatenate([sem, pos_vec], axis=1)
        h_chars = x @ p["proj_W"].T + p["proj_b"]
        h0 = np.vstack([p["bos"][None, :], h_chars, p["eos"][None, :]])
        cache = {"x": x, "pos_char_ids": pos_char_ids}
        return h0, cache

    # -- GGN ---------------------------------------------------------------

    def ggn_forward(self, graph: CharGraph, h0: np.ndarray):
        """Propagate for num_iterations; returns final states and caches.

        Edges are sorted once by (relation, direction), and the message
        matrix of each group present is mixed from the bases once, with the
        coefficients of the relation's `Tagset.msg_slot` (an edge labeled
        ROOT raises MalformedFileError). Each step runs one matmul per group,
        and `_scatter_sum` adds the messages into their destination nodes.
        """
        if h0.shape[0] != graph.num_nodes:
            raise LengthMismatchError("h0 rows must equal graph node count")
        p = self.params
        num_edges = len(graph.edges)
        key = graph.edges[:, 2] * 2 + graph.edges[:, 3]
        order = np.argsort(key, kind="stable")
        src, dst, key = graph.edges[order, 0], graph.edges[order, 1], key[order]
        bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1)).tolist()
        groups = []
        for a, b in zip(bounds, bounds[1:]):
            rel, d = divmod(int(key[a]), 2)
            groups.append(((self.tagset.msg_slot(rel), d), slice(a, b)))
        V = p["msg_V"]
        slots = np.array([sd for sd, _ in groups], dtype=np.intp).reshape(-1, 2)
        coef = p["msg_a"][slots[:, 0], slots[:, 1]]
        W = (coef @ V.reshape(len(V), -1)).reshape(-1, *V.shape[1:])
        dtype = np.result_type(h0, W)
        h = h0
        steps = []
        for _ in range(self.config.num_iterations):
            hs = h[src]
            msg = np.empty((num_edges, h.shape[1]), dtype=dtype)
            for g, ((slot, d), s) in enumerate(groups):
                msg[s] = hs[s] @ W[g].T + p["msg_b"][slot, d]
            m = _scatter_sum(dst, msg, graph.num_nodes)
            z = _sigmoid(self._gate("z", m, h))
            r = _sigmoid(self._gate("r", m, h))
            c = np.tanh(self._gate("c", m, r * h))
            steps.append((h, m, z, r, c))
            h = z * h + (1.0 - z) * c
        cache = {"steps": steps, "src": src, "dst": dst, "groups": groups,
                 "slots": slots, "coef": coef, "W": W}
        return h, cache

    def _gate(self, g, m, hin):
        """Pre-activation of GRU gate g (z, r or c) from messages and state."""
        p = self.params
        return m @ p[f"gru_W{g}"].T + hin @ p[f"gru_U{g}"].T + p[f"gru_b{g}"]

    def _gate_backward(self, g, da, m, hin, grads):
        """Backward of `_gate`: adds gate g's weight gradients, returns
        d(m) and d(hin)."""
        p = self.params
        grads[f"gru_U{g}"] += da.T @ hin
        dm = _affine_backward(da, m, p[f"gru_W{g}"], grads[f"gru_W{g}"], grads[f"gru_b{g}"])
        return dm, da @ p[f"gru_U{g}"]

    # -- full forward -------------------------------------------------------

    def _forward_packed(self, items):
        """One propagation over the disjoint union of the items' graphs.

        items: Examples. Returns the per-character class probabilities of
        all items stacked in order, plus caches.
        """
        p = self.params
        h0s, xs, pos_ids, graphs = [], [], [], []
        for ex in items:
            h0, init = self.node_init(ex.utt, ex.ann)
            h0s.append(h0)
            xs.append(init["x"])
            pos_ids.append(init["pos_char_ids"])
            graphs.append(ex.graph if ex.graph is not None
                          else build_char_graph(ex.utt, ex.ann, self.tagset))
        union = disjoint_union(graphs)
        hT, ggn_cache = self.ggn_forward(union, np.vstack(h0s))
        ends = np.cumsum([g.num_nodes for g in graphs])
        bos_rows, eos_rows = np.r_[0, ends[:-1]], ends - 1
        init_cache = {
            "x": np.vstack(xs),
            "pos_char_ids": np.concatenate(pos_ids),
            "bos_rows": bos_rows,
            "eos_rows": eos_rows,
            "char_rows": np.delete(np.arange(union.num_nodes), np.r_[bos_rows, eos_rows]),
        }
        h_chars = hT[init_cache["char_rows"]]
        a1 = h_chars @ p["head_W1"].T + p["head_b1"]
        hid = np.maximum(a1, 0.0)
        logits = hid @ p["head_W2"].T + p["head_b2"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        expl = np.exp(shifted)
        probs = expl / expl.sum(axis=1, keepdims=True)
        cache = {
            "init": init_cache,
            "ggn": ggn_cache,
            "num_nodes": union.num_nodes,
            "h_chars": h_chars,
            "hid": hid,
        }
        return probs, cache

    def forward(self, utt: Utterance, ann: DepAnnotation, graph: CharGraph | None = None):
        """Per-character class probabilities [num_chars x 2] plus caches."""
        return self._forward_packed([Example(utt, ann, graph=graph)])

    def predict(self, batch) -> list[EmphasisLabels]:
        """Argmax labels with confidences for Examples, PREDICT_PACK items per
        propagation; ties break toward non-emphasis."""
        out = []
        for start in range(0, len(batch), PREDICT_PACK):
            chunk = batch[start : start + PREDICT_PACK]
            probs, _ = self._forward_packed(chunk)
            labels = (probs[:, 1] > probs[:, 0]).astype(int).tolist()
            conf = probs.max(axis=1).tolist()
            pos = 0
            for ex in chunk:
                end = pos + ex.utt.num_chars
                out.append(EmphasisLabels(
                    utterance_id=ex.utt.id,
                    labels=tuple(labels[pos:end]),
                    confidences=tuple(conf[pos:end]),
                    source="predicted",
                ))
                pos = end
        return out

    # -- loss / gradients ---------------------------------------------------

    def zero_grads(self) -> dict[str, np.ndarray]:
        # np.zeros, not zeros_like: its pages are zeroed on first touch, not
        # written up front
        return {k: np.zeros(v.shape, v.dtype) for k, v in self.params.items()}

    def loss_and_grads(self, batch, class_weight_positive: float = 3.0):
        """Class-weighted cross-entropy over all characters in the batch.

        batch: labeled Examples, run as one packed graph. Returns
        (scalar loss, grads dict matching self.params).
        """
        total_chars = sum(ex.utt.num_chars for ex in batch)
        if total_chars == 0:
            raise EmptyDatasetError("batch contains no characters")
        for ex in batch:
            if len(ex.labels.labels) != ex.utt.num_chars:
                raise LengthMismatchError(
                    f"{ex.utt.id}: {len(ex.labels.labels)} labels for {ex.utt.num_chars} chars")
        probs, cache = self._forward_packed(batch)
        y = np.concatenate([np.asarray(ex.labels.labels, dtype=np.int64) for ex in batch])
        rows = np.arange(len(y))
        w = np.where(y == 1, class_weight_positive, 1.0)
        picked = np.clip(probs[rows, y], 1e-300, None)
        loss = float(np.sum(w * -np.log(picked))) / total_chars
        dlogits = probs.copy()
        dlogits[rows, y] -= 1.0
        dlogits *= (w / total_chars)[:, None]
        grads = self.zero_grads()
        self._backward(dlogits.astype(self.dtype), cache, grads)
        return loss, grads

    def _backward(self, dlogits, cache, grads):
        """Adds into grads the gradients of the loss whose d(logits) is given:
        the head, then BPTT through the propagation steps, then the node init.
        msg_V's, which only the mix of the message weights gives, is written
        over grads' zeros rather than added, so no temporary of its size is
        made."""
        p, init, ggn = self.params, cache["init"], cache["ggn"]
        hid, h_chars = cache["hid"], cache["h_chars"]
        dhid = _affine_backward(dlogits, hid, p["head_W2"], grads["head_W2"], grads["head_b2"])
        dh = np.zeros((cache["num_nodes"], h_chars.shape[1]), dtype=self.dtype)
        dh[init["char_rows"]] = _affine_backward(
            dhid * (hid > 0), h_chars, p["head_W1"], grads["head_W1"], grads["head_b1"])

        src, dst, W, steps = ggn["src"], ggn["dst"], ggn["W"], ggn["steps"]
        # each edge's message gradient and source state at each step, laid out
        # (edge, step, H) so that a group's rows of all steps are contiguous
        dmsgs = np.empty((len(src), len(steps), dh.shape[1]), dh.dtype)
        hss = np.empty_like(dmsgs)
        for t, (h, m, z, r, c) in reversed(list(enumerate(steps))):  # h: the step's input state
            dm = np.zeros(m.shape, m.dtype)
            dac = dh * (1.0 - z) * (1.0 - c * c)
            dm_g, drh = self._gate_backward("c", dac, m, r * h, grads)
            dm += dm_g
            dh_prev = dh * z
            dh_prev += drh * r
            for g, da in (("r", drh * h * r * (1.0 - r)), ("z", dh * (h - c) * z * (1.0 - z))):
                dm_g, dh_g = self._gate_backward(g, da, m, h, grads)
                dm += dm_g
                dh_prev += dh_g
            dmsg = dm[dst]
            dmsgs[:, t], hss[:, t] = dmsg, h[src]
            back = np.empty_like(dmsg)
            for g, (_, s) in enumerate(ggn["groups"]):
                back[s] = dmsg[s] @ W[g]
            dh_prev += _scatter_sum(src, back, len(dh))
            dh = dh_prev
        # each group's weight gradient, summed over the steps by one product
        gW = np.empty(W.shape, W.dtype)
        for g, ((slot, d), s) in enumerate(ggn["groups"]):
            dmsg = dmsgs[s].reshape(-1, dh.shape[1])
            np.matmul(dmsg.T, hss[s].reshape(dmsg.shape), out=gW[g])
            grads["msg_b"][slot, d] += dmsg.sum(axis=0)
        # through the mix: each group is a distinct (slot, direction)
        V, slots, gW = p["msg_V"], ggn["slots"], gW.reshape(len(W), -1)
        grads["msg_a"][slots[:, 0], slots[:, 1]] += gW @ V.reshape(len(V), -1).T
        np.matmul(ggn["coef"].T, gW, out=grads["msg_V"].reshape(len(V), -1))

        grads["bos"] += dh[init["bos_rows"]].sum(axis=0)
        grads["eos"] += dh[init["eos_rows"]].sum(axis=0)
        dx = _affine_backward(dh[init["char_rows"]], init["x"], p["proj_W"],
                              grads["proj_W"], grads["proj_b"])
        np.add.at(grads["pos_table"], init["pos_char_ids"], dx[:, self.config.semantic_dim:])

    # -- checkpoint io ------------------------------------------------------
    # PEMO layout: see "File formats" in the README.

    def save(self, path) -> None:
        cfg = self.config
        w = Writer(PEMO_MAGIC, PEMO_VERSION)
        w.pack("<III", cfg.hidden_dim, self.tagset.num_relations, cfg.semantic_dim)
        w.text(self.tagset.version_hash(), "<H")
        w.pack("<q", cfg.seed)
        w.text(json.dumps(vars(cfg), sort_keys=True))
        w.pack("<I", len(self.params))
        for name in sorted(self.params):
            arr = self.params[name]
            w.text(name)
            w.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
            w.floats(arr)
        w.save(path)

    @classmethod
    def load(cls, path, tagset: Tagset, provider: SemanticProvider) -> "PredictorModel":
        r = Reader(path, PEMO_MAGIC, PEMO_VERSION)
        hidden, num_rel, sem_dim = r.unpack("<III")
        stored_hash = r.text("<H")
        (seed,) = r.unpack("<q")
        try:
            meta = json.loads(r.text())
            config = ModelConfig(**meta)
        except (ValueError, TypeError) as exc:
            raise r.error(f"bad model config ({exc})") from exc
        if (config.hidden_dim, config.semantic_dim, config.seed) != (hidden, sem_dim, seed):
            raise r.error("header disagrees with model config")
        if num_rel != tagset.num_relations:
            raise r.error(
                f"checkpoint has {num_rel} relations, tagset has "
                f"{tagset.num_relations}"
            )
        if stored_hash != tagset.version_hash():
            raise r.error(f"tagset hash mismatch (checkpoint {stored_hash})")
        params = {}
        (count,) = r.unpack("<I")
        for _ in range(count):
            name = r.text()
            (ndim,) = r.unpack("<I")
            t = params[name] = r.floats(r.unpack(f"<{ndim}I"))
            # min and max carry any NaN or infinity, and allocate no array as large as t
            if not np.isfinite([t.min(initial=0), t.max(initial=0)]).all():
                raise r.error(f"tensor {name} holds a non-finite value")
        r.done()
        if {k: v.shape for k, v in params.items()} != param_shapes(config, tagset):
            raise r.error("tensor names or shapes do not match the model config")
        # bound to the read tensors without drawing an init to discard
        model = cls.__new__(cls)
        model._bind(tagset, provider, config, np.float32)
        model.params = params
        return model


# ---------------------------------------------------------------------------
# optimizer


class AdamOptimizer:
    """Adam with bias correction; beta = (0.9, 0.999), eps = 1e-8."""

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m = {k: np.zeros(v.shape, v.dtype) for k, v in params.items()}
        self.v = {k: np.zeros(v.shape, v.dtype) for k, v in params.items()}

    def step(self, params, grads):
        """One update, in place and in float32 where the tensors are. Each
        tensor runs the update's elementwise operations, in the same order,
        over ADAM_BLOCK-element slices, so the working set stays in cache
        and no whole-tensor temporary is made; the bits are those of the
        whole-tensor update. Tensors must be C-contiguous.

        Each gradient is popped out of grads as its tensor is updated, so
        step leaves grads empty and frees each gradient no one else holds:
        the next batch's backward pass does not run beside this batch's
        gradients."""
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for k in params:
            p = params[k].reshape(-1, copy=False)
            g = grads.pop(k).reshape(-1, copy=False)
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


# ---------------------------------------------------------------------------
# training loop


def train(
    model: PredictorModel,
    dataset: list[Example],
    cfg: TrainConfig,
    val_dataset: list[Example] | None = None,
    log_path=None,
) -> list[dict]:
    """Deterministic mini-batch training over whole utterances.

    Returns the per-epoch log records; optionally writes them to an
    LDJSON file. An Example without a graph has it built at every step.
    An epoch whose mean loss is not finite raises NonFiniteLossError before
    its record is logged.
    """
    if not dataset:
        raise EmptyDatasetError("training dataset is empty")
    optimizer = AdamOptimizer(model.params, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    records = []
    log_f = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(dataset))
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, len(dataset), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                batch = [dataset[i] for i in idx]
                loss, grads = model.loss_and_grads(
                    batch, class_weight_positive=cfg.class_weight_positive
                )
                optimizer.step(model.params, grads)
                epoch_loss += loss
                num_batches += 1
            rec = {"epoch": epoch, "loss": epoch_loss / max(num_batches, 1)}
            if not np.isfinite(rec["loss"]):
                raise NonFiniteLossError(f"epoch {epoch}: loss {rec['loss']}")
            if val_dataset:
                labs = model.predict(val_dataset)
                preds = {lab.utterance_id: lab for lab in labs}
                gold = {ex.utt.id: ex.labels for ex in val_dataset}
                m = evaluate(preds, gold)
                rec.update(
                    val_precision=m.precision, val_recall=m.recall, val_f=m.f_score
                )
            records.append(rec)
            if log_f:
                log_f.write(json.dumps(rec) + "\n")
                log_f.flush()
    finally:
        if log_f:
            log_f.close()
    return records
