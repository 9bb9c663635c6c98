"""prosody-emph: one executable over the whole pipeline.

Each subcommand, a key of WRITES, opens one run record (_Run) once its command
line and config file are checked and before it reads any input file. Opening
it clears --out of the last run's records and of what WRITES says the command
writes; finishing it writes failures.json, the results, then manifest.json.
Usage errors (a bad config file or a missing input directory too) exit 2 and
create nothing; so does a train or condition config too large for the
machine's memory, though its run record is open by then. Data errors, and an
item output that cannot be cleared or written (a NaN or an infinity in it
too), exit 1 with a per-item report; a whole-run error after it (a result that
cannot be written, nothing to train on, a training loss that diverges) exits 1
with one error line and no manifest.json.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
import typing
import warnings
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import conditioning, corpus, metrics, model as model_mod, prominence
from .codec import U32_LIMIT
from .embeddings import EMPHASIS_DIM_DEFAULT, SemanticConfig
from .errors import OutputWriteError, ProsemphError, describe
from .graph import build_char_graph
from .tagset import default_tagset, load_tagset


class UsageError(Exception):
    """Bad command line or config file; exits 2."""


def _tagset(args):
    return load_tagset(args.tagset) if args.tagset else default_tagset()


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """The config file of train, predict and condition. The run fixes the
    model's seed (the top-level one) and semantic_dim (the provider's dim)."""

    val_fraction: float = 0.0
    cond_dim: int = conditioning.COND_DIM_DEFAULT
    emph_dim: int = EMPHASIS_DIM_DEFAULT
    seed: int = 0
    model: model_mod.ModelConfig = dataclasses.field(
        default_factory=model_mod.ModelConfig, metadata={"fixed": ("seed", "semantic_dim")})
    train: model_mod.TrainConfig = dataclasses.field(default_factory=model_mod.TrainConfig)
    semantic: SemanticConfig = dataclasses.field(default_factory=SemanticConfig)

    def __post_init__(self):
        dims = (self.cond_dim, self.emph_dim)
        if (not 0 <= self.val_fraction < 1 or min(dims) < 1 or max(dims) >= U32_LIMIT
                or self.seed < 0):
            raise ValueError("need 0 <= val_fraction < 1, cond_dim and emph_dim in "
                             "1..2**32-1, seed >= 0")


def _typed(hint, value):
    """value as a field annotated `hint` holds it: an int from a JSON integer, a float
    from a finite JSON number, neither from a bool, a tuple from a JSON array."""
    args = typing.get_args(hint)  # a tuple's entries, or a union's members (str | None)
    if typing.get_origin(hint) is tuple:
        if type(value) is list and len(value) == len(args):
            return tuple(map(_typed, args, value))
    elif hint is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) in (args or (hint,)):
        return value
    raise TypeError


def _config(cls, values, section: str | None = None, fixed=()):
    """Decode one config object (section None: the whole file) into the frozen
    dataclass `cls`; a field whose default is a dataclass is a section, decoded
    the same way. A bad key is named: one with no field or one the run fixes, a
    value `_typed` rejects, or, if the class rejects the whole, one it rejects alone."""
    where = f"key {section}" if section else "file"
    if not isinstance(values, dict):
        raise UsageError(f"config {where}: expected a JSON object")
    fields, hints = {f.name: f for f in dataclasses.fields(cls)}, typing.get_type_hints(cls)
    prefix = f"{section}." if section else ""
    sections, scalars = {}, {}
    for key, value in values.items():
        f = fields.get(key)
        if f is None or key in fixed:
            raise UsageError(f"config key {prefix}{key}: "
                             f"{'set by the run' if f else 'unknown key'}")
        if dataclasses.is_dataclass(f.default_factory):
            sections[key] = _config(f.default_factory, value, prefix + key,
                                    f.metadata.get("fixed", ()))
            continue
        try:
            scalars[key] = _typed(hints[key], value)
        except TypeError:
            raise UsageError(f"config key {prefix}{key}: expected {f.type}, "
                             f"got {value!r}") from None
    try:
        return cls(**sections, **scalars)
    except (ValueError, OverflowError) as exc:
        error = exc
    for key, value in scalars.items():  # a key the checks reject with the defaults
        try:
            cls(**sections, **{key: value})
        except (ValueError, OverflowError) as exc:
            raise UsageError(f"config key {prefix}{key}: {exc}") from exc
    raise UsageError(f"config {where}: {error}") from error


def _read_config(cls, path):
    """The config file at path (None: all defaults) decoded into cls."""
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8")) if path else {}
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return _config(cls, values)


def _model_inputs(args):
    """The decoded config file of train, predict and condition, with --seed
    over its seeds, and a loader of their (tagset, semantic provider). The
    loader reads input files, so it runs once the run record is open."""
    cfg = _read_config(RunConfig, args.config)
    if cfg.semantic.mode == "file_backed" and cfg.semantic.path is None:
        raise UsageError("config key semantic.path: mode file_backed needs a path string")
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed,
                                  train=dataclasses.replace(cfg.train, seed=args.seed))
    return cfg, lambda: (_tagset(args), cfg.semantic.provider())


def _attempt(work, uid):
    """(uid, work(uid) or None, the failure or None, the warnings work raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = work(uid), None
        except ProsemphError as exc:
            outcome = None, describe(exc)
    return uid, *outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _output_error(verb: str, name: str, exc: OSError) -> OutputWriteError:
    return OutputWriteError(f"cannot {verb} {name}: {exc.strerror or exc}")


def _write_files(out_dir: Path, files) -> None:
    """Write files into out_dir, each (name, save, obj) by save(obj, path). Any
    error deletes what this call wrote; an OSError becomes an OutputWriteError."""
    names = []
    try:
        for name, save, obj in files:
            names.append(name)
            save(obj, out_dir / name)
    except Exception as exc:
        for done in names:
            with contextlib.suppress(OSError):
                (out_dir / done).unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _output_error("write", name, exc) from exc
        raise


def _save_json(obj, path) -> None:
    """The one format of every JSON file a run writes: indent 2, ASCII, no
    final newline. A NaN or an infinity in obj is an OutputWriteError, and
    nothing is written."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OutputWriteError(f"cannot write {Path(path).name}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _check_memory(shapes, dims) -> None:
    """UsageError when float32 tensors of the shapes shapes(**values) need
    more bytes than the machine's physical memory; runs before anything is
    drawn. dims maps each config key that sizes them to (argument, value).
    The error names the key that costs the most: the one that, set to 1,
    leaves the fewest elements."""
    values = dict(dims.values())

    def elements(**over):
        return sum(math.prod(shape) for shape in shapes(**{**values, **over}))

    need = np.dtype(np.float32).itemsize * elements()
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        key = min(dims, key=lambda k: elements(**{dims[k][0]: 1}))
        raise UsageError(f"config key {key}: the run would hold {elements():,} "
                         f"float32 values ({need:,} bytes), more than the machine's "
                         f"{have:,} bytes of memory")


def _semantic_key(cfg: RunConfig) -> str:
    """The config key that sets the semantic dim."""
    return "semantic.dim" if cfg.semantic.mode == "hash" else "semantic.path"


@cache
def _blas_core() -> str | None:
    """The core name of the OpenBLAS this process loaded, which names the
    kernels its matmuls run; None when no OpenBLAS says. Read once per
    process, as the kernels do not change while it runs."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({ln.split()[-1] for ln in f if "blas" in ln and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                    "openblas_get_corename"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode("ascii", "replace")
    return None


def _peak_rss_mb() -> float:
    """Peak resident set size so far of this process or of its largest
    finished child (a `--jobs` worker), in MB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


_RECORDS = ("manifest.json", "failures.json")  # the files that record a run itself
# what else each command writes into --out: (its whole-run results, in the
# order finish writes them; each item's outputs, <id><suffix>; --jobs above 1?)
WRITES = {
    "validate": (("validation.json",), (), False),
    "label": ((), (".lab.tsv", ".scores.tsv"), True),
    "train": (("train_log.ldjson", "model.pemo"), (), False),
    "predict": ((), (".lab.tsv",), False),
    "filter": (("kept.json",), (".lab.tsv",), False),
    "evaluate": (("metrics.json",), (), False),
    "condition": ((), (".cond.bin",), False),
}


class _Run:
    """The record of one command's run. Opening it creates `out` (None: the
    run writes no files) and deletes from it _RECORDS and the command's
    results in WRITES, so a run that fails as a whole leaves none of the last
    run's, and <id><suffix> for each of the `ids` and the command's suffixes,
    the items' outputs. The `ids` are the items the run goes over, and their
    count is its input_count. An `out` it cannot create or clear is a
    UsageError; an id with an output it cannot delete fails with an
    OutputWriteError, and `each` skips it. Never a glob: `out` may be a
    corpus directory."""

    def __init__(self, command: str, out, ids=()):
        self.command, self.out = command, Path(out) if out else None
        self.t0 = time.monotonic()
        self.failures: dict[str, str] = {}  # {utterance_id: "<Type>: <message>"}
        self.ids, self.input_count = ids, len(ids)
        results, suffixes, _ = WRITES[command]
        # each file the run may write: {name: the id it belongs to, None for the run}
        self.outputs = {**dict.fromkeys(results),
                        **{uid + suffix: uid for uid in ids for suffix in suffixes}}
        if self.out:
            try:
                self.out.mkdir(parents=True, exist_ok=True)
                for name, uid in {**dict.fromkeys(_RECORDS), **self.outputs}.items():
                    try:
                        (self.out / name).unlink(missing_ok=True)
                    except OSError as exc:
                        if uid is None:
                            raise
                        self.failures.setdefault(uid, describe(_output_error("clear", name, exc)))
            except OSError as exc:
                raise UsageError(f"--out {self.out}: cannot create or clear it ({exc})") from exc

    def each(self, work, jobs=1):
        """Run work(uid) for each of the run's ids that has not failed, in
        `jobs` spawned processes when jobs > 1 (work must then pickle); work's
        results other than None, in id order. A ProsemphError fails its item
        alone and is kept, and the warnings of each item are issued here, in
        id order, under this process's filters."""
        attempt = partial(_attempt, work)
        todo = [uid for uid in self.ids if uid not in self.failures]
        if jobs > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
                outcomes = list(pool.map(attempt, todo))
        else:
            outcomes = map(attempt, todo)
        results, registry = [], {}
        for uid, result, failure, caught in outcomes:
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno, registry=registry)
            if failure is not None:
                self.failures[uid] = failure
            elif result is not None:
                results.append(result)
        return results

    def items(self, corpus_dir, tagset, prepare):
        """each over the run's corpus items, with prepare(utt, ann) as the work."""
        return self.each(lambda uid: prepare(*corpus.load_item(corpus_dir, uid, tagset)))

    def finish(self, config, seed, results=None, label_version=None) -> int:
        """Print the failed items, then write failures.json (them, or []), the
        `results` ({name: (save, obj)} for _write_files) in WRITES order, and
        manifest.json, given the run's effective config; the exit code. Names
        other than the command's in WRITES raise ValueError, and nothing is
        written. A result that fails ends the run after its report and before
        manifest.json. The manifest lists each file the run cleared at opening
        that exists now and belongs to no failed item: a failed item's write
        is undone. `label_version`, label's algorithm version, is no config
        key: when given, the manifest records it and config_hash covers it."""
        results, names = results or {}, WRITES[self.command][0]
        if set(results) != set(names):
            raise ValueError(f"{self.command} writes the results {names}, not {list(results)}")
        report = [{"utterance_id": uid, "error": self.failures[uid]}
                  for uid in sorted(self.failures)]
        for item in report:
            print(f"{item['utterance_id']}\tfail\t{item['error']}", file=sys.stderr)
        if self.out:
            _write_files(self.out, [("failures.json", _save_json, report)])
            _write_files(self.out, [(name, *results[name]) for name in names])
            version = {} if label_version is None else {"label_version": label_version}
            blob = json.dumps({**config, **version}, sort_keys=True,
                              default=str).encode("utf-8")
            _write_files(self.out, [("manifest.json", _save_json, {
                "command": self.command,
                "config_hash": hashlib.sha256(blob).hexdigest(),
                **version,
                "seed": seed,
                "input_count": self.input_count,
                "output_paths": sorted(
                    name for name, uid in self.outputs.items()
                    if uid not in self.failures and (self.out / name).exists()),
                "wall_time_sec": time.monotonic() - self.t0,
                "peak_rss_mb": _peak_rss_mb(),
                "blas_core": _blas_core(),
            })])
        return 1 if report else 0


def _item_labels(labels_dir, uid, num_chars=None):
    """The item's <uid>.lab.tsv in labels_dir, or None when it has none there."""
    path = Path(labels_dir) / f"{uid}.lab.tsv"
    return corpus.load_labels(path, uid, num_chars) if path.exists() else None


def _example(tagset, provider, utt, ann, labels=None):
    """The item as the model reads it. Everything that can fail for one item
    happens here, so the packed propagations of train and predict see only good items."""
    graph = build_char_graph(utt, ann, tagset)
    provider.check(utt.id, utt.chars)
    return model_mod.Example(utt, ann, labels, graph)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    ids = corpus.corpus_ids(args.corpus)
    run = _Run("validate", args.out, ids)

    def check(utt, ann):
        _item_labels(args.corpus, utt.id, utt.num_chars)
        return utt.id

    passed, failures = run.items(args.corpus, _tagset(args), check), run.failures
    for uid in ids:
        print(f"{uid}\tfail\t{failures[uid]}" if uid in failures else f"{uid}\tpass")
    print(f"{len(passed)} pass, {len(failures)} fail")
    return run.finish({"corpus": str(args.corpus)}, 0, {"validation.json": (_save_json, [
        {"utterance_id": uid, "ok": uid not in failures, "failure": failures.get(uid)}
        for uid in ids])})


def _save_scores(scores, path) -> None:
    """Write <id>.scores.tsv; OutputWriteError, writing nothing, on a score or
    z-score that is not finite."""
    s = np.asarray(scores)
    z = prominence.standardize(s) if np.isfinite(s).all() else s
    if not np.isfinite(z).all():
        raise OutputWriteError(f"cannot write {Path(path).name}: a score is not finite")
    with open(path, "w", encoding="utf-8") as f:
        for i, (raw, zi) in enumerate(zip(s, z)):
            f.write(f"{i}\t{raw:.6f}\t{zi:.6f}\n")


def _label_one(corpus_dir, wav_dir, cfg, write_scores, out_dir: Path, uid) -> None:
    """Label one corpus item into out_dir."""
    utt = corpus.load_item_utterance(corpus_dir, uid)
    result = prominence.label_utterance(Path(wav_dir) / f"{uid}.wav", utt, cfg)
    files = [(f"{uid}.lab.tsv", corpus.save_labels, result.labels)]
    if write_scores:
        files.append((f"{uid}.scores.tsv", _save_scores, result.scores))
    _write_files(out_dir, files)


def cmd_label(args) -> int:
    cfg = _read_config(prominence.ProminenceConfig, args.config)
    run = _Run("label", args.out, corpus.corpus_ids(args.corpus))
    work = partial(_label_one, args.corpus, args.wav, cfg, args.scores, run.out)
    run.each(work, args.jobs)
    return run.finish(dataclasses.asdict(cfg), 0, label_version=prominence.LABEL_VERSION)


def cmd_train(args) -> int:
    cfg, load = _model_inputs(args)
    run = _Run("train", args.out, corpus.corpus_ids(args.corpus))
    tagset, provider = load()
    model_cfg = dataclasses.replace(cfg.model, seed=cfg.seed, semantic_dim=provider.dim)
    dims = {f"model.{f}": (f, getattr(model_cfg, f))
            for f in ("hidden_dim", "head_hidden", "pos_dim")}
    dims[_semantic_key(cfg)] = ("semantic_dim", provider.dim)

    def shapes(**values):
        # the parameters, their gradients, Adam's two moments, and the
        # matrices that a batch with every (relation, direction) mixes
        s = model_mod.param_shapes(dataclasses.replace(model_cfg, **values), tagset)
        return [*s.values()] * 4 + [s["msg_a"][:2] + s["msg_V"][1:]]

    _check_memory(shapes, dims)

    def labeled(utt, ann):
        # an utterance without labels is left out, not failed
        labels = _item_labels(args.labels or args.corpus, utt.id, utt.num_chars)
        return None if labels is None else _example(tagset, provider, utt, ann, labels)

    dataset = run.items(args.corpus, tagset, labeled)
    if cfg.val_fraction > 0:
        rng = np.random.default_rng(cfg.train.seed)
        order = rng.permutation(len(dataset))
        n_val = max(1, int(len(dataset) * cfg.val_fraction))
        val = [dataset[i] for i in order[:n_val]]
        trn = [dataset[i] for i in order[n_val:]]
    else:
        val, trn = None, dataset
    model = model_mod.PredictorModel(tagset, provider, model_cfg)
    # train writes its log as it goes, one record per epoch; with nothing to
    # train on it raises EmptyDatasetError
    return run.finish(dataclasses.asdict(cfg), cfg.train.seed, {
        "train_log.ldjson": (lambda m, path: model_mod.train(
            m, trn, cfg.train, val_dataset=val, log_path=path), model),
        "model.pemo": (model_mod.PredictorModel.save, model)})


def cmd_predict(args) -> int:
    cfg, load = _model_inputs(args)
    # predict deletes every corpus id's labels from --out, the corpus's own included
    if Path(args.out).resolve() == Path(args.corpus).resolve():
        raise UsageError("predict --out must differ from --corpus")
    run = _Run("predict", args.out, corpus.corpus_ids(args.corpus))
    tagset, provider = load()
    model = model_mod.PredictorModel.load(args.checkpoint, tagset, provider)
    labs = {lab.utterance_id: lab for lab in model.predict(
        run.items(args.corpus, tagset, partial(_example, tagset, provider)))}
    run.each(lambda uid: _write_files(
        run.out, [(f"{uid}.lab.tsv", corpus.save_labels, labs[uid])]))
    return run.finish(dataclasses.asdict(cfg), model.config.seed)


def cmd_filter(args) -> int:
    pseudo_dir, pred_dir = Path(args.corpus), Path(args.predicted)
    # filter deletes the labels it does not keep from --out
    if Path(args.out).resolve() in (pseudo_dir.resolve(), pred_dir.resolve()):
        raise UsageError("filter --out must differ from --corpus and --predicted")
    run = _Run("filter", args.out, corpus.corpus_ids(pseudo_dir, ".lab.tsv"))

    def keep(uid):
        # a pseudo-labeled id without a prediction is left out, not failed
        pred = _item_labels(pred_dir, uid)
        if pred is None:
            return None
        pseudo = corpus.load_labels(pseudo_dir / f"{uid}.lab.tsv", uid)
        if not metrics.filter_by_confidence(pseudo, pred, args.tau):
            return None
        _write_files(run.out, [(f"{uid}.lab.tsv", corpus.save_labels, pseudo)])
        return uid

    kept = run.each(keep)
    print(f"kept {len(kept)} of {run.input_count}")
    return run.finish({"tau": args.tau}, 0, {"kept.json": (_save_json, kept)})


def cmd_evaluate(args) -> int:
    pred_dir, gold_dir = Path(args.predicted), Path(args.gold)
    run = _Run("evaluate", args.out, corpus.corpus_ids(gold_dir, ".lab.tsv"))

    def pair(uid):
        # a gold id without a predicted file fails alone: "no such file"
        gold = corpus.load_labels(gold_dir / f"{uid}.lab.tsv", uid)
        pred = corpus.load_labels(pred_dir / f"{uid}.lab.tsv", uid, len(gold.labels))
        return uid, gold, pred

    pairs = run.each(pair)
    m = dataclasses.asdict(metrics.evaluate({uid: p for uid, _, p in pairs},
                                            {uid: g for uid, g, _ in pairs}))
    print(json.dumps(m))
    return run.finish({}, 0, {"metrics.json": (_save_json, m)})


def cmd_condition(args) -> int:
    cfg, load = _model_inputs(args)
    run = _Run("condition", args.out, corpus.corpus_ids(args.corpus))
    tagset, provider = load()
    _check_memory(partial(conditioning.table_shapes, tagset), {
        "cond_dim": ("cond_dim", cfg.cond_dim), "emph_dim": ("emph_dim", cfg.emph_dim),
        _semantic_key(cfg): ("sem_dim", provider.dim)})
    tables = conditioning.draw_tables(tagset, provider.dim, cfg.cond_dim, cfg.emph_dim,
                                      cfg.seed)

    def export(utt, ann):
        # an utterance without labels is left out, not failed
        lab = _item_labels(args.labels or args.corpus, utt.id, utt.num_chars)
        if lab is None:
            return
        bundle = conditioning.ConditioningBundle(
            utterance_id=utt.id,
            linguistic=conditioning.build_linguistic(
                utt, ann, provider, tables, tagset).astype(np.float32),
            emphasis=conditioning.build_emphasis(lab, tables, utt),
        )
        _write_files(run.out, [(f"{utt.id}.cond.bin", conditioning.export_bundle, bundle)])

    run.items(args.corpus, tagset, export)
    return run.finish(dataclasses.asdict(cfg), cfg.seed)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prosody-emph", description="prosodic emphasis toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {"corpus": dict(required=True, help="corpus directory"),
              "tagset": dict(help="tagset.json (default inventory otherwise)"),
              "config": dict(help="JSON config file"), "seed": dict(type=int),
              "labels": dict(help="directory of <id>.lab.tsv (default: corpus)")}

    def common(p, *names):
        """--out, --jobs and the named shared options: only those p reads."""
        for name in names:
            p.add_argument(f"--{name}", **shared[name])
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("validate", help="validate a corpus directory")
    common(p, "corpus", "tagset")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("label", help="unsupervised CWT emphasis labeling")
    common(p, "corpus", "config")
    p.add_argument("--wav", required=True, help="directory of <id>.wav files")
    p.add_argument("--scores", action="store_true", help="also write <id>.scores.tsv")
    p.set_defaults(func=cmd_label, out_required=True)

    p = sub.add_parser("train", help="train the emphasis predictor")
    common(p, "corpus", "tagset", "config", "seed", "labels")
    p.set_defaults(func=cmd_train, out_required=True)

    p = sub.add_parser("predict", help="predict emphasis labels")
    common(p, "corpus", "tagset", "config")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_predict, out_required=True)

    p = sub.add_parser("filter", help="confidence-filter pseudo labels")
    common(p, "corpus")
    p.add_argument("--predicted", required=True, help="directory of predicted labels")
    p.add_argument("--tau", type=float, default=0.9)
    p.set_defaults(func=cmd_filter, out_required=True)

    p = sub.add_parser("evaluate", help="precision/recall/F against gold labels")
    common(p)
    p.add_argument("--predicted", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(func=cmd_evaluate, out_required=True)

    p = sub.add_parser("condition", help="export phone-level conditioning bundles")
    common(p, "corpus", "tagset", "config", "seed", "labels")
    p.set_defaults(func=cmd_condition, out_required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out_required", False) and not args.out:
        parser.error(f"{args.command} requires --out")
    try:
        if args.jobs < 1 or (args.jobs > 1 and not WRITES[args.command][2]):
            parallel = " and ".join(c for c, (_, _, jobs) in WRITES.items() if jobs)
            raise UsageError(f"--jobs {args.jobs}: expected 1 (any count >= 1 for {parallel})")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError(f"--seed {args.seed}: expected an integer >= 0")
        if not math.isfinite(getattr(args, "tau", 0.0)):
            raise UsageError(f"--tau {args.tau}: expected a finite number")
        for name in ("corpus", "wav", "labels", "predicted", "gold"):
            value = getattr(args, name, None)
            if value is not None and not Path(value).is_dir():
                raise UsageError(f"--{name} {value}: not a directory")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProsemphError as exc:
        print(f"error: {describe(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
