"""prosody-emph: one executable over the whole pipeline.

Subcommands: validate, label, train, predict, filter, evaluate, condition.
Each opens one run record once its command line and config file are checked
and before it reads any input file. Opening it creates --out and deletes the
last run's manifest.json, failures.json and whole-run results; finishing it
writes failures.json and a manifest.json recording the effective config hash,
the seed, the input count, output paths, wall time and peak RSS. Usage errors
(a bad config file or a missing input directory too) exit 2 and create
nothing; data errors exit 1 with a per-item report.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import resource
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import conditioning, corpus, dsp, metrics, model as model_mod, prominence
from .embeddings import (
    EMPHASIS_DIM_DEFAULT,
    SEMANTIC_DIM_DEFAULT,
    hash_provider,
    init_table,
    load_semantic,
)
from .errors import ProsemphError, describe
from .graph import build_char_graph
from .tagset import default_tagset, load_tagset


class UsageError(Exception):
    """Bad command line or config file; exits 2."""


def _tagset(args):
    return load_tagset(args.tagset) if args.tagset else default_tagset()


def _int_key(section: dict, key: str, default: int, minimum: int, name=None) -> int:
    """section[key], or `default` when absent; must be an integer >= minimum."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise UsageError(f"config key {name or key}: expected an integer >= "
                         f"{minimum}, got {value!r}")
    return value


def _provider(cfg_obj: dict):
    """A loader of the semantic provider the config names."""
    semantic = cfg_obj.get("semantic", {})
    if not isinstance(semantic, dict):
        raise UsageError("config section semantic: expected a JSON object")
    for key in semantic:
        if key not in ("mode", "path", "dim", "seed"):
            raise UsageError(f"config key semantic.{key}: unknown key")
    mode = semantic.get("mode", "hash")
    if mode == "file_backed":
        if not isinstance(semantic.get("path"), str):
            raise UsageError("config key semantic.path: mode file_backed needs "
                             "a path string")
        return partial(load_semantic, semantic["path"])
    if mode != "hash":
        raise UsageError(f"config key semantic.mode: expected hash or "
                         f"file_backed, got {mode!r}")
    return partial(
        hash_provider,
        dim=_int_key(semantic, "dim", SEMANTIC_DIM_DEFAULT, 1, "semantic.dim"),
        seed=_int_key(semantic, "seed", 0, 0, "semantic.seed"),
    )


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"config {path}: expected a JSON object")
    return obj


def _model_inputs(args):
    """The config object and config seed of train, predict and condition, which
    share one config file, and a loader of their (tagset, semantic provider).
    The loader reads input files, so it runs once the run record is open."""
    cfg_obj = _load_json(args.config) if args.config else {}
    for key in cfg_obj:
        if key not in ("model", "train", "semantic", "val_fraction", "cond_dim",
                       "emph_dim", "seed"):
            raise UsageError(f"config key {key}: unknown key")
    provider = _provider(cfg_obj)
    return cfg_obj, _int_key(cfg_obj, "seed", 0, 0), lambda: (_tagset(args), provider())


def _config(cls, section: str | None, values: dict, **fixed):
    """Build `cls` from one config section (None: the top level), naming
    the first bad key."""
    where = f"section {section}" if section else "file"
    if not isinstance(values, dict):
        raise UsageError(f"config {where}: expected a JSON object")
    for key, value in values.items():
        try:
            cls(**{**fixed, key: value})
        except (TypeError, ValueError, OverflowError) as exc:
            name = f"{section}.{key}" if section else key
            raise UsageError(f"config key {name}: {exc}") from exc
    try:
        return cls(**fixed, **values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"config {where}: {exc}") from exc


def _prominence_config(path) -> prominence.ProminenceConfig:
    obj = _load_json(path)
    sections = {"weights": prominence.CombineWeights,
                "wavelet": prominence.WaveletConfig, "frame": dsp.FrameConfig}
    fixed = {k: _config(cls, k, obj.pop(k)) for k, cls in sections.items() if k in obj}
    return _config(prominence.ProminenceConfig, None, obj, **fixed)


def _attempt(work, uid):
    """(uid, work(uid) or None, the failure or None, the warnings work raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = work(uid), None
        except ProsemphError as exc:
            outcome = None, describe(exc)
    return uid, *outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _remove(out_dir: Path, names) -> None:
    """Delete the named files from out_dir, so that a run leaves none of an
    earlier run's outputs that it does not write again. Never a glob:
    out_dir may be a corpus directory."""
    for name in names:
        (out_dir / name).unlink(missing_ok=True)


def _peak_rss_mb() -> float:
    """Peak resident set size so far of this process or of its largest
    finished child (a `--jobs` worker), in MB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


class _Run:
    """The record of one command's run. Opening it creates `out` (None: the
    run writes no files) and deletes the last run's manifest.json,
    failures.json and the whole-run `results`, so a run that fails as a whole
    leaves none of them."""

    def __init__(self, command: str, out, results=()):
        self.command, self.out = command, Path(out) if out else None
        self.t0 = time.monotonic()
        self.failures: dict[str, str] = {}  # {utterance_id: "<Type>: <message>"}
        self.input_count = 0
        if self.out:
            self.out.mkdir(parents=True, exist_ok=True)
            _remove(self.out, ["manifest.json", "failures.json", *results])

    def each(self, ids, work, jobs=1):
        """Run work(uid) for each id, in `jobs` spawned processes when jobs > 1
        (work must then pickle); work's results other than None, in id order.
        The failures are kept, and the warnings of each item are issued here,
        in id order, under this process's filters."""
        attempt = partial(_attempt, work)
        if jobs > 1:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
                outcomes = list(pool.map(attempt, ids))
        else:
            outcomes = map(attempt, ids)
        results, registry = [], {}
        for uid, result, failure, caught in outcomes:
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno, registry=registry)
            if failure is not None:
                self.failures[uid] = failure
            elif result is not None:
                results.append(result)
        self.input_count += len(ids)
        return results

    def items(self, corpus_dir, tagset, prepare):
        """each over the corpus items, with prepare(utt, ann) as the work."""
        return self.each(corpus.corpus_ids(corpus_dir),
                         lambda uid: prepare(*corpus.load_item(corpus_dir, uid, tagset)))

    def finish(self, config=None, seed=0, outputs=()) -> int:
        """Print the failed items and write them ([] if none) to failures.json,
        and, given the run's effective config, manifest.json; the exit code."""
        report = [{"utterance_id": uid, "error": self.failures[uid]}
                  for uid in sorted(self.failures)]
        for item in report:
            print(f"{item['utterance_id']}\tfail\t{item['error']}", file=sys.stderr)
        if self.out:
            if config is not None:
                blob = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
                manifest = {
                    "command": self.command,
                    "config_hash": hashlib.sha256(blob).hexdigest(),
                    "seed": seed,
                    "input_count": self.input_count,
                    "output_paths": sorted(outputs),
                    "wall_time_sec": time.monotonic() - self.t0,
                    "peak_rss_mb": _peak_rss_mb(),
                }
                with open(self.out / "manifest.json", "w", encoding="utf-8") as f:
                    json.dump(manifest, f, indent=2)
                    f.write("\n")
            with open(self.out / "failures.json", "w", encoding="utf-8") as f:
                json.dump(report, f, indent=2)
        return 1 if report else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    run = _Run("validate", args.out, ["validation.json"])

    def check(utt, ann):
        lab_path = Path(args.corpus) / f"{utt.id}.lab.tsv"
        if lab_path.exists():
            corpus.load_labels(lab_path, utt.id, utt.num_chars)
        return utt.id

    passed, failures = run.items(args.corpus, _tagset(args), check), run.failures
    ids = sorted([*passed, *failures])
    for uid in ids:
        print(f"{uid}\tfail\t{failures[uid]}" if uid in failures else f"{uid}\tpass")
    print(f"{len(passed)} pass, {len(failures)} fail")
    if run.out:
        entries = [{"utterance_id": uid, "ok": uid not in failures,
                    "failure": failures.get(uid)} for uid in ids]
        with open(run.out / "validation.json", "w", encoding="utf-8") as f:
            json.dump(entries, f, ensure_ascii=False, indent=2)
    return run.finish({"corpus": str(args.corpus)}, 0, ["validation.json"])


def _label_one(corpus_dir, wav_dir, cfg, write_scores, out_dir: Path, uid):
    """Label one corpus item into out_dir; the names of the files written."""
    _remove(out_dir, [f"{uid}.lab.tsv", f"{uid}.scores.tsv"])
    utt = corpus.load_item_utterance(corpus_dir, uid)
    result = prominence.label_utterance(Path(wav_dir) / f"{uid}.wav", utt, cfg)
    lab_path = out_dir / f"{uid}.lab.tsv"
    corpus.save_labels(result.labels, lab_path)
    if not write_scores:
        return [lab_path.name]
    s = np.asarray(result.scores)
    zs = prominence.standardize(s)
    score_path = out_dir / f"{uid}.scores.tsv"
    with open(score_path, "w", encoding="utf-8") as f:
        for i, (raw, zi) in enumerate(zip(s, zs)):
            f.write(f"{i}\t{raw:.6f}\t{zi:.6f}\n")
    return [lab_path.name, score_path.name]


def cmd_label(args) -> int:
    cfg = (
        _prominence_config(args.config) if args.config
        else prominence.ProminenceConfig()
    )
    run = _Run("label", args.out)
    work = partial(_label_one, args.corpus, args.wav, cfg, args.scores, run.out)
    written = run.each(corpus.corpus_ids(args.corpus), work, args.jobs)
    return run.finish(dataclasses.asdict(cfg), 0, [name for names in written for name in names])


def cmd_train(args) -> int:
    cfg_obj, seed, load = _model_inputs(args)
    seed = args.seed if args.seed is not None else seed
    # semantic_dim is the provider's, known once the run is open
    model_cfg = _config(model_mod.ModelConfig, "model", cfg_obj.get("model", {}),
                        semantic_dim=SEMANTIC_DIM_DEFAULT, seed=seed)
    train_kwargs = dict(cfg_obj.get("train", {}))
    if args.seed is not None:
        train_kwargs["seed"] = args.seed
    train_cfg = _config(model_mod.TrainConfig, "train", train_kwargs)
    val_fraction = cfg_obj.get("val_fraction", 0.0)
    if (isinstance(val_fraction, bool) or not isinstance(val_fraction, (int, float))
            or not 0 <= val_fraction < 1):
        raise UsageError(f"config key val_fraction: expected a number in [0, 1), "
                         f"got {val_fraction!r}")

    labels_dir = Path(args.labels or args.corpus)

    def labeled(utt, ann):
        # an utterance without labels is left out, not failed
        lab_path = labels_dir / f"{utt.id}.lab.tsv"
        if lab_path.exists():
            return model_mod.Example(
                utt, ann, corpus.load_labels(lab_path, utt.id, utt.num_chars))
        return None

    run = _Run("train", args.out, ["model.pemo", "train_log.ldjson"])
    tagset, provider = load()
    model_cfg = dataclasses.replace(model_cfg, semantic_dim=provider.dim)
    dataset = run.items(args.corpus, tagset, labeled)
    if not dataset:
        print("no labeled utterances found", file=sys.stderr)
        run.finish()
        return 1
    if val_fraction > 0:
        rng = np.random.default_rng(train_cfg.seed)
        order = rng.permutation(len(dataset))
        n_val = max(1, int(len(dataset) * val_fraction))
        val = [dataset[i] for i in order[:n_val]]
        trn = [dataset[i] for i in order[n_val:]]
    else:
        val, trn = None, dataset
    model = model_mod.PredictorModel(tagset, provider, model_cfg)
    model_mod.train(
        model, trn, train_cfg, val_dataset=val,
        log_path=run.out / "train_log.ldjson", checkpoint_path=run.out / "model.pemo",
    )
    return run.finish(
        {"config": cfg_obj, "model": vars(model_cfg), "train": vars(train_cfg)},
        train_cfg.seed, ["model.pemo", "train_log.ldjson"],
    )


def cmd_predict(args) -> int:
    cfg_obj, _, load = _model_inputs(args)
    # predict deletes every corpus id's labels from --out, the corpus's own included
    if Path(args.out).resolve() == Path(args.corpus).resolve():
        raise UsageError("predict --out must differ from --corpus")
    run = _Run("predict", args.out,
               [f"{uid}.lab.tsv" for uid in corpus.corpus_ids(args.corpus)])
    tagset, provider = load()
    model = model_mod.PredictorModel.load(args.checkpoint, tagset, provider)

    def packable(utt, ann):
        # everything that can fail for one utterance happens here, so the
        # packed propagations below see only good items
        graph = build_char_graph(utt, ann, tagset)
        provider.check(utt.id, utt.chars)
        return model_mod.Example(utt, ann, graph=graph)

    outputs = []
    for lab in model.predict(run.items(args.corpus, tagset, packable)):
        path = run.out / f"{lab.utterance_id}.lab.tsv"
        corpus.save_labels(lab, path)
        outputs.append(path.name)
    return run.finish(cfg_obj, model.config.seed, outputs)


def cmd_filter(args) -> int:
    pseudo_dir, pred_dir = Path(args.corpus), Path(args.predicted)
    # filter deletes the labels it does not keep from --out
    if Path(args.out).resolve() in (pseudo_dir.resolve(), pred_dir.resolve()):
        raise UsageError("filter --out must differ from --corpus and --predicted")
    pseudo_ids = corpus.corpus_ids(pseudo_dir, ".lab.tsv")
    run = _Run("filter", args.out,
               ["kept.json", *(f"{uid}.lab.tsv" for uid in pseudo_ids)])
    ids = [uid for uid in pseudo_ids if (pred_dir / f"{uid}.lab.tsv").exists()]

    def keep(uid):
        pseudo = corpus.load_labels(pseudo_dir / f"{uid}.lab.tsv", uid)
        pred = corpus.load_labels(pred_dir / f"{uid}.lab.tsv", uid)
        if not metrics.filter_by_confidence(pseudo, pred, args.tau):
            return None
        corpus.save_labels(pseudo, run.out / f"{uid}.lab.tsv")
        return uid

    kept = run.each(ids, keep)
    with open(run.out / "kept.json", "w", encoding="utf-8") as f:
        json.dump(kept, f, indent=2)
    print(f"kept {len(kept)} of {len(ids)}")
    return run.finish({"tau": args.tau}, 0,
                      ["kept.json"] + [f"{uid}.lab.tsv" for uid in kept])


def cmd_evaluate(args) -> int:
    pred_dir, gold_dir = Path(args.predicted), Path(args.gold)

    def pair(uid):
        # a gold id without a predicted file fails the whole run below
        gold = corpus.load_labels(gold_dir / f"{uid}.lab.tsv", uid)
        pred_path = pred_dir / f"{uid}.lab.tsv"
        pred = (corpus.load_labels(pred_path, uid, len(gold.labels))
                if pred_path.exists() else None)
        return uid, gold, pred

    run = _Run("evaluate", args.out, ["metrics.json"])
    pairs = run.each(corpus.corpus_ids(gold_dir, ".lab.tsv"), pair)
    m = dataclasses.asdict(metrics.evaluate({uid: p for uid, _, p in pairs if p is not None},
                                            {uid: g for uid, g, _ in pairs}))
    with open(run.out / "metrics.json", "w", encoding="utf-8") as f:
        json.dump(m, f, indent=2)
        f.write("\n")
    print(json.dumps(m))
    return run.finish({}, 0, ["metrics.json"])


def cmd_condition(args) -> int:
    cfg_obj, seed, load = _model_inputs(args)
    seed = args.seed if args.seed is not None else seed
    cond_dim = _int_key(cfg_obj, "cond_dim", conditioning.COND_DIM_DEFAULT, 1)
    emph_dim = _int_key(cfg_obj, "emph_dim", EMPHASIS_DIM_DEFAULT, 1)
    labels_dir = Path(args.labels or args.corpus)
    run = _Run("condition", args.out,
               [f"{uid}.cond.bin" for uid in corpus.corpus_ids(args.corpus)])
    tagset, provider = load()
    rel_table = init_table(tagset.num_relations, cond_dim, "rel", seed)
    pos_table = init_table(tagset.num_pos, cond_dim, "pos", seed + 1)
    emph_table = init_table(2, emph_dim, "emph", seed + 2)
    rng = np.random.default_rng(seed + 3)
    projection = rng.uniform(-0.1, 0.1, size=(provider.dim, cond_dim)).astype(
        np.float32
    )

    def export(utt, ann):
        # an utterance without labels is left out, not failed
        lab_path = labels_dir / f"{utt.id}.lab.tsv"
        if not lab_path.exists():
            return None
        lab = corpus.load_labels(lab_path, utt.id, utt.num_chars)
        ling = conditioning.build_linguistic(
            utt, ann, provider, rel_table, pos_table, projection, tagset
        )
        emph = conditioning.build_emphasis(lab, emph_table, utt)
        bundle = conditioning.ConditioningBundle(
            utterance_id=utt.id,
            linguistic=ling.astype(np.float32),
            emphasis=emph.astype(np.float32),
        )
        path = run.out / f"{utt.id}.cond.bin"
        conditioning.export_bundle(bundle, path)
        return path.name

    outputs = run.items(args.corpus, tagset, export)
    return run.finish({"cond_dim": cond_dim, "emph_dim": emph_dim, "config": cfg_obj},
                      seed, outputs)


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
        if args.jobs < 1 or (args.jobs > 1 and args.command != "label"):
            raise UsageError(f"--jobs {args.jobs}: expected 1 (any count >= 1 for label)")
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
