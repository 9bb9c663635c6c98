"""Workloads, the pass loop and the metric tables of the benchmark.

Imported by run.py once src/ is on the path; see run.py for usage.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import scipy

import checks
from inputs import write_audio_corpus, write_text_corpus
from prosemph import cli, prominence
from prosemph.embeddings import hash_provider
from prosemph.tagset import default_tagset
from spans import Recorder, Tracer, layer_totals

SETUP_REPEATS = 3
MIN_PASSES = 4

STAGES = ("label", "train", "predict", "filter", "evaluate", "condition")

# (name, unit, better) of every metric.  --trace 0 prints END_TO_END and
# --trace 1 PER_LAYER; BENCHMARK.json lists the same.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("chain.utt_per_s", "1/s", "higher"),
)

LAYER_FUNCTIONS = (
    "dsp.read_wav", "dsp.frame_energy", "dsp.estimate_f0",
    "dsp.interpolate_unvoiced", "dsp.duration_signal",
    "prominence.combine", "prominence.cwt_ricker", "prominence.prominence_scores",
    "prominence.quantize", "prominence.label_utterance",
    "graph.build_char_graph", "embeddings.semantic_rows",
    "model.node_init", "model.ggn_forward", "model.forward",
    "model.loss_and_grads", "model.adam_step", "model.save", "model.load",
    "model.predict",
    "corpus.load_utterance", "corpus.load_annotation", "corpus.load_labels",
    "corpus.save_labels",
    "metrics.evaluate", "metrics.filter_by_confidence",
    "conditioning.build_linguistic", "conditioning.build_emphasis",
    "conditioning.export_bundle",
)
SELF_TIMED = ("model.forward", "model.loss_and_grads")

PER_LAYER = (
    ("label.audio_s_per_s", "s/s", "higher"),
    ("train.utt_per_s", "1/s", "higher"),
    ("predict.utt_per_s", "1/s", "higher"),
    ("condition.phones_per_s", "1/s", "higher"),
    ("failed_frac", "ratio", "lower"),
    ("label.spurious_per_utt", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    *((f"cli.{s}.s", "s", "lower") for s in STAGES),
    *((f"cli.{s}.unattributed_frac", "ratio", "lower") for s in STAGES),
    *((f"{f}.s", "s", "lower") for f in LAYER_FUNCTIONS),
    *((f"{f}.calls", "count", "lower") for f in LAYER_FUNCTIONS),
    *((f"{f}.self_s", "s", "lower") for f in SELF_TIMED),
    ("prominence.label_utterance.p50_ms", "ms", "lower"),
    ("prominence.label_utterance.p90_ms", "ms", "lower"),
    ("model.loss_and_grads.peak_alloc_mb", "MB", "lower"),
    ("prominence.scales_scored_frac", "ratio", "higher"),
    ("prominence.truncated_warn_frac", "ratio", "lower"),
    ("embeddings.semantic_rows.distinct_frac", "ratio", "higher"),
    ("graph.edges_per_utt", "count", "lower"),
)

# `train` runs the README default model (H=512).  The text pipeline runs
# the test-sized model (H=32, semantic dim 32) with a larger step, so its
# predictions hold both classes and filter/evaluate see both outcomes.
TRAIN_H512 = {
    "model": {"hidden_dim": 512, "num_iterations": 3, "head_hidden": 128},
    "train": {"epochs": 1, "learning_rate": 5e-5, "batch_size": 32},
    "semantic": {"mode": "hash", "dim": 128, "seed": 0},
    "val_fraction": 0.1,
    "seed": 0,
}
TEXT_H32 = {
    "model": {"hidden_dim": 32, "num_iterations": 3, "head_hidden": 128},
    "train": {"epochs": 2, "learning_rate": 1e-3, "batch_size": 32},
    "semantic": {"mode": "hash", "dim": 32, "seed": 0},
    "val_fraction": 0.1,
    "cond_dim": 256,
    "emph_dim": 16,
    "seed": 0,
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# workloads


class LabelWorkload:
    """`label` over sine-carrier utterances of ~1 s to ~15 s."""

    count = 16
    chain = ("label",)

    def prepare(self, work: Path, seed: int) -> None:
        self.corpus, self.wav = work / "corpus", work / "wav"
        self.corpus.mkdir()
        self.wav.mkdir()
        self.truth = write_audio_corpus(self.corpus, self.wav, self.count, seed)
        self.audio_s = sum(t[2] for t in self.truth.values())

    def stages(self, out: Path):
        yield "label", ["label", "--corpus", str(self.corpus), "--wav", str(self.wav)]

    def stage_rates(self, times: dict) -> dict:
        return {"label.audio_s_per_s": self.audio_s / times["label"]}

    def check(self, out: Path) -> dict:
        cfg = prominence.ProminenceConfig()
        wl = cfg.wavelet
        widest = wl.base_scale_frames * 2.0 ** (cfg.band[1] / wl.scales_per_octave)
        return checks.label_recovery(out / "label", self.truth,
                                     near_s=widest / cfg.frame.frame_rate)


class TextWorkload:
    """A chain of text stages over the learnable synthetic corpus."""

    def __init__(self, count: int, config: dict, chain: tuple[str, ...]):
        self.count, self.config, self.chain = count, config, chain
        self.tagset = default_tagset()

    def prepare(self, work: Path, seed: int) -> None:
        self.corpus = work / "corpus"
        self.corpus.mkdir()
        self.truth = write_text_corpus(self.corpus, self.count, seed, self.tagset)
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.n_train = self.count - max(1, int(self.count * self.config["val_fraction"]))
        self.phones = sum(utt.num_phones for utt, _ in self.truth.values())

    def stages(self, out: Path):
        c, cfg, pred = str(self.corpus), str(self.cfg_path), str(out / "predict")
        argv = {
            "train": ["train", "--corpus", c, "--config", cfg],
            "predict": ["predict", "--corpus", c, "--config", cfg, "--checkpoint",
                        str(out / "train" / "model.pemo")],
            "filter": ["filter", "--corpus", c, "--predicted", pred, "--tau", "0.9"],
            "evaluate": ["evaluate", "--predicted", pred, "--gold", c],
            # `filter` writes only kept.json, so `condition` reads the
            # predicted labels
            "condition": ["condition", "--corpus", c, "--config", cfg,
                          "--labels", pred],
        }
        for s in self.chain:
            yield s, argv[s]

    def stage_rates(self, times: dict) -> dict:
        epochs = self.config["train"]["epochs"]
        rates = {"train.utt_per_s": self.n_train * epochs / times["train"]}
        if "predict" in times:
            rates["predict.utt_per_s"] = self.count / times["predict"]
        if "condition" in times:
            rates["condition.phones_per_s"] = self.phones / times["condition"]
        return rates

    def check(self, out: Path) -> dict:
        sem = self.config["semantic"]
        provider = hash_provider(dim=sem["dim"], seed=sem["seed"])
        checks.train_outputs(out / "train", self.tagset, provider,
                             self.config["train"]["epochs"])
        utts = {uid: utt for uid, (utt, _) in self.truth.items()}
        if "predict" in self.chain:
            checks.predicted_labels(out / "predict", utts)
        if "evaluate" in self.chain:
            gold_positives = sum(sum(gold) for _, gold in self.truth.values())
            checks.evaluation(out / "evaluate", gold_positives)
        if "condition" in self.chain:
            checks.bundles(out / "condition", utts)
        return {}


# Why each workload: see "why" in BENCHMARK.json.
WORKLOADS = {
    "label": LabelWorkload,
    "train": lambda: TextWorkload(35, TRAIN_H512, ("train",)),
    "text-pipeline": lambda: TextWorkload(
        240, TEXT_H32, ("train", "predict", "filter", "evaluate", "condition")),
}


# ---------------------------------------------------------------------------
# one pass over the stage chain


class Counts:
    """Exact-repeat counts taken by tracer observers during one pass."""

    def __init__(self):
        self.scales_computed = self.scales_scored = 0
        self.rows_ids: list[str] = []
        self.edges: list[int] = []
        self.loss_call = None

    def observers(self) -> dict:
        def cwt(args, kwargs, result):
            self.scales_computed += result.coefficients.shape[0]

        def scores(args, kwargs, result):
            lo, hi = kwargs["band"] if "band" in kwargs else args[2]
            self.scales_scored += hi - lo + 1

        def rows(args, kwargs, result):
            self.rows_ids.append(args[1] if len(args) > 1 else kwargs["utterance_id"])

        def graph(args, kwargs, result):
            self.edges.append(len(result.edges))

        def loss(args, kwargs, result):
            if self.loss_call is None:
                self.loss_call = (args, kwargs)

        return {"prominence.cwt_ricker": cwt, "prominence.prominence_scores": scores,
                "embeddings.semantic_rows": rows, "graph.build_char_graph": graph,
                "model.loss_and_grads": loss}


def run_pass(workload, out: Path, recorder: Recorder | None, counts: Counts | None):
    """Runs every stage once into `out`, traced when a recorder is given.

    Returns ({stage: seconds}, items failed, truncation warnings).
    """
    tracing = (Tracer(recorder, counts.observers()) if recorder
               else contextlib.nullcontext())
    times, failed = {}, 0
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), tracing:
        warnings.simplefilter("always", prominence.LargeScaleTruncatedWarning)
        for name, argv in workload.stages(out):
            argv = argv + ["--out", str(out / name), "--jobs", "1"]
            span = recorder.begin(f"cli.{name}") if recorder else None
            t0 = time.perf_counter()
            rc = cli.main(argv)
            times[name] = time.perf_counter() - t0
            if recorder:
                recorder.end(span)
            fail_path = out / name / "failures.json"
            if fail_path.exists():
                failed += len(json.loads(fail_path.read_text(encoding="utf-8")))
            elif rc != 0:
                failed += workload.count
    truncated = sum(issubclass(w.category, prominence.LargeScaleTruncatedWarning)
                    for w in caught)
    return times, failed, truncated


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS this process loaded, if it says."""
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
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        vendor = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": vendor, "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------


def import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import prosemph.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def measure(args, workload, work: Path, src: Path) -> dict:
    """Set-up, then passes until args.seconds are used; returns raw results.

    Set-up time is the median of SETUP_REPEATS fresh-interpreter imports
    plus the median of SETUP_REPEATS input generations.
    """
    imports, inputs = [], []
    for k in range(SETUP_REPEATS):
        imports.append(import_seconds(src))
        d = work / f"inputs{k}"
        d.mkdir()
        t0 = time.perf_counter()
        workload.prepare(d, args.seed)
        inputs.append(time.perf_counter() - t0)

    r = {"passes": [], "layers": [], "counts": [], "label_ms": [], "digests": set(),
         "failed": 0, "truncated": 0, "problems": [], "info": {},
         "imports_s": statistics.median(imports), "inputs_s": statistics.median(inputs)}
    r["setup_s"] = r["imports_s"] + r["inputs_s"]
    t_begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(r["passes"]) % 2 == 1
        out = work / f"pass{len(r['passes'])}"
        out.mkdir()
        rec, counts = (Recorder(), Counts()) if traced else (None, None)
        t0 = time.perf_counter()
        times, failed, truncated = run_pass(workload, out, rec, counts)
        r["failed"] += failed
        r["truncated"] += truncated
        if traced:
            r["layers"].append(layer_totals(rec.spans))
            r["counts"].append(counts)
            r["label_ms"] += [1e3 * (s.end - s.start) for s in rec.spans
                              if s.name == "prominence.label_utterance"]
        if not r["passes"]:
            try:
                r["info"] = workload.check(out)
            except checks.CheckError as exc:
                r["problems"].append(str(exc))
        r["digests"].add(checks.tree_digest(out))
        shutil.rmtree(out)
        r["passes"].append((traced, sum(times.values()), times,
                            time.perf_counter() - t0))
        elapsed = time.perf_counter() - t_begin
        typical = _median([p[3] for p in r["passes"]])
        if len(r["passes"]) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    r["measured_s"] = time.perf_counter() - t_begin

    r["peak_alloc_mb"] = 0.0
    call = next((c.loss_call for c in r["counts"] if c.loss_call), None)
    if call is not None:
        # one more call to the first traced batch, untraced, under tracemalloc
        (model, *rest), kwargs = call
        tracemalloc.start()
        try:
            model.loss_and_grads(*rest, **kwargs)
            r["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return r


def per_layer_metrics(workload, r: dict, figures: dict) -> dict:
    def layer(name, key):
        return _median([run.get(name, {}).get(key, 0) for run in r["layers"]])

    untraced = [p[1] for p in r["passes"] if not p[0]]
    traced = [p[1] for p in r["passes"] if p[0]]
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m.update(figures)
    m["label.spurious_per_utt"] = r["info"].get("spurious_per_utt", 0.0)
    m["trace.overhead_frac"] = _median(traced) / _median(untraced) - 1.0
    for s in STAGES:
        busy = layer(f"cli.{s}", "s")
        m[f"cli.{s}.s"] = busy
        if busy:
            m[f"cli.{s}.unattributed_frac"] = layer(f"cli.{s}", "self_s") / busy
    for f in LAYER_FUNCTIONS:
        m[f"{f}.s"] = layer(f, "s")
        m[f"{f}.calls"] = layer(f, "calls")
    for f in SELF_TIMED:
        m[f"{f}.self_s"] = layer(f, "self_s")
    if len(r["label_ms"]) >= 2:
        m["prominence.label_utterance.p50_ms"] = statistics.median(r["label_ms"])
        m["prominence.label_utterance.p90_ms"] = statistics.quantiles(
            r["label_ms"], n=10)[8]
    m["model.loss_and_grads.peak_alloc_mb"] = r["peak_alloc_mb"]
    counts = r["counts"]
    computed = sum(c.scales_computed for c in counts)
    if computed:
        m["prominence.scales_scored_frac"] = sum(c.scales_scored for c in counts) / computed
    if "label" in workload.chain:
        m["prominence.truncated_warn_frac"] = (
            r["truncated"] / (workload.count * len(r["passes"])))
    rows = [len(set(c.rows_ids)) / len(c.rows_ids) for c in counts if c.rows_ids]
    m["embeddings.semantic_rows.distinct_frac"] = _median(rows)
    edges = [e for c in counts for e in c.edges]
    m["graph.edges_per_utt"] = sum(edges) / len(edges) if edges else 0.0
    return m


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench_work"))
    try:
        r = measure(args, workload, work, root / "src")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = r["passes"]
    attempted = workload.count * len(workload.chain) * len(passes)
    problems = list(r["problems"])
    if r["failed"]:
        problems.append(f"{r['failed']} of {attempted} items failed")
    if len(r["digests"]) != 1:
        problems.append(f"outputs differ between passes ({len(r['digests'])} digests)")

    untraced = [p for p in passes if not p[0]]
    stage_rates: dict[str, list[float]] = {}
    for p in untraced:
        for k, v in workload.stage_rates(p[2]).items():
            stage_rates.setdefault(k, []).append(v)
    figures = {"failed_frac": r["failed"] / attempted,
               **{k: _median(v) for k, v in stage_rates.items()}}

    if args.trace:
        metrics, table = per_layer_metrics(workload, r, figures), PER_LAYER
    else:
        metrics = {
            "setup_s": r["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "chain.utt_per_s": _median([workload.count / p[1] for p in untraced]),
        }
        table = END_TO_END

    print("env " + json.dumps(environment(args), sort_keys=True))
    print(f"setup {r['setup_s']:.4f} s: imports {r['imports_s']:.4f} s, "
          f"inputs {r['inputs_s']:.4f} s (medians of {SETUP_REPEATS})")
    print(f"passes {len(passes)} ({len(passes) - len(untraced)} traced) in "
          f"{r['measured_s']:.2f} s")
    for i, (traced, chain_s, times, _) in enumerate(passes):
        stages = " ".join(f"{k}={v:.4f}" for k, v in times.items())
        print(f"pass {i}{' traced' if traced else ''} {chain_s:.4f} s: {stages}")
    print("digest " + " ".join(sorted(r["digests"])))
    for k, v in sorted({**r["info"], **figures}.items()):
        print(f"figure {k} {v:.6g}")
    for msg in problems:
        print(f"FAILED {msg}")
    for name, unit, _ in table:
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": r["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 1 if problems else 0
