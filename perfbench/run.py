#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the prosody-emph CLI stages.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload label --seed 1 --seconds 30 --trace 0

A run generates the workload's inputs from --seed, then drives the real
CLI (`prosemph.cli.main`, --jobs 1, in this one process) in a closed loop:
each stage starts when the previous one returns, and passes over the
workload's stage chain repeat until --seconds have been measured.

--trace 0 reports the end-to-end metrics: setup_s (median of three
fresh-interpreter imports of the CLI plus median of three input
generations), peak_rss_mb of this process, and chain.utt_per_s, the
median over passes of utterances through the stage chain per second.  --trace 1 alternates untraced
passes with traced ones, in which every public prosemph function opens a
span (spans.py), and reports the per-layer metrics, among them the
tracing overhead: traced over untraced chain time, minus one.

Outputs are checked after the first pass (checks.py) and must be
byte-identical from pass to pass.  Earlier lines of standard output list
every figure with its unit and the environment; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is 1
when a check fails and 2 when the checkout has no src/prosemph.

The benchmark's own tests: PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    if not (ROOT / "src" / "prosemph" / "__init__.py").is_file():
        print(f"no src/prosemph under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench

    return bench.main(sys.argv[1:], root=ROOT)


if __name__ == "__main__":
    sys.exit(main())
