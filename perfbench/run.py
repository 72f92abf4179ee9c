#!/usr/bin/env python3
"""Benchmark of the ivnda recipe: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stats-tv --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --compare BASE_RESULTS CHANGE_RESULTS
    python3 perfbench/run.py --self-test

A run synthesises the workload's corpus from the seed (the set-up, timed
three times), then repeats the recipe, one fresh process per repetition,
for about ``--seconds``.  With ``--trace 1`` every other repetition is
traced and the per-layer metrics are reported instead of the end-to-end
ones.  The last line of output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
a correctness check fails.  Each run also appends its full record to
``.perfbench_results/<workload>.jsonl`` for ``--compare``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness
import workloads


def _load_benchmark(root: Path) -> dict:
    missing = [p for p in ("BENCHMARK.json", "src/ivnda/cli.py") if not (root / p).is_file()]
    if missing:
        raise SystemExit(f"run from the root of an ivnda checkout; missing: {', '.join(missing)}")
    return json.loads((root / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two result files or directories")
    parser.add_argument("--self-test", action="store_true",
                        help="check the harness itself at tiny scale")
    args = parser.parse_args()
    root = Path.cwd()
    bench = _load_benchmark(root)
    if args.compare:
        import compare

        return compare.main(bench, Path(args.compare[0]), Path(args.compare[1]))
    if args.self_test:
        import selftest

        return selftest.main(root, bench)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    record = harness.run_workload(root, workloads.get(args.workload), args.seed,
                                  seconds, bool(args.trace))
    result = harness.report(record, bench)
    results = root / ".perfbench_results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
