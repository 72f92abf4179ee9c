"""Self-test of the harness on tiny corpora (about half a minute).

For each workload it runs one traced set of repetitions and checks that the
run passes its own checks and that every metric named in BENCHMARK.json is
reported with its unit.  It then negates the scores of one repetition and
checks that the digest comparison and the EER ceiling both catch it.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import harness
import workloads


def _evaluate(root: Path, wl: workloads.Workload, corpus: Path, out: Path) -> dict:
    """Re-run the evaluate stage on a repetition's directory and hash it."""
    stage = [s for s in wl.stages if s[1][0] == "evaluate"]
    spec = {"mode": "recipe", "trace": False, "run_id": "selftest", "out": str(out),
            "stages": [(phase, harness.fill(argv, corpus, out, 1)) for phase, argv in stage]}
    result, err = harness.child(root, spec, out.parent)
    if result is None:
        raise RuntimeError(err)
    return result


def _negate_scores(path: Path) -> None:
    lines = []
    for line in path.read_text().splitlines():
        enroll, test, score = line.split()
        lines.append(f"{enroll} {test} {-float(score)!r}")
    path.write_text("\n".join(lines) + "\n")


def check_workload(root: Path, bench: dict, name: str) -> list[str]:
    wl = workloads.get(name, tiny=True)
    record = harness.run_workload(root, wl, seed=1, seconds=0, trace=True, keep=True)
    work, corpus = Path(record["workspace"]), Path(record["corpus"])
    failures = [f"{name}: {p}" for p in record["problems"]]
    try:
        if failures:
            return failures
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                result = harness.report({**record, "trace": trace}, bench)
            for metric in bench[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{name}: {metric['name']} missing or has the wrong unit")
            if not result["correct"]:
                failures.append(f"{name}: trace {int(trace)} result is not correct")
        clean = _evaluate(root, wl, corpus, work / "rep0")
        if harness.check_reps(wl, [clean, _evaluate(root, wl, corpus, work / "rep0")]):
            failures.append(f"{name}: re-evaluating an untouched repetition failed the checks")
        _negate_scores(work / "rep1" / "scores.txt")
        problems = harness.check_reps(wl, [clean, _evaluate(root, wl, corpus, work / "rep1")])
        for expected in ("artifacts differ", "ceiling"):
            if not any(expected in p for p in problems):
                failures.append(f"{name}: negated scores were not caught ({expected})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return failures


def main(root: Path, bench: dict) -> int:
    failures = []
    for name in workloads.SIZES:
        found = check_workload(root, bench, name)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        failures += found
    for failure in failures:
        print(f"  {failure}")
    print("self-test", "passed" if not failures else "failed")
    return 1 if failures else 0
