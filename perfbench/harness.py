"""Run one workload: repeated set-ups, timed repetitions, checks, report.

Each set-up and each repetition runs in a fresh process (rep.py) with the
BLAS thread count fixed in its environment.  Repetitions share the corpus
of the last set-up and write their artifacts to their own directory, which
is hashed and then removed.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUPS = 3
CHILD_TIMEOUT_S = 170
RUN_BUDGET_S = 150   # stop adding repetitions past this, to end within 180 s
ACCURACY = ("eer_pct", "min_dcf_sre08", "min_dcf_sre10")
E2E_UNITS = {"setup_s": "s", "recipe_s": "s", "train_s": "s", "eval_s": "s",
             "peak_rss_mb": "MB", "eer_pct": "%", "min_dcf_sre08": "-",
             "min_dcf_sre10": "-", "failed_frac": "ratio"}


def child(root: Path, spec: dict, work: Path) -> tuple[dict | None, str]:
    """Run rep.py on `spec`; returns (result or None, error text)."""
    spec_path, result = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps({"root": str(root), "result": str(result), **spec}))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(workloads.BLAS_THREADS)
    result.unlink(missing_ok=True)
    os.sync()  # flush earlier writes now rather than during the timed child
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rep.py"), str(spec_path)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.exists():
        return None, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(result.read_text()), ""


def fill(argv: list[str], corpus: Path, out: Path, seed: int) -> list[str]:
    return [a.replace("{corpus}", str(corpus)).replace("{out}", str(out)).replace("{seed}", str(seed))
            for a in argv]


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(root: Path, wl: workloads.Workload, seed: int, seconds: float, trace: bool,
                 keep: bool = False) -> dict:
    """Set up `wl` SETUPS times, then repeat the recipe for about `seconds`.

    With `trace`, repetitions alternate untraced and traced, so the record
    holds both the per-layer numbers and the tracing overhead.  With `keep`,
    the workspace is left in place and its path recorded.
    """
    started = time.perf_counter()
    work = root / ".perfbench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    errors: list[str] = []
    setups, reps = [], []
    crashed = 0   # set-ups and repetitions whose process failed
    corpus = work / "corpus0"
    for k in range(SETUPS):
        corpus = work / f"corpus{k}"
        res, err = child(root, {"mode": "setup", "corpus": str(corpus),
                                 "synth": fill(wl.synth, corpus, corpus, seed),
                                 "config": wl.config}, work)
        if res is None or res["code"] != 0:
            errors.append(f"setup {k} failed: {err or res['stderr'][-2000:]}")
            crashed += 1
            break
        setups.append(res)
        if k:
            shutil.rmtree(work / f"corpus{k - 1}")

    min_reps = 4 if trace else 3
    measure_start = time.perf_counter()
    while not errors:
        i = len(reps)
        traced = trace and i % 2 == 1
        out = work / f"rep{i}"
        out.mkdir()
        spec = {"mode": "recipe", "trace": traced, "run_id": f"{wl.name}-{seed}-{i}",
                "out": str(out), "spans": str(work / f"spans{i}.jsonl"),
                "stages": [(phase, fill(argv, corpus, out, seed)) for phase, argv in wl.stages]}
        t0 = time.perf_counter()
        res, err = child(root, spec, work)
        if res is None:
            errors.append(f"repetition {i} failed: {err}")
            crashed += 1
            break
        res.update(traced=traced, wall_s=time.perf_counter() - t0)
        reps.append(res)
        if not keep:
            shutil.rmtree(out)
        if any(s["code"] != 0 for s in res["stages"]):
            break
        est = statistics.median(r["wall_s"] for r in reps)
        now = time.perf_counter()
        if len(reps) >= min_reps and (now - measure_start + est > seconds
                                      or now - started + est > RUN_BUDGET_S):
            break
    record = summarize(wl, seed, trace, setups, reps, crashed, errors)
    record.update(commit=_commit(root), nproc=os.cpu_count(), seconds=seconds,
                  measure_s=time.perf_counter() - measure_start)
    if keep:
        record.update(workspace=str(work), corpus=str(corpus))
    else:
        shutil.rmtree(work, ignore_errors=True)
    return record


def _stage_sum(rep: dict, phase: str | None = None) -> float:
    return sum(s["seconds"] for s in rep["stages"] if phase is None or s["phase"] == phase)


def _by_command(rep: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in rep["stages"]:
        out[s["command"]] = out.get(s["command"], 0.0) + s["seconds"]
    return out


def check_reps(wl: workloads.Workload, reps: list[dict]) -> list[str]:
    """Correctness failures of a set of repetitions of one corpus."""
    problems = []
    for i, rep in enumerate(reps):
        for s in rep["stages"]:
            if s["code"] != 0:
                problems.append(f"rep {i}: {s['command']} exited {s['code']}: {s['stderr']}")
            if s["recording_errors"]:
                problems.append(f"rep {i}: {s['command']} reported {s['recording_errors']} "
                                f"failed recording(s)")
        ev = rep["evaluation"]
        if "eer_pct" not in ev:
            problems.append(f"rep {i}: evaluate printed no EER")
        elif ev["eer_pct"] > wl.eer_ceiling_pct:
            problems.append(f"rep {i}: EER {ev['eer_pct']}% above the {wl.eer_ceiling_pct}% ceiling")
        if ev.get("trials") != wl.expected_trials:
            problems.append(f"rep {i}: {ev.get('trials')} trials scored, expected {wl.expected_trials}")
        if "scores.txt" not in rep["digests"]:
            problems.append(f"rep {i}: no scores file")
        elif rep["digests"] != reps[0]["digests"]:
            differ = sorted(k for k in set(rep["digests"]) | set(reps[0]["digests"])
                            if rep["digests"].get(k) != reps[0]["digests"].get(k))
            problems.append(f"rep {i}: artifacts differ from rep 0: {', '.join(differ[:5])}")
        layers = rep.get("layers")
        if layers is not None:
            if layers["em.loglik_decreases"]:
                problems.append(f"rep {i}: {layers['em.loglik_decreases']:.0f} EM step(s) "
                                f"decreased the log-likelihood")
            if not layers["em.loglik_steps"]:
                problems.append(f"rep {i}: no EM log-likelihood was observed")
            accounted = sum(layers[f"{l}.self_s"] for l in tracing.LAYERS) + layers["pipeline.self_s"]
            if abs(accounted - layers["trace.recipe_s"]) > 1e-6 * layers["trace.recipe_s"]:
                problems.append(f"rep {i}: layer self times sum to {accounted}, "
                                f"traced recipe took {layers['trace.recipe_s']}")
    return problems


def summarize(wl: workloads.Workload, seed: int, trace: bool, setups: list[dict],
              reps: list[dict], crashed: int, errors: list[str]) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    calls = [s for r in reps for s in r["stages"]]
    attempted = len(setups) + len(calls) + crashed
    failed = crashed + sum((s["code"] != 0) + s["recording_errors"] for s in calls)
    metrics = {}
    if setups:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    if plain:
        metrics["recipe_s"] = statistics.median(_stage_sum(r) for r in plain)
        metrics["train_s"] = statistics.median(_stage_sum(r, workloads.TRAIN) for r in plain)
        metrics["eval_s"] = statistics.median(_stage_sum(r, workloads.EVAL) for r in plain)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        for name in ACCURACY:
            if name in plain[0]["evaluation"]:
                metrics[name] = plain[0]["evaluation"][name]
    metrics["failed_frac"] = failed / attempted
    per_layer = {}
    if traced:
        per_layer = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        if plain:
            per_layer["trace.overhead_s"] = per_layer["trace.recipe_s"] - metrics["recipe_s"]
    problems = errors + check_reps(wl, reps)
    if not reps:
        problems.append("no repetition completed")
    return {
        "workload": wl.name, "seed": seed, "trace": trace, "sizes": wl.sizes,
        "workers": workloads.WORKERS, "blas_threads": workloads.BLAS_THREADS,
        "versions": (reps or setups or [{}])[0].get("versions", {}),
        "setups": len(setups), "reps": len(plain), "traced_reps": len(traced),
        "rep_recipe_s": [_stage_sum(r) for r in plain],
        "rep_peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "rep_stage_s": [_by_command(r) for r in plain],
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "per_layer": per_layer,
        "problems": problems, "correct": not problems,
    }


def report(record: dict, bench: dict) -> dict:
    """Print the run in readable lines; return the result object for the last line."""
    print(f"workload {record['workload']} seed {record['seed']}: {record['setups']} set-ups, "
          f"{record['reps']} untraced + {record['traced_reps']} traced repetitions in "
          f"{record['measure_s']:.1f} s; workers {record['workers']}, BLAS threads "
          f"{record['blas_threads']}, nproc {record['nproc']}, commit {record['commit']}")
    for name, value in record["metrics"].items():
        print(f"  {name:<16} {value:12.6g} {E2E_UNITS[name]}")
    if record["per_layer"]:
        print("per-layer (median of traced repetitions):")
        for name, value in record["per_layer"].items():
            print(f"  {name:<34} {value:14.6g}")
        print(f"tracing overhead: {record['per_layer'].get('trace.overhead_s', float('nan')):+.4f} s "
              f"on a traced recipe of {record['per_layer']['trace.recipe_s']:.4f} s; in each traced "
              f"repetition, layer self times plus pipeline.self_s must add up to its recipe time")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    wanted = bench["per_layer"] if record["trace"] else bench["end_to_end"]
    source = record["per_layer"] if record["trace"] else record["metrics"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in source}
    correct = record["correct"] and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}
