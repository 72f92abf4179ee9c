"""Compare two result sets (for example parent and change), metric by metric.

Each side is a ``.jsonl`` results file or a directory of them, as written
by run.py.  For every workload and end-to-end metric it prints each side's
median and quartiles, the share of seed-matched pairs the change won, and
a verdict under the benchmark's own bound:

- ``worse``: the change's median is worse than the base's by more than the bound;
- ``better``: the change won at least 9 in 10 pairs and the medians differ by
  more than the base's interquartile distance;
- ``unresolved``: either side spreads wider than the bound (interquartile
  distance over median), unless every change run beats, or loses to, every
  base run;
- ``same`` otherwise.

Exit code 1 when a metric is worse or the two sides were not measured alike.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# Fields that must match before two records are compared.
COMPARABLE = ("nproc", "workers", "blas_threads", "sizes", "versions", "seconds")


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced records by workload."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    by_workload: dict[str, list[dict]] = {}
    for f in files:
        for line in f.read_text().splitlines():
            record = json.loads(line)
            if not record["trace"]:
                by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, float, float]:
    """(verdict, relative worsening of the median, share of pairs won)."""
    sign = 1.0 if lower_is_better else -1.0
    bq1, bmed, bq3 = _quartiles(base)
    cq1, cmed, cq3 = _quartiles(change)
    worse_by = sign * (cmed - bmed) / bmed
    won = sum(sign * (c - b) < 0 for b, c in pairs) / len(pairs) if pairs else 0.0
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    all_worse = min(sign * c for c in change) > max(sign * b for b in base)
    if (bq3 - bq1) / bmed > bound or (cq3 - cq1) / cmed > bound:
        result = "better" if all_better else "worse" if all_worse else "unresolved"
    elif worse_by > bound:
        result = "worse"
    elif won >= 0.9 and worse_by < 0 and abs(cmed - bmed) > bq3 - bq1:
        result = "better"
    else:
        result = "same"
    return result, worse_by, won


def main(bench: dict, base_path: Path, change_path: Path) -> int:
    base, change = load(base_path), load(change_path)
    status = 0
    for workload in sorted(set(base) & set(change)):
        b_recs, c_recs = base[workload], change[workload]
        for field in COMPARABLE:
            b_vals = {json.dumps(r.get(field), sort_keys=True) for r in b_recs}
            c_vals = {json.dumps(r.get(field), sort_keys=True) for r in c_recs}
            if b_vals != c_vals:
                print(f"{workload}: not comparable, {field} differs: {sorted(b_vals)} vs {sorted(c_vals)}")
                status = 1
        print(f"{workload}: base {len(b_recs)} runs ({b_recs[0]['commit'][:12]}), "
              f"change {len(c_recs)} runs ({c_recs[0]['commit'][:12]})")
        for m in bench["end_to_end"]:
            name = m["name"]
            b_by_seed = {r["seed"]: r["metrics"][name] for r in b_recs if name in r["metrics"]}
            c_by_seed = {r["seed"]: r["metrics"][name] for r in c_recs if name in r["metrics"]}
            if not b_by_seed or not c_by_seed:
                print(f"  {name:<12} missing on one side")
                status = 1
                continue
            seeds = sorted(set(b_by_seed) & set(c_by_seed))
            pairs = [(b_by_seed[s], c_by_seed[s]) for s in seeds]
            b_vals, c_vals = list(b_by_seed.values()), list(c_by_seed.values())
            result, worse_by, won = verdict(b_vals, c_vals, pairs, m["bound"], m["better"] == "lower")
            bq1, bmed, bq3 = _quartiles(b_vals)
            cq1, cmed, cq3 = _quartiles(c_vals)
            print(f"  {name:<12} {m['unit']:<3} base {bmed:10.4g} [{bq1:.4g}, {bq3:.4g}]  "
                  f"change {cmed:10.4g} [{cq1:.4g}, {cq3:.4g}]  worse by {100 * worse_by:+6.1f}% "
                  f"(bound {100 * m['bound']:.0f}%)  won {won:4.0%} of {len(pairs)}  {result}")
            if result == "worse":
                status = 1
    for workload in sorted(set(base) ^ set(change)):
        print(f"{workload}: measured on one side only")
    return status
