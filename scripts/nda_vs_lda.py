#!/usr/bin/env python3
"""Compare NDA and LDA projections on corpora with two channel domains.

For each seed, writes an i-vector-level corpus whose session offsets
cluster into two domains, then runs the recipe's own back end on it once
per projection: one-vs-rest NDA, class-pair NDA and LDA.  Each variant is
the default configuration with its ``[da]`` section replaced, taken
through the ``train-da``, ``train-plda``, ``score`` and ``evaluate``
stages in a temporary directory, so PLDA follows ``[plda] iters``.
Reports EER, minimum DCF (sre10) and ``train-da`` time (its I/O included)
per seed, then the mean over seeds and paired per-seed differences (each
NDA variant against LDA, and class-pair against one-vs-rest).  With
``--unimodal`` the channel offsets collapse to a single Gaussian, which
removes most of the gap between the projections.

Example:
    python3 scripts/nda_vs_lda.py --seeds 5
"""

import argparse
import dataclasses
import inspect
import tempfile
import time
from pathlib import Path

import numpy as np

from ivnda import pipeline
from ivnda.config import DaConfig, PipelineConfig
from ivnda.synth import make_ivector_corpus


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=970_000)
    parser.add_argument("--train-speakers", type=int, default=100)
    parser.add_argument("--train-sessions", type=int, default=12)
    parser.add_argument("--eval-speakers", type=int, default=50)
    parser.add_argument("--eval-sessions", type=int, default=4)
    parser.add_argument("--ivector-dim", type=int, default=24, help="corpus i-vector dimension")
    parser.add_argument("--dim", type=int, default=12, help="projected dimension")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--alpha", type=float, default=2.0)
    parser.add_argument("--unimodal", action="store_true")
    return parser.parse_args(argv)


def variants(args: argparse.Namespace) -> dict[str, PipelineConfig]:
    """The recipe configuration of each compared projection."""
    nda = DaConfig(method="nda", k=args.k, alpha=args.alpha, dim=args.dim)
    das = {
        "nda": nda,
        "nda-cp": dataclasses.replace(nda, all_pairs=True),
        "lda": DaConfig(method="lda", dim=args.dim),
    }
    return {name: dataclasses.replace(PipelineConfig(), da=da) for name, da in das.items()}


def write_corpus(out_dir: Path, seed: int, args: argparse.Namespace) -> None:
    """The corpus of `seed`, written as ``ivnda synth --mode ivectors`` writes
    it: the channel parameters the script does not set keep the maker's
    defaults, and the provenance config records them too."""
    defaults = inspect.signature(make_ivector_corpus).parameters
    params = {
        "seed": seed,
        "num_train_speakers": args.train_speakers,
        "train_sessions": args.train_sessions,
        "num_eval_speakers": args.eval_speakers,
        "eval_sessions": args.eval_sessions,
        "dim": args.ivector_dim,
        "channel_std": defaults["channel_std"].default,
        "domain_offset": defaults["domain_offset"].default,
        "bimodal": not args.unimodal,
    }
    pipeline.write_ivector_corpus(
        make_ivector_corpus(**params), out_dir, {"mode": "ivectors", **params}
    )


def run_variant(corpus: Path, cfg: PipelineConfig) -> tuple[float, float, float]:
    """EER, sre10 minDCF and ``train-da`` seconds of the back end under
    `cfg` on the i-vector corpus in `corpus`; its artifacts are temporary."""
    train, manifest = corpus / "train.iviv", corpus / "train.manifest"
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        proj, norm, plda = tmp / "proj.ivda", tmp / "norm.ivnz", tmp / "plda.ivpl"
        start = time.perf_counter()
        pipeline.train_da_stage(train, manifest, proj, cfg)
        seconds = time.perf_counter() - start
        pipeline.train_plda_stage(train, manifest, proj, plda, norm, cfg)
        unknown = pipeline.score_stage(
            corpus / "enroll.iviv", corpus / "test.iviv", corpus / "trials.txt",
            proj, norm, plda, tmp / "scores.txt",
        )
        if unknown:
            raise ValueError(f"{len(unknown)} trial(s) name an unknown recording")
        report = pipeline.evaluate_stage(tmp / "scores.txt", corpus / "key.txt")
    return report.eer[0], report.min_dcf["sre10"][0], seconds


def main() -> None:
    args = parse_args()
    configs = variants(args)
    # results[method] rows: (EER, minDCF, fit seconds), one per seed
    results: dict[str, list[tuple[float, float, float]]] = {m: [] for m in configs}
    print(f"{'seed':>8}" + "".join(f"  {'EER ' + m:>10}" for m in configs)
          + "".join(f"  {'dcf ' + m:>10}" for m in configs))
    for offset in range(args.seeds):
        seed = args.first_seed + offset
        with tempfile.TemporaryDirectory() as corpus_name:
            corpus = Path(corpus_name)
            write_corpus(corpus, seed, args)
            for method, cfg in configs.items():
                results[method].append(run_variant(corpus, cfg))
        print(f"{seed:>8}" + "".join(f"  {results[m][-1][0] * 100:9.3f}%" for m in configs)
              + "".join(f"  {results[m][-1][1]:10.4f}" for m in configs))
    table = {m: np.asarray(rows) for m, rows in results.items()}
    print(f"{'mean':>8}" + "".join(f"  {table[m][:, 0].mean() * 100:9.3f}%" for m in configs)
          + "".join(f"  {table[m][:, 1].mean():10.4f}" for m in configs))
    print("mean fit time: " + ", ".join(f"{m} {table[m][:, 2].mean():.3f} s" for m in configs))

    print(f"\npaired per-seed differences over {args.seeds} seed(s)"
          " (negative: the first method is lower)")
    for col, metric, scale in ((0, "EER (points)", 100.0), (1, "minDCF", 1.0)):
        for first, second in (("nda", "lda"), ("nda-cp", "lda"), ("nda-cp", "nda")):
            diff = scale * (table[first][:, col] - table[second][:, col])
            # The standard error needs two seeds; one seed has none.
            stderr = (f"{diff.std(ddof=1) / np.sqrt(diff.size):.4f}"
                      if diff.size > 1 else "n/a")
            print(f"  {metric:<12} {first:>6} - {second:<4} mean {diff.mean():+.4f}"
                  f"  std err {stderr:>6}  lower in {int((diff < 0).sum())}"
                  f"/{diff.size}, higher in {int((diff > 0).sum())}/{diff.size}")


if __name__ == "__main__":
    main()
