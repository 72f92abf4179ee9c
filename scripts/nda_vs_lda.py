#!/usr/bin/env python3
"""Compare NDA and LDA projections on corpora with two channel domains.

Generates i-vector-level corpora whose session offsets cluster into two
domains, runs the same normalisation/PLDA backend on top of each
projection and reports EER, minimum DCF (sre10) and fit time per seed
for one-vs-rest NDA, class-pair NDA and LDA, then the mean over seeds
and paired per-seed differences (each NDA variant against LDA, and
class-pair against one-vs-rest).  With
``--unimodal`` the channel offsets collapse to a single Gaussian, which
removes most of the gap between the projections.

Example:
    python3 scripts/nda_vs_lda.py --seeds 5
"""

import argparse
import time

import numpy as np

from ivnda.backend import fit_normalizer, normalize_rows, score_pairs, train_plda
from ivnda.da import LabeledVectors, Projection, compute_lda, compute_nda, project
from ivnda.metrics import DCF_PRESETS, TrialSet, compute_eer, compute_min_dcf
from ivnda.synth import IvectorCorpus, make_ivector_corpus

METHODS = ("nda", "nda-cp", "lda")


def evaluate_projection(corpus: IvectorCorpus, proj: Projection) -> tuple[float, float]:
    """EER and minDCF of the projected+normalised PLDA recipe."""
    train_rows = project(corpus.train.vectors, proj)
    norm = fit_normalizer(train_rows)
    plda = train_plda(
        LabeledVectors(
            vectors=normalize_rows(train_rows, norm),
            labels=np.asarray(corpus.train.speakers),
        ),
        iters=10,
    )
    enroll = normalize_rows(project(corpus.enroll.vectors, proj), norm)
    test = normalize_rows(project(corpus.test.vectors, proj), norm)
    enroll_row = {rid: i for i, rid in enumerate(corpus.enroll.ids)}
    test_row = {rid: i for i, rid in enumerate(corpus.test.ids)}
    scores = score_pairs(
        plda,
        enroll,
        test,
        np.array([enroll_row[e] for e in corpus.trials.enroll]),
        np.array([test_row[t] for t in corpus.trials.test]),
    )
    trials = TrialSet(scores=scores, targets=corpus.key.values)
    return compute_eer(trials)[0], compute_min_dcf(trials, DCF_PRESETS["sre10"])[0]


def fit(method: str, train: LabeledVectors, args: argparse.Namespace) -> Projection:
    if method == "lda":
        return compute_lda(train, out_dim=args.dim)
    return compute_nda(
        train, k=args.k, alpha=args.alpha, out_dim=args.dim, one_vs_rest=method == "nda"
    )


def parse_args() -> argparse.Namespace:
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
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    # results[method] rows: (EER, minDCF, fit seconds), one per seed
    results: dict[str, list[tuple[float, float, float]]] = {m: [] for m in METHODS}
    print(f"{'seed':>8}" + "".join(f"  {'EER ' + m:>10}" for m in METHODS)
          + "".join(f"  {'dcf ' + m:>10}" for m in METHODS))
    for offset in range(args.seeds):
        seed = args.first_seed + offset
        corpus = make_ivector_corpus(
            seed,
            num_train_speakers=args.train_speakers,
            train_sessions=args.train_sessions,
            num_eval_speakers=args.eval_speakers,
            eval_sessions=args.eval_sessions,
            dim=args.ivector_dim,
            bimodal=not args.unimodal,
        )
        train = corpus.train.labeled()
        for method in METHODS:
            start = time.perf_counter()
            proj = fit(method, train, args)
            seconds = time.perf_counter() - start
            results[method].append((*evaluate_projection(corpus, proj), seconds))
        print(f"{seed:>8}" + "".join(f"  {results[m][-1][0] * 100:9.3f}%" for m in METHODS)
              + "".join(f"  {results[m][-1][1]:10.4f}" for m in METHODS))
    table = {m: np.asarray(rows) for m, rows in results.items()}
    print(f"{'mean':>8}" + "".join(f"  {table[m][:, 0].mean() * 100:9.3f}%" for m in METHODS)
          + "".join(f"  {table[m][:, 1].mean():10.4f}" for m in METHODS))
    print("mean fit time: " + ", ".join(f"{m} {table[m][:, 2].mean():.3f} s" for m in METHODS))

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
