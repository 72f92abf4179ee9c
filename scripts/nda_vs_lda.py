#!/usr/bin/env python3
"""Compare NDA and LDA projections on corpora with two channel domains.

Generates i-vector-level corpora whose session offsets cluster into two
domains, runs the same normalisation/PLDA backend on top of each
projection and reports EER and minimum DCF per seed.  With
``--unimodal`` the channel offsets collapse to a single Gaussian, which
removes most of the gap between the two projections.

Example:
    python3 scripts/nda_vs_lda.py --seeds 5
"""

import argparse

import numpy as np

from ivnda.backend import fit_normalizer, normalize_rows, score_pairs, train_plda
from ivnda.da import LabeledVectors, Projection, compute_lda, compute_nda, project
from ivnda.metrics import DCF_PRESETS, TrialSet, compute_eer, compute_min_dcf
from ivnda.synth import IvectorCorpus, make_ivector_corpus


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


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=970_000)
    parser.add_argument("--train-speakers", type=int, default=100)
    parser.add_argument("--train-sessions", type=int, default=12)
    parser.add_argument("--eval-speakers", type=int, default=50)
    parser.add_argument("--eval-sessions", type=int, default=4)
    parser.add_argument("--dim", type=int, default=12, help="projected dimension")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--alpha", type=float, default=2.0)
    parser.add_argument("--unimodal", action="store_true")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    print(f"{'seed':>8}  {'EER nda':>8}  {'EER lda':>8}  {'dcf nda':>8}  {'dcf lda':>8}")
    nda_eers, lda_eers = [], []
    for offset in range(args.seeds):
        seed = args.first_seed + offset
        corpus = make_ivector_corpus(
            seed,
            num_train_speakers=args.train_speakers,
            train_sessions=args.train_sessions,
            num_eval_speakers=args.eval_speakers,
            eval_sessions=args.eval_sessions,
            bimodal=not args.unimodal,
        )
        train = corpus.train.labeled()
        nda_eer, nda_dcf = evaluate_projection(
            corpus, compute_nda(train, k=args.k, alpha=args.alpha, out_dim=args.dim)
        )
        lda_eer, lda_dcf = evaluate_projection(
            corpus, compute_lda(train, out_dim=args.dim)
        )
        nda_eers.append(nda_eer)
        lda_eers.append(lda_eer)
        print(
            f"{seed:>8}  {nda_eer * 100:7.2f}%  {lda_eer * 100:7.2f}%"
            f"  {nda_dcf:8.3f}  {lda_dcf:8.3f}"
        )
    print(
        f"{'mean':>8}  {np.mean(nda_eers) * 100:7.2f}%  "
        f"{np.mean(lda_eers) * 100:7.2f}%"
    )


if __name__ == "__main__":
    main()
