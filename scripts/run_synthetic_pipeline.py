#!/usr/bin/env python3
"""Run the full synthetic statistics recipe end to end.

Generates a corpus with a planted total-variability subspace, trains the
subspace on the training split, extracts i-vectors, fits the
discriminant projection and the PLDA backend, scores the trial list and
prints the evaluation report.

Example:
    python3 scripts/run_synthetic_pipeline.py --workspace /tmp/ivnda-demo
"""

import argparse
import sys
from pathlib import Path

from ivnda.cli import main as ivnda

SPLITS = ("train", "enroll", "test")


def run(argv: list) -> None:
    """Run one ``ivnda`` command, echoed first; exit with its code if it fails."""
    argv = [str(a) for a in argv]
    print("+ ivnda " + " ".join(argv))
    rc = ivnda(argv)
    if rc != 0:
        sys.exit(rc)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workspace", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=910)
    parser.add_argument("--train-speakers", type=int, default=50)
    parser.add_argument("--train-sessions", type=int, default=10)
    parser.add_argument("--eval-speakers", type=int, default=25)
    parser.add_argument("--eval-sessions", type=int, default=4)
    parser.add_argument("--rank", type=int, default=16)
    parser.add_argument("--tv-iters", type=int, default=10)
    parser.add_argument("--method", choices=("nda", "lda"), default="nda")
    parser.add_argument("--k", type=int, default=9)
    parser.add_argument("--alpha", type=float, default=2.0)
    parser.add_argument("--dim", type=int, default=8)
    return parser.parse_args(argv)


def stages(args: argparse.Namespace) -> list[list]:
    """The recipe's ``ivnda`` commands in order, from ``synth`` to ``evaluate``."""
    ws = args.workspace
    da = ["--method", args.method, "--dim", args.dim]
    if args.method == "nda":
        da += ["--k", args.k, "--alpha", args.alpha]
    return [
        [
            "synth", "--mode", "stats", "--out-dir", ws, "--seed", args.seed,
            "--train-speakers", args.train_speakers,
            "--train-sessions", args.train_sessions,
            "--eval-speakers", args.eval_speakers,
            "--eval-sessions", args.eval_sessions,
            "--rank", args.rank,
        ],
        [
            "train-tv", "--stats", ws / "train.ivbw", "--ubm", ws / "ubm.ivgm",
            "--out", ws / "tv.ivtv", "--rank", args.rank,
            "--iters", args.tv_iters, "--seed", args.seed,
        ],
        *(
            [
                "extract-ivectors", "--stats", ws / f"{split}.ivbw",
                "--ubm", ws / "ubm.ivgm", "--tv", ws / "tv.ivtv",
                "--out", ws / f"{split}.iviv",
            ]
            for split in SPLITS
        ),
        [
            "train-da", "--ivectors", ws / "train.iviv",
            "--manifest", ws / "train.manifest", "--out", ws / "proj.ivda", *da,
        ],
        [
            "train-plda", "--ivectors", ws / "train.iviv",
            "--manifest", ws / "train.manifest", "--projection", ws / "proj.ivda",
            "--out", ws / "plda.ivpl", "--normalizer-out", ws / "norm.ivnz",
        ],
        [
            "score", "--enroll", ws / "enroll.iviv", "--test", ws / "test.iviv",
            "--trials", ws / "trials.txt", "--projection", ws / "proj.ivda",
            "--normalizer", ws / "norm.ivnz", "--plda", ws / "plda.ivpl",
            "--out", ws / "scores.txt",
        ],
        [
            "evaluate", "--scores", ws / "scores.txt", "--key", ws / "key.txt",
            "--det-csv", ws / "det.csv", "--det-svg", ws / "det.svg",
        ],
    ]


def main() -> None:
    for argv in stages(parse_args()):
        run(argv)


if __name__ == "__main__":
    main()
