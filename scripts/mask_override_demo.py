#!/usr/bin/env python3
"""Demonstrate speech-mask override rescoring on contaminated audio.

Builds a small synthetic audio corpus in which one test recording
contains an interfering speaker between the target speaker's bursts,
runs the full waveform-to-scores recipe, then feeds a corrected speech
mask through ``sad-report`` and prints how the affected trials move.

Example:
    python3 scripts/mask_override_demo.py --workspace /tmp/ivnda-audio
    python3 scripts/mask_override_demo.py --workspace /tmp/ivnda-audio2 --workers 2
"""

import argparse
from pathlib import Path

from run_synthetic_pipeline import SPLITS, run


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workspace", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=911)
    parser.add_argument("--components", type=int, default=8)
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads for extract-features and accumulate-stats")
    return parser.parse_args(argv)


def stages(args: argparse.Namespace) -> list[list]:
    """The demo's ``ivnda`` commands in order, from ``synth`` to
    ``sad-report``.  Writes the workspace's ``config.ini``, which they read,
    first."""
    ws = args.workspace
    ws.mkdir(parents=True, exist_ok=True)
    cfg = ws / "config.ini"
    cfg.write_text(
        f"[ubm]\nnum_components = {args.components}\n"
        f"iters_per_level = 3\ntop_n = {args.components}\n"
    )
    return [
        ["synth", "--mode", "audio", "--out-dir", ws, "--seed", args.seed],
        *(
            [
                "extract-features", "--config", cfg,
                "--manifest", ws / f"{split}.manifest", "--out-dir", ws / "feats",
                "--workers", args.workers,
            ]
            for split in SPLITS
        ),
        [
            "train-ubm", "--config", cfg, "--features", ws / "feats",
            "--manifest", ws / "train.manifest", "--out", ws / "ubm.ivgm",
        ],
        *(
            [
                "accumulate-stats", "--config", cfg, "--features", ws / "feats",
                "--manifest", ws / f"{split}.manifest", "--ubm", ws / "ubm.ivgm",
                "--out", ws / f"{split}.ivbw", "--workers", args.workers,
            ]
            for split in SPLITS
        ),
        [
            "train-tv", "--stats", ws / "train.ivbw", "--ubm", ws / "ubm.ivgm",
            "--out", ws / "tv.ivtv", "--rank", args.rank, "--iters", "4",
            "--seed", args.seed,
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
            "--manifest", ws / "train.manifest", "--out", ws / "proj.ivda",
            "--method", "lda", "--dim", "4",
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
            "sad-report", "--config", cfg, "--scores", ws / "scores.txt",
            "--manifest", ws / "override.manifest", "--trials", ws / "trials.txt",
            "--key", ws / "key.txt", "--ubm", ws / "ubm.ivgm",
            "--tv", ws / "tv.ivtv", "--projection", ws / "proj.ivda",
            "--normalizer", ws / "norm.ivnz", "--plda", ws / "plda.ivpl",
            "--out-csv", ws / "sad.csv", "--out-scores", ws / "rescored.txt",
        ],
    ]


def main() -> None:
    args = parse_args()
    for argv in stages(args):
        run(argv)
    print("\naffected trials (from sad.csv):")
    print((args.workspace / "sad.csv").read_text().rstrip())


if __name__ == "__main__":
    main()
