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
import sys
from pathlib import Path

from ivnda.cli import main as ivnda


def run(argv: list) -> None:
    argv = [str(a) for a in argv]
    print("+ ivnda " + " ".join(argv))
    rc = ivnda(argv)
    if rc != 0:
        sys.exit(rc)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workspace", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=911)
    parser.add_argument("--components", type=int, default=8)
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads for extract-features and accumulate-stats")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    ws = args.workspace
    run(["synth", "--mode", "audio", "--out-dir", ws, "--seed", args.seed])
    cfg = ws / "config.ini"
    cfg.write_text(
        f"[ubm]\nnum_components = {args.components}\n"
        f"iters_per_level = 3\ntop_n = {args.components}\n"
    )
    for split in ("train", "enroll", "test"):
        run(
            [
                "extract-features", "--config", cfg,
                "--manifest", ws / f"{split}.manifest", "--out-dir", ws / "feats",
                "--workers", args.workers,
            ]
        )
    run(
        [
            "train-ubm", "--config", cfg, "--features", ws / "feats",
            "--manifest", ws / "train.manifest", "--out", ws / "ubm.ivgm",
        ]
    )
    for split in ("train", "enroll", "test"):
        run(
            [
                "accumulate-stats", "--config", cfg, "--features", ws / "feats",
                "--manifest", ws / f"{split}.manifest", "--ubm", ws / "ubm.ivgm",
                "--out", ws / f"{split}.ivbw", "--workers", args.workers,
            ]
        )
    run(
        [
            "train-tv", "--stats", ws / "train.ivbw", "--ubm", ws / "ubm.ivgm",
            "--out", ws / "tv.ivtv", "--rank", args.rank, "--iters", "4",
            "--seed", args.seed,
        ]
    )
    for split in ("train", "enroll", "test"):
        run(
            [
                "extract-ivectors", "--stats", ws / f"{split}.ivbw",
                "--ubm", ws / "ubm.ivgm", "--tv", ws / "tv.ivtv",
                "--out", ws / f"{split}.iviv",
            ]
        )
    run(
        [
            "train-da", "--ivectors", ws / "train.iviv",
            "--manifest", ws / "train.manifest", "--out", ws / "proj.ivda",
            "--method", "lda", "--dim", "4",
        ]
    )
    run(
        [
            "train-plda", "--ivectors", ws / "train.iviv",
            "--manifest", ws / "train.manifest", "--projection", ws / "proj.ivda",
            "--out", ws / "plda.ivpl", "--normalizer-out", ws / "norm.ivnz",
        ]
    )
    run(
        [
            "score", "--enroll", ws / "enroll.iviv", "--test", ws / "test.iviv",
            "--trials", ws / "trials.txt", "--projection", ws / "proj.ivda",
            "--normalizer", ws / "norm.ivnz", "--plda", ws / "plda.ivpl",
            "--out", ws / "scores.txt",
        ]
    )
    run(
        [
            "sad-report", "--config", cfg, "--scores", ws / "scores.txt",
            "--manifest", ws / "override.manifest", "--trials", ws / "trials.txt",
            "--key", ws / "key.txt", "--ubm", ws / "ubm.ivgm",
            "--tv", ws / "tv.ivtv", "--projection", ws / "proj.ivda",
            "--normalizer", ws / "norm.ivnz", "--plda", ws / "plda.ivpl",
            "--out-csv", ws / "sad.csv", "--out-scores", ws / "rescored.txt",
        ]
    )
    print("\naffected trials (from sad.csv):")
    print((ws / "sad.csv").read_text().rstrip())


if __name__ == "__main__":
    main()
