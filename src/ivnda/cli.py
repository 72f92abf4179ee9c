"""Command-line interface for the speaker-recognition pipeline.

Twelve subcommands cover the full recipe: feature extraction, UBM training
(by EM, or from external frame posteriors), subspace training, i-vector
extraction, discriminant projection, PLDA, trial scoring, evaluation with
optional DET export, SAD-override rescoring, synthetic corpus generation,
and a config-defaults dump.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric/contract
error.  The ``IVNDA_LOG`` environment variable (error|warn|info|debug)
controls logging verbosity on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio, metrics, pipeline, synth
from .config import PipelineConfig, default_config_text, load_config
from .errors import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, IvndaError

log = logging.getLogger(__name__)

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "warning": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("IVNDA_LOG", "warn").lower())
    if level is None:
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


# Config fields that a command-line flag of the same name overrides.
_OVERRIDES = {
    "run": ("workers",),
    "ubm": ("top_n",),
    "tv": ("rank", "iters", "seed"),
    "da": ("method", "k", "alpha", "dim", "all_pairs"),
}


def _load_cfg(args: argparse.Namespace) -> PipelineConfig:
    """Build the effective configuration: file (if given) plus flag overrides."""
    cfg = (
        load_config(args.config)
        if getattr(args, "config", None)
        else PipelineConfig()
    )
    # Flags a command does not define, or that were not given, are None.
    for section, names in _OVERRIDES.items():
        given = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
        if given:
            cfg = dataclasses.replace(
                cfg, **{section: dataclasses.replace(getattr(cfg, section), **given)}
            )
    if cfg.run.workers < 1:
        raise ValueError(f"[run] workers / --workers must be >= 1, got {cfg.run.workers}")
    return cfg


def _add_common(sub: argparse.ArgumentParser, workers: bool = False) -> None:
    sub.add_argument("--config", metavar="PATH", help="configuration file")
    if workers:
        sub.add_argument(
            "--workers", type=int, metavar="N", help="parallel worker count"
        )


# --- subcommand handlers --------------------------------------------------


def _cmd_extract_features(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    manifest = Path(args.manifest)
    errors = pipeline.extract_features_stage(
        fileio.read_manifest(manifest), manifest.parent, Path(args.out_dir), cfg
    )
    for rec_id, message in errors:
        print(f"error: {rec_id}: {message}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} recording(s) failed", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _cmd_train_ubm(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    pipeline.train_ubm_stage(
        Path(args.features),
        Path(args.manifest),
        Path(args.out),
        cfg,
        posterior_dir=args.posteriors,
    )
    return EXIT_OK


def _cmd_accumulate_stats(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    pipeline.accumulate_stats_stage(
        Path(args.features),
        fileio.read_manifest(args.manifest),
        Path(args.ubm),
        Path(args.out),
        cfg,
        posterior_dir=args.posteriors,
    )
    return EXIT_OK


def _cmd_train_tv(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    pipeline.train_tv_stage(
        Path(args.stats), Path(args.ubm), Path(args.out), cfg
    )
    return EXIT_OK


def _cmd_extract_ivectors(args: argparse.Namespace) -> int:
    pipeline.extract_ivectors_stage(
        Path(args.stats), Path(args.ubm), Path(args.tv), Path(args.out)
    )
    return EXIT_OK


def _cmd_train_da(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    pipeline.train_da_stage(
        Path(args.ivectors),
        Path(args.manifest),
        Path(args.out),
        cfg,
        label_filter=args.label_filter,
    )
    return EXIT_OK


def _cmd_train_plda(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    pipeline.train_plda_stage(
        Path(args.ivectors),
        Path(args.manifest),
        Path(args.projection),
        Path(args.out),
        Path(args.normalizer_out),
        cfg,
        label_filter=args.label_filter,
    )
    return EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    unknown = pipeline.score_stage(
        Path(args.enroll),
        Path(args.test),
        Path(args.trials),
        Path(args.projection),
        Path(args.normalizer),
        Path(args.plda),
        Path(args.out),
    )
    for line in unknown:
        print(f"error: unknown recording in trial: {line}", file=sys.stderr)
    if unknown:
        print(f"{len(unknown)} trial(s) skipped", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _dcf_presets(args: argparse.Namespace) -> dict[str, metrics.DcfParams]:
    flags = {"--p-target": args.p_target, "--c-miss": args.c_miss, "--c-fa": args.c_fa}
    given = [flag for flag, value in flags.items() if value is not None]
    if args.dcf_preset != "custom":
        if given:
            raise ValueError(f"evaluate uses {', '.join(given)} only with --dcf-preset custom")
        if args.dcf_preset is None:
            return metrics.DCF_PRESETS
        return {args.dcf_preset: metrics.DCF_PRESETS[args.dcf_preset]}
    missing = [flag for flag in flags if flag not in given]
    if missing:
        raise ValueError(f"--dcf-preset custom requires {', '.join(missing)}")
    return {"custom": metrics.DcfParams(cost_miss=args.c_miss, cost_fa=args.c_fa,
                                        p_target=args.p_target)}


def _threshold_text(threshold: float, scores: np.ndarray) -> str:
    """The shortest ``%.Ng`` (N >= 6) text of `threshold` that, read back,
    accepts (score >= threshold) the same trials as `threshold` itself.
    ``%.17g`` reads back exactly, so it is the last resort."""
    accepted = np.count_nonzero(scores >= threshold)
    for digits in range(6, 17):
        text = f"{threshold:.{digits}g}"
        if np.count_nonzero(scores >= float(text)) == accepted:
            return text
    return f"{threshold:.17g}"


def _cmd_evaluate(args: argparse.Namespace) -> int:
    report = pipeline.evaluate_stage(Path(args.scores), Path(args.key), _dcf_presets(args))
    trials = report.trials
    num_targets = int(trials.targets.sum())
    print(
        f"trials: {trials.num_trials} "
        f"({num_targets} target, {trials.num_trials - num_targets} nontarget)"
    )
    eer, threshold = report.eer
    print(f"eer: {100.0 * eer:.4f}% at threshold {_threshold_text(threshold, trials.scores)}")
    for name, (min_dcf, dcf_threshold) in report.min_dcf.items():
        print(f"min_dcf[{name}]: {min_dcf:.4f} at threshold "
              f"{_threshold_text(dcf_threshold, trials.scores)}")
    if args.det_csv:
        with fileio.atomic_text_writer(Path(args.det_csv)) as fh:
            metrics.det_csv(trials, fh)
    if args.det_svg:
        with fileio.atomic_text_writer(Path(args.det_svg)) as fh:
            metrics.det_svg(trials, fh)
    return EXIT_OK


def _cmd_sad_report(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    summary = pipeline.sad_report_stage(
        Path(args.scores),
        Path(args.manifest),
        Path(args.trials),
        Path(args.key),
        Path(args.ubm),
        Path(args.tv),
        Path(args.projection),
        Path(args.normalizer),
        Path(args.plda),
        Path(args.out_csv),
        cfg,
        out_scores=Path(args.out_scores) if args.out_scores else None,
    )
    print(f"affected trials: {summary['affected_trials']}")
    print(f"target trials improved: {summary['targets_improved']}")
    print(f"nontarget trials decreased: {summary['nontargets_decreased']}")
    return EXIT_OK


# Per synth mode: the corpus maker, the writer, and each flag the mode reads
# with the maker parameter it sets.  An unset flag (None) gives the maker's
# default (the makers take no default seed; `--seed` defaults to 0).  The
# corpus fingerprint records every parameter named here (the audio writer
# records none).  Flags shared by every mode, then by the two vector modes:
_COMMON_FLAGS = {"seed": "seed", "train_speakers": "num_train_speakers",
                 "train_sessions": "train_sessions", "eval_speakers": "num_eval_speakers"}
_VECTOR_FLAGS = {"eval_sessions": "eval_sessions", "dim": "dim", "channel_std": "channel_std",
                 "domain_offset": "domain_offset", "bimodal": "bimodal", "unimodal": "bimodal"}
_SYNTH_MODES = {
    "ivectors": (synth.make_ivector_corpus, pipeline.write_ivector_corpus,
                 {**_COMMON_FLAGS, **_VECTOR_FLAGS}),
    "stats": (synth.make_stats_corpus, pipeline.write_stats_corpus,
              {**_COMMON_FLAGS, **_VECTOR_FLAGS, "components": "num_components", "rank": "rank",
               "residual_scale": "residual_scale"}),
    "audio": (synth.make_audio_corpus,
              lambda corpus, out_dir, _params: pipeline.write_audio_corpus(corpus, out_dir),
              {**_COMMON_FLAGS, "eval_sessions": "eval_test_sessions", "contaminate": "contaminate"}),
}


def _cmd_synth(args: argparse.Namespace) -> int:
    maker, write, flags = _SYNTH_MODES[args.mode]
    every_flag = dict.fromkeys(name for _, _, names in _SYNTH_MODES.values() for name in names)
    unused = [
        "--" + name.replace("_", "-")
        for name in every_flag
        if name not in flags and getattr(args, name) is not None
    ]
    if unused:
        raise ValueError(f"synth --mode {args.mode} does not use {', '.join(unused)}")
    defaults = inspect.signature(maker).parameters
    params = {param: defaults[param].default for param in flags.values()}
    params.update((p, getattr(args, f)) for f, p in flags.items() if getattr(args, f) is not None)
    out_dir = Path(args.out_dir)
    write(maker(**params), out_dir, {"mode": args.mode, **params})
    print(f"wrote synthetic {args.mode} corpus to {out_dir}")
    return EXIT_OK


def _cmd_defaults(_args: argparse.Namespace) -> int:
    sys.stdout.write(default_config_text())
    return EXIT_OK


# --- parser construction --------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ivnda",
        description="i-vector speaker recognition pipeline with "
        "nonparametric discriminant analysis",
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub = subs.add_parser(
        "extract-features", help="compute features for a manifest of recordings"
    )
    _add_common(sub, workers=True)
    sub.add_argument("--manifest", required=True, metavar="PATH")
    sub.add_argument("--out-dir", required=True, metavar="DIR")
    sub.set_defaults(handler=_cmd_extract_features)

    sub = subs.add_parser("train-ubm", help="train the background GMM")
    _add_common(sub)
    sub.add_argument("--features", required=True, metavar="DIR")
    sub.add_argument("--manifest", required=True, metavar="PATH")
    sub.add_argument("--out", required=True, metavar="PATH")
    sub.add_argument(
        "--posteriors", type=Path, metavar="DIR",
        help="estimate the Gaussians from external frame posteriors, one "
        "<recording_id>.post per recording, instead of by EM",
    )
    sub.set_defaults(handler=_cmd_train_ubm)

    sub = subs.add_parser(
        "accumulate-stats", help="accumulate per-recording sufficient statistics"
    )
    _add_common(sub, workers=True)
    sub.add_argument("--features", required=True, metavar="DIR")
    sub.add_argument("--manifest", required=True, metavar="PATH")
    sub.add_argument("--ubm", required=True, metavar="PATH")
    sub.add_argument("--out", required=True, metavar="PATH")
    sub.add_argument("--top-n", type=int, metavar="N", dest="top_n")
    sub.add_argument(
        "--posteriors", type=Path, metavar="DIR",
        help="align with external frame posteriors, one <recording_id>.post "
        "per recording, instead of the UBM",
    )
    sub.set_defaults(handler=_cmd_accumulate_stats)

    sub = subs.add_parser("train-tv", help="train the total-variability subspace")
    _add_common(sub)
    sub.add_argument("--stats", required=True, metavar="PATH")
    sub.add_argument("--ubm", required=True, metavar="PATH")
    sub.add_argument("--out", required=True, metavar="PATH")
    sub.add_argument("--rank", type=int, metavar="R")
    sub.add_argument("--iters", type=int, metavar="N")
    sub.add_argument(
        "--seed", type=int, metavar="N", help="subspace initialisation seed"
    )
    sub.set_defaults(handler=_cmd_train_tv)

    sub = subs.add_parser("extract-ivectors", help="extract i-vectors from statistics")
    sub.add_argument("--stats", required=True, metavar="PATH")
    sub.add_argument("--ubm", required=True, metavar="PATH")
    sub.add_argument("--tv", required=True, metavar="PATH")
    sub.add_argument("--out", required=True, metavar="PATH")
    sub.set_defaults(handler=_cmd_extract_ivectors)

    sub = subs.add_parser(
        "train-da", help="train a discriminant projection (LDA or NDA)"
    )
    _add_common(sub)
    sub.add_argument("--ivectors", required=True, metavar="PATH")
    sub.add_argument("--manifest", required=True, metavar="PATH")
    sub.add_argument("--out", required=True, metavar="PATH")
    sub.add_argument("--method", choices=("lda", "nda"))
    sub.add_argument("--k", type=int, metavar="K")
    sub.add_argument("--alpha", type=float, metavar="A")
    sub.add_argument("--dim", type=int, metavar="M")
    sub.add_argument(
        "--all-pairs", action="store_true", default=None,
        help="use the pairwise NDA scatter instead of one-vs-rest",
    )
    sub.add_argument(
        "--label-filter", default="", metavar="REGEX",
        help="train only on speakers whose label matches",
    )
    sub.set_defaults(handler=_cmd_train_da)

    sub = subs.add_parser(
        "train-plda", help="train the PLDA backend and its normalizer"
    )
    _add_common(sub)
    sub.add_argument("--ivectors", required=True, metavar="PATH")
    sub.add_argument("--manifest", required=True, metavar="PATH")
    sub.add_argument("--projection", required=True, metavar="PATH")
    sub.add_argument("--out", required=True, metavar="PATH")
    sub.add_argument("--normalizer-out", required=True, metavar="PATH")
    sub.add_argument("--label-filter", default="", metavar="REGEX")
    sub.set_defaults(handler=_cmd_train_plda)

    sub = subs.add_parser("score", help="score a trial list")
    sub.add_argument("--enroll", required=True, metavar="PATH")
    sub.add_argument("--test", required=True, metavar="PATH")
    sub.add_argument("--trials", required=True, metavar="PATH")
    sub.add_argument("--projection", required=True, metavar="PATH")
    sub.add_argument("--normalizer", required=True, metavar="PATH")
    sub.add_argument("--plda", required=True, metavar="PATH")
    sub.add_argument("--out", required=True, metavar="PATH")
    sub.set_defaults(handler=_cmd_score)

    sub = subs.add_parser("evaluate", help="report EER and minimum DCF")
    sub.add_argument("--scores", required=True, metavar="PATH")
    sub.add_argument("--key", required=True, metavar="PATH")
    sub.add_argument("--det-csv", metavar="PATH")
    sub.add_argument("--det-svg", metavar="PATH")
    sub.add_argument(
        "--dcf-preset", choices=("sre08", "sre10", "custom"), dest="dcf_preset"
    )
    sub.add_argument("--p-target", type=float, dest="p_target")
    sub.add_argument("--c-miss", type=float, dest="c_miss")
    sub.add_argument("--c-fa", type=float, dest="c_fa")
    sub.set_defaults(handler=_cmd_evaluate)

    sub = subs.add_parser(
        "sad-report",
        help="re-score trials affected by speech-mask overrides",
    )
    _add_common(sub)
    sub.add_argument("--scores", required=True, metavar="PATH")
    sub.add_argument("--manifest", required=True, metavar="PATH")
    sub.add_argument("--trials", required=True, metavar="PATH")
    sub.add_argument("--key", required=True, metavar="PATH")
    sub.add_argument("--ubm", required=True, metavar="PATH")
    sub.add_argument("--tv", required=True, metavar="PATH")
    sub.add_argument("--projection", required=True, metavar="PATH")
    sub.add_argument("--normalizer", required=True, metavar="PATH")
    sub.add_argument("--plda", required=True, metavar="PATH")
    sub.add_argument("--out-csv", required=True, metavar="PATH")
    sub.add_argument("--out-scores", metavar="PATH")
    sub.set_defaults(handler=_cmd_sad_report)

    sub = subs.add_parser("synth", help="generate a synthetic corpus")
    sub.add_argument(
        "--mode", required=True, choices=("stats", "ivectors", "audio")
    )
    sub.add_argument("--out-dir", required=True, metavar="DIR")
    sub.add_argument("--seed", type=int, default=0, metavar="N")
    sub.add_argument("--train-speakers", type=int, metavar="N")
    sub.add_argument("--train-sessions", type=int, metavar="N")
    sub.add_argument("--eval-speakers", type=int, metavar="N")
    sub.add_argument("--eval-sessions", type=int, metavar="N")
    sub.add_argument("--components", type=int, metavar="G")
    sub.add_argument("--dim", type=int, metavar="D")
    sub.add_argument("--rank", type=int, metavar="R")
    sub.add_argument("--channel-std", type=float, metavar="S")
    sub.add_argument("--residual-scale", type=float, metavar="S")
    sub.add_argument("--domain-offset", type=float, metavar="S")
    modality = sub.add_mutually_exclusive_group()
    modality.add_argument(
        "--bimodal", action="store_const", const=True,
        help="plant two channel domains (stats mode; default in ivectors mode)",
    )
    modality.add_argument(
        "--unimodal", action="store_const", const=False,
        help="disable the two-domain channel structure",
    )
    sub.add_argument("--contaminate", type=int, metavar="N")
    sub.set_defaults(handler=_cmd_synth)

    sub = subs.add_parser("defaults", help="print the default configuration")
    sub.set_defaults(handler=_cmd_defaults)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.handler(args)
    except IvndaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    log.info("%s finished in %.2f s", args.command, time.monotonic() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
