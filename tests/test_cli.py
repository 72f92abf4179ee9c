"""End-to-end command-line tests: full recipes, output formats, exit codes."""

import argparse
import dataclasses
import hashlib
import inspect
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mask_override_demo
import nda_vs_lda
import run_synthetic_pipeline
from helpers import sparse_random_posteriors
from ivnda import fileio, frontend, metrics, pipeline, stats as stats_mod, synth, ubm
from ivnda.cli import build_parser, main
from ivnda.config import PipelineConfig, load_config
from ivnda.errors import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE


def run_ok(argv):
    assert main([str(a) for a in argv]) == EXIT_OK


# --- shared workspaces -----------------------------------------------------


@pytest.fixture(scope="module")
def stats_ws(tmp_path_factory):
    """A small statistics-level corpus taken through the whole recipe of
    scripts/run_synthetic_pipeline.py."""
    ws = tmp_path_factory.mktemp("stats_ws")
    args = run_synthetic_pipeline.parse_args(
        [
            "--workspace", str(ws), "--seed", "5",
            "--train-speakers", "12", "--train-sessions", "4",
            "--eval-speakers", "6", "--eval-sessions", "3",
            "--rank", "8", "--tv-iters", "5", "--k", "3", "--dim", "6",
        ]
    )
    synth, *rest = run_synthetic_pipeline.stages(args)
    for argv in [[*synth, "--components", "8", "--dim", "4"], *rest]:
        run_ok(argv)
    return ws


@pytest.fixture(scope="module")
def audio_ws(tmp_path_factory):
    """A tiny audio corpus taken to sufficient statistics."""
    ws = tmp_path_factory.mktemp("audio_ws")
    run_ok(
        [
            "synth", "--mode", "audio", "--out-dir", ws, "--seed", "3",
            "--train-speakers", "2", "--train-sessions", "2",
            "--eval-speakers", "2", "--eval-sessions", "2",
        ]
    )
    cfg = ws / "config.ini"
    cfg.write_text(
        "[ubm]\nnum_components = 4\niters_per_level = 2\ntop_n = 4\n"
        "[tv]\nrank = 4\niters = 2\n"
    )
    run_ok(
        [
            "extract-features", "--config", cfg, "--manifest", ws / "train.manifest",
            "--out-dir", ws / "feats",
        ]
    )
    run_ok(
        [
            "train-ubm", "--config", cfg, "--features", ws / "feats",
            "--manifest", ws / "train.manifest", "--out", ws / "ubm.ivgm",
        ]
    )
    run_ok(
        [
            "accumulate-stats", "--config", cfg, "--features", ws / "feats",
            "--manifest", ws / "train.manifest", "--ubm", ws / "ubm.ivgm",
            "--out", ws / "train.ivbw", "--top-n", "2",
        ]
    )
    return ws


@pytest.fixture(scope="module")
def demo_ws(tmp_path_factory):
    """The recipe of scripts/mask_override_demo.py, taken to scores."""
    ws = tmp_path_factory.mktemp("demo_ws")
    *to_scores, report = mask_override_demo.stages(
        mask_override_demo.parse_args(["--workspace", str(ws)])
    )
    assert report[0] == "sad-report"
    for argv in to_scores:
        run_ok(argv)
    return ws


def demo_argv(ws, out):
    """Arguments of each model-consuming command on the demo workspace,
    with every output under `out`."""
    cfg = ["--config", ws / "config.ini"]
    return {
        "accumulate-stats": [
            *cfg, "--features", ws / "feats", "--manifest", ws / "enroll.manifest",
            "--ubm", ws / "ubm.ivgm", "--out", out / "enroll.ivbw",
        ],
        "train-tv": [
            "--stats", ws / "train.ivbw", "--ubm", ws / "ubm.ivgm",
            "--out", out / "tv.ivtv", "--rank", "8", "--iters", "1",
        ],
        "extract-ivectors": [
            "--stats", ws / "enroll.ivbw", "--ubm", ws / "ubm.ivgm",
            "--tv", ws / "tv.ivtv", "--out", out / "enroll.iviv",
        ],
        "train-plda": [
            "--ivectors", ws / "train.iviv", "--manifest", ws / "train.manifest",
            "--projection", ws / "proj.ivda", "--out", out / "plda.ivpl",
            "--normalizer-out", out / "norm.ivnz",
        ],
        "score": [
            "--enroll", ws / "enroll.iviv", "--test", ws / "test.iviv",
            "--trials", ws / "trials.txt", "--projection", ws / "proj.ivda",
            "--normalizer", ws / "norm.ivnz", "--plda", ws / "plda.ivpl",
            "--out", out / "scores.txt",
        ],
        "sad-report": [
            *cfg, "--scores", ws / "scores.txt", "--manifest", ws / "override.manifest",
            "--trials", ws / "trials.txt", "--key", ws / "key.txt",
            "--ubm", ws / "ubm.ivgm", "--tv", ws / "tv.ivtv",
            "--projection", ws / "proj.ivda", "--normalizer", ws / "norm.ivnz",
            "--plda", ws / "plda.ivpl", "--out-csv", out / "sad.csv",
            "--out-scores", out / "rescored.txt",
        ],
    }


def write_audio_posteriors(ws, post_dir, rng, splits=("train",)):
    """Random 4-component posteriors, two entries per speech frame, as one
    ``<id>.post`` file per recording of `ws`'s `splits`; returns them by id."""
    post_dir.mkdir()
    posteriors = {}
    entries = [e for split in splits for e in fileio.read_manifest(ws / f"{split}.manifest")]
    for entry in entries:
        features, _, _ = fileio.read_feature_record(
            fileio.feature_path(ws / "feats", entry.recording_id)
        )
        post = sparse_random_posteriors(
            rng, int(features.speech_mask.sum()), g=4, per_frame=2
        )
        ubm.write_posteriors(post_dir / f"{entry.recording_id}.post", post)
        posteriors[entry.recording_id] = post
    return posteriors


# --- stats-level recipe ----------------------------------------------------


class TestStatsRecipe:
    def test_artifacts_exist(self, stats_ws):
        for name in (
            "ubm.ivgm", "tv.ivtv", "train.iviv", "enroll.iviv", "test.iviv",
            "proj.ivda", "norm.ivnz", "plda.ivpl", "scores.txt",
        ):
            assert (stats_ws / name).exists(), name

    def test_every_trial_scored(self, stats_ws):
        trials = fileio.read_trials(stats_ws / "trials.txt")
        scores = fileio.read_scores(stats_ws / "scores.txt")
        assert scores.enroll == trials.enroll and scores.test == trials.test
        assert len(scores) == 6 * 12

    def test_projection_matches_requested_settings(self, stats_ws):
        proj, _, meta = fileio.read_projection(stats_ws / "proj.ivda")
        assert meta["stage"] == "da"
        assert meta["config"] == {
            "method": "nda", "k": 3, "alpha": 2.0, "dim": 6, "all_pairs": False
        }
        assert proj.input_dim == 8 and proj.output_dim == 6

    def test_scoring_rerun_is_byte_identical(self, stats_ws):
        run_ok(
            [
                "score", "--enroll", stats_ws / "enroll.iviv",
                "--test", stats_ws / "test.iviv", "--trials", stats_ws / "trials.txt",
                "--projection", stats_ws / "proj.ivda",
                "--normalizer", stats_ws / "norm.ivnz",
                "--plda", stats_ws / "plda.ivpl", "--out", stats_ws / "scores2.txt",
            ]
        )
        assert (stats_ws / "scores2.txt").read_bytes() == (
            stats_ws / "scores.txt"
        ).read_bytes()

    def test_tv_training_is_deterministic(self, stats_ws):
        run_ok(
            [
                "train-tv", "--stats", stats_ws / "train.ivbw",
                "--ubm", stats_ws / "ubm.ivgm", "--out", stats_ws / "tv_rerun.ivtv",
                "--rank", "8", "--iters", "5", "--seed", "5",
            ]
        )
        assert (stats_ws / "tv_rerun.ivtv").read_bytes() == (
            stats_ws / "tv.ivtv"
        ).read_bytes()

    def test_label_filter_restricts_training(self, stats_ws, tmp_path):
        run_ok(
            [
                "train-da", "--ivectors", stats_ws / "train.iviv",
                "--manifest", stats_ws / "train.manifest",
                "--out", tmp_path / "lda.ivda", "--method", "lda", "--dim", "4",
                "--label-filter", "spk000[1-6]$",
            ]
        )
        proj, _, meta = fileio.read_projection(tmp_path / "lda.ivda")
        assert proj.output_dim == 4
        assert meta["config"]["method"] == "lda" and meta["config"]["all_pairs"] is False
        assert meta["config"]["label_filter"] == "spk000[1-6]$"

    def test_label_filter_matching_nothing(self, stats_ws, tmp_path, capsys):
        rc = main(
            [
                "train-da", "--ivectors", str(stats_ws / "train.iviv"),
                "--manifest", str(stats_ws / "train.manifest"),
                "--out", str(tmp_path / "x.ivda"), "--method", "lda", "--dim", "4",
                "--label-filter", "nomatch",
            ]
        )
        assert rc == EXIT_DATA
        assert "label filter" in capsys.readouterr().err

    def test_label_filter_is_in_the_provenance(self, stats_ws, tmp_path, capsys):
        # A projection trained on fewer speakers is another projection: the
        # normalizer and PLDA trained on the unfiltered one must not score it.
        run_ok(
            [
                "train-da", "--ivectors", stats_ws / "train.iviv",
                "--manifest", stats_ws / "train.manifest", "--out", tmp_path / "proj.ivda",
                "--method", "nda", "--k", "3", "--dim", "6",
                "--label-filter", "spk000[1-9]$",
            ]
        )
        _, _, meta = fileio.read_projection(tmp_path / "proj.ivda")
        assert meta["config"]["label_filter"] == "spk000[1-9]$"
        _, _, meta = fileio.read_projection(stats_ws / "proj.ivda")
        assert "label_filter" not in meta["config"]
        rc = main(
            [
                "score", "--enroll", str(stats_ws / "enroll.iviv"),
                "--test", str(stats_ws / "test.iviv"), "--trials", str(stats_ws / "trials.txt"),
                "--projection", str(tmp_path / "proj.ivda"),
                "--normalizer", str(stats_ws / "norm.ivnz"),
                "--plda", str(stats_ws / "plda.ivpl"), "--out", str(tmp_path / "scores.txt"),
            ]
        )
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"{stats_ws / 'norm.ivnz'}: records projection fingerprint" in err
        assert not (tmp_path / "scores.txt").exists()

    def test_label_filter_bad_pattern(self, stats_ws, tmp_path, capsys):
        rc = main(
            [
                "train-da", "--ivectors", str(stats_ws / "train.iviv"),
                "--manifest", str(stats_ws / "train.manifest"),
                "--out", str(tmp_path / "x.ivda"), "--label-filter", "(",
            ]
        )
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: label filter '(' is not a valid pattern: ")
        assert not (tmp_path / "x.ivda").exists()

    def test_unknown_trial_ids_reported(self, stats_ws, tmp_path, capsys):
        trials = fileio.read_trials(stats_ws / "trials.txt")
        bad_trials = tmp_path / "trials.txt"
        fileio.write_trials(
            bad_trials,
            fileio.Trials(trials.enroll[:3] + ["ghost"], trials.test[:3] + [trials.test[0]]),
        )
        rc = main(
            [
                "score", "--enroll", str(stats_ws / "enroll.iviv"),
                "--test", str(stats_ws / "test.iviv"), "--trials", str(bad_trials),
                "--projection", str(stats_ws / "proj.ivda"),
                "--normalizer", str(stats_ws / "norm.ivnz"),
                "--plda", str(stats_ws / "plda.ivpl"),
                "--out", str(tmp_path / "scores.txt"),
            ]
        )
        assert rc == EXIT_DATA
        assert "ghost" in capsys.readouterr().err
        assert len(fileio.read_scores(tmp_path / "scores.txt")) == 3

    @pytest.mark.parametrize("recorded_rank", ["R", "zero"])
    def test_empty_enroll_archive_skips_every_trial(
        self, stats_ws, tmp_path, capsys, recorded_rank
    ):
        """An enroll archive without i-vectors leaves every trial unknown,
        whether it records the rank R of its (0, R) array or R = 0."""
        (_, vectors), fp, meta = fileio.read_ivector_archive(stats_ws / "enroll.iviv")
        empty = tmp_path / "enroll.iviv"
        fileio.write_ivector_archive(empty, ([], vectors[:0]), fp, meta)
        if recorded_rank == "zero":
            data = bytearray(empty.read_bytes())
            assert struct.unpack_from("<II", data, len(data) - 8) == (0, vectors.shape[1])
            struct.pack_into("<I", data, len(data) - 4, 0)
            empty.write_bytes(bytes(data))
            assert fileio.read_ivector_archive(empty)[0][1].shape == (0, 0)
        rc = main(
            [
                "score", "--enroll", str(empty),
                "--test", str(stats_ws / "test.iviv"), "--trials", str(stats_ws / "trials.txt"),
                "--projection", str(stats_ws / "proj.ivda"),
                "--normalizer", str(stats_ws / "norm.ivnz"),
                "--plda", str(stats_ws / "plda.ivpl"),
                "--out", str(tmp_path / "scores.txt"),
            ]
        )
        assert rc == EXIT_DATA
        num_trials = len(fileio.read_trials(stats_ws / "trials.txt"))
        assert f"\n{num_trials} trial(s) skipped" in capsys.readouterr().err
        assert len(fileio.read_scores(tmp_path / "scores.txt")) == 0

    def test_duplicate_trial_is_a_data_error(self, stats_ws, tmp_path, capsys):
        lines = (stats_ws / "trials.txt").read_text().splitlines()
        dup_trials = tmp_path / "trials.txt"
        dup_trials.write_text("\n".join(lines[:5] + [lines[2]]) + "\n")
        rc = main(
            [
                "score", "--enroll", str(stats_ws / "enroll.iviv"),
                "--test", str(stats_ws / "test.iviv"), "--trials", str(dup_trials),
                "--projection", str(stats_ws / "proj.ivda"),
                "--normalizer", str(stats_ws / "norm.ivnz"),
                "--plda", str(stats_ws / "plda.ivpl"),
                "--out", str(tmp_path / "scores.txt"),
            ]
        )
        assert rc == EXIT_DATA
        assert ":6: duplicate trial" in capsys.readouterr().err
        assert not (tmp_path / "scores.txt").exists()


class TestEvaluate:
    def test_report_format(self, stats_ws, capsys):
        run_ok(["evaluate", "--scores", stats_ws / "scores.txt", "--key", stats_ws / "key.txt"])
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "trials: 72 (12 target, 60 nontarget)"
        assert lines[1].startswith("eer: ") and "% at threshold " in lines[1]
        assert lines[2].startswith("min_dcf[sre08]: ")
        assert lines[3].startswith("min_dcf[sre10]: ")
        eer = float(lines[1].split()[1].rstrip("%"))
        assert 0.0 <= eer <= 100.0

    def test_single_preset(self, stats_ws, capsys):
        run_ok(
            [
                "evaluate", "--scores", stats_ws / "scores.txt",
                "--key", stats_ws / "key.txt", "--dcf-preset", "sre10",
            ]
        )
        out = capsys.readouterr().out
        assert "min_dcf[sre10]" in out and "min_dcf[sre08]" not in out

    def test_custom_preset(self, stats_ws, capsys):
        run_ok(
            [
                "evaluate", "--scores", stats_ws / "scores.txt",
                "--key", stats_ws / "key.txt", "--dcf-preset", "custom",
                "--p-target", "0.05", "--c-miss", "5", "--c-fa", "1",
            ]
        )
        assert "min_dcf[custom]" in capsys.readouterr().out

    def test_custom_preset_requires_parameters(self, stats_ws, capsys):
        rc = main(
            [
                "evaluate", "--scores", str(stats_ws / "scores.txt"),
                "--key", str(stats_ws / "key.txt"), "--dcf-preset", "custom",
                "--p-target", "0.05",
            ]
        )
        assert rc == EXIT_USAGE
        assert "--c-miss" in capsys.readouterr().err

    def test_custom_parameters_without_custom_preset(self, stats_ws, capsys):
        rc = main(
            [
                "evaluate", "--scores", str(stats_ws / "scores.txt"),
                "--key", str(stats_ws / "key.txt"), "--p-target", "0.5", "--c-miss", "3",
            ]
        )
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "evaluate uses --p-target, --c-miss only with --dcf-preset custom" in err

    def test_printed_threshold_accepts_the_same_trials(self, tmp_path, capsys):
        """The reject-all threshold is nextafter(3.0); printed as "3" it would
        accept the top (non-target) trial, at an sre08 cost of 4.3."""
        scores = np.array([0.0, 1.0, 2.0, 3.0, 1.0])
        targets = np.array([True, False, True, False, False])
        (tmp_path / "scores.txt").write_text(
            "".join(f"e{i} t{i} {s:g}\n" for i, s in enumerate(scores))
        )
        (tmp_path / "key.txt").write_text(
            "".join(f"e{i} t{i} {'target' if t else 'nontarget'}\n" for i, t in enumerate(targets))
        )
        run_ok(["evaluate", "--scores", tmp_path / "scores.txt", "--key", tmp_path / "key.txt"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "eer: 50.0000% at threshold 1.75"
        threshold = float(lines[2].split()[-1])
        assert threshold == np.nextafter(3.0, np.inf)
        accepted = scores >= threshold
        cost = metrics.compute_dcf(
            np.mean(~accepted[targets]), np.mean(accepted[~targets]), metrics.DCF_PRESETS["sre08"]
        )
        assert cost == 1.0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_is_a_data_error(self, tmp_path, capsys, bad):
        """Named with its file and the first such trial; a second one
        (e3, t3) is not the one reported."""
        scores, key = tmp_path / "scores.txt", tmp_path / "key.txt"
        scores.write_text(f"e0 t0 0.5\ne1 t1 {bad}\ne2 t2 1.5\ne3 t3 nan\n")
        key.write_text("e0 t0 target\ne1 t1 nontarget\ne2 t2 target\ne3 t3 nontarget\n")
        rc = main(["evaluate", "--scores", str(scores), "--key", str(key)])
        assert rc == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {scores}: trial (e1, t1) has a non-finite score {float(bad)}\n"

    def test_det_outputs(self, stats_ws, tmp_path):
        run_ok(
            [
                "evaluate", "--scores", stats_ws / "scores.txt",
                "--key", stats_ws / "key.txt",
                "--det-csv", tmp_path / "det.csv", "--det-svg", tmp_path / "det.svg",
            ]
        )
        csv_lines = (tmp_path / "det.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "p_fa,p_miss"
        assert len(csv_lines) > 2
        assert (tmp_path / "det.svg").read_text().startswith("<svg")

    def test_threshold_sweep_built_once(self, stats_ws, tmp_path, monkeypatch):
        """EER, both minDCF presets and both DET exports share one sweep."""
        calls = []
        build = metrics._operating_points
        monkeypatch.setattr(
            metrics, "_operating_points", lambda trials: calls.append(1) or build(trials)
        )
        run_ok(
            [
                "evaluate", "--scores", stats_ws / "scores.txt",
                "--key", stats_ws / "key.txt",
                "--det-csv", tmp_path / "det.csv", "--det-svg", tmp_path / "det.svg",
            ]
        )
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["scores.txt", "key.txt"])
    def test_duplicate_trial_is_a_data_error(self, stats_ws, tmp_path, capsys, name):
        inputs = {"scores.txt": stats_ws / "scores.txt", "key.txt": stats_ws / "key.txt"}
        lines = inputs[name].read_text().splitlines()
        inputs[name] = tmp_path / name
        inputs[name].write_text("\n".join(lines + [lines[0]]) + "\n")
        rc = main(
            ["evaluate", "--scores", str(inputs["scores.txt"]), "--key", str(inputs["key.txt"])]
        )
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f":{len(lines) + 1}: duplicate trial" in err
        assert "first listed on line 1" in err


def test_nda_vs_lda_variant_matches_the_cli_recipe(tmp_path, capsys):
    """scripts/nda_vs_lda.py's per-variant run reports, at the printed
    digits, the EER and minDCF that ``evaluate`` prints after the CLI's
    ``train-da``, ``train-plda`` and ``score`` on the same corpus and config
    (the back-end commands of scripts/run_synthetic_pipeline.py)."""
    ws = tmp_path
    run_ok(
        [
            "synth", "--mode", "ivectors", "--out-dir", ws, "--seed", "7",
            "--train-speakers", "30", "--train-sessions", "6",
            "--eval-speakers", "10", "--eval-sessions", "3", "--dim", "10",
        ]
    )
    da_flags = ["--k", "4", "--alpha", "1.5", "--dim", "6"]
    cfg = nda_vs_lda.variants(nda_vs_lda.parse_args(da_flags))["nda"]
    eer, min_dcf, _ = nda_vs_lda.run_variant(ws, cfg)
    recipe = run_synthetic_pipeline.stages(
        run_synthetic_pipeline.parse_args(["--workspace", str(ws), *da_flags])
    )
    backend = recipe[-4:]
    assert [argv[0] for argv in backend] == ["train-da", "train-plda", "score", "evaluate"]
    for argv in backend[:-1]:
        run_ok(argv)
    assert fileio.read_projection(ws / "proj.ivda")[2]["config"] == dataclasses.asdict(cfg.da)
    assert fileio.read_plda(ws / "plda.ivpl")[2]["config"] == dataclasses.asdict(cfg.plda)
    capsys.readouterr()
    run_ok(backend[-1])
    lines = capsys.readouterr().out.splitlines()
    assert eer > 0.0
    assert lines[1].startswith(f"eer: {100.0 * eer:.4f}% at threshold ")
    assert lines[3].startswith(f"min_dcf[sre10]: {min_dcf:.4f} at threshold ")


def test_nda_vs_lda_corpus_is_the_cli_synth_corpus(tmp_path):
    """scripts/nda_vs_lda.py writes a seed's corpus, provenance headers
    included, byte for byte as ``ivnda synth --mode ivectors`` does with the
    same settings."""
    sizes = ["--train-speakers", "6", "--train-sessions", "3",
             "--eval-speakers", "3", "--eval-sessions", "2"]
    args = nda_vs_lda.parse_args([*sizes, "--ivector-dim", "5", "--unimodal"])
    nda_vs_lda.write_corpus(tmp_path / "script", 11, args)
    run_ok(["synth", "--mode", "ivectors", "--out-dir", tmp_path / "cli", "--seed", "11",
            *sizes, "--dim", "5", "--unimodal"])
    assert tree_bytes(tmp_path / "script") == tree_bytes(tmp_path / "cli")


# --- audio-level steps -----------------------------------------------------


class TestAudioRecipe:
    def test_features_written_per_recording(self, audio_ws):
        manifest = fileio.read_manifest(audio_ws / "train.manifest")
        for entry in manifest:
            assert (audio_ws / "feats" / f"{entry.recording_id}.ivfa").exists()

    def test_feature_contents(self, audio_ws):
        manifest = fileio.read_manifest(audio_ws / "train.manifest")
        features, _, meta = fileio.read_feature_record(
            audio_ws / "feats" / f"{manifest[0].recording_id}.ivfa"
        )
        assert features.frames.shape[1] == 39  # 13 cepstra + deltas + doubles
        assert features.speech_mask.any() and not features.speech_mask.all()
        assert meta["stage"] == "features"

    def test_trained_ubm_shape(self, audio_ws):
        gmm, _, meta = fileio.read_gmm(audio_ws / "ubm.ivgm")
        assert gmm.num_components == 4
        assert gmm.dim == 39
        assert meta["config"]["num_components"] == 4

    def test_stats_cover_manifest(self, audio_ws):
        stats, _, _ = fileio.read_stats_archive(audio_ws / "train.ivbw")
        manifest = fileio.read_manifest(audio_ws / "train.manifest")
        assert [s.recording_id for s in stats] == [e.recording_id for e in manifest]
        for s in stats:
            assert s.num_components == 4
            assert s.n.sum() > 0.0

    def test_mask_override_files(self, audio_ws):
        masks = sorted((audio_ws / "masks").glob("*.sad"))
        assert len(masks) == 1
        override = fileio.read_manifest(audio_ws / "override.manifest")
        with_sad = [e for e in override if e.sad_path]
        assert len(with_sad) == 1
        assert with_sad[0].sad_path == f"masks/{masks[0].stem}.sad"

    def test_parallel_extraction_matches_serial(self, audio_ws, tmp_path):
        cfg = audio_ws / "config.ini"
        run_ok(
            [
                "extract-features", "--config", cfg,
                "--manifest", audio_ws / "train.manifest",
                "--out-dir", tmp_path / "feats2", "--workers", "2",
            ]
        )
        for entry in fileio.read_manifest(audio_ws / "train.manifest"):
            name = f"{entry.recording_id}.ivfa"
            assert (tmp_path / "feats2" / name).read_bytes() == (
                audio_ws / "feats" / name
            ).read_bytes()

    def test_non_finite_features_are_numeric_errors(self, audio_ws, tmp_path, capsys):
        manifest = fileio.read_manifest(audio_ws / "train.manifest")
        feat_dir = tmp_path / "feats"
        feat_dir.mkdir()
        for i, entry in enumerate(manifest):
            path = fileio.feature_path(audio_ws / "feats", entry.recording_id)
            features, fp, meta = fileio.read_feature_record(path)
            if i == 0:
                features.frames[np.flatnonzero(features.speech_mask)[0], 4] = np.nan
            fileio.write_feature_record(
                fileio.feature_path(feat_dir, entry.recording_id), features, fp, meta
            )
        rc = main(
            [
                "train-ubm", "--config", str(audio_ws / "config.ini"),
                "--features", str(feat_dir), "--manifest", str(audio_ws / "train.manifest"),
                "--out", str(tmp_path / "ubm.ivgm"),
            ]
        )
        assert rc == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "ubm.ivgm").exists()

    def test_non_finite_speech_frame_stops_stats(self, audio_ws, tmp_path, capsys):
        manifest = fileio.read_manifest(audio_ws / "train.manifest")
        feat_dir = tmp_path / "feats"
        feat_dir.mkdir()
        bad_id = manifest[1].recording_id
        for entry in manifest:
            path = fileio.feature_path(audio_ws / "feats", entry.recording_id)
            features, fp, meta = fileio.read_feature_record(path)
            if entry.recording_id == bad_id:
                features.frames[np.flatnonzero(features.speech_mask)[3], 0] = np.nan
            fileio.write_feature_record(
                fileio.feature_path(feat_dir, entry.recording_id), features, fp, meta
            )
        rc = main(
            [
                "accumulate-stats", "--config", str(audio_ws / "config.ini"),
                "--features", str(feat_dir), "--manifest", str(audio_ws / "train.manifest"),
                "--ubm", str(audio_ws / "ubm.ivgm"), "--out", str(tmp_path / "train.ivbw"),
            ]
        )
        assert rc == EXIT_NUMERIC
        assert bad_id in capsys.readouterr().err
        assert not (tmp_path / "train.ivbw").exists()

    def test_train_ubm_from_posteriors(self, audio_ws, tmp_path, rng):
        posteriors = write_audio_posteriors(audio_ws, tmp_path / "post", rng)
        run_ok(
            [
                "train-ubm", "--config", audio_ws / "config.ini",
                "--features", audio_ws / "feats",
                "--manifest", audio_ws / "train.manifest",
                "--posteriors", tmp_path / "post", "--out", tmp_path / "subm.ivgm",
            ]
        )
        gmm, _, meta = fileio.read_gmm(tmp_path / "subm.ivgm")
        assert gmm.num_components == 4 and gmm.dim == 39
        # the files' content, in manifest order, is part of the fingerprint
        per_file = b"".join(
            hashlib.blake2b((tmp_path / "post" / f"{rec_id}.post").read_bytes(), digest_size=16)
            .digest()
            for rec_id in posteriors
        )
        assert meta["config"] == {
            "num_components": 4, "variance_floor_scale": 1e-3, "external_posteriors": True,
            "posteriors_digest": hashlib.blake2b(per_file, digest_size=16).hexdigest(),
        }
        records = [
            fileio.read_feature_record(audio_ws / "feats" / f"{rec_id}.ivfa")[0]
            for rec_id in posteriors
        ]
        want = ubm.train_supervised_gaussians(records, list(posteriors.values()), 4)
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(gmm, name), getattr(want, name)), name

    def test_accumulate_stats_from_posteriors(self, audio_ws, tmp_path, rng):
        posteriors = write_audio_posteriors(audio_ws, tmp_path / "post", rng)
        run_ok(
            [
                "accumulate-stats", "--config", audio_ws / "config.ini",
                "--features", audio_ws / "feats",
                "--manifest", audio_ws / "train.manifest", "--ubm", audio_ws / "ubm.ivgm",
                "--posteriors", tmp_path / "post", "--out", tmp_path / "train.ivbw",
            ]
        )
        archive, _, meta = fileio.read_stats_archive(tmp_path / "train.ivbw")
        # the posterior files are not recorded, so every split has this subset
        assert meta["config"] == {"top_n": 4, "external_posteriors": True}
        assert [s.recording_id for s in archive] == list(posteriors)
        for got, (rec_id, post) in zip(archive, posteriors.items()):
            features, _, _ = fileio.read_feature_record(audio_ws / "feats" / f"{rec_id}.ivfa")
            want = stats_mod.accumulate_bw(features, post, recording_id=rec_id)
            assert np.array_equal(got.n, want.n) and np.array_equal(got.f, want.f), rec_id

    def test_recipe_from_posteriors_scores_every_split(self, demo_ws, tmp_path, rng):
        """Statistics aligned by external posteriors carry one fingerprint in
        every split, so the TV model trained on train extracts enroll and test."""
        splits = ("train", "enroll", "test")
        write_audio_posteriors(demo_ws, tmp_path / "post", rng, splits)
        cfg = tmp_path / "config.ini"
        cfg.write_text("[ubm]\nnum_components = 4\n")
        inputs = ["--config", cfg, "--features", demo_ws / "feats"]
        ubm_path, tv_path = tmp_path / "ubm.ivgm", tmp_path / "tv.ivtv"
        train = ["--ivectors", tmp_path / "train.iviv", "--manifest", demo_ws / "train.manifest"]
        recipe = [
            [
                "train-ubm", *inputs, "--manifest", demo_ws / "train.manifest",
                "--posteriors", tmp_path / "post", "--out", ubm_path,
            ],
            *(
                [
                    "accumulate-stats", *inputs, "--manifest", demo_ws / f"{split}.manifest",
                    "--ubm", ubm_path, "--posteriors", tmp_path / "post",
                    "--out", tmp_path / f"{split}.ivbw",
                ]
                for split in splits
            ),
            [
                "train-tv", "--stats", tmp_path / "train.ivbw", "--ubm", ubm_path,
                "--out", tv_path, "--rank", "4", "--iters", "2",
            ],
            *(
                [
                    "extract-ivectors", "--stats", tmp_path / f"{split}.ivbw", "--ubm", ubm_path,
                    "--tv", tv_path, "--out", tmp_path / f"{split}.iviv",
                ]
                for split in splits
            ),
            ["train-da", *train, "--out", tmp_path / "proj.ivda", "--method", "lda", "--dim", "2"],
            [
                "train-plda", *train, "--projection", tmp_path / "proj.ivda",
                "--out", tmp_path / "plda.ivpl", "--normalizer-out", tmp_path / "norm.ivnz",
            ],
            [
                "score", "--enroll", tmp_path / "enroll.iviv", "--test", tmp_path / "test.iviv",
                "--trials", demo_ws / "trials.txt", "--projection", tmp_path / "proj.ivda",
                "--normalizer", tmp_path / "norm.ivnz", "--plda", tmp_path / "plda.ivpl",
                "--out", tmp_path / "scores.txt",
            ],
            ["evaluate", "--scores", tmp_path / "scores.txt", "--key", demo_ws / "key.txt"],
        ]
        for argv in recipe:
            run_ok(argv)
        fps = {fileio.read_stats_archive(tmp_path / f"{split}.ivbw")[1] for split in splits}
        assert len(fps) == 1

    @pytest.mark.parametrize("command", ["train-ubm", "accumulate-stats"])
    def test_short_posterior_file_names_the_recording(
        self, audio_ws, tmp_path, rng, capsys, command
    ):
        posteriors = write_audio_posteriors(audio_ws, tmp_path / "post", rng)
        short = list(posteriors)[1]
        path = tmp_path / "post" / f"{short}.post"
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(rows[:-1]))
        argv = [
            command, "--config", audio_ws / "config.ini", "--features", audio_ws / "feats",
            "--manifest", audio_ws / "train.manifest", "--posteriors", tmp_path / "post",
            "--out", tmp_path / "out",
        ]
        if command == "accumulate-stats":
            argv += ["--ubm", audio_ws / "ubm.ivgm"]
        assert main([str(a) for a in argv]) == EXIT_DATA
        assert (
            f"recording {short!r}: {len(rows)} speech frames vs {len(rows) - 1} posterior rows"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train-ubm", "accumulate-stats"])
    def test_missing_posterior_file(self, audio_ws, tmp_path, rng, capsys, monkeypatch, command):
        posteriors = write_audio_posteriors(audio_ws, tmp_path / "post", rng)
        missing = list(posteriors)[1]
        (tmp_path / "post" / f"{missing}.post").unlink()
        ran = []
        for name in ("load_external_posteriors", "train_supervised_gaussians", "gmm_posteriors"):
            monkeypatch.setattr(ubm, name, lambda *args, **kwargs: ran.append(args))
        monkeypatch.setattr(stats_mod, "accumulate_bw", lambda *args, **kwargs: ran.append(args))
        argv = [
            command, "--config", audio_ws / "config.ini", "--features", audio_ws / "feats",
            "--manifest", audio_ws / "train.manifest", "--posteriors", tmp_path / "post",
            "--out", tmp_path / "out",
        ]
        if command == "accumulate-stats":
            argv += ["--ubm", audio_ws / "ubm.ivgm"]
        rc = main([str(a) for a in argv])
        assert rc == EXIT_DATA
        assert (
            f"error: no posterior file for recording {missing!r} in {tmp_path / 'post'}"
            in capsys.readouterr().err
        )
        assert ran == [] and not (tmp_path / "out").exists()

    def test_extract_failures_are_isolated(self, audio_ws, tmp_path, capsys):
        manifest = fileio.read_manifest(audio_ws / "train.manifest")
        lines = [
            f"good {audio_ws}/wav/{manifest[0].recording_id}.wav",
            f"bad {audio_ws}/wav/does_not_exist.wav",
        ]
        bad_manifest = tmp_path / "mixed.manifest"
        bad_manifest.write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "extract-features", "--manifest", str(bad_manifest),
                "--out-dir", str(tmp_path / "feats"),
            ]
        )
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "bad" in err and "1 recording(s) failed" in err
        assert (tmp_path / "feats" / "good.ivfa").exists()
        assert not (tmp_path / "feats" / "bad.ivfa").exists()

    def test_fmllr_column_transforms_frames(self, audio_ws, tmp_path, capsys):
        ids = [e.recording_id for e in fileio.read_manifest(audio_ws / "train.manifest")[:3]]
        wavs = [f"{audio_ws}/wav/{rec}.wav" for rec in ids]
        rng = np.random.default_rng(7)
        dim = 39
        a = np.diag(rng.uniform(0.5, 2.0, dim))[rng.permutation(dim)]
        b = rng.normal(size=dim)
        rows = np.hstack([a, b[:, None]])
        (tmp_path / "xf.fmllr").write_text(
            f"{dim}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in rows.tolist())
        )
        (tmp_path / "plain.manifest").write_text(
            "".join(f"{rec} {wav}\n" for rec, wav in zip(ids, wavs))
        )
        # Transform paths resolve against the manifest's directory.
        (tmp_path / "fmllr.manifest").write_text(
            f"{ids[0]} {wavs[0]} - xf.fmllr\n"
            f"{ids[1]} {wavs[1]} - absent.fmllr\n"
            f"{ids[2]} {wavs[2]}\n"
        )
        run_ok(
            [
                "extract-features", "--manifest", tmp_path / "plain.manifest",
                "--out-dir", tmp_path / "plain",
            ]
        )
        rc = main(
            [
                "extract-features", "--manifest", str(tmp_path / "fmllr.manifest"),
                "--out-dir", str(tmp_path / "fmllr"),
            ]
        )
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert ids[1] in err and "1 recording(s) failed" in err
        assert not fileio.feature_path(tmp_path / "fmllr", ids[1]).exists()

        plain, _, plain_meta = fileio.read_feature_record(
            fileio.feature_path(tmp_path / "plain", ids[0])
        )
        moved, _, meta = fileio.read_feature_record(
            fileio.feature_path(tmp_path / "fmllr", ids[0])
        )
        assert meta["chain"] == [*plain_meta["chain"], "fmllr"]
        assert plain_meta["chain"][-1] != "fmllr"
        expected = plain.frames @ a.T + b
        # Both records hold float32 frames: one rounding of x, one of A x + b.
        eps = np.finfo(np.float32).eps
        tol = eps * (np.abs(a).max() * np.abs(plain.frames).max() + np.abs(expected).max())
        np.testing.assert_allclose(moved.frames, expected, rtol=0, atol=tol)
        np.testing.assert_array_equal(moved.speech_mask, plain.speech_mask)
        untouched, _, _ = fileio.read_feature_record(
            fileio.feature_path(tmp_path / "fmllr", ids[2])
        )
        np.testing.assert_array_equal(
            untouched.frames,
            fileio.read_feature_record(fileio.feature_path(tmp_path / "plain", ids[2]))[0].frames,
        )


# --- defaults and exit codes -----------------------------------------------


class TestSadReportInputs:
    """Trial checks that run before any model is read."""

    @pytest.mark.parametrize(
        "scores,key,message",
        [
            ("e1 r2 0.5\n", "e1 r1 target\ne1 r2 nontarget\n",
             "trial ('e1', 'r1') is affected by an override but missing from the original scores"),
            ("e1 r1 0.5\ne1 r2 0.5\n", "e1 r2 nontarget\n",
             "trial ('e1', 'r1') is missing from the key"),
            ("e1 r1 0.5\ne1 r2 0.5\n", "e1 r1 target\ne1 r2 nontarget\n",
             "trial ('r1', 'r3') is affected by an override but missing from the original scores"),
        ],
        ids=["not_scored", "not_in_key", "first_affected_trial"],
    )
    def test_missing_affected_trial(self, tmp_path, capsys, scores, key, message):
        files = {
            "override.manifest": "r1 r1.wav spk1 - masks/r1.sad\nr2 r2.wav spk2\n",
            "trials.txt": "e1 r1\ne1 r2\ne2 r2\nr1 r3\n",
            "scores.txt": scores + "e2 r2 0.25\n",
            "key.txt": key + "e2 r2 target\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        absent = str(tmp_path / "absent")
        rc = main(
            [
                "sad-report", "--scores", str(tmp_path / "scores.txt"),
                "--manifest", str(tmp_path / "override.manifest"),
                "--trials", str(tmp_path / "trials.txt"), "--key", str(tmp_path / "key.txt"),
                "--ubm", absent, "--tv", absent, "--projection", absent,
                "--normalizer", absent, "--plda", absent,
                "--out-csv", str(tmp_path / "sad.csv"),
            ]
        )
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sad.csv").exists()


_ARTIFACT_IO = {
    ".ivfa": (fileio.read_feature_record, fileio.write_feature_record),
    ".ivgm": (fileio.read_gmm, fileio.write_gmm),
    ".ivbw": (fileio.read_stats_archive, fileio.write_stats_archive),
    ".ivtv": (fileio.read_tv_model, fileio.write_tv_model),
    ".iviv": (fileio.read_ivector_archive, fileio.write_ivector_archive),
    ".ivda": (fileio.read_projection, fileio.write_projection),
    ".ivnz": (fileio.read_normalizer, fileio.write_normalizer),
    ".ivpl": (fileio.read_plda, fileio.write_plda),
}


def tamper(src, dst, upstream_key):
    """Copy an artifact, changing its recorded `upstream_key` fingerprint,
    or its own fingerprint when `upstream_key` is None."""
    read, write = _ARTIFACT_IO[src.suffix]
    obj, fp, meta = read(src)
    if upstream_key is None:
        fp ^= 1
    else:
        meta["upstream"][upstream_key] ^= 1
    write(dst, obj, fp, meta)


class TestProvenance:
    """Every upstream-fingerprint edge a command checks: one tampered input
    makes it a contract error naming that input, with nothing written."""

    @pytest.mark.parametrize(
        "command,flag,upstream_key",
        [
            ("accumulate-stats", "--features", None),
            ("accumulate-stats", "--ubm", "features"),
            ("train-tv", "--stats", "ubm"),
            ("extract-ivectors", "--stats", "ubm"),
            ("extract-ivectors", "--tv", "stats"),
            ("train-plda", "--projection", "ivectors"),
            ("score", "--test", None),
            ("score", "--projection", "ivectors"),
            ("score", "--normalizer", "projection"),
            ("score", "--plda", "projection"),
            ("sad-report", "--normalizer", "projection"),
            ("sad-report", "--plda", "projection"),
            ("sad-report", "--ubm", "features"),
            ("sad-report", "--tv", "stats"),
            ("sad-report", "--projection", "ivectors"),
        ],
    )
    def test_mismatch_is_contract_error(
        self, demo_ws, tmp_path, capsys, command, flag, upstream_key
    ):
        out = tmp_path / "out"
        out.mkdir()
        argv = demo_argv(demo_ws, out)[command]
        i = argv.index(flag) + 1
        if flag == "--features":
            # mixed feature records: one record of the directory differs
            bad_dir = tmp_path / "feats"
            shutil.copytree(demo_ws / "feats", bad_dir)
            second = fileio.read_manifest(demo_ws / "enroll.manifest")[1]
            bad = fileio.feature_path(bad_dir, second.recording_id)
            tamper(bad, bad, upstream_key)
            argv[i] = bad_dir
        else:
            bad = tmp_path / argv[i].name
            tamper(argv[i], bad, upstream_key)
            argv[i] = bad
        rc = main([command, *map(str, argv)])
        err = capsys.readouterr().err
        assert rc == EXIT_NUMERIC, err
        assert str(bad) in err and "(fingerprint mismatch)" in err
        assert not any(out.iterdir())

    def test_sad_report_checks_the_stats_configuration(
        self, demo_ws, tmp_path, capsys
    ):
        # The recipe aligned with top_n = 8; re-extracting with 4 would
        # compare i-vectors from a different chain.
        out = tmp_path / "out"
        out.mkdir()
        cfg = tmp_path / "top4.ini"
        cfg.write_text("[ubm]\nnum_components = 8\niters_per_level = 3\ntop_n = 4\n")
        argv = demo_argv(demo_ws, out)["sad-report"]
        argv[argv.index("--config") + 1] = cfg
        rc = main(["sad-report", *map(str, argv)])
        err = capsys.readouterr().err
        assert rc == EXIT_NUMERIC, err
        assert str(demo_ws / "tv.ivtv") in err
        assert not any(out.iterdir())


class TestSadReportRescoring:
    """sad-report re-scores the affected trials through the recipe's stages."""

    def test_unchanged_mask_reproduces_the_scores(self, demo_ws, tmp_path, capsys):
        # An override holding the detector's own mask changes nothing, so
        # every affected score must come back bit for bit.
        entries = [
            *fileio.read_manifest(demo_ws / "enroll.manifest"),
            *fileio.read_manifest(demo_ws / "test.manifest"),
        ]
        first = entries[0]
        audio = frontend.read_wav(demo_ws / first.audio_path)
        mask = frontend.detect_speech(
            audio, load_config(demo_ws / "config.ini").frontend
        )
        (tmp_path / "same.sad").write_text("".join(f"{int(m)}\n" for m in mask))
        fileio.write_manifest(
            tmp_path / "same.manifest",
            [
                dataclasses.replace(
                    e,
                    audio_path=str(demo_ws / e.audio_path),
                    sad_path=str(tmp_path / "same.sad") if e is first else "",
                )
                for e in entries
            ],
        )
        out = tmp_path / "out"
        out.mkdir()
        argv = demo_argv(demo_ws, out)["sad-report"]
        argv[argv.index("--manifest") + 1] = tmp_path / "same.manifest"
        run_ok(["sad-report", *argv])
        stdout = capsys.readouterr().out
        assert "target trials improved: 0\n" in stdout
        assert "nontarget trials decreased: 0\n" in stdout
        rows = (out / "sad.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            enroll_id, test_id, old_score, new_score, _ = row.split(",")
            assert first.recording_id in (enroll_id, test_id)
            assert old_score == new_score
        assert (out / "rescored.txt").read_bytes() == (
            demo_ws / "scores.txt"
        ).read_bytes()

    def test_override_outside_every_trial(self, demo_ws, tmp_path, capsys):
        (tmp_path / "other.manifest").write_text("nobody nobody.wav - - nobody.sad\n")
        out = tmp_path / "out"
        out.mkdir()
        argv = demo_argv(demo_ws, out)["sad-report"]
        argv[argv.index("--manifest") + 1] = tmp_path / "other.manifest"
        run_ok(["sad-report", *argv])
        assert "affected trials: 0\n" in capsys.readouterr().out
        header = "enroll_id,test_id,old_score,new_score,target\n"
        assert (out / "sad.csv").read_text() == header
        assert (out / "rescored.txt").read_bytes() == (
            demo_ws / "scores.txt"
        ).read_bytes()

    def test_failed_extraction_is_a_data_error(self, demo_ws, tmp_path, capsys):
        ws = tmp_path / "ws"
        shutil.copytree(demo_ws, ws)
        manifest = fileio.read_manifest(ws / "override.manifest")
        entries = {e.recording_id: e for e in manifest}
        trials = fileio.read_trials(ws / "trials.txt")
        # the clean side of a trial that touches the overridden recording
        rec_id = next(
            e for e, t in zip(trials.enroll, trials.test)
            if entries[t].sad_path and not entries[e].sad_path
        )
        (ws / entries[rec_id].audio_path).unlink()
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["sad-report", *map(str, demo_argv(ws, out)["sad-report"])])
        assert rc == EXIT_DATA
        assert rec_id in capsys.readouterr().err
        assert not (out / "sad.csv").exists()


class TestDefaults:
    def test_output_parses_back(self, tmp_path, capsys):
        run_ok(["defaults"])
        text = capsys.readouterr().out
        path = tmp_path / "defaults.ini"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg == PipelineConfig()
        assert cfg.ubm.num_components == 2048
        assert cfg.da.method == "nda"


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under `root`, by relative path."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


SMALL_SYNTH = ["--train-speakers", "4", "--train-sessions", "2",
               "--eval-speakers", "3", "--eval-sessions", "2"]
# The corpus parameters each vector mode records in its fingerprint, besides
# the mode and the seed.
VECTOR_MODES = {
    "ivectors": (synth.make_ivector_corpus, fileio.read_ivector_archive, "train.iviv",
                 ["num_train_speakers", "train_sessions", "num_eval_speakers", "eval_sessions",
                  "dim", "channel_std", "bimodal", "domain_offset"]),
    "stats": (synth.make_stats_corpus, fileio.read_stats_archive, "train.ivbw",
              ["num_train_speakers", "train_sessions", "num_eval_speakers", "eval_sessions",
               "num_components", "dim", "rank", "channel_std", "residual_scale", "bimodal",
               "domain_offset"]),
}


class TestSynth:
    @pytest.mark.parametrize("mode", list(VECTOR_MODES))
    def test_unset_flags_record_the_makers_defaults(self, tmp_path, mode):
        run_ok(["synth", "--mode", mode, "--out-dir", tmp_path])
        maker, read, archive, keys = VECTOR_MODES[mode]
        _, _, meta = read(tmp_path / archive)
        defaults = inspect.signature(maker).parameters
        assert meta["config"] == {
            "mode": mode, "seed": 0, **{key: defaults[key].default for key in keys}
        }

    def test_unset_flags_give_the_audio_makers_defaults(self, tmp_path):
        run_ok(["synth", "--mode", "audio", "--out-dir", tmp_path / "cli"])
        pipeline.write_audio_corpus(synth.make_audio_corpus(0), tmp_path / "maker")
        assert tree_bytes(tmp_path / "cli") == tree_bytes(tmp_path / "maker")

    @pytest.mark.parametrize("mode", list(VECTOR_MODES))
    @pytest.mark.parametrize("flag, bimodal", [("--bimodal", True), ("--unimodal", False)])
    def test_modality_flags_set_bimodal(self, tmp_path, mode, flag, bimodal):
        run_ok(["synth", "--mode", mode, "--out-dir", tmp_path, *SMALL_SYNTH, flag])
        _, read, archive, _ = VECTOR_MODES[mode]
        assert read(tmp_path / archive)[2]["config"]["bimodal"] is bimodal

    @pytest.mark.parametrize(
        "mode, flags",
        [
            ("stats", ["--seed", "5", "--components", "8", "--dim", "4", "--rank", "8"]),
            ("ivectors", ["--seed", "5", "--dim", "6", "--unimodal"]),
            ("audio", ["--seed", "5", "--contaminate", "2"]),
        ],
        ids=["stats", "ivectors", "audio"],
    )
    def test_synth_rerun_is_byte_identical(self, tmp_path, mode, flags):
        for name in ("first", "again"):
            run_ok(["synth", "--mode", mode, "--out-dir", tmp_path / name, *SMALL_SYNTH, *flags])
        first = tree_bytes(tmp_path / "first")
        assert first and tree_bytes(tmp_path / "again") == first


def subcommands() -> list[str]:
    """Every subcommand `build_parser` lists, in order."""
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


@pytest.mark.parametrize("command", subcommands())
def test_every_subcommand_prints_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith(f"usage: ivnda {command} ")


def test_ci_runs_the_module_entry_point():
    # Each subcommand's help is checked above; CI runs `python -m ivnda.cli`.
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    assert "python -m ivnda.cli --help" in workflow.read_text()


# The scipy modules loaded by importing the modules named in argv.
_SCIPY_LOADED = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_scipy_loads_only_behind_tv():
    """Numerics outside TV's packed LAPACK kernels are numpy's, so these
    modules import no scipy at all, and the CLI (which imports tv) never
    loads scipy's FFT or special functions."""
    env = {**os.environ, "PYTHONPATH": str(Path(frontend.__file__).parents[1])}

    def scipy_loaded(*modules: str) -> list[str]:
        proc = subprocess.run([sys.executable, "-c", _SCIPY_LOADED, *modules], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return proc.stdout.split()

    assert scipy_loaded(*(f"ivnda.{m}" for m in (
        "frontend", "da", "backend", "stats", "ubm", "metrics", "config"))) == []
    cli = scipy_loaded("ivnda.cli")
    assert "scipy.linalg" in cli
    assert not [m for m in cli if m.startswith(("scipy.fft", "scipy.special"))]


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["defaults", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["score", "--enroll", "e", "--test", "t", "--trials", "tr",
             "--projection", "p", "--normalizer", "n", "--plda", "pl", "--out", "o"],
            ["extract-ivectors", "--stats", "s", "--ubm", "u", "--tv", "t",
             "--out", "o"],
        ],
        ids=["score", "extract-ivectors"],
    )
    def test_config_flag_is_usage_error(self, argv):
        # neither command reads a configuration
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", "x"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["train-tv", "--out", "x.ivtv"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_worker_count(self, tmp_path):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("")
        rc = main(
            [
                "extract-features", "--manifest", str(manifest),
                "--out-dir", str(tmp_path / "f"), "--workers", "0",
            ]
        )
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_worker_count_below_one_is_usage_error(self, tmp_path, capsys, workers, source):
        """The effective count is checked whether a flag or a config file set it."""
        manifest = tmp_path / "m.manifest"
        manifest.write_text("")
        argv = ["extract-features", "--manifest", str(manifest), "--out-dir", str(tmp_path / "f")]
        if source == "flag":
            argv += ["--workers", workers]
        else:
            (tmp_path / "c.ini").write_text(f"[run]\nworkers = {workers}\n")
            argv += ["--config", str(tmp_path / "c.ini")]
        assert main(argv) == EXIT_USAGE
        assert f"must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_tv_iters_zero_is_usage_error(self, stats_ws, tmp_path, capsys):
        rc = main(
            [
                "train-tv", "--stats", str(stats_ws / "train.ivbw"),
                "--ubm", str(stats_ws / "ubm.ivgm"), "--out", str(tmp_path / "tv.ivtv"),
                "--iters", "0",
            ]
        )
        assert rc == EXIT_USAGE
        assert "error: iters must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "tv.ivtv").exists()

    def test_ubm_iters_per_level_zero_is_usage_error(self, audio_ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[ubm]\nnum_components = 4\niters_per_level = 0\n")
        rc = main(
            [
                "train-ubm", "--config", str(cfg), "--features", str(audio_ws / "feats"),
                "--manifest", str(audio_ws / "train.manifest"), "--out", str(tmp_path / "u.ivgm"),
            ]
        )
        assert rc == EXIT_USAGE
        assert "error: iters_per_level must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "u.ivgm").exists()

    def test_nda_k_zero_is_usage_error(self, stats_ws, tmp_path, capsys):
        rc = main(
            [
                "train-da", "--ivectors", str(stats_ws / "train.iviv"),
                "--manifest", str(stats_ws / "train.manifest"),
                "--out", str(tmp_path / "p.ivda"), "--method", "nda", "--k", "0",
            ]
        )
        assert rc == EXIT_USAGE
        assert "error: k must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "p.ivda").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nda_non_finite_alpha_is_usage_error(self, stats_ws, tmp_path, capsys, alpha, source):
        argv = [
            "train-da", "--ivectors", str(stats_ws / "train.iviv"),
            "--manifest", str(stats_ws / "train.manifest"),
            "--out", str(tmp_path / "p.ivda"), "--method", "nda", "--k", "3",
        ]
        if source == "flag":
            argv += ["--alpha", alpha]
        else:
            (tmp_path / "c.ini").write_text(f"[da]\nalpha = {alpha}\n")
            argv += ["--config", str(tmp_path / "c.ini")]
        assert main(argv) == EXIT_USAGE
        assert f"error: alpha must be finite, got {alpha}\n" in capsys.readouterr().err
        assert not (tmp_path / "p.ivda").exists()

    def test_nda_class_too_small_names_the_label(self, stats_ws, tmp_path, capsys):
        rc = main(
            [
                "train-da", "--ivectors", str(stats_ws / "train.iviv"),
                "--manifest", str(stats_ws / "train.manifest"),
                "--out", str(tmp_path / "p.ivda"), "--method", "nda", "--k", "100",
            ]
        )
        assert rc == EXIT_DATA
        assert (
            "error: class 'spk0001' has 4 samples; need k + 1 = 101 for within-class neighbours\n"
            in capsys.readouterr().err
        )

    def test_removed_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train-supervised-ubm", "--help"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'train-supervised-ubm'" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(
            [
                "train-tv", "--stats", str(tmp_path / "absent.ivbw"),
                "--ubm", str(tmp_path / "absent.ivgm"), "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_corrupt_input_file(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.ivbw"
        garbage.write_bytes(b"not a real archive at all")
        rc = main(
            [
                "train-tv", "--stats", str(garbage),
                "--ubm", str(garbage), "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == EXIT_DATA

    def test_corrupt_size_field_is_a_data_error(self, stats_ws, tmp_path, capsys):
        """A component count far beyond the file is a truncated file, not a
        `MemoryError` from allocating it."""
        data = bytearray((stats_ws / "ubm.ivgm").read_bytes())
        (meta_len,) = struct.unpack_from("<I", data, 16)  # after magic, version, fp
        struct.pack_into("<I", data, 20 + meta_len, 0xFFFFFFFF)  # G
        bad = tmp_path / "ubm.ivgm"
        bad.write_bytes(bytes(data))
        rc = main(
            [
                "train-tv", "--stats", str(stats_ws / "train.ivbw"),
                "--ubm", str(bad), "--out", str(tmp_path / "tv.ivtv"),
            ]
        )
        assert rc == EXIT_DATA
        assert f"{bad}: truncated file" in capsys.readouterr().err
        assert not (tmp_path / "tv.ivtv").exists()

    def test_concatenated_archive_rejected(self, stats_ws, tmp_path, capsys):
        both = tmp_path / "both.iviv"
        both.write_bytes(
            (stats_ws / "enroll.iviv").read_bytes() + (stats_ws / "test.iviv").read_bytes()
        )
        rc = main(
            [
                "score", "--enroll", str(both), "--test", str(stats_ws / "test.iviv"),
                "--trials", str(stats_ws / "trials.txt"),
                "--projection", str(stats_ws / "proj.ivda"),
                "--normalizer", str(stats_ws / "norm.ivnz"),
                "--plda", str(stats_ws / "plda.ivpl"), "--out", str(tmp_path / "scores.txt"),
            ]
        )
        assert rc == EXIT_DATA
        assert f"{both}: unexpected bytes after the payload" in capsys.readouterr().err
        assert not (tmp_path / "scores.txt").exists()

    def test_non_utf8_record_id_rejected(self, stats_ws, tmp_path, capsys):
        (ids, _), _, _ = fileio.read_ivector_archive(stats_ws / "train.iviv")
        rec_id = ids[0].encode()
        bad = tmp_path / "train.iviv"
        bad.write_bytes(
            (stats_ws / "train.iviv").read_bytes().replace(rec_id, rec_id[:-1] + b"\xff", 1)
        )
        rc = main(
            [
                "train-da", "--ivectors", str(bad), "--manifest",
                str(stats_ws / "train.manifest"), "--out", str(tmp_path / "proj.ivda"),
            ]
        )
        assert rc == EXIT_DATA
        assert f"{bad}: record id is not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "proj.ivda").exists()

    @pytest.mark.parametrize(
        "mode, flags, unused",
        [
            ("ivectors", ["--components", "64", "--rank", "9", "--residual-scale", "0.1"],
             "--components, --rank, --residual-scale"),
            ("ivectors", ["--contaminate", "4"], "--contaminate"),
            ("stats", ["--contaminate", "4"], "--contaminate"),
            ("audio", ["--dim", "5", "--channel-std", "9", "--unimodal"],
             "--dim, --channel-std, --unimodal"),
            ("audio", ["--domain-offset", "1", "--bimodal"], "--domain-offset, --bimodal"),
            ("audio", ["--components", "8", "--rank", "2", "--residual-scale", "2"],
             "--components, --rank, --residual-scale"),
        ],
        ids=["ivectors-stats", "ivectors-audio", "stats-audio", "audio-corpus",
             "audio-domain", "audio-stats"],
    )
    def test_synth_flag_unused_by_mode_is_usage_error(self, tmp_path, capsys, mode, flags, unused):
        rc = main(["synth", "--mode", mode, "--out-dir", str(tmp_path / "c"), *flags])
        assert rc == EXIT_USAGE
        assert f"synth --mode {mode} does not use {unused}" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("target", ["scores", "manifest", "config"])
    def test_non_utf8_text_input_is_data_error(self, stats_ws, tmp_path, capsys, target):
        bad = tmp_path / "bad.txt"
        valid = {"scores": stats_ws / "scores.txt", "manifest": stats_ws / "train.manifest"}
        head = valid[target].read_bytes() if target in valid else b"[da]\n"
        bad.write_bytes(head + b"x \xff y\n")
        train_da = ["train-da", "--ivectors", stats_ws / "train.iviv", "--out", tmp_path / "proj.ivda"]
        argv = {
            "scores": ["evaluate", "--scores", bad, "--key", stats_ws / "key.txt"],
            "manifest": [*train_da, "--manifest", bad],
            "config": [*train_da, "--manifest", stats_ws / "train.manifest", "--config", bad],
        }[target]
        assert main([str(a) for a in argv]) == EXIT_DATA
        assert f"error: {bad}: cannot decode text (" in capsys.readouterr().err
        assert not (tmp_path / "proj.ivda").exists()

    def test_percent_in_config_value_is_literal(self, stats_ws, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[da]\nmethod = n%da\n")
        rc = main(
            [
                "train-da", "--ivectors", str(stats_ws / "train.iviv"), "--manifest",
                str(stats_ws / "train.manifest"), "--out", str(tmp_path / "proj.ivda"),
                "--config", str(cfg),
            ]
        )
        assert rc == EXIT_USAGE
        assert "unknown DA method 'n%da'" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["ivectors", "stats"])
    def test_synth_bimodal_with_unimodal_is_usage_error(self, tmp_path, capsys, mode):
        argv = ["synth", "--mode", mode, "--out-dir", str(tmp_path / "c")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--bimodal", "--unimodal"])
        assert exc.value.code == EXIT_USAGE
        assert "--unimodal: not allowed with argument --bimodal" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize(
        "section, line",
        [
            ("sad", "smooth_frames = 4"),  # mask one frame longer than the features
            ("frontend", "frame_shift_ms = 0.01"),  # a shift of 0 samples
            ("frontend", "frame_len_ms = 0.1"),  # 1-sample frames: the ZCR is 0/0
            ("frontend", "frame_len_ms = 100"),  # 800 samples cropped to 512 at 8 kHz
            ("frontend", "num_ceps = 40"),  # only 24 filters, so 24 cepstra
            ("frontend", "delta_context = 0"),
        ],
        ids=["smooth-even", "shift-zero", "frame-one-sample", "frame-past-fft",
             "ceps-past-filters", "delta-context-zero"],
    )
    def test_broken_frontend_setting_rejected_before_any_recording(
        self, audio_ws, tmp_path, capsys, monkeypatch, section, line
    ):
        reads = []
        monkeypatch.setattr(frontend, "read_wav", lambda path: reads.append(path))
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        rc = main(
            [
                "extract-features", "--config", str(cfg),
                "--manifest", str(audio_ws / "train.manifest"),
                "--out-dir", str(tmp_path / "feats"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert f"config [{section}] {line.split()[0]}:" in err
        assert reads == [] and "recording(s) failed" not in err
        assert not (tmp_path / "feats").exists()

    def test_provenance_mismatch(self, stats_ws, tmp_path, capsys):
        # A UBM from a different corpus must be rejected by the chain check.
        run_ok(
            [
                "synth", "--mode", "stats", "--out-dir", tmp_path / "other",
                "--seed", "99", "--train-speakers", "3", "--train-sessions", "2",
                "--eval-speakers", "2", "--eval-sessions", "2",
                "--components", "8", "--dim", "4", "--rank", "8",
            ]
        )
        rc = main(
            [
                "train-tv", "--stats", str(stats_ws / "train.ivbw"),
                "--ubm", str(tmp_path / "other" / "ubm.ivgm"),
                "--out", str(tmp_path / "tv.ivtv"), "--rank", "4", "--iters", "1",
            ]
        )
        assert rc == EXIT_NUMERIC
        assert "error:" in capsys.readouterr().err

    def test_non_finite_statistics_are_numeric_errors(self, stats_ws, tmp_path, capsys):
        stats, fp, meta = fileio.read_stats_archive(stats_ws / "enroll.ivbw")
        stats[1].f[2, 0] = np.nan
        bad = tmp_path / "enroll.ivbw"
        fileio.write_stats_archive(bad, stats, fp, meta)
        rc = main(
            [
                "extract-ivectors", "--stats", str(bad),
                "--ubm", str(stats_ws / "ubm.ivgm"), "--tv", str(stats_ws / "tv.ivtv"),
                "--out", str(tmp_path / "enroll.iviv"),
            ]
        )
        assert rc == EXIT_NUMERIC
        assert stats[1].recording_id in capsys.readouterr().err
        assert not (tmp_path / "enroll.iviv").exists()
