"""End-to-end command-line tests: full recipes, output formats, exit codes."""

import numpy as np
import pytest

from ivnda import fileio
from ivnda.cli import main
from ivnda.config import PipelineConfig, load_config
from ivnda.errors import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE


def run_ok(argv):
    assert main([str(a) for a in argv]) == EXIT_OK


# --- shared workspaces -----------------------------------------------------


@pytest.fixture(scope="module")
def stats_ws(tmp_path_factory):
    """A small statistics-level corpus taken through the whole recipe."""
    ws = tmp_path_factory.mktemp("stats_ws")
    run_ok(
        [
            "synth", "--mode", "stats", "--out-dir", ws, "--seed", "5",
            "--train-speakers", "12", "--train-sessions", "4",
            "--eval-speakers", "6", "--eval-sessions", "3",
            "--components", "8", "--dim", "4", "--rank", "8",
        ]
    )
    run_ok(
        [
            "train-tv", "--stats", ws / "train.ivbw", "--ubm", ws / "ubm.ivgm",
            "--out", ws / "tv.ivtv", "--rank", "8", "--iters", "5", "--seed", "5",
        ]
    )
    for split in ("train", "enroll", "test"):
        run_ok(
            [
                "extract-ivectors", "--stats", ws / f"{split}.ivbw",
                "--ubm", ws / "ubm.ivgm", "--tv", ws / "tv.ivtv",
                "--out", ws / f"{split}.iviv",
            ]
        )
    run_ok(
        [
            "train-da", "--ivectors", ws / "train.iviv",
            "--manifest", ws / "train.manifest", "--out", ws / "proj.ivda",
            "--method", "nda", "--k", "3", "--dim", "6",
        ]
    )
    run_ok(
        [
            "train-plda", "--ivectors", ws / "train.iviv",
            "--manifest", ws / "train.manifest", "--projection", ws / "proj.ivda",
            "--out", ws / "plda.ivpl", "--normalizer-out", ws / "norm.ivnz",
        ]
    )
    run_ok(
        [
            "score", "--enroll", ws / "enroll.iviv", "--test", ws / "test.iviv",
            "--trials", ws / "trials.txt", "--projection", ws / "proj.ivda",
            "--normalizer", ws / "norm.ivnz", "--plda", ws / "plda.ivpl",
            "--out", ws / "scores.txt",
        ]
    )
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
        assert [(e, t) for e, t, _ in scores] == trials
        assert len(scores) == 6 * 12

    def test_projection_matches_requested_settings(self, stats_ws):
        proj, _, _ = fileio.read_projection(stats_ws / "proj.ivda")
        assert proj.method == "nda"
        assert proj.k == 3
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

    def test_synth_rerun_is_byte_identical(self, stats_ws, tmp_path):
        run_ok(
            [
                "synth", "--mode", "stats", "--out-dir", tmp_path / "again",
                "--seed", "5", "--train-speakers", "12", "--train-sessions", "4",
                "--eval-speakers", "6", "--eval-sessions", "3",
                "--components", "8", "--dim", "4", "--rank", "8",
            ]
        )
        for name in ("ubm.ivgm", "train.ivbw", "trials.txt", "key.txt"):
            assert (tmp_path / "again" / name).read_bytes() == (
                stats_ws / name
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
        proj, _, _ = fileio.read_projection(tmp_path / "lda.ivda")
        assert proj.method == "lda" and proj.output_dim == 4

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

    def test_unknown_trial_ids_reported(self, stats_ws, tmp_path, capsys):
        trials = fileio.read_trials(stats_ws / "trials.txt")
        bad_trials = tmp_path / "trials.txt"
        fileio.write_trials(bad_trials, trials[:3] + [("ghost", trials[0][1])])
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

    def test_det_outputs(self, stats_ws, tmp_path):
        run_ok(
            [
                "evaluate", "--scores", stats_ws / "scores.txt",
                "--key", stats_ws / "key.txt",
                "--det-csv", tmp_path / "det.csv", "--det-svg", tmp_path / "det.svg",
            ]
        )
        assert (tmp_path / "det.csv").read_text().startswith("p_fa,p_miss")
        assert (tmp_path / "det.svg").read_text().startswith("<svg")

    def test_det_subcommand(self, stats_ws, tmp_path):
        run_ok(
            [
                "det", "--scores", stats_ws / "scores.txt", "--key", stats_ws / "key.txt",
                "--csv", tmp_path / "c.csv", "--svg", tmp_path / "c.svg",
            ]
        )
        csv_lines = (tmp_path / "c.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "p_fa,p_miss"
        assert len(csv_lines) > 2


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

    def test_supervised_ubm(self, audio_ws, tmp_path, rng):
        # Hand the trainer externally computed per-frame posteriors.
        from helpers import sparse_random_posteriors
        from ivnda.ubm import write_posteriors

        blocks = {}
        for entry in fileio.read_manifest(audio_ws / "train.manifest"):
            features, _, _ = fileio.read_feature_record(
                audio_ws / "feats" / f"{entry.recording_id}.ivfa"
            )
            blocks[entry.recording_id] = sparse_random_posteriors(
                rng, int(features.speech_mask.sum()), g=4, per_frame=2
            )
        post_path = tmp_path / "ext.post"
        write_posteriors(post_path, blocks)
        run_ok(
            [
                "train-supervised-ubm", "--config", audio_ws / "config.ini",
                "--features", audio_ws / "feats",
                "--manifest", audio_ws / "train.manifest",
                "--posteriors", post_path, "--out", tmp_path / "subm.ivgm",
            ]
        )
        gmm, _, meta = fileio.read_gmm(tmp_path / "subm.ivgm")
        assert gmm.num_components == 4 and gmm.dim == 39
        assert meta["config"]["external_posteriors"] is True

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


# --- defaults and exit codes -----------------------------------------------


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


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["defaults", "--bogus"])
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
