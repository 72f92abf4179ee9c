"""Tests for artifact serialisation: binary formats, manifests, score files."""

import struct

import numpy as np
import pytest

from helpers import make_gmm, reference_read_key, reference_read_scores, reference_read_trials
from ivnda import fileio
from ivnda.backend import Normalizer, PldaModel
from ivnda.da import Projection
from ivnda.errors import FormatError, KeyMismatchError
from ivnda.fileio import (
    ManifestEntry,
    Trials,
    atomic_write_bytes,
    atomic_write_text,
    feature_path,
    fingerprint,
    match_scores_to_key,
    read_feature_record,
    read_gmm,
    read_ivector_archive,
    read_key,
    read_manifest,
    read_normalizer,
    read_plda,
    read_projection,
    read_scores,
    read_stats_archive,
    read_trials,
    read_tv_model,
    write_feature_record,
    write_gmm,
    write_ivector_archive,
    write_key,
    write_manifest,
    write_normalizer,
    write_plda,
    write_projection,
    write_scores,
    write_stats_archive,
    write_trials,
    write_tv_model,
)
from ivnda.frontend import FeatureMatrix
from ivnda.stats import BwStats
from ivnda.tv import IVector, TvModel

META = {"stage": "test"}

# Header layout: magic 4 | version u32 | fingerprint u64 | meta_len u32 | meta.
HEADER_FIXED = struct.calcsize("<4sIQI")


def corrupt(path, offset, replacement):
    data = bytearray(path.read_bytes())
    data[offset : offset + len(replacement)] = replacement
    path.write_bytes(bytes(data))


# --- fingerprints ----------------------------------------------------------


class TestFingerprint:
    def test_deterministic(self):
        a = fingerprint("ubm", {"num_components": 64}, {"features": 7})
        b = fingerprint("ubm", {"num_components": 64}, {"features": 7})
        assert a == b

    def test_key_order_irrelevant(self):
        a = fingerprint("tv", {"rank": 100, "iters": 5})
        b = fingerprint("tv", {"iters": 5, "rank": 100})
        assert a == b

    def test_sensitive_to_every_field(self):
        base = fingerprint("tv", {"rank": 100}, {"stats": 1})
        assert base != fingerprint("da", {"rank": 100}, {"stats": 1})
        assert base != fingerprint("tv", {"rank": 200}, {"stats": 1})
        assert base != fingerprint("tv", {"rank": 100}, {"stats": 2})

    def test_missing_upstream_equals_empty(self):
        assert fingerprint("ubm", {}) == fingerprint("ubm", {}, {})

    def test_fits_in_64_bits(self):
        fp = fingerprint("frontend", {"sample_rate": 8000})
        assert 0 <= fp < 2**64


# --- atomic writes ---------------------------------------------------------


class TestAtomicWrite:
    def test_no_temp_file_left_behind(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"abc")
        assert target.read_bytes() == b"abc"
        assert list(tmp_path.iterdir()) == [target]

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_failed_replace_preserves_original(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        target.write_bytes(b"original")

        def boom(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr("ivnda.fileio.os.replace", boom)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"replacement")
        assert target.read_bytes() == b"original"


# --- binary round trips ----------------------------------------------------


class TestFeatureRecords:
    def make_features(self, rng, t=30, d=13):
        return FeatureMatrix(
            frames=rng.normal(size=(t, d)),
            frame_shift_ms=10.0,
            speech_mask=rng.random(t) < 0.7,
        )

    def test_round_trip(self, rng, tmp_path):
        features = self.make_features(rng)
        path = feature_path(tmp_path, "rec1")
        write_feature_record(path, features, fp=42, meta=META)
        loaded, fp, meta = read_feature_record(path)
        assert fp == 42 and meta == META
        # Frames are stored at single precision.
        np.testing.assert_array_equal(
            loaded.frames, features.frames.astype(np.float32).astype(np.float64)
        )
        np.testing.assert_array_equal(loaded.speech_mask, features.speech_mask)
        assert loaded.frame_shift_ms == 10.0

    def test_path_naming(self, tmp_path):
        assert feature_path(tmp_path, "abc").name == "abc.ivfa"

    def test_bad_mask_byte_rejected(self, rng, tmp_path):
        features = self.make_features(rng)
        path = feature_path(tmp_path, "rec1")
        write_feature_record(path, features, fp=0, meta={})
        corrupt(path, len(path.read_bytes()) - 1, b"\x02")
        with pytest.raises(FormatError):
            read_feature_record(path)


class TestModelFiles:
    def test_gmm_round_trip(self, rng, tmp_path):
        gmm = make_gmm(rng, 8, 5)
        path = tmp_path / "ubm.ivgm"
        write_gmm(path, gmm, fp=7, meta={"stage": "ubm"})
        loaded, fp, meta = read_gmm(path)
        assert fp == 7 and meta == {"stage": "ubm"}
        np.testing.assert_array_equal(loaded.weights, gmm.weights)
        np.testing.assert_array_equal(loaded.means, gmm.means)
        np.testing.assert_array_equal(loaded.variances, gmm.variances)

    def test_writes_are_byte_identical(self, rng, tmp_path):
        gmm = make_gmm(rng, 4, 3)
        a, b = tmp_path / "a.ivgm", tmp_path / "b.ivgm"
        write_gmm(a, gmm, fp=5, meta={"stage": "ubm", "config": {"n": 4}})
        write_gmm(b, gmm, fp=5, meta={"config": {"n": 4}, "stage": "ubm"})
        assert a.read_bytes() == b.read_bytes()

    def test_tv_round_trip(self, rng, tmp_path):
        model = TvModel(
            t_matrix=rng.normal(size=(12, 4)), sigma=rng.uniform(0.5, 2.0, size=(3, 4)), rank=4
        )
        path = tmp_path / "tv.ivtv"
        write_tv_model(path, model, fp=9, meta=META)
        loaded, fp, _ = read_tv_model(path)
        assert fp == 9 and loaded.rank == 4
        np.testing.assert_array_equal(loaded.t_matrix, model.t_matrix)
        np.testing.assert_array_equal(loaded.sigma, model.sigma)

    def test_normalizer_round_trip(self, rng, tmp_path):
        nz = Normalizer(mean=rng.normal(size=6), whitener=rng.normal(size=(6, 6)))
        path = tmp_path / "norm.ivnz"
        write_normalizer(path, nz, fp=3, meta=META)
        loaded, fp, _ = read_normalizer(path)
        assert fp == 3
        np.testing.assert_array_equal(loaded.mean, nz.mean)
        np.testing.assert_array_equal(loaded.whitener, nz.whitener)

    def test_plda_round_trip(self, rng, tmp_path):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        model = PldaModel(mu=rng.normal(size=4), b_cov=a @ a.T, w_cov=b @ b.T)
        path = tmp_path / "model.ivpl"
        write_plda(path, model, fp=11, meta=META)
        loaded, fp, _ = read_plda(path)
        assert fp == 11
        np.testing.assert_array_equal(loaded.mu, model.mu)
        np.testing.assert_array_equal(loaded.b_cov, model.b_cov)
        np.testing.assert_array_equal(loaded.w_cov, model.w_cov)


class TestArchives:
    def make_stats(self, rng, count=3, g=4, d=2):
        out = []
        for i in range(count):
            out.append(
                BwStats(
                    n=rng.uniform(0.0, 20.0, size=g),
                    f=rng.normal(size=(g, d)),
                    recording_id=f"rec{i}",
                )
            )
        return out

    def test_stats_round_trip(self, rng, tmp_path):
        stats = self.make_stats(rng)
        path = tmp_path / "stats.ivbw"
        write_stats_archive(path, stats, fp=21, meta=META)
        loaded, fp, _ = read_stats_archive(path)
        assert fp == 21
        assert [s.recording_id for s in loaded] == ["rec0", "rec1", "rec2"]
        for got, want in zip(loaded, stats):
            np.testing.assert_array_equal(got.n, want.n)
            np.testing.assert_array_equal(got.f, want.f)
            assert not got.centered

    def test_empty_stats_archive(self, tmp_path):
        path = tmp_path / "stats.ivbw"
        write_stats_archive(path, [], fp=0, meta={})
        loaded, _, _ = read_stats_archive(path)
        assert loaded == []

    def test_centered_stats_rejected(self, rng, tmp_path):
        stats = self.make_stats(rng, count=1)
        stats[0].centered = True
        with pytest.raises(ValueError):
            write_stats_archive(tmp_path / "stats.ivbw", stats, fp=0, meta={})

    def test_ivector_round_trip(self, rng, tmp_path):
        ivectors = [IVector(w=rng.normal(size=5), recording_id=f"r{i}") for i in range(4)]
        path = tmp_path / "iv.iviv"
        write_ivector_archive(path, ivectors, fp=33, meta=META)
        loaded, fp, _ = read_ivector_archive(path)
        assert fp == 33
        assert [iv.recording_id for iv in loaded] == ["r0", "r1", "r2", "r3"]
        for got, want in zip(loaded, ivectors):
            np.testing.assert_array_equal(got.w, want.w)

    def test_empty_ivector_archive(self, tmp_path):
        path = tmp_path / "iv.iviv"
        write_ivector_archive(path, [], fp=0, meta={})
        assert read_ivector_archive(path)[0] == []

    def test_mixed_rank_archive_rejected(self, rng, tmp_path):
        ivectors = [
            IVector(w=rng.normal(size=5), recording_id="a"),
            IVector(w=rng.normal(size=6), recording_id="b"),
        ]
        with pytest.raises(ValueError):
            write_ivector_archive(tmp_path / "iv.iviv", ivectors, fp=0, meta={})


class TestProjectionFiles:
    def make_projection(self, rng, method="nda", k=8, alpha=2.0):
        basis = rng.normal(size=(10, 4))
        basis /= np.linalg.norm(basis, axis=0)
        return Projection(
            basis=basis,
            eigenvalues=np.sort(rng.uniform(0.1, 5.0, size=4))[::-1],
            method=method,
            k=k,
            alpha=alpha,
        )

    @pytest.mark.parametrize("method,k,alpha", [("lda", 0, 0.0), ("nda", 8, 2.0)])
    def test_round_trip(self, rng, tmp_path, method, k, alpha):
        proj = self.make_projection(rng, method, k, alpha)
        path = tmp_path / "proj.ivda"
        write_projection(path, proj, fp=13, meta=META)
        loaded, fp, _ = read_projection(path)
        assert fp == 13
        assert loaded.method == method and loaded.k == k and loaded.alpha == alpha
        np.testing.assert_array_equal(loaded.basis, proj.basis)
        np.testing.assert_array_equal(loaded.eigenvalues, proj.eigenvalues)

    def test_untagged_method_rejected(self, rng, tmp_path):
        proj = self.make_projection(rng, method="")
        with pytest.raises(ValueError):
            write_projection(tmp_path / "proj.ivda", proj, fp=0, meta={})

    def test_unknown_method_tag_rejected(self, rng, tmp_path):
        path = tmp_path / "proj.ivda"
        write_projection(path, self.make_projection(rng), fp=0, meta={})
        meta_len = struct.unpack_from("<I", path.read_bytes(), 16)[0]
        tag_offset = HEADER_FIXED + meta_len + 8
        corrupt(path, tag_offset, struct.pack("<I", 99))
        with pytest.raises(FormatError):
            read_projection(path)


# --- corrupt headers -------------------------------------------------------


def _plda(rng, m=3):
    a, b = rng.normal(size=(m, m)), rng.normal(size=(m, m))
    return PldaModel(mu=rng.normal(size=m), b_cov=a @ a.T, w_cov=b @ b.T + np.eye(m))


# One small artifact of each binary format: (writer, reader, make(rng)).
FORMATS = {
    "ivfa": (write_feature_record, read_feature_record, lambda rng: FeatureMatrix(
        frames=rng.normal(size=(5, 3)), frame_shift_ms=10.0,
        speech_mask=np.array([1, 0, 1, 1, 0], dtype=bool))),
    "ivgm": (write_gmm, read_gmm, lambda rng: make_gmm(rng, 4, 3)),
    "ivbw": (write_stats_archive, read_stats_archive, lambda rng: [
        BwStats(n=rng.uniform(1.0, 5.0, size=4), f=rng.normal(size=(4, 2)),
                recording_id=f"rec{i}") for i in range(2)]),
    "ivtv": (write_tv_model, read_tv_model, lambda rng: TvModel(
        t_matrix=rng.normal(size=(6, 2)), sigma=rng.uniform(0.5, 2.0, size=(3, 2)), rank=2)),
    "iviv": (write_ivector_archive, read_ivector_archive, lambda rng: [
        IVector(w=rng.normal(size=3), recording_id=f"rec{i}") for i in range(2)]),
    "ivda": (write_projection, read_projection, lambda rng: Projection(
        basis=np.eye(4)[:, :2], eigenvalues=np.array([2.0, 1.0]), method="nda", k=3,
        alpha=2.0)),
    "ivnz": (write_normalizer, read_normalizer, lambda rng: Normalizer(
        mean=rng.normal(size=3), whitener=rng.normal(size=(3, 3)))),
    "ivpl": (write_plda, read_plda, _plda),
}


@pytest.fixture(params=sorted(FORMATS))
def artifact(request, rng, tmp_path):
    """(path, reader) of one written artifact of each binary format."""
    writer, reader, make = FORMATS[request.param]
    path = tmp_path / f"artifact.{request.param}"
    writer(path, make(rng), fp=1, meta=META)
    reader(path)
    return path, reader


class TestCorruptFiles:
    def test_truncated_payload_of_each_format(self, artifact):
        path, reader = artifact
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="truncated"):
            reader(path)

    def test_wrong_magic_of_each_format(self, artifact):
        path, reader = artifact
        corrupt(path, 0, b"XXXX")
        with pytest.raises(FormatError, match="bad magic b'XXXX'"):
            reader(path)

    def test_bytes_after_payload_of_each_format(self, artifact):
        path, reader = artifact
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="after the payload") as exc:
            reader(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("fmt", ["ivbw", "iviv"])
    def test_record_id_not_utf8(self, fmt, rng, tmp_path):
        writer, reader, make = FORMATS[fmt]
        path = tmp_path / f"archive.{fmt}"
        writer(path, make(rng), fp=1, meta=META)
        data = path.read_bytes()
        assert data.count(b"rec1") == 1
        path.write_bytes(data.replace(b"rec1", b"rec\xff"))
        with pytest.raises(FormatError, match="not UTF-8") as exc:
            reader(path)
        assert str(path) in str(exc.value)

    @pytest.fixture
    def gmm_file(self, rng, tmp_path):
        path = tmp_path / "ubm.ivgm"
        write_gmm(path, make_gmm(rng, 4, 3), fp=1, meta=META)
        return path

    def test_wrong_magic(self, gmm_file):
        with pytest.raises(FormatError, match="magic"):
            read_tv_model(gmm_file)

    def test_unsupported_version(self, gmm_file):
        corrupt(gmm_file, 4, struct.pack("<I", 99))
        with pytest.raises(FormatError, match="version"):
            read_gmm(gmm_file)

    def test_truncated_header(self, gmm_file):
        gmm_file.write_bytes(gmm_file.read_bytes()[:10])
        with pytest.raises(FormatError, match="truncated"):
            read_gmm(gmm_file)

    def test_truncated_payload(self, gmm_file):
        gmm_file.write_bytes(gmm_file.read_bytes()[:-16])
        with pytest.raises(FormatError, match="truncated"):
            read_gmm(gmm_file)

    def test_corrupt_metadata(self, gmm_file):
        corrupt(gmm_file, HEADER_FIXED, b"\xff\xff")
        with pytest.raises(FormatError, match="metadata"):
            read_gmm(gmm_file)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ivgm"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            read_gmm(path)


# --- manifests -------------------------------------------------------------


class TestManifest:
    def test_column_variants(self, tmp_path):
        path = tmp_path / "data.manifest"
        path.write_text(
            "# comment line\n"
            "\n"
            "rec1 audio/rec1.wav\n"
            "rec2 audio/rec2.wav spkA\n"
            "rec3 audio/rec3.wav spkA xf/rec3.fmllr\n"
            "rec4 audio/rec4.wav - - masks/rec4.sad\n"
        )
        entries = read_manifest(path)
        assert [e.recording_id for e in entries] == ["rec1", "rec2", "rec3", "rec4"]
        assert entries[0].speaker == "" and entries[0].sad_path == ""
        assert entries[1].speaker == "spkA"
        assert entries[2].fmllr_path == "xf/rec3.fmllr"
        assert entries[3].speaker == "" and entries[3].sad_path == "masks/rec4.sad"

    def test_round_trip_trims_trailing_placeholders(self, tmp_path):
        entries = [
            ManifestEntry(recording_id="a", audio_path="a.wav"),
            ManifestEntry(recording_id="b", audio_path="b.wav", speaker="s1"),
            ManifestEntry(recording_id="c", audio_path="c.wav", sad_path="c.sad"),
        ]
        path = tmp_path / "out.manifest"
        write_manifest(path, entries)
        lines = path.read_text().splitlines()
        assert lines[0] == "a a.wav"
        assert lines[1] == "b b.wav s1"
        assert lines[2] == "c c.wav - - c.sad"
        assert read_manifest(path) == entries

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.manifest"
        path.write_text("rec1 a.wav\nrec1 b.wav\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_manifest(path)

    @pytest.mark.parametrize("line", ["justone", "a b c d e f"])
    def test_bad_column_count_rejected(self, tmp_path, line):
        path = tmp_path / "bad.manifest"
        path.write_text(line + "\n")
        with pytest.raises(FormatError, match="columns"):
            read_manifest(path)

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "empty.manifest"
        write_manifest(path, [])
        assert path.read_text() == ""
        assert read_manifest(path) == []


# --- trials, keys, scores --------------------------------------------------


def columns(trials):
    """A Trials as plain lists, for exact comparison."""
    values = None if trials.values is None else trials.values.tolist()
    return trials.enroll, trials.test, values


class TestTrialFiles:
    def test_trials_round_trip(self, tmp_path):
        trials = Trials(["e1", "e1", "e2"], ["t1", "t2", "t1"])
        path = tmp_path / "trials.txt"
        write_trials(path, trials)
        assert path.read_text() == "e1 t1\ne1 t2\ne2 t1\n"
        assert columns(read_trials(path)) == (["e1", "e1", "e2"], ["t1", "t2", "t1"], None)

    def test_trials_bad_line(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("e1 t1 extra\n")
        with pytest.raises(FormatError):
            read_trials(path)

    def test_key_round_trip(self, tmp_path):
        key = Trials(["e1", "e1"], ["t1", "t2"], np.array([True, False]))
        path = tmp_path / "key.txt"
        write_key(path, key)
        text = path.read_text()
        assert "e1 t1 target" in text and "e1 t2 nontarget" in text
        loaded = read_key(path)
        assert loaded.values.dtype == bool
        assert columns(loaded) == (["e1", "e1"], ["t1", "t2"], [True, False])

    def test_key_bad_label(self, tmp_path):
        path = tmp_path / "key.txt"
        path.write_text("e1 t1 genuine\n")
        with pytest.raises(FormatError):
            read_key(path)

    def test_scores_round_trip_exact(self, tmp_path):
        values = [1.0 / 3.0, -1234.5678901234567, 5e-320, 0.1 + 0.2]
        scores = Trials(["e1", "e1", "e2", "e2"], ["t1", "t2", "t1", "t2"], np.array(values))
        path = tmp_path / "scores.txt"
        write_scores(path, scores)
        loaded = read_scores(path)
        assert loaded.values.dtype == np.float64
        # %.17g preserves doubles exactly
        assert columns(loaded) == (scores.enroll, scores.test, values)

    def test_scores_bad_value(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("e1 t1 not-a-number\n")
        with pytest.raises(FormatError, match="non-numeric"):
            read_scores(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("# header\n\ne1 t1 0.5\n")
        assert columns(read_scores(path)) == (["e1"], ["t1"], [0.5])

    def test_empty_lists_write_empty_files(self, tmp_path):
        for write, trials in (
            (write_trials, Trials([], [])),
            (write_key, Trials([], [], np.zeros(0, dtype=bool))),
            (write_scores, Trials([], [], np.zeros(0))),
        ):
            path = tmp_path / f"{write.__name__}.txt"
            write(path, trials)
            assert path.read_text() == ""

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            Trials(["e1", "e2"], ["t1"])
        with pytest.raises(ValueError):
            Trials(["e1"], ["t1"], np.zeros(2))


# Every code point that str.split() and str.strip() treat as whitespace.
PY_SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]

# Edge files that parse: (trials, key, scores) bodies share their layout.
VALID_LAYOUTS = {
    "comment_with_leading_space": "  # note\ne1 t1{v1}\n\t#tabbed {v2}\ne2 t2{v2}\n",
    "blank_and_space_only_lines": "\n   \ne1 t1{v1}\n\t\n \x0c\ne2 t2{v2}\n\n",
    "crlf_endings": "e1 t1{v1}\r\ne2 t2{v2}\r\n",
    "lone_cr_endings": "e1 t1{v1}\re2 t2{v2}\r",
    "tabs": "e1\tt1{v1}\n\te2\t\tt2{v2}\t\n",
    "no_final_newline": "e1 t1{v1}\ne2 t2{v2}",
    "empty_file": "",
    "space_only_file": " \n\t\n",
    "comments_only": "# one\n#two\n",
    "nbsp_separator": "e1\xa0t1{v1}\ne2\xa0\xa0t2{v2}\n",
    "fs_ends_a_comment": "# note\x1ce1 t1{v1}\x1ce2 t2{v2}\n",
    "us_is_a_separator": "e1\x1ft1{v1}\ne2 t2{v2}\x1f\n",
    "line_separator": "e1 t1{v1}\u2028e2 t2{v2}\u2029",
    "nel_and_vt": "e1 t1{v1}\x85e2 t2{v2}\x0b",
    "unicode_ids": "\xe91 t1{v1}\n\u3000\u03b52\u2003t2{v2}\n",
    "hash_inside_id": "e#1 t1{v1}\ne2 #t2{v2}\n",
}

# Edge files that do not parse; the error must name the same line.
MALFORMED_LAYOUTS = {
    "extra_column": "e1 t1{v1}\ne2 t2{v2} extra\n",
    "missing_column": "# c\n\ne1{v1}\n",
    "after_crlf_lines": "e1 t1{v1}\r\n\r\ne2 t2{v2} x\r\n",
    "after_line_separator": "e1 t1{v1}\u2028e2 t2{v2} x\n",
    "after_fs_in_comment": "# note\x1c# more\x1de1 t1{v1} x\n",
    "after_nel": "e1 t1{v1}\x85\x85e2\n",
    "nbsp_makes_extra_column": "e1 t1{v1}\ne2\xa0x t2{v2}\n",
    "zero_width_space_is_not_whitespace": "e1\u200bt1{v1}\n",
    "us_does_not_break_lines": "e1 t1{v1}\x1fe2 t2{v2}\n",
    "bad_line_before_comment": "e1 t1{v1} x\n# c\n",
}

READERS = {
    "trials": (read_trials, reference_read_trials, ("", "")),
    "key": (read_key, reference_read_key, (" target", " nontarget")),
    "scores": (read_scores, reference_read_scores, (" 0.5", " -1.25e3")),
}


def reference_columns(kind, ref):
    """A reference reader's result as (enroll, test, values) lists."""
    rows = [(e, t, v) for (e, t), v in ref.items()] if kind == "key" else ref
    values = None if kind == "trials" else [r[2] for r in rows]
    return [r[0] for r in rows], [r[1] for r in rows], values


def outcome(reader, path):
    try:
        return "ok", reader(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def assert_agrees(kind, path):
    """Same columns, or the same error type and message (so the same line)."""
    new_reader, ref_reader, _ = READERS[kind]
    new, ref = outcome(new_reader, path), outcome(ref_reader, path)
    if ref[0] != "ok":
        assert new == ref
    else:
        assert new[0] == "ok", new
        assert columns(new[1]) == reference_columns(kind, ref[1])


class TestReadersMatchLineReference:
    """The columnar readers against the line-by-line reference readers."""

    @pytest.fixture(autouse=True, params=[None, 3], ids=["one_block", "blocks_of_3"])
    def scan_chunk(self, request, monkeypatch):
        # Small scan blocks put block boundaries inside tokens and breaks.
        if request.param is not None:
            monkeypatch.setattr(fileio, "_SCAN_CHUNK", request.param)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("layout", sorted(VALID_LAYOUTS))
    def test_edge_files(self, tmp_path, kind, layout):
        v1, v2 = READERS[kind][2]
        path = tmp_path / "t.txt"
        path.write_text(VALID_LAYOUTS[layout].format(v1=v1, v2=v2))
        assert outcome(READERS[kind][1], path)[0] == "ok"
        assert_agrees(kind, path)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("layout", sorted(MALFORMED_LAYOUTS))
    def test_malformed_files(self, tmp_path, kind, layout):
        v1, v2 = READERS[kind][2]
        path = tmp_path / "t.txt"
        path.write_text(MALFORMED_LAYOUTS[layout].format(v1=v1, v2=v2))
        assert outcome(READERS[kind][1], path)[0] is FormatError
        assert_agrees(kind, path)

    @pytest.mark.parametrize(
        "kind,body",
        [
            ("scores", "e1 t1 0.5\ne2 t2 x\ne3 t3 0.5 extra\n"),
            ("scores", "e1 t1 0.5 extra\ne2 t2 x\n"),
            ("scores", "# c\n\ne1 t1 1_0\ne2 t2 nan\ne3 t3 -inf\ne4 t4 0x10\n"),
            ("scores", "e1 t1 \u0661.5\ne2 t2 1e999\n"),
            ("key", "e1 t1 target\ne2 t2 Target\ne3 t3\n"),
            ("key", "e1 t1 target x\ne2 t2 maybe\n"),
        ],
    )
    def test_first_error_in_file_order(self, tmp_path, kind, body):
        path = tmp_path / "t.txt"
        path.write_text(body)
        assert_agrees(kind, path)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_every_python_whitespace(self, tmp_path, kind):
        v1, v2 = READERS[kind][2]
        path = tmp_path / "t.txt"
        for space in PY_SPACES:
            # As a separator, before a comment, and between two rows (where
            # it is either a line break or a column separator).
            for body in (
                f"e1{space}t1{v1}\n",
                f"{space}#c{space}e1 t1{v1}\ne2 t2{v2}\n",
                f"e1 t1{v1}{space}e2 t2{v2}\n",
            ):
                path.write_text(body)
                assert_agrees(kind, path)


class TestScan:
    """The code-point tables, and block boundaries on a larger file."""

    def test_code_point_ranges_match_python(self):
        codes = np.arange(0x110000, dtype=np.uint32)
        chars = [chr(c) for c in range(0x110000)]
        spaces = [c.isspace() for c in chars]
        breaks = [len(f"a{c}a".splitlines()) == 2 for c in chars]
        np.testing.assert_array_equal(fileio._in_ranges(codes, fileio._SPACE_RANGES), spaces)
        np.testing.assert_array_equal(fileio._in_ranges(codes, fileio._BREAK_RANGES), breaks)

    @pytest.mark.parametrize("chunk", [None, 4096])
    def test_large_file(self, tmp_path, rng, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(fileio, "_SCAN_CHUNK", chunk)
        n = 5000
        ids = [f"e{i % 97}" for i in range(n)], [f"t{i}" for i in range(n)]
        values = rng.normal(0.0, 100.0, n)
        lines = [f"{e} {t} {v!r}" for e, t, v in zip(*ids, values)]
        lines[1000:1000] = ["# comment", "", "  \t "]
        path = tmp_path / "scores.txt"
        path.write_text("\n".join(lines))
        assert_agrees("scores", path)
        lines[4000] += " extra"
        path.write_text("\n".join(lines))
        assert_agrees("scores", path)


class TestDuplicateTrials:
    @pytest.mark.parametrize(
        "reader,body",
        [
            (read_trials, "e1 t1\ne1 t2\n# c\ne1 t1\n"),
            (read_key, "e1 t1 target\ne1 t2 nontarget\n# c\ne1 t1 nontarget\n"),
            (read_scores, "e1 t1 0.5\ne1 t2 0.25\n# c\ne1 t1 0.5\n"),
        ],
    )
    def test_repeated_trial_rejected_with_both_lines(self, tmp_path, reader, body):
        path = tmp_path / "t.txt"
        path.write_text(body)
        with pytest.raises(
            FormatError, match=r":4: duplicate trial \(e1, t1\), first listed on line 1$"
        ):
            reader(path)

    def test_first_repeat_in_file_order_is_named(self, tmp_path):
        # (a, a) sorts before (z, z), but (z, z) repeats first.
        path = tmp_path / "trials.txt"
        path.write_text("a a\nz z\nz z\na a\n")
        message = r":3: duplicate trial \(z, z\), first listed on line 2$"
        with pytest.raises(FormatError, match=message):
            read_trials(path)

    def test_same_ids_in_other_columns_are_distinct(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("a b\nb a\na a\nb b\n")
        assert len(read_trials(path)) == 4

    def test_format_errors_come_first(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("e1 t1 0.5\ne1 t1 0.5\ne2 t2 x\n")
        with pytest.raises(FormatError, match=r":3: non-numeric score"):
            read_scores(path)


class TestMatchScoresToKey:
    def test_alignment_follows_score_order(self):
        scores = Trials(["e2", "e1"], ["t1", "t1"], np.array([0.9, -0.3]))
        key = Trials(["e1", "e2"], ["t1", "t1"], np.array([True, False]))
        values, targets = match_scores_to_key(scores, key)
        np.testing.assert_array_equal(values, [0.9, -0.3])
        np.testing.assert_array_equal(targets, [False, True])

    def test_extra_key_entries_are_fine(self):
        scores = Trials(["e1"], ["t1"], np.array([0.5]))
        key = Trials(["e1", "e9"], ["t1", "t9"], np.array([True, False]))
        values, targets = match_scores_to_key(scores, key)
        assert values.shape == (1,)
        assert targets.tolist() == [True]

    def test_missing_trial_rejected(self):
        with pytest.raises(KeyMismatchError):
            match_scores_to_key(
                Trials(["e1"], ["tX"], np.array([0.5])),
                Trials(["e1"], ["t1"], np.array([True])),
            )

    def test_shuffled_key_against_dict_lookup(self, rng):
        enroll = [f"e{i}" for i in range(20) for _ in range(30)]
        test = [f"t{j}" for _ in range(20) for j in range(30)]
        targets = rng.random(len(enroll)) < 0.2
        perm = rng.permutation(len(enroll))
        key = Trials([enroll[i] for i in perm], [test[i] for i in perm], targets[perm])
        extra = Trials(["e99", "e0"], ["t0", "t99"], np.array([True, True]))
        key = Trials(key.enroll + extra.enroll, key.test + extra.test,
                     np.concatenate([key.values, extra.values]))
        pick = rng.permutation(len(enroll))[:250]
        scores = Trials([enroll[i] for i in pick], [test[i] for i in pick], rng.normal(size=250))
        values, got = match_scores_to_key(scores, key)
        lookup = dict(zip(zip(key.enroll, key.test), key.values.tolist()))
        want = [lookup[pair] for pair in zip(scores.enroll, scores.test)]
        assert got.tolist() == want
        np.testing.assert_array_equal(values, scores.values)

    @pytest.mark.parametrize(
        "missing",
        [("eX", "t1"), ("e1", "tX"), ("eX", "tX"), ("e1", "t2")],
        ids=["unknown_enroll", "unknown_test", "both_unknown", "known_ids_unknown_pair"],
    )
    def test_first_missing_trial_named(self, missing):
        key = Trials(["e1", "e2", "e2"], ["t1", "t2", "t1"], np.array([True, True, False]))
        scores = Trials(
            ["e2", missing[0], "e1", "eY"], ["t2", missing[1], "t1", "tY"], np.zeros(4)
        )
        with pytest.raises(
            KeyMismatchError, match=rf"^trial \({missing[0]}, {missing[1]}\) is scored"
        ):
            match_scores_to_key(scores, key)

    def test_empty_key(self):
        empty_key = Trials([], [], np.zeros(0, dtype=bool))
        with pytest.raises(KeyMismatchError):
            match_scores_to_key(Trials(["e1"], ["t1"], np.zeros(1)), empty_key)
        values, targets = match_scores_to_key(Trials([], [], np.zeros(0)), empty_key)
        assert values.shape == targets.shape == (0,)
