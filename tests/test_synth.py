"""Tests for the seeded synthetic corpora."""

import numpy as np
import pytest

from ivnda.synth import (
    AudioCorpus,
    IvectorCorpus,
    StatsCorpus,
    make_audio_corpus,
    make_ivector_corpus,
    make_stats_corpus,
)

SMALL_IV = dict(
    num_train_speakers=10, train_sessions=3, num_eval_speakers=4, eval_sessions=3, dim=8
)
SMALL_STATS = dict(
    num_train_speakers=8,
    train_sessions=3,
    num_eval_speakers=4,
    eval_sessions=3,
    num_components=8,
    dim=4,
    rank=6,
)
SMALL_AUDIO = dict(
    num_train_speakers=2, train_sessions=2, num_eval_speakers=2, eval_test_sessions=2
)


def axis_projections(corpus: IvectorCorpus) -> np.ndarray:
    return corpus.train_offsets @ corpus.channel_axis


# --- i-vector level --------------------------------------------------------


class TestIvectorCorpus:
    def test_same_seed_reproduces(self):
        a = make_ivector_corpus(7, **SMALL_IV)
        b = make_ivector_corpus(7, **SMALL_IV)
        np.testing.assert_array_equal(a.train.vectors, b.train.vectors)
        np.testing.assert_array_equal(a.test.vectors, b.test.vectors)
        assert a.train.ids == b.train.ids
        assert a.trials.enroll == b.trials.enroll and a.trials.test == b.trials.test
        assert a.key.enroll == b.key.enroll and a.key.test == b.key.test
        np.testing.assert_array_equal(a.key.values, b.key.values)

    def test_different_seed_differs(self):
        a = make_ivector_corpus(7, **SMALL_IV)
        b = make_ivector_corpus(8, **SMALL_IV)
        assert not np.array_equal(a.train.vectors, b.train.vectors)

    def test_split_sizes(self):
        corpus = make_ivector_corpus(1, **SMALL_IV)
        assert corpus.train.vectors.shape == (30, 8)
        assert len(corpus.train.ids) == len(corpus.train.speakers) == 30
        assert len(corpus.enroll.ids) == 4
        assert len(corpus.test.ids) == 4 * 2
        assert len(corpus.trials) == 4 * 8
        assert set(zip(corpus.key.enroll, corpus.key.test)) == set(
            zip(corpus.trials.enroll, corpus.trials.test)
        )

    def test_enrollment_uses_first_session(self):
        corpus = make_ivector_corpus(2, **SMALL_IV)
        assert all(rid.endswith("_s01") for rid in corpus.enroll.ids)
        assert not any(rid.endswith("_s01") for rid in corpus.test.ids)

    def test_key_reflects_speaker_identity(self):
        corpus = make_ivector_corpus(3, **SMALL_IV)
        spk = dict(zip(corpus.enroll.ids, corpus.enroll.speakers))
        spk.update(zip(corpus.test.ids, corpus.test.speakers))
        for e, t, is_target in zip(corpus.key.enroll, corpus.key.test, corpus.key.values):
            assert is_target == (spk[e] == spk[t])
        targets = corpus.key.values.sum()
        # Each eval speaker contributes (sessions - 1) target trials.
        assert targets == 4 * 2

    def test_labeled_view(self):
        corpus = make_ivector_corpus(4, **SMALL_IV)
        data = corpus.train.labeled()
        assert data.num_vectors == 30
        assert list(data.labels) == corpus.train.speakers

    def test_channel_axis_is_unit(self):
        corpus = make_ivector_corpus(5, **SMALL_IV)
        assert np.linalg.norm(corpus.channel_axis) == pytest.approx(1.0, rel=1e-12)

    def test_bimodal_offsets_form_two_lobes(self):
        corpus = make_ivector_corpus(
            11, num_train_speakers=60, train_sessions=6, num_eval_speakers=4,
            eval_sessions=2, dim=16, bimodal=True, domain_offset=1.6,
        )
        proj = axis_projections(corpus)
        # Almost no mass near zero; plenty near the planted +-offset.
        centre = np.sum(np.abs(proj) < 0.5)
        lobes = np.sum(np.abs(np.abs(proj) - 1.6) < 0.5)
        assert centre < 0.05 * proj.size
        assert lobes > 0.5 * proj.size
        assert np.mean(np.abs(proj)) > 1.0

    def test_unimodal_offsets_are_centred(self):
        corpus = make_ivector_corpus(
            11, num_train_speakers=60, train_sessions=6, num_eval_speakers=4,
            eval_sessions=2, dim=16, bimodal=False,
        )
        proj = axis_projections(corpus)
        assert np.mean(np.abs(proj)) < 0.6
        assert np.sum(np.abs(proj) < 0.5) > 0.5 * proj.size

    def test_sessions_share_speaker_latent(self):
        # Within-speaker spread comes from channels only, so it is far
        # smaller than the speaker-to-speaker spread.
        corpus = make_ivector_corpus(6, bimodal=False, **SMALL_IV)
        data = corpus.train.labeled()
        within = []
        means = []
        for idx in data.class_indices().values():
            grp = data.vectors[idx]
            means.append(grp.mean(axis=0))
            within.append(grp.std(axis=0).mean())
        speaker_spread = np.std(np.stack(means), axis=0).mean()
        assert np.mean(within) < speaker_spread


# --- statistics level ------------------------------------------------------


class TestStatsCorpus:
    def test_same_seed_reproduces(self):
        a = make_stats_corpus(9, **SMALL_STATS)
        b = make_stats_corpus(9, **SMALL_STATS)
        np.testing.assert_array_equal(a.gmm.means, b.gmm.means)
        np.testing.assert_array_equal(a.tv_true.t_matrix, b.tv_true.t_matrix)
        for s_a, s_b in zip(a.train, b.train):
            assert s_a.recording_id == s_b.recording_id
            np.testing.assert_array_equal(s_a.n, s_b.n)
            np.testing.assert_array_equal(s_a.f, s_b.f)

    def test_split_sizes_and_ids(self):
        corpus = make_stats_corpus(1, **SMALL_STATS)
        assert len(corpus.train) == 8 * 3
        assert len(corpus.enroll) == 4
        assert len(corpus.test) == 4 * 2
        assert all(s.recording_id.endswith("_s01") for s in corpus.enroll)
        assert len(corpus.trials) == 4 * 8
        for s in corpus.train + corpus.enroll + corpus.test:
            assert s.recording_id in corpus.speakers
            assert s.recording_id in corpus.latents

    def test_statistics_are_raw_with_positive_mass(self):
        corpus = make_stats_corpus(2, **SMALL_STATS)
        for s in corpus.train:
            assert np.all(s.n > 0.0)
            assert 0.8 * 1000.0 <= s.n.sum() <= 1.2 * 1000.0

    def test_noise_free_statistics_follow_planted_model(self):
        corpus = make_stats_corpus(3, residual_scale=0.0, **SMALL_STATS)
        g, d = corpus.gmm.num_components, corpus.gmm.dim
        for s in corpus.train[:6]:
            latent = corpus.latents[s.recording_id]
            shift = (corpus.tv_true.t_matrix @ latent).reshape(g, d)
            expected = s.n[:, None] * shift + s.n[:, None] * corpus.gmm.means
            np.testing.assert_array_equal(s.f, expected)

    def test_planted_sigma_matches_ubm_variances(self):
        corpus = make_stats_corpus(4, **SMALL_STATS)
        np.testing.assert_array_equal(corpus.tv_true.sigma, corpus.gmm.variances)
        assert corpus.tv_true.rank == SMALL_STATS["rank"]

    def test_key_reflects_speakers(self):
        corpus = make_stats_corpus(5, **SMALL_STATS)
        for e, t, is_target in zip(corpus.key.enroll, corpus.key.test, corpus.key.values):
            assert is_target == (corpus.speakers[e] == corpus.speakers[t])


# --- audio level -----------------------------------------------------------


class TestAudioCorpus:
    def test_same_seed_reproduces(self):
        a = make_audio_corpus(13, **SMALL_AUDIO)
        b = make_audio_corpus(13, **SMALL_AUDIO)
        assert a.train_ids == b.train_ids
        for r_a, r_b in zip(a.recordings, b.recordings):
            np.testing.assert_array_equal(r_a.signal.samples, r_b.signal.samples)

    def test_split_structure(self):
        corpus = make_audio_corpus(1, **SMALL_AUDIO)
        assert len(corpus.train_ids) == 4
        assert len(corpus.enroll_ids) == 2
        assert len(corpus.test_ids) == 4
        assert len(corpus.recordings) == 10
        assert len(corpus.trials) == 2 * 4
        for e, t, is_target in zip(corpus.key.enroll, corpus.key.test, corpus.key.values):
            assert is_target == (corpus.speakers[e] == corpus.speakers[t])

    def test_contamination_marks_one_test_recording(self):
        corpus = make_audio_corpus(2, contaminate=1, **SMALL_AUDIO)
        contaminated = corpus.contaminated_ids()
        assert len(contaminated) == 1
        assert contaminated[0] in corpus.test_ids
        rec = next(r for r in corpus.recordings if r.recording_id == contaminated[0])
        assert rec.contaminated
        assert len(rec.speech_segments) == 2
        assert len(rec.interferer_segments) == 1
        # The interferer sits strictly between the speaker's own bursts.
        (start, end) = rec.interferer_segments[0]
        assert rec.speech_segments[0][1] <= start < end <= rec.speech_segments[1][0]

    def test_contamination_can_be_disabled(self):
        corpus = make_audio_corpus(2, contaminate=0, **SMALL_AUDIO)
        assert corpus.contaminated_ids() == []
        assert all(not r.contaminated for r in corpus.recordings)

    def test_recording_durations(self):
        corpus = make_audio_corpus(3, **SMALL_AUDIO)
        sr = corpus.sample_rate_hz
        clean_s = 0.35 + 1.5 + 0.3 + 1.5 + 0.35
        dirty_s = clean_s + 1.5 + 0.3
        for rec in corpus.recordings:
            expected = dirty_s if rec.contaminated else clean_s
            assert rec.signal.samples.size == int(round(expected * sr))

    def test_bursts_are_louder_than_silence(self):
        corpus = make_audio_corpus(4, **SMALL_AUDIO)
        rec = corpus.recordings[0]
        sr = corpus.sample_rate_hz
        lead_in = rec.signal.samples[: int(0.3 * sr)]
        start, end = rec.speech_segments[0]
        burst = rec.signal.samples[int(start * sr) : int(end * sr)]
        rms = lambda x: np.sqrt(np.mean(x**2))
        assert rms(burst) > 10.0 * rms(lead_in)

    def test_samples_bounded(self):
        corpus = make_audio_corpus(5, **SMALL_AUDIO)
        for rec in corpus.recordings:
            assert np.abs(rec.signal.samples).max() <= 0.999
            assert rec.signal.sample_rate_hz == corpus.sample_rate_hz

    def test_segments_lie_inside_recording(self):
        corpus = make_audio_corpus(6, contaminate=1, **SMALL_AUDIO)
        for rec in corpus.recordings:
            duration = rec.signal.samples.size / corpus.sample_rate_hz
            for start, end in rec.speech_segments + rec.interferer_segments:
                assert 0.0 <= start < end <= duration + 1e-9
