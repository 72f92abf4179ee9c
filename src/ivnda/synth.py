"""Seeded synthetic corpora for desk-scale experiments and acceptance runs.

Three generation levels, all driven by one integer seed:

* i-vector level: speaker latents plus per-session channel offsets, with an
  optional *bimodal* channel mode that places every speaker's sessions in
  one of two channel clusters (two "domains") along a fixed axis.  Exercises
  the discriminant-analysis and backend stages directly.
* statistics level: a planted diagonal GMM and subspace generate
  per-recording zeroth/first-order statistics from the exact session model.
  Exercises subspace training, extraction and everything after.
* audio level: speakers are tone triples over a noise floor; sessions are
  short recordings of tone bursts separated by silence.  One test recording
  can be contaminated with an interferer burst, together with a corrected
  speech-segment file, to exercise the mask-override rescoring path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .da import LabeledVectors
from .fileio import Trials
from .frontend import AudioSignal
from .stats import BwStats
from .tv import TvModel
from .ubm import DiagonalGmm


@dataclass
class VectorSplit:
    """A named set of per-recording vectors with speaker labels."""

    ids: list[str]
    vectors: np.ndarray        # (N, R)
    speakers: list[str]

    def labeled(self) -> LabeledVectors:
        return LabeledVectors(vectors=self.vectors, labels=np.asarray(self.speakers))


def _make_trials(
    enroll: tuple[list[str], list[str]], test: tuple[list[str], list[str]]
) -> tuple[Trials, Trials]:
    """The full enroll x test grid, enroll-major, and a key with the same rows."""
    enroll_ids, enroll_spk = enroll
    test_ids, test_spk = test
    e_codes = np.repeat(np.arange(len(enroll_ids), dtype=np.int32), len(test_ids))
    t_codes = np.tile(np.arange(len(test_ids), dtype=np.int32), len(enroll_ids))
    targets = np.equal.outer(np.asarray(enroll_spk), np.asarray(test_spk)).ravel()
    return (
        Trials.from_codes(enroll_ids, e_codes, test_ids, t_codes),
        Trials.from_codes(enroll_ids, e_codes, test_ids, t_codes, targets),
    )


@dataclass
class IvectorCorpus:
    train: VectorSplit
    enroll: VectorSplit
    test: VectorSplit
    trials: Trials
    key: Trials
    channel_axis: np.ndarray       # planted domain axis (unit norm)
    train_offsets: np.ndarray      # planted channel offsets of train sessions


def make_ivector_corpus(
    seed: int,
    num_train_speakers: int = 100,
    train_sessions: int = 8,
    num_eval_speakers: int = 50,
    eval_sessions: int = 4,
    dim: int = 24,
    speaker_std: float = 1.0,
    channel_std: float = 0.45,
    bimodal: bool = True,
    domain_offset: float = 1.6,
) -> IvectorCorpus:
    """Direct i-vector corpus with speaker/channel structure.

    Session vectors are ``speaker latent + channel offset``.  In bimodal
    mode each speaker is assigned one of two domains and all their sessions
    are shifted by ``±domain_offset`` along a fixed random axis, so pooled
    session offsets form two clusters; with the mode off the offsets are a
    single isotropic Gaussian.  Eval speakers use session 1 for enrollment
    and the rest as test recordings; trials are the full enroll × test
    cross.
    """
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(dim)
    axis /= np.linalg.norm(axis)

    def gen_split(
        prefix: str, num_speakers: int, sessions: int
    ) -> tuple[list[str], np.ndarray, list[str], np.ndarray]:
        ids, speakers, vectors, offsets = [], [], [], []
        for s in range(num_speakers):
            label = f"{prefix}{s + 1:04d}"
            latent = speaker_std * rng.standard_normal(dim)
            domain = 1.0 if rng.random() < 0.5 else -1.0
            for j in range(sessions):
                offset = channel_std * rng.standard_normal(dim)
                if bimodal:
                    offset = offset + domain * domain_offset * axis
                ids.append(f"{label}_s{j + 1:02d}")
                speakers.append(label)
                vectors.append(latent + offset)
                offsets.append(offset)
        return ids, np.asarray(vectors), speakers, np.asarray(offsets)

    tr_ids, tr_vec, tr_spk, tr_off = gen_split("spk", num_train_speakers, train_sessions)
    ev_ids, ev_vec, ev_spk, _ = gen_split("espk", num_eval_speakers, eval_sessions)

    enroll_rows = [i for i, rid in enumerate(ev_ids) if rid.endswith("_s01")]
    test_rows = [i for i in range(len(ev_ids)) if i not in set(enroll_rows)]
    enroll = VectorSplit(
        ids=[ev_ids[i] for i in enroll_rows],
        vectors=ev_vec[enroll_rows],
        speakers=[ev_spk[i] for i in enroll_rows],
    )
    test = VectorSplit(
        ids=[ev_ids[i] for i in test_rows],
        vectors=ev_vec[test_rows],
        speakers=[ev_spk[i] for i in test_rows],
    )
    trials, key = _make_trials(
        (enroll.ids, enroll.speakers), (test.ids, test.speakers)
    )
    return IvectorCorpus(
        train=VectorSplit(ids=tr_ids, vectors=tr_vec, speakers=tr_spk),
        enroll=enroll,
        test=test,
        trials=trials,
        key=key,
        channel_axis=axis,
        train_offsets=tr_off,
    )


@dataclass
class StatsCorpus:
    gmm: DiagonalGmm
    tv_true: TvModel
    train: list[BwStats]
    enroll: list[BwStats]
    test: list[BwStats]
    speakers: dict[str, str]       # recording_id -> speaker label
    trials: Trials
    key: Trials
    latents: dict[str, np.ndarray]  # recording_id -> planted subspace coords


def make_stats_corpus(
    seed: int,
    num_train_speakers: int = 50,
    train_sessions: int = 10,
    num_eval_speakers: int = 25,
    eval_sessions: int = 4,
    num_components: int = 32,
    dim: int = 8,
    rank: int = 16,
    frames_base: float = 1000.0,
    speaker_std: float = 1.0,
    channel_std: float = 0.3,
    residual_scale: float = 1.0,
    bimodal: bool = False,
    domain_offset: float = 1.5,
) -> StatsCorpus:
    """Per-recording statistics drawn from a planted subspace model.

    Each recording's latent coordinates are ``speaker latent + channel
    offset`` (optionally bimodal as in :func:`make_ivector_corpus`).  Frame
    mass is spread over components proportionally to jittered mixture
    weights; first-order statistics follow the exact generative model
    ``f~ ~ N(n * T w, n * sigma)`` scaled by `residual_scale` (0 gives
    noise-free statistics), then un-centered so archives hold raw values.
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(num_components, 5.0))
    means = 3.0 * rng.standard_normal((num_components, dim))
    variances = rng.uniform(0.5, 1.5, size=(num_components, dim))
    gmm = DiagonalGmm(weights=weights, means=means, variances=variances)
    t_true = 0.4 * rng.standard_normal((num_components * dim, rank))
    tv_true = TvModel(t_matrix=t_true, sigma=variances.copy())
    axis = rng.standard_normal(rank)
    axis /= np.linalg.norm(axis)

    speakers: dict[str, str] = {}
    latents: dict[str, np.ndarray] = {}

    def gen_recording(rec_id: str, latent: np.ndarray) -> BwStats:
        total = frames_base * rng.uniform(0.8, 1.2)
        props = weights * np.exp(0.3 * rng.standard_normal(num_components))
        n = total * props / props.sum()
        signal = n[:, None] * (t_true @ latent).reshape(num_components, dim)
        noise = residual_scale * np.sqrt(n[:, None] * variances) * rng.standard_normal(
            (num_components, dim)
        )
        f_raw = signal + noise + n[:, None] * means
        latents[rec_id] = latent
        return BwStats(n=n, f=f_raw, recording_id=rec_id)

    def gen_split(prefix: str, num_speakers: int, sessions: int) -> list[BwStats]:
        out = []
        for s in range(num_speakers):
            label = f"{prefix}{s + 1:04d}"
            latent = speaker_std * rng.standard_normal(rank)
            domain = 1.0 if rng.random() < 0.5 else -1.0
            for j in range(sessions):
                offset = channel_std * rng.standard_normal(rank)
                if bimodal:
                    offset = offset + domain * domain_offset * axis
                rec_id = f"{label}_s{j + 1:02d}"
                speakers[rec_id] = label
                out.append(gen_recording(rec_id, latent + offset))
        return out

    train = gen_split("spk", num_train_speakers, train_sessions)
    eval_all = gen_split("espk", num_eval_speakers, eval_sessions)
    enroll = [s for s in eval_all if s.recording_id.endswith("_s01")]
    test = [s for s in eval_all if not s.recording_id.endswith("_s01")]
    trials, key = _make_trials(
        ([s.recording_id for s in enroll], [speakers[s.recording_id] for s in enroll]),
        ([s.recording_id for s in test], [speakers[s.recording_id] for s in test]),
    )
    return StatsCorpus(
        gmm=gmm,
        tv_true=tv_true,
        train=train,
        enroll=enroll,
        test=test,
        speakers=speakers,
        trials=trials,
        key=key,
        latents=latents,
    )


@dataclass
class AudioRecording:
    recording_id: str
    speaker: str
    signal: AudioSignal
    speech_segments: list[tuple[float, float]]   # the speaker's own bursts
    contaminated: bool = False
    interferer_segments: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class AudioCorpus:
    sample_rate_hz: int
    recordings: list[AudioRecording]
    train_ids: list[str]
    enroll_ids: list[str]
    test_ids: list[str]
    speakers: dict[str, str]
    trials: Trials
    key: Trials

    def contaminated_ids(self) -> list[str]:
        return [r.recording_id for r in self.recordings if r.contaminated]


def _tone_set(rng: np.random.Generator) -> np.ndarray:
    """Three tone frequencies, well separated, within the telephone band."""
    while True:
        freqs = np.sort(rng.uniform(300.0, 3300.0, size=3))
        if np.all(np.diff(freqs) >= 200.0):
            return freqs


def _render_burst(
    rng: np.random.Generator,
    freqs: np.ndarray,
    duration_s: float,
    sample_rate: int,
    amplitude: float,
) -> np.ndarray:
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    burst = np.zeros_like(t)
    for f in freqs:
        gain = amplitude * np.exp(0.15 * rng.standard_normal())
        burst += gain * np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
    return burst


def make_audio_corpus(
    seed: int,
    num_train_speakers: int = 6,
    train_sessions: int = 4,
    num_eval_speakers: int = 4,
    eval_test_sessions: int = 2,
    sample_rate_hz: int = 8000,
    contaminate: int = 1,
    burst_s: float = 1.5,
    gap_s: float = 0.3,
    edge_s: float = 0.35,
    tone_amplitude: float = 0.15,
    noise_level: float = 0.002,
    interferer_gain: float = 1.3,
) -> AudioCorpus:
    """Tone-speaker audio corpus.

    Every speaker is a fixed triple of tone frequencies; a session renders
    two bursts of those tones (with per-session gain jitter) separated by
    silence, over a constant noise floor.  `contaminate` test recordings
    additionally get an interferer burst (a fresh tone triple) inserted
    between their own bursts; their true speech segments are recorded so a
    corrected mask can be written alongside.
    """
    rng = np.random.default_rng(seed)
    recordings: list[AudioRecording] = []
    speakers: dict[str, str] = {}

    def render_session(
        rec_id: str, label: str, freqs: np.ndarray, with_interferer: bool
    ) -> AudioRecording:
        own: list[np.ndarray] = []
        own_segments: list[tuple[float, float]] = []
        interferer_segments: list[tuple[float, float]] = []
        pieces: list[np.ndarray] = []
        cursor = 0.0

        def silence(duration: float) -> None:
            nonlocal cursor
            pieces.append(np.zeros(int(round(duration * sample_rate_hz))))
            cursor += duration

        def burst(tone_freqs: np.ndarray, gain: float, own_burst: bool) -> None:
            nonlocal cursor
            rendered = _render_burst(rng, tone_freqs, burst_s, sample_rate_hz, gain)
            pieces.append(rendered)
            segment = (cursor, cursor + burst_s)
            if own_burst:
                own_segments.append(segment)
            else:
                interferer_segments.append(segment)
            cursor += burst_s

        silence(edge_s)
        burst(freqs, tone_amplitude, own_burst=True)
        silence(gap_s)
        if with_interferer:
            burst(_tone_set(rng), tone_amplitude * interferer_gain, own_burst=False)
            silence(gap_s)
        burst(freqs, tone_amplitude, own_burst=True)
        silence(edge_s)

        samples = np.concatenate(pieces)
        samples = samples + noise_level * rng.standard_normal(samples.size)
        samples = np.clip(samples, -0.999, 0.999)
        speakers[rec_id] = label
        return AudioRecording(
            recording_id=rec_id,
            speaker=label,
            signal=AudioSignal(samples=samples, sample_rate_hz=sample_rate_hz),
            speech_segments=own_segments,
            contaminated=with_interferer,
            interferer_segments=interferer_segments,
        )

    train_ids = []
    for s in range(num_train_speakers):
        label = f"spk{s + 1:04d}"
        freqs = _tone_set(rng)
        for j in range(train_sessions):
            rec_id = f"{label}_s{j + 1:02d}"
            recordings.append(render_session(rec_id, label, freqs, False))
            train_ids.append(rec_id)

    enroll_ids, test_ids = [], []
    contaminated_left = contaminate
    for s in range(num_eval_speakers):
        label = f"espk{s + 1:04d}"
        freqs = _tone_set(rng)
        rec_id = f"{label}_s01"
        recordings.append(render_session(rec_id, label, freqs, False))
        enroll_ids.append(rec_id)
        for j in range(eval_test_sessions):
            rec_id = f"{label}_s{j + 2:02d}"
            with_interferer = contaminated_left > 0 and j == 0
            if with_interferer:
                contaminated_left -= 1
            recordings.append(render_session(rec_id, label, freqs, with_interferer))
            test_ids.append(rec_id)

    trials, key = _make_trials(
        (enroll_ids, [speakers[r] for r in enroll_ids]),
        (test_ids, [speakers[r] for r in test_ids]),
    )
    return AudioCorpus(
        sample_rate_hz=sample_rate_hz,
        recordings=recordings,
        train_ids=train_ids,
        enroll_ids=enroll_ids,
        test_ids=test_ids,
        speakers=speakers,
        trials=trials,
        key=key,
    )
