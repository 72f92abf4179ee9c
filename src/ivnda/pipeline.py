"""Stage orchestration shared by the command-line tools.

Each stage function loads its input artifacts, validates their provenance,
runs the corresponding module, and writes the output artifact with its own
fingerprint and stage metadata.

Fingerprints hash a stage's configuration subset together with the
fingerprints of its upstream artifacts — not file contents — so artifacts
produced by the *same* configuration from different data splits (train /
enroll / test) are interchangeable where that is meaningful, while any
configuration drift is caught immediately.  External posteriors, which no
stage makes, are the one input fingerprinted by content: with them, the
``ubm`` and ``stats`` subsets hold a digest of their files' bytes.

One rule covers every stage.  :func:`_provenance` builds an output's
fingerprint and its ``{"stage", "config", "upstream"}`` header metadata, and
:func:`_require` checks a fingerprint an input records for one of its
upstreams; a mismatch is a :class:`ContractError` (exit 3) naming the input
file, the upstream key and both fingerprints.  ``sad-report`` re-scores by
running the feature, statistics, i-vector and scoring stages themselves, so
it makes their checks and reproduces the recipe's scores exactly.

Feature records (``<id>.ivfa``) and external posteriors (``<id>.post``)
are one file per recording, read through :class:`FeatureRecords` and
:class:`PosteriorFiles` one per access, so ``train-ubm`` and
``accumulate-stats`` hold one recording's record and posteriors at a time
(one per worker thread) besides what they keep from each: pooled speech
frames for EM training, moment sums when the UBM is estimated from
posteriors.  ``accumulate-stats`` keeps nothing: it writes each
recording's statistics to the archive as soon as they and every earlier
recording's are done (:func:`parallel_map`'s bounded window).
``train-tv`` and ``extract-ivectors`` open the statistics archive as a
:class:`~ivnda.fileio.StatsArchive`, which TV reads one chunk at a time,
so none of the statistics stages holds a whole archive.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import tempfile
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from . import backend as backend_mod
from . import da as da_mod
from . import fileio, frontend, stats as stats_mod, synth, tv as tv_mod, ubm as ubm_mod
from .config import FrontendConfig, PipelineConfig
from .errors import (
    ContractError,
    DataError,
    InsufficientDataError,
    KeyMismatchError,
    NoSpeechError,
)
from .fileio import ManifestEntry, fingerprint

log = logging.getLogger(__name__)

T = TypeVar("T")
U = TypeVar("U")


def parallel_map(
    fn: Callable[[T], U], items: Sequence[T], workers: int
) -> Iterator[U]:
    """Order-preserving lazy map, threaded when `workers` exceeds one.

    At most 2 * `workers` items are in the pool or done and waiting ahead of
    the result being consumed, so results are held in a bounded window, not
    all at once.
    """
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque[Future[U]] = deque()
        try:
            for item in items:
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, item))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def resolve_path(base: Path, path: str) -> Path:
    """Resolve a manifest-relative path against the manifest's directory."""
    p = Path(path)
    return p if p.is_absolute() else base / p


def _provenance(
    stage: str, config: dict, upstream: dict[str, int]
) -> tuple[int, dict]:
    """Fingerprint and header metadata of an artifact written by `stage`."""
    meta = {"stage": stage, "config": config, "upstream": upstream}
    return fingerprint(stage, config, upstream), meta


def _require(what: Path, meta: dict, key: str, expected: int) -> None:
    """Check that artifact `what` records `expected` as its `key` upstream."""
    found = meta.get("upstream", {}).get(key)
    if found != expected:
        raise ContractError(
            f"{what}: records {key} fingerprint {found}, expected {expected} "
            "(fingerprint mismatch)"
        )


# --- feature extraction ---------------------------------------------------


def compute_features(
    entry: ManifestEntry,
    base_dir: Path,
    cfg: FrontendConfig,
    *,
    buffers: frontend.WorkBuffers | None = None,
) -> tuple[frontend.FeatureMatrix, list[str]]:
    """Full frontend chain for one manifest entry, its temporaries in
    `buffers` (see :class:`~ivnda.frontend.WorkBuffers`).

    Returns the features and the processing chain actually applied (recorded
    in archive metadata): mfcc, deltas, sad or sad-override, cms, fmllr.
    """
    if not entry.audio_path:
        raise DataError(f"recording {entry.recording_id!r} has no audio path")
    audio = frontend.read_wav(resolve_path(base_dir, entry.audio_path))
    chain = ["mfcc"]
    feats = frontend.compute_mfcc(audio, cfg, buffers=buffers)
    if cfg.include_deltas:
        feats = frontend.append_deltas(feats, cfg.delta_context)
        chain.append("deltas")
    if entry.sad_path:
        mask = frontend.load_sad_mask(
            resolve_path(base_dir, entry.sad_path),
            feats.num_frames,
            audio.sample_rate_hz,
            cfg,
        )
        chain.append("sad-override")
    else:
        mask = frontend.detect_speech(audio, cfg, buffers=buffers)
        chain.append("sad")
    feats = frontend.FeatureMatrix(frames=feats.frames, speech_mask=mask)
    if not mask.any():
        raise NoSpeechError(
            f"recording {entry.recording_id!r} has no speech frames"
        )
    if cfg.apply_cms:
        feats = frontend.apply_cms(feats)
        chain.append("cms")
    if entry.fmllr_path:
        transform = frontend.load_fmllr(resolve_path(base_dir, entry.fmllr_path))
        feats = frontend.apply_fmllr(feats, transform)
        chain.append("fmllr")
    return feats, chain


def extract_features_stage(
    entries: Sequence[ManifestEntry],
    base_dir: Path,
    out_dir: Path,
    cfg: PipelineConfig,
) -> list[tuple[str, str]]:
    """Extract features for `entries` into `out_dir`; their relative paths
    resolve against `base_dir`.

    Returns a per-recording error report (empty when everything succeeded);
    successfully processed recordings are written even when others fail.
    A frontend configuration that would fail every recording raises before
    any is read.  Each worker thread reuses one set of frontend work
    buffers, which are dropped when the stage returns.
    """
    frontend.check_config(cfg.frontend)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = dataclasses.asdict(cfg.frontend)
    feat_fp = fingerprint("frontend", config)
    per_thread = threading.local()

    def work(entry: ManifestEntry) -> tuple[str, str]:
        if not hasattr(per_thread, "buffers"):
            per_thread.buffers = frontend.WorkBuffers()
        try:
            feats, chain = compute_features(
                entry, base_dir, cfg.frontend, buffers=per_thread.buffers
            )
            meta = {
                "stage": "features",
                "recording_id": entry.recording_id,
                "chain": chain,
                "config": config,
            }
            fileio.write_feature_record(
                fileio.feature_path(out_dir, entry.recording_id), feats, feat_fp, meta
            )
            return entry.recording_id, ""
        except FileNotFoundError as exc:
            return entry.recording_id, f"missing file: {exc}"
        except Exception as exc:  # per-recording isolation, reported upward
            return entry.recording_id, str(exc)

    results = parallel_map(work, entries, cfg.run.workers)
    return [(rec_id, err) for rec_id, err in results if err]


class _RecordFiles(Sequence[T]):
    """One file per recording, read one per access.

    Nothing is held between accesses, so a stage that walks the files
    keeps at most one of them (one per worker thread) in memory, and the
    sequence can be walked again.  Construction checks that every file
    exists, so a missing one fails before any work.
    """

    def __init__(self, directory: Path, ids: Sequence[str], paths: list[Path], what: str):
        for rec_id, path in zip(ids, paths):
            if not path.exists():
                raise DataError(f"no {what} for recording {rec_id!r} in {directory}")
        if not paths:
            raise DataError("no recordings to load")
        self.paths = paths

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[T]:
        return map(self.__getitem__, range(len(self)))


class FeatureRecords(_RecordFiles[frontend.FeatureMatrix]):
    """The feature records ``<id>.ivfa`` of `ids` in `feat_dir`.

    Construction reads the first record for :attr:`fingerprint`; every
    record read is then required to carry that fingerprint.
    """

    def __init__(self, feat_dir: Path, ids: Sequence[str]):
        paths = [fileio.feature_path(feat_dir, rec_id) for rec_id in ids]
        super().__init__(feat_dir, ids, paths, "feature record")
        self.fingerprint: int = fileio.read_feature_record(self.paths[0])[1]

    def __getitem__(self, i: int) -> frontend.FeatureMatrix:  # type: ignore[override]
        feats, fp, _ = fileio.read_feature_record(self.paths[i])
        _require(self.paths[i], {"upstream": {"features": fp}}, "features", self.fingerprint)
        return feats


class PosteriorFiles(_RecordFiles[ubm_mod.PosteriorMatrix]):
    """The external frame posteriors ``<id>.post`` of `ids` in `post_dir`,
    one row per speech frame over `num_components` components."""

    # As long as a digest: what a header written before the files are read holds.
    DIGEST_PLACEHOLDER = "0" * 32

    def __init__(self, post_dir: Path, ids: Sequence[str], num_components: int):
        paths = [post_dir / f"{rec_id}.post" for rec_id in ids]
        super().__init__(post_dir, ids, paths, "posterior file")
        self.num_components = num_components
        self._digests = [b""] * len(paths)

    def __getitem__(self, i: int) -> ubm_mod.PosteriorMatrix:  # type: ignore[override]
        data = self.paths[i].read_bytes()  # read once: digested and parsed
        self._digests[i] = hashlib.blake2b(data, digest_size=16).digest()
        return ubm_mod.load_external_posteriors(self.paths[i], self.num_components, data)

    def digest(self) -> str:
        """Digest of every file's bytes in manifest order, once all are read."""
        if not all(self._digests):
            raise ContractError("digest of posterior files not all read")
        return hashlib.blake2b(b"".join(self._digests), digest_size=16).hexdigest()


# --- model training stages ------------------------------------------------


def train_ubm_stage(
    feat_dir: Path,
    manifest_path: Path,
    out_path: Path,
    cfg: PipelineConfig,
    posterior_dir: Path | None = None,
) -> None:
    """Train the UBM by binary-split EM, or, given `posterior_dir`, estimate
    its Gaussians from the external posteriors there in one pass."""
    ids = [e.recording_id for e in fileio.read_manifest(manifest_path)]
    records = FeatureRecords(feat_dir, ids)
    if posterior_dir is None:
        gmm = ubm_mod.train_gmm(
            records,
            cfg.ubm.num_components,
            iters_per_level=cfg.ubm.iters_per_level,
            variance_floor_scale=cfg.ubm.variance_floor_scale,
        )
        # top_n is left out: it belongs to the statistics stage
        subset = {
            "num_components": cfg.ubm.num_components,
            "iters_per_level": cfg.ubm.iters_per_level,
            "variance_floor_scale": cfg.ubm.variance_floor_scale,
        }
    else:
        posteriors = PosteriorFiles(posterior_dir, ids, cfg.ubm.num_components)
        gmm = ubm_mod.train_supervised_gaussians(
            records, posteriors, cfg.ubm.num_components,
            variance_floor_scale=cfg.ubm.variance_floor_scale, recording_ids=ids,
        )
        subset = {
            "num_components": cfg.ubm.num_components,
            "variance_floor_scale": cfg.ubm.variance_floor_scale,
            "external_posteriors": True,
            "posteriors_digest": posteriors.digest(),
        }
    fileio.write_gmm(
        out_path, gmm, *_provenance("ubm", subset, {"features": records.fingerprint})
    )


def accumulate_stats_stage(
    feat_dir: Path,
    entries: Sequence[ManifestEntry],
    ubm_path: Path,
    out_path: Path,
    cfg: PipelineConfig,
    posterior_dir: Path | None = None,
) -> None:
    """Statistics of each recording, aligned by the UBM or, given
    `posterior_dir`, by the external posteriors there."""
    ids = [e.recording_id for e in entries]
    records = FeatureRecords(feat_dir, ids)
    gmm, ubm_fp, ubm_meta = fileio.read_gmm(ubm_path)
    _require(ubm_path, ubm_meta, "features", records.fingerprint)
    external = density = None
    if posterior_dir is not None:
        external = PosteriorFiles(posterior_dir, ids, gmm.num_components)
    else:
        density = ubm_mod.density_weights(gmm)  # one model aligns every recording

    def work(i: int) -> stats_mod.BwStats:
        feats = records[i]
        if external is not None:
            post = external[i]
        else:
            post = ubm_mod.gmm_posteriors(gmm, feats, cfg.ubm.top_n, density=density)
        return stats_mod.accumulate_bw(feats, post, recording_id=ids[i])

    subset = {"top_n": cfg.ubm.top_n, "external_posteriors": external is not None}
    upstream = {"features": records.fingerprint, "ubm": ubm_fp}
    restamp = None
    if external is not None:
        # The posteriors' digest is known once every file is read, after the
        # last record is written: the header holds a placeholder until then.
        subset["posteriors_digest"] = external.DIGEST_PLACEHOLDER

        def restamp() -> tuple[int, dict]:
            final = {**subset, "posteriors_digest": external.digest()}
            return _provenance("stats", final, upstream)

    fileio.write_stats_archive(
        out_path,
        parallel_map(work, range(len(ids)), cfg.run.workers),
        *_provenance("stats", subset, upstream),
        count=len(ids),
        restamp=restamp,
    )


def train_tv_stage(
    stats_path: Path, ubm_path: Path, out_path: Path, cfg: PipelineConfig
) -> None:
    with fileio.StatsArchive(stats_path) as archive:
        gmm, ubm_fp, _ = fileio.read_gmm(ubm_path)
        _require(stats_path, archive.meta, "ubm", ubm_fp)
        # every TvConfig field is a train_tv argument, and all are fingerprinted
        tv_cfg = dataclasses.asdict(cfg.tv)
        model = tv_mod.train_tv(archive, gmm, **tv_cfg)
    upstream = {"stats": archive.fingerprint, "ubm": ubm_fp}
    fileio.write_tv_model(out_path, model, *_provenance("tv", tv_cfg, upstream))


def extract_ivectors_stage(
    stats_path: Path, ubm_path: Path, tv_path: Path, out_path: Path
) -> None:
    with fileio.StatsArchive(stats_path) as archive:
        gmm, ubm_fp, _ = fileio.read_gmm(ubm_path)
        model, tv_fp, tv_meta = fileio.read_tv_model(tv_path)
        _require(stats_path, archive.meta, "ubm", ubm_fp)
        _require(tv_path, tv_meta, "stats", archive.fingerprint)
        ivectors = (archive.recording_ids, tv_mod.extract_ivectors(archive, gmm, model))
    upstream = {"stats": archive.fingerprint, "tv": tv_fp, "ubm": ubm_fp}
    fileio.write_ivector_archive(out_path, ivectors, *_provenance("ivectors", {}, upstream))


def _labels_for(
    ivectors: tuple[list[str], np.ndarray], manifest_path: Path, label_filter: str = ""
) -> da_mod.LabeledVectors:
    import re

    try:
        pattern = re.compile(label_filter) if label_filter else None
    except re.error as exc:
        raise ValueError(f"label filter {label_filter!r} is not a valid pattern: {exc}") from exc
    entries = {e.recording_id: e for e in fileio.read_manifest(manifest_path)}
    ids, vectors = ivectors
    keep, labels = np.zeros(len(ids), dtype=bool), []
    for i, rec_id in enumerate(ids):
        entry = entries.get(rec_id)
        if entry is None:
            raise DataError(f"recording {rec_id!r} is not in the manifest")
        if not entry.speaker:
            raise DataError(f"recording {rec_id!r} has no speaker label")
        if pattern is None or pattern.search(entry.speaker):
            keep[i] = True
            labels.append(entry.speaker)
    if not labels:
        raise InsufficientDataError("label filter left no training vectors")
    return da_mod.LabeledVectors(vectors=vectors[keep], labels=np.asarray(labels))


def _filtered(config: dict, label_filter: str) -> dict:
    """`config` plus a non-empty `label_filter`: a filter changes what is
    trained, so it is part of the fingerprint.  Left out when empty, so
    unfiltered artifacts keep their fingerprints."""
    return {**config, "label_filter": label_filter} if label_filter else config


def train_da_stage(
    ivector_path: Path,
    manifest_path: Path,
    out_path: Path,
    cfg: PipelineConfig,
    label_filter: str = "",
) -> None:
    ivectors, iv_fp, _ = fileio.read_ivector_archive(ivector_path)
    data = _labels_for(ivectors, manifest_path, label_filter)
    if cfg.da.method == "lda":
        proj = da_mod.compute_lda(data, cfg.da.dim)
    elif cfg.da.method == "nda":
        proj = da_mod.compute_nda(
            data,
            cfg.da.k,
            cfg.da.alpha,
            cfg.da.dim,
            one_vs_rest=not cfg.da.all_pairs,
        )
    else:
        raise ValueError(f"unknown DA method {cfg.da.method!r}")
    fileio.write_projection(
        out_path,
        proj,
        *_provenance(
            "da", _filtered(dataclasses.asdict(cfg.da), label_filter), {"ivectors": iv_fp}
        ),
    )


def train_plda_stage(
    ivector_path: Path,
    manifest_path: Path,
    projection_path: Path,
    out_plda: Path,
    out_normalizer: Path,
    cfg: PipelineConfig,
    label_filter: str = "",
) -> None:
    ivectors, iv_fp, _ = fileio.read_ivector_archive(ivector_path)
    proj, da_fp, da_meta = fileio.read_projection(projection_path)
    _require(projection_path, da_meta, "ivectors", iv_fp)
    data = _labels_for(ivectors, manifest_path, label_filter)
    projected = da_mod.project(data.vectors, proj)
    normalizer = backend_mod.fit_normalizer(projected)
    normalized = backend_mod.normalize_rows(projected, normalizer)
    model = backend_mod.train_plda(
        da_mod.LabeledVectors(vectors=normalized, labels=data.labels),
        iters=cfg.plda.iters,
    )
    upstream = {"ivectors": iv_fp, "projection": da_fp}
    fileio.write_normalizer(
        out_normalizer,
        normalizer,
        *_provenance("normalizer", _filtered({}, label_filter), upstream),
    )
    fileio.write_plda(
        out_plda,
        model,
        *_provenance("plda", _filtered(dataclasses.asdict(cfg.plda), label_filter), upstream),
    )


# --- scoring and evaluation ----------------------------------------------


def score_stage(
    enroll_path: Path,
    test_path: Path,
    trials_path: Path,
    projection_path: Path,
    normalizer_path: Path,
    plda_path: Path,
    out_path: Path,
) -> list[str]:
    """Score a trial list; returns a report of unknown recording ids."""
    enroll_ivs, enroll_fp, _ = fileio.read_ivector_archive(enroll_path)
    test_ivs, test_fp, _ = fileio.read_ivector_archive(test_path)
    proj, da_fp, da_meta = fileio.read_projection(projection_path)
    normalizer, _, nz_meta = fileio.read_normalizer(normalizer_path)
    plda, _, plda_meta = fileio.read_plda(plda_path)
    _require(test_path, {"upstream": {"ivectors": test_fp}}, "ivectors", enroll_fp)
    _require(projection_path, da_meta, "ivectors", enroll_fp)
    _require(normalizer_path, nz_meta, "projection", da_fp)
    _require(plda_path, plda_meta, "projection", da_fp)
    trials = fileio.read_trials(trials_path)

    def prepare(
        ivs: tuple[list[str], np.ndarray], vocab: list[str], codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The normalised vectors, and the row in them of each trial's
        recording (-1 where there is none); ids are looked up once each."""
        ids, raw = ivs
        index = {rec_id: i for i, rec_id in enumerate(ids)}
        rows = np.fromiter(map(index.get, vocab, repeat(-1)), dtype=np.int32, count=len(vocab))
        # an empty archive may record R = 0; it has no rows to project either way
        raw = raw if ids else np.empty((0, proj.input_dim))
        vecs = backend_mod.normalize_rows(da_mod.project(raw, proj), normalizer)
        return vecs, rows[codes]

    enroll_vecs, e_idx = prepare(enroll_ivs, trials.enroll_vocab, trials.enroll_codes)
    test_vecs, t_idx = prepare(test_ivs, trials.test_vocab, trials.test_codes)
    known = (e_idx >= 0) & (t_idx >= 0)
    unknown = [" ".join(trials.ids(i)) for i in np.flatnonzero(~known).tolist()]
    if unknown:
        trials = trials.take(np.flatnonzero(known))
        e_idx, t_idx = e_idx[known], t_idx[known]
    trials.values = backend_mod.score_pairs(
        plda, enroll_vecs, test_vecs, e_idx, t_idx
    )
    fileio.write_scores(out_path, trials)
    return unknown


# --- SAD-override rescoring ----------------------------------------------


def sad_report_stage(
    orig_scores_path: Path,
    manifest_path: Path,
    trials_path: Path,
    key_path: Path,
    ubm_path: Path,
    tv_path: Path,
    projection_path: Path,
    normalizer_path: Path,
    plda_path: Path,
    out_csv: Path,
    cfg: PipelineConfig,
    out_scores: Path | None = None,
) -> dict[str, int]:
    """Re-score only the trials touched by SAD overrides.

    Recordings whose manifest entries carry a speech-mask override are
    re-extracted from audio with that mask; the other side of each affected
    trial is re-extracted with the standard detector.  The recordings go
    through the recipe's own stages (features, statistics, i-vectors,
    scoring) in a temporary directory, which make their usual provenance
    checks, so an unchanged mask reproduces the original score bit for bit.
    Unaffected trials keep their original scores.  Returns summary counts
    of target trials whose scores improved and non-target trials whose
    scores decreased.
    """
    entries = {e.recording_id: e for e in fileio.read_manifest(manifest_path)}
    trials = fileio.read_trials(trials_path)
    key = fileio.read_key(key_path)
    orig = fileio.read_scores(orig_scores_path)

    overridden = {rid for rid, e in entries.items() if e.sad_path}
    if not overridden:
        raise DataError("no manifest entry carries a SAD override")

    def overridden_ids(vocab: list[str]) -> np.ndarray:
        return np.fromiter(map(overridden.__contains__, vocab), dtype=bool, count=len(vocab))

    touched = (
        overridden_ids(trials.enroll_vocab)[trials.enroll_codes]
        | overridden_ids(trials.test_vocab)[trials.test_codes]
    )
    affected = trials.take(np.flatnonzero(touched))
    orig_rows = orig.locate(affected)
    key_rows = key.locate(affected)
    missing = np.flatnonzero((orig_rows < 0) | (key_rows < 0))
    if missing.size:
        i = missing[0]
        trial = affected.ids(i)
        if orig_rows[i] < 0:
            raise KeyMismatchError(
                f"trial {trial} is affected by an override but missing from "
                f"the original scores"
            )
        raise KeyMismatchError(f"trial {trial} is missing from the key")

    needed = sorted(set(affected.enroll) | set(affected.test))
    missing_ids = [rid for rid in needed if rid not in entries]
    if missing_ids:
        raise DataError(f"trial recordings missing from manifest: {missing_ids}")

    new_scores = np.zeros(0)
    if needed:  # an override may touch no trial
        with tempfile.TemporaryDirectory() as tmp_name:
            tmp = Path(tmp_name)
            needed_entries = [entries[rid] for rid in needed]
            failed = extract_features_stage(
                needed_entries, manifest_path.parent, tmp / "feats", cfg
            )
            if failed:
                raise DataError(
                    "feature extraction failed: "
                    + "; ".join(f"{rid}: {err}" for rid, err in failed)
                )
            accumulate_stats_stage(
                tmp / "feats", needed_entries, ubm_path, tmp / "stats.ivbw", cfg
            )
            extract_ivectors_stage(
                tmp / "stats.ivbw", ubm_path, tv_path, tmp / "ivectors.iviv"
            )
            fileio.write_trials(tmp / "trials.txt", affected)
            score_stage(
                tmp / "ivectors.iviv",
                tmp / "ivectors.iviv",
                tmp / "trials.txt",
                projection_path,
                normalizer_path,
                plda_path,
                tmp / "scores.txt",
            )
            new_scores = fileio.read_scores(tmp / "scores.txt").values
    old_scores = orig.values[orig_rows]
    is_target = key.values[key_rows]

    lines = ["enroll_id,test_id,old_score,new_score,target"]
    for e_id, t_id, old_score, new_score, target in zip(
        affected.enroll, affected.test, old_scores, new_scores, is_target
    ):
        lines.append(
            f"{e_id},{t_id},{old_score:.17g},{new_score:.17g},"
            f"{'target' if target else 'nontarget'}"
        )
    fileio.atomic_write_text(out_csv, "\n".join(lines) + "\n")

    if out_scores is not None:
        orig.values[orig_rows] = new_scores
        fileio.write_scores(out_scores, orig)

    return {
        "affected_trials": len(affected),
        "targets_improved": int(np.sum(is_target & (new_scores > old_scores))),
        "nontargets_decreased": int(np.sum(~is_target & (new_scores < old_scores))),
    }


# --- synthetic corpus writing --------------------------------------------


def write_stats_corpus(
    corpus: synth.StatsCorpus, out_dir: Path, synth_cfg: dict
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    ubm_fp, ubm_meta = _provenance("synth-ubm", synth_cfg, {})
    fileio.write_gmm(out_dir / "ubm.ivgm", corpus.gmm, ubm_fp, ubm_meta)
    fileio.write_tv_model(
        out_dir / "tv_true.ivtv",
        corpus.tv_true,
        *_provenance("synth-tv", synth_cfg, {"ubm": ubm_fp}),
    )
    # Synthetic statistics and i-vectors hash as "synth-*" but are labelled
    # with the stage whose output they stand in for.
    stats_fp, stats_meta = _provenance("synth-stats", synth_cfg, {"ubm": ubm_fp})
    stats_meta["stage"] = "stats"
    for name, split in (
        ("train", corpus.train),
        ("enroll", corpus.enroll),
        ("test", corpus.test),
    ):
        fileio.write_stats_archive(
            out_dir / f"{name}.ivbw", split, stats_fp, stats_meta
        )
        fileio.write_manifest(
            out_dir / f"{name}.manifest",
            [
                ManifestEntry(
                    recording_id=s.recording_id,
                    audio_path="",
                    speaker=corpus.speakers[s.recording_id],
                )
                for s in split
            ],
        )
    fileio.write_trials(out_dir / "trials.txt", corpus.trials)
    fileio.write_key(out_dir / "key.txt", corpus.key)


def write_ivector_corpus(
    corpus: synth.IvectorCorpus, out_dir: Path, synth_cfg: dict
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    iv_fp, meta = _provenance("synth-ivectors", synth_cfg, {})
    meta["stage"] = "ivectors"
    for name, split in (
        ("train", corpus.train),
        ("enroll", corpus.enroll),
        ("test", corpus.test),
    ):
        fileio.write_ivector_archive(
            out_dir / f"{name}.iviv", (split.ids, split.vectors), iv_fp, meta
        )
        fileio.write_manifest(
            out_dir / f"{name}.manifest",
            [
                ManifestEntry(recording_id=rid, audio_path="", speaker=spk)
                for rid, spk in zip(split.ids, split.speakers)
            ],
        )
    fileio.write_trials(out_dir / "trials.txt", corpus.trials)
    fileio.write_key(out_dir / "key.txt", corpus.key)


def write_audio_corpus(corpus: synth.AudioCorpus, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    wav_dir = out_dir / "wav"
    wav_dir.mkdir(exist_ok=True)
    mask_dir = out_dir / "masks"
    by_id = {r.recording_id: r for r in corpus.recordings}
    for rec in corpus.recordings:
        frontend.write_wav(wav_dir / f"{rec.recording_id}.wav", rec.signal)
        if rec.contaminated:
            mask_dir.mkdir(exist_ok=True)
            lines = [f"{s:.6f} {e:.6f}" for s, e in rec.speech_segments]
            fileio.atomic_write_text(
                mask_dir / f"{rec.recording_id}.sad", "\n".join(lines) + "\n"
            )

    def entry(rec_id: str, with_override: bool) -> ManifestEntry:
        rec = by_id[rec_id]
        sad = (
            f"masks/{rec_id}.sad" if with_override and rec.contaminated else ""
        )
        return ManifestEntry(
            recording_id=rec_id,
            audio_path=f"wav/{rec_id}.wav",
            speaker=rec.speaker,
            sad_path=sad,
        )

    for name, ids in (
        ("train", corpus.train_ids),
        ("enroll", corpus.enroll_ids),
        ("test", corpus.test_ids),
    ):
        fileio.write_manifest(
            out_dir / f"{name}.manifest", [entry(rid, False) for rid in ids]
        )
    all_ids = corpus.train_ids + corpus.enroll_ids + corpus.test_ids
    fileio.write_manifest(
        out_dir / "override.manifest", [entry(rid, True) for rid in all_ids]
    )
    fileio.write_trials(out_dir / "trials.txt", corpus.trials)
    fileio.write_key(out_dir / "key.txt", corpus.key)
