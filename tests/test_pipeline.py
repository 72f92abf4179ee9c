"""Stage-level memory and failure checks of the per-recording stages.

`train_ubm_stage` and `accumulate_stats_stage` read feature records and
external posteriors one recording at a time, so their memory does not grow
with the number of recordings beyond what they keep from each (pooled
speech frames, statistics).  `train_tv_stage` and `extract_ivectors_stage`
hand the raw statistics to TV, which centers them chunk by chunk, so
neither holds a second copy of them.
"""

import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import make_features, make_gmm, sparse_random_posteriors
from ivnda import fileio, pipeline, ubm
from ivnda.config import PipelineConfig
from ivnda.errors import ContractError, DataError
from ivnda.fileio import ManifestEntry
from ivnda.stats import BwStats
from ivnda.tv import TvModel

FRAMES, DIM = 1000, 20
FEAT_FP = 1234


def _write_records(directory, count, rng, fp=FEAT_FP):
    """`count` records of FRAMES frames, every other frame speech; returns
    their manifest entries."""
    directory.mkdir(exist_ok=True)
    mask = np.arange(FRAMES) % 2 == 0
    entries = []
    for i in range(count):
        rec_id = f"rec{i:03d}"
        feats = make_features(rng, FRAMES, DIM, mask=mask)
        fileio.write_feature_record(
            fileio.feature_path(directory, rec_id), feats, fp, {"stage": "features"}
        )
        entries.append(ManifestEntry(recording_id=rec_id, audio_path=""))
    return entries


def _write_posteriors(directory, entries, rng, components):
    """One ``<id>.post`` file per entry, `components` entries per speech
    frame; returns the bytes of one recording's posterior arrays."""
    directory.mkdir()
    for entry in entries:
        post = sparse_random_posteriors(rng, FRAMES // 2, components, components)
        ubm.write_posteriors(directory / f"{entry.recording_id}.post", post)
    return post.indptr.nbytes + post.indices.nbytes + post.values.nbytes


def _config(components=2):
    cfg = PipelineConfig()
    cfg.ubm.num_components = components
    cfg.ubm.iters_per_level = 1
    cfg.ubm.top_n = components
    return cfg


def _write_ubm(path, rng, components=2):
    fileio.write_gmm(path, make_gmm(rng, components, DIM), 99, {"upstream": {"features": FEAT_FP}})


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("source", ["ubm", "posteriors"])
def test_accumulate_stats_memory_does_not_grow_with_recordings(tmp_path, rng, source):
    components = 8
    _write_ubm(tmp_path / "ubm.ivgm", rng, components)
    entries = _write_records(tmp_path / "feats", 16, rng)
    post_bytes = _write_posteriors(tmp_path / "post", entries, rng, components)
    post_dir = tmp_path / "post" if source == "posteriors" else None
    cfg = _config(components)  # top_n = G: the UBM aligns as densely

    def run(count):
        return _peak(
            lambda: pipeline.accumulate_stats_stage(
                tmp_path / "feats", entries[:count], tmp_path / "ubm.ivgm",
                tmp_path / f"stats{count}.ivbw", cfg, posterior_dir=post_dir,
            )
        )

    run(2)  # first-call imports and caches
    grown = run(16) - run(4)
    # 12 more recordings keep only their statistics (G * (D + 1) floats
    # each); holding their frames or posteriors would add 12 times those.
    assert grown < post_bytes < FRAMES * DIM * 8, (grown, post_bytes)


def test_train_ubm_from_posteriors_memory_does_not_grow_with_recordings(tmp_path, rng):
    components = 8
    entries = _write_records(tmp_path / "feats", 16, rng)
    post_bytes = _write_posteriors(tmp_path / "post", entries, rng, components)
    cfg = _config(components)

    def run(count):
        fileio.write_manifest(tmp_path / f"{count}.manifest", entries[:count])
        return _peak(
            lambda: pipeline.train_ubm_stage(
                tmp_path / "feats", tmp_path / f"{count}.manifest",
                tmp_path / f"ubm{count}.ivgm", cfg, posterior_dir=tmp_path / "post",
            )
        )

    run(2)  # first-call imports and caches
    grown = run(16) - run(4)
    # Estimation keeps O(G * D) moment sums, whatever the recording count.
    assert grown < post_bytes, (grown, post_bytes)


def test_train_ubm_peak_is_one_copy_of_the_pooled_speech_frames(tmp_path, rng):
    count = 128
    entries = _write_records(tmp_path / "feats", count, rng)
    fileio.write_manifest(tmp_path / "train.manifest", entries)
    cfg = _config()
    pipeline.train_ubm_stage(  # first-call imports and caches
        tmp_path / "feats", tmp_path / "train.manifest", tmp_path / "warm.ivgm", cfg
    )
    peak = _peak(
        lambda: pipeline.train_ubm_stage(
            tmp_path / "feats", tmp_path / "train.manifest", tmp_path / "ubm.ivgm", cfg
        )
    )
    pooled = count * (FRAMES // 2) * DIM * 8
    # The slabs hold the pooled speech frames once, the last one with up to
    # a slab of unused rows; one record and the EM working set of
    # CHUNK_FRAMES frames come on top.
    slab = ubm.SLAB_CHUNKS * ubm.CHUNK_FRAMES * DIM * 8
    allowance = slab + FRAMES * DIM * 8 + 4 * ubm.CHUNK_FRAMES * (2 * DIM + 1) * 8
    assert peak < pooled + allowance, (peak, pooled)


@pytest.mark.parametrize("stage", ["train-tv", "extract-ivectors"])
def test_tv_stages_hold_no_centered_copy_of_the_statistics(tmp_path, rng, stage):
    g, count, rank = 16, 1000, 4
    fileio.write_gmm(tmp_path / "ubm.ivgm", make_gmm(rng, g, DIM), 99, {})
    stats = [
        BwStats(n=rng.uniform(1.0, 20.0, g), f=rng.normal(size=(g, DIM)), recording_id=f"r{i}")
        for i in range(count)
    ]
    fileio.write_stats_archive(tmp_path / "s.ivbw", stats, 7, {"upstream": {"ubm": 99}})
    model = TvModel(rng.normal(size=(g * DIM, rank)), np.ones((g, DIM)), rank)
    fileio.write_tv_model(tmp_path / "tv.ivtv", model, 8, {"upstream": {"stats": 7}})
    cfg = PipelineConfig()
    cfg.tv.rank, cfg.tv.iters = rank, 1

    def run():
        if stage == "train-tv":
            pipeline.train_tv_stage(tmp_path / "s.ivbw", tmp_path / "ubm.ivgm", tmp_path / "o", cfg)
        else:
            pipeline.extract_ivectors_stage(
                tmp_path / "s.ivbw", tmp_path / "ubm.ivgm", tmp_path / "tv.ivtv", tmp_path / "o"
            )

    run()  # first-call imports and caches
    raw = count * g * (DIM + 1) * 8
    # Above the raw statistics: O(CHUNK) arrays, the model and the output.
    assert _peak(run) - raw < raw, _peak(run) / raw


def test_posterior_content_enters_the_ubm_and_stats_fingerprints(tmp_path, rng, monkeypatch):
    """Two posterior directories give two fingerprints; one directory gives
    the same bytes twice, with one or four workers, reading each file once."""
    components = 4
    _write_ubm(tmp_path / "ubm.ivgm", rng, components)
    entries = _write_records(tmp_path / "feats", 4, rng)
    fileio.write_manifest(tmp_path / "train.manifest", entries)
    for name in ("a", "b"):
        _write_posteriors(tmp_path / name, entries, rng, components)
    reads = Counter()
    read_bytes = Path.read_bytes

    def counting(path):
        if path.suffix == ".post":
            reads[path.name] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting)
    cfg = _config(components)

    def run(name, workers=1):
        cfg.run.workers = workers
        out = tmp_path / f"{name}{workers}"
        out.mkdir(exist_ok=True)
        posteriors = tmp_path / name
        reads.clear()
        pipeline.train_ubm_stage(
            tmp_path / "feats", tmp_path / "train.manifest", out / "ubm.ivgm", cfg, posteriors
        )
        assert set(reads.values()) == {1} and len(reads) == len(entries)
        reads.clear()
        pipeline.accumulate_stats_stage(
            tmp_path / "feats", entries, tmp_path / "ubm.ivgm", out / "s.ivbw", cfg, posteriors
        )
        assert set(reads.values()) == {1} and len(reads) == len(entries)
        fps = (fileio.read_gmm(out / "ubm.ivgm")[1], fileio.read_stats_archive(out / "s.ivbw")[1])
        return fps, [(out / f).read_bytes() for f in ("ubm.ivgm", "s.ivbw")]

    fps_a, bytes_a = run("a")
    fps_b, _ = run("b")
    assert fps_a[0] != fps_b[0] and fps_a[1] != fps_b[1]
    assert run("a")[1] == bytes_a
    assert run("a", workers=4)[1] == bytes_a


def test_missing_record_fails_before_any_alignment(tmp_path, rng, monkeypatch):
    _write_ubm(tmp_path / "ubm.ivgm", rng)
    entries = _write_records(tmp_path / "feats", 4, rng)
    fileio.feature_path(tmp_path / "feats", entries[2].recording_id).unlink()
    aligned = []
    monkeypatch.setattr(ubm, "gmm_posteriors", lambda *args: aligned.append(args))
    with pytest.raises(DataError, match=f"no feature record for recording '{entries[2].recording_id}'"):
        pipeline.accumulate_stats_stage(
            tmp_path / "feats", entries, tmp_path / "ubm.ivgm", tmp_path / "s.ivbw", _config()
        )
    assert aligned == []
    assert not (tmp_path / "s.ivbw").exists()


@pytest.mark.parametrize("stage", ["train-ubm", "accumulate-stats"])
def test_record_with_another_fingerprint_is_named(tmp_path, rng, stage):
    entries = _write_records(tmp_path / "feats", 4, rng)
    odd = fileio.feature_path(tmp_path / "feats", entries[2].recording_id)
    feats, _, meta = fileio.read_feature_record(odd)
    fileio.write_feature_record(odd, feats, FEAT_FP ^ 1, meta)
    fileio.write_manifest(tmp_path / "train.manifest", entries)
    _write_ubm(tmp_path / "ubm.ivgm", rng)
    out = tmp_path / "out"
    with pytest.raises(ContractError) as exc:
        if stage == "train-ubm":
            pipeline.train_ubm_stage(tmp_path / "feats", tmp_path / "train.manifest", out, _config())
        else:
            pipeline.accumulate_stats_stage(
                tmp_path / "feats", entries, tmp_path / "ubm.ivgm", out, _config()
            )
    assert str(exc.value) == (
        f"{odd}: records features fingerprint {FEAT_FP ^ 1}, expected {FEAT_FP} "
        "(fingerprint mismatch)"
    )
    assert not out.exists()


def test_feature_records_can_be_walked_twice(tmp_path, rng):
    entries = _write_records(tmp_path / "feats", 3, rng)
    records = pipeline.FeatureRecords(tmp_path / "feats", [e.recording_id for e in entries])
    first = [f.frames.tobytes() for f in records]
    assert len(records) == 3 and records.fingerprint == FEAT_FP
    assert [f.frames.tobytes() for f in records] == first
    assert records[1].frames.tobytes() == first[1]
