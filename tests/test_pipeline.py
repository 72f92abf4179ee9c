"""Stage-level memory and failure checks of the per-recording stages.

`train_ubm_stage` and `accumulate_stats_stage` read feature records and
external posteriors one recording at a time, so their memory does not grow
with the number of recordings beyond what they keep from each (pooled
speech frames for EM).  `accumulate_stats_stage` writes each recording's
statistics as it comes.  `train_tv_stage` and `extract_ivectors_stage`
read the statistics archive one chunk at a time into TV's chunk buffers,
so neither holds more than one chunk of statistics.
`extract_features_stage` computes each recording in work buffers that its
worker thread reuses.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import make_features, make_gmm, sparse_random_posteriors
import ivnda
from ivnda import fileio, pipeline, ubm
from ivnda import stats as stats_mod
from ivnda.config import PipelineConfig
from ivnda.errors import ContractError, DataError, NumericError, RangeError, ShapeError
from ivnda.fileio import ManifestEntry
from ivnda.stats import BwStats
from ivnda.tv import CHUNK, TvModel

FRAMES, DIM = 1000, 20
FEAT_FP = 1234


def _write_records(directory, count, rng, fp=FEAT_FP, frames=FRAMES):
    """`count` records of `frames` frames, every other frame speech; returns
    their manifest entries."""
    directory.mkdir(exist_ok=True)
    mask = np.arange(frames) % 2 == 0
    entries = []
    for i in range(count):
        rec_id = f"rec{i:03d}"
        feats = make_features(rng, frames, DIM, mask=mask)
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


def test_posterior_digest_needs_every_file_read(tmp_path, rng):
    """An explicit check, so it holds under ``python -O`` as well."""
    entries = [ManifestEntry(recording_id=f"rec{i}", audio_path="") for i in range(2)]
    _write_posteriors(tmp_path / "post", entries, rng, 4)
    files = pipeline.PosteriorFiles(tmp_path / "post", ["rec0", "rec1"], 4)
    files[0]
    with pytest.raises(ContractError, match="not all read"):
        files.digest()
    files[1]
    per_file = b"".join(
        hashlib.blake2b((tmp_path / "post" / f"{rec_id}.post").read_bytes(), digest_size=16)
        .digest()
        for rec_id in ["rec0", "rec1"]
    )
    assert files.digest() == hashlib.blake2b(per_file, digest_size=16).hexdigest()


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


def test_accumulate_stats_writes_each_record_as_it_comes(tmp_path, rng):
    components = 64
    _write_ubm(tmp_path / "ubm.ivgm", rng, components)
    entries = _write_records(tmp_path / "feats", 400, rng, frames=20)
    cfg = _config(components)

    def run(count):
        return _peak(
            lambda: pipeline.accumulate_stats_stage(
                tmp_path / "feats", entries[:count], tmp_path / "ubm.ivgm",
                tmp_path / f"stats{count}.ivbw", cfg,
            )
        )

    run(2)  # first-call imports and caches
    grown = run(400) - run(100)
    record = components * (DIM + 1) * 8
    # 300 more recordings add their ids and record paths, under 1 kB each;
    # holding their statistics would add 300 * `record` bytes, 3.2 MB.
    assert grown < 300 * 1024, (grown, record)


@pytest.mark.parametrize("workers", [1, 2])
def test_accumulate_stats_computes_the_density_weights_once(tmp_path, rng, monkeypatch, workers):
    """The UBM's density weights are computed once per stage, not per
    recording, and the statistics are those of aligning each recording
    through `gmm_posteriors` alone."""
    _write_ubm(tmp_path / "ubm.ivgm", rng, 8)
    entries = _write_records(tmp_path / "feats", 5, rng, frames=40)
    cfg = _config(8)
    cfg.ubm.top_n = 3
    cfg.run.workers = workers
    calls = Counter()
    density_weights, gmm_posteriors = ubm.density_weights, ubm.gmm_posteriors

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ubm, "density_weights", counted("density", density_weights))
    monkeypatch.setattr(ubm, "gmm_posteriors", counted("align", gmm_posteriors))
    out = tmp_path / "stats.ivbw"
    pipeline.accumulate_stats_stage(tmp_path / "feats", entries, tmp_path / "ubm.ivgm", out, cfg)
    assert calls == {"density": 1, "align": 5}
    gmm = fileio.read_gmm(tmp_path / "ubm.ivgm")[0]
    with fileio.StatsArchive(out) as archive:
        for entry, got in zip(entries, archive):
            path = fileio.feature_path(tmp_path / "feats", entry.recording_id)
            feats = fileio.read_feature_record(path)[0]
            want = stats_mod.accumulate_bw(feats, gmm_posteriors(gmm, feats, 3))
            assert got.n.tobytes() == want.n.tobytes() and got.f.tobytes() == want.f.tobytes()


def _write_stats(path, rng, g, count):
    stats = [
        BwStats(n=rng.uniform(1.0, 20.0, g), f=rng.normal(size=(g, DIM)), recording_id=f"r{i}")
        for i in range(count)
    ]
    fileio.write_stats_archive(path, stats, 7, {"upstream": {"ubm": 99}})
    return stats


def _run_tv_stage(stage, tmp_path, stats_path):
    cfg = PipelineConfig()
    cfg.tv.rank, cfg.tv.iters = 4, 1
    out = tmp_path / "out"
    if stage == "train-tv":
        pipeline.train_tv_stage(stats_path, tmp_path / "ubm.ivgm", out, cfg)
    else:
        pipeline.extract_ivectors_stage(stats_path, tmp_path / "ubm.ivgm", tmp_path / "tv.ivtv", out)
    return out


@pytest.fixture
def tv_inputs(tmp_path, rng):
    """A UBM of G=64 and a rank-4 TV model on statistics fingerprinted 7."""
    g, rank = 64, 4
    fileio.write_gmm(tmp_path / "ubm.ivgm", make_gmm(rng, g, DIM), 99, {})
    model = TvModel(rng.normal(size=(g * DIM, rank)), np.ones((g, DIM)))
    fileio.write_tv_model(tmp_path / "tv.ivtv", model, 8, {"upstream": {"stats": 7}})
    return g


@pytest.mark.parametrize("stage", ["train-tv", "extract-ivectors"])
def test_tv_stages_hold_no_centered_copy_of_the_statistics(tmp_path, rng, tv_inputs, stage):
    g = tv_inputs
    for count in (250, 1000):
        _write_stats(tmp_path / f"s{count}.ivbw", rng, g, count)

    def run(count):
        return _peak(lambda: _run_tv_stage(stage, tmp_path, tmp_path / f"s{count}.ivbw"))

    run(250)  # first-call imports and caches
    grown = run(1000) - run(250)
    chunk = CHUNK * g * (DIM + 1) * 8
    # 750 more sessions add one chunk at most, plus their record ids and
    # offsets and, when extracting, their i-vectors; their statistics
    # (750 * g * (DIM + 1) * 8 bytes, 11 chunks) would add far more.
    slack = 750 * 512
    assert grown < chunk + slack, (grown, chunk)


@pytest.mark.parametrize("stage", ["train-tv", "extract-ivectors"])
@pytest.mark.parametrize(
    "tamper, error, message",
    [
        ("nan", NumericError, "recording 'r70': statistics contain non-finite values"),
        ("negative", RangeError, "zeroth-order statistics must be non-negative"),
        ("shape", ShapeError, "recording 'r70': stats are (65, 20) but the UBM is (64, 20)"),
    ],
)
def test_bad_statistics_in_a_later_chunk_fail_before_any_output(
    tmp_path, rng, tv_inputs, stage, tamper, error, message
):
    g = tv_inputs
    stats = _write_stats(tmp_path / "s.ivbw", rng, g, 2 * CHUNK)
    bad = stats[70]  # in the second chunk
    if tamper == "nan":
        bad.f[3, 1] = np.nan
    elif tamper == "negative":
        bad.n[5] = -1.0
    else:
        stats[70] = BwStats(n=np.ones(g + 1), f=np.zeros((g + 1, DIM)), recording_id="r70")
    fileio.write_stats_archive(tmp_path / "s.ivbw", stats, 7, {"upstream": {"ubm": 99}})
    with pytest.raises(error) as exc:
        _run_tv_stage(stage, tmp_path, tmp_path / "s.ivbw")
    assert str(exc.value) == message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.ivbw", "tv.ivtv", "ubm.ivgm"]


def test_posterior_content_enters_the_ubm_fingerprint_not_the_stats_one(
    tmp_path, rng, monkeypatch
):
    """Two posterior directories give two UBM fingerprints but one statistics
    fingerprint, as two splits' posteriors must; one directory gives the same
    bytes twice, with one or four workers, reading each file once."""
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
    assert fps_a[0] != fps_b[0] and fps_a[1] == fps_b[1]
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


def test_parallel_map_keeps_order_within_a_bounded_window():
    started = []

    def square(i):
        started.append(i)
        return i * i

    results = pipeline.parallel_map(square, range(40), workers=2)
    assert next(results) == 0
    assert len(started) <= 4  # 2 * workers submitted before the first result
    assert list(results) == [i * i for i in range(1, 40)]


# Minor page faults of one `ivnda` command in this fresh process.
_FAULTS = """
import resource, sys
from ivnda.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_fresh_extract_features_faults_few_pages_per_recording(tmp_path):
    """Each recording's temporaries are larger than glibc's mmap threshold:
    allocated afresh, they cost about 800 minor faults per 4 s recording.
    In reused buffers, a recording after the first costs a few."""
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": str(Path(ivnda.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def faults(*argv) -> int:
        proc = subprocess.run([sys.executable, "-c", _FAULTS, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return int(proc.stdout.split()[-1])

    faults("synth", "--mode", "audio", "--out-dir", tmp_path, "--seed", "5",
           "--train-speakers", "3", "--train-sessions", "4",
           "--eval-speakers", "2", "--eval-sessions", "1")
    lines = (tmp_path / "train.manifest").read_text().splitlines(keepends=True)
    (tmp_path / "few.manifest").write_text("".join(lines[:4]))
    few = faults("extract-features", "--manifest", tmp_path / "few.manifest",
                 "--out-dir", tmp_path / "few")
    many = faults("extract-features", "--manifest", tmp_path / "train.manifest",
                  "--out-dir", tmp_path / "many")
    assert (many - few) / (len(lines) - 4) < 100
