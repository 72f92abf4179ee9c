import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    make_features,
    make_gmm,
    ragged_posteriors,
    reference_em_step,
    reference_train_gmm,
    reference_weighted_sums,
)
from ivnda import ubm
from ivnda.errors import (
    AlignmentError,
    FormatError,
    InsufficientDataError,
    NumericError,
    RangeError,
    ShapeError,
)
from ivnda.frontend import FeatureMatrix
from ivnda.ubm import (
    CHUNK_FRAMES,
    MAX_ROW_SUM,
    DiagonalGmm,
    PosteriorMatrix,
    _chunks,
    _em_step,
    _m_step,
    gmm_posteriors,
    load_external_posteriors,
    mean_log_likelihood,
    train_gmm,
    train_supervised_gaussians,
    write_posteriors,
)

# --- independent oracle ----------------------------------------------------


def oracle_posteriors(gmm: DiagonalGmm, frames: np.ndarray) -> np.ndarray:
    """Dense Bayes posteriors via per-frame scalar loops."""
    t_count, g_count = frames.shape[0], gmm.num_components
    out = np.zeros((t_count, g_count))
    for t in range(t_count):
        joint = np.zeros(g_count)
        for g in range(g_count):
            logpdf = 0.0
            for d in range(gmm.dim):
                var = gmm.variances[g, d]
                diff = frames[t, d] - gmm.means[g, d]
                logpdf += -0.5 * (
                    math.log(2.0 * math.pi * var) + diff * diff / var
                )
            joint[g] = math.log(gmm.weights[g]) + logpdf
        joint -= joint.max()
        weights = np.exp(joint)
        out[t] = weights / weights.sum()
    return out


def oracle_mixture_ll(gmm: DiagonalGmm, frames: np.ndarray) -> float:
    total = 0.0
    for t in range(frames.shape[0]):
        acc = 0.0
        for g in range(gmm.num_components):
            pdf = gmm.weights[g]
            for d in range(gmm.dim):
                var = gmm.variances[g, d]
                diff = frames[t, d] - gmm.means[g, d]
                pdf *= math.exp(-0.5 * diff * diff / var) / math.sqrt(
                    2.0 * math.pi * var
                )
            acc += pdf
        total += math.log(acc)
    return total / frames.shape[0]


# --- posterior exactness ---------------------------------------------------


@pytest.mark.parametrize("case", range(8))
def test_full_posteriors_match_dense_bayes_oracle(case):
    gen = np.random.default_rng(1000 + case)
    g = int(gen.integers(2, 9))
    d = int(gen.integers(1, 5))
    t = int(gen.integers(3, 30))
    gmm = make_gmm(gen, g, d)
    feats = make_features(gen, t, d)
    got = gmm_posteriors(gmm, feats, top_n=g).to_dense()
    want = oracle_posteriors(gmm, feats.frames)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_posteriors_use_only_speech_frames(rng):
    gmm = make_gmm(rng, 4, 3)
    mask = np.array([True, False, True, True, False])
    feats = make_features(rng, 5, 3, mask=mask)
    post = gmm_posteriors(gmm, feats, top_n=4)
    assert post.num_frames == 3
    want = oracle_posteriors(gmm, feats.frames[mask])
    np.testing.assert_allclose(post.to_dense(), want, rtol=1e-10)


def test_top_n_keeps_largest_and_renormalises(rng):
    gmm = make_gmm(rng, 8, 3)
    feats = make_features(rng, 20, 3)
    dense = oracle_posteriors(gmm, feats.frames)
    post = gmm_posteriors(gmm, feats, top_n=3)
    post.validate()
    for t in range(20):
        idx, val = post.row(t)
        assert idx.size == 3
        assert np.all(np.diff(idx) > 0)  # ascending component ids
        top3 = np.sort(np.argsort(dense[t])[-3:])
        np.testing.assert_array_equal(np.sort(idx), top3)
        np.testing.assert_allclose(val.sum(), 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            val, dense[t, idx] / dense[t, idx].sum(), rtol=1e-10
        )


def test_top_n_larger_than_g_keeps_everything(rng):
    gmm = make_gmm(rng, 4, 2)
    feats = make_features(rng, 10, 2)
    a = gmm_posteriors(gmm, feats, top_n=4).to_dense()
    b = gmm_posteriors(gmm, feats, top_n=100).to_dense()
    np.testing.assert_array_equal(a, b)


def test_posteriors_empty_mask_gives_zero_rows(rng):
    gmm = make_gmm(rng, 4, 2)
    feats = make_features(rng, 6, 2, mask=np.zeros(6, dtype=bool))
    post = gmm_posteriors(gmm, feats, top_n=2)
    assert post.num_frames == 0
    assert post.indices.size == 0


def test_posteriors_longer_than_one_chunk_match_oracle(rng):
    gmm = make_gmm(rng, 4, 2)
    t = 2 * CHUNK_FRAMES + 3
    feats = make_features(rng, t, 2)
    want = oracle_posteriors(gmm, feats.frames)
    full = gmm_posteriors(gmm, feats, top_n=4)
    assert full.num_frames == t
    np.testing.assert_allclose(full.to_dense(), want, rtol=1e-10, atol=1e-12)
    pruned = gmm_posteriors(gmm, feats, top_n=2)
    pruned.validate()
    top2 = np.sort(np.argsort(want, axis=1)[:, -2:], axis=1)
    np.testing.assert_array_equal(pruned.indices.reshape(t, 2), top2)
    kept = np.take_along_axis(want, top2, axis=1)
    np.testing.assert_allclose(
        pruned.values.reshape(t, 2),
        kept / kept.sum(axis=1, keepdims=True),
        rtol=1e-10,
    )


def test_mean_log_likelihood_over_chunks_matches_oracle(rng):
    gmm = make_gmm(rng, 3, 2)
    frames = rng.normal(size=(CHUNK_FRAMES + 5, 2))
    got = mean_log_likelihood(gmm, frames)
    assert got == pytest.approx(oracle_mixture_ll(gmm, frames), rel=1e-10)


def test_mean_log_likelihood_needs_frames(rng):
    with pytest.raises(InsufficientDataError):
        mean_log_likelihood(make_gmm(rng, 2, 3), np.zeros((0, 3)))


def test_mean_log_likelihood_matches_oracle(rng):
    gmm = make_gmm(rng, 5, 3)
    frames = rng.normal(size=(40, 3))
    got = mean_log_likelihood(gmm, frames)
    want = oracle_mixture_ll(gmm, frames)
    assert got == pytest.approx(want, rel=1e-10)


def test_mean_log_likelihood_shape_check(rng):
    gmm = make_gmm(rng, 3, 4)
    with pytest.raises(ShapeError):
        mean_log_likelihood(gmm, rng.normal(size=(10, 3)))


# --- GMM container ---------------------------------------------------------


def test_gmm_validates_shapes():
    with pytest.raises(ShapeError):
        DiagonalGmm(
            weights=np.array([0.5, 0.5]),
            means=np.zeros((3, 2)),
            variances=np.ones((3, 2)),
        )


def test_gmm_rejects_nonpositive_variance():
    with pytest.raises(RangeError):
        DiagonalGmm(
            weights=np.array([1.0]),
            means=np.zeros((1, 2)),
            variances=np.array([[1.0, 0.0]]),
        )


@pytest.mark.parametrize("field", ["weights", "means", "variances"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gmm_rejects_non_finite_parameters(field, bad):
    params = {
        "weights": np.array([0.5, 0.5]),
        "means": np.zeros((2, 2)),
        "variances": np.ones((2, 2)),
    }
    params[field].flat[0] = bad
    with pytest.raises(NumericError, match=field):
        DiagonalGmm(**params)


def test_posterior_matrix_dense_round_trip(rng):
    dense = rng.dirichlet(np.full(5, 1.0), size=7)
    dense[dense < 0.05] = 0.0
    post = PosteriorMatrix.from_dense(dense)
    np.testing.assert_array_equal(post.to_dense(), dense)


def test_posterior_matrix_validate_rejects_bad_rows():
    post = PosteriorMatrix(
        indptr=np.array([0, 2]),
        indices=np.array([0, 1]),
        values=np.array([0.9, 0.4]),
        num_components=2,
    )
    with pytest.raises(RangeError):
        post.validate()


def test_posterior_matrix_validate_rejects_out_of_range_index():
    post = PosteriorMatrix(
        indptr=np.array([0, 1]),
        indices=np.array([5]),
        values=np.array([1.0]),
        num_components=3,
    )
    with pytest.raises(RangeError):
        post.validate()


@pytest.mark.parametrize("t", [1, 7, CHUNK_FRAMES + 3])
def test_dead_component_gets_exact_zeros_without_a_warning(rng, t):
    """A zero-weight component (log weight -inf) is aligned like a mixture
    without it, and no floating-point exception is raised on the way."""
    gmm = make_gmm(rng, 4, 3)
    weights = gmm.weights.copy()
    weights[2] = 0.0
    weights /= weights.sum()
    dead = DiagonalGmm(weights=weights, means=gmm.means, variances=gmm.variances)
    alive = [0, 1, 3]
    live = DiagonalGmm(
        weights=weights[alive], means=gmm.means[alive], variances=gmm.variances[alive]
    )
    feats = make_features(rng, t, 3)
    with np.errstate(all="raise"):
        got = gmm_posteriors(dead, feats, top_n=4).to_dense()
    assert np.all(got[:, 2] == 0.0)
    want = oracle_posteriors(live, feats.frames)
    np.testing.assert_allclose(got[:, alive], want, rtol=1e-10, atol=0)


def test_alignment_memory_follows_the_recording_not_the_chunk(rng):
    """Aligning a short recording allocates for its own frames, well under
    one full (CHUNK_FRAMES, G) float64 buffer."""
    g = 256
    gmm = make_gmm(rng, g, 13)
    feats = make_features(rng, 100, 13)
    gmm_posteriors(gmm, feats, top_n=10)  # warm-up
    tracemalloc.start()
    try:
        gmm_posteriors(gmm, feats, top_n=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CHUNK_FRAMES * g * 8 / 2


# --- GMM training ----------------------------------------------------------


def test_single_component_is_global_moments(rng):
    feats = make_features(rng, 400, 3)
    gmm = train_gmm([feats], 1)
    np.testing.assert_allclose(gmm.weights, [1.0])
    np.testing.assert_allclose(gmm.means[0], feats.frames.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(gmm.variances[0], feats.frames.var(axis=0), rtol=1e-12)


def test_chunked_em_step_matches_dense_reference(rng):
    t = 2 * CHUNK_FRAMES + 3
    frames = rng.normal(0.0, 1.5, size=(t, 3))
    gmm = make_gmm(rng, 4, 3)
    # component 3 sits far from every frame: zero occupancy, so the step
    # leaves it untouched and the next step sees a zero weight
    means = gmm.means.copy()
    means[3] = 1e3
    gmm = DiagonalGmm(weights=gmm.weights, means=means, variances=gmm.variances)
    floor = 1e-3 * frames.var(axis=0)
    for _ in range(2):
        got, got_ll = _em_step(gmm, _chunks(frames), floor)
        want, want_ll = reference_em_step(gmm, frames, floor)
        assert got.weights[3] == 0.0
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-10, atol=0)
        np.testing.assert_allclose(got.means, want.means, rtol=1e-10, atol=0)
        np.testing.assert_allclose(got.variances, want.variances, rtol=1e-10, atol=0)
        assert got_ll == pytest.approx(want_ll, rel=1e-10)
        gmm = got


@pytest.mark.parametrize("occ, alive", [(0.0, False), (1e-10, False), (2e-10, True)])
def test_m_step_keeps_unoccupied_components_with_weight_zero(rng, occ, alive, caplog):
    fallback = make_gmm(rng, 2, 3)
    mean, var = np.array([1.0, -2.0, 0.5]), np.array([0.5, 2.0, 1.5])
    sums = np.array([np.concatenate([n * mean, n * (mean**2 + var), [n]]) for n in (10.0, occ)])
    with caplog.at_level("WARNING"):
        got = _m_step(sums, np.full(3, 1e-6), fallback)
    assert ("zero occupancy" in caplog.text) != alive
    np.testing.assert_allclose(got.means[0], mean, rtol=1e-12)
    np.testing.assert_allclose(got.variances[0], var, rtol=1e-12)
    if alive:
        np.testing.assert_allclose(got.means[1], mean, rtol=1e-12)
        np.testing.assert_allclose(got.weights, np.array([10.0, occ]) / (10.0 + occ), rtol=1e-12)
    else:
        assert np.array_equal(got.means[1], fallback.means[1])
        assert np.array_equal(got.variances[1], fallback.variances[1])
        assert got.weights.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_gmm_rejects_non_finite_frames(rng, bad):
    feats = make_features(rng, 400, 3)
    feats.frames[123, 1] = bad
    with pytest.raises(NumericError, match="frame 123"):
        train_gmm([feats], 2)


def test_train_gmm_ignores_non_finite_non_speech_frames(rng):
    mask = np.ones(400, dtype=bool)
    mask[5] = False
    feats = make_features(rng, 400, 3, mask=mask)
    feats.frames[5, 0] = np.nan
    gmm = train_gmm([feats], 2)
    assert np.isfinite(gmm.means).all()


def _records(rng, speech_counts, dim=3):
    """One record per count, with that many speech frames spread over twice
    as many frames plus one."""
    out = []
    for n in speech_counts:
        mask = np.zeros(2 * n + 1, dtype=bool)
        mask[rng.choice(2 * n + 1, size=n, replace=False)] = True
        out.append(make_features(rng, 2 * n + 1, dim, mask=mask))
    return out


@pytest.mark.parametrize(
    "chunk, slab_chunks, counts, components",
    [
        (CHUNK_FRAMES, ubm.SLAB_CHUNKS, [700, 0, 1500, 333], 1),  # the global Gaussian
        (CHUNK_FRAMES, 1, [700, 0, 1500, 333], 4),
        (16, 3, [37, 5, 0, 61, 29, 100], 4),  # chunks cross slab and record ends
    ],
)
def test_train_gmm_is_bit_identical_to_the_concatenated_reference(
    rng, monkeypatch, chunk, slab_chunks, counts, components
):
    monkeypatch.setattr(ubm, "CHUNK_FRAMES", chunk)
    monkeypatch.setattr(ubm, "SLAB_CHUNKS", slab_chunks)
    feats = _records(rng, counts)
    got_ll, want_ll = [], []
    got = train_gmm(feats, components, iters_per_level=3,
                    on_iteration=lambda *args: got_ll.append(args[3]))
    want = reference_train_gmm(feats, components, iters_per_level=3,
                               on_iteration=lambda *args: want_ll.append(args[3]))
    for name in ("weights", "means", "variances"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert len(got_ll) == 3 * int(math.log2(components))
    assert np.array(got_ll).tobytes() == np.array(want_ll).tobytes()


@pytest.mark.parametrize("chunk, slab_chunks", [(CHUNK_FRAMES, ubm.SLAB_CHUNKS), (16, 3)])
@pytest.mark.parametrize(
    "counts, bad, message",
    [
        ([37, 0, 61, 129], (2, 10), r"\(first at pooled speech frame 47\)$"),
        ([37, 61, 29], None, r"^127 speech frames is too few for 4 components"),
        ([0, 0], None, r"^no speech frames in the training set$"),
    ],
)
def test_train_gmm_errors_match_the_concatenated_reference(
    rng, monkeypatch, chunk, slab_chunks, counts, bad, message
):
    monkeypatch.setattr(ubm, "CHUNK_FRAMES", chunk)
    monkeypatch.setattr(ubm, "SLAB_CHUNKS", slab_chunks)
    feats = _records(rng, counts)
    if bad is not None:
        record, row = bad
        feats[record].frames[np.flatnonzero(feats[record].speech_mask)[row], 1] = np.nan
    with pytest.raises((NumericError, InsufficientDataError)) as want:
        reference_train_gmm(feats, 4)
    with pytest.raises(type(want.value), match=message) as got:
        train_gmm(feats, 4)
    assert str(got.value) == str(want.value)


def _as_float32(feats):
    return [
        FeatureMatrix(f.frames.astype(np.float32), f.speech_mask)
        for f in feats
    ]


def _upcast(feats):
    return [
        FeatureMatrix(f.frames.astype(np.float64), f.speech_mask)
        for f in feats
    ]


def _train_with_lls(feats, components):
    lls = []
    gmm = train_gmm(feats, components, iters_per_level=3,
                    on_iteration=lambda *args: lls.append(args[3]))
    return gmm, np.array(lls)


def _assert_same_gmm(got, want):
    for name in ("weights", "means", "variances"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize(
    "chunk, slab_chunks", [(CHUNK_FRAMES, ubm.SLAB_CHUNKS), (16, 3)]
)
def test_train_gmm_on_float32_records_matches_their_float64_upcast(
    rng, monkeypatch, chunk, slab_chunks
):
    monkeypatch.setattr(ubm, "CHUNK_FRAMES", chunk)
    monkeypatch.setattr(ubm, "SLAB_CHUNKS", slab_chunks)
    single = _as_float32(_records(rng, [700, 0, 1500, 333]))
    assert all(f.frames.dtype == np.float32 for f in single)
    got, got_ll = _train_with_lls(single, 4)
    want, want_ll = _train_with_lls(_upcast(single), 4)
    _assert_same_gmm(got, want)
    assert got_ll.tobytes() == want_ll.tobytes()


def test_pooled_slabs_keep_float32_and_are_widened_not_narrowed(rng, monkeypatch):
    monkeypatch.setattr(ubm, "CHUNK_FRAMES", 16)
    monkeypatch.setattr(ubm, "SLAB_CHUNKS", 3)
    feats = _records(rng, [37, 61, 29, 100])  # the float64 records cross slab ends
    single = _as_float32(feats[:2])

    def pooled(records):
        chunks, count = ubm._pool_speech_frames(records)
        return np.concatenate(chunks), count

    frames, count = pooled(single)
    assert frames.dtype == np.float32 and count == 98
    # A float64 record after float32 ones widens the slabs: no value rounds.
    mixed = single + feats[2:]
    frames, count = pooled(mixed)
    want = np.concatenate([f.speech_frames().astype(np.float64) for f in mixed])
    assert frames.dtype == np.float64 and frames.tobytes() == want.tobytes()
    # Float32 records after float64 ones are widened as they are copied.
    frames, _ = pooled(feats[2:] + single)
    assert frames.dtype == np.float64
    _assert_same_gmm(train_gmm(mixed, 4), train_gmm(_upcast(mixed), 4))
    # Pure float64 input stays float64, bit for bit the concatenated reference.
    frames, _ = pooled(feats)
    want = np.concatenate([f.speech_frames() for f in feats])
    assert frames.dtype == np.float64 and frames.tobytes() == want.tobytes()
    _assert_same_gmm(train_gmm(feats, 4), reference_train_gmm(feats, 4))


def test_augment_squares_float32_frames_in_float64():
    x = np.float32(1.1)
    assert np.float64(x * x) != np.float64(x) ** 2  # the float32 square rounds
    for out in (None, np.empty((3, 1))):
        aug = ubm._augment(np.array([[x]], dtype=np.float32), out)
        assert aug.dtype == np.float64
        assert aug[:, 0].tolist() == [float(x), float(x) ** 2, 1.0]


def test_pooled_chunks_transpose_to_contiguous_rows(rng, monkeypatch):
    """Each pooled (T, D) chunk views D rows of a column-major slab, so the
    (D, T) copy `_augment` makes of it on every EM iteration reads
    contiguous rows, across slab and record ends and for both precisions."""
    monkeypatch.setattr(ubm, "CHUNK_FRAMES", 16)
    monkeypatch.setattr(ubm, "SLAB_CHUNKS", 3)
    feats = _records(rng, [37, 61, 29, 100])
    for records in (feats, _as_float32(feats), _as_float32(feats[:2]) + feats[2:]):
        chunks, count = ubm._pool_speech_frames(records)
        assert [c.shape[0] for c in chunks] == [16] * (count // 16) + [count % 16]
        for chunk in chunks:
            assert chunk.T.strides[1] == chunk.itemsize
            assert all(row.flags.c_contiguous for row in chunk.T)
        want = np.concatenate([f.speech_frames() for f in records])
        assert np.concatenate(chunks).tobytes() == want.astype(chunks[0].dtype).tobytes()


def test_train_gmm_evaluates_its_objective_only_when_observed(rng, monkeypatch, caplog):
    """The same bytes with and without an observer or debug logging, and
    without them EM never computes the per-frame log-likelihood; debug
    lines show the values the observer sees."""
    feats = _records(rng, [700, 0, 1500, 333])
    flags = []
    kernel = ubm._chunked_posteriors

    def recording(gmm, chunks, with_ll=True, density=None):
        flags.append(with_ll)
        return kernel(gmm, chunks, with_ll, density)

    monkeypatch.setattr(ubm, "_chunked_posteriors", recording)
    observed, lls = _train_with_lls(feats, 4)
    assert flags == [True] * 6
    flags.clear()
    with caplog.at_level(logging.INFO, logger="ivnda.ubm"):
        unobserved = train_gmm(feats, 4, iters_per_level=3)
    assert flags == [False] * 6
    assert "ubm iteration" not in caplog.text
    _assert_same_gmm(unobserved, observed)
    for observe in (True, False):
        flags.clear()
        caplog.clear()
        seen = []
        observer = (lambda *args: seen.append(args[3])) if observe else None
        with caplog.at_level(logging.DEBUG, logger="ivnda.ubm"):
            gmm = train_gmm(feats, 4, iters_per_level=3, on_iteration=observer)
        logged = re.findall(
            r"ubm iteration \d+ at \d+ components: mean log-likelihood (\S+)", caplog.text
        )
        _assert_same_gmm(gmm, observed)
        assert flags == [True] * 6
        assert logged == [f"{ll:.6f}" for ll in lls]
        assert seen == (lls.tolist() if observe else [])


def test_alignment_and_statistics_of_float32_records_match_their_upcast(rng):
    gmm = make_gmm(rng, 8, 3)
    feats = _as_float32(_records(rng, [300, 1500]))
    for single, double in zip(feats, _upcast(feats)):
        got = gmm_posteriors(gmm, single, top_n=3)
        want = gmm_posteriors(gmm, double, top_n=3)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.indices, want.indices)
        n, f = got.weighted_sums(single.speech_frames())
        assert f.dtype == np.float64
        assert f.tobytes() == want.weighted_sums(double.speech_frames())[1].tobytes()
        assert mean_log_likelihood(gmm, single.speech_frames()) == mean_log_likelihood(
            gmm, double.speech_frames()
        )
    posts = [gmm_posteriors(gmm, f, top_n=8) for f in feats]
    _assert_same_gmm(
        train_supervised_gaussians(feats, posts, 8),
        train_supervised_gaussians(_upcast(feats), posts, 8),
    )


def test_train_gmm_pools_float32_records_in_four_bytes_per_value(rng):
    dim, per_record = 8, 1000
    feats = _as_float32(_records(rng, [per_record] * 100, dim=dim))
    train_gmm(feats[:2], 2, iters_per_level=1)  # first-call imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_gmm(feats, 2, iters_per_level=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    pooled = 100 * per_record * dim * 4
    # The pooled frames at float32, the last slab's unused rows, one
    # record's speech frames and a few chunk-sized float64 arrays.
    slab = ubm.SLAB_CHUNKS * CHUNK_FRAMES * dim * 4
    assert peak < pooled + slab + 8 * CHUNK_FRAMES * (2 * dim + 1) * 8, peak / pooled


def test_train_gmm_rejects_records_of_different_dimensions(rng):
    feats = [make_features(rng, 300, 3), make_features(rng, 300, 1)]
    with pytest.raises(ShapeError, match="3 and 1"):
        train_gmm(feats, 2)


def test_train_gmm_requires_power_of_two(rng):
    feats = make_features(rng, 500, 2)
    with pytest.raises(ValueError):
        train_gmm([feats], 3)


def test_train_gmm_requires_enough_frames(rng):
    feats = make_features(rng, 150, 2)
    with pytest.raises(InsufficientDataError):
        train_gmm([feats], 4)  # needs 200 frames at 50 per component


def test_train_gmm_finds_separated_clusters():
    gen = np.random.default_rng(42)
    # asymmetric layout: symmetric configurations can leave the
    # deterministic binary split stuck on the symmetry axis
    centers = np.array([[-5.0, -3.0], [-2.0, 2.0], [3.0, 4.0], [4.0, -2.0]])
    frames = np.concatenate(
        [gen.normal(c, 1.0, size=(300, 2)) for c in centers]
    )
    gen.shuffle(frames)
    feats = FeatureMatrix(frames=frames)
    gmm = train_gmm([feats], 4, iters_per_level=10)
    assert gmm.num_components == 4
    np.testing.assert_allclose(gmm.weights.sum(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(gmm.weights, 0.25, atol=0.03)
    # each planted centre has a learned mean well inside its cluster
    for c in centers:
        distances = np.linalg.norm(gmm.means - c, axis=1)
        assert distances.min() < 0.3


def test_train_gmm_deterministic(rng):
    feats = make_features(rng, 600, 3)
    a = train_gmm([feats], 4)
    b = train_gmm([feats], 4)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.variances, b.variances)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_train_gmm_respects_variance_floor():
    gen = np.random.default_rng(7)
    # near-duplicate frames force tiny within-component variance
    base = gen.normal(size=(1, 2))
    frames = np.repeat(base, 220, axis=0) + gen.normal(0, 1e-9, size=(220, 2))
    frames[:110] += 5.0
    feats = FeatureMatrix(frames=frames)
    gmm = train_gmm([feats], 2)
    floor = 1e-3 * frames.var(axis=0)
    assert np.all(gmm.variances >= floor * (1 - 1e-12))


def test_train_gmm_level_ll_non_decreasing(rng):
    feats = make_features(rng, 800, 3)
    seen: list[tuple[int, int, float]] = []
    train_gmm(
        [feats],
        8,
        iters_per_level=5,
        on_iteration=lambda g, i, gmm, ll: seen.append((g, i, ll)),
    )
    assert len(seen) == 15  # three levels (2, 4, 8) x five iterations
    for (g1, _, ll1), (g2, _, ll2) in zip(seen, seen[1:]):
        if g1 == g2:  # within a level EM must not decrease the likelihood
            assert ll2 >= ll1 - 1e-9 * abs(ll1)


def test_train_gmm_improves_over_single_gaussian(rng):
    frames = np.concatenate(
        [
            rng.normal(-4.0, 0.5, size=(300, 2)),
            rng.normal(4.0, 0.5, size=(300, 2)),
        ]
    )
    feats = FeatureMatrix(frames=frames)
    g1 = train_gmm([feats], 1)
    g2 = train_gmm([feats], 2)
    assert mean_log_likelihood(g2, frames) > mean_log_likelihood(g1, frames) + 0.5


# --- supervised estimation -------------------------------------------------


def test_supervised_hard_assignments_recover_cluster_moments(rng):
    frames_a = rng.normal(-3.0, 0.7, size=(60, 2))
    frames_b = rng.normal(3.0, 1.1, size=(40, 2))
    frames = np.concatenate([frames_a, frames_b])
    feats = FeatureMatrix(frames=frames)
    dense = np.zeros((100, 2))
    dense[:60, 0] = 1.0
    dense[60:, 1] = 1.0
    post = PosteriorMatrix.from_dense(dense)
    gmm = train_supervised_gaussians([feats], [post], 2)
    np.testing.assert_allclose(gmm.weights, [0.6, 0.4], rtol=1e-12)
    np.testing.assert_allclose(gmm.means[0], frames_a.mean(axis=0), rtol=1e-10)
    np.testing.assert_allclose(gmm.means[1], frames_b.mean(axis=0), rtol=1e-10)
    np.testing.assert_allclose(gmm.variances[0], frames_a.var(axis=0), rtol=1e-8)
    np.testing.assert_allclose(gmm.variances[1], frames_b.var(axis=0), rtol=1e-8)


def test_supervised_single_component_unit_posteriors_is_global(rng):
    feats = make_features(rng, 80, 3)
    post = PosteriorMatrix.from_dense(np.ones((80, 1)))
    gmm = train_supervised_gaussians([feats], [post], 1)
    np.testing.assert_allclose(gmm.means[0], feats.frames.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(
        gmm.variances[0], feats.frames.var(axis=0), rtol=1e-12
    )


def test_supervised_soft_posteriors_weighted_moments(rng):
    feats = make_features(rng, 50, 2)
    dense = rng.dirichlet(np.full(3, 1.0), size=50)
    post = PosteriorMatrix.from_dense(dense)
    gmm = train_supervised_gaussians([feats], [post], 3)
    for g in range(3):
        w = dense[:, g]
        mean = (w[:, None] * feats.frames).sum(axis=0) / w.sum()
        np.testing.assert_allclose(gmm.means[g], mean, rtol=1e-10)


def test_supervised_dead_component_gets_global_moments(rng, caplog):
    feats = make_features(rng, 60, 2)
    dense = np.zeros((60, 3))
    dense[:, 0] = 0.5
    dense[:, 1] = 0.5
    post = PosteriorMatrix.from_dense(dense)
    with caplog.at_level("WARNING"):
        gmm = train_supervised_gaussians([feats], [post], 3)
    assert "zero occupancy" in caplog.text
    np.testing.assert_allclose(gmm.means[2], feats.frames.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(gmm.variances[2], feats.frames.var(axis=0), rtol=1e-10)
    assert gmm.weights[2] == 0.0  # EM's rule: a dead component keeps weight 0
    assert np.all(gmm_posteriors(gmm, feats, top_n=3).to_dense()[:, 2] == 0.0)


def test_supervised_global_mean_is_bit_for_bit_the_frame_mean(rng):
    """A dead component's fallback mean adds the frames in order, as
    ``frames.mean(axis=0)`` does."""
    feats = make_features(rng, 1500, 3)
    post = PosteriorMatrix.from_dense(np.ones((1500, 1)), num_components=2)
    gmm = train_supervised_gaussians([feats], [post], 2)
    assert gmm.means[1].tobytes() == feats.frames.mean(axis=0).tobytes()


def test_supervised_with_em_responsibilities_is_an_em_step(rng):
    feats = make_features(rng, 2 * CHUNK_FRAMES + 5, 3)
    gmm = make_gmm(rng, 4, 3)
    frames = feats.speech_frames()
    post = gmm_posteriors(gmm, feats, top_n=gmm.num_components)
    got = train_supervised_gaussians([feats], [post], 4, variance_floor_scale=1e-12)
    floor = 1e-12 * frames.var(axis=0)
    want, _ = _em_step(gmm, _chunks(frames), floor)
    assert np.all(want.variances > 1e6 * floor)  # the floor does not bind
    for name in ("weights", "means", "variances"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-10, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_supervised_rejects_non_finite_frames_by_pooled_index(rng, bad):
    first, second = make_features(rng, 5, 3), make_features(rng, 10, 3)
    second.frames[2, 1] = bad
    posts = [PosteriorMatrix.from_dense(np.ones((t, 1))) for t in (5, 10)]
    with pytest.raises(NumericError, match=r"\(first at pooled speech frame 7\)"):
        train_supervised_gaussians([first, second], posts, 1)


def test_supervised_moments_match_add_at_reference(rng):
    feats = make_features(rng, 60, 2)
    post = ragged_posteriors(rng, 60, 4)
    gmm = train_supervised_gaussians([feats], [post], 4)
    occ, first = reference_weighted_sums(post, feats.frames)
    _, second = reference_weighted_sums(post, feats.frames**2)
    assert np.all(occ > 1e-6)
    means = first / occ[:, None]
    floor = 1e-3 * feats.frames.var(axis=0)
    variances = np.maximum(second / occ[:, None] - means**2, floor)
    np.testing.assert_allclose(gmm.weights, occ / occ.sum(), rtol=1e-12)
    np.testing.assert_allclose(gmm.means, means, rtol=1e-10)
    np.testing.assert_allclose(gmm.variances, variances, rtol=1e-10)


def test_supervised_rejects_input_with_nothing_to_estimate(rng):
    with pytest.raises(InsufficientDataError, match="no recordings provided"):
        train_supervised_gaussians([], [], 2)
    silent = make_features(rng, 5, 2, mask=np.zeros(5, dtype=bool))
    no_rows = PosteriorMatrix.from_dense(np.zeros((0, 2)))
    with pytest.raises(InsufficientDataError, match="no speech frames provided"):
        train_supervised_gaussians([silent], [no_rows], 2)
    zeros = PosteriorMatrix(
        indptr=np.arange(6), indices=np.zeros(5), values=np.zeros(5), num_components=2
    )
    with pytest.raises(InsufficientDataError, match="all components have zero occupancy"):
        train_supervised_gaussians([make_features(rng, 5, 2)], [zeros], 2)


def test_supervised_alignment_error(rng):
    feats = make_features(rng, 30, 2)
    post = PosteriorMatrix.from_dense(np.ones((29, 1)))
    with pytest.raises(AlignmentError, match="recording 0: 30 speech frames vs 29"):
        train_supervised_gaussians([feats], [post], 1)
    with pytest.raises(AlignmentError, match="recording 'a': 30 speech frames vs 29"):
        train_supervised_gaussians([feats], [post], 1, recording_ids=["a"])


# --- external posterior files ---------------------------------------------


def test_posterior_file_round_trip(tmp_path, rng):
    dense = rng.dirichlet(np.full(6, 0.8), size=7)
    keep = np.argsort(dense, axis=1)[:, -3:]
    sparse = np.zeros_like(dense)
    np.put_along_axis(sparse, keep, np.take_along_axis(dense, keep, axis=1), axis=1)
    sparse /= sparse.sum(axis=1, keepdims=True)
    post = PosteriorMatrix.from_dense(sparse, num_components=6)
    path = tmp_path / "rec.post"
    write_posteriors(path, post)
    back = load_external_posteriors(path, 6)
    np.testing.assert_allclose(back.to_dense(), post.to_dense(), rtol=1e-15)


def test_posterior_file_renormalises_bad_rows(tmp_path):
    path = tmp_path / "rec.post"
    path.write_text("0:0.5 2:1.5\n\n1:1.0\n")
    post = load_external_posteriors(path, 3)
    dense = post.to_dense()
    assert dense.shape == (2, 3)  # the blank line is not a frame
    np.testing.assert_allclose(dense[0], [0.25, 0.0, 0.75], rtol=1e-12)
    np.testing.assert_allclose(dense[1], [0.0, 1.0, 0.0], rtol=1e-12)


def test_posterior_file_rows_it_keeps_pass_validation(tmp_path):
    """A row within [1 - 1e-4, MAX_ROW_SUM] is kept as it is; every other
    row, one just above 1 + 1e-6 too, is renormalised, so none is rejected."""
    sums = [0.3, 1.0 - 2e-4, 1.0 - 1e-4, 1.0, 1.0 + 5e-7, 1.0 + 2e-6, 1.00005, 1.0 + 1e-4, 2.0]
    path = tmp_path / "rec.post"
    path.write_text("0:0.50003 1:0.50002\n" + "".join(f"0:{s / 2!r} 2:{s / 2!r}\n" for s in sums))
    post = load_external_posteriors(path, 3)
    row_sums = post.to_dense().sum(axis=1)
    np.testing.assert_allclose(row_sums[0], 1.0, rtol=1e-15)
    for got, given in zip(row_sums[1:], sums):
        kept = 1.0 - 1e-4 <= given <= MAX_ROW_SUM
        assert got == pytest.approx(given if kept else 1.0, rel=1e-15), given


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_posterior_file_non_finite_value(tmp_path, value):
    path = tmp_path / "rec.post"
    path.write_text(f"0:1.0\n0:{value} 1:0.5\n")
    with pytest.raises(RangeError) as exc:
        load_external_posteriors(path, 4)
    assert str(exc.value) == f"{path}:2: non-finite posterior {value}"


def test_posterior_file_not_utf8(tmp_path):
    path = tmp_path / "rec.post"
    path.write_bytes(b"0:1.0\n\xff:0.5\n")
    with pytest.raises(FormatError) as exc:
        load_external_posteriors(path, 4)
    assert str(exc.value) == f"{path}:2: bad entry '\ufffd:0.5'"


def test_posterior_file_component_out_of_range(tmp_path):
    path = tmp_path / "rec.post"
    path.write_text("0:1.0\n0:0.5 9:0.5\n")
    with pytest.raises(RangeError) as exc:
        load_external_posteriors(path, 4)
    assert str(exc.value) == f"{path}:2: component 9 out of range [0, 4)"


def test_posterior_file_negative_value(tmp_path):
    path = tmp_path / "rec.post"
    path.write_text("0:1.5 1:-0.5\n")
    with pytest.raises(RangeError) as exc:
        load_external_posteriors(path, 4)
    assert str(exc.value) == f"{path}:1: negative posterior -0.5"


def test_posterior_file_bad_token(tmp_path):
    path = tmp_path / "rec.post"
    path.write_text("0:1.0\n\n0:0.5 nonsense\n")
    with pytest.raises(FormatError) as exc:
        load_external_posteriors(path, 4)
    assert str(exc.value) == f"{path}:3: bad entry 'nonsense'"
