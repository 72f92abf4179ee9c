import math

import numpy as np
import pytest

from helpers import (
    make_features,
    make_gmm,
    ragged_posteriors,
    reference_em_step,
    reference_weighted_sums,
)
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
    DiagonalGmm,
    PosteriorMatrix,
    _em_step,
    gmm_posteriors,
    load_external_posteriors,
    log_component_densities,
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


def test_log_densities_shape_check(rng):
    gmm = make_gmm(rng, 3, 4)
    with pytest.raises(ShapeError):
        log_component_densities(gmm, rng.normal(size=(10, 3)))


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
        got, got_ll = _em_step(gmm, frames, floor)
        want, want_ll = reference_em_step(gmm, frames, floor)
        assert got.weights[3] == 0.0
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-10, atol=0)
        np.testing.assert_allclose(got.means, want.means, rtol=1e-10, atol=0)
        np.testing.assert_allclose(got.variances, want.variances, rtol=1e-10, atol=0)
        assert got_ll == pytest.approx(want_ll, rel=1e-10)
        gmm = got


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
    feats = FeatureMatrix(frames=frames, frame_shift_ms=10.0)
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
    feats = FeatureMatrix(frames=frames, frame_shift_ms=10.0)
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
    feats = FeatureMatrix(frames=frames, frame_shift_ms=10.0)
    g1 = train_gmm([feats], 1)
    g2 = train_gmm([feats], 2)
    assert mean_log_likelihood(g2, frames) > mean_log_likelihood(g1, frames) + 0.5


# --- supervised estimation -------------------------------------------------


def test_supervised_hard_assignments_recover_cluster_moments(rng):
    frames_a = rng.normal(-3.0, 0.7, size=(60, 2))
    frames_b = rng.normal(3.0, 1.1, size=(40, 2))
    frames = np.concatenate([frames_a, frames_b])
    feats = FeatureMatrix(frames=frames, frame_shift_ms=10.0)
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
    assert gmm.weights[2] > 0  # representable but vanishing


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


def test_supervised_alignment_error(rng):
    feats = make_features(rng, 30, 2)
    post = PosteriorMatrix.from_dense(np.ones((29, 1)))
    with pytest.raises(AlignmentError):
        train_supervised_gaussians([feats], [post], 1)


# --- external posterior files ---------------------------------------------


def test_posterior_file_round_trip(tmp_path, rng):
    recs = {}
    for name in ("rec_a", "rec_b"):
        dense = rng.dirichlet(np.full(6, 0.8), size=int(rng.integers(2, 8)))
        keep = np.argsort(dense, axis=1)[:, -3:]
        sparse = np.zeros_like(dense)
        np.put_along_axis(
            sparse, keep, np.take_along_axis(dense, keep, axis=1), axis=1
        )
        sparse /= sparse.sum(axis=1, keepdims=True)
        recs[name] = PosteriorMatrix.from_dense(sparse, num_components=6)
    path = tmp_path / "ext.post"
    write_posteriors(path, recs)
    back = load_external_posteriors(path, 6)
    assert set(back) == {"rec_a", "rec_b"}
    for name, post in recs.items():
        np.testing.assert_allclose(
            back[name].to_dense(), post.to_dense(), rtol=1e-15
        )


def test_posterior_file_renormalises_bad_rows(tmp_path):
    path = tmp_path / "ext.post"
    path.write_text("0:0.5 2:1.5\n1:1.0\n")
    (tmp_path / "ext.post.idx").write_text("rec\n")
    post = load_external_posteriors(path, 3)["rec"]
    dense = post.to_dense()
    np.testing.assert_allclose(dense[0], [0.25, 0.0, 0.75], rtol=1e-12)
    np.testing.assert_allclose(dense[1], [0.0, 1.0, 0.0], rtol=1e-12)


def test_posterior_file_component_out_of_range(tmp_path):
    path = tmp_path / "ext.post"
    path.write_text("0:0.5 9:0.5\n")
    (tmp_path / "ext.post.idx").write_text("rec\n")
    with pytest.raises(RangeError):
        load_external_posteriors(path, 4)


def test_posterior_file_bad_token(tmp_path):
    path = tmp_path / "ext.post"
    path.write_text("0:0.5 nonsense\n")
    (tmp_path / "ext.post.idx").write_text("rec\n")
    with pytest.raises(FormatError):
        load_external_posteriors(path, 4)


def test_posterior_file_missing_index(tmp_path):
    path = tmp_path / "ext.post"
    path.write_text("0:1.0\n")
    with pytest.raises(FormatError):
        load_external_posteriors(path, 4)


def test_posterior_file_repeated_recording_id(tmp_path):
    path = tmp_path / "ext.post"
    path.write_text("0:1.0\n0:1.0\n\n1:1.0\n")
    idx_path = tmp_path / "ext.post.idx"
    idx_path.write_text("r1\n\nr1\n")
    with pytest.raises(FormatError, match="duplicate recording id 'r1'") as exc:
        load_external_posteriors(path, 4)
    assert f"{idx_path}:3:" in str(exc.value)
    assert "first listed on line 1" in str(exc.value)


def test_posterior_file_block_count_mismatch(tmp_path):
    path = tmp_path / "ext.post"
    path.write_text("0:1.0\n\n1:1.0\n")
    (tmp_path / "ext.post.idx").write_text("only_one\n")
    with pytest.raises(AlignmentError):
        load_external_posteriors(path, 4)
