import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_random_posteriors,
    make_features,
    make_gmm,
    ragged_posteriors,
    reference_weighted_sums,
    sparse_random_posteriors,
)
from ivnda.errors import (
    AlignmentError,
    NumericError,
    RangeError,
    ShapeError,
)
from ivnda.stats import BwStats, accumulate_bw, center_stats
from ivnda.ubm import PosteriorMatrix

# --- independent oracle ----------------------------------------------------


def oracle_bw(frames: np.ndarray, dense_post: np.ndarray):
    """Naive double loop over frames and components."""
    t_count, d = frames.shape
    g = dense_post.shape[1]
    n = np.zeros(g)
    f = np.zeros((g, d))
    for t in range(t_count):
        for comp in range(g):
            gamma = dense_post[t, comp]
            n[comp] += gamma
            for dd in range(d):
                f[comp, dd] += gamma * frames[t, dd]
    return n, f


# --- accumulation ----------------------------------------------------------


@pytest.mark.parametrize("case", range(10))
def test_accumulate_matches_double_loop_oracle(case):
    gen = np.random.default_rng(3000 + case)
    g = int(gen.integers(1, 10))
    d = int(gen.integers(1, 6))
    t = int(gen.integers(1, 40))
    feats = make_features(gen, t, d)
    dense = dense_random_posteriors(gen, t, g)
    post = PosteriorMatrix.from_dense(dense)
    got = accumulate_bw(feats, post, recording_id=f"r{case}")
    want_n, want_f = oracle_bw(feats.frames, dense)
    np.testing.assert_allclose(got.n, want_n, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(got.f, want_f, rtol=1e-10, atol=1e-14)
    assert got.recording_id == f"r{case}"


def test_accumulate_with_sparse_posteriors(rng):
    feats = make_features(rng, 25, 3)
    post = sparse_random_posteriors(rng, 25, 12, per_frame=4)
    got = accumulate_bw(feats, post)
    want_n, want_f = oracle_bw(feats.frames, post.to_dense())
    np.testing.assert_allclose(got.n, want_n, rtol=1e-10)
    np.testing.assert_allclose(got.f, want_f, rtol=1e-10)


def test_accumulate_matches_add_at_reference_on_ragged_rows(rng):
    # empty rows, 1-4 entries per row and repeated component ids in a row,
    # as external posterior files may hold
    mask = np.ones(55, dtype=bool)
    mask[[3, 17]] = False
    feats = make_features(rng, 55, 3, mask=mask)
    post = ragged_posteriors(rng, 53, 7)
    got = accumulate_bw(feats, post)
    want_n, want_f = reference_weighted_sums(post, feats.speech_frames())
    np.testing.assert_allclose(got.n, want_n, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(got.f, want_f, rtol=1e-12, atol=1e-15)


def test_accumulate_skips_non_speech_frames(rng):
    mask = np.array([True] * 10 + [False] * 5)
    feats = make_features(rng, 15, 2, mask=mask)
    dense = dense_random_posteriors(rng, 10, 4)
    got = accumulate_bw(feats, PosteriorMatrix.from_dense(dense))
    want_n, want_f = oracle_bw(feats.frames[:10], dense)
    np.testing.assert_allclose(got.n, want_n, rtol=1e-10)
    np.testing.assert_allclose(got.f, want_f, rtol=1e-10)


def test_accumulate_row_mismatch(rng):
    feats = make_features(rng, 10, 2)
    dense = dense_random_posteriors(rng, 9, 4)
    with pytest.raises(AlignmentError):
        accumulate_bw(feats, PosteriorMatrix.from_dense(dense))


@pytest.mark.parametrize("bad_index", [-1, 4])
def test_accumulate_rejects_out_of_range_component(rng, bad_index):
    feats = make_features(rng, 2, 2)
    post = PosteriorMatrix(
        indptr=np.array([0, 1, 2]),
        indices=np.array([0, bad_index]),
        values=np.array([1.0, 1.0]),
        num_components=4,
    )
    with pytest.raises(RangeError):
        accumulate_bw(feats, post)


def test_accumulate_is_linear_in_posteriors(rng):
    """Splitting a recording's posterior mass across two passes adds up."""
    feats = make_features(rng, 20, 3)
    dense = dense_random_posteriors(rng, 20, 6)
    lam = 0.3
    a = accumulate_bw(feats, PosteriorMatrix.from_dense(lam * dense))
    b = accumulate_bw(feats, PosteriorMatrix.from_dense((1 - lam) * dense))
    whole = accumulate_bw(feats, PosteriorMatrix.from_dense(dense))
    np.testing.assert_allclose(a.n + b.n, whole.n, rtol=1e-12)
    np.testing.assert_allclose(a.f + b.f, whole.f, rtol=1e-12)


def test_accumulate_zero_posteriors_gives_zero_stats(rng):
    feats = make_features(rng, 8, 2)
    post = PosteriorMatrix(
        indptr=np.zeros(9, dtype=np.int64),
        indices=np.zeros(0, dtype=np.int32),
        values=np.zeros(0),
        num_components=4,
    )
    got = accumulate_bw(feats, post)
    np.testing.assert_array_equal(got.n, np.zeros(4))
    np.testing.assert_array_equal(got.f, np.zeros((4, 2)))


def test_zeroth_order_equals_frame_count(rng):
    t = 30
    feats = make_features(rng, t, 3)
    dense = dense_random_posteriors(rng, t, 5)
    got = accumulate_bw(feats, PosteriorMatrix.from_dense(dense))
    assert got.total_frames == pytest.approx(t, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
)
def test_accumulate_property_total_mass(t, g, d):
    gen = np.random.default_rng(t * 1000 + g * 10 + d)
    feats = make_features(gen, t, d)
    dense = dense_random_posteriors(gen, t, g)
    got = accumulate_bw(feats, PosteriorMatrix.from_dense(dense))
    assert got.n.sum() == pytest.approx(t, rel=1e-9)
    np.testing.assert_allclose(
        got.f.sum(axis=0), feats.frames.sum(axis=0), rtol=1e-9
    )


# --- container -------------------------------------------------------------


def test_bwstats_rejects_negative_counts():
    with pytest.raises(RangeError):
        BwStats(n=np.array([-0.1, 1.0]), f=np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["n", "f"])
def test_bwstats_rejects_non_finite(bad, field):
    n, f = np.ones(2), np.zeros((2, 3))
    (n if field == "n" else f).flat[1] = bad
    with pytest.raises(NumericError, match="rec7"):
        BwStats(n=n, f=f, recording_id="rec7")


def test_accumulate_non_finite_frame_names_recording(rng):
    gmm = make_gmm(rng, 4, 3)
    feats = make_features(rng, 20, 3)
    feats.frames[5, 1] = np.nan
    post = sparse_random_posteriors(rng, 20, 4, 2)
    with pytest.raises(NumericError, match="utt-9"):
        accumulate_bw(feats, post, recording_id="utt-9")


def test_bwstats_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        BwStats(n=np.array([1.0, 2.0]), f=np.zeros((3, 2)))


# --- centering -------------------------------------------------------------


def test_center_subtracts_count_weighted_means(rng):
    gmm = make_gmm(rng, 5, 3)
    feats = make_features(rng, 40, 3)
    dense = dense_random_posteriors(rng, 40, 5)
    raw = accumulate_bw(feats, PosteriorMatrix.from_dense(dense))
    before = raw.f.copy()
    centered = center_stats(raw, gmm)
    np.testing.assert_allclose(
        centered, raw.f - raw.n[:, None] * gmm.means, rtol=1e-12
    )
    # raw stats are untouched
    np.testing.assert_array_equal(raw.f, before)


def test_center_model_mismatch(rng):
    gmm = make_gmm(rng, 3, 2)
    raw = BwStats(n=np.ones(4), f=np.ones((4, 2)))
    with pytest.raises(ShapeError):
        center_stats(raw, gmm)


def test_center_zero_count_component_keeps_zero_vector(rng):
    gmm = make_gmm(rng, 3, 2)
    raw = BwStats(n=np.array([2.0, 0.0, 1.0]), f=np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]))
    centered = center_stats(raw, gmm)
    np.testing.assert_array_equal(centered[1], [0.0, 0.0])
