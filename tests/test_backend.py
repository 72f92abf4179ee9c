"""Tests for the scoring backend: normalisation and two-covariance PLDA."""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from helpers import reference_train_plda
from ivnda import backend
from ivnda.backend import (
    CHUNK_TRIALS,
    Normalizer,
    PldaModel,
    fit_normalizer,
    normalize,
    normalize_rows,
    plda_log_likelihood,
    plda_score,
    score_pairs,
    train_plda,
)
from ivnda.da import LabeledVectors
from ivnda.errors import (
    DegenerateVectorError,
    InsufficientDataError,
    MatrixError,
    NormalizationError,
    NumericError,
    RangeError,
    ShapeError,
    UnidentifiableError,
)

# --- oracles ---------------------------------------------------------------


def random_spd(gen: np.random.Generator, m: int, jitter: float = 0.3) -> np.ndarray:
    a = gen.normal(0.0, 1.0, size=(m, m))
    return a @ a.T + jitter * np.eye(m)


def random_plda(gen: np.random.Generator, m: int) -> PldaModel:
    return PldaModel(
        mu=gen.normal(0.0, 1.0, size=m),
        b_cov=random_spd(gen, m),
        w_cov=random_spd(gen, m),
    )


def oracle_llr(enroll, test, model):
    """Same-speaker vs independent log-likelihood ratio via dense Gaussians.

    Under the same-speaker hypothesis the stacked pair is jointly Gaussian
    with covariance [[B+W, B], [B, B+W]]; under the alternative the two
    sessions are independent with covariance B+W each.
    """
    m = model.dim
    total = model.b_cov + model.w_cov
    joint_cov = np.block([[total, model.b_cov], [model.b_cov, total]])
    joint_mean = np.concatenate([model.mu, model.mu])
    same = multivariate_normal.logpdf(
        np.concatenate([enroll, test]), mean=joint_mean, cov=joint_cov
    )
    diff = multivariate_normal.logpdf(
        enroll, mean=model.mu, cov=total
    ) + multivariate_normal.logpdf(test, mean=model.mu, cov=total)
    return float(same - diff)


def oracle_data_ll(model, data):
    """Marginal log-likelihood by building each speaker's dense joint."""
    total = 0.0
    for idx in data.class_indices().values():
        grp = data.vectors[idx]
        mi = grp.shape[0]
        cov = np.kron(np.ones((mi, mi)), model.b_cov) + np.kron(
            np.eye(mi), model.w_cov
        )
        mean = np.tile(model.mu, mi)
        total += multivariate_normal.logpdf(grp.reshape(-1), mean=mean, cov=cov)
    return float(total)


def sample_sessions(
    gen: np.random.Generator,
    num_speakers: int,
    sessions: int,
    m: int,
    b_scale: float = 1.0,
    w_scale: float = 0.4,
) -> LabeledVectors:
    vectors, labels = [], []
    for s in range(num_speakers):
        centre = gen.normal(0.0, b_scale, size=m)
        for _ in range(sessions):
            vectors.append(centre + gen.normal(0.0, w_scale, size=m))
            labels.append(f"spk{s}")
    return LabeledVectors(vectors=np.array(vectors), labels=np.array(labels))


# --- normalisation ---------------------------------------------------------


class TestNormalizer:
    def test_whitener_whitens_training_covariance(self, rng):
        vectors = rng.normal(0.0, 1.0, size=(200, 6)) @ rng.normal(size=(6, 6))
        norm = fit_normalizer(vectors)
        centered = vectors - vectors.mean(axis=0)
        cov = centered.T @ centered / vectors.shape[0]
        np.testing.assert_allclose(
            norm.whitener @ cov @ norm.whitener.T, np.eye(6), atol=1e-8
        )

    def test_outputs_unit_length(self, rng):
        vectors = rng.normal(size=(50, 4))
        norm = fit_normalizer(vectors)
        out = normalize_rows(vectors, norm)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-12)

    def test_single_matches_rows(self, rng):
        vectors = rng.normal(size=(30, 5))
        norm = fit_normalizer(vectors)
        rows = normalize_rows(vectors, norm)
        for i in (0, 7, 29):
            np.testing.assert_allclose(normalize(vectors[i], norm), rows[i], rtol=1e-12)

    def test_rank_deficient_training_data_is_floored(self, rng):
        # All vectors in a 2-D subspace of R^5: the three flat directions
        # are floored at floor_scale * max(e) (1e-10 by default) rather than
        # dividing by zero, and the other two eigenvalues are kept.
        basis = rng.normal(size=(2, 5))
        vectors = rng.normal(size=(40, 2)) @ basis
        centered = vectors - vectors.mean(axis=0)
        values = np.linalg.eigvalsh(centered.T @ centered / len(vectors))
        for norm, floor_scale in ((fit_normalizer(vectors), 1e-10),
                                  (fit_normalizer(vectors, floor_scale=1e-4), 1e-4)):
            assert np.isfinite(norm.whitener).all()
            out = normalize_rows(vectors, norm)
            assert np.isfinite(out).all()
            # whitener = diag(1/sqrt(e_floored)) U', so W W' = diag(1/e_floored)
            floored = 1.0 / np.diag(norm.whitener @ norm.whitener.T)
            want = np.concatenate([np.full(3, floor_scale * values[-1]), values[3:]])
            np.testing.assert_allclose(floored, want, rtol=1e-9)

    def test_mean_vector_cannot_be_normalised(self, rng):
        vectors = rng.normal(size=(20, 3))
        norm = fit_normalizer(vectors)
        with pytest.raises(DegenerateVectorError):
            normalize(vectors.mean(axis=0), norm)

    def test_fit_requires_matrix(self):
        with pytest.raises(ShapeError):
            fit_normalizer(np.zeros(5))

    def test_fit_requires_two_vectors(self):
        with pytest.raises(InsufficientDataError):
            fit_normalizer(np.zeros((1, 4)))

    def test_constant_vectors_rejected(self):
        with pytest.raises(NormalizationError):
            fit_normalizer(np.ones((10, 3)))

    def test_dimension_mismatch(self, rng):
        norm = fit_normalizer(rng.normal(size=(10, 4)))
        with pytest.raises(ShapeError):
            normalize(np.zeros(5), norm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_single_non_finite(self, rng, bad):
        norm = fit_normalizer(rng.normal(size=(10, 3)))
        with pytest.raises(NumericError):
            normalize(np.array([1.0, bad, 0.0]), norm)

    def test_single_must_be_vector(self, rng):
        norm = fit_normalizer(rng.normal(size=(10, 3)))
        with pytest.raises(ShapeError):
            normalize(rng.normal(size=(1, 3)), norm)

    def test_rows_dimension_mismatch(self, rng):
        norm = fit_normalizer(rng.normal(size=(10, 4)))
        with pytest.raises(ShapeError):
            normalize_rows(rng.normal(size=(3, 5)), norm)

    def test_rows_must_be_matrix(self, rng):
        norm = fit_normalizer(rng.normal(size=(10, 4)))
        with pytest.raises(ShapeError):
            normalize_rows(rng.normal(size=4), norm)

    def test_rows_non_finite(self, rng):
        norm = fit_normalizer(rng.normal(size=(10, 4)))
        vectors = rng.normal(size=(3, 4))
        vectors[1, 2] = np.nan
        with pytest.raises(NumericError, match="row 1"):
            normalize_rows(vectors, norm)

    def test_container_validation(self):
        with pytest.raises(ShapeError):
            Normalizer(mean=np.zeros(3), whitener=np.zeros((2, 3)))


# --- PLDA scoring ----------------------------------------------------------


class TestPldaScore:
    @pytest.mark.parametrize("seed,m", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 6), (5, 8)])
    def test_matches_dense_gaussian_ratio(self, seed, m):
        gen = np.random.default_rng(800 + seed)
        model = random_plda(gen, m)
        for _ in range(5):
            enroll = gen.normal(0.0, 1.5, size=m)
            test = gen.normal(0.0, 1.5, size=m)
            got = plda_score(enroll, test, model)
            want = oracle_llr(enroll, test, model)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_hand_computed_scalar_case(self):
        # M=1, mu=0, B=W=1, e=t=1: joint cov [[2,1],[1,2]] gives
        # LLR = log 2 - 0.5 log 3 + 1/6.
        model = PldaModel(mu=np.zeros(1), b_cov=np.eye(1), w_cov=np.eye(1))
        want = math.log(2.0) - 0.5 * math.log(3.0) + 1.0 / 6.0
        assert plda_score(np.ones(1), np.ones(1), model) == pytest.approx(want, rel=1e-12)

    def test_symmetry(self, rng):
        model = random_plda(rng, 5)
        for _ in range(10):
            e = rng.normal(size=5)
            t = rng.normal(size=5)
            a = plda_score(e, t, model)
            b = plda_score(t, e, model)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_identical_vectors_score_higher_than_opposites(self, rng):
        model = PldaModel(mu=np.zeros(3), b_cov=np.eye(3), w_cov=0.3 * np.eye(3))
        v = rng.normal(size=3)
        assert plda_score(v, v, model) > plda_score(v, -v, model)

    def test_score_pairs_matches_scalar_loop(self, rng):
        model = random_plda(rng, 4)
        enroll = rng.normal(size=(6, 4))
        test = rng.normal(size=(5, 4))
        e_idx = np.array([0, 0, 3, 5, 2, 2])
        t_idx = np.array([1, 4, 0, 2, 2, 3])
        got = score_pairs(model, enroll, test, e_idx, t_idx)
        want = [plda_score(enroll[i], test[j], model) for i, j in zip(e_idx, t_idx)]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_score_pairs_empty_trials(self, rng):
        model = random_plda(rng, 4)
        out = score_pairs(
            model,
            rng.normal(size=(3, 4)),
            rng.normal(size=(2, 4)),
            np.array([], dtype=int),
            np.array([], dtype=int),
        )
        assert out.shape == (0,)

    def test_score_pairs_dimension_mismatch(self, rng):
        model = random_plda(rng, 4)
        idx = np.array([0, 1])
        with pytest.raises(ShapeError):
            score_pairs(model, rng.normal(size=(2, 3)), rng.normal(size=(2, 4)), idx, idx)
        with pytest.raises(ShapeError):
            score_pairs(model, rng.normal(size=(2, 4)), rng.normal(size=4), idx, idx)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_score_pairs_non_finite_rejected(self, rng, bad):
        model = random_plda(rng, 4)
        test = rng.normal(size=(3, 4))
        test[2, 1] = bad
        idx = np.array([0, 1])
        with pytest.raises(NumericError):
            score_pairs(model, rng.normal(size=(3, 4)), test, idx, idx)

    def test_score_pairs_index_length_mismatch(self, rng):
        model = random_plda(rng, 4)
        vecs = rng.normal(size=(3, 4))
        with pytest.raises(ShapeError):
            score_pairs(model, vecs, vecs, np.array([0, 1, 2]), np.array([0, 1]))

    @pytest.mark.parametrize("e_idx,t_idx", [([0, 3], [0, 1]), ([0, 1], [-1, 1]), ([0, 1], [0, 5])])
    def test_score_pairs_index_out_of_range(self, rng, e_idx, t_idx):
        model = random_plda(rng, 4)
        with pytest.raises(RangeError):
            score_pairs(
                model, rng.normal(size=(3, 4)), rng.normal(size=(5, 4)),
                np.array(e_idx), np.array(t_idx),
            )

    def test_score_pairs_blocks_match_each_trial_alone(self, rng):
        # Three blocks, the last of 3 trials, over repeated unsorted indices.
        model = random_plda(rng, 4)
        enroll, test = rng.normal(size=(7, 4)), rng.normal(size=(5, 4))
        n = 2 * CHUNK_TRIALS + 3
        e_idx, t_idx = rng.integers(0, 7, n), rng.integers(0, 5, n)
        got = score_pairs(model, enroll, test, e_idx, t_idx)
        alone = np.array([
            [score_pairs(model, enroll, test, np.array([i]), np.array([j]))[0] for j in range(5)]
            for i in range(7)
        ])
        np.testing.assert_array_equal(got, alone[e_idx, t_idx])

    @pytest.mark.parametrize("side,bad", [("enroll", 3), ("test", -1)])
    def test_score_pairs_checks_last_block_before_scoring(self, rng, monkeypatch, side, bad):
        model = random_plda(rng, 4)
        idx = {"enroll": np.zeros(2 * CHUNK_TRIALS + 3, dtype=int)}
        idx["test"] = idx["enroll"].copy()
        idx[side][-1] = bad
        monkeypatch.setattr(PldaModel, "finalize", lambda _: pytest.fail("scored unchecked"))
        with pytest.raises(RangeError, match=side):
            score_pairs(
                model, rng.normal(size=(3, 4)), rng.normal(size=(5, 4)),
                idx["enroll"], idx["test"],
            )

    def test_changed_covariance_changes_the_score(self):
        model = PldaModel(mu=np.zeros(2), b_cov=np.eye(2), w_cov=np.eye(2))
        enroll, test = np.array([1.0, 0.5]), np.array([0.8, 0.2])
        before = plda_score(enroll, test, model)
        model.b_cov = 4.0 * np.eye(2)
        fresh = PldaModel(mu=np.zeros(2), b_cov=4.0 * np.eye(2), w_cov=np.eye(2))
        assert plda_score(enroll, test, model) == plda_score(enroll, test, fresh) != before

    def test_shape_mismatch_rejected(self, rng):
        model = random_plda(rng, 3)
        with pytest.raises(ShapeError):
            plda_score(np.zeros(4), np.zeros(3), model)

    def test_non_finite_rejected(self, rng):
        model = random_plda(rng, 3)
        bad = np.array([1.0, np.nan, 0.0])
        with pytest.raises(NumericError):
            plda_score(bad, np.zeros(3), model)

    def test_asymmetric_covariance_rejected(self):
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(MatrixError):
            PldaModel(mu=np.zeros(3), b_cov=bad, w_cov=np.eye(3))

    def test_indefinite_total_covariance_rejected(self):
        model = PldaModel(mu=np.zeros(2), b_cov=-2.0 * np.eye(2), w_cov=np.eye(2))
        with pytest.raises(MatrixError):
            model.finalize()

    @pytest.mark.parametrize("entry", [(0, 0), (1, 0), (0, 1)])
    def test_non_finite_covariance_rejected(self, entry):
        """A NaN in either triangle fails finalize with a typed error; the
        Cholesky factorisation alone would pass an upper-triangle NaN by."""
        b_cov = np.eye(2)
        b_cov[entry] = np.nan
        model = PldaModel(mu=np.zeros(2), b_cov=b_cov, w_cov=np.eye(2))
        with pytest.raises(MatrixError, match="non-finite"):
            model.finalize()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_score_symmetry_property(seed):
    gen = np.random.default_rng(seed)
    model = random_plda(gen, 3)
    e = gen.normal(size=3)
    t = gen.normal(size=3)
    assert plda_score(e, t, model) == pytest.approx(
        plda_score(t, e, model), rel=1e-10, abs=1e-12
    )


# --- PLDA likelihood and training ------------------------------------------


class TestPldaLikelihood:
    @pytest.mark.parametrize("seed,m,sessions", [(0, 2, 3), (1, 3, 4), (2, 4, 2), (3, 1, 6)])
    def test_matches_dense_joint(self, seed, m, sessions):
        gen = np.random.default_rng(830 + seed)
        model = random_plda(gen, m)
        data = sample_sessions(gen, num_speakers=5, sessions=sessions, m=m)
        got = plda_log_likelihood(model, data)
        want = oracle_data_ll(model, data)
        assert got == pytest.approx(want, rel=1e-10)

    def test_unbalanced_speakers(self, rng):
        model = random_plda(rng, 3)
        vectors = rng.normal(size=(7, 3))
        labels = np.array(["a", "a", "b", "b", "b", "b", "c"])
        data = LabeledVectors(vectors=vectors, labels=labels)
        got = plda_log_likelihood(model, data)
        assert got == pytest.approx(oracle_data_ll(model, data), rel=1e-10)


def mixed_count_sessions(gen: np.random.Generator, m: int) -> LabeledVectors:
    """Speakers with 1, 2, 3 and 5 sessions (several of each, singletons
    included), with the rows of all speakers shuffled together."""
    counts = [1, 3, 2, 5, 1, 3, 1, 2, 5, 3, 1]
    vectors, labels = [], []
    for s, count in enumerate(counts):
        centre = gen.normal(0.0, 1.0, size=m)
        for _ in range(count):
            vectors.append(centre + gen.normal(0.0, 0.4, size=m))
            labels.append(f"spk{s}")
    order = gen.permutation(len(vectors))
    return LabeledVectors(
        vectors=np.array(vectors)[order], labels=np.array(labels)[order]
    )


class TestTrainPlda:
    @pytest.mark.parametrize("seed,m", [(0, 1), (1, 3), (2, 6)])
    def test_matches_per_speaker_reference(self, seed, m):
        data = mixed_count_sessions(np.random.default_rng(860 + seed), m)
        lls = []
        model = train_plda(data, iters=6, on_iteration=lambda it, mdl, ll: lls.append(ll))
        want, want_lls = reference_train_plda(data, iters=6)
        for got_mat, want_mat in (
            (model.mu, want.mu),
            (model.b_cov, want.b_cov),
            (model.w_cov, want.w_cov),
        ):
            np.testing.assert_allclose(
                got_mat, want_mat, rtol=1e-10, atol=1e-10 * np.abs(want_mat).max()
            )
        np.testing.assert_allclose(lls, want_lls, rtol=1e-10)

    def test_iteration_likelihood_non_decreasing(self, rng):
        data = sample_sessions(rng, num_speakers=12, sessions=5, m=3)
        lls = []
        train_plda(data, iters=15, on_iteration=lambda it, model, ll: lls.append(ll))
        assert len(lls) == 15
        diffs = np.diff(lls)
        assert np.all(diffs >= -1e-8 * np.abs(lls[0]))
        assert lls[-1] > lls[0]

    def test_objective_is_evaluated_only_when_observed(self, monkeypatch, caplog):
        """The same bytes with and without an observer or debug logging;
        with neither, the log-likelihood is never evaluated, and debug lines
        show the values the observer sees."""
        data = mixed_count_sessions(np.random.default_rng(870), 4)
        lls = []
        observed = train_plda(data, iters=6, on_iteration=lambda it, mdl, ll: lls.append(ll))

        def same(model):
            return all(
                getattr(model, name).tobytes() == getattr(observed, name).tobytes()
                for name in ("mu", "b_cov", "w_cov")
            )

        log_likelihood = backend._log_likelihood

        def never(*args):
            raise AssertionError("the objective was evaluated")

        monkeypatch.setattr(backend, "_log_likelihood", never)
        with caplog.at_level(logging.INFO, logger="ivnda.backend"):
            assert same(train_plda(data, iters=6))
        monkeypatch.setattr(backend, "_log_likelihood", log_likelihood)
        with caplog.at_level(logging.DEBUG, logger="ivnda.backend"):
            assert same(train_plda(data, iters=6))
        logged = re.findall(r"plda iteration \d+: log-likelihood (\S+)", caplog.text)
        assert logged == [f"{ll:.6f}" for ll in lls]

    def test_final_model_fits_training_data_better_than_init(self, rng):
        data = sample_sessions(rng, num_speakers=10, sessions=4, m=2)
        snapshots = []
        final = train_plda(
            data, iters=10, on_iteration=lambda it, model, ll: snapshots.append(model)
        )
        assert plda_log_likelihood(final, data) >= plda_log_likelihood(
            snapshots[0], data
        )

    def test_learned_model_separates_speakers(self, rng):
        data = sample_sessions(rng, num_speakers=15, sessions=6, m=4, w_scale=0.3)
        model = train_plda(data, iters=8)
        classes = data.class_indices()
        keys = list(classes)
        same, cross = [], []
        for lab in keys[:5]:
            idx = classes[lab]
            same.append(plda_score(data.vectors[idx[0]], data.vectors[idx[1]], model))
        for lab_a, lab_b in zip(keys[:5], keys[5:10]):
            same_a = data.vectors[classes[lab_a][0]]
            other_b = data.vectors[classes[lab_b][0]]
            cross.append(plda_score(same_a, other_b, model))
        assert min(same) > max(cross)

    def test_single_speaker_rejected(self, rng):
        data = LabeledVectors(
            vectors=rng.normal(size=(6, 3)), labels=np.array(["a"] * 6)
        )
        with pytest.raises(UnidentifiableError):
            train_plda(data)

    def test_non_finite_rejected(self):
        vectors = np.zeros((4, 2))
        vectors[1, 0] = np.inf
        data = LabeledVectors(vectors=vectors, labels=np.array(["a", "a", "b", "b"]))
        with pytest.raises(NumericError):
            train_plda(data)

    def test_bad_iteration_count_rejected(self, rng):
        data = sample_sessions(rng, num_speakers=3, sessions=2, m=2)
        with pytest.raises(ValueError):
            train_plda(data, iters=0)

    def test_training_is_deterministic(self, rng):
        data = sample_sessions(rng, num_speakers=8, sessions=3, m=3)
        a = train_plda(data, iters=5)
        b = train_plda(data, iters=5)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.b_cov, b.b_cov)
        np.testing.assert_array_equal(a.w_cov, b.w_cov)

    def test_singleton_sessions_still_train(self, rng):
        # Speakers with a single session leave W driven by the posterior
        # covariance term only; training must stay finite and usable.
        vectors = rng.normal(size=(8, 2))
        labels = np.array(["a", "b", "c", "d", "e", "f", "g", "h"])
        model = train_plda(LabeledVectors(vectors=vectors, labels=labels), iters=3)
        assert np.isfinite(model.b_cov).all() and np.isfinite(model.w_cov).all()
        assert np.isfinite(plda_score(vectors[0], vectors[1], model))
