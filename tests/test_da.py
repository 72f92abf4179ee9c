"""Tests for discriminant analysis: scatters, k-NN machinery, projections."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh as scipy_eigh

from ivnda import da
from ivnda.da import (
    LabeledVectors,
    Projection,
    compute_lda,
    compute_nda,
    compute_projection,
    lda_between_scatter,
    nda_between_scatter,
    nda_local_stats,
    project,
    within_class_scatter,
)
from ivnda.errors import (
    DegenerateClassError,
    MatrixError,
    NormalizationError,
    RankError,
    ShapeError,
)

# --- naive oracles ---------------------------------------------------------
#
# Everything below is written with explicit Python loops over lists so the
# reference path shares no vectorised code with the module under test.


def unit_rows(vectors):
    out = []
    for row in vectors:
        norm = math.sqrt(sum(c * c for c in row))
        out.append([c / norm for c in row])
    return out


def cosine_distance(u, v):
    return 1.0 - sum(a * b for a, b in zip(u, v))


def boundary_weight(d_own, d_other, alpha):
    a, b = d_own**alpha, d_other**alpha
    if a + b == 0.0:
        return 0.5
    return min(a, b) / (a + b)


def add_weighted_outer(sb, weight, diff):
    r = len(diff)
    for p in range(r):
        for q in range(r):
            sb[p][q] += weight * diff[p] * diff[q]


def oracle_local_stats(vectors, labels, k, alpha):
    """Per-sample one-vs-rest weights, local means and boundary distances."""
    n = len(vectors)
    unit = unit_rows(vectors)
    weights, means, d_owns, d_rests = [], [], [], []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        rest = [j for j in range(n) if labels[j] != labels[i]]
        d_own = sorted(cosine_distance(unit[i], unit[j]) for j in own)[k - 1]
        # Stable ties: equal distances keep ascending original index.
        ranked = sorted(
            (cosine_distance(unit[i], unit[j]), pos) for pos, j in enumerate(rest)
        )
        chosen = [rest[pos] for _, pos in ranked[:k]]
        d_rest = ranked[k - 1][0]
        mean = [sum(vectors[j][d] for j in chosen) / k for d in range(len(vectors[i]))]
        weights.append(boundary_weight(d_own, d_rest, alpha))
        means.append(mean)
        d_owns.append(d_own)
        d_rests.append(d_rest)
    return weights, means, d_owns, d_rests


def oracle_nda_scatter_one_vs_rest(vectors, labels, k, alpha):
    r = len(vectors[0])
    sb = [[0.0] * r for _ in range(r)]
    weights, means, _, _ = oracle_local_stats(vectors, labels, k, alpha)
    for i, row in enumerate(vectors):
        diff = [row[d] - means[i][d] for d in range(r)]
        add_weighted_outer(sb, weights[i], diff)
    return sb


def oracle_nda_scatter_all_pairs(vectors, labels, k, alpha):
    n = len(vectors)
    r = len(vectors[0])
    unit = unit_rows(vectors)
    classes = {}
    for i, lab in enumerate(labels):
        classes.setdefault(lab, []).append(i)
    sb = [[0.0] * r for _ in range(r)]
    for lab_i, idx_i in classes.items():
        for lab_j, idx_j in classes.items():
            if lab_i == lab_j:
                continue
            for i in idx_i:
                own = [j for j in idx_i if j != i]
                d_own = sorted(cosine_distance(unit[i], unit[j]) for j in own)[k - 1]
                ranked = sorted(
                    (cosine_distance(unit[i], unit[j]), pos)
                    for pos, j in enumerate(idx_j)
                )
                chosen = [idx_j[pos] for _, pos in ranked[:k]]
                d_other = ranked[k - 1][0]
                mean = [sum(vectors[j][d] for j in chosen) / k for d in range(r)]
                diff = [vectors[i][d] - mean[d] for d in range(r)]
                add_weighted_outer(sb, boundary_weight(d_own, d_other, alpha), diff)
    return sb


def oracle_within_scatter(vectors, labels):
    r = len(vectors[0])
    classes = {}
    for i, lab in enumerate(labels):
        classes.setdefault(lab, []).append(i)
    sw = [[0.0] * r for _ in range(r)]
    for idx in classes.values():
        mean = [sum(vectors[j][d] for j in idx) / len(idx) for d in range(r)]
        for j in idx:
            diff = [vectors[j][d] - mean[d] for d in range(r)]
            add_weighted_outer(sw, 1.0, diff)
    return sw


def oracle_lda_between(vectors, labels):
    n = len(vectors)
    r = len(vectors[0])
    classes = {}
    for i, lab in enumerate(labels):
        classes.setdefault(lab, []).append(i)
    mu = [sum(row[d] for row in vectors) / n for d in range(r)]
    sb = [[0.0] * r for _ in range(r)]
    for idx in classes.values():
        mean = [sum(vectors[j][d] for j in idx) / len(idx) for d in range(r)]
        diff = [mean[d] - mu[d] for d in range(r)]
        add_weighted_outer(sb, float(len(idx)), diff)
    return sb


def random_labeled(gen, num_classes, per_class, dim, spread=1.5):
    """Gaussian class clouds; returns row lists plus a LabeledVectors.

    `per_class` is one size for every class or a list of sizes, one per class.
    """
    sizes = per_class if isinstance(per_class, list) else [per_class] * num_classes
    vectors, labels = [], []
    for c in range(num_classes):
        centre = gen.normal(0.0, spread, size=dim)
        for _ in range(sizes[c]):
            vectors.append(centre + gen.normal(0.0, 1.0, size=dim))
            labels.append(f"spk{c}")
    order = gen.permutation(len(vectors))
    vectors = [vectors[i] for i in order]
    labels = [labels[i] for i in order]
    data = LabeledVectors(vectors=np.array(vectors), labels=np.array(labels))
    return [list(map(float, row)) for row in vectors], labels, data


def twinned_labeled(gen, num_classes, per_class, dim):
    """Class clouds in which every vector v has a twin 2v in its class.

    The twins have bitwise-equal unit rows, so every cosine distance comes
    in an exact tie.  Rows are shuffled, so for odd k the k-th nearest
    neighbour in any other class is tied with a twin that falls outside
    the k nearest, and either of the two may have the lower index; only
    the lower-index rule then picks the oracle's neighbour (v and 2v give
    different local means).
    """
    vectors, labels, _ = random_labeled(gen, num_classes, per_class, dim)
    vectors = vectors + [[2.0 * c for c in row] for row in vectors]
    labels = labels + labels
    order = gen.permutation(len(vectors))
    vectors = [vectors[i] for i in order]
    labels = [labels[i] for i in order]
    data = LabeledVectors(vectors=np.array(vectors), labels=np.array(labels))
    return vectors, labels, data


def shared_labeled(gen, num_classes, per_class, dim):
    """`twinned_labeled` clouds in which each class also holds an exact copy
    of one vector of the class before it (the first class holds one of the
    last class's).

    A copied vector v then sits in two classes, next to its twin 2v, and
    every distance to it is an exact three-way tie across the two classes:
    one-vs-rest sees all three, class-pair two of them at a time.
    """
    vectors, labels, _ = twinned_labeled(gen, num_classes, per_class, dim)
    first = {}
    for row, lab in zip(vectors, labels):
        first.setdefault(lab, row)
    names = list(first)
    vectors = vectors + [list(first[names[c - 1]]) for c in range(len(names))]
    labels = labels + names
    order = gen.permutation(len(vectors))
    vectors = [vectors[i] for i in order]
    labels = [labels[i] for i in order]
    data = LabeledVectors(vectors=np.array(vectors), labels=np.array(labels))
    return vectors, labels, data


def complement_straddles(data, k):
    """Rows whose k-th nearest vector outside their class is tied with the
    (k + 1)-th."""
    unit = data.vectors / np.linalg.norm(data.vectors, axis=1)[:, None]
    dists = 1.0 - unit @ unit.T
    dists[data.labels[:, None] == data.labels[None, :]] = np.inf
    ranked = np.sort(dists, axis=1)
    return int(np.count_nonzero(ranked[:, k - 1] == ranked[:, k]))


def assert_matrix_close(got, want_rows, rtol=1e-10):
    want = np.array(want_rows)
    scale = max(np.abs(want).max(), 1.0)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-12 * scale)


# --- containers ------------------------------------------------------------


class TestContainers:
    def test_class_indices_first_appearance_order(self):
        data = LabeledVectors(
            vectors=np.eye(4), labels=np.array(["b", "a", "b", "a"])
        )
        indices = data.class_indices()
        assert list(indices) == ["b", "a"]
        np.testing.assert_array_equal(indices["b"], [0, 2])
        np.testing.assert_array_equal(indices["a"], [1, 3])

    def test_dimensions(self):
        data = LabeledVectors(vectors=np.zeros((5, 3)), labels=np.zeros(5))
        assert data.num_vectors == 5
        assert data.dim == 3

    def test_vectors_must_be_2d(self):
        with pytest.raises(ShapeError):
            LabeledVectors(vectors=np.zeros(5), labels=np.zeros(5))

    def test_labels_must_align(self):
        with pytest.raises(ShapeError):
            LabeledVectors(vectors=np.zeros((5, 3)), labels=np.zeros(4))

    def test_projection_eigenvalues_must_match_columns(self):
        with pytest.raises(ShapeError):
            Projection(basis=np.eye(3), eigenvalues=np.zeros(2))

    def test_projection_dims(self):
        proj = Projection(basis=np.zeros((6, 2)), eigenvalues=np.ones(2))
        assert proj.input_dim == 6
        assert proj.output_dim == 2


# --- cosine k-NN -----------------------------------------------------------


class TestKnnCosine:
    """The neighbour selection NDA's cosine k-NN search runs on."""

    @pytest.mark.parametrize("n,k", [(200, 1), (200, 7), (200, 50), (20, 10), (7, 7)])
    def test_k_smallest_matches_a_stable_sort(self, rng, n, k):
        # Few distinct values tie across the k-th place in most rows; the
        # +inf entries (masked columns) leave some rows fewer than k finite.
        dists = rng.integers(0, 6, size=(40, n)).astype(float)
        dists[rng.random(dists.shape) < 0.4] = np.inf
        dists[:5, 1:] = np.inf
        idx, kth = da._k_smallest(dists, k)
        want = np.argsort(dists, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(kth, np.take_along_axis(dists, want[:, -1:], axis=1)[:, 0])


# --- classical scatters ----------------------------------------------------


class TestClassicalScatters:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_scatter_matches_oracle(self, seed):
        gen = np.random.default_rng(400 + seed)
        vectors, labels, data = random_labeled(gen, 4, 6, 5)
        assert_matrix_close(within_class_scatter(data), oracle_within_scatter(vectors, labels))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lda_between_matches_oracle(self, seed):
        gen = np.random.default_rng(410 + seed)
        vectors, labels, data = random_labeled(gen, 4, 6, 5)
        assert_matrix_close(lda_between_scatter(data), oracle_lda_between(vectors, labels))

    def test_within_plus_between_equals_total_scatter(self, rng):
        _, _, data = random_labeled(rng, 3, 8, 4)
        centered = data.vectors - data.vectors.mean(axis=0)
        total = centered.T @ centered
        np.testing.assert_allclose(
            within_class_scatter(data) + lda_between_scatter(data),
            total,
            rtol=1e-10,
            atol=1e-12 * np.abs(total).max(),
        )

    def test_singleton_class_rejected(self):
        data = LabeledVectors(
            vectors=np.arange(8.0).reshape(4, 2), labels=np.array(["a", "a", "a", "b"])
        )
        with pytest.raises(DegenerateClassError, match=r"^class 'b' has 1 sample\(s\)"):
            within_class_scatter(data)


# --- NDA local statistics --------------------------------------------------


class TestNdaLocalStats:
    @pytest.mark.parametrize(
        "seed,num_classes,per_class,dim,k,alpha",
        [
            (0, 3, 8, 4, 1, 1.0),
            (1, 3, 8, 4, 3, 2.0),
            (2, 4, 6, 5, 2, 2.0),
            (3, 4, 10, 6, 5, 3.0),
            (4, 2, 12, 3, 4, 0.5),
            (5, 3, 4, 4, 3, 2.0),
        ],
    )
    def test_matches_oracle(self, seed, num_classes, per_class, dim, k, alpha):
        gen = np.random.default_rng(500 + seed)
        vectors, labels, data = random_labeled(gen, num_classes, per_class, dim)
        local = nda_local_stats(data, k=k, alpha=alpha)
        weights, means, d_own, d_rest = oracle_local_stats(vectors, labels, k, alpha)
        np.testing.assert_allclose(local.weights, weights, rtol=1e-10)
        np.testing.assert_allclose(local.local_means, means, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(local.dist_own, d_own, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(local.dist_rest, d_rest, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("seed,k", [(0, 1), (1, 3), (2, 5)])
    def test_tied_neighbours_match_oracle(self, seed, k):
        gen = np.random.default_rng(540 + seed)
        vectors, labels, data = twinned_labeled(gen, 3, 4, 4)
        local = nda_local_stats(data, k=k, alpha=2.0)
        weights, means, d_own, d_rest = oracle_local_stats(vectors, labels, k, 2.0)
        np.testing.assert_allclose(local.local_means, means, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(local.dist_rest, d_rest, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(local.weights, weights, rtol=1e-8, atol=1e-14)

    def test_outside_tie_breaks_toward_lower_index(self):
        # Rows 1 and 2 of class b are v and 2v: bitwise-equal unit rows, so
        # they tie for row 0's nearest outside neighbour and the local mean
        # is whichever comes first, not the longer vector.
        v, w = [2.0, 1.0], [4.0, 2.0]
        for first, second in [(v, w), (w, v)]:
            data = LabeledVectors(
                vectors=np.array([[1.0, 0.0], first, second, [1.0, 0.2], [0.0, 1.0]]),
                labels=np.array(["a", "b", "b", "a", "b"]),
            )
            local = nda_local_stats(data, k=1, alpha=2.0)
            np.testing.assert_array_equal(local.local_means[0], first)

    def test_per_row_rescaling_keeps_distances_and_weights(self, rng):
        _, _, data = random_labeled(rng, 3, 8, 4)
        factors = rng.uniform(0.1, 10.0, size=data.num_vectors)
        scaled = LabeledVectors(vectors=factors[:, None] * data.vectors, labels=data.labels)
        base = nda_local_stats(data, k=3, alpha=2.0)
        local = nda_local_stats(scaled, k=3, alpha=2.0)
        np.testing.assert_allclose(local.dist_own, base.dist_own, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(local.dist_rest, base.dist_rest, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(local.weights, base.weights, rtol=1e-8, atol=1e-14)

    def test_weights_within_half_open_interval(self, rng):
        _, _, data = random_labeled(rng, 4, 9, 5)
        local = nda_local_stats(data, k=3, alpha=2.0)
        assert np.all(local.weights > 0.0)
        assert np.all(local.weights <= 0.5)

    def test_coincident_neighbours_give_half_weight(self):
        # The sample, a same-class twin, and a cross-class twin are parallel,
        # so both boundary distances vanish and the 0/0 weight resolves to 1/2.
        data = LabeledVectors(
            vectors=np.array(
                [[1.0, 0.0], [1.0, 0.0], [0.5, 0.5], [2.0, 0.0], [0.0, 1.0]]
            ),
            labels=np.array(["a", "a", "a", "b", "b"]),
        )
        local = nda_local_stats(data, k=1, alpha=2.0)
        assert local.dist_own[0] == 0.0
        assert local.dist_rest[0] == 0.0
        assert local.weights[0] == 0.5

    def test_class_smaller_than_k_plus_one_rejected(self, rng):
        data = LabeledVectors(
            vectors=rng.normal(size=(6, 3)),
            labels=np.array(["a", "a", "a", "a", "b", "b"]),
        )
        with pytest.raises(DegenerateClassError, match=r"^class 'b' has 2 samples"):
            nda_local_stats(data, k=2, alpha=2.0)

    def test_complement_smaller_than_k_rejected(self, rng):
        # Every class has at least k + 1 members, so only a lone class can
        # leave fewer than k vectors outside it.
        data = LabeledVectors(vectors=rng.normal(size=(12, 3)), labels=np.array(["big"] * 12))
        with pytest.raises(DegenerateClassError, match=r"^complement of class 'big' has 0 samples"):
            nda_local_stats(data, k=3, alpha=2.0)

    def test_zero_norm_vector_rejected(self, rng):
        vectors = rng.normal(size=(8, 3))
        vectors[2] = 0.0
        data = LabeledVectors(vectors=vectors, labels=np.array(["a", "b"] * 4))
        with pytest.raises(NormalizationError):
            nda_local_stats(data, k=1, alpha=2.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), alpha=st.floats(0.5, 4.0))
def test_boundary_weights_follow_distance_formula(seed, alpha):
    gen = np.random.default_rng(seed)
    _, _, data = random_labeled(gen, 3, 5, 4)
    local = nda_local_stats(data, k=2, alpha=alpha)
    assert np.all(local.weights > 0.0)
    assert np.all(local.weights <= 0.5)
    for w, d_own, d_rest in zip(local.weights, local.dist_own, local.dist_rest):
        assert w == pytest.approx(boundary_weight(d_own, d_rest, alpha), rel=1e-12)


# --- NDA between-class scatter ---------------------------------------------


class TestNdaScatter:
    @pytest.mark.parametrize(
        "seed,num_classes,per_class,dim,k,alpha",
        [
            (0, 3, 8, 4, 1, 1.0),
            (1, 3, 10, 4, 3, 2.0),
            (2, 4, 7, 5, 2, 2.0),
            (3, 4, 10, 6, 5, 3.0),
            (4, 2, 14, 3, 4, 1.5),
            (5, 5, 6, 4, 2, 2.0),
            (6, 3, 9, 8, 3, 2.0),
            (7, 4, 8, 5, 1, 0.5),
            (8, 3, 5, 4, 4, 2.0),
            (9, 4, [5, 9, 6, 9], 4, 3, 2.0),
        ],
    )
    def test_one_vs_rest_matches_oracle(self, seed, num_classes, per_class, dim, k, alpha):
        gen = np.random.default_rng(600 + seed)
        vectors, labels, data = random_labeled(gen, num_classes, per_class, dim)
        got = nda_between_scatter(data, k=k, alpha=alpha, one_vs_rest=True)
        assert_matrix_close(got, oracle_nda_scatter_one_vs_rest(vectors, labels, k, alpha))

    @pytest.mark.parametrize(
        "seed,num_classes,per_class,dim,k,alpha",
        [
            (0, 3, 6, 4, 2, 2.0),
            (1, 4, 5, 3, 1, 1.0),
            (2, 3, 8, 5, 3, 2.0),
            (3, 5, 4, 4, 2, 3.0),
            (4, 2, 10, 6, 4, 2.0),
            (5, 3, 4, 4, 3, 2.0),
            (6, 5, [5, 8, 5, 11, 8], 4, 3, 2.0),
            (7, 4, [4, 12, 6, 4], 5, 1, 0.5),
            (8, 3, 6, 4, 2, 0.0),
        ],
    )
    def test_all_pairs_matches_oracle(self, seed, num_classes, per_class, dim, k, alpha):
        gen = np.random.default_rng(620 + seed)
        vectors, labels, data = random_labeled(gen, num_classes, per_class, dim)
        got = nda_between_scatter(data, k=k, alpha=alpha, one_vs_rest=False)
        assert_matrix_close(got, oracle_nda_scatter_all_pairs(vectors, labels, k, alpha))

    @pytest.mark.parametrize("seed", [626, 627, 636])
    def test_all_pairs_far_from_the_origin_matches_oracle(self, seed):
        # Offsets x - m are small next to the vectors themselves here.
        gen = np.random.default_rng(seed)
        vectors, labels, _ = random_labeled(gen, 4, 7, 4)
        vectors = [[c + 200.0 for c in row] for row in vectors]
        data = LabeledVectors(vectors=np.array(vectors), labels=np.array(labels))
        got = nda_between_scatter(data, k=3, alpha=2.0, one_vs_rest=False)
        assert_matrix_close(got, oracle_nda_scatter_all_pairs(vectors, labels, 3, 2.0))

    @pytest.mark.parametrize("seed,k", [(0, 3), (1, 5)])
    def test_tied_neighbours_match_oracle(self, seed, k):
        gen = np.random.default_rng(640 + seed)
        vectors, labels, data = twinned_labeled(gen, 3, 4, 4)
        for one_vs_rest, oracle in (
            (True, oracle_nda_scatter_one_vs_rest),
            (False, oracle_nda_scatter_all_pairs),
        ):
            got = nda_between_scatter(data, k=k, alpha=2.0, one_vs_rest=one_vs_rest)
            assert_matrix_close(got, oracle(vectors, labels, k, 2.0), rtol=1e-8)

    @pytest.mark.parametrize(
        "block_entries,block_rows",
        [
            (1, [9] * 5),  # one class per block: a block still holds the largest class
            (45 * 45, [45]),  # every class in one block
            (19 * 45, [18, 18, 9]),  # two classes per block, the last alone
        ],
        ids=["one-class", "all-classes", "uneven"],
    )
    @pytest.mark.parametrize("seed,k", [(0, 3), (1, 5)])
    def test_blocks_change_no_bit_and_ties_across_blocks_match_oracle(
        self, monkeypatch, block_entries, block_rows, seed, k
    ):
        """Ties straddle the k-th place between classes that the block
        boundaries split; one-vs-rest gives the same bits for every block
        size, and both modes match their oracles."""
        gen = np.random.default_rng(660 + seed)
        vectors, labels, data = shared_labeled(gen, 5, 4, 4)
        assert complement_straddles(data, k) > 0
        default = nda_between_scatter(data, k=k, alpha=2.0)
        monkeypatch.setattr(da, "BLOCK_ENTRIES", block_entries)
        blocks = da._class_blocks(data, data.class_indices(), k)
        assert [rows.size for rows, *_ in blocks] == block_rows
        got = nda_between_scatter(data, k=k, alpha=2.0)
        assert np.array_equal(got, default)
        assert_matrix_close(got, oracle_nda_scatter_one_vs_rest(vectors, labels, k, 2.0))
        assert_matrix_close(
            nda_between_scatter(data, k=k, alpha=2.0, one_vs_rest=False),
            oracle_nda_scatter_all_pairs(vectors, labels, k, 2.0),
        )

    @pytest.mark.parametrize("one_vs_rest", [True, False], ids=["one-vs-rest", "class-pair"])
    def test_neighbour_search_memory_is_bounded_by_the_block(self, one_vs_rest):
        """At 4 000 vectors the N x N distances alone would take 128 MB."""
        gen = np.random.default_rng(680)
        n, dim, per_class = 4000, 16, 20
        labels = np.repeat(np.arange(n // per_class), per_class)
        vectors = 1.5 * gen.normal(size=(n // per_class, dim))[labels] + gen.normal(size=(n, dim))
        data = LabeledVectors(vectors=vectors, labels=labels)

        def run():
            nda_between_scatter(data, k=4, alpha=2.0, one_vs_rest=one_vs_rest)

        run()  # first-call imports and caches
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A block's distances and the few block-sized arrays that search it,
        # plus per-sample arrays.
        assert peak < 4 * da.BLOCK_ENTRIES * 8 + 16 * n * dim * 8, peak / 2**20

    def test_two_classes_make_both_modes_agree(self, rng):
        # With two classes the complement of each class is the other class,
        # so per-sample terms coincide between the two modes.
        _, _, data = random_labeled(rng, 2, 12, 5)
        ovr = nda_between_scatter(data, k=3, alpha=2.0, one_vs_rest=True)
        pairs = nda_between_scatter(data, k=3, alpha=2.0, one_vs_rest=False)
        np.testing.assert_allclose(ovr, pairs, rtol=1e-10, atol=1e-12 * np.abs(ovr).max())

    def test_row_order_invariance(self, rng):
        vectors, labels, data = random_labeled(rng, 3, 8, 4)
        perm = rng.permutation(data.num_vectors)
        shuffled = LabeledVectors(
            vectors=data.vectors[perm], labels=data.labels[perm]
        )
        a = nda_between_scatter(data, k=2, alpha=2.0)
        b = nda_between_scatter(shuffled, k=2, alpha=2.0)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12 * np.abs(a).max())

    def test_global_scaling_scales_scatter_quadratically(self, rng):
        # Cosine distances ignore the scale, so weights are unchanged and the
        # outer products pick up the square of the factor.
        _, _, data = random_labeled(rng, 3, 8, 4)
        scaled = LabeledVectors(vectors=3.0 * data.vectors, labels=data.labels)
        base = nda_between_scatter(data, k=2, alpha=2.0)
        np.testing.assert_allclose(
            nda_between_scatter(scaled, k=2, alpha=2.0),
            9.0 * base,
            rtol=1e-10,
            atol=1e-11 * np.abs(base).max(),
        )
        np.testing.assert_allclose(
            nda_local_stats(scaled, k=2, alpha=2.0).weights,
            nda_local_stats(data, k=2, alpha=2.0).weights,
            rtol=1e-12,
        )

    def test_all_pairs_guards_class_size(self, rng):
        data = LabeledVectors(
            vectors=rng.normal(size=(7, 3)),
            labels=np.array(["a", "a", "a", "a", "a", "b", "b"]),
        )
        with pytest.raises(DegenerateClassError):
            nda_between_scatter(data, k=2, alpha=2.0, one_vs_rest=False)

    def test_symmetric_positive_semidefinite(self, rng):
        _, _, data = random_labeled(rng, 4, 7, 5)
        sb = nda_between_scatter(data, k=2, alpha=2.0)
        np.testing.assert_allclose(sb, sb.T, rtol=0.0, atol=1e-12 * np.abs(sb).max())
        assert np.linalg.eigvalsh(sb).min() >= -1e-10 * np.abs(sb).max()


# --- generalized eigenproblem ----------------------------------------------


def random_spd(gen, r, rank=None):
    rank = r if rank is None else rank
    a = gen.normal(0.0, 1.0, size=(r, rank))
    return a @ a.T


class TestComputeProjection:
    @pytest.mark.parametrize("seed,r,out_dim", [(0, 6, 3), (1, 8, 8), (2, 5, 1), (3, 10, 4)])
    def test_eigenvalues_match_scipy_generalized_solver(self, seed, r, out_dim):
        gen = np.random.default_rng(700 + seed)
        sw = random_spd(gen, r) + 0.5 * np.eye(r)
        sb = random_spd(gen, r)
        proj = compute_projection(sw, sb, out_dim=out_dim)
        ridge = 1e-6 * np.trace(sw) / r
        reference = scipy_eigh(sb, sw + ridge * np.eye(r), eigvals_only=True)
        np.testing.assert_allclose(
            proj.eigenvalues, reference[::-1][:out_dim], rtol=1e-8, atol=1e-10
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_basis_solves_regularised_pencil(self, seed):
        gen = np.random.default_rng(710 + seed)
        r = 7
        sw = random_spd(gen, r) + 0.5 * np.eye(r)
        sb = random_spd(gen, r)
        proj = compute_projection(sw, sb, out_dim=4)
        sw_reg = sw + (1e-6 * np.trace(sw) / r) * np.eye(r)
        lhs = sb @ proj.basis
        rhs = (sw_reg @ proj.basis) * proj.eigenvalues[None, :]
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(np.abs(lhs).max(), 1.0))

    def test_basis_columns_unit_norm_and_sign_fixed(self, rng):
        sw = random_spd(rng, 6) + 0.5 * np.eye(6)
        sb = random_spd(rng, 6)
        proj = compute_projection(sw, sb, out_dim=6)
        np.testing.assert_allclose(np.linalg.norm(proj.basis, axis=0), 1.0, rtol=1e-12)
        for col in range(6):
            lead = np.argmax(np.abs(proj.basis[:, col]))
            assert proj.basis[lead, col] > 0.0

    def test_eigenvalues_non_increasing(self, rng):
        sw = random_spd(rng, 8) + 0.5 * np.eye(8)
        sb = random_spd(rng, 8)
        proj = compute_projection(sw, sb, out_dim=8)
        assert np.all(np.diff(proj.eigenvalues) <= 1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            compute_projection(np.zeros((3, 4)), np.eye(3), out_dim=1)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            compute_projection(np.eye(3), np.eye(4), out_dim=1)

    @pytest.mark.parametrize("out_dim", [0, -2, 7])
    def test_out_dim_out_of_range(self, out_dim):
        with pytest.raises(RankError):
            compute_projection(np.eye(6), np.eye(6), out_dim=out_dim)

    def test_asymmetric_within_rejected(self, rng):
        sw = random_spd(rng, 4)
        sw[0, 1] += 1.0
        with pytest.raises(MatrixError):
            compute_projection(sw, np.eye(4), out_dim=2)

    def test_asymmetric_between_rejected(self, rng):
        sb = random_spd(rng, 4)
        sb[2, 0] += 1.0
        with pytest.raises(MatrixError):
            compute_projection(np.eye(4), sb, out_dim=2)

    def test_indefinite_within_rejected(self):
        with pytest.raises(MatrixError):
            compute_projection(np.diag([1.0, -1.0]), np.eye(2), out_dim=1)

    def test_zero_within_scatter_rejected(self):
        with pytest.raises(MatrixError):
            compute_projection(np.zeros((3, 3)), np.eye(3), out_dim=2)

    @pytest.mark.parametrize("which", ["within", "between"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (2, 1), (1, 2)])
    def test_non_finite_scatter_rejected(self, rng, which, value, entry):
        """A non-finite entry in either triangle is a typed error, not a
        NaN basis: the Cholesky factorisation reads one triangle only."""
        sw, sb = random_spd(rng, 3), random_spd(rng, 3)
        (sw if which == "within" else sb)[entry] = value
        with pytest.raises(MatrixError, match="non-finite"):
            compute_projection(sw, sb, out_dim=2)


class TestScatterRanks:
    """LDA between-class rank saturates at C - 1; the k-NN scatter does not."""

    def make_data(self):
        gen = np.random.default_rng(20250817)
        vectors, labels = [], []
        for c in range(5):
            centre = gen.normal(0.0, 2.0, size=20)
            for _ in range(12):
                vectors.append(centre + gen.normal(0.0, 0.5, size=20))
                labels.append(f"spk{c}")
        return LabeledVectors(vectors=np.array(vectors), labels=np.array(labels))

    @staticmethod
    def effective_rank(eigenvalues):
        return int(np.sum(eigenvalues > 1e-8 * eigenvalues[0]))

    def test_lda_rank_capped_by_classes(self):
        proj = compute_lda(self.make_data(), out_dim=20)
        assert self.effective_rank(proj.eigenvalues) <= 4

    def test_nda_rank_exceeds_class_cap(self):
        proj = compute_nda(self.make_data(), k=10, alpha=2.0, out_dim=20)
        assert self.effective_rank(proj.eigenvalues) >= 10


# --- projection application ------------------------------------------------


class TestProjectApi:
    def test_matrix_projection(self, rng):
        _, _, data = random_labeled(rng, 3, 8, 6)
        proj = compute_lda(data, out_dim=2)
        out = project(data.vectors, proj)
        assert out.shape == (data.num_vectors, 2)
        np.testing.assert_allclose(out, data.vectors @ proj.basis, rtol=1e-12)

    def test_single_vector_round_trip(self, rng):
        _, _, data = random_labeled(rng, 3, 8, 6)
        proj = compute_lda(data, out_dim=3)
        single = project(data.vectors[0], proj)
        assert single.shape == (3,)
        np.testing.assert_allclose(single, project(data.vectors, proj)[0], rtol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        _, _, data = random_labeled(rng, 3, 8, 6)
        proj = compute_lda(data, out_dim=2)
        with pytest.raises(ShapeError):
            project(np.zeros((4, 5)), proj)

    @pytest.mark.parametrize("k", [0, -1])
    def test_nda_k_out_of_range(self, rng, k):
        _, _, data = random_labeled(rng, 3, 8, 5)
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            compute_nda(data, k=k, alpha=2.0, out_dim=2)

    def test_separated_classes_stay_separated(self, rng):
        # Two tight, well-separated clouds: the 1-D LDA axis must keep all
        # projected samples of one class on one side of the other.
        a = rng.normal(0.0, 0.1, size=(15, 4)) + np.array([3.0, 0.0, 0.0, 0.0])
        b = rng.normal(0.0, 0.1, size=(15, 4)) + np.array([-3.0, 0.0, 0.0, 0.0])
        data = LabeledVectors(
            vectors=np.vstack([a, b]), labels=np.array(["a"] * 15 + ["b"] * 15)
        )
        proj = compute_lda(data, out_dim=1)
        out = project(data.vectors, proj)
        assert out[:15].min() > out[15:].max() or out[15:].min() > out[:15].max()
