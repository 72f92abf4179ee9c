"""Discriminant-analysis projections: LDA and nearest-neighbour DA (NDA).

Both methods solve the same generalised symmetric eigenproblem
``Sb v = lambda Sw v`` and differ only in the between-class scatter.  LDA
uses class means around the global mean; NDA replaces them with *local*
means built from each sample's k nearest neighbours (cosine metric) in the
competing classes, weighted so that only samples near class boundaries
contribute.  The NDA scatter is a sum of order N*k rank-one terms rather
than C-1 of them, so its rank is not capped by the number of classes.

The neighbour search works on blocks of whole consecutive classes: one
matrix product gives the cosine distances of a block's rows to all N
training vectors, and one `_k_smallest` call picks every row's neighbours
at once.  A block holds at most
``max(largest class, BLOCK_ENTRIES // N)`` rows, so memory is
O(max(BLOCK_ENTRIES, n_max * N) + N * R) for the largest class size n_max
and dimension R; no N x N matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateClassError,
    MatrixError,
    NormalizationError,
    RankError,
    ShapeError,
)

# Distance entries in one neighbour-search block: 8 MB of float64.
BLOCK_ENTRIES = 1 << 20
# `_k_smallest` bounds each row's k-th distance from every SAMPLE_STEP-th column.
SAMPLE_STEP = 4


@dataclass
class LabeledVectors:
    """Vectors with per-vector class labels (speakers)."""

    vectors: np.ndarray          # (N, R)
    labels: np.ndarray           # (N,) strings or ints

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.vectors.ndim != 2:
            raise ShapeError("vectors must be (N, R)")
        if self.labels.shape != (self.vectors.shape[0],):
            raise ShapeError("labels must align with vectors")

    @property
    def num_vectors(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def class_indices(self) -> dict:
        """Label -> array of row indices, in order of first appearance."""
        out: dict = {}
        for i, lab in enumerate(self.labels.tolist()):
            out.setdefault(lab, []).append(i)
        return {lab: np.asarray(idx) for lab, idx in out.items()}


@dataclass
class Projection:
    """Column basis of discriminant directions, highest eigenvalue first.

    The settings that made it (method, k, alpha, pairing) are recorded in
    the header metadata of its ``.ivda`` file, not here.
    """

    basis: np.ndarray            # (R, M), unit-norm columns
    eigenvalues: np.ndarray      # (M,), non-increasing

    def __post_init__(self) -> None:
        self.basis = np.asarray(self.basis, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.basis.ndim != 2:
            raise ShapeError("projection basis must be 2-D")
        if self.eigenvalues.shape != (self.basis.shape[1],):
            raise ShapeError("eigenvalues must match basis columns")

    @property
    def input_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def output_dim(self) -> int:
        return self.basis.shape[1]


def within_class_scatter(data: LabeledVectors) -> np.ndarray:
    """Sum over classes of centered outer products (unnormalised).

    Every class must have at least two members.
    """
    sw = np.zeros((data.dim, data.dim))
    for lab, idx in data.class_indices().items():
        if idx.size < 2:
            raise DegenerateClassError(
                f"class {lab!r} has {idx.size} sample(s); need at least 2"
            )
        centered = data.vectors[idx] - data.vectors[idx].mean(axis=0)
        sw += centered.T @ centered
    return sw


def lda_between_scatter(data: LabeledVectors) -> np.ndarray:
    """Count-weighted scatter of class means around the global mean."""
    mu = data.vectors.mean(axis=0)
    sb = np.zeros((data.dim, data.dim))
    for _, idx in data.class_indices().items():
        diff = data.vectors[idx].mean(axis=0) - mu
        sb += idx.size * np.outer(diff, diff)
    return sb


def _k_smallest(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `dists`: the column indices of its k smallest entries,
    ordered by (distance, index), and the k-th smallest distance.

    The k-th smallest entry among every `SAMPLE_STEP`-th column is at least
    the row's k-th smallest, so the entries up to it hold the answer, ties
    at the k-th place included.  Only those are gathered, in column order
    and padded with +inf, and sorted stably by distance.
    """
    sample = dists[:, ::SAMPLE_STEP]
    if sample.shape[1] < k:
        bound = np.full(dists.shape[0], np.inf)
    else:
        bound = np.partition(sample, k - 1, axis=1)[:, k - 1]
    rows, cols = np.divmod(np.flatnonzero(dists <= bound[:, None]), dists.shape[1])
    counts = np.bincount(rows, minlength=dists.shape[0])
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    values = np.full((dists.shape[0], counts.max()), np.inf)
    values[rows, slot] = dists[rows, cols]
    cand = np.zeros(values.shape, dtype=np.intp)
    cand[rows, slot] = cols
    order = np.argsort(values, axis=1, kind="stable")[:, :k]
    kth = np.take_along_axis(values, order[:, -1:], axis=1)[:, 0]
    return np.take_along_axis(cand, order, axis=1), kth


@dataclass
class NdaLocalStats:
    """Per-sample quantities entering the NDA scatter (one-vs-rest)."""

    weights: np.ndarray       # (N,) in (0, 0.5]
    local_means: np.ndarray   # (N, R) k-NN means from the competing classes
    dist_own: np.ndarray      # (N,) k-th neighbour distance within class
    dist_rest: np.ndarray     # (N,) k-th neighbour distance in the complement


def _boundary_weights(
    d_own: np.ndarray, d_rest: np.ndarray, alpha: float
) -> np.ndarray:
    """``min(a, b) / (a + b)`` with ``a = d_own**alpha``, ``b = d_rest**alpha``;
    0.5 where both distances vanish."""
    a, b = d_own**alpha, d_rest**alpha
    total = a + b
    return np.divide(
        np.minimum(a, b), total, out=np.full_like(total, 0.5), where=total != 0.0
    )


def _nda_classes(data: LabeledVectors, k: int) -> dict:
    """`data.class_indices()`, after checking that every class has the k
    within-class neighbours NDA needs for each of its members."""
    classes = data.class_indices()
    for lab, idx in classes.items():
        if idx.size < k + 1:
            raise DegenerateClassError(
                f"class {lab!r} has {idx.size} samples; need k + 1 = {k + 1} "
                f"for within-class neighbours"
            )
    return classes


def _class_order(classes: dict) -> tuple[np.ndarray, np.ndarray]:
    """Row indices grouped by class (in the order of `classes`, ascending
    within each class), and where each class starts in them, plus the end."""
    members = list(classes.values())
    return np.concatenate(members), np.cumsum([0] + [idx.size for idx in members])


def _class_blocks(data: LabeledVectors, classes: dict, k: int):
    """Yield ``(rows, code, dists, d_own)`` per block of whole consecutive
    classes: the block's row indices, grouped by class; each row's class
    number (its position in `classes`); the (rows, N) cosine distances of
    those rows to every training row; and each row's k-th within-class
    neighbour distance (itself excluded).

    Each row's own-class columns are set to +inf, so the block can be
    searched for neighbours outside the class directly.  A block holds at
    most ``max(largest class, BLOCK_ENTRIES // N)`` rows.  Every block is
    written into one buffer, so the yielded distances are overwritten by
    the next block.
    """
    norms = np.linalg.norm(data.vectors, axis=1)
    if np.any(norms == 0):
        raise NormalizationError("zero-norm training vector; cosine distance undefined")
    unit = data.vectors / norms[:, None]
    order, starts = _class_order(classes)
    sizes = np.diff(starts)
    limit = max(sizes.max(), BLOCK_ENTRIES // data.num_vectors)
    buffer = np.empty((min(limit, data.num_vectors), data.num_vectors))
    first = 0
    while first < sizes.size:
        last = np.searchsorted(starts, starts[first] + limit, side="right") - 1
        at = np.arange(starts[first], starts[last])
        rows = order[at]
        code = np.repeat(np.arange(first, last), sizes[first:last])
        # Each row's own-class columns, padded with the row itself.
        slot = np.arange(sizes[first:last].max())
        own_cols = order[
            np.where(slot < sizes[code, None], starts[code, None] + slot, at[:, None])
        ]
        dists = np.matmul(unit[rows], unit.T, out=buffer[: rows.size])
        np.subtract(1.0, dists, out=dists)
        own = np.take_along_axis(dists, own_cols, axis=1)
        own[own_cols == rows[:, None]] = np.inf
        d_own = np.partition(own, k - 1, axis=1)[:, k - 1]
        np.put_along_axis(dists, own_cols, np.inf, axis=1)
        yield rows, code, dists, d_own
        first = last


def nda_local_stats(data: LabeledVectors, k: int, alpha: float) -> NdaLocalStats:
    """One-vs-rest local means, boundary distances and weights per sample.

    For sample x in class i: the local mean is the average of its k nearest
    neighbours (cosine distance) outside class i; `dist_own` is the k-th
    neighbour distance within class i excluding x itself.  The weight

        w = min(d_own^alpha, d_rest^alpha) / (d_own^alpha + d_rest^alpha)

    approaches 0.5 near the class boundary and 0 deep inside a class.
    """
    n = data.num_vectors
    classes = _nda_classes(data, k)
    for lab, idx in classes.items():
        if n - idx.size < k:
            raise DegenerateClassError(
                f"complement of class {lab!r} has {n - idx.size} samples; "
                f"need at least k = {k}"
            )
    local_means = np.zeros((n, data.dim))
    dist_own = np.zeros(n)
    dist_rest = np.zeros(n)
    for rows, _, dists, d_own in _class_blocks(data, classes, k):
        order, d_rest = _k_smallest(dists, k)
        local_means[rows] = data.vectors[order].mean(axis=1)
        dist_own[rows] = d_own
        dist_rest[rows] = d_rest
    return NdaLocalStats(
        weights=_boundary_weights(dist_own, dist_rest, alpha),
        local_means=local_means,
        dist_own=dist_own,
        dist_rest=dist_rest,
    )


def _k_nearest_mask(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Along the last axis of `dists`: a mask of the k smallest entries by
    (distance, index), and the k-th smallest distance.

    Entries up to the k-th distance are taken; where ties at that distance
    make more than k, only the lower-index ones among the tied are kept.
    """
    kth = np.partition(dists, k - 1, axis=-1)[..., k - 1 : k].copy()
    mask = dists <= kth
    over = np.count_nonzero(mask, axis=-1) > k
    if over.any():
        below = dists[over] < kth[over]
        tied = mask[over] & ~below
        room = k - np.count_nonzero(below, axis=-1)
        mask[over] = below | (tied & (np.cumsum(tied, axis=-1) <= room[:, None]))
    return mask, kth[..., 0]


def _competing_group_terms(
    group: tuple, dists: np.ndarray, d_own: np.ndarray, code: np.ndarray, k: int, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """One block's pairs with one group of equal-size competing classes.

    Returns, per block row, the sum of its pair weights w and of its
    weighted local means w m, and adds ``sum_x w p p^T`` to the group's
    Gram matrices.  Pairs with the row's own class get weight 0.
    """
    cls, cols, members, gram = group
    mask, d_other = _k_nearest_mask(dists[:, cols].reshape(code.size, cls.size, -1), k)
    weights = _boundary_weights(d_own[:, None], d_other, alpha)
    weights[code[:, None] == cls] = 0.0
    pick = mask / k
    weighted_pick = pick * weights[:, :, None]
    gram += np.matmul(weighted_pick.transpose(1, 2, 0), pick.transpose(1, 0, 2))
    weighted_means = weighted_pick.reshape(code.size, -1) @ members.reshape(-1, members.shape[2])
    return weights.sum(axis=1), weighted_means


def _class_pair_scatter(data: LabeledVectors, k: int, alpha: float) -> np.ndarray:
    """Sum of ``w (x - m)(x - m)^T`` over every sample x and competing class,
    with m the mean of x's k nearest members of that class.

    The competing classes are taken in groups of equal size s, so a block's
    distances to a group are one (rows, C_s, s) array.  Writing m = p^T S_c,
    with S_c the class's (s, R) members and p the 1/k selection weights,
    the sum expands to

        sum_x x x^T sum_c w  -  2 sym(sum_x x (sum_c w m)^T)
                             +  sum_c S_c^T (sum_x w p p^T) S_c,

    so no per-pair mean is built; the (s, s) Gram matrices in the last term
    are summed over the blocks and applied once per class at the end.
    """
    classes = _nda_classes(data, k)
    order, starts = _class_order(classes)
    sizes = np.diff(starts)
    # x - m is unchanged by a translation; centering keeps the expanded
    # terms from cancelling when the vectors share a large offset.
    centered = data.vectors - data.vectors.mean(axis=0)
    groups = []  # (class numbers, member columns, (C_s, s, R) members, (C_s, s, s) Grams)
    for s in np.unique(sizes):
        cls = np.flatnonzero(sizes == s)
        cols = order[starts[cls, None] + np.arange(s)]
        groups.append((cls, cols.ravel(), centered[cols], np.zeros((cls.size, s, s))))
    sb = np.zeros((data.dim, data.dim))
    for rows, code, dists, d_own in _class_blocks(data, classes, k):
        x = centered[rows]
        weight_sum = np.zeros(rows.size)
        weighted_means = np.zeros_like(x)
        for group in groups:
            w_sum, w_means = _competing_group_terms(group, dists, d_own, code, k, alpha)
            weight_sum += w_sum
            weighted_means += w_means
        cross = x.T @ weighted_means
        sb += (x * weight_sum[:, None]).T @ x - cross - cross.T
    for _, _, members, gram in groups:
        sb += np.tensordot(members, gram @ members, axes=([0, 1], [0, 1]))
    return sb


def nda_between_scatter(
    data: LabeledVectors, k: int, alpha: float, one_vs_rest: bool = True
) -> np.ndarray:
    """Nearest-neighbour between-class scatter.

    One-vs-rest (default): each sample contributes one weighted outer
    product of its offset from the complement's local k-NN mean.  The
    pairwise variant accumulates one term per (sample, competing class)
    pair instead.  Both search the same blocks of whole classes.
    """
    if one_vs_rest:
        local = nda_local_stats(data, k, alpha)
        diffs = data.vectors - local.local_means
        return (diffs * local.weights[:, None]).T @ diffs
    return _class_pair_scatter(data, k, alpha)


def compute_projection(
    sw: np.ndarray, sb: np.ndarray, out_dim: int, ridge_scale: float = 1e-6
) -> Projection:
    """Top eigenvectors of the pencil ``Sb v = lambda (Sw + ridge I) v``.

    `sw` is regularised by ``ridge_scale * trace(sw) / R`` on the diagonal
    and Cholesky-factorised; the problem is then solved as an ordinary
    symmetric eigenproblem in the whitened coordinates.  Columns of the
    returned basis are unit-norm with a deterministic sign (largest-magnitude
    entry positive) and satisfy the pencil equation for the *regularised*
    ``Sw``.
    """
    sw = np.asarray(sw, dtype=np.float64)
    sb = np.asarray(sb, dtype=np.float64)
    r = sw.shape[0]
    if sw.shape != (r, r) or sb.shape != (r, r):
        raise ShapeError("scatter matrices must be square and equal-sized")
    if out_dim < 1 or out_dim > r:
        raise RankError(f"output dimension must be in [1, {r}], got {out_dim}")
    if not (np.isfinite(sw).all() and np.isfinite(sb).all()):
        raise MatrixError("scatter matrices have non-finite entries")
    scale = max(np.abs(sw).max(), 1.0)
    if np.abs(sw - sw.T).max() > 1e-8 * scale:
        raise MatrixError("within-class scatter is not symmetric")
    if np.abs(sb - sb.T).max() > 1e-8 * max(np.abs(sb).max(), 1.0):
        raise MatrixError("between-class scatter is not symmetric")
    eigs = np.linalg.eigvalsh((sw + sw.T) / 2.0)
    if eigs[0] < -1e-8 * max(eigs[-1], 1.0):
        raise MatrixError("within-class scatter is not positive semi-definite")
    ridge = ridge_scale * np.trace(sw) / r
    sw_reg = (sw + sw.T) / 2.0 + ridge * np.eye(r)
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(sw_reg))
    except np.linalg.LinAlgError as exc:
        raise MatrixError("regularised within-class scatter is singular") from exc
    whitened = chol_inv @ ((sb + sb.T) / 2.0) @ chol_inv.T
    whitened = (whitened + whitened.T) / 2.0
    values, vectors = np.linalg.eigh(whitened)
    order = np.argsort(values, kind="stable")[::-1][:out_dim]
    basis = chol_inv.T @ vectors[:, order]
    basis /= np.linalg.norm(basis, axis=0)
    for col in range(basis.shape[1]):
        lead = np.argmax(np.abs(basis[:, col]))
        if basis[lead, col] < 0:
            basis[:, col] = -basis[:, col]
    return Projection(basis=basis, eigenvalues=values[order])


def compute_lda(data: LabeledVectors, out_dim: int) -> Projection:
    """Classical LDA projection (between-scatter rank is at most C - 1)."""
    return compute_projection(
        within_class_scatter(data), lda_between_scatter(data), out_dim
    )


def compute_nda(
    data: LabeledVectors,
    k: int,
    alpha: float,
    out_dim: int,
    one_vs_rest: bool = True,
) -> Projection:
    """Nearest-neighbour discriminant projection."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return compute_projection(
        within_class_scatter(data),
        nda_between_scatter(data, k, alpha, one_vs_rest=one_vs_rest),
        out_dim,
    )


def project(vectors: np.ndarray, projection: Projection) -> np.ndarray:
    """Apply the projection to rows of `vectors`."""
    vectors = np.asarray(vectors, dtype=np.float64)
    single = vectors.ndim == 1
    if single:
        vectors = vectors[None, :]
    if vectors.shape[1] != projection.input_dim:
        raise ShapeError(
            f"vectors have dim {vectors.shape[1]}, projection expects "
            f"{projection.input_dim}"
        )
    out = vectors @ projection.basis
    return out[0] if single else out
