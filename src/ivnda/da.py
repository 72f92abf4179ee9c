"""Discriminant-analysis projections: LDA and nearest-neighbour DA (NDA).

Both methods solve the same generalised symmetric eigenproblem
``Sb v = lambda Sw v`` and differ only in the between-class scatter.  LDA
uses class means around the global mean; NDA replaces them with *local*
means built from each sample's k nearest neighbours (cosine metric) in the
competing classes, weighted so that only samples near class boundaries
contribute.  The NDA scatter is a sum of order N*k rank-one terms rather
than C-1 of them, so its rank is not capped by the number of classes.

The neighbour search works one class at a time: one matrix product gives
the cosine distances of the class's n_c members to all N training vectors,
and a partial sort of that block picks every member's neighbours at once.
Memory is O(n_c * N) for the largest class; no N x N matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, eigh, solve_triangular

from .errors import (
    DegenerateClassError,
    MatrixError,
    NormalizationError,
    RankError,
    ShapeError,
)


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
        for i, lab in enumerate(self.labels):
            out.setdefault(lab, []).append(i)
        return {lab: np.asarray(idx) for lab, idx in out.items()}


@dataclass
class Projection:
    """Column basis of discriminant directions, highest eigenvalue first."""

    basis: np.ndarray            # (R, M), unit-norm columns
    eigenvalues: np.ndarray      # (M,), non-increasing
    method: str = ""
    k: int = 0
    alpha: float = 0.0

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


def _unit_rows(x: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0):
        raise NormalizationError(f"zero-norm vector in {what}; cosine distance undefined")
    return x / norms[:, None]


def _k_smallest(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `dists`: the column indices of its k smallest entries,
    ordered by (distance, index), and the k-th smallest distance.

    `np.argpartition` picks k candidates per row; sorting them by index and
    then stably by distance gives the (distance, index) order.  A row whose
    k-th value is tied with an entry left outside the candidates (ties
    straddling the k-th place) may have picked the higher index, so only
    those rows are redone with a full stable sort.
    """
    cand = np.argpartition(dists, k - 1, axis=1)[:, :k]
    cand.sort(axis=1)
    order = np.argsort(np.take_along_axis(dists, cand, axis=1), axis=1, kind="stable")
    idx = np.take_along_axis(cand, order, axis=1)
    kth = np.take_along_axis(dists, idx[:, -1:], axis=1)[:, 0]
    straddle = np.flatnonzero(np.count_nonzero(dists <= kth[:, None], axis=1) > k)
    if straddle.size:
        idx[straddle] = np.argsort(dists[straddle], axis=1, kind="stable")[:, :k]
    return idx, kth


def knn_cosine(
    query: np.ndarray, pool: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the k nearest pool rows to `query`.

    Distance is ``1 - cos(query, row)``; ties are broken toward the lower
    index.  The query and all pool rows must have non-zero norm.
    """
    if k < 1 or k > pool.shape[0]:
        raise DegenerateClassError(
            f"k={k} is outside [1, {pool.shape[0]}] for this pool"
        )
    query = np.asarray(query, dtype=np.float64)[None, :]
    dists = 1.0 - _unit_rows(query, "query") @ _unit_rows(pool, "pool").T
    order, _ = _k_smallest(dists, k)
    return order[0], dists[0, order[0]]


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


def _class_blocks(data: LabeledVectors, classes: dict, k: int):
    """Yield ``(idx, dists, d_own)`` per class: the class's row indices, its
    (n_c, N) cosine-distance block against every training row, and each
    member's k-th within-class neighbour distance (itself excluded).

    The own-class columns of the yielded block are set to +inf, so it can
    be searched for neighbours outside the class directly.  Only one block
    is alive at a time, so memory is O(n_c * N) for the largest class.
    """
    unit = _unit_rows(data.vectors, "training vectors")
    for idx in classes.values():
        dists = 1.0 - unit[idx] @ unit.T
        own = dists[:, idx]
        np.fill_diagonal(own, np.inf)
        d_own = np.partition(own, k - 1, axis=1)[:, k - 1]
        dists[:, idx] = np.inf
        yield idx, dists, d_own


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
    for idx, dists, d_own in _class_blocks(data, classes, k):
        order, d_rest = _k_smallest(dists, k)
        local_means[idx] = data.vectors[order].mean(axis=1)
        dist_own[idx] = d_own
        dist_rest[idx] = d_rest
    return NdaLocalStats(
        weights=_boundary_weights(dist_own, dist_rest, alpha),
        local_means=local_means,
        dist_own=dist_own,
        dist_rest=dist_rest,
    )


def nda_between_scatter(
    data: LabeledVectors, k: int, alpha: float, one_vs_rest: bool = True
) -> np.ndarray:
    """Nearest-neighbour between-class scatter.

    One-vs-rest (default): each sample contributes one weighted outer
    product of its offset from the complement's local k-NN mean.  The
    pairwise variant accumulates one term per (sample, competing class)
    pair instead; it is quadratic in the number of classes and kept mainly
    for comparison.  Both search one (n_c, N) distance block per class.
    """
    if one_vs_rest:
        local = nda_local_stats(data, k, alpha)
        diffs = data.vectors - local.local_means
        return (diffs * local.weights[:, None]).T @ diffs
    classes = _nda_classes(data, k)
    sb = np.zeros((data.dim, data.dim))
    for idx_i, dists, d_own in _class_blocks(data, classes, k):
        for idx_j in classes.values():
            if idx_j is idx_i:
                continue
            order, d_other = _k_smallest(dists[:, idx_j], k)
            diffs = data.vectors[idx_i] - data.vectors[idx_j[order]].mean(axis=1)
            weights = _boundary_weights(d_own, d_other, alpha)
            sb += (diffs * weights[:, None]).T @ diffs
    return sb


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
        chol = cholesky(sw_reg, lower=True)
    except LinAlgError as exc:
        raise MatrixError("regularised within-class scatter is singular") from exc
    half = solve_triangular(chol, (sb + sb.T) / 2.0, lower=True)
    whitened = solve_triangular(chol, half.T, lower=True)
    whitened = (whitened + whitened.T) / 2.0
    values, vectors = eigh(whitened)
    order = np.argsort(values, kind="stable")[::-1][:out_dim]
    basis = solve_triangular(chol.T, vectors[:, order], lower=False)
    basis /= np.linalg.norm(basis, axis=0)
    for col in range(basis.shape[1]):
        lead = np.argmax(np.abs(basis[:, col]))
        if basis[lead, col] < 0:
            basis[:, col] = -basis[:, col]
    return Projection(basis=basis, eigenvalues=values[order])


def compute_lda(data: LabeledVectors, out_dim: int) -> Projection:
    """Classical LDA projection (between-scatter rank is at most C - 1)."""
    proj = compute_projection(
        within_class_scatter(data), lda_between_scatter(data), out_dim
    )
    return Projection(
        basis=proj.basis, eigenvalues=proj.eigenvalues, method="lda"
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
    proj = compute_projection(
        within_class_scatter(data),
        nda_between_scatter(data, k, alpha, one_vs_rest=one_vs_rest),
        out_dim,
    )
    return Projection(
        basis=proj.basis,
        eigenvalues=proj.eigenvalues,
        method="nda",
        k=k,
        alpha=alpha,
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
