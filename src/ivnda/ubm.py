"""Universal background model: diagonal-covariance GMM and frame posteriors.

The UBM is grown by binary splitting (1 -> 2 -> 4 -> ... components) with a
few EM iterations after every split.  Posteriors are computed in the log
domain and stored sparsely, keeping only the `top_n` largest entries per
frame renormalised to sum to one.  Posteriors may instead come from an
external soft aligner (e.g. a senone network), one text file per recording
read by :func:`load_external_posteriors`, in which case
:func:`train_supervised_gaussians` runs EM's M-step (`_m_step`) once with
those posteriors given, holding one recording's frames and posteriors at a
time besides O(G * D) sums.  In both, a component with no occupancy gets
weight 0 and keeps its previous Gaussian (EM) or the global moments.

EM, alignment and :func:`mean_log_likelihood` share one posterior kernel
that works on `CHUNK_FRAMES` frames at a time, so no frames x components
array is ever built whole.  It is component-major: a chunk of T frames
becomes (G, T) log densities, and each frame is normalised down its column,
across G contiguous rows, rather than along a row of only G entries.
:func:`train_gmm` walks its recordings once and copies each one's speech
frames, transposed, into column-major slabs of D rows and ``SLAB_CHUNKS *
CHUNK_FRAMES`` columns as it reads it, so a lazily read sequence of records
costs the pooled T x D speech frames once, plus the last slab's unused
columns and one record.  EM and the global moments walk (T, D) views of
`CHUNK_FRAMES` columns of the slabs, adding O(CHUNK_FRAMES * G).  Each row
of a view's (D, T) transpose is contiguous, so `_augment` widens contiguous
rows on every EM iteration, and the one transposing copy of each frame is
made once, when the records are pooled.  The per-frame log-likelihood
(the EM objective) is computed only when an ``on_iteration`` observer or
debug logging reads it.  The top-N alignment of a T-frame recording needs
O(min(T, CHUNK_FRAMES) * G + T * N): the kernel's buffers are sized to the
longest chunk it is given.

Frames stay at the precision they are given in: the float32 frames of a
feature record are pooled as float32 (T * D * 4 bytes), and only float64
input makes the slabs float64.  The kernels widen one chunk at a time to
float64 (`_augment`, `_row_sum`) before any arithmetic, and the statistics
widen each recording once, so every result is bit for bit the one computed
from float64 copies of the frames.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    FormatError,
    InsufficientDataError,
    NumericError,
    RangeError,
    ShapeError,
)
from .frontend import FeatureMatrix, frame_array

log = logging.getLogger(__name__)

MIN_FRAMES_PER_COMPONENT = 50

MAX_ROW_SUM = 1.0 + 1e-6  # the largest row sum a PosteriorMatrix accepts

# Frames per posterior chunk: the working set of EM and alignment is a few
# (CHUNK_FRAMES, G) float64 arrays, whatever the number of frames.
CHUNK_FRAMES = 1024

# Chunks per slab of pooled training frames: a slab holds whole chunks, so
# EM walks the same chunks as over one pooled array.  Freeing the slabs
# raises glibc's mmap threshold to their size, which decides whether a
# later stage in the process maps its large blocks fresh.  Feature
# extraction allocates its work buffers once per stage, so at D = 39 the
# 2.5 MB float32 slabs of 16 chunks cost the eval-phase `extract-features`
# about 1.8k minor faults per stage, not per recording, at no measurable
# time; 32 chunks avoid them but add 1.5 MB to the audio-front peak.
SLAB_CHUNKS = 16

# Callback invoked after each EM iteration:
# (num_components, iteration, model snapshot, mean per-frame log-likelihood)
IterationCallback = Callable[[int, int, "DiagonalGmm", float], None]


@dataclass
class DiagonalGmm:
    """Diagonal-covariance Gaussian mixture."""

    weights: np.ndarray    # (G,), positive, sums to 1
    means: np.ndarray      # (G, D)
    variances: np.ndarray  # (G, D), strictly positive

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        g = self.weights.shape[0]
        if self.means.ndim != 2 or self.means.shape[0] != g:
            raise ShapeError("means must be (G, D)")
        if self.variances.shape != self.means.shape:
            raise ShapeError("variances must match means")
        for name in ("weights", "means", "variances"):
            if not np.isfinite(getattr(self, name)).all():
                raise NumericError(f"GMM {name} contain non-finite values")
        if np.any(self.variances <= 0):
            raise RangeError("variances must be strictly positive")
        if abs(self.weights.sum() - 1.0) > 1e-8 or np.any(self.weights < 0):
            raise RangeError("weights must be non-negative and sum to 1")

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class PosteriorMatrix:
    """Sparse per-frame component posteriors in CSR layout.

    Row ``t`` holds the posterior mass of frame ``t`` over the retained
    components; entries are non-negative and each row sums to at most
    `MAX_ROW_SUM` (exactly 1 after top-n renormalisation).
    """

    indptr: np.ndarray    # (T + 1,) int64, non-decreasing
    indices: np.ndarray   # (nnz,) int32, component ids
    values: np.ndarray    # (nnz,) float64
    num_components: int

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int32)
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def num_frames(self) -> int:
        return self.indptr.shape[0] - 1

    def row(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        sl = slice(self.indptr[t], self.indptr[t + 1])
        return self.indices[sl], self.values[sl]

    def validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.size < 1 or self.indptr[0] != 0:
            raise ShapeError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0) or self.indptr[-1] != self.indices.size:
            raise ShapeError("indptr must be non-decreasing and end at nnz")
        if self.values.shape != self.indices.shape:
            raise ShapeError("values and indices must align")
        self._check_indices()
        if np.any(self.values < 0):
            raise RangeError("posterior values must be non-negative")
        if self.num_frames > 0:
            csum = np.concatenate([[0.0], np.cumsum(self.values)])
            sums = csum[self.indptr[1:]] - csum[self.indptr[:-1]]
            if np.any(sums > MAX_ROW_SUM):
                raise RangeError("posterior row sums exceed 1")

    def _check_indices(self) -> None:
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_components
        ):
            raise RangeError("posterior component index out of range")

    def weighted_sums(self, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(n, f)`` with ``n[g] = sum_t gamma_t(g)`` and
        ``f[g] = sum_t gamma_t(g) * frames[t]``, as one bincount and one
        sparse product.  Repeated component ids within a row add up."""
        # Imported here: loading scipy.sparse costs every process import
        # time and about 1.6 MB of memory, and only statistics need it.
        from scipy.sparse import csr_matrix

        self._check_indices()  # the sparse product does not bounds-check them
        frames = np.asarray(frames, dtype=np.float64)  # widens float32 once
        n = np.bincount(
            self.indices, weights=self.values, minlength=self.num_components
        )
        gamma = csr_matrix(
            (self.values, self.indices, self.indptr),
            shape=(self.num_frames, self.num_components),
        )
        return n, np.asarray(gamma.T @ frames)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.num_frames, self.num_components))
        for t in range(self.num_frames):
            idx, val = self.row(t)
            dense[t, idx] = val
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray, num_components: int | None = None) -> "PosteriorMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        g = num_components if num_components is not None else dense.shape[1]
        rows, cols = np.nonzero(dense)
        counts = np.bincount(rows, minlength=dense.shape[0])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(
            indptr=indptr,
            indices=cols.astype(np.int32),
            values=dense[rows, cols],
            num_components=g,
        )


def density_weights(gmm: DiagonalGmm) -> tuple[np.ndarray, np.ndarray]:
    """(G, 2D) matrix W and (G,) column c with ``W @ _augment(x)[:2D] + c``
    the log densities of `gmm`, computed afresh on each call.  The log
    weights are in `c`, which is added after the product: a zero weight is
    -inf there, and a BLAS kernel that multiplies it by zero raises an
    invalid-value warning."""
    inv_var = 1.0 / gmm.variances
    with np.errstate(divide="ignore"):  # zero weights map to -inf cleanly
        log_w = np.log(gmm.weights)
    const = (
        log_w
        - 0.5 * (gmm.dim * np.log(2.0 * np.pi) + np.log(gmm.variances).sum(axis=1))
        - 0.5 * np.sum(gmm.means**2 * inv_var, axis=1)
    )
    return np.hstack([gmm.means * inv_var, -0.5 * inv_var]), const


def _augment(frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Columns ``[x; x**2; 1]`` of the (T, D) `frames` as a (2D + 1, T)
    float64 array, written to `out` if given: the log densities are linear
    in them, and the posterior-weighted sums of them are first moments,
    second moments and occupancy.  Float32 frames are widened first, so the
    square is the float64 one."""
    t, d = frames.shape
    if out is None:
        out = np.empty((2 * d + 1, t))
    out[:d] = frames.T
    np.square(out[:d], out=out[d : 2 * d])
    out[2 * d] = 1.0
    return out


def _posteriors(log_dens: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalise one (G, T) chunk of log densities into posteriors, in
    place, each frame across the G rows of its column.

    Returns the posteriors (the same array) and, per frame, the largest log
    density and the sum it was normalised by: the frame's mixture
    log-likelihood is ``top + log(total)``.
    """
    top = log_dens.max(axis=0)
    log_dens -= top
    post = np.exp(log_dens, out=log_dens)
    total = post.sum(axis=0)
    post /= total
    return post, top, total


def _as_frames(gmm: DiagonalGmm, frames: np.ndarray) -> np.ndarray:
    frames = frame_array(frames)
    if frames.ndim != 2 or frames.shape[1] != gmm.dim:
        raise ShapeError(f"frames must be (T, {gmm.dim})")
    return frames


def _chunks(frames: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of at most `CHUNK_FRAMES` rows of `frames`."""
    return [frames[s : s + CHUNK_FRAMES] for s in range(0, frames.shape[0], CHUNK_FRAMES)]


def _chunked_posteriors(
    gmm: DiagonalGmm,
    chunks: Sequence[np.ndarray],
    with_ll: bool = True,
    density: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Yield ``(augmented frames, posteriors, per-frame log-likelihood)`` for
    each chunk of at most `CHUNK_FRAMES` (T, gmm.dim) frames: a (2D + 1, T)
    `_augment` array, (G, T) posteriors and (T,) log-likelihoods, or None
    for them unless `with_ll`.  `density` is `density_weights(gmm)`,
    computed here if not given.

    The augmented frames and posteriors live in two buffers, sized to the
    longest chunk, that the next chunk overwrites.  Allocated afresh per
    chunk, they are big enough for glibc's malloc to map fresh pages for
    each one until some larger block has been freed, and faulting those
    pages in made `_augment` about 30% slower in EM.
    """
    weights, const = density_weights(gmm) if density is None else density
    g, two_d = weights.shape
    longest = max((chunk.shape[0] for chunk in chunks), default=0)
    aug_buf = np.empty((two_d + 1) * longest)
    dens_buf = np.empty(g * longest)
    for chunk in chunks:
        t = chunk.shape[0]
        aug = _augment(chunk, aug_buf[: (two_d + 1) * t].reshape(two_d + 1, t))
        dens = np.matmul(weights, aug[:two_d], out=dens_buf[: g * t].reshape(g, t))
        dens += const[:, None]
        post, top, total = _posteriors(dens)
        yield aug, post, top + np.log(total) if with_ll else None


def mean_log_likelihood(gmm: DiagonalGmm, frames: np.ndarray) -> float:
    """Average per-frame log-likelihood under the mixture."""
    frames = _as_frames(gmm, frames)
    if frames.shape[0] == 0:
        raise InsufficientDataError("no frames to score")
    total = sum(ll.sum() for _, _, ll in _chunked_posteriors(gmm, _chunks(frames)))
    return float(total / frames.shape[0])


def _pool_speech_frames(features: Iterable[FeatureMatrix]) -> tuple[list[np.ndarray], int]:
    """The speech frames of `features` in order, as (T, D) views of
    `CHUNK_FRAMES` columns of column-major (D, slab columns) slabs that each
    record's frames are copied into, transposed, as it is read, and their
    number.  The slabs keep the records' precision: float32 while every
    record so far is float32, widened once to float64 when a float64 record
    comes, never narrowed.  Non-finite frames are rejected record by
    record."""
    slab_cols = SLAB_CHUNKS * CHUNK_FRAMES
    slabs: list[np.ndarray] = []
    count = 0
    for f in features:
        frames = f.speech_frames()
        _require_finite(frames, count)
        if slabs and frames.shape[1] != slabs[0].shape[0]:
            raise ShapeError(
                f"training records must share one feature dimension, got "
                f"{slabs[0].shape[0]} and {frames.shape[1]}"
            )
        dtype = np.promote_types(slabs[0].dtype, frames.dtype) if slabs else frames.dtype
        if slabs and slabs[0].dtype != dtype:
            slabs = [slab.astype(dtype) for slab in slabs]  # widen once, never narrow
        done = 0
        while done < frames.shape[0]:
            at = count % slab_cols
            if at == 0:
                slabs.append(np.empty((frames.shape[1], slab_cols), dtype))
            n = min(slab_cols - at, frames.shape[0] - done)
            slabs[-1][:, at : at + n] = frames[done : done + n].T
            done += n
            count += n
    if not count:
        raise InsufficientDataError("no speech frames in the training set")
    slabs[-1] = slabs[-1][:, : count - (len(slabs) - 1) * slab_cols]
    return [chunk for slab in slabs for chunk in _chunks(slab.T)], count


def _row_sum(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """The float64 sum of the rows of `blocks`, bit for bit numpy's axis-0
    sum of their concatenation widened to float64, which adds the rows one
    after another.  Each block is summed as a C-contiguous copy: summed
    down a contiguous column, numpy would add it pairwise instead."""
    total = None
    for block in blocks:
        rows = block if total is None else np.vstack([total, block])
        total = np.ascontiguousarray(rows, dtype=np.float64).sum(axis=0)
    return total


def _split_components(gmm: DiagonalGmm, offset: float = 0.2) -> DiagonalGmm:
    """Duplicate every component, perturbing means by +-offset standard deviations."""
    sd = np.sqrt(gmm.variances)
    g, d = gmm.means.shape
    means = np.empty((2 * g, d))
    means[0::2] = gmm.means + offset * sd
    means[1::2] = gmm.means - offset * sd
    variances = np.repeat(gmm.variances, 2, axis=0)
    weights = np.repeat(gmm.weights / 2.0, 2)
    return DiagonalGmm(weights=weights, means=means, variances=variances)


def _m_step(sums: np.ndarray, floor: np.ndarray, fallback: DiagonalGmm) -> DiagonalGmm:
    """Gaussians from the (G, 2D + 1) posterior-weighted sums of `_augment`
    columns, variances floored at `floor`.  A component with occupancy at most
    1e-10 keeps `fallback`'s mean and variance with weight 0."""
    d = fallback.dim
    occupancy = sums[:, 2 * d]
    alive = occupancy > 1e-10
    if not alive.any():
        raise InsufficientDataError("all components have zero occupancy")
    if not alive.all():
        log.warning("%d of %d components have zero occupancy; kept with weight 0",
                    (~alive).sum(), alive.size)
    means = fallback.means.copy()
    variances = fallback.variances.copy()
    means[alive] = sums[alive, :d] / occupancy[alive, None]
    second = sums[alive, d : 2 * d] / occupancy[alive, None]
    variances[alive] = np.maximum(second - means[alive] ** 2, floor)
    weights = np.where(alive, occupancy, 0.0)
    return DiagonalGmm(weights=weights / weights.sum(), means=means, variances=variances)


def _em_step(
    gmm: DiagonalGmm, chunks: Sequence[np.ndarray], floor: np.ndarray, with_ll: bool = True
) -> tuple[DiagonalGmm, float | None]:
    """One EM iteration over the frames in `chunks`: the updated model and,
    if `with_ll`, the mean per-frame log-likelihood of `gmm` (else None)."""
    g, d = gmm.means.shape
    sums = np.zeros((g, 2 * d + 1))  # [first moments, second moments, occupancy]
    total_ll, count = 0.0, 0
    for aug, post, ll in _chunked_posteriors(gmm, chunks, with_ll):
        sums += post @ aug.T
        if with_ll:
            total_ll += ll.sum()
            count += ll.shape[0]
    return _m_step(sums, floor, gmm), total_ll / count if with_ll else None


def _require_finite(frames: np.ndarray, offset: int = 0) -> None:
    """Reject non-finite training frames, naming the first by its index
    among the pooled speech frames (`frames` start at index `offset`)."""
    finite = np.isfinite(frames).all(axis=1)
    if not finite.all():
        raise NumericError(
            f"training speech frames contain non-finite values (first at "
            f"pooled speech frame {offset + int(np.argmin(finite))})"
        )


def _global_gaussian(
    mean: np.ndarray, var: np.ndarray, variance_floor_scale: float, copies: int = 1
) -> tuple[DiagonalGmm, np.ndarray]:
    """`copies` equally weighted copies of the Gaussian of the pooled
    moments, and the variance floor: `variance_floor_scale` times the pooled
    variance, 1e-10 where that is not positive."""
    floor = variance_floor_scale * var
    floor[floor <= 0] = 1e-10
    variances = np.tile(np.maximum(var, floor), (copies, 1))
    return DiagonalGmm(np.full(copies, 1.0 / copies), np.tile(mean, (copies, 1)), variances), floor


def train_gmm(
    features: Sequence[FeatureMatrix],
    num_components: int,
    iters_per_level: int = 5,
    variance_floor_scale: float = 1e-3,
    on_iteration: IterationCallback | None = None,
) -> DiagonalGmm:
    """Train a diagonal GMM on pooled speech frames by binary splitting.

    Starts from the single maximum-likelihood Gaussian and alternates
    splitting every component in two with `iters_per_level` EM iterations
    until `num_components` (a power of two) is reached.  Variances are
    floored at ``variance_floor_scale`` times the global per-dimension
    variance throughout.  `on_iteration`, when given, observes every EM
    iteration together with the average per-frame log-likelihood of the
    model *before* that iteration's update; debug logging writes the same
    value.  That objective is evaluated only when one of them reads it.
    """
    if num_components < 1 or num_components & (num_components - 1):
        raise ValueError(f"num_components must be a power of two, got {num_components}")
    if iters_per_level < 1:
        raise ValueError("iters_per_level must be >= 1")
    chunks, count = _pool_speech_frames(features)
    if count < MIN_FRAMES_PER_COMPONENT * num_components:
        raise InsufficientDataError(
            f"{count} speech frames is too few for {num_components} "
            f"components (need {MIN_FRAMES_PER_COMPONENT} per component)"
        )
    # Bit for bit frames.mean(axis=0) and frames.var(axis=0) of the pooled frames.
    mean = _row_sum(chunks) / count
    var = _row_sum((c - mean) ** 2 for c in chunks) / count
    gmm, floor = _global_gaussian(mean, var, variance_floor_scale)
    observed = on_iteration is not None or log.isEnabledFor(logging.DEBUG)
    while gmm.num_components < num_components:
        gmm = _split_components(gmm)
        for i in range(iters_per_level):
            updated, ll = _em_step(gmm, chunks, floor, observed)
            if on_iteration is not None:
                on_iteration(gmm.num_components, i, gmm, ll)
            if observed:
                log.debug(
                    "ubm iteration %d at %d components: mean log-likelihood %.6f",
                    i, gmm.num_components, ll,
                )
            gmm = updated
        log.info("trained level with %d components", gmm.num_components)
    return gmm


def gmm_posteriors(
    gmm: DiagonalGmm,
    features: FeatureMatrix,
    top_n: int,
    density: tuple[np.ndarray, np.ndarray] | None = None,
) -> PosteriorMatrix:
    """Per-frame component posteriors for the speech frames of a recording.

    Posteriors are computed exactly in the log domain, then truncated to the
    `top_n` largest per frame and renormalised to sum to one.  ``top_n >=
    num_components`` keeps everything.  `density`, if given, is
    :func:`density_weights` of `gmm`, computed once for many recordings.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    frames = features.speech_frames()
    if frames.shape[0] == 0:
        return PosteriorMatrix(
            indptr=np.zeros(1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int32),
            values=np.zeros(0),
            num_components=gmm.num_components,
        )
    g = gmm.num_components
    keep = min(top_n, g)
    t = frames.shape[0]
    indices = np.empty((t, keep), dtype=np.int32)
    values = np.empty((t, keep))
    start = 0
    chunks = _chunks(_as_frames(gmm, frames))
    for _, post, _ in _chunked_posteriors(gmm, chunks, with_ll=False, density=density):
        stop = start + post.shape[1]
        if keep == g:
            indices[start:stop] = np.arange(g)
            values[start:stop] = post.T
        else:
            post = post.T.copy()  # (T, G) rows: argpartition is slow on a strided view
            picked = np.argpartition(post, g - keep, axis=1)[:, g - keep :]
            picked.sort(axis=1)
            vals = np.take_along_axis(post, picked, axis=1)
            indices[start:stop] = picked
            values[start:stop] = vals / vals.sum(axis=1, keepdims=True)
        start = stop
    return PosteriorMatrix(
        indptr=np.arange(t + 1, dtype=np.int64) * keep,
        indices=indices.reshape(-1),
        values=values.reshape(-1),
        num_components=g,
    )


def train_supervised_gaussians(
    features: Sequence[FeatureMatrix],
    posteriors: Sequence[PosteriorMatrix],
    num_components: int,
    variance_floor_scale: float = 1e-3,
    recording_ids: Sequence[str] | None = None,
) -> DiagonalGmm:
    """Estimate Gaussians from externally supplied frame posteriors.

    EM's M-step with the posteriors given, in one pass over the recordings.
    Components with zero occupancy keep the global mean and variance with
    weight 0 (and a warning).  With a single component and unit posteriors
    this reproduces the global sample moments exactly.  `recording_ids`
    name the recordings in errors (default: their positions).
    """
    if len(features) != len(posteriors):
        raise AlignmentError(
            f"{len(features)} feature matrices vs {len(posteriors)} posterior sets"
        )
    if not features:
        raise InsufficientDataError("no recordings provided")
    dim = features[0].dim
    sums = np.zeros((num_components, 2 * dim + 1))
    pooled = np.zeros(2 * dim + 1)  # unweighted: [sum x, sum x**2, frame count]
    names = range(len(features)) if recording_ids is None else recording_ids
    for name, feats, post in zip(names, features, posteriors):
        frames = feats.speech_frames()
        if frames.shape[0] != post.num_frames:
            raise AlignmentError(
                f"recording {name!r}: {frames.shape[0]} speech frames vs "
                f"{post.num_frames} posterior rows"
            )
        if post.num_components != num_components:
            raise ShapeError(
                f"posterior set has {post.num_components} components, expected "
                f"{num_components}"
            )
        _require_finite(frames, int(pooled[2 * dim]))
        # (T, 2D + 1) rows, so the pooled sum adds frames one after another,
        # as frames.sum(axis=0) does, not pairwise along a row.
        aug = np.ascontiguousarray(_augment(frames).T)
        sums += post.weighted_sums(aug)[1]
        pooled += aug.sum(axis=0)
    total = pooled[2 * dim]
    if total == 0:
        raise InsufficientDataError("no speech frames provided")
    global_mean = pooled[:dim] / total
    global_var = pooled[dim : 2 * dim] / total - global_mean**2
    fallback, floor = _global_gaussian(
        global_mean, global_var, variance_floor_scale, num_components
    )
    return _m_step(sums, floor, fallback)


def write_posteriors(path: str | Path, post: PosteriorMatrix) -> None:
    """Write one recording's posteriors in the external text format: one
    line per frame, each a space-separated list of ``component:value``
    pairs."""
    lines = []
    for t in range(post.num_frames):
        idx, val = post.row(t)
        if idx.size == 0:
            raise ValueError(f"{path}: frame {t} has no entries; not representable")
        lines.append(" ".join(f"{g}:{v:.17g}" for g, v in zip(idx, val)) + "\n")
    Path(path).write_text("".join(lines))


def load_external_posteriors(
    path: str | Path, num_components: int, data: bytes | None = None
) -> PosteriorMatrix:
    """Read one recording's posteriors from an external aligner (see
    :func:`write_posteriors`), or from `data`, the file's bytes already read;
    blank lines are skipped.

    Component ids must lie in ``[0, num_components)`` and values must be
    finite and non-negative; each error names ``path:line``.  A row whose
    sum lies in ``[1 - 1e-4, MAX_ROW_SUM]`` is kept as it is, and any other
    row with a positive sum is renormalised.  Entries are stored sorted by
    component id.
    """
    text = (Path(path).read_bytes() if data is None else data).decode(errors="replace")
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        row: list[tuple[int, float]] = []
        for token in line.split():
            g_str, _, v_str = token.partition(":")
            try:
                g, v = int(g_str), float(v_str)
            except ValueError as exc:
                raise FormatError(f"{path}:{line_no}: bad entry {token!r}") from exc
            if not 0 <= g < num_components:
                raise RangeError(
                    f"{path}:{line_no}: component {g} out of range [0, {num_components})"
                )
            if not 0 <= v < float("inf"):
                kind = "negative" if v < 0 else "non-finite"
                raise RangeError(f"{path}:{line_no}: {kind} posterior {v}")
            row.append((g, v))
        if not row:
            continue
        row.sort(key=lambda gv: gv[0])
        total = sum(v for _, v in row)
        if total > 0 and not 1.0 - 1e-4 <= total <= MAX_ROW_SUM:
            row = [(g, v / total) for g, v in row]
        indices.extend(g for g, _ in row)
        values.extend(v for _, v in row)
        indptr.append(len(indices))
    post = PosteriorMatrix(
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int32),
        values=np.asarray(values),
        num_components=num_components,
    )
    post.validate()
    return post
