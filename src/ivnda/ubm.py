"""Universal background model: diagonal-covariance GMM and frame posteriors.

The UBM is grown by binary splitting (1 -> 2 -> 4 -> ... components) with a
few EM iterations after every split.  Posteriors are computed in the log
domain and stored sparsely, keeping only the `top_n` largest entries per
frame renormalised to sum to one.  Posteriors may instead come from an
external soft aligner (e.g. a senone network) via a simple text format, in
which case component means/variances can be re-estimated with
:func:`train_supervised_gaussians`.

EM, alignment and :func:`mean_log_likelihood` share one posterior kernel
that works on `CHUNK_FRAMES` frames at a time, so no frames x components
array is ever built whole.  Memory is bounded by the pooled T x D speech
frames plus O(CHUNK_FRAMES * G) for EM, and by O(CHUNK_FRAMES * G + T * N)
for the top-N alignment of a T-frame recording.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    FormatError,
    InsufficientDataError,
    NumericError,
    RangeError,
    ShapeError,
)
from .frontend import FeatureMatrix

log = logging.getLogger(__name__)

MIN_FRAMES_PER_COMPONENT = 50

# Frames per posterior chunk: the working set of EM and alignment is a few
# (CHUNK_FRAMES, G) float64 arrays, whatever the number of frames.
CHUNK_FRAMES = 1024

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
    1 + 1e-6 (exactly 1 after top-n renormalisation).
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
            if np.any(sums > 1.0 + 1e-6):
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


def _density_weights(gmm: DiagonalGmm) -> np.ndarray:
    """(2D + 1, G) matrix W with ``_augment(x) @ W`` the log densities."""
    inv_var = 1.0 / gmm.variances
    with np.errstate(divide="ignore"):  # zero weights map to -inf cleanly
        log_w = np.log(gmm.weights)
    const = (
        log_w
        - 0.5 * (gmm.dim * np.log(2.0 * np.pi) + np.log(gmm.variances).sum(axis=1))
        - 0.5 * np.sum(gmm.means**2 * inv_var, axis=1)
    )
    return np.vstack([(gmm.means * inv_var).T, -0.5 * inv_var.T, const])


def _augment(frames: np.ndarray) -> np.ndarray:
    """Rows ``[x, x**2, 1]``: the log densities are linear in them, and the
    posterior-weighted sums of them are first moments, second moments and
    occupancy."""
    t, d = frames.shape
    out = np.empty((t, 2 * d + 1))
    out[:, :d] = frames
    np.square(frames, out=out[:, d : 2 * d])
    out[:, 2 * d] = 1.0
    return out


def _posteriors(log_dens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalise one chunk of log densities into posteriors, in place.

    Returns the posteriors (the same array) and the per-frame mixture
    log-likelihood ``max + log(sum)``.
    """
    top = log_dens.max(axis=1)
    log_dens -= top[:, None]
    post = np.exp(log_dens, out=log_dens)
    total = post.sum(axis=1)
    post /= total[:, None]
    return post, top + np.log(total)


def _as_frames(gmm: DiagonalGmm, frames: np.ndarray) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != gmm.dim:
        raise ShapeError(f"frames must be (T, {gmm.dim})")
    return frames


def _chunked_posteriors(gmm: DiagonalGmm, frames: np.ndarray):
    """Yield ``(augmented frames, posteriors, per-frame log-likelihood)`` for
    consecutive chunks of at most `CHUNK_FRAMES` frames."""
    frames = _as_frames(gmm, frames)
    weights = _density_weights(gmm)
    for start in range(0, frames.shape[0], CHUNK_FRAMES):
        aug = _augment(frames[start : start + CHUNK_FRAMES])
        yield (aug, *_posteriors(aug @ weights))


def log_component_densities(gmm: DiagonalGmm, frames: np.ndarray) -> np.ndarray:
    """log(w_g) + log N(x_t; mu_g, diag sigma2_g) for all frames/components."""
    return _augment(_as_frames(gmm, frames)) @ _density_weights(gmm)


def mean_log_likelihood(gmm: DiagonalGmm, frames: np.ndarray) -> float:
    """Average per-frame log-likelihood under the mixture."""
    frames = _as_frames(gmm, frames)
    if frames.shape[0] == 0:
        raise InsufficientDataError("no frames to score")
    total = sum(ll.sum() for _, _, ll in _chunked_posteriors(gmm, frames))
    return float(total / frames.shape[0])


def _collect_speech_frames(features: Sequence[FeatureMatrix]) -> np.ndarray:
    blocks = [f.speech_frames() for f in features if f.speech_mask.any()]
    if not blocks:
        raise InsufficientDataError("no speech frames in the training set")
    return np.concatenate(blocks, axis=0)


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


def _em_step(
    gmm: DiagonalGmm, frames: np.ndarray, floor: np.ndarray
) -> tuple[DiagonalGmm, float]:
    g, d = gmm.means.shape
    sums = np.zeros((g, 2 * d + 1))  # [first moments, second moments, occupancy]
    total_ll = 0.0
    for aug, resp, ll in _chunked_posteriors(gmm, frames):
        sums += resp.T @ aug
        total_ll += ll.sum()
    occupancy = sums[:, 2 * d]
    safe = occupancy > 1e-10
    means = gmm.means.copy()
    variances = gmm.variances.copy()
    means[safe] = sums[safe, :d] / occupancy[safe, None]
    second = sums[safe, d : 2 * d] / occupancy[safe, None]
    variances[safe] = np.maximum(second - means[safe] ** 2, floor)
    if not safe.all():
        log.warning("EM step left %d empty components untouched", (~safe).sum())
    weights = occupancy / occupancy.sum()
    updated = DiagonalGmm(weights=weights, means=means, variances=variances)
    return updated, total_ll / frames.shape[0]


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
    model *before* that iteration's update.
    """
    if num_components < 1 or num_components & (num_components - 1):
        raise ValueError(f"num_components must be a power of two, got {num_components}")
    frames = _collect_speech_frames(features)
    finite = np.isfinite(frames).all(axis=1)
    if not finite.all():
        raise NumericError(
            f"training speech frames contain non-finite values (first at "
            f"pooled speech frame {int(np.argmin(finite))})"
        )
    if frames.shape[0] < MIN_FRAMES_PER_COMPONENT * num_components:
        raise InsufficientDataError(
            f"{frames.shape[0]} speech frames is too few for {num_components} "
            f"components (need {MIN_FRAMES_PER_COMPONENT} per component)"
        )
    global_mean = frames.mean(axis=0)
    global_var = frames.var(axis=0)
    floor = variance_floor_scale * global_var
    floor[floor <= 0] = 1e-10
    gmm = DiagonalGmm(
        weights=np.ones(1),
        means=global_mean[None, :],
        variances=np.maximum(global_var, floor)[None, :],
    )
    while gmm.num_components < num_components:
        gmm = _split_components(gmm)
        for i in range(iters_per_level):
            updated, ll = _em_step(gmm, frames, floor)
            if on_iteration is not None:
                on_iteration(gmm.num_components, i, gmm, ll)
            gmm = updated
        log.info("trained level with %d components", gmm.num_components)
    return gmm


def gmm_posteriors(
    gmm: DiagonalGmm, features: FeatureMatrix, top_n: int
) -> PosteriorMatrix:
    """Per-frame component posteriors for the speech frames of a recording.

    Posteriors are computed exactly in the log domain, then truncated to the
    `top_n` largest per frame and renormalised to sum to one.  ``top_n >=
    num_components`` keeps everything.
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
    for _, post, _ in _chunked_posteriors(gmm, frames):
        stop = start + post.shape[0]
        if keep == g:
            indices[start:stop] = np.arange(g)
            values[start:stop] = post
        else:
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
) -> DiagonalGmm:
    """Estimate Gaussians from externally supplied frame posteriors.

    One weighted-moment pass: component g gets the posterior-weighted mean
    and variance of the frames aligned to it.  Components with (near-)zero
    occupancy are left at the global mean/variance with a warning.  With a
    single component and unit posteriors this reproduces the global sample
    moments exactly.
    """
    if len(features) != len(posteriors):
        raise AlignmentError(
            f"{len(features)} feature matrices vs {len(posteriors)} posterior sets"
        )
    if not features:
        raise InsufficientDataError("no recordings provided")
    dim = features[0].dim
    occ = np.zeros(num_components)
    first = np.zeros((num_components, dim))
    second = np.zeros((num_components, dim))
    total_frames = 0
    total_sum = np.zeros(dim)
    total_sq = np.zeros(dim)
    for feats, post in zip(features, posteriors):
        frames = feats.speech_frames()
        if frames.shape[0] != post.num_frames:
            raise AlignmentError(
                f"{frames.shape[0]} speech frames vs {post.num_frames} posterior rows"
            )
        if post.num_components != num_components:
            raise ShapeError(
                f"posterior set has {post.num_components} components, expected "
                f"{num_components}"
            )
        n, sums = post.weighted_sums(np.hstack([frames, frames**2]))
        occ += n
        first += sums[:, :dim]
        second += sums[:, dim:]
        total_frames += frames.shape[0]
        total_sum += frames.sum(axis=0)
        total_sq += (frames**2).sum(axis=0)
    if total_frames == 0:
        raise InsufficientDataError("no speech frames provided")
    global_mean = total_sum / total_frames
    global_var = total_sq / total_frames - global_mean**2
    floor = variance_floor_scale * global_var
    floor[floor <= 0] = 1e-10
    means = np.tile(global_mean, (num_components, 1))
    variances = np.tile(np.maximum(global_var, floor), (num_components, 1))
    alive = occ > 1e-6
    if not alive.any():
        raise InsufficientDataError("all components have zero occupancy")
    if not alive.all():
        log.warning(
            "%d of %d components have zero occupancy; using global moments",
            (~alive).sum(),
            num_components,
        )
    means[alive] = first[alive] / occ[alive, None]
    variances[alive] = np.maximum(
        second[alive] / occ[alive, None] - means[alive] ** 2, floor
    )
    weights = np.where(alive, occ, 0.0)
    weights = weights / weights.sum()
    # Zero weights are not representable; give dead components a vanishing share.
    if not alive.all():
        weights = np.maximum(weights, 1e-12)
        weights = weights / weights.sum()
    return DiagonalGmm(weights=weights, means=means, variances=variances)


def write_posteriors(
    path: str | Path, recordings: dict[str, PosteriorMatrix]
) -> None:
    """Write posteriors in the external text format.

    The data file has one block of lines per recording (blank line between
    blocks), one frame per line, each a space-separated list of
    ``component:value`` pairs.  The companion index file ``<path>.idx``
    lists the recording ids, one per line, in block order.
    """
    path = Path(path)
    ids = list(recordings)
    blocks = []
    for rec_id in ids:
        post = recordings[rec_id]
        if post.num_frames == 0:
            raise ValueError(f"recording {rec_id!r} has no frames; not representable")
        lines = []
        for t in range(post.num_frames):
            idx, val = post.row(t)
            if idx.size == 0:
                raise ValueError(
                    f"recording {rec_id!r} frame {t} has no entries; not representable"
                )
            lines.append(" ".join(f"{g}:{v:.17g}" for g, v in zip(idx, val)))
        blocks.append("\n".join(lines))
    path.write_text("\n\n".join(blocks) + "\n")
    Path(str(path) + ".idx").write_text("\n".join(ids) + "\n")


def load_external_posteriors(
    path: str | Path, num_components: int
) -> dict[str, PosteriorMatrix]:
    """Read posteriors written by an external aligner (see :func:`write_posteriors`).

    Component ids must lie in ``[0, num_components)``; values must be
    non-negative.  Rows whose sum differs from 1 by more than 1e-4 are
    renormalised.  Entries are stored sorted by component id.
    """
    path = Path(path)
    idx_path = Path(str(path) + ".idx")
    if not idx_path.exists():
        raise FormatError(f"{idx_path}: missing posterior index file")
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(idx_path.read_text().splitlines(), start=1):
        rec_id = line.strip()
        if rec_id in first_line:
            raise FormatError(
                f"{idx_path}:{line_no}: duplicate recording id {rec_id!r}, "
                f"first listed on line {first_line[rec_id]}"
            )
        if rec_id:
            first_line[rec_id] = line_no
    ids = list(first_line)
    blocks = path.read_text().split("\n\n")
    blocks = [b for b in blocks if b.strip()]
    if len(blocks) != len(ids):
        raise AlignmentError(
            f"{path}: {len(blocks)} posterior blocks but {len(ids)} recording ids"
        )
    out: dict[str, PosteriorMatrix] = {}
    for rec_id, block in zip(ids, blocks):
        indptr = [0]
        indices: list[int] = []
        values: list[float] = []
        for line_no, line in enumerate(block.splitlines(), start=1):
            if not line.strip():
                continue
            row: list[tuple[int, float]] = []
            for token in line.split():
                g_str, _, v_str = token.partition(":")
                try:
                    g, v = int(g_str), float(v_str)
                except ValueError as exc:
                    raise FormatError(
                        f"{path} [{rec_id}:{line_no}]: bad entry {token!r}"
                    ) from exc
                if not 0 <= g < num_components:
                    raise RangeError(
                        f"{path} [{rec_id}:{line_no}]: component {g} out of range "
                        f"[0, {num_components})"
                    )
                if v < 0:
                    raise RangeError(
                        f"{path} [{rec_id}:{line_no}]: negative posterior {v}"
                    )
                row.append((g, v))
            row.sort(key=lambda gv: gv[0])
            total = sum(v for _, v in row)
            if total > 0 and abs(total - 1.0) > 1e-4:
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
        out[rec_id] = post
    return out
