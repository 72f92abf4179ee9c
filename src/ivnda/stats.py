"""Per-recording sufficient statistics for subspace training.

For each recording and mixture component g: the zeroth-order statistic
``n[g] = sum_t gamma_t(g)`` and the first-order statistic
``f[g] = sum_t gamma_t(g) * o_t`` over the retained (speech) frames.
Statistics are accumulated, stored and handed to :mod:`ivnda.tv` *raw*; TV
centers each chunk of sessions in place around the component means as it
fills it (:func:`center_in_place`), so no centered copy of a whole set is
built.  :func:`check_values` and :func:`check_shape` are the checks every
set of statistics passes, one recording or a chunk of them at a time.

Accumulation reads the sparse top-N posteriors directly (one bincount for
``n``, one sparse-by-dense product for ``f``), so a T-frame recording needs
O(T * N) for its posteriors and O(G * D) for its statistics; the frame
alignment that produces them is bounded by O(CHUNK_FRAMES * G + T * N)
(see :mod:`ivnda.ubm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, NumericError, RangeError, ShapeError
from .frontend import FeatureMatrix
from .ubm import DiagonalGmm, PosteriorMatrix


@dataclass
class BwStats:
    """Raw zeroth/first-order statistics of one recording."""

    n: np.ndarray              # (G,), non-negative
    f: np.ndarray              # (G, D)
    recording_id: str = ""

    def __post_init__(self) -> None:
        self.n = np.asarray(self.n, dtype=np.float64)
        self.f = np.asarray(self.f, dtype=np.float64)
        if self.n.ndim != 1 or self.f.ndim != 2 or self.f.shape[0] != self.n.shape[0]:
            raise ShapeError("stats must have n of shape (G,) and f of shape (G, D)")
        check_values([self.recording_id], self.n[None], self.f.reshape(1, -1))

    @property
    def num_components(self) -> int:
        return self.n.shape[0]

    @property
    def dim(self) -> int:
        return self.f.shape[1]

    @property
    def total_frames(self) -> float:
        """Total soft frame count (equals the number of retained frames when
        posteriors are unpruned)."""
        return float(self.n.sum())


def check_values(recording_ids: Sequence[str], n: np.ndarray, f: np.ndarray) -> None:
    """Check the statistics of `recording_ids`, one per row of `n` and `f`:
    all finite (else ``NumericError`` naming the first bad recording) and
    counts non-negative (else ``RangeError``)."""
    finite = np.isfinite(n).all(axis=1) & np.isfinite(f).all(axis=1)
    if not finite.all():
        bad = recording_ids[int(np.argmin(finite))]
        raise NumericError(f"recording {bad!r}: statistics contain non-finite values")
    if np.any(n < -1e-12):
        raise RangeError("zeroth-order statistics must be non-negative")


def check_shape(recording_id: str, shape: tuple[int, int], ubm_shape: tuple[int, int]) -> None:
    """``ShapeError`` unless a recording's (G, D) statistics fit the UBM."""
    if tuple(shape) != tuple(ubm_shape):
        raise ShapeError(
            f"recording {recording_id!r}: stats are {tuple(shape)} but the UBM is "
            f"{tuple(ubm_shape)}"
        )


def accumulate_bw(
    features: FeatureMatrix,
    posteriors: PosteriorMatrix,
    recording_id: str = "",
) -> BwStats:
    """Accumulate raw zeroth/first-order statistics for one recording.

    `posteriors` rows must align one-to-one with the recording's speech
    frames.  Accumulation is linear in the posteriors: summing the
    statistics of two posterior sets equals the statistics of their sum.
    """
    retained = features.speech_frames()
    if retained.shape[0] != posteriors.num_frames:
        raise AlignmentError(
            f"recording {recording_id!r}: {retained.shape[0]} speech frames vs "
            f"{posteriors.num_frames} posterior rows"
        )
    n, f = posteriors.weighted_sums(retained)
    return BwStats(n=n, f=f, recording_id=recording_id)


def center_in_place(
    n: np.ndarray, f: np.ndarray, means: np.ndarray, scratch: np.ndarray | None = None
) -> None:
    """Center first-order statistics around the component means in place,
    ``f~[g] = f[g] - n[g] * mean_g``: `n` is (G,) and `f` (G, D) for one
    recording, or (C, G) and (C, G, D) for a chunk of C.  The products go to
    `scratch`, an array of `f`'s shape, when one is given."""
    f -= np.multiply(n[..., None], means, out=scratch)


def center_stats(stats: BwStats, gmm: DiagonalGmm) -> np.ndarray:
    """First-order statistics centered around the component means, as a new
    (G, D) array."""
    check_shape(stats.recording_id, stats.f.shape, gmm.means.shape)
    f = stats.f.copy()
    center_in_place(stats.n, f, gmm.means)
    return f
