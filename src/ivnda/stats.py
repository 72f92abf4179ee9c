"""Per-recording sufficient statistics for subspace training.

For each recording and mixture component g: the zeroth-order statistic
``n[g] = sum_t gamma_t(g)`` and the first-order statistic
``f[g] = sum_t gamma_t(g) * o_t`` over the retained (speech) frames.
Statistics are accumulated and stored *raw*; centering around the component
means happens explicitly via :func:`center_stats` just before subspace
training or i-vector extraction.

Accumulation reads the sparse top-N posteriors directly (one bincount for
``n``, one sparse-by-dense product for ``f``), so a T-frame recording needs
O(T * N) for its posteriors and O(G * D) for its statistics; the frame
alignment that produces them is bounded by O(CHUNK_FRAMES * G + T * N)
(see :mod:`ivnda.ubm`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ContractError, RangeError, ShapeError
from .frontend import FeatureMatrix
from .ubm import DiagonalGmm, PosteriorMatrix


@dataclass
class BwStats:
    """Zeroth/first-order statistics of one recording.

    `centered` records whether `f` has had ``n[g] * mean_g`` subtracted;
    it is an in-memory flag only (archives always store raw statistics).
    """

    n: np.ndarray              # (G,), non-negative
    f: np.ndarray              # (G, D)
    recording_id: str = ""
    centered: bool = False

    def __post_init__(self) -> None:
        self.n = np.asarray(self.n, dtype=np.float64)
        self.f = np.asarray(self.f, dtype=np.float64)
        if self.n.ndim != 1 or self.f.ndim != 2 or self.f.shape[0] != self.n.shape[0]:
            raise ShapeError("stats must have n of shape (G,) and f of shape (G, D)")
        if np.any(self.n < -1e-12):
            raise RangeError("zeroth-order statistics must be non-negative")

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
    return BwStats(n=n, f=f, recording_id=recording_id, centered=False)


def center_stats(stats: BwStats, gmm: DiagonalGmm) -> BwStats:
    """Center first-order statistics around the component means:
    ``f~[g] = f[g] - n[g] * mean_g``.  Idempotence is deliberately not
    assumed; centering already-centered statistics raises."""
    if stats.centered:
        raise ContractError(
            f"recording {stats.recording_id!r}: statistics are already centered"
        )
    if stats.num_components != gmm.num_components or stats.dim != gmm.dim:
        raise ShapeError(
            f"recording {stats.recording_id!r}: stats are "
            f"({stats.num_components}, {stats.dim}) but the model is "
            f"({gmm.num_components}, {gmm.dim})"
        )
    return BwStats(
        n=stats.n.copy(),
        f=stats.f - stats.n[:, None] * gmm.means,
        recording_id=stats.recording_id,
        centered=True,
    )
