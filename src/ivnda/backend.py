"""Scoring backend: i-vector normalisation and Gaussian PLDA.

Normalisation is fit on training vectors (after any discriminant
projection): subtract the training mean, whiten with the inverse
matrix square root of the training covariance, then scale to unit length.

The PLDA model is the two-covariance flavour: a speaker variable
``y ~ N(mu, B)`` and sessions ``x | y ~ N(y, W)``, both covariances full
rank.  Training is EM with exact per-speaker posteriors; verification
scores are the exact log-likelihood ratio of the same-speaker hypothesis
against independent speakers, which is symmetric in its two arguments.
:func:`score_pairs` scores a trial list in blocks of ``CHUNK_TRIALS``
trials, so its memory is O(CHUNK_TRIALS · dim) beyond the scores.

A speaker's posterior covariance and the factorisation of its joint
likelihood depend only on its session count, so EM and the likelihood
group speakers by count and factorise once per distinct count; the
remaining work is a few matrix products over all sessions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .da import LabeledVectors
from .errors import (
    DegenerateVectorError,
    InsufficientDataError,
    MatrixError,
    NormalizationError,
    NumericError,
    RangeError,
    ShapeError,
    UnidentifiableError,
)

log = logging.getLogger(__name__)

# Trials per scoring block: the working set of score_pairs is a few
# (CHUNK_TRIALS, dim) float64 arrays, whatever the number of trials.  2^12
# halves score_pairs' traced peak against 2^14 on 360 000 trials at dim 20
# (8.3 -> 4.4 MB, the scores included) at the same speed and scores.
CHUNK_TRIALS = 1 << 12

# Callback per EM iteration: (iteration, model snapshot before the update,
# total marginal log-likelihood of that snapshot).
IterationCallback = Callable[[int, "PldaModel", float], None]


@dataclass
class Normalizer:
    """Centering and whitening transform with subsequent length scaling."""

    mean: np.ndarray        # (M,)
    whitener: np.ndarray    # (M, M); whitener @ cov @ whitener.T == I

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.whitener = np.asarray(self.whitener, dtype=np.float64)
        m = self.mean.shape[0]
        if self.whitener.shape != (m, m):
            raise ShapeError("whitener must be square and match the mean")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def fit_normalizer(vectors: np.ndarray, floor_scale: float = 1e-10) -> Normalizer:
    """Fit centering + whitening on training vectors (rows).

    The whitener is ``diag(1/sqrt(e)) U'`` from the eigendecomposition of
    the biased sample covariance; eigenvalues are floored at
    ``floor_scale * max(e)`` so near-flat directions stay finite.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ShapeError("training vectors must be (N, M)")
    if vectors.shape[0] < 2:
        raise InsufficientDataError("need at least 2 vectors to fit a whitener")
    mean = vectors.mean(axis=0)
    centered = vectors - mean
    cov = centered.T @ centered / vectors.shape[0]
    values, basis = np.linalg.eigh(cov)
    if values[-1] <= 0:
        raise NormalizationError("training covariance is zero; whitening undefined")
    floored = np.maximum(values, floor_scale * values[-1])
    whitener = (basis / np.sqrt(floored)).T
    return Normalizer(mean=mean, whitener=whitener)


def normalize(vector: np.ndarray, normalizer: Normalizer) -> np.ndarray:
    """Center, whiten, and scale one vector to unit Euclidean length
    (:func:`normalize_rows` on a batch of one)."""
    return normalize_rows(np.asarray(vector, dtype=np.float64)[None], normalizer)[0]


def normalize_rows(vectors: np.ndarray, normalizer: Normalizer) -> np.ndarray:
    """Center, whiten, and scale each row to unit Euclidean length.

    Rows must be finite and match the normalizer's dimension."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != normalizer.dim:
        raise ShapeError(
            f"vectors have shape {vectors.shape}, normalizer expects "
            f"(N, {normalizer.dim})"
        )
    bad = ~np.isfinite(vectors).all(axis=1)
    if bad.any():
        raise NumericError(
            f"{int(bad.sum())} vectors contain non-finite values (first at row "
            f"{int(np.flatnonzero(bad)[0])})"
        )
    whitened = (vectors - normalizer.mean) @ normalizer.whitener.T
    norms = np.linalg.norm(whitened, axis=1)
    if np.any(norms == 0):
        raise DegenerateVectorError("cannot length-normalise a zero vector")
    return whitened / norms[:, None]


@dataclass
class _ScoreTerms:
    """Precomputed scoring terms (see :meth:`PldaModel.finalize`)."""

    diag_term: np.ndarray   # symmetric; 0.5 x' diag_term x per side
    cross_term: np.ndarray  # symmetric; e' cross_term t
    offset: float


@dataclass
class PldaModel:
    """Two-covariance Gaussian PLDA."""

    mu: np.ndarray        # (M,)
    b_cov: np.ndarray     # (M, M) between-speaker covariance
    w_cov: np.ndarray     # (M, M) within-speaker covariance

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.b_cov = np.asarray(self.b_cov, dtype=np.float64)
        self.w_cov = np.asarray(self.w_cov, dtype=np.float64)
        m = self.mu.shape[0]
        if self.b_cov.shape != (m, m) or self.w_cov.shape != (m, m):
            raise ShapeError("covariances must be (M, M) matching mu")
        for name, mat in (("between", self.b_cov), ("within", self.w_cov)):
            if np.abs(mat - mat.T).max() > 1e-8 * max(np.abs(mat).max(), 1.0):
                raise MatrixError(f"{name}-speaker covariance is not symmetric")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def finalize(self) -> _ScoreTerms:
        """Precompute the quadratic-form matrices used by scoring.

        With ``S = B + W``:  ``lam = S^-1``, ``Q = (S - B lam B)^-1``,
        the per-side term is ``lam - Q`` and the cross term ``lam B Q``
        (symmetric in exact arithmetic; symmetrised here).  The constant is
        ``0.5 * (logdet S - logdet(S - B lam B))``.  Computed afresh on
        each call, so a changed covariance changes the scores.
        """
        total = self.b_cov + self.w_cov
        lam, logdet_total = _spd_factor(total, "B + W")
        inner = total - self.b_cov @ lam @ self.b_cov
        q, logdet_inner = _spd_factor(inner, "S - B S^-1 B")
        diag_term = lam - q
        diag_term = (diag_term + diag_term.T) / 2.0
        cross_term = lam @ self.b_cov @ q
        cross_term = (cross_term + cross_term.T) / 2.0
        offset = 0.5 * (logdet_total - logdet_inner)
        return _ScoreTerms(diag_term=diag_term, cross_term=cross_term, offset=offset)


@dataclass
class _Speakers:
    """Training sessions grouped by speaker, with speakers grouped by their
    session count, built once per :func:`train_plda` call.

    Rows are reordered so that each speaker's sessions are contiguous.
    Everything in the EM step and the log-likelihood that depends on a
    speaker only through its session count n (the posterior covariance, the
    ``W + n B`` factorisation) is computed once per distinct n.
    """

    vectors: np.ndarray      # (N, M) sessions, speaker by speaker
    speaker: np.ndarray      # (N,) speaker of each row
    counts: np.ndarray       # (S,) sessions per speaker
    starts: np.ndarray       # (S,) first row of each speaker
    sums: np.ndarray         # (S, M) per-speaker session sums
    distinct: np.ndarray     # (U,) distinct session counts, ascending
    count_group: np.ndarray  # (S,) index into `distinct` of each speaker
    group_sizes: np.ndarray  # (U,) speakers with each distinct count

    @classmethod
    def from_data(cls, data: LabeledVectors) -> "_Speakers":
        indices = list(data.class_indices().values())
        counts = np.array([idx.size for idx in indices], dtype=np.intp)
        starts = np.cumsum(counts) - counts
        vectors = data.vectors[np.concatenate([np.zeros(0, np.intp), *indices])]
        distinct, count_group, group_sizes = np.unique(
            counts, return_inverse=True, return_counts=True
        )
        return cls(
            vectors=vectors,
            speaker=np.repeat(np.arange(counts.size), counts),
            counts=counts,
            starts=starts,
            sums=np.add.reduceat(vectors, starts, axis=0),
            distinct=distinct,
            count_group=count_group,
            group_sizes=group_sizes,
        )

    @property
    def num_speakers(self) -> int:
        return self.counts.size


def train_plda(
    data: LabeledVectors,
    iters: int = 20,
    reg_scale: float = 1e-8,
    on_iteration: IterationCallback | None = None,
) -> PldaModel:
    """EM estimation of the two-covariance model.

    Initialisation: ``mu`` is the global mean, ``B`` the scatter of speaker
    means, ``W`` the pooled within-speaker scatter.  Each M-step adds a
    relative ridge (``reg_scale`` times the mean diagonal) to keep both
    covariances invertible even for degenerate data.  `on_iteration`
    observes each pre-update model with its exact marginal log-likelihood;
    that sequence is non-decreasing.  Debug logging writes the same values.
    The log-likelihood is evaluated only when one of them reads it.

    Speakers are grouped by session count once: each EM step factorises
    the posterior precision ``B^-1 + n W^-1`` once per distinct count n and
    updates W from one residual product over all sessions, so no step
    loops over speakers.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not np.isfinite(data.vectors).all():
        raise NumericError("training vectors contain non-finite values")
    spk = _Speakers.from_data(data)
    num_spk = spk.num_speakers
    if num_spk < 2:
        raise UnidentifiableError(
            "PLDA needs at least two speakers; the between-speaker covariance "
            "is unidentifiable from one"
        )
    m = data.dim
    n_total = data.num_vectors
    mu = data.vectors.mean(axis=0)
    speaker_means = spk.sums / spk.counts[:, None]
    diff = speaker_means - mu
    b_cov = diff.T @ diff / num_spk
    centered = spk.vectors - speaker_means[spk.speaker]
    w_cov = centered.T @ centered / n_total

    def ridge(mat: np.ndarray) -> np.ndarray:
        scale = np.trace(mat) / m
        if scale <= 0:
            scale = max(np.trace(b_cov) / m, 1.0)
        return mat + reg_scale * scale * np.eye(m)

    b_cov = ridge((b_cov + b_cov.T) / 2.0)
    w_cov = ridge((w_cov + w_cov.T) / 2.0)

    observed = on_iteration is not None or log.isEnabledFor(logging.DEBUG)
    for it in range(iters):
        if observed:
            model = PldaModel(mu=mu.copy(), b_cov=b_cov.copy(), w_cov=w_cov.copy())
            total_ll = _log_likelihood(model, spk)
            if on_iteration is not None:
                on_iteration(it, model, total_ll)
            log.debug("plda iteration %d: log-likelihood %.6f", it, total_ll)

        b_inv = _spd_inverse(b_cov, "between-speaker covariance")
        w_inv = _spd_inverse(w_cov, "within-speaker covariance")
        # Speaker posteriors: the covariance depends only on the count n.
        rhs = b_inv @ mu + spk.sums @ w_inv.T
        y_hat = np.empty_like(rhs)
        y_cov = np.empty((spk.distinct.size, m, m))
        for u, n in enumerate(spk.distinct):
            cov_n = _spd_inverse(b_inv + n * w_inv, "speaker posterior precision")
            rows = spk.count_group == u
            y_hat[rows] = rhs[rows] @ cov_n.T
            y_cov[u] = (cov_n + cov_n.T) / 2.0

        mu = y_hat.mean(axis=0)
        dev = y_hat - mu
        b_cov = (np.tensordot(spk.group_sizes, y_cov, axes=1) + dev.T @ dev) / num_spk
        resid = spk.vectors - y_hat[spk.speaker]
        w_new = resid.T @ resid + np.tensordot(
            spk.group_sizes * spk.distinct, y_cov, axes=1
        )
        w_cov = w_new / n_total
        b_cov = ridge((b_cov + b_cov.T) / 2.0)
        w_cov = ridge((w_cov + w_cov.T) / 2.0)

    return PldaModel(mu=mu, b_cov=b_cov, w_cov=w_cov)


def _spd_factor(mat: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """(inverse, log-determinant) of a symmetric positive-definite matrix."""
    if not np.isfinite(mat).all():
        raise MatrixError(f"{what} has non-finite entries")
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise MatrixError(f"{what} is not positive definite") from exc
    chol_inv = np.linalg.inv(chol)
    return chol_inv.T @ chol_inv, 2.0 * float(np.log(np.diag(chol)).sum())


def _spd_inverse(mat: np.ndarray, what: str) -> np.ndarray:
    return _spd_factor(mat, what)[0]


def plda_log_likelihood(model: PldaModel, data: LabeledVectors) -> float:
    """Exact marginal log-likelihood of labelled sessions under the model.

    Uses the block structure of the per-speaker joint covariance
    ``I (x) W + 11' (x) B``: its log-determinant is
    ``(M_i - 1) logdet W + logdet(W + M_i B)`` and its inverse applies
    ``W^-1`` per session minus a shared correction.  Both depend on a
    speaker only through its session count M_i, so they are computed once
    per distinct count.
    """
    return _log_likelihood(model, _Speakers.from_data(data))


def _log_likelihood(model: PldaModel, spk: _Speakers) -> float:
    w_inv, logdet_w = _spd_factor(model.w_cov, "within-speaker covariance")
    centered = spk.vectors - model.mu
    s = np.add.reduceat(centered, spk.starts, axis=0)
    quad = float(np.sum((centered @ w_inv) * centered))
    logdet = (spk.vectors.shape[0] - spk.num_speakers) * logdet_w
    for u, n in enumerate(spk.distinct):
        mixed_inv, logdet_x = _spd_factor(model.w_cov + n * model.b_cov, "W + M B")
        s_u = s[spk.count_group == u]
        quad -= float(np.sum((s_u @ (w_inv @ model.b_cov @ mixed_inv)) * s_u))
        logdet += spk.group_sizes[u] * logdet_x
    return float(-0.5 * (spk.vectors.size * np.log(2.0 * np.pi) + logdet + quad))


def plda_score(enroll: np.ndarray, test: np.ndarray, model: PldaModel) -> float:
    """Log-likelihood ratio: same speaker vs independent speakers.

    Both arguments are single vectors that went through the same
    normalisation; this is :func:`score_pairs` on one trial.  The score is
    symmetric: swapping enroll and test gives the identical value.
    """
    enroll = np.asarray(enroll, dtype=np.float64)[None]
    test = np.asarray(test, dtype=np.float64)[None]
    trial = np.zeros(1, dtype=np.int64)
    return float(score_pairs(model, enroll, test, trial, trial)[0])


def score_pairs(
    model: PldaModel,
    enroll: np.ndarray,
    test: np.ndarray,
    enroll_idx: np.ndarray,
    test_idx: np.ndarray,
) -> np.ndarray:
    """PLDA log-likelihood ratios over aligned index arrays.

    Trial ``i`` scores ``enroll[enroll_idx[i]]`` against
    ``test[test_idx[i]]``.  Vectors must be finite rows of the model's
    dimension; the index arrays must have equal length and lie within
    their rows.  All inputs are checked before any trial is scored.
    Trials are scored ``CHUNK_TRIALS`` at a time, so beyond the output the
    working memory is O(CHUNK_TRIALS · dim) plus O(dim) per vector, for
    any number of trials.
    """
    enroll = np.asarray(enroll, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    enroll_idx = np.asarray(enroll_idx)
    test_idx = np.asarray(test_idx)
    for name, vecs in (("enroll", enroll), ("test", test)):
        if vecs.ndim != 2 or vecs.shape[1] != model.dim:
            raise ShapeError(
                f"{name} vectors have shape {vecs.shape}, the model expects "
                f"(N, {model.dim})"
            )
    if not (np.isfinite(enroll).all() and np.isfinite(test).all()):
        raise NumericError("cannot score non-finite vectors")
    if enroll_idx.ndim != 1 or enroll_idx.shape != test_idx.shape:
        raise ShapeError(
            f"trial index arrays must be 1-D and of equal length, got "
            f"{enroll_idx.shape} and {test_idx.shape}"
        )
    for name, idx, rows in (("enroll", enroll_idx, enroll), ("test", test_idx, test)):
        if idx.size and (idx.min() < 0 or idx.max() >= rows.shape[0]):
            raise RangeError(
                f"{name} trial indices must lie in [0, {rows.shape[0]})"
            )
    terms = model.finalize()
    e_c = enroll - model.mu
    t_c = test - model.mu
    half_e = 0.5 * np.einsum("ij,jk,ik->i", e_c, terms.diag_term, e_c)
    half_t = 0.5 * np.einsum("ij,jk,ik->i", t_c, terms.diag_term, t_c)
    e_cross = e_c @ terms.cross_term
    scores = np.empty(enroll_idx.shape[0])
    for lo in range(0, scores.size, CHUNK_TRIALS):
        e = enroll_idx[lo:lo + CHUNK_TRIALS]
        t = test_idx[lo:lo + CHUNK_TRIALS]
        cross = np.einsum("ij,ij->i", e_cross[e], t_c[t])
        scores[lo:lo + CHUNK_TRIALS] = half_e[e] + half_t[t] + cross + terms.offset
    return scores
