"""Scoring backend: i-vector normalisation and Gaussian PLDA.

Normalisation is fit on training vectors (after any discriminant
projection): subtract the training mean, whiten with the inverse
matrix square root of the training covariance, then scale to unit length.

The PLDA model is the two-covariance flavour: a speaker variable
``y ~ N(mu, B)`` and sessions ``x | y ~ N(y, W)``, both covariances full
rank.  Training is EM with exact per-speaker posteriors; verification
scores are the exact log-likelihood ratio of the same-speaker hypothesis
against independent speakers, which is symmetric in its two arguments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

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
    """Center, whiten, and scale one vector to unit Euclidean length."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (normalizer.dim,):
        raise ShapeError(
            f"vector has shape {vector.shape}, normalizer expects ({normalizer.dim},)"
        )
    whitened = normalizer.whitener @ (vector - normalizer.mean)
    norm = np.linalg.norm(whitened)
    if norm == 0:
        raise DegenerateVectorError("cannot length-normalise a zero vector")
    return whitened / norm


def normalize_rows(vectors: np.ndarray, normalizer: Normalizer) -> np.ndarray:
    """Vectorised :func:`normalize` over rows."""
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


def average_enrollment(vectors: np.ndarray) -> np.ndarray:
    """Combine several normalised enrollment vectors into one by averaging.

    The result is scored like a single session (no re-normalisation)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ShapeError("expected a non-empty (N, M) array of vectors")
    return vectors.mean(axis=0)


@dataclass
class _ScoreCache:
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
    _cache: _ScoreCache | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def finalize(self) -> _ScoreCache:
        """Precompute the quadratic-form matrices used by scoring.

        With ``S = B + W``:  ``lam = S^-1``, ``Q = (S - B lam B)^-1``,
        the per-side term is ``lam - Q`` and the cross term ``lam B Q``
        (symmetric in exact arithmetic; symmetrised here).  The constant is
        ``0.5 * (logdet S - logdet(S - B lam B))``.
        """
        if self._cache is not None:
            return self._cache
        total = self.b_cov + self.w_cov
        try:
            cho_t = cho_factor(total, lower=True)
        except LinAlgError as exc:
            raise MatrixError("B + W is not positive definite") from exc
        lam = cho_solve(cho_t, np.eye(self.dim))
        inner = total - self.b_cov @ lam @ self.b_cov
        try:
            cho_i = cho_factor(inner, lower=True)
        except LinAlgError as exc:
            raise MatrixError(
                "S - B S^-1 B is not positive definite; cannot score"
            ) from exc
        q = cho_solve(cho_i, np.eye(self.dim))
        diag_term = lam - q
        diag_term = (diag_term + diag_term.T) / 2.0
        cross_term = lam @ self.b_cov @ q
        cross_term = (cross_term + cross_term.T) / 2.0
        logdet_total = 2.0 * float(np.log(np.diag(cho_t[0])).sum())
        logdet_inner = 2.0 * float(np.log(np.diag(cho_i[0])).sum())
        offset = 0.5 * (logdet_total - logdet_inner)
        self._cache = _ScoreCache(
            diag_term=diag_term, cross_term=cross_term, offset=offset
        )
        return self._cache


def _group_by_label(data: LabeledVectors) -> list[np.ndarray]:
    return [data.vectors[idx] for idx in data.class_indices().values()]


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
    that sequence is non-decreasing.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not np.isfinite(data.vectors).all():
        raise NumericError("training vectors contain non-finite values")
    groups = _group_by_label(data)
    if len(groups) < 2:
        raise UnidentifiableError(
            "PLDA needs at least two speakers; the between-speaker covariance "
            "is unidentifiable from one"
        )
    m = data.dim
    n_total = data.num_vectors
    mu = data.vectors.mean(axis=0)
    speaker_means = np.stack([grp.mean(axis=0) for grp in groups])
    diff = speaker_means - mu
    b_cov = diff.T @ diff / len(groups)
    w_cov = np.zeros((m, m))
    for grp in groups:
        centered = grp - grp.mean(axis=0)
        w_cov += centered.T @ centered
    w_cov /= n_total

    def ridge(mat: np.ndarray) -> np.ndarray:
        scale = np.trace(mat) / m
        if scale <= 0:
            scale = max(np.trace(b_cov) / m, 1.0)
        return mat + reg_scale * scale * np.eye(m)

    b_cov = ridge((b_cov + b_cov.T) / 2.0)
    w_cov = ridge((w_cov + w_cov.T) / 2.0)

    counts = np.array([grp.shape[0] for grp in groups])
    sums = np.stack([grp.sum(axis=0) for grp in groups])

    for it in range(iters):
        model = PldaModel(mu=mu.copy(), b_cov=b_cov.copy(), w_cov=w_cov.copy())
        total_ll = plda_log_likelihood(model, data)
        if on_iteration is not None:
            on_iteration(it, model, total_ll)

        b_inv = _spd_inverse(b_cov, "between-speaker covariance")
        w_inv = _spd_inverse(w_cov, "within-speaker covariance")
        y_hat = np.empty((len(groups), m))
        y_cov = np.empty((len(groups), m, m))
        for i, grp in enumerate(groups):
            prec = b_inv + counts[i] * w_inv
            cov_i = _spd_inverse(prec, "speaker posterior precision")
            y_cov[i] = (cov_i + cov_i.T) / 2.0
            y_hat[i] = cov_i @ (b_inv @ mu + w_inv @ sums[i])

        mu = y_hat.mean(axis=0)
        dev = y_hat - mu
        b_cov = (y_cov.sum(axis=0) + dev.T @ dev) / len(groups)
        w_new = np.zeros((m, m))
        for i, grp in enumerate(groups):
            resid = grp - y_hat[i]
            w_new += resid.T @ resid + counts[i] * y_cov[i]
        w_cov = w_new / n_total
        b_cov = ridge((b_cov + b_cov.T) / 2.0)
        w_cov = ridge((w_cov + w_cov.T) / 2.0)
        log.debug("plda iteration %d: log-likelihood %.6f", it, total_ll)

    return PldaModel(mu=mu, b_cov=b_cov, w_cov=w_cov)


def _spd_inverse(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return cho_solve(cho_factor(mat, lower=True), np.eye(mat.shape[0]))
    except LinAlgError as exc:
        raise MatrixError(f"{what} is not positive definite") from exc


def plda_log_likelihood(model: PldaModel, data: LabeledVectors) -> float:
    """Exact marginal log-likelihood of labelled sessions under the model.

    Uses the block structure of the per-speaker joint covariance
    ``I (x) W + 11' (x) B``: its log-determinant is
    ``(M_i - 1) logdet W + logdet(W + M_i B)`` and its inverse applies
    ``W^-1`` per session minus a shared correction.
    """
    w_inv = _spd_inverse(model.w_cov, "within-speaker covariance")
    sign_w, logdet_w = np.linalg.slogdet(model.w_cov)
    if sign_w <= 0:
        raise MatrixError("within-speaker covariance must be positive definite")
    total = 0.0
    m = model.dim
    for grp in _group_by_label(data):
        mi = grp.shape[0]
        centered = grp - model.mu
        s = centered.sum(axis=0)
        mixed = model.w_cov + mi * model.b_cov
        sign_x, logdet_x = np.linalg.slogdet(mixed)
        if sign_x <= 0:
            raise MatrixError("W + M B must be positive definite")
        correction = w_inv @ model.b_cov @ _spd_inverse(mixed, "W + M B")
        quad = float(np.einsum("ij,jk,ik->", centered, w_inv, centered))
        quad -= float(s @ correction @ s)
        logdet = (mi - 1) * logdet_w + logdet_x
        total += -0.5 * (mi * m * np.log(2.0 * np.pi) + logdet + quad)
    return float(total)


def plda_score(enroll: np.ndarray, test: np.ndarray, model: PldaModel) -> float:
    """Log-likelihood ratio: same speaker vs independent speakers.

    Both arguments are single vectors that went through the same
    normalisation.  The score is symmetric: swapping enroll and test gives
    the identical value.
    """
    enroll = np.asarray(enroll, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if enroll.shape != (model.dim,) or test.shape != (model.dim,):
        raise ShapeError("enroll/test vectors must match the model dimension")
    if not (np.isfinite(enroll).all() and np.isfinite(test).all()):
        raise NumericError("cannot score non-finite vectors")
    cache = model.finalize()
    e = enroll - model.mu
    t = test - model.mu
    return float(
        0.5 * (e @ cache.diag_term @ e)
        + 0.5 * (t @ cache.diag_term @ t)
        + e @ cache.cross_term @ t
        + cache.offset
    )


def score_pairs(
    model: PldaModel,
    enroll: np.ndarray,
    test: np.ndarray,
    enroll_idx: np.ndarray,
    test_idx: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`plda_score` over aligned index arrays.

    Trial ``i`` scores ``enroll[enroll_idx[i]]`` against
    ``test[test_idx[i]]``.  The inputs are checked as in :func:`plda_score`;
    the index arrays must have equal length and lie within their rows.
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
    cache = model.finalize()
    e_c = enroll - model.mu
    t_c = test - model.mu
    half_e = 0.5 * np.einsum("ij,jk,ik->i", e_c, cache.diag_term, e_c)
    half_t = 0.5 * np.einsum("ij,jk,ik->i", t_c, cache.diag_term, t_c)
    cross = np.einsum(
        "ij,ij->i", (e_c @ cache.cross_term)[enroll_idx], t_c[test_idx]
    )
    return half_e[enroll_idx] + half_t[test_idx] + cross + cache.offset
