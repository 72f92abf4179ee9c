"""Total-variability subspace training and i-vector extraction.

Each recording's centered first-order statistics are modelled as

    f~  ~  N( N~ T w,  N~ Sigma ),      w ~ N(0, I_R)

where ``N~`` expands the per-component counts across feature dimensions,
``T`` is the (G*D, R) subspace and ``Sigma`` the per-component diagonal
residual covariances.  Training is EM over the latent ``w``; extraction
returns the posterior mean

    w_hat = L^{-1} T' Sigma^{-1} f~,      L = I + T' Sigma^{-1} N~ T,

with ``L`` required to be positive definite (its Cholesky factor is the
assertion).  The per-iteration objective is the exact marginal
log-likelihood of the statistics, which is non-decreasing over iterations.

Posteriors are computed for fixed-size chunks of `CHUNK` sessions at a
time: ``L`` for a chunk is one (C, G) x (G, R^2) product with the
per-component grams ``T_g' Sigma_g^-1 T_g``, and the E-step accumulators
are two more products.  A short chunk is padded with zero-count rows, so
every product has the same shape and a session's result does not depend on
which sessions share its chunk (single and batch extraction agree to the
bit).  Memory is bounded by the (G, R, R) gram and, in training, the
(G, R, R) second-order accumulator, plus a few (CHUNK, R, R) arrays; it
does not grow with the number of sessions.  At G=2048, R=500 the gram and
accumulator alone take about 8 GB.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import (
    ContractError,
    DegenerateDataError,
    NumericError,
    RankError,
    ShapeError,
)
from .stats import BwStats
from .ubm import DiagonalGmm

log = logging.getLogger(__name__)

# Callback invoked once per EM iteration with (iteration, model snapshot
# *before* the update, total marginal log-likelihood of that snapshot).
IterationCallback = Callable[[int, "TvModel", float], None]

# Sessions per posterior chunk (see the module docstring).
CHUNK = 64


@dataclass
class TvModel:
    """Total-variability subspace with residual covariances."""

    t_matrix: np.ndarray   # (G * D, R); rows grouped by component
    sigma: np.ndarray      # (G, D) diagonal residual variances
    rank: int

    def __post_init__(self) -> None:
        self.t_matrix = np.asarray(self.t_matrix, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        g, d = self.sigma.shape
        if self.t_matrix.shape != (g * d, self.rank):
            raise ShapeError(
                f"T must be ({g * d}, {self.rank}), got {self.t_matrix.shape}"
            )
        if np.any(self.sigma <= 0):
            raise ShapeError("residual variances must be strictly positive")

    @property
    def num_components(self) -> int:
        return self.sigma.shape[0]

    @property
    def dim(self) -> int:
        return self.sigma.shape[1]


@dataclass
class IVector:
    """Posterior-mean subspace coordinates of one recording."""

    w: np.ndarray
    recording_id: str = ""

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 1:
            raise ShapeError("i-vector must be 1-D")

    @property
    def rank(self) -> int:
        return self.w.shape[0]


def _check_stats(stats: Sequence[BwStats], g: int, d: int) -> None:
    for s in stats:
        if not s.centered:
            raise ContractError(
                f"recording {s.recording_id!r}: statistics must be centered"
            )
        if s.num_components != g or s.dim != d:
            raise ShapeError(
                f"recording {s.recording_id!r}: stats shape "
                f"({s.num_components}, {s.dim}) does not match model ({g}, {d})"
            )
        if not (np.isfinite(s.n).all() and np.isfinite(s.f).all()):
            raise NumericError(
                f"recording {s.recording_id!r}: statistics contain non-finite values"
            )


@dataclass
class _Precomputed:
    """Per-model terms shared by every posterior of one (T, Sigma)."""

    t_over_sigma: np.ndarray    # (G * D, R)  Sigma^-1 T
    gram: np.ndarray            # (G, R * R)  T_g' Sigma_g^-1 T_g, flattened
    sigma: np.ndarray           # (G, D)
    log_sigma_rows: np.ndarray  # (G,)  log det Sigma_g


def _precompute(t_matrix: np.ndarray, sigma: np.ndarray) -> _Precomputed:
    g, d = sigma.shape
    r = t_matrix.shape[1]
    t_over_sigma = t_matrix / sigma.reshape(-1)[:, None]
    gram = np.matmul(
        t_matrix.reshape(g, d, r).transpose(0, 2, 1),
        t_over_sigma.reshape(g, d, r),
    )
    return _Precomputed(
        t_over_sigma=t_over_sigma,
        gram=gram.reshape(g, r * r),
        sigma=sigma,
        log_sigma_rows=np.log(sigma).sum(axis=1),
    )


def _chunks(
    stats: Sequence[BwStats],
) -> Iterator[tuple[Sequence[BwStats], np.ndarray, np.ndarray]]:
    """(sessions, n, f) per chunk; n is (CHUNK, G) and f (CHUNK, G * D),
    with rows past ``len(sessions)`` zero."""
    g, d = stats[0].num_components, stats[0].dim
    for start in range(0, len(stats), CHUNK):
        part = stats[start : start + CHUNK]
        n = np.zeros((CHUNK, g))
        f = np.zeros((CHUNK, g * d))
        for i, s in enumerate(part):
            n[i] = s.n
            f[i] = s.f.reshape(-1)
        yield part, n, f


def _posterior(
    pre: _Precomputed, n: np.ndarray, f: np.ndarray, with_cov: bool = False
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """(E[w], Cov[w] or None, b, logdet L) for a chunk of sessions.

    Rows of `n` (C, G) and `f` (C, G * D) are sessions; E[w] and b are
    (C, R), Cov[w] (C, R, R) and logdet L (C,).
    """
    c = n.shape[0]
    r = pre.t_over_sigma.shape[1]
    l_mat = (n @ pre.gram).reshape(c, r, r)
    l_mat[:, np.arange(r), np.arange(r)] += 1.0
    if not np.isfinite(l_mat).all():
        raise NumericError("i-vector posterior precision is not finite")
    try:
        chol = np.linalg.cholesky(l_mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError("i-vector posterior precision is not positive definite") from exc
    b = f @ pre.t_over_sigma
    if with_cov:
        cov = np.linalg.inv(l_mat)
        ew = (cov @ b[:, :, None])[:, :, 0]
    else:
        cov = None
        ew = np.linalg.solve(l_mat, b[:, :, None])[:, :, 0]
    logdet_l = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return ew, cov, b, logdet_l


def _session_lls(
    pre: _Precomputed,
    n: np.ndarray,
    f: np.ndarray,
    b: np.ndarray,
    ew: np.ndarray,
    logdet_l: np.ndarray,
) -> np.ndarray:
    """Marginal log-likelihood of each session (row) of a chunk."""
    c = n.shape[0]
    g, d = pre.sigma.shape
    active = n > 0
    safe_n = np.where(active, n, 1.0)
    logdet_ns = np.where(active, d * np.log(safe_n) + pre.log_sigma_rows, 0.0).sum(axis=1)
    f_sq = (f.reshape(c, g, d) ** 2 / pre.sigma).sum(axis=2)
    quad_f = np.where(active, f_sq / safe_n, 0.0).sum(axis=1)
    m_active = d * active.sum(axis=1)
    return -0.5 * (
        m_active * np.log(2.0 * np.pi)
        + logdet_ns
        + logdet_l
        + quad_f
        - np.einsum("cr,cr->c", b, ew)
    )


def tv_log_likelihood(stats: Sequence[BwStats], model: TvModel) -> float:
    """Total marginal log-likelihood over a collection of recordings."""
    _check_stats(stats, model.num_components, model.dim)
    if not stats:
        return 0.0
    pre = _precompute(model.t_matrix, model.sigma)
    per_session: list[float] = []
    for part, n, f in _chunks(stats):
        ew, _, b, logdet_l = _posterior(pre, n, f)
        per_session.extend(_session_lls(pre, n, f, b, ew, logdet_l)[: len(part)].tolist())
    return float(sum(per_session))


def train_tv(
    stats: Sequence[BwStats],
    gmm: DiagonalGmm,
    rank: int,
    iters: int = 15,
    seed: int = 0,
    reestimate_sigma: bool = False,
    on_iteration: IterationCallback | None = None,
) -> TvModel:
    """Train the total-variability subspace by EM.

    The subspace is initialised from a seeded standard-normal draw (scaled
    well below the residual standard deviations; the first M-step rescales
    it to the data).  Residual covariances start from the UBM variances and
    are only re-estimated when `reestimate_sigma` is set.  `on_iteration`
    observes each iteration's pre-update model and its total marginal
    log-likelihood; the sequence it sees is non-decreasing.
    """
    g, d = gmm.num_components, gmm.dim
    m = g * d
    if rank < 1 or rank > m:
        raise RankError(f"rank must be in [1, {m}], got {rank}")
    if len(stats) < rank:
        raise RankError(
            f"{len(stats)} recordings cannot support a rank-{rank} subspace"
        )
    _check_stats(stats, g, d)
    if max(float(np.abs(s.f).max(initial=0.0)) for s in stats) == 0.0:
        raise DegenerateDataError(
            "all first-order statistics are zero; the subspace is unidentifiable"
        )

    sigma0 = gmm.variances.copy()
    sigma_floor = 1e-3 * sigma0
    rng = np.random.default_rng(seed)
    t_matrix = rng.standard_normal((m, rank)) * (0.01 * np.sqrt(sigma0.mean()))
    sigma = sigma0.copy()

    active_counts = sum((s.n > 0).astype(np.int64) for s in stats)  # per component
    if reestimate_sigma:
        # sum over sessions with n_g > 0 of f~^2 / n; fixed across iterations
        f2_over_n = np.zeros((g, d))
        for s in stats:
            active = s.n > 0
            f2_over_n[active] += s.f[active] ** 2 / s.n[active, None]

    for it in range(iters):
        pre = _precompute(t_matrix, sigma)
        c_acc = np.zeros((m, rank))
        a_acc = np.zeros((g, rank * rank))
        total_ll = 0.0
        for part, n, f in _chunks(stats):
            ew, cov, b, logdet_l = _posterior(pre, n, f, with_cov=True)
            eww = cov + ew[:, :, None] * ew[:, None, :]
            c_acc += f.T @ ew
            a_acc += n.T @ eww.reshape(CHUNK, rank * rank)
            total_ll += float(
                _session_lls(pre, n, f, b, ew, logdet_l)[: len(part)].sum()
            )
        a_acc = a_acc.reshape(g, rank, rank)

        if on_iteration is not None:
            on_iteration(it, TvModel(t_matrix.copy(), sigma.copy(), rank), total_ll)

        t_new = np.empty_like(t_matrix)
        c_blocks = c_acc.reshape(g, d, rank)
        for comp in range(g):
            try:
                cho = cho_factor(a_acc[comp], lower=True)
                t_new[comp * d : (comp + 1) * d] = cho_solve(
                    cho, c_blocks[comp].T
                ).T
            except LinAlgError:
                # Unobserved or near-unobserved component: least-squares keeps
                # the update defined (typically zero rows).
                sol, *_ = np.linalg.lstsq(a_acc[comp], c_blocks[comp].T, rcond=None)
                t_new[comp * d : (comp + 1) * d] = sol.T
        t_matrix = t_new

        if reestimate_sigma:
            # Exact M-step under the session model, using only the E-step
            # accumulators (no frame-level second-order statistics needed):
            #   sigma_gd = mean over sessions with n_g > 0 of
            #              E[(f~ - n T w)^2] / n
            # which telescopes to the closed form below.
            t_blocks = t_matrix.reshape(g, d, rank)
            cross = np.einsum("gdr,gdr->gd", c_blocks, t_blocks)
            quad = np.einsum("gdr,grs,gds->gd", t_blocks, a_acc, t_blocks)
            counts = np.maximum(active_counts, 1)[:, None]
            sigma_new = (f2_over_n - 2.0 * cross + quad) / counts
            keep = active_counts == 0
            sigma = np.maximum(sigma_new, sigma_floor)
            if keep.any():
                sigma[keep] = sigma0[keep]

        log.debug("tv iteration %d: log-likelihood %.6f", it, total_ll)

    return TvModel(t_matrix=t_matrix, sigma=sigma, rank=rank)


def _extract(stats: Sequence[BwStats], model: TvModel) -> list[IVector]:
    _check_stats(stats, model.num_components, model.dim)
    if not stats:
        return []
    pre = _precompute(model.t_matrix, model.sigma)
    out = []
    for part, n, f in _chunks(stats):
        ew, _, _, _ = _posterior(pre, n, f)
        out.extend(IVector(w=w, recording_id=s.recording_id) for s, w in zip(part, ew))
    return out


def extract_ivector(stats: BwStats, model: TvModel) -> IVector:
    """Posterior-mean i-vector of one recording's centered statistics."""
    return _extract([stats], model)[0]


def extract_ivectors(stats: Sequence[BwStats], model: TvModel) -> list[IVector]:
    """Extract i-vectors for many recordings, `CHUNK` sessions at a time."""
    return _extract(stats, model)
