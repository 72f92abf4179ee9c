"""Total-variability subspace training and i-vector extraction.

A recording's first-order statistics, centered around the means of the UBM
that aligned them (``f~[g] = f[g] - n[g] * mean_g``), are modelled as

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
time.  The symmetric (R, R) matrices of the E-step are stored packed, as
R(R+1)/2 rows in LAPACK's rectangular full packed (RFP) layout
(TRANSR='N', UPLO='L'; see `_rfp_map`): the per-component grams
``T_g' Sigma_g^-1 T_g`` are a (G, R(R+1)/2) array, so ``L`` for a chunk is
one (C, G) x (G, R(R+1)/2) product.  Each session's ``L`` is then factored
once, in place (LAPACK ``pftrf``), and every posterior quantity comes from
that factor: log det ``L`` from its diagonal, E[w] by ``pftrs`` and, in
training, Cov[w] = ``L^-1`` by ``pftri``, still packed.  The second-order
accumulator sums the packed E[ww'] rows, weighted by the counts, in one
more product.  The M-step unpacks nothing: it copies each observed
component's accumulator row into one R(R+1)/2 buffer, factors it there
(``pftrf``) and solves for that component's rows of T in place (``pftrs``).
A short chunk is padded with zero-count rows (``L = I``), so every product
has the same shape and a session's result does not depend on which
sessions share its chunk (single and batch extraction agree to the bit).
Extraction outputs one (N, R) array, each chunk's posterior means copied
into its rows, so row i is the i-vector of the i-th session.
Entry points take raw statistics as a sequence: a list of
:class:`~ivnda.stats.BwStats`, or a :class:`~ivnda.fileio.StatsArchive`,
which reads each chunk's records from its file straight into the chunk's
rows.  A chunk is read into a (CHUNK, G) and a (CHUNK, G * D) buffer,
allocated once per call and reused by every chunk and EM iteration, then
checked (finite values, non-negative counts, the UBM's (G, D)) and
centered in place.  So the statistics take one chunk, CHUNK * G * (D + 1)
doubles (42 MB at G=2048, D=39), whatever the number of sessions; an
archive adds its record ids and offsets, a list input itself.  Besides
that and the outputs (the (N, R) array when extracting), memory is
bounded by the (G, R(R+1)/2) packed gram and, in training, the packed
second-order accumulator, plus (G * D, R) arrays for T and the first-order
accumulator and a few (CHUNK, R, R) and (CHUNK, G * D) ones.  Training
allocates the gram and both accumulators once and refills them in place
every iteration; each chunk adds into the accumulators by one BLAS
``gemm`` with beta = 1, so no (G, R, R) or (G, R^2) array is ever built.
At G=2048, R=500 the packed gram and accumulator take about 4.1 GB
together.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpftrf, dpftri, dpftrs, dtrttf

from .errors import (
    DegenerateDataError,
    NumericError,
    RankError,
    ShapeError,
)
from .stats import BwStats, center_in_place, check_shape, check_values
from .ubm import DiagonalGmm

log = logging.getLogger(__name__)

# Callback invoked once per EM iteration with (iteration, model snapshot
# *before* the update, total marginal log-likelihood of that snapshot).
IterationCallback = Callable[[int, "TvModel", float], None]

# Sessions per posterior chunk (see the module docstring).
CHUNK = 64


@dataclass
class TvModel:
    """Total-variability subspace with residual covariances; its rank R is
    the number of columns of T."""

    t_matrix: np.ndarray   # (G * D, R); rows grouped by component
    sigma: np.ndarray      # (G, D) diagonal residual variances

    def __post_init__(self) -> None:
        self.t_matrix = np.asarray(self.t_matrix, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        g, d = self.sigma.shape
        if self.t_matrix.ndim != 2 or self.t_matrix.shape[0] != g * d:
            raise ShapeError(f"T must have {g * d} rows, got {self.t_matrix.shape}")
        if np.any(self.sigma <= 0):
            raise ShapeError("residual variances must be strictly positive")

    @property
    def rank(self) -> int:
        return self.t_matrix.shape[1]

    @property
    def num_components(self) -> int:
        return self.sigma.shape[0]

    @property
    def dim(self) -> int:
        return self.sigma.shape[1]


def _check_model(gmm: DiagonalGmm, model: TvModel) -> None:
    if gmm.means.shape != model.sigma.shape:
        raise ShapeError(f"UBM shape {gmm.means.shape} does not match model {model.sigma.shape}")


@functools.cache
def _rfp_map(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, diag) of LAPACK's rectangular full packed layout of an
    (r, r) symmetric matrix, with TRANSR='N' and UPLO='L': packed entry k
    holds the lower-triangle entry (rows[k], cols[k]), and diag[i] is the
    packed position of (i, i).  Read-only, as every caller shares them."""
    codes = np.arange(r * r, dtype=np.float64).reshape(r, r)  # (i, j) -> i * r + j
    packed = dtrttf(codes, transr="N", uplo="L")[0]
    rows, cols = np.divmod(packed.astype(np.intp), r)
    on_diag = rows == cols
    diag = np.empty(r, dtype=np.intp)
    diag[rows[on_diag]] = np.flatnonzero(on_diag)
    for index in (rows, cols, diag):
        index.setflags(write=False)
    return rows, cols, diag


def _unpack(packed: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The symmetric matrices whose RFP rows are `packed` (K, R(R+1)/2),
    written into the first K of `out` (>= K, R, R) and returned."""
    rows, cols, _ = _rfp_map(out.shape[-1])
    full = out[: len(packed)]
    full[:, rows, cols] = packed
    full[:, cols, rows] = packed
    return full


@dataclass
class _Precomputed:
    """Per-model terms shared by every posterior of one (T, Sigma)."""

    t_over_sigma: np.ndarray    # (G * D, R)  Sigma^-1 T
    gram: np.ndarray            # (G, R(R+1)/2)  T_g' Sigma_g^-1 T_g, RFP rows
    sigma: np.ndarray           # (G, D)
    log_sigma_rows: np.ndarray  # (G,)  log det Sigma_g


def _precompute(
    t_matrix: np.ndarray, sigma: np.ndarray, gram: np.ndarray | None = None
) -> _Precomputed:
    """The terms of (T, Sigma); the grams are written into `gram` if given,
    `CHUNK` components at a time."""
    g, d = sigma.shape
    r = t_matrix.shape[1]
    rows, cols, _ = _rfp_map(r)
    t_over_sigma = t_matrix / sigma.reshape(-1)[:, None]
    if gram is None:
        gram = np.empty((g, rows.size))
    t_blocks = t_matrix.reshape(g, d, r).transpose(0, 2, 1)
    ts_blocks = t_over_sigma.reshape(g, d, r)
    flat = rows * r + cols  # each RFP entry's offset in a flattened (R, R) block
    full = np.empty((min(CHUNK, g), r, r))
    for start in range(0, g, CHUNK):
        comps = slice(start, min(start + CHUNK, g))
        k = comps.stop - start
        block = np.matmul(t_blocks[comps], ts_blocks[comps], out=full[:k])
        # mode="clip": every index is in range by construction, and the
        # default mode="raise" writes `out` through a temporary copy of it.
        np.take(block.reshape(k, r * r), flat, axis=1, out=gram[comps], mode="clip")
    return _Precomputed(
        t_over_sigma=t_over_sigma,
        gram=gram,
        sigma=sigma,
        log_sigma_rows=np.log(sigma).sum(axis=1),
    )


class _Chunks:
    """The sessions of `stats` in chunks of `CHUNK`, each walk yielding
    (recording ids, n, f) per chunk: n is (CHUNK, G) and f (CHUNK, G * D)
    the first-order statistics centered around the UBM means, with rows
    past the chunk's sessions zero.  Both buffers are allocated once and
    refilled for each chunk, so a chunk is only valid until the next."""

    def __init__(self, stats: Sequence[BwStats], gmm: DiagonalGmm):
        g, d = gmm.num_components, gmm.dim
        self.stats, self.means = stats, gmm.means
        self.n = np.zeros((CHUNK, g))
        self.f = np.zeros((CHUNK, g * d))
        self._products = np.empty((CHUNK, g, d))  # n * means, for centering

    def _fill(self, start: int, stop: int, f3: np.ndarray) -> list[str]:
        """Raw statistics of sessions `start`..`stop` - 1 into the first rows;
        their recording ids."""
        read_into = getattr(self.stats, "read_into", None)
        if read_into is not None:  # an archive reads its records into the rows
            return read_into(start, stop, self.n, f3)
        part = self.stats[start:stop]
        for i, s in enumerate(part):
            check_shape(s.recording_id, s.f.shape, self.means.shape)
            self.n[i], f3[i] = s.n, s.f
        return [s.recording_id for s in part]

    def __iter__(self) -> Iterator[tuple[list[str], np.ndarray, np.ndarray]]:
        n, f = self.n, self.f
        f3 = f.reshape(CHUNK, *self.means.shape)
        for start in range(0, len(self.stats), CHUNK):
            ids = self._fill(start, min(start + CHUNK, len(self.stats)), f3)
            k = len(ids)
            n[k:], f[k:] = 0.0, 0.0
            check_values(ids, n[:k], f[:k])
            center_in_place(n, f3, self.means, self._products)
            yield ids, n, f


def _posterior(
    pre: _Precomputed,
    n: np.ndarray,
    f: np.ndarray,
    with_cov: bool = False,
    with_logdet: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray | None]:
    """(E[w], Cov[w] or None, b, logdet L or None) for a chunk of sessions.

    Rows of `n` (C, G) and `f` (C, G * D) are sessions; E[w] and b are
    (C, R), logdet L (C,) and Cov[w] (C, R(R+1)/2), one RFP row per session
    (see `_rfp_map`).
    """
    r = pre.t_over_sigma.shape[1]
    _, _, diag = _rfp_map(r)
    # Each row is a session's L in RFP, factored and then inverted in place.
    prec = n @ pre.gram
    prec[:, diag] += 1.0
    if not np.isfinite(prec).all():
        raise NumericError("i-vector posterior precision is not finite")
    for u in prec:
        if dpftrf(r, u, transr="N", uplo="L", overwrite_a=1)[1]:
            raise NumericError("i-vector posterior precision is not positive definite")
    logdet_l = 2.0 * np.log(prec[:, diag]).sum(axis=1) if with_logdet else None
    b = f @ pre.t_over_sigma
    ew = b.copy()
    for u, e in zip(prec, ew):
        dpftrs(r, u, e[:, None], transr="N", uplo="L", overwrite_b=1)
    if not with_cov:
        return ew, None, b, logdet_l
    for u in prec:
        dpftri(r, u, transr="N", uplo="L", overwrite_a=1)
    return ew, prec, b, logdet_l


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


def tv_log_likelihood(stats: Sequence[BwStats], gmm: DiagonalGmm, model: TvModel) -> float:
    """Total marginal log-likelihood over a collection of recordings."""
    _check_model(gmm, model)
    if not stats:
        return 0.0
    pre = _precompute(model.t_matrix, model.sigma)
    per_session: list[float] = []
    for ids, n, f in _Chunks(stats, gmm):
        ew, _, b, logdet_l = _posterior(pre, n, f, with_logdet=True)
        per_session.extend(_session_lls(pre, n, f, b, ew, logdet_l)[: len(ids)].tolist())
    return float(sum(per_session))


def _check_in_place(out: np.ndarray, target: np.ndarray, routine: str) -> None:
    """`routine` was asked to write its result into `target`; a copy it
    returned instead would leave `target` unchanged."""
    if not np.shares_memory(out, target):
        raise NumericError(f"{routine} returned a copy instead of writing in place")


def _update_t(
    a_acc: np.ndarray, c_blocks: np.ndarray, observed: np.ndarray
) -> np.ndarray:
    """M-step for T: solve A_g T_g' = C_g' for each component g.

    `a_acc` is (G, R(R+1)/2), each A_g as an RFP row, `c_blocks` (G, D, R)
    and `observed` (G,) marks the components some session occupies.  Each
    observed A_g is copied into one R(R+1)/2 buffer and factored there
    (``pftrf``), and T_g' is solved in place in the output (``pftrs``), so
    nothing is unpacked.  Unobserved components, and any whose accumulator
    is not numerically positive definite, take the least-squares solution,
    which keeps the update defined (zero rows for an unobserved one).
    """
    g, d, r = c_blocks.shape
    factor = np.empty(a_acc.shape[1])
    t_blocks = c_blocks.copy()
    for comp in range(g):
        t_g = t_blocks[comp].T  # (R, D), Fortran-ordered: solved in place
        if observed[comp]:
            factor[:] = a_acc[comp]
            if not dpftrf(r, factor, transr="N", uplo="L", overwrite_a=1)[1]:
                out = dpftrs(r, factor, t_g, transr="N", uplo="L", overwrite_b=1)[0]
                _check_in_place(out, t_blocks, "dpftrs")
                continue
        a_g = _unpack(a_acc[comp : comp + 1], np.empty((1, r, r)))[0]
        t_g[:] = np.linalg.lstsq(a_g, c_blocks[comp].T, rcond=None)[0]
    return t_blocks.reshape(g * d, r)


def _quad(a_acc: np.ndarray, t_blocks: np.ndarray) -> np.ndarray:
    """(G, D) diagonals of T_g A_g T_g', the RFP rows A_g of `a_acc`
    unpacked `CHUNK` at a time into one (CHUNK, R, R) buffer."""
    g, _, r = t_blocks.shape
    full = np.empty((CHUNK, r, r))
    quad = np.empty(t_blocks.shape[:2])
    for start in range(0, g, CHUNK):
        comps = slice(start, start + CHUNK)
        a_g = _unpack(a_acc[comps], full)
        quad[comps] = np.einsum("gdr,grs,gds->gd", t_blocks[comps], a_g, t_blocks[comps])
    return quad


def _accumulate(
    chunks: _Chunks,
    pre: _Precomputed,
    a_acc: np.ndarray,
    c_acc: np.ndarray,
    with_ll: bool,
) -> float | None:
    """E-step: refill `a_acc` (G, R(R+1)/2) with the RFP rows of
    sum_s n_sg E[w_s w_s'] and `c_acc` (G * D, R) with sum_s f~_s E[w_s]';
    the total marginal log-likelihood if `with_ll`, else None.  Each chunk
    adds into both in place, by one BLAS ``gemm`` with beta = 1 on their
    Fortran-ordered views; E[w] E[w]' is packed into two buffers allocated
    once per call."""
    rows, cols, _ = _rfp_map(c_acc.shape[1])
    a_acc.fill(0.0)
    c_acc.fill(0.0)
    outer = np.empty((CHUNK, rows.size))
    right = np.empty_like(outer)
    total_ll = 0.0
    for ids, n, f in chunks:
        ew, eww, b, logdet_l = _posterior(pre, n, f, with_cov=True, with_logdet=with_ll)
        # mode="clip" as in `_precompute`: no temporary copy of the output
        np.take(ew, rows, axis=1, out=outer, mode="clip")
        outer *= np.take(ew, cols, axis=1, out=right, mode="clip")
        eww += outer  # E[ww'] = Cov[w] + E[w] E[w]'
        out = dgemm(1.0, ew.T, f.T, trans_b=1, beta=1.0, c=c_acc.T, overwrite_c=1)
        _check_in_place(out, c_acc, "dgemm")
        out = dgemm(1.0, eww.T, n.T, trans_b=1, beta=1.0, c=a_acc.T, overwrite_c=1)
        _check_in_place(out, a_acc, "dgemm")
        if with_ll:
            total_ll += float(_session_lls(pre, n, f, b, ew, logdet_l)[: len(ids)].sum())
    return total_ll if with_ll else None


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
    log-likelihood; the sequence it sees is non-decreasing.  Debug logging
    writes the same values.  The log-likelihood is evaluated only when one
    of them reads it.
    """
    g, d = gmm.num_components, gmm.dim
    m = g * d
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if rank < 1 or rank > m:
        raise RankError(f"rank must be in [1, {m}], got {rank}")
    if len(stats) < rank:
        raise RankError(
            f"{len(stats)} recordings cannot support a rank-{rank} subspace"
        )
    chunks = _Chunks(stats, gmm)

    # One pass before EM: per component, the sessions occupying it and, for
    # the Sigma update, the sum over them of f~^2 / n; is any f~ non-zero?
    active_counts = np.zeros(g, dtype=np.int64)
    f2_over_n = np.zeros((g, d))
    signal = False
    for ids, n, f in chunks:
        signal = signal or bool(f.any())
        active_counts += (n > 0).sum(axis=0)
        if reestimate_sigma:
            for n_s, f_s in zip(n[: len(ids)], f.reshape(CHUNK, g, d)):
                f2_over_n[n_s > 0] += f_s[n_s > 0] ** 2 / n_s[n_s > 0, None]
    if not signal:
        raise DegenerateDataError(
            "all first-order statistics are zero; the subspace is unidentifiable"
        )

    sigma0 = gmm.variances.copy()
    sigma_floor = 1e-3 * sigma0
    rng = np.random.default_rng(seed)
    t_matrix = rng.standard_normal((m, rank)) * (0.01 * np.sqrt(sigma0.mean()))
    sigma = sigma0.copy()

    # Allocated once and refilled in place by every iteration.
    gram = np.empty((g, rank * (rank + 1) // 2))
    a_acc = np.empty_like(gram)
    c_acc = np.empty((m, rank))
    observed = on_iteration is not None or log.isEnabledFor(logging.DEBUG)
    for it in range(iters):
        pre = _precompute(t_matrix, sigma, gram)
        total_ll = _accumulate(chunks, pre, a_acc, c_acc, observed)
        if on_iteration is not None:
            on_iteration(it, TvModel(t_matrix.copy(), sigma.copy()), total_ll)
        if observed:
            log.debug("tv iteration %d: log-likelihood %.6f", it, total_ll)

        c_blocks = c_acc.reshape(g, d, rank)
        t_matrix = _update_t(a_acc, c_blocks, active_counts > 0)

        if reestimate_sigma:
            # Exact M-step under the session model, using only the E-step
            # accumulators (no frame-level second-order statistics needed):
            #   sigma_gd = mean over sessions with n_g > 0 of
            #              E[(f~ - n T w)^2] / n
            # which telescopes to the closed form below.
            t_blocks = t_matrix.reshape(g, d, rank)
            cross = np.einsum("gdr,gdr->gd", c_blocks, t_blocks)
            quad = _quad(a_acc, t_blocks)
            counts = np.maximum(active_counts, 1)[:, None]
            sigma_new = (f2_over_n - 2.0 * cross + quad) / counts
            keep = active_counts == 0
            sigma = np.maximum(sigma_new, sigma_floor)
            if keep.any():
                sigma[keep] = sigma0[keep]

    return TvModel(t_matrix=t_matrix, sigma=sigma)


def extract_ivector(stats: BwStats, gmm: DiagonalGmm, model: TvModel) -> np.ndarray:
    """Posterior-mean i-vector (R,) of one recording's raw statistics."""
    return extract_ivectors([stats], gmm, model)[0]


def extract_ivectors(stats: Sequence[BwStats], gmm: DiagonalGmm, model: TvModel) -> np.ndarray:
    """Posterior-mean i-vectors of many recordings, `CHUNK` sessions at a
    time: a (len(stats), R) array whose row i belongs to ``stats[i]``."""
    _check_model(gmm, model)
    pre = _precompute(model.t_matrix, model.sigma)
    out = np.empty((len(stats), model.rank))
    start = 0
    for ids, n, f in _Chunks(stats, gmm):
        out[start : start + len(ids)] = _posterior(pre, n, f)[0][: len(ids)]
        start += len(ids)
    return out
