"""Shared builders for test data, and references for the batched paths.

Most oracle implementations live next to the tests that use them; this
module provides random-object constructors reused across files and the
straightforward versions that the chunked and batched code is checked
against: :func:`reference_em_step` (one dense frames x components EM step),
:func:`reference_weighted_sums` (an ``np.add.at`` scatter over CSR
posteriors) and :func:`reference_train_tv` (one-session-at-a-time TV EM).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import logsumexp

from ivnda.frontend import FeatureMatrix
from ivnda.stats import BwStats
from ivnda.ubm import DiagonalGmm, PosteriorMatrix


def make_gmm(rng: np.random.Generator, g: int, d: int) -> DiagonalGmm:
    weights = rng.dirichlet(np.full(g, 5.0))
    means = rng.normal(0.0, 2.0, size=(g, d))
    variances = rng.uniform(0.3, 2.0, size=(g, d))
    return DiagonalGmm(weights=weights, means=means, variances=variances)


def make_features(
    rng: np.random.Generator,
    num_frames: int,
    dim: int,
    mask: np.ndarray | None = None,
    frame_shift_ms: float = 10.0,
) -> FeatureMatrix:
    frames = rng.normal(0.0, 1.5, size=(num_frames, dim))
    if mask is None:
        mask = np.ones(num_frames, dtype=bool)
    return FeatureMatrix(
        frames=frames, frame_shift_ms=frame_shift_ms, speech_mask=mask
    )


def dense_random_posteriors(
    rng: np.random.Generator, num_frames: int, g: int
) -> np.ndarray:
    """Random dense posterior rows (each sums to one)."""
    return rng.dirichlet(np.full(g, 0.7), size=num_frames)


def sparse_random_posteriors(
    rng: np.random.Generator, num_frames: int, g: int, per_frame: int
) -> PosteriorMatrix:
    """Random sparse posteriors with `per_frame` active components per row."""
    indptr = np.arange(num_frames + 1, dtype=np.int64) * per_frame
    indices = np.empty(num_frames * per_frame, dtype=np.int64)
    values = np.empty(num_frames * per_frame)
    for t in range(num_frames):
        chosen = np.sort(rng.choice(g, size=per_frame, replace=False))
        weights = rng.dirichlet(np.full(per_frame, 1.5))
        indices[t * per_frame : (t + 1) * per_frame] = chosen
        values[t * per_frame : (t + 1) * per_frame] = weights
    return PosteriorMatrix(
        indptr=indptr, indices=indices, values=values, num_components=g
    )


def ragged_posteriors(
    rng: np.random.Generator, num_frames: int, g: int
) -> PosteriorMatrix:
    """CSR posteriors with 0-4 entries per row, drawn with replacement, so
    rows can be empty and can repeat a component id.  Row 0 is always
    empty and row 1 always holds component 1 twice."""
    counts = rng.integers(0, 5, size=num_frames)
    counts[0], counts[1] = 0, 2
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = rng.integers(0, g, size=indptr[-1])
    indices[0:2] = 1
    values = rng.uniform(0.0, 0.25, size=indptr[-1])
    return PosteriorMatrix(
        indptr=indptr, indices=indices, values=values, num_components=g
    )


def reference_weighted_sums(
    post: PosteriorMatrix, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(n, f) by an ``np.add.at`` scatter of every CSR entry."""
    n = np.zeros(post.num_components)
    f = np.zeros((post.num_components, frames.shape[1]))
    frame_of = np.repeat(np.arange(post.num_frames), np.diff(post.indptr))
    np.add.at(n, post.indices, post.values)
    np.add.at(f, post.indices, post.values[:, None] * frames[frame_of])
    return n, f


def reference_em_step(
    gmm: DiagonalGmm, frames: np.ndarray, floor: np.ndarray
) -> tuple[DiagonalGmm, float]:
    """One UBM EM step over the dense (T, G) responsibility matrix."""
    inv_var = 1.0 / gmm.variances
    with np.errstate(divide="ignore"):
        log_w = np.log(gmm.weights)
    densities = (
        log_w
        - 0.5 * (gmm.dim * np.log(2.0 * np.pi) + np.log(gmm.variances).sum(axis=1))
        - 0.5 * np.sum(gmm.means**2 * inv_var, axis=1)
        + frames @ (gmm.means * inv_var).T
        - 0.5 * (frames**2) @ inv_var.T
    )
    norm = logsumexp(densities, axis=1)
    resp = np.exp(densities - norm[:, None])
    occupancy = resp.sum(axis=0)
    safe = occupancy > 1e-10
    means = gmm.means.copy()
    variances = gmm.variances.copy()
    means[safe] = (resp.T @ frames)[safe] / occupancy[safe, None]
    second = (resp.T @ (frames**2))[safe] / occupancy[safe, None]
    variances[safe] = np.maximum(second - means[safe] ** 2, floor)
    weights = occupancy / occupancy.sum()
    return DiagonalGmm(weights=weights, means=means, variances=variances), float(
        norm.mean()
    )


def reference_train_tv(
    stats: list[BwStats],
    gmm: DiagonalGmm,
    rank: int,
    iters: int,
    seed: int,
    reestimate_sigma: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """(T, Sigma, per-iteration log-likelihoods) of TV EM with one posterior
    and one rank-one accumulator update per session.  Same initialisation,
    M-step and Sigma update as :func:`ivnda.tv.train_tv`."""
    g, d = gmm.num_components, gmm.dim
    m = g * d
    sigma0 = gmm.variances.copy()
    rng = np.random.default_rng(seed)
    t_matrix = rng.standard_normal((m, rank)) * (0.01 * np.sqrt(sigma0.mean()))
    sigma = sigma0.copy()
    n_all = np.stack([s.n for s in stats])
    f_all = np.stack([s.f.reshape(-1) for s in stats])
    active_counts = (n_all > 0).sum(axis=0)
    lls = []
    for _ in range(iters):
        t_over_sigma = t_matrix / sigma.reshape(-1)[:, None]
        gram = np.einsum(
            "gdr,gds->grs",
            t_matrix.reshape(g, d, rank),
            t_over_sigma.reshape(g, d, rank),
        )
        c_acc = np.zeros((m, rank))
        a_acc = np.zeros((g, rank, rank))
        total_ll = 0.0
        for n, f in zip(n_all, f_all):
            cho = cho_factor(np.eye(rank) + np.einsum("g,grs->rs", n, gram), lower=True)
            b = t_over_sigma.T @ f
            ew = cho_solve(cho, b)
            eww = cho_solve(cho, np.eye(rank)) + np.outer(ew, ew)
            c_acc += np.outer(f, ew)
            a_acc += n[:, None, None] * eww[None]
            active = n > 0
            n_act = n[active]
            f_act = f.reshape(g, d)[active]
            total_ll += -0.5 * (
                d * active.sum() * np.log(2.0 * np.pi)
                + (d * np.log(n_act) + np.log(sigma[active]).sum(axis=1)).sum()
                + 2.0 * np.log(np.diag(cho[0])).sum()
                + np.sum(f_act**2 / sigma[active] / n_act[:, None])
                - b @ ew
            )
        lls.append(float(total_ll))

        c_blocks = c_acc.reshape(g, d, rank)
        t_new = np.empty_like(t_matrix)
        for comp in range(g):
            try:
                sol = cho_solve(cho_factor(a_acc[comp], lower=True), c_blocks[comp].T)
            except LinAlgError:
                sol, *_ = np.linalg.lstsq(a_acc[comp], c_blocks[comp].T, rcond=None)
            t_new[comp * d : (comp + 1) * d] = sol.T
        t_matrix = t_new

        if reestimate_sigma:
            f_blocks = f_all.reshape(len(stats), g, d)
            f2_over_n = np.zeros((g, d))
            for n, f in zip(n_all, f_blocks):
                f2_over_n[n > 0] += f[n > 0] ** 2 / n[n > 0, None]
            t_blocks = t_matrix.reshape(g, d, rank)
            cross = np.einsum("gdr,gdr->gd", c_blocks, t_blocks)
            quad = np.einsum("gdr,grs,gds->gd", t_blocks, a_acc, t_blocks)
            sigma_new = (f2_over_n - 2.0 * cross + quad) / np.maximum(active_counts, 1)[:, None]
            sigma = np.maximum(sigma_new, 1e-3 * sigma0)
            sigma[active_counts == 0] = sigma0[active_counts == 0]
    return t_matrix, sigma, lls
