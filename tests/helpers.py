"""Shared builders for test data, and references for the batched paths.

Most oracle implementations live next to the tests that use them; this
module provides random-object constructors reused across files and the
straightforward versions that the chunked and batched code is checked
against: :func:`reference_em_step` (one dense frames x components EM step),
:func:`reference_train_gmm` (UBM training over one concatenated array of
the pooled speech frames),
:func:`reference_weighted_sums` (an ``np.add.at`` scatter over CSR
posteriors), :func:`reference_train_tv` (one-session-at-a-time TV EM) and
:func:`reference_train_plda` (one-speaker-at-a-time PLDA EM), and the
line-by-line readers of trial lists, keys and score files
(:func:`reference_read_trials`, :func:`reference_read_key`,
:func:`reference_read_scores`).  The frontend references keep the
straightforward framing by an index gather, the per-frame energy and
zero-crossing rate, ``np.pad`` edge replication and filterbank, window
and DCT basis built per call (:func:`reference_mfcc`, :func:`reference_energy_zcr`,
:func:`reference_deltas`, :func:`reference_detect_speech`); the strided
frontend must match them bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import logsumexp

from ivnda import ubm
from ivnda.backend import PldaModel
from ivnda.config import FrontendConfig
from ivnda.da import LabeledVectors
from ivnda.errors import FormatError, InsufficientDataError
from ivnda.frontend import (
    AudioSignal,
    FeatureMatrix,
    dct_basis,
    fft_size,
    frame_geometry,
    mel_filterbank,
)
from ivnda.stats import BwStats
from ivnda.ubm import DiagonalGmm, PosteriorMatrix


def make_gmm(rng: np.random.Generator, g: int, d: int) -> DiagonalGmm:
    weights = rng.dirichlet(np.full(g, 5.0))
    means = rng.normal(0.0, 2.0, size=(g, d))
    variances = rng.uniform(0.3, 2.0, size=(g, d))
    return DiagonalGmm(weights=weights, means=means, variances=variances)


def zero_mean_gmm(g: int, d: int) -> DiagonalGmm:
    """A UBM with zero means: statistics it aligned are already centered."""
    return DiagonalGmm(
        weights=np.full(g, 1.0 / g), means=np.zeros((g, d)), variances=np.ones((g, d))
    )


def make_features(
    rng: np.random.Generator,
    num_frames: int,
    dim: int,
    mask: np.ndarray | None = None,
) -> FeatureMatrix:
    frames = rng.normal(0.0, 1.5, size=(num_frames, dim))
    if mask is None:
        mask = np.ones(num_frames, dtype=bool)
    return FeatureMatrix(frames=frames, speech_mask=mask)


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


def reference_train_gmm(
    features: list[FeatureMatrix],
    num_components: int,
    iters_per_level: int = 5,
    variance_floor_scale: float = 1e-3,
    on_iteration=None,
) -> DiagonalGmm:
    """`ubm.train_gmm` on the concatenation of every record's speech
    frames: the global moments from ``frames.mean``/``frames.var``, EM over
    ``ubm.CHUNK_FRAMES``-row slices of the one array.  It runs the same
    posterior kernel, ``ubm._chunked_posteriors``, so it pins the pooling,
    not the numerics."""
    blocks = [f.speech_frames() for f in features if f.speech_mask.any()]
    if not blocks:
        raise InsufficientDataError("no speech frames in the training set")
    frames = np.concatenate(blocks, axis=0)
    ubm._require_finite(frames)
    if frames.shape[0] < ubm.MIN_FRAMES_PER_COMPONENT * num_components:
        raise InsufficientDataError(
            f"{frames.shape[0]} speech frames is too few for {num_components} "
            f"components (need {ubm.MIN_FRAMES_PER_COMPONENT} per component)"
        )
    gmm, floor = ubm._global_gaussian(
        frames.mean(axis=0), frames.var(axis=0), variance_floor_scale
    )
    while gmm.num_components < num_components:
        gmm = ubm._split_components(gmm)
        for i in range(iters_per_level):
            sums = np.zeros((gmm.num_components, 2 * gmm.dim + 1))
            total_ll = 0.0
            slices = [
                frames[start : start + ubm.CHUNK_FRAMES]
                for start in range(0, frames.shape[0], ubm.CHUNK_FRAMES)
            ]
            for aug, post, ll in ubm._chunked_posteriors(gmm, slices):
                sums += post @ aug.T
                total_ll += ll.sum()
            if on_iteration is not None:
                on_iteration(gmm.num_components, i, gmm, total_ll / frames.shape[0])
            gmm = ubm._m_step(sums, floor, gmm)
    return gmm


def reference_train_tv(
    stats: list[BwStats],
    gmm: DiagonalGmm,
    rank: int,
    iters: int,
    seed: int,
    reestimate_sigma: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """(T, Sigma, per-iteration log-likelihoods) of TV EM on raw statistics
    with one posterior and one rank-one accumulator update per session.
    Same centering, initialisation, M-step and Sigma update as
    :func:`ivnda.tv.train_tv`."""
    g, d = gmm.num_components, gmm.dim
    m = g * d
    sigma0 = gmm.variances.copy()
    rng = np.random.default_rng(seed)
    t_matrix = rng.standard_normal((m, rank)) * (0.01 * np.sqrt(sigma0.mean()))
    sigma = sigma0.copy()
    n_all = np.stack([s.n for s in stats])
    f_all = np.stack([(s.f - s.n[:, None] * gmm.means).reshape(-1) for s in stats])
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


def _spd_inverse(mat: np.ndarray) -> np.ndarray:
    return cho_solve(cho_factor(mat, lower=True), np.eye(mat.shape[0]))


def _reference_plda_log_likelihood(
    model: PldaModel, groups: list[np.ndarray]
) -> float:
    """Marginal log-likelihood summed speaker by speaker, each speaker's
    block-structured joint covariance handled on its own."""
    w_inv = _spd_inverse(model.w_cov)
    _, logdet_w = np.linalg.slogdet(model.w_cov)
    total = 0.0
    m = model.dim
    for grp in groups:
        mi = grp.shape[0]
        centered = grp - model.mu
        s = centered.sum(axis=0)
        mixed = model.w_cov + mi * model.b_cov
        _, logdet_x = np.linalg.slogdet(mixed)
        correction = w_inv @ model.b_cov @ _spd_inverse(mixed)
        quad = float(np.einsum("ij,jk,ik->", centered, w_inv, centered))
        quad -= float(s @ correction @ s)
        logdet = (mi - 1) * logdet_w + logdet_x
        total += -0.5 * (mi * m * np.log(2.0 * np.pi) + logdet + quad)
    return float(total)


def reference_train_plda(
    data: LabeledVectors, iters: int, reg_scale: float = 1e-8
) -> tuple[PldaModel, list[float]]:
    """(final model, per-iteration log-likelihoods) of two-covariance PLDA
    EM with one posterior and one W accumulation per speaker.  Same
    initialisation, ridge and M-step as :func:`ivnda.backend.train_plda`."""
    groups = [data.vectors[idx] for idx in data.class_indices().values()]
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
    lls = []
    for _ in range(iters):
        lls.append(
            _reference_plda_log_likelihood(
                PldaModel(mu=mu, b_cov=b_cov, w_cov=w_cov), groups
            )
        )
        b_inv = _spd_inverse(b_cov)
        w_inv = _spd_inverse(w_cov)
        y_hat = np.empty((len(groups), m))
        y_cov = np.empty((len(groups), m, m))
        for i in range(len(groups)):
            cov_i = _spd_inverse(b_inv + counts[i] * w_inv)
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
    return PldaModel(mu=mu, b_cov=b_cov, w_cov=w_cov), lls


# --- line-by-line text readers ------------------------------------------------


def reference_read_trials(path: str | Path) -> list[tuple[str, str]]:
    trials = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{line_no}: expected 'enroll_id test_id'")
        trials.append((parts[0], parts[1]))
    return trials


def reference_read_key(path: str | Path) -> dict[tuple[str, str], bool]:
    """A repeated trial keeps its last label; the columnar reader rejects it."""
    key: dict[tuple[str, str], bool] = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("target", "nontarget"):
            raise FormatError(
                f"{path}:{line_no}: expected 'enroll_id test_id target|nontarget'"
            )
        key[(parts[0], parts[1])] = parts[2] == "target"
    return key


def reference_read_scores(path: str | Path) -> list[tuple[str, str, float]]:
    scores = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"{path}:{line_no}: expected 'enroll_id test_id score'")
        try:
            scores.append((parts[0], parts[1], float(parts[2])))
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: non-numeric score") from exc
    return scores


# --- frontend references ----------------------------------------------------


def reference_frames(x: np.ndarray, frame_len: int, shift: int) -> np.ndarray:
    """(frames, frame_len) copy of `x` by an index gather."""
    count = (x.size - frame_len) // shift + 1
    return x[np.arange(count)[:, None] * shift + np.arange(frame_len)[None, :]]


def reference_mfcc(signal: AudioSignal, cfg: FrontendConfig) -> np.ndarray:
    """MFCCs from gathered frames, with window, filterbank and DCT basis
    built per call (the basis is checked against ``scipy.fft.dct`` in
    test_frontend)."""
    sr = signal.sample_rate_hz
    frame_len, shift = frame_geometry(sr, cfg)
    x = signal.samples
    emphasized = np.concatenate([x[:1], x[1:] - cfg.preemphasis * x[:-1]])
    frames = reference_frames(emphasized, frame_len, shift) * np.hamming(frame_len)
    nfft = fft_size(sr)
    power = np.abs(np.fft.rfft(frames, n=nfft, axis=1)) ** 2
    energies = power @ mel_filterbank(cfg.num_filters, nfft, sr).T
    log_energies = np.log(np.maximum(energies, cfg.log_floor))
    return log_energies @ dct_basis(cfg.num_filters, cfg.num_ceps)


def reference_energy_zcr(
    samples: np.ndarray, frame_len: int, shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame log energy (dB) and zero-crossing rate of gathered frames."""
    frames = reference_frames(samples, frame_len, shift)
    energy_db = 10.0 * np.log10(np.mean(frames**2, axis=1) + 1e-12)
    signs = np.sign(frames)
    signs[signs == 0] = 1
    flips = signs[:, 1:] != signs[:, :-1]
    return energy_db, flips.sum(axis=1) / (frames.shape[1] - 1)


def reference_deltas(frames: np.ndarray, context: int) -> np.ndarray:
    """Frames with deltas and delta-deltas appended, edges by ``np.pad``."""

    def regress(x: np.ndarray) -> np.ndarray:
        padded = np.pad(x, ((context, context), (0, 0)), mode="edge")
        t = x.shape[0]
        num = np.zeros_like(x)
        for j in range(1, context + 1):
            num += j * (padded[context + j : context + j + t]
                        - padded[context - j : context - j + t])
        return num / (2.0 * sum(j * j for j in range(1, context + 1)))

    delta = regress(frames)
    return np.concatenate([frames, delta, regress(delta)], axis=1)


def reference_smooth_mask(mask: np.ndarray, window: int) -> np.ndarray:
    if window <= 1 or mask.size == 0:
        return mask.copy()
    padded = np.pad(mask.astype(np.int32), window // 2, mode="edge")
    votes = np.convolve(padded, np.ones(window, dtype=np.int32), mode="valid")
    return votes * 2 > window


def reference_detect_speech(signal: AudioSignal, cfg: FrontendConfig) -> np.ndarray:
    """The speech mask from the reference energies, rates and smoothing."""
    sad = cfg.sad
    frame_len, shift = frame_geometry(signal.sample_rate_hz, cfg)
    energy_db, zcr = reference_energy_zcr(signal.samples, frame_len, shift)
    above_floor = energy_db > sad.floor_db
    if not above_floor.any():
        return np.zeros(energy_db.size, dtype=bool)
    low = np.percentile(energy_db, sad.low_percentile)
    high = np.percentile(energy_db, sad.high_percentile)
    spread = high - low
    if spread < sad.min_spread_db:
        raw = above_floor.copy()
    else:
        threshold = low + sad.energy_fraction * spread
        rescue = (energy_db > threshold - sad.zcr_margin_db) & (zcr >= sad.zcr_threshold)
        raw = ((energy_db > threshold) | rescue) & above_floor
    return reference_smooth_mask(raw, sad.smooth_frames)
