import logging
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve, subspace_angles
from scipy.linalg.lapack import dtfttr
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

from helpers import make_gmm, reference_train_tv, zero_mean_gmm
from ivnda import fileio, tv
from ivnda.errors import (
    DegenerateDataError,
    NumericError,
    RankError,
    ShapeError,
)
from ivnda.stats import BwStats, center_stats
from ivnda.tv import (
    CHUNK,
    TvModel,
    _posterior,
    _precompute,
    _rfp_map,
    _unpack,
    _update_t,
    extract_ivector,
    extract_ivectors,
    train_tv,
    tv_log_likelihood,
)

# --- builders --------------------------------------------------------------


def random_model(gen: np.random.Generator, g: int, d: int, r: int) -> TvModel:
    t = gen.normal(0.0, 0.8, size=(g * d, r))
    sigma = gen.uniform(0.4, 1.6, size=(g, d))
    return TvModel(t_matrix=t, sigma=sigma)


def random_centered_stats(
    gen: np.random.Generator, g: int, d: int, zero_components: int = 0
) -> BwStats:
    """Statistics already centered: the ones a zero-mean UBM aligned."""
    n = gen.uniform(0.5, 30.0, size=g)
    if zero_components:
        off = gen.choice(g, size=zero_components, replace=False)
        n[off] = 0.0
    f = gen.normal(0.0, 3.0, size=(g, d)) * n[:, None] / 10.0
    f[n == 0.0] = 0.0
    return BwStats(n=n, f=f)


def planted_stats(
    gen: np.random.Generator,
    model: TvModel,
    count: int,
    residual: float = 0.0,
) -> list[BwStats]:
    """Sessions drawn exactly from the subspace model, centered."""
    g, d = model.num_components, model.dim
    out = []
    for _ in range(count):
        n = gen.uniform(5.0, 50.0, size=g)
        w = gen.standard_normal(model.rank)
        mean = (n.repeat(d) * (model.t_matrix @ w)).reshape(g, d)
        noise = residual * gen.standard_normal((g, d)) * np.sqrt(
            n[:, None] * model.sigma
        )
        out.append(BwStats(n=n, f=mean + noise))
    return out


def uncenter(stats: list[BwStats], gmm) -> list[BwStats]:
    """Make centered statistics raw in place, as if `gmm` had aligned them."""
    for s in stats:
        s.f += s.n[:, None] * gmm.means
    return stats


# --- closed form vs oracles ------------------------------------------------


def dense_posterior_mean(model: TvModel, stats: BwStats) -> np.ndarray:
    """Solve (I + T' S^-1 N T) w = T' S^-1 f with dense matrices."""
    d = model.dim
    n_flat = np.repeat(stats.n, d)
    sigma_flat = model.sigma.reshape(-1)
    precision = np.eye(model.rank) + model.t_matrix.T @ (
        (n_flat / sigma_flat)[:, None] * model.t_matrix
    )
    rhs = model.t_matrix.T @ (stats.f.reshape(-1) / sigma_flat)
    return np.linalg.solve(precision, rhs)


@pytest.mark.parametrize("case", range(8))
def test_ivector_matches_dense_linear_solve(case):
    gen = np.random.default_rng(4000 + case)
    g, d, r = int(gen.integers(2, 8)), int(gen.integers(1, 4)), int(gen.integers(1, 5))
    model = random_model(gen, g, d, r)
    stats = random_centered_stats(gen, g, d)
    got = extract_ivector(stats, zero_mean_gmm(g, d), model)
    want = dense_posterior_mean(model, stats)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("case", range(5))
def test_ivector_matches_map_oracle(case):
    """The posterior mean maximises the exact log posterior (Gaussian)."""
    gen = np.random.default_rng(4100 + case)
    g, d, r = int(gen.integers(2, 7)), int(gen.integers(1, 4)), int(gen.integers(1, 4))
    model = random_model(gen, g, d, r)
    stats = random_centered_stats(gen, g, d, zero_components=int(gen.integers(0, 2)))
    d_dim = model.dim
    n_flat = np.repeat(stats.n, d_dim)
    sigma_flat = model.sigma.reshape(-1)
    f_flat = stats.f.reshape(-1)
    active = n_flat > 0

    def neg_log_post(w):
        resid = f_flat - n_flat * (model.t_matrix @ w)
        quad = np.sum(resid[active] ** 2 / (n_flat[active] * sigma_flat[active]))
        return 0.5 * (w @ w) + 0.5 * quad

    def jac(w):
        resid = f_flat - n_flat * (model.t_matrix @ w)
        grad = np.zeros_like(w)
        grad += w
        grad -= model.t_matrix[active].T @ (resid[active] / sigma_flat[active])
        return grad

    res = minimize(
        neg_log_post,
        np.zeros(model.rank),
        jac=jac,
        method="BFGS",
        options={"gtol": 1e-12, "maxiter": 500},
    )
    got = extract_ivector(stats, zero_mean_gmm(g, d), model)
    np.testing.assert_allclose(got, res.x, atol=1e-6)


def test_ll_matches_dense_gaussian_oracle():
    """Marginal log-likelihood equals the dense N(0, N T T' N + N Sigma)."""
    for case in range(6):
        gen = np.random.default_rng(4200 + case)
        g, d, r = int(gen.integers(2, 6)), int(gen.integers(1, 4)), int(gen.integers(1, 4))
        model = random_model(gen, g, d, r)
        stats = random_centered_stats(gen, g, d)
        n_flat = np.repeat(stats.n, d)
        sigma_flat = model.sigma.reshape(-1)
        cov = (n_flat[:, None] * model.t_matrix) @ model.t_matrix.T * n_flat[None, :]
        cov += np.diag(n_flat * sigma_flat)
        want = multivariate_normal.logpdf(
            stats.f.reshape(-1), mean=np.zeros(g * d), cov=cov
        )
        got = tv_log_likelihood([stats], zero_mean_gmm(g, d), model)
        assert got == pytest.approx(want, rel=1e-10)


def test_ll_with_inactive_components(rng):
    """Zero-count components drop out of the marginal entirely."""
    g, d, r = 5, 2, 3
    model = random_model(rng, g, d, r)
    stats = random_centered_stats(rng, g, d, zero_components=2)
    active = stats.n > 0
    idx = np.repeat(active, d)
    n_flat = np.repeat(stats.n, d)[idx]
    sigma_flat = model.sigma.reshape(-1)[idx]
    t_sub = model.t_matrix[idx]
    cov = (n_flat[:, None] * t_sub) @ t_sub.T * n_flat[None, :]
    cov += np.diag(n_flat * sigma_flat)
    want = multivariate_normal.logpdf(
        stats.f.reshape(-1)[idx], mean=np.zeros(idx.sum()), cov=cov
    )
    got = tv_log_likelihood([stats], zero_mean_gmm(g, d), model)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("count", [6, 2 * CHUNK + 3])
def test_batch_extraction_matches_single(rng, tmp_path, count):
    """Row i of the batch is, bit for bit, the i-vector of stats[i] alone,
    whether the statistics are a list or an archive read chunk by chunk."""
    model = random_model(rng, 4, 3, 2)
    stats = [random_centered_stats(rng, 4, 3) for _ in range(count)]
    gmm = make_gmm(rng, 4, 3)
    for i, s in enumerate(stats):
        s.recording_id = f"rec{i}"
    fileio.write_stats_archive(tmp_path / "s.ivbw", stats, fp=0, meta={})
    with fileio.StatsArchive(tmp_path / "s.ivbw") as archive:
        from_archive = extract_ivectors(archive, gmm, model)
    batch = extract_ivectors(stats, gmm, model)
    assert batch.shape == (count, 2)
    np.testing.assert_array_equal(from_archive, batch)
    for s, row in zip(stats, batch):
        np.testing.assert_array_equal(row, extract_ivector(s, gmm, model))


def test_extract_from_no_sessions_has_rank_columns(rng, tmp_path):
    model = random_model(rng, 4, 3, 2)
    ivectors = extract_ivectors([], make_gmm(rng, 4, 3), model)
    assert ivectors.shape == (0, 2)
    fileio.write_ivector_archive(tmp_path / "iv.iviv", ([], ivectors), fp=0, meta={})
    (ids, vectors), _, _ = fileio.read_ivector_archive(tmp_path / "iv.iviv")
    assert ids == [] and vectors.shape == (0, 2)


def test_raw_statistics_are_centered_at_the_ubm_means(rng):
    """Raw statistics with their UBM give, bit for bit, what statistics
    centered beforehand give with a zero-mean UBM."""
    g, d = 4, 3
    model = random_model(rng, g, d, 2)
    gmm = make_gmm(rng, g, d)
    raw = uncenter([random_centered_stats(rng, g, d) for _ in range(CHUNK + 5)], gmm)
    pre = [BwStats(n=s.n, f=center_stats(s, gmm)) for s in raw]
    zero = zero_mean_gmm(g, d)
    np.testing.assert_array_equal(
        extract_ivectors(raw, gmm, model), extract_ivectors(pre, zero, model)
    )
    assert tv_log_likelihood(raw, gmm, model) == tv_log_likelihood(pre, zero, model)
    zero.variances[:] = gmm.variances
    for reestimate_sigma in (False, True):
        a = train_tv(raw, gmm, rank=2, iters=2, reestimate_sigma=reestimate_sigma)
        b = train_tv(pre, zero, rank=2, iters=2, reestimate_sigma=reestimate_sigma)
        np.testing.assert_array_equal(a.t_matrix, b.t_matrix)
        np.testing.assert_array_equal(a.sigma, b.sigma)


# --- posterior and M-step kernels ------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 5, 16, 17])
def test_rfp_map_lists_the_lower_triangle_once(r, rng):
    """Every lower-triangle entry has one packed position, diag[i] is that
    of (i, i), and unpacking agrees with LAPACK's own RFP-to-full copy."""
    rows, cols, diag = _rfp_map(r)
    assert rows.size == r * (r + 1) // 2
    assert sorted(zip(rows.tolist(), cols.tolist())) == [
        (i, j) for i in range(r) for j in range(i + 1)
    ]
    np.testing.assert_array_equal(rows[diag], np.arange(r))
    np.testing.assert_array_equal(cols[diag], np.arange(r))
    packed = rng.normal(size=(3, rows.size))
    full = _unpack(packed, np.empty((4, r, r)))
    assert full.shape == (3, r, r)
    for mat, row in zip(full, packed):
        lower, info = dtfttr(r, row, transr="N", uplo="L")
        assert info == 0
        np.testing.assert_array_equal(mat, np.tril(lower) + np.tril(lower, -1).T)


@pytest.mark.parametrize("r", [1, 2, 5, 16, 17])
def test_gram_packing_matches_the_fancy_index_gather(rng, r):
    """The flat-index packing of the grams is, bit for bit, the 2-D gather
    of the same (CHUNK, R, R) blocks, over a short last block too."""
    g, d = CHUNK + 5, 2
    model = random_model(rng, g, d, r)
    rows, cols, _ = _rfp_map(r)
    t_blocks = model.t_matrix.reshape(g, d, r)
    ts_blocks = (model.t_matrix / model.sigma.reshape(-1)[:, None]).reshape(g, d, r)
    want = np.concatenate([
        np.matmul(t_blocks[s : s + CHUNK].transpose(0, 2, 1), ts_blocks[s : s + CHUNK])[
            :, rows, cols
        ]
        for s in range(0, g, CHUNK)
    ])
    assert _precompute(model.t_matrix, model.sigma).gram.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", range(4))
def test_posterior_matches_dense_inverse_solve_and_slogdet(case):
    """One RFP factor per session gives Cov[w], E[w] and log det L; padded
    zero-count rows have L = I."""
    gen = np.random.default_rng(4300 + case)
    g, d, r = 6, 3, 5
    model = random_model(gen, g, d, r)
    sessions = CHUNK - 7
    n = np.zeros((CHUNK, g))
    f = np.zeros((CHUNK, g * d))
    for i in range(sessions):
        s = random_centered_stats(gen, g, d, zero_components=int(gen.integers(0, 3)))
        n[i], f[i] = s.n, s.f.reshape(-1)
    pre = _precompute(model.t_matrix, model.sigma)
    ew, packed_cov, b, logdet_l = _posterior(pre, n, f, with_cov=True)
    cov = _unpack(packed_cov, np.empty((CHUNK, r, r)))
    ew_only, no_cov, _, _ = _posterior(pre, n, f)
    assert no_cov is None
    np.testing.assert_array_equal(ew_only, ew)

    t_blocks = model.t_matrix.reshape(g, d, r)
    for i in range(CHUNK):
        prec = np.eye(r) + np.einsum(
            "g,gdr,gd,gds->rs", n[i], t_blocks, 1.0 / model.sigma, t_blocks
        )
        inv = np.linalg.inv(prec)
        scale = np.abs(inv).max()
        np.testing.assert_allclose(cov[i], inv, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(
            ew[i], np.linalg.solve(prec, b[i]), rtol=1e-12,
            atol=1e-12 * np.abs(ew[i]).max(initial=0.0),
        )
        sign, logdet = np.linalg.slogdet(prec)
        assert sign == 1.0
        assert logdet_l[i] == pytest.approx(logdet, rel=1e-12, abs=1e-12)
    padded = slice(sessions, CHUNK)
    np.testing.assert_array_equal(cov[padded], np.broadcast_to(np.eye(r), (7, r, r)))
    assert not ew[padded].any() and not logdet_l[padded].any()


def test_posterior_rejects_indefinite_precision(rng):
    model = random_model(rng, 4, 3, 3)
    pre = _precompute(model.t_matrix, model.sigma)
    n = np.zeros((CHUNK, 4))
    n[5] = -50.0  # L = I - 50 sum_g T_g' S_g^-1 T_g is indefinite
    f = np.zeros((CHUNK, 12))
    for with_cov in (False, True):
        with pytest.raises(NumericError, match="not positive definite"):
            _posterior(pre, n, f, with_cov=with_cov)


def per_component_update(a_acc, c_blocks):
    """T rows from one Cholesky solve per component, least squares where
    the factorisation fails."""
    g, d, r = c_blocks.shape
    t_blocks = np.empty((g, d, r))
    for comp in range(g):
        try:
            sol = cho_solve(cho_factor(a_acc[comp], lower=True), c_blocks[comp].T)
        except LinAlgError:
            sol, *_ = np.linalg.lstsq(a_acc[comp], c_blocks[comp].T, rcond=None)
        t_blocks[comp] = sol.T
    return t_blocks.reshape(g * d, r)


@pytest.mark.parametrize("r", [4, 5])  # RFP lays out even and odd orders differently
@pytest.mark.parametrize("singular_observed", [False, True])
def test_packed_m_step_matches_per_component_loop(rng, singular_observed, r):
    """The packed M-step == the per-component loop on unpacked matrices; an
    unobserved component gets exactly zero rows, and an observed one whose
    accumulator cannot be factored takes the least-squares fallback."""
    g, d = 7, 3
    x = rng.normal(size=(g, r, 3 * r))
    a_acc = x @ x.transpose(0, 2, 1)
    c_blocks = rng.normal(size=(g, d, r))
    observed = np.ones(g, dtype=bool)
    a_acc[2] = 0.0
    c_blocks[2] = 0.0
    observed[2] = False
    if singular_observed:
        a_acc[5] = -a_acc[5]
    rows, cols, _ = _rfp_map(r)
    got = _update_t(a_acc[:, rows, cols], c_blocks, observed)
    want = per_component_update(a_acc, c_blocks)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert not got[2 * d : 3 * d].any()


def test_packed_m_step_allocates_only_its_output(rng):
    g, d, r = 64, 3, 40
    x = rng.normal(size=(g, r, 2 * r))
    rows, cols, _ = _rfp_map(r)
    a_acc = (x @ x.transpose(0, 2, 1))[:, rows, cols]
    c_blocks = rng.normal(size=(g, d, r))
    observed = np.ones(g, dtype=bool)
    _update_t(a_acc, c_blocks, observed)  # first-call imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _update_t(a_acc, c_blocks, observed)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # T itself and one packed factor; a (R, R) matrix per component
    # unpacked at once would be 64 * 12.8 kB.
    assert peak < g * d * r * 8 + a_acc.shape[1] * 8 + 16384, peak


# --- training --------------------------------------------------------------


def test_training_recovers_planted_subspace():
    gen = np.random.default_rng(77)
    g, d, r = 6, 3, 2
    sigma = np.full((g, d), 0.8)
    t_true = gen.normal(0.0, 1.0, size=(g * d, r))
    truth = TvModel(t_matrix=t_true, sigma=sigma)
    stats = planted_stats(gen, truth, 150, residual=0.0)
    gmm = make_gmm(gen, g, d)
    gmm.variances[:] = sigma
    uncenter(stats, gmm)
    lls: list[float] = []
    model = train_tv(
        stats, gmm, rank=r, iters=12, seed=1,
        on_iteration=lambda it, m, ll: lls.append(ll),
    )
    angles = subspace_angles(model.t_matrix, t_true)
    assert angles.max() < 0.05
    assert len(lls) == 12
    for prev, cur in zip(lls, lls[1:]):
        assert cur >= prev - 1e-6 * abs(prev)


def test_training_with_sigma_reestimation_tightens_residuals():
    gen = np.random.default_rng(78)
    g, d, r = 5, 2, 2
    sigma = np.full((g, d), 1.0)
    truth = TvModel(t_matrix=gen.normal(size=(g * d, r)), sigma=sigma)
    stats = planted_stats(gen, truth, 120, residual=0.0)
    gmm = make_gmm(gen, g, d)
    gmm.variances[:] = 1.0
    uncenter(stats, gmm)
    fixed = train_tv(stats, gmm, rank=r, iters=8, seed=3)
    adapted = train_tv(stats, gmm, rank=r, iters=8, seed=3, reestimate_sigma=True)
    # zero planted residual: re-estimated variances collapse far below the UBM's
    assert np.median(adapted.sigma) < 0.1 * np.median(fixed.sigma)
    angles = subspace_angles(adapted.t_matrix, truth.t_matrix)
    assert angles.max() < 0.05


def test_training_ll_monotone_with_noise():
    gen = np.random.default_rng(79)
    g, d, r = 4, 3, 2
    truth = TvModel(
        t_matrix=gen.normal(size=(g * d, r)),
        sigma=gen.uniform(0.5, 1.2, size=(g, d)),
    )
    stats = planted_stats(gen, truth, 60, residual=1.0)
    gmm = make_gmm(gen, g, d)
    gmm.variances[:] = truth.sigma
    uncenter(stats, gmm)
    lls: list[float] = []
    train_tv(
        stats, gmm, rank=r, iters=10, seed=5, reestimate_sigma=True,
        on_iteration=lambda it, m, ll: lls.append(ll),
    )
    for prev, cur in zip(lls, lls[1:]):
        assert cur >= prev - 1e-6 * abs(prev)


@pytest.mark.parametrize("reestimate_sigma", [False, True])
def test_training_matches_per_session_reference(reestimate_sigma):
    """Chunked E-step == one posterior per session, across two full chunks
    and a padded tail, with sessions and one whole component unobserved."""
    gen = np.random.default_rng(80)
    g, d, r = 6, 3, 3
    truth = random_model(gen, g, d, r)
    stats = planted_stats(gen, truth, 2 * CHUNK + 3, residual=1.0)
    for s in stats:
        off = gen.choice(g - 1, size=int(gen.integers(0, 3)), replace=False)
        s.n[off] = 0.0
        s.n[g - 1] = 0.0
        s.f[s.n == 0.0] = 0.0
    gmm = make_gmm(gen, g, d)
    uncenter(stats, gmm)
    lls: list[float] = []
    model = train_tv(
        stats, gmm, rank=r, iters=5, seed=2, reestimate_sigma=reestimate_sigma,
        on_iteration=lambda it, m, ll: lls.append(ll),
    )
    t_ref, sigma_ref, lls_ref = reference_train_tv(
        stats, gmm, rank=r, iters=5, seed=2, reestimate_sigma=reestimate_sigma
    )
    scale = np.abs(t_ref).max()
    np.testing.assert_allclose(model.t_matrix, t_ref, rtol=1e-9, atol=1e-9 * scale)
    np.testing.assert_allclose(model.sigma, sigma_ref, rtol=1e-9)
    np.testing.assert_allclose(lls, lls_ref, rtol=1e-9)
    assert not model.t_matrix[(g - 1) * d :].any()


@pytest.mark.parametrize("reestimate_sigma", [False, True])
@pytest.mark.parametrize("source", ["list", "archive"])
def test_training_evaluates_its_objective_only_when_observed(
    tmp_path, monkeypatch, caplog, source, reestimate_sigma
):
    """The same bytes with and without an observer or debug logging; with
    neither, the marginal log-likelihood is never evaluated, and debug lines
    show the values the observer sees."""
    gen = np.random.default_rng(81)
    g, d, r = 5, 3, 3
    gmm = make_gmm(gen, g, d)
    stats = uncenter(planted_stats(gen, random_model(gen, g, d, r), CHUNK + 9, 1.0), gmm)
    for i, s in enumerate(stats):
        s.recording_id = f"rec{i}"
    fileio.write_stats_archive(tmp_path / "s.ivbw", stats, fp=0, meta={})

    def train(on_iteration=None):
        kwargs = dict(rank=r, iters=4, seed=3, reestimate_sigma=reestimate_sigma,
                      on_iteration=on_iteration)
        if source == "list":
            return train_tv(stats, gmm, **kwargs)
        with fileio.StatsArchive(tmp_path / "s.ivbw") as archive:
            return train_tv(archive, gmm, **kwargs)

    def same(a, b):
        return a.t_matrix.tobytes() == b.t_matrix.tobytes() and (
            a.sigma.tobytes() == b.sigma.tobytes()
        )

    lls: list[float] = []
    observed = train(lambda it, m, ll: lls.append(ll))
    session_lls = tv._session_lls

    def never(*args):
        raise AssertionError("the objective was evaluated")

    monkeypatch.setattr(tv, "_session_lls", never)
    with caplog.at_level(logging.INFO, logger="ivnda.tv"):
        assert same(train(), observed)
    monkeypatch.setattr(tv, "_session_lls", session_lls)
    with caplog.at_level(logging.DEBUG, logger="ivnda.tv"):
        assert same(train(), observed)
    logged = re.findall(r"tv iteration \d+: log-likelihood (\S+)", caplog.text)
    assert logged == [f"{ll:.6f}" for ll in lls]


def test_training_accumulates_in_place(rng):
    """Iterations with G >> CHUNK peak at the packed gram and second-order
    accumulator, together about one full (G, R, R) tensor, plus well under
    half of another: both are allocated once and refilled in place, no
    (G, R, R) or (G, R^2) array is built, and an iteration's terms are
    dropped before the next one's are made."""
    g, d, r = 1024, 1, 48
    stats = [random_centered_stats(rng, g, d) for _ in range(CHUNK)]
    gmm = make_gmm(rng, g, d)
    train_tv(stats, gmm, rank=r, iters=1)  # first-call allocations
    tracemalloc.start()
    try:
        train_tv(stats, gmm, rank=r, iters=3, reestimate_sigma=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tensor = g * r * r * 8  # a full gram, or a full accumulator
    assert peak < 1.5 * tensor, peak / tensor


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_statistics_rejected(rng, bad):
    gmm = make_gmm(rng, 3, 2)
    model = random_model(rng, 3, 2, 2)
    stats = [random_centered_stats(rng, 3, 2) for _ in range(5)]
    stats[3].recording_id = "broken"
    stats[3].f[1, 0] = bad
    with pytest.raises(NumericError, match="broken"):
        train_tv(stats, gmm, rank=2, iters=1)
    with pytest.raises(NumericError, match="broken"):
        extract_ivectors(stats, gmm, model)
    stats[3].f[1, 0] = 0.0
    stats[3].n[2] = bad
    with pytest.raises(NumericError, match="broken"):
        extract_ivector(stats[3], gmm, model)


def test_non_finite_model_rejected(rng):
    model = random_model(rng, 3, 2, 2)
    model.t_matrix[4, 1] = np.nan
    with pytest.raises(NumericError):
        extract_ivector(random_centered_stats(rng, 3, 2), zero_mean_gmm(3, 2), model)


@pytest.mark.parametrize("routine,overwrite", [("dgemm", "overwrite_c"), ("dpftrs", "overwrite_b")])
def test_blas_result_not_written_in_place_raises(rng, monkeypatch, routine, overwrite):
    """A routine that returns a copy leaves the accumulator or T unchanged;
    that is an error, also under ``python -O``, not an all-zero model."""
    from ivnda import tv

    real = getattr(tv, routine)
    monkeypatch.setattr(tv, routine, lambda *a, **kw: real(*a, **{**kw, overwrite: 0}))
    gmm = make_gmm(rng, 3, 2)
    stats = [random_centered_stats(rng, 3, 2) for _ in range(5)]
    with pytest.raises(NumericError, match=f"{routine} returned a copy"):
        train_tv(stats, gmm, rank=2, iters=1)


def test_train_rejects_bad_rank(rng):
    gmm = make_gmm(rng, 3, 2)
    stats = [random_centered_stats(rng, 3, 2) for _ in range(10)]
    with pytest.raises(RankError):
        train_tv(stats, gmm, rank=7)  # > G * D
    with pytest.raises(RankError):
        train_tv(stats, gmm, rank=0)


def test_train_rejects_too_few_recordings(rng):
    gmm = make_gmm(rng, 3, 2)
    stats = [random_centered_stats(rng, 3, 2) for _ in range(3)]
    with pytest.raises(RankError):
        train_tv(stats, gmm, rank=4)


def test_train_rejects_all_zero_statistics(rng):
    """All-zero once centered: each f is its counts times the UBM means."""
    gmm = make_gmm(rng, 3, 2)
    stats = [BwStats(n=np.ones(3), f=gmm.means.copy()) for _ in range(5)]
    with pytest.raises(DegenerateDataError):
        train_tv(stats, gmm, rank=2)


def test_extract_requires_matching_shape(rng):
    model = random_model(rng, 4, 3, 2)
    bad = BwStats(n=np.ones(3), f=np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        extract_ivector(bad, make_gmm(rng, 4, 3), model)


def test_ubm_must_match_the_model(rng):
    model = random_model(rng, 4, 3, 2)
    stats = [random_centered_stats(rng, 4, 3) for _ in range(3)]
    for ubm in (make_gmm(rng, 3, 3), make_gmm(rng, 4, 2)):
        with pytest.raises(ShapeError, match="UBM"):
            extract_ivector(stats[0], ubm, model)
        with pytest.raises(ShapeError, match="UBM"):
            extract_ivectors(stats, ubm, model)
        with pytest.raises(ShapeError, match="UBM"):
            tv_log_likelihood(stats, ubm, model)


def test_training_is_deterministic(rng):
    gmm = make_gmm(rng, 3, 2)
    truth = random_model(rng, 3, 2, 2)
    stats = planted_stats(rng, truth, 30, residual=0.5)
    a = train_tv(stats, gmm, rank=2, iters=4, seed=11)
    b = train_tv(stats, gmm, rank=2, iters=4, seed=11)
    np.testing.assert_array_equal(a.t_matrix, b.t_matrix)
    c = train_tv(stats, gmm, rank=2, iters=4, seed=12)
    assert not np.array_equal(a.t_matrix, c.t_matrix)


def test_tv_log_likelihood_sums_sessions(rng):
    model = random_model(rng, 3, 2, 2)
    stats = [random_centered_stats(rng, 3, 2) for _ in range(4)]
    gmm = make_gmm(rng, 3, 2)
    total = tv_log_likelihood(stats, gmm, model)
    parts = sum(tv_log_likelihood([s], gmm, model) for s in stats)
    assert total == pytest.approx(parts, rel=1e-15)


def test_model_validates_shapes():
    with pytest.raises(ShapeError):
        TvModel(t_matrix=np.zeros((5, 2)), sigma=np.ones((2, 2)))
    with pytest.raises(ShapeError):
        TvModel(t_matrix=np.zeros(4), sigma=np.ones((2, 2)))
    with pytest.raises(ShapeError):
        TvModel(t_matrix=np.zeros((4, 2)), sigma=np.zeros((2, 2)))
    assert TvModel(t_matrix=np.zeros((4, 3)), sigma=np.ones((2, 2))).rank == 3

