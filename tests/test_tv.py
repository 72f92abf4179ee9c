import numpy as np
import pytest
from scipy.linalg import subspace_angles
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

from helpers import make_gmm, reference_train_tv
from ivnda.errors import (
    ContractError,
    DegenerateDataError,
    NumericError,
    RankError,
    ShapeError,
)
from ivnda.stats import BwStats
from ivnda.tv import (
    CHUNK,
    IVector,
    TvModel,
    extract_ivector,
    extract_ivectors,
    train_tv,
    tv_log_likelihood,
)

# --- builders --------------------------------------------------------------


def random_model(gen: np.random.Generator, g: int, d: int, r: int) -> TvModel:
    t = gen.normal(0.0, 0.8, size=(g * d, r))
    sigma = gen.uniform(0.4, 1.6, size=(g, d))
    return TvModel(t_matrix=t, sigma=sigma, rank=r)


def random_centered_stats(
    gen: np.random.Generator, g: int, d: int, zero_components: int = 0
) -> BwStats:
    n = gen.uniform(0.5, 30.0, size=g)
    if zero_components:
        off = gen.choice(g, size=zero_components, replace=False)
        n[off] = 0.0
    f = gen.normal(0.0, 3.0, size=(g, d)) * n[:, None] / 10.0
    f[n == 0.0] = 0.0
    return BwStats(n=n, f=f, centered=True)


def planted_stats(
    gen: np.random.Generator,
    model: TvModel,
    count: int,
    residual: float = 0.0,
) -> list[BwStats]:
    """Sessions drawn exactly from the subspace model."""
    g, d = model.num_components, model.dim
    out = []
    for _ in range(count):
        n = gen.uniform(5.0, 50.0, size=g)
        w = gen.standard_normal(model.rank)
        mean = (n.repeat(d) * (model.t_matrix @ w)).reshape(g, d)
        noise = residual * gen.standard_normal((g, d)) * np.sqrt(
            n[:, None] * model.sigma
        )
        out.append(BwStats(n=n, f=mean + noise, centered=True))
    return out


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
    got = extract_ivector(stats, model)
    want = dense_posterior_mean(model, stats)
    np.testing.assert_allclose(got.w, want, rtol=1e-10, atol=1e-12)


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
    got = extract_ivector(stats, model)
    np.testing.assert_allclose(got.w, res.x, atol=1e-6)


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
        got = tv_log_likelihood([stats], model)
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
    got = tv_log_likelihood([stats], model)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("count", [6, 2 * CHUNK + 3])
def test_batch_extraction_matches_single(rng, count):
    model = random_model(rng, 4, 3, 2)
    stats = [random_centered_stats(rng, 4, 3) for _ in range(count)]
    for i, s in enumerate(stats):
        s.recording_id = f"rec{i}"
    batch = extract_ivectors(stats, model)
    assert [iv.recording_id for iv in batch] == [f"rec{i}" for i in range(count)]
    for s, iv in zip(stats, batch):
        np.testing.assert_array_equal(iv.w, extract_ivector(s, model).w)


# --- training --------------------------------------------------------------


def test_training_recovers_planted_subspace():
    gen = np.random.default_rng(77)
    g, d, r = 6, 3, 2
    sigma = np.full((g, d), 0.8)
    t_true = gen.normal(0.0, 1.0, size=(g * d, r))
    truth = TvModel(t_matrix=t_true, sigma=sigma, rank=r)
    stats = planted_stats(gen, truth, 150, residual=0.0)
    gmm = make_gmm(gen, g, d)
    gmm.variances[:] = sigma
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
    truth = TvModel(
        t_matrix=gen.normal(size=(g * d, r)), sigma=sigma, rank=r
    )
    stats = planted_stats(gen, truth, 120, residual=0.0)
    gmm = make_gmm(gen, g, d)
    gmm.variances[:] = 1.0
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
        rank=r,
    )
    stats = planted_stats(gen, truth, 60, residual=1.0)
    gmm = make_gmm(gen, g, d)
    gmm.variances[:] = truth.sigma
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
        extract_ivectors(stats, model)
    stats[3].f[1, 0] = 0.0
    stats[3].n[2] = bad
    with pytest.raises(NumericError, match="broken"):
        extract_ivector(stats[3], model)


def test_non_finite_model_rejected(rng):
    model = random_model(rng, 3, 2, 2)
    model.t_matrix[4, 1] = np.nan
    with pytest.raises(NumericError):
        extract_ivector(random_centered_stats(rng, 3, 2), model)


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
    gmm = make_gmm(rng, 3, 2)
    stats = [
        BwStats(n=np.ones(3), f=np.zeros((3, 2)), centered=True)
        for _ in range(5)
    ]
    with pytest.raises(DegenerateDataError):
        train_tv(stats, gmm, rank=2)


def test_train_requires_centered_stats(rng):
    gmm = make_gmm(rng, 3, 2)
    stats = [
        BwStats(n=np.ones(3), f=rng.normal(size=(3, 2)), centered=False)
        for _ in range(5)
    ]
    with pytest.raises(ContractError):
        train_tv(stats, gmm, rank=2)


def test_extract_requires_matching_shape(rng):
    model = random_model(rng, 4, 3, 2)
    bad = BwStats(n=np.ones(3), f=np.zeros((3, 3)), centered=True)
    with pytest.raises(ShapeError):
        extract_ivector(bad, model)


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
    total = tv_log_likelihood(stats, model)
    parts = sum(tv_log_likelihood([s], model) for s in stats)
    assert total == pytest.approx(parts, rel=1e-15)


def test_model_validates_shapes():
    with pytest.raises(ShapeError):
        TvModel(t_matrix=np.zeros((5, 2)), sigma=np.ones((2, 2)), rank=2)
    with pytest.raises(ShapeError):
        TvModel(t_matrix=np.zeros((4, 2)), sigma=np.zeros((2, 2)), rank=2)


def test_ivector_container():
    with pytest.raises(ShapeError):
        IVector(w=np.zeros((2, 2)))
    assert IVector(w=np.zeros(5)).rank == 5
