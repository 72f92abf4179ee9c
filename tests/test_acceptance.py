"""Acceptance checks for the whole pipeline.

One test per verification item, so ``pytest -v`` reports a single
pass/fail line for each.  Every numeric claim is checked against an
independent brute-force oracle (shared with the per-module test files
where one already exists) at a stated tolerance, and every test asserts
its own wall-clock budget.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import subspace_angles
from scipy.optimize import minimize

from helpers import dense_random_posteriors, make_features, make_gmm, zero_mean_gmm
from test_backend import oracle_llr, random_plda
from test_da import oracle_nda_scatter_all_pairs, oracle_nda_scatter_one_vs_rest
from test_metrics import random_trials
from test_stats import oracle_bw
from test_tv import planted_stats, random_centered_stats, random_model, uncenter
from test_ubm import oracle_posteriors

import mask_override_demo
import nda_vs_lda
import run_synthetic_pipeline
from ivnda import fileio, pipeline
from ivnda.backend import plda_score
from ivnda.cli import main as cli_main
from ivnda.da import LabeledVectors, compute_lda, compute_nda, nda_between_scatter
from ivnda.errors import EXIT_OK
from ivnda.metrics import (
    DCF_PRESETS,
    DcfParams,
    TrialSet,
    compute_dcf,
    compute_eer,
    compute_min_dcf,
    det_points,
)
from ivnda.stats import accumulate_bw
from ivnda.tv import TvModel, extract_ivector, train_tv
from ivnda.ubm import PosteriorMatrix, gmm_posteriors

# --- helpers ---------------------------------------------------------------


@contextmanager
def budget(seconds: float):
    """Fail the surrounding test if the block exceeds its runtime budget."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f} s, budget {seconds:.0f} s"


def run_cli(argv) -> None:
    assert cli_main([str(a) for a in argv]) == EXIT_OK


# --- 1. zeroth/first-order statistics --------------------------------------


def test_criterion_01_bw_stats_match_double_loop_oracle():
    """50 random (features, posteriors) cases agree with the naive loops."""
    with budget(5.0):
        for case in range(50):
            gen = np.random.default_rng(910_000 + case)
            t = int(gen.integers(1, 201))
            g = int(gen.integers(1, 17))
            d = int(gen.integers(1, 9))
            feats = make_features(gen, t, d)
            dense = dense_random_posteriors(gen, t, g)
            got = accumulate_bw(feats, PosteriorMatrix.from_dense(dense))
            want_n, want_f = oracle_bw(feats.frames, dense)
            np.testing.assert_allclose(got.n, want_n, rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(got.f, want_f, rtol=1e-10, atol=1e-14)


# --- 2. posterior computation ----------------------------------------------


def test_criterion_02_full_posteriors_match_dense_bayes_oracle():
    """With top_n == G the sparse path reproduces dense Bayes posteriors."""
    with budget(5.0):
        for case in range(20):
            gen = np.random.default_rng(920_000 + case)
            g = int(gen.integers(2, 13))
            d = int(gen.integers(1, 6))
            t = int(gen.integers(2, 40))
            gmm = make_gmm(gen, g, d)
            feats = make_features(gen, t, d)
            got = gmm_posteriors(gmm, feats, top_n=g).to_dense()
            want = oracle_posteriors(gmm, feats.frames)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


# --- 3. subspace training --------------------------------------------------


def test_criterion_03_tv_em_recovers_planted_subspace():
    """EM on noise-free planted stats finds the true subspace monotonically."""
    with budget(60.0):
        gen = np.random.default_rng(930_000)
        g, d, r = 8, 4, 2
        sigma = gen.uniform(0.5, 1.5, size=(g, d))
        truth = TvModel(t_matrix=gen.normal(0.0, 1.0, size=(g * d, r)), sigma=sigma)
        stats = planted_stats(gen, truth, 300, residual=0.0)
        gmm = make_gmm(gen, g, d)
        gmm.variances[:] = sigma
        uncenter(stats, gmm)
        lls: list[float] = []
        model = train_tv(
            stats, gmm, rank=r, iters=15, seed=0,
            on_iteration=lambda it, m, ll: lls.append(ll),
        )
        assert subspace_angles(model.t_matrix, truth.t_matrix).max() < 0.05
        assert len(lls) == 15
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-6 * abs(prev)


# --- 4. i-vector closed form -----------------------------------------------


def map_oracle(model: TvModel, stats) -> np.ndarray:
    """Numeric maximiser of the exact log posterior of the latent vector."""
    d = model.dim
    n_flat = np.repeat(stats.n, d)
    sigma_flat = model.sigma.reshape(-1)
    f_flat = stats.f.reshape(-1)
    active = n_flat > 0

    def neg_log_post(w):
        resid = f_flat - n_flat * (model.t_matrix @ w)
        quad = np.sum(resid[active] ** 2 / (n_flat[active] * sigma_flat[active]))
        return 0.5 * (w @ w) + 0.5 * quad

    def grad(w):
        resid = f_flat - n_flat * (model.t_matrix @ w)
        return w - model.t_matrix[active].T @ (resid[active] / sigma_flat[active])

    res = minimize(
        neg_log_post,
        np.zeros(model.rank),
        jac=grad,
        method="BFGS",
        options={"gtol": 1e-12, "maxiter": 500},
    )
    return res.x


def test_criterion_04_ivector_matches_map_oracle():
    """The linear-solve i-vector equals the numerically maximised posterior."""
    with budget(30.0):
        for case in range(20):
            gen = np.random.default_rng(940_000 + case)
            g = int(gen.integers(2, 8))
            d = int(gen.integers(1, 5))
            r = int(gen.integers(1, 5))
            model = random_model(gen, g, d, r)
            stats = random_centered_stats(
                gen, g, d, zero_components=int(gen.integers(0, 2))
            )
            got = extract_ivector(stats, zero_mean_gmm(g, d), model)
            np.testing.assert_allclose(got, map_oracle(model, stats), atol=1e-6)


# --- 5. nearest-neighbour scatter ------------------------------------------


def test_criterion_05_nda_scatter_matches_triple_loop_oracle():
    """Both scatter modes equal the naive loops on 20 random datasets."""
    with budget(10.0):
        for case in range(20):
            gen = np.random.default_rng(950_000 + case)
            num_classes = int(gen.integers(2, 5))
            dim = int(gen.integers(2, 6))
            k = int(gen.integers(1, 4))
            vectors, labels = [], []
            for c in range(num_classes):
                centre = gen.normal(0.0, 1.5, size=dim)
                size = int(gen.integers(k + 1, 40 // num_classes + 1))
                for _ in range(size):
                    vectors.append([float(x) for x in centre + gen.normal(size=dim)])
                    labels.append(f"cls{c}")
            assert len(vectors) <= 40
            data = LabeledVectors(
                vectors=np.array(vectors), labels=np.array(labels)
            )
            alpha = float(gen.uniform(0.5, 3.0))
            cases = (
                (True, oracle_nda_scatter_one_vs_rest),
                (False, oracle_nda_scatter_all_pairs),
            )
            for one_vs_rest, oracle in cases:
                got = nda_between_scatter(
                    data, k=k, alpha=alpha, one_vs_rest=one_vs_rest
                )
                want = np.array(oracle(vectors, labels, k, alpha))
                scale = max(np.abs(want).max(), 1.0)
                np.testing.assert_allclose(
                    got, want, rtol=1e-10, atol=1e-12 * scale
                )


# --- 6. scatter rank -------------------------------------------------------


def test_criterion_06_nda_rank_exceeds_lda_class_cap():
    """Five classes in 20 dimensions: LDA rank <= 4, k-NN scatter >= 10."""
    with budget(5.0):
        gen = np.random.default_rng(960_000)
        vectors, labels = [], []
        for c in range(5):
            centre = gen.normal(0.0, 2.0, size=20)
            for _ in range(12):
                vectors.append(centre + gen.normal(0.0, 0.5, size=20))
                labels.append(f"spk{c}")
        data = LabeledVectors(vectors=np.array(vectors), labels=np.array(labels))

        def effective_rank(eigenvalues):
            return int(np.sum(eigenvalues > 1e-8 * eigenvalues[0]))

        lda = compute_lda(data, out_dim=20)
        nda = compute_nda(data, k=10, alpha=2.0, out_dim=20)
        assert effective_rank(lda.eigenvalues) <= 4
        assert effective_rank(nda.eigenvalues) >= 10


# --- 7. bimodal-channel comparison -----------------------------------------


def test_criterion_07_nda_not_worse_than_lda_on_bimodal_channels(tmp_path):
    """Two-domain channel offsets: mean EER(NDA) <= mean EER(LDA) + 0.2 pp,
    through the recipe's back-end stages as ``scripts/nda_vs_lda.py`` runs them.

    Training speakers carry 12 sessions each because the one-vs-rest
    neighbourhood needs k + 1 = 11 same-class sessions at k = 10.
    """
    with budget(180.0):
        args = nda_vs_lda.parse_args(
            ["--train-speakers", "100", "--train-sessions", "12", "--eval-speakers", "50",
             "--eval-sessions", "4", "--k", "10", "--alpha", "2", "--dim", "12"]
        )
        configs = nda_vs_lda.variants(args)
        nda_eers, lda_eers = [], []
        for seed in range(5):
            corpus = tmp_path / f"seed{seed}"
            nda_vs_lda.write_corpus(corpus, 970_000 + seed, args)
            nda_eers.append(nda_vs_lda.run_variant(corpus, configs["nda"])[0])
            lda_eers.append(nda_vs_lda.run_variant(corpus, configs["lda"])[0])
        assert np.mean(nda_eers) <= np.mean(lda_eers) + 0.002, (
            f"NDA {nda_eers} vs LDA {lda_eers}"
        )


# --- 8. pair scoring -------------------------------------------------------


def test_criterion_08_plda_score_matches_joint_gaussian_oracle():
    """50 random models at dim <= 8: dense-Gaussian agreement and symmetry."""
    with budget(5.0):
        for case in range(50):
            gen = np.random.default_rng(980_000 + case)
            m = int(gen.integers(1, 9))
            model = random_plda(gen, m)
            enroll = gen.normal(0.0, 1.5, size=m)
            test = gen.normal(0.0, 1.5, size=m)
            got = plda_score(enroll, test, model)
            assert got == pytest.approx(
                oracle_llr(enroll, test, model), rel=1e-8, abs=1e-8
            )
            flipped = plda_score(test, enroll, model)
            assert flipped == pytest.approx(got, rel=1e-10, abs=1e-12)


# --- 9. detection metrics --------------------------------------------------


def exhaustive_sweep(scores: np.ndarray, targets: np.ndarray):
    """(threshold, p_fa, p_miss) by counting at every distinct score.

    Accept iff score >= threshold; the reject-everything end is appended
    explicitly.  Quadratic but assumption-free.
    """
    n_t = int(targets.sum())
    n_n = int(targets.size - n_t)
    points = []
    for theta in sorted(set(scores.tolist())):
        fa = int(((scores >= theta) & ~targets).sum())
        miss = int((scores < theta)[targets].sum())
        points.append((theta, fa / n_n, miss / n_t))
    points.append((points[-1][0] + 1.0, 0.0, 1.0))
    return points


def sweep_eer(points) -> float:
    diffs = [p_miss - p_fa for _, p_fa, p_miss in points]
    hi = next(i for i, d in enumerate(diffs) if d >= 0.0)
    if diffs[hi] == 0.0:
        return points[hi][1]
    lo = hi - 1
    frac = -diffs[lo] / (diffs[hi] - diffs[lo])
    return points[lo][1] + frac * (points[hi][1] - points[lo][1])


def test_criterion_09_metrics_match_exhaustive_sweep():
    """EER/minDCF/DET equal the quadratic sweep; monotone maps change nothing."""
    with budget(10.0):
        presets = [DCF_PRESETS["sre08"], DCF_PRESETS["sre10"], DcfParams()]
        kept = []
        for case in range(100):
            gen = np.random.default_rng(990_000 + case)
            scores, targets = random_trials(
                gen,
                size=int(gen.integers(10, 501)),
                separation=float(gen.uniform(0.5, 3.0)),
                ties=case % 3 == 0,
            )
            trials = TrialSet(scores=scores, targets=targets)
            points = exhaustive_sweep(trials.scores, trials.targets)
            want_det = np.array([[p_fa, p_miss] for _, p_fa, p_miss in points])
            assert np.array_equal(det_points(trials), want_det)
            for params in presets:
                want = min(compute_dcf(p_miss, p_fa, params) for _, p_fa, p_miss in points)
                assert compute_min_dcf(trials, params)[0] == want
            assert compute_eer(trials)[0] == pytest.approx(
                sweep_eer(points), rel=1e-12, abs=1e-15
            )
            if len(kept) < 20:
                kept.append(trials)
        transforms = [
            lambda s: 3.0 * s + 2.0,
            np.exp,
            np.tanh,
        ]
        for i, trials in enumerate(kept):
            mapped = TrialSet(
                scores=transforms[i % 3](trials.scores), targets=trials.targets
            )
            assert compute_eer(mapped)[0] == compute_eer(trials)[0]
            for params in presets:
                assert (
                    compute_min_dcf(mapped, params)[0]
                    == compute_min_dcf(trials, params)[0]
                )
            assert np.array_equal(det_points(mapped), det_points(trials))


# --- 10. end-to-end recipe -------------------------------------------------


def run_stats_recipe(ws, seed: int) -> None:
    """The stages of ``scripts/run_synthetic_pipeline.py``: a synthetic stats
    corpus through subspace, projection, PLDA, scoring and evaluation.

    The corpus defaults plant a rank-16 subspace under 50x10 train and
    25x4 eval sessions; k = 9 because each training speaker has exactly
    10 sessions and the own-class neighbourhood excludes the query.
    """
    args = run_synthetic_pipeline.parse_args(["--workspace", str(ws), "--seed", str(seed)])
    for argv in run_synthetic_pipeline.stages(args):
        run_cli(argv)


def test_criterion_10_end_to_end_synthetic_pipeline(tmp_path):
    """Full recipe reaches EER <= 5% / minDCF <= 0.6 and reruns bit-exactly."""
    with budget(600.0):
        ws = tmp_path / "run_a"
        run_stats_recipe(ws, 910)
        report = pipeline.evaluate_stage(ws / "scores.txt", ws / "key.txt")
        eer = report.eer[0]
        min_dcf = report.min_dcf["sre10"][0]
        assert eer <= 0.05, f"EER {eer:.4f}"
        assert min_dcf <= 0.6, f"minDCF {min_dcf:.4f}"

        rerun = tmp_path / "run_b"
        run_stats_recipe(rerun, 910)
        produced = sorted(p.relative_to(ws) for p in ws.rglob("*") if p.is_file())
        assert produced == sorted(
            p.relative_to(rerun) for p in rerun.rglob("*") if p.is_file()
        )
        for rel in produced:
            assert (ws / rel).read_bytes() == (rerun / rel).read_bytes(), rel


# --- 11. mask-override rescoring -------------------------------------------


def test_criterion_11_mask_override_rescores_contaminated_trial(tmp_path):
    """A corrected speech mask raises the contaminated target trial's score
    and leaves every non-overridden trial's score line byte-identical."""
    with budget(120.0):
        ws = tmp_path / "audio"
        for argv in mask_override_demo.stages(
            mask_override_demo.parse_args(["--workspace", str(ws)])
        ):
            run_cli(argv)

        overridden = {
            e.recording_id
            for e in fileio.read_manifest(ws / "override.manifest")
            if e.sad_path
        }
        assert len(overridden) == 1
        dirty = next(iter(overridden))
        key = fileio.read_key(ws / "key.txt")
        is_target = dict(zip(zip(key.enroll, key.test), key.values))
        old_lines = (ws / "scores.txt").read_text().splitlines()
        new_lines = (ws / "rescored.txt").read_text().splitlines()
        assert len(old_lines) == len(new_lines)
        target_checked = False
        for old_line, new_line in zip(old_lines, new_lines):
            enroll_id, test_id, old_score = old_line.split()
            assert new_line.split()[:2] == [enroll_id, test_id]
            if test_id == dirty:
                if is_target[(enroll_id, test_id)]:
                    assert float(new_line.split()[2]) > float(old_score)
                    target_checked = True
            else:
                assert new_line == old_line
        assert target_checked
