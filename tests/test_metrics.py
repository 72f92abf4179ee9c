"""Tests for detection metrics: DET points, EER, minimum detection cost."""

import io
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivnda.errors import EmptyInputError, InsufficientDataError, ShapeError
from ivnda import metrics
from ivnda.metrics import (
    DCF_PRESETS,
    DcfParams,
    TrialSet,
    compute_dcf,
    compute_eer,
    compute_min_dcf,
    det_csv,
    det_points,
    det_svg,
)

# --- exhaustive oracle -----------------------------------------------------
#
# Error rates by direct counting (accept iff score >= threshold), sweeping
# every distinct score plus the reject-all end: O(K^2) but assumption-free.


def oracle_rates(scores, targets, threshold):
    n_t = sum(1 for t in targets if t)
    n_n = len(targets) - n_t
    miss = sum(1 for s, t in zip(scores, targets) if t and s < threshold)
    fa = sum(1 for s, t in zip(scores, targets) if not t and s >= threshold)
    return fa / n_n, miss / n_t


def oracle_points(scores, targets):
    """(threshold, p_fa, p_miss) triples in ascending threshold order."""
    out = []
    for theta in sorted(set(scores)):
        p_fa, p_miss = oracle_rates(scores, targets, theta)
        out.append((theta, p_fa, p_miss))
    out.append((max(scores) + 1.0, 0.0, 1.0))
    return out

def oracle_min_dcf(scores, targets, params):
    return min(
        compute_dcf(p_miss, p_fa, params) for _, p_fa, p_miss in oracle_points(scores, targets)
    )


def oracle_eer(scores, targets):
    points = oracle_points(scores, targets)
    diffs = [p_miss - p_fa for _, p_fa, p_miss in points]
    hi = next(i for i, d in enumerate(diffs) if d >= 0.0)
    theta_hi, fa_hi, _ = points[hi]
    if diffs[hi] == 0.0:
        return fa_hi, min(theta_hi, max(scores))
    theta_lo, fa_lo, _ = points[hi - 1]
    frac = -diffs[hi - 1] / (diffs[hi] - diffs[hi - 1])
    if hi == len(points) - 1:  # reject all: the smallest double above every score
        theta_hi = float(np.nextafter(max(scores), np.inf))
    return fa_lo + frac * (fa_hi - fa_lo), theta_lo + frac * (theta_hi - theta_lo)


def random_trials(gen: np.random.Generator, size: int, separation: float, ties: bool):
    targets = gen.random(size) < 0.4
    if not targets.any():
        targets[0] = True
    if targets.all():
        targets[0] = False
    scores = gen.normal(0.0, 1.0, size=size) + separation * targets
    if ties:
        scores = np.round(scores, 1)
    return scores, targets


# --- parameter containers --------------------------------------------------


class TestDcfParams:
    @pytest.mark.parametrize("p_target", [0.0, 1.0, -0.1, 1.5])
    def test_p_target_must_be_interior(self, p_target):
        with pytest.raises(ValueError):
            DcfParams(p_target=p_target)

    @pytest.mark.parametrize("kwargs", [{"cost_miss": 0.0}, {"cost_fa": -1.0}])
    def test_costs_must_be_positive(self, kwargs):
        with pytest.raises(ValueError):
            DcfParams(**kwargs)

    def test_presets(self):
        assert DCF_PRESETS["sre08"] == DcfParams(cost_miss=10.0, cost_fa=1.0, p_target=0.01)
        assert DCF_PRESETS["sre10"] == DcfParams(cost_miss=1.0, cost_fa=1.0, p_target=0.001)

    def test_trivial_systems_normalise_to_one(self):
        # Reject-everything costs C_miss * p_target; accept-everything costs
        # C_fa * (1 - p_target); the cheaper one defines cost 1.0.
        assert compute_dcf(1.0, 0.0, DCF_PRESETS["sre08"]) == pytest.approx(1.0)
        assert compute_dcf(0.0, 1.0, DCF_PRESETS["sre08"]) == pytest.approx(9.9)
        assert compute_dcf(1.0, 0.0, DCF_PRESETS["sre10"]) == pytest.approx(1.0)
        assert compute_dcf(0.0, 0.0, DcfParams()) == 0.0


class TestTrialSet:
    def test_num_trials(self):
        trials = TrialSet(scores=[1.0, 2.0, 3.0], targets=[True, False, True])
        assert trials.num_trials == 3

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            TrialSet(scores=np.array([]), targets=np.array([], dtype=bool))

    @pytest.mark.parametrize("targets", [[True, True], [False, False]])
    def test_single_class_rejected(self, targets):
        with pytest.raises(InsufficientDataError):
            TrialSet(scores=[0.1, 0.2], targets=targets)

    def test_misaligned_rejected(self):
        with pytest.raises(ShapeError):
            TrialSet(scores=[0.1, 0.2, 0.3], targets=[True, False])

    def test_non_finite_rejected(self):
        with pytest.raises(ShapeError):
            TrialSet(scores=[0.1, np.nan], targets=[True, False])


# --- DET curve -------------------------------------------------------------


class TestDetPoints:
    def test_endpoints_and_monotonicity(self, rng):
        scores, targets = random_trials(rng, 300, 1.5, ties=False)
        points = det_points(TrialSet(scores=scores, targets=targets))
        assert tuple(points[0]) == (1.0, 0.0)
        assert tuple(points[-1]) == (0.0, 1.0)
        assert np.all(np.diff(points[:, 0]) <= 0.0)
        assert np.all(np.diff(points[:, 1]) >= 0.0)
        assert points.min() >= 0.0 and points.max() <= 1.0

    @pytest.mark.parametrize("seed,ties", [(0, False), (1, True), (2, True)])
    def test_matches_exhaustive_counting(self, seed, ties):
        gen = np.random.default_rng(900 + seed)
        scores, targets = random_trials(gen, 120, 1.0, ties=ties)
        points = det_points(TrialSet(scores=scores, targets=targets))
        want = [(fa, miss) for _, fa, miss in oracle_points(list(scores), list(targets))]
        assert points.shape == (len(want), 2)
        for (got_fa, got_miss), (fa, miss) in zip(points, want):
            assert got_fa == fa and got_miss == miss

    def test_csv_round_trip(self, rng):
        scores, targets = random_trials(rng, 50, 1.0, ties=True)
        trials = TrialSet(scores=scores, targets=targets)
        out = io.StringIO()
        det_csv(trials, out)
        lines = out.getvalue().strip().split("\n")
        assert lines[0] == "p_fa,p_miss"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_allclose(parsed, det_points(trials), atol=1e-9)

    def test_svg_is_well_formed(self, rng):
        scores, targets = random_trials(rng, 50, 1.0, ties=False)
        out = io.StringIO()
        det_svg(TrialSet(scores=scores, targets=targets), out, size=320)
        root = ET.fromstring(out.getvalue())
        assert root.tag.endswith("svg")
        assert root.get("width") == "320"
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        num_points = len(polylines[0].get("points").split())
        assert num_points == det_points(TrialSet(scores=scores, targets=targets)).shape[0]


    def test_exports_do_not_depend_on_the_block_size(self, rng, monkeypatch):
        trials = TrialSet(*random_trials(rng, 90, 1.0, ties=False))
        whole = {}
        for block in (metrics.DET_BLOCK, 7, 1):
            monkeypatch.setattr(metrics, "DET_BLOCK", block)
            csv, svg = io.StringIO(), io.StringIO()
            det_csv(trials, csv)
            det_svg(trials, svg)
            assert whole.setdefault("csv", csv.getvalue()) == csv.getvalue()
            assert whole.setdefault("svg", svg.getvalue()) == svg.getvalue()

    def test_exports_format_one_block_at_a_time(self, tmp_path):
        n = 200_000
        trials = TrialSet(scores=np.arange(n) * 0.37, targets=np.arange(n) % 10 == 0)
        trials._sweep  # the sweep itself is 24 bytes per point
        for export in (det_csv, det_svg):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                with open(tmp_path / export.__name__, "w") as fh:
                    export(trials, fh)
                transient = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert transient <= 256 * metrics.DET_BLOCK, (export.__name__, transient)
        lines = (tmp_path / "det_csv").read_text().splitlines()
        assert len(lines) == 1 + n + 1 and lines[0] == "p_fa,p_miss"


EDGE_CASES = [
    ([0.0, 1.0, 2.0, 3.0, 1.0], [True, False, True, False, False]),
    ([0.0, 1.0, 2.0, 3.0, 1.0], [False, True, False, True, True]),
    ([1.5] * 5, [True, False, False, True, False]),
    ([0.3, -1.0, 2.0, 0.5, 1.0, 0.3], [False, False, True, False, False, False]),
    ([-0.0, 0.0, 1.0, -1.0, 0.0, -0.0], [True, False, True, False, False, True]),
    ([0.0, -0.0, 0.0, -0.0], [False, True, True, False]),
]
EDGE_IDS = ["lowest_is_target", "lowest_is_nontarget", "all_equal", "single_target",
            "signed_zero_ties", "only_signed_zeros"]


class TestSweepEdgeCases:
    """The whole sweep against the exhaustive oracle on degenerate inputs."""

    @pytest.mark.parametrize("scores,targets", EDGE_CASES, ids=EDGE_IDS)
    def test_matches_exhaustive_oracle(self, scores, targets):
        trials = TrialSet(scores=scores, targets=targets)
        want = oracle_points(scores, targets)
        points = det_points(trials)
        assert points.tolist() == [[fa, miss] for _, fa, miss in want]
        eer, theta = compute_eer(trials)
        want_eer, want_theta = oracle_eer(scores, targets)
        assert eer == pytest.approx(want_eer, rel=1e-12, abs=1e-15)
        assert theta == pytest.approx(want_theta, rel=1e-12, abs=1e-15)
        for params in DCF_PRESETS.values():
            assert compute_min_dcf(trials, params)[0] == oracle_min_dcf(scores, targets, params)

    @pytest.mark.parametrize("scores,targets", EDGE_CASES, ids=EDGE_IDS)
    def test_returned_thresholds_achieve_the_returned_cost(self, scores, targets):
        """Also where rejecting every trial is optimal: its threshold lies
        above the top score, so no trial is accepted at it."""
        trials = TrialSet(scores=scores, targets=targets)
        for params in [*DCF_PRESETS.values(), DcfParams(cost_miss=1.0, cost_fa=9.0, p_target=0.1)]:
            cost, threshold = compute_min_dcf(trials, params)
            p_fa, p_miss = oracle_rates(scores, targets, threshold)
            assert compute_dcf(p_miss, p_fa, params) == cost

    def test_reject_all_threshold_accepts_nothing(self):
        trials = TrialSet(scores=[0.0, 1.0, 2.0, 3.0, 1.0], targets=[True, False, True, False, False])
        for params in DCF_PRESETS.values():
            cost, threshold = compute_min_dcf(trials, params)
            assert cost == 1.0
            assert threshold == np.nextafter(3.0, np.inf)
        # No double lies above the largest one: reject-all is then +inf.
        top = np.finfo(np.float64).max
        trials = TrialSet(scores=[0.0, top, top], targets=[True, False, False])
        with np.errstate(all="raise"):
            assert compute_min_dcf(trials, DCF_PRESETS["sre08"]) == (1.0, np.inf)


# --- EER -------------------------------------------------------------------


class TestEer:
    def test_hand_case_crossing_on_a_point(self):
        # Scores 2,4 target and 1,3 non-target: at threshold 3 exactly one of
        # two targets is missed and one of two non-targets accepted.
        trials = TrialSet(scores=[2.0, 4.0, 1.0, 3.0], targets=[True, True, False, False])
        eer, threshold = compute_eer(trials)
        assert eer == 0.5
        assert threshold == 3.0

    def test_perfect_separation(self):
        trials = TrialSet(
            scores=[10.0, 11.0, 0.0, 1.0], targets=[True, True, False, False]
        )
        eer, threshold = compute_eer(trials)
        assert eer == 0.0
        assert 1.0 < threshold <= 10.0

    def test_all_scores_identical(self):
        trials = TrialSet(scores=[0.0] * 8, targets=[True] * 4 + [False] * 4)
        eer, _ = compute_eer(trials)
        assert eer == 0.5

    def test_reversed_scores_give_complementary_eer(self):
        # A system scoring targets *below* non-targets is as bad as possible.
        trials = TrialSet(
            scores=[0.0, 1.0, 10.0, 11.0], targets=[True, True, False, False]
        )
        eer, _ = compute_eer(trials)
        assert eer == 1.0

    @pytest.mark.parametrize("seed,size,ties", [(0, 40, False), (1, 200, True), (2, 500, True), (3, 77, False)])
    def test_matches_exhaustive_oracle(self, seed, size, ties):
        gen = np.random.default_rng(910 + seed)
        scores, targets = random_trials(gen, size, 1.2, ties=ties)
        got_eer, got_theta = compute_eer(TrialSet(scores=scores, targets=targets))
        want_eer, want_theta = oracle_eer(list(scores), list(targets))
        assert got_eer == pytest.approx(want_eer, rel=1e-12, abs=1e-15)
        assert got_theta == pytest.approx(want_theta, rel=1e-12, abs=1e-15)

    def test_monotone_transform_invariance(self, rng):
        scores, targets = random_trials(rng, 150, 1.0, ties=True)
        base, _ = compute_eer(TrialSet(scores=scores, targets=targets))
        for transform in (lambda s: 3.0 * s + 2.0, np.exp, np.tanh):
            moved, _ = compute_eer(TrialSet(scores=transform(scores), targets=targets))
            assert moved == pytest.approx(base, abs=1e-12)

    def test_threshold_separates_equal_rates(self, rng):
        # At the returned threshold the two error rates bracket the EER.
        scores, targets = random_trials(rng, 400, 1.5, ties=False)
        eer, threshold = compute_eer(TrialSet(scores=scores, targets=targets))
        p_fa, p_miss = oracle_rates(list(scores), list(targets), threshold)
        assert min(p_fa, p_miss) <= eer + 1e-12
        assert max(p_fa, p_miss) >= eer - 1e-12


# --- minimum DCF -----------------------------------------------------------


class TestMinDcf:
    @pytest.mark.parametrize("preset", ["sre08", "sre10"])
    @pytest.mark.parametrize("seed,size,ties", [(0, 60, False), (1, 250, True), (2, 500, True)])
    def test_matches_exhaustive_oracle(self, preset, seed, size, ties):
        gen = np.random.default_rng(920 + seed)
        scores, targets = random_trials(gen, size, 1.0, ties=ties)
        params = DCF_PRESETS[preset]
        got, threshold = compute_min_dcf(TrialSet(scores=scores, targets=targets), params)
        assert got == oracle_min_dcf(list(scores), list(targets), params)
        # The returned threshold must achieve the returned cost.
        p_fa, p_miss = oracle_rates(list(scores), list(targets), threshold)
        assert compute_dcf(p_miss, p_fa, params) == got

    def test_custom_parameters(self, rng):
        scores, targets = random_trials(rng, 200, 0.8, ties=True)
        params = DcfParams(cost_miss=2.0, cost_fa=5.0, p_target=0.3)
        got, _ = compute_min_dcf(TrialSet(scores=scores, targets=targets), params)
        assert got == oracle_min_dcf(list(scores), list(targets), params)

    def test_never_exceeds_one(self, rng):
        # The sweep includes both trivial systems, so normalised cost <= 1.
        for _ in range(5):
            scores, targets = random_trials(rng, 100, 0.0, ties=True)
            got, _ = compute_min_dcf(
                TrialSet(scores=scores, targets=targets), DCF_PRESETS["sre08"]
            )
            assert 0.0 <= got <= 1.0

    def test_uninformative_scores_cost_one(self):
        trials = TrialSet(scores=[0.0] * 10, targets=[True] * 5 + [False] * 5)
        for params in DCF_PRESETS.values():
            got, _ = compute_min_dcf(trials, params)
            assert got == 1.0

    def test_perfect_separation_costs_zero(self):
        trials = TrialSet(
            scores=[5.0, 6.0, -5.0, -6.0], targets=[True, True, False, False]
        )
        got, threshold = compute_min_dcf(trials, DCF_PRESETS["sre08"])
        assert got == 0.0
        assert -5.0 < threshold <= 5.0

    def test_monotone_transform_invariance(self, rng):
        scores, targets = random_trials(rng, 150, 1.0, ties=True)
        params = DCF_PRESETS["sre08"]
        base, _ = compute_min_dcf(TrialSet(scores=scores, targets=targets), params)
        moved, _ = compute_min_dcf(
            TrialSet(scores=2.0 * scores - 7.0, targets=targets), params
        )
        assert moved == base


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), size=st.integers(10, 120))
def test_metric_bounds_property(seed, size):
    gen = np.random.default_rng(seed)
    scores, targets = random_trials(gen, size, 0.7, ties=True)
    trials = TrialSet(scores=scores, targets=targets)
    eer, _ = compute_eer(trials)
    assert 0.0 <= eer <= 1.0
    for params in DCF_PRESETS.values():
        mindcf, _ = compute_min_dcf(trials, params)
        assert 0.0 <= mindcf <= 1.0 + 1e-12
        assert mindcf == oracle_min_dcf(list(scores), list(targets), params)
