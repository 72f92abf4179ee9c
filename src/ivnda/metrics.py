"""Detection metrics: DET curves, equal error rate, minimum detection cost.

Conventions: a trial is *accepted* when its score is greater than or equal
to the threshold.  Sweeping the threshold over the distinct score values
(plus the reject-all end) traces the DET curve from (P_fa = 1, P_miss = 0)
to (0, 1); P_fa is non-increasing and P_miss non-decreasing along it.
The EER is found by linear interpolation between the two operating points
bracketing P_fa = P_miss.  The detection cost is normalised by the best
trivial system, so minDCF is at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, TextIO

import numpy as np

from .errors import EmptyInputError, InsufficientDataError, ShapeError


@dataclass
class DcfParams:
    """Detection cost function parameters."""

    cost_miss: float = 1.0
    cost_fa: float = 1.0
    p_target: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must be in (0, 1)")
        if self.cost_miss <= 0 or self.cost_fa <= 0:
            raise ValueError("costs must be positive")


# Operating points used in published evaluations around 2008/2010.
DCF_PRESETS = {
    "sre08": DcfParams(cost_miss=10.0, cost_fa=1.0, p_target=0.01),
    "sre10": DcfParams(cost_miss=1.0, cost_fa=1.0, p_target=0.001),
}


@dataclass
class TrialSet:
    """Scored trials with boolean target labels."""

    scores: np.ndarray   # (K,)
    targets: np.ndarray  # (K,) True = same-speaker trial

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=bool)
        if self.scores.ndim != 1 or self.scores.shape != self.targets.shape:
            raise ShapeError("scores and targets must be aligned 1-D arrays")
        if self.scores.size == 0:
            raise EmptyInputError("empty trial set")
        if not np.isfinite(self.scores).all():
            raise ShapeError("scores must be finite")
        if not self.targets.any() or self.targets.all():
            raise InsufficientDataError(
                "trial set needs at least one target and one non-target"
            )

    @property
    def num_trials(self) -> int:
        return self.scores.size

    @cached_property
    def _sweep(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The threshold sweep, built once; every metric below reads it."""
        return _operating_points(self)


def _operating_points(trials: TrialSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_fa, P_miss, threshold) at every distinct score plus the end.

    The first point is accept-everything (the lowest score as threshold
    accepts every trial); the last is reject-everything, whose threshold is
    the smallest double above every score (+inf above the largest double).
    Besides the 24 bytes per point of the result, the sweep holds one
    class's sorted scores at a time.
    """
    n_t = int(np.count_nonzero(trials.targets))
    n_n = trials.num_trials - n_t
    theta = np.unique(trials.scores)
    with np.errstate(over="ignore"):
        theta = np.append(theta, np.nextafter(theta[-1], np.inf))
    # Accepted iff score >= threshold; every score lies below the last.
    p_miss = _count_below(trials.scores[trials.targets], theta) / n_t
    false_accepts = _count_below(trials.scores[~trials.targets], theta)
    np.subtract(n_n, false_accepts, out=false_accepts)
    return false_accepts / n_n, p_miss, theta


def _count_below(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many of `scores` lie below each of the sorted `thresholds`;
    `scores` is sorted in place."""
    scores.sort()
    return np.searchsorted(scores, thresholds, side="left")


def det_points(trials: TrialSet) -> np.ndarray:
    """DET curve as an array of (P_fa, P_miss) rows.

    Runs from (1, 0) to (0, 1); P_fa is non-increasing and P_miss
    non-decreasing row to row.
    """
    p_fa, p_miss, _ = trials._sweep
    return np.column_stack([p_fa, p_miss])


def compute_eer(trials: TrialSet) -> tuple[float, float]:
    """(EER, threshold): the rate where P_miss and P_fa cross.

    The crossing rarely falls exactly on an operating point, so both the
    rate and its threshold are linearly interpolated between the two
    bracketing points.
    """
    p_fa, p_miss, theta = trials._sweep
    diff = p_miss - p_fa
    # diff is non-decreasing, from -1 (accept all) to +1 (reject all).
    hi = int(np.searchsorted(diff, 0.0, side="left"))
    if diff[hi] == 0.0:
        return float(p_fa[hi]), float(theta[hi])
    lo = hi - 1
    frac = -diff[lo] / (diff[hi] - diff[lo])
    eer = p_fa[lo] + frac * (p_fa[lo + 1] - p_fa[lo])
    # Interpolating "p_miss at the crossing" instead gives the same value:
    # p_miss - p_fa is zero at the crossing by construction.
    threshold = theta[lo] + frac * (theta[hi] - theta[lo])
    return float(eer), float(threshold)


def compute_dcf(
    p_miss: float | np.ndarray, p_fa: float | np.ndarray, params: DcfParams
) -> float | np.ndarray:
    """Normalised detection cost at one operating point, or elementwise
    over arrays of them."""
    p_miss = np.asarray(p_miss, dtype=np.float64)
    p_fa = np.asarray(p_fa, dtype=np.float64)
    raw = params.cost_miss * p_miss * params.p_target + params.cost_fa * p_fa * (
        1.0 - params.p_target
    )
    best_trivial = min(
        params.cost_miss * params.p_target, params.cost_fa * (1.0 - params.p_target)
    )
    cost = raw / best_trivial
    return float(cost) if cost.ndim == 0 else cost


def compute_min_dcf(trials: TrialSet, params: DcfParams) -> tuple[float, float]:
    """(minDCF, threshold): minimum normalised cost over all thresholds.

    The sweep covers every distinct score plus the reject-all end, i.e. the
    full DET curve; ties go to the lowest threshold.
    """
    p_fa, p_miss, theta = trials._sweep
    costs = compute_dcf(p_miss, p_fa, params)
    best = int(np.argmin(costs))
    return float(costs[best]), float(theta[best])


# DET points formatted per block of an exported curve.
DET_BLOCK = 1 << 15


def _det_blocks(trials: TrialSet) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(P_fa, P_miss) of the DET curve, `DET_BLOCK` points at a time."""
    p_fa, p_miss, _ = trials._sweep
    for lo in range(0, p_fa.size, DET_BLOCK):
        yield p_fa[lo : lo + DET_BLOCK], p_miss[lo : lo + DET_BLOCK]


def det_csv(trials: TrialSet, out: TextIO) -> None:
    """Write the DET curve to `out` as CSV text with a `p_fa,p_miss` header,
    formatting `DET_BLOCK` points at a time."""
    out.write("p_fa,p_miss\n")
    for p_fa, p_miss in _det_blocks(trials):
        cells = np.column_stack([p_fa, p_miss]).ravel().tolist()
        out.write(("%.10g,%.10g\n" * p_fa.size) % tuple(cells))


def det_svg(trials: TrialSet, out: TextIO, size: int = 480) -> None:
    """Write a minimal standalone SVG rendering of the DET curve to `out`,
    formatting `DET_BLOCK` points at a time.

    Both axes show error probability on a log scale clipped to
    [1e-4, 1]; the curve is a single polyline.
    """
    lo, hi = 1e-4, 1.0
    margin = 48
    span = size - 2 * margin

    def fraction(p: float | np.ndarray) -> np.ndarray:
        """Position of a probability along an axis, from 0 to 1."""
        return (np.log10(np.maximum(p, lo)) - np.log10(lo)) / (np.log10(hi) - np.log10(lo))

    grid_lines = []
    for decade in (1e-3, 1e-2, 1e-1, 1.0):
        x, y = margin + fraction(decade) * span, size - margin - fraction(decade) * span
        grid_lines.append(
            f'<line x1="{x:.2f}" y1="{margin}" x2="{x:.2f}" y2="{size - margin}" '
            f'stroke="#ddd"/>'
        )
        grid_lines.append(
            f'<line x1="{margin}" y1="{y:.2f}" x2="{size - margin}" y2="{y:.2f}" '
            f'stroke="#ddd"/>'
        )
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n'
        + "\n".join(grid_lines)
        + '\n<polyline points="'
    )
    separator = ""
    for p_fa, p_miss in _det_blocks(trials):
        x = margin + fraction(p_fa) * span
        y = size - margin - fraction(p_miss) * span
        cells = np.column_stack([x, y]).ravel().tolist()
        out.write(separator + " ".join(["%.2f,%.2f"] * p_fa.size) % tuple(cells))
        separator = " "
    out.write(
        '" fill="none" stroke="#336" stroke-width="1.5"/>\n'
        f'<text x="{size // 2}" y="{size - 12}" text-anchor="middle" '
        f'font-size="12">false alarm probability</text>\n'
        f'<text x="14" y="{size // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {size // 2})">miss probability</text>\n'
        f"</svg>\n"
    )
