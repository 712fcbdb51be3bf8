"""Rate-distortion baseline for memoryless sources under Hamming distortion.

The distortion-rate value D(R) is found by a bisection on the slope of the
curve to hit the requested rate. At each slope the Blahut-Arimoto fixed point
has a closed form (Erokhin 1958): with the source sorted in descending order,
the reproduction is supported on its k most likely symbols, and the rate and
distortion follow from two prefix sums. A closed form for equiprobable
sources serves as an independent check. D(R) is only a float lower bound on
the exact D(G), so it runs at one fixed precision: the module constants below.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    ConvergenceError,
    RateOutOfRangeError,
    SourceError,
)

_LN2 = math.log(2.0)
_TOL = 1e-9  # bound on the returned point's rate error, in bits
_RATE_MATCH = 1e-12  # bisection stops once the rate is this close, in bits
_BOUND_SLACK = 1e-9  # how far D(G) may fall below D(R) before it is a violation


class RDPoint(NamedTuple):
    rate: float  # bits per symbol
    distortion: float
    tolerance: float  # bound on this point's rate error, in bits
    slope: float  # the slope parameter that produced the point


def source_entropy(probs: Sequence[float]) -> float:
    """Entropy in bits; zero-probability symbols contribute nothing."""
    return 0.0 - math.fsum(p * math.log2(p) for p in probs if p > 0)  # not -0.0


def _clean_probs(probs: Sequence[float]) -> np.ndarray:
    p = np.asarray([float(x) for x in probs], dtype=float)
    if p.size == 0:
        raise SourceError("empty probability vector")
    if not np.isfinite(p).all():
        raise SourceError("non-finite probability")
    if (p < 0).any():
        raise SourceError("negative probability")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise SourceError(f"probabilities sum to {total}, not 1")
    return p / total


def _prefix_sums(x: np.ndarray) -> list[float]:
    """Running sums of x, each within about one rounding of its exact value.

    np.cumsum adds in order, so each step's rounding error is recovered
    exactly (Knuth's TwoSum) and the errors are summed back in. The rate at
    full support then meets source_entropy's H to about 1e-15 bits, inside
    the 1e-12 bits by which blahut's targets stay below H; a plain cumsum
    misses by 2e-11 bits on the uniform 65,536-symbol source.
    """
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    z = s - prev
    return (s + np.cumsum((prev - (s - z)) + (x - z))).tolist()


class _SortedSource(NamedTuple):
    """Prefix sums over the k largest symbols of a source, k = 1..m: their
    mass P_k, their sum E_k of p ln p, and the slope ln t_k above which the
    k-th largest symbol is in the support."""

    mass: list[float]
    plogp: list[float]
    log_entry: list[float]


def _sort_source(p: np.ndarray) -> _SortedSource:
    """Sort once per curve, so that each slope costs a binary search.

    With p sorted in descending order and a = e^-lam, symbol k is in the
    support iff p_k (1 + a(k-1)) > a P_k, that is iff a t_k < 1 with
    t_k = 1 + s_k / p_k and s_k = sum_{i<k} (p_i - p_k). From one k to the
    next s grows by k (p_k - p_(k+1)) >= 0, so t_k is nondecreasing in
    floating point too, and the support is always a prefix.
    """
    p = np.sort(p)[::-1]
    s = np.concatenate(([0.0], np.cumsum(np.arange(1, p.size) * -np.diff(p))))
    with np.errstate(over="ignore"):  # a subnormal p_k enters at lam = inf
        log_entry = np.log1p(s / p)
    return _SortedSource(_prefix_sums(p), _prefix_sums(p * np.log(p)), log_entry.tolist())


def _slope_point(src: _SortedSource, lam: float) -> tuple[float, float]:
    """(rate bits, distortion) on the Hamming rate-distortion curve at one
    slope lam > 0: the exact Blahut-Arimoto fixed point.

    With a = e^-lam and support size k, the fixed point has
    mu = P_k / (1 + a(k-1)) = p_j / (a + (1-a) q_j) for each j in the
    support, so D = 1 - mu and R = -lam mu a (k-1) - E_k + P_k ln mu nats.
    """
    k = bisect_left(src.log_entry, lam)  # entries below lam: the support size
    a = math.exp(-lam)
    mass = src.mass[k - 1]
    mu = mass / (1.0 + a * (k - 1))
    rate_nats = -lam * mu * a * (k - 1) - src.plogp[k - 1] + mass * math.log(mu)
    return max(rate_nats / _LN2, 0.0), 1.0 - mu


def blahut(probs: Sequence[float], target_rate: float) -> RDPoint:
    """Distortion-rate point D(target_rate) for a memoryless source.

    Valid rates lie in [0, H]; the endpoints are returned in closed form
    (D(0) = 1 - max p, D(H) = 0), interior rates by slope bisection.
    """
    p_full = _clean_probs(probs)
    p = p_full[p_full > 0]
    h = source_entropy(p)
    if not -1e-12 <= target_rate <= h + 1e-9:  # NaN fails too
        raise RateOutOfRangeError(
            f"rate {target_rate} outside [0, {h}] for this source"
        )
    if target_rate <= 1e-12:
        return RDPoint(rate=0.0, distortion=1.0 - float(p.max()), tolerance=_TOL, slope=0.0)
    if target_rate >= h - 1e-12:
        return RDPoint(rate=h, distortion=0.0, tolerance=_TOL, slope=math.inf)

    src = _sort_source(p)
    lo, hi = 1.0, 1.0
    r_lo, _ = _slope_point(src, lo)
    while r_lo > target_rate:
        lo /= 2.0
        if lo < 1e-12:
            raise ConvergenceError("failed to bracket the slope from below")
        r_lo, _ = _slope_point(src, lo)
    r_hi, _ = _slope_point(src, hi)
    while r_hi < target_rate:
        hi *= 2.0
        if hi > 1e6:
            raise ConvergenceError("failed to bracket the slope from above")
        r_hi, _ = _slope_point(src, hi)

    mid = (lo + hi) / 2.0
    r_mid, d_mid = _slope_point(src, mid)
    for _ in range(200):
        if abs(r_mid - target_rate) <= _RATE_MATCH:
            break
        if r_mid < target_rate:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2.0
        r_mid, d_mid = _slope_point(src, mid)
    return RDPoint(rate=r_mid, distortion=d_mid, tolerance=_TOL, slope=mid)


def _binary_entropy(d: float) -> float:
    if d <= 0.0 or d >= 1.0:
        return 0.0
    return -d * math.log2(d) - (1.0 - d) * math.log2(1.0 - d)


def hamming_rd_closed_form(m: int, rate: float) -> float:
    """D(rate) of the equiprobable m-ary source: invert
    R = log2(m) - H2(D) - D*log2(m-1) on [0, (m-1)/m] by bisection.
    """
    if m < 2:
        raise SourceError("need at least two symbols")
    h = math.log2(m)
    if not -1e-12 <= rate <= h + 1e-9:  # NaN fails too
        raise RateOutOfRangeError(f"rate {rate} outside [0, {h}]")
    if rate >= h - 1e-12:
        return 0.0
    dmax = (m - 1) / m
    # the curve is flat (dR/dD = 0) at D = dmax, so bisection cannot pin the
    # R = 0 endpoint accurately; return it exactly
    if rate <= 1e-12:
        return dmax

    def f(d: float) -> float:
        return h - _binary_entropy(d) - d * math.log2(m - 1) - rate

    lo, hi = 0.0, dmax
    while hi - lo > 1e-14:
        mid = (lo + hi) / 2.0
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class GapReport:
    graph_distortion: float
    rd_distortion: float
    gap: float


def gap_report(analysis, rdp: RDPoint) -> GapReport:
    """Excess of the graph's distortion over the source's D(R) at equal rate.

    ``analysis`` may be an analysis report (its ``distortion`` is used) or a
    bare number. The informational value is a converse bound, so a negative
    gap beyond the numerical slack is impossible and raises.
    """
    dg = float(getattr(analysis, "distortion", analysis))
    gap = dg - rdp.distortion
    if gap < -_BOUND_SLACK:
        raise BoundViolationError(
            f"graph distortion {dg} fell below the rate-distortion value"
            f" {rdp.distortion} by more than {_BOUND_SLACK}"
        )
    return GapReport(graph_distortion=dg, rd_distortion=rdp.distortion, gap=gap)
