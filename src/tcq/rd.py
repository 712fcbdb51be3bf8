"""Rate-distortion baseline for memoryless sources under Hamming distortion.

The distortion-rate value D(R) is computed by an alternating-minimization
inner loop at fixed slope with a certified stopping bound, wrapped in a
bisection on the slope to hit the requested rate. A closed form for
equiprobable sources serves as an independent check. D(R) is only a float
lower bound on the exact D(G), so it runs at one fixed precision: the module
constants below.
"""

from __future__ import annotations

import math
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
_TOL = 1e-9  # certified rate gap of the inner loop, in bits
_MAX_ITER = 200_000  # inner-loop iterations before ConvergenceError
_RATE_MATCH = 1e-12  # bisection stops once the rate is this close, in bits
_BOUND_SLACK = 1e-9  # how far D(G) may fall below D(R) before it is a violation


class RDPoint(NamedTuple):
    rate: float  # bits per symbol
    distortion: float
    tolerance: float  # certified rate gap of the inner loop, in bits
    slope: float  # the slope parameter that produced the point


def source_entropy(probs: Sequence[float]) -> float:
    """Entropy in bits; zero-probability symbols contribute nothing."""
    return float(-sum(p * math.log2(p) for p in probs if p > 0))


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


def _slope_point(p: np.ndarray, lam: float) -> tuple[float, float]:
    """(rate bits, distortion) on the Hamming rate-distortion curve at one slope.

    Iterates the reproduction distribution until the certified rate gap
    ln(max_k c_k) drops below _TOL*ln(2), so the returned rate is within
    _TOL bits of the true curve value at this slope.
    """
    m = p.size
    a = math.exp(-lam)
    q = np.full(m, 1.0 / m)
    for _ in range(_MAX_ITER):
        denom = a * q.sum() + (1.0 - a) * q
        ratio = p / denom
        c = a * ratio.sum() + (1.0 - a) * ratio
        q = q * c
        q /= q.sum()
        if math.log(float(c.max())) <= _TOL * _LN2:
            denom = a * q.sum() + (1.0 - a) * q
            d = 1.0 - float((p * q / denom).sum())
            rate_nats = -lam * d - float((p * np.log(denom)).sum())
            return max(rate_nats / _LN2, 0.0), d
    raise ConvergenceError(
        f"no convergence to gap {_TOL} bits within {_MAX_ITER} iterations"
    )


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

    lo, hi = 1.0, 1.0
    r_lo, _ = _slope_point(p, lo)
    while r_lo > target_rate:
        lo /= 2.0
        if lo < 1e-12:
            raise ConvergenceError("failed to bracket the slope from below")
        r_lo, _ = _slope_point(p, lo)
    r_hi, _ = _slope_point(p, hi)
    while r_hi < target_rate:
        hi *= 2.0
        if hi > 1e6:
            raise ConvergenceError("failed to bracket the slope from above")
        r_hi, _ = _slope_point(p, hi)

    mid = (lo + hi) / 2.0
    r_mid, d_mid = _slope_point(p, mid)
    for _ in range(200):
        if abs(r_mid - target_rate) <= _RATE_MATCH:
            break
        if r_mid < target_rate:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2.0
        r_mid, d_mid = _slope_point(p, mid)
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
