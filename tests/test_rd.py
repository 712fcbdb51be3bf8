from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import tcq.rd
from oracles import blahut_arimoto_point
from tcq import (
    BoundViolationError,
    RateOutOfRangeError,
    SourceError,
    analyze,
    blahut,
    gap_report,
    hamming_rd_closed_form,
    rate_of,
    source_entropy,
)


def test_source_entropy():
    assert source_entropy([0.25] * 4) == 2.0
    assert source_entropy([0.5, 0.5, 0.0]) == 1.0
    assert source_entropy([1.0]) == 0.0
    assert math.copysign(1.0, source_entropy([1.0])) == 1.0  # not -0.0


def test_single_symbol_refusal_names_zero_entropy():
    with pytest.raises(RateOutOfRangeError, match=r"^rate 0\.5 outside \[0, 0\.0\] for this source$"):
        blahut([1.0], 0.5)


@pytest.mark.parametrize("m", range(2, 9))
def test_blahut_matches_closed_form_on_grid(m):
    h = math.log2(m)
    for i in range(1, 10):
        rate = h * i / 10
        got = blahut([1.0 / m] * m, rate).distortion
        want = hamming_rd_closed_form(m, rate)
        assert abs(got - want) <= 1e-6, (m, rate)


def test_blahut_hits_target_rate():
    for rate in (0.25, 0.5, 1.0, 1.5):
        point = blahut([0.25] * 4, rate)
        assert abs(point.rate - rate) <= 1e-9


def test_blahut_monotone_in_rate():
    grid = [i / 10 for i in range(0, 21)]
    values = [blahut([0.25] * 4, r).distortion for r in grid]
    for lo, hi in zip(values, values[1:]):
        assert hi <= lo + 1e-12


def test_blahut_endpoints():
    p0 = blahut([0.5, 0.25, 0.25], 0.0)
    assert p0.rate == 0.0 and p0.distortion == 0.5
    h = source_entropy([0.5, 0.25, 0.25])
    ph = blahut([0.5, 0.25, 0.25], h)
    assert ph.distortion == 0.0 and ph.rate == h


def test_blahut_zero_probability_symbols_are_dropped():
    a = blahut([0.5, 0.5, 0.0], 0.5)
    b = blahut([0.5, 0.5], 0.5)
    assert abs(a.distortion - b.distortion) <= 1e-9
    assert abs(a.rate - b.rate) <= 1e-9


def test_blahut_input_validation():
    with pytest.raises(RateOutOfRangeError):
        blahut([0.25] * 4, 2.5)
    with pytest.raises(RateOutOfRangeError):
        blahut([0.25] * 4, -0.5)
    with pytest.raises(RateOutOfRangeError, match="rate nan outside"):
        blahut([0.25] * 4, math.nan)
    with pytest.raises(SourceError, match="negative"):
        blahut([0.5, 0.6, -0.1], 1.0)
    with pytest.raises(SourceError, match="sum"):
        blahut([0.5, 0.4], 0.5)
    with pytest.raises(SourceError, match="empty"):
        blahut([], 0.5)
    with pytest.raises(SourceError, match="non-finite"):
        blahut([math.nan, 1.0], 0.0)
    with pytest.raises(SourceError, match="non-finite"):
        blahut([0.5, 0.5, math.nan], 0.5)


def test_blahut_records_tolerance():
    point = blahut([0.25] * 4, 1.0)
    assert point.tolerance == 1e-9
    assert point.slope > 0


def test_closed_form_known_values():
    assert abs(hamming_rd_closed_form(4, 1.0) - 0.1893) <= 1e-3
    assert hamming_rd_closed_form(4, 2.0) == 0.0
    assert abs(hamming_rd_closed_form(2, 0.0) - 0.5) <= 1e-12
    # at rate 0 the best constant guess fails with probability (m-1)/m
    assert abs(hamming_rd_closed_form(5, 0.0) - 0.8) <= 1e-12


def test_closed_form_validation():
    with pytest.raises(RateOutOfRangeError):
        hamming_rd_closed_form(4, 2.5)
    with pytest.raises(RateOutOfRangeError, match="rate nan outside"):
        hamming_rd_closed_form(4, math.nan)
    with pytest.raises(SourceError):
        hamming_rd_closed_form(1, 0.5)


def test_precision_is_fixed(debruijn8):
    # D(R) is a float bound on the exact D(G): its precision is not an option
    for call, keyword in [
        (lambda **kw: analyze(debruijn8, with_rd=True, **kw), "rd_tol"),
        (lambda **kw: blahut([0.25] * 4, 1.0, **kw), "tol"),
        (lambda **kw: blahut([0.25] * 4, 1.0, **kw), "max_iter"),
        (lambda **kw: blahut([0.25] * 4, 1.0, **kw), "rate_match"),
        (lambda **kw: gap_report(0.3, blahut([0.25] * 4, 1.0), **kw), "slack"),
    ]:
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: 1e-9})


def test_closed_form_is_inverse_of_rate_formula():
    for m in (2, 3, 4, 6):
        for i in range(1, 10):
            rate = math.log2(m) * i / 10
            d = hamming_rd_closed_form(m, rate)
            h2 = -d * math.log2(d) - (1 - d) * math.log2(1 - d)
            back = math.log2(m) - h2 - d * math.log2(m - 1)
            assert abs(back - rate) <= 1e-9


def test_gap_report(debruijn8):
    point = blahut([0.25] * 4, 1.0)
    report = gap_report(Fraction(452, 1809), point)  # raises if D(G) < D(R)
    assert abs(report.gap - (452 / 1809 - point.distortion)) <= 1e-15
    assert report.gap > 0.06
    # also accepts a full analysis report
    assert gap_report(analyze(debruijn8), point).gap == report.gap


def test_gap_report_detects_violation():
    point = blahut([0.25] * 4, 1.0)
    with pytest.raises(BoundViolationError):
        gap_report(0.1, point)


def test_rate_report(debruijn8):
    rr = rate_of(debruijn8)
    assert (rr.out_degree, rr.rate) == (2, 1)


def _random_sources(seed: int, count: int):
    """Seeded sources of 2 to 8 symbols; every third has a zero symbol."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m = int(rng.integers(2, 9))
        p = rng.random(m)
        if i % 3 == 0:
            p[rng.integers(0, m)] = 0.0
        yield p / p.sum()


def test_slope_point_matches_blahut_arimoto_oracle():
    partial = 0
    for p in _random_sources(2024, 24):
        src = tcq.rd._sort_source(p[p > 0])
        for lam in (1.0, 2.0, 4.0):
            # the oracle iterates over the full vector, zero symbols included
            r_want, d_want = blahut_arimoto_point(p, lam)
            r_got, d_got = tcq.rd._slope_point(src, lam)
            # the oracle certifies R + lam D / ln 2 to 1e-9 bits, R and D looser
            assert abs(r_got - r_want + lam * (d_got - d_want) / math.log(2)) <= 1e-9
            assert abs(r_got - r_want) <= 1e-6 and abs(d_got - d_want) <= 1e-6
            # symbol j is left out when p_j <= a mu, with mu = 1 - D
            partial += bool(((p > 0) & (p <= math.exp(-lam) * (1.0 - d_got))).any())
    assert partial >= 20  # many points leave symbols out of the support


def _erokhin_rate(p: np.ndarray, d: float) -> float:
    """R(D) = H - h(D) - D log2(m-1) bits, valid for D <= (m-1) p_min."""
    m = p.size
    h2 = -d * math.log2(d) - (1 - d) * math.log2(1 - d)
    return source_entropy(p) - h2 - d * math.log2(m - 1)


def test_blahut_matches_erokhin_on_full_support():
    for p in _random_sources(58, 12):
        p = p[p > 0]
        if p.size < 2:
            continue
        d_full = (p.size - 1) * float(p.min())
        for frac in (0.05, 0.3, 0.6, 0.9, 1.0):
            d = frac * d_full
            point = blahut(p, _erokhin_rate(p, d))
            assert abs(point.distortion - d) <= 1e-9, (p, d)


def test_rate_and_distortion_are_continuous_at_each_support_breakpoint():
    for p in _random_sources(11, 12):
        p = np.sort(p[p > 0])[::-1]
        src = tcq.rd._sort_source(p)
        for k in range(2, p.size + 1):
            # symbol k enters the support once p_k (1 + a(k-1)) > a P_k
            lam = math.log(float(p[: k - 1].sum() - (k - 2) * p[k - 1]) / float(p[k - 1]))
            below = tcq.rd._slope_point(src, lam - 1e-9)
            above = tcq.rd._slope_point(src, lam + 1e-9)
            assert abs(below[0] - above[0]) <= 1e-8 and abs(below[1] - above[1]) <= 1e-8
            # the support, {j : p_j > a mu} with mu = 1 - D, gains symbol k here
            for (_, d), at, size in ((below, lam - 1e-9, k - 1), (above, lam + 1e-9, k)):
                assert int((p > math.exp(-at) * (1.0 - d)).sum()) == size


def test_non_uniform_point_is_pinned():
    point = blahut([0.4, 0.3, 0.2, 0.1], 0.5)
    assert abs(point.distortion - 0.29633319912367784) <= 1e-9
    assert abs(point.rate - 0.5) <= 1e-9


def test_large_alphabet_matches_closed_form_and_sorts_once(monkeypatch):
    m = 65536
    calls = []
    sort_source = tcq.rd._sort_source
    monkeypatch.setattr(tcq.rd, "_sort_source", lambda p: calls.append(p.size) or sort_source(p))
    point = blahut([1.0 / m] * m, 8.0)
    assert abs(point.distortion - hamming_rd_closed_form(m, 8.0)) <= 1e-9
    assert calls == [m]  # one sort per curve; each slope is a binary search


@pytest.mark.parametrize("m", [3, 1000, 65536])
def test_bisection_reaches_both_ends_of_the_curve(m):
    # the prefix sums must meet source_entropy to well under the 1e-12 bits
    # between the endpoint cut-offs and the bisection's targets
    rng = np.random.default_rng(m)
    for p in (np.full(m, 1.0 / m), rng.random(m)):
        p = p / p.sum()
        h = source_entropy(p)
        top = blahut(p, h - 2e-12)
        assert abs(top.rate - (h - 2e-12)) <= 1e-12 and 0.0 < top.distortion <= 1e-12
        bottom = blahut(p, 2e-12)
        assert abs(bottom.rate - 2e-12) <= 1e-12 and bottom.distortion < 1.0 - p.max()
