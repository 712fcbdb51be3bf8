from __future__ import annotations

import math
from fractions import Fraction

import pytest

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
