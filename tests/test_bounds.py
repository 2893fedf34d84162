from fractions import Fraction
from math import comb

import pytest

from frameproof_lab.bounds import (
    _prime_power_floor,
    code_bounds,
    hypergraph_bounds,
)
from frameproof_lab.core import ParameterError


def by_source(report, source):
    hits = [e for e in report.entries if e.source == source]
    assert len(hits) == 1, f"expected one {source!r} entry"
    return hits[0]


def test_prime_power_floor():
    assert _prime_power_floor(5) == 5
    assert _prime_power_floor(12) == 3  # 12 = 2^2 * 3, min(4, 3) = 3
    assert _prime_power_floor(72) == 8  # 72 = 8 * 9
    with pytest.raises(ParameterError):
        _prime_power_floor(1)


def test_hypergraph_bounds_fano_instance():
    r = hypergraph_bounds(7, 3, 4, 2, 0, packing_size=7, design_available=True)
    upper = by_source(r, "own-subset counting")
    assert upper.applicable and upper.value == Fraction(21, 3) == 7
    exact = by_source(r, "design exactness")
    assert exact.applicable and exact.value == 7
    assert r.exact_value() == 7
    lower = by_source(r, "packing construction")
    assert lower.value == 7


def test_hypergraph_bounds_s239_instance():
    r = hypergraph_bounds(9, 3, 4, 2, 0, design_available=True)
    assert by_source(r, "own-subset counting").value == Fraction(comb(9, 2), 3) == 12
    assert r.exact_value() == 12


def test_hypergraph_bounds_threshold_gate():
    r = hypergraph_bounds(5, 3, 4, 2, 0)
    upper = by_source(r, "own-subset counting")
    assert not upper.applicable  # n0 = 7 > 5
    assert any("n0" in h.text and not h.ok for h in upper.hypotheses)
    assert r.exact_value() is None


def test_hypergraph_bounds_critical_entry():
    r = hypergraph_bounds(7, 3, 4, 2, 0)
    crit = by_source(r, "critical own-subset counting (factor s0)")
    assert crit.quantity.startswith("g_")
    assert crit.value == Fraction(2 * comb(7, 2), 3) == 14
    # threshold n >= 3*(2+4)/2 + 1 = 10 > 7: flagged inapplicable
    assert not crit.applicable


def test_code_bounds_rs_instance():
    r = code_bounds(5, 2, 1, 5, 0)
    small = by_source(r, "small-alphabet pigeonhole")
    assert small.applicable and small.value == 125
    exact = by_source(r, "distance-code exactness")
    assert exact.applicable and exact.value == 125
    assert r.exact_value() == 125
    crit = by_source(r, "critical own-subsequence counting (factor s0)")
    assert crit.value == 125
    flags = {h.text: h.ok for h in crit.hypotheses}
    assert flags["s0 * q^t >= c+1 = 3"] is True
    assert any(not ok for ok in flags.values())  # the q-threshold fails at q=5


def test_code_bounds_inapplicable_exactness():
    r = code_bounds(3, 2, 1, 3, 0)
    small = by_source(r, "small-alphabet pigeonhole")
    assert small.applicable and small.value == 9
    exact = by_source(r, "distance-code exactness")
    assert not exact.applicable  # n = 3 < 2c/(c-s) = 4
    assert any(h.text.startswith("n >= max") and not h.ok for h in exact.hypotheses)


def test_code_bounds_pigeonhole_below_counting_bound():
    # with m = 0 both upper bounds evaluate to q^t: neither exceeds the other
    for n, c, s, q in [(5, 2, 1, 5), (4, 3, 1, 7), (7, 3, 2, 8)]:
        r = code_bounds(n, c, s, q, 0)
        counting = by_source(r, "own-subsequence counting")
        small = by_source(r, "small-alphabet pigeonhole")
        assert small.value <= counting.value


def test_code_bounds_errors():
    with pytest.raises(ParameterError):
        code_bounds(5, 2, 1, 1, 0)
    with pytest.raises(ParameterError):
        code_bounds(1, 2, 1, 5, 0)


def test_hypergraph_bounds_packing_size_range():
    # a strength-2 packing of triples on 9 points has at most C(9,2)//C(3,2) = 12 blocks
    for size in (0, 12):
        r = hypergraph_bounds(9, 3, 2, 1, 1, packing_size=size)
        assert by_source(r, "packing construction").value == size
    for size in (13, -4):
        with pytest.raises(ParameterError, match="packing size"):
            hypergraph_bounds(9, 3, 2, 1, 1, packing_size=size)
    with pytest.raises(ParameterError, match="packing size 8"):
        hypergraph_bounds(7, 3, 4, 2, 0, packing_size=8, design_available=True)


def test_all_values_exact_types():
    r = hypergraph_bounds(9, 3, 4, 2, 0, packing_size=12, design_available=True)
    for e in r.entries:
        assert isinstance(e.value, (int, Fraction))
    doc = r.to_json()
    assert all(isinstance(e["value"], (int, str)) for e in doc["entries"])


def test_limit_ratio_trend_toward_counting_constant():
    # fixed (k,c,s) = (3,4,2): t = 2, m = 0, limit constant 1/C(3,2) = 1/3.
    # Every construction stays below the constant, and on the design-admitting
    # grid points the ratio climbs to it exactly.
    from pathlib import Path

    from frameproof_lab.constructions import greedy_packing, load_design

    constant = Fraction(1, 3)
    for n in range(6, 14):
        size = len(greedy_packing(n, 3, 2).family)
        assert Fraction(size, comb(n, 2)) <= constant
    data = Path(__file__).parent / "data"
    grid = [
        (6, len(greedy_packing(6, 3, 2).family)),
        (7, len(load_design(data / "fano.txt").family)),
        (9, len(load_design(data / "s239.txt").family)),
    ]
    ratios = [Fraction(size, comb(n, 2)) for n, size in grid]
    assert ratios == sorted(ratios)  # non-decreasing across the tested grid
    assert ratios[-1] == constant  # and the constant is reached


def test_construction_sizes_below_applicable_uppers():
    # faithful greedy families never exceed an applicable upper bound; when a
    # construction meets the bound the report pins the exact value
    from frameproof_lab.constructions import faithful_code_family
    from frameproof_lab.core import DisjointnessParams, lambda_of
    from frameproof_lab.matching import MatchingInstance, matching_number_exact

    for n, c, s, q in [(4, 2, 1, 4), (3, 2, 1, 3), (4, 3, 1, 3)]:
        lam, t = lambda_of(c, s, n)
        m = matching_number_exact(
            MatchingInstance(n, t, DisjointnessParams(lam, s + 1, c - s + 1))
        ).value
        built = len(faithful_code_family(n, c, s, q))
        report = code_bounds(n, c, s, q, m)
        for entry in report.applicable("upper"):
            if entry.quantity == report.quantity:
                assert built <= entry.value, (n, c, s, q, entry.source)
