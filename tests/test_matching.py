import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

import frameproof_lab
from frameproof_lab import _kernels, matching
from frameproof_lab.core import (
    DisjointnessParams,
    GuardError,
    ParameterError,
    SubsetFamily,
    enumerate_subsets,
    is_disjoint_collection,
    lambda_of,
    points_from_mask,
)
from frameproof_lab.matching import (
    MatchingInstance,
    _max_avoiding,
    _minimal_supports,
    _pierced_stars,
    _qualifying_supports,
    _registered_supports,
    cyclic_partition_plan,
    find_violating_collection,
    interval_mask,
    matching_closed_bounds,
    matching_number_brute,
    matching_number_exact,
    star_family,
)


def inst(n, t, lam, k1, k2):
    return MatchingInstance(n, t, DisjointnessParams(lam, k1, k2))


def test_find_violating_examples():
    all_pairs = SubsetFamily(4, tuple(enumerate_subsets(4, 2)), 2)
    hit = find_violating_collection(all_pairs, DisjointnessParams(2, 2, 2))
    assert hit is not None
    masks = [all_pairs.sets[i] for i in hit]
    assert masks[0] | masks[1] == 0b1111 and masks[0] & masks[1] == 0

    star = SubsetFamily.from_iterables(4, [[1, 2], [1, 3], [1, 4]], 2)
    assert find_violating_collection(star, DisjointnessParams(2, 2, 2)) is None

    fam = SubsetFamily.from_iterables(4, [[1, 2], [3, 4], [1, 3]], 2)
    p34 = DisjointnessParams(3, 3, 4)
    hit = find_violating_collection(fam, p34)
    assert hit is not None
    assert is_disjoint_collection([fam.sets[i] for i in hit], 4, p34)
    # in particular the three distinct members themselves qualify
    assert is_disjoint_collection(list(fam.sets), 4, p34)


def test_find_violating_must_include():
    fam = SubsetFamily.from_iterables(4, [[1, 2], [1, 3], [3, 4]], 2)
    p = DisjointnessParams(2, 2, 2)
    assert find_violating_collection(fam, p, must_include=1) is None
    hit = find_violating_collection(fam, p, must_include=2)
    assert hit is not None and 2 in hit
    with pytest.raises(ParameterError):
        find_violating_collection(fam, p, must_include=7)


def _ref_find_violating(masks, n, params, must_include=None):
    # the lex-least non-decreasing index multiset, from the collection
    # predicate itself; must_include takes one of the lam places
    extra = () if must_include is None else (must_include,)
    for combo in combinations_with_replacement(range(len(masks)), params.lam - len(extra)):
        if is_disjoint_collection([masks[i] for i in combo + extra], n, params):
            return tuple(sorted(combo + extra))
    return None


def test_find_violating_is_the_least_qualifying_multiset():
    rng = random.Random(3000)
    hits = 0
    for _ in range(1500):
        n = rng.randint(1, 7)
        t = rng.randint(1, n)
        candidates = enumerate_subsets(n, t)
        members = rng.sample(candidates, rng.randint(1, min(len(candidates), 9)))
        family = SubsetFamily(n, tuple(sorted(members)), t)
        k1, k2 = (rng.choice([None, rng.randint(1, 5)]) for _ in range(2))
        params = DisjointnessParams(rng.randint(1, 4), k1, k2)
        must = rng.choice([None, rng.randrange(len(family))])
        found = find_violating_collection(family, params, must_include=must)
        assert found == _ref_find_violating(family.sets, n, params, must), (family, params, must)
        hits += found is not None
    assert 300 < hits < 1200


def test_matching_exact_known_values():
    assert matching_number_exact(inst(4, 2, 2, 2, 2)).value == 3
    assert matching_number_exact(inst(4, 2, 1, 2, 2)).value == 0
    assert matching_number_exact(inst(4, 2, 4, 2, 2)).value == 6
    assert matching_number_exact(inst(6, 2, 2, 2, 3)).value == 5
    assert matching_number_exact(inst(6, 3, 2, 2, 2)).value == 10


def test_matching_certificates_validate():
    for args in [(4, 2, 2, 2, 2), (6, 2, 2, 2, 3), (6, 3, 2, 2, 2), (6, 4, 2, 3, 2)]:
        cert = matching_number_exact(inst(*args))
        assert cert.status == "exact"
        assert len(cert.family) == cert.value
        assert find_violating_collection(cert.family, inst(*args).params) is None


def test_matching_single_sided_modes():
    # classic intersecting-family specialization: no two disjoint pairs
    assert matching_number_exact(inst(6, 2, 2, 2, None)).value == 5
    assert matching_number_exact(inst(5, 2, 2, 2, None)).value == 4
    # covering-only mode
    cert = matching_number_exact(inst(4, 2, 2, None, 2))
    value, _ = matching_number_brute(inst(4, 2, 2, None, 2))
    assert cert.value == value


def test_matching_budget_lower_only():
    # the m-table cell (c,s,k) = (4,1,7), m = 11, where the sandwich stays open
    cert = matching_number_exact(inst(7, 2, 3, 2, 4), budget=3)
    assert cert.status == "lower-only"
    assert cert.value <= 11
    assert find_violating_collection(cert.family, DisjointnessParams(3, 2, 4)) is None


def test_lower_only_explored_equals_budget():
    # the node refused at the limit is not counted
    for budget in (0, 1, 3, 2500):
        cert = matching_number_exact(inst(7, 2, 3, 2, 4), budget=budget)
        assert cert.status == "lower-only"
        assert cert.explored == budget
    assert matching_number_exact(inst(7, 2, 3, 2, 4), budget=0).value == 0


def test_negative_budget_rejected():
    with pytest.raises(ParameterError):
        matching_number_exact(inst(4, 2, 2, 2, 2), budget=-1)
    # also on the short-circuit paths
    with pytest.raises(ParameterError):
        matching_number_exact(inst(4, 2, 1, 2, 2), budget=-3)


def test_matching_subset_cap():
    with pytest.raises(ParameterError):
        matching_number_exact(inst(20, 10, 2, 2, 2))


def test_brute_equivalence_tiny():
    rng = random.Random(2718)
    cases = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        t = rng.randint(1, n)
        if comb(n, t) > 20:
            continue
        lam = rng.randint(1, 4)
        k1 = rng.choice([None, rng.randint(1, 4)])
        k2 = rng.choice([None, rng.randint(1, 4)])
        instance = inst(n, t, lam, k1, k2)
        brute_value, brute_family = matching_number_brute(instance)
        cert = matching_number_exact(instance)
        assert cert.value == brute_value, (n, t, lam, k1, k2)
        assert find_violating_collection(brute_family, instance.params) is None
        cases += 1
    assert cases >= 25


def test_closed_bounds_pinning_examples():
    r = matching_closed_bounds(6, 2, 2, 1, 2)
    uppers = [e.value for e in r.applicable("upper")]
    lowers = [e.value for e in r.applicable("lower")]
    assert min(uppers) == 5 and max(lowers) == 5
    assert r.exact_value() == 5

    r2 = matching_closed_bounds(6, 3, 2, 1, 1)
    assert r2.exact_value() == 10

    r3 = matching_closed_bounds(6, 2, 4, 1, 2)  # lam >= s1+s2+1
    assert r3.entries[0].direction == "exact" and r3.entries[0].value == comb(6, 2)

    r4 = matching_closed_bounds(6, 2, 1, 1, 2)  # lam <= min(s1, s2)
    assert r4.entries[0].value == 0


def test_closed_bounds_sandwich_solver():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(3, 6)
        t = rng.randint(2, n - 1)
        s1 = rng.randint(1, 3)
        s2 = rng.randint(1, 3)
        lam = rng.randint(min(s1, s2) + 1, s1 + s2)
        if comb(n, t) > 25:
            continue
        report = matching_closed_bounds(n, t, lam, s1, s2)
        value = matching_number_exact(inst(n, t, lam, s1 + 1, s2 + 1)).value
        for e in report.applicable("upper"):
            assert value <= e.value, (n, t, lam, s1, s2)
        for e in report.applicable("lower"):
            assert value >= e.value, (n, t, lam, s1, s2)


def test_explicit_corollary_entries():
    # c | n exact specialization: m(4,2,2;2,2) = (1/2) C(4,2) = 3
    r = matching_closed_bounds(4, 2, 2, 1, 1, c=2, s=1)
    exact = [e for e in r.entries if e.source == "divisible exact value"]
    assert len(exact) == 1 and exact[0].value == 3 and exact[0].applicable
    # and the explicit upper bound with the divisibility hypothesis
    div_upper = [e for e in r.entries if e.source == "explicit cyclic-interval, divisible"]
    assert div_upper[0].value == Fraction(1, 2) * comb(4, 2)


def test_cyclic_partition_plan_examples():
    plan = cyclic_partition_plan(6, 3, 1, 1)
    assert plan.chi == 3 and plan.gamma == 3
    assert plan.classes == ((1, 4), (2, 5), (3, 6))

    plan2 = cyclic_partition_plan(4, 2, 1, 1)
    assert plan2.classes == ((1, 3), (2, 4))

    plan3 = cyclic_partition_plan(5, 2, 2, 2)
    assert (plan3.chi, plan3.m, plan3.gamma, plan3.n0) == (2, 2, 3, 1)
    assert len(plan3.classes) == 3

    with pytest.raises(ParameterError):
        cyclic_partition_plan(4, 4, 1, 1)


def test_cyclic_plan_classes_are_disjoint_collections():
    plan = cyclic_partition_plan(9, 4, 2, 3)
    for i, cls in enumerate(plan.classes):
        masks = plan.class_masks(i)
        dp = DisjointnessParams(len(masks), plan.s1 + 1, plan.s2 + 1)
        assert is_disjoint_collection(masks, plan.n, dp)


_CORRUPT_PLAN = """
import dataclasses, sys
from frameproof_lab.matching import _validate_plan, cyclic_partition_plan
if not sys.flags.optimize:
    sys.exit("child must run under -O")
plan = cyclic_partition_plan(6, 3, 1, 1)
bad = dataclasses.replace(plan, classes=((1, 4), (2, 5), (3, 5)))
try:
    _validate_plan(bad)
except AssertionError as exc:
    print("raised", exc)
"""


def test_plan_check_survives_python_O():
    src = Path(frameproof_lab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_PLAN],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised class starts"), proc.stdout


def test_star_family_examples():
    fam = star_family(5, 2, 3, 2)
    assert len(fam) == 4
    assert all(m & 0b1 for m in fam.sets)
    assert find_violating_collection(fam, DisjointnessParams(3, 3, 4)) is None

    fam2 = star_family(6, 3, 2, 1)
    assert len(fam2) == comb(6, 3) - comb(5, 3) == 10
    assert find_violating_collection(fam2, DisjointnessParams(2, 2, 3)) is None

    assert len(star_family(5, 2, 1, 2)) == 0


def test_star_family_violation_free_single_sided():
    # pure (s+1)-disjoint mode realized with k2 = lam + 1
    rng = random.Random(60)
    for _ in range(40):
        n = rng.randint(2, 7)
        t = rng.randint(1, n)
        s = rng.randint(1, 3)
        lam = rng.randint(1, 5)
        fam = star_family(n, t, lam, s)
        assert len(fam) == comb(n, t) - comb(max(n - (-(-lam // s) - 1), 0), t)
        if len(fam):
            assert find_violating_collection(fam, DisjointnessParams(lam, s + 1, lam + 1)) is None


def test_certificate_json():
    cert = matching_number_exact(inst(4, 2, 2, 2, 2))
    doc = cert.to_json()
    assert doc["value"] == 3 and doc["status"] == "exact"
    assert len(doc["family"]) == 3


def test_two_sided_value_dominates_single_sided():
    # disabling one clause can only shrink the admissible-collection set of
    # the complementary problem, so the two-sided value dominates both
    # single-sided reductions (the second on complemented families).
    rng = random.Random(321)
    for _ in range(25):
        n = rng.randint(3, 6)
        t = rng.randint(1, n - 1)
        if comb(n, t) > 20:
            continue
        lam = rng.randint(2, 4)
        s1 = rng.randint(1, 3)
        s2 = rng.randint(1, 3)
        both = matching_number_exact(inst(n, t, lam, s1 + 1, s2 + 1)).value
        left = matching_number_exact(inst(n, t, lam, s1 + 1, None)).value
        right = matching_number_exact(inst(n, n - t, lam, s2 + 1, None)).value
        assert both >= left, (n, t, lam, s1, s2)
        assert both >= right, (n, t, lam, s1, s2)


def test_more_divisible_exact_values():
    # (s0/c) and ((c-s0)/c) closed forms at c | n, frozen from the formula
    for (n, t, lam, k1, k2), want in [
        ((6, 2, 3, 2, 3), 10),  # c=3, s=1, lam = c-s0+1
        ((6, 4, 3, 3, 2), 10),  # c=3, s=2, lam = c-s0+1
        ((8, 4, 2, 2, 2), 35),  # c=2, s=1, lam = s0+1
    ]:
        cert = matching_number_exact(inst(n, t, lam, k1, k2))
        assert cert.status == "exact" and cert.value == want


# ---------------------------------------------------------------------------
# the compiled violation oracle


def _ref_minimal_supports(candidates, n, params):
    # every qualifying lam-multiset, from the collection predicate itself
    supports = set()
    for combo in combinations_with_replacement(range(len(candidates)), params.lam):
        if is_disjoint_collection([candidates[i] for i in combo], n, params):
            supports.add(sum(1 << i for i in set(combo)))
    return sorted(
        s for s in supports if not any(r != s and r & s == r for r in supports)
    )


def _compiled_legal(supports, chosen_mask, i):
    # each support registered at its highest index, with that bit cleared
    rests = [s ^ (1 << i) for s in supports if s.bit_length() - 1 == i]
    return all(rest & ~chosen_mask for rest in rests)


def _oracle_cases():
    rng = random.Random(4242)
    cases = []
    while len(cases) < 60:
        n = rng.randint(2, 6)
        t = rng.randint(1, n)
        if comb(n, t) > 20:
            continue
        lam = rng.randint(1, 5)
        k1 = rng.choice([None, rng.randint(1, 5)])
        k2 = rng.choice([None, rng.randint(1, 5)])
        cases.append((n, t, lam, k1, k2))
    # the m-table cells (c,s,k) = (4,1,7), (5,4,7), (3,1,8), (5,1,8), (4,3,8)
    # as (k, t, lam, s+1, c-s+1)
    cases += [(7, 2, 3, 2, 4), (7, 6, 3, 5, 2), (8, 3, 2, 2, 3), (8, 2, 3, 2, 5),
              (8, 6, 4, 4, 2)]
    return cases


def test_compiled_supports_are_the_minimal_qualifying_supports():
    for n, t, lam, k1, k2 in _oracle_cases():
        params = DisjointnessParams(lam, k1, k2)
        if params.vacuous or not params.feasible:
            continue
        candidates = enumerate_subsets(n, t)
        if comb(len(candidates) + lam - 1, lam) > 40000:
            continue
        assert _minimal_supports(n, t, params) == _ref_minimal_supports(
            candidates, n, params
        ), (n, t, lam, k1, k2)


def test_compiled_legality_matches_reference_oracle():
    rng = random.Random(1729)
    checked = 0
    for n, t, lam, k1, k2 in _oracle_cases():
        params = DisjointnessParams(lam, k1, k2)
        if params.vacuous or not params.feasible:
            continue
        candidates = enumerate_subsets(n, t)
        supports = _minimal_supports(n, t, params)
        for _ in range(6):
            # a random legal prefix, grown in increasing index order
            chosen = []
            for i in range(len(candidates)):
                if rng.random() < 0.5:
                    continue
                fam = SubsetFamily(n, tuple(candidates[j] for j in chosen + [i]), t)
                if find_violating_collection(fam, params, must_include=len(chosen)) is None:
                    chosen.append(i)
            cut = rng.randint(0, len(chosen))
            prefix = chosen[:cut]
            mask = sum(1 << j for j in prefix)
            start = prefix[-1] + 1 if prefix else 0
            for i in range(start, len(candidates)):
                fam = SubsetFamily(n, tuple(candidates[j] for j in prefix + [i]), t)
                ref = find_violating_collection(fam, params, must_include=len(prefix)) is None
                assert _compiled_legal(supports, mask, i) == ref, (n, t, lam, k1, k2, prefix, i)
                checked += 1
    assert checked > 500


def _ref_full_dfs_supports(candidates, n, params):
    # the compile without the orbit step: one count DFS over every
    # non-decreasing index multiset, under the same per-point rules, blocked
    # masks and superset prune
    lam, lo, hi = params.lam, params.min_count, params.max_count
    points = [[p for p in range(n) if mask >> p & 1] for mask in candidates]
    through = [0] * n
    for i, pts in enumerate(points):
        for p in pts:
            through[p] |= 1 << i
    everything = (1 << len(candidates)) - 1
    counts = [0] * n
    found = set()

    def dfs(start_bit, remaining, support, blocked):
        if lo and min(counts) + remaining < lo:
            return
        if remaining == 0:
            found.add(support)
            return
        free = everything & ~blocked & -start_bit
        while free:
            bit = free & -free
            free ^= bit
            grown = support | bit
            if grown != support:
                if support in found:
                    continue
                sub = support  # walk the submasks of support, joined with bit
                while sub and (sub | bit) not in found:
                    sub = (sub - 1) & support
                if (sub | bit) in found:
                    continue
            pts = points[bit.bit_length() - 1]
            full = blocked
            for p in pts:
                counts[p] += 1
                if counts[p] == hi:
                    full |= through[p]
            dfs(bit, remaining - 1, grown, full)
            for p in pts:
                counts[p] -= 1

    dfs(1, lam, 0, everything if hi == 0 else 0)
    minimal = []
    for support in found:
        sub = (support - 1) & support  # walk the proper submasks
        while sub and sub not in found:
            sub = (sub - 1) & support
        if not sub:
            minimal.append(support)
    return sorted(minimal)


def _seeded_compile_cases():
    rng = random.Random(2025)
    cases = []
    while len(cases) < 1000:
        n = rng.randint(1, 7)
        t = rng.randint(1, n)
        if comb(n, t) > 35:
            continue
        lam = rng.randint(1, 6)
        k1, k2 = rng.choice([None, 1, 2, 3, 4, 6]), rng.choice([None, 1, 2, 3, 4, 6])
        cases.append((n, t, lam, k1, k2))
    return cases


def test_orbit_compile_matches_the_full_dfs():
    nonempty = 0
    for n, t, lam, k1, k2 in _seeded_compile_cases():
        params = DisjointnessParams(lam, k1, k2)
        expected = _ref_full_dfs_supports(enumerate_subsets(n, t), n, params)
        assert _minimal_supports(n, t, params) == expected, (n, t, lam, k1, k2)
        nonempty += bool(expected)
    assert nonempty > 300


@pytest.mark.parametrize(
    "n, t, lam, k1, k2",
    [
        (5, 2, 3, 1, 3),  # k1 = 1: max_count = 0 blocks every candidate
        (4, 2, 2, 1, None),
        (4, 4, 3, 4, 2),  # t = n: one candidate, M = 1
        (5, 5, 2, None, 2),
        (4, 1, 4, 2, 4),  # t = 1: the candidates are the points
        (5, 1, 5, 3, None),
        (4, 2, 9, 6, 6),  # lam larger than M = 6
        (3, 2, 6, 5, 3),
    ],
)
def test_orbit_compile_edge_cases(n, t, lam, k1, k2):
    params = DisjointnessParams(lam, k1, k2)
    candidates = enumerate_subsets(n, t)
    expected = _ref_full_dfs_supports(candidates, n, params)
    assert _minimal_supports(n, t, params) == expected
    assert expected == _ref_minimal_supports(candidates, n, params)
    # max_count = 0 admits no collection; every other case has a support
    assert bool(expected) == (k1 != 1)


def test_supports_are_invariant_under_point_permutations():
    rng = random.Random(77)
    for n, t, lam, k1, k2 in [(6, 2, 4, 3, 5), (6, 3, 4, 3, 3), (7, 3, 4, 3, 4), (6, 2, 3, 2, 3)]:
        supports = set(_minimal_supports(n, t, DisjointnessParams(lam, k1, k2)))
        assert supports
        candidates = enumerate_subsets(n, t)
        index = {mask: i for i, mask in enumerate(candidates)}
        for _ in range(5):
            perm = rng.sample(range(n), n)
            image = [
                index[sum(1 << perm[p] for p in range(n) if mask >> p & 1)] for mask in candidates
            ]
            moved = {
                sum(1 << image[i] for i in range(len(candidates)) if support >> i & 1)
                for support in supports
            }
            assert moved == supports, (n, t, lam, k1, k2, perm)


# SHA-256 of ",".join(map(str, supports)) from the full-root compile, per
# m-table cell (c,s,k) -> (n, t, lam, k1, k2)
PINNED_SUPPORTS = {
    (8, 3, 4, 3, 5): "74438ae728287b80b92eae5398bdfb1cd6f46126659bc05f6c8597d5ecf2668c",
    (7, 3, 4, 3, 4): "c58f831887b4251d0b69c5a72432ebb40c582e72efc3cf44fe72408cdd24fd58",
    (6, 3, 6, 4, 4): "81c04461c62ce1731f5a16127ba2789821698de27ad5c27efce8fc589aaa2752",
    (6, 4, 6, 5, 3): "64740bb100e842c55ca93dea1bf4b5b5c13f6681c58353f288048c56dc8e5172",
    (8, 6, 4, 4, 2): "4e29b280e4e285ed11bbf6acbda9fcc320b45ce1b7d96fd521ee43dbdb029b97",
    (8, 4, 4, 3, 3): "d7925441521e83968a4f0662b1791befff5baa88348cdb27328509ab5939103d",
    (8, 5, 4, 4, 3): "7bc084ff99c930179b5665a667b810921a8b0d81730f8fe50811cea1f32d3820",
    (8, 4, 6, 4, 4): "cdd7cf6438f7a11899bc9dbd74db1fdf9d5f6fbee03efda7cab1b6682f6900dc",
}


@pytest.mark.parametrize("cell", sorted(PINNED_SUPPORTS))
def test_pinned_supports(cell):
    n, t, lam, k1, k2 = cell
    supports = _minimal_supports(n, t, DisjointnessParams(lam, k1, k2))
    digest = hashlib.sha256(",".join(map(str, supports)).encode()).hexdigest()
    assert digest == PINNED_SUPPORTS[cell]


def _compile_nodes(n, t, params):
    # the calls of the compile's DFS; its root step is taken outside it
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_qualname == "_minimal_supports.<locals>.dfs":
            nodes += 1

    sys.setprofile(profile)
    try:
        supports = _minimal_supports(n, t, params)
    finally:
        sys.setprofile(None)
    return len(supports), nodes


def test_compile_prunes_supersets_of_found_supports():
    # rooted at candidate 0, the DFS takes 23 calls at (6,2,5) (the full-root
    # DFS took 106, and 326 without the superset prune) and 1,207 at (6,2,8)
    # (18,799 from every root)
    params = DisjointnessParams(4, 3, 5)  # the m-table cells (c,s,k) = (6,2,k)
    assert _compile_nodes(5, 2, params) == (15, 23)
    assert _compile_nodes(8, 3, params) == (1120, 1207)


# m(n,t,lam;k1,k2) at node budget 2500.  (6,3,4;3,3) is proved by the
# interval cap: the search stops at its 10th node, on the first family of
# size 10.  At (8,6,4;4,2) the budget runs out at 18, and the s1 pierced
# star (every 6-set through point 1) meets the interval cap of 21.
PINNED_CELLS = {
    (6, 3, 4, 3, 3): {
        "value": 10,
        "status": "exact",
        "explored": 10,
        "family": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 5], [1, 3, 5],
                   [2, 3, 5], [1, 4, 5], [2, 4, 5], [3, 4, 5]],
    },
    (6, 4, 6, 5, 3): {
        "value": 10,
        "status": "exact",
        "explored": 180,
        "family": [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5], [1, 3, 4, 5], [1, 2, 3, 6],
                   [1, 2, 4, 6], [1, 3, 4, 6], [1, 2, 5, 6], [1, 3, 5, 6], [1, 4, 5, 6]],
    },
    (6, 2, 6, 3, 5): {
        "value": 10,
        "status": "exact",
        "explored": 10,
        "family": [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4], [1, 5], [2, 5],
                   [3, 5], [4, 5]],
    },
    (8, 6, 4, 4, 2): {
        "value": 21,
        "status": "exact",
        "explored": 2500,
        "family": [list(points_from_mask(m)) for m in enumerate_subsets(8, 6) if m & 1],
    },
}


@pytest.mark.parametrize("cell", sorted(PINNED_CELLS))
def test_pinned_certificates_at_budget_2500(cell):
    assert matching_number_exact(inst(*cell), budget=2500).to_json() == PINNED_CELLS[cell]


# ---------------------------------------------------------------------------
# the brute-force oracle

# the benchmark's m-table cells (c,s,k), as m(k, t, lam; s+1, c-s+1)
M_TABLE_CELLS = [(c, s, k) for k in range(2, 8) for c in range(2, 7) for s in range(1, c)] + [
    (3, 1, 8), (4, 3, 8), (5, 1, 8), (6, 2, 8)
]


def _cell_args(c, s, k):
    lam, t = lambda_of(c, s, k)
    return k, t, lam, s + 1, c - s + 1


def _ref_qualifying_supports(candidates, n, params):
    # the plain quantifier loop: every k1 entries of the multiset intersect
    # in nothing, every k2 of them cover [n]
    supports = set()
    ground = (1 << n) - 1
    for combo in combinations_with_replacement(range(len(candidates)), params.lam):
        sets = [candidates[i] for i in combo]
        ok = True
        if params.k1 is not None and params.k1 <= params.lam:
            for sub in combinations(range(params.lam), params.k1):
                inter = ground
                for i in sub:
                    inter &= sets[i]
                if inter:
                    ok = False
                    break
        if ok and params.k2 is not None and params.k2 <= params.lam:
            for sub in combinations(range(params.lam), params.k2):
                union = 0
                for i in sub:
                    union |= sets[i]
                if union != ground:
                    ok = False
                    break
        if ok:
            support = 0
            for i in combo:
                support |= 1 << i
            supports.add(support)
    return supports


def _enumeration_cases():
    cases = [
        _cell_args(c, s, k)
        for c, s, k in M_TABLE_CELLS
        if comb(k, lambda_of(c, s, k)[1]) <= 21
    ]
    # each clause off (None), at 1, and past lam (vacuous)
    for n, t, lam in ((4, 2, 2), (5, 2, 3), (5, 3, 4), (3, 1, 5)):
        for k1 in (None, 1, 2, lam + 1):
            for k2 in (None, 1, 2, lam + 1):
                cases.append((n, t, lam, k1, k2))
    # rows that grow three columns past the base tail, pruned under each
    # clause alone and under both
    for k1, k2 in ((4, None), (None, 4), (4, 4), (2, None)):
        cases.append((6, 3, 6, k1, k2))
    return cases


def test_qualifying_supports_match_the_plain_loop():
    for n, t, lam, k1, k2 in _enumeration_cases():
        candidates = enumerate_subsets(n, t)
        params = DisjointnessParams(lam, k1, k2)
        assert _qualifying_supports(candidates, n, params) == _ref_qualifying_supports(
            candidates, n, params
        ), (n, t, lam, k1, k2)


def test_brute_oracle_shares_no_code_with_the_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force oracle called the solver's oracle")

    instance = inst(6, 3, 2, 2, 2)
    for name in (
        "_find_violating",
        "find_violating_collection",
        "_minimal_supports",
        "_registered_supports",
        "_max_avoiding",
    ):
        monkeypatch.setattr(matching, name, refuse)
    # nor the per-point count rule the solver compiles
    for name in ("max_count", "min_count", "feasible", "vacuous"):
        monkeypatch.setattr(DisjointnessParams, name, property(refuse))
    value, family = matching_number_brute(instance)
    assert value == len(family) == 10


def test_brute_oracle_checks_its_size_before_enumerating(monkeypatch):
    # C(8,4) = 70 candidates exceed the cap of 24; no subset list is built
    def refuse(*args, **kwargs):
        raise AssertionError("candidates enumerated before the size check")

    monkeypatch.setattr(matching, "enumerate_subsets", refuse)
    with pytest.raises(ParameterError, match="C\\(n,t\\) <= 24, got 70"):
        matching_number_brute(inst(8, 4, 2, 2, 2))


def test_brute_oracle_caps_the_rows_it_checks(monkeypatch):
    # (6,3,6;4,4) checks 35,148 multiset rows: the 1,540 base rows and the
    # grown rows that survived each step; the cap falls before the sweep
    instance = inst(6, 3, 6, 4, 4)
    monkeypatch.setattr(matching, "_BRUTE_ROWS", 35148)
    assert matching_number_brute(instance)[0] == 10

    def refuse(*args, **kwargs):
        raise AssertionError("subfamilies swept past the row cap")

    monkeypatch.setattr(matching, "_BRUTE_ROWS", 35147)
    monkeypatch.setattr(_kernels, "max_subfamily_avoiding", refuse)
    with pytest.raises(GuardError, match="more than 35147 multiset rows"):
        matching_number_brute(instance)


def test_brute_oracle_prunes_a_large_lam():
    # 30 members of [5] choose 2 with every two disjoint and every two
    # covering [5]: no such collection, so all C(5,2) = 10 pairs may stay;
    # unpruned this walks C(39,30), about 2.1e8 rows
    instance = inst(5, 2, 30, 2, 2)
    value, family = matching_number_brute(instance)
    assert value == len(family) == 10
    assert matching_number_exact(instance).value == value


# brute-force m at the six k = 7 cells with C(7,t) = 21 candidates; the
# solver at node budget 2500 proves all but (4,1,7), where it finds the
# value without closing the search.  There t = 2, lam = 3 and k1 = 2: graphs
# on 7 vertices without 3 disjoint edges, at most
# max{C(5,2), C(2,2) + 2*5} = 11 edges by Erdos-Gallai.
K7_CELLS = {(3, 2, 7): 6, (4, 1, 7): 11, (5, 1, 7): 6, (5, 3, 7): 0, (6, 1, 7): 0, (6, 4, 7): 6}


@pytest.mark.parametrize("cell", sorted(K7_CELLS))
def test_k7_cells_by_brute_force(cell):
    n, t, lam, k1, k2 = _cell_args(*cell)
    assert comb(n, t) == 21
    instance = inst(n, t, lam, k1, k2)
    value, family = matching_number_brute(instance)
    assert value == len(family) == K7_CELLS[cell]
    assert find_violating_collection(family, instance.params) is None
    cert = matching_number_exact(instance, budget=2500)
    assert cert.value == value
    assert cert.status == ("lower-only" if cell == (4, 1, 7) else "exact")
    if cell == (4, 1, 7):
        assert value == max(comb(5, 2), comb(2, 2) + 2 * 5)


def test_brute_complement_duality():
    # complementing every member swaps "k1 of them meet in nothing" with
    # "k1 of them cover [n]", so m(n,t,lam;k1,k2) = m(n,n-t,lam;k2,k1)
    checked = 0
    for c, s, k in M_TABLE_CELLS:
        n, t, lam, k1, k2 = _cell_args(c, s, k)
        if t == n or comb(n, t) > 21:
            continue
        value = matching_number_brute(inst(n, t, lam, k1, k2))[0]
        assert value == matching_number_brute(inst(n, n - t, lam, k2, k1))[0], (c, s, k)
        checked += 1
    assert checked == 72


# ---------------------------------------------------------------------------
# the interval cap and the closing stars


def _ref_alpha(n, t, params):
    # the largest subset of the n cyclic intervals holding no qualifying
    # collection, by the oracle on every subset, largest first
    intervals = sorted(interval_mask(n, t, a) for a in range(1, n + 1))
    for size in range(n, 0, -1):
        for subset in combinations(intervals, size):
            if find_violating_collection(SubsetFamily(n, subset, t), params) is None:
                return size
    return 0


def _alpha_cases():
    # the m-table cells and seeded instances, each with 1 < t < n and a
    # compile to run
    def wanted(n, t, lam, k1, k2):
        params = DisjointnessParams(lam, k1, k2)
        return 1 < t < n and params.feasible and not params.vacuous

    cases = [args for args in map(_cell_args, *zip(*M_TABLE_CELLS)) if wanted(*args)]
    rng = random.Random(1972)
    while len(cases) < 250:
        n = rng.randint(3, 8)
        t = rng.randint(2, n - 1)
        lam = rng.randint(1, 5)
        k1 = rng.choice([None, rng.randint(1, 5)])
        k2 = rng.choice([None, rng.randint(1, 5)])
        if comb(comb(n, t) + lam - 1, lam) <= 40000 and wanted(n, t, lam, k1, k2):
            cases.append((n, t, lam, k1, k2))
    return cases


def test_interval_alpha_matches_a_sweep_over_the_intervals():
    alphas = []
    for n, t, lam, k1, k2 in _alpha_cases():
        params = DisjointnessParams(lam, k1, k2)
        candidates = enumerate_subsets(n, t)
        registered = _registered_supports(n, t, params)
        slots = sorted(candidates.index(interval_mask(n, t, a)) for a in range(1, n + 1))
        alpha = _ref_alpha(n, t, params)
        for limit in range(1, n + 1):
            # the search stops once limit intervals fit together
            best = _max_avoiding(slots, registered, limit, None)[0]
            assert len(best) == min(alpha, limit), (n, t, lam, k1, k2, limit)
        alphas.append(alpha)
    assert len(set(alphas)) == 8


def test_max_avoiding_agrees_with_the_subfamily_sweep():
    # random supports over at most 16 candidates, each registered at its top
    # index, against the kernel's sweep over all 2^M subfamilies
    rng = random.Random(4)
    for _ in range(400):
        m = rng.randint(1, 16)
        supports = {
            sum(1 << i for i in rng.sample(range(m), rng.randint(1, min(m, 4))))
            for _ in range(rng.randint(0, 3 * m))
        }
        registered = [[] for _ in range(m)]
        for support in supports:
            top = support.bit_length() - 1
            registered[top].append(support ^ (1 << top))
        best, _, exhausted = _max_avoiding(range(m), registered, m, None)
        assert not exhausted
        assert len(best) == _kernels.max_subfamily_avoiding(sorted(supports), m)[0]
        chosen = sum(1 << i for i in best)
        assert all(support & chosen != support for support in supports)
        for budget in range(6):
            cut, explored, exhausted = _max_avoiding(range(m), registered, m, budget)
            assert explored <= budget
            # a search the budget did not cut finished
            assert explored == budget if exhausted else len(cut) == len(best)


def test_m_table_cells_match_brute_force():
    checked = 0
    for c, s, k in M_TABLE_CELLS:
        n, t, lam, k1, k2 = _cell_args(c, s, k)
        if comb(n, t) > 24:
            continue
        instance = inst(n, t, lam, k1, k2)
        cert = matching_number_exact(instance)
        assert cert.status == "exact"
        assert cert.value == matching_number_brute(instance)[0], (c, s, k)
        checked += 1
    assert checked == 84


# the eight m-table cells left lower-only at budget 2500 by the search
# without the interval cap, and what they give now
OPEN_WITHOUT_INTERVAL_CAP = {
    (4, 2, 6): ("exact", 10),
    (6, 3, 6): ("exact", 10),
    (5, 2, 7): ("exact", 20),
    (3, 1, 8): ("exact", 21),
    (4, 3, 8): ("exact", 21),
    (6, 2, 8): ("exact", 21),
    (4, 1, 7): ("lower-only", 11),
    (5, 1, 8): ("lower-only", 13),
}
# sha256 over the value and family of the other 86 cells, as the search
# without the interval cap returned them at budget 2500
EXACT_CELLS_DIGEST = "d2fb35968868b7b996562ec8cac4faebc2fd1ac69cff252b3982f3a38c7f3af0"


def test_m_table_at_budget_2500():
    digest, exact = hashlib.sha256(), 0
    for c, s, k in M_TABLE_CELLS:
        cert = matching_number_exact(inst(*_cell_args(c, s, k)), budget=2500)
        if (c, s, k) in OPEN_WITHOUT_INTERVAL_CAP:
            assert (cert.status, cert.value) == OPEN_WITHOUT_INTERVAL_CAP[c, s, k], (c, s, k)
            if cert.status == "lower-only":
                assert cert.explored == 2500
            continue
        assert cert.status == "exact", (c, s, k)
        doc = cert.to_json()
        digest.update(json.dumps([[c, s, k], doc["value"], doc["family"]]).encode())
        exact += 1
    assert exact == 86
    assert digest.hexdigest() == EXACT_CELLS_DIGEST


def test_s2_star_closes_5_2_7():
    # (c,s,k) = (5,2,7) is m(7,3,4;3,4): the 3-sets that miss point 1
    n, t, lam, k1, k2 = _cell_args(5, 2, 7)
    params = DisjointnessParams(lam, k1, k2)
    s1_star, s2_star = _pierced_stars(n, t, params, enumerate_subsets(n, t))
    assert len(s1_star) == comb(7, 3) - comb(6, 3) == 15
    assert len(s2_star) == comb(7, 3) - comb(6, 2) == 20
    assert all(not m & 1 for m in s2_star)
    assert find_violating_collection(SubsetFamily(n, s2_star, t), params) is None
    cert = matching_number_exact(inst(n, t, lam, k1, k2), budget=5)
    assert cert.status == "exact" and cert.family.sets == s2_star
