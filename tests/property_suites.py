"""Randomized property suites shared by the acceptance criteria.

Each suite runs at least 200 cases from a fixed seed and raises AssertionError
with context on the first violation.  Suites return the number of cases they
actually checked so the caller can enforce the floor.  The plain-loop
references of the own-subset census live here too, for the suites and tests.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from frameproof_lab.core import (
    DisjointnessParams,
    FrameproofParams,
    IndexMultiset,
    SubsetFamily,
    enumerate_subsets,
    is_disjoint_collection,
    lambda_of,
    own_subset_index,
    points_from_mask,
)
from frameproof_lab.constructions import (
    code_to_multipartite,
    faithful_code_family,
    greedy_multiset_partition,
    greedy_packing,
    induced_packing_family,
    packing_to_frameproof,
)
from frameproof_lab.matching import (
    MatchingInstance,
    cyclic_partition_plan,
    find_violating_collection,
    matching_number_exact,
    star_family,
)
from frameproof_lab.verify import (
    Code,
    FocalWitness,
    OwnCensus,
    agreement_mask,
    distinctify_witness,
    find_critical_focal,
    find_focal_code,
    find_focal_hypergraph,
    own_subsequence_census,
    validate_witness,
)

CASES = 200

_m_cache: dict[tuple[int, int, int, int, int], int] = {}


def matching_value(k: int, t: int, lam: int, k1: int, k2: int) -> int:
    key = (k, t, lam, k1, k2)
    if key not in _m_cache:
        _m_cache[key] = matching_number_exact(
            MatchingInstance(k, t, DisjointnessParams(lam, k1, k2))
        ).value
    return _m_cache[key]


def random_uniform_family(rng: random.Random, n: int, k: int, size: int) -> SubsetFamily:
    pool = enumerate_subsets(n, k)
    rng.shuffle(pool)
    return SubsetFamily(n, tuple(sorted(pool[:size])), k)


def quantifier_disjoint(collection, n, params, within=None) -> bool:
    ground = (1 << n) - 1 if within is None else within
    lam = params.lam
    if params.k1 is not None and params.k1 <= lam:
        for sub in combinations(range(lam), params.k1):
            inter = ground
            for i in sub:
                inter &= collection[i]
            if inter:
                return False
    if params.k2 is not None and params.k2 <= lam:
        for sub in combinations(range(lam), params.k2):
            union = 0
            for i in sub:
                union |= collection[i]
            if union & ground != ground:
                return False
    return True


def _ref_own_subset_index(family: SubsetFamily, r: int) -> dict[int, tuple[list[int], list[int]]]:
    """own_subset_index as a plain loop over every member pair and every
    r-subset of a member's points."""
    out = {}
    for i, a in enumerate(family.sets):
        own, non_own = [], []
        for pts in combinations(points_from_mask(a), r):
            t = sum(1 << (p - 1) for p in pts)
            if any(j != i and t & b == t for j, b in enumerate(family.sets)):
                non_own.append(t)
            else:
                own.append(t)
        out[i] = (sorted(own), sorted(non_own))
    return out


def _ref_census(code: Code, r: int) -> OwnCensus:
    """own_subsequence_census as a plain loop over every word pair and every
    r-set, from the pure-Python agreement masks."""
    m = len(code)
    agree = [[agreement_mask(code.words[x], code.words[y]) for y in range(m)] for x in range(m)]
    own, non_own = [], []
    u_sets = {s: set() for s in enumerate_subsets(code.n, r)}
    for x in range(m):
        mine, shared = [], []
        for s_mask in u_sets:
            if any(y != x and agree[x][y] & s_mask == s_mask for y in range(m)):
                shared.append(s_mask)
            else:
                mine.append(s_mask)
                u_sets[s_mask].add(x)
        own.append(tuple(mine))
        non_own.append(tuple(shared))
    return OwnCensus(r, tuple(own), tuple(non_own), {s: frozenset(v) for s, v in u_sets.items()})


def _disjoint_parts_inside(rng: random.Random, c: int, s: int, k: int):
    """A (s+1, c-s+1)-disjoint lam-collection of t-subsets of [k], or None."""
    lam, t = lambda_of(c, s, k)
    pool = enumerate_subsets(k, t)
    params = DisjointnessParams(lam, s + 1, c - s + 1)
    for _ in range(40):
        draw = [rng.choice(pool) for _ in range(lam)]
        if is_disjoint_collection(draw, k, params):
            return draw
    fam = SubsetFamily(k, tuple(pool), t)
    hit = find_violating_collection(fam, params, must_include=rng.randrange(len(pool)))
    if hit is None:
        hit = find_violating_collection(fam, params)
    return None if hit is None else [pool[i] for i in hit]


# ---------------------------------------------------------------------------


def suite_lambda_identity() -> int:
    cases = 0
    for c in range(2, 9):
        for s in range(1, c):
            for k in range(1, 21):
                lam, t = lambda_of(c, s, k)
                assert lam * t + (c - lam) * (t - 1) == s * k, (c, s, k)
                assert 1 <= lam <= c and t == -(-s * k // c)
                cases += 1
    return cases


def suite_disjoint_dual_forms() -> int:
    rng = random.Random(1001)
    for _ in range(250):
        n = rng.randint(1, 10)
        lam = rng.randint(1, 6)
        k1 = rng.choice([None, rng.randint(1, 5)])
        k2 = rng.choice([None, rng.randint(1, 5)])
        params = DisjointnessParams(lam, k1, k2)
        coll = [rng.randrange(1 << n) for _ in range(lam)]
        within = rng.choice([None, rng.randrange(1, 1 << n)])
        got = is_disjoint_collection(coll, n, params, within=within)
        want = quantifier_disjoint(coll, n, params, within=within)
        assert got == want, (coll, n, lam, k1, k2, within)
    return 250


def suite_partition_identity() -> int:
    rng = random.Random(1002)
    cases = 0
    while cases < CASES:
        c = rng.randint(2, 5)
        s = rng.randint(1, c - 1)
        k = rng.randint(2, 6)
        lam, t = lambda_of(c, s, k)
        given = _disjoint_parts_inside(rng, c, s, k)
        if given is None:
            continue
        a_mask = (1 << k) - 1
        parts = greedy_multiset_partition(a_mask, given, FrameproofParams(c, s))
        assert len(parts) == c - lam
        assert all(m.bit_count() == t - 1 for m in parts)
        assert all(m & ~a_mask == 0 for m in parts)
        counts = {p: 0 for p in range(1, k + 1)}
        for m in list(given) + parts:
            for p in points_from_mask(m):
                counts[p] += 1
        assert all(v == s for v in counts.values()), (c, s, k, given, parts)
        # size bookkeeping: lam*t + (c-lam)*(t-1) = s*k
        assert sum(m.bit_count() for m in list(given) + parts) == s * k
        cases += 1
    return cases


def suite_cyclic_plan() -> int:
    rng = random.Random(1003)
    cases = 0
    while cases < CASES:
        n = rng.randint(3, 12)
        t = rng.randint(2, n - 1)
        s1 = rng.randint(1, 4)
        s2 = rng.randint(1, 4)
        plan = cyclic_partition_plan(n, t, s1, s2)
        assert len(plan.classes) == plan.gamma == -(-n // (n // plan.chi))
        starts = sorted(a for cls in plan.classes for a in cls)
        assert starts == list(range(1, n + 1))
        for i, cls in enumerate(plan.classes):
            masks = plan.class_masks(i)
            dp = DisjointnessParams(len(masks), s1 + 1, s2 + 1)
            assert is_disjoint_collection(masks, n, dp), (n, t, s1, s2, i)
        cases += 1
    return cases


def suite_star_violation_free() -> int:
    rng = random.Random(1004)
    cases = 0
    while cases < CASES:
        n = rng.randint(2, 7)
        t = rng.randint(1, min(4, n))
        lam = rng.randint(1, 5)
        s = rng.randint(1, 3)
        fam = star_family(n, t, lam, s)
        size_s = max(-(-lam // s) - 1, 0)
        assert len(fam) == comb(n, t) - comb(max(n - size_s, 0), t)
        if len(fam):
            # pure (s+1)-disjoint mode: covering clause vacuous at k2 = lam+1
            assert (
                find_violating_collection(fam, DisjointnessParams(lam, s + 1, lam + 1))
                is None
            ), (n, t, lam, s)
        cases += 1
    return cases


def suite_constructions_verifier_clean() -> int:
    rng = random.Random(1005)
    cases = 0
    # greedy packings through the pigeonhole route
    while cases < 90:
        c = rng.randint(2, 5)
        s = rng.randint(1, c - 1)
        k = rng.randint(2, 5)
        lam, t = lambda_of(c, s, k)
        if t >= k:
            continue
        n = rng.randint(k + 1, 8)
        if rng.random() < 0.5:
            packing = greedy_packing(n, k, t)
        else:
            packing = greedy_packing(n, k, t, order="seeded-random", seed=rng.randrange(10**6))
        if not len(packing.family):
            continue
        chk = packing_to_frameproof(packing, FrameproofParams(c, s))
        assert chk.checked and chk.witness is None, (n, k, c, s)
        cases += 1
    # induced packings
    induced_params = [(3, 4, 2), (4, 2, 1), (3, 2, 1), (4, 3, 2), (3, 3, 2), (4, 3, 1)]
    while cases < 150:
        k, c, s = rng.choice(induced_params)
        lam, t = lambda_of(c, s, k)
        if t >= k:
            continue
        n = rng.randint(k, 8)
        packing, fam = induced_packing_family(k, c, s, n, seed=rng.randrange(10**6))
        packing.validate(n)
        if len(fam):
            assert find_focal_hypergraph(fam, FrameproofParams(c, s)) is None, (k, c, s, n)
        cases += 1
    # faithful multipartite code families
    while cases < CASES + 10:
        n = rng.randint(2, 4)
        c = rng.randint(2, 4)
        s = rng.randint(1, c - 1)
        q = rng.randint(2, 3)
        code = faithful_code_family(n, c, s, q, seed=rng.randrange(10**6))
        if len(code):
            assert find_focal_code(code, FrameproofParams(c, s)) is None, (n, c, s, q)
        cases += 1
    return cases


def suite_pi_census_correspondence() -> int:
    rng = random.Random(1006)
    cases = 0
    while cases < CASES:
        q = rng.randint(2, 4)
        n = rng.randint(1, 4)
        size = rng.randint(1, min(8, q**n))
        words = set()
        while len(words) < size:
            words.add(tuple(rng.randint(1, q) for _ in range(n)))
        code = Code(q, n, tuple(sorted(words)))
        r = rng.randint(0, n)
        census = own_subsequence_census(code, r)
        view, fam = code_to_multipartite(code)
        # the census against the reference loop on the image family
        idx = _ref_own_subset_index(fam, r)
        for i in range(len(code)):
            own_through_pi = {view.coordinates_mask(m) for m in idx[i][0]}
            assert own_through_pi == set(census.own[i]), (code.words, r, i)
            non_own_through_pi = {view.coordinates_mask(m) for m in idx[i][1]}
            assert non_own_through_pi == set(census.non_own[i])
        cases += 1
    return cases


def suite_verifier_monotonicity() -> int:
    rng = random.Random(1007)
    cases = 0
    while cases < CASES:
        c = rng.randint(2, 4)
        s = rng.randint(1, c - 1)
        params = FrameproofParams(c, s)
        if rng.random() < 0.5:
            n = rng.randint(2, 6)
            pool = list(range(1, 1 << n))
            rng.shuffle(pool)
            obj = SubsetFamily(n, tuple(pool[: rng.randint(1, 7)]))
            repeatable = find_focal_hypergraph(obj, params)
        else:
            q, n = rng.randint(2, 3), rng.randint(1, 3)
            size = rng.randint(1, min(7, q**n))
            words = set()
            while len(words) < size:
                words.add(tuple(rng.randint(1, q) for _ in range(n)))
            obj = Code(q, n, tuple(sorted(words)))
            repeatable = find_focal_code(obj, params)
        critical = find_critical_focal(obj, params)
        if repeatable is None:
            assert critical is None, (obj, c, s)
        if critical is not None:
            assert repeatable is not None
            validate_witness(obj, critical, params)
        cases += 1
    return cases


def suite_own_census_law() -> int:
    """Frameproof uniform families: a member with no own (t-1)-subsets has at
    least C(k,t) - m(k,t,lam;s+1,c-s+1) own t-subsets."""
    rng = random.Random(1008)
    cases = 0
    while cases < CASES:
        c = rng.randint(2, 4)
        s = rng.randint(1, c - 1)
        k = rng.randint(2, 5)
        lam, t = lambda_of(c, s, k)
        if rng.random() < 0.5 and t < k:
            n = rng.randint(k + 1, 8)
            fam = greedy_packing(n, k, t).family
            if not len(fam):
                continue
        else:
            n = rng.randint(k, 7)
            fam = random_uniform_family(rng, n, k, rng.randint(1, 6))
            if find_focal_hypergraph(fam, FrameproofParams(c, s)) is not None:
                continue
        m = matching_value(k, t, lam, s + 1, c - s + 1)
        floor = comb(k, t) - m
        idx_t1 = own_subset_index(fam, t - 1)
        idx_t = own_subset_index(fam, t)
        for i in range(len(fam)):
            if not idx_t1[i][0]:
                assert len(idx_t[i][0]) >= floor, (fam.sets, c, s, i, floor)
        cases += 1
    return cases


def suite_distinctify_revalidates() -> int:
    rng = random.Random(1009)
    cases = 0
    while cases < CASES:
        c = rng.randint(2, 5)
        s = rng.randint(1, c - 1)
        k = rng.randint(2, 5)
        lam, t = lambda_of(c, s, k)
        if t >= k:
            continue
        m = rng.randint(k + 1, min(k + 3, 9))
        if comb(m, k) < c + 1:
            continue
        given = _disjoint_parts_inside(rng, c, s, k)
        if given is None:
            continue
        a_mask = (1 << k) - 1
        parts = given + greedy_multiset_partition(a_mask, given, FrameproofParams(c, s))
        fam = SubsetFamily(m, tuple(enumerate_subsets(m, k)), k)
        focus = fam.sets.index(a_mask)
        s0 = min(s, c - s)
        holders_ok = all(
            sum(1 for j, b in enumerate(fam.sets) if j != focus and part & b == part) >= s0
            for part in parts
        )
        if not holders_ok:
            continue
        out = distinctify_witness(fam, focus, parts, FrameproofParams(c, s))
        assert len(out) == c and len(set(out)) == c and focus not in out
        witness = FocalWitness("hypergraph", focus, IndexMultiset.from_indices(out), True)
        validate_witness(fam, witness, FrameproofParams(c, s))
        cases += 1
    return cases


ALL_SUITES = [
    ("eq1-lambda-identity", suite_lambda_identity),
    ("disjoint-dual-forms", suite_disjoint_dual_forms),
    ("partition-multiset-identity", suite_partition_identity),
    ("cyclic-plan-partition-caps", suite_cyclic_plan),
    ("star-family-violation-free", suite_star_violation_free),
    ("constructions-verifier-clean", suite_constructions_verifier_clean),
    ("pi-own-census-correspondence", suite_pi_census_correspondence),
    ("verifier-monotonicity", suite_verifier_monotonicity),
    ("own-census-law", suite_own_census_law),
    ("distinctify-revalidates", suite_distinctify_revalidates),
]


def run_all() -> dict[str, int]:
    results = {}
    for name, fn in ALL_SUITES:
        count = fn()
        assert count >= CASES, f"suite {name} ran only {count} cases"
        results[name] = count
    return results
