import random

import pytest

from frameproof_lab.core import (
    DisjointnessParams,
    FrameproofParams,
    GuardError,
    IndexMultiset,
    ParameterError,
    SubsetFamily,
    WitnessError,
    is_disjoint_collection,
    points_from_mask,
)
from frameproof_lab.verify import (
    Code,
    FocalWitness,
    Guards,
    _focus_witness,
    agreement_mask,
    code_from_json,
    descendant_alphabet,
    distinctify_witness,
    find_critical_focal,
    find_focal_code,
    find_focal_hypergraph,
    naive_find_focal,
    own_subsequence_census,
    validate_witness,
)
from frameproof_lab.constructions import rs_code


def fp(c, s):
    return FrameproofParams(c, s)


def test_find_focal_hypergraph_examples():
    fam = SubsetFamily.from_iterables(4, [[1, 2], [3, 4], [1, 3], [2, 4]])
    w = find_focal_hypergraph(fam, fp(2, 1))
    assert w is not None and w.focus == 0
    assert list(w.coalition.indices()) == [2, 3]
    validate_witness(fam, w, fp(2, 1))

    assert find_focal_hypergraph(
        SubsetFamily.from_iterables(4, [[1, 2], [3, 4]]), fp(2, 1)
    ) is None
    assert find_focal_hypergraph(
        SubsetFamily.from_iterables(3, [[1, 2], [1, 3], [2, 3]]), fp(3, 2)
    ) is None


def test_find_focal_code_examples():
    code = Code(2, 2, ((1, 1), (1, 2), (2, 1)))
    w = find_focal_code(code, fp(2, 1))
    assert w is not None and w.focus == 0
    assert list(w.coalition.indices()) == [1, 2]

    assert find_focal_code(Code(2, 2, ((1, 1),)), fp(2, 1)) is None
    # MDS code with d = 2 > floor(3/2); exhaustive search agrees
    assert find_focal_code(rs_code(3, 3, 2), fp(2, 1)) is None


def test_find_critical_focal_examples():
    fam = SubsetFamily.from_iterables(3, [[1, 2], [1, 3], [2, 3], [1, 2, 3]])
    w = find_critical_focal(fam, fp(3, 2))
    assert w is not None
    validate_witness(fam, w, fp(3, 2))
    # the spec's illustrative witness also validates
    explicit = FocalWitness("hypergraph", 3, IndexMultiset.from_indices([0, 1, 2]), True)
    validate_witness(fam, explicit, fp(3, 2))

    few = SubsetFamily.from_iterables(3, [[1, 2], [1, 3], [2, 3]])
    assert find_critical_focal(few, fp(3, 2)) is None

    code = Code(2, 2, ((1, 1), (1, 2), (2, 1), (2, 2)))
    assert find_critical_focal(code, fp(3, 2)) is None


def test_witness_is_least():
    # focus 0 has witnesses (2,3) and (3,3)? -- colex-least must come first
    fam = SubsetFamily.from_iterables(4, [[1, 2], [3, 4], [1, 3], [2, 4], [1, 4]])
    w = find_focal_hypergraph(fam, fp(2, 1))
    assert w is not None and w.focus == 0
    assert list(w.coalition.indices()) == [2, 3]


def test_guards():
    fam = SubsetFamily.from_iterables(3, [[1], [2], [3]])
    with pytest.raises(GuardError):
        find_focal_hypergraph(fam, fp(9, 1))
    with pytest.raises(GuardError):
        find_focal_hypergraph(fam, fp(2, 1), guards=Guards(c=8, members=2))
    # env override raises the guard
    assert find_focal_hypergraph(fam, fp(2, 1), guards=Guards(c=12, members=5)) is None


def test_validate_witness_rejects_bogus():
    fam = SubsetFamily.from_iterables(4, [[1, 2], [3, 4], [1, 3]])
    bogus = FocalWitness("hypergraph", 0, IndexMultiset.from_indices([1, 2]), False)
    with pytest.raises(WitnessError):
        validate_witness(fam, bogus, fp(2, 1))
    with_focus = FocalWitness("hypergraph", 0, IndexMultiset.from_indices([0, 1]), False)
    with pytest.raises(WitnessError):
        validate_witness(fam, with_focus, fp(2, 1))


def test_naive_equivalence_small():
    rng = random.Random(31337)
    for _ in range(150):
        n = rng.randint(2, 5)
        pool = list(range(1, 1 << n))
        rng.shuffle(pool)
        fam = SubsetFamily(n, tuple(pool[: rng.randint(1, 6)]))
        c = rng.randint(2, 3)
        s = rng.randint(1, c - 1)
        fast = find_focal_hypergraph(fam, fp(c, s))
        naive = naive_find_focal(fam, fp(c, s))
        assert (fast is None) == (naive is None)


def test_distinctify_examples():
    fam = SubsetFamily.from_iterables(3, [[1, 2, 3], [1, 2], [1, 3], [2, 3]])
    out = distinctify_witness(fam, 0, [0b011, 0b101, 0b110], fp(3, 2))
    assert out == [1, 2, 3]

    fam2 = SubsetFamily.from_iterables(4, [[1, 2, 3], [1, 4], [2, 4], [3, 4]])
    out2 = distinctify_witness(fam2, 0, [0b001, 0b010, 0b100], fp(3, 1))
    assert out2 == [1, 2, 3]

    # parts already housed in distinct members come straight back
    fam3 = SubsetFamily.from_iterables(
        4, [[1, 2, 3, 4], [1, 2], [3, 4], [1, 3], [2, 4]]
    )
    out3 = distinctify_witness(fam3, 0, [0b0011, 0b1100], fp(2, 1))
    assert out3 == [1, 2]


def test_distinctify_errors():
    fam = SubsetFamily.from_iterables(3, [[1, 2, 3], [1, 2], [1, 3], [2, 3]])
    with pytest.raises(WitnessError):
        distinctify_witness(fam, 0, [0b011, 0b101], fp(3, 2))  # wrong count
    with pytest.raises(WitnessError):
        # {1} is not 2-non-own (only two members contain it but s0 = min(2,1) = 1;
        # use a part not inside the focus instead)
        distinctify_witness(fam, 1, [0b100, 0b011, 0b011], fp(3, 2))
    small = SubsetFamily.from_iterables(3, [[1, 2], [1, 3]])
    with pytest.raises(WitnessError):
        distinctify_witness(small, 0, [0b01, 0b10], fp(2, 1))  # family too small
    # coverage shortfall: point 3 never covered
    with pytest.raises(WitnessError):
        distinctify_witness(fam, 0, [0b011, 0b011, 0b011], fp(3, 2))


def test_witness_restriction_passes_disjointness():
    # exact-equality witnesses restrict to (s+1, c-s+1)-disjoint parts inside A
    fam = SubsetFamily.from_iterables(4, [[1, 2], [3, 4], [1, 3], [2, 4]])
    params = fp(2, 1)
    w = find_focal_hypergraph(fam, params)
    assert w is not None
    a = fam.sets[w.focus]
    parts = []
    counts = {p: 0 for p in points_from_mask(a)}
    for idx in w.coalition.indices():
        part = 0
        for p in points_from_mask(fam.sets[idx] & a):
            if counts[p] < params.s:
                counts[p] += 1
                part |= 1 << (p - 1)
        parts.append(part)
    assert all(v == params.s for v in counts.values())
    dp = DisjointnessParams(params.c, params.s + 1, params.c - params.s + 1)
    assert is_disjoint_collection(parts, fam.n, dp, within=a)


def test_descendant_alphabet_examples():
    code = Code(2, 2, ((1, 1), (1, 2), (2, 1)))
    r1 = descendant_alphabet(code, IndexMultiset.from_indices([0, 1]), 1)
    assert [sorted(x) for x in r1.per_coordinate] == [[1], [1, 2]]
    assert r1.feasible_count == 2
    r2 = descendant_alphabet(code, IndexMultiset.from_indices([0, 1]), 2)
    assert [sorted(x) for x in r2.per_coordinate] == [[1], []]
    assert r2.feasible_count == 0
    r3 = descendant_alphabet(code, IndexMultiset.from_indices([0, 1, 2]), 2)
    assert [sorted(x) for x in r3.per_coordinate] == [[1], [1]]
    assert r3.feasible_count == 1


def test_own_subsequence_census_examples():
    single = Code(3, 2, ((1, 2),))
    cen = own_subsequence_census(single, 1)
    assert all(cen.u_of(s) == {0} for s in cen.u_sets)

    code = Code(2, 2, ((1, 1), (1, 2)))
    cen = own_subsequence_census(code, 1)
    assert cen.u_of(0b01) == frozenset()
    assert cen.u_of(0b10) == {0, 1}

    rs = rs_code(3, 3, 2)
    cen = own_subsequence_census(rs, 2)
    assert all(len(cen.own[i]) == 3 for i in range(len(rs)))


def test_census_partition_union_law():
    # for a frameproof code, the U-sets of any s-fold partition cover the code
    code = rs_code(3, 3, 2)
    params = fp(2, 1)
    assert find_focal_code(code, params) is None
    # s[n] = {1,2} (+) {3}: one t-set and one (t-1)-set, t = ceil(3/2) = 2
    cen2 = own_subsequence_census(code, 2)
    cen1 = own_subsequence_census(code, 1)
    union = cen2.u_of(0b011) | cen1.u_of(0b100)
    assert union == set(range(len(code)))


def test_agreement_mask():
    assert agreement_mask((1, 2, 3), (1, 5, 3)) == 0b101


def test_code_json_round_trip():
    code = Code(3, 2, ((1, 2), (3, 1)))
    assert code_from_json(code.to_json()).words == code.words
    with pytest.raises(Exception):
        code_from_json({"q": 2, "n": 2, "words": [[1, 3]]})


def test_code_validation():
    with pytest.raises(ParameterError):
        Code(1, 2, ())
    with pytest.raises(ParameterError):
        Code(2, 2, ((1, 1), (1, 1)))
    with pytest.raises(ParameterError):
        Code(2, 2, ((1, 3),))


def test_code_search_matches_agreement_set_family():
    # per focus, the code search is the hypergraph search over the agreement
    # sets; check the translation on codes whose agreement masks are distinct
    rng = random.Random(808)
    checked = 0
    while checked < 40:
        q, n = rng.randint(2, 3), rng.randint(2, 4)
        size = rng.randint(2, min(7, q**n))
        words = set()
        while len(words) < size:
            words.add(tuple(rng.randint(1, q) for _ in range(n)))
        code = Code(q, n, tuple(sorted(words)))
        c = rng.randint(2, 3)
        s = rng.randint(1, c - 1)
        params = fp(c, s)
        full = (1 << n) - 1
        for focus in range(size):
            masks = [agreement_mask(code.words[focus], w) for w in code.words]
            others = masks[:focus] + masks[focus + 1 :]
            if len(set(others)) != len(others) or full in others:
                continue
            # family: the focus (= all of [n]) plus the agreement sets
            fam = SubsetFamily(n, tuple([full] + others))
            fam_witness = naive_find_focal(fam, params)
            code_witness = _focus_witness(code, focus, params, False)
            has_fam = fam_witness is not None and fam_witness.focus == 0
            assert has_fam == (code_witness is not None), (code.words, focus, c, s)
            checked += 1
    assert checked >= 40


def test_guards_from_env(monkeypatch):
    from frameproof_lab.verify import guards_from_env

    monkeypatch.delenv("FRAMEPROOF_LAB_GUARDS", raising=False)
    assert guards_from_env() == Guards()
    monkeypatch.setenv("FRAMEPROOF_LAB_GUARDS", "c=12,members=500")
    assert guards_from_env() == Guards(c=12, members=500)
    monkeypatch.setenv("FRAMEPROOF_LAB_GUARDS", "c=12")
    assert guards_from_env() == Guards(c=12, members=200)
    monkeypatch.setenv("FRAMEPROOF_LAB_GUARDS", "bogus=1")
    with pytest.raises(ParameterError):
        guards_from_env()


def test_env_guards_gate_searches(monkeypatch):
    fam = SubsetFamily.from_iterables(3, [[1], [2], [3]])
    monkeypatch.setenv("FRAMEPROOF_LAB_GUARDS", "members=2")
    with pytest.raises(GuardError):
        find_focal_hypergraph(fam, fp(2, 1))
    monkeypatch.setenv("FRAMEPROOF_LAB_GUARDS", "members=300")
    assert find_focal_hypergraph(fam, fp(2, 1)) is None


def test_descendant_oracle_matches_verifier():
    # third route: the code is threshold-safe iff no coalition's descendant
    # set contains a codeword outside the coalition's support
    from itertools import combinations_with_replacement

    rng = random.Random(4242)
    for _ in range(120):
        q, n = rng.randint(2, 3), rng.randint(1, 3)
        size = rng.randint(2, min(7, q**n))
        words = set()
        while len(words) < size:
            words.add(tuple(rng.randint(1, q) for _ in range(n)))
        code = Code(q, n, tuple(sorted(words)))
        c = rng.randint(2, 3)
        s = rng.randint(1, c - 1)
        framed = None
        for combo in combinations_with_replacement(range(size), c):
            report = descendant_alphabet(code, IndexMultiset.from_indices(combo), s)
            support = set(combo)
            for x, word in enumerate(code.words):
                if x in support:
                    continue
                if all(word[i] in report.per_coordinate[i] for i in range(n)):
                    framed = (x, combo)
                    break
            if framed:
                break
        witness = find_focal_code(code, FrameproofParams(c, s))
        assert (witness is None) == (framed is None), (code.words, c, s, framed)


def test_union_law_over_random_partitions():
    # for a threshold-safe code, every exact s-fold partition of the
    # coordinate set has U-sets covering the whole code
    from frameproof_lab.constructions import (
        faithful_code_family,
        greedy_multiset_partition,
        rs_code,
    )
    from frameproof_lab.core import DisjointnessParams as DP
    from frameproof_lab.core import enumerate_subsets, is_disjoint_collection, lambda_of

    rng = random.Random(515)
    codes = [
        (rs_code(3, 3, 2), 2, 1),
        (rs_code(4, 4, 2), 2, 1),
        (rs_code(5, 4, 2), 3, 2),
        (faithful_code_family(4, 2, 1, 3), 2, 1),
        (faithful_code_family(3, 3, 2, 3), 3, 2),
    ]
    checked = 0
    for code, c, s in codes:
        params = FrameproofParams(c, s)
        assert find_focal_code(code, params) is None
        n = code.n
        lam, t = lambda_of(c, s, n)
        pool = enumerate_subsets(n, t)
        dp = DP(lam, s + 1, c - s + 1)
        partitions = 0
        for _ in range(200):
            given = [rng.choice(pool) for _ in range(lam)]
            if not is_disjoint_collection(given, n, dp):
                continue
            parts = given + greedy_multiset_partition((1 << n) - 1, given, params)
            census = {r: own_subsequence_census(code, r) for r in {t, t - 1}}
            union = set()
            for mask in parts:
                union |= census[mask.bit_count()].u_of(mask)
            assert union == set(range(len(code))), (code.q, n, c, s, parts)
            partitions += 1
            if partitions >= 8:
                break
        assert partitions >= 1
        checked += 1
    assert checked == len(codes)


def test_midsize_code_verification_all_routes():
    # 25-word MDS code at (3,2): distance certificate, exhaustive search,
    # critical search and the flat enumerator all agree it is safe
    from frameproof_lab.constructions import certify_frameproof_by_distance, rs_code

    code = rs_code(5, 4, 2)
    params = FrameproofParams(3, 2)
    cert = certify_frameproof_by_distance(code, params)
    assert cert.certified and cert.distance == 3
    assert find_focal_code(code, params) is None
    assert find_critical_focal(code, params) is None
    assert naive_find_focal(code, params) is None
