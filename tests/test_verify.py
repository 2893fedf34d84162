import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from frameproof_lab.core import (
    DisjointnessParams,
    FormatError,
    FrameproofParams,
    GuardError,
    IndexMultiset,
    ParameterError,
    SubsetFamily,
    WitnessError,
    is_disjoint_collection,
    own_subset_index,
    points_from_mask,
)
from frameproof_lab.verify import (
    Code,
    FocalWitness,
    Guards,
    _dominance,
    _reduced_key,
    _scan_array,
    _search_cover,
    _surviving_foci,
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
from property_suites import _ref_census, _ref_own_subset_index


def fp(c, s):
    return FrameproofParams(c, s)


def _view(obj, focus):
    """(k, masks): the other members' masks of the focus's k points, as the
    scan builds them for a focus that counting does not refute."""
    from frameproof_lab import _kernels

    rows = _scan_array(obj)
    points = rows[focus] > 0
    masks = _kernels.agreement_masks(rows[:, points], focus).tolist()
    del masks[focus]
    return int(points.sum()), masks


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

    long = Code(2, 65, ((1,) * 65, (2,) * 65))
    with pytest.raises(ParameterError, match="word length exceeds 64"):
        own_subsequence_census(long, 1)


def test_census_matches_the_reference_loops():
    # families with an empty or a single member, codes with no or one word,
    # points above 2^53, and seeded random ones, each at every r from 0 to n
    rng = random.Random(2024)
    objs = [SubsetFamily(3, (0,)), SubsetFamily(3, (0b101,)), SubsetFamily(4, (0, 0b0110, 0b1111)),
            SubsetFamily(64, (1 << 63 | 1 << 62 | 1, 1 << 63 | 0b101, 1 << 54)),
            Code(2, 3, ()), Code(3, 2, ((1, 2),))]
    for trial in range(120):
        n = rng.randint(1, 7)
        if trial % 2:
            pool = list(range(1 << n))
            rng.shuffle(pool)
            objs.append(SubsetFamily(n, tuple(pool[: rng.randint(1, 9)])))
        else:
            q = rng.randint(2, 4)
            size = rng.randint(0, min(9, q**n))
            words = set()
            while len(words) < size:
                words.add(tuple(rng.randint(1, q) for _ in range(n)))
            objs.append(Code(q, n, tuple(sorted(words))))
    cases = [(obj, r) for obj in objs for r in range(obj.n + 1)]
    for obj, r in cases:
        if isinstance(obj, SubsetFamily):
            assert own_subset_index(obj, r) == _ref_own_subset_index(obj, r), (obj, r)
        else:
            got, want = own_subsequence_census(obj, r), _ref_census(obj, r)
            assert got == want, (obj, r)
            assert list(got.u_sets) == list(want.u_sets)  # colex order of the r-sets
    assert len(cases) > 500


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
    assert len(Code(2, 3, ())) == 0
    with pytest.raises(TypeError):
        Code(2, 2, ([1, 2], [2, 1]))
    with pytest.raises(TypeError, match="sequence of words"):
        Code(2, 2, (w for w in ((1, 2), (2, 1))))


@pytest.mark.parametrize(
    "q, n, words, message",
    [
        (3, 2, ((1, 2), (1, 2, 3)), "word 1 has length 3, expected 2"),
        (3, 2, ((1, 2), (0, 1)), "word 1 has symbols outside [1..3]"),
        (3, 2, ((1, 2), (4, 1)), "word 1 has symbols outside [1..3]"),
        (3, 2, ((1, 2), (2, 1), (1, 2)), "word 2 duplicates an earlier word"),
        # a non-integer symbol is outside the alphabet; 2.5 used to validate
        # and then truncate to 2, so that word 0 became word 2
        (3, 2, ((2.5, 1), (1, 1), (2, 2)), "word 0 has symbols outside [1..3]"),
        (3, 2, ((1, "2"), (1, 1)), "word 0 has symbols outside [1..3]"),
        # the first faulty word is named, whatever its fault and the later ones
        (3, 2, ((1, 2), (0, 1), (1, 2, 3)), "word 1 has symbols outside [1..3]"),
        (3, 2, ((1,), (1, 2), (1, 2), (9, 9)), "word 0 has length 1, expected 2"),
        (3, 2, ((1, 2), (1, 2), (0, 0)), "word 1 duplicates an earlier word"),
        (3, 2, ((1, 2), (2, 2), (1, 2, 3), (1, 2)), "word 2 has length 3, expected 2"),
        # within a word: length, then symbols, then duplication
        (3, 2, ((1, 2), (0,)), "word 1 has length 1, expected 2"),
        (3, 2, ((0, 2), (0, 2)), "word 0 has symbols outside [1..3]"),
    ],
)
def test_code_fault_messages(q, n, words, message):
    with pytest.raises(ParameterError) as exc:
        Code(q, n, words)
    assert str(exc.value) == message
    with pytest.raises(FormatError) as exc:
        code_from_json({"q": q, "n": n, "words": [list(w) for w in words]})
    # JSON refuses a non-integer symbol before it builds the Code
    assert str(exc.value) in (message, f"words[{message.split()[1]}] must be a list of integers")


def test_non_integer_symbol_code_is_refused_before_the_search():
    with pytest.raises(ParameterError, match=r"word 0 has symbols outside \[1\.\.3\]"):
        find_focal_code(Code(3, 2, ((2.5, 1), (1, 1), (2, 2))), fp(2, 1))


def _ref_code_fault(q, n, words):
    """The per-word check Code ran before the whole-tuple check, with the
    integer-symbol rule: the first faulty word's message, or None."""
    seen = set()
    for i, w in enumerate(words):
        if len(w) != n:
            return f"word {i} has length {len(w)}, expected {n}"
        if any(not (isinstance(x, (int, np.integer)) and 1 <= x <= q) for x in w):
            return f"word {i} has symbols outside [1..{q}]"
        if w in seen:
            return f"word {i} duplicates an earlier word"
        seen.add(w)
    return None


def _inject_fault(rng, q, n, words):
    i = rng.randrange(len(words))
    w = list(words[i])
    kind = rng.randrange(6) if w else 0
    at = rng.randrange(len(w)) if w else 0
    if kind == 0:
        w = w + [rng.randint(1, q)] if rng.random() < 0.5 or len(w) < 2 else w[:-1]
    elif kind == 1:
        w[at] = rng.choice((0, -1, q + 1, q + 7, 2**70))
    elif kind == 2:
        w[at] = rng.choice((0.5, 1.5, q - 0.5, "1", None))
    elif kind == 3:
        w[at] = np.int64(rng.randint(1, q))  # an integer: no fault
    elif kind == 4:
        w = list(words[rng.randrange(len(words))])  # may duplicate another word
    else:
        w[at] = rng.randint(1, q)  # may duplicate another word
    return words[:i] + [tuple(w)] + words[i + 1 :]


def test_code_validation_matches_the_per_word_reference():
    rng = random.Random(3030)
    verdicts = Counter()
    for _ in range(1500):
        q, n = rng.randint(2, 4), rng.randint(1, 4)
        words = [tuple(rng.randint(1, q) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        words = list(dict.fromkeys(words))
        for _ in range(rng.randint(0, 3)):
            words = _inject_fault(rng, q, n, words)
        expected = _ref_code_fault(q, n, words)
        if expected is None:
            assert Code(q, n, tuple(words)).words == tuple(words)
        else:
            with pytest.raises(ParameterError) as exc:
                Code(q, n, tuple(words))
            assert str(exc.value) == expected
        verdicts[expected and re.sub(r"\d+", "#", expected)] += 1
    # every verdict is exercised: valid, length, symbols, duplicate
    assert min(verdicts.values()) >= 100 and len(verdicts) == 4, verdicts


def test_code_validation_does_not_scale_with_q():
    tracemalloc.start()
    try:
        code = Code(2**40, 2, ((1, 2**40), (5, 7)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(code) == 2 and peak < 1 << 20


def test_symbols_beyond_64_bits_are_a_parameter_error():
    code = Code(2**70, 2, ((2**70, 1), (1, 1)))
    with pytest.raises(ParameterError, match="64-bit"):
        find_focal_code(code, fp(2, 1))


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
            k, view = _view(code, focus)
            has_code = _search_cover(view, c, s, k, False)
            has_fam = fam_witness is not None and fam_witness.focus == 0
            assert has_fam == bool(has_code), (code.words, focus, c, s)
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


def test_validate_witness_rejects_focus_out_of_range():
    fam = SubsetFamily.from_iterables(6, [[1, 2, 3], [4, 5, 6], [1, 4, 5]])
    code = Code(2, 2, ((1, 1), (1, 2), (2, 1)))
    for obj, kind in ((fam, "hypergraph"), (code, "code")):
        # a coalition made of the last member, read as focus -1, covers it
        wrapped = FocalWitness(kind, -1, IndexMultiset.from_indices([2, 2]), False)
        with pytest.raises(WitnessError, match="out of range"):
            validate_witness(obj, wrapped, fp(2, 1))
        past = FocalWitness(kind, len(obj), IndexMultiset.from_indices([0, 1]), False)
        with pytest.raises(WitnessError, match="out of range"):
            validate_witness(obj, past, fp(2, 1))


def test_long_words_are_parameter_errors_on_every_route():
    code = Code(2, 65, tuple(tuple([x] * 65) for x in (1, 2)) + ((1,) * 64 + (2,),))
    for search in (find_focal_code, find_critical_focal):
        with pytest.raises(ParameterError, match="exceeds 64"):
            search(code, fp(2, 1))


def _colex_least_witness(obj, params, distinct):
    """First focus with a cover, and its colex-least coalition, by brute force."""
    from itertools import combinations, combinations_with_replacement

    pick = combinations if distinct else combinations_with_replacement
    size = len(obj)
    for focus in range(size):
        if isinstance(obj, SubsetFamily):
            kind, target = "hypergraph", obj.sets[focus]
            masks = [m & target for m in obj.sets]
        else:
            kind, target = "code", (1 << obj.n) - 1
            masks = [agreement_mask(obj.words[focus], w) for w in obj.words]
        covers = [
            combo
            for combo in pick([i for i in range(size) if i != focus], params.c)
            if all(
                sum(1 for i in combo if masks[i] & (1 << (p - 1))) >= params.s
                for p in points_from_mask(target)
            )
        ]
        if covers:
            least = min(covers, key=lambda combo: combo[::-1])
            return FocalWitness(kind, focus, IndexMultiset.from_indices(least), distinct)
    return None


def _check_against_colex_brute(obj, params):
    searches = (
        (find_focal_hypergraph if isinstance(obj, SubsetFamily) else find_focal_code, False),
        (find_critical_focal, True),
    )
    for search, distinct in searches:
        got = search(obj, params, guards=Guards(c=8, members=64))
        want = _colex_least_witness(obj, params, distinct)
        got_json = None if got is None else got.to_json()
        want_json = None if want is None else want.to_json()
        assert got_json == want_json, (obj, params, distinct)
        naive = naive_find_focal(obj, params, distinct)
        assert (None if naive is None else naive.focus) == (None if got is None else got.focus)


def test_reduced_search_gives_the_colex_least_witness():
    # deciding each focus on its reduced instance must not change the witness
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(1, 5)
        sets = rng.sample(range(1 << n), min(1 << n, rng.randint(1, 7)))
        c = rng.randint(2, 4)
        _check_against_colex_brute(SubsetFamily(n, tuple(sets)), fp(c, rng.randint(1, c - 1)))
    for _ in range(300):
        q, n = rng.randint(2, 3), rng.randint(1, 4)
        size = rng.randint(1, min(7, q**n))
        words = set()
        while len(words) < size:
            words.add(tuple(rng.randint(1, q) for _ in range(n)))
        c = rng.randint(2, 4)
        _check_against_colex_brute(Code(q, n, tuple(words)), fp(c, rng.randint(1, c - 1)))


def test_reduced_search_named_cases():
    fam = SubsetFamily.from_iterables
    # an empty member is covered by any one other member
    _check_against_colex_brute(fam(3, [[1, 2], [], [2, 3]]), fp(2, 1))
    _check_against_colex_brute(fam(3, [[1, 2], [], [2, 3]]), fp(3, 2))
    # all-zero coverage: no other member meets the focus
    _check_against_colex_brute(fam(3, [[1], [2], [3]]), fp(2, 1))
    _check_against_colex_brute(Code(3, 2, ((1, 1), (2, 2), (3, 3))), fp(3, 1))
    # one coverage class holds more than c members
    crowd = fam(3, [[1], [1, 2], [1, 3], [1, 2, 3], [2, 3]])
    _check_against_colex_brute(crowd, fp(2, 1))
    _check_against_colex_brute(crowd, fp(3, 2))
    # size == c + 1 and a single member
    _check_against_colex_brute(fam(4, [[1, 2], [3, 4], [1, 3], [2, 4]]), fp(3, 1))
    _check_against_colex_brute(fam(2, [[1, 2]]), fp(2, 1))
    _check_against_colex_brute(Code(2, 3, ((1, 2, 1),)), fp(2, 1))
    # repeatable (need 1): one copy of each inclusion-maximal class; the zero
    # mask stays only when it is the only coverage class
    assert _reduced_key(0, [0, 0], 1) == (0, ((0, 1),))
    assert _reduced_key(2, [0b01, 0, 0b10], 1) == (2, ((0b01, 1), (0b10, 1)))
    assert _reduced_key(2, [0b01, 0, 0b11], 1) == (2, ((0b11, 1),))
    # distinct (need c): a class is capped at c, and dropped once c kept
    # members lie strictly above it
    assert _reduced_key(2, [0b01, 0b01, 0b01, 0], 2) == (2, ((0b01, 2),))
    assert _reduced_key(2, [0b11, 0b11, 0b01, 0b10, 0b10], 2) == (2, ((0b11, 2),))
    # a class under fewer than c kept members keeps c minus those above it
    assert _reduced_key(2, [0b11, 0b01, 0b01, 0b01, 0b10], 3) == (
        2,
        ((0b01, 2), (0b10, 1), (0b11, 1)),
    )
    assert _reduced_key(3, [0b111, 0b011, 0b011, 0b001, 0b001, 0b001], 3) == (
        3,
        ((0b011, 2), (0b111, 1)),
    )
    assert _reduced_key(3, [0b110, 0b011, 0b010, 0b010, 0b010], 3) == (
        3,
        ((0b010, 1), (0b011, 1), (0b110, 1)),
    )


def test_reduced_key_keeps_the_cover_verdict():
    # views crowded with equal and nested masks: the expanded reduced
    # instance has a cover exactly when the full view has one
    rng = random.Random(3141)
    seen = {"covered": 0, "uncovered": 0, "shrunk": 0}
    for _ in range(1500):
        k = rng.randint(0, 5)
        tops = [rng.randrange(1 << k) for _ in range(rng.randint(1, 3))]
        masks = [
            rng.choice(tops) & (rng.randrange(1 << k) if rng.random() < 0.5 else -1)
            for _ in range(rng.randint(1, 14))
        ]
        c = rng.randint(2, 5)
        s = rng.randint(1, c - 1)
        for distinct in (False, True):
            key = _reduced_key(k, masks, c if distinct else 1)
            reduced = [m for m, cnt in key[1] for _ in range(cnt)]
            want = _search_cover(masks, c, s, k, distinct) is not None
            got = _search_cover(reduced, c, s, k, distinct) is not None
            assert got == want, (k, masks, c, s, distinct, key)
            seen["covered" if want else "uncovered"] += 1
            seen["shrunk"] += len(reduced) < len(masks)
    assert min(seen.values()) >= 500, seen


def _brute_cover(masks, c, s, k, distinct):
    """Colex-least c-multiset (or c-set) of indices covering each of the k
    points at least s times, over every coalition."""
    from itertools import combinations, combinations_with_replacement

    pick = combinations if distinct else combinations_with_replacement
    covers = [
        combo
        for combo in pick(range(len(masks)), c)
        if all(sum(masks[i] >> p & 1 for i in combo) >= s for p in range(k))
    ]
    return min(covers, key=lambda combo: combo[::-1], default=None)


def test_search_cover_is_the_colex_least_cover():
    # raw mask lists, one to four deficit planes, both variants: the search
    # returns the brute colex-least coalition, or None when there is none
    rng = random.Random(4242)
    seen = Counter()
    for trial in range(700):
        k = rng.randint(0, 8)
        if trial % 4 == 0:
            c, s = 2, 1
        else:
            c = rng.randint(2, 5)
            s = rng.randint(1, c - 1)
        size = rng.randint(0, 11)
        if trial % 10 == 1:
            masks = [0] * size
        else:
            masks = [rng.randrange(1 << k) | rng.randrange(1 << k) for _ in range(size)]
        for distinct in (False, True):
            got = _search_cover(masks, c, s, k, distinct)
            assert got == _brute_cover(masks, c, s, k, distinct), (masks, c, s, k, distinct)
            seen["covered" if got else "uncovered"] += 1
            seen["distinct, fewer masks than c"] += distinct and size < c
            seen["(2,1) repeatable"] += (c, s, distinct) == (2, 1, False)
            seen["four planes"] += s == 4
            seen["k = 0"] += k == 0
            seen["all zero"] += size > 0 and not any(masks)
    assert min(seen.values()) >= 40, seen


def _ref_search_cover(masks, c, s, k, distinct):
    """The cover search without the capacity prune: the same DFS, deficit
    planes and memo, pruned only by a point short of more covers than slots
    remain."""
    out = [0] * c
    memo = set()

    def dfs(slot, bound, need):
        if slot + 1 < s and need[slot + 1]:
            return False
        key = (slot, bound, need)
        if key in memo:
            return False
        if slot == 0:
            for v in range(bound + 1):
                if masks[v] & need[0] == need[0]:
                    out[0] = v
                    return True
        else:
            below = need[1:] + (0,)
            for v in range(slot if distinct else 0, bound + 1):
                mv = masks[v]
                out[slot] = v
                taken = tuple(a & ~mv | b & mv for a, b in zip(need, below))
                if dfs(slot - 1, v - 1 if distinct else v, taken):
                    return True
        memo.add(key)
        return False

    return tuple(out) if dfs(c - 1, len(masks) - 1, ((1 << k) - 1,) * s) else None


def test_capacity_prune_keeps_the_colex_least_cover():
    # longer mask lists than the brute oracle affords, narrow and wide masks,
    # s from 1 to 3, both variants: the capacity prune only cuts states that
    # cannot complete, so the search returns the unpruned search's cover
    rng = random.Random(6061)
    seen = Counter()
    for trial in range(1200):
        k = rng.randint(0, 10)
        s = rng.randint(1, 3)
        c = rng.randint(s + 1, 6)
        size = rng.choice((0, rng.randint(1, c), rng.randint(1, 40), rng.randint(1, 40)))
        width = rng.randint(0, k)
        masks = []
        for _ in range(size):
            if rng.random() < 0.1:
                masks.append(0)
            else:
                bits = rng.sample(range(k), rng.randint(0, width))
                masks.append(sum(1 << b for b in bits))
        for distinct in (False, True):
            got = _search_cover(masks, c, s, k, distinct)
            assert got == _ref_search_cover(masks, c, s, k, distinct), (masks, c, s, k, distinct)
            seen["covered" if got else "uncovered"] += 1
            seen[f"s = {s}"] += 1
            seen["empty list"] += size == 0
            seen["zero mask"] += 0 in masks
            seen["distinct" if distinct else "repeatable"] += 1
    assert min(seen.values()) >= 100, seen


def test_large_rs_witness_at_3_1():
    # 4095 masks per focus: both variants find the same coalition at focus 0
    code = rs_code(8, 8, 4)
    guards = Guards(c=8, members=4096)
    for search in (find_focal_code, find_critical_focal):
        w = search(code, fp(3, 1), guards=guards)
        assert (w.focus, w.coalition.to_json()) == (0, [[72, 1], [521, 1], [577, 1]])


def test_large_rs_repeatable_witnesses_at_high_c():
    # c = q and s = 2: the index-order view of focus 0 holds the colex-least
    # cover
    guards = Guards(c=8, members=512)
    w = find_focal_code(rs_code(7, 7, 3), fp(7, 2), guards=guards)
    assert (w.focus, w.coalition.to_json()) == (0, [[54, 1], [56, 2], [57, 1], [61, 2], [69, 1]])
    w = find_focal_code(rs_code(8, 8, 3), fp(8, 2), guards=guards)
    assert (w.focus, w.coalition.to_json()) == (0, [[72, 2], [74, 2], [76, 2], [78, 2]])


def test_index_order_view_keeps_the_colex_least_cover():
    # crowded views: equal and nested classes, zero masks, fewer members than
    # c; the search on the kept members, mapped back, is the colex-least
    # cover of the full list
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(400):
        k = rng.randint(0, 8)
        tops = [rng.randrange(1 << k) for _ in range(rng.randint(1, 3))]
        masks = [
            0 if rng.random() < 0.1 else rng.choice(tops) & rng.choice((rng.randrange(1 << k), -1))
            for _ in range(rng.randint(0, 14))
        ]
        c = rng.randint(2, 5)
        s = rng.randint(1, c - 1)
        for distinct in (False, True):
            # the positions the scan keeps when it walks the members by index
            taken = _dominance(((m, 1) for m in masks), c if distinct else 1)
            kept = [i for i, n in enumerate(taken) if n]
            found = _search_cover([masks[i] for i in kept], c, s, k, distinct)
            got = found and tuple(kept[j] for j in found)
            assert got == _search_cover(masks, c, s, k, distinct), (k, masks, c, s, distinct)
            assert got == _brute_cover(masks, c, s, k, distinct), (k, masks, c, s, distinct)
            seen["covered" if got else "uncovered"] += 1
            seen["shrunk"] += len(kept) < len(masks)
            seen["fewer members than c"] += len(masks) < c
            seen["zero mask"] += 0 in masks
    assert min(seen.values()) >= 40, seen


def test_focus_view_compresses_to_the_focus_points():
    # a family's traces are written over the focus's points, bit j for the
    # j-th point, the focus left out and the member order kept
    fam = SubsetFamily.from_iterables(4, [[2], [2, 4], [1], [4], [1, 2, 4]])
    assert _view(fam, 1) == (2, [0b01, 0b00, 0b10, 0b11])
    assert _view(fam, 0) == (1, [1, 0, 0, 1])
    # the empty focus is never refuted: k = 0 needs no incidences
    empty = SubsetFamily.from_iterables(2, [[1], [], [2]])
    assert _view(empty, 1) == (0, [0, 0])
    assert 1 in _surviving_foci(_scan_array(empty), fp(2, 1))
    # on a code the compression is the identity
    code = Code(3, 3, ((1, 2, 3), (1, 2, 1), (2, 2, 3)))
    assert _view(code, 0) == (3, [0b011, 0b110])
    # counting: each member meets the focus in at most 2 of 3 points, 4 * 2 < 3 * 3
    assert 0 in _surviving_foci(_scan_array(code), fp(2, 1))
    assert 0 not in _surviving_foci(_scan_array(code), fp(4, 3))


def _relabelled(code, rng):
    """An isomorphic copy: permuted coordinates, symbols and word order."""
    cols = list(range(code.n))
    rng.shuffle(cols)
    syms = [rng.sample(range(1, code.q + 1), code.q) for _ in cols]
    words = [tuple(syms[i][w[j] - 1] for i, j in enumerate(cols)) for w in code.words]
    rng.shuffle(words)
    return Code(code.q, code.n, tuple(words))


def _counting_calls(monkeypatch):
    """Record the calls of the cover search, and under "viewed" the foci that
    get a view (those counting did not refute)."""
    import frameproof_lab.verify as verify

    calls = {"_search_cover": [], "viewed": []}

    def counted(*args, _real=verify._search_cover):
        calls["_search_cover"].append(args)
        return _real(*args)

    monkeypatch.setattr(verify, "_search_cover", counted)

    def viewed(words, focus, _real=verify._kernels.agreement_masks):
        calls["viewed"].append(focus)
        return _real(words, focus)

    monkeypatch.setattr(verify._kernels, "agreement_masks", viewed)
    return calls


def test_linear_code_is_refuted_by_counting(monkeypatch):
    # every other word of RS(7,7,2) agrees with a focus in at most one
    # coordinate, and 3 * 1 < 1 * 7, so counting refutes all 49 foci and no
    # view is built or searched
    code = _relabelled(rs_code(7, 7, 2), random.Random(77))
    calls = _counting_calls(monkeypatch)
    assert find_focal_code(code, fp(3, 1)) is None
    assert find_critical_focal(code, fp(3, 1)) is None
    assert len(code) == 49
    assert calls == {"_search_cover": [], "viewed": []}


def _index_order_view(masks, need):
    """The masks the scan keeps when it walks the members by index."""
    return [m for m, n in zip(masks, _dominance(((m, 1) for m in masks), need)) if n]


def test_reduced_instance_decides_and_the_view_gives_the_witness(monkeypatch):
    # a key not yet refuted is decided by one search on its reduced instance;
    # only a focus with a cover gets a second search, on its index-order
    # view, never on all of its members
    code = rs_code(8, 8, 4)
    guards = Guards(c=8, members=4096)
    k, masks = _view(code, 0)
    for search, need in ((find_focal_code, 1), (find_critical_focal, 3)):
        calls = _counting_calls(monkeypatch)
        assert search(code, fp(3, 1), guards=guards).focus == 0
        key = _reduced_key(k, masks, need)
        reduced, view = (args[0] for args in calls["_search_cover"])
        assert calls["viewed"] == [0]
        assert sorted(reduced) == sorted(m for m, n in key[1] for _ in range(n))
        assert view == _index_order_view(masks, need)
        assert len(reduced) < len(view) < len(masks)
        monkeypatch.undo()
    # over seeded scans, one search per key not yet refuted, none for the rest
    # and one more, on the view, at the witness focus
    rng = random.Random(2626)
    witnesses = 0
    for trial in range(300):
        obj = _random_instance(rng, trial)
        c = rng.randint(2, 4)
        params = fp(c, rng.randint(1, c - 1))
        repeatable = find_focal_hypergraph if isinstance(obj, SubsetFamily) else find_focal_code
        for distinct, search in ((False, repeatable), (True, find_critical_focal)):
            need = c if distinct else 1
            calls = _counting_calls(monkeypatch)
            got = search(obj, params)
            monkeypatch.undo()
            keys = [_reduced_key(*_view(obj, f), need) for f in calls["viewed"]]
            searched = [args[0] for args in calls["_search_cover"]]
            assert len(searched) == len(set(keys)) + (got is not None), (obj, params, distinct)
            if got is not None:
                assert keys[-1] not in keys[:-1]
                assert searched[-1] == _index_order_view(_view(obj, got.focus)[1], need)
                witnesses += 1
    assert witnesses >= 100, witnesses


def test_unrefuted_foci_share_one_reduced_verdict(monkeypatch):
    # words (1, a, b): each focus meets others in {1,2}, {1,3} or {1}, so
    # 3 * 2 = 2 * 3 and counting refutes no focus; a cover would need each of
    # coordinates 2 and 3 twice, four members, so the property holds, and all
    # nine foci share one reduced instance per variant
    code = Code(3, 3, tuple((1, a, b) for a in (1, 2, 3) for b in (1, 2, 3)))
    calls = _counting_calls(monkeypatch)
    assert find_focal_code(code, fp(3, 2)) is None
    assert len(calls["viewed"]) == 9 and len(calls["_search_cover"]) == 1
    assert find_critical_focal(code, fp(3, 2)) is None
    assert len(calls["viewed"]) == 18 and len(calls["_search_cover"]) == 2


def test_distance_certificate_means_no_reduced_search(monkeypatch):
    # the distance certificate c(n-d) < s*n is the counting bound at every
    # focus, so a certified code is decided without any reduced search
    from frameproof_lab.constructions import certify_frameproof_by_distance

    rng = random.Random(4096)
    codes = [
        _relabelled(rs_code(q, n, t), rng)
        for q in (2, 3, 4, 5, 7, 8, 9)
        for t in (1, 2, 3)
        for n in sorted({2, min(q, 4), q})
        if t <= n and q**t <= 400
    ]
    for _ in range(40):
        q, n = rng.randint(2, 4), rng.randint(2, 6)
        words = {tuple(rng.randint(1, q) for _ in range(n)) for _ in range(rng.randint(1, 12))}
        codes.append(Code(q, n, tuple(sorted(words))))
    certified = 0
    calls = _counting_calls(monkeypatch)
    for code in codes:
        for c in range(2, 7):
            for s in range(1, c):
                params = fp(c, s)
                if not certify_frameproof_by_distance(code, params).certified:
                    continue
                guards = Guards(c=8, members=len(code))
                assert find_focal_code(code, params, guards=guards) is None
                assert find_critical_focal(code, params, guards=guards) is None
                # counting refutes every focus, so no view is even built
                assert calls["viewed"] == [], (code.q, code.n, len(code), c, s)
                assert calls["_search_cover"] == []
                certified += 1
    assert certified >= 500, certified


def test_counting_bound_is_tight():
    # s * |A| == c * max |A & B| at a violating focus: counting must not
    # refute it, and the witness is still found
    fano = SubsetFamily.from_iterables(
        7, [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6], [2, 5, 7], [3, 4, 7], [3, 5, 6]]
    )
    # lines of 3 points meet in one, and 1 * 3 == 3 * 1
    _check_against_colex_brute(fano, fp(3, 1))
    assert find_focal_hypergraph(fano, fp(3, 1)).focus == 0
    assert find_critical_focal(fano, fp(3, 1)).focus == 0
    # RS(5,4,3): words agree in at most two of four coordinates,
    # and 1 * 4 == 2 * 2, 2 * 4 == 4 * 2
    code = _relabelled(rs_code(5, 4, 3), random.Random(5))
    for c, s in ((2, 1), (4, 2)):
        for search in (find_focal_code, find_critical_focal):
            w = search(code, fp(c, s))
            assert w is not None and w.focus == 0, (c, s, search)
            validate_witness(code, w, fp(c, s))
    # RS(3,3,2): words agree in at most one of three coordinates, 1 * 3 == 3 * 1
    _check_against_colex_brute(_relabelled(rs_code(3, 3, 2), random.Random(3)), fp(3, 1))


def _unrefuted_foci(obj, params, upto):
    """Foci below `upto` that the counting bound does not refute."""
    kept = []
    for focus in range(upto):
        if isinstance(obj, SubsetFamily):
            target = obj.sets[focus]
            meets = [(m & target).bit_count() for m in obj.sets]
            need = target.bit_count()
        else:
            meets = [agreement_mask(obj.words[focus], w).bit_count() for w in obj.words]
            need = obj.n
        best = max((x for i, x in enumerate(meets) if i != focus), default=0)
        if params.s * need <= params.c * best:
            kept.append(focus)
    return kept


def test_witness_after_refuted_and_searched_foci(monkeypatch):
    # seeded instances whose first violating focus comes after foci that
    # counting refutes and foci that are searched without a cover
    rng = random.Random(1414)
    mixed = 0
    for trial in range(1000):
        c = rng.randint(2, 4)
        params = fp(c, rng.randint(1, c - 1))
        if trial % 2:
            n = rng.randint(3, 6)
            obj = SubsetFamily(n, tuple(rng.sample(range(1, 1 << n), rng.randint(3, 7))))
        else:
            q, n = rng.randint(2, 3), rng.randint(2, 4)
            size = rng.randint(3, min(8, q**n))
            words = set()
            while len(words) < size:
                words.add(tuple(rng.randint(1, q) for _ in range(n)))
            obj = Code(q, n, tuple(words))
        for distinct in (False, True):
            want = _colex_least_witness(obj, params, distinct)
            if want is None:
                continue
            kept = _unrefuted_foci(obj, params, want.focus)
            if not 0 < len(kept) < want.focus:
                continue
            calls = _counting_calls(monkeypatch)
            if distinct:
                got = find_critical_focal(obj, params)
            elif isinstance(obj, SubsetFamily):
                got = find_focal_hypergraph(obj, params)
            else:
                got = find_focal_code(obj, params)
            assert got.to_json() == want.to_json(), (obj, params, distinct)
            assert got.focus == naive_find_focal(obj, params, distinct).focus
            # exactly the unrefuted foci reach the reduced search
            assert calls["viewed"] == kept + [want.focus]
            monkeypatch.undo()
            mixed += 1
    assert mixed >= 40, mixed


def _random_instance(rng, trial):
    if trial % 2:
        n = rng.randint(2, 5)
        size = rng.randint(3, min(8, (1 << n) - 1))
        return SubsetFamily(n, tuple(rng.sample(range(1, 1 << n), size)))
    q, n = rng.randint(2, 3), rng.randint(2, 4)
    size = rng.randint(3, min(8, q**n))
    words = set()
    while len(words) < size:
        words.add(tuple(rng.randint(1, q) for _ in range(n)))
    return Code(q, n, tuple(words))


def test_witness_maps_back_across_the_focus():
    # view index i is member i + (i >= focus): coalitions with members on both
    # sides of the focus must come back as the colex-least witness, on the
    # repeatable search at c=2, s=1 and at other (c, s), and on the distinct
    # search
    rng = random.Random(1515)
    straddling = {"(2,1) repeatable": 0, "repeatable": 0, "distinct": 0}
    for trial in range(600):
        c = 2 if trial % 3 == 0 else rng.randint(2, 4)
        s = 1 if c == 2 else rng.randint(1, c - 1)
        obj = _random_instance(rng, trial)
        params = fp(c, s)
        repeatable = find_focal_hypergraph if isinstance(obj, SubsetFamily) else find_focal_code
        for distinct, search in ((False, repeatable), (True, find_critical_focal)):
            got = search(obj, params)
            want = _colex_least_witness(obj, params, distinct)
            assert (got and got.to_json()) == (want and want.to_json()), (obj, params, distinct)
            if got is None:
                continue
            members = [idx for idx, _ in got.coalition.counts]
            if members[0] < got.focus < members[-1]:
                if distinct:
                    path = "distinct"
                else:
                    path = "(2,1) repeatable" if (c, s) == (2, 1) else "repeatable"
                straddling[path] += 1
    assert min(straddling.values()) >= 20, straddling


def test_focus_blocks_give_the_default_witness(monkeypatch):
    # the all-foci count runs over blocks of foci, _FOCUS_BLOCK counting the
    # cells of a block's (columns, foci, members) compare: blocks of 1, 2, 3
    # and 7 foci refute the foci of the default block and give its witness,
    # also when the witness focus lies past the first block
    import frameproof_lab.verify as verify

    rng = random.Random(1818)
    cases = [
        (SubsetFamily(3, (0b101,)), fp(2, 1)),
        (Code(3, 2, ((1, 2),)), fp(2, 1)),
        (SubsetFamily(3, (0b011, 0, 0b110)), fp(3, 2)),
    ]
    for trial in range(400):
        c = rng.randint(2, 4)
        obj = _random_instance(rng, trial)
        if trial % 4 == 1:  # an empty member somewhere in the family
            sets = list(obj.sets)
            sets.insert(rng.randint(0, len(sets)), 0)
            obj = SubsetFamily(obj.n, tuple(sets))
        cases.append((obj, fp(c, rng.randint(1, c - 1))))
    later = 0
    for obj, params in cases:
        repeatable = find_focal_hypergraph if isinstance(obj, SubsetFamily) else find_focal_code
        for distinct, search in ((False, repeatable), (True, find_critical_focal)):
            want = search(obj, params)
            want_json = want and want.to_json()
            kept = list(_surviving_foci(_scan_array(obj), params))
            for rows in (1, 2, 3, 7):
                monkeypatch.setattr(verify, "_FOCUS_BLOCK", rows * len(obj) * obj.n)
                assert list(_surviving_foci(_scan_array(obj), params)) == kept
                got = search(obj, params)
                assert (got and got.to_json()) == want_json, (obj, params, distinct, rows)
                later += got is not None and got.focus >= rows
            monkeypatch.undo()
            naive = naive_find_focal(obj, params, distinct)
            assert (naive and naive.focus) == (want and want.focus), (obj, params, distinct)
    assert later >= 200, later


def _ref_surviving_foci(obj, params):
    """Per-pair count straight from the sets or words: focus x survives iff
    s * k_x <= c * max over y != x of the agreements of x and y."""
    if isinstance(obj, SubsetFamily):
        points = [a.bit_count() for a in obj.sets]
        agree = [[(a & b).bit_count() for b in obj.sets] for a in obj.sets]
    else:
        points = [obj.n] * len(obj)
        agree = [[sum(x == y for x, y in zip(u, v)) for v in obj.words] for u in obj.words]
    size = len(obj)
    return [
        x
        for x in range(size)
        if params.s * points[x]
        <= params.c * max((agree[x][y] for y in range(size) if y != x), default=0)
    ]


def test_count_pass_matches_the_per_pair_count(monkeypatch):
    # seeded random codes and families, empty members, a single member,
    # words of length 64 and symbols near 2**40 (only equality is read, so
    # nothing depends on q), at several block sizes down to one focus
    import frameproof_lab.verify as verify

    rng = random.Random(7373)
    cases = [
        SubsetFamily(3, (0,)),
        SubsetFamily(3, (0b101,)),
        Code(3, 2, ((1, 2),)),
        SubsetFamily(4, (0b0011, 0, 0b0110, 0b1111, 0b1000)),
        Code(2, 64, tuple(tuple(rng.randint(1, 2) for _ in range(64)) for _ in range(9))),
        SubsetFamily(64, tuple(sorted({rng.getrandbits(64) for _ in range(12)}))),
    ]
    big = 2**40
    words = {tuple(rng.randint(big, big + 3) for _ in range(5)) for _ in range(40)}
    cases.append(Code(big + 3, 5, tuple(sorted(words))))
    for trial in range(240):
        if trial % 2:
            n = rng.randint(1, 9)
            sets = rng.sample(range(1 << n), min(1 << n, rng.randint(1, 30)))
            cases.append(SubsetFamily(n, tuple(sets)))
        else:
            q, n = rng.randint(2, 6), rng.randint(1, 8)
            words = {tuple(rng.randint(1, q) for _ in range(n)) for _ in range(rng.randint(1, 30))}
            cases.append(Code(q, n, tuple(sorted(words))))
    seen = Counter()
    for obj in cases:
        c = rng.randint(2, 6)
        params = fp(c, rng.randint(1, c - 1))
        want = _ref_surviving_foci(obj, params)
        rows = _scan_array(obj)
        for block in (1, 2 * obj.n + 1, 3 * len(obj) * obj.n, 1 << 18):
            monkeypatch.setattr(verify, "_FOCUS_BLOCK", block)
            assert list(_surviving_foci(rows, params)) == want, (obj, params, block)
        seen["some refuted"] += len(want) < len(obj)
        seen["some kept"] += bool(want)
    assert min(seen.values()) >= 60, seen


def test_reference_paths_do_not_use_the_kernels(monkeypatch):
    # naive_find_focal and validate_witness count from the words themselves,
    # without the kernels, the cover search or the dominance rule
    from frameproof_lab import _kernels

    rng = random.Random(99)
    cases = []
    for trial in range(0, 80, 2):  # codes only
        code = _random_instance(rng, trial)
        c = rng.randint(2, 3)
        params = fp(c, rng.randint(1, c - 1))
        for distinct in (False, True):
            search = find_critical_focal if distinct else find_focal_code
            cases.append((code, params, distinct, search(code, params)))

    def broken(*args, **kwargs):
        raise RuntimeError("scan path called")

    monkeypatch.setattr(_kernels, "agreement_masks", broken)
    import frameproof_lab.verify as verify

    for name in ("_search_cover", "_reduced_key", "_dominance"):
        monkeypatch.setattr(verify, name, broken)
    witnesses = 0
    for code, params, distinct, want in cases:
        got = naive_find_focal(code, params, distinct)
        assert (None if got is None else got.focus) == (None if want is None else want.focus)
        if want is None:
            continue
        validate_witness(code, want, params)
        bogus = FocalWitness("code", want.focus, want.coalition, distinct)
        with pytest.raises(WitnessError):
            validate_witness(code, bogus, fp(params.c + 1, params.s))
        witnesses += 1
    assert witnesses >= 10, witnesses
