import hashlib
import json
import random
from functools import cache
from itertools import permutations, product
from math import comb
from pathlib import Path

import pytest

from frameproof_lab import _kernels, constructions
from frameproof_lab.core import (
    FormatError,
    FrameproofParams,
    GuardError,
    ParameterError,
    SubsetFamily,
    WitnessError,
    enumerate_subsets,
    points_from_mask,
)
from frameproof_lab.constructions import (
    MultipartiteView,
    certify_frameproof_by_distance,
    code_to_multipartite,
    faithful_code_family,
    greedy_multiset_partition,
    greedy_packing,
    induced_packing_family,
    load_design,
    matching_complement_pattern,
    packing_to_frameproof,
    rs_code,
)
from frameproof_lab.verify import (
    Code,
    agreement_mask,
    find_focal_code,
    find_focal_hypergraph,
    own_subsequence_census,
)
from frameproof_lab.core import own_subset_index

DATA = Path(__file__).parent / "data"


def fp(c, s):
    return FrameproofParams(c, s)


# --- multiset partition ----------------------------------------------------


def test_partition_examples():
    parts = greedy_multiset_partition(0b1111, [0b0011], fp(3, 1))
    assert [points_from_mask(m) for m in parts] == [(3,), (4,)]

    parts = greedy_multiset_partition(0b1111, [0b0011, 0b1100, 0b0101], fp(5, 2))
    assert [points_from_mask(m) for m in parts] == [(2,), (4,)]

    assert greedy_multiset_partition(0b1111, [0b0011, 0b1100], fp(2, 1)) == []


def test_partition_identity_postcondition():
    a = 0b1111
    given = [0b0111, 0b1110]  # lam=2 for (c=3, s=2, k=4): t=3
    parts = greedy_multiset_partition(a, given, fp(3, 2))
    assert parts == [0b1001]
    counts = {p: 0 for p in points_from_mask(a)}
    for m in given + parts:
        for p in points_from_mask(m):
            counts[p] += 1
    assert all(v == 2 for v in counts.values())
    assert all(m.bit_count() == 2 for m in parts)


def test_partition_errors():
    with pytest.raises(WitnessError):
        greedy_multiset_partition(0b1111, [], fp(3, 1))  # wrong count
    with pytest.raises(WitnessError):
        greedy_multiset_partition(0b1111, [0b10011], fp(3, 1))  # not inside A
    with pytest.raises(WitnessError):
        greedy_multiset_partition(0b1111, [0b0111], fp(3, 1))  # wrong size
    with pytest.raises(WitnessError):
        # {1,2},{1,2},{1,2} puts point 1 in 3 > s parts for (c=5, s=2)
        greedy_multiset_partition(0b1111, [0b0011, 0b0011, 0b0011], fp(5, 2))


# --- Reed-Solomon ----------------------------------------------------------


def test_rs_examples():
    code = rs_code(5, 5, 3)
    assert len(code) == 125
    code2 = rs_code(3, 3, 2)
    assert len(code2) == 9
    with pytest.raises(ParameterError):
        rs_code(2, 3, 1)
    with pytest.raises(ParameterError):
        rs_code(6, 3, 2)  # not a prime power
    with pytest.raises(ParameterError):
        rs_code(5, 3, 4)  # t > n


def test_rs_distance_scan():
    # independent pairwise scan confirms d = n - t + 1
    for q, n, t in [(5, 5, 3), (3, 3, 2), (4, 4, 2), (7, 5, 2)]:
        code = rs_code(q, n, t)
        words = code.words
        d = min(
            sum(1 for a, b in zip(words[i], words[j]) if a != b)
            for i in range(len(words))
            for j in range(i + 1, len(words))
        )
        assert d == n - t + 1


# SHA-256 of the compact JSON of rs_code(q, n, t), as built by per-message
# Horner evaluation: prime fields, GF(4), GF(8), GF(16), GF(9), GF(25),
# GF(27), t = 1..4, and codes over 4096 words, where the distance comes
# from the nonzero weights
RS_PINS = {
    (2, 2, 1): "f83d6e801c20751babca7d748f9c04e1ceb9287a5e950a1027a403cf97c518f6",
    (2, 2, 2): "a2dcae2c89abd6d52968e0679b68084be1f694fccf68bb108259d9c65020c97d",
    (3, 3, 2): "4e4b0c01e6df749e3cc52048579f05c4bd0fd7aa5c8501a7cc29457e11152762",
    (5, 5, 3): "41234164b2fb14d610cd9a2fb8837ce3e5e428a4546f065902591a436f05a2e1",
    (7, 4, 4): "53b8d1df8def9a32e32ffff0818550f767da43cf95ff547e96f30b73bb5db78e",
    (11, 6, 2): "2ea4462c91c49a18696ac9b762ca84b302eb71cb8cddd46b3b95bd7bbd468e41",
    (13, 5, 3): "5fa596c2586a02ace40561ae7d4fb2252fbe4d262227cc166c80eb049eccb822",
    (4, 4, 2): "ceca70bae369e3628ef2feb357964e734ba367289f7a82d5e0e7eab941aa2b36",
    (4, 3, 3): "b17e52c4e0067914d27274c59f4a527daf6905936c1da72a350212e75fdf5d42",
    (4, 4, 4): "90fcfba09b12266dd27228ff93a50e1ae0bd2f28baee1b86f883dcf791ba47a5",
    (8, 8, 2): "aaf59cb124297cb01a1c0386532161568cb5c097d63564325429b098a83de627",
    (8, 5, 3): "0921cee621655dc4a0662f9b0ed88923fadf5c1a13fb3c5d1cdd54110f8ff4cd",
    (8, 6, 4): "66061f2a951e580950ab6aacae393e4083d1a5496863fefa3793a4272c0fc0e2",
    (16, 16, 2): "2862c1709dd24c4859cb2b56f954d6bb1fa2793d121b1541c6096d41c80d5bd9",
    (16, 4, 3): "6f3198c4f9805bfd386c1538a2425cba6df7268db993aee829dd0a093ffa39ff",
    (9, 9, 2): "090ad4a83ccd18fad5258504d94998d376739dcd6a0eeeb0448760d7ceb3ee62",
    (9, 4, 3): "1ca6b116101d1e3ce981fe1ba2496bdc569331f275b8b36d7c95185e30ecb213",
    (27, 5, 2): "bbd050e931c5acbdc9145c718028c261dc2d735f2d7a99d00afbf4f96a669f92",
    (25, 6, 2): "44e244fc2403a90b4d995964f29e253c64a1842c3e73bb00493adc03c93c7edd",
    (17, 4, 3): "f7f0390ef382188cafeec0c364bc4425a056478a505f40ac7f5d2b01f2378237",
    (9, 5, 4): "06c0ee24dcb7d58decc78afe40e9f4c54808b2c2637362e48a99835bdd7c83a6",
}


@pytest.mark.parametrize("qnt", sorted(RS_PINS))
def test_rs_code_pinned_words(qnt):
    doc = json.dumps(rs_code(*qnt).to_json(), separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == RS_PINS[qnt]


def test_code_distance_computed_once(monkeypatch):
    calls = []
    kernel = _kernels.min_pairwise_distance

    def counting(words):
        calls.append(len(words))
        return kernel(words)

    monkeypatch.setattr(_kernels, "min_pairwise_distance", counting)
    # an RS build takes its distance from the least nonzero weight
    for q, n, t, d in ((7, 5, 2, 4), (17, 4, 3, 2)):
        code = rs_code(q, n, t)
        assert certify_frameproof_by_distance(code, fp(2, 1)).distance == d
    assert calls == []
    # any other code computes its pairwise distance once, then reuses it
    words = tuple(rs_code(5, 4, 2).words[1:])
    code = Code(5, 4, words)
    assert certify_frameproof_by_distance(code, fp(2, 1)).distance == 3
    assert certify_frameproof_by_distance(code, fp(3, 1)).distance == 3
    assert code.min_distance == 3
    assert calls == [24]


def test_distance_certificates():
    cert = certify_frameproof_by_distance(rs_code(5, 5, 3), fp(2, 1))
    assert cert.certified and cert.distance == 3 and cert.threshold == 2

    cert2 = certify_frameproof_by_distance(Code(2, 2, ((1, 1), (2, 2))), fp(2, 1))
    assert cert2.certified and cert2.distance == 2

    cert3 = certify_frameproof_by_distance(Code(2, 2, ((1, 1), (1, 2))), fp(2, 1))
    assert not cert3.certified

    single = certify_frameproof_by_distance(Code(2, 2, ((1, 1),)), fp(2, 1))
    assert single.certified and single.distance is None


# --- packings and designs ---------------------------------------------------


def test_greedy_packing_examples():
    fano = greedy_packing(7, 3, 2)
    assert len(fano.family) == 7 and fano.is_design
    fano.validate()

    p632 = greedy_packing(6, 3, 2)
    assert [points_from_mask(m) for m in p632.family.sets] == [
        (1, 2, 3),
        (1, 4, 5),
        (2, 4, 6),
        (3, 5, 6),
    ]
    assert not p632.is_design

    p421 = greedy_packing(4, 2, 1)
    assert [points_from_mask(m) for m in p421.family.sets] == [(1, 2), (3, 4)]
    # a family not declared uniform has no block size, also under python -O
    undeclared = constructions.Packing(SubsetFamily(4, p421.family.sets), 1, False)
    with pytest.raises(ParameterError):
        undeclared.k
    mixed = constructions.Packing(SubsetFamily.from_iterables(5, [[1, 2, 3], [3, 4]]), 2, False)
    with pytest.raises(ParameterError, match="not declared uniform"):
        mixed.validate()

    with pytest.raises(ParameterError):
        greedy_packing(3, 3, 2)
    with pytest.raises(ParameterError):
        greedy_packing(7, 3, 2, order="seeded-random")  # seed required
    with pytest.raises(ParameterError, match="seeded-random order"):
        greedy_packing(8, 3, 2, seed=3)  # colex takes no seed


def test_greedy_packing_seeded_random_is_deterministic():
    a = greedy_packing(8, 3, 2, order="seeded-random", seed=11)
    b = greedy_packing(8, 3, 2, order="seeded-random", seed=11)
    assert a.family.sets == b.family.sets
    a.validate()


def test_packing_to_frameproof():
    fano = greedy_packing(7, 3, 2)
    chk = packing_to_frameproof(fano, fp(4, 2))
    assert chk.checked and chk.witness is None

    pair = greedy_packing(4, 2, 1)
    chk2 = packing_to_frameproof(pair, fp(2, 1))
    assert chk2.checked and chk2.witness is None

    p932 = greedy_packing(9, 3, 2)
    chk3 = packing_to_frameproof(p932, fp(4, 2))
    assert chk3.checked and chk3.witness is None

    with pytest.raises(ParameterError):
        packing_to_frameproof(fano, fp(3, 1))  # strength mismatch: ceil(3/3) = 1 != 2


def test_load_design_files():
    fano = load_design(DATA / "fano.txt")
    assert len(fano.family) == 7 and fano.is_design
    s239 = load_design(DATA / "s239.txt")
    assert len(s239.family) == 12 and s239.is_design


def test_load_design_errors(tmp_path):
    doubled = tmp_path / "bad.txt"
    doubled.write_text("7 3 2\n1 2 3\n1 2 4\n1 5 6\n2 5 7\n3 4 7\n4 5 7\n3 6 7\n")
    with pytest.raises(FormatError, match="covered more than once"):
        load_design(doubled)

    short = tmp_path / "short.txt"
    short.write_text("7 3 2\n1 2 3\n")
    with pytest.raises(FormatError, match="blocks"):
        load_design(short)

    baddiv = tmp_path / "baddiv.txt"
    baddiv.write_text("7 4 3\n1 2 3 4\n")
    with pytest.raises(FormatError, match="divisible"):
        load_design(baddiv)

    badheader = tmp_path / "badheader.txt"
    badheader.write_text("7 3\n1 2 3\n")
    with pytest.raises(FormatError, match="header"):
        load_design(badheader)


# --- induced packings -------------------------------------------------------


def test_matching_complement_pattern():
    pat = matching_complement_pattern(3, 4, 2)
    assert len(pat) == comb(3, 2)  # m = 0, the pattern is everything
    pat2 = matching_complement_pattern(4, 2, 1)
    assert len(pat2) == comb(4, 2) - 3


def test_induced_packing_examples():
    packing, family = induced_packing_family(3, 4, 2, 7)
    assert len(packing.copies) == 7  # the triangle packs like a Steiner system
    packing.validate(7)
    assert find_focal_hypergraph(family, fp(4, 2)) is None

    packing2, family2 = induced_packing_family(4, 2, 1, 9)
    packing2.validate(9)
    assert len(packing2.copies) >= 2
    assert find_focal_hypergraph(family2, fp(2, 1)) is None

    packing3, family3 = induced_packing_family(3, 4, 2, 7, budget=0)
    assert len(packing3.copies) == 0 and len(family3) == 0


def test_cheap_checks_precede_the_pattern_solve(monkeypatch):
    def unexpected(*args):
        raise AssertionError("pattern solved or candidates listed before the argument checks")

    monkeypatch.setattr(constructions, "matching_complement_pattern", unexpected)
    monkeypatch.setattr(constructions, "enumerate_subsets", unexpected)
    with pytest.raises(GuardError):
        faithful_code_family(8, 6, 3, 6)  # 6^8 candidate words
    with pytest.raises(ParameterError):
        faithful_code_family(4, 3, 2, 1)
    with pytest.raises(ParameterError, match=r"word length n=0 must be >= 1"):
        faithful_code_family(0, 3, 2, 4)
    with pytest.raises(ParameterError):
        induced_packing_family(8, 6, 3, 5)  # n < k
    # C(24,12) and more candidate sets exceed MAX_CODEWORDS, budget or not
    assert comb(24, 12) > constructions.MAX_CODEWORDS
    with pytest.raises(GuardError, match="candidate sets exceed the cap"):
        greedy_packing(64, 32, 2)
    with pytest.raises(GuardError, match="candidate sets exceed the cap"):
        greedy_packing(24, 12, 2, order="seeded-random", seed=1)
    with pytest.raises(GuardError, match="candidate sets exceed the cap"):
        induced_packing_family(12, 2, 1, 24, budget=5)


def test_negative_budgets_rejected():
    with pytest.raises(ParameterError):
        induced_packing_family(3, 4, 2, 7, budget=-1)
    with pytest.raises(ParameterError):
        faithful_code_family(4, 3, 2, 4, budget=-1)


def test_induced_packing_seeded():
    p1, f1 = induced_packing_family(3, 4, 2, 8, seed=5)
    p2, f2 = induced_packing_family(3, 4, 2, 8, seed=5)
    assert f1.sets == f2.sets
    p1.validate(8)
    assert find_focal_hypergraph(f1, fp(4, 2)) is None


# --- multipartite transform -------------------------------------------------


def test_pi_transform_examples():
    view, fam = code_to_multipartite(Code(2, 2, ((1, 2), (2, 1))))
    assert points_from_mask(view.word_mask((1, 2))) == (1, 4)
    for w in ((1, 2), (2, 1), (1, 1), (2, 2)):
        assert view.inverse(view.word_mask(w)) == w
    assert fam.uniform_k == 2


def test_pi_census_correspondence_example():
    code = Code(2, 2, ((1, 1), (1, 2)))
    view, fam = code_to_multipartite(code)
    census = own_subsequence_census(code, 1)
    idx = own_subset_index(fam, 1)
    for i, word in enumerate(code.words):
        own_ts = {view.coordinates_mask(m) for m in idx[i][0]}
        assert own_ts == set(census.own[i])


def test_pi_ground_cap():
    with pytest.raises(ParameterError):
        code_to_multipartite(rs_code(9, 9, 2))


def test_pi_view_rejects_nonpositive_sizes():
    with pytest.raises(ParameterError, match="alphabet size q=-3"):
        MultipartiteView(-3, -4)
    with pytest.raises(ParameterError, match="alphabet size q=1"):
        MultipartiteView(1, 3)
    with pytest.raises(ParameterError, match="word length n=0"):
        MultipartiteView(3, 0)
    assert MultipartiteView(2, 1).ground == 2


# --- faithful code families ---------------------------------------------------


def test_faithful_examples():
    code = faithful_code_family(3, 2, 1, 3)
    assert 1 <= len(code) <= 9
    assert find_focal_code(code, fp(2, 1)) is None

    code2 = faithful_code_family(4, 2, 1, 4)
    assert len(code2) <= 16
    assert find_focal_code(code2, fp(2, 1)) is None

    assert len(faithful_code_family(3, 2, 1, 3, budget=0)) == 0


# the words of faithful_code_family(7, 5, 2, 4) as they were when its
# inner (5,2,7) matching number took an 8.3 M-node search
FAITHFUL_7_5_2_4 = [
    [1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 2, 2, 2, 2], [1, 1, 1, 3, 3, 3, 3], [1, 1, 1, 4, 4, 4, 4],
    [1, 2, 2, 1, 1, 2, 3], [1, 2, 2, 2, 2, 1, 4], [1, 2, 2, 3, 3, 4, 1], [1, 2, 2, 4, 4, 3, 2],
    [1, 3, 3, 1, 1, 3, 4], [1, 3, 3, 2, 2, 4, 3], [1, 3, 3, 3, 3, 1, 2], [1, 3, 3, 4, 4, 2, 1],
    [1, 4, 4, 1, 1, 4, 2], [1, 4, 4, 2, 2, 3, 1], [1, 4, 4, 3, 3, 2, 4], [1, 4, 4, 4, 4, 1, 3],
]


def test_faithful_inner_solve_stops_at_the_interval_cap(monkeypatch):
    # m(7,3,4;3,4) = 20 meets its interval cap at the 20th node
    solve = constructions.matching_number_exact
    certs = []

    def recording(*args, **kwargs):
        certs.append(solve(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(constructions, "matching_number_exact", recording)
    code = faithful_code_family(7, 5, 2, 4)
    assert [cert.explored for cert in certs] == [20]
    assert (certs[0].value, certs[0].status) == (20, "exact")
    assert [list(word) for word in code.words] == FAITHFUL_7_5_2_4


def test_faithful_agreement_conditions():
    code = faithful_code_family(4, 3, 2, 3, seed=2)
    pattern = set(matching_complement_pattern(4, 3, 2).sets)
    t = matching_complement_pattern(4, 3, 2).uniform_k
    for i in range(len(code)):
        for j in range(i + 1, len(code)):
            mask = 0
            for pos, (a, b) in enumerate(zip(code.words[i], code.words[j])):
                if a == b:
                    mask |= 1 << pos
            assert mask.bit_count() <= t
            if mask.bit_count() == t:
                assert mask not in pattern


def _ref_faithful(n, c, s, q, seed, budget):
    """The greedy as a plain loop over candidates and accepted words."""
    pattern = matching_complement_pattern(n, c, s)
    t, edges = pattern.uniform_k, set(pattern.sets)
    words = list(product(range(1, q + 1), repeat=n))
    if seed is not None:
        random.Random(seed).shuffle(words)
    accepted = []
    for w in words[:budget]:
        masks = [agreement_mask(w, u) for u in accepted]
        if all(m.bit_count() < t or (m.bit_count() == t and m not in edges) for m in masks):
            accepted.append(w)
    return accepted


# (seed, budget) runs of the shapes at the scan's dtype boundaries and of a
# benchmark shape; every other shape runs each seed in (None, 0, 11) with each
# budget in (None, 0, 1, 7, q^n // 2)
_FAITHFUL_RUNS = {
    (10, 2, 1, 2): [(None, None), (11, None), (0, 300)],  # masks wider than 8 bits
    (2, 2, 1, 257): [(None, 400), (11, 400)],  # symbols wider than 8 bits
    (2, 2, 1, 256): [(None, 400), (11, 400)],  # symbol 256 from an 8-bit column
    (6, 3, 2, 4): [(1, 1200)],
}


@pytest.mark.parametrize("ncsq", [(3, 2, 1, 3), (4, 2, 1, 4), (4, 3, 2, 4), (5, 3, 2, 3),
                                  (3, 4, 3, 4), (5, 4, 3, 2), *_FAITHFUL_RUNS])
def test_faithful_matches_reference_greedy(ncsq):
    n, c, s, q = ncsq
    runs = _FAITHFUL_RUNS.get(ncsq) or [
        (seed, budget) for seed in (None, 0, 11) for budget in (None, 0, 1, 7, q**n // 2)
    ]
    for seed, budget in runs:
        code = faithful_code_family(n, c, s, q, seed=seed, budget=budget)
        assert list(code.words) == _ref_faithful(n, c, s, q, seed, budget)


def _ref_induced(k, c, s, n, seed, budget):
    """The induced greedy as a plain loop over candidates, embeddings and
    accepted copies, with every packing condition tested directly."""
    if budget is not None and budget < 0:
        raise ParameterError(f"budget {budget} must be >= 0")
    if not n >= k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    pattern = constructions.matching_complement_pattern(k, c, s)
    t = pattern.uniform_k
    candidates = enumerate_subsets(n, k)
    if seed is not None:
        random.Random(seed).shuffle(candidates)
    copies, vmasks, edge_sets, used_edges = [], [], [], set()
    for vmask in candidates[:budget]:
        overlaps = [vmask & w for w in vmasks]
        if any(o.bit_count() > t for o in overlaps):
            continue
        vpoints = points_from_mask(vmask)
        for perm in permutations(range(k)):
            verts = tuple(vpoints[i] for i in perm)
            edges = {constructions._embed_mask(e, verts) for e in pattern.sets}
            if edges & used_edges:
                continue
            if all(
                o.bit_count() < t or (o not in edges and o not in edge_sets[j])
                for j, o in enumerate(overlaps)
            ):
                copies.append((verts, tuple(sorted(edges))))
                vmasks.append(vmask)
                edge_sets.append(edges)
                used_edges |= edges
                break
    return t, tuple(copies), tuple(vmasks)


def _induced(k, c, s, n, seed, budget):
    packing, family = induced_packing_family(k, c, s, n, seed=seed, budget=budget)
    return packing.t, packing.copies, family.sets


def _outcome(greedy, case):
    try:
        return greedy(*case)
    except ParameterError as exc:
        return str(exc)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_induced_matches_reference_greedy(k, monkeypatch):
    # the pattern is solved once per (k, c, s) for both greedies
    monkeypatch.setattr(
        constructions, "matching_complement_pattern", cache(matching_complement_pattern)
    )
    rng = random.Random(k)
    for c in range(2, 7):
        for s in range(1, c):
            for n in range(k - 1, k + 5):
                for seed in (None, rng.randrange(1 << 30)):
                    # unbudgeted, the plain loop takes up to 0.1 s a case at
                    # k = 5 on 8 or 9 points, and 1.5 s at k = 6 on 10
                    full = k < 5 or n <= k + 2
                    for budget in (None, 0, 1, 5, -1) if full else (0, 1, 5):
                        case = (k, c, s, n, seed, budget)
                        assert _outcome(_induced, case) == _outcome(_ref_induced, case), case


def test_induced_matches_reference_greedy_on_high_bits():
    # masks on 62 or 64 points use bits above 2^53, which a float cannot hold
    for case in [(3, 4, 2, 62, 11, 2000), (3, 3, 2, 64, 1, 1000)]:
        t, copies, vmasks = _induced(*case)
        assert max(vmasks) >> 53
        assert (t, copies, vmasks) == _ref_induced(*case), case


# --- the packing greedy against its reference loop ----------------------------


def _ref_packing(n, k, t, order="colex", seed=None):
    """The packing greedy as a plain loop over candidates and accepted blocks."""
    candidates = enumerate_subsets(n, k)
    if order == "seeded-random":
        random.Random(seed).shuffle(candidates)
    accepted = []
    for cand in candidates:
        if all((cand & block).bit_count() < t for block in accepted):
            accepted.append(cand)
    return accepted


def test_packing_matches_reference_greedy():
    small = [(n, k, t) for n in range(3, 11) for k in range(2, n) for t in range(1, k)]
    # blocks on 64 points reach bit 63, which a float cannot hold
    for case in small + [(64, 2, 1), (64, 3, 1), (16, 8, 7)]:
        for seed in (None, 0, 19):
            order = "colex" if seed is None else "seeded-random"
            packing = greedy_packing(*case, order=order, seed=seed)
            assert list(packing.family.sets) == _ref_packing(*case, order, seed), (case, seed)
    assert max(greedy_packing(64, 2, 1).family.sets) >> 63
