import random
from itertools import combinations

import numpy as np
import pytest

from frameproof_lab import _kernels as kernels


def test_min_pairwise_distance():
    words = np.array([[1, 1, 1], [1, 1, 2], [3, 3, 3]])
    assert kernels.min_pairwise_distance(words) == 1
    rng = np.random.default_rng(5)
    big = rng.integers(1, 4, size=(40, 8))
    ref = min(
        int((big[i] != big[j]).sum())
        for i in range(40)
        for j in range(i + 1, 40)
    )
    assert kernels.min_pairwise_distance(big) == ref


def test_min_pairwise_distance_blocks():
    rng = random.Random(17)
    # 600 words need two row blocks of the 256 K-cell count
    words = [[rng.randint(1, 3) for _ in range(12)] for _ in range(600)]
    assert kernels.min_pairwise_distance(np.array(words)) == _ref_distance(words)
    # a duplicate pair in the second block, then in the first: distance 0
    for i, j in ((550, 599), (0, 3)):
        dup = [list(w) for w in words]
        dup[j] = list(dup[i])
        assert kernels.min_pairwise_distance(np.array(dup)) == 0 == _ref_distance(dup)
    # two words
    assert kernels.min_pairwise_distance(np.array([[1, 2, 3], [3, 2, 1]])) == 2
    assert kernels.min_pairwise_distance(np.array([[4, 4], [4, 4]])) == 0
    # n >= 255 counts past the uint8 range
    long_words = [[rng.randint(1, 2) for _ in range(300)] for _ in range(6)]
    long_words.append([3] * 300)
    assert kernels.min_pairwise_distance(np.array(long_words)) == _ref_distance(long_words)
    far = np.array([[1] * 300, [2] * 300])
    assert kernels.min_pairwise_distance(far) == 300


def test_agreement_masks():
    words = np.array([[1, 2, 3], [1, 2, 4], [5, 2, 3]])
    masks = kernels.agreement_masks(words, 0)
    assert list(masks) == [0b111, 0b011, 0b110]


def test_cover_pair_scan():
    masks = np.array([0b001, 0b010, 0b100, 0b110], dtype=np.uint64)
    assert kernels.cover_pair_scan(masks, 0b111) == (0, 3)
    assert kernels.cover_pair_scan(masks, 0b1111) is None
    # a single mask covering the target pairs with itself
    solo = np.array([0b11], dtype=np.uint64)
    assert kernels.cover_pair_scan(solo, 0b11) == (0, 0)


def test_max_subfamily_avoiding():
    # forbid {0,1} and {1,2}: best is {0,2} (size 2, smallest mask 0b101)
    assert kernels.max_subfamily_avoiding([0b011, 0b110], 3) == (2, 0b101)
    assert kernels.max_subfamily_avoiding([], 3) == (3, 0b111)
    with pytest.raises(ValueError):
        kernels.max_subfamily_avoiding([0], 3)
    with pytest.raises(ValueError):
        kernels.max_subfamily_avoiding([1], 30)
    # a support reaching outside [0..m) forbids nothing
    assert kernels.max_subfamily_avoiding([0b1000], 3) == (3, 0b111)
    # m <= 12 is one block, with no high part
    assert kernels.max_subfamily_avoiding([], 0) == (0, 0)
    assert kernels.max_subfamily_avoiding([0b1], 1) == (0, 0)
    path = [0b11 << i for i in range(11)]
    assert kernels.max_subfamily_avoiding(path, 12) == (6, 0x555) == _ref_sweep(path, 12)


def test_max_subfamily_avoiding_nested_and_duplicate_supports():
    # 0b001 alone decides: every other support contains it
    supports = [0b001, 0b011, 0b111, 0b011]
    assert kernels.max_subfamily_avoiding(supports, 3) == (2, 0b110)
    assert kernels.max_subfamily_avoiding(supports, 3) == _ref_sweep(supports, 3)
    supports = [0b0110, 0b1110, 0b0111, 0b1001, 0b1001, 0b1101]
    assert kernels.max_subfamily_avoiding(supports, 4) == _ref_sweep(supports, 4)


def test_max_subfamily_avoiding_m20():
    # forbid each pair {2i, 2i+1}, plus supersets of some of them: one
    # point per pair survives, the smallest mask takes the even points
    pairs = [0b11 << (2 * i) for i in range(10)]
    nested = [0b111, 0b1111, (1 << 20) - 1, 0b11 << 18]
    assert kernels.max_subfamily_avoiding(pairs + nested, 20) == (10, 0x55555)
    assert kernels.max_subfamily_avoiding([], 20) == (20, (1 << 20) - 1)


def test_max_subfamily_avoiding_m24():
    # 12 high and 12 low bits: 4096 blocks, the pairs of the high part make
    # most of them dead
    pairs = [0b11 << (2 * i) for i in range(12)]
    assert kernels.max_subfamily_avoiding(pairs, 24) == (12, 0x555555)


def test_max_subfamily_avoiding_dead_blocks():
    # supports with an empty low part kill every block whose high part
    # contains them
    high = [0b11 << 12, 0b11 << 14, 1 << 16 | 1 << 12]
    low = [0b111, 0b11 << 9, 1 << 5 | 1 << 13]
    for m in (15, 17):
        supports = [s for s in high + low if not s >> m]
        assert kernels.max_subfamily_avoiding(supports, m) == _ref_sweep(supports, m)
    # every mask with bit 12 is dead: the optimum avoids it
    assert kernels.max_subfamily_avoiding([1 << 12], 13) == (12, 0xFFF)


def test_max_subfamily_avoiding_ties_across_blocks():
    # size 12 in blocks 0, 1 and 2; the smallest mask is all of block 0
    supports = [1 << 12 | 1 << 13, 1 << 12 | 1, 1 << 13 | 1 << 1]
    assert kernels.max_subfamily_avoiding(supports, 14) == (12, 0xFFF)
    assert _ref_sweep(supports, 14) == (12, 0xFFF)
    # forbid {0, 1} too: block 0 drops to 11, blocks 1 and 2 tie at 12 and
    # block 1 holds the smaller mask
    supports.append(0b11)
    assert kernels.max_subfamily_avoiding(supports, 14) == (12, 1 << 12 | 0xFFE)
    assert _ref_sweep(supports, 14) == (12, 1 << 12 | 0xFFE)


def test_max_subfamily_avoiding_straddling_supports():
    # each support holds bits on both sides of the high/low split; a few
    # small supports keep the optimum large enough for the reference sweep
    rng = random.Random(2024)
    for m in range(13, 22):
        for _ in range(3):
            supports = []
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(2, 4)
                bits = {rng.randrange(12), rng.randrange(12, m)}
                while len(bits) < size:
                    bits.add(rng.randrange(m))
                supports.append(sum(1 << b for b in bits))
            assert kernels.max_subfamily_avoiding(supports, m) == _ref_sweep(supports, m), (
                m,
                supports,
            )


def _ref_distance(words):
    return min(
        sum(1 for x, y in zip(u, v) if x != y) for u, v in combinations(words, 2)
    )


def _ref_agreement(words, focus):
    return [
        sum(1 << k for k, (x, y) in enumerate(zip(w, words[focus])) if x == y)
        for w in words
    ]


def _ref_pair_scan(masks, target):
    # colex order on pairs a <= b: b ascending, then a ascending
    for b in range(len(masks)):
        for a in range(b + 1):
            if (masks[a] | masks[b]) & target == target:
                return a, b
    return None


def _ref_sweep(supports, m):
    # largest size first; within a size, combinations come in lexicographic
    # order, so take the numerically smallest mask explicitly
    for size in range(m, -1, -1):
        masks = [
            sum(1 << i for i in members) for members in combinations(range(m), size)
        ]
        ok = [mk for mk in masks if not any(mk & s == s for s in supports)]
        if ok:
            return size, min(ok)
    raise AssertionError("the empty subfamily always qualifies")


def test_kernels_match_reference_on_random_instances():
    rng = random.Random(999)
    for _ in range(25):
        m = rng.randint(2, 30)
        n = rng.randint(1, 16)
        words = [[rng.randint(1, 4) for _ in range(n)] for _ in range(m)]
        arr = np.array(words)
        assert kernels.min_pairwise_distance(arr) == _ref_distance(words)
        focus = rng.randrange(m)
        assert [int(v) for v in kernels.agreement_masks(arr, focus)] == (
            _ref_agreement(words, focus)
        )
    for _ in range(25):
        m = rng.randint(1, 40)
        bits = rng.randint(1, 12)
        masks = [rng.randrange(1 << bits) for _ in range(m)]
        target = rng.randrange(1, 1 << bits)
        arr = np.array(masks, dtype=np.uint64)
        assert kernels.cover_pair_scan(arr, target) == _ref_pair_scan(masks, target)
    for _ in range(25):
        m = rng.randint(1, 12)
        supports = [rng.randrange(1, 1 << m) for _ in range(rng.randint(0, 20))]
        assert kernels.max_subfamily_avoiding(supports, m) == _ref_sweep(supports, m)


def _ref_minimal_antichain(supports):
    # the pairwise containment test the level-wise walk replaced
    if supports.size < 2:
        return supports
    keep = np.ones(supports.shape, dtype=bool)
    step = max(1, (1 << 20) // supports.size)
    for lo in range(0, supports.size, step):
        rows = supports[lo : lo + step, None]
        inside = ((rows & supports) == supports) & (rows != supports)
        keep[lo : lo + step] = ~inside.any(axis=1)
    return supports[keep]


def test_minimal_antichain_matches_the_pairwise_test():
    rng = random.Random(2024)
    cases = [[], [5], [1, 3], [3, 5, 6], [0b11 << i for i in range(23)]]
    for _ in range(60):
        m = rng.randint(1, 24)
        count = rng.randint(0, 400)
        # bias toward small supports so that containments are common
        cases.append([
            sum(1 << b for b in rng.sample(range(m), rng.randint(1, min(m, 6))))
            for _ in range(count)
        ])
    for case in cases:
        supports = np.array(sorted(set(case)), dtype=np.uint32)
        got = kernels._minimal_antichain(supports)
        assert got.dtype == supports.dtype
        assert got.tolist() == _ref_minimal_antichain(supports).tolist()
