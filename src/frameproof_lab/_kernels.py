"""Hot numeric kernels, vectorized with numpy.

The exhaustive searches in this package spend their time in four regular
loops: pairwise Hamming distances, per-focus agreement masks, the order-2
coalition scan, and the 2^M subfamily sweep of the brute-force matching
oracle.  The sweep runs over the inclusion-minimal antichain of the
forbidden supports, in uint32 masks with int8 sizes.  Each kernel is exact.
"""

from __future__ import annotations

import numpy as np

_BIT_WEIGHTS = (np.uint64(1) << np.arange(64, dtype=np.uint64))


def min_pairwise_distance(words: np.ndarray) -> int:
    """Minimum Hamming distance over all word pairs; words is an (M, n) array."""
    if words.shape[0] < 2:
        raise ValueError("need at least two words")
    words = np.ascontiguousarray(words, dtype=np.int64)
    m, n = words.shape
    best = n + 1
    for i in range(m - 1):
        d = int((words[i + 1 :] != words[i]).sum(axis=1).min())
        if d < best:
            best = d
            if best == 0:
                return 0
    return best


def agreement_masks(words: np.ndarray, focus: int) -> np.ndarray:
    """Bitmask of coordinates where each word agrees with words[focus]."""
    words = np.ascontiguousarray(words, dtype=np.int64)
    if words.shape[1] > 64:
        raise ValueError("word length exceeds 64")
    eq = words == words[focus]
    return (eq * _BIT_WEIGHTS[: words.shape[1]]).sum(axis=1, dtype=np.uint64)


def cover_pair_scan(masks: np.ndarray, target: int) -> tuple[int, int] | None:
    """First pair a <= b (colex order) with masks[a] | masks[b] covering target."""
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    tgt = np.uint64(target)
    for b in range(masks.shape[0]):
        row = masks[: b + 1] | masks[b]
        hits = np.nonzero((row & tgt) == tgt)[0]
        if hits.size:
            return int(hits[0]), b
    return None


def _minimal_antichain(supports: np.ndarray) -> np.ndarray:
    """The inclusion-minimal members of a sorted array of distinct supports."""
    if supports.size < 2:
        return supports
    keep = np.ones(supports.shape, dtype=bool)
    # pairwise containment test in row blocks of about 1 M cells
    step = max(1, (1 << 20) // supports.size)
    for lo in range(0, supports.size, step):
        rows = supports[lo : lo + step, None]
        inside = ((rows & supports) == supports) & (rows != supports)
        keep[lo : lo + step] = ~inside.any(axis=1)
    return supports[keep]


def max_subfamily_avoiding(supports: list[int] | np.ndarray, m: int) -> tuple[int, int]:
    """Largest subset of [0..m) containing no forbidden support, by full 2^m sweep.

    Returns (size, member mask); ties break toward the numerically smallest
    mask.  m is capped at 24 to bound the sweep.  The supports are first
    reduced to their inclusion-minimal antichain, which leaves the set of
    avoiding subsets unchanged; a support reaching outside [0..m) forbids
    nothing.
    """
    if not 0 <= m <= 24:
        raise ValueError(f"subfamily sweep supports m <= 24, got {m}")
    distinct = sorted(set(int(s) for s in supports))
    if distinct and distinct[0] == 0:
        raise ValueError("empty support forbids every subfamily")
    arr = np.asarray([s for s in distinct if not s >> m], dtype=np.uint32)
    all_masks = np.arange(1 << m, dtype=np.uint32)
    alive = np.ones(all_masks.shape, dtype=bool)
    for s in _minimal_antichain(arr):
        alive &= (all_masks & s) != s
    sizes = np.bitwise_count(all_masks).astype(np.int8)
    sizes[~alive] = -1
    # arange is ascending, so argmax lands on the smallest qualifying mask
    best = int(np.argmax(sizes))
    return int(sizes[best]), int(all_masks[best])
