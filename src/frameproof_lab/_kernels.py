"""Hot numeric kernels, vectorized with numpy.

The exhaustive searches in this package spend their time in three regular
loops: pairwise Hamming distances, per-focus agreement masks, and the 2^M
subfamily sweep of the brute-force matching oracle.  Distances are counted
per coordinate in row blocks of about 256 K cells.  The sweep runs over the
inclusion-minimal antichain of the forbidden supports, one block of 2^12
low parts per high part, and skips the blocks a support fills and those
that cannot beat the best size.  Each kernel is exact.

cover_pair_scan, the order-2 coalition scan, has no caller in the library:
the verify search handles c = 2, s = 1 like every other (c, s).  It stays,
with its tests, because the benchmark traces it as a layer; its
kernels.cover_pair_scan.* metrics read 0, as kernels.min_pairwise_distance.*
already do.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

_BIT_WEIGHTS = (np.uint64(1) << np.arange(64, dtype=np.uint64))
# cells per block of the pairwise distance count
_DISTANCE_BLOCK = 1 << 18
# low bits per block of the subfamily sweep
_SWEEP_LOW_BITS = 12


def min_pairwise_distance(words: np.ndarray) -> int:
    """Minimum Hamming distance over all word pairs; words is an (M, n) array.

    Symbols are replaced by their ranks among the distinct symbols, and
    mismatches are counted coordinate by coordinate into blocks of about
    256 K cells, each a run of rows against every later word, in the
    narrowest unsigned type that holds n + 1.  A block holding distance 0
    ends the scan.
    """
    words = np.asarray(words)
    if words.shape[0] < 2:
        raise ValueError("need at least two words")
    # only equality counts, so compare dense symbol ranks in the narrowest type
    _, ranks = np.unique(words, return_inverse=True)
    ranks = ranks.reshape(words.shape)
    cols = np.ascontiguousarray(ranks.T, dtype=np.min_scalar_type(ranks.max(initial=0)))
    n, m = cols.shape
    dtype = np.min_scalar_type(n + 1)  # uint8 up to n = 254, then uint16
    step = max(1, _DISTANCE_BLOCK // m)
    best = n
    for lo in range(0, m - 1, step):
        hi = min(lo + step, m - 1)
        # row i of the block against word j sits at [i - lo, j - lo - 1]
        counts = np.zeros((hi - lo, m - lo - 1), dtype=dtype)
        for col in cols:
            counts += col[lo:hi, None] != col[None, lo + 1 :]
        # mask the pairs j <= i, all in the leading square
        counts[:, : hi - lo][np.tri(hi - lo, k=-1, dtype=bool)] = n + 1
        best = min(best, int(counts.min()))
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
    """The inclusion-minimal members of a sorted array of distinct supports.

    Supports are taken level by level in increasing popcount.  Distinct
    supports of one size never contain each other, so a support is minimal
    iff no minimal support of a lower level lies inside it; each level is
    tested against those alone, in row blocks of about 1 M cells.
    """
    if supports.size < 2:
        return supports
    sizes = np.bitwise_count(supports)
    # a stable sort of the uint8 sizes is a radix sort
    ranked = supports[np.argsort(sizes, kind="stable")]
    minimal = np.empty_like(supports)
    kept = lo = 0
    for hi in accumulate(np.bincount(sizes).tolist()):
        below = minimal[:kept]
        step = max(1, (1 << 20) // max(1, kept))
        for start in range(lo, hi, step):
            rows = ranked[start : min(start + step, hi)]
            if below.size:
                rows = rows[((rows[:, None] & below) != below).all(axis=1)]
            minimal[kept : kept + rows.size] = rows
            kept += rows.size
        lo = hi
    return np.sort(minimal[:kept])


def max_subfamily_avoiding(supports: list[int] | np.ndarray, m: int) -> tuple[int, int]:
    """Largest subset of [0..m) containing no forbidden support.

    Returns (size, member mask); ties break toward the numerically smallest
    mask.  m is capped at 24 to bound the sweep.  The supports are first
    reduced to their inclusion-minimal antichain, which leaves the set of
    avoiding subsets unchanged; a support reaching outside [0..m) forbids
    nothing.

    The masks are swept in ascending blocks: a high part h over the top
    m - L bits, under it all 2^L low parts (L = min(12, m)).  A block is
    skipped outright when some support lies inside h with an empty low
    part, since every mask of the block contains it, or when
    popcount(h) + L <= the best size so far, since the block holds only
    larger masks and so cannot win even a tie.  Otherwise the avoiding low
    parts are the AND of the cached boolean vectors of the low parts of the
    supports whose high part lies inside h.
    """
    if not 0 <= m <= 24:
        raise ValueError(f"subfamily sweep supports m <= 24, got {m}")
    distinct = sorted(set(int(s) for s in supports))
    if distinct and distinct[0] == 0:
        raise ValueError("empty support forbids every subfamily")
    minimal = _minimal_antichain(np.asarray([s for s in distinct if not s >> m], dtype=np.uint32))
    low_bits = min(_SWEEP_LOW_BITS, m)
    lows = np.arange(1 << low_bits, dtype=np.uint32)
    highs = np.arange(1 << (m - low_bits), dtype=np.uint32)
    low = (minimal & lows[-1])[:, None]
    # avoiding[j, x]: low part x does not contain the low part of support j
    avoiding = (lows & low) != low
    # inside[j, h]: the high part of support j lies inside h
    high = (minimal >> low_bits)[:, None]
    inside = (high | highs) == highs
    live = ~inside[low[:, 0] == 0].any(axis=0)
    low_sizes = np.bitwise_count(lows).astype(np.int8)
    best, best_mask = -1, 0
    for h in np.flatnonzero(live).tolist():
        h_size = h.bit_count()
        if h_size + low_bits <= best:
            continue
        # forbidden low parts score 0; in a live block the empty low part
        # always avoids, so argmax over the ascending lows lands on the
        # smallest avoiding low part of the largest size
        sizes = low_sizes * avoiding[inside[:, h]].all(axis=0)
        i = int(np.argmax(sizes))
        size = h_size + int(sizes[i])
        if size > best:
            best, best_mask = size, h << low_bits | i
    return best, best_mask
