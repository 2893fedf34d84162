"""Exact focal-configuration searches on set families and codes.

A focus member plus c repeatable coalition members violates the threshold
property when every focus point (coordinate) is covered at least s times by
the coalition.  The searches here are exhaustive: a returned witness always
re-validates by direct counting, and a None answer means no witness exists.

Codes and families are scanned as one array, words or rows that are 1 on a
member's points and unique to the row elsewhere: a row is positive exactly
where it is judged, and two members agree exactly where their rows are
equal.  The own-subsequence census reads the same array.  A focus is first
refuted by counting where it can be: c coalition members cover at most
c * max_B |A & B| incidences of the focus A, and a cover needs s * |A|; all
foci are counted a block at a time, so an early witness ends the scan.  This is the paper's pigeonhole and distance bound (c(n-d) < s*n
on a code), so a code it certifies is decided without any search.  A focus
that survives gets one view, the other members' agreement masks of its k
points (bit j for the j-th point), decided on its reduced instance: a
member whose mask lies inside those of `need` others (1 when members repeat,
c when distinct) can be swapped out of any cover, so each class of equal
masks keeps at most need minus the members above it.  Reduced instances
with no cover are remembered within a scan; on a linear code every focus
shares one.  The colex search on the view itself runs only at the first
violating focus, to produce the witness.

The reference paths, validate_witness and naive_find_focal, count straight
from the words and sets and share no code with the scan or the kernels.

Search order is fixed so outputs are reproducible: foci are scanned by index
and per focus the coalition returned is the colex-least one, i.e. the sorted
index tuple whose reversed sequence is lexicographically smallest.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import _kernels
from .core import (
    FrameproofParams,
    GuardError,
    IndexMultiset,
    ParameterError,
    SubsetFamily,
    WitnessError,
    FormatError,
    _incidence_rows,
    _own_split,
    enumerate_subsets,
    full_mask,
    points_from_mask,
)

# cells per block of the all-foci agreement count
_FOCUS_BLOCK = 1 << 18


@dataclass(frozen=True)
class Guards:
    """Size limits for the exhaustive searches (worst case is exponential)."""

    c: int = 8
    members: int = 200


def guards_from_env() -> Guards:
    """Parse FRAMEPROOF_LAB_GUARDS, e.g. "c=10,members=500"."""
    raw = os.environ.get("FRAMEPROOF_LAB_GUARDS", "")
    g = Guards()
    if not raw:
        return g
    vals = {"c": g.c, "members": g.members}
    for part in raw.split(","):
        key, _, num = part.partition("=")
        key = key.strip()
        if key not in vals or not num.strip().isdigit():
            raise ParameterError(f"bad FRAMEPROOF_LAB_GUARDS entry {part!r}")
        vals[key] = int(num)
    return Guards(**vals)


def _check_guards(members: int, c: int, guards: Guards | None) -> None:
    g = guards if guards is not None else guards_from_env()
    if c > g.c:
        raise GuardError(f"coalition size {c} exceeds guard c<={g.c}")
    if members > g.members:
        raise GuardError(f"instance has {members} members, guard is {g.members}")


# ---------------------------------------------------------------------------
# codes and witnesses


@dataclass(frozen=True)
class Code:
    """An ordered list of distinct length-n words over the alphabet 1..q."""

    q: int
    n: int
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ParameterError(f"alphabet size q={self.q} must be >= 2")
        if self.n < 1:
            raise ParameterError(f"word length n={self.n} must be >= 1")
        seen = set()
        for i, w in enumerate(self.words):
            if len(w) != self.n:
                raise ParameterError(f"word {i} has length {len(w)}, expected {self.n}")
            if any(not 1 <= x <= self.q for x in w):
                raise ParameterError(f"word {i} has symbols outside [1..{self.q}]")
            if w in seen:
                raise ParameterError(f"word {i} duplicates an earlier word")
            seen.add(w)

    def __len__(self) -> int:
        return len(self.words)

    def to_array(self) -> np.ndarray:
        return np.array(self.words, dtype=np.int64).reshape(len(self.words), self.n)

    @cached_property
    def min_distance(self) -> int:
        """Minimum Hamming distance over word pairs (two words at least),
        computed once per code."""
        return _kernels.min_pairwise_distance(self.to_array())

    def to_json(self) -> dict:
        return {"q": self.q, "n": self.n, "words": [list(w) for w in self.words]}


def code_from_json(obj: object) -> Code:
    if not isinstance(obj, dict):
        raise FormatError("code document must be a JSON object")
    for key in ("q", "n", "words"):
        if key not in obj:
            raise FormatError(f"code document needs field '{key}'")
    q, n, words = obj["q"], obj["n"], obj["words"]
    if not isinstance(q, int) or isinstance(q, bool):
        raise FormatError("field 'q' must be an integer")
    if not isinstance(n, int) or isinstance(n, bool):
        raise FormatError("field 'n' must be an integer")
    if not isinstance(words, list):
        raise FormatError("field 'words' must be a list of symbol lists")
    rows = []
    for i, w in enumerate(words):
        if not isinstance(w, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in w
        ):
            raise FormatError(f"words[{i}] must be a list of integers")
        rows.append(tuple(w))
    try:
        return Code(q, n, tuple(rows))
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc


def agreement_mask(x: Sequence[int], y: Sequence[int]) -> int:
    """Bitmask of coordinates where two words agree."""
    mask = 0
    for i, (a, b) in enumerate(zip(x, y)):
        if a == b:
            mask |= 1 << i
    return mask


@dataclass(frozen=True)
class FocalWitness:
    """A focus plus a coalition certifying a threshold violation."""

    kind: str  # "hypergraph" | "code"
    focus: int
    coalition: IndexMultiset
    distinct: bool = False

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "focus": self.focus,
            "coalition": self.coalition.to_json(),
            "distinct": self.distinct,
        }


def validate_witness(
    obj: SubsetFamily | Code, witness: FocalWitness, params: FrameproofParams
) -> None:
    """Re-check a witness by direct counting; raises WitnessError if bogus."""
    if not 0 <= witness.focus < len(obj):
        raise WitnessError(f"focus index {witness.focus} out of range")
    if _kind(obj) != witness.kind:
        raise WitnessError(f"witness kind {witness.kind!r} does not match input")
    if witness.coalition.total != params.c:
        raise WitnessError(
            f"coalition has total {witness.coalition.total}, expected c={params.c}"
        )
    if witness.distinct and any(m != 1 for _, m in witness.coalition.counts):
        raise WitnessError("distinct witness repeats a member")
    for idx, _ in witness.coalition.counts:
        if idx == witness.focus:
            raise WitnessError("coalition contains the focus")
        if not 0 <= idx < len(obj):
            raise WitnessError(f"coalition index {idx} out of range")
    counts = witness.coalition.counts
    target, masks = _direct_masks(obj, witness.focus, [idx for idx, _ in counts])
    for p in points_from_mask(target):
        bit = 1 << (p - 1)
        cnt = sum(mult for (_, mult), mask in zip(counts, masks) if mask & bit)
        if cnt < params.s:
            raise WitnessError(f"focus point/coordinate {p} covered {cnt} < s")


def _kind(obj: SubsetFamily | Code) -> str:
    return "hypergraph" if isinstance(obj, SubsetFamily) else "code"


def _direct_masks(
    obj: SubsetFamily | Code, focus: int, members: Sequence[int]
) -> tuple[int, list[int]]:
    """The focus's points and each listed member's mask of them, counted
    straight from the sets or words, without the numpy kernels."""
    if isinstance(obj, SubsetFamily):
        a = obj.sets[focus]
        return a, [obj.sets[i] & a for i in members]
    x = obj.words[focus]
    return full_mask(obj.n), [agreement_mask(x, obj.words[i]) for i in members]


# ---------------------------------------------------------------------------
# colex-least coalition search


def _search_cover(
    masks: Sequence[int], c: int, s: int, k: int, distinct: bool
) -> tuple[int, ...] | None:
    """Colex-least c-multiset (or c-set) of indices covering all k points
    (bits 0..k-1) at least s times.

    Slots are filled from the largest index position down, candidates tried
    ascending, so the first complete assignment is the colex minimum.  The
    deficits, clipped at s, are s nested bit-planes: plane j holds the
    points still short of more than j covers, and taking mask mv maps planes
    (a, b) = (j, j + 1) to a & ~mv | b & mv.  A slot with a point short of
    more covers than slots remain is pruned, so the last slot only needs a
    mask containing plane 0.  States that cannot complete are memoized on
    (slot, bound, planes).
    """
    out = [0] * c
    memo: set[tuple[int, int, tuple[int, ...]]] = set()

    def dfs(slot: int, bound: int, need: tuple[int, ...]) -> bool:
        if slot + 1 < s and need[slot + 1]:
            return False
        key = (slot, bound, need)
        if key in memo:
            return False
        if slot == 0:
            # no point is short of more than one cover: one mask must hold them
            for v in range(bound + 1):
                if masks[v] & need[0] == need[0]:
                    out[0] = v
                    return True
        else:
            below = need[1:] + (0,)
            # a distinct coalition needs `slot` smaller indices below v
            for v in range(slot if distinct else 0, bound + 1):
                mv = masks[v]
                out[slot] = v
                taken = tuple(a & ~mv | b & mv for a, b in zip(need, below))
                if dfs(slot - 1, v - 1 if distinct else v, taken):
                    return True
        memo.add(key)
        return False

    return tuple(out) if dfs(c - 1, len(masks) - 1, (full_mask(k),) * s) else None


def _scan_array(obj: SubsetFamily | Code) -> np.ndarray:
    """A code's words or a family's incidence rows: positive exactly where a
    row is judged, and equal exactly where two members agree."""
    if isinstance(obj, SubsetFamily):
        return _incidence_rows(obj)
    if obj.n > 64:
        raise ParameterError("word length exceeds 64")
    return obj.to_array()


def _surviving_foci(rows: np.ndarray, params: FrameproofParams) -> Iterator[int]:
    """The foci that the counting bound does not refute, in index order.

    Agreements are counted column by column for a block of foci at a time,
    about _FOCUS_BLOCK cells, so a witness at an early focus ends the scan
    before the later blocks are counted.
    """
    size = rows.shape[0]
    cols = np.ascontiguousarray(rows.T)
    need = params.s * (rows > 0).sum(axis=1)
    step = max(1, _FOCUS_BLOCK // size)
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        # counts are at most n <= 64
        counts = np.zeros((hi - lo, size), dtype=np.uint8)
        for col in cols:
            counts += col[lo:hi, None] == col
        counts[np.arange(hi - lo), np.arange(lo, hi)] = 0
        cover = params.c * counts.max(axis=1).astype(np.int64)
        yield from (lo + np.flatnonzero(need[lo:hi] <= cover)).tolist()


def _reduced_key(k: int, masks: list[int], need: int) -> tuple[int, tuple]:
    """Canonical reduced instance of one focus view: (k, sorted (mask, count)
    classes), with a cover exactly when the view has one.

    A member whose mask lies inside those of `need` other members can be
    swapped for one of them in any cover (need = 1 when members repeat, c
    when distinct: a coalition holds at most c - 1 others), so each class,
    walked by decreasing popcount, keeps at most need - above copies, above
    being the kept members with a strict superset mask.
    """
    classes = sorted(Counter(masks).items(), key=lambda mc: mc[0].bit_count(), reverse=True)
    kept: list[tuple[int, int]] = []
    for m, cnt in classes:
        above = sum(copies for big, copies in kept if big & m == m)
        if above < need:
            kept.append((m, min(cnt, need - above)))
    return k, tuple(sorted(kept))


def _scan_foci(
    obj: SubsetFamily | Code,
    params: FrameproofParams,
    distinct: bool,
    guards: Guards | None,
) -> FocalWitness | None:
    rows = _scan_array(obj)
    _check_guards(len(obj), params.c, guards)
    refuted: set[tuple[int, tuple]] = set()
    for focus in _surviving_foci(rows, params):
        # the focus row agrees with itself on all k of its points
        points = rows[focus] > 0
        k = int(points.sum())
        masks = _kernels.agreement_masks(rows[:, points], focus).tolist()
        del masks[focus]
        key = _reduced_key(k, masks, params.c if distinct else 1)
        if key in refuted:
            continue
        reduced = [m for m, cnt in key[1] for _ in range(cnt)]
        if _search_cover(reduced, params.c, params.s, k, distinct) is None:
            refuted.add(key)
            continue
        found = _search_cover(masks, params.c, params.s, k, distinct)
        if found is None:
            raise AssertionError(
                f"reduced instance of focus {focus} has a cover, the full search none"
            )
        # view index i is member i + (i >= focus); the map keeps the colex order
        coalition = IndexMultiset.from_indices(i + (i >= focus) for i in found)
        witness = FocalWitness(_kind(obj), focus, coalition, distinct)
        validate_witness(obj, witness, params)
        return witness
    return None


def find_focal_hypergraph(
    family: SubsetFamily,
    params: FrameproofParams,
    *,
    guards: Guards | None = None,
) -> FocalWitness | None:
    """Least witness violating the threshold property, or None if frameproof."""
    if len(family) == 0:
        raise ParameterError("family must be nonempty")
    return _scan_foci(family, params, distinct=False, guards=guards)


def find_focal_code(
    code: Code,
    params: FrameproofParams,
    *,
    guards: Guards | None = None,
) -> FocalWitness | None:
    """Least witness over agreement sets, or None if the code is frameproof."""
    if len(code) == 0:
        raise ParameterError("code must be nonempty")
    return _scan_foci(code, params, distinct=False, guards=guards)


def find_critical_focal(
    obj: SubsetFamily | Code,
    params: FrameproofParams,
    *,
    guards: Guards | None = None,
) -> FocalWitness | None:
    """Like the repeatable search but with pairwise distinct coalition members."""
    if len(obj) == 0:
        raise ParameterError("input must be nonempty")
    return _scan_foci(obj, params, distinct=True, guards=guards)


def naive_find_focal(
    obj: SubsetFamily | Code, params: FrameproofParams, distinct: bool = False
) -> FocalWitness | None:
    """Reference search: enumerate every coalition and count directly.

    Counts straight from the words and sets, independent of the pruned
    search and the numpy kernels; intended for cross-checks on small
    instances (the coalition space grows as C(size+c-1, c)).
    """
    size = len(obj)
    c, s = params.c, params.s
    pick = combinations if distinct else combinations_with_replacement
    for focus in range(size):
        target, masks = _direct_masks(obj, focus, range(size))
        bits = [1 << (p - 1) for p in points_from_mask(target)]
        others = [i for i in range(size) if i != focus]
        for combo in pick(others, c):
            if all(sum(1 for i in combo if masks[i] & bit) >= s for bit in bits):
                coalition = IndexMultiset.from_indices(combo)
                witness = FocalWitness(_kind(obj), focus, coalition, distinct)
                validate_witness(obj, witness, params)
                return witness
    return None


# ---------------------------------------------------------------------------
# distinctification


def distinctify_witness(
    family: SubsetFamily,
    focus: int,
    subsets: Sequence[int],
    params: FrameproofParams,
) -> list[int]:
    """Turn c repeatable non-own parts into c distinct covering members.

    Input: parts T_1..T_c, each a subset of the focus member A, each contained
    in at least s0 = min(s, c-s) members other than A, with every point of A
    lying in at least s parts.  Output: c distinct member indices != focus
    whose multiset union still covers every point of A at least s times.
    Uses a bipartite matching when s0 = c-s and the stepwise greedy otherwise.
    """
    c, s, s0 = params.c, params.s, params.s0
    if not 0 <= focus < len(family):
        raise ParameterError(f"focus index {focus} out of range")
    a = family.sets[focus]
    if len(family) < c + 1:
        raise WitnessError(f"family has {len(family)} members, need >= c+1 = {c + 1}")
    if len(subsets) != c:
        raise WitnessError(f"got {len(subsets)} parts, expected c={c}")
    containers: list[list[int]] = []
    for i, t in enumerate(subsets):
        if t & ~a:
            raise WitnessError(f"part {i} is not a subset of the focus member")
        holders = [j for j, b in enumerate(family.sets) if j != focus and t & b == t]
        if len(holders) < s0:
            raise WitnessError(
                f"part {i} lies in {len(holders)} other members, needs >= s0={s0}"
            )
        containers.append(holders)
    for p in points_from_mask(a):
        bit = 1 << (p - 1)
        if sum(1 for t in subsets if t & bit) < s:
            raise WitnessError(f"point {p} of the focus lies in fewer than s={s} parts")

    if s0 == c - s:
        chosen = _match_distinct(containers)
    else:
        chosen = _greedy_distinct(containers)
    chosen_set = set(chosen)
    for j in range(len(family)):
        if len(chosen_set) == c:
            break
        if j != focus and j not in chosen_set:
            chosen_set.add(j)
    result = sorted(chosen_set)
    for p in points_from_mask(a):
        bit = 1 << (p - 1)
        if sum(1 for j in result if family.sets[j] & bit) < s:
            raise WitnessError(f"distinctified coalition covers point {p} fewer than s times")
    return result


def _match_distinct(containers: list[list[int]]) -> list[int]:
    """System of distinct container members via augmenting paths."""
    match: dict[int, int] = {}  # member -> part

    def assign(i: int, seen: set[int]) -> bool:
        for j in containers[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match or assign(match[j], seen):
                match[j] = i
                return True
        return False

    for i in range(len(containers)):
        if not assign(i, set()):
            raise WitnessError(f"no matching of distinct members covers part {i}")
    return [j for j, _ in sorted(match.items(), key=lambda kv: kv[1])]


def _greedy_distinct(containers: list[list[int]]) -> list[int]:
    """Stepwise pick of the least unused container; exhausted parts are skipped."""
    chosen: list[int] = []
    used: set[int] = set()
    for holders in containers:
        for j in holders:
            if j not in used:
                chosen.append(j)
                used.add(j)
                break
        # all containers of this part already chosen: its points are covered
    return chosen


# ---------------------------------------------------------------------------
# fingerprinting semantics


@dataclass(frozen=True)
class DescendantReport:
    """Feasible pirate symbols per coordinate under the threshold-s rule."""

    per_coordinate: tuple[frozenset[int], ...]
    feasible_count: int

    def to_json(self) -> dict:
        return {
            "per_coordinate": [sorted(sym) for sym in self.per_coordinate],
            "feasible_count": self.feasible_count,
        }


def descendant_alphabet(code: Code, coalition: IndexMultiset, s: int) -> DescendantReport:
    """Symbols appearing >= s times (with multiplicity) in each coalition column."""
    if s < 1:
        raise ParameterError(f"threshold s={s} must be >= 1")
    for idx, _ in coalition.counts:
        if not 0 <= idx < len(code):
            raise ParameterError(f"coalition index {idx} out of range")
    cols = []
    count = 1
    for i in range(code.n):
        tally: dict[int, int] = {}
        for idx, mult in coalition.counts:
            sym = code.words[idx][i]
            tally[sym] = tally.get(sym, 0) + mult
        feas = frozenset(sym for sym, cnt in tally.items() if cnt >= s)
        cols.append(feas)
        count *= len(feas)
    return DescendantReport(tuple(cols), count)


# ---------------------------------------------------------------------------
# own-subsequence census


@dataclass(frozen=True)
class OwnCensus:
    """Own / non-own r-subsequences per word, and U_S per restriction set S."""

    r: int
    own: tuple[tuple[int, ...], ...]
    non_own: tuple[tuple[int, ...], ...]
    u_sets: Mapping[int, frozenset[int]]

    def u_of(self, s_mask: int) -> frozenset[int]:
        return self.u_sets[s_mask]


def own_subsequence_census(code: Code, r: int) -> OwnCensus:
    """For every word x and r-set S: x_S is own iff no other word matches on S."""
    if not 0 <= r <= code.n:
        raise ParameterError(f"r={r} outside [0..{code.n}]")
    split = list(_own_split(_scan_array(code), r))
    u_sets: dict[int, set[int]] = {s: set() for s in enumerate_subsets(code.n, r)}
    for x, (mine, _) in enumerate(split):
        for s_mask in mine:
            u_sets[s_mask].add(x)
    own = tuple(tuple(mine) for mine, _ in split)
    non_own = tuple(tuple(shared) for _, shared in split)
    return OwnCensus(r, own, non_own, {s: frozenset(v) for s, v in u_sets.items()})
