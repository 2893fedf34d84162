"""Exact focal-configuration searches on set families and codes.

A focus member plus c repeatable coalition members violates the threshold
property when every focus point (coordinate) is covered at least s times by
the coalition.  The searches here are exhaustive: a returned witness always
re-validates by direct counting, and a None answer means no witness exists.

Each focus is first refuted by counting where it can be: c coalition
members cover at most c * max_B |A & B| incidences of the focus A, and a
cover needs s * |A|.  This is the paper's pigeonhole and distance bound
(c(n-d) < s*n on a code), so a code it certifies is decided without any
search.  A focus that survives is decided on a reduced instance of its
coverage masks: the masks of the other members, compressed to the focus's
points, keeping only the distinct inclusion-maximal ones (repeatable search)
or each distinct mask with its count capped at c (distinct search).  Foci
with equal reduced instances share one verdict within a scan; on a linear
code every focus does.  The colex search on the full masks runs only at the
first violating focus, to produce the witness.

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
from typing import Mapping, Sequence

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
    enumerate_subsets,
    full_mask,
    points_from_mask,
)


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
    if not 0 <= witness.focus < _size(obj):
        raise WitnessError(f"focus index {witness.focus} out of range")
    masks, kind = _coverage_masks(obj, witness.focus)
    target = _target_mask(obj, witness.focus)
    if kind != witness.kind:
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
        if not 0 <= idx < _size(obj):
            raise WitnessError(f"coalition index {idx} out of range")
    rest = target
    while rest:
        low = rest & -rest
        cnt = sum(mult for idx, mult in witness.coalition.counts if masks[idx] & low)
        if cnt < params.s:
            p = low.bit_length()
            raise WitnessError(f"focus point/coordinate {p} covered {cnt} < s")
        rest ^= low


def _size(obj: SubsetFamily | Code) -> int:
    return len(obj)


def _target_mask(obj: SubsetFamily | Code, focus: int) -> int:
    if isinstance(obj, SubsetFamily):
        return obj.sets[focus]
    return full_mask(obj.n)


def _coverage_masks(obj: SubsetFamily | Code, focus: int) -> tuple[list[int], str]:
    """Per-index masks of focus points covered by each member/word."""
    if isinstance(obj, SubsetFamily):
        a = obj.sets[focus]
        return [m & a for m in obj.sets], "hypergraph"
    return [int(v) for v in _kernels.agreement_masks(obj.to_array(), focus)], "code"


# ---------------------------------------------------------------------------
# colex-least coalition search


def _search_cover(
    masks: Sequence[int],
    skip: int,
    c: int,
    s: int,
    target: int,
    distinct: bool,
) -> tuple[int, ...] | None:
    """Colex-least c-multiset (or c-set) of indices covering target >= s times.

    Slots are filled from the largest index position down, candidates tried
    ascending, so the first complete assignment is the colex minimum.  The
    deficit of each target point is clipped at s; states that cannot complete
    are memoized on (slot, bound, deficits).
    """
    m = len(masks)
    avail = m - (1 if 0 <= skip < m else 0)
    if avail < (c if distinct else 1):
        return None
    if c == 2 and s == 1 and not distinct:
        idxs = [i for i in range(m) if i != skip]
        arr = np.array([masks[i] for i in idxs], dtype=np.uint64)
        hit = _kernels.cover_pair_scan(arr, target)
        return None if hit is None else (idxs[hit[0]], idxs[hit[1]])

    pts = points_from_mask(target)
    k = len(pts)
    bitpos = [1 << (p - 1) for p in pts]
    need = [s] * k
    out = [0] * c
    memo: set[tuple[int, int, tuple[int, ...]]] = set()

    def dfs(slot: int, bound: int) -> bool:
        worst = max(need, default=0)
        if worst > slot + 1:
            return False
        key = (slot, bound, tuple(need))
        if key in memo:
            return False
        for v in range(bound + 1):
            if v == skip:
                continue
            if distinct and v - (1 if 0 <= skip < v else 0) < slot:
                continue  # not enough distinct indices left below v
            mv = masks[v]
            touched = []
            for i in range(k):
                if need[i] and mv & bitpos[i]:
                    need[i] -= 1
                    touched.append(i)
            out[slot] = v
            if slot == 0:
                if not any(need):
                    return True
            elif dfs(slot - 1, v - 1 if distinct else v):
                return True
            for i in touched:
                need[i] += 1
        memo.add(key)
        return False

    return tuple(out) if dfs(c - 1, m - 1) else None


def _focus_witness(
    obj: SubsetFamily | Code,
    focus: int,
    params: FrameproofParams,
    distinct: bool,
    masks: list[int] | None = None,
) -> FocalWitness | None:
    """The focus's colex-least witness; masks are its coverage masks when
    the caller already built them (the focus's own entry is never read)."""
    if masks is None:
        masks, _ = _coverage_masks(obj, focus)
    found = _search_cover(
        masks, focus, params.c, params.s, _target_mask(obj, focus), distinct
    )
    if found is None:
        return None
    kind = "hypergraph" if isinstance(obj, SubsetFamily) else "code"
    witness = FocalWitness(kind, focus, IndexMultiset.from_indices(found), distinct)
    validate_witness(obj, witness, params)
    return witness


def _reduced_key(
    masks: list[int], focus: int, target: int, c: int, distinct: bool
) -> tuple[int, tuple]:
    """Canonical reduced instance of one focus: (k, sorted classes).

    The focus's own index is dropped.  Repeatable search: the distinct
    inclusion-maximal masks, since a superset covers at least as well and
    members may repeat (the zero mask survives only when it is the only one:
    an empty target is covered by any other member).  Distinct search: each
    distinct mask with its count capped at c.  Masks are compressed to the
    k target points, bit j for the j-th point.
    """
    others = masks[:focus] + masks[focus + 1 :]
    bits = [1 << (p - 1) for p in points_from_mask(target)]
    identity = target == full_mask(len(bits))

    def compress(m: int) -> int:
        return m if identity else sum(1 << j for j, b in enumerate(bits) if m & b)

    if distinct:
        classes = [(compress(m), min(cnt, c)) for m, cnt in Counter(others).items()]
    else:
        maximal: list[int] = []
        for m in sorted(set(others), key=int.bit_count, reverse=True):
            if all(m & big != m for big in maximal):
                maximal.append(m)
        classes = [compress(m) for m in maximal]
    return len(bits), tuple(sorted(classes))


def _reduced_verdict(key: tuple[int, tuple], c: int, s: int, distinct: bool) -> bool:
    """Whether the reduced instance admits a covering coalition."""
    k, classes = key
    if distinct:
        masks = [m for m, cnt in classes for _ in range(cnt)]
    else:
        masks = list(classes)
    return _search_cover(masks, -1, c, s, full_mask(k), distinct) is not None


def _unrefuted_masks(
    obj: SubsetFamily | Code,
    focus: int,
    arr: np.ndarray | None,
    params: FrameproofParams,
) -> list[int] | None:
    """The focus's coverage masks, or None when counting refutes it.

    c members, repeated or not, cover at most c * max_B |A & B| incidences
    of the focus A, B over the other members, and a cover needs s * |A|
    (the paper's pigeonhole and distance bound).  The focus's own entry of
    the returned masks is zero.
    """
    c, s = params.c, params.s
    if arr is not None:
        agree = _kernels.agreement_masks(arr, focus)
        agree[focus] = 0
        if s * arr.shape[1] > c * int(np.bitwise_count(agree).max()):
            return None
        return [int(v) for v in agree]
    a = obj.sets[focus]
    masks = [m & a for m in obj.sets]
    masks[focus] = 0
    if s * a.bit_count() > c * max(m.bit_count() for m in masks):
        return None
    return masks


def _scan_foci(
    obj: SubsetFamily | Code,
    params: FrameproofParams,
    distinct: bool,
    guards: Guards | None,
) -> FocalWitness | None:
    if isinstance(obj, Code) and obj.n > 64:
        raise ParameterError("word length exceeds 64")
    size = _size(obj)
    _check_guards(size, params.c, guards)
    if distinct and size < params.c + 1:
        return None
    arr = obj.to_array() if isinstance(obj, Code) else None
    verdicts: dict[tuple[int, tuple], bool] = {}
    for focus in range(size):
        masks = _unrefuted_masks(obj, focus, arr, params)
        if masks is None:
            continue
        key = _reduced_key(masks, focus, _target_mask(obj, focus), params.c, distinct)
        if key not in verdicts:
            verdicts[key] = _reduced_verdict(key, params.c, params.s, distinct)
        if verdicts[key]:
            w = _focus_witness(obj, focus, params, distinct, masks)
            if w is None:
                raise AssertionError(
                    f"reduced instance of focus {focus} has a cover, the full search none"
                )
            return w
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
    if _size(obj) == 0:
        raise ParameterError("input must be nonempty")
    return _scan_foci(obj, params, distinct=True, guards=guards)


def naive_find_focal(
    obj: SubsetFamily | Code, params: FrameproofParams, distinct: bool = False
) -> FocalWitness | None:
    """Reference search: enumerate every coalition and count directly.

    Independent of the pruned search; intended for cross-checks on small
    instances (the coalition space grows as C(size+c-1, c)).
    """
    size = _size(obj)
    c, s = params.c, params.s
    pick = combinations if distinct else combinations_with_replacement
    for focus in range(size):
        masks, kind = _coverage_masks(obj, focus)
        target = _target_mask(obj, focus)
        pts = points_from_mask(target)
        others = [i for i in range(size) if i != focus]
        for combo in pick(others, c):
            ok = True
            for p in pts:
                bit = 1 << (p - 1)
                if sum(1 for i in combo if masks[i] & bit) < s:
                    ok = False
                    break
            if ok:
                witness = FocalWitness(kind, focus, IndexMultiset.from_indices(combo), distinct)
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
    m = len(code)
    arr = code.to_array() if m else None
    agree = [
        [int(v) for v in _kernels.agreement_masks(arr, x)] if m > 1 else []
        for x in range(m)
    ]
    own: list[tuple[int, ...]] = []
    non_own: list[tuple[int, ...]] = []
    u_sets: dict[int, set[int]] = {s: set() for s in enumerate_subsets(code.n, r)}
    for x in range(m):
        mine: list[int] = []
        shared: list[int] = []
        for s_mask in u_sets:
            if any(
                y != x and agree[x][y] & s_mask == s_mask for y in range(m)
            ):
                shared.append(s_mask)
            else:
                mine.append(s_mask)
                u_sets[s_mask].add(x)
        own.append(tuple(mine))
        non_own.append(tuple(shared))
    return OwnCensus(
        r,
        tuple(own),
        tuple(non_own),
        {s: frozenset(v) for s, v in u_sets.items()},
    )
