"""Exact generalized matching numbers with certificates and closed-form bounds.

m(n,t,lam;k1,k2) is the maximum size of a t-uniform family on [n] containing
no lam repeatable members whose per-point multiplicities all fall between
lam-k2+1 and k1-1.  The solver is a branch-and-bound over the colex list of
t-subsets.  It first compiles the instance once into the inclusion-minimal
violating supports (sets of candidate indices carrying a qualifying
collection), each registered at its highest index.  The violation rule is
invariant under permutations of the points, so one count DFS collects only
the supports holding the first t-subset {1..t}, and the rest are their
images under point permutations that carry {1..t} onto each other
candidate; this needs the full colex candidate list.  Legality of
an inclusion is then a bitmask test against the chosen indices, made by one
include/exclude engine.  The search stops at a cap: the closed-form upper
bound, tightened by Katona's cyclic-order averaging, C(n,t) * alpha / n,
where alpha is the most of the n cyclic intervals a family can hold, found
by the solver's own search over the n interval slots.  When the node budget
runs out and one of the two pierced stars of the closed lower bound reaches
the cap, that star is the certified optimum; a star larger than the
search's best is returned as the lower bound.  The count-DFS violation oracle
stays as the exact-certificate re-check, and a brute-force sweep over all
subfamilies doubles as an independent cross-check on tiny instances.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from math import comb
from typing import Sequence

import numpy as np

from . import _kernels
from .bounds import BoundEntry, BoundReport, Hypothesis
from .core import (
    DisjointnessParams,
    FrameproofParams,
    GuardError,
    ParameterError,
    SubsetFamily,
    enumerate_subsets,
    full_mask,
    points_from_mask,
)

SUBSET_CAP = 400
# multiset rows per block of the brute-force quantifier check, and the most
# rows that check may take before the oracle gives up
_BRUTE_BLOCK = 4096
_BRUTE_ROWS = 1 << 23


@dataclass(frozen=True)
class MatchingInstance:
    n: int
    t: int
    params: DisjointnessParams

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.n:
            raise ParameterError(f"uniformity t={self.t} outside [1..{self.n}]")


@dataclass(frozen=True)
class MatchingCertificate:
    value: int
    family: SubsetFamily
    status: str  # "exact" | "lower-only"
    explored: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "status": self.status,
            "family": [list(points_from_mask(m)) for m in self.family.sets],
            "explored": self.explored,
        }


# ---------------------------------------------------------------------------
# violation oracle


def _find_violating(
    masks: Sequence[int],
    n: int,
    params: DisjointnessParams,
    must_include: int | None = None,
) -> tuple[int, ...] | None:
    """Least non-decreasing index multiset forming a qualifying collection."""
    lam, lo, hi = params.lam, params.min_count, params.max_count
    if lo > hi or not masks:
        return None
    counts = [0] * n
    chosen = [] if must_include is None else [must_include]
    points = [[p for p in range(n) if mask >> p & 1] for mask in masks]

    def fits(v: int) -> bool:
        for p in points[v]:
            if counts[p] >= hi:
                return False
        return True

    def apply(v: int, delta: int) -> None:
        for p in points[v]:
            counts[p] += delta

    def dfs(start: int, remaining: int) -> bool:
        # counts never pass hi: a member is added only where it fits
        if min(counts) + remaining < lo:  # some point can no longer reach lo
            return False
        if remaining == 0:
            return True
        for v in range(start, len(masks)):
            if fits(v):
                apply(v, 1)
                chosen.append(v)
                if dfs(v, remaining - 1):
                    return True
                chosen.pop()
                apply(v, -1)
        return False

    if must_include is not None:
        if not fits(must_include):
            return None
        apply(must_include, 1)
    if not dfs(0, lam - len(chosen)):
        return None
    return tuple(sorted(chosen))


def find_violating_collection(
    family: SubsetFamily,
    params: DisjointnessParams,
    must_include: int | None = None,
) -> tuple[int, ...] | None:
    """Least lam-multiset of member indices meeting the per-point caps, if any."""
    if must_include is not None and not 0 <= must_include < len(family):
        raise ParameterError(f"must_include index {must_include} out of range")
    return _find_violating(family.sets, family.n, params, must_include)


# ---------------------------------------------------------------------------
# exact solver


def _minimal_supports(n: int, t: int, params: DisjointnessParams) -> list[int]:
    """Inclusion-minimal supports of the qualifying lam-multisets, ascending.

    The candidates are all t-subsets of [n] in colex order.  A support is
    the set of distinct candidate indices of a multiset, as a bitmask over
    candidate indices.  The rule only reads per-point multiplicities, so it
    is invariant under permutations of the points: the compile searches
    only the supports holding index 0, then maps them onto the others.

    * One count DFS walks the non-decreasing index multisets whose least
      index is 0 (candidate 0 is {0..t-1}) under _find_violating's
      per-point rules; candidates through a point already at max_count are
      blocked by per-point masks.  A branch is cut as soon as its partial
      support contains a support already found: supports found since the
      partial support last grew lie in its subtree, so only the partial
      support itself and the submasks holding the new index and index 0
      can be among them.
    * For candidate i, sigma_i maps the points of candidate 0 onto those of
      candidate i and the other points onto the rest in order.  The
      supports holding index i are exactly the sigma_i-images of those
      holding index 0.  So the supports found are walked by increasing
      size: one is minimal iff no proper submask is already minimal (the
      smaller sizes are complete by then), and a minimal one adds its
      images under every sigma_i.

    The argument needs the full colex candidate list, so the function
    builds it rather than taking one.
    """
    lam, lo, hi = params.lam, params.min_count, params.max_count
    candidates = enumerate_subsets(n, t)
    # sigma_i as a run of n points per candidate i: its own points, then the rest
    sigmas = [
        p for mask in candidates for side in (1, 0) for p in range(n) if mask >> p & 1 == side
    ]
    points = [sigmas[i : i + t] for i in range(0, len(sigmas), n)]
    through = [0] * n
    for i, pts in enumerate(points):
        for p in pts:
            through[p] |= 1 << i
    everything = (1 << len(candidates)) - 1
    counts = [0] * n
    found: set[int] = set()

    def dfs(start_bit: int, remaining: int, support: int, blocked: int) -> None:
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
                # every support found holds index 0, like support itself
                rest, joined = support ^ 1, bit | 1
                sub = rest  # walk the submasks of rest, joined with bit and 0
                while sub and (sub | joined) not in found:
                    sub = (sub - 1) & rest
                if (sub | joined) in found:
                    continue
            pts = points[bit.bit_length() - 1]
            full = blocked
            for p in pts:
                counts[p] += 1
                if counts[p] >= hi:
                    full |= through[p]
            dfs(bit, remaining - 1, grown, full)
            for p in pts:
                counts[p] -= 1

    # the root: candidate 0 under the same rules as any other step
    if hi and lam >= lo:
        blocked = 0
        for p in points[0]:
            counts[p] = 1
            if hi == 1:
                blocked |= through[p]
        dfs(1, lam - 1, 1, blocked)

    if not found:
        return []
    minimal: set[int] = set()
    bit_of = dict(zip(candidates, map((1).__lshift__, range(len(candidates)))))
    # moved[p][i]: the point bit of sigma_i(p)
    moved = [[1 << q for q in sigmas[p::n]] for p in range(n)]
    columns: dict[int, list[int]] = {}  # j -> the index bit of sigma_i(j), per i
    for support in sorted(found, key=int.bit_count):
        sub = (support - 1) & support  # walk the proper submasks
        while sub and sub not in minimal:
            sub = (sub - 1) & support
        if sub:
            continue
        cols = []
        rest = support
        while rest:
            bit = rest & -rest
            rest ^= bit
            j = bit.bit_length() - 1
            if j not in columns:
                # the points of candidate j are distinct, so sum is the OR of their images
                images = map(sum, zip(*[moved[p] for p in points[j]]))
                columns[j] = list(map(bit_of.__getitem__, images))
            cols.append(columns[j])
        # sigma_i is a bijection, so the image bits are distinct and sum is OR
        minimal.update(map(sum, zip(*cols)))
    return sorted(minimal)


def _registered_supports(n: int, t: int, params: DisjointnessParams) -> list[list[int]]:
    """The minimal supports by highest index, each with that bit cleared.

    Entry i lists the rest of every support whose highest candidate index
    is i, so including i after a chosen-index bitmask is legal iff no entry
    lies inside that bitmask.
    """
    registered: list[list[int]] = [[] for _ in range(comb(n, t))]
    for support in _minimal_supports(n, t, params):
        top = support.bit_length() - 1
        registered[top].append(support ^ (1 << top))
    return registered


def _max_avoiding(
    order: Sequence[int],
    registered: Sequence[Sequence[int]],
    cap: int,
    budget: int | None,
) -> tuple[list[int], int, bool]:
    """Largest subset of the increasing index order holding no registered support.

    Returns (best, explored, exhausted).  Include-first branching from a
    legal prefix, bounded by the remaining indices, stops at the first
    subset of size cap; a support reaching outside order never blocks.  Each
    loop step counts a node before the size prune; once explored equals
    budget the next node is refused, uncounted, and exhausted is set.
    """
    best: list[int] = []
    chosen: list[int] = []
    chosen_mask = 0
    explored = 0
    exhausted = False
    size = len(order)

    def dfs(j: int) -> bool:
        """Returns True when the search can stop (cap reached or budget out)."""
        nonlocal best, chosen_mask, explored, exhausted
        while j < size:
            if explored == budget:
                exhausted = True
                return True
            explored += 1
            if len(chosen) + (size - j) <= len(best):
                return False
            i = order[j]
            outside = ~chosen_mask
            if all(rest & outside for rest in registered[i]):
                chosen.append(i)
                chosen_mask |= 1 << i
                if len(chosen) > len(best):
                    best = list(chosen)
                    if len(best) == cap:
                        return True
                if dfs(j + 1):
                    return True
                chosen.pop()
                chosen_mask ^= 1 << i
            j += 1
        return False

    dfs(0)
    return best, explored, exhausted


def matching_number_exact(
    instance: MatchingInstance, budget: int | None = None
) -> MatchingCertificate:
    """Branch-and-bound value of m(n,t,lam;k1,k2) with an extremal family.

    Short-circuits: if every collection qualifies the value is 0; if none can
    exist the value is C(n,t).  Otherwise the supports are compiled once
    (_registered_supports) and _max_avoiding walks the colex t-subset list
    up to the first family of size cap.  With k1 and k2 finite and >= 2,
    cap is the closed-form upper bound, and for 1 < t < n-1 also
    C(n,t) * alpha // n, where alpha is the most of the n cyclic intervals
    interval_mask(n,t,a) holding no support, from the same engine over the
    interval slots.  Every cyclic order of [n] is an image of the standard
    one and the violation rule is invariant under relabelling the points,
    so averaging over the orders (Katona's argument) gives
    m <= C(n,t) * alpha / n for 1 <= t < n.  budget caps the
    branch-and-bound nodes (neither the compile nor alpha is counted), and
    explored never exceeds it.  Running out downgrades the status to
    "lower-only" and returns the larger of the two pierced stars
    (_pierced_stars) when it beats the search's best family; a star of
    exactly cap members is returned as "exact".  A returned star is
    re-checked by the violation oracle.
    """
    if budget is not None and budget < 0:
        raise ParameterError(f"node budget {budget} must be >= 0")
    n, t, params = instance.n, instance.t, instance.params
    total = comb(n, t)
    if total > SUBSET_CAP:
        raise ParameterError(f"C({n},{t})={total} exceeds the cap {SUBSET_CAP}")
    if params.vacuous:
        return MatchingCertificate(0, SubsetFamily(n, (), t), "exact", 0)
    candidates = enumerate_subsets(n, t)
    if not params.feasible:
        return MatchingCertificate(
            total, SubsetFamily(n, tuple(candidates), t), "exact", 0
        )

    registered = _registered_supports(n, t, params)
    cap = total
    two_sided = params.k1 is not None and params.k2 is not None and min(params.k1, params.k2) >= 2
    if two_sided:
        # lam lies in the closed sandwich's range here (the instance is
        # neither vacuous nor infeasible), whose one upper entry this is
        if n > t > 1:
            cap = min(cap, _cyclic_interval_upper(n, t, params.lam, params.k1 - 1, params.k2 - 1))
        # at t = 1 and t = n-1 the intervals are all the candidates, so alpha
        # would be m itself, found outside the node budget
        if total > n:
            # alpha at or above this cannot lower the cap
            limit = -(-cap * n // total)
            slots = [bisect_left(candidates, interval_mask(n, t, a)) for a in range(1, n + 1)]
            alpha = len(_max_avoiding(sorted(slots), registered, limit, None)[0])
            cap = min(cap, total * alpha // n)

    best, explored, exhausted = _max_avoiding(range(total), registered, cap, budget)
    sets = tuple(candidates[i] for i in best)
    status = "lower-only" if exhausted else "exact"
    from_star = False
    if exhausted and two_sided:
        # the larger pierced star (s1 side on a tie) replaces a smaller
        # search best, and one of size cap closes the sandwich
        star = max(_pierced_stars(n, t, params, candidates), key=len)
        if len(star) > len(sets):
            sets, from_star = star, True
            status = "exact" if len(star) == cap else "lower-only"
    family = SubsetFamily(n, sets, t)
    if (status == "exact" or from_star) and find_violating_collection(family, params) is not None:
        raise AssertionError(f"{status} matching family contains a violating collection")
    return MatchingCertificate(len(sets), family, status, explored)


def _pierced_stars(
    n: int, t: int, params: DisjointnessParams, candidates: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two pierced-star families of the closed lower bound, s1 side first.

    The s1 side is star_family(n, t, lam, s1).  The s2 side holds every
    t-subset that does not contain the points 1..f, f = ceil(lam/s2)-1: the
    complements of its members form the (n-t)-uniform star pierced by those
    points, so among any lam members some point is missed by more than s2.
    """
    lam, s1, s2 = params.lam, params.k1 - 1, params.k2 - 1
    fixed = full_mask(-(-lam // s2) - 1)
    return (
        star_family(n, t, lam, s1).sets,
        tuple(mask for mask in candidates if mask & fixed != fixed),
    )


def _qualifying_supports(
    candidates: Sequence[int], n: int, params: DisjointnessParams
) -> set[int]:
    """Supports of every lam-multiset of candidates meeting the quantifier definition.

    A multiset is a non-decreasing row of lam candidate indices; it
    qualifies when every k1 of its entries AND to nothing and every k2 of
    them OR to the ground set (vacuously when the row has fewer than k1
    resp. k2 entries).  Both clauses hold for every part of a qualifying
    row, so rows are grown leftwards and a row is dropped as soon as it
    fails.  The base rows are the last `tail` columns, every non-decreasing
    tail-tuple (combinations_with_replacement), with tail as long as they
    fit in one block of _BRUTE_BLOCK rows; they are checked on all k-subsets
    of their positions.  A row whose first entry is f then takes each of
    0..f in front of it, and the grown row is checked only on the k-subsets
    holding its new position 0, so each k-subset of a full row is checked
    once.  Rows are checked in blocks of _BRUTE_BLOCK (m <= 24 fits uint8).
    More than _BRUTE_ROWS checked rows raise GuardError.  The support is the
    OR of a full row's index bits.
    """
    lam, k1, k2 = params.lam, params.k1, params.k2
    ground = full_mask(n)
    m = len(candidates)
    masks = np.asarray(candidates, dtype=np.min_scalar_type(ground))
    bits = np.uint32(1) << np.arange(m, dtype=np.uint32)

    def positions(width: int, k: int | None, fresh: bool) -> np.ndarray | None:
        # the k-subsets of a row's width positions, one row of positions
        # each; when fresh, only those holding position 0
        if k is None or k > width:
            return None
        if fresh:
            subsets = [(0, *rest) for rest in combinations(range(1, width), k - 1)]
        else:
            subsets = list(combinations(range(width), k))
        return np.array(subsets, dtype=np.intp)

    def survivors(
        rows: np.ndarray, meets: np.ndarray | None, covers: np.ndarray | None
    ) -> np.ndarray:
        if meets is None and covers is None:
            return rows
        sets = masks[rows]
        ok = np.ones(len(rows), dtype=bool)
        if meets is not None:
            ok &= ~np.bitwise_and.reduce(sets[:, meets], axis=2).any(axis=1)
        if covers is not None:
            ok &= (np.bitwise_or.reduce(sets[:, covers], axis=2) == ground).all(axis=1)
        return rows[ok]

    tail = 1
    while tail < lam and comb(m + tail, tail + 1) <= _BRUTE_BLOCK:
        tail += 1
    base = bytes(chain.from_iterable(combinations_with_replacement(range(m), tail)))
    rows = np.frombuffer(base, dtype=np.uint8).reshape(-1, tail)
    checked = len(rows)
    pending = [survivors(rows, positions(tail, k1, False), positions(tail, k2, False))]
    fresh = {}
    for width in range(tail + 1, lam + 1):
        fresh[width] = positions(width, k1, True), positions(width, k2, True)
    supports: set[int] = set()
    while pending:
        rows = pending.pop()
        if not len(rows):
            continue
        if rows.shape[1] == lam:
            supports.update(np.bitwise_or.reduce(bits[rows], axis=1).tolist())
            continue
        lens = rows[:, 0].astype(np.intp) + 1
        ends = np.cumsum(lens)
        first = np.arange(ends[-1]) - np.repeat(ends - lens, lens)
        grown = np.column_stack((first.astype(np.uint8), np.repeat(rows, lens, axis=0)))
        checked += len(grown)
        if checked > _BRUTE_ROWS:
            raise GuardError(f"brute-force oracle checked more than {_BRUTE_ROWS} multiset rows")
        pending.extend(
            survivors(grown[lo : lo + _BRUTE_BLOCK], *fresh[rows.shape[1] + 1])
            for lo in range(0, len(grown), _BRUTE_BLOCK)
        )
    return supports


def matching_number_brute(instance: MatchingInstance) -> tuple[int, SubsetFamily]:
    """Independent oracle: full sweep over all subfamilies of the t-subsets.

    Qualifying collections are enumerated from the quantifier definition
    (every k1 of them intersect in nothing, every k2 of them cover [n],
    vacuously when fewer than k1 resp. k2 entries exist), then the kernel
    sweeps all 2^M subfamilies for the largest one avoiding every support.
    M = C(n,t) above 24 is a ParameterError, checked before any subset is
    built; more than _BRUTE_ROWS multiset rows checked is a GuardError,
    raised before the sweep.
    """
    n, t, params = instance.n, instance.t, instance.params
    m = comb(n, t)
    if m > 24:
        raise ParameterError(f"brute-force oracle capped at C(n,t) <= 24, got {m}")
    candidates = enumerate_subsets(n, t)
    supports = _qualifying_supports(candidates, n, params)
    size, member_mask = _kernels.max_subfamily_avoiding(sorted(supports), m)
    picked = tuple(
        candidates[i] for i in range(m) if member_mask & (1 << i)
    )
    return size, SubsetFamily(n, picked, t)


# ---------------------------------------------------------------------------
# closed-form bounds


def matching_closed_bounds(
    n: int,
    t: int,
    lam: int,
    s1: int,
    s2: int,
    c: int | None = None,
    s: int | None = None,
) -> BoundReport:
    """Closed-form sandwich for m(n,t,lam;s1+1,s2+1), all arithmetic exact.

    Outside min(s1+1,s2+1) <= lam <= s1+s2 the value short-circuits to 0 or
    C(n,t).  Inside, the cyclic-interval upper bound and the pierced-star
    lower bound are emitted, plus the explicit specializations when the
    frameproof parameters (c, s) are supplied.
    """
    if min(n, t, lam, s1, s2) < 1 or t > n:
        raise ParameterError("need 1 <= t <= n and n, lam, s1, s2 >= 1")
    if (c is None) != (s is None):
        raise ParameterError("c and s must be given together")
    if c is not None:
        FrameproofParams(c, s)
    quantity = f"m({n},{t},{lam};{s1 + 1},{s2 + 1})"
    total = comb(n, t)
    entries: list[BoundEntry] = []

    if lam < min(s1 + 1, s2 + 1):
        entries.append(
            BoundEntry(
                quantity,
                0,
                "exact",
                "short-circuit: every collection qualifies",
                (Hypothesis(f"lam={lam} <= min(s1,s2)", True),),
            )
        )
        return BoundReport(quantity, tuple(entries))
    if lam >= s1 + s2 + 1:
        entries.append(
            BoundEntry(
                quantity,
                total,
                "exact",
                "short-circuit: no collection can exist",
                (Hypothesis(f"lam={lam} >= s1+s2+1", True),),
            )
        )
        return BoundReport(quantity, tuple(entries))

    # cyclic-interval upper bound
    hyp_range = Hypothesis(f"n > t > 1 (n={n}, t={t})", n > t > 1)
    if hyp_range.ok:
        entries.append(
            BoundEntry(
                quantity,
                _cyclic_interval_upper(n, t, lam, s1, s2),
                "upper",
                "cyclic-interval classes",
                (hyp_range,),
            )
        )
    else:
        entries.append(
            BoundEntry(quantity, total, "upper", "cyclic-interval classes", (hyp_range,))
        )

    # pierced-star lower bound
    lower = max(
        total - comb(max(n - -(-lam // s1) + 1, 0), t),
        total - comb(max(n - -(-lam // s2) + 1, 0), n - t),
    )
    entries.append(
        BoundEntry(
            quantity,
            lower,
            "lower",
            "pierced-star families",
            (Hypothesis(f"min(s1+1,s2+1) <= lam <= s1+s2 (lam={lam})", True),),
        )
    )

    if c is not None and s is not None:
        entries.extend(_explicit_entries(quantity, n, t, lam, c, s, total))
    return BoundReport(quantity, tuple(entries))


def _cyclic_interval_upper(n: int, t: int, lam: int, s1: int, s2: int) -> int:
    """C(n,t) * (lam-1) * gamma / n for n > t > 1, floored: m is an integer."""
    chi = max(-(-t // s1), -(-(n - t) // s2))
    gamma = -(-n // (n // chi))
    return comb(n, t) * (lam - 1) * gamma // n


def _explicit_entries(
    quantity: str, n: int, t: int, lam: int, c: int, s: int, total: int
) -> list[BoundEntry]:
    s0 = min(s, c - s)
    hyp_n = Hypothesis(f"n >= c(c-1) = {c * (c - 1)}", n >= c * (c - 1))
    hyp_lam = Hypothesis(
        f"min(s+1,c-s+1) <= lam <= c (lam={lam})",
        min(s + 1, c - s + 1) <= lam <= c,
    )
    hyp_t = Hypothesis(f"t = ceil(s*n/c) = {-(-s * n // c)}", t == -(-s * n // c))
    hyp_div = Hypothesis(f"c | n (n={n}, c={c})", n % c == 0)
    out = [
        BoundEntry(
            quantity,
            Fraction(lam - 1, n) * (-(-n // (c - 1))) * total,
            "upper",
            "explicit cyclic-interval",
            (hyp_n, hyp_lam, hyp_t),
        ),
        BoundEntry(
            quantity,
            Fraction(lam - 1, c) * total,
            "upper",
            "explicit cyclic-interval, divisible",
            (hyp_n, hyp_lam, hyp_t, hyp_div),
        ),
    ]
    if lam >= c - s0 + 1:
        frac, frac_div = Fraction(c - s0, c) - Fraction(1, n), Fraction(c - s0, c)
        hyp_side = Hypothesis(f"lam >= c-s0+1 = {c - s0 + 1}", True)
    else:
        frac, frac_div = Fraction(s0, c) - Fraction(1, n), Fraction(s0, c)
        hyp_side = Hypothesis(f"lam >= s0+1 = {s0 + 1}", lam >= s0 + 1)
    out.append(
        BoundEntry(
            quantity,
            frac * total,
            "lower",
            "explicit pierced-star",
            (hyp_n, hyp_lam, hyp_t, hyp_side),
        )
    )
    out.append(
        BoundEntry(
            quantity,
            frac_div * total,
            "lower",
            "explicit pierced-star, divisible",
            (hyp_n, hyp_lam, hyp_t, hyp_side, hyp_div),
        )
    )
    if lam in (s0 + 1, c - s0 + 1):
        frac_exact = Fraction(s0, c) if lam == s0 + 1 else Fraction(c - s0, c)
        out.append(
            BoundEntry(
                quantity,
                frac_exact * total,
                "exact",
                "divisible exact value",
                (
                    hyp_div,
                    Hypothesis("t = s*n/c exactly", n % c == 0 and t * c == s * n),
                    Hypothesis(f"lam in {{s0+1, c-s0+1}}", True),
                ),
            )
        )
    return out


# ---------------------------------------------------------------------------
# cyclic interval partition


def interval_mask(n: int, t: int, a: int) -> int:
    """The cyclic interval {a, a+1, ..., a+t-1} on points 1..n (wrapping)."""
    mask = 0
    for i in range(t):
        mask |= 1 << ((a - 1 + i) % n)
    return mask


@dataclass(frozen=True)
class CyclicPartitionPlan:
    """Partition of the n cyclic t-intervals into gamma cap-respecting classes."""

    n: int
    t: int
    s1: int
    s2: int
    chi: int
    m: int
    gamma: int
    n0: int
    classes: tuple[tuple[int, ...], ...]  # interval start points, 1-based

    def class_masks(self, i: int) -> list[int]:
        return [interval_mask(self.n, self.t, a) for a in self.classes[i]]


def cyclic_partition_plan(n: int, t: int, s1: int, s2: int) -> CyclicPartitionPlan:
    """Split the cyclic intervals into classes whose point-coverage stays
    within s1 and whose point-miss count stays within s2.

    chi = max(ceil(t/s1), ceil((n-t)/s2)); the classes step by gamma or gamma-1
    positions.  When n0 = 0 the stepped tail is empty and each class is a pure
    gamma-progression (the duplicate-collapsing reading of the construction).
    """
    if not (n > t > 1):
        raise ParameterError(f"need n > t > 1, got n={n}, t={t}")
    if s1 < 1 or s2 < 1:
        raise ParameterError("s1 and s2 must be >= 1")
    chi = max(-(-t // s1), -(-(n - t) // s2))
    m = n // chi
    if m < 1:
        raise ParameterError(f"chi={chi} exceeds n={n}")
    gamma = -(-n // m)
    n0 = m * gamma - n

    def norm(a: int) -> int:
        return (a - 1) % n + 1

    classes: list[tuple[int, ...]] = []
    for i in range(1, gamma):
        head_len = m if n0 == 0 else m - n0 + 1
        starts = [norm(i + j * gamma) for j in range(head_len)]
        anchor = i + (m - n0) * gamma
        starts += [norm(anchor + ell * (gamma - 1)) for ell in range(1, n0)]
        classes.append(tuple(starts))
    classes.append(tuple(norm(j * gamma) for j in range(1, m - n0 + 1)))

    plan = CyclicPartitionPlan(n, t, s1, s2, chi, m, gamma, n0, tuple(classes))
    _validate_plan(plan)
    return plan


def _validate_plan(plan: CyclicPartitionPlan) -> None:
    # internal invariants: partition of all n intervals, caps on every class
    n, s1, s2 = plan.n, plan.s1, plan.s2
    all_starts = [a for cls in plan.classes for a in cls]
    if sorted(all_starts) != list(range(1, n + 1)):
        raise AssertionError(f"class starts {sorted(all_starts)} do not partition 1..{n}")
    if len(plan.classes) != plan.gamma:
        raise AssertionError(f"{len(plan.classes)} classes, expected gamma={plan.gamma}")
    for idx in range(len(plan.classes)):
        masks = plan.class_masks(idx)
        for p in range(n):
            bit = 1 << p
            cover = sum(1 for mk in masks if mk & bit)
            if cover > s1 or len(masks) - cover > s2:
                raise AssertionError((idx, p + 1, cover))


# ---------------------------------------------------------------------------
# star families


def star_family(n: int, t: int, lam: int, s: int) -> SubsetFamily:
    """All t-subsets meeting a pierce set of size ceil(lam/s)-1.

    Empty for lam <= s.  The result contains no lam repeatable members that
    are pairwise (s+1)-disjoint, by pigeonhole on the pierce set.
    """
    if min(n, t, lam, s) < 1 or t > n:
        raise ParameterError("need 1 <= t <= n and lam, s >= 1")
    if lam <= s:
        return SubsetFamily(n, (), t)
    size_s = -(-lam // s) - 1
    pierce = full_mask(min(size_s, n))
    sets = tuple(mask for mask in enumerate_subsets(n, t) if mask & pierce)
    expected = comb(n, t) - comb(max(n - size_s, 0), t)
    if len(sets) != expected:
        raise AssertionError(f"star family has {len(sets)} sets, expected {expected}")
    return SubsetFamily(n, sets, t)
