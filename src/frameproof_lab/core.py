"""Ground sets, bitmask subsets, set families and coalition arithmetic.

Points of a ground set [n] are the integers 1..n and a subset is a single
machine word: bit (p-1) is set iff point p is in the subset.  n is capped at
64 so every subset operation is one integer op.  Families store *distinct*
sets; repeatable coalitions are index multisets over a family, never
duplicated members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _kernels

MAX_GROUND = 64


class ParameterError(ValueError):
    """A parameter is outside its documented domain."""


class WitnessError(ValueError):
    """A supplied witness or precondition certificate does not check out."""


class FormatError(ValueError):
    """An input file or JSON document violates its schema."""


class GuardError(RuntimeError):
    """An instance exceeds the configured size guards for exhaustive search."""


# ---------------------------------------------------------------------------
# subset masks


def mask_from_points(points: Iterable[int], n: int) -> int:
    """Pack 1-based points into a bitmask, validating the range."""
    mask = 0
    for p in points:
        if not 1 <= p <= n:
            raise ParameterError(f"point {p} outside ground set [1..{n}]")
        bit = 1 << (p - 1)
        if mask & bit:
            raise ParameterError(f"duplicate point {p}")
        mask |= bit
    return mask


def points_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def enumerate_subsets(n: int, k: int) -> list[int]:
    """All k-subsets of [n] as masks in colexicographic order.

    Colex order on k-subsets coincides with increasing numeric order of the
    masks, so Gosper's hack walks it directly.  Returns exactly C(n,k)
    distinct masks.
    """
    if not 0 <= n <= MAX_GROUND:
        raise ParameterError(f"ground size n={n} outside [0..{MAX_GROUND}]")
    if not 0 <= k <= n:
        raise ParameterError(f"subset size k={k} outside [0..{n}]")
    if k == 0:
        return [0]
    m = (1 << k) - 1
    last = m << (n - k)
    out = [m]
    while m != last:
        c = m & -m
        r = m + c
        m = r | (((m ^ r) >> 2) // c)
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# domain records


@dataclass(frozen=True)
class GroundSet:
    """The point set [n]; n is capped so subsets fit in one word."""

    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_GROUND:
            raise ParameterError(f"ground size n={self.n} outside [1..{MAX_GROUND}]")


@dataclass(frozen=True)
class SubsetFamily:
    """An ordered family of distinct subsets of [n], optionally k-uniform."""

    n: int
    sets: tuple[int, ...]
    uniform_k: int | None = None

    def __post_init__(self) -> None:
        GroundSet(self.n)
        limit = full_mask(self.n)
        seen = set()
        for i, mask in enumerate(self.sets):
            if mask & ~limit:
                raise ParameterError(f"member {i} has points outside [1..{self.n}]")
            if mask in seen:
                raise ParameterError(f"member {i} duplicates an earlier set")
            seen.add(mask)
            if self.uniform_k is not None and mask.bit_count() != self.uniform_k:
                raise ParameterError(
                    f"member {i} has {mask.bit_count()} points, expected {self.uniform_k}"
                )

    @classmethod
    def from_iterables(
        cls, n: int, sets: Iterable[Iterable[int]], uniform_k: int | None = None
    ) -> "SubsetFamily":
        return cls(n, tuple(mask_from_points(s, n) for s in sets), uniform_k)

    def __len__(self) -> int:
        return len(self.sets)

    def to_json(self) -> dict:
        return {"n": self.n, "sets": [list(points_from_mask(m)) for m in self.sets]}


def family_from_json(obj: object) -> SubsetFamily:
    """Strictly validated {"n": int, "sets": [[int,...],...]} decoder."""
    if not isinstance(obj, dict):
        raise FormatError("family document must be a JSON object")
    if "n" not in obj or "sets" not in obj:
        raise FormatError("family document needs fields 'n' and 'sets'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise FormatError("field 'n' must be an integer")
    sets = obj["sets"]
    if not isinstance(sets, list):
        raise FormatError("field 'sets' must be a list of point lists")
    masks = []
    for i, entry in enumerate(sets):
        if not isinstance(entry, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in entry
        ):
            raise FormatError(f"sets[{i}] must be a list of integers")
        try:
            masks.append(mask_from_points(entry, n))
        except ParameterError as exc:
            raise FormatError(f"sets[{i}]: {exc}") from exc
    try:
        return SubsetFamily(n, tuple(masks))
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc


@dataclass(frozen=True)
class IndexMultiset:
    """Multiplicities over member indices of a family or code."""

    counts: tuple[tuple[int, int], ...]  # (index, multiplicity), sorted by index

    def __post_init__(self) -> None:
        prev = -1
        for idx, mult in self.counts:
            if idx <= prev:
                raise ParameterError("indices must be strictly increasing")
            if mult < 1:
                raise ParameterError(f"multiplicity of index {idx} must be positive")
            prev = idx
        if self.total < 1:
            raise ParameterError("multiset must be nonempty")

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "IndexMultiset":
        tally: dict[int, int] = {}
        for i in indices:
            tally[i] = tally.get(i, 0) + 1
        return cls(tuple(sorted(tally.items())))

    @property
    def total(self) -> int:
        return sum(m for _, m in self.counts)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.counts)

    def indices(self) -> Iterator[int]:
        for idx, mult in self.counts:
            for _ in range(mult):
                yield idx

    def to_json(self) -> list[list[int]]:
        return [[i, m] for i, m in self.counts]


@dataclass(frozen=True)
class FrameproofParams:
    """Coalition size c and agreement threshold s, with s0 = min(s, c-s)."""

    c: int
    s: int

    def __post_init__(self) -> None:
        if self.c < 2:
            raise ParameterError(f"coalition size c={self.c} must be >= 2")
        if not 1 <= self.s <= self.c - 1:
            raise ParameterError(f"threshold s={self.s} outside [1..{self.c - 1}]")

    @property
    def s0(self) -> int:
        return min(self.s, self.c - self.s)


@dataclass(frozen=True)
class DisjointnessParams:
    """Collection size lam with per-point caps derived from k1/k2.

    A collection of lam repeatable subsets of [n] qualifies iff every point
    lies in at most k1-1 and at least lam-k2+1 of them.  Either clause can be
    disabled (None) for the single-sided variants.
    """

    lam: int
    k1: int | None
    k2: int | None

    def __post_init__(self) -> None:
        if self.lam < 1:
            raise ParameterError(f"collection size lam={self.lam} must be >= 1")
        for name, val in (("k1", self.k1), ("k2", self.k2)):
            if val is not None and val < 1:
                raise ParameterError(f"{name}={val} must be >= 1 or None")

    @property
    def max_count(self) -> int:
        return self.lam if self.k1 is None else min(self.lam, self.k1 - 1)

    @property
    def min_count(self) -> int:
        return 0 if self.k2 is None else max(0, self.lam - self.k2 + 1)

    @property
    def feasible(self) -> bool:
        """Whether any qualifying collection can exist at all."""
        return self.min_count <= self.max_count

    @property
    def vacuous(self) -> bool:
        """Both clauses vacuous: every lam-collection qualifies."""
        return self.max_count >= self.lam and self.min_count == 0


# ---------------------------------------------------------------------------
# shared arithmetic


def lambda_of(c: int, s: int, k: int) -> tuple[int, int]:
    """Residue lam in [c] with lam = s*k (mod c), and t = ceil(s*k/c).

    The pair always satisfies lam*t + (c-lam)*(t-1) = s*k; lam is c, never 0,
    when c divides s*k.
    """
    FrameproofParams(c, s)
    if k < 1:
        raise ParameterError(f"k={k} must be >= 1")
    t = -(-s * k // c)
    lam = s * k % c or c
    if lam * t + (c - lam) * (t - 1) != s * k:
        raise AssertionError(f"lam={lam}, t={t} do not split s*k={s * k} over c={c}")
    return lam, t


def is_disjoint_collection(
    collection: Sequence[int],
    n: int,
    params: DisjointnessParams,
    within: int | None = None,
) -> bool:
    """Per-point test of the disjoint/covering property for a mask collection.

    Counts multiplicity over index positions, so repeated masks count twice.
    `within` restricts the ground set to a sub-mask (for collections living
    inside a fixed member A); by default all points of [n] are counted.
    """
    if len(collection) != params.lam:
        raise ParameterError(
            f"collection has {len(collection)} entries, expected lam={params.lam}"
        )
    ground = full_mask(n) if within is None else within
    lo, hi = params.min_count, params.max_count
    for p in range(n):
        bit = 1 << p
        if not ground & bit:
            continue
        cnt = sum(1 for m in collection if m & bit)
        if not lo <= cnt <= hi:
            return False
    return True


def _incidence_rows(family: SubsetFamily) -> np.ndarray:
    """Members x n rows, 1 on a member's points and -(index + 1) elsewhere:
    two distinct rows are equal exactly on the points both members contain."""
    sets = np.array(family.sets, dtype=np.uint64).reshape(-1, 1)
    inside = (sets >> np.arange(family.n, dtype=np.uint64) & np.uint64(1)) == 1
    return np.where(inside, 1, -np.arange(1, len(family) + 1).reshape(-1, 1))


def _own_split(rows: np.ndarray, r: int) -> Iterator[tuple[list[int], list[int]]]:
    """Per row x, the own and non-own r-subsets of its points (rows[x] > 0),
    as column masks in colex order; a subset is non-own when another row
    equals row x on all of it."""
    for x in range(rows.shape[0]):
        points = rows[x] > 0
        others = np.delete(_kernels.agreement_masks(rows[:, points], x), x)
        cols = np.flatnonzero(points).astype(np.uint64)
        k = len(cols)
        # the colex r-subsets of the k points, bit j for the j-th point
        subs = np.array(enumerate_subsets(k, r) if r <= k else [], dtype=np.uint64)[:, None]
        shared = ((subs & others) == subs).any(axis=1)
        # bit j to column cols[j]: the map is increasing, so it keeps colex order
        subsets = (subs >> np.arange(k, dtype=np.uint64) & np.uint64(1)) @ (np.uint64(1) << cols)
        yield subsets[~shared].tolist(), subsets[shared].tolist()


def own_subset_index(
    family: SubsetFamily, r: int
) -> dict[int, tuple[list[int], list[int]]]:
    """Per member, the own and non-own r-subsets (as masks, colex order).

    An r-subset T of member A is own iff no other member contains T.  The
    empty set is own only in a singleton family.
    """
    if len(family) == 0:
        raise ParameterError("family must be nonempty")
    if not 0 <= r <= family.n:
        raise ParameterError(f"r={r} outside [0..{family.n}]")
    return dict(enumerate(_own_split(_incidence_rows(family), r)))
