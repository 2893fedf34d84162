"""Constructive procedures: multiset partitions, Reed-Solomon codes,
packings, designs, induced packings and the multipartite word transform.

Everything here is deterministic for a fixed order/seed, and every
construction re-validates its defining property before returning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import (
    DisjointnessParams,
    FormatError,
    FrameproofParams,
    GuardError,
    ParameterError,
    SubsetFamily,
    WitnessError,
    enumerate_subsets,
    lambda_of,
    mask_from_points,
    points_from_mask,
)
from .gf import GF
from .matching import MatchingInstance, matching_number_exact
from .verify import Code, FocalWitness, Guards, find_focal_hypergraph

MAX_CODEWORDS = 1 << 20
# most bits of a faithful agreement-table chunk
_CHUNK_BITS = 12


# ---------------------------------------------------------------------------
# multiset partition completion


def greedy_multiset_partition(
    a_mask: int, given: Sequence[int], params: FrameproofParams
) -> list[int]:
    """Complete lam given t-subsets of A to an exact s-fold multiset cover.

    The given parts must be a (s+1, c-s+1)-disjoint collection inside A; the
    returned c-lam parts have t-1 points each and together with the given
    ones repeat every point of A exactly s times.  Parts are filled from the
    highest-multiplicity residue layer down, ties broken by point order.
    """
    c, s = params.c, params.s
    k = a_mask.bit_count()
    if k < 1:
        raise ParameterError("focus set A must be nonempty")
    lam, t = lambda_of(c, s, k)
    if len(given) != lam:
        raise WitnessError(f"got {len(given)} given parts, expected lam={lam}")
    counts: dict[int, int] = {p: 0 for p in points_from_mask(a_mask)}
    for i, part in enumerate(given):
        if part & ~a_mask:
            raise WitnessError(f"given part {i} is not a subset of A")
        if part.bit_count() != t:
            raise WitnessError(f"given part {i} has {part.bit_count()} points, expected t={t}")
        for p in points_from_mask(part):
            counts[p] += 1
    lo, hi = max(0, lam - (c - s + 1) + 1), s
    for p, cnt in counts.items():
        if not lo <= cnt <= hi:
            raise WitnessError(
                f"given parts are not ({s + 1},{c - s + 1})-disjoint in A: point {p} in {cnt}"
            )

    residue = {p: s - cnt for p, cnt in counts.items()}
    parts = c - lam
    if sum(residue.values()) != parts * (t - 1):
        raise AssertionError(
            f"residue sum {sum(residue.values())} != (c-lam)*(t-1) = {parts * (t - 1)}"
        )
    out: list[int] = []
    for _ in range(parts):
        ranked = sorted(
            (p for p, mult in residue.items() if mult > 0),
            key=lambda p: (-residue[p], p),
        )
        if len(ranked) < t - 1:
            raise WitnessError("residue multiset cannot fill a part of size t-1")
        pick = ranked[: t - 1]
        mask = 0
        for p in pick:
            residue[p] -= 1
            mask |= 1 << (p - 1)
        out.append(mask)
    if any(residue.values()):
        raise WitnessError("residue multiset not exhausted by the greedy parts")
    return out


# ---------------------------------------------------------------------------
# Reed-Solomon codes and distance certificates


def rs_code(q: int, n: int, t: int) -> Code:
    """Evaluations of all degree-<t polynomials at the first n field elements.

    Message m has coefficient j equal to the j-th base-q digit of m, and
    symbols are field elements shifted to 1..q.  All q^t words are built at
    once: level j adds the q x n table of c * x^j to every word of the
    levels below.  The minimum distance, the least nonzero weight since the
    code is linear, is checked to equal n-t+1 before returning.
    """
    if t < 1:
        raise ParameterError(f"dimension t={t} must be >= 1")
    if t > n:
        raise ParameterError(f"dimension t={t} exceeds length n={n}")
    if n > q:
        raise ParameterError(f"length n={n} exceeds q={q} (extended codes not built)")
    field = GF(q)
    size = q**t
    if size > MAX_CODEWORDS:
        raise GuardError(f"q^t = {size} codewords exceed the cap {MAX_CODEWORDS}")
    words = np.zeros((1, n), dtype=np.int64)
    points = np.arange(n)
    powers = np.ones(n, dtype=np.int64)  # x^j at every point, 0^0 = 1
    for j in range(t):
        if j:
            powers = field.mul(powers, points)
        table = field.mul(np.arange(q)[:, None], powers[None, :])
        # message c * q^j + m extends the word of message m < q^j
        words = field.add(table[:, None, :], words[None, :, :]).reshape(-1, n)
    code = Code(q, n, tuple(map(tuple, (words + 1).tolist())))
    # the code is linear, so its least nonzero weight (word 0 is zero) is its
    # distance, kept on the code for later certificates
    dist = int(np.count_nonzero(words[1:], axis=1).min())
    object.__setattr__(code, "min_distance", dist)
    if dist != n - t + 1:
        raise AssertionError(f"computed distance {dist} != n-t+1 = {n - t + 1}")
    return code


@dataclass(frozen=True)
class DistanceCertificate:
    """Sufficient-condition certificate: d(C) > floor((c-s)n/c) forces the
    threshold property; anything else is inconclusive, never a refutation."""

    certified: bool
    distance: int | None
    threshold: int

    def to_json(self) -> dict:
        return {
            "certified": self.certified,
            "distance": self.distance,
            "threshold": self.threshold,
        }


def certify_frameproof_by_distance(
    code: Code, params: FrameproofParams
) -> DistanceCertificate:
    if len(code) == 0:
        raise ParameterError("code must be nonempty")
    threshold = (params.c - params.s) * code.n // params.c
    if len(code) == 1:
        return DistanceCertificate(True, None, threshold)  # no pairs: vacuous
    dist = code.min_distance
    return DistanceCertificate(dist > threshold, dist, threshold)


# ---------------------------------------------------------------------------
# packings and designs


@dataclass(frozen=True)
class Packing:
    """k-uniform family with pairwise intersections below t."""

    family: SubsetFamily
    t: int
    is_design: bool

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def k(self) -> int:
        k = self.family.uniform_k
        if k is None:
            raise ParameterError("packing family is not declared uniform")
        return k

    def validate(self) -> None:
        for a, b in combinations(self.family.sets, 2):
            if (a & b).bit_count() >= self.t:
                raise ParameterError("two blocks share t or more points")
        if self.is_design != _design_flag(self.family, self.k, self.t):
            raise ParameterError("design flag does not match the block coverage")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "design": self.is_design,
            "blocks": [list(points_from_mask(m)) for m in self.family.sets],
        }


def _design_flag(family: SubsetFamily, k: int, t: int) -> bool:
    # callers pass blocks meeting in fewer than t points, so no t-subset lies
    # in two of them, and C(n,t)/C(k,t) blocks of k points cover every one
    return len(family) * comb(k, t) == comb(family.n, t)


def greedy_packing(
    n: int, k: int, t: int, order: str = "colex", seed: int | None = None
) -> Packing:
    """Maximal-by-inclusion packing: scan k-subsets, accept when every
    accepted block meets the candidate in fewer than t points.  Only the
    seeded-random order takes a seed, and it requires one."""
    if not n > k > t >= 1:
        raise ParameterError(f"need n > k > t >= 1, got ({n},{k},{t})")
    if comb(n, k) > MAX_CODEWORDS:
        raise GuardError(f"C(n,k) = {comb(n, k)} candidate sets exceed the cap {MAX_CODEWORDS}")
    candidates = enumerate_subsets(n, k)
    if order == "seeded-random":
        if seed is None:
            raise ParameterError("seeded-random order requires a seed")
    elif order != "colex":
        raise ParameterError(f"unknown order {order!r}")
    elif seed is not None:
        raise ParameterError("a seed requires the seeded-random order")
    cands = np.array(candidates, dtype=np.uint64)[_scan_order(len(candidates), seed)]

    def meets_below_t(block: np.uint64, later: np.ndarray) -> np.ndarray:
        return np.bitwise_count(later & block) < t

    accepted = _forward_scan(cands, meets_below_t).tolist()
    family = SubsetFamily(n, tuple(accepted), k)
    return Packing(family, t, _design_flag(family, k, t))


@dataclass(frozen=True)
class FrameproofCheck:
    """A family together with the verifier's verdict on it (when it ran)."""

    family: SubsetFamily
    checked: bool
    witness: FocalWitness | None


def packing_to_frameproof(
    packing: Packing, params: FrameproofParams, guards: Guards | None = None
) -> FrameproofCheck:
    """A packing of strength t = ceil(s*k/c) is threshold-safe by pigeonhole;
    the returned record carries a full verifier pass when within guards."""
    _, t = lambda_of(params.c, params.s, packing.k)
    if packing.t != t:
        raise ParameterError(
            f"packing strength {packing.t} != ceil(s*k/c) = {t} for (c,s)=({params.c},{params.s})"
        )
    try:
        witness = find_focal_hypergraph(packing.family, params, guards=guards)
        return FrameproofCheck(packing.family, True, witness)
    except GuardError:
        return FrameproofCheck(packing.family, False, None)


def load_design(path: str | Path) -> Packing:
    """Read and fully validate a design file: header "n k t", one block per
    line, every t-subset covered exactly once."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("design file is empty")
    header = lines[0].split()
    if len(header) != 3 or not all(tok.isdigit() for tok in header):
        raise FormatError(f"header must be 'n k t', got {lines[0]!r}")
    n, k, t = (int(tok) for tok in header)
    if not n > k > t >= 1:
        raise FormatError(f"need n > k > t >= 1 in header, got ({n},{k},{t})")
    if comb(n, t) % comb(k, t):
        raise FormatError(f"C({n},{t}) is not divisible by C({k},{t})")
    blocks = []
    for ln_no, ln in enumerate(lines[1:], start=2):
        toks = ln.split()
        if len(toks) != k or not all(tok.isdigit() for tok in toks):
            raise FormatError(f"line {ln_no}: expected {k} points, got {ln!r}")
        try:
            blocks.append(mask_from_points((int(tok) for tok in toks), n))
        except ParameterError as exc:
            raise FormatError(f"line {ln_no}: {exc}") from exc
    expected = comb(n, t) // comb(k, t)
    if len(blocks) != expected:
        raise FormatError(f"got {len(blocks)} blocks, a design needs {expected}")
    # C(n,t)/C(k,t) blocks of k points cover every t-subset if none twice
    seen: set[tuple[int, ...]] = set()
    for block in blocks:
        for pts in combinations(points_from_mask(block), t):
            if pts in seen:
                raise FormatError(f"t-subset {pts} covered more than once")
            seen.add(pts)
    try:
        family = SubsetFamily(n, tuple(blocks), k)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc
    return Packing(family, t, True)


# ---------------------------------------------------------------------------
# induced packings


@dataclass(frozen=True)
class InducedPacking:
    """Edge-disjoint pattern copies with induced vertex-overlap conditions."""

    k: int
    t: int
    pattern: SubsetFamily  # t-uniform on [k]
    copies: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    # each copy: (image of pattern points 1..k, embedded edge masks on [n])

    def vertex_masks(self, n: int) -> list[int]:
        return [mask_from_points(vs, n) for vs, _ in self.copies]

    def validate(self, n: int) -> None:
        """Recheck the packing conditions pairwise from scratch."""
        vmasks = self.vertex_masks(n)
        edge_sets = [set(edges) for _, edges in self.copies]
        for (verts, edges) in self.copies:
            expect = {
                _embed_mask(e, verts) for e in self.pattern.sets
            }
            if set(edges) != expect:
                raise ParameterError("copy edges are not the embedded pattern edges")
        for i, j in combinations(range(len(self.copies)), 2):
            if edge_sets[i] & edge_sets[j]:
                raise ParameterError(f"copies {i} and {j} share an edge")
            inter = vmasks[i] & vmasks[j]
            ic = inter.bit_count()
            if ic > self.t:
                raise ParameterError(f"copies {i} and {j} share {ic} > t vertices")
            if ic == self.t and (inter in edge_sets[i] or inter in edge_sets[j]):
                raise ParameterError(
                    f"copies {i} and {j} share a t-set that is an edge of one of them"
                )


def _embed_mask(pattern_edge: int, verts: tuple[int, ...]) -> int:
    mask = 0
    for p in points_from_mask(pattern_edge):
        mask |= 1 << (verts[p - 1] - 1)
    return mask


def _check_budget(budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ParameterError(f"budget {budget} must be >= 0")


def _scan_order(size: int, seed: int | None, budget: int | None = None) -> list[int]:
    """Candidate indices in scan order: shuffled when seeded, then the first budget."""
    order = list(range(size))
    if seed is not None:
        random.Random(seed).shuffle(order)
    return order[:budget]


def _forward_scan(
    candidates: np.ndarray, rule: Callable[[np.generic, np.ndarray], np.ndarray | None]
) -> np.ndarray:
    """The candidates a greedy accepts, in scan order.

    The candidates still alive are kept as one compacted array.  The first
    of them goes to rule(head, later) with the array of the later alive
    candidates; the rule returns which of them stay alive once head is
    accepted, or None to refuse head, which then clears nothing.
    """
    alive = candidates
    accepted = []
    while alive.size:
        head, later = alive[0], alive[1:]
        stay = rule(head, later)
        if stay is None:
            alive = later
        else:
            accepted.append(head)
            alive = later[stay]
    return np.array(accepted, dtype=candidates.dtype)


def matching_complement_pattern(k: int, c: int, s: int) -> SubsetFamily:
    """The t-subsets of [k] outside an extremal collection-free family."""
    lam, t = lambda_of(c, s, k)
    cert = matching_number_exact(
        MatchingInstance(k, t, DisjointnessParams(lam, s + 1, c - s + 1))
    )
    avoid = set(cert.family.sets)
    edges = tuple(e for e in enumerate_subsets(k, t) if e not in avoid)
    return SubsetFamily(k, edges, t)


def induced_packing_family(
    k: int,
    c: int,
    s: int,
    n: int,
    seed: int | None = None,
    budget: int | None = None,
) -> tuple[InducedPacking, SubsetFamily]:
    """Greedy induced packing of the matching-complement pattern, plus the
    family of copy vertex sets.

    Candidate vertex sets are scanned in colex (seeded shuffle optional);
    budget caps how many are examined.  An accepted copy (V, E) rules out
    every later W with |W & V| > t, or with W & V of size t and in E; a W
    still alive takes its first embedding (in permutation order of its
    points) whose edges avoid its t-point overlaps with the accepted copies.
    Copies share no edge, since a shared edge would lie inside some W & V.
    """
    _check_budget(budget)
    if not n >= k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    if comb(n, k) > MAX_CODEWORDS:
        raise GuardError(f"C(n,k) = {comb(n, k)} candidate sets exceed the cap {MAX_CODEWORDS}")
    pattern = matching_complement_pattern(k, c, s)
    t = pattern.uniform_k
    if t is None:
        raise AssertionError("matching-complement pattern is not uniform")
    edge_points = [points_from_mask(e) for e in pattern.sets]
    candidates = enumerate_subsets(n, k)
    cands = np.array(candidates, dtype=np.uint64)[_scan_order(len(candidates), seed, budget)]
    copies: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    vmasks: list[int] = []

    def embed(head: np.uint64, later: np.ndarray) -> np.ndarray | None:
        vmask = int(head)
        overlaps = {o for w in vmasks if (o := vmask & w).bit_count() == t}
        for verts in permutations(points_from_mask(vmask)):
            edges = sorted(sum(1 << (verts[p - 1] - 1) for p in e) for e in edge_points)
            if overlaps.isdisjoint(edges):
                break
        else:
            return None
        copies.append((verts, tuple(edges)))
        vmasks.append(vmask)
        inter = later & head
        size = np.bitwise_count(inter)
        # the sorted edges behind a 0 that no t-point overlap equals: an
        # overlap is an edge iff it equals the last of them not above it
        floor = np.array([0, *edges], dtype=np.uint64)
        is_edge = floor[np.searchsorted(floor, inter, side="right") - 1] == inter
        return (size < t) | ((size == t) & ~is_edge)

    _forward_scan(cands, embed)
    packing = InducedPacking(k, t, pattern, tuple(copies))
    packing.validate(n)
    return packing, SubsetFamily(n, tuple(vmasks), k)


# ---------------------------------------------------------------------------
# the multipartite transform


@dataclass(frozen=True)
class MultipartiteView:
    """Words as partial transversals of an n-parts-by-q-symbols ground set.

    Word x maps to {(i, x_i): i in [n]}, encoded on ground points
    (i-1)*q + x_i, and a transversal maps back to its word.  The restriction
    x_T of x to coordinates T is the sub-transversal on the parts in T, so
    own subsequences of x correspond exactly to own subsets of the image;
    coordinates_mask recovers T from a sub-transversal.
    """

    q: int
    n: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ParameterError(f"alphabet size q={self.q} must be >= 2")
        if self.n < 1:
            raise ParameterError(f"word length n={self.n} must be >= 1")
        if self.n * self.q > 64:
            raise ParameterError(
                f"transform ground set {self.n}*{self.q} exceeds 64 points"
            )

    @property
    def ground(self) -> int:
        return self.n * self.q

    def point(self, i: int, a: int) -> int:
        if not (1 <= i <= self.n and 1 <= a <= self.q):
            raise ParameterError(f"coordinate-symbol pair ({i},{a}) out of range")
        return (i - 1) * self.q + a

    def word_mask(self, word: Sequence[int]) -> int:
        mask = 0
        for i, a in enumerate(word, start=1):
            mask |= 1 << (self.point(i, a) - 1)
        return mask

    def coordinates_mask(self, subset_mask: int) -> int:
        """The set of coordinates a sub-transversal touches."""
        t_mask = 0
        for p in points_from_mask(subset_mask):
            t_mask |= 1 << ((p - 1) // self.q)
        return t_mask

    def inverse(self, mask: int) -> tuple[int, ...]:
        word = []
        for i in range(1, self.n + 1):
            part = ((1 << self.q) - 1) << ((i - 1) * self.q)
            hit = mask & part
            if hit.bit_count() != 1:
                raise ParameterError(f"mask is not a transversal on part {i}")
            word.append(hit.bit_length() - (i - 1) * self.q)
        return tuple(word)


def code_to_multipartite(code: Code) -> tuple[MultipartiteView, SubsetFamily]:
    """The transform view plus the image family of the whole code."""
    view = MultipartiteView(code.q, code.n)
    masks = tuple(view.word_mask(w) for w in code.words)
    return view, SubsetFamily(view.ground, masks, code.n)


def faithful_code_family(
    n: int,
    c: int,
    s: int,
    q: int,
    seed: int | None = None,
    budget: int | None = None,
) -> Code:
    """Greedy faithful induced packing in the complete n-partite host,
    returned directly as a code.

    Two accepted words may agree on at most t coordinates, and an agreement
    set of exactly t coordinates must avoid the pattern; this is precisely
    the faithful induced condition for one-vertex-per-part copies.
    """
    if q < 2:
        raise ParameterError(f"alphabet size q={q} must be >= 2")
    if n < 1:
        raise ParameterError(f"word length n={n} must be >= 1")
    _check_budget(budget)
    size = q**n
    if size > MAX_CODEWORDS:
        raise GuardError(f"q^n = {size} candidate words exceed the cap {MAX_CODEWORDS}")
    pattern = matching_complement_pattern(n, c, s)
    t = pattern.uniform_k
    if t is None:
        raise AssertionError("matching-complement pattern is not uniform")
    # the agreement sets two accepted words may have
    keep = np.bitwise_count(np.arange(1 << n)) <= t
    keep[list(pattern.sets)] = False
    # each candidate, in scan order, as its 0-based symbols packed b bits
    # apiece, coordinate i at bit i * b
    b = (q - 1).bit_length()
    key_type = np.min_scalar_type((1 << n * b) - 1)
    index = np.array(_scan_order(size, seed, budget), dtype=np.int64)
    keys = np.zeros(len(index), dtype=key_type)
    for i in range(n - 1, -1, -1):
        index, symbols = np.divmod(index, q)
        keys |= symbols.astype(key_type) << i * b
    # two keys agree on coordinate i where bits i * b.. of their XOR are 0;
    # the XOR is read in chunks of at most 12 bits (one coordinate when
    # b > 12), each with a table from its chunk to the agreement bits
    mask_type = np.min_scalar_type((1 << n) - 1)
    field = (1 << b) - 1
    per = max(1, _CHUNK_BITS // b)
    chunks = []
    for lo in range(0, n, per):
        width = min(per, n - lo) * b
        chunk = np.arange(1 << width)
        table = np.zeros(1 << width, dtype=mask_type)
        for i in range(lo, min(lo + per, n)):
            table |= (((chunk >> (i - lo) * b) & field) == 0).astype(mask_type) << i
        chunks.append((lo * b, (1 << width) - 1, table))

    def faithful_to(key: np.generic, later: np.ndarray) -> np.ndarray:
        diff = later ^ key
        masks = np.zeros(len(later), dtype=mask_type)
        for shift, bits, table in chunks:
            masks |= table[(diff >> shift) & bits]
        return keep[masks]

    accepted = _forward_scan(keys, faithful_to).astype(np.int64)
    words = ((accepted[:, None] >> np.arange(n) * b) & field) + 1
    return Code(q, n, tuple(map(tuple, words.tolist())))
