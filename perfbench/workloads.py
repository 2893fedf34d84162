"""The three seeded workloads, built as lists of items that call the public
API of frameproof_lab.

Why these three (see NOTES.md for the full table):

- verify-holds: the property holds, so every focus is searched to
  exhaustion; the coalition search in `verify` does almost all the work.
- m-table: the matching solver, its brute-force cross-check and the bound
  reports built on its value; touches neither `verify` nor `gf`.
- construct: RS codes over prime and prime-power fields plus the packing,
  design, partition, faithful and induced constructions; GF arithmetic and
  assembly dominate.

The seed drives isomorphic relabelling (coordinate and point permutations,
symbol permutations, member order) and construction seeds.  The ladder of
sizes never depends on the seed, so different seeds give comparable work.
Every item looks the public names up on the package at call time, so the
traced run's wrappers see each call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import checks

# Explicit limits; the environment's FRAMEPROOF_LAB_GUARDS is never consulted.
GUARD_C = 8
GUARD_MEMBERS = 256
NODE_BUDGET = 2500
ROOT = Path(__file__).resolve().parent.parent
DESIGN_FILES = ("tests/data/fano.txt", "tests/data/s239.txt")


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    # raises checks.CheckFailed; `peers` maps label -> result of the same pass
    check: Callable[[object, dict], None]
    payload: Callable[[object], object]
    exact: Callable[[object], bool] = lambda result: True
    # lower-only answers are re-validated but kept out of the digest
    digested: Callable[[object], bool] = lambda result: True


LIMITS = {"guards": {"c": GUARD_C, "members": GUARD_MEMBERS}, "matching_node_budget": NODE_BUDGET}


# ---------------------------------------------------------------------------
# relabelling


def relabel_code(fl, code, rng: random.Random):
    """An isomorphic copy: permuted coordinates, a symbol permutation per
    coordinate and shuffled word order."""
    n, q = code.n, code.q
    coords = list(range(n))
    rng.shuffle(coords)
    symbols = [rng.sample(range(1, q + 1), q) for _ in range(n)]
    words = [tuple(symbols[i][w[coords[i]] - 1] for i in range(n)) for w in code.words]
    rng.shuffle(words)
    return fl.Code(q, n, tuple(words))


def relabel_family(fl, family, rng: random.Random):
    """An isomorphic copy: permuted points and shuffled member order."""
    points = list(range(family.n))
    rng.shuffle(points)
    sets = [
        sum(1 << points[p - 1] for p in fl.points_from_mask(mask)) for mask in family.sets
    ]
    rng.shuffle(sets)
    return fl.SubsetFamily(family.n, tuple(sets), family.uniform_k)


# ---------------------------------------------------------------------------
# verify workloads

# (q, n, t) -> [(c, s, variants)], variants "R" repeatable, "D" critical.
# The property holds at every listed pair (the RS distance certifies it).
HOLDS_CODES = {
    (4, 4, 2): [(c, s, "RD") for c, s in (
        (2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4),
        (6, 2), (6, 3), (6, 4), (6, 5))],
    (5, 5, 2): [(c, s, "RD") for c, s in (
        (2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 3), (5, 4), (6, 4), (6, 5))],
    (7, 7, 2): [(2, 1, "RD"), (3, 1, "R"), (3, 2, "RD"), (4, 3, "R"), (5, 4, "R"), (6, 5, "D")],
    (8, 8, 2): [(2, 1, "RD"), (3, 2, "R"), (4, 3, "D"), (5, 4, "R")],
    (9, 9, 2): [(2, 1, "RD"), (5, 4, "D")],
    (5, 5, 3): [(2, 1, "R")],
}

# Colex greedy packings (n, k, t) checked at (c, s) pairs with
# ceil(s*k/c) = t, where pigeonhole makes the property hold.
HOLDS_PACKINGS = [
    ((9, 3, 2), [(c, s, "RD") for c, s in ((2, 1), (3, 2), (4, 2), (5, 2), (5, 3), (6, 3))]),
    ((12, 3, 2), [(c, s, "RD") for c, s in ((2, 1), (3, 2), (4, 2), (5, 3), (6, 4))]),
    ((12, 4, 2), [(c, s, "RD") for c, s in ((2, 1), (3, 1), (4, 2), (5, 2), (6, 3))]),
    ((14, 4, 3), [(3, 2, "R")]),
    ((15, 5, 3), [(2, 1, "RD"), (4, 2, "RD"), (5, 3, "RD")]),
]
DESIGN_PAIRS = [(2, 1, "RD"), (3, 2, "RD"), (4, 2, "RD")]  # both files have k=3, t=2

TINY_HOLDS_CODES = {(4, 4, 2): [(3, 1, "RD")]}
TINY_HOLDS_PACKINGS = [((7, 3, 2), [(2, 1, "RD")])]

# Negative controls: (c, s) pairs at which the property fails on the same
# kinds of input, so the search must return a witness.  The first witness
# lies at an early focus, so they are fast and barely move the timings, but a
# search that stops finding witnesses fails their checks.
CONTROL_CODES = {(4, 4, 2): [(4, 1, "RD")], (5, 5, 2): [(5, 1, "RD")]}
CONTROL_PACKINGS = [((9, 3, 2), [(3, 1, "RD"), (6, 2, "RD")]), ((12, 4, 2), [(4, 1, "RD")])]
# RS copies with a descendant of two words planted in their second half: the
# (2, 1) repeatable search pair-scans every earlier focus, then finds it.
PLANTED_PAIR_CODES = [(5, 5, 2), (7, 7, 2)]
TINY_CONTROL_CODES = {(4, 4, 2): [(4, 1, "R")]}
TINY_CONTROL_PACKINGS: list = []
TINY_PLANTED_PAIR_CODES = [(4, 4, 2)]


def _verify_payload(result) -> dict:
    return {"holds": True} if result is None else result.to_json()


def _search(fl, obj, params, variant: str, guards):
    if variant == "D":
        return lambda: fl.find_critical_focal(obj, params, guards=guards)
    if isinstance(obj, fl.Code):
        return lambda: fl.find_focal_code(obj, params, guards=guards)
    return lambda: fl.find_focal_hypergraph(obj, params, guards=guards)


def _base_instances(fl, codes: dict, packings: list):
    """RS codes and colex packing families, built in set-up, so RS
    construction (and its GF work) is part of setup_s."""
    out = []
    for (q, n, t), pairs in codes.items():
        out.append((f"RS({q},{n},{t})", fl.rs_code(q, n, t), pairs))
    for (n, k, t), pairs in packings:
        out.append((f"packing({n},{k},{t})", fl.greedy_packing(n, k, t).family, pairs))
    return out


def plant_pair(fl, code, rng: random.Random):
    """A copy of an RS(q,n,2) code with one extra word that agrees with word
    a on its first half and with word b on the rest, inserted at a seeded
    index in the second half.  Each other word agrees with an earlier focus
    in at most one coordinate and the plant in at most two, so no pair
    covers an earlier focus, and (a, b) covers the plant."""
    a, b = rng.sample(code.words, 2)
    half = code.n // 2
    words = list(code.words)
    at = rng.randrange(len(words) // 2, len(words) + 1)
    words.insert(at, a[:half] + b[half:])
    return fl.Code(code.q, code.n, tuple(words)), at


def verify_holds(fl, seed: int, tiny: bool = False) -> list[Item]:
    rng = random.Random(seed * 7919 + 1)
    guards = fl.Guards(c=GUARD_C, members=GUARD_MEMBERS)
    codes = TINY_HOLDS_CODES if tiny else HOLDS_CODES
    packings = TINY_HOLDS_PACKINGS if tiny else HOLDS_PACKINGS
    instances = _base_instances(fl, codes, packings)
    if not tiny:
        # the repository's design files join the packing rungs
        for path in DESIGN_FILES:
            family = fl.load_design(ROOT / path).family
            instances.append((f"design {Path(path).name}", family, DESIGN_PAIRS))
    items = []
    for name, base, pairs in instances:
        relabel = relabel_code if isinstance(base, fl.Code) else relabel_family
        obj = relabel(fl, base, rng)
        for c, s, variants in pairs:
            params = fl.FrameproofParams(c, s)
            for variant in variants:
                items.append(
                    Item(
                        f"{name} ({c},{s}) {variant} holds",
                        _search(fl, obj, params, variant, guards),
                        checks.holds(fl, obj, params, variant == "D"),
                        _verify_payload,
                    )
                )

    controls = _base_instances(
        fl,
        TINY_CONTROL_CODES if tiny else CONTROL_CODES,
        TINY_CONTROL_PACKINGS if tiny else CONTROL_PACKINGS,
    )
    for name, base, pairs in controls:
        relabel = relabel_code if isinstance(base, fl.Code) else relabel_family
        obj = relabel(fl, base, rng)
        for c, s, variants in pairs:
            params = fl.FrameproofParams(c, s)
            for variant in variants:
                items.append(_witness_item(fl, f"{name} ({c},{s}) {variant}", obj, params, variant,
                                           guards, None))
    pair = fl.FrameproofParams(2, 1)
    for q, n, t in TINY_PLANTED_PAIR_CODES if tiny else PLANTED_PAIR_CODES:
        obj, at = plant_pair(fl, relabel_code(fl, fl.rs_code(q, n, t), rng), rng)
        items.append(_witness_item(fl, f"RS({q},{n},{t}) planted@{at} (2,1) R", obj, pair, "R",
                                   guards, at))
    return items


def _witness_item(fl, label: str, obj, params, variant: str, guards, planted) -> Item:
    return Item(
        f"{label} witness",
        _search(fl, obj, params, variant, guards),
        checks.witness(fl, obj, params, variant == "D", planted),
        _verify_payload,
    )


# ---------------------------------------------------------------------------
# m-table

K8_CELLS = ((3, 1), (4, 3), (5, 1), (6, 2))
BRUTE_MAX_SUBSETS = 20
BOUNDS_N_FACTOR = 3  # hypergraph bounds are reported on [3k]
BOUNDS_Q = 7  # code bounds are reported for alphabet size 7


def _cells(tiny: bool) -> list[tuple[int, int, int]]:
    if tiny:
        return [(3, 1, 4), (4, 2, 5)]
    cells = [(c, s, k) for k in range(2, 8) for c in range(2, 7) for s in range(1, c)]
    return cells + [(c, s, 8) for c, s in K8_CELLS]


def _instance(fl, c: int, s: int, k: int):
    lam, t = fl.lambda_of(c, s, k)
    return fl.MatchingInstance(k, t, fl.DisjointnessParams(lam, s + 1, c - s + 1))


def _m_cell(fl, instance, c: int, s: int, k: int):
    def run():
        cert = fl.matching_number_exact(instance, budget=NODE_BUDGET)
        hyper = fl.hypergraph_bounds(BOUNDS_N_FACTOR * k, k, c, s, cert.value)
        code = fl.code_bounds(k, c, s, BOUNDS_Q, cert.value)
        return cert, hyper, code

    return run


def m_table(fl, seed: int, tiny: bool = False) -> list[Item]:
    """Seed-independent: the cells are parameters, with nothing to relabel."""
    items = []
    for c, s, k in _cells(tiny):
        instance = _instance(fl, c, s, k)
        brute = comb(instance.n, instance.t) <= BRUTE_MAX_SUBSETS
        items.append(
            Item(
                f"m cell (c,s,k)=({c},{s},{k})",
                _m_cell(fl, instance, c, s, k),
                checks.m_cell(fl, instance, c, s, k, f"m brute ({c},{s},{k})" if brute else None,
                              BOUNDS_N_FACTOR * k, BOUNDS_Q),
                lambda r: [r[0].to_json(), r[1].to_json(), r[2].to_json()],
                exact=lambda r: r[0].status == "exact",
                digested=lambda r: r[0].status == "exact",
            )
        )
        if brute:
            items.append(_brute_item(fl, f"m brute ({c},{s},{k})", instance, (c, s)))
    if not tiny:
        # a vacuous sweep: every collection qualifies, so m = 0
        vacuous = fl.MatchingInstance(6, 3, fl.DisjointnessParams(2, None, None))
        items.append(_brute_item(fl, "m brute vacuous (6,3,2;inf,inf)", vacuous, None))
    return items


def _brute_item(fl, label: str, instance, cs) -> Item:
    return Item(
        label,
        lambda: fl.matching_number_brute(instance),
        checks.m_brute(fl, instance, cs),
        lambda r: {"value": r[0], "family": r[1].to_json()},
    )


# ---------------------------------------------------------------------------
# construct

RS_PRIME = {7: [(4, 2), (7, 2), (5, 3), (4, 4)], 11: [(4, 2), (11, 2), (5, 3)],
            13: [(4, 2), (13, 2), (4, 3)], 31: [(4, 2), (8, 2), (31, 2)]}
RS_PRIME_POWER = {8: [(4, 2), (8, 2), (5, 3), (4, 3)], 9: [(4, 2), (9, 2), (5, 3)],
                  16: [(4, 2), (16, 2), (4, 3)], 25: [(4, 2), (25, 2)],
                  27: [(4, 2), (27, 2)]}
RS_CERTIFY = ((2, 1), (3, 1), (4, 3))
PACKINGS = [(7, 3, 2), (8, 3, 2), (9, 3, 2), (10, 3, 2), (11, 3, 2), (12, 3, 2), (13, 3, 2),
            (10, 4, 2), (12, 4, 2), (16, 4, 2), (10, 4, 3), (12, 4, 3), (14, 4, 3),
            (12, 5, 3), (15, 5, 3), (12, 5, 2)]
PARTITIONS = [(3, 1, 4), (3, 2, 4), (3, 2, 5), (4, 2, 5), (4, 3, 6), (5, 2, 6),
              (5, 3, 7), (5, 4, 6), (6, 2, 7), (6, 4, 6), (6, 5, 8), (4, 1, 7)]
PARTITION_COPIES = 2
# (n, c, s, q); (6, 4, 2, 3) carries an unbudgeted inner solve of about 2 s
FAITHFUL = [(3, 2, 1, 3), (4, 2, 1, 3), (4, 3, 1, 3), (4, 3, 2, 4), (5, 2, 1, 3),
            (5, 3, 2, 4), (5, 4, 3, 4), (6, 2, 1, 4), (6, 3, 2, 4), (6, 4, 3, 3),
            (6, 4, 2, 3)]
# (k, c, s, n)
INDUCED = [(3, 2, 1, 6), (3, 3, 1, 7), (3, 3, 2, 8), (4, 2, 1, 8), (4, 3, 2, 8),
           (4, 4, 3, 9), (5, 2, 1, 9), (5, 3, 2, 9), (5, 4, 2, 9), (5, 4, 3, 9)]


def _partition_input(fl, c: int, s: int, k: int, rng: random.Random):
    """A seeded A and lam given t-subsets of A whose point counts lie in
    [lam-(c-s), s], the precondition of the greedy completion."""
    lam, t = fl.lambda_of(c, s, k)
    a_points = sorted(rng.sample(range(1, k + 4), k))
    lo, hi = max(0, lam - (c - s)), s
    while True:
        given = [sorted(rng.sample(a_points, t)) for _ in range(lam)]
        counts = [sum(p in g for g in given) for p in a_points]
        if all(lo <= cnt <= hi for cnt in counts):
            break
    a_mask = sum(1 << (p - 1) for p in a_points)
    return a_mask, [sum(1 << (p - 1) for p in g) for g in given], fl.FrameproofParams(c, s)


def construct(fl, seed: int, tiny: bool = False) -> list[Item]:
    rng = random.Random(seed * 7919 + 4)
    items = []
    rs = {7: [(4, 2)], 8: [(4, 2)]} if tiny else {**RS_PRIME, **RS_PRIME_POWER}
    for q, shapes in sorted(rs.items()):
        for n, t in shapes:
            c, s = RS_CERTIFY[len(items) % len(RS_CERTIFY)]
            params = fl.FrameproofParams(c, s)

            def run(q=q, n=n, t=t, params=params):
                code = fl.rs_code(q, n, t)
                return code, fl.certify_frameproof_by_distance(code, params)

            items.append(
                Item(
                    f"rs_code({q},{n},{t}) + certify ({c},{s})",
                    run,
                    checks.rs(fl, q, n, t, params),
                    lambda r: [r[0].to_json(), r[1].to_json()],
                )
            )
    for n, k, t in PACKINGS[:1] if tiny else PACKINGS:
        for order in ("colex", "seeded-random"):
            seed_arg = rng.randrange(1 << 30) if order == "seeded-random" else None
            items.append(
                Item(
                    f"greedy_packing({n},{k},{t},{order})",
                    lambda n=n, k=k, t=t, order=order, sd=seed_arg: fl.greedy_packing(
                        n, k, t, order=order, seed=sd
                    ),
                    checks.packing(fl, n, k, t),
                    lambda r: r.to_json(),
                )
            )
    if not tiny:
        for path in DESIGN_FILES:
            full = ROOT / path
            items.append(
                Item(
                    f"load_design({path})",
                    lambda full=full: fl.load_design(full),
                    checks.design(fl),
                    lambda r: r.to_json(),
                )
            )
    for c, s, k in PARTITIONS[:1] if tiny else PARTITIONS:
        for _ in range(1 if tiny else PARTITION_COPIES):
            a_mask, given, params = _partition_input(fl, c, s, k, rng)
            items.append(
                Item(
                    f"greedy_multiset_partition (c,s,k)=({c},{s},{k})",
                    lambda a=a_mask, g=given, p=params: fl.greedy_multiset_partition(a, g, p),
                    checks.partition(fl, a_mask, given, params),
                    lambda r: {"parts": [list(fl.points_from_mask(m)) for m in r]},
                )
            )
    for n, c, s, q in FAITHFUL[:1] if tiny else FAITHFUL:
        sd = rng.randrange(1 << 30)
        items.append(
            Item(
                f"faithful_code_family({n},{c},{s},{q})",
                lambda n=n, c=c, s=s, q=q, sd=sd: fl.faithful_code_family(n, c, s, q, seed=sd),
                checks.faithful(fl, n, c, s, q),
                lambda r: r.to_json(),
            )
        )
    for k, c, s, n in INDUCED[:1] if tiny else INDUCED:
        sd = rng.randrange(1 << 30)
        items.append(
            Item(
                f"induced_packing_family({k},{c},{s},{n})",
                lambda k=k, c=c, s=s, n=n, sd=sd: fl.induced_packing_family(k, c, s, n, seed=sd),
                checks.induced(fl, k, n),
                lambda r: {
                    "pattern": r[0].pattern.to_json(),
                    "copies": [
                        {"vertices": list(vs), "edges": [list(fl.points_from_mask(e)) for e in es]}
                        for vs, es in r[0].copies
                    ],
                    "family": r[1].to_json(),
                },
            )
        )
    return items


WORKLOADS = {
    "verify-holds": verify_holds,
    "m-table": m_table,
    "construct": construct,
}
