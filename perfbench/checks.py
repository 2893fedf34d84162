"""Answer checks, run outside the timed region.

Each check is independent of the path being measured: holds verdicts are
compared with the distance certificate or a pigeonhole recount and, on small
instances, with the flat reference enumerator; witnesses of the negative
controls are re-validated here and their focus compared with the reference
enumerator's; exact matching numbers are
held against the closed-form sandwich and the brute-force oracle;
constructions are recounted here from their raw output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np

# largest number of coalitions the reference enumerator may visit per check
NAIVE_LIMIT = 20_000


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _naive_affordable(size: int, c: int, distinct: bool, foci: int) -> bool:
    per_focus = comb(size - 1, c) if distinct else comb(size - 1 + c - 1, c)
    return per_focus * foci <= NAIVE_LIMIT


def _packing_strength_holds(family, params) -> bool:
    """Pigeonhole: a k-uniform family with pairwise intersections below
    t = ceil(s*k/c) has the (c, s) property."""
    k = family.uniform_k
    t = -(-params.s * k // params.c)
    return all((a & b).bit_count() < t for a, b in combinations(family.sets, 2))


def holds(fl, obj, params, distinct: bool):
    def check(result, peers):
        if isinstance(obj, fl.Code):
            expected = fl.certify_frameproof_by_distance(obj, params).certified
        else:
            expected = _packing_strength_holds(obj, params)
        require(expected, "input is not certified to hold; the workload is mis-built")
        require(result is None, f"verdict is a witness at focus {getattr(result, 'focus', '?')}")
        if _naive_affordable(len(obj), params.c, distinct, len(obj)):
            require(fl.naive_find_focal(obj, params, distinct) is None, "reference finds a witness")

    return check


def witness(fl, obj, params, distinct: bool, planted: int | None):
    """A negative control: the property fails, so the search must return a
    witness that the benchmark's own validate_witness call accepts, at or
    before the planted index, and at the reference enumerator's focus where
    that is affordable."""

    def check(result, peers):
        require(result is not None, "no witness where the property fails")
        require(result.distinct == distinct, "witness distinctness differs from the search")
        try:
            fl.validate_witness(obj, result, params)
        except (ValueError, IndexError) as exc:
            raise CheckFailed(f"witness does not validate: {exc}") from exc
        if planted is not None:
            require(result.focus <= planted, f"focus {result.focus} after the plant at {planted}")
        if _naive_affordable(len(obj), params.c, distinct, result.focus + 1):
            ref = fl.naive_find_focal(obj, params, distinct)
            require(ref is not None, "reference finds no witness")
            require(ref.focus == result.focus, f"focus {result.focus}, reference {ref.focus}")

    return check


# ---------------------------------------------------------------------------
# matching numbers


def _family_ok(fl, family, instance, value: int) -> None:
    n, t = instance.n, instance.t
    require(len(family.sets) == value, "family size differs from the value")
    require(
        all(m.bit_count() == t and m >> n == 0 for m in family.sets),
        "family is not t-uniform on [n]",
    )
    require(
        fl.find_violating_collection(family, instance.params) is None,
        "family contains a qualifying collection",
    )


def _sandwich(fl, instance, c: int, s: int, value: int, exact: bool) -> None:
    lam = instance.params.lam
    report = fl.matching_closed_bounds(instance.n, instance.t, lam, s, c - s)
    for entry in report.applicable():
        if entry.quantity != report.quantity:
            continue
        if entry.direction == "upper":
            require(value <= entry.value, f"{value} above upper bound {entry.value}")
        elif exact and entry.direction == "lower":
            require(value >= entry.value, f"{value} below lower bound {entry.value}")
        elif exact and entry.direction == "exact":
            require(value == entry.value, f"{value} differs from closed form {entry.value}")


def _entry(report, source: str):
    found = [e for e in report.entries if e.source == source]
    require(len(found) == 1, f"bound report lacks {source!r}")
    return found[0]


def m_cell(fl, instance, c: int, s: int, k: int, brute_label: str | None, hyper_n: int, q: int):
    def check(result, peers):
        cert, hyper, code = result
        require(cert.status in ("exact", "lower-only"), f"unknown status {cert.status!r}")
        exact = cert.status == "exact"
        _family_ok(fl, cert.family, instance, cert.value)
        _sandwich(fl, instance, c, s, cert.value, exact)
        if exact and brute_label is not None:
            ref = peers.get(brute_label)
            require(ref is not None, "brute-force reference missing")
            require(ref[0] == cert.value, f"exact {cert.value} != brute {ref[0]}")
        t = instance.t
        denom = comb(k, t) - cert.value
        expected = Fraction(comb(hyper_n, t), denom) if denom > 0 else 0
        require(_entry(hyper, "own-subset counting").value == expected, "hypergraph bound recount")
        expected = Fraction(comb(k, t), denom) * q**t if denom > 0 else 0
        require(_entry(code, "own-subsequence counting").value == expected, "code bound recount")

    return check


def m_brute(fl, instance, cs: tuple[int, int] | None):
    def check(result, peers):
        value, family = result
        _family_ok(fl, family, instance, value)
        if cs is None:
            # every collection qualifies: even one member repeated lam times
            require(value == 0, f"vacuous instance has value {value}, expected 0")
        else:
            _sandwich(fl, instance, cs[0], cs[1], value, exact=True)

    return check


# ---------------------------------------------------------------------------
# constructions


def rs(fl, q: int, n: int, t: int, params):
    def check(result, peers):
        code, cert = result
        words = code.words
        require(len(words) == q**t and len(set(words)) == q**t, "wrong number of distinct words")
        arr = np.array(words, dtype=np.int64)
        require(arr.shape == (q**t, n), "wrong word length")
        require(bool(((arr >= 1) & (arr <= q)).all()), "symbol outside 1..q")
        d = n - t + 1
        # the code is linear, so every word sees the minimum distance
        for base in (0, len(words) - 1):
            dist = (arr != arr[base]).sum(axis=1)
            dist[base] = n + 1
            require(int(dist.min()) == d, f"distance from word {base} is not n-t+1={d}")
        if all(q % p for p in range(2, q)):  # prime field: evaluate directly
            expected = {
                tuple(sum(a * x**i for i, a in enumerate(coeffs)) % q + 1 for x in range(n))
                for coeffs in product(range(q), repeat=t)
            }
            require(set(words) == expected, "words are not the degree-<t evaluations")
        threshold = (params.c - params.s) * n // params.c
        require(cert.threshold == threshold and cert.distance == d, "certificate fields")
        require(cert.certified == (d > threshold), "certificate verdict")

    return check


def _blocks_ok(family, n: int, k: int, t: int) -> None:
    sets = family.sets
    require(len(set(sets)) == len(sets), "repeated block")
    require(all(b.bit_count() == k and b >> n == 0 for b in sets), "block is not a k-subset of [n]")
    require(
        all((a & b).bit_count() < t for a, b in combinations(sets, 2)),
        "two blocks share t or more points",
    )


def _is_design(fl, family, n: int, t: int) -> bool:
    covered: dict[int, int] = {}
    for block in family.sets:
        for pts in combinations(fl.points_from_mask(block), t):
            mask = sum(1 << (p - 1) for p in pts)
            covered[mask] = covered.get(mask, 0) + 1
    return len(covered) == comb(n, t) and all(v == 1 for v in covered.values())


def _own_validate(obj, *args) -> None:
    try:
        obj.validate(*args)
    except ValueError as exc:
        raise CheckFailed(f"validate() rejects the construction: {exc}") from exc


def packing(fl, n: int, k: int, t: int):
    def check(result, peers):
        _own_validate(result)
        family = result.family
        _blocks_ok(family, n, k, t)
        require(result.is_design == _is_design(fl, family, n, t), "design flag recount")
        accepted = set(family.sets)
        for pts in combinations(range(n), k):
            cand = sum(1 << p for p in pts)
            if cand not in accepted:
                require(
                    any((cand & b).bit_count() >= t for b in family.sets),
                    "greedy packing is not maximal",
                )

    return check


def design(fl):
    def check(result, peers):
        _own_validate(result)
        family = result.family
        _blocks_ok(family, family.n, result.k, result.t)
        require(result.is_design and _is_design(fl, family, family.n, result.t), "not a design")

    return check


def partition(fl, a_mask: int, given: list[int], params):
    def check(result, peers):
        k = a_mask.bit_count()
        lam, t = fl.lambda_of(params.c, params.s, k)
        require(len(result) == params.c - lam, "wrong number of parts")
        require(all(p & ~a_mask == 0 and p.bit_count() == t - 1 for p in result), "part shape")
        for p in fl.points_from_mask(a_mask):
            bit = 1 << (p - 1)
            cover = sum(1 for part in list(given) + list(result) if part & bit)
            require(cover == params.s, f"point {p} covered {cover} times, expected s")

    return check


def faithful(fl, n: int, c: int, s: int, q: int):
    def check(result, peers):
        words = result.words
        require(result.n == n and result.q == q, "code shape")
        require(len(set(words)) == len(words) and len(words) >= 1, "repeated or no words")
        pattern = fl.matching_complement_pattern(n, c, s)
        t = pattern.uniform_k
        edges = set(pattern.sets)
        for u, w in combinations(words, 2):
            agree = sum(1 << i for i in range(n) if u[i] == w[i])
            size = agree.bit_count()
            require(size < t or (size == t and agree not in edges), "words agree on a pattern edge")

    return check


def induced(fl, k: int, n: int):
    def check(result, peers):
        pack, family = result
        _own_validate(pack, n)
        vmasks = [sum(1 << (v - 1) for v in verts) for verts, _ in pack.copies]
        require(list(family.sets) == vmasks, "family is not the copies' vertex sets")
        require(all(m.bit_count() == k for m in vmasks), "copy is not a k-set")
        edges = [set(es) for _, es in pack.copies]
        for i, j in combinations(range(len(vmasks)), 2):
            require((vmasks[i] & vmasks[j]).bit_count() <= pack.t, "copies overlap in > t vertices")
            require(not edges[i] & edges[j], "copies share an edge")

    return check
