"""Command-line front end.

Exit codes separate the mathematical outcome from operational failure:
0 = property holds / artifact produced, 1 = witness found or the requested
computation could not be completed exactly, 2 = input or parameter error.
Identical arguments (and seed) always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import code_bounds, hypergraph_bounds
from .core import (
    DisjointnessParams,
    FormatError,
    FrameproofParams,
    GuardError,
    IndexMultiset,
    ParameterError,
    SubsetFamily,
    WitnessError,
    family_from_json,
    lambda_of,
    mask_from_points,
    points_from_mask,
)
from .constructions import (
    faithful_code_family,
    greedy_multiset_partition,
    greedy_packing,
    induced_packing_family,
    load_design,
    rs_code,
)
from .matching import (
    MatchingInstance,
    matching_closed_bounds,
    matching_number_exact,
)
from .verify import (
    code_from_json,
    descendant_alphabet,
    find_critical_focal,
    find_focal_code,
    find_focal_hypergraph,
)

USER_ERRORS = (ParameterError, WitnessError, FormatError, GuardError)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    if not out:
        raise ParameterError("--out must name a file")
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise FormatError(f"{out}: {exc}") from exc


def _load_json(path: str) -> object:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _parse_points(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"bad point list {text!r}") from exc


def _parse_k(text: str) -> int | None:
    if text == "inf":
        return None
    if text.isdigit() and int(text) >= 1:
        return int(text)
    raise ParameterError(f"k1/k2 must be a positive integer or 'inf', got {text!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args: argparse.Namespace) -> int:
    params = FrameproofParams(args.c, args.s)
    if (args.family is None) == (args.code is None):
        raise ParameterError("pass exactly one of --family or --code")
    if args.family is not None:
        obj = family_from_json(_load_json(args.family))
    else:
        obj = code_from_json(_load_json(args.code))
    if args.critical:
        witness = find_critical_focal(obj, params)
    elif isinstance(obj, SubsetFamily):
        witness = find_focal_hypergraph(obj, params)
    else:
        witness = find_focal_code(obj, params)
    prop = ("critical-" if args.critical else "") + f"({args.c},{args.s})-frameproof"
    if witness is None:
        _emit({"property": prop, "holds": True, "members": len(obj)}, args.out)
        return 0
    _emit({"property": prop, "holds": False, "witness": witness.to_json()}, args.out)
    return 1


def _cmd_matching(args: argparse.Namespace) -> int:
    params = DisjointnessParams(args.lam, _parse_k(args.k1), _parse_k(args.k2))
    cert = matching_number_exact(
        MatchingInstance(args.n, args.t, params), budget=args.budget
    )
    _emit(cert.to_json(), args.out)
    return 0 if cert.status == "exact" else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = args.construction
    if kind == "partition":
        params = FrameproofParams(args.c, args.s)
        a_mask = mask_from_points(_parse_points(args.a), 64)
        given = [mask_from_points(_parse_points(g), 64) for g in args.given.split("|") if g]
        parts = greedy_multiset_partition(a_mask, given, params)
        _emit({"parts": [list(points_from_mask(m)) for m in parts]}, args.out)
    elif kind == "rs":
        code = rs_code(args.q, args.n, args.t)
        _emit(code.to_json(), args.out)
    elif kind == "packing":
        packing = greedy_packing(args.n, args.k, args.t, order=args.order, seed=args.seed)
        _emit(packing.to_json(), args.out)
    elif kind == "design":
        packing = load_design(args.path)
        _emit(packing.to_json(), args.out)
    elif kind == "induced":
        packing, family = induced_packing_family(
            args.k, args.c, args.s, args.n, seed=args.seed, budget=args.budget
        )
        _emit(
            {
                "pattern": packing.pattern.to_json(),
                "copies": [
                    {"vertices": list(vs), "edges": [list(points_from_mask(e)) for e in edges]}
                    for vs, edges in packing.copies
                ],
                "family": family.to_json(),
            },
            args.out,
        )
    elif kind == "faithful":
        code = faithful_code_family(
            args.n, args.c, args.s, args.q, seed=args.seed, budget=args.budget
        )
        _emit(code.to_json(), args.out)
    else:  # pragma: no cover - argparse restricts choices
        raise ParameterError(f"unknown construction {kind!r}")
    return 0


def _solver_m(c: int, s: int, k_or_n: int) -> int:
    lam, t = lambda_of(c, s, k_or_n)
    return matching_number_exact(
        MatchingInstance(k_or_n, t, DisjointnessParams(lam, s + 1, c - s + 1))
    ).value


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.kind == "hypergraph":
        m = args.m if args.m is not None else _solver_m(args.c, args.s, args.k)
        report = hypergraph_bounds(
            args.n,
            args.k,
            args.c,
            args.s,
            m,
            packing_size=args.packing_size,
            design_available=args.design,
        )
    elif args.kind == "code":
        m = args.m if args.m is not None else _solver_m(args.c, args.s, args.n)
        report = code_bounds(args.n, args.c, args.s, args.q, m)
    else:
        report = matching_closed_bounds(
            args.n, args.t, args.lam, args.s1, args.s2, c=args.c, s=args.s
        )
    _emit(report.to_json(), args.out)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    code = code_from_json(_load_json(args.code))
    indices = _parse_points(args.coalition) if args.coalition else []
    if not indices:
        raise ParameterError("coalition must list at least one word index")
    report = descendant_alphabet(code, IndexMultiset.from_indices(indices), args.s)
    _emit(report.to_json(), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameproof-lab",
        description="Exact laboratory for quantitative frameproof codes and hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="decide the threshold property exactly")
    p.add_argument("--family", help="family JSON path")
    p.add_argument("--code", help="code JSON path")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--critical", action="store_true", help="distinct coalition variant")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("matching", help="exact generalized matching number")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--k1", required=True, help="positive integer or 'inf'")
    p.add_argument("--k2", required=True, help="positive integer or 'inf'")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_matching)

    p = sub.add_parser("construct", help="build an artifact")
    csub = p.add_subparsers(dest="construction", required=True)

    q = csub.add_parser("partition", help="complete an s-fold multiset partition")
    q.add_argument("--a", required=True, help="comma-separated points of A")
    q.add_argument("--given", required=True, help="'|'-separated given parts")
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--out")

    q = csub.add_parser("rs", help="Reed-Solomon code")
    q.add_argument("--q", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--t", type=int, required=True)
    q.add_argument("--out")

    q = csub.add_parser("packing", help="greedy packing")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--t", type=int, required=True)
    q.add_argument("--order", choices=["colex", "seeded-random"], default="colex")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--out")

    q = csub.add_parser("design", help="load and validate a design file")
    q.add_argument("--path", required=True)
    q.add_argument("--out")

    q = csub.add_parser("induced", help="greedy induced pattern packing")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--budget", type=int, default=None)
    q.add_argument("--out")

    q = csub.add_parser("faithful", help="greedy faithful multipartite packing code")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--q", type=int, required=True)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--budget", type=int, default=None)
    q.add_argument("--out")

    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bounds", help="closed-form bound report")
    bsub = p.add_subparsers(dest="kind", required=True)

    q = bsub.add_parser("hypergraph")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--m", type=int, default=None, help="matching number (computed if absent)")
    q.add_argument("--packing-size", type=int, default=None)
    q.add_argument("--design", action="store_true")
    q.add_argument("--out")

    q = bsub.add_parser("code")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--q", type=int, required=True)
    q.add_argument("--m", type=int, default=None)
    q.add_argument("--out")

    q = bsub.add_parser("matching")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--t", type=int, required=True)
    q.add_argument("--lambda", dest="lam", type=int, required=True)
    q.add_argument("--s1", type=int, required=True)
    q.add_argument("--s2", type=int, required=True)
    q.add_argument("--c", type=int, default=None)
    q.add_argument("--s", type=int, default=None)
    q.add_argument("--out")

    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("attack", help="descendant symbol sets for a coalition")
    p.add_argument("--code", required=True)
    p.add_argument("--coalition", required=True, help="comma-separated word indices")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_attack)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
