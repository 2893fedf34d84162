"""Which public names make up each layer, and the per-layer metrics derived
from a traced pass.

Layer names follow the package's modules; `_kernels` is reported as
`kernels` because a metric name must start with a letter.  Kernel `ops` and
`bytes` are computed from argument shapes (and, for the early-exit pair scan,
from the returned pair), not measured with hardware counters.
"""

from __future__ import annotations

from tracing import Tracer

KERNELS = ("agreement_masks", "cover_pair_scan", "min_pairwise_distance", "max_subfamily_avoiding")


def _field(obj: object, *paths: str) -> object | None:
    """First present attribute path, e.g. "explored" or "stats.nodes"."""
    for path in paths:
        cur = obj
        for part in path.split("."):
            cur = getattr(cur, part, None)
            if cur is None:
                break
        if cur is not None:
            return cur
    return None


# -- hooks: counts read from arguments and public result fields ------------


def _verify_hook(counts, args, kwargs, result):
    counts["foci"] += len(args[0]) if result is None else result.focus + 1
    counts["witnesses"] += result is not None


def _agreement_ops(counts, args, kwargs, result):
    m, n = args[0].shape
    counts["ops"] += m * n
    counts["bytes"] += 8 * (m * n + m)  # int64 words read, uint64 masks written


def _pair_scan_ops(counts, args, kwargs, result):
    m = len(args[0])
    if result is None:
        pairs = m * (m + 1) // 2
    else:
        a, b = result
        pairs = b * (b + 1) // 2 + a + 1
    counts["ops"] += pairs
    counts["bytes"] += 8 * pairs


def _distance_ops(counts, args, kwargs, result):
    m, n = args[0].shape
    ops = m * (m - 1) // 2 * n
    counts["ops"] += ops
    counts["bytes"] += 8 * ops


def _sweep_ops(counts, args, kwargs, result):
    supports = len(set(int(s) for s in args[0]))
    ops = (1 << args[1]) * supports
    counts["ops"] += ops
    counts["bytes"] += 8 * ops


def _exact_hook(counts, args, kwargs, result):
    # `explored` is planned to move into a stats object; both are public fields
    nodes = _field(result, "explored", "stats.nodes")
    if nodes is None:
        counts["nodes_missing"] += 1
    else:
        counts["nodes"] += nodes
    counts["lower_only"] += result.status == "lower-only"


# GF ops are counted from arguments: a span around each single add or mul
# would mostly time the tracer, since on a prime field an op is one modulo.
# Each entry point counts the field additions and multiplications it stands
# for; `inv` adds none of its own, since its pow call is counted.


def _eval_poly_ops(counts, args, kwargs, result):
    counts["ops"] += 2 * len(args[1])  # Horner: one mul and one add per coefficient


def _sub_ops(counts, args, kwargs, result):
    counts["ops"] += 2  # an add and a neg


def _pow_ops(counts, args, kwargs, result):
    k = args[2]
    counts["ops"] += k.bit_length() + k.bit_count()  # a square per bit, a mul per set bit


def _words_hook(counts, args, kwargs, result):
    counts["words"] += len(result)


def _blocks_hook(counts, args, kwargs, result):
    counts["blocks"] += len(result.family)


def _faithful_hook(counts, args, kwargs, result):
    n, q = args[0], args[3]
    budget = kwargs.get("budget")
    examined = q**n if budget is None else min(budget, q**n)
    counts["examined"] += examined
    counts["accepted"] += len(result)


def _induced_hook(counts, args, kwargs, result):
    counts["copies"] += len(result[0].copies)


TARGETS = [
    ("verify", "verify", "find_focal_code", _verify_hook),
    ("verify", "verify", "find_focal_hypergraph", _verify_hook),
    ("verify", "verify", "find_critical_focal", _verify_hook),
    ("verify.validate", "verify", "validate_witness", None),
    ("kernels.agreement_masks", "_kernels", "agreement_masks", _agreement_ops),
    ("kernels.cover_pair_scan", "_kernels", "cover_pair_scan", _pair_scan_ops),
    ("kernels.min_pairwise_distance", "_kernels", "min_pairwise_distance", _distance_ops),
    ("kernels.max_subfamily_avoiding", "_kernels", "max_subfamily_avoiding", _sweep_ops),
    ("matching.exact", "matching", "matching_number_exact", _exact_hook),
    ("matching.brute", "matching", "matching_number_brute", None),
    ("matching.closed_bounds", "matching", "matching_closed_bounds", None),
    ("bounds", "bounds", "hypergraph_bounds", None),
    ("bounds", "bounds", "code_bounds", None),
    # only the outermost GF entry points get spans; add, mul and neg do not
    ("gf", "gf", "GF.__post_init__", None),
    ("gf", "gf", "GF.sub", _sub_ops),
    ("gf", "gf", "GF.pow", _pow_ops),
    ("gf", "gf", "GF.inv", None),
    ("gf", "gf", "GF.eval_poly", _eval_poly_ops),
    ("constructions.rs_code", "constructions", "rs_code", _words_hook),
    ("constructions.certify", "constructions", "certify_frameproof_by_distance", None),
    ("constructions.packing", "constructions", "greedy_packing", _blocks_hook),
    ("constructions.packing", "constructions", "load_design", _blocks_hook),
    ("constructions.faithful", "constructions", "faithful_code_family", _faithful_hook),
    ("constructions.induced", "constructions", "induced_packing_family", _induced_hook),
]


def _ratio(num: float, den: float) -> float:
    """A ratio whose base is zero reads 0; the base is reported beside it."""
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, tuple[float | None, str]]:
    """Every per-layer metric as name -> (value, unit); None marks a metric
    whose wrapper target or result field is gone from the program."""
    names: dict[str, list[str]] = {}
    for group, module, attr, _ in TARGETS:
        names.setdefault(group, []).append(f"{module}.{attr}")
    missing_groups = {
        group for group, wrapped in names.items() if all(n in tracer.unavailable for n in wrapped)
    }
    out: dict[str, tuple[float | None, str]] = {}

    def put(group: str, name: str, value: float, unit: str) -> None:
        out[f"{group}.{name}"] = (None if group in missing_groups else value, unit)

    calls, busy, self_s, counts = tracer.calls, tracer.busy, tracer.self_time, tracer.counts

    v = counts["verify"]
    put("verify", "calls", calls["verify"], "count")
    put("verify", "busy_s", busy["verify"], "s")
    put("verify", "self_s", self_s["verify"], "s")
    put("verify", "foci", v["foci"], "count")
    put("verify", "ms_per_focus", _ratio(1000 * busy["verify"], v["foci"]), "ms")
    put("verify", "witness_share", _ratio(v["witnesses"], calls["verify"]), "ratio")
    put("verify.validate", "busy_s", busy["verify.validate"], "s")

    for kernel in KERNELS:
        g = f"kernels.{kernel}"
        put(g, "calls", calls[g], "count")
        put(g, "busy_s", busy[g], "s")
        put(g, "ops", counts[g]["ops"], "count")
        put(g, "bytes", counts[g]["bytes"], "bytes")

    ex = counts["matching.exact"]
    put("matching.exact", "calls", calls["matching.exact"], "count")
    put("matching.exact", "busy_s", busy["matching.exact"], "s")
    put("matching.exact", "nodes", ex["nodes"], "count")
    put("matching.exact", "nodes_per_s", _ratio(ex["nodes"], busy["matching.exact"]), "1/s")
    put("matching.exact", "lower_only", ex["lower_only"], "count")
    if ex["nodes_missing"]:
        out["matching.exact.nodes"] = (None, "count")
        out["matching.exact.nodes_per_s"] = (None, "1/s")
    put("matching.brute", "calls", calls["matching.brute"], "count")
    put("matching.brute", "busy_s", busy["matching.brute"], "s")
    put("matching.brute", "self_s", self_s["matching.brute"], "s")
    put("matching.closed_bounds", "busy_s", busy["matching.closed_bounds"], "s")
    put("bounds", "calls", calls["bounds"], "count")
    put("bounds", "busy_s", busy["bounds"], "s")

    put("gf", "ops", counts["gf"]["ops"], "count")
    put("gf", "busy_s", busy["gf"], "s")
    put("gf", "ns_per_op", _ratio(1e9 * busy["gf"], counts["gf"]["ops"]), "ns")

    g = "constructions.rs_code"
    put(g, "calls", calls[g], "count")
    put(g, "busy_s", busy[g], "s")
    put(g, "self_s", self_s[g], "s")
    put(g, "words", counts[g]["words"], "count")
    put("constructions.certify", "busy_s", busy["constructions.certify"], "s")
    g = "constructions.packing"
    put(g, "busy_s", busy[g], "s")
    put(g, "blocks", counts[g]["blocks"], "count")
    g = "constructions.faithful"
    put(g, "busy_s", busy[g], "s")
    put(g, "self_s", self_s[g], "s")
    put(g, "accept_share", _ratio(counts[g]["accepted"], counts[g]["examined"]), "ratio")
    g = "constructions.induced"
    put(g, "busy_s", busy[g], "s")
    put(g, "self_s", self_s[g], "s")
    put(g, "copies", counts[g]["copies"], "count")

    out["trace_overhead_s"] = (overhead_s, "s")
    return out
