#!/usr/bin/env python3
"""frameproof-lab benchmark: seeded workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload verify-holds --seed 1 --seconds 40 --trace 0

Workloads: verify-holds, m-table, construct (see NOTES.md).
Everything runs in one process on one thread; to time a cold set-up, the
run also starts short interpreters, one at a time, waiting for each.

With --trace 0 passes over the workload repeat for --seconds and the last
line reports the end-to-end metrics.  With --trace 1 untraced passes fill
half of --seconds, one traced pass follows, and the last line reports the
per-layer metrics, including the traced pass's overhead.  Every item's
answer is checked outside the timed region; lines starting with "#" before
the result record the machine, the limits used, the answer digest and any
failure.

Timings are reported in reference seconds: each measured time is scaled by
PROBE_REF_S over the time a fixed pure-Python probe takes next to it, to
the power PROBE_EXPONENT, so that a slow phase of a shared host, which
slows the probe too, cancels out.  Set-up rounds scale only the phases that
slow with the probe (see cold_set_up_seconds).  The raw seconds are printed
on "#" lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REPEAT_BELOW_S = 0.002
REPEAT_MAX = 20
# One probe takes PROBE_REF_S on the reference host; the fastest probe on the
# 2-core x86_64 VM this benchmark was tuned on took about 0.30 ms.
PROBE_REF_S = 3e-4
# Long items slow less than the probes around them: over the passes of ten
# runs per workload, with the probe 1.1-2.4 times its reference time, the
# log-log slope of pass time, which long items dominate, on probe time was
# 0.90 (verify-holds), 0.61 (m-table) and 0.71 (construct).  Items of a few
# milliseconds slow with their probes (slope about 1): the exponent 0.75
# left their percentiles spread by up to 0.10, and 1 the pass times by up
# to 0.10.  This exponent lies between.
PROBE_EXPONENT = 0.85
PROBE_ROUNDS = 1000
SET_UP_PROBES = 5
_MASK64 = (1 << 64) - 1

sys.path.insert(0, str(HERE))

import numpy  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import LIMITS, WORKLOADS  # noqa: E402


def load_package():
    """Import frameproof_lab from this checkout's sources, not an installed copy."""
    if not (SRC / "frameproof_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no frameproof_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import frameproof_lab

    if Path(frameproof_lab.__file__).resolve().parent != SRC / "frameproof_lab":
        raise SystemExit(f"perfbench: imported {frameproof_lab.__file__}, not the checkout's")
    return frameproof_lab


def machine_record() -> dict:
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    kernels = sys.modules.get("frameproof_lab._kernels")
    resolve = getattr(kernels, "resolve_backend", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "kernel_backend": resolve() if resolve else "unavailable",
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# host speed


def probe() -> int:
    """Fixed pure-Python work, independent of frameproof_lab: integer
    arithmetic, bit counts and a small dict, as in the program's searches."""
    x, acc, seen = 0x9E3779B97F4A7C15, 0, {}
    for i in range(PROBE_ROUNDS):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
        acc ^= x >> (i & 31)
        seen[x & 255] = i
        acc += len(seen) + x.bit_count()
    return acc


def probe_seconds(runs: int = 1) -> float:
    """Median time of `runs` probes."""
    took = []
    for _ in range(runs):
        t0 = time.perf_counter()
        probe()
        took.append(time.perf_counter() - t0)
    return statistics.median(took)


def to_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes that took `before` and `after`,
    scaled to the reference host, on which a probe takes PROBE_REF_S.  Other
    tenants of a shared host slow this one by up to 2.4 times for stretches
    of a fraction of a second to a minute, and the probe and the program
    with it, so the scaled time stays steady where the raw time does not."""
    return seconds * (2 * PROBE_REF_S / (before + after)) ** PROBE_EXPONENT


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    wall_s: float  # raw seconds, each item's first run
    times: list[float]  # reference seconds, each item's fastest run
    results: list[object]
    errors: list[str | None]


def run_pass(items, repeat: bool = True) -> Pass:
    """Run every item once, between two probes.  With `repeat`, an item that
    returns in under REPEAT_BELOW_S is run again, up to REPEAT_MAX runs in
    all, and its time is the fastest run: a single sub-millisecond call
    mostly measures the cold caches left by the previous item.  Probes and
    repeats are left out of the pass's wall time, and the repeats' answers
    are not kept."""
    clock = time.perf_counter
    first, times, results, errors = [], [], [], []
    for item in items:
        before = probe_seconds()
        t0 = clock()
        try:
            result, error = item.run(), None
        except Exception as exc:  # an item that raises is a counted failure
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        best = spent = clock() - t0
        first.append(best)
        runs = 1
        while repeat and error is None and spent < REPEAT_BELOW_S and runs < REPEAT_MAX:
            t1 = clock()
            item.run()
            took = clock() - t1
            best, spent, runs = min(best, took), spent + took, runs + 1
        times.append(to_reference(best, before, probe_seconds()))
        results.append(result)
        errors.append(error)
    return Pass(math.fsum(first), times, results, errors)


def _payload_text(item, result) -> str:
    return json.dumps(item.payload(result), indent=2, sort_keys=True)


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(items, repeat: Pass) -> None:
    """Replace a repeat pass's answers by hashes of their payloads, so that
    memory does not grow with the number of passes."""
    repeat.results = [
        None if error is not None else _hash(_payload_text(item, result))
        for item, result, error in zip(items, repeat.results, repeat.errors)
    ]


@dataclass
class Verdict:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    exact: int = 0
    digest: str = ""


def judge(items, passes: list[Pass]) -> Verdict:
    """Check the first pass in full; later, fingerprinted passes must repeat
    its answers."""
    verdict = Verdict()
    first = passes[0]
    peers = {it.label: r for it, r, e in zip(items, first.results, first.errors) if e is None}
    texts: list[str | None] = []
    digest = hashlib.sha256()
    for item, result, error in zip(items, first.results, first.errors):
        verdict.attempted += 1
        if error is None:
            try:
                item.check(result, peers)
            except checks.CheckFailed as exc:
                error = f"check failed: {exc}"
        if error is not None:
            verdict.failures.append(f"{item.label}: {error}")
            texts.append(None)
            continue
        text = _payload_text(item, result)
        texts.append(text)
        verdict.exact += bool(item.exact(result))
        if item.digested(result):
            digest.update(f"{item.label}\n{text}\n".encode())
    for later in passes[1:]:
        for item, text, hashed, error in zip(items, texts, later.results, later.errors):
            verdict.attempted += 1
            if error is None and text is not None and hashed != _hash(text):
                error = "answer differs from the first pass"
            if error is not None:
                verdict.failures.append(f"{item.label} (repeat): {error}")
    verdict.digest = digest.hexdigest()
    return verdict


# ---------------------------------------------------------------------------
# set-up


SET_UP = """
import sys
sys.path.insert(0, {here!r})
import run
probes = run.ProbeLog()
fl = run.load_package()
import frameproof_lab.cli
probes.sample()
build = run.WORKLOADS[{name!r}]
build(fl, {seed}, tiny={tiny})
probes.sample()
run.warm_up(build(fl, {seed}, tiny=True))
probes.sample()
print(probes.dumps())
"""


class ProbeLog:
    """The phases of a set-up round, each timed between two probe samples,
    and the time the probes took, which the round leaves out."""

    def __init__(self):
        self.spent = 0.0
        self.phases: list[tuple[float, float]] = []  # (raw, reference) seconds
        self._probe = self._measure()
        self._mark = time.perf_counter()

    def _measure(self) -> float:
        t0 = time.perf_counter()
        took = probe_seconds(SET_UP_PROBES)
        self.spent += time.perf_counter() - t0
        return took

    def sample(self) -> None:
        """End a phase: its time since the last sample, raw and scaled."""
        raw = time.perf_counter() - self._mark
        after = self._measure()
        self.phases.append((raw, to_reference(raw, self._probe, after)))
        self._probe, self._mark = after, time.perf_counter()

    def dumps(self) -> str:
        return json.dumps({"phases": self.phases, "spent": self.spent})


def warm_up(items) -> None:
    """Run every item once, unchecked and untimed."""
    for item in items:
        try:
            item.run()
        except Exception:  # noqa: BLE001 - the measured passes count it
            pass


def set_up(fl, name: str, seed: int, tiny: bool) -> list:
    """Generate the workload's inputs and warm up on its tiny rungs and the
    probe."""
    items = WORKLOADS[name](fl, seed, tiny=tiny)
    warm_up(WORKLOADS[name](fl, seed, tiny=True))
    probe_seconds(SET_UP_PROBES)
    return items


def cold_set_up_seconds(name: str, seed: int, tiny: bool) -> tuple[float, float]:
    """One set-up in a fresh interpreter: start, import the package (its CLI
    included) and the benchmark, generate the inputs and warm up, as a run
    pays it before its first pass.  Every round is cold, so work moved into
    import or set-up shows in each, a cache filled on first use included.
    Returns (raw seconds, reference seconds), both without the probes.

    The round probes the host itself, since it may run on the other core.
    Only the package's import, the generation and the warm-up are scaled.
    The interpreter's start, numpy's import and the exit load files and map
    libraries, and the host's slow phases barely touch them: they took
    0.19-0.30 s whether a probe took 0.33 or 0.67 ms, so they stay raw."""
    code = SET_UP.format(here=str(HERE), name=name, seed=seed, tiny=tiny)
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, cwd=ROOT, capture_output=True, text=True
    )
    took = time.perf_counter() - t0
    log = json.loads(done.stdout.splitlines()[-1])
    took -= log["spent"]
    phases_raw = math.fsum(raw for raw, _ in log["phases"])
    return took, took - phases_raw + math.fsum(ref for _, ref in log["phases"])


# ---------------------------------------------------------------------------
# one run


def quantile(values: list[float], share: float) -> float:
    """Harrell-Davis estimate of a quantile: a mean of all order statistics,
    each weighted by the Beta(share*(n+1), (1-share)*(n+1)) mass of its rank
    interval.  A single order statistic jumps when two items of very
    different times swap ranks, as the items near p90 of m-table do from run
    to run; this estimate moves smoothly.  The Beta density is integrated by
    the trapezoid rule on 64 steps per rank."""
    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n, steps = len(ordered), 64
    a, b = share * (n + 1), (1 - share) * (n + 1)
    inner = numpy.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    density = numpy.exp((a - 1) * numpy.log(inner) + (b - 1) * numpy.log1p(-inner))
    density = numpy.concatenate(([0.0], density, [0.0]))
    mass = numpy.concatenate(([0.0], numpy.cumsum(density[1:] + density[:-1])))
    weights = numpy.diff(mass[::steps])
    return float(weights @ ordered / weights.sum())


def run_workload(fl, name: str, seed: int, seconds: float, trace: bool, tiny=False, mutate=None):
    """Returns (result object for the last line, '#' note lines)."""
    items = set_up(fl, name, seed, tiny)
    # Cold set-up rounds, one before the first pass and one after each
    # untraced pass, so that they are spread over the run like the passes;
    # setup_s is their median in reference seconds.
    setup_s = [cold_set_up_seconds(name, seed, tiny)]
    if mutate is not None:
        mutate(items)
    # a traced run spends half its time untraced, for the overhead baseline
    budget = seconds / 2 if trace else seconds
    passes, rounds = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(items))
        if len(passes) > 1:
            fingerprint(items, passes[-1])
        if not trace:
            setup_s.append(cold_set_up_seconds(name, seed, tiny))
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > budget:
            break
    # An item's time is the median of its reference times over the passes;
    # wall_s is the time of a pass made of those.
    per_item = [statistics.median(ts) for ts in zip(*(p.times for p in passes))]
    wall_s = math.fsum(per_item)
    if trace:
        tracer = Tracer()
        tracer.install(layers.TARGETS)
        try:
            traced = run_pass(items, repeat=False)
        finally:
            tracer.uninstall()
        fingerprint(items, traced)
    verdict = judge(items, passes + ([traced] if trace else []))
    failed = len(verdict.failures)

    notes = [
        "machine " + json.dumps(machine_record(), sort_keys=True),
        "limits " + json.dumps(LIMITS, sort_keys=True),
        f"workload {name} seed {seed} items {len(items)} untraced passes {len(passes)}"
        f" (item_p50_ms and item_p90_ms over {len(per_item)} per-item median times)",
        "pass walls, raw s " + " ".join(f"{p.wall_s:.4f}" for p in passes),
        "pass walls, reference s " + " ".join(f"{math.fsum(p.times):.4f}" for p in passes),
        "cold set-up rounds, raw s " + " ".join(f"{raw:.4f}" for raw, _ in setup_s),
        "cold set-up rounds, reference s " + " ".join(f"{ref:.4f}" for _, ref in setup_s),
        f"digest sha256 {verdict.digest}",
        f"fail_share {failed / verdict.attempted:.6f} ({failed} of {verdict.attempted})",
    ]
    notes += [f"FAIL {f}" for f in verdict.failures]
    if trace:
        overhead = math.fsum(traced.times) - wall_s
        notes.append(
            f"traced pass, raw s {traced.wall_s:.4f}, reference s {math.fsum(traced.times):.4f};"
            f" untraced wall_s {wall_s:.4f}; top-level busy_s, raw {tracer.root_busy:.4f}"
        )
        if tracer.unavailable:
            notes.append("unavailable targets " + ", ".join(tracer.unavailable))
        metrics = {
            k: {"value": v, "unit": u}
            for k, (v, u) in layers.per_layer_metrics(tracer, overhead).items()
        }
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "item_p50_ms": {"value": 1000 * quantile(per_item, 0.5), "unit": "ms"},
            "item_p90_ms": {"value": 1000 * quantile(per_item, 0.9), "unit": "ms"},
            "exact_share": {"value": verdict.exact / len(items), "unit": "ratio"},
            "ok_share": {"value": 1 - failed / verdict.attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(ref for _, ref in setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    result = {
        "correct": failed == 0,
        "attempted": verdict.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    fl = load_package()
    result, notes = run_workload(fl, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in notes:
        print("# " + line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
