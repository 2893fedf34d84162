#!/usr/bin/env python3
"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, reports exactly the
   metrics declared in BENCHMARK.json, with every answer passing its check.
2. A deliberately corrupted answer is counted as a failure (ok_share below
   1, correct false), not passed.

Exits 0 when both hold and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run


def declared() -> tuple[set[str], set[str]]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["end_to_end"]}, {m["name"] for m in bench["per_layer"]}


def _corrupt(index: int, transform):
    def mutate(items):
        real = items[index].run
        items[index].run = lambda: transform(real())

    return mutate


# workload -> (index of the corrupted item, corruption)
CORRUPTIONS = {
    # the last item is a planted negative control; a search that returns
    # "holds" without finding the witness must fail its check
    "verify-holds": (-1, lambda r: None),
    # the matching number is off by one, so its family no longer matches it
    "m-table": (0, lambda r: (dataclasses.replace(r[0], value=r[0].value + 1), r[1], r[2])),
    # the RS code loses its last word, so the word count no longer matches
    "construct": (0, lambda r: (dataclasses.replace(r[0], words=r[0].words[:-1]), r[1])),
}


def main() -> int:
    fl = run.load_package()
    end_to_end, per_layer = declared()
    problems = []
    for name in run.WORKLOADS:
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            result, notes = run.run_workload(fl, name, seed=1, seconds=0, trace=trace, tiny=True)
            got = set(result["metrics"])
            if got != wanted:
                problems.append(
                    f"{name} trace={int(trace)}: missing {sorted(wanted - got)},"
                    f" undeclared {sorted(got - wanted)}"
                )
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: tiny run failed: {notes}")
            print(f"{name} trace={int(trace)}: {len(got)} metrics, {result['attempted']} answers checked")
    for name, (index, transform) in CORRUPTIONS.items():
        result, _ = run.run_workload(
            fl, name, seed=1, seconds=0, trace=False, tiny=True, mutate=_corrupt(index, transform)
        )
        ok_share = result["metrics"]["ok_share"]["value"]
        if result["correct"] or result["failed"] < 1 or ok_share >= 1:
            problems.append(f"{name}: corrupted answer was not counted as a failure")
        print(f"{name} corrupted: failed {result['failed']} of {result['attempted']}, ok_share {ok_share:.3f}")
    for line in problems:
        print("SELFTEST FAIL " + line)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
