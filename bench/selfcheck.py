"""Self-check of the benchmark at a tiny size.

    python3 bench/selfcheck.py

Runs a tiny closure workload (the arity-1 closure of the permutations and
eps_Z: 77 morphisms, a fixpoint) untraced and traced, and checks that

- BENCHMARK.json declares exactly the metrics the runner emits, with the
  same units;
- every emitted metric has a finite number and a unit;
- the known answers hold, and a deliberately wrong expected answer is
  counted as failed, which raises error_rate above 0.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run

workloads = run.load_program()

TINY = workloads.Spec(
    "close-tiny", "close", generators="reduced", max_arity=1,
    growth=(27, 11, 11, 28, 0, 0, 0, 0), fixpoint=True, queries=40, relabelings=2,
)
SECONDS = 0.5


def main() -> int:
    failures = []

    def check(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.layer_metric_units())):
        check(f"BENCHMARK.json {key} matches the runner's metrics",
              {m["name"]: m["unit"] for m in declared[key]} == units)

    for trace in (False, True):
        result = run.result(run.measure(TINY, 1, SECONDS, trace), trace)
        units = run.layer_metric_units() if trace else run.END_TO_END_UNITS
        metrics = result["metrics"]
        mode = "traced" if trace else "untraced"
        check(f"{mode}: every metric emitted", set(metrics) == set(units))
        check(f"{mode}: every metric a finite number with its unit", all(
            isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
            and m["unit"] == units[name]
            for name, m in metrics.items()
        ))
        check(f"{mode}: known answers hold ({result['attempted']} checked)",
              result["correct"] and result["failed"] == 0 and result["attempted"] > 0)

    wrong = dataclasses.replace(TINY, growth=(27, 11, 11, 29, 0, 0, 0, 0))
    bad_run = run.measure(wrong, 1, SECONDS, False)
    bad = run.result(bad_run, False)
    error_rate = bad["failed"] / bad["attempted"]
    check(f"a wrong expected growth raises error_rate (to {error_rate:.4f})",
          not bad["correct"] and error_rate > 0)
    check("the wrong answer is named in the detail lines",
          any("WRONG: build: growth" in line for line in run.detail_lines(bad_run)))

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
