"""Benchmark of toycat: closure builds, the verification battery, store queries.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload close-wide --seed 1 --seconds 20 --trace 0

or every workload, each in a fresh process, with `--workload all`.  The
program is imported from the checkout's `src/`; nothing is installed.

A run sets the workload up, runs one warm-up pass, then repeats its pass
until `--seconds` have passed (at least one pass), checks every answer
against a known value and prints detail lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
first third of the time runs untraced and the rest traced, and the metrics
are the per-layer ones, per traced pass, plus the tracing overhead.  The
spans of a traced run are written to `bench/traces/<workload>.spans`.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ARITIES, FUNCTIONS, PRIMITIVES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# A p90 needs at least ten samples beyond it.
MIN_TAIL_SAMPLES = 100

# setup_s and items_per_s are given at nominal speed (see "measuring").
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Nominal speed: one reference loop takes NOMINAL_UNIT_S.
NOMINAL_UNIT_S = 0.001
REFERENCE_ROWS = 4_000
REFERENCE_PERIOD_S = 0.05


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units: dict[str, str] = {}
    for prim in PRIMITIVES:
        for part in ("",) + tuple(f".{a}" for a in ARITIES):
            units[f"relcore.{prim}{part}.calls"] = "count"
            units[f"relcore.{prim}{part}.s"] = "s"
    units["relcore.compose.row_ors"] = "count"
    units["relcore.tensor.row_ors"] = "count"
    units.update({
        "closure.pairs": "count",
        "closure.added": "count",
        "closure.yield": "ratio",
        "closure.self_s": "s",
    })
    for length in range(1, 5):
        units[f"closure.round_added.{length}"] = "count"
    for fn in FUNCTIONS["closure"][1:]:
        units[f"closure.{fn}.s"] = "s"
    units["closure.store_bytes"] = "bytes"
    for module in ("terms", "basis", "protocols"):
        for fn in FUNCTIONS[module]:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.s"] = "s"
    units["models.build.s"] = "s"
    for fn in FUNCTIONS["suite"]:
        units[f"suite.{fn}.s"] = "s"
    units["cli.main.calls"] = "count"
    units["cli.main.s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


def load_program():
    """Import the benchmark's modules, with toycat taken from this checkout."""
    if not (SRC / "toycat" / "__init__.py").is_file():
        sys.exit(f"error: no toycat sources at {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import toycat
    import workloads

    if Path(toycat.__file__).resolve().parent != SRC / "toycat":
        sys.exit(f"error: toycat was imported from {toycat.__file__}, not from {SRC}")
    return workloads


# -- statistics -------------------------------------------------------------------

def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has ten samples beyond it (n={n})"
    share = (n - 10) / n
    return f"p{100 * share:.1f} {sorted(values)[n - 11]:.6g} (n={n})"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- measuring --------------------------------------------------------------------
#
# A shared machine's speed drifts by tens of percent over seconds and
# minutes, for this program and for any other, so raw wall times of runs
# made minutes apart differ by more than any useful bound.  The runner
# therefore also times a fixed reference loop while it measures, and
# reports the end-to-end times at nominal speed: measured seconds scaled
# by NOMINAL_UNIT_S over the reference loop's time measured alongside.
# Drift that slows the loop and the program alike cancels out; the raw wall
# figures are printed in the detail lines.

def reference_loop() -> int:
    """Fixed work shaped like the program's: small tuples, hashing, dict updates.

    A loop of bare integer arithmetic tracked the program's drift less
    well, because the program spends its time allocating and hashing.
    """
    table = {}
    for i in range(REFERENCE_ROWS):
        row = (i, i & 7, str(i))
        table[row[1], i & 63] = row
    return len(table)


def time_reference_loop() -> float:
    """Seconds of one reference loop, with the cyclic collector held off.

    A collection of the program's heap landing inside the loop would be
    charged to the loop; held off, it runs in the program's own time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_unit(loops: int = 5) -> float:
    """Mean seconds of one reference loop, timed now."""
    return sum(time_reference_loop() for _ in range(loops)) / loops


def at_nominal(seconds: float, unit_s: float) -> float:
    """Seconds measured while a reference loop took `unit_s`, at nominal speed."""
    return seconds * NOMINAL_UNIT_S / unit_s


class ReferenceClock:
    """The workload's clock, sampling the reference loop while entered.

    While entered, a timer interrupts every REFERENCE_PERIOD_S of wall time
    and times `reference_loop`, so the samples follow the machine's speed
    through long passes.  The reference unit is the samples' mean weighted
    by the time since the previous sample: it follows the share of time the
    machine ran slow (a median would pick one of its speeds instead), and a
    sample delayed by a long call into C, such as `json.loads`, stands for
    the whole call.  `now` is wall time less the time spent in the loop, so
    the loop does not count against the program.
    """

    def __init__(self) -> None:
        self.loop_total = 0.0
        self.weighted = 0.0  # sum of loop seconds times the interval they stand for
        self.covered = 0.0  # sum of those intervals
        self._last = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.loop_total

    def mark(self) -> tuple[float, float]:
        return self.weighted, self.covered

    def unit_since(self, mark: tuple[float, float]) -> float:
        """Time-weighted mean seconds of the reference loops sampled since `mark`."""
        weighted, covered = mark
        return (self.weighted - weighted) / (self.covered - covered)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        seconds = time_reference_loop()
        self.loop_total += seconds
        self.weighted += seconds * (start - self._last)
        self.covered += start - self._last
        self._last = time.perf_counter()

    def __enter__(self) -> "ReferenceClock":
        self._last = time.perf_counter()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def setup_samples(spec, seed: int) -> list[tuple[float, float]]:
    """(wall seconds, reference unit) of the repeatable set-up in fresh interpreters.

    The reference unit is timed just before and just after each child.
    """
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "import workloads\n"
        f"workloads.prepare(workloads.Spec(**json.loads({json.dumps(dataclasses.asdict(spec))!r})), {seed})\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        before = reference_unit()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        wall = time.perf_counter() - t0
        samples.append((wall, (before + reference_unit()) / 2))
    return samples


def run_passes(wl, until: float) -> list:
    """Run passes until `until` on the clock; at least one.

    Another pass starts only if it should end less than half a pass after
    `until`, so a run overshoots its time by half a pass at most, on average.
    """
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(wl.run_pass())
        now = time.perf_counter()
        if now + (now - start) / len(passes) / 2 >= until:
            return passes


@dataclasses.dataclass
class Run:
    """Everything one run measured.

    setup: (wall seconds, reference unit) of each fresh set-up;
    setup_extra: the same for the set-up done once in this process on top
    (the store-query build), if any.  passes are untraced, timed while the
    reference loop took `pass_unit_s`; a traced run adds `traced` passes
    and their `layers` metrics.  The warm-up pass is not measured: the
    first pass in a process also pays for fresh memory from the operating
    system, which made runs of two passes read slower than runs of three.
    """

    spec: object
    seed: int
    relabelings: list[str]
    setup: list[tuple[float, float]]
    setup_extra: tuple[float, float] | None
    answers: object
    warmup: object
    passes: list = dataclasses.field(default_factory=list)
    pass_unit_s: float | None = None
    traced: list | None = None
    layers: dict | None = None


def measure(spec, seed: int, seconds: float, trace: bool) -> Run:
    """Set up, then run passes for `seconds`; traced runs also fill `layers`."""
    import workloads

    setup = setup_samples(spec, seed)
    answers = workloads.Answers()
    tracer = Tracer() if trace else None
    if tracer:
        with tracer.span("models.build"):
            workloads.models.frel_qubit()
            workloads.models.spek()
    clock = ReferenceClock()
    with clock:
        wl = workloads.start(spec, seed, answers, clock.now)
    extra = (wl.setup_extra_s, clock.unit_since((0.0, 0))) if wl.setup_extra_s else None
    relabelings = [name for name, _ in wl.inputs.get("relabelings", ())]
    run = Run(spec, seed, relabelings, setup, extra, answers, wl.run_pass())

    t0 = time.perf_counter()
    if not tracer:
        mark = clock.mark()
        with clock:
            run.passes = run_passes(wl, t0 + seconds)
        run.pass_unit_s = clock.unit_since(mark)
        return run
    run.passes = run_passes(wl, t0 + seconds / 3)
    setup_totals = tracer.per_name()
    tracer.reset_totals()
    spans_before = len(tracer.span_start)
    tracer.install()
    try:
        run.traced = run_passes(wl, t0 + seconds)
    finally:
        tracer.uninstall()
    run.layers = layer_metrics(tracer, run, setup_totals, len(tracer.span_start) - spans_before)
    tracer.write(BENCH / "traces" / f"{spec.name}.spans")
    return run


def layer_metrics(tracer, run: Run, setup_totals: dict, spans: int) -> dict[str, float]:
    """Per-layer metrics per traced pass."""
    n = len(run.traced)
    per = tracer.per_name()
    calls = lambda name: per.get(name, (0, 0.0))[0] / n
    secs = lambda name: per.get(name, (0, 0.0))[1] / n
    out: dict[str, float] = {}
    for prim in PRIMITIVES:
        base = f"relcore.{prim}"
        for a in ARITIES:
            out[f"{base}.{a}.calls"] = calls(f"{base}.{a}")
            out[f"{base}.{a}.s"] = secs(f"{base}.{a}")
        out[f"{base}.calls"] = sum(out[f"{base}.{a}.calls"] for a in ARITIES)
        out[f"{base}.s"] = sum(out[f"{base}.{a}.s"] for a in ARITIES)
    for prim in ("compose", "tensor"):
        out[f"relcore.{prim}.row_ors"] = tracer.counts.get(f"relcore.{prim}.row_ors", 0) / n
    pairs = tracer.counts.get("closure.pairs", 0) / n
    added = sum(k for p in run.traced for r, k in p.growth if r >= 2) / n
    out["closure.pairs"] = pairs
    out["closure.added"] = added
    out["closure.yield"] = added / pairs if pairs else 0.0
    out["closure.self_s"] = secs("closure.generate_closure")
    for length in range(1, 5):
        out[f"closure.round_added.{length}"] = sum(
            k for p in run.traced for r, k in p.growth if r == length
        ) / n
    for fn in FUNCTIONS["closure"][1:]:
        out[f"closure.{fn}.s"] = secs(f"closure.{fn}")
    out["closure.store_bytes"] = sum(p.store_bytes for p in run.traced) / n
    for module in ("terms", "basis", "protocols"):
        for fn in FUNCTIONS[module]:
            out[f"{module}.{fn}.calls"] = calls(f"{module}.{fn}")
            out[f"{module}.{fn}.s"] = secs(f"{module}.{fn}")
    out["models.build.s"] = setup_totals["models.build"][1]
    for fn in FUNCTIONS["suite"]:
        out[f"suite.{fn}.s"] = secs(f"suite.{fn}")
    out["cli.main.calls"] = calls("cli.main")
    out["cli.main.s"] = secs("cli.main")
    untraced = statistics.median(p.seconds for p in run.passes)
    overhead = statistics.median(p.seconds for p in run.traced) - untraced
    out["trace.spans"] = spans / n
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / untraced
    return out


# -- reporting --------------------------------------------------------------------

def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": setup_s(run, at_nominal),
        "items_per_s": items_per_s(run.passes) * run.pass_unit_s / NOMINAL_UNIT_S,
        "peak_rss_mb": peak_rss_mb(),
    }


def setup_s(run: Run, scale=lambda seconds, unit_s: seconds) -> float:
    """Median fresh set-up plus the in-process extra, each scaled by `scale`."""
    extra = scale(*run.setup_extra) if run.setup_extra else 0.0
    return statistics.median(scale(wall, unit) for wall, unit in run.setup) + extra


def items_per_s(passes: list) -> float:
    return sum(p.items for p in passes) / sum(p.seconds for p in passes)


def detail_lines(run: Run) -> list[str]:
    """The workload's own figures, named as in bench/README.md.

    These are raw wall times.  Medians carry their sample count, and each
    latency its highest percentile with ten samples beyond it.
    """
    spec, passes, answers = run.spec, run.passes, run.answers
    seconds = [p.seconds for p in passes]
    requests = [1000 * s for p in passes for s in p.requests]
    lines = [f"workload {spec.name}  seed {run.seed}"
             + (f"  relabelings {' '.join(run.relabelings)}" if run.relabelings else "")]

    def add(name: str, value: float, unit: str, note: str = "") -> None:
        lines.append(f"  {name:18} {value:12.6g} {unit:5} {note}".rstrip())

    def latency(name: str, values: list[float]) -> None:
        add(f"{name}_p50", statistics.median(values), "ms", f"n={len(values)}; {tail(values)}")
        if len(values) >= MIN_TAIL_SAMPLES:
            add(f"{name}_p90", p90(values), "ms")

    add("setup_wall_s", setup_s(run), "s", f"median of {len(run.setup)} fresh set-ups"
        + (f" + {run.setup_extra[0]:.3f} s store build" if run.setup_extra else ""))
    add("warmup_pass_s", run.warmup.seconds, "s", "not measured")
    if spec.kind == "close":
        add("close_s", statistics.median(seconds), "s", f"median of {len(seconds)} builds")
        add("morphisms_per_s", items_per_s(passes), "1/s")
        latency("query_ms", requests)
    if spec.kind == "battery":
        latency("pass_ms", [1000 * s for s in seconds])
        add("checks_per_s", items_per_s(passes), "1/s")
        latency("cli_ms", requests)
    if spec.kind == "store":
        for phase in ("store_write_s", "store_load_s", "census_s", "closure_checks_s"):
            values = [p.phases[phase] for p in passes]
            add(phase, statistics.median(values), "s", f"median of {len(values)}")
        add("store_bytes", passes[-1].store_bytes, "B")
        add("morphisms_per_s", items_per_s(passes), "1/s")
        latency("query_ms", requests)
    if run.pass_unit_s:
        add("reference_ms", 1000 * run.pass_unit_s, "ms", "one reference loop, during the passes")
        for name, value in end_to_end(run).items():
            add(name, value, END_TO_END_UNITS[name], "end to end")
    else:
        add("peak_rss_mb", peak_rss_mb(), "MB")
    add("error_rate", answers.failed / answers.attempted, "",
        f"{answers.failed} of {answers.attempted} answers wrong")
    lines.extend(f"  WRONG: {failure}" for failure in answers.failures)
    return lines


def result(run: Run, trace: bool) -> dict:
    if trace:
        units = layer_metric_units()
        values = run.layers
    else:
        units = END_TO_END_UNITS
        values = end_to_end(run)
    return {
        "correct": run.answers.failed == 0,
        "attempted": run.answers.attempted,
        "failed": run.answers.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import workloads

    status = 0
    summary = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"  {name}: exit code {proc.returncode}")
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
        status |= not summary[name]["correct"]
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = load_program()
    if args.workload == "all":
        return run_all(args)
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'")
    run = measure(spec, args.seed, args.seconds, bool(args.trace))
    out = result(run, bool(args.trace))
    print("\n".join(detail_lines(run)))
    if args.trace:
        layers = run.layers
        print(f"  tracing overhead {layers['trace.overhead_s']:.4g} s per pass "
              f"({100 * layers['trace.overhead_share']:.1f}% of the untraced "
              f"{statistics.median(p.seconds for p in run.passes):.4g} s; "
              f"{len(run.passes)} untraced, {len(run.traced)} traced passes)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
