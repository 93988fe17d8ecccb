"""Benchmark driver for the analog module generator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload amplifier --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One run is one workload in this fresh process, as a closed loop with one
client: the next module is asked for only when the previous one is done.
No process pool, no threads.  This process sets the workload up, generates
one warm-up module, and then measures for ``--seconds``.  ``PROBES`` fresh
processes, spread over that time, each set the workload up and generate its
first module cold (``setup_s``, ``first_module_s``).  Then:

* ``--trace 0`` generates modules for ``--seconds`` with tracing off and
  prints the end-to-end metrics;
* ``--trace 1`` runs a fixed pass of the stream's first inputs again and
  again for ``--seconds``, alternating untraced and traced passes (ABBA), and
  prints the per-layer split of the traced passes plus the tracing overhead.

Every module is checked (see ``workloads.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--workload all`` runs every workload in both modes, each in
its own process, and prints everything.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

import workloads

HERE = Path(__file__).resolve().parent
#: Fresh processes per run that measure set-up and the cold first module.
PROBES = 11
#: ``module_tail_ms`` is the sample with ten samples beyond it; from 40
#: samples on that is p75 or higher.
MIN_SAMPLES = 40
PROBE_TIMEOUT_S = 150

#: (name, unit) of the end-to-end metrics a ``--trace 0`` run reports.
END_TO_END = (
    ("setup_s", "s"),
    ("first_module_s", "s"),
    ("modules_per_s", "1/s"),
    ("module_p50_ms", "ms"),
    ("module_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics a ``--trace 1`` run reports.
PER_LAYER = (
    ("import.repro_s", "s"),
    ("tech.load_s", "s"),
    ("lang.load_s", "s"),
    ("lang.translate_s", "s"),
    ("lang.interp_s", "s"),
    ("lang.translated_s", "s"),
    ("lang.entity_calls", "count"),
    ("lang.builtin_calls", "count"),
    ("lang.alt_attempts", "count"),
    ("amplifier.build_s", "s"),
    ("amplifier.unattributed_s", "s"),
    ("compact.step_s", "s"),
    ("compact.solve_s", "s"),
    ("compact.steps", "count"),
    ("compact.pairs_scanned", "count"),
    ("compact.constraints", "count"),
    ("compact.shrink_rounds", "count"),
    ("compact.useful_ratio", "ratio"),
    ("drc.run_s", "s"),
    ("drc.enclosure_s", "s"),
    ("drc.pairs_scanned", "count"),
    ("drc.candidates", "count"),
    ("drc.useful_ratio", "ratio"),
    ("drc.index_builds", "count"),
    ("db.nets_s", "s"),
    ("db.nets_pairs_scanned", "count"),
    ("opt.search_s", "s"),
    ("opt.trials", "count"),
    ("opt.compact_calls", "count"),
    ("opt.rate_s", "s"),
    ("io.gds_s", "s"),
    ("io.svg_s", "s"),
    ("io.cif_s", "s"),
    ("io.bytes", "bytes"),
    ("trace_overhead_pct", "%"),
)
#: Per-layer metrics that come from the probes' set-up phases.
SETUP_PHASES = ("import.repro_s", "tech.load_s", "lang.load_s", "lang.translate_s")


class Tally:
    """Modules attempted and failed, and what the successful ones produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.latencies: List[float] = []
        self.violations = 0
        self.known_defects = 0
        self.area_um2 = 0.0
        self.bytes = 0
        self.compact_calls = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def attempt(self, workload, item) -> None:
        """Generate and check one module; time only the generation."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = workload.run(item)
        except Exception:  # a failed module is counted, the run goes on
            self.fail(traceback.format_exc(limit=4))
            return
        self.latencies.append(time.perf_counter() - start)
        problems = workload.check(item, out)
        if problems:
            self.fail(problems[0])
        self.violations += out.violations
        self.known_defects += out.known_defects
        self.area_um2 += out.area_um2
        self.bytes += out.bytes
        self.compact_calls += out.compact_calls


def run_probe(name: str, seed: int) -> Dict[str, Any]:
    """Start one probe process; returns its phases plus ``setup_s``."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed)]
    start = time.perf_counter()
    # Unbuffered, so that communicate() sees everything after "ready".
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or ready.strip() != b"ready":
        raise RuntimeError(f"probe for {name} failed (exit {proc.returncode})")
    result = json.loads(rest.decode("utf-8").strip().splitlines()[-1])
    result["phases"]["setup_s"] = setup_s
    return result


class Probes:
    """``PROBES`` cold starts, spread evenly over the measured time of a run.

    The machine's speed drifts over seconds; probes taken back to back would
    all land in one phase of it.
    """

    def __init__(self, name: str, seed: int, seconds: float, total: Tally) -> None:
        self.name, self.seed, self.total = name, seed, total
        self.interval = seconds / PROBES
        self.results: List[Dict[str, Any]] = []

    def phase(self, key: str) -> List[float]:
        return [p["phases"].get(key, 0.0) for p in self.results]

    def run(self) -> None:
        result = run_probe(self.name, self.seed)
        self.results.append(result)
        self.total.attempted += 1
        if result["problems"]:
            self.total.fail(result["problems"][0])


def measure_loop(seconds: float, probes: Probes, step, enough) -> None:
    """Call *step* until *seconds* of it are measured and *enough()* holds.

    Probes run between steps when due; their time is not measured time.
    """
    start = time.perf_counter()
    paused = 0.0
    while True:
        measured = time.perf_counter() - start - paused
        if len(probes.results) < PROBES and measured >= len(probes.results) * probes.interval:
            before = time.perf_counter()
            probes.run()
            paused += time.perf_counter() - before
            continue
        if measured >= seconds and enough():
            break
        step()
    while len(probes.results) < PROBES:
        probes.run()


def quartiles(values: List[float]) -> Tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def show(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload:<13} {name:<26} {value:>14.6g} {unit:<6} {note}".rstrip())


def ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_values(stats, tally: Tally) -> Dict[str, float]:
    """Per-layer values of one traced pass, from its ``StatsSink``."""
    span, count = stats.total_s, stats.counter
    build_s = span("bench.amplifier.build")
    return {
        "lang.interp_s": span("bench.lang.interp"),
        "lang.translated_s": span("bench.lang.translated"),
        "lang.entity_calls": count("interp.entity_calls"),
        "lang.builtin_calls": count("interp.builtin_calls"),
        "lang.alt_attempts": count("interp.alt_attempts"),
        "amplifier.build_s": build_s,
        # On amplifier every compaction step runs inside the build.
        "amplifier.unattributed_s": build_s - span("compact.step") if build_s else 0.0,
        "compact.step_s": span("compact.step"),
        "compact.solve_s": span("compact.solve"),
        "compact.steps": count("compact.steps"),
        "compact.pairs_scanned": count("compact.pairs_scanned"),
        "compact.constraints": count("compact.constraints"),
        "compact.shrink_rounds": count("compact.shrink_rounds"),
        "compact.useful_ratio": ratio(
            count("compact.constraints"), count("compact.pairs_scanned")
        ),
        "drc.run_s": span("bench.drc.run"),
        "drc.enclosure_s": span("drc.enclosure"),
        "drc.pairs_scanned": count("drc.pairs_scanned"),
        "drc.candidates": count("drc.candidates"),
        "drc.useful_ratio": ratio(count("drc.candidates"), count("drc.pairs_scanned")),
        "drc.index_builds": count("drc.index_builds"),
        "db.nets_s": span("bench.db.nets"),
        "db.nets_pairs_scanned": count("nets.pairs_scanned"),
        "opt.search_s": span("bench.opt.search"),
        "opt.trials": count("opt.trials"),
        "opt.compact_calls": tally.compact_calls,
        "opt.rate_s": span("opt.rate"),
        "io.gds_s": span("bench.io.gds"),
        "io.svg_s": span("bench.io.svg"),
        "io.cif_s": span("bench.io.cif"),
        "io.bytes": tally.bytes,
    }


def run_pass(workload, items: Iterable[Any], total: Tally) -> Tally:
    """One pass over *items*; folds its counts into *total*."""
    tally = Tally()
    for item in items:
        tally.attempt(workload, item)
    total.attempted += tally.attempted
    total.failed += tally.failed
    total.problems.extend(tally.problems[: 5 - len(total.problems)])
    return tally


def measure_end_to_end(
    workload, stream, seconds: float, total: Tally, probes: Probes
) -> Dict[str, float]:
    measure_loop(
        seconds, probes,
        step=lambda: total.attempt(workload, next(stream)),
        enough=lambda: len(total.latencies) >= MIN_SAMPLES,
    )
    lat = sorted(total.latencies)
    n = len(lat)
    setup = probes.phase("setup_s")
    first = probes.phase("first_module_s")
    metrics = {
        "setup_s": statistics.median(setup),
        "first_module_s": statistics.median(first),
        "modules_per_s": n / sum(lat),
        "module_p50_ms": statistics.median(lat) * 1e3,
        "module_tail_ms": lat[n - 11] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    name = workload.name
    q1, q3 = quartiles(setup)
    show(name, "setup_s", metrics["setup_s"], "s",
         f"median of {len(setup)} fresh processes, IQR {q1:.4f}-{q3:.4f}")
    q1, q3 = quartiles(first)
    show(name, "first_module_s", metrics["first_module_s"], "s",
         f"median of {len(first)} fresh processes, IQR {q1:.4f}-{q3:.4f}")
    show(name, "modules_per_s", metrics["modules_per_s"], "1/s",
         f"{n} modules / {sum(lat):.3f} s busy")
    q1, q3 = quartiles(lat)
    show(name, "module_p50_ms", metrics["module_p50_ms"], "ms",
         f"n={n}, IQR {q1 * 1e3:.3f}-{q3 * 1e3:.3f}")
    show(name, "module_tail_ms", metrics["module_tail_ms"], "ms",
         f"p{100 * (n - 10) / n:.1f}: 10 of {n} samples beyond it")
    show(name, "modules", n, "count")
    show(name, "peak_rss_mb", metrics["peak_rss_mb"], "MB")
    show(name, "error_rate", ratio(total.failed, total.attempted), "ratio",
         f"{total.failed} failed / {total.attempted} attempted")
    show(name, "drc_violations", total.violations, "count",
         f"{total.known_defects} of them the known MOS endcap defect")
    area_note = "sum of best scores" if name == "order_search" else "sum of bbox areas"
    show(name, "area_um2", total.area_um2, "um2", area_note)
    return metrics


def measure_layers(
    workload, seconds: float, total: Tally, probes: Probes
) -> Dict[str, float]:
    from repro.obs import StatsSink, Tracer, activate

    items = list(islice(workload.inputs(), workload.pass_size))
    traced: List[Dict[str, float]] = []
    overhead: List[float] = []

    def pass_pair() -> None:
        busy = {}
        modes = (False, True) if len(overhead) % 2 == 0 else (True, False)
        for trace in modes:
            if trace:
                tracer = Tracer()
                stats = tracer.add_sink(StatsSink())
                with activate(tracer):
                    tally = run_pass(workload, items, total)
                tracer.close()
                traced.append(layer_values(stats, tally))
            else:
                tally = run_pass(workload, items, total)
            busy[trace] = sum(tally.latencies)
        overhead.append(100.0 * (busy[True] / busy[False] - 1.0))

    measure_loop(seconds, probes, step=pass_pair, enough=lambda: bool(overhead))
    units = dict(PER_LAYER)
    first = traced[0]
    # io.bytes is not a work counter: CIF names instances with a per-call
    # number (ContactRow_<n>), so it may grow from pass to pass.
    counts = {k for k, unit in units.items() if unit == "count"}
    if any(t[k] != first[k] for t in traced for k in counts):
        total.fail("work counters differ between traced passes of the same inputs")
    metrics: Dict[str, float] = {}
    for key, value in first.items():
        exact = key in counts or key == "io.bytes"
        metrics[key] = value if exact else statistics.median(t[key] for t in traced)
    for phase in SETUP_PHASES:
        metrics[phase] = statistics.median(probes.phase(phase))
    metrics["trace_overhead_pct"] = statistics.median(overhead)

    name = workload.name
    print(f"{name:<13} inputs_sha256 {workloads.inputs_digest(items)}")
    for key, unit in PER_LAYER:
        if key in SETUP_PHASES:
            note = f"median of {PROBES} fresh processes"
        elif key == "trace_overhead_pct":
            note = f"median of {len(overhead)} traced/untraced pass pairs"
        elif key in counts:
            note = f"per pass of {len(items)} modules, equal in every pass"
        elif key == "io.bytes":
            note = f"first pass of {len(items)} modules"
        else:
            note = f"per pass of {len(items)} modules, median of {len(traced)}"
        show(name, key, metrics[key], unit, note)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    total = Tally()
    probes = Probes(name, seed, seconds, total)
    workload = workloads.WORKLOADS[name](seed)
    workload.setup({})
    stream = workload.inputs()
    total.attempt(workload, next(stream))  # warm-up, not timed as a sample
    total.latencies.clear()
    if trace:
        metrics = measure_layers(workload, seconds, total, probes)
        units = dict(PER_LAYER)
    else:
        metrics = measure_end_to_end(workload, stream, seconds, total, probes)
        units = dict(END_TO_END)
    for problem in total.problems:
        print(f"{name:<13} FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each run in its own process."""
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Any] = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, value in result["metrics"].items():
                metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not workloads.use_checkout_src():
        print("perfbench: this checkout has no src/repro to measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
