"""T-TREE — perf: shared-prefix tree vs replay-based exhaustive order search.

Sec. 2.4 finds the best compaction order by trying "all different
variations".  The replay baseline
(:func:`repro.verify.reference.replay_orders`) recompacts every permutation
from scratch (O(n!*n) compaction steps); :class:`~repro.opt.OrderOptimizer`
shares each distinct order prefix (one step per prefix), optionally prunes
subtrees by the area lower bound, and can fan first-step subtrees out to
worker processes.  This bench races replay against the tree engine (plain,
pruned, parallel) on a heterogeneous module of transistor-like devices
(diffusion + poly + metal straps) at 4-8 objects and writes
``benchmarks/results/BENCH_optimizer.json``.  Each serial engine runs under a
:class:`repro.obs.Tracer`, so every entry carries a per-stage split
(compaction vs candidate rating vs tree bookkeeping) from the obs timers.
The 5-object row also records ``facade_compacts``, the compaction count of
``Environment.optimize_order``; CI gates every ``*compacts`` counter exactly.

Run ``BENCH_SMOKE=1 pytest benchmarks/bench_order_tree.py`` for the quick
CI variant (4-5 objects, no headline-speedup assertion).
"""

import json
import os
import time
from pathlib import Path

from repro import Environment
from repro.compact import Compactor
from repro.db import LayoutObject
from repro.geometry import Direction, Rect
from repro.obs import StatsSink, Tracer, activate
from repro.opt import OrderOptimizer, Step
from repro.verify.reference import replay_orders

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))

# Heterogeneous footprints (w, h, direction): tall strips interleaved with
# wide bars so a bad early placement inflates the bounding box immediately —
# the regime branch-and-bound is built for.
SHAPES = [
    (1500, 28000, Direction.WEST),
    (24000, 1500, Direction.SOUTH),
    (3000, 9000, Direction.WEST),
    (11000, 2000, Direction.SOUTH),
    (2500, 14000, Direction.WEST),
    (20000, 3000, Direction.SOUTH),
    (4000, 4000, Direction.WEST),
    (9000, 2500, Direction.SOUTH),
]

# Engine sizes: replay is O(n!*n) and the unpruned tree still visits every
# permutation node, so both stop at 7; the pruned engines carry on to 8.
REPLAY_MAX = 7
TREE_MAX = 7


def tree_engine(**options):
    """The tree engine, exhaustive at every size this bench runs."""
    return OrderOptimizer(
        compactor=Compactor(), exhaustive_limit=len(SHAPES), **options
    ).optimize


def replay(name, tech, steps):
    return replay_orders(name, tech, steps, compactor=Compactor())


def device(tech, name, w, h, net):
    """A transistor-like footprint: diffusion body, poly gate, metal strap."""
    obj = LayoutObject(name, tech)
    obj.add_rect(Rect(0, 0, w, h, "ndiff", None))
    obj.add_rect(Rect(w // 3, -600, w // 3 + 600, h + 600, "poly", net + "_g"))
    obj.add_rect(Rect(0, h // 3, w, h // 3 + 800, "metal1", net))
    return obj


def make_steps(tech, count):
    return [
        Step(device(tech, f"dev{i}", w, h, f"n{i}"), direction)
        for i, (w, h, direction) in enumerate(SHAPES[:count])
    ]


def _timed(optimize, name, tech, steps):
    """Run one engine under a fresh tracer; returns (wall_s, result, stages).

    The per-stage split comes from the obs timers: ``compact_s`` is time in
    :meth:`Compactor.compact` steps (``compact.step`` spans), ``rating_s``
    is candidate evaluation (``opt.rate`` spans), and ``bookkeeping_s`` is
    the remainder — snapshots, cache management, permutation walking.  The
    parallel engine compacts in worker processes (fresh disabled tracers),
    so its stage split only covers the coordinating process.
    """
    tracer = Tracer(enabled=True)
    stats = StatsSink()
    tracer.add_sink(stats)
    with activate(tracer):
        start = time.perf_counter()
        result = optimize(name, tech, steps)
        wall = time.perf_counter() - start
    compact_s = stats.total_s("compact.step")
    rating_s = stats.total_s("opt.rate")
    stages = {
        "compact_s": compact_s,
        "rating_s": rating_s,
        "bookkeeping_s": max(0.0, wall - compact_s - rating_s),
        "snapshots": stats.counter("opt.tree.snapshots"),
        "cache_hits": stats.counter("opt.tree.cache_hits"),
    }
    return wall, result, stages


def test_order_tree_scaling(tech, record, ledger_append):
    sizes = range(4, 6) if SMOKE else range(4, 9)
    report = {"module": "heterogeneous device row", "smoke": SMOKE, "sizes": {}}
    lines = ["T-TREE — order-search engines, one compact per distinct prefix:"]

    headline = None
    for count in sizes:
        steps = make_steps(tech, count)
        entry = {}

        baseline = None
        if count <= REPLAY_MAX:
            entry["replay_s"], baseline, entry["replay_stages"] = _timed(
                replay, "m", tech, steps
            )
            entry["replay_compacts"] = baseline.compact_calls
        else:
            entry["replay_s"] = None  # O(n!*n) — dropped, not measured

        tree = None
        if count <= TREE_MAX:
            entry["tree_s"], tree, entry["tree_stages"] = _timed(
                tree_engine(prune=False), "m", tech, steps,
            )
            entry["tree_compacts"] = tree.compact_calls
        else:
            entry["tree_s"] = None  # visits every permutation — dropped

        entry["pruned_s"], pruned, entry["pruned_stages"] = _timed(
            tree_engine(prune=True), "m", tech, steps,
        )
        entry["pruned_compacts"] = pruned.compact_calls
        entry["pruned_orders_skipped"] = pruned.pruned

        entry["parallel_s"], parallel, _ = _timed(
            tree_engine(prune=True, workers=2), "m", tech, steps,
        )

        facade = None
        if count == 5:
            facade = Environment(tech=tech).optimize_order("m", steps)
            entry["facade_compacts"] = facade.compact_calls
            # The facade is the pruned tree, never the replay sweep.
            assert facade.compact_calls == pruned.compact_calls

        # All engines must agree exactly — same best order, same score.
        reference = baseline or tree or pruned
        for result in (baseline, tree, pruned, parallel, facade):
            if result is None:
                continue
            assert result.best_order == reference.best_order
            assert abs(result.best_score - reference.best_score) < 1e-9
        entry["best_order"] = list(reference.best_order)
        entry["best_score"] = reference.best_score

        if baseline is not None:
            entry["tree_speedup"] = (
                entry["replay_s"] / entry["tree_s"] if tree else None
            )
            entry["pruned_speedup"] = entry["replay_s"] / entry["pruned_s"]
            if count == 7:
                headline = entry["pruned_speedup"]
        report["sizes"][str(count)] = entry

        def fmt(value):
            return f"{value:7.3f}s" if value is not None else "      —"

        stages = entry["pruned_stages"]
        lines.append(
            f"  n={count}: replay {fmt(entry['replay_s'])}"
            f"  tree {fmt(entry['tree_s'])}"
            f"  pruned {fmt(entry['pruned_s'])}"
            f" ({entry['pruned_compacts']}c,"
            f" skip {entry['pruned_orders_skipped']})"
            f"  parallel {fmt(entry['parallel_s'])}"
            f"  [pruned split: compact {stages['compact_s']:.2f}s"
            f" rate {stages['rating_s']:.2f}s"
            f" tree {stages['bookkeeping_s']:.2f}s]"
        )
        if facade is not None:
            lines.append(
                f"  n={count}: Environment.optimize_order"
                f" {entry['facade_compacts']} compacts"
                f" (replay {entry['replay_compacts']})"
            )

    if headline is not None:
        report["headline_pruned_speedup_n7"] = headline
        lines.append(f"  headline: pruned tree {headline:.2f}x replay at n=7")
    lines.append("shape vs paper: identical optima to Sec. 2.4's exhaustive")
    lines.append("sweep; the tree pays one compaction step per distinct prefix")
    lines.append("and the bound prunes most permutations outright.")

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_optimizer.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    record("t_order_tree", lines)
    ledger_append("BENCH_optimizer", report)

    if not SMOKE and headline is not None:
        # Acceptance: >= 3x over replay at n=7 with identical best order.
        assert headline >= 3.0, f"pruned speedup {headline:.2f}x < 3x"
