"""Record the benchmark's references into ``references.json``.

Run once when the benchmark is created (``python3 perfbench/record_references.py``
from the root of the repository), never as part of a benchmark run:

* ``amplifier``: area, rect count, GDS digest and net-capacitance digest
  of the Sec. 3 amplifier, which must be DRC-clean.
* ``order_search``: best order and score of every set the workload can
  draw.  Each set is searched by both engines, the replay search behind
  ``Environment.optimize_order`` and ``TreeOrderOptimizer``, and they must
  agree before anything is written.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import workloads


def amplifier_reference() -> dict:
    from repro.amplifier import build_amplifier
    from repro.db import capacitance_report
    from repro.drc import run_drc
    from repro.io import dumps_gds
    from repro.tech import get_technology

    tech = get_technology(workloads.TECH)
    amp = build_amplifier(tech)
    violations = run_drc(amp, include_latchup=True)
    if violations:
        raise SystemExit(f"amplifier is not DRC-clean: {violations[:3]}")
    caps = json.dumps(sorted(capacitance_report(amp.rects, tech).items()))
    return {
        "area_um2": amp.area() / tech.dbu_per_micron ** 2,
        "rects": len(amp.nonempty_rects),
        "gds_sha256": hashlib.sha256(dumps_gds(amp)).hexdigest(),
        "nets_sha256": hashlib.sha256(caps.encode("utf-8")).hexdigest(),
    }


def order_reference() -> dict:
    from repro import Environment
    from repro.opt import TreeOrderOptimizer
    from repro.tech import get_technology

    tech = get_technology(workloads.TECH)
    env = Environment(tech=tech)
    table = {}
    for picks in workloads.all_order_sets():
        steps = workloads.order_steps(picks, tech)
        replay = env.optimize_order("module", steps)
        tree = TreeOrderOptimizer().optimize("module", tech, steps)
        if (replay.best_order, replay.best_score) != (tree.best_order, tree.best_score):
            raise SystemExit(
                f"set {workloads.order_key(picks)}: replay {replay.best_order}"
                f" {replay.best_score} != tree {tree.best_order} {tree.best_score}"
            )
        table[workloads.order_key(picks)] = {
            "order": list(replay.best_order), "score": replay.best_score,
        }
    return table


def write_references(references: dict) -> None:
    """Write one line per amplifier field and per order-search set."""
    lines = ["{"]
    for section in sorted(references):
        lines.append(f'"{section}": {{')
        entries = sorted(references[section].items())
        for index, (key, value) in enumerate(entries):
            comma = "," if index < len(entries) - 1 else ""
            lines.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}{comma}")
        lines.append("}," if section != sorted(references)[-1] else "}")
    lines.append("}")
    workloads.REFERENCES.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    if not workloads.use_checkout_src():
        print("record_references: no src/repro in this checkout", file=sys.stderr)
        return 2
    start = time.perf_counter()
    references = {
        "amplifier": amplifier_reference(),
        "order_search": order_reference(),
    }
    write_references(references)
    print(f"wrote {workloads.REFERENCES.name} in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
