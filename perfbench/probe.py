"""One cold start of a workload, in a fresh process.

``run.py`` starts this script several times per run.  It sets the workload
up (import, technology, and for ``pldl_sweep`` PLDL load and translation),
prints ``ready``, generates the stream's first module cold, checks it, and
prints one JSON line with its own phase timings.  The parent times the wait
for ``ready`` as ``setup_s``.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    if not workloads.use_checkout_src():
        print("probe: no src/repro in this checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name](seed)
    phases: dict = {}
    workload.setup(phases)
    print("ready", flush=True)
    item = next(workload.inputs())
    start = time.perf_counter()
    out = workload.run(item)
    phases["first_module_s"] = time.perf_counter() - start
    print(json.dumps({"phases": phases, "problems": workload.check(item, out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
