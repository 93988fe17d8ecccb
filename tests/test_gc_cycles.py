"""Layouts are freed by reference counting, not by the cyclic collector.

A layout and its spatial index must not form a reference cycle: the order
search drops one snapshot per visited prefix and the amplifier one copy per
block, and cyclic garbage would only be reclaimed by a full collection.
``gc.DEBUG_SAVEALL`` keeps everything the collector finds in
``gc.garbage``, so any ``repro`` object there sat in a cycle.
"""

import gc

from repro import Environment
from repro.drc import run_drc
from repro.geometry import Direction
from repro.library import GOLDEN_CELLS, contact_row, mos_transistor
from repro.opt import Step


def _build_check_and_search(tech):
    cell = next(cell for cell in GOLDEN_CELLS if cell.name == "diff_pair")
    run_drc(cell.build(tech))
    steps = [
        Step(contact_row(tech, "pdiff", w=4.0, net="a", name="a"), Direction.WEST),
        Step(contact_row(tech, "pdiff", w=6.0, net="b", name="b"), Direction.SOUTH),
        Step(contact_row(tech, "poly", w=2.0, length=8.0, net="c", name="c"),
             Direction.WEST),
        Step(mos_transistor(tech, w=4.0, length=1.0, name="m"), Direction.SOUTH),
    ]
    Environment(tech=tech).optimize_order("module", steps)


def test_no_cyclic_garbage_from_build_drc_and_order_search(tech):
    gc.collect()
    flags = gc.get_debug()
    start = len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        _build_check_and_search(tech)
        gc.collect()
        cyclic = [
            obj for obj in gc.garbage[start:]
            if type(obj).__module__.startswith("repro")
        ]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
    assert not cyclic, (
        f"{len(cyclic)} repro objects in reference cycles, e.g."
        f" {sorted({type(obj).__name__ for obj in cyclic})[:5]}"
    )
