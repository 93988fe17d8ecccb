"""Reference (oracle) paths for production algorithms that run incrementally.

Production code never imports this module; tests, benchmarks and
``repro verify`` do.  Each function here is the obviously-correct,
whole-object version of something production code does incrementally —
the link fixpoint of :mod:`repro.db`, the order sweep of :mod:`repro.opt` —
and the tests assert the two agree.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..compact import Compactor
from ..db import ArrayLink, InsideLink, LayoutObject
from ..geometry import Direction, Rect
from ..obs import get_tracer
from ..opt import OrderResult, Rating, Step
from ..opt.order import run_order
from ..tech import Technology

__all__ = [
    "solve_links_full",
    "shrink_limit_full",
    "move_edge_full",
    "move_stretch_full",
    "replay_orders",
]


def solve_links_full(obj: LayoutObject) -> Tuple[Set[int], bool]:
    """Re-solve every link of *obj* in list order until a pass is stable.

    Returns ``(changed rect ids, converged)``.  Passes are bounded by
    ``len(obj.links) + 2``; a pass that still changed something when the
    bound is reached leaves ``converged`` False.  This is the fixpoint
    :meth:`LayoutObject._solve_links` reproduces with a worklist.
    """
    changed: Set[int] = set()
    for _ in range(len(obj.links) + 2):
        before = {}
        for link in obj.links:
            for rect in link.involved_rects():
                before[id(rect)] = rect.as_tuple()
        for link in obj.links:
            link.rebuild()
        stable = True
        for link in obj.links:
            for rect in link.involved_rects():
                if before.get(id(rect)) != rect.as_tuple():
                    stable = False
                    changed.add(id(rect))
        if stable:
            return changed, True
    return changed, False


def shrink_limit_full(obj: LayoutObject, rect: Rect, direction: Direction) -> int:
    """:meth:`LayoutObject.shrink_limit` scanning every link for every edge."""
    return _shrink_limit(obj, rect, direction, frozenset())


def _shrink_limit(
    obj: LayoutObject, rect: Rect, direction: Direction, visiting: frozenset
) -> int:
    sign = 1 if direction.is_positive else -1
    key = (id(rect), direction)
    if key in visiting:
        return rect.edge_coord(direction)
    visiting = visiting | {key}
    bounds: List[int] = [
        rect.edge_coord(direction.opposite) + sign * obj._min_dimension(rect)
    ]
    prop = rect.edge(direction)
    if sign > 0 and prop.min_coord is not None:
        bounds.append(prop.min_coord)
    if sign < 0 and prop.max_coord is not None:
        bounds.append(prop.max_coord)
    for link in obj.links:
        for outer, margin in link.outers:
            if outer is not rect:
                continue
            if isinstance(link, InsideLink):
                inner_limit = _shrink_limit(obj, link.inner, direction, visiting)
                bounds.append(inner_limit + sign * margin)
            elif isinstance(link, ArrayLink):
                far = obj._array_far_side(link, direction, rect)
                bounds.append(far + sign * (link.cut_size + margin))
    return max(bounds) if sign > 0 else min(bounds)


def move_edge_full(
    obj: LayoutObject, rect: Rect, direction: Direction, coord: int
) -> Tuple[int, Set[int]]:
    """:meth:`LayoutObject.move_edge` with the full fixpoint solve.

    Returns ``(coordinate set, changed rect ids)``; the moved rect is
    included in the changed set, as the frontier index is told.
    """
    limit = shrink_limit_full(obj, rect, direction)
    if direction.is_positive:
        coord = min(max(coord, limit), rect.edge_coord(direction))
    else:
        coord = max(min(coord, limit), rect.edge_coord(direction))
    rect.set_edge_coord(direction, coord)
    changed, _ = solve_links_full(obj)
    changed.add(id(rect))
    return coord, changed


def move_stretch_full(
    obj: LayoutObject, rect: Rect, direction: Direction, coord: int
) -> Optional[Set[int]]:
    """:meth:`LayoutObject.move_stretch` with the full fixpoint solve.

    Returns the changed rect ids, or None for an inward request (a no-op).
    """
    current = rect.edge_coord(direction)
    outward = coord > current if direction.is_positive else coord < current
    if not outward:
        return None
    for link in obj.links:
        if isinstance(link, InsideLink) and link.inner is rect:
            link.release(direction)
    rect.set_edge_coord(direction, coord)
    changed, _ = solve_links_full(obj)
    changed.add(id(rect))
    return changed


def replay_orders(
    name: str,
    tech: Technology,
    steps: Sequence[Step],
    compactor: Optional[Compactor] = None,
    rating: Optional[Rating] = None,
) -> OrderResult:
    """Every permutation of *steps*, each recompacted from an empty layout.

    The Sec. 2.4 sweep taken literally: n! orders × n compaction steps, all
    n! orders in ``scores``, and the first strictly better order kept (so
    ties go to the lexicographically smallest order).  This is the optimum
    :class:`~repro.opt.OrderOptimizer` reproduces with one compaction per
    distinct order prefix.
    """
    steps = list(steps)
    if not steps:
        raise ValueError("no compaction steps to optimize")
    compactor = compactor if compactor is not None else Compactor()
    rating = rating if rating is not None else Rating()
    tracer = get_tracer()
    best: Optional[LayoutObject] = None
    best_order: Tuple[int, ...] = ()
    best_score = float("inf")
    scores: Dict[Tuple[int, ...], float] = {}
    calls = compactor.calls
    with tracer.span("opt.search", engine="replay", steps=len(steps)):
        for order in itertools.permutations(range(len(steps))):
            candidate = run_order(compactor, name, tech, steps, order)
            with tracer.span("opt.rate"):
                score = rating.evaluate(candidate)
            tracer.count("opt.trials")
            scores[order] = score
            if score < best_score:
                best, best_order, best_score = candidate, order, score
    assert best is not None
    return OrderResult(
        best, best_order, best_score, len(scores), scores,
        compact_calls=compactor.calls - calls,
    )
