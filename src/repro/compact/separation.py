"""Pairwise separation constraints for successive compaction.

Given one rectangle of the moving object and one of the main structure plus
the compaction direction, decide whether the pair constrains the motion and,
if so, how far the object may travel.  Encodes the paper's special cases:

* layers listed as "not relevant during this compaction step" are skipped;
* "edges on the same potential are not considered during compaction, because
  they can be merged" — same-net pairs on connectable layers are skipped;
* the per-rectangle *no_overlap* property forbids overlap even between layer
  pairs that carry no spacing rule (parasitic-capacitance protection).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..geometry import Direction, Rect
from ..obs import get_tracer
from ..tech import Technology

#: Sentinel for "this pair never constrains the motion".
UNCONSTRAINED = None

#: Distinguishes "profile not computed yet" from a computed ``None``.
_MISSING = object()


@dataclass(slots=True)
class PairConstraint:
    """One active separation constraint between a moving and a fixed rect.

    ``max_travel`` is the largest signed travel (along the compaction
    direction, positive = with the direction) the moving rect may make before
    the required ``spacing`` to the fixed rect is violated.
    """

    moving: Rect
    fixed: Rect
    spacing: int
    max_travel: int


def required_spacing(
    tech: Technology,
    moving: Rect,
    fixed: Rect,
    ignore_layers: FrozenSet[str],
) -> Optional[int]:
    """Spacing the pair must keep, or ``None`` when unconstrained.

    A result of 0 means "may touch but not overlap" (the no_overlap case);
    any rule-driven spacing comes back verbatim.
    """
    if moving.layer in ignore_layers or fixed.layer in ignore_layers:
        return UNCONSTRAINED
    if moving.is_empty or fixed.is_empty:
        return UNCONSTRAINED

    same_net = (
        moving.net is not None
        and moving.net == fixed.net
        and tech.connectable(moving.layer, fixed.layer)
    )
    if same_net:
        return UNCONSTRAINED

    rule = tech.min_space(moving.layer, fixed.layer)
    if rule is not None:
        return rule

    if (moving.no_overlap or fixed.no_overlap) and (
        tech.layer(moving.layer).conducting and tech.layer(fixed.layer).conducting
    ):
        return 0
    return UNCONSTRAINED


def overlap_forbidden(
    tech: Technology,
    a: Rect,
    b: Rect,
    ignore_layers: FrozenSet[str] = frozenset(),
) -> bool:
    """True when the pair may touch but must never overlap.

    The *no_overlap* special case of :func:`required_spacing`, exposed for
    post-hoc auditing (``repro.verify``): a parasitic-protection rectangle
    on a conducting layer forbids overlap with any other conducting rect
    unless an explicit SPACE rule governs the pair or the rects are
    same-net connectable.
    """
    if a.layer in ignore_layers or b.layer in ignore_layers:
        return False
    if a.is_empty or b.is_empty:
        return False
    if not (a.no_overlap or b.no_overlap):
        return False
    if not (tech.layer(a.layer).conducting and tech.layer(b.layer).conducting):
        return False
    if a.net is not None and a.net == b.net and tech.connectable(a.layer, b.layer):
        return False
    if tech.min_space(a.layer, b.layer) is not None:
        return False
    return True


def pair_travel(moving: Rect, fixed: Rect, direction: Direction, spacing: int) -> Optional[int]:
    """Max travel of *moving* along *direction* keeping *spacing* to *fixed*.

    Returns ``None`` when the pair does not constrain motion along this axis
    (their perpendicular spans, grown by the spacing, do not overlap).
    """
    perp = direction.axis.other
    margin = max(spacing, 0)
    if not moving.spans_overlap(fixed, perp, margin=margin):
        return None
    sign = 1 if direction.is_positive else -1
    lead = moving.edge_coord(direction)
    face = fixed.edge_coord(direction.opposite)
    return (face - lead) * sign - spacing


def _pair_profile(
    tech: Technology, moving_layer: str, fixed_layer: str
) -> Optional[Tuple[Optional[int], bool, bool]]:
    """Per-layer-pair constraint profile: (rule spacing, connectable, conducting).

    ``None`` means the layer pair can never constrain motion — no spacing rule
    exists and the pair is not both-conducting, so the *no_overlap* fallback
    can never apply either, whatever the rects' nets and flags say.

    Memoized on the technology's version-stamped query cache, so the answer
    survives across compaction steps and invalidates itself on rule edits.
    """
    cache = tech.query_cache()
    key = ("pair_profile", moving_layer, fixed_layer)
    profile = cache.get(key, _MISSING)
    if profile is _MISSING:
        rule = tech.min_space(moving_layer, fixed_layer)
        conducting = (
            tech.layer(moving_layer).conducting
            and tech.layer(fixed_layer).conducting
        )
        if rule is None and not conducting:
            profile = None
        else:
            profile = (rule, tech.connectable(moving_layer, fixed_layer),
                       conducting)
        cache[key] = profile
    return profile


def bridge_profile(
    tech: Technology, bridge_layer: str, other_layer: str
) -> Optional[Tuple[bool, Optional[int], bool]]:
    """Auto-connect bridge-blocking profile: (connectable, spacing, device).

    Everything :meth:`Compactor._bridge_blocked` asks the rule tables per
    rect, hoisted to one memoized lookup per layer pair: whether same-net
    rects are skippable (connectable), the spacing a grown probe must keep
    (same-layer pairs default to 0 = "may touch, not overlap"), and whether
    overlap would form a device (an EXTEND relationship either way — a poly
    bridge must never cross diffusion).  ``None`` means rects on
    *other_layer* can never block a *bridge_layer* stretch.
    """
    cache = tech.query_cache()
    key = ("bridge_profile", bridge_layer, other_layer)
    profile = cache.get(key, _MISSING)
    if profile is _MISSING:
        if other_layer == bridge_layer:
            spacing = tech.min_space(bridge_layer, bridge_layer) or 0
            profile = (True, spacing, False)
        else:
            rules = tech.rules
            forms_device = (
                rules.extend(bridge_layer, other_layer) is not None
                or rules.extend(other_layer, bridge_layer) is not None
            )
            spacing = tech.min_space(bridge_layer, other_layer)
            if spacing is None and not forms_device:
                profile = None
            else:
                profile = (
                    tech.connectable(other_layer, bridge_layer),
                    spacing,
                    forms_device,
                )
        cache[key] = profile
    return profile


def gather_constraints(
    tech: Technology,
    moving_rects: Sequence[Rect],
    fixed_rects: Sequence[Rect],
    direction: Direction,
    ignore_layers: Iterable[str] = (),
) -> List[PairConstraint]:
    """All active pair constraints for one compaction step.

    Semantically the all-pairs product of :func:`required_spacing` and
    :func:`pair_travel` (in that pair order), but the rule-table work is done
    once per *layer pair* instead of once per *rect pair*: fixed rects are
    pre-filtered per moving layer through a memoized :func:`_pair_profile`,
    so layer pairs that can never constrain (no SPACE rule, not both
    conducting) skip the inner loop entirely and the remaining pairs touch no
    rule table at all.
    """
    ignore = frozenset(ignore_layers)
    constraints: List[PairConstraint] = []
    if not moving_rects or not fixed_rects:
        return constraints

    perp = direction.axis.other
    facing = direction.opposite
    sign = 1 if direction.is_positive else -1

    profiles: Dict[Tuple[str, str], object] = {}
    # Per moving layer: the fixed rects that can interact, in original order
    # (relaxation iterates binding constraints in list order, so the fast
    # path must preserve the naive loop's pair ordering exactly).
    candidates: Dict[str, List[Tuple[Rect, Optional[int], bool, bool]]] = {}

    def layer_candidates(moving_layer: str) -> List[Tuple[Rect, Optional[int], bool, bool]]:
        cached = candidates.get(moving_layer)
        if cached is not None:
            return cached
        rows: List[Tuple[Rect, Optional[int], bool, bool]] = []
        for fixed in fixed_rects:
            if fixed.layer in ignore or fixed.is_empty:
                continue
            profile = profiles.get((moving_layer, fixed.layer), _MISSING)
            if profile is _MISSING:
                profile = _pair_profile(tech, moving_layer, fixed.layer)
                profiles[(moving_layer, fixed.layer)] = profile
            if profile is None:
                continue
            rule, connect, conducting = profile
            rows.append((fixed, rule, connect, conducting))
        candidates[moving_layer] = rows
        return rows

    pairs_scanned = 0
    for moving in moving_rects:
        if moving.layer in ignore or moving.is_empty:
            continue
        net = moving.net
        no_overlap = moving.no_overlap
        lead = moving.edge_coord(direction)
        m1, m2 = moving.span(perp)
        rows = layer_candidates(moving.layer)
        pairs_scanned += len(rows)
        for fixed, rule, connect, conducting in rows:
            if net is not None and net == fixed.net and connect:
                continue
            if rule is not None:
                spacing = rule
            elif conducting and (no_overlap or fixed.no_overlap):
                spacing = 0
            else:
                continue
            margin = spacing if spacing > 0 else 0
            b1, b2 = fixed.span(perp)
            if not (m1 - margin < b2 and b1 - margin < m2):
                continue
            travel = (fixed.edge_coord(facing) - lead) * sign - spacing
            constraints.append(PairConstraint(moving, fixed, spacing, travel))
    get_tracer().count("compact.pairs_scanned", pairs_scanned)
    return constraints


#: Per direction of motion: a rect's perpendicular span plus its edge facing
#: the arrival (fixed rects), and plus its leading edge (moving rects).
_SPAN_EDGE = {
    Direction.NORTH: (attrgetter("x1", "x2", "y1"), attrgetter("x1", "x2", "y2")),
    Direction.SOUTH: (attrgetter("x1", "x2", "y2"), attrgetter("x1", "x2", "y1")),
    Direction.EAST: (attrgetter("y1", "y2", "x1"), attrgetter("y1", "y2", "x2")),
    Direction.WEST: (attrgetter("y1", "y2", "x2"), attrgetter("y1", "y2", "x1")),
}


def gather_constraints_grouped(
    tech: Technology,
    moving_rects: Sequence[Rect],
    fixed_groups: Sequence[Tuple[str, Sequence[Rect]]],
    direction: Direction,
    ignore_layers: Iterable[str] = (),
) -> List[PairConstraint]:
    """:func:`gather_constraints` over layer-grouped fixed rects, in one pass.

    *fixed_groups* is ``[(layer, rects), ...]`` — the shape the frontier
    index serves; group members must be non-empty (the frontier sweep
    guarantees this).  The result is identical (same constraints, same
    order) to calling :func:`gather_constraints` on the concatenation of the
    groups: the naive rows per moving layer are that concatenation filtered
    by the layer-pair profile, i.e. whole groups kept or skipped in
    sequence.

    The step's coordinate work is done once per call, not once per pair:

    * each moving rect becomes a row ``(rect, layer, net, no_overlap,
      signed lead, perpendicular lo, hi)``;
    * each fixed group is pruned to the *perpendicular window* while its
      rows ``(rect, lo, hi, signed face, net, no_overlap)`` are built.  A
      pair only constrains motion when the perpendicular spans, grown by
      the pair's spacing, overlap.  With ``[lo, hi]`` the union of the
      moving rows' spans and ``S`` the largest spacing any moving layer
      carries against the group's layer, a fixed rect whose span fails
      ``lo - S < r2 and r1 - S < hi`` fails the overlap test for every
      moving rect, so dropping it cannot change any constraint (counted as
      ``compact.index_window_dropped``); survivors keep their order;
    * the layer-pair profiles come from one fetch of the technology's query
      cache, looked up per (moving layer, group) while the window is built.
    """
    ignore = frozenset(ignore_layers)
    tracer = get_tracer()
    sign = 1 if direction.is_positive else -1
    fixed_key, moving_key = _SPAN_EDGE[direction]

    movers = []
    lo = hi = 0
    for rect in moving_rects:
        layer = rect.layer
        if layer in ignore or rect.x1 >= rect.x2 or rect.y1 >= rect.y2:
            continue
        m1, m2, lead = moving_key(rect)
        if not movers or m1 < lo:
            lo = m1
        if not movers or m2 > hi:
            hi = m2
        movers.append((rect, layer, rect.net, rect.no_overlap, lead * sign, m1, m2))
    if not movers:
        tracer.count(
            "compact.index_window_dropped",
            sum(len(rects) for _, rects in fixed_groups),
        )
        return []

    moving_layers = {row[1] for row in movers}
    cache = tech.query_cache()
    groups = []  # (profile per moving layer, rows)
    dropped = 0
    for flayer, frects in fixed_groups:
        if flayer in ignore:
            continue
        profiles = {}
        margin = None
        for mlayer in moving_layers:
            profile = cache.get(("pair_profile", mlayer, flayer), _MISSING)
            if profile is _MISSING:
                profile = _pair_profile(tech, mlayer, flayer)
            profiles[mlayer] = profile
            if profile is not None:
                spacing = profile[0] or 0
                if margin is None or spacing > margin:
                    margin = spacing
        if margin is None:
            # No moving layer can constrain against this fixed layer.
            dropped += len(frects)
            continue
        wlo = lo - margin
        whi = hi + margin
        rows = []
        for r in frects:
            b1, b2, face = fixed_key(r)
            if wlo < b2 and b1 < whi:
                rows.append((r, b1, b2, sign * face, r.net, r.no_overlap))
        dropped += len(frects) - len(rows)
        if rows:
            groups.append((profiles, rows))
    tracer.count("compact.index_window_dropped", dropped)

    # Per pair: travel = (face - lead) * sign - spacing, i.e. signed face
    # minus (signed lead + spacing); the spans must overlap once grown by
    # the spacing (by 0 for a negative one).
    constraints: List[PairConstraint] = []
    append = constraints.append
    pairs_scanned = 0
    for moving, mlayer, net, no_overlap, slead, m1, m2 in movers:
        for profiles, rows in groups:
            profile = profiles[mlayer]
            if profile is None:
                continue
            rule, connect, conducting = profile
            pairs_scanned += len(rows)
            # Same-potential pairs on connectable layers never constrain.
            skip_net = net if connect else None
            if rule is not None:
                margin = rule if rule > 0 else 0
                wlo = m1 - margin
                whi = m2 + margin
                base = slead + rule
                for fixed, b1, b2, sface, fnet, _ in rows:
                    if wlo < b2 and b1 < whi and (
                        skip_net is None or fnet != skip_net
                    ):
                        append(PairConstraint(moving, fixed, rule, sface - base))
            elif conducting:
                for fixed, b1, b2, sface, fnet, fixed_no_overlap in rows:
                    if (
                        (no_overlap or fixed_no_overlap)
                        and m1 < b2 and b1 < m2
                        and (skip_net is None or fnet != skip_net)
                    ):
                        append(PairConstraint(moving, fixed, 0, sface - slead))
    tracer.count("compact.pairs_scanned", pairs_scanned)
    return constraints


class IntervalSet:
    """A union of 1-D closed intervals with containment queries.

    The merged intervals are kept as two parallel sorted lists of plain
    ints (starts, ends), so both queries bisect on ints rather than on
    ``[lo, hi]`` lists: about a fifth less sweep time on the mostly 0-3
    interval sets a frontier sweep builds, with the same O(log n) search
    on large ones.
    """

    __slots__ = ("_los", "_his")

    def __init__(self) -> None:
        self._los: List[int] = []  # sorted, disjoint [lo, hi] starts ...
        self._his: List[int] = []  # ... and their ends

    def add(self, lo: int, hi: int) -> None:
        """Insert [lo, hi], merging overlapping/adjacent intervals."""
        if lo >= hi:
            return
        los, his = self._los, self._his
        first = bisect.bisect_left(los, lo)
        if first and his[first - 1] >= lo:
            first -= 1
        last = first
        count = len(los)
        while last < count and los[last] <= hi:
            last += 1
        if last == first:
            los.insert(first, lo)
            his.insert(first, hi)
            return
        # Merge intervals first..last-1 into the first slot.  Ends of
        # disjoint sorted intervals ascend, so the last one is the largest.
        end = his[last - 1]
        del los[first + 1:last]
        del his[first + 1:last]
        if lo < los[first]:
            los[first] = lo
        his[first] = end if end > hi else hi

    def contains(self, lo: int, hi: int) -> bool:
        """True when [lo, hi] lies inside one merged interval."""
        index = bisect.bisect_right(self._los, lo) - 1
        return index >= 0 and hi <= self._his[index]


def frontier_filter(
    rects: Sequence[Rect],
    direction: Direction,
    arrival_nets: FrozenSet[str] = frozenset(),
) -> List[Rect]:
    """Drop fixed rects fully shadowed behind nearer same-layer geometry.

    The paper's "only outer edges of the main object have to be kept in the
    data structure" speed-up.  A rect whose perpendicular span is covered by
    nearer same-layer rects can never bind — with two soundness conditions:

    * a shadower whose net the arriving object carries might itself be
      skipped by the same-potential rule, so it may only shadow rects of its
      own net (``arrival_nets`` names the arriving object's nets);
    * a plain rect may not shadow a ``no_overlap`` rect — when no spacing
      rule exists, only the latter constrains the motion.

    Implemented as a nearest-first sweep over interval unions: O(n log n)
    per compaction step instead of the naive all-pairs scan.
    """
    facing = direction.opposite
    sign = 1 if direction.is_positive else -1
    perp = direction.axis.other

    by_layer: dict = {}
    for rect in rects:
        if not rect.is_empty:
            by_layer.setdefault(rect.layer, []).append(rect)

    survivors: List[Rect] = []
    for layer_rects in by_layer.values():
        # Nearest first: the arriving object travels along `direction`, so
        # the nearest facing edge is the one farthest AGAINST it — smallest
        # sign-adjusted coordinate first.
        layer_rects.sort(key=lambda r: sign * r.edge_coord(facing))
        general = IntervalSet()  # shadowers safe against every arrival
        general_strict = IntervalSet()  # ... that also dominate no_overlap
        per_net: dict = {}
        for rect in layer_rects:
            lo, hi = rect.span(perp)
            cover = general_strict if rect.no_overlap else general
            own = per_net.get(rect.net)
            shadowed = cover.contains(lo, hi) or (
                own is not None and own.contains(lo, hi)
            )
            if not shadowed:
                survivors.append(rect)
            # Register this rect as a shadower for rects behind it.
            if rect.net is None or rect.net not in arrival_nets:
                general.add(lo, hi)
                if rect.no_overlap:
                    general_strict.add(lo, hi)
            else:
                per_net.setdefault(rect.net, IntervalSet()).add(lo, hi)
    return survivors
