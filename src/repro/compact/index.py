"""Incremental frontier index for the compactor hot path.

The paper's central speed-up is that "only outer edges of the main object
have to be kept in the data structure".  :func:`~repro.compact.separation.
frontier_filter` implements that pruning, but as a from-scratch pass: every
compaction step (and every variable-edge shrink round inside a step)
re-scans all of ``main.rects``, re-buckets them by layer, re-sorts each
bucket and re-sweeps the interval unions.  The :class:`FrontierIndex` keeps
that state *persistent* per :class:`~repro.db.LayoutObject` and updates it
incrementally as rects merge, stretch (auto-connect) and shrink (variable
edges), so a step only pays for the layers it actually touched.

Structure, per owning object:

* **layer buckets** — every rect, grouped by layer in rect-list order
  (``seq`` = position in the object's ``rects``; positions never change
  because rects are only ever appended);
* **per-direction frontier caches** — for each bucket, the survivors of the
  nearest-first interval sweep, keyed by ``(direction, relevant_nets)`` and
  cleared whenever any rect of that layer changes;
* **(net, layer) resident buckets** — the same-potential lookup
  :meth:`Compactor._auto_connect` needs;
* **a grow-only bounding box per bucket** — a conservative envelope used to
  skip whole layers in bridge-blocking queries.

Exactness contract: every query reproduces the from-scratch result *in the
same order*.  Within a layer the sweep sorts by (facing-edge key, seq),
which equals the stable sort :func:`frontier_filter` performs on the
seq-ordered bucket; across layers, groups are emitted by the smallest seq
of a layer's non-empty rects, which equals the first-occurrence order of
``LayoutObject.nonempty_rects``.  ``tests/test_frontier_index.py`` pins
this equivalence under randomized merge/stretch/shrink sequences, and the
differential harness races an indexed against an unindexed compactor.

Staleness: mutations that flow through :class:`~repro.db.LayoutObject`
methods (``merge``, ``add_rect``, ``move_edge``, ``move_stretch``,
``translate``, transforms, net edits) are tracked — incrementally on the
hot paths, via a dirty flag (full rebuild on next query) elsewhere.  Code
that pokes rect coordinates, nets, layers or ``no_overlap`` flags directly
must call :meth:`LayoutObject.invalidate_index` afterwards.

Ownership: the index holds no reference back to its object — the object
passes its ``rects`` list to :meth:`FrontierIndex.sync` and
:meth:`FrontierIndex.in_sync`, and the index keeps only the technology.
An object and its index therefore form no reference cycle, so a dropped
layout (a search-tree snapshot, a ``Step.fresh()`` copy) is freed by
reference counting instead of waiting for a cyclic garbage collection.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..geometry import Direction, Rect
from ..obs import get_tracer
from .separation import IntervalSet, bridge_profile

__all__ = ["FrontierIndex", "LayerBucket"]


class LayerBucket:
    """All rects of one layer, in rect-list (seq) order, plus cached views."""

    __slots__ = ("layer", "rects", "seqs", "nets", "bbox", "frontiers")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        #: Member rects in append order; parallel to :attr:`seqs`.
        self.rects: List[Rect] = []
        self.seqs: List[int] = []
        #: Every net ever seen on this layer (grow-only over-approximation;
        #: used to restrict frontier cache keys to nets that can matter).
        self.nets: set = set()
        #: Grow-only envelope [x1, y1, x2, y2] of every coordinate any
        #: member ever occupied; conservative for intersection pruning.
        self.bbox: Optional[List[int]] = None
        #: (direction, relevant_nets) -> frontier survivors, cleared on any
        #: member change.
        self.frontiers: Dict[Tuple[Direction, FrozenSet[str]], List[Rect]] = {}

    def add(self, seq: int, rect: Rect) -> None:
        self.rects.append(rect)
        self.seqs.append(seq)
        if rect.net is not None:
            self.nets.add(rect.net)
        self.cover(rect)
        if self.frontiers:
            self.frontiers.clear()

    def cover(self, rect: Rect) -> None:
        """Grow the envelope over the rect's current coordinates."""
        box = self.bbox
        if box is None:
            self.bbox = [rect.x1, rect.y1, rect.x2, rect.y2]
            return
        if rect.x1 < box[0]:
            box[0] = rect.x1
        if rect.y1 < box[1]:
            box[1] = rect.y1
        if rect.x2 > box[2]:
            box[2] = rect.x2
        if rect.y2 > box[3]:
            box[3] = rect.y2

    def first_nonempty_seq(self) -> Optional[int]:
        """Seq of the earliest non-empty member (layer ordering key)."""
        for seq, rect in zip(self.seqs, self.rects):
            if not rect.is_empty:
                return seq
        return None


class FrontierIndex:
    """Persistent spatial index over one :class:`LayoutObject`'s rects."""

    __slots__ = (
        "tech", "_rects_ref", "_tracked", "_dirty",
        "buckets", "_members", "_empty", "nonempty", "net_buckets",
        "rebuilds", "_bbox", "_bbox_valid",
    )

    def __init__(self, tech) -> None:
        self.tech = tech
        self._rects_ref: Optional[list] = None
        self._tracked = 0
        self._dirty = True
        #: layer -> LayerBucket, in first-added order.
        self.buckets: Dict[str, LayerBucket] = {}
        #: id(rect) -> rect, for resolving change notifications.
        self._members: Dict[int, Rect] = {}
        #: id(rect) -> last-known emptiness, so emptiness flips keep
        #: :attr:`nonempty` exact without rescanning.
        self._empty: Dict[int, bool] = {}
        self.nonempty = 0
        #: (net, layer) -> member rects in seq order (may include empties;
        #: queries filter).
        self.net_buckets: Dict[Tuple[str, str], List[Rect]] = {}
        self.rebuilds = 0
        #: Exact bounding box [x1, y1, x2, y2] of the *non-empty* members
        #: (unlike the grow-only bucket envelopes).  Appends and uniform
        #: translations maintain it; coordinate changes invalidate it and
        #: :meth:`bbox` recomputes lazily from the bucket members.
        self._bbox: Optional[List[int]] = None
        self._bbox_valid = True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def sync(self, rects: List[Rect]) -> None:
        """Catch up with the object's rect list *rects* (appends are
        incremental; list replacement or an explicit dirty mark trigger a
        rebuild)."""
        if self._dirty or self._rects_ref is not rects or self._tracked > len(rects):
            self._rebuild(rects)
            return
        if self._tracked < len(rects):
            for seq in range(self._tracked, len(rects)):
                self._add(seq, rects[seq])
            self._tracked = len(rects)

    def _rebuild(self, rects: List[Rect]) -> None:
        self.buckets.clear()
        self._members.clear()
        self._empty.clear()
        self.net_buckets.clear()
        self.nonempty = 0
        self._bbox = None
        self._bbox_valid = True
        for seq, rect in enumerate(rects):
            self._add(seq, rect)
        self._rects_ref = rects
        self._tracked = len(rects)
        self._dirty = False
        self.rebuilds += 1
        get_tracer().count("compact.index_rebuilds")

    def _add(self, seq: int, rect: Rect) -> None:
        bucket = self.buckets.get(rect.layer)
        if bucket is None:
            bucket = self.buckets[rect.layer] = LayerBucket(rect.layer)
        bucket.add(seq, rect)
        rid = id(rect)
        self._members[rid] = rect
        empty = rect.is_empty
        self._empty[rid] = empty
        if not empty:
            self.nonempty += 1
            if self._bbox_valid:
                box = self._bbox
                if box is None:
                    self._bbox = [rect.x1, rect.y1, rect.x2, rect.y2]
                else:
                    if rect.x1 < box[0]:
                        box[0] = rect.x1
                    if rect.y1 < box[1]:
                        box[1] = rect.y1
                    if rect.x2 > box[2]:
                        box[2] = rect.x2
                    if rect.y2 > box[3]:
                        box[3] = rect.y2
        if rect.net is not None:
            self.net_buckets.setdefault((rect.net, rect.layer), []).append(rect)

    def mark_dirty(self) -> None:
        """Schedule a full rebuild on the next query."""
        self._dirty = True

    def in_sync(self, rects: List[Rect]) -> bool:
        """True when the index exactly mirrors the object's rect list."""
        return (
            not self._dirty
            and self._rects_ref is rects
            and self._tracked == len(rects)
        )

    def note_translate(self, dx: int, dy: int) -> None:
        """A uniform translation preserves every cached view; only the
        bucket envelopes need shifting."""
        if self._dirty:
            return
        for bucket in self.buckets.values():
            box = bucket.bbox
            if box is not None:
                box[0] += dx
                box[1] += dy
                box[2] += dx
                box[3] += dy
        if self._bbox_valid and self._bbox is not None:
            box = self._bbox
            box[0] += dx
            box[1] += dy
            box[2] += dx
            box[3] += dy

    def note_changed_ids(self, rect_ids: Iterable[int]) -> None:
        """Coordinates of the given member rects changed (shrink/stretch/
        link rebuild).  Unknown ids — e.g. link-private array cuts that
        never entered the object's rect list — are ignored."""
        if self._dirty:
            return
        # Members may have shrunk, so the exact bbox can only be recomputed.
        self._bbox_valid = False
        members = self._members
        empties = self._empty
        for rid in rect_ids:
            rect = members.get(rid)
            if rect is None:
                continue
            bucket = self.buckets[rect.layer]
            if bucket.frontiers:
                bucket.frontiers.clear()
            bucket.cover(rect)
            empty = rect.is_empty
            if empty != empties[rid]:
                empties[rid] = empty
                self.nonempty += -1 if empty else 1

    def clone_into(
        self, rects: List[Rect], mapping: Dict[int, Rect]
    ) -> "FrontierIndex":
        """Port the index (including warm frontier caches) onto a snapshot
        whose rect list *rects* was cloned through *mapping* with positions
        preserved.
        """
        twin = FrontierIndex(self.tech)
        twin._dirty = False
        twin._rects_ref = rects
        twin._tracked = self._tracked
        twin.nonempty = self.nonempty
        twin._bbox = list(self._bbox) if self._bbox is not None else None
        twin._bbox_valid = self._bbox_valid
        for layer, bucket in self.buckets.items():
            ported = LayerBucket(layer)
            ported.rects = [mapping[id(r)] for r in bucket.rects]
            ported.seqs = list(bucket.seqs)
            ported.nets = set(bucket.nets)
            ported.bbox = list(bucket.bbox) if bucket.bbox is not None else None
            ported.frontiers = {
                key: [mapping[id(r)] for r in survivors]
                for key, survivors in bucket.frontiers.items()
            }
            twin.buckets[layer] = ported
        for rid, rect in self._members.items():
            moved = mapping[rid]
            twin._members[id(moved)] = moved
            twin._empty[id(moved)] = self._empty[rid]
        for key, rects in self.net_buckets.items():
            twin.net_buckets[key] = [mapping[id(r)] for r in rects]
        return twin

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when the object holds no non-empty geometry.

        Served from the exact :attr:`nonempty` count — no rect scan.
        """
        return self.nonempty == 0

    def bbox(self) -> Optional[Rect]:
        """Exact bounding box of the object's non-empty rects (or None).

        Equals ``bounding_box(obj.nonempty_rects)`` coordinate for
        coordinate.  Appends and translations keep the cache exact in
        O(1); after shrinks/stretches (:meth:`note_changed_ids`) the first
        query recomputes it from the layer buckets.
        """
        if self.nonempty == 0:
            return None
        if not self._bbox_valid:
            box: Optional[List[int]] = None
            for bucket in self.buckets.values():
                for rect in bucket.rects:
                    if rect.is_empty:
                        continue
                    if box is None:
                        box = [rect.x1, rect.y1, rect.x2, rect.y2]
                        continue
                    if rect.x1 < box[0]:
                        box[0] = rect.x1
                    if rect.y1 < box[1]:
                        box[1] = rect.y1
                    if rect.x2 > box[2]:
                        box[2] = rect.x2
                    if rect.y2 > box[3]:
                        box[3] = rect.y2
            self._bbox = box
            self._bbox_valid = True
            get_tracer().count("compact.index_bbox_rescans")
        box = self._bbox
        assert box is not None  # nonempty > 0 guarantees a member
        return Rect(box[0], box[1], box[2], box[3], "bbox")

    def frontier_groups(
        self, direction: Direction, arrival_nets: FrozenSet[str]
    ) -> List[Tuple[str, List[Rect]]]:
        """Per-layer frontier survivors, ``[(layer, rects), ...]``.

        Concatenated, the groups equal ``frontier_filter(obj.
        nonempty_rects, direction, arrival_nets)`` element for element:
        layers ordered by their earliest non-empty rect, survivors in
        nearest-first stable order.
        """
        ordered = []
        for layer, bucket in self.buckets.items():
            seq = bucket.first_nonempty_seq()
            if seq is not None:
                ordered.append((seq, layer, bucket))
        ordered.sort(key=lambda item: item[0])
        tracer = get_tracer()
        groups: List[Tuple[str, List[Rect]]] = []
        for _, layer, bucket in ordered:
            groups.append((layer, self._bucket_frontier(bucket, direction,
                                                        arrival_nets, tracer)))
        return groups

    def _bucket_frontier(
        self,
        bucket: LayerBucket,
        direction: Direction,
        arrival_nets: FrozenSet[str],
        tracer,
    ) -> List[Rect]:
        # Only nets actually present on the layer can alter the sweep, so
        # arrivals with disjoint nets share one cache entry.
        if arrival_nets and bucket.nets:
            relevant = frozenset(n for n in arrival_nets if n in bucket.nets)
        else:
            relevant = frozenset()
        key = (direction, relevant)
        cached = bucket.frontiers.get(key)
        if cached is not None:
            tracer.count("compact.index_sweep_hits")
            return cached
        survivors = self._sweep(bucket, direction, arrival_nets)
        bucket.frontiers[key] = survivors
        tracer.count("compact.index_sweeps")
        return survivors

    @staticmethod
    def _sweep(
        bucket: LayerBucket, direction: Direction, arrival_nets: FrozenSet[str]
    ) -> List[Rect]:
        """One layer of ``frontier_filter``: nearest-first interval sweep."""
        facing = direction.opposite
        sign = 1 if direction.is_positive else -1
        perp = direction.axis.other
        layer_rects = [r for r in bucket.rects if not r.is_empty]
        layer_rects.sort(key=lambda r: sign * r.edge_coord(facing))
        survivors: List[Rect] = []
        general = IntervalSet()
        general_strict = IntervalSet()
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
            if rect.net is None or rect.net not in arrival_nets:
                general.add(lo, hi)
                if rect.no_overlap:
                    general_strict.add(lo, hi)
            else:
                per_net.setdefault(rect.net, IntervalSet()).add(lo, hi)
        return survivors

    def residents(self, net: str, layer: str) -> List[Rect]:
        """Same-net same-layer member rects in seq order (may include
        empties — callers filter, matching the from-scratch bucket scan)."""
        return self.net_buckets.get((net, layer), _NO_RECTS)

    def bridge_blocked(self, bridge: Rect, net: str) -> bool:
        """True when stretching across *bridge* would violate a rule.

        Semantically identical to the naive scan over every non-empty rect
        (same-layer spacing, cross-layer spacing, EXTEND device formation),
        but layer-pair rules are hoisted out of the rect loop through the
        memoized :func:`~repro.compact.separation.bridge_profile`, the
        grown probe rect is built once per layer, and whole layers are
        skipped when no rule can apply or the bucket envelope cannot reach
        the probe.
        """
        tech = self.tech
        bridge_layer = bridge.layer
        for layer, bucket in self.buckets.items():
            profile = bridge_profile(tech, bridge_layer, layer)
            if profile is None:
                continue  # no spacing rule, no device rule: cannot block
            connect, spacing, forms_device = profile
            probe = bridge if spacing is None else bridge.grown(spacing)
            box = bucket.bbox
            if box is None or box[0] >= probe.x2 or probe.x1 >= box[2] \
                    or box[1] >= probe.y2 or probe.y1 >= box[3]:
                continue
            px1, py1, px2, py2 = probe.x1, probe.y1, probe.x2, probe.y2
            bx1, by1, bx2, by2 = bridge.x1, bridge.y1, bridge.x2, bridge.y2
            check_space = spacing is not None
            for rect in bucket.rects:
                if rect.x1 >= rect.x2 or rect.y1 >= rect.y2:
                    continue
                if connect and rect.net == net:
                    continue
                if forms_device and (
                    bx1 < rect.x2 and rect.x1 < bx2
                    and by1 < rect.y2 and rect.y1 < by2
                ):
                    return True
                if check_space and (
                    px1 < rect.x2 and rect.x1 < px2
                    and py1 < rect.y2 and rect.y1 < py2
                ):
                    return True
        return False


_NO_RECTS: List[Rect] = []
