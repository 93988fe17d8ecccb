"""The hierarchical layout object — the environment's working data structure.

A :class:`LayoutObject` is what a PLDL entity builds: a bag of rectangles
plus the rebuild links recorded by the primitives that created them.  Objects
are constructed stand-alone and then *compacted into* a parent object
(Sec. 2.3); merging flattens the child's geometry into the parent, which is
why "only outer edges of the main object have to be kept in the data
structure".
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..geometry import Direction, Rect, Transform, bounding_box, union_area
from ..obs import get_tracer
from ..obs.provenance import get_recorder
from ..tech import Technology
from ..tech.layer import LayerKind
from .links import ArrayLink, InsideLink, Link


class Label:
    """A text annotation (exported to GDS as a text element)."""

    def __init__(self, text: str, x: int, y: int, layer: str) -> None:
        self.text = text
        self.x = x
        self.y = y
        self.layer = layer

    def copy(self) -> "Label":
        """Return an independent copy."""
        return Label(self.text, self.x, self.y, self.layer)

    def __repr__(self) -> str:
        return f"Label({self.text!r}, {self.x}, {self.y}, {self.layer!r})"


def _add_dependent(
    deps: Dict[int, Union[int, Tuple[int, ...]]], key: int, position: int
) -> None:
    """Record that link *position* involves rect id *key* (positions only
    grow, so tuples stay ascending; snapshots share them, so never mutate)."""
    positions = deps.get(key)
    if positions is None:
        deps[key] = position
    elif positions.__class__ is int:
        if positions != position:
            deps[key] = (positions, position)
    elif positions[-1] != position:
        deps[key] = positions + (position,)


class LayoutObject:
    """A named, technology-bound collection of rectangles and rebuild links."""

    def __init__(self, name: str, tech: Technology) -> None:
        self.name = name
        self.tech = tech
        self.rects: List[Rect] = []
        self.links: List[Link] = []
        self.labels: List[Label] = []
        #: Lazily built incremental spatial index (compact.index).  Never
        #: affects results — only how fast the compactor finds them.
        self._index = None
        #: rect id -> position of the one link involving that rect, or the
        #: ascending tuple of positions when several do (most rects have
        #: one, and small ints cost no memory); None until first needed.
        #: Describes ``_deps_links`` only: a replaced ``links`` list is
        #: detected by identity and length.
        self._deps: Optional[Dict[int, Union[int, Tuple[int, ...]]]] = None
        self._deps_links: List[Link] = self.links
        self._deps_len = 0
        #: Positions of links that may be off their fixpoint (None: all of
        #: them).  The next solve seeds its worklist with these.
        self._unsettled: Optional[Tuple[int, ...]] = ()

    # ------------------------------------------------------------------
    # spatial index
    # ------------------------------------------------------------------
    def frontier_index(self):
        """The object's incremental frontier index, built/synced on demand.

        Appends since the last query are folded in incrementally; a
        replaced rect list or an explicit :meth:`invalidate_index` triggers
        a full rebuild.  See :class:`repro.compact.index.FrontierIndex`.
        """
        if self._index is None:
            from ..compact.index import FrontierIndex

            self._index = FrontierIndex(self.tech)
        self._index.sync(self.rects)
        return self._index

    def invalidate_index(self) -> None:
        """Force a full index rebuild on the next query.

        Required after mutating rect coordinates, nets, layers or
        ``no_overlap`` flags directly instead of through this object's
        methods.
        """
        if self._index is not None:
            self._index.mark_dirty()

    def __getstate__(self):
        # The index maps rects by id(); ids do not survive pickling (the
        # parallel order optimizer ships step objects to worker processes).
        state = self.__dict__.copy()
        state["_index"] = None
        state["_deps"] = None
        return state

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_rect(self, rect: Rect) -> Rect:
        """Append a rectangle (validating its layer) and return it."""
        self.tech.layer(rect.layer)
        recorder = get_recorder()
        if recorder.enabled and rect.prov is None:
            recorder.stamp(rect)
        self.rects.append(rect)
        return rect

    def add_link(self, link: Link) -> Link:
        """Register a rebuild link (solved lazily, by the next link solve)."""
        self._append_link(link)
        return link

    def _append_link(self, link: Link) -> None:
        """Append *link*, keeping the dependency map and unsettled set."""
        links = self.links
        position = len(links)
        links.append(link)
        if self._deps_links is not links or self._deps_len != position:
            return  # stale: rebuilt (and fully re-solved) on next use
        self._deps_len = position + 1
        if self._unsettled is not None:
            # Immutable, so snapshots share it.
            self._unsettled += (position,)
        deps = self._deps
        if deps is not None:
            for rect in link.involved_rects():
                _add_dependent(deps, id(rect), position)

    def add_label(self, text: str, x: int, y: int, layer: str) -> Label:
        """Attach a text label."""
        label = Label(text, x, y, layer)
        self.labels.append(label)
        return label

    def merge(self, other: "LayoutObject") -> List[Rect]:
        """Copy *other*'s geometry, links and labels into this object.

        Returns the newly added rect objects (in *other*'s rect order) so the
        caller — typically the compactor — can keep tracking them.
        """
        mapping: Dict[int, Rect] = {}
        added: List[Rect] = []
        for rect in other.rects:
            clone = rect.copy()
            mapping[id(rect)] = clone
            self.rects.append(clone)
            added.append(clone)
        for link in other.links:
            self._append_link(link.remapped(mapping))
        for label in other.labels:
            self.labels.append(label.copy())
        return added

    def copy(self, name: Optional[str] = None) -> "LayoutObject":
        """Deep copy — the PLDL statement ``trans2 = trans1``."""
        clone = self.snapshot()
        if name is not None:
            clone.name = name
        return clone

    def snapshot(self) -> "LayoutObject":
        """Deep copy tuned for state caching (the order optimizer's trees).

        Equivalent to :meth:`copy` but skips object construction overhead and
        layer re-validation: rects, links and labels are cloned directly with
        link references remapped.  The search tree snapshots one object per
        visited order prefix, so this is a hot path.
        """
        clone = LayoutObject.__new__(LayoutObject)
        clone.name = self.name
        clone.tech = self.tech
        mapping: Dict[int, Rect] = {}
        rects: List[Rect] = []
        for rect in self.rects:
            twin = rect.copy()
            mapping[id(rect)] = twin
            rects.append(twin)
        clone.rects = rects
        clone.links = [link.remapped(mapping) for link in self.links]
        clone.labels = [label.copy() for label in self.labels]
        # Port the link dependency map the same way: positions are
        # preserved, only the rect ids change.
        clone._deps_links = clone.links
        clone._deps_len = len(clone.links)
        if self._deps_links is self.links and self._deps_len == len(self.links):
            clone._unsettled = self._unsettled
            deps = self._deps
            if deps is not None:
                get = mapping.get
                ported: Dict[int, Union[int, Tuple[int, ...]]] = {}
                for key, positions in deps.items():
                    twin = get(key)
                    ported[key if twin is None else id(twin)] = positions
                deps = ported
            clone._deps = deps
        else:
            clone._unsettled = None
            clone._deps = None
        # Carry the spatial index (with its warm frontier caches) across the
        # snapshot: rect positions are preserved, so the clone's index is
        # this one with every rect reference remapped.  The search-tree
        # optimizer snapshots one layout per visited order prefix; without
        # this the clone would re-sweep every layer on its first step.
        index = self._index
        clone._index = (
            index.clone_into(rects, mapping)
            if index is not None and index.in_sync(self.rects)
            else None
        )
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nonempty_rects(self) -> List[Rect]:
        """All rects with positive area (empty ones are collapsed array cuts)."""
        return [r for r in self.rects if not r.is_empty]

    def rects_on(self, layer: str) -> List[Rect]:
        """Non-empty rects on *layer*, in rect-list order.

        Served from the frontier index's layer bucket when an index is
        attached (a compaction target, or the amplifier during routing), so
        a query touches one layer instead of every rect; otherwise a scan.
        """
        if self._index is not None:
            return self.frontier_index().layer_rects(layer)
        return [r for r in self.nonempty_rects if r.layer == layer]

    def rects_on_net(self, net: str) -> List[Rect]:
        """Non-empty rects assigned to *net*."""
        return [r for r in self.nonempty_rects if r.net == net]

    def nets(self) -> Set[str]:
        """All net names present."""
        return {r.net for r in self.nonempty_rects if r.net}

    def layers(self) -> Set[str]:
        """All layers with geometry."""
        return {r.layer for r in self.nonempty_rects}

    def bbox(self) -> Optional[Rect]:
        """Bounding box over all non-empty rects, or None when empty.

        Served from the :class:`~repro.compact.index.FrontierIndex` cache
        when one is attached and current (the compactor queries the bbox
        after every step); otherwise a from-scratch scan.
        """
        index = self._index
        if index is not None and index.in_sync(self.rects):
            return index.bbox()
        return bounding_box(self.nonempty_rects)

    @property
    def width(self) -> int:
        """Bounding-box width (0 when empty)."""
        box = self.bbox()
        return box.width if box else 0

    @property
    def height(self) -> int:
        """Bounding-box height (0 when empty)."""
        box = self.bbox()
        return box.height if box else 0

    def area(self) -> int:
        """Bounding-box area — the primary term of the rating function."""
        box = self.bbox()
        return box.area if box else 0

    def drawn_area(self) -> int:
        """Union area of the drawn geometry (overlaps counted once)."""
        return union_area(self.nonempty_rects)

    def is_empty(self) -> bool:
        """True when the object holds no non-empty geometry.

        Served from the index's exact non-empty count when one is attached
        and current; otherwise a rect scan.
        """
        index = self._index
        if index is not None and index.in_sync(self.rects):
            return index.is_empty()
        return not self.nonempty_rects

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def translate(self, dx: int, dy: int) -> "LayoutObject":
        """Move every rect and label; returns self."""
        for rect in self.rects:
            rect.translate(dx, dy)
        for label in self.labels:
            label.x += dx
            label.y += dy
        if self._index is not None:
            # A uniform shift preserves every sorted order and sweep result.
            self._index.note_translate(dx, dy)
        return self

    def apply_transform(self, transform: Transform) -> "LayoutObject":
        """Apply an orthogonal transform in place; returns self.

        Rect objects are mutated (not replaced) so links remain valid.
        """
        for rect in self.rects:
            image = transform.apply_rect(rect)
            rect.x1, rect.y1, rect.x2, rect.y2 = image.as_tuple()
            rect._edges = image._edges
        for label in self.labels:
            label.x, label.y = transform.apply_point(label.x, label.y)
        self.invalidate_index()
        # Rounding in the array placement (and InsideLink.released, which
        # is not mirrored) can leave any link off its fixpoint.
        self._unsettled = None
        return self

    def mirror_x(self, axis_y: int = 0) -> "LayoutObject":
        """Mirror about the horizontal line y = axis_y."""
        return self.apply_transform(Transform.mirror_about_x(axis_y))

    def mirror_y(self, axis_x: int = 0) -> "LayoutObject":
        """Mirror about the vertical line x = axis_x."""
        return self.apply_transform(Transform.mirror_about_y(axis_x))

    def normalize(self) -> "LayoutObject":
        """Translate so the bounding box's lower-left corner sits at (0, 0)."""
        box = self.bbox()
        if box is not None:
            self.translate(-box.x1, -box.y1)
        return self

    def set_net(self, net: str, layer: Optional[str] = None) -> "LayoutObject":
        """Assign *net* to every rect (optionally restricted to *layer*)."""
        for rect in self.rects:
            if layer is None or rect.layer == layer:
                rect.net = net
        self.invalidate_index()
        return self

    def rename_nets(self, mapping: Dict[str, str]) -> "LayoutObject":
        """Rename nets per *mapping*; used when mirroring matched halves.

        Swaps are supported (``{"a": "b", "b": "a"}``) — the mapping is
        applied simultaneously, not sequentially.
        """
        for rect in self.rects:
            if rect.net in mapping:
                rect.net = mapping[rect.net]
        for link in self.links:
            net = getattr(link, "net", None)
            if net in mapping:
                link.net = mapping[net]
        self.invalidate_index()
        return self

    # ------------------------------------------------------------------
    # variable-edge machinery (Sec. 2.3 / Fig. 5b)
    # ------------------------------------------------------------------
    def _min_dimension(self, rect: Rect) -> int:
        """Smallest legal extent of *rect* along either axis."""
        cut = self.tech.rules.cut_size(rect.layer)
        if cut is not None:
            return cut
        width = self.tech.rules.width(rect.layer)
        return width if width is not None else 0

    def shrink_limit(self, rect: Rect, direction: Direction) -> int:
        """Furthest coordinate the edge facing *direction* may move inward.

        For NORTH/EAST edges the result is a lower bound on the coordinate;
        for SOUTH/WEST edges an upper bound.  The limit honours the rect's
        own minimum width, explicit edge bounds, and — through the rebuild
        links — the survival of enclosed rects and at least one array cut.
        """
        return self._shrink_limit(rect, direction, frozenset())

    def _shrink_limit(self, rect: Rect, direction: Direction, visiting: frozenset) -> int:
        sign = 1 if direction.is_positive else -1
        key = (id(rect), direction)
        if key in visiting:
            return rect.edge_coord(direction)
        visiting = visiting | {key}

        bounds: List[int] = []
        # The rect itself must keep its minimum extent.
        opposite = rect.edge_coord(direction.opposite)
        bounds.append(opposite + sign * self._min_dimension(rect))

        # Explicit per-edge bounds.
        prop = rect.edge(direction)
        if sign > 0 and prop.min_coord is not None:
            bounds.append(prop.min_coord)
        if sign < 0 and prop.max_coord is not None:
            bounds.append(prop.max_coord)

        links = self.links
        for position in self._dependents(rect):
            link = links[position]
            if isinstance(link, InsideLink):
                for outer, margin in link.outers:
                    if outer is rect:
                        inner_limit = self._shrink_limit(link.inner, direction, visiting)
                        bounds.append(inner_limit + sign * margin)
            elif isinstance(link, ArrayLink):
                for outer, margin in link.outers:
                    if outer is rect:
                        far = self._array_far_side(link, direction, rect)
                        bounds.append(far + sign * (link.cut_size + margin))

        return max(bounds) if sign > 0 else min(bounds)

    def _array_far_side(self, link: ArrayLink, direction: Direction, moving: Rect) -> int:
        """Region boundary opposite the moving edge of an array's outers."""
        other = direction.opposite
        coords = [
            outer.edge_coord(other) - other.dx * margin - other.dy * margin
            for outer, margin in link.outers
        ]
        # The region's far side is the tightest of the outers' far edges.
        return max(coords) if direction.is_positive else min(coords)

    def move_edge(self, rect: Rect, direction: Direction, coord: int) -> int:
        """Move an edge inward to *coord* (clamped to the shrink limit).

        Dependent links are rebuilt.  Returns the coordinate actually set.
        """
        limit = self.shrink_limit(rect, direction)
        if direction.is_positive:
            coord = max(coord, limit)
            coord = min(coord, rect.edge_coord(direction))
        else:
            coord = min(coord, limit)
            coord = max(coord, rect.edge_coord(direction))
        rect.set_edge_coord(direction, coord)
        self._rebuild_links_tracked(rect)
        return coord

    def move_stretch(self, rect: Rect, direction: Direction, coord: int) -> None:
        """Move an edge *outward* to *coord* (auto-connection stretch).

        Any enclosure clamp on that edge is released first so rebuilds do not
        pull the stretched wire back; dependent arrays are then recomputed
        (a longer wire may admit more cuts).
        """
        current = rect.edge_coord(direction)
        outward = coord > current if direction.is_positive else coord < current
        if not outward:
            return
        links = self.links
        for position in self._dependents(rect):
            link = links[position]
            if isinstance(link, InsideLink) and link.inner is rect:
                link.release(direction)
        rect.set_edge_coord(direction, coord)
        self._rebuild_links_tracked(rect)

    def rebuild_links(self) -> None:
        """Re-solve every link to a fixpoint (bounded passes).

        Callers typically mutated rect coordinates directly beforehand
        (primitive construction), so every link is re-solved and any live
        index is conservatively invalidated; the compactor's edge moves go
        through the tracked variant instead, which re-solves only the links
        the move reaches and updates the index precisely.
        """
        self._unsettled = None
        self._solve_links(())
        self.invalidate_index()

    def _rebuild_links_tracked(self, moved: Rect) -> None:
        """Re-solve the links a moved rect reaches, keeping the index current."""
        changed = self._solve_links(self._dependents(moved))
        if self._index is not None:
            changed.add(id(moved))
            self._index.note_changed_ids(changed)

    def _check_links(self) -> None:
        """Treat every link as unsettled, and drop the dependency map, when
        the ``links`` list was replaced or extended behind this object's
        back (ALT backtracking restores one wholesale)."""
        links = self.links
        if self._deps_links is not links or self._deps_len != len(links):
            self._deps_links = links
            self._deps_len = len(links)
            self._unsettled = None
            self._deps = None

    def _link_deps(self) -> Dict[int, Union[int, Tuple[int, ...]]]:
        """The rect id -> dependent link positions map, built on first use."""
        self._check_links()
        deps = self._deps
        if deps is None:
            deps = {}
            for position, link in enumerate(self.links):
                for rect in link.involved_rects():
                    _add_dependent(deps, id(rect), position)
            self._deps = deps
        return deps

    def _dependents(self, rect: Rect) -> Tuple[int, ...]:
        """Ascending positions of the links involving *rect*."""
        positions = self._link_deps().get(id(rect), ())
        return (positions,) if positions.__class__ is int else positions

    def _solve_links(self, seeds: Iterable[int]) -> Set[int]:
        """Worklist link solve; returns the ids of rects that moved.

        Equivalent to re-solving every link in list order, pass after pass,
        until a pass changes nothing (``repro.verify.reference.
        solve_links_full``).  When every link is unsettled that is what it
        does; otherwise it rebuilds only links that can change: the *seeds*
        (links of the moved rect), the links that may be off their fixpoint
        (:attr:`_unsettled`), and — transitively — links involving a rect an
        earlier rebuild changed.  Such a link joins the current pass when it
        comes later in list order and waits for the next pass otherwise,
        exactly as the full sweep would meet it.  Passes are bounded by
        ``len(links) + 2``; work still pending after the last one is counted
        as ``links.unconverged`` and stays unsettled.
        """
        self._check_links()
        links = self.links
        unsettled = self._unsettled
        full = unsettled is None
        if full:
            # Every pass re-sweeps every link, as the reference does, so
            # no dependency map is needed (most objects are only ever
            # solved this way, by the primitives that build them).
            deps = self._deps
            pending = set(range(len(links)))
        else:
            deps = self._link_deps()
            pending = set(seeds)
            pending.update(unsettled)
        changed: Set[int] = set()
        rebuilds = 0
        passes = 0
        limit = len(links) + 2
        while pending and passes < limit:
            passes += 1
            queue = sorted(pending)
            head = 0
            queued = pending
            deferred: Set[int] = set()
            #: rect id -> (rect, coordinates before this pass first wrote it)
            before: Dict[int, Tuple[Rect, Optional[tuple]]] = {}
            while head < len(queue):
                position = queue[head]
                head += 1
                link = links[position]
                outputs = link.outputs()
                old = [rect.as_tuple() for rect in outputs]
                link.rebuild()
                rebuilds += 1
                for index, rect in enumerate(outputs):
                    prior = old[index] if index < len(old) else None
                    if rect.as_tuple() == prior:
                        continue
                    key = id(rect)
                    if key not in before:
                        before[key] = (rect, prior)
                    if deps is None:
                        continue  # full solve: the next pass re-sweeps all
                    dependents = deps.get(key)
                    if dependents is None:
                        # A cut the array grew: only its own link reads it.
                        deps[key] = position
                    elif not full and dependents.__class__ is not int:
                        # (A lone int is this link itself.)
                        for dependent in dependents:
                            if dependent > position:
                                if dependent not in queued:
                                    queued.add(dependent)
                                    insort(queue, dependent, head)
                            elif dependent < position:
                                deferred.add(dependent)
            moved = False
            for key, (rect, prior) in before.items():
                if rect.as_tuple() != prior:
                    changed.add(key)
                    moved = True
            if full:
                pending = set(range(len(links))) if moved else set()
            else:
                pending = deferred
        tracer = get_tracer()
        tracer.count("links.solves")
        if full:
            tracer.count("links.full_solves")
        tracer.count("links.rebuilds", rebuilds)
        if pending:
            tracer.count("links.unconverged")
        self._unsettled = tuple(pending)
        return changed

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"LayoutObject({self.name!r}, rects={len(self.nonempty_rects)},"
            f" bbox={self.bbox()!r})"
        )
