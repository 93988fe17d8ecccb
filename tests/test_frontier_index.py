"""Property tests: the incremental FrontierIndex equals from-scratch state.

The index's whole contract is invisibility — every query must reproduce,
element for element and in order, what the from-scratch scans
(:func:`frontier_filter`, the ``(net, layer)`` bucket rebuild, the naive
bridge-blocking sweep) would compute on the owner's current rect list.
These tests drive randomized merge/stretch/shrink/translate sequences
through the :class:`LayoutObject` mutation API with queries interleaved
(so warm caches must be invalidated correctly, not just rebuilt lazily)
and compare against the naive recomputation after every step.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compact import Compactor, frontier_filter
from repro.db import LayoutObject
from repro.geometry import Direction, Rect, bounding_box
from repro.tech import generic_bicmos_1u

TECH = generic_bicmos_1u()

LAYERS = ["metal1", "metal2", "poly", "ndiff"]

rects = st.builds(
    lambda x, y, w, h, layer, net, no_overlap: Rect(
        x, y, x + w, y + h, layer, net, no_overlap=no_overlap
    ),
    st.integers(min_value=-40_000, max_value=40_000),
    st.integers(min_value=-40_000, max_value=40_000),
    st.integers(min_value=1_500, max_value=15_000),
    st.integers(min_value=1_500, max_value=15_000),
    st.sampled_from(LAYERS),
    st.sampled_from(["a", "b", None]),
    st.booleans(),
)

directions = st.sampled_from(list(Direction))

# One mutation step, applied through the LayoutObject API.  Rect/amount
# selectors are drawn as raw integers and wrapped modulo the live state at
# application time, so every drawn program is applicable to any structure.
operations = st.one_of(
    st.tuples(st.just("add"), rects),
    st.tuples(st.just("merge"), st.lists(rects, min_size=1, max_size=3)),
    st.tuples(
        st.just("shrink"),
        st.integers(min_value=0, max_value=255),
        directions,
        st.integers(min_value=100, max_value=8_000),
    ),
    st.tuples(
        st.just("stretch"),
        st.integers(min_value=0, max_value=255),
        directions,
        st.integers(min_value=100, max_value=8_000),
    ),
    st.tuples(
        st.just("translate"),
        st.integers(min_value=-5_000, max_value=5_000),
        st.integers(min_value=-5_000, max_value=5_000),
    ),
    st.tuples(st.just("query"), directions, st.sampled_from(["a", "b", None])),
)


def _arrival_nets(net):
    return frozenset() if net is None else frozenset({net})


def _apply(obj, index, op):
    kind = op[0]
    if kind == "add":
        obj.add_rect(op[1].copy())
    elif kind == "merge":
        other = LayoutObject("arrival", TECH)
        for rect in op[1]:
            other.add_rect(rect.copy())
        obj.merge(other)
    elif kind in ("shrink", "stretch"):
        _, selector, direction, amount = op
        live = obj.nonempty_rects
        if not live:
            return
        rect = live[selector % len(live)]
        sign = 1 if direction.is_positive else -1
        coord = rect.edge_coord(direction)
        if kind == "shrink":
            rect.set_variable()
            obj.move_edge(rect, direction, coord - sign * amount)
        else:
            obj.move_stretch(rect, direction, coord + sign * amount)
    elif kind == "translate":
        obj.translate(op[1], op[2])
    else:  # "query": warm the caches mid-sequence
        index.sync(obj.rects)
        index.frontier_groups(op[1], _arrival_nets(op[2]))


def _check_equals_scratch(obj, index):
    index.sync(obj.rects)
    fresh = obj.nonempty_rects
    assert index.nonempty == len(fresh)

    # Emptiness and the exact bbox are served from the index (both through
    # the index API and through the LayoutObject methods that prefer it).
    assert index.is_empty() == (not fresh)
    assert obj.is_empty() == (not fresh)
    expected_box = bounding_box(fresh)
    for served in (index.bbox(), obj.bbox()):
        if expected_box is None:
            assert served is None
        else:
            assert served is not None
            assert (served.x1, served.y1, served.x2, served.y2, served.layer) \
                == (expected_box.x1, expected_box.y1, expected_box.x2,
                    expected_box.y2, expected_box.layer)

    for direction in Direction:
        for nets in (frozenset(), frozenset({"a"}), frozenset({"a", "b"})):
            groups = index.frontier_groups(direction, nets)
            flat = [rect for _, rects_ in groups for rect in rects_]
            expected = frontier_filter(fresh, direction, nets)
            assert [id(r) for r in flat] == [id(r) for r in expected]

    buckets: dict = {}
    for rect in fresh:
        if rect.net is not None:
            buckets.setdefault((rect.net, rect.layer), []).append(rect)
    for net in ("a", "b"):
        for layer in LAYERS:
            expected = buckets.get((net, layer), [])
            served = [
                r for r in index.residents(net, layer) if not r.is_empty
            ]
            assert [id(r) for r in served] == [id(r) for r in expected]


@settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(
    st.lists(rects, min_size=1, max_size=4),
    st.lists(operations, min_size=1, max_size=8),
)
def test_incremental_index_equals_from_scratch(initial, ops):
    """After any mutation sequence the index matches naive recomputation."""
    obj = LayoutObject("main", TECH)
    for rect in initial:
        obj.add_rect(rect)
    index = obj.frontier_index()
    for op in ops:
        _apply(obj, index, op)
        _check_equals_scratch(obj, index)


@settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(
    st.lists(rects, min_size=1, max_size=4),
    st.lists(operations, min_size=0, max_size=6),
)
def test_snapshot_carries_an_exact_index(initial, ops):
    """A snapshot's ported index answers like a fresh one on the clone."""
    obj = LayoutObject("main", TECH)
    for rect in initial:
        obj.add_rect(rect)
    index = obj.frontier_index()
    for op in ops:
        _apply(obj, index, op)
    index.sync(obj.rects)
    index.frontier_groups(Direction.WEST, frozenset({"a"}))  # warm a cache

    clone = obj.snapshot()
    assert clone._index is not None
    assert all(r is not s for r, s in zip(clone.rects, obj.rects))
    _check_equals_scratch(clone, clone._index)
    # ... and the original is untouched by cloning.
    _check_equals_scratch(obj, index)


@settings(
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(
    st.lists(rects, min_size=1, max_size=5),
    st.lists(rects, min_size=1, max_size=3),
    directions,
)
def test_bridge_blocked_matches_naive_scan(fixed, bridges, direction):
    """Indexed bridge blocking equals the unindexed rule-by-rule sweep."""
    main = LayoutObject("main", TECH)
    for rect in fixed:
        main.add_rect(rect)
    index = main.frontier_index()
    compactor = Compactor(use_index=False)
    for bridge in bridges:
        if bridge.net is None or bridge.is_empty:
            continue
        expected = compactor._bridge_blocked(main, bridge, bridge.net)
        assert index.bridge_blocked(bridge, bridge.net) == expected


@settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(st.lists(rects, min_size=2, max_size=6), directions)
def test_indexed_compactor_matches_unindexed(rect_list, direction):
    """Full-featured compaction is byte-identical with the index on or off."""
    def pack(use_index):
        main = LayoutObject("main", TECH)
        compactor = Compactor(use_index=use_index)
        for i, rect in enumerate(rect_list):
            mover = LayoutObject(f"m{i}", TECH)
            clone = rect.copy()
            clone.set_variable()
            mover.add_rect(clone)
            compactor.compact(main, mover, direction)
        return [
            (r.x1, r.y1, r.x2, r.y2, r.layer, r.net, r.no_overlap)
            for r in main.rects
        ]

    assert pack(True) == pack(False)
