"""Shared-prefix tree order search: equivalence, pruning, parallel mode.

The tree engine must agree with the replay-based exhaustive sweep of
Sec. 2.4 (the :func:`~repro.verify.reference.replay_orders` oracle):
identical ``best_order`` and ``best_score`` (including lexicographic
tie-breaking), with at most one compaction step per distinct order prefix,
whether pruning or process parallelism is on.
"""

import logging
import math
import os
import threading

import pytest

from repro import Environment
from repro.compact import Compactor
from repro.db import LayoutObject
from repro.geometry import Direction, Rect
from repro.library import contact_row, diff_pair
from repro.obs import StatsSink, Tracer, activate
from repro.opt import (
    AnnealingOrderOptimizer,
    OrderOptimizer,
    PrefixTree,
    Rating,
    Step,
    TreeOrderOptimizer,
    select_order_variants,
)
from repro.verify.reference import replay_orders

W, S, E, N = Direction.WEST, Direction.SOUTH, Direction.EAST, Direction.NORTH


def rect_steps(tech, shapes):
    steps = []
    for i, (w, h, direction) in enumerate(shapes):
        obj = LayoutObject(f"s{i}", tech)
        obj.add_rect(Rect(0, 0, w, h, "metal1", f"n{i}"))
        steps.append(Step(obj, direction))
    return steps


def heterogeneous_steps(tech):
    """Tall strips + wide bars: the order strongly changes the area."""
    return rect_steps(
        tech,
        [(2000, 18000, W), (16000, 2500, S), (3000, 9000, W), (4000, 4000, S)],
    )


def contact_row_steps(tech):
    """The Sec. 2.4 sweep module: three diffusion rows and a poly row."""
    return [
        Step(contact_row(tech, "pdiff", w=4.0, net="a", name="a"), W),
        Step(contact_row(tech, "pdiff", w=14.0, net="b", name="b"), S),
        Step(contact_row(tech, "pdiff", w=8.0, net="c", name="c"), W),
        Step(contact_row(tech, "poly", w=2.0, length=12.0, net="d", name="d"), S),
    ]


def amplifier_style_steps(tech):
    """Amplifier-flavoured blocks: a diff pair plus its supply rows."""
    return [
        Step(diff_pair(tech, 4.0, 1.0, name="pair"), W),
        Step(contact_row(tech, "pdiff", w=6.0, net="vss", name="tail"), S),
        Step(contact_row(tech, "metal1", w=8.0, net="out", name="rail"), S),
    ]


def assert_engines_agree(tech, steps, rating=None):
    """The tree engine, pruned or not, serial or parallel, returns the
    replay oracle's optimum on *steps*."""
    exhaustive = replay_orders(
        "m", tech, steps, compactor=Compactor(), rating=rating
    )
    outcomes = {"exhaustive": exhaustive}
    for label, optimizer in (
        ("tree", OrderOptimizer(compactor=Compactor(), rating=rating,
                                prune=False)),
        ("pruned", OrderOptimizer(compactor=Compactor(), rating=rating,
                                  prune=True)),
        ("parallel", OrderOptimizer(compactor=Compactor(), rating=rating,
                                    prune=True, workers=2)),
    ):
        result = optimizer.optimize("m", tech, steps)
        assert result.best_order == exhaustive.best_order, label
        assert result.best_score == pytest.approx(exhaustive.best_score), label
        assert result.scores[result.best_order] == pytest.approx(
            result.best_score
        ), label
        assert result.best.bbox() == exhaustive.best.bbox(), label
        outcomes[label] = result
    return outcomes


# ----------------------------------------------------------------------
# equivalence with the replay-based exhaustive sweep
# ----------------------------------------------------------------------
def test_tree_matches_exhaustive_on_rect_module(tech):
    assert_engines_agree(tech, heterogeneous_steps(tech))


def test_tree_matches_exhaustive_on_contact_rows(tech):
    assert_engines_agree(tech, contact_row_steps(tech))


def test_tree_matches_exhaustive_on_amplifier_style_steps(tech):
    assert_engines_agree(tech, amplifier_style_steps(tech))


def test_tree_matches_exhaustive_with_electrical_rating(tech):
    rating = Rating(area_weight=1.0, capacitance_weights={"n0": 0.002},
                    coupling_weight=0.5)
    assert_engines_agree(tech, heterogeneous_steps(tech), rating=rating)


def test_unpruned_tree_scores_identical_to_exhaustive(tech):
    steps = heterogeneous_steps(tech)
    outcomes = assert_engines_agree(tech, steps)
    # The un-pruned tree visits every permutation: the full scores map must
    # match the replay sweep's, key for key and value for value.
    exhaustive, tree = outcomes["exhaustive"], outcomes["tree"]
    assert tree.scores.keys() == exhaustive.scores.keys()
    for order, score in exhaustive.scores.items():
        assert tree.scores[order] == pytest.approx(score)
    assert tree.evaluated == math.factorial(len(steps))


def test_tie_breaking_is_lexicographic(tech):
    # Four identical squares: every order scores the same, so all engines
    # must return the lexicographically smallest order — the replay
    # semantics ("first strictly better wins" keeps the first-seen order).
    steps = rect_steps(tech, [(5000, 5000, W)] * 4)
    outcomes = assert_engines_agree(tech, steps)
    assert outcomes["exhaustive"].best_order == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# the tentpole invariant: one compact per distinct prefix
# ----------------------------------------------------------------------
def test_one_compact_per_distinct_prefix(tech):
    steps = heterogeneous_steps(tech)
    n = len(steps)
    compactor = Compactor()
    result = OrderOptimizer(compactor=compactor, prune=False).optimize(
        "m", tech, steps
    )
    # Distinct non-empty prefixes of an n-step permutation space:
    # sum over k of n!/(n-k)!  (n=4 -> 4 + 12 + 24 + 24 = 64), versus
    # n!*n = 96 replayed steps for the baseline.
    prefixes = sum(
        math.factorial(n) // math.factorial(n - k) for k in range(1, n + 1)
    )
    assert compactor.calls == prefixes
    assert result.compact_calls == prefixes
    assert result.evaluated == math.factorial(n)


def test_pruned_search_accounting(tech):
    steps = heterogeneous_steps(tech)
    n = len(steps)
    result = OrderOptimizer(compactor=Compactor(), prune=True).optimize(
        "m", tech, steps
    )
    # Every permutation is either evaluated or pruned, never both.
    assert result.evaluated + result.pruned == math.factorial(n)
    assert result.pruned > 0  # this module does prune
    assert len(result.scores) == result.evaluated
    assert all(len(order) == n for order in result.scores)
    assert result.best_order in result.scores


def test_negative_weight_disables_pruning_not_correctness(tech):
    # A negative weight rewards larger layouts, so the area bound is no
    # longer a lower bound; the rating reports itself unbounded and the
    # pruned engine must silently degrade to the full sweep.
    rating = Rating(area_weight=-1.0)
    assert not rating.bounded()
    obj = LayoutObject("m", tech)
    assert rating.lower_bound(obj) == float("-inf")
    steps = heterogeneous_steps(tech)
    exhaustive = replay_orders(
        "m", tech, steps, compactor=Compactor(), rating=rating
    )
    pruned = OrderOptimizer(
        compactor=Compactor(), rating=rating, prune=True
    ).optimize("m", tech, steps)
    assert pruned.best_order == exhaustive.best_order
    assert pruned.best_score == pytest.approx(exhaustive.best_score)
    assert pruned.pruned == 0
    assert pruned.evaluated == math.factorial(len(steps))


# ----------------------------------------------------------------------
# beam scores contract
# ----------------------------------------------------------------------
def test_beam_records_every_terminal_order(tech):
    steps = heterogeneous_steps(tech)
    compactor = Compactor()
    optimizer = OrderOptimizer(
        compactor=compactor, exhaustive_limit=1, beam_width=2
    )
    result = optimizer.optimize("m", tech, steps)
    # scores holds every evaluated *complete* order — the final-round
    # expansions of the surviving beam — and never a partial prefix.
    assert result.scores
    assert all(len(order) == len(steps) for order in result.scores)
    assert result.best_order in result.scores
    assert result.scores[result.best_order] == pytest.approx(result.best_score)
    # Pinned from the copy-and-recompact beam the tree expansion replaced:
    # 4 + 2*3 + 2*2 + 2*1 expansions, one compaction each.
    assert result.best_order == (3, 2, 1, 0)
    assert result.best_score == 351.0
    assert result.evaluated == 16
    assert result.scores == {(2, 3, 0, 1): 352.0, (3, 2, 1, 0): 351.0}
    assert compactor.calls == result.compact_calls == 16
    assert Rating().evaluate(result.best) == result.best_score


def test_beam_tree_keeps_only_the_beam(tech, monkeypatch):
    # After each round only the surviving orders stay resident.
    steps = heterogeneous_steps(tech)
    resident = []
    evict = PrefixTree.evict

    def counting_evict(tree, prefix):
        dropped = evict(tree, prefix)
        resident.append(tree.cached_prefixes())
        return dropped

    monkeypatch.setattr(PrefixTree, "evict", counting_evict)
    OrderOptimizer(exhaustive_limit=1, beam_width=2).optimize("m", tech, steps)
    assert resident and max(resident) <= 2 * len(steps)
    assert resident[-1] == 2


# ----------------------------------------------------------------------
# one engine behind every entry point
# ----------------------------------------------------------------------
def test_tree_order_optimizer_is_an_alias():
    assert TreeOrderOptimizer is OrderOptimizer


def test_environment_searches_on_the_tree(tech):
    # The facade must not regress to replaying every permutation
    # (n! * n = 96 compactions here).
    steps = heterogeneous_steps(tech)
    env = Environment(tech=tech)
    facade = env.optimize_order("m", steps)
    pruned = OrderOptimizer(compactor=Compactor()).optimize("m", tech, steps)
    assert env.compactor.calls == facade.compact_calls == pruned.compact_calls
    assert facade.compact_calls < 64  # below the unpruned tree, too
    assert facade.best_order == pruned.best_order
    assert facade.best_score == pruned.best_score


# ----------------------------------------------------------------------
# parallel fallback: only pool/pickling failures fall back
# ----------------------------------------------------------------------
class _WorkerOnlyFailure(Rating):
    """A rating that fails in worker processes and works in the parent —
    a serial re-run after a worker error would hide the failure."""

    def __init__(self):
        super().__init__()
        self.parent_pid = os.getpid()

    def evaluate(self, obj):
        if os.getpid() != self.parent_pid:
            raise ValueError("rating failed in a worker")
        return super().evaluate(obj)


def _local_instance():
    class Local:
        pass

    return Local()


@pytest.mark.parametrize(
    "payload",
    [lambda: None, threading.Lock(), _local_instance()],
    ids=["lambda-PicklingError", "lock-TypeError", "local-AttributeError"],
)
def test_unpicklable_steps_fall_back_to_serial(tech, caplog, monkeypatch, payload):
    # CLI logging setup may have detached the repro logger from the root.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    steps = heterogeneous_steps(tech)
    steps[0].obj.attachment = payload  # a step that cannot ship to a worker
    serial = OrderOptimizer(compactor=Compactor()).optimize("m", tech, steps)
    tracer = Tracer(enabled=True)
    stats = StatsSink()
    tracer.add_sink(stats)
    with activate(tracer), caplog.at_level(logging.WARNING, logger="repro"):
        result = OrderOptimizer(compactor=Compactor(), workers=2).optimize(
            "m", tech, steps
        )
    assert stats.counter("opt.parallel_fallbacks") == 1
    assert "running serially" in caplog.text
    assert result.best_order == serial.best_order
    assert result.best_score == serial.best_score
    assert result.scores == serial.scores


def test_worker_search_error_propagates(tech):
    steps = heterogeneous_steps(tech)
    tracer = Tracer(enabled=True)
    stats = StatsSink()
    tracer.add_sink(stats)
    optimizer = OrderOptimizer(
        compactor=Compactor(), rating=_WorkerOnlyFailure(), workers=2
    )
    with activate(tracer), pytest.raises(ValueError, match="in a worker"):
        optimizer.optimize("m", tech, steps)
    assert stats.counter("opt.parallel_fallbacks") == 0


# ----------------------------------------------------------------------
# PrefixTree unit behaviour
# ----------------------------------------------------------------------
def test_prefix_tree_caches_and_counts(tech):
    steps = heterogeneous_steps(tech)
    tree = PrefixTree("m", tech, steps)
    first = tree.layout((0, 1))
    assert tree.compact_calls == 2  # (0,) then (0, 1)
    assert tree.layout((0, 1)) is first  # cached, no recompaction
    assert tree.compact_calls == 2
    tree.layout((0, 2))
    assert tree.compact_calls == 3  # shares the (0,) prefix


def test_prefix_tree_realize_is_independent(tech):
    steps = heterogeneous_steps(tech)
    tree = PrefixTree("m", tech, steps)
    copy = tree.realize((0, 1))
    internal = tree.layout((0, 1))
    assert copy is not internal
    moved = copy.rects[0]
    twin = internal.rects[0]
    moved.translate(12345, 6789)
    assert (twin.x1, twin.y1) != (moved.x1, moved.y1)


def test_prefix_tree_advance_donates_parent(tech):
    steps = heterogeneous_steps(tech)
    tree = PrefixTree("m", tech, steps)
    parent = tree.layout((0,))
    child = tree.advance((0,), 1)
    assert child is parent  # compacted in place, no snapshot
    assert tree.cached_prefixes() == 2  # root + (0, 1); (0,) was consumed
    assert tree.layout((0, 1)) is child


def test_prefix_tree_advance_bad_index_restores_parent(tech):
    steps = heterogeneous_steps(tech)
    tree = PrefixTree("m", tech, steps)
    tree.layout((0,))
    before = tree.compact_calls
    with pytest.raises(IndexError):
        tree.advance((0,), 99)
    assert tree.compact_calls == before
    assert tree.layout((0,)) is not None  # parent still resident


def test_prefix_tree_evict_and_prune_depth(tech):
    steps = heterogeneous_steps(tech)
    tree = PrefixTree("m", tech, steps)
    tree.layout((0, 1, 2))
    tree.layout((0, 2))
    assert tree.evict((0, 1)) == 2  # (0, 1) and (0, 1, 2)
    assert tree.cached_prefixes() == 3  # root, (0,), (0, 2)
    tree.layout((1, 0, 2))
    assert tree.prune_depth(1) > 0
    assert tree.cached_prefixes() == 3  # root, (0,), (1,) survive
    before = tree.compact_calls
    tree.layout((0, 1))  # recomputable after eviction, one new step
    assert tree.compact_calls == before + 1


# ----------------------------------------------------------------------
# tree-backed clients: variant selection and annealing
# ----------------------------------------------------------------------
def test_select_order_variants_shares_prefixes(tech):
    steps = heterogeneous_steps(tech)
    compactor = Compactor()
    result = select_order_variants(
        "m", tech, steps,
        orders=[(0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3)],
        compactor=compactor,
    )
    assert result.best_index in (0, 1, 2)
    assert len(result.trials) == 3
    # Shared (0, 1) prefix: 4 + 2 + 4 = 10 steps instead of 12 replayed.
    assert compactor.calls == 10


def test_anneal_prefix_cache_matches_replay_evaluation(tech):
    steps = heterogeneous_steps(tech)
    classic = AnnealingOrderOptimizer(
        compactor=Compactor(), seed=7
    ).optimize("m", tech, steps)
    cached = AnnealingOrderOptimizer(
        compactor=Compactor(), seed=7, prefix_cache_depth=2
    ).optimize("m", tech, steps)
    assert cached.best_order == classic.best_order
    assert cached.best_score == pytest.approx(classic.best_score)
    assert cached.scores.keys() == classic.scores.keys()
