"""True fanouts and fanin/fanout enclosing rectangles (Section 3.3).

The *true fanouts* of a node are the fanouts that would exist had mapping
stopped after the previous cone: hawks, nestlings and eggs that consume the
node's signal.  A fanout that has become a dove was merged into some hawk,
so the walk continues through it (``add-true-fanout-recursively``); logic
duplication can yield more than one true fanout along a branch.

Rectangles use mapPositions for hawks (and for the fanin node itself when
it has one) and placePositions for everything else, exactly as the paper
prescribes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from repro.geometry import Point, Rect, bounding_rect
from repro.core.state import PlacementState
from repro.map.lifecycle import LifecycleTracker, NodeState
from repro.network.subject import SubjectNode

__all__ = ["true_fanouts", "fanin_rectangle", "fanout_rectangle"]


def true_fanouts(
    node: SubjectNode, lifecycle: LifecycleTracker
) -> List[SubjectNode]:
    """All true fanouts of ``node`` across its branches.

    Primary outputs are terminals (pads) and always count as true fanouts.
    Doves are looked *through*: the hawk(s) their logic was merged into (or
    further consumers) absorb the connection.

    Lily reads true fanouts through :class:`repro.perf.netcache.NetCache`;
    this walk is the cache's reference seam, which the net-cache tests
    re-derive every live entry from.
    """
    found: List[SubjectNode] = []
    seen: Set[int] = set()
    stack = list(node.fanouts)
    while stack:
        branch = stack.pop()
        if branch.uid in seen:
            continue
        seen.add(branch.uid)
        if branch.is_po or not branch.is_gate:
            found.append(branch)
            continue
        if lifecycle.state(branch) is NodeState.DOVE:
            stack.extend(branch.fanouts)
        else:
            found.append(branch)
    # Stable, deterministic order.
    found.sort(key=lambda n: n.uid)
    return found


def _node_point(
    node: SubjectNode,
    state: PlacementState,
    lifecycle: LifecycleTracker,
) -> Point:
    """mapPosition for hawks, placePosition (or pad) otherwise."""
    if node.is_gate and lifecycle.state(node) is NodeState.HAWK:
        p = state.map_position(node)
        if p is not None:
            return p
    return state.place_position(node)


def fanin_rectangle(
    fanin: SubjectNode,
    covered: Iterable[SubjectNode],
    state: PlacementState,
    lifecycle: LifecycleTracker,
    fanin_position: Optional[Point] = None,
    extra_point: Optional[Point] = None,
    consumers: Optional[List[SubjectNode]] = None,
) -> Rect:
    """Enclosing rectangle of a match input's output net (Section 3.3).

    The node list is the fanin's true fanouts, minus those covered by the
    candidate match, plus the fanin itself; ``extra_point`` (the candidate
    gate position) is included when estimating wire cost.

    Args:
        fanin: the subject node feeding the candidate match.
        covered: nodes merged into the candidate match.
        state: current placement state.
        lifecycle: current life-cycle states.
        fanin_position: override for the fanin's own position — the
            (tentative) mapPosition of the best gate matching there.
        extra_point: candidate gate position to include, if any.
        consumers: precomputed ``true_fanouts(fanin, ...)`` (cache hook).
    """
    covered_set = {n.uid for n in covered}
    if consumers is None:
        consumers = true_fanouts(fanin, lifecycle)
    points: List[Point] = []
    for consumer in consumers:
        if consumer.uid in covered_set:
            continue
        points.append(_node_point(consumer, state, lifecycle))
    if fanin_position is not None:
        points.append(fanin_position)
    else:
        points.append(_node_point(fanin, state, lifecycle))
    if extra_point is not None:
        points.append(extra_point)
    return bounding_rect(points)


def fanout_rectangle(
    node: SubjectNode,
    covered: Iterable[SubjectNode],
    state: PlacementState,
    lifecycle: LifecycleTracker,
) -> Optional[Rect]:
    """Enclosing rectangle of the candidate match's output net.

    The outputs of the match root are eggs (depth-first ordering), so their
    placePositions are used directly; nodes merged into the match are
    excluded.  Returns ``None`` when every fanout is covered (the output is
    consumed entirely inside the match — only possible for the root of a
    cone, whose PO pad then provides the point).
    """
    covered_set = {n.uid for n in covered}
    points: List[Point] = []
    for sink in node.fanouts:
        if sink.uid in covered_set:
            continue
        points.append(_node_point(sink, state, lifecycle))
    if not points:
        return None
    return bounding_rect(points)
