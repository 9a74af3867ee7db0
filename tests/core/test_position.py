"""Incremental position updates (Section 3.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.position import cm_of_fans, cm_of_merged
from repro.core.state import PlacementState
from repro.geometry import (
    Point,
    Rect,
    rect_manhattan_distance,
)
from repro.network.subject import SubjectGraph

coords = st.floats(min_value=0, max_value=100, allow_nan=False)


def rect_strategy():
    return st.builds(
        lambda x, y, dx, dy: Rect(x, y, x + abs(dx), y + abs(dy)),
        coords, coords, coords, coords,
    )


class TestCmOfMerged:
    def test_center_of_mass(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        n1 = g.nand(a, b)
        n2 = g.inv(n1)
        g.add_primary_output("f", n2)
        state = PlacementState(
            Rect(0, 0, 10, 10),
            {n1.name: Point(2, 2), n2.name: Point(6, 4)},
            {"a": Point(0, 0), "b": Point(0, 10), "f": Point(10, 5)},
        )
        state.bind(g)
        assert cm_of_merged([n1, n2], state) == Point(4, 3)

    def test_independent_of_iteration_order(self):
        # 0.1 + 0.2 + 0.3 rounds differently depending on the summing
        # order; the result must not depend on how ``covered`` iterates.
        g = SubjectGraph()
        a, b, c = (g.add_primary_input(x) for x in "abc")
        n1, n2, n3 = g.nand(a, b), g.nand(a, c), g.nand(b, c)
        g.add_primary_output("f", g.nand(g.nand(n1, n2), n3))
        state = PlacementState(
            Rect(0, 0, 1, 1),
            {n1.name: Point(0.1, 0.1), n2.name: Point(0.2, 0.2),
             n3.name: Point(0.3, 0.3)},
            {"a": Point(0, 0), "b": Point(0, 1), "c": Point(1, 0),
             "f": Point(1, 1)},
        )
        state.bind(g)
        forward = cm_of_merged([n1, n2, n3], state)
        assert cm_of_merged([n3, n2, n1], state) == forward
        assert cm_of_merged([n2, n3, n1], state) == forward


class TestCmOfFans:
    def test_manhattan_single_rect(self):
        r = Rect(2, 2, 6, 6)
        p = cm_of_fans([r], None, norm="manhattan")
        assert rect_manhattan_distance(p, r) == 0

    def test_fanout_rect_included(self):
        fanin = Rect(0, 0, 0, 0)
        fanout = Rect(10, 10, 10, 10)
        p = cm_of_fans([fanin], fanout, norm="manhattan")
        # Median of xs {0,0,10,10} -> 5; same for y.
        assert p == Point(5, 5)

    def test_euclidean_center_of_centers(self):
        rects = [Rect(0, 0, 2, 2), Rect(8, 8, 10, 10)]
        assert cm_of_fans(rects, None, norm="euclidean") == Point(5, 5)

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            cm_of_fans([Rect(0, 0, 1, 1)], None, norm="chebyshev")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            cm_of_fans([], None)

    @given(st.lists(rect_strategy(), min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_manhattan_optimality_property(self, rects):
        """The Manhattan CM-of-Fans point minimises the summed rectangle
        distance over all corner-coordinate candidates."""
        best = cm_of_fans(rects, None, norm="manhattan")
        best_cost = sum(rect_manhattan_distance(best, r) for r in rects)
        xs = sorted({r.lx for r in rects} | {r.ux for r in rects})
        ys = sorted({r.ly for r in rects} | {r.uy for r in rects})
        for x in xs:
            for y in ys:
                cost = sum(
                    rect_manhattan_distance(Point(x, y), r) for r in rects
                )
                assert best_cost <= cost + 1e-6
