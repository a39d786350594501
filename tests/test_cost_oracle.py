from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from spidergather import PointOnSpider, distance
from spidergather.cost_oracle import FacilityIndex, best_facility
from conftest import points

P = PointOnSpider


def _index(facilities):
    return FacilityIndex(tuple(facilities))


def test_cost_gathering_prefers_an_off_leg_facility_near_center():
    facilities = (PointOnSpider(3, 1), PointOnSpider(2, 50))
    # u on leg 1 at 4, v on leg 2 at 6: serving both from (3, 1) costs
    # max(4 + 1, 6 + 1) = 7; the on-leg facility at 50 costs 54.
    assert _index(facilities).close_cost(4, 2, 6) == 7


def test_cost_gathering_uses_on_leg_facility_between_the_pair():
    facilities = (PointOnSpider(2, 1),)
    assert _index(facilities).close_cost(4, 2, 6) == max(4 + 1, 6 - 1) == 5


def test_cost_gathering_no_facilities_is_infeasible():
    from spidergather import INFEASIBLE

    assert _index(()).close_cost(4, 2, 6) is INFEASIBLE


def _scan_cost(members, facilities):
    return min(max(distance(u, f) for u in members) for f in facilities)


# The uses of close_cost against a full scan over the facilities. Closes: u
# below v on different legs, the two ends of a candidate cluster. The
# @examples pin the facility layouts around v: all on v's leg, so none is off
# it; none on v's leg; one at the centre; one beyond v; an on-leg facility
# tying with an off-leg one (radius 7 here); one at 2, just below the
# half-integer turning point (x(v) - x(u)) / 2 of the on-leg radius.
@given(
    points(4, 60),
    points(4, 60),
    st.lists(points(4, 60), min_size=1, max_size=6),
)
@example(P(1, 1), P(2, 6), [P(2, 1), P(2, 9)])
@example(P(1, 1), P(2, 6), [P(1, 2), P(3, 5)])
@example(P(1, 1), P(2, 6), [P(2, 0), P(3, 8)])
@example(P(1, 1), P(2, 6), [P(2, 20), P(1, 30)])
@example(P(1, 1), P(2, 6), [P(3, 1), P(2, 6)])
@example(P(1, 1), P(2, 6), [P(2, 2)])
def test_cost_gathering_matches_full_scan_on_cross_leg_pairs(u, v, facilities):
    if u.leg == v.leg or u.x > v.x:
        u, v = PointOnSpider(1, min(u.x, v.x)), PointOnSpider(2, max(u.x, v.x))
    assert _index(facilities).close_cost(u.x, v.leg, v.x) == _scan_cost((u, v), facilities)


# Users: near = -x gives a user's distance to its nearest facility, with the
# layouts pinned above. The third use, a one-leg group [x_a, x_b] at
# near = -x_a, is tested in test_line_suffix.py.
@given(points(4, 60), st.lists(points(4, 60), min_size=1, max_size=6))
@example(P(2, 6), [P(2, 1), P(2, 9)])
@example(P(2, 6), [P(1, 2), P(3, 5)])
@example(P(2, 6), [P(2, 0), P(3, 8)])
@example(P(2, 6), [P(2, 20), P(1, 30)])
@example(P(2, 6), [P(3, 1), P(2, 13)])
def test_close_cost_of_one_user_is_its_nearest_facility(v, facilities):
    assert _index(facilities).close_cost(-v.x, v.leg, v.x) == _scan_cost((v,), facilities)


# Ties on radius go to the least facility index, also when best_facility
# reads only the first entry of a leg without members: two such legs whose
# first facilities tie at 6, one holding a later index at the same point; a
# member-free leg's facility tying at 8 with one on a member's leg, in both
# index orders.
@given(
    st.lists(points(3, 40), min_size=1, max_size=6),
    st.lists(points(3, 40), min_size=1, max_size=5),
)
@example([P(1, 4)], [P(3, 2), P(2, 2), P(3, 2), P(2, 7)])
@example([P(1, 6), P(2, 6)], [P(1, 2), P(3, 2)])
@example([P(1, 6), P(2, 6)], [P(3, 2), P(1, 2)])
def test_best_facility_matches_scan(members, facilities):
    got_idx, got_radius = best_facility(members, _index(facilities))
    want_radius, want_idx = min(
        (max(distance(u, f) for u in members), pos)
        for pos, f in enumerate(facilities)
    )
    assert (got_radius, got_idx) == (want_radius, want_idx)
