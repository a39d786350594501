from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from spidergather import PointOnSpider, distance
from spidergather.cost_oracle import (
    FacilityIndex,
    best_facility,
    cost_gathering,
)
from conftest import points


def _index(facilities):
    return FacilityIndex(tuple(facilities))


def test_cost_gathering_prefers_an_off_leg_facility_near_center():
    facilities = (PointOnSpider(3, 1), PointOnSpider(2, 50))
    # u on leg 1 at 4, v on leg 2 at 6: serving both from (3, 1) costs
    # max(4 + 1, 6 + 1) = 7; the on-leg facility at 50 costs 54.
    got = cost_gathering(PointOnSpider(1, 4), PointOnSpider(2, 6), _index(facilities))
    assert got == 7


def test_cost_gathering_uses_on_leg_facility_between_the_pair():
    facilities = (PointOnSpider(2, 1),)
    got = cost_gathering(PointOnSpider(1, 4), PointOnSpider(2, 6), _index(facilities))
    assert got == max(4 + 1, 6 - 1) == 5


def test_cost_gathering_no_facilities_is_infeasible():
    from spidergather import INFEASIBLE

    got = cost_gathering(PointOnSpider(1, 4), PointOnSpider(2, 6), _index(()))
    assert got is INFEASIBLE


def _scan_pair_cost(u, v, facilities):
    return min(
        (max(distance(u, f), distance(v, f)) for f in facilities),
        default=None,
    )


@given(
    points(4, 60),
    points(4, 60),
    st.lists(points(4, 60), min_size=1, max_size=6),
)
def test_cost_gathering_matches_full_scan_on_cross_leg_pairs(u, v, facilities):
    # The oracle contract covers the pairs the sweep asks about: u strictly
    # below v on different legs (the two ends of a candidate cluster).
    if u.leg == v.leg or u.x > v.x:
        u, v = PointOnSpider(1, min(u.x, v.x)), PointOnSpider(2, max(u.x, v.x))
    assert cost_gathering(u, v, _index(facilities)) == _scan_pair_cost(u, v, facilities)


@given(
    st.lists(points(3, 40), min_size=1, max_size=6),
    st.lists(points(3, 40), min_size=1, max_size=5),
)
def test_best_facility_matches_scan(members, facilities):
    got_idx, got_radius = best_facility(members, _index(facilities))
    want_radius, want_idx = min(
        (max(distance(u, f) for u in members), pos)
        for pos, f in enumerate(facilities)
    )
    assert (got_radius, got_idx) == (want_radius, want_idx)
