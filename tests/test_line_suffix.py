from __future__ import annotations

from hypothesis import example, given, strategies as st

from spidergather import INFEASIBLE, PointOnSpider, SpiderInstance, distance
from spidergather.cost_oracle import FacilityIndex
from spidergather.exact_oracle import brute_clustering, brute_gathering
from spidergather.line_suffix import suffix_costs_clustering, suffix_costs_gathering
from conftest import points

coords_lists = st.lists(
    st.integers(min_value=0, max_value=50), min_size=0, max_size=8
).map(sorted)


def test_suffix_values_for_a_small_line():
    row = suffix_costs_clustering((1, 2, 5, 6), r=2)
    assert row.values == (0, INFEASIBLE, 1, 4, 1)


def test_suffix_first_sizes_reconstruct_the_split():
    row = suffix_costs_clustering((1, 2, 5, 6), r=2)
    assert row.first_size[4] == 2
    assert row.first_size[2] == 2
    assert row.first_size[1] == 0


def test_suffix_with_r_one_is_all_singletons():
    row = suffix_costs_clustering((3, 9, 20), r=1)
    assert row.values == (0, 0, 0, 0)


def test_suffix_group_larger_than_double_r_splits():
    # Five users, r = 2: group sizes are capped at 3, so the best split of
    # all five is 2 + 3 or 3 + 2.
    row = suffix_costs_clustering((0, 1, 2, 10, 11), r=2)
    assert row.values[5] == 2


@given(coords_lists, st.integers(min_value=1, max_value=3))
def test_suffix_against_brute_force_on_one_leg(coords, r):
    row = suffix_costs_clustering(tuple(coords), r)
    for k in range(len(coords) + 1):
        tail = coords[len(coords) - k :]
        inst = (
            SpiderInstance(
                d=1,
                users=tuple(PointOnSpider(1, x) for x in tail),
                facilities=None,
                r=r,
            )
            if tail
            else None
        )
        if k == 0:
            assert row.values[0] == 0
            continue
        sol = brute_clustering(inst)
        want = INFEASIBLE if sol is None else sol.value
        assert row.values[k] == want


@given(
    coords_lists,
    st.lists(points(2, 50), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=3),
)
def test_gathering_suffix_against_brute_force(coords, facilities, r):
    index = FacilityIndex(tuple(facilities))
    row = suffix_costs_gathering(tuple(coords), 1, index, r)
    for k in range(1, len(coords) + 1):
        tail = coords[len(coords) - k :]
        inst = SpiderInstance(
            d=2,
            users=tuple(PointOnSpider(1, x) for x in tail),
            facilities=tuple(facilities),
            r=r,
        )
        sol = brute_gathering(inst)
        want = INFEASIBLE if sol is None else sol.value
        assert row.values[k] == want


# The @examples pin the facility layouts around the group [3, 9] on leg 1: all
# on leg 1, so none is off it; none on leg 1; one at the centre; one beyond
# x_b; an on-leg facility tying with an off-leg one at radius 10; one at 5,
# just below the group's half-integer midpoint.
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.lists(points(3, 60), min_size=1, max_size=5),
)
@example(3, 9, [PointOnSpider(1, 2), PointOnSpider(1, 12)])
@example(3, 9, [PointOnSpider(2, 4), PointOnSpider(3, 1)])
@example(3, 9, [PointOnSpider(1, 0), PointOnSpider(2, 5)])
@example(3, 9, [PointOnSpider(1, 15), PointOnSpider(2, 9)])
@example(3, 9, [PointOnSpider(2, 1), PointOnSpider(1, 13)])
@example(3, 8, [PointOnSpider(1, 5)])
def test_group_cost_matches_linear_scan(x_a, x_b, facilities):
    x_a, x_b = min(x_a, x_b), max(x_a, x_b)
    ends = (PointOnSpider(1, x_a), PointOnSpider(1, x_b))
    want = min(
        max(distance(u, f) for u in ends) for f in facilities
    )
    row = suffix_costs_gathering((x_a, x_b), 1, FacilityIndex(tuple(facilities)), 2)
    assert row.values[2] == want  # one group of both users
