from __future__ import annotations

import math

import pytest
from hypothesis import example, given, strategies as st

from spidergather import (
    INFEASIBLE,
    MalformedInstanceError,
    MissingFacility,
    NotAPartition,
    PointOnSpider,
    SizeViolation,
    Solution,
    SpiderInstance,
    ValueMismatch,
    distance,
    normalize,
    scale_instance,
    validate_clustering,
    validate_gathering,
)
from conftest import points, spider_instances


def test_distance_same_leg():
    assert distance(PointOnSpider(1, 3), PointOnSpider(1, 5)) == 2


def test_distance_across_legs():
    assert distance(PointOnSpider(1, 3), PointOnSpider(2, 5)) == 8


def test_distance_identical_points():
    assert distance(PointOnSpider(2, 7), PointOnSpider(2, 7)) == 0


def test_distance_center_is_shared():
    assert distance(PointOnSpider(1, 0), PointOnSpider(3, 0)) == 0


@given(points(4, 100), points(4, 100))
def test_distance_symmetric(p, q):
    assert distance(p, q) == distance(q, p)


@given(points(4, 100), points(4, 100), points(4, 100))
def test_distance_triangle_inequality(p, q, s):
    assert distance(p, s) <= distance(p, q) + distance(q, s)


@given(points(4, 100))
def test_distance_zero_on_self(p):
    assert distance(p, p) == 0


def test_point_rejects_bad_values():
    with pytest.raises(MalformedInstanceError):
        PointOnSpider(0, 3)
    with pytest.raises(MalformedInstanceError):
        PointOnSpider(1, -1)
    with pytest.raises(MalformedInstanceError):
        PointOnSpider(True, 3)


_ONE_USER = SpiderInstance(
    d=1, users=(PointOnSpider(1, 0),), facilities=(PointOnSpider(1, 0),), r=1
)


# A bool is an int to Python, but no field or index takes one. Each is refused
# with the error that an out-of-range int raises at the same place.
@pytest.mark.parametrize(
    "error, call",
    [
        (MalformedInstanceError, lambda: SpiderInstance(d=True, users=(), facilities=None, r=1)),
        (MalformedInstanceError, lambda: SpiderInstance(d=1, users=(), facilities=None, r=True)),
        (MalformedInstanceError, lambda: scale_instance(_ONE_USER, True)),
        (NotAPartition, lambda: validate_clustering(_ONE_USER, Solution(((False,),), 0))),
        (MissingFacility, lambda: validate_gathering(_ONE_USER, Solution(((0,),), 0, (False,)))),
    ],
    ids=["d", "r", "scale factor", "cluster index", "facility index"],
)
def test_booleans_are_not_ints(error, call):
    with pytest.raises(error):
        call()


def test_instance_rejects_leg_out_of_range():
    with pytest.raises(MalformedInstanceError):
        SpiderInstance(d=2, users=(PointOnSpider(3, 1),), facilities=None, r=1)


def test_infeasible_orders_above_every_int():
    assert INFEASIBLE == math.inf
    assert max(10**9, INFEASIBLE) is INFEASIBLE
    assert min(0, INFEASIBLE) == 0


def test_normalize_sorts_users_and_compacts_legs():
    inst = SpiderInstance(
        d=3,
        users=(PointOnSpider(2, 5), PointOnSpider(1, 3), PointOnSpider(2, 1)),
        facilities=None,
        r=1,
    )
    norm = normalize(inst)
    assert norm.user_order == (2, 1, 0)
    assert norm.instance.d == 2
    assert norm.instance.users == (
        PointOnSpider(2, 1),
        PointOnSpider(1, 3),
        PointOnSpider(2, 5),
    )


def test_normalize_keeps_facility_only_legs_after_user_legs():
    inst = SpiderInstance(
        d=3,
        users=(PointOnSpider(3, 2),),
        facilities=(PointOnSpider(1, 4),),
        r=1,
    )
    norm = normalize(inst)
    assert norm.instance.users == (PointOnSpider(1, 2),)
    assert norm.instance.facilities == (PointOnSpider(2, 4),)

    inst = SpiderInstance(
        d=3,
        users=(PointOnSpider(2, 2),),
        facilities=(PointOnSpider(3, 4), PointOnSpider(1, 4)),
        r=1,
    )
    norm = normalize(inst)
    assert norm.instance.users == (PointOnSpider(1, 2),)
    assert norm.instance.facilities == (PointOnSpider(2, 4), PointOnSpider(3, 4))


@given(spider_instances(with_facilities=True))
# Facilities tied on x, one on a facility-only leg: their order must follow the
# normalized leg, not the original one.
@example(
    SpiderInstance(
        d=2,
        users=(PointOnSpider(2, 0),),
        facilities=(PointOnSpider(1, 0), PointOnSpider(2, 0)),
        r=1,
    )
)
# Facility-only legs listed out of x order: their numbering must not depend on
# the input order of the facilities.
@example(
    SpiderInstance(
        d=3,
        users=(PointOnSpider(1, 0),),
        facilities=(PointOnSpider(2, 1), PointOnSpider(3, 0)),
        r=1,
    )
)
def test_normalize_is_idempotent(inst):
    once = normalize(inst).instance
    twice = normalize(once).instance
    assert once == twice


@given(spider_instances())
def test_normalize_preserves_pairwise_distances(inst):
    norm = normalize(inst)
    # user_order is a permutation, so every pair of original users is checked.
    assert sorted(norm.user_order) == list(range(len(inst.users)))
    for a, orig_a in enumerate(norm.user_order):
        for b, orig_b in enumerate(norm.user_order):
            original = distance(inst.users[orig_a], inst.users[orig_b])
            mapped = distance(norm.instance.users[a], norm.instance.users[b])
            assert original == mapped


def test_validate_clustering_recomputes_value():
    inst = SpiderInstance(
        d=2,
        users=(
            PointOnSpider(1, 1),
            PointOnSpider(2, 1),
            PointOnSpider(2, 10),
            PointOnSpider(2, 11),
        ),
        facilities=None,
        r=2,
    )
    sol = Solution(clusters=((0, 1), (2, 3)), value=2)
    assert validate_clustering(inst, sol) == 2


def test_validate_clustering_rejects_wrong_value():
    inst = SpiderInstance(
        d=1, users=(PointOnSpider(1, 0), PointOnSpider(1, 4)), facilities=None, r=2
    )
    with pytest.raises(ValueMismatch):
        validate_clustering(inst, Solution(clusters=((0, 1),), value=3))


def test_validate_clustering_rejects_small_cluster():
    inst = SpiderInstance(
        d=1, users=(PointOnSpider(1, 0), PointOnSpider(1, 4)), facilities=None, r=2
    )
    with pytest.raises(SizeViolation):
        validate_clustering(inst, Solution(clusters=((0,), (1,)), value=0))


def test_validate_clustering_rejects_non_partition():
    inst = SpiderInstance(
        d=1, users=(PointOnSpider(1, 0), PointOnSpider(1, 4)), facilities=None, r=1
    )
    with pytest.raises(NotAPartition):
        validate_clustering(inst, Solution(clusters=((0, 0),), value=0))
    with pytest.raises(NotAPartition):
        validate_clustering(inst, Solution(clusters=((0,),), value=0))


def test_validate_gathering_uses_chosen_facility():
    inst = SpiderInstance(
        d=2,
        users=(
            PointOnSpider(1, 2),
            PointOnSpider(1, 4),
            PointOnSpider(2, 2),
            PointOnSpider(2, 4),
        ),
        facilities=(PointOnSpider(1, 3), PointOnSpider(2, 3)),
        r=2,
    )
    sol = Solution(clusters=((0, 1), (2, 3)), value=1, facility_of=(0, 1))
    assert validate_gathering(inst, sol) == 1
    worse = Solution(clusters=((0, 1), (2, 3)), value=7, facility_of=(1, 0))
    assert validate_gathering(inst, worse) == 7


@given(spider_instances(), st.integers(min_value=1, max_value=5))
def test_scaling_scales_every_distance(inst, factor):
    scaled = scale_instance(inst, factor)
    for a in range(len(inst.users)):
        for b in range(len(inst.users)):
            assert distance(scaled.users[a], scaled.users[b]) == factor * distance(
                inst.users[a], inst.users[b]
            )
