from __future__ import annotations

from hypothesis import settings, strategies as st

from spidergather import PointOnSpider, SpiderInstance

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def points(max_leg: int, max_x: int):
    return st.builds(
        PointOnSpider,
        st.integers(min_value=1, max_value=max_leg),
        st.integers(min_value=0, max_value=max_x),
    )


@st.composite
def spider_instances(
    draw,
    *,
    max_legs: int = 4,
    max_users: int = 9,
    max_x: int = 60,
    with_facilities: bool = False,
    max_facilities: int = 4,
    max_r: int = 3,
):
    d = draw(st.integers(min_value=1, max_value=max_legs))
    users = draw(points(d, max_x).flatmap(
        lambda first: st.lists(points(d, max_x), max_size=max_users - 1).map(
            lambda rest: (first, *rest)
        )
    ))
    facilities = None
    if with_facilities:
        facilities = tuple(
            draw(st.lists(points(d, max_x), min_size=1, max_size=max_facilities))
        )
    r = draw(st.integers(min_value=1, max_value=max_r))
    return SpiderInstance(d=d, users=users, facilities=facilities, r=r)


@st.composite
def repeated_leg_spiders(draw, *, max_users: int = 10, max_x: int = 20, max_r: int = 4):
    """Spiders built from 1-3 classes of 1-4 identical legs, legs shuffled.

    Every leg of a class holds users, and facilities, at the class's
    coordinates. A spider without any facility gets one on leg 1, which may
    split leg 1 off its class.
    """
    coords = st.lists(st.integers(min_value=0, max_value=max_x), min_size=1, max_size=3)
    shapes = draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), coords, st.lists(
            st.integers(min_value=0, max_value=max_x), max_size=2)),
        min_size=1, max_size=3,
    ).filter(lambda shapes: sum(m * len(xs) for m, xs, _ in shapes) <= max_users))
    legs = [(xs, fs) for m, xs, fs in shapes for _ in range(m)]
    order = draw(st.permutations(range(len(legs))))
    users, facilities = [], []
    for leg, at in enumerate(order, start=1):
        xs, fs = legs[at]
        users += [PointOnSpider(leg, x) for x in xs]
        facilities += [PointOnSpider(leg, x) for x in fs]
    if not facilities:
        facilities.append(PointOnSpider(1, draw(st.integers(min_value=0, max_value=max_x))))
    r = draw(st.integers(min_value=1, max_value=max_r))
    return SpiderInstance(d=len(legs), users=tuple(users), facilities=tuple(facilities), r=r)
