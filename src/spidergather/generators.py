"""Seeded random instances for the gen and bench commands and the tests."""

from __future__ import annotations

import random

from .model import MalformedInstanceError, PointOnSpider, SpiderInstance
from .reductions import ArrearsInstance, CnfFormula


def gen_spider(
    rng: random.Random,
    *,
    users: int,
    legs: int,
    r: int,
    coord_bound: int = 100,
    facilities: int = 0,
) -> SpiderInstance:
    """A random instance: uniform leg choice, coordinates in [0, coord_bound]."""
    if users < 1 or legs < 1 or r < 1 or coord_bound < 0 or facilities < 0:
        raise MalformedInstanceError("generator sizes must be positive")
    user_points = tuple(
        PointOnSpider(rng.randint(1, legs), rng.randint(0, coord_bound))
        for _ in range(users)
    )
    facility_points = None
    if facilities:
        facility_points = tuple(
            PointOnSpider(rng.randint(1, legs), rng.randint(0, coord_bound))
            for _ in range(facilities)
        )
    return SpiderInstance(d=legs, users=user_points, facilities=facility_points, r=r)


def gen_arrears(
    rng: random.Random,
    *,
    duties: int,
    budgets: int,
    max_options: int = 2,
    max_day: int = 8,
    max_amount: int = 8,
) -> ArrearsInstance:
    """A random instance with strictly increasing dates, amounts, days, limits."""
    if duties < 0 or budgets < 0 or max_options < 1:
        raise MalformedInstanceError("generator sizes must be non-negative")
    if max_day < max(max_options, budgets) or max_amount < max_options:
        raise MalformedInstanceError("day and amount bounds too small for the sizes")
    if budgets > duties * max_amount + 1:  # distinct limits in 0..duties * max_amount
        raise MalformedInstanceError("more budgets than limits up to duties * max_amount")
    duty_list = []
    for _ in range(duties):
        count = rng.randint(1, max_options)
        dates = sorted(rng.sample(range(1, max_day + 1), count))
        amounts = sorted(rng.sample(range(1, max_amount + 1), count))
        duty_list.append(tuple(zip(dates, amounts)))
    days = sorted(rng.sample(range(1, max_day + 1), budgets))
    limits = sorted(rng.sample(range(0, duties * max_amount + 1), budgets))
    return ArrearsInstance(
        duties=tuple(duty_list), budgets=tuple(zip(days, limits))
    )


def gen_sat(rng: random.Random, *, num_vars: int, num_clauses: int) -> CnfFormula:
    """A random formula: three distinct variables per clause, random signs."""
    if num_vars < 3 or num_clauses < 0:
        raise MalformedInstanceError("need at least 3 variables and 0 clauses")
    clauses = []
    for _ in range(num_clauses):
        picked = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v * rng.choice((1, -1)) for v in picked))
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def bench_instance(
    seed: int, d: int, *, users_per_leg: int, r: int, coord_bound: int
) -> SpiderInstance:
    """The bench command's workload: every leg carries exactly users_per_leg users."""
    rng = random.Random(seed * 1_000_003 + d)
    users = tuple(
        PointOnSpider(leg, rng.randint(0, coord_bound))
        for leg in range(1, d + 1)
        for _ in range(users_per_leg)
    )
    return SpiderInstance(d=d, users=users, facilities=None, r=r)
