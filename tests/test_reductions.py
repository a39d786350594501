from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from spidergather import (
    scale_instance,
    ArrearsInstance,
    CLUSTERING,
    CnfFormula,
    INFEASIBLE,
    MalformedInstanceError,
    PointOnSpider,
    ReductionTooLarge,
    SpiderInstance,
    arrears_to_spider,
    assignment_to_choice,
    brute_arrears,
    check_arrears,
    clustering_to_gathering,
    normalize_arrears,
    sat_to_arrears,
    satisfies_one_in_three,
    solve,
    validate_clustering,
    verify_gadget,
)
from spidergather.fpt_solver import run_dp
from spidergather.generators import gen_arrears

RUNNING_EXAMPLE = ArrearsInstance(
    duties=(((1, 1), (2, 2)),),
    budgets=((1, 0), (2, 2)),
)


def test_check_arrears_feasible_choice():
    verdict = check_arrears(RUNNING_EXAMPLE, (2,))
    assert verdict.feasible
    assert verdict.violated_budget is None


def test_check_arrears_reports_first_violated_budget():
    verdict = check_arrears(RUNNING_EXAMPLE, (1,))
    assert not verdict.feasible
    assert verdict.violated_budget == 1
    assert verdict.load == 1
    assert verdict.limit == 0


def test_check_arrears_empty_budgets_always_feasible():
    inst = ArrearsInstance(duties=(((3, 5),),), budgets=())
    assert check_arrears(inst, (1,)).feasible


def test_check_arrears_rejects_bad_choice_vectors():
    with pytest.raises(IndexError):
        check_arrears(RUNNING_EXAMPLE, ())
    with pytest.raises(IndexError):
        check_arrears(RUNNING_EXAMPLE, (3,))
    with pytest.raises(IndexError):
        check_arrears(RUNNING_EXAMPLE, (0,))


# A bool is an int to Python, but no amount, day, choice or literal takes one.
# Each is refused with the error that an out-of-range int raises there.
@pytest.mark.parametrize(
    "error, call",
    [
        (MalformedInstanceError, lambda: ArrearsInstance(duties=(((1, True),),), budgets=())),
        (MalformedInstanceError, lambda: ArrearsInstance(duties=(), budgets=((1, False),))),
        (IndexError, lambda: check_arrears(RUNNING_EXAMPLE, (True,))),
        (MalformedInstanceError, lambda: CnfFormula(num_vars=True, clauses=())),
        (MalformedInstanceError, lambda: CnfFormula(num_vars=1, clauses=((True, 1, 1),))),
    ],
    ids=["amount", "budget limit", "choice", "num_vars", "literal"],
)
def test_booleans_are_not_ints(error, call):
    with pytest.raises(error):
        call()


def test_normalize_drops_dominated_options():
    inst = ArrearsInstance(
        duties=(((1, 5), (2, 3), (3, 4)),),
        budgets=((3, 9),),
    )
    norm = normalize_arrears(inst)
    # Paying 5 on day 1 is never better than paying 3 on day 2;amounts of
    # the survivors strictly increase.
    assert norm.duties == (((2, 3), (3, 4)),)


def test_normalize_drops_free_duties():
    inst = ArrearsInstance(
        duties=(((2, 2), (4, 4)), ((4, 3),)),
        budgets=((2, 2), (3, 3)),
    )
    norm = normalize_arrears(inst)
    # Both duties own an option dated after the last budget day, so both can
    # always be settled for free and vanish.
    assert norm.duties == ()
    assert norm.budgets == ((2, 2), (3, 3))


def test_normalize_drops_slack_budgets():
    inst = ArrearsInstance(
        duties=(((1, 1),),),
        budgets=((1, 5), (2, 5), (3, 7)),
    )
    norm = normalize_arrears(inst)
    # Day 2 with the same limit implies day 1: cumulative loads only grow.
    assert norm.budgets == ((2, 5), (3, 7))


@st.composite
def arrears_instances(draw):
    duty_count = draw(st.integers(min_value=0, max_value=3))
    duties = []
    for _ in range(duty_count):
        count = draw(st.integers(min_value=1, max_value=2))
        dates = sorted(draw(st.sets(st.integers(1, 6), min_size=count, max_size=count)))
        amounts = sorted(draw(st.sets(st.integers(1, 4), min_size=count, max_size=count)))
        duties.append(tuple(zip(dates, amounts)))
    budget_count = draw(st.integers(min_value=0, max_value=2))
    days = sorted(draw(st.sets(st.integers(1, 6), min_size=budget_count, max_size=budget_count)))
    limits = sorted(draw(st.sets(st.integers(0, 9), min_size=budget_count, max_size=budget_count)))
    return ArrearsInstance(duties=tuple(duties), budgets=tuple(zip(days, limits)))


@given(arrears_instances())
def test_normalize_preserves_feasibility(inst):
    raw = brute_arrears(inst) is not None
    cooked = brute_arrears(normalize_arrears(inst)) is not None
    assert raw == cooked


def test_arrears_to_spider_frozen_example():
    reduction = arrears_to_spider(RUNNING_EXAMPLE)
    assert reduction.threshold == 6
    inst = reduction.instance
    assert inst.r == 3
    assert inst.d == 6
    assert len(inst.users) == 10
    assert sorted((u.leg, u.x) for u in inst.users) == [
        (1, 4),
        (1, 5),
        (1, 11),
        (1, 11),
        (1, 11),
        (2, 2),
        (3, 2),
        (4, 3),
        (5, 3),
        (6, 3),
    ]
    assert reduction.duty_legs == (1,)


def test_arrears_to_spider_empty_budgets_builds_only_legs():
    inst = ArrearsInstance(duties=(((1, 1), (2, 2)),), budgets=())
    reduction = arrears_to_spider(inst)
    # L = 3, r = 3: the long leg and the r fallback short legs, no budget legs.
    assert reduction.threshold == 2 * 3
    assert len(reduction.instance.users) == 2 * 3 - 1 + 3
    assert reduction.instance.d == 4


def test_arrears_to_spider_ceiling_trips():
    inst = ArrearsInstance(duties=(((1, 1),),), budgets=((2, 50),))
    with pytest.raises(ReductionTooLarge):
        arrears_to_spider(inst, user_ceiling=10)


@given(arrears_instances())
@settings(max_examples=40)
def test_reduction_mirrors_feasibility(inst):
    feasible = brute_arrears(inst) is not None
    reduction = arrears_to_spider(normalize_arrears(inst))
    value = run_dp(reduction.instance, CLUSTERING, want_solution=False).value
    assert feasible == (value is not INFEASIBLE and value <= reduction.threshold)


@given(arrears_instances())
@settings(max_examples=25)
def test_no_cluster_mixes_two_long_legs(inst):
    reduction = arrears_to_spider(normalize_arrears(inst))
    solution = solve(reduction.instance, CLUSTERING)
    if solution is None or solution.value > reduction.threshold:
        return
    long_legs = set(reduction.duty_legs)
    for cluster in solution.clusters:
        touched = {
            reduction.instance.users[i].leg
            for i in cluster
            if reduction.instance.users[i].leg in long_legs
        }
        assert len(touched) <= 1


ONE_CLAUSE = CnfFormula(num_vars=3, clauses=((1, 2, 3),))


def test_gadget_sizes_for_the_smallest_formula():
    arrears, report = sat_to_arrears(ONE_CLAUSE)
    assert report.base == 900
    assert len(arrears.duties) == 60
    assert report.per_variable_items == (20, 20, 20)
    assert len(arrears.budgets) == 3 + 1 + 2


def test_gadget_identities_hold():
    _, report = sat_to_arrears(ONE_CLAUSE)
    results = dict(verify_gadget(report))
    assert results, "no checks ran"
    assert all(results.values()), results


def test_gadget_identities_hold_for_a_two_clause_formula():
    formula = CnfFormula(num_vars=4, clauses=((1, -2, 3), (-1, 2, 4)))
    _, report = sat_to_arrears(formula)
    results = dict(verify_gadget(report))
    assert all(results.values()), results


def test_canonical_choice_tracks_satisfaction():
    arrears, report = sat_to_arrears(ONE_CLAUSE)
    one_true = (True, False, False)
    two_true = (True, True, False)
    assert satisfies_one_in_three(ONE_CLAUSE, one_true)
    assert not satisfies_one_in_three(ONE_CLAUSE, two_true)
    assert check_arrears(arrears, assignment_to_choice(ONE_CLAUSE, one_true)).feasible
    assert not check_arrears(arrears, assignment_to_choice(ONE_CLAUSE, two_true)).feasible


def test_flipping_a_variable_flips_exactly_its_duties():
    formula = CnfFormula(num_vars=3, clauses=((1, 2, -3),))
    base = assignment_to_choice(formula, (True, True, True))
    flipped = assignment_to_choice(formula, (True, False, True))
    _, report = sat_to_arrears(formula)
    per_variable = report.per_variable_items[1]
    changed = sum(1 for a, b in zip(base, flipped) if a != b)
    assert changed == per_variable == 20


def test_clustering_to_gathering_identity_on_an_example():
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
    reduced = clustering_to_gathering(inst)
    assert reduced.facilities is not None
    assert all(u.x == 2 * v.x for u, v in zip(reduced.users, inst.users))
    # Doubling makes every midpoint integral, so the best service radius in
    # the lifted instance equals the best diameter of the original one.
    clustering_value = run_dp(inst, CLUSTERING, want_solution=False).value
    gathering_value = run_dp(reduced, "gathering", want_solution=False).value
    assert clustering_value == 2
    assert gathering_value == clustering_value


@given(st.data())
@settings(max_examples=30)
def test_clustering_to_gathering_identity_random(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    d = rng.randint(1, 3)
    n = rng.randint(2, 7)
    users = tuple(
        PointOnSpider(rng.randint(1, d), rng.randint(0, 30)) for _ in range(n)
    )
    inst = SpiderInstance(d=d, users=users, facilities=None, r=rng.randint(1, 3))
    reduced = clustering_to_gathering(inst)
    base = run_dp(inst, CLUSTERING, want_solution=False).value
    lifted = run_dp(reduced, "gathering", want_solution=False).value
    doubled = run_dp(scale_instance(inst, 2), CLUSTERING, want_solution=False).value
    if base is INFEASIBLE:
        assert lifted is INFEASIBLE and doubled is INFEASIBLE
    else:
        assert lifted == base
        assert doubled == 2 * base


# A reduced spider of 43 legs at r = 20 whose legs fall into a few classes of
# identical one-user legs. Without the quotient by identical legs the sweep
# stores more than the default ceiling of 1,000,000 states; with it, 152,241.
# The verdict, optimum 17 above the threshold 16, matches brute_arrears.
def test_reduced_spider_past_the_unquotiented_ceiling_solves():
    arrears = normalize_arrears(gen_arrears(random.Random(13), duties=4, budgets=3, max_amount=5))
    reduction = arrears_to_spider(arrears)
    run = run_dp(reduction.instance, CLUSTERING)
    assert run.stats.states == 152_241 and run.stats.legs == 43
    assert (run.value, reduction.threshold) == (17, 16)
    assert brute_arrears(arrears) is None
    assert validate_clustering(reduction.instance, run.solution) == 17
