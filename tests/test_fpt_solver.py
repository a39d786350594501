from __future__ import annotations

import contextlib
import itertools
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from spidergather import (
    CLUSTERING,
    GATHERING,
    INFEASIBLE,
    PointOnSpider,
    SpiderInstance,
    brute_clustering,
    brute_gathering,
    distance,
    enumerate_suffix_special,
    scale_instance,
    solve,
    validate_clustering,
    validate_gathering,
)
from spidergather import fpt_solver
from spidergather.cost_oracle import FacilityIndex
from spidergather.fpt_solver import StateCeilingExceeded, prune, run_dp
from spidergather.generators import bench_instance
from spidergather.model import SizeGuard, normalize
from conftest import repeated_leg_spiders, spider_instances


def _line(coords, r, d=1, leg=1):
    return SpiderInstance(
        d=d, users=tuple(PointOnSpider(leg, x) for x in coords), facilities=None, r=r
    )


def test_prune_keeps_first_users_of_each_leg():
    inst = SpiderInstance(
        d=2,
        users=tuple(PointOnSpider(1, x) for x in range(8))
        + (PointOnSpider(2, 9),),
        facilities=None,
        r=2,
    )
    kept = prune(normalize(inst).instance)
    # Two user-bearing legs, r = 2: each leg keeps its (2r-1)*2 = 6 closest.
    assert kept == (0, 1, 2, 3, 4, 5, 8)


def test_prune_with_one_leg_keeps_two_r_minus_one():
    inst = _line(range(10), r=2)
    assert prune(normalize(inst).instance) == (0, 1, 2)


def test_solve_frozen_clustering_example():
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
    sol = solve(inst, CLUSTERING)
    assert sol is not None
    assert sol.value == 2
    assert sorted(sol.clusters) == [(0, 1), (2, 3)]
    assert validate_clustering(inst, sol) == 2


def test_solve_frozen_gathering_example():
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
    sol = solve(inst, GATHERING)
    assert sol is not None
    assert sol.value == 1
    assert sol.facility_of == (0, 1)
    assert validate_gathering(inst, sol) == 1


def test_solve_single_cluster_across_the_center():
    inst = SpiderInstance(
        d=3,
        users=(PointOnSpider(1, 2), PointOnSpider(2, 3), PointOnSpider(3, 4)),
        facilities=None,
        r=3,
    )
    sol = solve(inst, CLUSTERING)
    assert sol is not None
    assert sol.value == 7
    assert sol.clusters == ((0, 1, 2),)


def test_solve_infeasible_when_users_short():
    assert solve(_line([1, 2], r=3), CLUSTERING) is None


def test_solve_empty_instance_is_infeasible():
    assert solve(_line([], r=1), CLUSTERING) is None


# Every cluster holds at least r users, so r beyond the user count is
# infeasible before any table is built; the best-close windows alone are
# O(r^2), and at this r they would exhaust memory.
@pytest.mark.parametrize("kind", [CLUSTERING, GATHERING])
@pytest.mark.parametrize("want_solution", [False, True])
def test_r_beyond_the_user_count_is_infeasible_at_once(kind, want_solution):
    inst = SpiderInstance(
        d=2, users=(PointOnSpider(1, 3), PointOnSpider(2, 5)), facilities=(PointOnSpider(1, 4),),
        r=10**9,
    )
    run = run_dp(inst, kind, want_solution=want_solution)
    assert run.value == INFEASIBLE and run.solution is None


def test_gathering_without_reachable_facility_is_infeasible():
    inst = SpiderInstance(
        d=1, users=(PointOnSpider(1, 1),), facilities=(), r=1
    )
    assert solve(inst, GATHERING) is None


@given(spider_instances(max_legs=4, max_users=8, max_x=80))
def test_solve_matches_brute_clustering(inst):
    want = brute_clustering(inst)
    got = solve(inst, CLUSTERING)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.value == want.value
        assert validate_clustering(inst, got) == got.value


@given(spider_instances(max_legs=3, max_users=7, max_x=60, with_facilities=True))
def test_solve_matches_brute_gathering(inst):
    want = brute_gathering(inst)
    got = solve(inst, GATHERING)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.value == want.value
        assert validate_gathering(inst, got) == got.value


@given(spider_instances(max_legs=3, max_users=10, max_x=60))
def test_solve_matches_branch_and_bound_enumeration(inst):
    run = run_dp(inst, CLUSTERING, want_solution=False)
    assert enumerate_suffix_special(inst, CLUSTERING) == run.value


@given(spider_instances(max_legs=4, max_users=14, max_x=100))
def test_pruning_does_not_change_the_value(inst):
    pruned = run_dp(inst, CLUSTERING, use_pruning=True, want_solution=False)
    full = run_dp(inst, CLUSTERING, use_pruning=False, want_solution=False)
    assert pruned.value == full.value
    assert pruned.stats.swept_users <= full.stats.swept_users


@given(spider_instances(max_legs=3, max_users=8, max_x=50))
def test_value_is_monotone_in_r(inst):
    values = []
    for r in (1, 2, 3):
        variant = SpiderInstance(d=inst.d, users=inst.users, facilities=None, r=r)
        values.append(run_dp(variant, CLUSTERING, want_solution=False).value)
    assert values[0] <= values[1] <= values[2]


@given(spider_instances(max_legs=3, max_users=7, max_x=30), st.integers(2, 4))
def test_value_scales_with_coordinates(inst, factor):
    base = run_dp(inst, CLUSTERING, want_solution=False).value
    scaled = run_dp(scale_instance(inst, factor), CLUSTERING, want_solution=False).value
    if base is INFEASIBLE:
        assert scaled is INFEASIBLE
    else:
        assert scaled == factor * base


@given(spider_instances(max_legs=3, max_users=8, max_x=60))
def test_value_only_mode_agrees_and_skips_the_witness(inst):
    fast = run_dp(inst, CLUSTERING, want_solution=False)
    full = run_dp(inst, CLUSTERING, want_solution=True)
    assert fast.value == full.value
    assert fast.stats == full.stats
    assert fast.solution is None


@given(spider_instances(max_legs=3, max_users=8, max_x=60, with_facilities=True))
def test_value_only_gathering_agrees_and_skips_the_witness(inst):
    fast = run_dp(inst, GATHERING, want_solution=False)
    full = run_dp(inst, GATHERING, want_solution=True)
    assert fast.value == full.value
    assert fast.stats == full.stats
    assert fast.solution is None


# Stored states of the sweep on the bench workload, pinned so that a change to
# the closing step or to the layer bookkeeping cannot add or drop states. Each
# layer stores one entry per reachable (S, j) that can still close: no ball of
# 2r-1 users, and no open ball whose S holds no leg with a later swept user.
# So the final layer holds closed states only; it is read once for the
# optimum and nothing else is stored. At d=10, legs 1 and 5 each hold one user
# at x=73, so every group end up to x=73 keeps one key for each two keys that
# differ only in which of the two legs S holds: 1,464 states, against 2,019
# without that quotient.
@pytest.mark.parametrize(
    "d, users_per_leg, r, states",
    [(8, 1, 2, 451), (10, 1, 2, 1464), (12, 1, 2, 8978), (4, 10, 3, 1040), (6, 10, 3, 6060)],
)
@pytest.mark.parametrize("want_solution", [False, True])
def test_bench_state_counts_are_pinned(d, users_per_leg, r, states, want_solution):
    inst = bench_instance(0, d, users_per_leg=users_per_leg, r=r, coord_bound=100)
    run = run_dp(inst, CLUSTERING, want_solution=want_solution)
    assert run.stats.states == states


def _spider(legs_and_coords, r, facilities=None):
    users = tuple(PointOnSpider(leg, x) for leg, x in legs_and_coords)
    d = max(leg for leg, _ in (*legs_and_coords, *(facilities or ())))
    fac = None if facilities is None else tuple(PointOnSpider(leg, x) for leg, x in facilities)
    return SpiderInstance(d=d, users=users, facilities=fac, r=r)


# Instances whose optimum is the least value among the closed states of the
# final layer with several legs still active; nothing is added for the legs
# left active, since each has put all its users in balls. With one user per
# leg and r = 2 no leg can be finished single-leg, so every leg either gives a
# cluster its segment or stays active to the end with its users in a ball:
# four or five users make at most two clusters, and two or more legs are
# still active when the sweep ends. A leg with 1..r-1 users past prune's cut
# would have an INFEASIBLE single-leg tail, but it can never stay active: its
# swept users do not fit in the balls.
@pytest.mark.parametrize(
    "kind, inst",
    [
        # (a) several legs active at the end of the sweep
        (CLUSTERING, _spider(((1, 1), (2, 2), (3, 3), (4, 4)), r=2)),
        (CLUSTERING, _spider(((1, 1), (2, 2), (3, 3), (4, 5), (5, 9)), r=2)),
        # (b) an INFEASIBLE unswept tail: one user past the cut of 3 on a
        # line and of 6 on a spider of two legs, two past the cut of 5 at r = 3
        (CLUSTERING, _line([1, 2, 3, 10], r=2)),
        (CLUSTERING, _spider(((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 20), (2, 1)), r=2)),
        (CLUSTERING, _line([0, 1, 2, 4, 7, 20, 21], r=3)),
        # (c) gathering with several legs active at the end
        (GATHERING, _spider(((1, 2), (2, 3), (3, 4), (4, 6)), r=2, facilities=((1, 1), (3, 2)))),
        (GATHERING, _spider(((1, 1), (2, 2), (3, 2), (4, 5), (5, 7)), r=2, facilities=((2, 1), (5, 3)))),
    ],
)
@pytest.mark.parametrize("want_solution", [False, True])
def test_tail_step_matches_the_oracles(kind, inst, want_solution):
    if kind == CLUSTERING:
        want, validate = brute_clustering(inst), validate_clustering
    else:
        want, validate = brute_gathering(inst), validate_gathering
    assert want is not None
    run = run_dp(inst, kind, want_solution=want_solution)
    assert run.value == want.value == enumerate_suffix_special(inst, kind)
    if want_solution:
        assert validate(inst, run.solution) == run.value


# Instances on which two open balls with the same active legs S and the same
# size j, but different last users, reach the same layer; the sweep keeps one
# state for both. Storing open balls that cannot close as well, a key that
# also holds the last ball user stores 45, 94, 77 and 95 states here, and the
# shared key 42, 89, 74 and 93. In the second instance, after (2, 8) with only
# leg 1 active, the ball {(2, 3)} follows the cluster {(2, 0), (3, 4)} at
# value 4 and the ball {(2, 5)} follows the cluster {(2, 0), (2, 3), (3, 4)}
# at value 7; leg 2 is finished single-leg in both.
@pytest.mark.parametrize(
    "kind, inst, states",
    [
        (CLUSTERING, _spider(((1, 2), (1, 5), (2, 1), (3, 2), (3, 3), (3, 6)), r=2), 24),
        (CLUSTERING, _spider(((1, 12), (2, 0), (2, 3), (2, 5), (2, 8), (2, 9), (3, 4)), r=2), 55),
        (
            GATHERING,
            _spider(
                ((1, 1), (1, 5), (1, 9), (2, 3), (2, 4), (2, 9), (3, 1)),
                r=2,
                facilities=((2, 4), (1, 12)),
            ),
            42,
        ),
        (
            GATHERING,
            _spider(((1, 2), (1, 5), (1, 6), (2, 12), (3, 5), (3, 7), (3, 9)), r=2, facilities=((2, 9),)),
            60,
        ),
    ],
)
@pytest.mark.parametrize("want_solution", [False, True])
def test_open_balls_that_differ_only_in_last_user_share_a_state(kind, inst, states, want_solution):
    if kind == CLUSTERING:
        want, validate = brute_clustering(inst), validate_clustering
    else:
        want, validate = brute_gathering(inst), validate_gathering
    run = run_dp(inst, kind, want_solution=want_solution)
    assert run.value == want.value == enumerate_suffix_special(inst, kind)
    assert run.stats.states == states
    if want_solution:
        assert validate(inst, run.solution) == run.value


def test_stats_report_sweep_sizes():
    inst = _line(range(20), r=2)
    run = run_dp(inst, CLUSTERING, want_solution=False)
    assert run.stats.legs == 1
    assert run.stats.swept_users == 3
    assert run.stats.states > 0


# Open balls that can never close are not stored. The sweep takes (1, 0),
# (2, 5), (1, 7), then the rest of leg 2. A ball of all three first users has
# 2r-1 = 3 users and cannot take a segment user. An open ball whose S is
# {leg 1} after (1, 7), or empty, can neither grow nor close, because no leg
# in S has a user left to sweep. Storing both kinds gives 38 states here; the
# optimum is 7 either way, from {(1, 0), (1, 7)}, {(2, 5), (2, 8)} and
# {(2, 9), (2, 11)}. Both engines, forced, store the same 19.
@pytest.mark.parametrize("bitsets", [False, True], ids=["dict", "bitsets"])
@pytest.mark.parametrize("want_solution", [False, True])
def test_open_balls_that_cannot_close_are_not_stored(want_solution, bitsets):
    inst = _spider(((1, 0), (1, 7), (2, 5), (2, 8), (2, 9), (2, 11)), r=2)
    with mock.patch.object(fpt_solver, "_bitsets_pay", return_value=bitsets):
        run = run_dp(inst, CLUSTERING, want_solution=want_solution)
    assert run.value == 7 == brute_clustering(inst).value == enumerate_suffix_special(inst)
    assert run.stats.states == 19
    if want_solution:
        assert validate_clustering(inst, run.solution) == 7


def test_state_ceiling_stops_the_sweep():
    inst = bench_instance(0, 8, users_per_leg=1, r=2, coord_bound=100)
    assert run_dp(inst, CLUSTERING, want_solution=False, max_states=451).stats.states == 451
    with pytest.raises(StateCeilingExceeded) as raised:
        run_dp(inst, CLUSTERING, want_solution=False, max_states=450)
    assert isinstance(raised.value, SizeGuard)
    with pytest.raises(StateCeilingExceeded):
        solve(inst, CLUSTERING, max_states=10)


# The closes only add states, so a layer whose "b", "c" and "d" steps already
# pass the ceiling stops the sweep before its closes are costed. On this sweep
# the count is 425 after the seventh layer, and the last layer's "b", "c" and
# "d" steps bring it to 451; its closes add none.
def test_state_ceiling_stops_a_layer_before_its_closes(monkeypatch):
    inst = bench_instance(0, 8, users_per_leg=1, r=2, coord_bound=100)
    last = prune(normalize(inst).instance)[-1]
    costed = []
    close_costs = fpt_solver._close_costs

    def spy(prep, u_pos, leg0):
        costed.append(u_pos)
        return close_costs(prep, u_pos, leg0)

    monkeypatch.setattr(fpt_solver, "_close_costs", spy)
    with pytest.raises(StateCeilingExceeded, match="stored 451 states"):
        run_dp(inst, CLUSTERING, want_solution=False, max_states=450)
    assert costed and last not in costed


# "c" keeps every key of the previous layer without the swept user's leg, and
# the layer only grows from there, so the sweep counts those keys before it
# builds a layer. On this sweep 357 states are stored after the sixth layer,
# the seventh keeps 41 of them through "c", and its "b", "c" and "d" steps
# bring the count to 413. A ceiling of 397 stops the sweep at 398, before the
# seventh layer is built; counting the built layer would stop it at 413.
def test_state_ceiling_stops_before_a_layer_whose_kept_keys_pass_it():
    inst = bench_instance(0, 8, users_per_leg=1, r=2, coord_bound=100)
    with pytest.raises(StateCeilingExceeded, match="stored 398 states"):
        run_dp(inst, CLUSTERING, want_solution=False, max_states=397)
    with pytest.raises(StateCeilingExceeded, match="stored 413 states"):
        run_dp(inst, CLUSTERING, want_solution=False, max_states=398)


# Stopping sooner changes where a run stops, not which runs stop: a ceiling
# raises exactly when the whole sweep would store more states than it allows.
@pytest.mark.parametrize("want_solution", [False, True])
def test_state_ceiling_raises_exactly_when_the_sweep_passes_it(want_solution):
    inst = bench_instance(0, 6, users_per_leg=2, r=2, coord_bound=100)
    total = run_dp(inst, CLUSTERING, want_solution=want_solution).stats.states
    for max_states in range(total + 2):
        try:
            run = run_dp(inst, CLUSTERING, want_solution=want_solution, max_states=max_states)
        except StateCeilingExceeded:
            assert max_states < total
        else:
            assert max_states >= total and run.stats.states == total


def _outcome(inst, kind, want_solution, use_pruning, max_states):
    try:
        run = run_dp(
            inst, kind, want_solution=want_solution, use_pruning=use_pruning, max_states=max_states
        )
    except StateCeilingExceeded as exc:
        return str(exc)
    return run.value, run.stats


# A value-only run forced onto the bitset engine and a witness run on the dict
# DP store the same states, so they agree on the value, the stats and the
# message of every ceiling. A bitset pass that took "d" at an infinite r_minus
# (INFEASIBLE <= INFEASIBLE holds) would store 45 states on the first
# @example, where the dict DP stores 19. The other three pin the search's
# upper end, top, which retires every leg at its first swept user: the
# optimum equals top (36), lies below it (46 < 61), or top is infinite (57).
@given(
    spider_instances(max_legs=5, max_users=10, max_x=60, with_facilities=True),
    st.sampled_from([CLUSTERING, GATHERING]),
    st.booleans(),
)
@example(bench_instance(0, 4, users_per_leg=1, r=2, coord_bound=100), CLUSTERING, True)
@example(bench_instance(0, 2, users_per_leg=2, r=2, coord_bound=100), CLUSTERING, True)
@example(bench_instance(0, 3, users_per_leg=3, r=2, coord_bound=100), CLUSTERING, True)
@example(bench_instance(0, 2, users_per_leg=2, r=3, coord_bound=100), CLUSTERING, True)
def test_bitset_engine_agrees_with_the_dict_dp(inst, kind, use_pruning):
    full = _outcome(inst, kind, True, use_pruning, fpt_solver.DEFAULT_STATE_CEILING)
    for max_states in [fpt_solver.DEFAULT_STATE_CEILING, *range(full[1].states + 1)]:
        want = _outcome(inst, kind, True, use_pruning, max_states)
        with mock.patch.object(fpt_solver, "_bitsets_pay", return_value=True) as rule:
            assert _outcome(inst, kind, False, use_pruning, max_states) == want, max_states
        assert rule.called or inst.r > len(inst.users)  # else infeasible before any engine


# A witness run forced onto the bitset engine walks back through the layers of
# one pass bounded at the optimum, testing membership where the dict DP
# compares values. It agrees with the dict DP on the value, the stats and the
# message of every ceiling, and its witness validates at the value. The
# @examples are those of the value-only test above.
@given(
    spider_instances(max_legs=5, max_users=10, max_x=60, with_facilities=True),
    st.sampled_from([CLUSTERING, GATHERING]),
    st.booleans(),
)
@example(bench_instance(0, 4, users_per_leg=1, r=2, coord_bound=100), CLUSTERING, True)
@example(bench_instance(0, 2, users_per_leg=2, r=2, coord_bound=100), CLUSTERING, True)
@example(bench_instance(0, 3, users_per_leg=3, r=2, coord_bound=100), CLUSTERING, True)
@example(bench_instance(0, 2, users_per_leg=2, r=3, coord_bound=100), CLUSTERING, True)
def test_bitset_witness_run_agrees_with_the_dict_dp(inst, kind, use_pruning):
    validate = validate_gathering if kind == GATHERING else validate_clustering

    def outcome(bitsets, max_states):
        with mock.patch.object(fpt_solver, "_bitsets_pay", return_value=bitsets):
            try:
                run = run_dp(inst, kind, use_pruning=use_pruning, max_states=max_states)
            except StateCeilingExceeded as exc:
                return str(exc)
        if run.solution is not None:
            assert validate(inst, run.solution) == run.value
        return run.value, run.stats

    full = outcome(False, fpt_solver.DEFAULT_STATE_CEILING)
    for max_states in [fpt_solver.DEFAULT_STATE_CEILING, *range(full[1].states + 1)]:
        assert outcome(True, max_states) == outcome(False, max_states), max_states


# Legs 1 and 3 hold users at 3 and 8 and a facility at 6, legs 2 and 4 users
# at 3 and 5: two classes whose users tie at x=3, so that group end quotients
# both classes after a group swept on all four legs.
_TIED_CLASSES = _spider(
    ((1, 3), (1, 8), (2, 3), (2, 5), (3, 3), (3, 8), (4, 3), (4, 5)),
    r=2, facilities=((1, 6), (3, 6)),
)
# Legs 1 to 3 hold users at 1, 4 and 9, and leg 4 one at 2: inside the groups
# at x=1, 4 and 9 the sweep has taken the class's users on some legs and not
# yet on others, and each group end makes the keys symmetric again.
_CLASS_AT_SEVERAL_COORDINATES = _spider(
    ((1, 1), (1, 4), (1, 9), (2, 1), (2, 4), (2, 9), (3, 1), (3, 4), (3, 9), (4, 2)),
    r=3, facilities=((4, 3),),
)
# Legs 1 and 2 hold users at 2 and 6, with a facility at 3 on leg 1 and at 5 on
# leg 2: identical for clustering, two different legs for gathering.
_EQUAL_USERS_OTHER_FACILITIES = _spider(
    ((1, 2), (1, 6), (2, 2), (2, 6), (3, 4)), r=2, facilities=((1, 3), (2, 5)),
)


@pytest.mark.parametrize(
    "inst, kind, classes",
    [
        (_TIED_CLASSES, CLUSTERING, ((0, 2), (1, 3))),
        (_TIED_CLASSES, GATHERING, ((0, 2), (1, 3))),
        (_CLASS_AT_SEVERAL_COORDINATES, GATHERING, ((0, 1, 2),)),
        (_EQUAL_USERS_OTHER_FACILITIES, CLUSTERING, ((0, 1),)),
        (_EQUAL_USERS_OTHER_FACILITIES, GATHERING, ()),
    ],
)
def test_identical_legs_form_classes(inst, kind, classes):
    assert fpt_solver._prepare(normalize(inst).instance, kind).classes == classes


# The DP keeps one key for the keys that differ only in which legs of a class
# of identical legs S holds. Its value equals the oracles' on spiders built
# from such classes. Forced onto either engine, value-only or with a witness,
# it stores the same states and gives the same message at every ceiling, and
# each witness, whose steps after a group end may stand for other legs of a
# class, validates at the value.
@given(repeated_leg_spiders(), st.sampled_from([CLUSTERING, GATHERING]), st.booleans())
@example(_TIED_CLASSES, CLUSTERING, True)
@example(_TIED_CLASSES, GATHERING, False)
@example(_CLASS_AT_SEVERAL_COORDINATES, CLUSTERING, True)
@example(_CLASS_AT_SEVERAL_COORDINATES, GATHERING, False)
@example(_EQUAL_USERS_OTHER_FACILITIES, GATHERING, True)
def test_quotient_by_identical_legs_is_exact(inst, kind, use_pruning):
    brute, validate = (
        (brute_clustering, validate_clustering) if kind == CLUSTERING
        else (brute_gathering, validate_gathering)
    )
    if len(inst.users) <= 8:
        want = brute(inst)
        want = INFEASIBLE if want is None else want.value
    else:
        want = enumerate_suffix_special(inst, kind)

    def outcome(bitsets, want_solution, max_states):
        with mock.patch.object(fpt_solver, "_bitsets_pay", return_value=bitsets):
            try:
                run = run_dp(inst, kind, use_pruning=use_pruning, want_solution=want_solution,
                             max_states=max_states)
            except StateCeilingExceeded as exc:
                return str(exc)
        if run.solution is not None:
            assert validate(inst, run.solution) == run.value
        return run.value, run.stats

    full = outcome(False, True, fpt_solver.DEFAULT_STATE_CEILING)
    assert full[0] == want
    for max_states in [fpt_solver.DEFAULT_STATE_CEILING, *range(full[1].states + 1)]:
        outcomes = {outcome(bitsets, w, max_states) for bitsets in (False, True) for w in (False, True)}
        assert len(outcomes) == 1, (max_states, outcomes)


# The walk-back may cross a group end through any key of the orbit that the
# layer below reaches; it tries the canonical key first, which has sufficed on
# every instance tried. With the orbit's order reversed it takes other keys,
# and the steps after them stand for the same ranks on other legs of the
# class. Legs 1, 2 and 4 hold a user at 9 and facilities at 10 and 11.
@pytest.mark.parametrize("bitsets", [False, True], ids=["dict", "bitsets"])
@pytest.mark.parametrize("kind", [CLUSTERING, GATHERING])
def test_walk_back_through_another_key_of_the_orbit(monkeypatch, bitsets, kind):
    inst = _spider(
        ((1, 9), (2, 9), (3, 11), (4, 9)),
        r=2, facilities=((1, 10), (1, 11), (2, 10), (2, 11), (3, 6), (4, 10), (4, 11)),
    )
    validate = validate_gathering if kind == GATHERING else validate_clustering
    want = run_dp(inst, kind)
    orbit, walk, moved = fpt_solver._orbit, fpt_solver._walk, []

    def spy(*args):
        steps, moves = walk(*args)
        moved.extend(moves)
        return steps, moves

    monkeypatch.setattr(fpt_solver, "_orbit", lambda *args: list(orbit(*args))[::-1])
    monkeypatch.setattr(fpt_solver, "_walk", spy)
    monkeypatch.setattr(fpt_solver, "_bitsets_pay", lambda *args: bitsets)
    run = run_dp(inst, kind)
    assert moved and run.value == want.value and run.stats == want.stats
    assert validate(inst, run.solution) == run.value


def _traced_witness_run(monkeypatch, inst, kind):
    """A witness run forced onto bitsets, with the dict DP's run for reference.

    Returns (dict DP run, bitset run, [bound, final layer] of each bitset pass
    in order, the last layer of each layer list _walk got). Passes are counted
    by profiling the engine's pass function.
    """
    passes, walked = [], []
    walk = fpt_solver._walk

    def profile(frame, event, arg):
        if frame.f_code.co_name == "sweep_at":
            if event == "call":
                passes.append([frame.f_locals["bound"], None])
            elif event == "return":
                passes[-1][1] = arg[0]

    def spy(prep, sweep, layers, *args):
        walked.append(layers[-1])
        return walk(prep, sweep, layers, *args)

    monkeypatch.setattr(fpt_solver, "_walk", spy)
    with mock.patch.object(fpt_solver, "_bitsets_pay", return_value=False):
        want = run_dp(inst, kind)
    monkeypatch.setattr(fpt_solver, "_bitsets_pay", lambda *args: True)
    sys.setprofile(profile)
    try:
        run = run_dp(inst, kind)
    finally:
        sys.setprofile(None)
    assert run.stats == want.stats
    assert passes[0][0] == INFEASIBLE and passes[0][1]
    return want, run, passes, walked


# A witness run on bitsets walks back through the layers of the last feasible
# search pass, which ran at the optimum T, so no pass follows the search and
# exactly one pass runs at T. Every probe lies below a finite top. When the
# probe just below top fails, top is the optimum and no search pass was
# feasible: the counting pass, the probe and one pass at top run.
@pytest.mark.parametrize(
    "d, per_leg, r, value, top",
    [(2, 2, 2, 36, 36), (3, 3, 2, 46, 61), (2, 2, 3, 57, INFEASIBLE)],
)
def test_bitset_witness_run_keeps_the_last_feasible_pass(monkeypatch, d, per_leg, r, value, top):
    inst = bench_instance(0, d, users_per_leg=per_leg, r=r, coord_bound=100)
    want, run, passes, walked = _traced_witness_run(monkeypatch, inst, CLUSTERING)
    assert run.value == want.value == value
    assert validate_clustering(inst, run.solution) == value
    at_value = [final for bound, final in passes if bound == value]
    assert len(at_value) == 1 and at_value[0] and walked[-1] is at_value[0]
    assert [bound for bound, final in passes if final][-1] == value
    probes = passes[1:-1] if value == top else passes[1:]
    assert all(bound < top for bound, _ in probes)
    if value == top:
        assert len(passes) == 3 and not passes[1][1]


# No gathering solution costs less than its largest nearest-facility
# distance, since each user is at most the value from its cluster's facility.
@given(spider_instances(max_legs=3, max_users=7, max_x=60, with_facilities=True))
def test_nearest_facility_bound_is_at_most_the_gathering_optimum(inst):
    index = FacilityIndex(inst.facilities)
    bound = max(index.close_cost(-u.x, u.leg, u.x) for u in inst.users)
    solution = brute_gathering(inst)
    assert solution is None or bound <= solution.value


# A gathering search on bitsets starts at that bound, low: its first probe is
# the first candidate at or above it, below top, which bounds it from above.
# When low is the optimum, that probe is the only search pass and the walk
# goes through its layers. When low lies below the optimum, the probe fails
# and the search still ends at the optimum.
@pytest.mark.parametrize(
    "seed, facilities, low, value, top",
    [
        (0, ((2, 5), (2, 65), (2, 51), (2, 61)), 29, 29, 40),
        (13, ((2, 87), (1, 83), (1, 85), (1, 28)), 49, 66, 82),
    ],
)
def test_bitset_gathering_search_starts_at_the_nearest_facility_bound(
    monkeypatch, seed, facilities, low, value, top
):
    users = bench_instance(seed, 2, users_per_leg=3, r=2, coord_bound=100).users
    inst = _spider([(u.leg, u.x) for u in users], r=2, facilities=facilities)
    assert max(min(distance(u, f) for f in inst.facilities) for u in users) == low
    prep = fpt_solver._prepare(normalize(inst).instance, GATHERING)
    assert max(prep.r_minus(members[0]) for members in prep.leg_members) == top
    want, run, passes, walked = _traced_witness_run(monkeypatch, inst, GATHERING)
    assert run.value == want.value == value
    assert validate_gathering(inst, run.solution) == value
    assert passes[1][0] == low < top
    if low == value:
        assert len(passes) == 2 and walked[-1] is passes[1][1]
    else:
        assert not passes[1][1]
        assert passes[-1][0] == value and walked[-1] is passes[-1][1]


# The engine rule on shapes timed on both engines, value-only, bitset time
# over dict DP time: r=2 with one user per leg from the first to the last row
# of bench's default table (0.84 and 0.30), r=3 with ten (0.11), and shapes
# whose sparse layers make bitsets slower, r=3 and r=5 with one user per leg
# (1.20 and 3.78), r=5 with two (0.91 to 1.28).
@pytest.mark.parametrize(
    "d, per_leg, r, bitsets",
    [(8, 1, 2, True), (14, 1, 2, True), (10, 10, 3, True),
     (10, 1, 3, False), (12, 1, 5, False), (10, 2, 5, False)],
)
def test_engine_rule_on_timed_shapes(monkeypatch, d, per_leg, r, bitsets):
    calls = []
    bitset_value = fpt_solver._bitset_value
    monkeypatch.setattr(
        fpt_solver, "_bitset_value", lambda *args: calls.append(1) or bitset_value(*args)
    )
    inst = bench_instance(0, d, users_per_leg=per_leg, r=r, coord_bound=100)
    run_dp(inst, CLUSTERING, want_solution=False)
    assert bool(calls) == bitsets
    calls.clear()
    run_dp(inst, CLUSTERING)  # a witness run takes the same engine
    assert bool(calls) == bitsets


# Each close row is the least close cost over its ball size's window of
# segment sizes. Checked against the direct per-j minimum over the admissible
# p, r-j <= p <= 2r-1-j, for every r up to 8 and every list length the sweep
# can build, on cost lists that mix feasible and INFEASIBLE entries: every
# list over three values up to length 6, and rotations of a mixed list beyond.
# u is the user at x=1 on leg 1. Legs 2 and 3 close with a list and its
# reverse, so each row must order them by cost. No row lists leg 1 (u's own,
# with a user beyond u), leg 4 (its only user lies before u) or leg 5 (holds
# refuses it).
@pytest.mark.parametrize("r", range(1, 9))
def test_close_windows_give_the_per_size_minimum(monkeypatch, r):
    cap = 2 * r - 1
    inst = _spider(((4, 0), (1, 1), (2, 2), (3, 2), (5, 2), (1, 3)), r=r)
    prep = fpt_solver._prepare(normalize(inst).instance, CLUSTERING)
    u_pos, refused = 1, cap << 4
    by_leg = {}
    monkeypatch.setattr(fpt_solver, "_close_costs", lambda prep, u_pos, leg0: by_leg[leg0])
    pool = (3, 1, INFEASIBLE, 2, INFEASIBLE, 0, 5)
    for length in range(1, cap):
        lists = [
            [pool[(start + i * step) % len(pool)] for i in range(length)]
            for start in range(len(pool))
            for step in (1, 2, 3)
        ]
        lists += [[INFEASIBLE] * length, [7] * length]
        if length <= 6:
            lists += [list(costs) for costs in itertools.product((0, 1, INFEASIBLE), repeat=length)]
        for costs in lists:
            by_leg.update(dict.fromkeys(range(5), costs))
            by_leg[2] = costs[::-1]
            rows = fpt_solver._close_rows(
                prep, u_pos, range(1, cap), lambda l_s: l_s != refused, cap
            )
            got = {}
            for j, row in rows:
                assert row and row == sorted(row), (r, costs, j)
                assert j not in got
                got[j] = {l_s: c for c, l_s in row}
                assert got[j].keys() <= {cap << 1, cap << 2}, (r, costs, j)
            for j in range(1, cap):
                for leg0 in (1, 2):
                    want = min(by_leg[leg0][max(r - j, 1) - 1 : cap - j], default=INFEASIBLE)
                    assert got.get(j, {}).get(cap << leg0, INFEASIBLE) == want, (r, costs, j)


# r = n = 600 on 3 legs, user i at x = i // 3 on leg 1 + i % 3, which the
# engine rule sends to the dict DP. Its layers hold one or two states, so a run
# that builds close rows only for the grown balls' sizes and legs stays small;
# a table over every (size, window) pair would grow with r^2.
@pytest.mark.parametrize("want_solution", [False, True])
def test_dict_dp_at_r_equal_to_n_stays_small(want_solution):
    inst = _spider([(1 + i % 3, i // 3) for i in range(600)], r=600)
    assert not fpt_solver._bitsets_pay(600, 3, 600)
    tracemalloc.start()
    try:
        run = run_dp(inst, CLUSTERING, want_solution=want_solution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.value == 398 and run.stats.states == 602
    assert peak < 5 * 2**20
    if want_solution:
        assert validate_clustering(inst, run.solution) == 398


# A value-only run holds two value layers and releases the previous one before
# the closes grow the current one; a witness run on the dict DP keeps every
# layer. Holding the previous layer through the closes reads about 0.49 of the
# witness run's peak here, and keeping every layer about 1.
def test_value_only_run_releases_the_previous_layer_before_closing():
    inst = bench_instance(0, 12, users_per_leg=1, r=2, coord_bound=100)
    peaks = []
    tracemalloc.start()
    try:
        for want_solution in (False, True):
            dict_dp = mock.patch.object(fpt_solver, "_bitsets_pay", return_value=False)
            with dict_dp if want_solution else contextlib.nullcontext():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run_dp(inst, CLUSTERING, want_solution=want_solution)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 0.42 * peaks[1]


# A witness run on the bitset engine keeps one int per layer of a pass bounded
# at the optimum, where the dict DP keeps every value layer: here about 0.14 of
# the dict DP's witness peak.
def test_bitset_witness_run_peaks_below_the_dict_dp():
    inst = bench_instance(0, 12, users_per_leg=1, r=2, coord_bound=100)
    peaks = []
    tracemalloc.start()
    try:
        for bitsets in (True, False):
            with mock.patch.object(fpt_solver, "_bitsets_pay", return_value=bitsets):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run_dp(inst, CLUSTERING)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 0.25 * peaks[1]


# The same release on the dict DP, which value-only runs outside the bitset
# engine's rule take (bench past its widest layers, check of an "infeasible"
# claim on a large spider).
def test_dict_value_only_run_releases_the_previous_layer_before_closing(monkeypatch):
    monkeypatch.setattr(fpt_solver, "_bitsets_pay", lambda *args: False)
    test_value_only_run_releases_the_previous_layer_before_closing()


_WALK_CASES = [
    (CLUSTERING, _spider(((2, 2), (3, 6), (2, 8), (3, 9), (3, 2), (2, 0), (1, 4)), r=2)),
    (
        GATHERING,
        _spider(
            ((4, 6), (3, 3), (4, 4), (4, 4), (2, 2), (1, 3), (4, 2), (3, 2)),
            r=2,
            facilities=((3, 8), (2, 6), (1, 4), (4, 9)),
        ),
    ),
]


# Witnesses rebuilt from the kept layers alone, on the dict DP, which the
# engine rule picks here, and with bitsets forced. The walk-back on each of
# these instances takes "b", "c", "d" from a closed ball and from an open one,
# and "x" on a leg other than the swept user's. It never takes "x" on the
# swept user's own leg: the sweep makes no such close, because "c" or "d"
# reaches the same closed state at no higher value. A walk-back that takes
# "c" without testing the key at the optimum, or that looks for "x" on the
# swept user's leg only, fails on both. key % unit is a key's ball size on
# both layouts.
@pytest.mark.parametrize(
    "bitsets, kind, inst",
    [
        pytest.param(bitsets, kind, inst, id=f"{'bitsets-' * bitsets}{kind}-inst{i}")
        for bitsets in (False, True)
        for i, (kind, inst) in enumerate(_WALK_CASES)
    ],
)
def test_walk_back_takes_every_step(monkeypatch, bitsets, kind, inst):
    if kind == CLUSTERING:
        want, validate = brute_clustering(inst), validate_clustering
    else:
        want, validate = brute_gathering(inst), validate_gathering
    seen = []
    walk = fpt_solver._walk

    def spy(prep, sweep, layers, key, unit, bound, has, ends):
        want_unit = 2 * prep.r - 1 if bitsets else 1 << (2 * prep.r).bit_length()
        assert unit == want_unit, "the walk is on the other engine"
        steps, moves = walk(prep, sweep, layers, key, unit, bound, has, ends)
        for layer, tag, key, leg, _ in steps:
            if tag == "d":
                tag = "d-open" if key % unit else "d-closed"
            elif tag == "x":
                tag = "x-own" if leg == prep.legs[sweep[layer - 1]] else "x-other"
            seen.append(tag)
        return steps, moves

    monkeypatch.setattr(fpt_solver, "_walk", spy)
    monkeypatch.setattr(fpt_solver, "_bitsets_pay", lambda *args: bitsets)
    run = run_dp(inst, kind)
    assert run.value == want.value == enumerate_suffix_special(inst, kind)
    assert validate(inst, run.solution) == run.value
    assert set(seen) == {"b", "c", "d-closed", "d-open", "x-other"}
