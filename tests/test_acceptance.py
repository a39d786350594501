"""End-to-end acceptance gates for the whole package.

Every criterion prints one PASS/FAIL line on the real terminal (bypassing
capture) and then asserts. All comparisons are exact integer equality; the
only tolerances anywhere are the wall-clock ceilings on the two oracle
sweeps and the state-growth window in the scaling check.
"""

from __future__ import annotations

import csv
import math
import random
import time

from spidergather import (
    CLUSTERING,
    GATHERING,
    INFEASIBLE,
    PointOnSpider,
    SpiderInstance,
    brute_arrears,
    brute_clustering,
    brute_gathering,
    check_arrears,
    clustering_to_gathering,
    enumerate_suffix_special,
    normalize_arrears,
    arrears_to_spider,
    assignment_to_choice,
    sat_to_arrears,
    satisfies_one_in_three,
    scale_instance,
    solve,
    validate_clustering,
    validate_gathering,
    verify_gadget,
)
from spidergather.cli import main
from spidergather.generators import gen_arrears, gen_sat, gen_spider
from spidergather.fpt_solver import run_dp

_CLOSURE = {"validated": 0, "failures": 0}


def _echo(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _validated(instance: SpiderInstance, solution, kind: str) -> None:
    """Feed criterion 10: revalidate a witness at exactly its reported value."""
    try:
        if kind == GATHERING:
            assert validate_gathering(instance, solution) == solution.value
        else:
            assert validate_clustering(instance, solution) == solution.value
    except Exception:
        _CLOSURE["failures"] += 1
        raise
    _CLOSURE["validated"] += 1


def _value(solution) -> object:
    return INFEASIBLE if solution is None else solution.value


def test_criterion_01_clustering_matches_oracle(capsys):
    rng = random.Random(101)
    start = time.perf_counter()
    total = 500
    for _ in range(total):
        inst = gen_spider(
            rng,
            users=rng.randint(1, 9),
            legs=rng.randint(1, 4),
            r=rng.choice((2, 3)),
            coord_bound=100,
        )
        want = brute_clustering(inst)
        got = solve(inst, CLUSTERING)
        assert _value(got) == _value(want), inst
        if got is not None:
            _validated(inst, got, CLUSTERING)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _echo(capsys, 1, ok, f"{total}/{total} clustering values match the oracle ({elapsed:.1f}s)")
    assert ok


def test_criterion_02_gathering_matches_oracle(capsys):
    rng = random.Random(202)
    start = time.perf_counter()
    total = 500
    for _ in range(total):
        inst = gen_spider(
            rng,
            users=rng.randint(1, 9),
            legs=rng.randint(1, 4),
            r=rng.choice((2, 3)),
            coord_bound=100,
            facilities=rng.randint(1, 5),
        )
        want = brute_gathering(inst)
        got = solve(inst, GATHERING)
        assert _value(got) == _value(want), inst
        if got is not None:
            _validated(inst, got, GATHERING)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _echo(capsys, 2, ok, f"{total}/{total} gathering values match the oracle ({elapsed:.1f}s)")
    assert ok


def test_criterion_03_enumeration_cross_check(capsys):
    rng = random.Random(303)
    total = 200
    for _ in range(total):
        inst = gen_spider(
            rng,
            users=rng.randint(1, 14),
            legs=rng.choice((2, 3)),
            r=rng.choice((2, 3)),
            coord_bound=100,
        )
        dp = run_dp(inst, CLUSTERING, want_solution=False).value
        assert enumerate_suffix_special(inst, CLUSTERING) == dp, inst
    _echo(capsys, 3, True, f"{total}/{total} values match the sweep enumeration")


def test_criterion_04_pruning_soundness(capsys):
    rng = random.Random(404)
    total = 200
    for _ in range(total):
        inst = gen_spider(
            rng,
            users=rng.randint(1, 40),
            legs=rng.randint(1, 4),
            r=rng.choice((2, 3)),
            coord_bound=100,
        )
        pruned = run_dp(inst, CLUSTERING, use_pruning=True, want_solution=False).value
        full = run_dp(inst, CLUSTERING, use_pruning=False, want_solution=False).value
        assert pruned == full, inst
    _echo(capsys, 4, True, f"{total}/{total} pruned and unpruned values identical")


def test_criterion_05_midpoint_lift_identity(capsys):
    rng = random.Random(505)
    total = 100
    for _ in range(total):
        inst = gen_spider(
            rng,
            users=rng.randint(2, 8),
            legs=rng.randint(1, 3),
            r=rng.randint(1, 3),
            coord_bound=30,
        )
        lifted = clustering_to_gathering(inst)
        doubled = scale_instance(inst, 2)
        gather = solve(lifted, GATHERING)
        cluster2 = solve(doubled, CLUSTERING)
        base = run_dp(inst, CLUSTERING, want_solution=False).value
        if base is INFEASIBLE:
            assert gather is None and cluster2 is None
            continue
        assert gather is not None and cluster2 is not None
        assert 2 * gather.value == cluster2.value == 2 * base, inst
        _validated(lifted, gather, GATHERING)
        _validated(doubled, cluster2, CLUSTERING)
    _echo(capsys, 5, True, f"{total}/{total} doubled-instance identities exact")


def test_criterion_06_arrears_spider_equivalence(capsys):
    rng = random.Random(606)
    total = 60
    for _ in range(total):
        inst = gen_arrears(
            rng,
            duties=rng.randint(1, 3),
            budgets=rng.randint(1, 2),
            max_options=2,
            max_day=4,
            max_amount=4,
        )
        feasible = brute_arrears(inst) is not None
        reduction = arrears_to_spider(normalize_arrears(inst))
        witness = solve(reduction.instance, CLUSTERING)
        value = _value(witness)
        assert feasible == (value is not INFEASIBLE and value <= reduction.threshold), inst
        if witness is not None:
            _validated(reduction.instance, witness, CLUSTERING)
    _echo(capsys, 6, True, f"{total}/{total} feasibility verdicts agree across the reduction")


def test_criterion_07_canonical_choice_forward_check(capsys):
    from spidergather import CnfFormula

    formulas = [
        CnfFormula(num_vars=3, clauses=((s1 * 1, s2 * 2, s3 * 3),))
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    ]
    rng = random.Random(707)
    while len(formulas) < 8 + 5:
        formulas.append(
            gen_sat(rng, num_vars=rng.randint(3, 4), num_clauses=rng.randint(1, 2))
        )
    swept = 0
    for formula in formulas:
        arrears, _ = sat_to_arrears(formula)
        for bits in range(1 << formula.num_vars):
            assignment = tuple(bool(bits >> i & 1) for i in range(formula.num_vars))
            choice = assignment_to_choice(formula, assignment)
            assert (
                check_arrears(arrears, choice).feasible
                == satisfies_one_in_three(formula, assignment)
            ), (formula, assignment)
            swept += 1
    _echo(
        capsys,
        7,
        True,
        f"{len(formulas)} formulas, {swept} assignments: choice feasibility tracks satisfaction",
    )


def test_criterion_08_gadget_identities(capsys):
    rng = random.Random(808)
    total = 20
    for _ in range(total):
        formula = gen_sat(
            rng, num_vars=rng.randint(3, 5), num_clauses=rng.randint(1, 3)
        )
        _, report = sat_to_arrears(formula)
        results = dict(verify_gadget(report))
        assert results and all(results.values()), (formula, results)
    _echo(capsys, 8, True, f"{total}/{total} gadget audits clean")


def test_criterion_09_state_growth(capsys, tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--legs-range", "8:14", "--trials", "1", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    states = [int(row["states"]) for row in rows]
    assert len(states) == 7
    ratios = [after / before for before, after in zip(states, states[1:])]
    mean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    ok = 1.7 <= mean <= 2.3
    _echo(
        capsys,
        9,
        ok,
        f"state count grows x{mean:.2f} per extra leg over d=8..14 (want 1.7..2.3)",
    )
    assert ok, (states, mean)


def test_criterion_10_validation_closure(capsys):
    ok = _CLOSURE["failures"] == 0 and _CLOSURE["validated"] >= 600
    _echo(
        capsys,
        10,
        ok,
        f"{_CLOSURE['validated']} witnesses revalidated at their reported value,"
        f" {_CLOSURE['failures']} failures",
    )
    assert ok, _CLOSURE
