"""CLI round trips on the bitset engine, one main call per command.

Each command reads the files the one before it wrote, as in a shell pipeline.
"""

from __future__ import annotations

import json

import pytest

from spidergather import fpt_solver
from spidergather.cli import main


def _run(capsys, argv, out_path=None):
    """main(argv)'s exit code and stdout, which also goes to out_path if given."""
    code = main(argv)
    out = capsys.readouterr().out
    if out_path is not None:
        out_path.write_text(out, encoding="utf-8")
    return code, out


def _engine_rule(monkeypatch):
    """The list of the engine rule's answers, one per run_dp call."""
    answers = []
    rule = fpt_solver._bitsets_pay
    monkeypatch.setattr(fpt_solver, "_bitsets_pay", lambda *a: answers.append(rule(*a)) or answers[-1])
    return answers


def _solve_and_check(capsys, spider, problem, tmp_path):
    """Exit codes of solve and of check on its solution, and check's output."""
    solution = tmp_path / "solution.json"
    solved = _run(capsys, ["solve", str(spider), "--problem", problem], solution)[0]
    checked, value = _run(capsys, ["check", str(spider), str(solution), "--problem", problem])
    return solved, checked, value.strip()


# r=3, 10 legs, 6 users per leg on average: the witness runs of both problems
# take bitsets, and each witness must check.
@pytest.mark.parametrize("problem", ["clustering", "gathering"])
def test_bitset_round_trip(tmp_path, capsys, monkeypatch, problem):
    spider = tmp_path / "spider.json"
    gen = ["gen", "--kind", "spider", "--users", "60", "--legs", "10", "--r", "3",
           "--facilities", "5", "--seed", "2"]
    assert _run(capsys, gen, spider)[0] == 0
    engines = _engine_rule(monkeypatch)
    assert _solve_and_check(capsys, spider, problem, tmp_path)[:2] == (0, 0)
    assert engines == [True]


# A spider that takes bitsets on which retiring every leg at its first user is
# infeasible, as some of its 10 legs hold fewer than r=3 users, so the value
# search has no finite upper end.
@pytest.mark.parametrize("problem, value", [("clustering", "95"), ("gathering", "114")])
def test_bitset_round_trip_with_no_finite_search_bound(tmp_path, capsys, monkeypatch, problem, value):
    spider = tmp_path / "spider.json"
    gen = ["gen", "--kind", "spider", "--users", "25", "--legs", "10", "--r", "3",
           "--facilities", "5", "--seed", "2"]
    assert _run(capsys, gen, spider)[0] == 0
    engines = _engine_rule(monkeypatch)
    assert _solve_and_check(capsys, spider, problem, tmp_path) == (0, 0, value)
    assert engines == [True]


# Gathering on bitsets with edge facility layouts: 9 legs with one user each at
# r=2, served by facilities all on leg 1, so none lies off that leg, or all on
# a tenth leg without users. solve, check and the brute-force oracle agree.
@pytest.mark.parametrize(
    "legs, facilities, value",
    [(9, [(1, 10), (1, 30), (1, 60), (1, 90)], "96"), (10, [(10, 5), (10, 40)], "91")],
    ids=["leg1", "leg10"],
)
def test_gathering_round_trip_with_edge_facility_layouts(
    tmp_path, capsys, monkeypatch, legs, facilities, value
):
    xs = [59, 78, 47, 34, 17, 23, 86, 0, 43]
    spider = tmp_path / "spider.json"
    spider.write_text(json.dumps({
        "r": 2,
        "legs": legs,
        "users": [{"leg": leg, "x": x} for leg, x in enumerate(xs, start=1)],
        "facilities": [{"leg": leg, "x": x} for leg, x in facilities],
    }), encoding="utf-8")
    engines = _engine_rule(monkeypatch)
    assert _solve_and_check(capsys, spider, "gathering", tmp_path) == (0, 0, value)
    assert engines == [True]
    code, out = _run(capsys, ["solve", str(spider), "--problem", "gathering", "--oracle"])
    assert code == 0 and str(json.loads(out)["value"]) == value
