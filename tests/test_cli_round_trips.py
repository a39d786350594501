"""CLI round trips and size guards, one main call or one process per command.

Each command reads the files the one before it wrote, as in a shell pipeline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spidergather import CLUSTERING, fpt_solver
from spidergather.cli import main, spider_from_json
from spidergather.model import normalize

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def _process(argv, out_path=None, timeout=120):
    """`python -m spidergather.cli argv` in its own process: (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "spidergather.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    if out_path is not None:
        out_path.write_text(done.stdout, encoding="utf-8")
    return done.returncode, done.stdout


@pytest.fixture(scope="module")
def blowup(tmp_path_factory):
    """A spider with 22 user-bearing legs, no two of them identical."""
    path = tmp_path_factory.mktemp("blowup") / "blowup.json"
    code, _ = _process(["gen", "--kind", "spider", "--users", "30", "--legs", "30", "--seed", "0"], path)
    assert code == 0
    prep = fpt_solver._prepare(normalize(spider_from_json(json.loads(path.read_text()))).instance, CLUSTERING)
    assert prep.d_users == 22 and not prep.classes
    return path


# The blow-up spider must hit the DP's state ceiling and exit 3 instead of
# running out of memory or time.
def test_solve_on_a_blow_up_instance_stops_at_the_state_ceiling(blowup):
    code, out = _process(["solve", str(blowup)])
    assert code == 3 and out == ""


# Checking an "infeasible" claim is a value-only run. Its layers would be
# 3 * 2^22 bits wide, past the bitset engine's 2^21, so it runs on the dict
# DP and must hit the same ceiling.
def test_check_of_an_infeasible_claim_on_a_blow_up_instance_stops_at_the_state_ceiling(
    blowup, tmp_path
):
    claim = tmp_path / "infeasible.json"
    claim.write_text('{"value": "infeasible", "clusters": []}\n', encoding="utf-8")
    assert _process(["check", str(blowup), str(claim)])[0] == 3


# The full pipeline on files, one process per command, so each command builds
# the CLI parser once and runs once.
def test_arrears_round_trip_to_a_checked_spider_solution(tmp_path):
    arrears, spider, solution = (tmp_path / f"{name}.json" for name in ("arrears", "spider", "solution"))
    assert _process(["gen", "--kind", "arrears", "--seed", "1"], arrears)[0] == 0
    assert _process(["reduce", str(arrears), "--from", "arrears", "--to", "spider"], spider)[0] == 0
    assert _process(["solve", str(spider)], solution)[0] == 0
    assert _process(["check", str(spider), str(solution)])[0] == 0


# r = n on 3 legs, which the engine rule sends to the dict DP: its close rows
# cover only the grown balls' sizes and legs, so the run takes about a second
# where a table over every (size, window) pair grows with r^2.
def test_round_trip_with_r_equal_to_the_user_count(tmp_path):
    spider, solution = tmp_path / "spider.json", tmp_path / "solution.json"
    gen = ["gen", "--kind", "spider", "--users", "1500", "--legs", "3", "--r", "1500", "--seed", "0"]
    assert _process(gen, spider)[0] == 0
    assert _process(["solve", str(spider)], solution, timeout=15)[0] == 0
    assert _process(["check", str(spider), str(solution)]) == (0, "200\n")
