from __future__ import annotations

import json

import pytest

from spidergather.cli import main


def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def clustering_file(tmp_path):
    return _write(
        tmp_path / "inst.json",
        {
            "r": 2,
            "legs": 2,
            "users": [
                {"leg": 1, "x": 1},
                {"leg": 2, "x": 1},
                {"leg": 2, "x": 10},
                {"leg": 2, "x": 11},
            ],
        },
    )


@pytest.fixture
def gathering_file(tmp_path):
    return _write(
        tmp_path / "gather.json",
        {
            "r": 2,
            "legs": 2,
            "users": [
                {"leg": 1, "x": 2},
                {"leg": 1, "x": 4},
                {"leg": 2, "x": 2},
                {"leg": 2, "x": 4},
            ],
            "facilities": [{"leg": 1, "x": 3}, {"leg": 2, "x": 3}],
        },
    )


@pytest.fixture
def arrears_file(tmp_path):
    return _write(
        tmp_path / "arrears.json",
        {
            "duties": [[{"a": 1, "p": 1}, {"a": 2, "p": 2}]],
            "budgets": [{"b": 1, "q": 0}, {"b": 2, "q": 2}],
        },
    )


def test_solve_writes_solution_json(clustering_file, capsys):
    assert main(["solve", clustering_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"value": 2, "clusters": [[0, 1], [2, 3]]}


def test_solve_oracle_agrees(clustering_file, capsys):
    assert main(["solve", clustering_file, "--oracle"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["solve", clustering_file]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["value"] == second["value"]


def test_solve_no_prune_agrees(clustering_file, capsys):
    assert main(["solve", clustering_file, "--no-prune"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2


def test_solve_infeasible_exits_one(tmp_path, capsys):
    path = _write(
        tmp_path / "short.json",
        {"r": 3, "legs": 1, "users": [{"leg": 1, "x": 0}]},
    )
    assert main(["solve", path]) == 1
    assert json.loads(capsys.readouterr().out)["value"] == "infeasible"


def test_r_beyond_the_user_count_is_infeasible_at_once(tmp_path, capsys):
    inst = _write(
        tmp_path / "huge_r.json",
        {"r": 10**9, "legs": 1, "users": [{"leg": 1, "x": 0}]},
    )
    assert main(["solve", inst]) == 1
    assert json.loads(capsys.readouterr().out)["value"] == "infeasible"
    sol = _write(tmp_path / "sol.json", {"value": "infeasible", "clusters": []})
    assert main(["check", inst, sol]) == 0


def test_solve_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err


def test_solve_gathering_needs_facilities(tmp_path, capsys):
    path = _write(
        tmp_path / "nofac.json",
        {"r": 1, "legs": 1, "users": [{"leg": 1, "x": 0}]},
    )
    assert main(["solve", path, "--problem", "gathering"]) == 2


def test_check_round_trip(clustering_file, tmp_path, capsys):
    main(["solve", clustering_file])
    sol = tmp_path / "sol.json"
    sol.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["check", clustering_file, str(sol)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_check_rejects_small_cluster(clustering_file, tmp_path, capsys):
    sol = _write(
        tmp_path / "bad.json",
        {"value": 1, "clusters": [[0], [1, 2, 3]]},
    )
    assert main(["check", clustering_file, sol]) == 1
    assert "SizeViolation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "solution",
    [
        {"value": 2, "clusters": [1, 2]},
        {"value": 2, "clusters": [[0, 1], [2, 3]], "facilities": 5},
    ],
)
def test_check_malformed_solution_exits_two(clustering_file, tmp_path, capsys, solution):
    sol = _write(tmp_path / "malformed.json", solution)
    assert main(["check", clustering_file, sol]) == 2
    assert "must be a list" in capsys.readouterr().err


# JSON booleans are not the indices 0 and 1, and a value or index must be an
# integer: each is malformed input (exit 2), not a wrong solution (exit 1).
# With booleans read as integers, the first solution validates at 2.
@pytest.mark.parametrize(
    "solution, message",
    [
        ({"value": 2, "clusters": [[False, True], [2, 3]]}, "lists of user indices"),
        ({"value": 2, "clusters": [[0, 1.5], [2, 3]]}, "lists of user indices"),
        ({"value": "abc", "clusters": [[0, 1], [2, 3]]}, "value must be an integer"),
        ({"value": 7.5, "clusters": [[0, 1], [2, 3]]}, "value must be an integer"),
        ({"value": True, "clusters": [[0, 1], [2, 3]]}, "value must be an integer"),
    ],
)
def test_check_non_integer_solution_exits_two(
    clustering_file, tmp_path, capsys, solution, message
):
    sol = _write(tmp_path / "typed.json", solution)
    assert main(["check", clustering_file, sol]) == 2
    assert message in capsys.readouterr().err


def test_check_boolean_facility_exits_two(gathering_file, tmp_path, capsys):
    sol = _write(
        tmp_path / "typed.json",
        {"value": 1, "clusters": [[0, 1], [2, 3]], "facilities": [False, True]},
    )
    assert main(["check", gathering_file, sol, "--problem", "gathering"]) == 2
    assert "list of facility indices" in capsys.readouterr().err


def test_check_rejects_booleans_in_a_solved_spider(tmp_path, capsys):
    assert main(["gen", "--kind", "spider", "--users", "8", "--legs", "3", "--seed", "1"]) == 0
    inst = _write(tmp_path / "spider.json", json.loads(capsys.readouterr().out))
    assert main(["solve", inst]) == 0
    solution = json.loads(capsys.readouterr().out)
    flags = {0: False, 1: True}
    solution["clusters"] = [[flags.get(i, i) for i in c] for c in solution["clusters"]]
    assert main(["check", inst, _write(tmp_path / "sol.json", solution)]) == 2


def test_check_confirms_infeasible_claim(tmp_path, capsys):
    inst = _write(
        tmp_path / "short.json",
        {"r": 3, "legs": 1, "users": [{"leg": 1, "x": 0}]},
    )
    sol = _write(tmp_path / "sol.json", {"value": "infeasible", "clusters": []})
    assert main(["check", inst, sol]) == 0


def test_check_takes_the_problem_from_the_flag(tmp_path, capsys):
    # Clustering value 2, but no facility to gather at: the verdict on an
    # "infeasible" claim follows --problem, not the facilities key.
    inst = _write(
        tmp_path / "nofac.json",
        {
            "r": 2,
            "legs": 2,
            "users": [{"leg": 1, "x": 1}, {"leg": 2, "x": 1}],
            "facilities": [],
        },
    )
    sol = _write(tmp_path / "sol.json", {"value": "infeasible", "clusters": []})
    assert main(["check", inst, sol]) == 1
    assert main(["check", inst, sol, "--problem", "gathering"]) == 0


def test_check_gathering_round_trip(gathering_file, tmp_path, capsys):
    main(["solve", gathering_file, "--problem", "gathering"])
    sol = tmp_path / "sol.json"
    sol.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["check", gathering_file, str(sol), "--problem", "gathering"]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize(
    "problem, solution",
    [
        ("gathering", {"value": 3, "clusters": [[0, 1], [2, 3]]}),
        ("clustering", {"value": 1, "clusters": [[0, 1], [2, 3]], "facilities": [0, 1]}),
    ],
)
def test_check_solution_of_the_other_problem_exits_two(
    gathering_file, tmp_path, capsys, problem, solution
):
    sol = _write(tmp_path / "other.json", solution)
    assert main(["check", gathering_file, sol, "--problem", problem]) == 2
    assert "facilities list" in capsys.readouterr().err


def test_check_arrears_verdicts(arrears_file, capsys):
    assert main(["check-arrears", arrears_file, "--z", "2"]) == 0
    assert capsys.readouterr().out.strip() == "feasible"
    assert main(["check-arrears", arrears_file, "--z", "1"]) == 1
    assert "violated budget 1" in capsys.readouterr().out


def test_check_arrears_bad_vector_exits_two(arrears_file, capsys):
    assert main(["check-arrears", arrears_file, "--z", "9"]) == 2


def test_reduce_arrears_to_spider(arrears_file, capsys):
    assert main(["reduce", arrears_file, "--from", "arrears", "--to", "spider"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["threshold"] == 6
    assert len(out["users"]) == 10
    assert out["legs"] == 6


def test_reduce_output_reparses_and_solves(arrears_file, tmp_path, capsys):
    main(["reduce", arrears_file, "--from", "arrears", "--to", "spider"])
    spider = tmp_path / "spider.json"
    spider.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["solve", str(spider)]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value <= 6


def test_reduce_sat_to_arrears(tmp_path, capsys):
    sat = _write(
        tmp_path / "sat.json", {"num_vars": 3, "clauses": [[1, 2, 3]]}
    )
    assert main(["reduce", sat, "--from", "sat", "--to", "arrears"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["duties"]) == 60
    assert len(out["budgets"]) == 6


def test_reduce_sat_report_checks_pass(tmp_path, capsys):
    sat = _write(
        tmp_path / "sat.json", {"num_vars": 3, "clauses": [[1, -2, 3]]}
    )
    assert main(["reduce", sat, "--from", "sat", "--to", "arrears", "--report"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["base"] == 900
    assert all(out["report"]["checks"].values())


def test_reduce_rejects_two_literal_clause(tmp_path, capsys):
    sat = _write(tmp_path / "sat.json", {"num_vars": 2, "clauses": [[1, 2]]})
    assert main(["reduce", sat, "--from", "sat", "--to", "arrears"]) == 2


def test_reduce_oversized_exits_three(arrears_file, capsys, monkeypatch):
    monkeypatch.setenv("SPIDERGATHER_USER_CEILING", "5")
    assert main(["reduce", arrears_file, "--from", "arrears", "--to", "spider"]) == 3
    assert "too large" in capsys.readouterr().err


def test_solve_over_the_state_ceiling_exits_three(clustering_file, capsys, monkeypatch):
    monkeypatch.setenv("SPIDERGATHER_STATE_CEILING", "1")
    assert main(["solve", clustering_file]) == 3
    captured = capsys.readouterr()
    assert "too large" in captured.err
    assert captured.out == ""


def test_solve_bad_state_ceiling_exits_two(clustering_file, capsys, monkeypatch):
    monkeypatch.setenv("SPIDERGATHER_STATE_CEILING", "many")
    assert main(["solve", clustering_file]) == 2
    assert "SPIDERGATHER_STATE_CEILING" in capsys.readouterr().err


# A ceiling or guard below 1 is a bad setting, not a run that is too large.
@pytest.mark.parametrize(
    "name, command",
    [
        ("SPIDERGATHER_STATE_CEILING", "solve"),
        ("SPIDERGATHER_PARTITION_GUARD", "oracle"),
        ("SPIDERGATHER_USER_CEILING", "reduce"),
    ],
)
@pytest.mark.parametrize("raw", ["0", "-1"])
def test_limits_below_one_exit_two(
    clustering_file, arrears_file, capsys, monkeypatch, name, command, raw
):
    monkeypatch.setenv(name, raw)
    args = {
        "solve": ["solve", clustering_file],
        "oracle": ["solve", clustering_file, "--oracle"],
        "reduce": ["reduce", arrears_file, "--from", "arrears", "--to", "spider"],
    }[command]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert name in captured.err and "too large" not in captured.err
    assert captured.out == ""


def test_oracle_size_guard_still_exits_two(clustering_file, capsys, monkeypatch):
    monkeypatch.setenv("SPIDERGATHER_PARTITION_GUARD", "3")
    assert main(["solve", clustering_file, "--oracle"]) == 2
    assert "limited to 3 users" in capsys.readouterr().err


def test_gen_is_deterministic(capsys):
    assert main(["gen", "--kind", "spider", "--seed", "11", "--users", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--kind", "spider", "--seed", "11", "--users", "9"]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "--kind", "spider", "--seed", "12", "--users", "9"]) == 0
    assert capsys.readouterr().out != first


def test_gen_spider_respects_sizes(capsys):
    assert main(["gen", "--kind", "spider", "--users", "9", "--legs", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["users"]) == 9
    assert out["legs"] == 3
    assert all(1 <= u["leg"] <= 3 for u in out["users"])


def test_gen_arrears_is_schema_valid(tmp_path, capsys):
    assert main(["gen", "--kind", "arrears", "--seed", "3"]) == 0
    raw = capsys.readouterr().out
    path = tmp_path / "gen.json"
    path.write_text(raw, encoding="utf-8")
    assert main(["check-arrears", str(path), "--z", ",".join("1" for _ in json.loads(raw)["duties"])]) in (0, 1)


def test_gen_sat_shape(capsys):
    assert main(["gen", "--kind", "sat", "--vars", "4", "--clauses", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["num_vars"] == 4
    assert len(out["clauses"]) == 3
    for clause in out["clauses"]:
        assert len(clause) == 3
        assert len({abs(lit) for lit in clause}) == 3


def test_gen_bad_sizes_exit_two(capsys):
    assert main(["gen", "--kind", "sat", "--vars", "2", "--clauses", "1"]) == 2


def test_bench_emits_csv(capsys):
    assert main(["bench", "--legs-range", "2:4", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "d,n,r,mean_ms,states"
    assert len(lines) == 4
    for line, d in zip(lines[1:], (2, 3, 4)):
        fields = line.split(",")
        assert fields[0] == str(d)
        assert int(fields[4]) > 0


def test_bench_state_counts_are_reproducible(capsys):
    assert main(["bench", "--legs-range", "3:3", "--trials", "2"]) == 0
    first = capsys.readouterr().out.splitlines()[1].split(",")[4]
    assert main(["bench", "--legs-range", "3:3", "--trials", "1"]) == 0
    second = capsys.readouterr().out.splitlines()[1].split(",")[4]
    assert first == second


def test_bench_empty_range_is_header_only(capsys):
    assert main(["bench", "--legs-range", "5:4"]) == 0
    assert capsys.readouterr().out.strip() == "d,n,r,mean_ms,states"


def test_bench_writes_file(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--legs-range", "2:3", "--trials", "1", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "d,n,r,mean_ms,states"
    assert len(lines) == 3


def test_bench_rejects_zero_trials(capsys):
    assert main(["bench", "--legs-range", "2:2", "--trials", "0"]) == 2
    assert "--trials must be at least 1" in capsys.readouterr().err


# Bad bench sizes exit 2 with a message before any CSV is written.
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--coord-bound", "-5"], "--coord-bound must be at least 0"),
        (["--r", "0"], "--r must be at least 1"),
        (["--legs-range", "0:1"], "--legs-range start must be at least 1"),
        (["--users-per-leg", "0"], "--users-per-leg must be at least 1"),
    ],
)
def test_bench_bad_sizes_exit_two_before_output(capsys, flags, message):
    assert main(["bench", "--legs-range", "2:2", "--trials", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_bench_bad_sizes_leave_no_out_file(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--r", "0", "--out", str(out)]) == 2
    assert not out.exists()


# main reuses one parser, built on its first call; each call parses afresh.
def test_main_runs_again_after_help(arrears_file, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["solve", "--help"])
    assert raised.value.code == 0
    assert "--problem" in capsys.readouterr().out
    assert main(["reduce", arrears_file, "--from", "arrears", "--to", "spider"]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 6


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["solve", "x.json", "--problem", "median"], ["reduce", "x.json"], ["nope"]],
)
def test_main_runs_again_after_a_malformed_call(clustering_file, capsys, argv):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert capsys.readouterr().err
    assert main(["solve", clustering_file]) == 0
    assert json.loads(capsys.readouterr().out) == {"value": 2, "clusters": [[0, 1], [2, 3]]}


# The gathering file solves to 1 as gathering and to 2 as clustering.
def test_solve_flags_do_not_carry_over_between_calls(gathering_file, capsys):
    assert main(["solve", gathering_file, "--problem", "gathering", "--no-prune"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["value"] == 1 and "facilities" in first
    assert main(["solve", gathering_file]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["value"] == 2 and "facilities" not in second


# Two budgets need two distinct limits, and with no duties the only limit is 0.
def test_gen_arrears_with_too_many_budgets_exits_two(capsys):
    assert main(["gen", "--kind", "arrears", "--duties", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "more budgets than limits" in captured.err
