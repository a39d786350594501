"""Command-line front end: solve, reduce, check, generate, and benchmark.

Instances travel as JSON files. A spider instance is {"r", "legs", "users",
optional "facilities"} with points as {"leg", "x"}; an arrears instance is
{"duties": [[{"a", "p"}, ...]], "budgets": [{"b", "q"}, ...]}; a formula is
{"num_vars", "clauses"}. Solutions are {"value", "clusters", optional
"facilities"} with indices into the instance file's ordering.

Exit codes: 0 success, 1 infeasible instance or invalid solution, 2 parse or
validation failure (including every other size guard), 3 construction larger
than the configured user ceiling or DP over its state ceiling.

main builds the argument parser on its first call and reuses it on every
later call in the process. Parsing leaves the parser as it was, and
in-process callers such as the tests and the benchmark call main many times.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
import time
from typing import Any, Optional, Sequence

from .exact_oracle import (
    DEFAULT_PARTITION_GUARD,
    brute_clustering,
    brute_gathering,
)
from .fpt_solver import (
    CLUSTERING,
    DEFAULT_STATE_CEILING,
    GATHERING,
    StateCeilingExceeded,
    run_dp,
    solve,
)
from .generators import bench_instance, gen_arrears, gen_sat, gen_spider
from .model import (
    INFEASIBLE,
    MalformedInstanceError,
    PointOnSpider,
    SizeGuard,
    Solution,
    SolutionError,
    SpiderInstance,
    is_int,
    validate_clustering,
    validate_gathering,
)
from .reductions import (
    DEFAULT_USER_CEILING,
    ArrearsInstance,
    CnfFormula,
    GadgetReport,
    ReductionTooLarge,
    arrears_to_spider,
    check_arrears,
    normalize_arrears,
    sat_to_arrears,
    verify_gadget,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID = 2
EXIT_TOO_LARGE = 3


def _int_field(obj: Any, key: str, where: str) -> int:
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInstanceError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not is_int(value):
        raise MalformedInstanceError(f"{where}: field {key!r} must be an integer")
    return value


def _points(raw: Any, where: str) -> tuple[PointOnSpider, ...]:
    if not isinstance(raw, list):
        raise MalformedInstanceError(f"{where} must be a list of points")
    out = []
    for pos, entry in enumerate(raw):
        out.append(
            PointOnSpider(
                _int_field(entry, "leg", f"{where}[{pos}]"),
                _int_field(entry, "x", f"{where}[{pos}]"),
            )
        )
    return tuple(out)


def spider_from_json(obj: Any) -> SpiderInstance:
    if not isinstance(obj, dict):
        raise MalformedInstanceError("spider instance must be a JSON object")
    facilities = None
    if obj.get("facilities") is not None:
        facilities = _points(obj["facilities"], "facilities")
    return SpiderInstance(
        d=_int_field(obj, "legs", "instance"),
        users=_points(obj.get("users"), "users"),
        facilities=facilities,
        r=_int_field(obj, "r", "instance"),
    )


def spider_to_json(
    instance: SpiderInstance, *, threshold: Optional[int] = None
) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "r": instance.r,
        "legs": instance.d,
        "users": [{"leg": p.leg, "x": p.x} for p in instance.users],
    }
    if instance.facilities is not None:
        obj["facilities"] = [{"leg": p.leg, "x": p.x} for p in instance.facilities]
    if threshold is not None:
        obj["threshold"] = threshold
    return obj


def arrears_from_json(obj: Any) -> ArrearsInstance:
    if not isinstance(obj, dict):
        raise MalformedInstanceError("arrears instance must be a JSON object")
    raw_duties = obj.get("duties")
    raw_budgets = obj.get("budgets", [])
    if not isinstance(raw_duties, list) or not isinstance(raw_budgets, list):
        raise MalformedInstanceError("duties and budgets must be lists")
    duties = tuple(
        tuple(
            (
                _int_field(option, "a", f"duties[{i}][{k}]"),
                _int_field(option, "p", f"duties[{i}][{k}]"),
            )
            for k, option in enumerate(options)
        )
        for i, options in enumerate(raw_duties)
    )
    budgets = tuple(
        (
            _int_field(entry, "b", f"budgets[{j}]"),
            _int_field(entry, "q", f"budgets[{j}]"),
        )
        for j, entry in enumerate(raw_budgets)
    )
    return ArrearsInstance(duties=duties, budgets=budgets)


def arrears_to_json(instance: ArrearsInstance) -> dict[str, Any]:
    return {
        "duties": [
            [{"a": a, "p": p} for a, p in options] for options in instance.duties
        ],
        "budgets": [{"b": b, "q": q} for b, q in instance.budgets],
    }


def sat_from_json(obj: Any) -> CnfFormula:
    if not isinstance(obj, dict):
        raise MalformedInstanceError("formula must be a JSON object")
    raw = obj.get("clauses")
    if not isinstance(raw, list):
        raise MalformedInstanceError("clauses must be a list")
    clauses = []
    for pos, clause in enumerate(raw):
        if not isinstance(clause, list) or len(clause) != 3:
            raise MalformedInstanceError(f"clauses[{pos}] must have exactly 3 literals")
        for lit in clause:
            if not is_int(lit):
                raise MalformedInstanceError(f"clauses[{pos}] literals must be integers")
        clauses.append(tuple(clause))
    return CnfFormula(
        num_vars=_int_field(obj, "num_vars", "formula"), clauses=tuple(clauses)
    )


def sat_to_json(formula: CnfFormula) -> dict[str, Any]:
    return {
        "num_vars": formula.num_vars,
        "clauses": [list(clause) for clause in formula.clauses],
    }


def solution_to_json(solution: Optional[Solution]) -> dict[str, Any]:
    if solution is None:
        return {"value": "infeasible", "clusters": []}
    obj: dict[str, Any] = {
        "value": solution.value,
        "clusters": [list(cluster) for cluster in solution.clusters],
    }
    if solution.facility_of is not None:
        obj["facilities"] = list(solution.facility_of)
    return obj


def _dump(obj: Any, out) -> None:
    json.dump(obj, out, indent=2, sort_keys=True)
    out.write("\n")


def _load(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise MalformedInstanceError(f"{name} must be a positive integer, got {raw!r}")
    return value


def _state_ceiling() -> int:
    return _env_int("SPIDERGATHER_STATE_CEILING", DEFAULT_STATE_CEILING)


# ---------------------------------------------------------------------------
# Commands.


def _problem_kind(args: argparse.Namespace, instance: SpiderInstance) -> str:
    """The --problem choice; gathering needs the instance's facilities list."""
    if args.problem == "clustering":
        return CLUSTERING
    if instance.facilities is None:
        raise MalformedInstanceError("gathering needs a facilities list")
    return GATHERING


def cmd_solve(args: argparse.Namespace) -> int:
    instance = spider_from_json(_load(args.instance))
    kind = _problem_kind(args, instance)
    if args.oracle:
        guard = _env_int("SPIDERGATHER_PARTITION_GUARD", DEFAULT_PARTITION_GUARD)
        if kind == CLUSTERING:
            solution = brute_clustering(instance, guard=guard)
        else:
            solution = brute_gathering(instance, guard=guard)
    else:
        solution = solve(
            instance, kind, use_pruning=not args.no_prune, max_states=_state_ceiling()
        )
    _dump(solution_to_json(solution), sys.stdout)
    return EXIT_OK if solution is not None else EXIT_INFEASIBLE


def cmd_reduce(args: argparse.Namespace) -> int:
    source = args.source
    target = args.target
    report: Optional[GadgetReport] = None
    if source == "sat":
        formula = sat_from_json(_load(args.instance))
        arrears, report = sat_to_arrears(formula)
    else:
        arrears = arrears_from_json(_load(args.instance))
    arrears = normalize_arrears(arrears)

    if target == "arrears":
        obj = arrears_to_json(arrears)
    else:
        ceiling = _env_int("SPIDERGATHER_USER_CEILING", DEFAULT_USER_CEILING)
        reduction = arrears_to_spider(arrears, user_ceiling=ceiling)
        obj = spider_to_json(reduction.instance, threshold=reduction.threshold)

    if args.report:
        if report is None:
            raise MalformedInstanceError("--report needs a sat source")
        obj["report"] = {
            "base": report.base,
            "duties": len(report.instance.duties),
            "per_variable_items": list(report.per_variable_items),
            "side_sums": [list(pair) for pair in report.side_sums],
            "expected_side_sum": list(report.expected_side_sum),
            "total": report.total,
            "digit_sums": list(report.digit_sums),
            "checks": {name: passed for name, passed in verify_gadget(report)},
        }
    _dump(obj, sys.stdout)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    instance = spider_from_json(_load(args.instance))
    kind = _problem_kind(args, instance)
    raw = _load(args.solution)
    if not isinstance(raw, dict) or "value" not in raw or "clusters" not in raw:
        raise MalformedInstanceError("solution must have value and clusters")

    if raw["value"] == "infeasible":
        run = run_dp(instance, kind, want_solution=False, max_states=_state_ceiling())
        if run.value == INFEASIBLE:
            print("infeasible")
            return EXIT_OK
        print("claimed infeasible, but the instance is feasible", file=sys.stderr)
        return EXIT_INFEASIBLE

    if not is_int(raw["value"]):
        raise MalformedInstanceError('value must be an integer or "infeasible"')
    if not isinstance(raw["clusters"], list) or not all(
        isinstance(c, list) and all(is_int(v) for v in c) for c in raw["clusters"]
    ):
        raise MalformedInstanceError("clusters must be a list of lists of user indices")
    clusters = tuple(tuple(c) for c in raw["clusters"])
    facility_of = None
    if raw.get("facilities") is not None:
        facilities = raw["facilities"]
        if not isinstance(facilities, list) or not all(is_int(v) for v in facilities):
            raise MalformedInstanceError("facilities must be a list of facility indices")
        facility_of = tuple(facilities)
    if kind == GATHERING and facility_of is None:
        raise MalformedInstanceError("a gathering solution needs a facilities list")
    if kind == CLUSTERING and facility_of is not None:
        raise MalformedInstanceError(
            "a clustering solution has no facilities list; use --problem gathering"
        )
    try:
        solution = Solution(
            clusters=clusters, value=raw["value"], facility_of=facility_of
        )
        if kind == GATHERING:
            value = validate_gathering(instance, solution)
        else:
            value = validate_clustering(instance, solution)
    except SolutionError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(value)
    return EXIT_OK


def cmd_check_arrears(args: argparse.Namespace) -> int:
    instance = arrears_from_json(_load(args.instance))
    try:
        choice = tuple(int(part) for part in args.z.split(",")) if args.z else ()
    except ValueError as exc:
        raise MalformedInstanceError(f"bad --z value: {args.z!r}") from exc
    try:
        result = check_arrears(instance, choice)
    except IndexError as exc:
        raise MalformedInstanceError(str(exc)) from exc
    if result.feasible:
        print("feasible")
        return EXIT_OK
    print(
        f"violated budget {result.violated_budget}:"
        f" load {result.load} > limit {result.limit}"
    )
    return EXIT_INFEASIBLE


def cmd_gen(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    if args.kind == "spider":
        instance = gen_spider(
            rng,
            users=args.users,
            legs=args.legs,
            r=args.r,
            coord_bound=args.coord_bound,
            facilities=args.facilities,
        )
        obj: dict[str, Any] = spider_to_json(instance)
    elif args.kind == "arrears":
        obj = arrears_to_json(
            gen_arrears(
                rng,
                duties=args.duties,
                budgets=args.budgets,
                max_options=args.max_options,
                max_day=args.max_day,
                max_amount=args.max_amount,
            )
        )
    else:
        obj = sat_to_json(gen_sat(rng, num_vars=args.vars, num_clauses=args.clauses))
    _dump(obj, sys.stdout)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        low = int(lo)
        high = int(hi) if sep else low
    except ValueError as exc:
        raise MalformedInstanceError(f"bad range {text!r}, want A or A:B") from exc
    return low, high


def cmd_bench(args: argparse.Namespace) -> int:
    # Every size is checked before the CSV header is written. A range whose
    # end lies below its start is empty and gives the header alone.
    low, high = _parse_range(args.legs_range)
    for flag, value, least in (
        ("--legs-range start", low, 1),
        ("--r", args.r, 1),
        ("--users-per-leg", args.users_per_leg, 1),
        ("--coord-bound", args.coord_bound, 0),
        ("--trials", args.trials, 1),
    ):
        if value < least:
            raise MalformedInstanceError(f"{flag} must be at least {least}, got {value}")
    max_states = _state_ceiling()
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["d", "n", "r", "mean_ms", "states"])
        for d in range(low, high + 1):
            instance = bench_instance(
                args.seed,
                d,
                users_per_leg=args.users_per_leg,
                r=args.r,
                coord_bound=args.coord_bound,
            )
            elapsed = []
            states = 0
            for _ in range(args.trials):
                start = time.perf_counter()
                run = run_dp(instance, CLUSTERING, want_solution=False, max_states=max_states)
                elapsed.append((time.perf_counter() - start) * 1000.0)
                states = run.stats.states
            mean_ms = sum(elapsed) / len(elapsed)
            writer.writerow([d, len(instance.users), instance.r, f"{mean_ms:.3f}", states])
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spidergather",
        description="Exact min-max clustering and assignment on spider metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument(
        "--problem", choices=("clustering", "gathering"), default="clustering"
    )
    p_solve.add_argument("--no-prune", action="store_true", help="disable sweep pruning")
    p_solve.add_argument(
        "--oracle", action="store_true", help="use the brute-force reference solver"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_reduce = sub.add_parser("reduce", help="build a hardness-reduction instance")
    p_reduce.add_argument("instance")
    p_reduce.add_argument(
        "--from", dest="source", choices=("sat", "arrears"), required=True
    )
    p_reduce.add_argument(
        "--to", dest="target", choices=("arrears", "spider"), required=True
    )
    p_reduce.add_argument(
        "--report", action="store_true", help="attach gadget audit (sat sources)"
    )
    p_reduce.set_defaults(func=cmd_reduce)

    p_check = sub.add_parser("check", help="validate a solution file")
    p_check.add_argument("instance")
    p_check.add_argument("solution")
    p_check.add_argument(
        "--problem", choices=("clustering", "gathering"), default="clustering"
    )
    p_check.set_defaults(func=cmd_check)

    p_ca = sub.add_parser("check-arrears", help="test a payment choice vector")
    p_ca.add_argument("instance")
    p_ca.add_argument("--z", required=True, help="comma-separated 1-based options")
    p_ca.set_defaults(func=cmd_check_arrears)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--kind", choices=("spider", "arrears", "sat"), required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--users", type=int, default=8)
    p_gen.add_argument("--legs", type=int, default=3)
    p_gen.add_argument("--r", type=int, default=2)
    p_gen.add_argument("--coord-bound", type=int, default=100)
    p_gen.add_argument("--facilities", type=int, default=0)
    p_gen.add_argument("--duties", type=int, default=3)
    p_gen.add_argument("--budgets", type=int, default=2)
    p_gen.add_argument("--max-options", type=int, default=2)
    p_gen.add_argument("--max-day", type=int, default=8)
    p_gen.add_argument("--max-amount", type=int, default=8)
    p_gen.add_argument("--vars", type=int, default=3)
    p_gen.add_argument("--clauses", type=int, default=2)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time the solver across leg counts")
    p_bench.add_argument("--legs-range", default="8:14", help="A:B inclusive")
    p_bench.add_argument("--r", type=int, default=2)
    p_bench.add_argument("--users-per-leg", type=int, default=1)
    p_bench.add_argument("--coord-bound", type=int, default=100)
    p_bench.add_argument("--trials", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="write CSV here instead of stdout")
    p_bench.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every main call in this process, built on the first."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReductionTooLarge as exc:
        print(f"construction too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except StateCeilingExceeded as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (MalformedInstanceError, SizeGuard) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
