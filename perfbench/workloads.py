"""The four benchmark workloads: seeded inputs, the timed operation, checks, spans.

Every input is generated here from the seed, as plain tuples, and only then
turned into library objects, so the instances (and their hash) do not depend
on the library's own generators or on any later change to them.

A workload object is built from the imported library modules. Its methods:
  generate(seed, n)    -> n plain inputs (the pool cycled by the loop)
  build(index, raw)    -> what answer() takes; may write input files
  answer(item)         -> the timed operation
  check(item, result)  -> list of error strings (empty when correct)
  counts(item, result) -> deterministic counts that must repeat exactly
  spot(rng)            -> error strings of one small oracle comparison
  trace(item, rec)     -> span-timed calls into each layer's public function
  solver_input(item)   -> (spider instance, kind) that the solver receives
  traced_op            -> spans that together repeat the timed operation
  traced_counts        -> trace count name -> the counts() key it must equal
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

COORD_BOUND = 100


def _spider_raw(rng, legs, per_leg, r, facilities=0):
    users = tuple((leg, rng.randint(0, COORD_BOUND)) for leg in range(1, legs + 1) for _ in range(per_leg))
    facs = tuple((rng.randint(1, legs), rng.randint(0, COORD_BOUND)) for _ in range(facilities))
    return {"legs": legs, "r": r, "users": users, "facilities": facs if facilities else None}


def _arrears_raw(rng, duties, budgets, max_options, max_day, max_amount):
    """Strictly increasing dates, amounts, budget days and limits per instance."""
    out = []
    for _ in range(duties):
        count = rng.randint(1, max_options)
        dates = sorted(rng.sample(range(1, max_day + 1), count))
        amounts = sorted(rng.sample(range(1, max_amount + 1), count))
        out.append(tuple(zip(dates, amounts)))
    days = sorted(rng.sample(range(1, max_day + 1), budgets))
    limits = sorted(rng.sample(range(0, duties * max_amount + 1), budgets))
    return {"duties": tuple(out), "budgets": tuple(zip(days, limits))}


def reduced_shape(raw):
    """(legs, users, r) of the spider that the arrears-to-spider construction builds.

    Computed here from the construction's formulas, after dropping free duties
    and dominated options, so that which instances a workload keeps does not
    depend on the library under test. Slack budgets do not matter: the last
    budget always survives and only its limit enters the shape.
    """
    budgets = raw["budgets"]
    horizon, q_last = budgets[-1] if budgets else (0, 0)
    duties = []
    for options in raw["duties"]:
        if options[-1][0] > horizon:
            continue
        # Amounts of the options that survive dominance: the last option's,
        # and the smallest one (an earlier option survives only if cheaper).
        duties.append((min(p for _, p in options), options[-1][1]))
    r = max([last for _, last in duties] + [q_last]) + 1
    users = sum(2 * r - first for first, _ in duties) + q_last + r
    return len(duties) + q_last + r, users, r


class _Spider:
    """Shared parts of the three workloads that hand a spider to the library."""

    pool_size = 64
    want_solution = True
    gathering = False
    traced_op = ("fpt_solver.witness",)
    traced_counts = {"fpt_solver.states": "states", "fpt_solver.swept_users": "swept_users",
                     "fpt_solver.legs": "legs"}

    def __init__(self, sg, cli, workdir):
        self.sg, self.cli, self.workdir = sg, cli, workdir
        self.kind = sg.GATHERING if self.gathering else sg.CLUSTERING
        self.validate = sg.validate_gathering if self.gathering else sg.validate_clustering
        self.brute = sg.brute_gathering if self.gathering else sg.brute_clustering

    def generate(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        return [self.shape(rng, small=False) for _ in range(count)]

    def build(self, index, raw):
        sg = self.sg
        facs = raw["facilities"]
        return sg.SpiderInstance(
            d=raw["legs"],
            users=tuple(sg.PointOnSpider(leg, x) for leg, x in raw["users"]),
            facilities=None if facs is None else tuple(sg.PointOnSpider(leg, x) for leg, x in facs),
            r=raw["r"],
        )

    def answer(self, inst):
        return self.sg.run_dp(inst, self.kind, want_solution=self.want_solution)

    def solver_input(self, inst):
        return inst, self.kind

    def counts(self, inst, run):
        return {"states": run.stats.states, "swept_users": run.stats.swept_users,
                "legs": run.stats.legs, "value": run.value}

    def witness_errors(self, inst, run):
        if run.solution is None:
            return [f"no witness (value {run.value})"]
        try:
            checked = self.validate(inst, run.solution)
        except self.sg.SolutionError as exc:
            return [f"witness invalid: {type(exc).__name__}: {exc}"]
        if checked != run.value:
            return [f"witness validates at {checked}, solver reports {run.value}"]
        return []

    def check(self, inst, run):
        return self.witness_errors(inst, run)

    def spot(self, rng):
        inst = self.build(None, self.shape(rng, small=True))
        ref = self.brute(inst)
        run = self.sg.run_dp(inst, self.kind)
        errors = self.witness_errors(inst, run)
        if ref is None or ref.value != run.value:
            errors.append(f"oracle says {ref and ref.value}, solver {run.value}")
        return errors

    def trace(self, inst, rec):
        run, errors = _trace_solver(self.sg, rec, inst, self.kind)
        path = os.path.join(self.workdir, "traced.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.cli.spider_to_json(inst), fh)
        with rec.span("cli.solve"), contextlib.redirect_stdout(io.StringIO()) as out:
            self.cli.main(["solve", path, "--problem", self.kind])
        if json.loads(out.getvalue())["value"] != run.value:
            errors.append("cli solve disagrees with run_dp")
        _trace_empty_reduction(self, rec)
        return errors


def _trace_solver(sg, rec, inst, kind):
    """Spans of the solver's layers on one spider instance: (witness run, errors)."""
    with rec.span("model.normalize"):
        sg.normalize(inst)
    with rec.span("cost_oracle.index"):
        index = sg.cost_oracle.FacilityIndex(inst.facilities or ())
    per_leg = {}
    for p in inst.users:
        per_leg.setdefault(p.leg, []).append(p.x)
    with rec.span("line_suffix.tables"):
        for leg, xs in per_leg.items():
            xs.sort()
            if kind == sg.GATHERING:
                sg.line_suffix.suffix_costs_gathering(xs, leg, index, inst.r)
            else:
                sg.line_suffix.suffix_costs_clustering(xs, inst.r)
    with rec.span("fpt_solver.value"):
        value_run = sg.run_dp(inst, kind, want_solution=False)
    with rec.span("fpt_solver.witness"):
        run = sg.run_dp(inst, kind)
    rec.count("fpt_solver.states", run.stats.states)
    rec.count("fpt_solver.swept_users", run.stats.swept_users)
    rec.count("fpt_solver.legs", run.stats.legs)
    with rec.span("cost_oracle.best_facility"):
        for cluster in run.solution.clusters:
            sg.cost_oracle.best_facility([inst.users[i] for i in cluster], index)
    with rec.span("model.validate"):
        (sg.validate_gathering if kind == sg.GATHERING else sg.validate_clustering)(inst, run.solution)
    errors = [] if value_run.value == run.value else [f"value-only {value_run.value} != witness {run.value}"]
    return run, errors


def _trace_empty_reduction(wl, rec):
    """Reduction-layer spans for a workload that carries no arrears input.

    The layers are called on the empty arrears instance, so their metrics read
    the fixed cost of the call (close to zero) rather than a missing value.
    """
    sg = wl.sg
    empty = sg.ArrearsInstance(duties=(), budgets=())
    with rec.span("reductions.normalize_arrears"):
        norm = sg.normalize_arrears(empty)
    with rec.span("reductions.arrears_to_spider"):
        sg.arrears_to_spider(norm)
    path = os.path.join(wl.workdir, "empty_arrears.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"duties": [], "budgets": []}, fh)
    args = ["reduce", path, "--from", "arrears", "--to", "spider"]
    with rec.span("cli.reduce"), contextlib.redirect_stdout(io.StringIO()):
        wl.cli.main(args)


class Gate(_Spider):
    """Clustering, r=2, one user on each of 13 legs, value-only run_dp."""

    name = "gate"
    pool_size = 16
    want_solution = False
    traced_op = ("fpt_solver.value",)

    def __init__(self, sg, cli, workdir):
        super().__init__(sg, cli, workdir)
        self._witnesses = {}

    def shape(self, rng, small):
        return _spider_raw(rng, legs=10 if small else 13, per_leg=1, r=2)

    def check(self, inst, run):
        # The value-only answer is compared with a validated witness of the
        # same instance, computed here, outside the timed loop, once per instance.
        witness = self._witnesses.get(id(inst))
        if witness is None:
            witness = self._witnesses[id(inst)] = self.sg.run_dp(inst, self.kind)
        errors = self.witness_errors(inst, witness)
        if witness.value != run.value:
            errors.append(f"value-only {run.value} != witness {witness.value}")
        if witness.stats.states != run.stats.states:
            errors.append("witness mode stored a different number of states")
        return errors


class Dense(_Spider):
    """Clustering, r=3, ten users on each of 7 legs, with a witness."""

    name = "dense"

    def shape(self, rng, small):
        return _spider_raw(rng, legs=2 if small else 7, per_leg=5 if small else 10, r=3)


class Gathering(_Spider):
    """Gathering, r=2, three users on each of 9 legs, 20 facilities."""

    name = "gathering"
    gathering = True

    def shape(self, rng, small):
        return _spider_raw(rng, legs=3 if small else 9, per_leg=3, r=2, facilities=20)


class Reduction:
    """Arrears instances reduced to spiders and solved through the CLI."""

    name = "reduction"
    pool_size = 64
    # Solve cost clusters tightly by (legs, r) and jumps between classes
    # (13k, 29k, 74k states at 13, 15, 16 legs), so one class keeps the
    # median over the pool from jumping with the seed.
    SHAPE = (15, 7)  # (legs, r)
    traced_op = ("cli.reduce", "cli.solve")
    traced_counts = {"reductions.spider_legs": "spider_legs", "reductions.feasible": "feasible"}

    def __init__(self, sg, cli, workdir):
        self.sg, self.cli, self.workdir = sg, cli, workdir

    def generate(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        while len(pool) < count:
            raw = _arrears_raw(rng, duties=3, budgets=2, max_options=2, max_day=6, max_amount=3)
            legs, _, r = reduced_shape(raw)
            if (legs, r) == self.SHAPE:
                pool.append(raw)
        return pool

    def build(self, index, raw):
        sg = self.sg
        path = os.path.join(self.workdir, f"arrears_{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"duties": [[{"a": a, "p": p} for a, p in opts] for opts in raw["duties"]],
                       "budgets": [{"b": b, "q": q} for b, q in raw["budgets"]]}, fh)
        arrears = sg.ArrearsInstance(duties=raw["duties"], budgets=raw["budgets"])
        return {"arrears": arrears, "path": path, "spider_path": path.replace("arrears_", "spider_")}

    def answer(self, item):
        cli = self.cli
        with open(item["spider_path"], "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            reduce_rc = cli.main(["reduce", item["path"], "--from", "arrears", "--to", "spider"])
        with contextlib.redirect_stdout(io.StringIO()) as out:
            solve_rc = cli.main(["solve", item["spider_path"]])
        with open(item["spider_path"], encoding="utf-8") as fh:
            spider = json.load(fh)
        solution = json.loads(out.getvalue())
        # The leg count comes from this pass's own spider, so every pass is
        # compared with the one before it; the file holds only the last pass.
        return {"rc": (reduce_rc, solve_rc), "solution": solution,
                "feasible": solution["value"] <= spider["threshold"],
                "spider_legs": len({u["leg"] for u in spider["users"]})}

    def solver_input(self, item):
        sg = self.sg
        return sg.arrears_to_spider(sg.normalize_arrears(item["arrears"])).instance, sg.CLUSTERING

    def _spider(self, item):
        with open(item["spider_path"], encoding="utf-8") as fh:
            return self.cli.spider_from_json(json.load(fh))

    def counts(self, item, result):
        return {"spider_legs": result["spider_legs"], "feasible": result["feasible"]}

    def _expected(self, item):
        if "expected" not in item:
            norm = self.sg.normalize_arrears(item["arrears"])
            item["expected"] = self.sg.brute_arrears(norm) is not None
        return item["expected"]

    def check(self, item, result):
        sg = self.sg
        errors = []
        if result["rc"] != (0, 0):
            errors.append(f"exit codes {result['rc']}")
        if result["feasible"] != self._expected(item):
            errors.append(f"verdict {result['feasible']}, brute_arrears says {self._expected(item)}")
        sol = result["solution"]
        try:
            sg.validate_clustering(self._spider(item), sg.Solution(clusters=sol["clusters"], value=sol["value"]))
        except sg.SolutionError as exc:
            errors.append(f"witness invalid: {type(exc).__name__}: {exc}")
        return errors

    def spot(self, rng):
        # Tiny arrears instances whose spider has at most 10 users, so the
        # brute-force clustering oracle can check the solver on this shape.
        sg = self.sg
        while True:
            raw = _arrears_raw(rng, duties=2, budgets=1, max_options=1, max_day=2, max_amount=1)
            if reduced_shape(raw)[1] <= 10:
                break
        arrears = sg.normalize_arrears(sg.ArrearsInstance(duties=raw["duties"], budgets=raw["budgets"]))
        red = sg.arrears_to_spider(arrears)
        run = sg.run_dp(red.instance)
        ref = sg.brute_clustering(red.instance)
        errors = []
        if ref is None or ref.value != run.value:
            errors.append(f"oracle says {ref and ref.value}, solver {run.value}")
        if (run.value <= red.threshold) != (sg.brute_arrears(arrears) is not None):
            errors.append("spot verdict disagrees with brute_arrears")
        return errors

    def trace(self, item, rec):
        sg, cli = self.sg, self.cli
        with rec.span("reductions.normalize_arrears"):
            norm = sg.normalize_arrears(item["arrears"])
        with rec.span("reductions.arrears_to_spider"):
            red = sg.arrears_to_spider(norm)
        spider = red.instance
        rec.count("reductions.spider_legs", len({p.leg for p in spider.users}))
        rec.count("reductions.spider_r", spider.r)
        path = os.path.join(self.workdir, "traced_spider.json")
        with rec.span("cli.reduce"), open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            cli.main(["reduce", item["path"], "--from", "arrears", "--to", "spider"])
        with rec.span("cli.solve"), contextlib.redirect_stdout(io.StringIO()) as out:
            cli.main(["solve", path])
        run, errors = _trace_solver(sg, rec, spider, sg.CLUSTERING)
        rec.count("reductions.feasible", run.value <= red.threshold)
        if json.loads(out.getvalue())["value"] != run.value:
            errors.append("cli solve disagrees with run_dp")
        return errors


WORKLOADS = {cls.name: cls for cls in (Gate, Dense, Gathering, Reduction)}
