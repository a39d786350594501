"""Instance transformations between the three problem layers.

Three constructions live here, each with enough bookkeeping to be checked
independently:

  * arrears -> spider: a payment-scheduling instance becomes a clustering
    decision instance (threshold 2L) with one long leg per duty and short
    legs encoding budget capacity.
  * one-in-three SAT -> arrears: the digit-vector gadget; payments are
    base-B numbers whose digit positions act as independent counters.
  * clustering -> gathering: doubling coordinates and opening a facility at
    every user position and pairwise midpoint makes the gathering optimum
    track the clustering optimum exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    MalformedInstanceError,
    PointOnSpider,
    SizeGuard,
    SpiderInstance,
    is_int,
)

log = logging.getLogger(__name__)

DEFAULT_USER_CEILING = 100_000


class ReductionTooLarge(RuntimeError):
    """The construction would exceed its configured output ceiling."""


@dataclass(frozen=True)
class ArrearsInstance:
    """Payment duties and budget constraints.

    duties[i] is the option list of duty i: (date, amount) pairs with dates
    strictly increasing. budgets[j] = (day, limit): the total amount paid on
    days <= day must stay within limit. Dates, days, amounts are ints >= 1;
    limits are ints >= 0 and days strictly increasing.
    """

    duties: tuple[tuple[tuple[int, int], ...], ...]
    budgets: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "duties", tuple(tuple(tuple(o) for o in opts) for opts in self.duties)
        )
        object.__setattr__(self, "budgets", tuple(tuple(b) for b in self.budgets))
        for i, options in enumerate(self.duties):
            if not options:
                raise MalformedInstanceError(f"duty {i} has no options")
            last_a = 0
            for a, p in options:
                if not is_int(a) or not is_int(p) or a < 1 or p < 1:
                    raise MalformedInstanceError(
                        f"duty {i} option ({a!r}, {p!r}) must be ints >= 1"
                    )
                if a <= last_a:
                    raise MalformedInstanceError(f"duty {i} dates must strictly increase")
                last_a = a
        last_b = 0
        for j, (b, q) in enumerate(self.budgets):
            if not is_int(b) or not is_int(q) or b < 1 or q < 0:
                raise MalformedInstanceError(f"budget {j} ({b!r}, {q!r}) out of range")
            if b <= last_b:
                raise MalformedInstanceError("budget days must strictly increase")
            last_b = b


@dataclass(frozen=True)
class ArrearsCheck:
    """Verdict for one choice vector: feasible, or the first violated budget."""

    feasible: bool
    violated_budget: Optional[int] = None  # 1-based position in budgets
    load: Optional[int] = None
    limit: Optional[int] = None


def check_arrears(instance: ArrearsInstance, z: Sequence[int]) -> ArrearsCheck:
    """Check one choice vector (1-based option index per duty).

    Raises IndexError for a vector of the wrong length or an out-of-range
    choice; note that 0 and negative indices are rejected rather than being
    interpreted as wraparound.
    """
    if len(z) != len(instance.duties):
        raise IndexError(f"expected {len(instance.duties)} choices, got {len(z)}")
    chosen: list[tuple[int, int]] = []
    for i, zi in enumerate(z):
        options = instance.duties[i]
        if not is_int(zi) or zi < 1 or zi > len(options):
            raise IndexError(f"choice {zi!r} for duty {i} not in 1..{len(options)}")
        chosen.append(options[zi - 1])
    for j, (day, limit) in enumerate(instance.budgets):
        load = sum(p for a, p in chosen if a <= day)
        if load > limit:
            return ArrearsCheck(feasible=False, violated_budget=j + 1, load=load, limit=limit)
    return ArrearsCheck(feasible=True)


def normalize_arrears(instance: ArrearsInstance) -> ArrearsInstance:
    """Drop dominated options, free duties, and slack budgets.

    Feasibility is unchanged. An option is dominated when another option of
    the same duty has a date at least as late and an amount at most as large
    (paying later and less never hurts any budget). A duty is free when one
    of its options is dated after the last budget day: that payment is counted
    by no budget, so the duty can always be settled without touching the rest
    of the instance. A budget is slack when another one has a day at least as
    late and a limit at most as large. The survivors have strictly increasing
    amounts and limits and all dates within the budget horizon, which the
    spider construction requires to mirror feasibility exactly.
    """
    horizon = instance.budgets[-1][0] if instance.budgets else 0
    duties = []
    dropped_options = 0
    dropped_duties = 0
    for options in instance.duties:
        if options[-1][0] > horizon:
            dropped_duties += 1
            continue
        kept: list[tuple[int, int]] = []
        # Scan from the latest date; an option survives iff its amount is
        # strictly below every later amount.
        best_p: Optional[int] = None
        for a, p in reversed(options):
            if best_p is None or p < best_p:
                kept.append((a, p))
                best_p = p
            else:
                dropped_options += 1
        kept.reverse()
        duties.append(tuple(kept))
    budgets: list[tuple[int, int]] = []
    best_q: Optional[int] = None
    dropped_budgets = 0
    for b, q in reversed(instance.budgets):
        if best_q is None or q < best_q:
            budgets.append((b, q))
            best_q = q
        else:
            dropped_budgets += 1
    budgets.reverse()
    if dropped_options or dropped_duties or dropped_budgets:
        log.debug(
            "normalized arrears: dropped %d dominated options, %d free duties,"
            " %d slack budgets",
            dropped_options,
            dropped_duties,
            dropped_budgets,
        )
    return ArrearsInstance(duties=tuple(duties), budgets=tuple(budgets))


@dataclass(frozen=True)
class SpiderReduction:
    """Output of arrears_to_spider: the decision instance and its threshold.

    For a normalized arrears instance, feasibility is equivalent to the
    spider instance admitting a clustering of value <= threshold = 2L, where
    L exceeds every date and budget day. duty_legs[i] is the long leg built
    for duty i as given; the remaining legs are short (one user each). The
    arrears instance itself is not kept: it is the caller's input.
    """

    instance: SpiderInstance
    threshold: int
    duty_legs: tuple[int, ...]


def arrears_to_spider(
    instance: ArrearsInstance, *, user_ceiling: int = DEFAULT_USER_CEILING
) -> SpiderReduction:
    """Build the clustering decision instance and threshold for an arrears instance.

    Long leg i carries duty i's users: r far users pinning an end cluster,
    and one user per unit of payment placed at 2L - date, so that a budget
    day's capacity is exactly the set of short legs reachable within the
    threshold. Short legs carry one user each: q_j - q_{j-1} of length
    b_{j-1} + 1 per budget j, plus r of length L.

    The construction applies the placement formulas to the instance as given.
    Threshold feasibility mirrors arrears feasibility exactly when the
    instance is normalized first (see normalize_arrears); in particular every
    date must lie within the budget horizon, since a payment dated after the
    last budget day is free on the arrears side but its long leg still
    competes for short legs here.
    """
    max_a = max((opts[-1][0] for opts in instance.duties), default=0)
    max_p = max((opts[-1][1] for opts in instance.duties), default=0)
    b_last, q_last = instance.budgets[-1] if instance.budgets else (0, 0)
    L = max(max_a, b_last) + 1
    r = max(max_p, q_last) + 1

    n_users = sum(2 * r - opts[0][1] for opts in instance.duties) + q_last + r
    if n_users > user_ceiling:
        raise ReductionTooLarge(
            f"construction needs {n_users} users, ceiling is {user_ceiling}"
        )

    users: list[PointOnSpider] = []
    duty_legs = tuple(range(1, len(instance.duties) + 1))
    for leg, options in zip(duty_legs, instance.duties):
        users.extend([PointOnSpider(leg, 4 * L - options[-1][0] + 1)] * r)
        for (a_k, p_k), (_, p_next) in zip(options, options[1:]):
            users.extend([PointOnSpider(leg, 2 * L - a_k)] * (p_next - p_k))
        users.extend([PointOnSpider(leg, 2 * L - options[-1][0])] * (r - options[-1][1]))

    next_leg = len(instance.duties) + 1
    prev_b, prev_q = 0, 0
    for b, q in instance.budgets:
        for _ in range(q - prev_q):
            users.append(PointOnSpider(next_leg, prev_b + 1))
            next_leg += 1
        prev_b, prev_q = b, q
    for _ in range(r):
        users.append(PointOnSpider(next_leg, L))
        next_leg += 1

    spider = SpiderInstance(d=next_leg - 1, users=tuple(users), facilities=None, r=r)
    return SpiderReduction(instance=spider, threshold=2 * L, duty_legs=duty_legs)


@dataclass(frozen=True)
class CnfFormula:
    """A one-in-three SAT formula: clauses are triples of nonzero literals.

    Literal +v / -v stands for variable v / its negation, 1 <= v <= num_vars.
    A clause may repeat a literal; truth is counted per occurrence.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if not is_int(self.num_vars) or self.num_vars < 1:
            raise MalformedInstanceError(f"num_vars must be >= 1, got {self.num_vars!r}")
        for clause in self.clauses:
            if len(clause) != 3:
                raise MalformedInstanceError(f"clause {clause} must have 3 literals")
            for lit in clause:
                if not is_int(lit) or lit == 0 or abs(lit) > self.num_vars:
                    raise MalformedInstanceError(f"bad literal {lit!r} in {clause}")


def satisfies_one_in_three(formula: CnfFormula, assignment: Sequence[bool]) -> bool:
    """True iff every clause has exactly one true literal occurrence."""
    if len(assignment) != formula.num_vars:
        raise IndexError(f"expected {formula.num_vars} values, got {len(assignment)}")
    for clause in formula.clauses:
        true_count = sum(
            1 for lit in clause if assignment[abs(lit) - 1] == (lit > 0)
        )
        if true_count != 1:
            return False
    return True


@dataclass(frozen=True)
class _Item:
    """One payment duty of the gadget, with its group membership."""

    variable: int  # 1-based
    positive_side: bool  # True for the plain-literal side, False for the negated side
    p1: int
    a2: int


def _gadget_items(formula: CnfFormula) -> list[_Item]:
    """All duties of the gadget in canonical order.

    Per variable i: the 3m clause-slot items of the plain side, the 3m of the
    negated side, then the 3m(m+1)+1 filler items of each side. The filler
    items top the side's first-payment total up to the common value R_i, and
    one extra item on the negated side compensates for the factor (B+1) that
    only the plain side's payments carry.
    """
    n, m = formula.num_vars, len(formula.clauses)
    B = 100 * max(n, 1) ** 2 * max(m, 1) ** 2
    fill = 3 * m * (m + 1)
    items: list[_Item] = []
    for i in range(1, n + 1):
        pos_slots: list[_Item] = []
        neg_slots: list[_Item] = []
        for j, clause in enumerate(formula.clauses, start=1):
            for lit in clause:
                if lit == i:
                    pos_slots.append(_Item(i, True, (B * B + i) * (B + 1) * B + (j + 1), n + 2 + j))
                else:
                    pos_slots.append(_Item(i, True, (B * B + i) * (B + 1) * B, n + 1))
                if lit == -i:
                    neg_slots.append(_Item(i, False, (B * B + i) * B * B + (j + 1), n + 2 + j))
                else:
                    neg_slots.append(_Item(i, False, (B * B + i) * B * B, n + 1))
        k_pos = sum(item.p1 % B for item in pos_slots)
        k_neg = sum(item.p1 % B for item in neg_slots)
        items.extend(pos_slots)
        items.extend(neg_slots)
        for l in range(1, fill + 2):
            if l <= fill - k_pos:
                items.append(_Item(i, True, (B * B + i) * (B + 1) * B + 1, n + 2))
            else:
                items.append(_Item(i, True, (B * B + i) * (B + 1) * B, n + 1))
        for l in range(1, fill + 2):
            if l <= fill - k_neg:
                items.append(_Item(i, False, (B * B + i) * B * B + 1, n + 2))
            elif l <= fill:
                items.append(_Item(i, False, (B * B + i) * B * B, n + 1))
            else:
                items.append(_Item(i, False, (B * B + i) * (B + 3 * m * (m + 2) + 1) * B, n + 1))
    return items


def _digits(value: int, base: int) -> tuple[int, ...]:
    """Base-`base` digits of value, least significant first, 5 positions."""
    out = []
    for _ in range(5):
        value, digit = divmod(value, base)
        out.append(digit)
    if value:
        raise ValueError(f"value does not fit in 5 base-{base} digits")
    return tuple(out)


@dataclass(frozen=True)
class GadgetReport:
    """The gadget instance plus everything needed to audit it."""

    formula: CnfFormula
    instance: ArrearsInstance
    base: int
    per_variable_items: tuple[int, ...]
    side_sums: tuple[tuple[int, int], ...]  # (plain side, negated side) per variable
    expected_side_sum: tuple[int, ...]  # the common target value per variable
    total: int  # sum of expected side sums
    digit_sums: tuple[int, ...]  # per digit position, over all first payments


def sat_to_arrears(formula: CnfFormula) -> tuple[ArrearsInstance, GadgetReport]:
    """Build the arrears instance whose feasibility means one-in-three satisfiability.

    Every duty has two options: pay p1 on day i (its variable's index) or
    2*p1 on a later day determined by group membership. The budget vector
    forces, per variable, one whole side to defer, and the per-day budgets
    read off base-B digit counters that add up iff every clause has exactly
    one true literal.
    """
    n, m = formula.num_vars, len(formula.clauses)
    B = 100 * max(n, 1) ** 2 * max(m, 1) ** 2
    c = 3 * m * (m + 2) + 1
    items = _gadget_items(formula)
    duties = tuple(
        ((item.variable, item.p1), (item.a2, 2 * item.p1)) for item in items
    )

    expected = tuple(
        c * (B * B + i) * (B + 1) * B + 3 * m * (m + 1) for i in range(1, n + 1)
    )
    total = sum(expected)
    budgets: list[tuple[int, int]] = []
    for day in range(1, n + m + 3):
        if day <= n - 1:
            q = c * (B + 1) * day * B**3 + (B**3 - 1)
        elif day == n:
            q = total
        elif day == n + 1:
            q = (c * n + 6 * m * n + 2 * n + m * (m + 1)) * B**4 + (B**4 - 1)
        elif day <= n + m + 1:
            q = (3 * c * n - 2 * (n + m + 2 - day)) * B**4 + (B**4 - 1)
        else:
            q = 3 * total
        budgets.append((day, q))

    instance = ArrearsInstance(duties=duties, budgets=tuple(budgets))

    counts = [0] * n
    sums = [[0, 0] for _ in range(n)]
    digit_sums = [0] * 5
    for item in items:
        counts[item.variable - 1] += 1
        sums[item.variable - 1][0 if item.positive_side else 1] += item.p1
        for k, digit in enumerate(_digits(item.p1, B)):
            digit_sums[k] += digit
    report = GadgetReport(
        formula=formula,
        instance=instance,
        base=B,
        per_variable_items=tuple(counts),
        side_sums=tuple((a, b) for a, b in sums),
        expected_side_sum=expected,
        total=total,
        digit_sums=tuple(digit_sums),
    )
    return instance, report


def assignment_to_choice(formula: CnfFormula, assignment: Sequence[bool]) -> tuple[int, ...]:
    """The canonical choice vector for a truth assignment.

    A true variable defers its whole plain side (those duties take option 2);
    a false variable defers its negated side. Duty order matches
    sat_to_arrears.
    """
    if len(assignment) != formula.num_vars:
        raise IndexError(f"expected {formula.num_vars} values, got {len(assignment)}")
    z = []
    for item in _gadget_items(formula):
        late = assignment[item.variable - 1] == item.positive_side
        z.append(2 if late else 1)
    return tuple(z)


def verify_gadget(
    report: GadgetReport, *, assignment_guard: int = 12
) -> list[tuple[str, bool]]:
    """Audit a gadget instance; returns (check name, passed) pairs.

    The structural checks recompute the intended invariants from scratch; the
    last check sweeps all 2^n assignments (guarded) and compares the
    canonical choice vector's feasibility with one-in-three satisfaction.
    """
    formula = report.formula
    n, m = formula.num_vars, len(formula.clauses)
    B = report.base
    c = 3 * m * (m + 2) + 1
    expected = tuple(
        c * (B * B + i) * (B + 1) * B + 3 * m * (m + 1) for i in range(1, n + 1)
    )
    checks: list[tuple[str, bool]] = []
    checks.append(
        ("per-variable duty count", all(k == 6 * m * (m + 2) + 2 for k in report.per_variable_items))
    )
    checks.append(
        (
            "both sides of each variable sum to the same target",
            report.expected_side_sum == expected
            and all(
                pair == (expected[i], expected[i])
                for i, pair in enumerate(report.side_sums)
            ),
        )
    )
    budgets = report.instance.budgets
    checks.append(
        (
            "variable-days budget equals the one-sided total",
            report.total == sum(expected) and budgets[n - 1] == (n, report.total),
        )
    )
    checks.append(
        (
            "final budget triples the one-sided total",
            budgets[-1] == (n + m + 2, 3 * report.total),
        )
    )
    checks.append(
        ("digit sums small enough to avoid carries", all(3 * s < B for s in report.digit_sums))
    )
    checks.append(
        ("budget limits strictly increase", all(q1 < q2 for (_, q1), (_, q2) in zip(budgets, budgets[1:])))
    )
    if n > assignment_guard:
        raise SizeGuard(f"assignment sweep limited to {assignment_guard} variables, got {n}")
    sweep_ok = True
    for bits in range(1 << n):
        assignment = tuple(bool(bits >> i & 1) for i in range(n))
        z = assignment_to_choice(formula, assignment)
        feasible = check_arrears(report.instance, z).feasible
        if feasible != satisfies_one_in_three(formula, assignment):
            sweep_ok = False
            break
    checks.append(("canonical choices feasible iff one-in-three satisfied", sweep_ok))
    return checks


def clustering_to_gathering(instance: SpiderInstance) -> SpiderInstance:
    """Turn a clustering instance into an equivalent gathering instance.

    Coordinates are doubled (so midpoints are integral) and a facility opens
    at every user position and every pairwise midpoint. Any cluster's best
    facility radius then equals half its diameter, so the gathering optimum
    of the result is exactly the clustering optimum of the input. Existing
    facilities on the input are ignored.
    """
    users = tuple(PointOnSpider(p.leg, 2 * p.x) for p in instance.users)
    spots = {(p.leg, p.x) for p in users}
    for a in range(len(users)):
        for b in range(a + 1, len(users)):
            p, q = users[a], users[b]
            if p.leg == q.leg:
                spots.add((p.leg, (p.x + q.x) // 2))
            else:
                hi, lo = (p, q) if p.x >= q.x else (q, p)
                spots.add((hi.leg, (hi.x - lo.x) // 2))
    facilities = tuple(PointOnSpider(leg, x) for leg, x in sorted(spots))
    return SpiderInstance(d=instance.d, users=users, facilities=facilities, r=instance.r)
