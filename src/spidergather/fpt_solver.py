"""Exact solver for min-max r-gather clustering and r-gathering on spiders.

Parameterized by the number of user-bearing legs d. The solver sweeps users
in ascending coordinate order while building at most one multi-leg cluster
at a time. A multi-leg cluster consists of a "ball" part (users near the
center, collected one by one during the sweep, at most 2r-1 of them) and a
"segment" part (a contiguous run on a single leg further out, committed in
one step when the cluster closes). Once a leg stops participating, its
remaining users are finished off by the single-leg suffix solver.

The DP state after the i-th swept user u is (S, j): S the set of legs still
participating, j the size of the open ball. An optimal solution only ever
needs ball users among the first min(n_l, (2r-1) d) users of each leg (there
are at most d multi-leg clusters, each with fewer than 2r ball users), so the
sweep visits just those; users beyond the cut can still appear in segments
and suffix completions. From each state of the previous layer, u's layer
takes "b" (u joins the ball), "c" (u's leg already retired: keep the state)
and "d" (retire u's leg, finishing it single-leg from u); then it closes the
balls that grew with u. The comment above the closes in run_dp says which
states a layer need not store.

The stored-state count (SolveStats.states) is what the parameter buys: a
layer is keyed by subsets of legs times the 2r-1 ball sizes. Legs that are
copies of each other cut that down: _group_ends says where a layer keeps one
key for all the keys that differ only in which copies S holds. Two engines
store the same states: the dict DP in run_dp, which maps each key
S << shift_s | j to the least max cluster cost that reaches it, and
_bitset_value. _bitsets_pay picks one, _ceiling says where both check the
state ceiling, and _walk how a witness run walks back.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .cost_oracle import FacilityIndex, best_facility
from .line_suffix import SuffixRow, suffix_costs_clustering, suffix_costs_gathering
from .model import (
    Cost,
    INFEASIBLE,
    Normalized,
    PointOnSpider,
    SizeGuard,
    Solution,
    SpiderInstance,
    distance,
    normalize,
    validate_clustering,
    validate_gathering,
)

CLUSTERING = "clustering"
GATHERING = "gathering"

DEFAULT_ENUM_NODE_BUDGET = 5_000_000
DEFAULT_STATE_CEILING = 1_000_000
BITSET_BITS = (1 << 9, 1 << 21)  # least and most bits of a bitset layer


class StateCeilingExceeded(SizeGuard):
    """The sweep DP stored more states than its ceiling allows."""


@dataclass(frozen=True)
class SolveStats:
    """Size measurements of one DP run."""

    states: int  # keys stored over all layers after the quotient; infeasible ones never
    swept_users: int
    legs: int


@dataclass(frozen=True)
class DpRun:
    """Full result of one DP run: optimal value, witness, measurements."""

    value: Cost
    solution: Optional[Solution]
    stats: SolveStats


def prune(instance: SpiderInstance) -> tuple[int, ...]:
    """Positions of the users the DP sweeps, on a normalized instance.

    Per leg: its first min(n_l, (2r-1) d) users in coordinate order, where d
    counts user-bearing legs. Positions come back in global sorted order.
    The instance must already be in canonical user order (see normalize).
    """
    d_users = len({u.leg for u in instance.users})
    bound = (2 * instance.r - 1) * d_users
    taken: dict[int, int] = {}
    kept = []
    for pos, u in enumerate(instance.users):
        c = taken.get(u.leg, 0)
        if c < bound:
            kept.append(pos)
            taken[u.leg] = c + 1
    return tuple(kept)


@dataclass
class _Prep:
    """Shared precomputation on a normalized instance."""

    inst: SpiderInstance
    kind: str
    n: int
    r: int
    d_users: int
    points: tuple[PointOnSpider, ...]
    xs: list[int]
    legs: list[int]
    leg_members: list[list[int]]  # by leg-1: global positions, ascending
    rank_in_leg: list[int]
    suffix: list[SuffixRow]  # by leg-1
    fac_index: Optional[FacilityIndex]
    classes: tuple[tuple[int, ...], ...]  # legs-1 of each set of two or more identical legs

    def r_minus(self, pos: int) -> Cost:
        """Cost of finishing pos's leg single-leg from pos on (pos included)."""
        leg = self.legs[pos]
        members = self.leg_members[leg - 1]
        return self.suffix[leg - 1].values[len(members) - self.rank_in_leg[pos]]


def _prepare(inst: SpiderInstance, kind: str) -> _Prep:
    if kind not in (CLUSTERING, GATHERING):
        raise ValueError(f"unknown problem kind {kind!r}")
    points = inst.users
    n = len(points)
    xs = [p.x for p in points]
    legs = [p.leg for p in points]
    d_users = max(legs, default=0)  # user-bearing legs are 1..d_users after normalize
    leg_members: list[list[int]] = [[] for _ in range(d_users)]
    rank_in_leg = [0] * n
    for pos, leg in enumerate(legs):
        rank_in_leg[pos] = len(leg_members[leg - 1])
        leg_members[leg - 1].append(pos)

    fac_index: Optional[FacilityIndex] = None
    suffix: list[SuffixRow] = []
    if kind == CLUSTERING:
        for members in leg_members:
            suffix.append(suffix_costs_clustering([xs[p] for p in members], inst.r))
    else:
        fac_index = FacilityIndex(inst.facilities or ())
        for leg0, members in enumerate(leg_members):
            suffix.append(
                suffix_costs_gathering([xs[p] for p in members], leg0 + 1, fac_index, inst.r)
            )

    # Legs are identical when their users, and for gathering their facilities,
    # lie at the same coordinates: the map between same-rank users on two of
    # them is then a symmetry of the instance. Sorted by those coordinates,
    # identical legs are next to each other.
    ys = fac_index.ys if fac_index is not None else {}
    shapes = []
    for leg0, members in enumerate(leg_members):
        shapes.append([ys.get(leg0 + 1, ()), *map(xs.__getitem__, members)])
    by_shape = sorted(range(d_users), key=shapes.__getitem__)
    classes = []
    start = 0
    for k in range(1, d_users + 1):
        if k == d_users or shapes[by_shape[k]] != shapes[by_shape[start]]:
            if k - start > 1:
                classes.append(tuple(by_shape[start:k]))
            start = k
    classes.sort()

    return _Prep(
        inst=inst,
        kind=kind,
        n=n,
        r=inst.r,
        d_users=d_users,
        points=points,
        xs=xs,
        legs=legs,
        leg_members=leg_members,
        rank_in_leg=rank_in_leg,
        suffix=suffix,
        fac_index=fac_index,
        classes=tuple(classes),
    )


def run_dp(
    instance: SpiderInstance,
    kind: str = CLUSTERING,
    *,
    use_pruning: bool = True,
    want_solution: bool = True,
    max_states: int = DEFAULT_STATE_CEILING,
) -> DpRun:
    """Run the DP on any instance; see solve for the common entry point.

    With use_pruning=False the sweep visits every user (useful as a
    self-check; the answer must not change). With want_solution=False only
    the optimal value and stats are computed. Fewer users than r is
    infeasible before any sweep. StateCeilingExceeded is raised once the
    sweep has stored more than max_states states.
    """
    norm = normalize(instance)
    prep = _prepare(norm.instance, kind)
    n, r, d_users = prep.n, prep.r, prep.d_users
    if r > n:  # every cluster holds at least r users; no sweep, no O(r^2) table
        return DpRun(INFEASIBLE, None, SolveStats(0, 0, 0))

    sweep = prune(norm.instance) if use_pruning else tuple(range(n))
    ends = _group_ends(prep, sweep) if prep.classes else {}
    shift_s = (2 * r).bit_length()
    if _bitsets_pay(r, d_users, len(sweep)):
        kept: Optional[list[int]] = [] if want_solution else None
        value, states = _bitset_value(prep, sweep, ends, max_states, kept)
        stats = SolveStats(states, len(sweep), d_users)
        if value == INFEASIBLE or kept is None:
            return DpRun(value, None, stats)
        final = kept[-1]
        steps, moves = _walk(prep, sweep, kept, (final & -final).bit_length() - 1, 2 * r - 1,
                             value, lambda layer, key: bool(layer >> key & 1), ends)
        return DpRun(value, _reconstruct(prep, norm, sweep, steps, moves, value), stats)

    live = _live(prep, sweep, 1 << shift_s)
    mask_j = (1 << shift_s) - 1
    full_s = (1 << d_users) - 1
    cap = 2 * r - 1
    # lows[c][k]: the key bits of class c's k lowest legs; lows[c][-1] is all of c
    lows = {c: [sum(1 << (leg0 + shift_s) for leg0 in c[:k]) for k in range(len(c) + 1)]
            for c in prep.classes}
    prev: dict[int, Cost] = {full_s << shift_s: 0}
    layers: list[dict[int, Cost]] = []  # a witness run's finished value layers
    states = 1  # the initial layer

    for u_pos, live_u in zip(sweep, live):
        u_s = 1 << (prep.legs[u_pos] - 1 + shift_s)
        # "b", "c" and "d" make at most two keys from each previous key, so
        # only a layer that could pass the ceiling counts the keys "c" keeps.
        if states + 2 * len(prev) > max_states and u_pos not in ends:
            kept = states + sum(1 for key in prev if not key & u_s)
            if kept > max_states:
                raise _ceiling(kept, max_states)
        cur: dict[int, Cost] = {}
        grown: list[int] = []  # keys of the balls that u joined, each once

        r_minus_u = prep.r_minus(u_pos)
        for key, val in prev.items():
            if key & u_s:
                j = key & mask_j
                if j < cap - 1:  # grow the ball with u; 2r-1 users cannot close:
                    # a close adds a segment user, and a cluster of 2r or more
                    # splits into two of r or more at no higher cost.
                    # (S, j) is the only state that grows into (S, j + 1), and
                    # "c" and "d" keys lack u's leg, so the key is new.
                    nkey = key + 1
                    if nkey & live_u:
                        cur[nkey] = val
                        grown.append(nkey)
                if r_minus_u != INFEASIBLE:  # retire u's leg, finish it single-leg
                    nkey = key - u_s
                    if not j or nkey & live_u:
                        nv = val if val >= r_minus_u else r_minus_u
                        if nkey not in cur or nv < cur[nkey]:
                            cur[nkey] = nv
            else:  # u's leg already retired; u was consumed earlier or will be later
                # An open key was live on the previous layer and lacks u's
                # leg, so it is still live.
                if key not in cur or val < cur[key]:
                    cur[key] = val

        # A witness run keeps the previous layer for _walk; a value-only
        # run releases it before the closes grow this one.
        if want_solution:
            layers.append(prev)
        prev = cur
        if states + len(cur) > max_states and u_pos not in ends:
            raise _ceiling(states + len(cur), max_states)

        # Close the open cluster with a segment of p users on an active leg
        # just beyond u. Only the balls that grew with u are closed. Any other
        # open ball came through "c" or "d" from a ball that the previous
        # layer closed with the same segments, and those closed states reach
        # this layer through the same "c" or "d" step at no higher value. The
        # segments are the same because no unswept user of an active leg lies
        # between two sweep positions while a ball can still close: closable
        # balls hold at most 2r-2 users and each close retires a leg, so the
        # balls have taken at most (2r-2)d users, fewer than the (2r-1)d that
        # prune sweeps on a cut leg.
        #
        # So a ball is closed only on the layer of its last user, and its
        # close cost depends only on the leg and p. Nothing else reads which
        # user an open ball took last: "b" replaces it with u, and no open
        # ball outlives the last layer. Two open balls with the same (S, j)
        # have the same future, so the layer keeps only the cheaper one.
        #
        # An open ball whose S holds no leg with a later swept user (live_u)
        # has no close on this layer either, so "b" and "d" drop it at once:
        # by the count above, every user of an active leg up to prune's cut is
        # swept, so a leg of S with a user beyond u has a later swept user.
        #
        # No ball is closed on u's own leg, because "c" or "d" reaches the
        # same closed state at no higher value. A ball of u alone closed there
        # is a single-leg cluster, and "d" finishes the leg from u at the
        # suffix optimum, which is at most that cluster with its leftover. A
        # larger ball was closed with the same users on the layer of its
        # previous user (with the segment starting at u, as above), or on an
        # earlier one by the same argument, and that closed state reaches this
        # layer through "c": both close costs grow with the ball's last
        # coordinate, so moving it back from u costs no more.
        sizes, held = set(), 0
        for key in grown:
            sizes.add(key & mask_j)
            held |= key
        rows = dict(_close_rows(prep, u_pos, sizes, lambda l_s: held & l_s, 1 << shift_s))
        for key in grown:
            val = cur[key]
            j = key & mask_j
            closed = key - j
            for c, l_s in rows.get(j, ()):
                if key & l_s:
                    nv = val if val >= c else c
                    nkey = closed ^ l_s
                    old = cur.get(nkey)
                    if old is None or nv < old:
                        cur[nkey] = nv

        if u_pos in ends:  # keep each orbit's canonical key at the orbit's least value
            merged: dict[int, Cost] = {}
            for key, val in cur.items():
                for c in ends[u_pos]:
                    held = key & lows[c][-1]
                    key ^= held ^ lows[c][held.bit_count()]
                if key not in merged or val < merged[key]:
                    merged[key] = val
            cur = prev = merged

        states += len(cur)
        if states > max_states:
            raise _ceiling(states, max_states)

    # A leg still active in a final state has put every swept user in one of
    # at most d-1 closed balls of at most 2r-2 users, fewer than the (2r-1)d
    # that prune sweeps on a cut leg, so it has no unswept user left.
    value, best_key = INFEASIBLE, 0
    for key, val in prev.items():
        if val < value:
            value, best_key = val, key

    stats = SolveStats(states=states, swept_users=len(sweep), legs=d_users)
    if value == INFEASIBLE or not want_solution:
        return DpRun(value, None, stats)

    layers.append(prev)
    steps, moves = _walk(prep, sweep, layers, best_key, 1 << shift_s, value,
                         lambda layer, key: layer.get(key, INFEASIBLE) <= value, ends)
    solution = _reconstruct(prep, norm, sweep, steps, moves, value)
    return DpRun(value, solution, stats)


def _bitsets_pay(r: int, d_users: int, swept: int) -> bool:
    """Bitsets pay when r > 1, the sweep holds r/2 users per leg or more and
    the (2r-1) 2^d-bit layers fit BITSET_BITS: the dict DP is faster on sparser
    or narrower layers, and wider ones make masks of several MB.
    """
    low, high = BITSET_BITS
    return r > 1 and 2 * swept >= r * d_users and low <= (2 * r - 1) << d_users <= high


def _ceiling(states: int, max_states: int) -> StateCeilingExceeded:
    """The error once a run's stored states pass max_states.

    Both engines check before a layer is built (with the keys "c" keeps),
    after its "b", "c" and "d" steps, and after its closes. A layer at a group
    end (see _group_ends) may shrink after its closes, so only its final count
    is checked: a run stops exactly when its stored states pass max_states.
    """
    return StateCeilingExceeded(f"sweep DP stored {states} states, ceiling is {max_states}")


def _live(prep: _Prep, sweep: tuple[int, ...], unit: int) -> list[int]:
    """live[i]: the legs with a swept user after sweep[i], as S times unit."""
    live = [0] * len(sweep)
    later = 0
    for i in range(len(sweep) - 1, -1, -1):
        live[i] = later * unit
        later |= 1 << (prep.legs[sweep[i]] - 1)
    return live


def _close_rows(
    prep: _Prep, u_pos: int, sizes: Iterable[int], holds: Callable[[int], object], unit: int
) -> list[tuple[int, list[tuple[Cost, int]]]]:
    """The cheapest closes of the balls that end at u_pos, one row per ball size.

    Returns (j, row) for each size j in sizes whose row is not empty. The row
    lists (cost, l_s), sorted by cost, for each leg other than u_pos's that has
    a user beyond u_pos and that holds(l_s) accepts, where l_s is the leg's S
    bit times unit, the step of the leg in a key: the close of a grown key
    (S, j) on that leg reaches key - j - l_s. The cost is the least
    max(close cost, leftover) over the admissible segment sizes,
    r-j <= p <= 2r-1-j, that is the minimum of the leg's _close_costs over
    j's window; a leg whose window holds no finite cost is left out.
    """
    r, cap = prep.r, 2 * prep.r - 1
    u_leg0 = prep.legs[u_pos] - 1
    near = []  # (l_s, close costs) of the legs that the rows may list
    for leg0, members in enumerate(prep.leg_members):
        l_s = unit << leg0
        if members[-1] > u_pos and leg0 != u_leg0 and holds(l_s):
            near.append((l_s, _close_costs(prep, u_pos, leg0)))
    rows = []
    for j in sizes if near else ():
        lo, hi = max(r - j, 1) - 1, cap - j
        row = []
        for l_s, costs in near:
            c = min(costs[lo:hi]) if lo < len(costs) else INFEASIBLE
            if c != INFEASIBLE:
                row.append((c, l_s))
        if row:
            rows.append((j, sorted(row)))
    return rows


def _bitset_value(
    prep: _Prep,
    sweep: tuple[int, ...],
    ends: dict[int, tuple[tuple[int, ...], ...]],
    max_states: int,
    layers: Optional[list[int]],
) -> tuple[Cost, int]:
    """The optimum and the stored-state count of a run, by bitsets.

    A layer is one int with bit S * (2r-1) + j set for each stored state (S, j),
    denser than the dict DP's keys, whose j field has 2^shift_s values for
    2r-1 sizes. Each transition moves keys by one offset, so it is a shift and
    a mask per layer. With A = L & M_u the keys of layer L that hold u's leg,
    "c" keeps L ^ A, "b" is ((A & J_grow) << 1) & ALIVE, "d" is
    (A >> u_s) & ALIVE, and the closes on leg l of the grown balls of size j
    are (B & J_j & M_l) >> (j + l_s), where B is the "b" result. ALIVE holds
    the closed keys and the open keys whose S has a leg with a later swept
    user; its complement grows by one shift when a leg's last swept user
    passes. At a group end, legs a < b of a class swap by T = L & M_b & ~M_a,
    L = (L ^ T) | (T >> (b_s - a_s)), and a bubble sort of such swaps moves
    the class's legs in S to its lowest ones.

    A bitset holds no values. One unbounded pass takes "d" and the closes only
    at finite costs, as the dict DP stores finite values only, so it reaches
    exactly the dict DP's keys: it counts them as the dict DP does, and keeps
    each layer's close rows for the sizes and legs of B. Every bounded pass
    reaches a subset of its keys, so no other close fires in one. The optimum
    is the least T, 0, a finite r_minus or a row's cost, at which a pass that
    refuses every step costing more than T still reaches the final layer: a
    binary search finds it. Given a list, layers, it gets the layers of the
    last feasible search pass, which ran at T, the initial one first; one more
    pass at T fills it when the search had no feasible pass.
    """
    r, d_users, legs, leg_members = prep.r, prep.d_users, prep.legs, prep.leg_members
    cap = 2 * r - 1
    size = cap << d_users
    every = (1 << size) - 1

    def tile(pattern: int, period: int) -> int:
        while period < size:
            pattern |= pattern << period
            period <<= 1
        return pattern & every

    leg_mask = {}
    for leg0 in range(d_users):
        l_s = cap << leg0
        leg_mask[l_s] = tile(((1 << l_s) - 1) << l_s, 2 * l_s)
    j_mask = [tile(1 << j, cap) for j in range(cap)]
    grow = tile((1 << (cap - 1)) - 1, cap)
    full_s = ((1 << d_users) - 1) * cap
    live = _live(prep, sweep, cap)
    r_minus = [prep.r_minus(u_pos) for u_pos in sweep]
    tables: list[list[tuple[int, list[tuple[Cost, int]]]]] = []
    quotient = {}  # by group end: the (a_s, b_s) of its classes' swaps, in bubble sort order
    for pos, listed in ends.items():
        quotient[pos] = [(cap << c[k], cap << c[k + 1]) for c in listed
                         for top in range(len(c) - 1) for k in range(len(c) - 2, top - 1, -1)]

    def sweep_at(bound: Cost, keep: Optional[list[int]] = None) -> tuple[int, int]:
        first = not tables
        layer, states, count = 1 << full_s, 1, 1
        dead, was = (1 << cap) - 2, full_s  # the open keys of S = {}; no closed key is dead
        alive = every ^ dead
        if keep is not None:
            keep.append(layer)
        for i, u_pos in enumerate(sweep):
            if live[i] != was:
                dead |= dead << (was - live[i])
                was = live[i]
                alive = every ^ dead
            u_s = cap << (legs[u_pos] - 1)
            a = layer & leg_mask[u_s]
            if first and states + 2 * count > max_states and u_pos not in quotient:
                kept = states + count - a.bit_count()
                if kept > max_states:
                    raise _ceiling(kept, max_states)
            b = ((a & grow) << 1) & alive
            cur = (layer ^ a) | b
            if r_minus[i] != INFEASIBLE and r_minus[i] <= bound:
                cur |= (a >> u_s) & alive
            if first:
                built = states + cur.bit_count()
                if built > max_states and u_pos not in quotient:
                    raise _ceiling(built, max_states)
                tables.append(
                    _close_rows(prep, u_pos, [j for j in range(1, cap) if b & j_mask[j]],
                                lambda l_s: b & leg_mask[l_s], cap) if b else []
                )
            for j, row in tables[i]:
                b_j = b & j_mask[j]
                if b_j:
                    for c, l_s in row:
                        if c > bound:
                            break
                        cur |= (b_j & leg_mask[l_s]) >> (j + l_s)
            if u_pos in quotient:
                for a_s, b_s in quotient[u_pos]:
                    t = cur & leg_mask[b_s]
                    t ^= t & leg_mask[a_s]
                    if t:
                        cur = (cur ^ t) | (t >> (b_s - a_s))
            layer = cur
            if keep is not None:
                keep.append(layer)
            if first:
                count = cur.bit_count()
                states += count
                if states > max_states:
                    raise _ceiling(states, max_states)
            if not layer:
                break
        return layer, states

    final, states = sweep_at(INFEASIBLE)
    if not final:
        return INFEASIBLE, states
    cands = sorted(
        {0}
        | {v for v in r_minus if v != INFEASIBLE}
        | {c for table in tables for _, row in table for c, _ in row}
    )
    # Retiring each leg at its first swept user costs top: a finite top is the
    # upper end, probed just below first. No gathering user is farther from
    # its facility than the optimum, so a gathering search starts at, and
    # first probes, the least candidate >= every nearest-facility distance.
    top = max(prep.r_minus(members[0]) for members in leg_members)
    lo, hi = 0, len(cands) - 1
    mid = (lo + hi) // 2
    if top != INFEASIBLE:
        hi = cands.index(top)
        mid = hi - 1
    if prep.fac_index is not None:
        cost = prep.fac_index.close_cost
        lo = mid = bisect_left(cands, max(cost(-x, leg, x) for x, leg in zip(prep.xs, legs)))
    found = None  # the layers of the last feasible search pass
    while lo < hi:
        kept = None if layers is None else []
        if sweep_at(cands[mid], kept)[0]:
            hi, found = mid, kept
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
        kept = None  # an infeasible pass's layers go before the next pass
    if layers is not None:
        if found is None:
            sweep_at(cands[lo], layers)
        else:
            layers.extend(found)
    return cands[lo], states


def _close_costs(prep: _Prep, u_pos: int, leg0: int) -> list[Cost]:
    """Costs of closing a ball that ends at u_pos on leg leg0 + 1, by segment size.

    costs[p - 1] is max(close cost, leftover) for the segment of the p users
    of the leg just beyond u_pos, p <= 2r-2; the leftover finishes the rest
    of the leg single-leg. Empty when the leg has no user beyond u_pos. With
    v the segment's last user, the close cost is the diameter x(u) + x(v) for
    clustering, as no close is made on u's own leg, and the facility index's
    close_cost for gathering.
    """
    members, xs, index = prep.leg_members[leg0], prep.xs, prep.fac_index
    values = prep.suffix[leg0].values
    start = bisect_right(members, u_pos)
    segment = members[start : start + 2 * prep.r - 2]
    x_u, k = xs[u_pos], len(members) - start  # k users from v on; values[k - 1] finishes the rest
    costs: list[Cost] = []
    if index is None:
        for v in segment:
            k -= 1
            cost, leftover = x_u + xs[v], values[k]
            costs.append(cost if cost >= leftover else leftover)
    else:
        close_cost, leg = index.close_cost, leg0 + 1
        for v in segment:
            k -= 1
            cost, leftover = close_cost(x_u, leg, xs[v]), values[k]
            costs.append(cost if cost >= leftover else leftover)
    return costs


def _emit_suffix(prep: _Prep, leg: int, start_rank: int, clusters: list[list[int]]) -> None:
    members = prep.leg_members[leg - 1]
    row = prep.suffix[leg - 1]
    k = len(members) - start_rank
    while k > 0:
        t = row.first_size[k]
        assert t > 0, "suffix reconstruction on an infeasible row"
        start = len(members) - k
        clusters.append(list(members[start : start + t]))
        k -= t


def _walk(
    prep: _Prep,
    sweep: tuple[int, ...],
    layers: list,
    key: int,
    unit: int,
    bound: Cost,
    has: Callable[..., bool],
    ends: dict[int, tuple[tuple[int, ...], ...]],
) -> tuple[list[tuple[int, str, int, int, int]], dict[int, list[int]]]:
    """The steps that reach key, S * unit + j, on the last layer, first to last.

    A step is (layer, tag, key, leg, p): the key it reaches there and a close's
    leg and segment size. has(layer, key) holds if the layer reaches key at value
    at most bound, the optimum: any step at most bound from a key below will do.
    layers holds the initial layer and one per swept user: the dict DP's value
    layers, where has compares values, or the bitset layers of a search pass
    bounded at the optimum, where has tests membership.

    A layer at a group end holds one key per orbit, so its step came to some
    key of the orbit: the walk takes the first one that the layer below
    reaches. Also returned, moves maps each layer where that key was not the
    stored one to its sigma (see _orbit): the steps after that layer stand for
    the same ranks on the legs that sigma moves theirs to.
    """
    steps: list[tuple[int, str, int, int, int]] = []
    moves: dict[int, list[int]] = {}
    for i in range(len(layers) - 1, 0, -1):
        u_pos, below = sweep[i - 1], layers[i - 1]
        leg0 = prep.legs[u_pos] - 1
        for moved, sigma in _orbit(prep, ends[u_pos], key, unit) if u_pos in ends else ((key, None),):
            s, j = divmod(moved, unit)
            if not s >> leg0 & 1:  # "c" keeps the key, "d" retires u's leg from it
                if has(below, moved):
                    steps.append((i, "c", moved, 0, 0))
                    key = moved
                    break
                # No close is made on u's own leg, so "d" is the only other way.
                if prep.r_minus(u_pos) <= bound and has(below, moved + (unit << leg0)):
                    steps.append((i, "d", moved, 0, 0))
                    key = moved + (unit << leg0)
                    break
                continue
            if not j:  # a closed key that holds u's leg closed a ball that grew with u
                close = _close_into(prep, below, s, u_pos, unit, bound, has)
                if close is None:
                    continue
                steps.append((i, "x", moved, close[1], close[2]))
                moved = close[0]
            # Only "b" makes an open key that holds u's leg: the ball grew with u.
            elif not has(below, moved - 1):
                continue
            steps.append((i, "b", moved, 0, 0))
            key = moved - 1
            break
        else:
            raise AssertionError("no step reaches a key")
        if sigma is not None:
            moves[i] = sigma
    assert has(layers[0], key), "walk-back missed the initial state"
    steps.reverse()
    return steps, moves


def _close_into(
    prep: _Prep, below: object, s: int, u_pos: int, unit: int, bound: Cost, has: Callable[..., bool]
) -> Optional[tuple[int, int, int]]:
    """A close at cost at most bound on u_pos's layer into the closed key of S = s.

    S holds u's leg. Returns the grown key (S + l, j) that the close takes, l
    a leg outside S and 1 <= j <= 2r-2, with l and segment size p; below, the
    layer before, holds the key (S + l, j - 1) that u grew it from. None if no
    close does.
    """
    r, cap = prep.r, 2 * prep.r - 1
    for leg0 in range(prep.d_users):
        if s >> leg0 & 1:
            continue
        costs = None
        for j in range(1, cap):
            g_key = (s | 1 << leg0) * unit + j
            if not has(below, g_key - 1):
                continue
            if costs is None:
                costs = _close_costs(prep, u_pos, leg0)
            for p in range(max(r - j, 1), min(cap - j, len(costs)) + 1):
                if costs[p - 1] <= bound:
                    return g_key, leg0 + 1, p
    return None


def _reconstruct(
    prep: _Prep,
    norm: Normalized,
    sweep: tuple[int, ...],
    steps: list[tuple[int, str, int, int, int]],
    moves: dict[int, list[int]],
    value: Cost,
) -> Solution:
    # Replay the walked-back steps forward, materializing clusters as they
    # complete. A step takes users by their rank on a leg: u's own for "b" and
    # "d", the first beyond u for "x"; after the layers in moves, on the leg
    # that perm, the sigmas so far composed, maps the step's leg to...
    clusters: list[list[int]] = []
    ball: list[int] = []
    perm: Optional[list[int]] = None
    at = 0  # the layer of the step before
    for layer, tag, _, leg, p in steps:
        if layer != at:
            if at in moves:
                perm = moves[at] if perm is None else [perm[leg0] for leg0 in moves[at]]
            at = layer
        u = sweep[layer - 1]
        if tag == "c":
            continue
        if tag == "x":
            start = bisect_right(prep.leg_members[leg - 1], u)
        else:
            start, leg = prep.rank_in_leg[u], prep.legs[u]
        if perm is not None:
            leg = perm[leg - 1] + 1
        members = prep.leg_members[leg - 1]
        if tag == "b":
            ball.append(members[start])
        elif tag == "d":
            _emit_suffix(prep, leg, start, clusters)
        else:  # "x"
            clusters.append(ball + members[start : start + p])
            ball = []
            _emit_suffix(prep, leg, start + p, clusters)
    assert not ball, "open ball left after replay"

    # ...and check the clusters against the normalized instance, which raises
    # ValueMismatch unless they cost exactly the value the table reports.
    assert isinstance(value, int)
    facility_of: Optional[list[int]] = None
    if prep.kind == GATHERING:
        facility_of = []
        assert prep.fac_index is not None
        for cluster in clusters:
            found = best_facility([prep.points[p] for p in cluster], prep.fac_index)
            assert found is not None
            facility_of.append(found[0])
        validate_gathering(prep.inst, Solution(clusters, value, facility_of))
    else:
        validate_clustering(prep.inst, Solution(clusters, value))

    mapped = [sorted(norm.user_order[p] for p in c) for c in clusters]
    order = sorted(range(len(mapped)), key=lambda ci: mapped[ci][0])
    out_clusters = tuple(tuple(mapped[ci]) for ci in order)
    out_facilities: Optional[tuple[int, ...]] = None
    if facility_of is not None:
        out_facilities = tuple(norm.facility_order[facility_of[ci]] for ci in order)
    return Solution(clusters=out_clusters, value=value, facility_of=out_facilities)


def solve(
    instance: SpiderInstance,
    kind: str = CLUSTERING,
    *,
    use_pruning: bool = True,
    max_states: int = DEFAULT_STATE_CEILING,
) -> Optional[Solution]:
    """Optimal solution for an instance, or None when infeasible.

    Cluster and facility indices in the result refer to the instance's own
    ordering. The reported value is exact. Raises StateCeilingExceeded once
    the sweep has stored more than max_states states.
    """
    return run_dp(instance, kind, use_pruning=use_pruning, max_states=max_states).solution


def enumerate_suffix_special(
    instance: SpiderInstance,
    kind: str = CLUSTERING,
    *,
    node_budget: int = DEFAULT_ENUM_NODE_BUDGET,
) -> Cost:
    """Optimal value by exhaustive search over multi-leg cluster families.

    Follows the same sweep as the DP but materializes every choice path,
    costing finished clusters directly from the metric (no closing-cost
    shortcuts) and finishing retired legs with the suffix tables. Small
    instances only; raises SizeGuard beyond node_budget search nodes.
    """
    norm = normalize(instance)
    prep = _prepare(norm.instance, kind)
    n, r = prep.n, prep.r
    if n == 0:
        return INFEASIBLE
    cap = 2 * r - 1
    facilities = norm.instance.facilities or ()

    def true_cost(members: list[int]) -> Cost:
        pts = [prep.points[p] for p in members]
        if kind == CLUSTERING:
            worst = 0
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    worst = max(worst, distance(pts[a], pts[b]))
            return worst
        best: Cost = INFEASIBLE
        for f in facilities:
            radius = max(distance(p, f) for p in pts)
            if radius < best:
                best = radius
        return best

    best: Cost = INFEASIBLE
    nodes = 0

    def rec(i: int, s: int, ball: tuple[int, ...], acc: Cost) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise SizeGuard(f"enumeration exceeded {node_budget} nodes")
        if acc >= best:
            return
        if i == n:
            if not ball:
                best = acc
            return
        leg_bit = 1 << (prep.legs[i] - 1)
        variants: list[tuple[int, tuple[int, ...], Cost]] = []
        if s & leg_bit:
            if len(ball) < cap:
                variants.append((s, ball + (i,), acc))
            r_minus = prep.r_minus(i)
            if r_minus != INFEASIBLE:
                nv = acc if acc >= r_minus else r_minus
                if nv < best:
                    variants.append((s ^ leg_bit, ball, nv))
        else:
            variants.append((s, ball, acc))
        for s1, ball1, acc1 in variants:
            if len(ball1) < cap:
                rec(i + 1, s1, ball1, acc1)
            if ball1:
                j = len(ball1)
                p_lo = r - j if r > j else 1
                m = s1
                while m:
                    l_bit = m & -m
                    m ^= l_bit
                    leg0 = l_bit.bit_length() - 1
                    members = prep.leg_members[leg0]
                    start = bisect_right(members, i)
                    for p in range(p_lo, cap - j + 1):
                        mi = start + p - 1
                        if mi >= len(members):
                            break
                        leftover = prep.suffix[leg0].values[len(members) - mi - 1]
                        if leftover == INFEASIBLE:
                            continue
                        cost = true_cost(list(ball1) + members[start : start + p])
                        nv = acc1
                        if cost > nv:
                            nv = cost
                        if leftover > nv:
                            nv = leftover
                        if nv < best:
                            rec(i + 1, s1 ^ l_bit, (), nv)

    rec(0, (1 << prep.d_users) - 1, (), 0)
    return best


# The quotient by identical legs: where both engines apply it (_group_ends), and
# how a walk-back crosses it (_orbit).


def _group_ends(prep: _Prep, sweep: tuple[int, ...]) -> dict[int, tuple[tuple[int, ...], ...]]:
    """The layers that the DP quotients by identical legs, each with its classes.

    Keyed by the position of the layer's swept user. A group end is a swept
    user after which the next swept user lies farther out, or none is left.
    There each layer keeps, for every listed class, only keys whose S holds
    the class's lowest-numbered legs: a key whose S holds k legs of the class
    becomes the key holding its k lowest legs instead, with the least value
    of the keys that became it. The key's other legs and its j stay.

    This is exact. The optimum is the least, over the keys of one layer, of
    max(the key's value, the least cost of its completion from there on), so
    keeping one key per orbit at the orbit's least value keeps the optimum
    when every key of the orbit has the same least completion. Mapping each
    user of one identical leg to the user of the same rank on another, and
    back, maps the instance onto itself. At a group end the sweep has taken
    exactly the users up to one coordinate, the same ranks on every leg of a
    class, so the map turns a key's completions into completions of the
    mapped key over the same unswept users, with the same costs, that only
    order those users' ties by other leg numbers. The DP is exact for every
    tie order, since the leg numbers that order ties are arbitrary, and a
    completion is the DP of what the sweep has left: for a closed key, of the
    key's legs beyond the group end. So both keys have the same least
    completion; test_quotient_by_identical_legs_is_exact checks open keys
    too against the brute-force oracles. Only group ends are safe: inside a
    tie group the sweep orders users by leg and has taken the group's users on
    lower-numbered legs but not those on higher ones, so swapping two legs of
    a class swaps a swept user for an unswept one. A class is listed at a
    group end when it has a user at or beyond the group's first user; no step
    of the group changes which legs of any other class S holds.

    A witness run walks back across a group end by finding a key of the
    orbit that the layer below reaches (see _walk). run_dp calls it only when
    some legs are identical; other runs take no quotient step.
    """
    ends: dict[int, tuple[tuple[int, ...], ...]] = {}
    xs = prep.xs
    last = [prep.leg_members[c[-1]][-1] for c in prep.classes]  # each class's last user
    first = 0  # the sweep index that starts the group
    for i, pos in enumerate(sweep):
        if i + 1 < len(sweep) and xs[sweep[i + 1]] == xs[pos]:
            continue
        listed = tuple(c for c, end in zip(prep.classes, last) if end >= sweep[first])
        if listed:
            ends[pos] = listed
        first = i + 1
    return ends


def _orbit(
    prep: _Prep, classes: tuple[tuple[int, ...], ...], key: int, unit: int
) -> Iterable[tuple[int, Optional[list[int]]]]:
    """The keys that a group end's quotient turns into key, each with its sigma.

    key's S holds the lowest k legs of each class, for some k; S may have held
    any k legs of it. sigma maps each leg - 1 to the leg - 1 that it stands
    for: the class's k lowest legs to the held ones in order, its other legs
    to the rest. key itself comes first, with sigma None.
    """
    s = key // unit
    picks = [itertools.combinations(c, sum(s >> leg0 & 1 for leg0 in c)) for c in classes]
    for held in itertools.product(*picks):
        moved, sigma = key, None
        for c, legs0 in zip(classes, held):
            low = c[: len(legs0)]
            if legs0 == low:
                continue
            if sigma is None:
                sigma = list(range(prep.d_users))
            for leg0, to in zip(c, legs0 + tuple(other for other in c if other not in legs0)):
                sigma[leg0] = to
            moved += sum(unit << leg0 for leg0 in legs0) - sum(unit << leg0 for leg0 in low)
        yield moved, sigma
