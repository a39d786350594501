"""Facility radii for gathering clusters, from per-leg tables.

FacilityIndex builds its tables once per index: each leg's sorted facility
coordinates and the least facility coordinate of all. One query,
close_cost(near, leg, far), is the least of far + y over every facility at y
and of max(near + y, |far - y|) over those on `leg`. The first term is the
radius of a facility off `leg`; on `leg` it is at least the second term, as
near <= far, so the first term may take the least facility of all. For
-far <= near <= far the second term is far - y while 2y < far - near and
near + y from there on, so only the two facilities around that point need
checking. The solvers ask it three questions:

  closes: the DP closes a cluster knowing only its last ball user u and its
      last segment user v, with x(u) <= x(v) on different legs. Every other
      member sits at coordinate <= x(u) (ball) or on v's leg up to x(v)
      (segment), so the radius is close_cost(x(u), leg(v), x(v)).

  groups: a contiguous single-leg group [x_a, x_b] is served at radius
      close_cost(-x_a, leg, x_b): a facility on the leg below the group's
      midpoint is x_b - y away, one above it y - x_a.

  users: close_cost(-x, leg, x) is a user's distance to its nearest facility.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Optional, Sequence

from .model import Cost, INFEASIBLE, PointOnSpider


class FacilityIndex:
    """Per-leg sorted facility coordinates with the queries the oracles need."""

    def __init__(self, facilities: Sequence[PointOnSpider]):
        by_leg: dict[int, list[tuple[int, int]]] = {}
        for idx, f in enumerate(facilities):
            insort(by_leg.setdefault(f.leg, []), (f.x, idx))
        self.by_leg: dict[int, tuple[tuple[int, int], ...]] = {
            leg: tuple(entries) for leg, entries in by_leg.items()
        }
        self.ys = {leg: tuple(x for x, _ in entries) for leg, entries in by_leg.items()}
        self._least: Cost = min((ys[0] for ys in self.ys.values()), default=INFEASIBLE)

    def close_cost(self, near: int, leg: int, far: int) -> Cost:
        """The least facility radius of the module docstring; INFEASIBLE without facilities."""
        least, ys = self._least, self.ys.get(leg, ())
        best = least if least is INFEASIBLE else least + far
        pos = bisect_left(ys, (far - near + 1) >> 1)  # the first y with 2y >= far - near
        if pos < len(ys) and near + ys[pos] < best:
            best = near + ys[pos]
        if pos and far - ys[pos - 1] < best:
            best = far - ys[pos - 1]
        return best


def best_facility(
    members: Sequence[PointOnSpider], index: FacilityIndex
) -> Optional[tuple[int, int]]:
    """Exact best facility for a concrete cluster: (facility index, radius).

    Full scan over the facilities on the members' legs, used when
    reconstructing solutions; close_cost only bounds clusters the DP has not
    materialized. On a leg without members the radius grows with y, so that
    leg's first entry, the least (y, index), is its only candidate.
    """
    spans: dict[int, tuple[int, int]] = {}
    for p in members:
        lo, hi = spans.get(p.leg, (p.x, p.x))
        spans[p.leg] = (min(lo, p.x), max(hi, p.x))
    best: Optional[tuple[int, int]] = None
    for leg, entries in index.by_leg.items():
        for y, idx in entries if leg in spans else entries[:1]:
            radius = 0
            for mleg, (lo, hi) in spans.items():
                if mleg == leg:
                    radius = max(radius, abs(lo - y), abs(hi - y))
                else:
                    radius = max(radius, hi + y)
            if best is None or (radius, idx) < (best[1], best[0]):
                best = (idx, radius)
    return best
