"""Closing costs for multi-leg clusters.

When the dynamic program closes a cluster it knows only two of its members:
u, the last user added to the ball part, and v, the last user of the segment
part, with x(u) <= x(v). Everything else in the cluster sits at coordinate
<= x(u) (ball) or on v's leg between the close point and v (segment), so a
cost that depends on u and v alone is enough:

  clustering: x(u) + x(v), which fpt_solver computes inline: the diameter
      realized by u and v themselves, which sit on different legs because
      fpt_solver closes no ball on the leg of its last user (another
      transition reaches the same state at no higher value).

  gathering: the best facility is either off v's leg (then the smallest such
      facility coordinate wins and the cluster radius is that coordinate plus
      x(v)) or on v's leg (then the max of x(u) + y and |x(v) - y| is
      unimodal in y, so only the facilities adjacent to (x(v) - x(u)) / 2
      need checking).
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
        self._coords: dict[int, list[int]] = {
            leg: [x for x, _ in entries] for leg, entries in self.by_leg.items()
        }
        # Two smallest facilities on distinct legs cover every off-leg query.
        firsts = sorted(
            (entries[0][0], leg, entries[0][1]) for leg, entries in self.by_leg.items()
        )
        self._first: Optional[tuple[int, int, int]] = firsts[0] if firsts else None
        self._second: Optional[tuple[int, int, int]] = firsts[1] if len(firsts) > 1 else None

    def off_leg_min(self, leg: int) -> Optional[tuple[int, int]]:
        """Smallest facility coordinate on any leg other than `leg`, with its index."""
        if self._first is None:
            return None
        x, fleg, idx = self._first
        if fleg != leg:
            return x, idx
        if self._second is None:
            return None
        x, _, idx = self._second
        return x, idx

    def neighbors_on_leg(self, leg: int, doubled_target: int) -> list[tuple[int, int]]:
        """Facilities on `leg` adjacent to doubled_target / 2, as (coord, index).

        Targets arrive doubled so midpoints between integer coordinates stay
        exact. At most two facilities come back, which is all a unimodal
        objective needs.
        """
        coords = self._coords.get(leg)
        if not coords:
            return []
        pos = bisect_left(coords, doubled_target, key=lambda c: 2 * c)
        out = []
        if pos > 0:
            out.append(self.by_leg[leg][pos - 1])
        if pos < len(coords):
            out.append(self.by_leg[leg][pos])
        return out


def cost_gathering(u: PointOnSpider, v: PointOnSpider, index: FacilityIndex) -> Cost:
    """Best facility radius for a cluster closed with ball user u, segment user v.

    INFEASIBLE when the index holds no facility at all.
    """
    best: Cost = INFEASIBLE
    off = index.off_leg_min(v.leg)
    if off is not None:
        best = off[0] + v.x
    for y, _ in index.neighbors_on_leg(v.leg, v.x - u.x):
        cand = max(u.x + y, abs(v.x - y))
        if cand < best:
            best = cand
    return best


def best_facility(
    members: Sequence[PointOnSpider], index: FacilityIndex
) -> Optional[tuple[int, int]]:
    """Exact best facility for a concrete cluster: (facility index, radius).

    Full scan over facilities, used when reconstructing solutions; the
    two-case formula above only bounds clusters the DP has not materialized.
    """
    spans: dict[int, tuple[int, int]] = {}
    for p in members:
        lo, hi = spans.get(p.leg, (p.x, p.x))
        spans[p.leg] = (min(lo, p.x), max(hi, p.x))
    best: Optional[tuple[int, int]] = None
    for leg, entries in index.by_leg.items():
        for y, idx in entries:
            radius = 0
            for mleg, (lo, hi) in spans.items():
                if mleg == leg:
                    radius = max(radius, abs(lo - y), abs(hi - y))
                else:
                    radius = max(radius, hi + y)
            if best is None or (radius, idx) < (best[1], best[0]):
                best = (idx, radius)
    return best
