"""Optimal single-leg partitions for every suffix of a leg.

Once a leg stops contributing to multi-leg clusters, its remaining users form
an independent line instance whose optimal partition uses contiguous groups
of between r and 2r-1 users (a larger group splits into two halves of size
>= r without raising the max). That makes every suffix solvable by a short
dynamic program, and the solvers consume the results as R+/R- style lookups:
the best cost of finishing a leg from a given user on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cost_oracle import FacilityIndex
from .model import Cost, INFEASIBLE


@dataclass(frozen=True)
class SuffixRow:
    """Suffix values for one leg: values[k] covers the leg's last k users.

    first_size[k] records the size of the first group in an optimal split of
    the last k users (0 when k = 0 or the suffix is infeasible), enough to
    reconstruct a witness partition greedily.
    """

    values: tuple[Cost, ...]
    first_size: tuple[int, ...]


def _suffix_costs(coords: Sequence[int], r: int, group_cost) -> SuffixRow:
    q = len(coords)
    values: list[Cost] = [0] * (q + 1)
    first: list[int] = [0] * (q + 1)
    for k in range(1, q + 1):
        best: Cost = INFEASIBLE
        best_t = 0
        start = q - k
        for t in range(r, min(2 * r - 1, k) + 1):
            cand = max(group_cost(coords[start], coords[start + t - 1]), values[k - t])
            if cand < best:
                best = cand
                best_t = t
        values[k] = best
        first[k] = best_t
    return SuffixRow(values=tuple(values), first_size=tuple(first))


def suffix_costs_clustering(coords: Sequence[int], r: int) -> SuffixRow:
    """Suffix table for min-max diameter on one leg; coords ascending."""
    return _suffix_costs(coords, r, lambda lo, hi: hi - lo)


def suffix_costs_gathering(
    coords: Sequence[int], leg: int, facilities: FacilityIndex, r: int
) -> SuffixRow:
    """Suffix table for min-max facility radius on one leg; coords ascending."""
    cost = facilities.close_cost
    return _suffix_costs(coords, r, lambda lo, hi: cost(-lo, leg, hi))
