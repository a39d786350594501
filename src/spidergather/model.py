"""Spider metric spaces: points, problem instances, solutions, validation.

A spider with d legs is the metric space obtained by gluing d half-lines at a
single center. A point is a pair (leg, x) with x >= 0; the center is (l, 0)
for any l. Distance is measured along the legs: |x - x'| on a shared leg,
x + x' across legs (every cross-leg path runs through the center).

Instances carry integer coordinates only, so every distance and every
clustering objective in this package is an exact integer. The one non-integer
value in play is INFEASIBLE, a sentinel that compares above every finite cost
and propagates through min/max without special-casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

INFEASIBLE: float = math.inf

# Finite costs are always ints; INFEASIBLE is the only float a Cost can hold.
Cost = int | float


def is_int(value: Any) -> bool:
    """An int that is not a bool, the only integer any field or index accepts."""
    return isinstance(value, int) and not isinstance(value, bool)


class MalformedInstanceError(ValueError):
    """Instance data violates a structural requirement (bad leg, negative x, ...)."""


class SolutionError(ValueError):
    """Base class for solution validation failures."""


class NotAPartition(SolutionError):
    """Clusters miss a user, repeat a user, or contain an invalid index."""


class SizeViolation(SolutionError):
    """Some cluster has fewer than r users."""


class MissingFacility(SolutionError):
    """A gathering solution lacks a facility assignment for some cluster."""


class ValueMismatch(SolutionError):
    """The recomputed objective differs from the value the solution reports."""


class SizeGuard(RuntimeError):
    """An exhaustive search exceeded its configured size bound."""


@dataclass(frozen=True)
class PointOnSpider:
    """A location on the spider: leg index (1-based) and distance from center."""

    leg: int
    x: int

    def __post_init__(self) -> None:
        if not is_int(self.leg) or self.leg < 1:
            raise MalformedInstanceError(f"leg must be a positive int, got {self.leg!r}")
        if not is_int(self.x) or self.x < 0:
            raise MalformedInstanceError(f"coordinate must be a non-negative int, got {self.x!r}")


def distance(p: PointOnSpider, q: PointOnSpider) -> int:
    """Spider metric distance between two points."""
    if p.leg == q.leg:
        return abs(p.x - q.x)
    return p.x + q.x


@dataclass(frozen=True)
class SpiderInstance:
    """A clustering/gathering instance on a spider.

    d: number of legs; all points must use legs 1..d.
    users: the points to be partitioned.
    facilities: candidate facility locations (None for pure clustering).
    r: minimum cluster size, r >= 1.
    """

    d: int
    users: tuple[PointOnSpider, ...]
    facilities: Optional[tuple[PointOnSpider, ...]]
    r: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "users", tuple(self.users))
        if self.facilities is not None:
            object.__setattr__(self, "facilities", tuple(self.facilities))
        if not is_int(self.d) or self.d < 0:
            raise MalformedInstanceError(f"d must be a non-negative int, got {self.d!r}")
        if not is_int(self.r) or self.r < 1:
            raise MalformedInstanceError(f"r must be an int >= 1, got {self.r!r}")
        for p in self.users:
            if p.leg > self.d:
                raise MalformedInstanceError(f"user {p} uses a leg beyond d={self.d}")
        for f in self.facilities or ():
            if f.leg > self.d:
                raise MalformedInstanceError(f"facility {f} uses a leg beyond d={self.d}")


@dataclass(frozen=True)
class Solution:
    """A partition of user indices into clusters, with the claimed objective.

    clusters: tuples of user indices (into the instance's user list).
    value: the min-max objective the solver reports.
    facility_of: for gathering, one facility index per cluster, aligned with
        clusters; None for pure clustering.
    """

    clusters: tuple[tuple[int, ...], ...]
    value: int
    facility_of: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "clusters", tuple(tuple(c) for c in self.clusters))
        if self.facility_of is not None:
            object.__setattr__(self, "facility_of", tuple(self.facility_of))


@dataclass(frozen=True)
class Normalized:
    """A normalized instance plus the index maps back to the original.

    Users are sorted by (x, leg, original position); legs are renumbered so
    user-bearing legs come first and facility-only legs after, each group in
    ascending original order. Facilities are sorted by (x, normalized leg,
    original position). user_order[i] / facility_order[i] give the original
    index of the normalized item i.
    """

    instance: SpiderInstance
    user_order: tuple[int, ...]
    facility_order: tuple[int, ...]


def normalize(instance: SpiderInstance) -> Normalized:
    """Sort users into canonical order and compact leg numbering.

    The canonical user order is ascending coordinate, ties broken by leg then
    by input position; every solver below assumes it. Only legs that carry a
    user or a facility survive; user-bearing legs are renumbered 1..k first so
    the solvers can treat {1..k} as the active leg set, and facility-only legs
    follow as k+1.. in ascending original order. Facilities are ordered by
    (x, normalized leg, input position). Because both orders depend only on
    the normalized points, normalize is idempotent on its own output.
    """
    order = sorted(
        range(len(instance.users)),
        key=lambda i: (instance.users[i].x, instance.users[i].leg, i),
    )
    user_legs = sorted({u.leg for u in instance.users})
    leg_map = {leg: new for new, leg in enumerate(user_legs, start=1)}
    for leg in sorted({f.leg for f in instance.facilities or ()} - leg_map.keys()):
        leg_map[leg] = len(leg_map) + 1

    users = tuple(
        PointOnSpider(leg_map[instance.users[i].leg], instance.users[i].x) for i in order
    )
    facilities: Optional[tuple[PointOnSpider, ...]]
    if instance.facilities is None:
        facilities = None
        facility_order: tuple[int, ...] = ()
    else:
        fs = instance.facilities
        forder = sorted(range(len(fs)), key=lambda i: (fs[i].x, leg_map[fs[i].leg], i))
        facilities = tuple(PointOnSpider(leg_map[fs[i].leg], fs[i].x) for i in forder)
        facility_order = tuple(forder)

    norm = SpiderInstance(d=len(leg_map), users=users, facilities=facilities, r=instance.r)
    return Normalized(
        instance=norm,
        user_order=tuple(order),
        facility_order=facility_order,
    )


def scale_instance(instance: SpiderInstance, factor: int) -> SpiderInstance:
    """Multiply every coordinate by a positive integer factor.

    Distances scale linearly, so optimal values scale by the same factor.
    """
    if not is_int(factor) or factor < 1:
        raise MalformedInstanceError(f"scale factor must be a positive int, got {factor!r}")
    return SpiderInstance(
        d=instance.d,
        users=tuple(PointOnSpider(p.leg, p.x * factor) for p in instance.users),
        facilities=None
        if instance.facilities is None
        else tuple(PointOnSpider(p.leg, p.x * factor) for p in instance.facilities),
        r=instance.r,
    )


def _check_partition(instance: SpiderInstance, solution: Solution) -> None:
    n = len(instance.users)
    seen: set[int] = set()
    for cluster in solution.clusters:
        if not cluster:
            raise NotAPartition("empty cluster")
        for i in cluster:
            if not is_int(i) or i < 0 or i >= n:
                raise NotAPartition(f"user index {i!r} out of range")
            if i in seen:
                raise NotAPartition(f"user {i} appears in more than one cluster")
            seen.add(i)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise NotAPartition(f"users not covered: {missing}")
    for cluster in solution.clusters:
        if len(cluster) < instance.r:
            raise SizeViolation(f"cluster {cluster} smaller than r={instance.r}")


def validate_clustering(instance: SpiderInstance, solution: Solution) -> int:
    """Check a clustering solution and return its recomputed objective.

    Raises NotAPartition / SizeViolation / ValueMismatch as appropriate. The
    objective is the maximum cluster diameter (0 for an all-singleton r=1
    partition).
    """
    _check_partition(instance, solution)
    value = 0
    for cluster in solution.clusters:
        for a in range(len(cluster)):
            for b in range(a + 1, len(cluster)):
                value = max(
                    value, distance(instance.users[cluster[a]], instance.users[cluster[b]])
                )
    if value != solution.value:
        raise ValueMismatch(f"recomputed {value}, solution claims {solution.value}")
    return value


def validate_gathering(instance: SpiderInstance, solution: Solution) -> int:
    """Check a gathering solution and return its recomputed objective.

    Every cluster must name an open facility; the objective is the maximum
    user-to-assigned-facility distance.
    """
    if instance.facilities is None:
        raise MissingFacility("instance has no facilities")
    _check_partition(instance, solution)
    if solution.facility_of is None:
        raise MissingFacility("solution has no facility assignment")
    if len(solution.facility_of) != len(solution.clusters):
        raise MissingFacility(
            f"{len(solution.clusters)} clusters but {len(solution.facility_of)} facilities"
        )
    value = 0
    for cluster, fidx in zip(solution.clusters, solution.facility_of):
        if not is_int(fidx) or fidx < 0 or fidx >= len(instance.facilities):
            raise MissingFacility(f"facility index {fidx!r} out of range")
        f = instance.facilities[fidx]
        for i in cluster:
            value = max(value, distance(instance.users[i], f))
    if value != solution.value:
        raise ValueMismatch(f"recomputed {value}, solution claims {solution.value}")
    return value
