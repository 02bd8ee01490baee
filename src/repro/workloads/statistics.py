"""Plan-derived table statistics for cost-ranking candidate designs.

The advisor scores every candidate relational design with the page
cost model of :mod:`repro.engine.cost`.  The model needs row counts;
for a design that does not exist yet those are estimated from the
relation *plans*: an anchor relation holds one row per instance of
its owner type, a satellite (an optional fact split out under a
restrictive null policy) holds the filled fraction, and a
many-to-many fact relation holds ``fact_fanout`` rows per owner
instance.  A :class:`WorkloadProfile` carries those assumptions plus
per-type instance counts, so the same candidate lattice can be
ranked under different application environments.  Its optional
query workload (:class:`QueryPattern`) names the conceptual access
patterns the applications run: the paper's "query information" that
should "steer the mapping towards limited de-normalization" (section
4.1 and the concluding remarks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.cost import TableStatistics
from repro.mapper.plan import AllInstances, FactPairs, RelationPlan, RolePlayers
from repro.mapper.synthesis import MappingPlan


@dataclass(frozen=True)
class QueryPattern:
    """One conceptual access pattern.

    ``facts`` are the fact types fetched together with the instance
    of ``object_type``; ``frequency`` is its relative weight in the
    workload (executions per unit of time).
    """

    object_type: str
    facts: tuple[str, ...]
    frequency: float = 1.0


@dataclass(frozen=True)
class WorkloadProfile:
    """Population assumptions for one application environment.

    ``instances`` overrides the per-object-type instance count;
    anything not named holds ``default_instances``.  ``optional_fill``
    is the fraction of instances actually playing an optional role
    (satellite-relation row count); ``fact_fanout`` is the average
    number of many-to-many fact instances per owner instance.
    ``queries`` is the applications' query workload; when empty, every
    object type is assumed fetched with all of its facts.
    """

    default_instances: int = 10_000
    optional_fill: float = 0.6
    fact_fanout: float = 2.0
    instances: tuple[tuple[str, int], ...] = ()
    queries: tuple[QueryPattern, ...] = ()

    def instances_of(self, type_name: str) -> int:
        """Estimated instance count of one object type."""
        for name, count in self.instances:
            if name == type_name:
                return count
        return self.default_instances


def estimated_rows(
    plan: RelationPlan, profile: WorkloadProfile = WorkloadProfile()
) -> int:
    """Estimated row count of one planned relation."""
    membership = plan.membership
    if isinstance(membership, AllInstances):
        return profile.instances_of(membership.owner)
    if isinstance(membership, RolePlayers):
        return max(
            1,
            int(profile.instances_of(membership.owner) * profile.optional_fill),
        )
    if isinstance(membership, FactPairs):
        return max(1, int(profile.default_instances * profile.fact_fanout))
    return profile.default_instances


def plan_statistics(
    plan: MappingPlan, profile: WorkloadProfile = WorkloadProfile()
) -> TableStatistics:
    """Row-count statistics for every relation of a mapping plan."""
    rows = {
        name: estimated_rows(relation_plan, profile)
        for name, relation_plan in sorted(plan.plans.items())
    }
    return TableStatistics(default_rows=profile.default_instances, rows=rows)


def plan_row_bytes(plan: RelationPlan) -> int:
    """The byte width of one row of a planned relation.

    The plan-level twin of :func:`repro.engine.cost.row_bytes`: column
    units carry their datatypes, so the width is known before the
    relational schema is materialized.
    """
    return sum(unit.datatype.physical_size for unit in plan.columns)
