"""The result of a mapping session."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.brm.population import Population
from repro.brm.schema import BinarySchema
from repro.engine.database import Database
from repro.mapper.options import MappingOptions
from repro.mapper.state import MappingState
from repro.mapper.state_map import RelationalStateMap, canonicalize_population
from repro.mapper.synthesis import MappingPlan
from repro.mapper.trace import AppliedStep, Provenance, PseudoConstraint
from repro.relational.schema import RelationalSchema
from repro.robustness.health import HealthReport


@dataclass
class MappingResult:
    """Everything RIDL-M produced for one schema under one option set.

    The result object is the API hub: the generic relational schema,
    DDL for any supported dialect (:meth:`sql`), the bidirectional map
    report (:meth:`map_report`), the audit trail of applied basic
    transformations (:attr:`steps`), the pseudo-SQL specifications for
    constraints the relational model cannot hold, and the composite
    state mapping (:meth:`forward` / :meth:`backward`) that makes the
    transformation's losslessness executable.
    """

    source: BinarySchema
    canonical: BinarySchema
    relational: RelationalSchema
    options: MappingOptions
    plan: MappingPlan
    provenance: Provenance
    steps: list[AppliedStep]
    pseudo_constraints: list[PseudoConstraint]
    state: MappingState
    state_map: RelationalStateMap
    #: What the fault-tolerant session survived (quarantined rules,
    #: rollbacks, degraded options); ``health.ok`` when nothing did.
    health: HealthReport = field(default_factory=HealthReport)

    # ------------------------------------------------------------------
    # State mapping
    # ------------------------------------------------------------------

    def forward(self, population: Population) -> Database:
        """Map a population of the *source* schema to a database state."""
        canonical = self.state.to_canonical(population)
        return self.state_map.forward(canonical)

    def backward(self, database: Database) -> Population:
        """Map a database state back to a source-schema population."""
        canonical = self.state_map.backward(database)
        return self.state.from_canonical(canonical)

    def canonicalize(
        self, population: Population, *, columnar: bool = False
    ) -> Population:
        """Rename a canonical-schema population's abstract instances to
        their lexical reference values (the identities
        :meth:`backward` reconstructs).  ``columnar`` has no effect:
        there is one population layout; the keyword stays for
        existing callers."""
        return canonicalize_population(self.plan, population)

    # ------------------------------------------------------------------
    # Output generation
    # ------------------------------------------------------------------

    def sql(self, dialect: str = "sql2") -> str:
        """DDL for the generic schema in a dialect (sql2, oracle,
        ingres, db2, pseudo)."""
        from repro.sql import generate_sql

        return generate_sql(self, dialect)

    def map_report(self) -> str:
        """The bidirectional map report (forwards + backwards)."""
        from repro.mapper.mapreport import render_map_report

        return render_map_report(self)

    def health_report(self) -> str:
        """The session health block (recovery decisions, guard cost)."""
        return self.health.render()

    def trace_report(self) -> str:
        """The audit trail of applied basic transformations."""
        lines = [
            f"RIDL-M transformation trace for schema {self.source.name!r}",
            f"options: null={self.options.null_policy.value!r}, "
            f"sublinks={self.options.sublink_policy.value!r}",
        ]
        for number, step in enumerate(self.steps, start=1):
            lines.append(f"{number:3}. {step}")
        if self.pseudo_constraints:
            lines.append("pseudo constraints (application-enforced):")
            for pseudo in self.pseudo_constraints:
                lines.append(f"  - {pseudo.name}: {pseudo.text}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Summary statistics (used by benchmarks and reports)
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Relational element counts plus mapping-specific measures."""
        stats = dict(self.relational.stats())
        stats["pseudo_constraints"] = len(self.pseudo_constraints)
        stats["steps"] = len(self.steps)
        return stats
