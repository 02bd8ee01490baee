"""The lint driver: build the artifact context, run the rules.

``lint_schema`` is the library entry point behind ``repro lint``.  It
analyzes the schema (memoized on the schema's version stamp, so a
lint run after a mapping session re-uses the analyzer's work), maps
it once with default options when no :class:`MappingResult` is
supplied, and feeds every selected rule one shared
:class:`LintContext`.  Rules whose artifact could not be produced
(e.g. trace rules on an unmappable schema) are skipped and recorded
in the report's ``skipped_artifacts``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from repro.analyzer import analyze
from repro.analyzer.diagnostics import AnalysisReport
from repro.analyzer.implication import ImplicationResult, check_implications
from repro.brm.indexes import SchemaIndexes, indexes_for
from repro.brm.schema import BinarySchema
from repro.dsl.pragmas import SuppressionPragmas, parse_pragmas
from repro.errors import AnalysisError, MappingError
from repro.lint.diagnostics import LintDiagnostic, LintReport
from repro.lint.registry import all_rules, resolve_selectors
from repro.observability.tracer import count as _obs_count
from repro.observability.tracer import span as _obs_span
from repro.sql.dialects import PROFILES
from repro.sql.emitter import DialectProfile


@dataclass
class LintContext:
    """Everything a rule may examine, computed once per run."""

    schema: BinarySchema
    report: AnalysisReport
    result: object | None = None  # MappingResult when the schema mapped
    dialect: str = "sql2"
    profile: DialectProfile = field(
        default_factory=lambda: PROFILES["sql2"]
    )

    @cached_property
    def indexes(self) -> SchemaIndexes:
        """The shared per-version schema indexes (no fresh scans)."""
        return indexes_for(self.schema)

    @cached_property
    def implications(self) -> ImplicationResult:
        """The memoized implication/satisfiability verdicts."""
        return check_implications(self.schema)


def lint_schema(
    schema: BinarySchema,
    *,
    result=None,
    source: str | None = None,
    dialect: str = "sql2",
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Run the lint rules over a schema and its mapping artifacts.

    ``result`` may be a precomputed :class:`MappingResult`; without
    one the schema is mapped under default options (skipping the
    trace/sql/map passes when it cannot be).  ``source`` is the raw
    DSL text, scanned for ``lint: disable=`` pragmas.  ``select`` and
    ``ignore`` are exact codes or code prefixes; unknown ones raise
    ``ValueError``.
    """
    selected = resolve_selectors(select) if select else None
    ignored = resolve_selectors(ignore) if ignore else frozenset()
    pragmas = parse_pragmas(source) if source else None
    if pragmas is not None and pragmas.codes:
        # Validate pragma codes exactly like --select/--ignore codes.
        resolve_selectors(pragmas.codes)

    with _obs_span("lint.schema", schema=schema.name, dialect=dialect):
        with _obs_span("lint.artifacts"):
            report = analyze(schema)
            skipped: tuple[str, ...] = ()
            if result is None:
                result = _map_quietly(schema)
            if result is None:
                skipped = ("trace", "sql", "map")

        context = LintContext(
            schema=schema,
            report=report,
            result=result,
            dialect=dialect,
            profile=PROFILES[dialect],
        )
        diagnostics: list[LintDiagnostic] = []
        suppressed = 0
        for rule in all_rules():
            if selected is not None and rule.code not in selected:
                continue
            if rule.code in ignored:
                continue
            if rule.artifact in skipped:
                continue
            with _obs_span(f"lint:{rule.code}") as rule_span:
                findings = list(rule.check(context))
                rule_span.set("findings", len(findings))
            _obs_count("lint.diagnostics", len(findings))
            for subject, message in findings:
                diagnostic = LintDiagnostic(
                    code=rule.code,
                    severity=rule.severity,
                    subject=subject,
                    message=message,
                )
                if _is_suppressed(diagnostic, pragmas):
                    suppressed += 1
                    continue
                diagnostics.append(diagnostic)
        return LintReport(
            schema_name=schema.name,
            diagnostics=diagnostics,
            suppressed=suppressed,
            skipped_artifacts=skipped,
        )


def _map_quietly(schema: BinarySchema):
    """Default-option mapping, or ``None`` when the schema won't map."""
    from repro.mapper import MappingOptions, map_schema

    try:
        return map_schema(schema, MappingOptions())
    except (AnalysisError, MappingError):
        return None


def _is_suppressed(
    diagnostic: LintDiagnostic, pragmas: SuppressionPragmas | None
) -> bool:
    if pragmas is None:
        return False
    return pragmas.is_suppressed(diagnostic.code, diagnostic.subject)
