"""``TRC1xx`` — transformation-trace and losslessness checks.

The paper's §5 argument is that every basic transformation is
lossless *because* each dropped binary constraint is replaced by a
generated rule (equality view, dependent existence, equal existence,
conditional equality) or a pseudo-SQL specification.  These rules
replay the recorded :class:`~repro.mapper.trace.AppliedStep` list and
verify that argument statically, without populations:

* TRC101 — every source-schema constraint must be *accounted for*:
  survive into the canonical schema, be expressed in the forwards
  map, be covered by a pseudo constraint, or be named by a trace
  step (as target or generated lossless rule).  A seeded fault that
  silently drops a constraint mid-session trips exactly this rule.
* TRC102 — every lossless rule a step cites must resolve: steps on
  the relational side cite relational constraints (or pseudo
  specifications); binary-binary steps cite canonical-schema
  elements.
* TRC103 — every generated view constraint must be cited by some
  step (an orphan rule means the trace under-documents the session).
* TRC104 — step kinds are closed: only the three basic
  transformation classes of §5 exist.
"""

from __future__ import annotations

import re

from repro.analyzer.diagnostics import Severity
from repro.lint.registry import lint_rule
from repro.mapper.trace import KIND_BINARY, STEP_KINDS

_WORDS = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


def _accounted_names(result) -> set[str]:
    """Every element name the trace or pseudo specs account for."""
    names: set[str] = set()
    for pseudo in result.pseudo_constraints:
        names.add(pseudo.name)
        names.update(pseudo.derived_from)
    for step in result.steps:
        names.add(step.target)
        names.update(step.lossless_rules)
        names.update(_WORDS.findall(step.detail))
    return names


@lint_rule("TRC101", "unaccounted-constraint", Severity.ERROR)
def check_unaccounted_constraint(context):
    """A constraint was dropped without a lossless rule or mapping.

    Replays the trace: a source constraint that neither survives into
    the canonical schema, nor appears in the forwards map, nor is
    covered by a pseudo constraint, nor is named by any applied step
    was lost silently — the transformation sequence is not lossless.
    """
    result = context.result
    accounted = _accounted_names(result)
    forward = result.provenance.forward_concepts()
    canonical = result.canonical
    for constraint in result.source.constraints:
        if canonical.has_constraint(constraint.name):
            continue
        if constraint.name in accounted:
            continue
        if constraint.describe(result.source) in forward:
            continue
        yield constraint.name, (
            "source constraint was dropped with no lossless rule, "
            "pseudo constraint, forwards-map entry or trace step "
            "covering it"
        )
    for constraint in canonical.constraints:
        if constraint.name in accounted:
            continue
        if constraint.describe(canonical) in forward:
            continue
        yield constraint.name, (
            "canonical constraint reached materialization but has no "
            "forwards-map entry, pseudo constraint or trace step"
        )


@lint_rule("TRC102", "phantom-lossless-rule", Severity.ERROR)
def check_phantom_lossless_rule(context):
    """A trace step cites a lossless rule that does not exist.

    Relational-side steps must cite constraints of the generated
    relational schema (or pseudo-constraint specifications);
    binary-binary steps cite elements of the canonical binary schema.
    A citation that resolves nowhere means the trace claims a
    safeguard that was never generated.
    """
    result = context.result
    relational = result.relational
    canonical = result.canonical
    pseudo_names = {p.name for p in result.pseudo_constraints}
    for number, step in enumerate(result.steps, start=1):
        for rule_name in step.lossless_rules:
            if rule_name in pseudo_names:
                continue
            if step.kind == KIND_BINARY:
                known = (
                    canonical.has_constraint(rule_name)
                    or canonical.has_fact_type(rule_name)
                    or canonical.has_sublink(rule_name)
                )
            else:
                known = relational.has_constraint(rule_name)
            if not known:
                yield f"step {number} ({step.transformation})", (
                    f"cites lossless rule {rule_name!r} which exists "
                    "in neither the generated schema nor the pseudo "
                    "constraints"
                )


@lint_rule("TRC103", "orphan-lossless-rule", Severity.WARNING)
def check_orphan_lossless_rule(context):
    """A generated view constraint is cited by no trace step.

    Every ``C_EQ$``/``C_SUB$`` rule exists to compensate a specific
    transformation; one that no step claims leaves the map report
    unable to explain why the rule is there.
    """
    result = context.result
    cited: set[str] = set()
    for step in result.steps:
        cited.update(step.lossless_rules)
    for constraint in result.relational.view_constraints():
        if constraint.name not in cited:
            yield constraint.name, (
                "view constraint is not cited as a lossless rule by "
                "any trace step"
            )


@lint_rule("TRC104", "unknown-step-kind", Severity.ERROR)
def check_unknown_step_kind(context):
    """A trace step has a kind outside the three basic classes.

    Section 5 defines exactly three transformation classes
    (binary-binary, binary-relational, relational-relational); any
    other kind means the trace was corrupted or hand-edited.
    """
    for number, step in enumerate(context.result.steps, start=1):
        if step.kind not in STEP_KINDS:
            yield f"step {number} ({step.transformation})", (
                f"unknown step kind {step.kind!r}; expected one of "
                f"{', '.join(sorted(STEP_KINDS))}"
            )
