"""``SQL2xx`` — dialect and DDL identifier checks.

"From this generic relational schema a schema definition for any
relational DBMS can be derived" (§4.3) — but only if every generated
name is a legal identifier there.  These rules check the generated
relation, column, constraint and domain names against the selected
:class:`~repro.sql.emitter.DialectProfile`: lexical shape, 1989-era
length limits, case-insensitive uniqueness per namespace, and
reserved words.
"""

from __future__ import annotations

import re

from repro.analyzer.diagnostics import Severity
from repro.lint.registry import lint_rule

#: The identifier shape every profiled 1989 dialect accepts: a
#: letter, then letters/digits/underscores/``$``/``#``.
IDENTIFIER = re.compile(r"^[A-Za-z][A-Za-z0-9_$#]*$")


def _identifiers(result):
    """``(namespace, name)`` pairs for every generated identifier.

    Namespaces mirror SQL's scoping: relations, domains and
    constraints are schema-wide; columns are scoped per relation.
    """
    schema = result.relational
    for relation in schema.relations:
        yield "relation", relation.name
        for attribute in relation.attributes:
            yield f"column in {relation.name}", attribute.name
    for domain in schema.domains:
        yield "domain", domain.name
    for constraint in schema.constraints:
        yield "constraint", constraint.name


@lint_rule("SQL201", "invalid-identifier", Severity.ERROR)
def check_invalid_identifier(context):
    """A generated name is not a legal SQL identifier.

    Identifiers must start with a letter and contain only letters,
    digits, underscores, ``$`` or ``#`` — the intersection of what
    the five profiled dialects accept without quoting.
    """
    for namespace, name in _identifiers(context.result):
        if not IDENTIFIER.match(name):
            yield name, f"{namespace} name is not a legal SQL identifier"


@lint_rule("SQL202", "identifier-collision", Severity.ERROR)
def check_identifier_collision(context):
    """Two generated names collide case-insensitively.

    SQL folds unquoted identifiers to one case, so ``Paper`` and
    ``PAPER`` in the same namespace denote the same object; the DDL
    would fail to load or silently merge two concepts.
    """
    seen: dict[tuple[str, str], str] = {}
    for namespace, name in _identifiers(context.result):
        key = (namespace, name.upper())
        first = seen.setdefault(key, name)
        if first != name:
            yield name, (
                f"{namespace} name collides case-insensitively with "
                f"{first!r}"
            )


@lint_rule("SQL203", "identifier-too-long", Severity.WARNING)
def check_identifier_too_long(context):
    """A generated name exceeds the dialect's identifier limit.

    1989-era limits are short (DB2: 18, INGRES: 24, ORACLE: 30); a
    longer name must be renamed or truncated before the DDL loads on
    that target.
    """
    limit = context.profile.max_identifier_length
    for namespace, name in _identifiers(context.result):
        if len(name) > limit:
            yield name, (
                f"{namespace} name has {len(name)} characters; "
                f"{context.profile.name} allows {limit}"
            )


@lint_rule("SQL204", "reserved-word", Severity.WARNING)
def check_reserved_word(context):
    """A generated name is a reserved word of the dialect.

    Reserved words cannot be used as unquoted identifiers; the DDL
    would be rejected (or worse, reinterpreted) by the target DBMS.
    """
    reserved = context.profile.reserved_words
    for namespace, name in _identifiers(context.result):
        if name.upper() in reserved:
            yield name, (
                f"{namespace} name is a reserved word of "
                f"{context.profile.name}"
            )


@lint_rule("SQL205", "checker-identifier-unportable", Severity.WARNING)
def check_checker_identifier_unportable(context):
    """A lossless rule's checker query uses an unportable identifier.

    The validation harness (:mod:`repro.executor`) compiles every
    lossless rule into an executable checker query.  A query that
    references a relation or column name the selected dialect would
    truncate or treat as a reserved word cannot run there unquoted —
    the rule would be silently unenforceable on that target.
    """
    limit = context.profile.max_identifier_length
    reserved = context.profile.reserved_words
    unportable = {
        name
        for _, name in _identifiers(context.result)
        if len(name) > limit or name.upper() in reserved
    }
    # No query can reference an unportable name when none exists, so
    # the checkers need not be compiled and scanned.
    if not unportable:
        return
    from repro.executor.compile import compile_rules

    for rule in compile_rules(context.result.relational):
        offending = sorted(
            unportable.intersection(
                re.findall(r"[A-Za-z][A-Za-z0-9_$#]*", rule.sql)
            )
        )
        if offending:
            yield rule.name, (
                f"checker query references identifiers "
                f"{context.profile.name} would truncate or reserve: "
                f"{', '.join(offending)}"
            )
