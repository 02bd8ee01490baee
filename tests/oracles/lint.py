"""The SQL205 rule body that compiled and scanned every checker query.

Before ``SQL205`` (:func:`repro.lint.rules_sql.check_checker_identifier_unportable`)
worked out the dialect's unportable identifiers first, and returned
when there were none, it compiled every lossless rule of the mapping,
scanned each checker query for identifier-shaped words, and only then
kept the generated names that exceed the dialect's length limit or are
reserved words.  :func:`checker_identifier_unportable` keeps that body
verbatim, so ``tests/lint/test_sql205_oracle.py`` can pin the rule's
findings against it in every dialect.
"""

from __future__ import annotations

import re

from repro.lint.rules_sql import _identifiers


def checker_identifier_unportable(context):
    """The parent rule body: ``(subject, message)`` findings."""
    from repro.executor.compile import compile_rules

    schema = context.result.relational
    known = {name for _, name in _identifiers(context.result)}
    limit = context.profile.max_identifier_length
    reserved = context.profile.reserved_words
    for rule in compile_rules(schema):
        referenced = set(
            re.findall(r"[A-Za-z][A-Za-z0-9_$#]*", rule.sql)
        )
        offending = sorted(
            name
            for name in referenced & known
            if len(name) > limit or name.upper() in reserved
        )
        if offending:
            yield rule.name, (
                f"checker query references identifiers "
                f"{context.profile.name} would truncate or reserve: "
                f"{', '.join(offending)}"
            )
