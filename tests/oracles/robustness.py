"""The whole-relation verifier the injection planner's delta verdicts
replaced.

Before each constraint kind judged a one-row edit from key counters
(``RelationalConstraint.delta_index``), the planner checked every
candidate by splicing its row into a fork of the clean database and
re-running, over the whole mutated relation, every rule that reads
that relation.  :func:`whole_relation_verifier` keeps that body
verbatim: it answers through ``MemoryBackend.run_rule``, i.e. each
constraint's ``violating()``, and never through the delta face, so
``tests/robustness/test_delta_verdicts.py`` can pin
``repro.robustness.violations.default_verifier`` against it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.engine.database import Database
from repro.executor.backends import MemoryBackend
from repro.relational.schema import RelationalSchema
from repro.robustness.violations import Dataset, Delta


def whole_relation_verifier(
    schema: RelationalSchema,
    rules: tuple,
    baseline: Dataset,
) -> Callable[[Delta], set[str]]:
    """A full-rule checker of one-row deltas against ``baseline``.

    The clean database and its violation set are built once, on the
    in-memory reference backend; ``baseline``'s rows are shared, not
    copied, since checking never writes them.  Each delta is checked
    on a fork that shares every table and splices the delta's row
    (normalized as :meth:`Database.insert` would) into a copy of its
    relation's row list.  Only the rules whose dependency relations
    (:attr:`CompiledRule.relations`) include that relation are
    re-run, over the whole mutated relation; every other rule sees
    exactly the clean rows, so its baseline verdict carries over.
    """
    clean = Database(schema)
    for relation, rows in baseline.items():
        clean.load_rows(relation, rows)
    backend = MemoryBackend()
    backend.database = clean
    base_violations = {violation.rule for violation in backend.check(rules)}
    backend.database = fork = Database(schema)

    def verify(delta: Delta) -> set[str]:
        relation = delta.relation
        affected = tuple(r for r in rules if relation in r.relations)
        carried = {
            r.name
            for r in rules
            if r.name in base_violations and relation not in r.relations
        }
        if delta.row is not None:
            delta = replace(delta, row=clean.normalize(relation, delta.row))
        fork._tables = {
            **clean._tables,
            relation: delta.splice(clean._tables[relation]),
        }
        fired = {violation.rule for violation in backend.check(affected)}
        return fired | carried

    return verify
