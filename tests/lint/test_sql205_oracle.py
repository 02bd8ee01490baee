"""SQL205 against the rule body that compiled every checker query.

The rule now works out the dialect's unportable identifiers first and
compiles nothing when there are none.  Its findings must equal the
parent body's (``tests/oracles/lint.py``) in every dialect: sql2 takes
the early return, db2 (18-character names) and oracle on CRIS (the
reserved ``Session``) the scan.
"""

import pytest

from repro.analyzer import analyze
from repro.lint.engine import LintContext
from repro.lint.rules_sql import check_checker_identifier_unportable
from repro.mapper import MappingOptions, SublinkPolicy, map_schema
from repro.sql import PROFILES
from repro.workloads import generate_schema
from tests.executor.test_memory_kernels import INDUSTRIAL_SHAPE
from tests.oracles.lint import checker_identifier_unportable

DRAWS = (1, 2, 3, 1989)


def _findings(schema, result):
    report = analyze(schema)
    by_dialect = {}
    for dialect, profile in PROFILES.items():
        context = LintContext(
            schema=schema,
            report=report,
            result=result,
            dialect=dialect,
            profile=profile,
        )
        rule = list(check_checker_identifier_unportable(context))
        assert rule == list(checker_identifier_unportable(context)), dialect
        by_dialect[dialect] = rule
    return by_dialect


def test_cris_findings_equal_the_oracle(cris, cris_result):
    findings = _findings(cris, cris_result)
    assert len(findings["oracle"]) == 4
    assert findings["db2"]
    assert findings["sql2"] == []


@pytest.mark.parametrize("seed", DRAWS)
def test_industrial_findings_equal_the_oracle(seed):
    schema = generate_schema(INDUSTRIAL_SHAPE, seed=seed)
    options = MappingOptions(sublink_policy=SublinkPolicy.INDICATOR)
    findings = _findings(schema, map_schema(schema, options))
    assert findings["db2"]
    assert findings["sql2"] == []
