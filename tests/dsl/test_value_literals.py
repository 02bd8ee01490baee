"""Value literals of the DSL, and the DSL of lifted designs.

The reverse lift turns a BOOLEAN value restriction into ``(True,
False)``, and DDL literals such as ``'A''B'``, ``-1`` and ``1.5``
into Python values; a value constraint holding any of them must print
DSL that parses back to it.  Before the value grammar took quotes
doubled inside strings, signed integers, decimals and
``true``/``false``, 20 of the 60 lifted designs of the reverse
round-trip targets printed DSL that did not parse: every non-sql2
dialect under TOGETHER and INDICATOR on conference and CRIS, and under
INDICATOR on the industrial draw.  ``scripts/reverse_roundtrip.py``
checks all 60.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from repro.brm import SchemaBuilder, ValueConstraint, boolean, char, numeric
from repro.cris import cris_schema
from repro.dsl import parse, to_dsl
from repro.dsl.lexer import TokenKind, tokenize
from repro.errors import DslSyntaxError
from repro.mapper import MappingOptions, SublinkPolicy, map_schema
from repro.mapper.reverse import lift_ddl
from repro.workloads import generate_schema
from tests.executor.test_memory_kernels import INDUSTRIAL_SHAPE

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "conference.ridl"

TARGETS = {
    "conference": lambda: parse(EXAMPLE.read_text()),
    "cris": cris_schema,
    "industrial": lambda: generate_schema(INDUSTRIAL_SHAPE, seed=1989),
}
POLICIES = {
    "TOGETHER": SublinkPolicy.TOGETHER,
    "INDICATOR": SublinkPolicy.INDICATOR,
}
DIALECTS = ("db2", "ingres", "oracle", "sybase")
UNPARSABLE_BEFORE = [
    (target, policy, dialect)
    for target in TARGETS
    for policy in POLICIES
    for dialect in DIALECTS
    if target != "industrial" or policy == "INDICATOR"
]


def value_types(schema) -> list[list[type]]:
    # Equal value constraints may still differ in type: True == 1.
    return [
        [type(v) for v in c.values]
        for c in schema.constraints
        if isinstance(c, ValueConstraint)
    ]


class TestValueLiterals:
    def test_every_literal_round_trips_with_its_type(self):
        b = SchemaBuilder("Literals")
        b.lot("Code", char(5)).lot("Flag", boolean()).lot("Amount", numeric(5, 2))
        b.values("Code", ("it's", "", "'", "#--", "A"), name="V1")
        b.values("Flag", (True, False), name="V2")
        b.values("Amount", (-1, 1.5, -0.25, 1e-05, 7), name="V3")
        schema = b.build()
        text = to_dsl(schema)
        assert "constraint V1 values Code : 'it''s', '', '''', '#--', 'A'" in text
        assert "constraint V2 values Flag : true, false" in text
        assert "constraint V3 values Amount : -1, 1.5, -0.25, 1e-05, 7" in text
        again = parse(text)
        assert again == schema
        assert value_types(again) == value_types(schema)

    def test_lexer_reads_doubled_quotes_signs_and_decimals(self):
        tokens = tokenize("'a''b' -1 1.5 2..5 1e-05")
        assert [(t.kind, t.text) for t in tokens[:-2]] == [
            (TokenKind.STRING, "a'b"),
            (TokenKind.NUMBER, "-1"),
            (TokenKind.NUMBER, "1.5"),
            (TokenKind.NUMBER, "2"),
            (TokenKind.PUNCT, ".."),
            (TokenKind.NUMBER, "5"),
            (TokenKind.NUMBER, "1e-05"),
        ]

    @pytest.mark.parametrize(
        "statement",
        [
            "lot K : char(-1)",
            "lot K : char(1.5)",
            "nolot A\nlot K : char(3)\nfact f ( A x, K y )\n"
            "constraint frequency f.x 1.5",
        ],
    )
    def test_counts_stay_unsigned_integers(self, statement):
        with pytest.raises(DslSyntaxError, match="expected a number"):
            parse(statement)

    def test_other_words_are_not_values(self):
        with pytest.raises(DslSyntaxError, match="expected a value"):
            parse("lot F : boolean\nconstraint values F : True")


class TestValueTypes:
    """A value constraint keeps the type of each value: True == 1 and
    0 == 0.0 in Python, but not in DDL or the DSL."""

    def test_values_compare_by_type(self):
        flags = ValueConstraint("V", "Flag", (True, False))
        ints = ValueConstraint("V", "Flag", (1, 0))
        assert flags != ints
        assert len({flags, ints}) == 2
        again = ValueConstraint("V", "Flag", (True, False))
        assert flags == again and hash(flags) == hash(again)

    def test_duplicates_are_dropped_per_type_in_order(self):
        values = ValueConstraint("V", "N", (1, True, 0.0, False, 1, True)).values
        assert [(type(v), v) for v in values] == [
            (int, 1), (bool, True), (float, 0.0), (bool, False)
        ]

    def test_schema_comparison_sees_booleans_turn_into_integers(self):
        def schema(values):
            b = SchemaBuilder("Flags")
            b.lot("Flag", boolean())
            b.values("Flag", values, name="V1")
            return b.build()

        assert schema((True, False)) != schema((1, 0))
        assert parse(to_dsl(schema((True, False)))) == schema((True, False))


@functools.lru_cache(maxsize=None)
def mapped(target: str, policy: str):
    return map_schema(
        TARGETS[target](), MappingOptions(sublink_policy=POLICIES[policy])
    )


@pytest.mark.parametrize("target, policy, dialect", UNPARSABLE_BEFORE)
def test_lifted_design_round_trips(target, policy, dialect):
    lifted = lift_ddl(mapped(target, policy).sql(dialect), dialect).schema
    again = parse(to_dsl(lifted))
    assert again == lifted
    assert value_types(again) == value_types(lifted)
