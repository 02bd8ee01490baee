"""Tests for RIDL-A function 1 (correctness)."""

from repro.analyzer import Severity, analyze, check_correctness
from repro.brm import SchemaBuilder, char, numeric
from repro.dsl import parse
from repro.lint import lint_schema
from repro.mapper import map_schema

#: A plain uniqueness and a reference uniqueness over the same role.
REFERENCE_PAIR = """schema Dup
nolot Thing
lot Code : char(5)
fact has ( Thing has, Code of )
constraint A1 unique has.has
constraint A2 unique has.has reference
constraint T1 total has.has
constraint U2 unique has.of
"""


def codes(diagnostics):
    return {d.code for d in diagnostics}


class TestLexicalFacts:
    def test_lot_to_lot_fact_is_error(self):
        b = SchemaBuilder()
        b.lot("A", char(3)).lot("B", char(3))
        b.fact("f", ("A", "x"), ("B", "y"))
        found = check_correctness(b.build())
        assert codes(found) == {"LEXICAL_FACT"}
        assert found[0].severity is Severity.ERROR

    def test_lot_nolot_to_lot_fact_is_fine(self):
        b = SchemaBuilder()
        b.lot_nolot("Person", char(30)).lot("Name", char(30))
        b.fact("f", ("Person", "x"), ("Name", "y"))
        assert "LEXICAL_FACT" not in codes(check_correctness(b.build()))


class TestItemCompatibility:
    def test_exclusion_over_unrelated_types_is_error(self):
        b = SchemaBuilder()
        b.nolot("Paper").nolot("Person").lot("K", char(3))
        b.fact("f", ("Paper", "x"), ("K", "y"))
        b.fact("g", ("Person", "x"), ("K", "y"))
        b.exclusion(("f", "x"), ("g", "x"))
        assert "INCOMPATIBLE_ITEMS" in codes(check_correctness(b.build()))

    def test_exclusion_within_family_is_fine(self):
        b = SchemaBuilder()
        b.nolot("Paper").nolot("Invited").nolot("Rejected")
        b.subtype("Invited", "Paper").subtype("Rejected", "Paper")
        b.exclusion("sublink:Invited_IS_Paper", "sublink:Rejected_IS_Paper")
        assert "INCOMPATIBLE_ITEMS" not in codes(check_correctness(b.build()))

    def test_subset_between_subtype_roles_is_fine(self):
        b = SchemaBuilder()
        b.nolot("Paper").nolot("PP").lot("K", char(3))
        b.subtype("PP", "Paper")
        b.fact("f", ("Paper", "x"), ("K", "y"))
        b.fact("g", ("PP", "x"), ("K", "y"))
        b.subset(("g", "x"), ("f", "x"))
        assert "INCOMPATIBLE_ITEMS" not in codes(check_correctness(b.build()))


class TestExternalUniqueness:
    def test_divergent_co_players_is_error(self):
        b = SchemaBuilder()
        b.nolot("A").nolot("B").lot("K", char(3)).lot("L", char(3))
        b.fact("f", ("A", "x"), ("K", "y"))
        b.fact("g", ("B", "x"), ("L", "y"))
        b.unique(("f", "y"), ("g", "y"))
        assert "EXTERNAL_UNIQUENESS_SHAPE" in codes(check_correctness(b.build()))

    def test_common_co_player_is_fine(self):
        b = SchemaBuilder()
        b.nolot("A").lot("K", char(3)).lot("L", char(3))
        b.fact("f", ("A", "x"), ("K", "y"))
        b.fact("g", ("A", "x"), ("L", "y"))
        b.unique(("f", "y"), ("g", "y"))
        assert "EXTERNAL_UNIQUENESS_SHAPE" not in codes(
            check_correctness(b.build())
        )


class TestFrequencyConflicts:
    def test_min_frequency_vs_uniqueness(self):
        b = SchemaBuilder()
        b.nolot("A").lot("K", char(3))
        b.fact("f", ("A", "x"), ("K", "y"), unique="first")
        b.frequency(("f", "x"), 2)
        assert "FREQUENCY_CONFLICT" in codes(check_correctness(b.build()))

    def test_max_frequency_without_uniqueness_is_fine(self):
        b = SchemaBuilder()
        b.nolot("A").lot("K", char(3))
        b.fact("f", ("A", "x"), ("K", "y"))
        b.frequency(("f", "x"), 1, 3)
        assert "FREQUENCY_CONFLICT" not in codes(check_correctness(b.build()))


class TestDuplicates:
    def test_duplicate_constraints_warned(self):
        b = SchemaBuilder()
        b.nolot("A").lot("K", char(3))
        b.fact("f", ("A", "x"), ("K", "y"))
        b.unique(("f", "x")).unique(("f", "x"))
        found = [d for d in check_correctness(b.build())
                 if d.code == "DUPLICATE_CONSTRAINT"]
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_reference_flag_tells_uniqueness_apart(self):
        # The mapper keeps both (only the reference bar names the
        # key), so the analyzer and lint no longer call A2 a duplicate.
        schema = parse(REFERENCE_PAIR)
        assert "DUPLICATE_CONSTRAINT" not in codes(analyze(schema).diagnostics)
        assert "BRM005" not in codes(lint_schema(schema).diagnostics)
        result = map_schema(schema)
        assert {"A1", "A2"} <= {c.name for c in result.canonical.constraints}
        report = result.map_report()
        assert "UNIQUE : ROLE has ON NOLOT Thing AND LOT Code" in report
        assert "IDENTIFIER : ROLE has ON NOLOT Thing AND LOT Code" in report

    def test_clean_schema_has_no_findings(self):
        b = SchemaBuilder()
        b.nolot("Paper").lot("Paper_Id", char(6)).lot_nolot("Session", numeric(3))
        b.identifier("Paper", "Paper_Id")
        b.attribute("Paper", "Session", total=True)
        assert check_correctness(b.build()) == []
