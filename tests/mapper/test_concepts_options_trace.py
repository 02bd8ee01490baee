"""Tests for concept descriptions, mapping options and trace records."""

import pytest

from repro.brm import RoleId, SchemaBuilder, SublinkRef, char, numeric
from repro.brm.concepts import (
    describe_fact,
    describe_object_type,
    describe_role,
    describe_sublink,
)
from repro.cris import figure6_schema
from repro.mapper import AppliedStep, MappingOptions, NullPolicy, SublinkPolicy
from repro.mapper.trace import Provenance


@pytest.fixture(scope="module")
def schema():
    return figure6_schema()


class TestConceptDescriptions:
    def test_object_types(self, schema):
        assert describe_object_type(schema, "Paper") == "NOLOT Paper"
        assert describe_object_type(schema, "Paper_Id") == "LOT Paper_Id"
        assert describe_object_type(schema, "Person") == "LOT-NOLOT Person"

    def test_fact_matches_paper_house_style(self, schema):
        assert describe_fact(schema, "presents") == (
            "FACT WITH ROLE presented_by ON NOLOT Program_Paper AND "
            "ROLE presenting ON LOT-NOLOT Person"
        )

    def test_role(self, schema):
        assert describe_role(schema, RoleId("presents", "presenting")) == (
            "ROLE presenting ON LOT-NOLOT Person"
        )

    def test_sublink_matches_paper_house_style(self, schema):
        assert describe_sublink(schema, "Program_Paper_IS_Paper") == (
            "SUBLINK IS FROM NOLOT Program_Paper TO NOLOT Paper"
        )

    def test_identifier_vs_plain_uniqueness(self, schema):
        reference = next(
            c for c in schema.uniqueness_constraints()
            if c.is_reference and c.roles[0].fact == "Paper_has_Paper_Id"
        )
        assert reference.describe(schema).startswith("IDENTIFIER :")
        plain = next(
            c for c in schema.uniqueness_constraints()
            if not c.is_reference and c.roles[0].fact == "Paper_has_Title"
        )
        assert plain.describe(schema).startswith("UNIQUE :")

    def test_total_role_description(self, schema):
        total = next(
            c for c in schema.totals()
            if c.is_total_role and c.items[0].fact == "scheduled"
        )
        assert total.describe(schema) == (
            "TOTAL : ROLE presented_during ON NOLOT Program_Paper AND "
            "LOT-NOLOT Session"
        )

    def test_set_algebraic_descriptions(self):
        b = SchemaBuilder("s")
        b.nolot("A").nolot("B").nolot("C")
        b.subtype("B", "A").subtype("C", "A")
        b.exclusion("sublink:B_IS_A", "sublink:C_IS_A", name="X1")
        b.lot("K", char(3))
        b.fact("f", ("A", "x"), ("K", "y"))
        b.fact("g", ("A", "x"), ("K", "y2"))
        b.equality(("f", "x"), ("g", "x"), name="E1")
        b.subset(("f", "x"), ("g", "x"), name="S1")
        b.frequency(("f", "y"), 2, 5, name="F1")
        b.values("K", ("A", "B"), name="V1")
        b.total_union("A", ("f", "x"), "sublink:B_IS_A", name="T9")
        built = b.build()
        texts = {c.name: c.describe(built) for c in built.constraints}
        assert texts["X1"].startswith("EXCLUSION : SUBLINK")
        assert texts["E1"].startswith("EQUALITY :")
        assert " IN " in texts["S1"]
        assert "FREQUENCY (2..5)" in texts["F1"]
        assert "VALUES OF LOT K" in texts["V1"]
        assert texts["T9"].startswith("TOTAL UNION ON NOLOT A")


class TestMappingOptions:
    def test_policy_for_uses_overrides(self):
        options = MappingOptions(
            sublink_policy=SublinkPolicy.SEPARATE,
            sublink_overrides=(("x", SublinkPolicy.TOGETHER),),
        )
        assert options.policy_for("x") is SublinkPolicy.TOGETHER
        assert options.policy_for("y") is SublinkPolicy.SEPARATE

    def test_with_overrides_copies(self):
        options = MappingOptions()
        changed = options.with_overrides(null_policy=NullPolicy.ALLOWED)
        assert changed.null_policy is NullPolicy.ALLOWED
        assert options.null_policy is NullPolicy.DEFAULT

    def test_preferences_dict(self):
        options = MappingOptions(
            lexical_preferences=(("Person", ("Person_has_Ssn",)),)
        )
        assert options.preferences_dict() == {"Person": ("Person_has_Ssn",)}

    def test_options_are_hashable_value_objects(self):
        assert MappingOptions() == MappingOptions()
        assert hash(MappingOptions()) == hash(MappingOptions())


class TestTraceRecords:
    def test_applied_step_str(self):
        step = AppliedStep(
            "eliminate-sublink",
            "binary-binary",
            "PP_IS_Paper",
            "roles re-played",
            ("LL_EE_1",),
        )
        text = str(step)
        assert "eliminate-sublink" in text
        assert "[lossless: LL_EE_1]" in text

    def test_provenance_deduplicates(self):
        provenance = Provenance()
        provenance.add_table("Paper", "NOLOT Paper", "NOLOT Paper")
        provenance.add_column("Paper", "Title_of", "FACT x", "FACT x")
        provenance.add_constraint("C_KEY$_1", "IDENTIFIER", "IDENTIFIER")
        assert provenance.tables["Paper"] == ["NOLOT Paper"]
        assert provenance.columns[("Paper", "Title_of")] == ["FACT x"]
        assert provenance.constraints["C_KEY$_1"] == ["IDENTIFIER"]

    def test_forward_entries_keep_order(self):
        provenance = Provenance()
        provenance.add_forward("A", "select a")
        provenance.add_forward("B", "select b")
        assert provenance.forward == [("A", "select a"), ("B", "select b")]


class TestScopeOption:
    def test_partial_mapping(self, schema):
        from repro.mapper import map_schema

        result = map_schema(
            schema,
            MappingOptions(
                scope=("Paper", "Paper_Id", "Title", "Date"),
            ),
        )
        names = {r.name for r in result.relational.relations}
        assert names == {"Paper"}
        columns = result.relational.relation("Paper").attribute_names
        assert "Paper_ProgramId_Is" not in columns  # subtree out of scope

    def test_scope_step_recorded(self, schema):
        from repro.mapper import map_schema

        result = map_schema(
            schema, MappingOptions(scope=("Paper", "Paper_Id", "Title"))
        )
        assert any(s.transformation == "restrict-scope" for s in result.steps)
