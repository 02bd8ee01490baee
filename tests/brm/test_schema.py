"""Tests for the BinarySchema container and its navigation queries."""

import pytest

from repro.brm import (
    BinarySchema,
    FactType,
    Role,
    RoleId,
    SchemaBuilder,
    SublinkRef,
    SublinkType,
    TotalUnionConstraint,
    UniquenessConstraint,
    char,
    lot,
    nolot,
)
from repro.errors import (
    ConstraintError,
    DuplicateNameError,
    SchemaError,
    UnknownElementError,
)


@pytest.fixture
def schema():
    s = BinarySchema("conference")
    s.add_object_type(nolot("Paper"))
    s.add_object_type(nolot("Program_Paper"))
    s.add_object_type(lot("Paper_Id", char(6)))
    s.add_fact_type(
        FactType("has_id", Role("with", "Paper"), Role("of", "Paper_Id"))
    )
    s.add_sublink(SublinkType("PP_IS_Paper", "Program_Paper", "Paper"))
    return s


class TestAddition:
    def test_duplicate_object_type(self, schema):
        with pytest.raises(DuplicateNameError):
            schema.add_object_type(nolot("Paper"))

    def test_fact_requires_players(self, schema):
        with pytest.raises(UnknownElementError):
            schema.add_fact_type(
                FactType("bad", Role("a", "Paper"), Role("b", "Missing"))
            )

    def test_sublink_rejects_lot_ends(self, schema):
        with pytest.raises(SchemaError):
            schema.add_sublink(SublinkType("bad", "Paper_Id", "Paper"))

    def test_sublink_rejects_cycles(self, schema):
        with pytest.raises(SchemaError):
            schema.add_sublink(SublinkType("cycle", "Paper", "Program_Paper"))

    def test_constraint_requires_known_role(self, schema):
        with pytest.raises(UnknownElementError):
            schema.add_constraint(
                UniquenessConstraint("U1", roles=(RoleId("has_id", "nope"),))
            )

    def test_constraint_requires_known_fact(self, schema):
        with pytest.raises(UnknownElementError):
            schema.add_constraint(
                UniquenessConstraint("U1", roles=(RoleId("nope", "with"),))
            )

    def test_constraint_requires_known_sublink(self, schema):
        with pytest.raises(UnknownElementError):
            schema.add_constraint(
                TotalUnionConstraint(
                    "T1", object_type="Paper", items=(SublinkRef("nope"),)
                )
            )

    def test_total_union_sublink_must_belong_to_type(self, schema):
        schema.add_object_type(nolot("Other"))
        with pytest.raises(ConstraintError):
            schema.add_constraint(
                TotalUnionConstraint(
                    "T1", object_type="Other", items=(SublinkRef("PP_IS_Paper"),)
                )
            )

    def test_total_role_player_must_match(self, schema):
        schema.add_object_type(nolot("Other"))
        with pytest.raises(ConstraintError):
            schema.add_constraint(
                TotalUnionConstraint(
                    "T1", object_type="Other", items=(RoleId("has_id", "with"),)
                )
            )

    def test_total_role_on_supertype_allowed_for_subtype_role(self, schema):
        # A total union on the supertype may range over roles played by
        # a subtype (and vice versa) — the populations are compatible.
        schema.add_fact_type(
            FactType("pp_fact", Role("with", "Program_Paper"), Role("of", "Paper_Id"))
        )
        schema.add_constraint(
            TotalUnionConstraint(
                "T1", object_type="Paper", items=(RoleId("pp_fact", "with"),)
            )
        )


class TestRemoval:
    def test_remove_object_type_in_use(self, schema):
        with pytest.raises(SchemaError):
            schema.remove_object_type("Paper")

    def test_remove_unused_object_type(self, schema):
        schema.add_object_type(nolot("Loose"))
        schema.remove_object_type("Loose")
        assert not schema.has_object_type("Loose")

    def test_remove_fact_with_constraint(self, schema):
        schema.add_constraint(
            UniquenessConstraint("U1", roles=(RoleId("has_id", "with"),))
        )
        with pytest.raises(SchemaError):
            schema.remove_fact_type("has_id")
        schema.remove_constraint("U1")
        schema.remove_fact_type("has_id")
        assert not schema.has_fact_type("has_id")

    def test_remove_sublink_with_constraint(self, schema):
        schema.add_constraint(
            TotalUnionConstraint(
                "T1", object_type="Paper", items=(SublinkRef("PP_IS_Paper"),)
            )
        )
        with pytest.raises(SchemaError):
            schema.remove_sublink("PP_IS_Paper")

    def test_remove_unknown_constraint(self, schema):
        with pytest.raises(UnknownElementError):
            schema.remove_constraint("nope")


class TestReplacement:
    """Order-preserving replacement, validated as ``add_*`` validates."""

    def test_replacements_keep_their_place(self, schema):
        schema.add_object_type(nolot("Other"))
        schema.add_fact_type(
            FactType("last", Role("a", "Paper"), Role("b", "Paper_Id"))
        )
        schema.add_sublink(SublinkType("O_IS_Paper", "Other", "Paper"))
        schema.add_constraint(
            UniquenessConstraint("U1", roles=(RoleId("has_id", "with"),))
        )
        schema.add_constraint(
            UniquenessConstraint("U2", roles=(RoleId("last", "a"),))
        )
        before = schema.version
        schema.replace_fact_type(
            FactType("has_id", Role("with", "Program_Paper"),
                     Role("of", "Paper_Id"))
        )
        schema.replace_sublink(SublinkType("PP_IS_Paper", "Program_Paper", "Other"))
        schema.replace_constraint(
            UniquenessConstraint("U1", roles=(RoleId("has_id", "of"),))
        )
        assert schema.version != before
        assert [f.name for f in schema.fact_types] == ["has_id", "last"]
        assert schema.fact_type("has_id").first.player == "Program_Paper"
        assert [s.name for s in schema.sublinks] == ["PP_IS_Paper", "O_IS_Paper"]
        assert schema.ancestors_of("Program_Paper") == {"Other", "Paper"}
        assert [c.name for c in schema.constraints] == ["U1", "U2"]
        assert schema.constraint("U1").roles == (RoleId("has_id", "of"),)
        assert schema.is_unique(RoleId("has_id", "of"))

    def test_unknown_names_are_rejected(self, schema):
        with pytest.raises(UnknownElementError):
            schema.replace_fact_type(
                FactType("nope", Role("a", "Paper"), Role("b", "Paper_Id"))
            )
        with pytest.raises(UnknownElementError):
            schema.replace_sublink(SublinkType("nope", "Program_Paper", "Paper"))
        with pytest.raises(UnknownElementError):
            schema.replace_constraint(
                UniquenessConstraint("nope", roles=(RoleId("has_id", "of"),))
            )

    def test_replacements_validate_like_additions(self, schema):
        unique = UniquenessConstraint("U1", roles=(RoleId("has_id", "with"),))
        schema.add_constraint(unique)
        version = schema.version
        with pytest.raises(UnknownElementError):
            schema.replace_fact_type(
                FactType("has_id", Role("with", "Missing"), Role("of", "Paper_Id"))
            )
        with pytest.raises(SchemaError):
            schema.replace_sublink(
                SublinkType("PP_IS_Paper", "Program_Paper", "Paper_Id")
            )
        with pytest.raises(UnknownElementError):
            schema.replace_constraint(
                UniquenessConstraint("U1", roles=(RoleId("has_id", "nope"),))
            )
        with pytest.raises(ConstraintError):
            schema.replace_constraint(
                TotalUnionConstraint(
                    "U1", object_type="Paper_Id", items=(RoleId("has_id", "with"),)
                )
            )
        assert schema.version == version
        assert schema.constraint("U1") is unique

    def test_a_fact_keeps_its_role_names(self, schema):
        with pytest.raises(SchemaError, match="role names"):
            schema.replace_fact_type(
                FactType("has_id", Role("by", "Paper"), Role("of", "Paper_Id"))
            )

    def test_the_replaced_link_is_not_part_of_the_cycle_check(self):
        s = BinarySchema("chain")
        for name in ("A", "B", "C"):
            s.add_object_type(nolot(name))
        s.add_sublink(SublinkType("s1", "B", "A"))
        s.add_sublink(SublinkType("s2", "C", "B"))
        # A < C closes no cycle once s2 (C < B) is gone, though A
        # reaches C through s2 before the replacement.
        s.replace_sublink(SublinkType("s2", "A", "C"))
        assert s.ancestors_of("B") == {"A", "C"}
        with pytest.raises(SchemaError, match="cycle"):
            s.replace_sublink(SublinkType("s2", "A", "B"))


class TestNavigation:
    def test_role_resolution(self, schema):
        assert schema.role(RoleId("has_id", "with")).player == "Paper"
        assert schema.player_name(RoleId("has_id", "of")) == "Paper_Id"

    def test_co_role(self, schema):
        assert schema.co_role_id(RoleId("has_id", "with")) == RoleId("has_id", "of")
        assert schema.co_player_name(RoleId("has_id", "with")) == "Paper_Id"

    def test_roles_played_by(self, schema):
        assert schema.roles_played_by("Paper") == [RoleId("has_id", "with")]

    def test_ring_fact_roles_played_by(self):
        s = BinarySchema()
        s.add_object_type(nolot("Person"))
        s.add_fact_type(
            FactType("supervises", Role("boss", "Person"), Role("minion", "Person"))
        )
        assert len(s.roles_played_by("Person")) == 2

    def test_facts_involving(self, schema):
        assert [f.name for f in schema.facts_involving("Paper_Id")] == ["has_id"]

    def test_subtype_navigation(self, schema):
        assert schema.supertypes_of("Program_Paper") == {"Paper"}
        assert schema.subtypes_of("Paper") == {"Program_Paper"}
        assert schema.ancestors_of("Program_Paper") == {"Paper"}
        assert schema.descendants_of("Paper") == {"Program_Paper"}

    def test_deep_subtype_chain(self, schema):
        schema.add_object_type(nolot("Invited_PP"))
        schema.add_sublink(SublinkType("IPP_IS_PP", "Invited_PP", "Program_Paper"))
        assert schema.ancestors_of("Invited_PP") == {"Program_Paper", "Paper"}
        assert schema.root_supertypes_of("Invited_PP") == {"Paper"}

    def test_root_of_type_without_supertypes(self, schema):
        assert schema.root_supertypes_of("Paper") == {"Paper"}


class TestConstraintQueries:
    def test_is_unique_and_is_total(self, schema):
        role = RoleId("has_id", "with")
        assert not schema.is_unique(role)
        schema.add_constraint(UniquenessConstraint("U1", roles=(role,)))
        schema.add_constraint(
            TotalUnionConstraint("T1", object_type="Paper", items=(role,))
        )
        assert schema.is_unique(role)
        assert schema.is_total(role)
        assert schema.is_mandatory(role)

    def test_external_uniqueness_does_not_make_role_unique(self, schema):
        schema.add_fact_type(
            FactType("f2", Role("with", "Paper"), Role("of2", "Paper_Id"))
        )
        schema.add_constraint(
            UniquenessConstraint(
                "U1", roles=(RoleId("has_id", "with"), RoleId("f2", "with"))
            )
        )
        assert not schema.is_unique(RoleId("has_id", "with"))

    def test_functional_roles_of(self, schema):
        role = RoleId("has_id", "with")
        schema.add_constraint(UniquenessConstraint("U1", roles=(role,)))
        assert schema.functional_roles_of("Paper") == [role]
        assert schema.functional_roles_of("Paper_Id") == []

    def test_constraints_over(self, schema):
        role = RoleId("has_id", "with")
        schema.add_constraint(UniquenessConstraint("U1", roles=(role,)))
        assert [c.name for c in schema.constraints_over(role)] == ["U1"]


class TestWholeSchema:
    def test_copy_is_independent(self, schema):
        duplicate = schema.copy()
        duplicate.add_object_type(nolot("Extra"))
        assert not schema.has_object_type("Extra")
        assert duplicate.has_object_type("Extra")

    def test_copy_equality(self, schema):
        assert schema.copy() == schema

    def test_fresh_name(self, schema):
        assert schema.fresh_name("Paper") == "Paper_2"
        assert schema.fresh_name("Novel") == "Novel"
        assert schema.fresh_name("Novel", taken=["Novel"]) == "Novel_2"

    def test_stats(self, schema):
        stats = schema.stats()
        assert stats["object_types"] == 3
        assert stats["nolots"] == 2
        assert stats["lots"] == 1
        assert stats["fact_types"] == 1
        assert stats["sublinks"] == 1

    def test_builder_roundtrip_equality(self):
        def build():
            b = SchemaBuilder("s")
            b.nolot("Paper").lot("Paper_Id", char(6))
            b.identifier("Paper", "Paper_Id")
            return b.build()

        assert build() == build()
