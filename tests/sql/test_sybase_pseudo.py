"""Tests for the SYBASE profile and the pseudo-SQL renderers."""

import pytest

from repro.cris import figure6_schema
from repro.mapper import MappingOptions, SublinkPolicy, map_schema
from repro.relational import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    NotNull,
    PrimaryKey,
    SelectSpec,
    SubsetViewConstraint,
)
from repro.sql import PROFILES, as_comment


@pytest.fixture(scope="module")
def result():
    return map_schema(
        figure6_schema(),
        MappingOptions(
            sublink_overrides=(
                ("Invited_Paper_IS_Paper", SublinkPolicy.INDICATOR),
            )
        ),
    )


class TestSybase:
    def test_registered(self):
        assert "sybase" in PROFILES

    def test_checks_are_native(self, result):
        ddl = result.sql("sybase")
        assert "CHECK( -- Value Restriction" in ddl

    def test_foreign_keys_commented(self, result):
        # 1989 SYBASE had no declarative referential integrity.
        ddl = result.sql("sybase")
        assert "-- REFERENCES Paper" in ddl

    def test_datetime_type(self, result):
        ddl = result.sql("sybase")
        assert "DATETIME -- DOMAIN D_Date" in ddl


class TestPseudoRenderers:
    def test_primary_key_rendering(self):
        text = (
            PrimaryKey("C_KEY$_1", relation="Paper", columns=("Paper_Id",))
        ).render()
        assert "PRIMARY KEY ( Paper_Id )" in text
        assert "CONSTRAINT C_KEY$_1" in text

    def test_candidate_key_rendering(self):
        text = (
            CandidateKey("C_KEY$_2", relation="Paper", columns=("A", "B"))
        ).render()
        assert "UNIQUE ( A, B )" in text

    def test_foreign_key_rendering(self):
        text = (
            ForeignKey(
                "C_FKEY$_1",
                relation="Sub",
                columns=("K",),
                referenced_relation="Super",
                referenced_columns=("K",),
            )
        ).render()
        assert "FOREIGN KEY Sub ( K )" in text
        assert "REFERENCES Super ( K )" in text

    def test_check_rendering_carries_comment(self):
        text = (
            CheckConstraint(
                "C_DE$_1",
                relation="R",
                predicate=NotNull("a"),
                comment="Dependent Existence",
            )
        ).render()
        assert "CHECK( -- Dependent Existence" in text

    def test_equality_view_rendering_matches_paper_layout(self):
        text = (
            EqualityViewConstraint(
                "C_EQ$_3",
                left=SelectSpec("Program_Paper", ("Paper_ProgramId",)),
                right=SelectSpec(
                    "Paper",
                    ("Paper_ProgramId_Is",),
                    where=NotNull("Paper_ProgramId_Is"),
                ),
            )
        ).render()
        lines = text.splitlines()
        assert lines[0] == "EQUALITY VIEW CONSTRAINT :"
        assert "( SELECT Paper_ProgramId" in lines[1]
        assert "IS EQUAL TO" in text
        assert "WHERE ( Paper_ProgramId_Is IS NOT NULL )" in text
        assert lines[-1] == "CONSTRAINT C_EQ$_3"

    def test_subset_view_rendering(self):
        text = (
            SubsetViewConstraint(
                "C_SUB$_1",
                subset=SelectSpec("A", ("x",)),
                superset=SelectSpec("B", ("y",)),
            )
        ).render()
        assert "SUBSET VIEW CONSTRAINT :" in text
        assert "IS CONTAINED IN" in text

    def test_as_comment_prefixes_every_line(self):
        commented = as_comment("one\n\ntwo")
        assert commented.splitlines() == ["-- one", "--", "-- two"]
