"""Tests for the in-memory relational engine."""

import pytest

from repro.brm import char, numeric
from repro.engine import Database
from repro.errors import EngineError, IntegrityViolation
from repro.relational import (
    Attribute,
    CandidateKey,
    CheckConstraint,
    Domain,
    EqualityViewConstraint,
    ForeignKey,
    IsNull,
    NotNull,
    PrimaryKey,
    Relation,
    RelationalSchema,
    SelectSpec,
    SubsetViewConstraint,
    dependent_existence,
)


@pytest.fixture
def schema():
    s = RelationalSchema("conf")
    s.add_domain(Domain("D_Id", char(6)))
    s.add_domain(Domain("D_Session", numeric(3)))
    s.add_relation(
        Relation(
            "Paper",
            (
                Attribute("Paper_Id", "D_Id"),
                Attribute("Paper_ProgramId_Is", "D_Id", nullable=True),
            ),
        )
    )
    s.add_relation(
        Relation(
            "Program_Paper",
            (
                Attribute("Paper_ProgramId", "D_Id"),
                Attribute("Session_comprising", "D_Session"),
            ),
        )
    )
    s.add_constraint(PrimaryKey("PK_P", relation="Paper", columns=("Paper_Id",)))
    s.add_constraint(
        PrimaryKey("PK_PP", relation="Program_Paper", columns=("Paper_ProgramId",))
    )
    s.add_constraint(
        ForeignKey(
            "C_FKEY$_8",
            relation="Program_Paper",
            columns=("Paper_ProgramId",),
            referenced_relation="Paper",
            referenced_columns=("Paper_ProgramId_Is",),
        )
    )
    return s


@pytest.fixture
def db(schema):
    return Database(schema)


class TestDataManipulation:
    def test_insert_fills_missing_with_null(self, db):
        row = db.insert("Paper", {"Paper_Id": "P1"})
        assert row == {"Paper_Id": "P1", "Paper_ProgramId_Is": None}

    def test_insert_rejects_unknown_columns(self, db):
        with pytest.raises(EngineError):
            db.insert("Paper", {"Nope": 1})

    def test_insert_unknown_relation(self, db):
        from repro.errors import UnknownElementError

        with pytest.raises(UnknownElementError):
            db.insert("Nope", {})

    def test_delete_with_predicate(self, db):
        db.insert("Paper", {"Paper_Id": "P1"})
        db.insert("Paper", {"Paper_Id": "P2", "Paper_ProgramId_Is": "G1"})
        removed = db.delete("Paper", IsNull("Paper_ProgramId_Is"))
        assert removed == 1
        assert db.count("Paper") == 1

    def test_delete_all(self, db):
        db.insert("Paper", {"Paper_Id": "P1"})
        assert db.delete("Paper") == 1
        assert db.count("Paper") == 0


class TestQueries:
    def test_select_where_and_projection(self, db):
        db.insert("Paper", {"Paper_Id": "P1", "Paper_ProgramId_Is": "G1"})
        db.insert("Paper", {"Paper_Id": "P2"})
        rows = db.select(
            "Paper", NotNull("Paper_ProgramId_Is"), columns=("Paper_Id",)
        )
        assert rows == [{"Paper_Id": "P1"}]

    def test_rows_returns_copies(self, db):
        db.insert("Paper", {"Paper_Id": "P1"})
        rows = db.rows("Paper")
        rows[0]["Paper_Id"] = "tampered"
        assert db.rows("Paper")[0]["Paper_Id"] == "P1"

    def test_evaluate_select_with_where(self, db):
        db.insert("Paper", {"Paper_Id": "P1", "Paper_ProgramId_Is": "G1"})
        db.insert("Paper", {"Paper_Id": "P2"})
        spec = SelectSpec(
            "Paper", ("Paper_ProgramId_Is",), where=NotNull("Paper_ProgramId_Is")
        )
        assert db.evaluate_select(spec) == {("G1",)}


class TestConstraintChecking:
    def test_valid_state(self, db):
        db.insert("Paper", {"Paper_Id": "P1", "Paper_ProgramId_Is": "G1"})
        db.insert(
            "Program_Paper", {"Paper_ProgramId": "G1", "Session_comprising": 3}
        )
        assert db.is_valid()

    def test_not_null_violation(self, db):
        db.insert("Program_Paper", {"Paper_ProgramId": "G1"})
        names = [v.constraint_name for v in db.check()]
        assert any("NOT NULL" in name for name in names)

    def test_primary_key_null_violation(self, db):
        db.insert("Paper", {})
        assert any(v.constraint_name == "PK_P" for v in db.check())

    def test_primary_key_duplicate(self, db):
        db.insert("Paper", {"Paper_Id": "P1"})
        db.insert("Paper", {"Paper_Id": "P1"})
        assert any("duplicate key" in str(v) for v in db.check())

    def test_nullable_primary_key_skips_entity_integrity(self, schema):
        # The paper's NULL ALLOWED option deliberately permits NULL in
        # "primary keys" for non-homogeneously referencible NOLOTs.
        relaxed = RelationalSchema("relaxed")
        relaxed.add_domain(Domain("D_Id", char(6)))
        relaxed.add_relation(
            Relation("R", (Attribute("K", "D_Id", nullable=True),))
        )
        relaxed.add_constraint(PrimaryKey("PK", relation="R", columns=("K",)))
        db = Database(relaxed)
        db.insert("R", {})
        db.insert("R", {})
        assert db.is_valid()  # two NULL keys are fine under the option

    def test_candidate_key_allows_nulls_but_not_duplicates(self, schema):
        schema.add_constraint(
            CandidateKey(
                "CK", relation="Paper", columns=("Paper_ProgramId_Is",)
            )
        )
        db = Database(schema)
        db.insert("Paper", {"Paper_Id": "P1"})
        db.insert("Paper", {"Paper_Id": "P2"})
        assert db.is_valid()  # several NULLs allowed
        db.insert("Paper", {"Paper_Id": "P3", "Paper_ProgramId_Is": "G1"})
        db.insert("Paper", {"Paper_Id": "P4", "Paper_ProgramId_Is": "G1"})
        assert any(v.constraint_name == "CK" for v in db.check())

    def test_foreign_key_violation(self, db):
        db.insert(
            "Program_Paper", {"Paper_ProgramId": "G9", "Session_comprising": 1}
        )
        assert any(v.constraint_name == "C_FKEY$_8" for v in db.check())

    def test_foreign_key_ignores_null_source(self, db):
        db.insert("Paper", {"Paper_Id": "P1"})  # NULL Paper_ProgramId_Is
        assert not any(v.constraint_name == "C_FKEY$_8" for v in db.check())

    def test_check_constraint(self, schema):
        schema.add_relation(
            Relation(
                "Wide",
                (
                    Attribute("A", "D_Id", nullable=True),
                    Attribute("B", "D_Id", nullable=True),
                ),
            )
        )
        schema.add_constraint(
            CheckConstraint(
                "C_DE$_1",
                relation="Wide",
                predicate=dependent_existence(NotNull("A"), NotNull("B")),
            )
        )
        db = Database(schema)
        db.insert("Wide", {"A": "x"})  # A without B
        assert any(v.constraint_name == "C_DE$_1" for v in db.check())
        db.delete("Wide")
        db.insert("Wide", {"A": "x", "B": "y"})
        db.insert("Wide", {})
        assert db.is_valid()

    def test_equality_view_constraint(self, schema, db):
        schema.add_constraint(
            EqualityViewConstraint(
                "C_EQ$_3",
                left=SelectSpec("Program_Paper", ("Paper_ProgramId",)),
                right=SelectSpec(
                    "Paper",
                    ("Paper_ProgramId_Is",),
                    where=NotNull("Paper_ProgramId_Is"),
                ),
            )
        )
        db.insert("Paper", {"Paper_Id": "P1", "Paper_ProgramId_Is": "G1"})
        assert any(v.constraint_name == "C_EQ$_3" for v in db.check())
        db.insert(
            "Program_Paper", {"Paper_ProgramId": "G1", "Session_comprising": 2}
        )
        assert db.is_valid()

    def test_subset_view_constraint(self, schema, db):
        schema.add_constraint(
            SubsetViewConstraint(
                "C_SUB$_1",
                subset=SelectSpec("Program_Paper", ("Paper_ProgramId",)),
                superset=SelectSpec(
                    "Paper",
                    ("Paper_ProgramId_Is",),
                    where=NotNull("Paper_ProgramId_Is"),
                ),
            )
        )
        db.insert(
            "Program_Paper", {"Paper_ProgramId": "G1", "Session_comprising": 2}
        )
        assert any(v.constraint_name == "C_SUB$_1" for v in db.check())

    def test_validate_raises(self, db):
        db.insert("Paper", {})
        with pytest.raises(IntegrityViolation):
            db.validate()


class TestWholeDatabase:
    def test_copy_is_independent(self, db):
        db.insert("Paper", {"Paper_Id": "P1"})
        duplicate = db.copy()
        duplicate.insert("Paper", {"Paper_Id": "P2"})
        assert db.count("Paper") == 1
        assert duplicate.count("Paper") == 2

    def test_equality_ignores_insertion_order(self, db):
        other = db.copy()
        db.insert("Paper", {"Paper_Id": "P1"})
        db.insert("Paper", {"Paper_Id": "P2"})
        other.insert("Paper", {"Paper_Id": "P2"})
        other.insert("Paper", {"Paper_Id": "P1"})
        assert db == other

    def test_as_dict_snapshot(self, db):
        db.insert("Paper", {"Paper_Id": "P1"})
        snapshot = db.as_dict()
        assert snapshot["Paper"] == {("P1", None)}
