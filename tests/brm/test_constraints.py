"""Tests for the constraint taxonomy (well-formedness rules)."""

import pytest

from repro.brm import (
    EqualityConstraint,
    ExclusionConstraint,
    FrequencyConstraint,
    RoleId,
    SublinkRef,
    SubsetConstraint,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
)
from repro.errors import ConstraintError

R1 = RoleId("f1", "a")
R2 = RoleId("f2", "b")
S1 = SublinkRef("Sub_IS_Super")


class TestUniqueness:
    def test_simple(self):
        constraint = UniquenessConstraint("U1", roles=(R1,))
        assert constraint.is_simple
        assert not constraint.is_external

    def test_external_spans_facts(self):
        constraint = UniquenessConstraint("U2", roles=(R1, R2))
        assert constraint.is_external
        assert not constraint.is_simple

    def test_pair_within_one_fact_is_not_external(self):
        constraint = UniquenessConstraint(
            "U3", roles=(RoleId("f1", "a"), RoleId("f1", "b"))
        )
        assert not constraint.is_external

    def test_requires_roles(self):
        with pytest.raises(ConstraintError):
            UniquenessConstraint("U4", roles=())

    def test_rejects_duplicate_roles(self):
        with pytest.raises(ConstraintError):
            UniquenessConstraint("U5", roles=(R1, R1))

    def test_reference_flag(self):
        assert UniquenessConstraint("U6", roles=(R1,), is_reference=True).is_reference


class TestTotalUnion:
    def test_single_role_is_total_role(self):
        constraint = TotalUnionConstraint("T1", object_type="Paper", items=(R1,))
        assert constraint.is_total_role

    def test_union_over_sublinks_is_not_total_role(self):
        constraint = TotalUnionConstraint("T2", object_type="Paper", items=(S1,))
        assert not constraint.is_total_role

    def test_requires_object_type(self):
        with pytest.raises(ConstraintError):
            TotalUnionConstraint("T3", object_type="", items=(R1,))

    def test_requires_items(self):
        with pytest.raises(ConstraintError):
            TotalUnionConstraint("T4", object_type="Paper", items=())


class TestExclusionEqualitySubset:
    def test_exclusion_needs_two_items(self):
        with pytest.raises(ConstraintError):
            ExclusionConstraint("X1", items=(R1,))

    def test_exclusion_rejects_duplicates(self):
        with pytest.raises(ConstraintError):
            ExclusionConstraint("X2", items=(R1, R1))

    def test_exclusion_mixes_roles_and_sublinks(self):
        constraint = ExclusionConstraint("X3", items=(R1, S1))
        assert constraint.items == (R1, S1)

    def test_equality_needs_two_items(self):
        with pytest.raises(ConstraintError):
            EqualityConstraint("E1", items=(R1,))

    def test_subset_needs_distinct_ends(self):
        with pytest.raises(ConstraintError):
            SubsetConstraint("S1", subset=R1, superset=R1)

    def test_subset_items(self):
        constraint = SubsetConstraint("S2", subset=R1, superset=R2)
        assert constraint.items == (R1, R2)


class TestFrequencyAndValue:
    def test_frequency_bounds(self):
        constraint = FrequencyConstraint("F1", role=R1, minimum=2, maximum=4)
        assert constraint.items == (R1,)

    def test_frequency_rejects_bad_bounds(self):
        with pytest.raises(ConstraintError):
            FrequencyConstraint("F2", role=R1, minimum=3, maximum=2)
        with pytest.raises(ConstraintError):
            FrequencyConstraint("F3", role=R1, minimum=-1)

    def test_frequency_requires_role(self):
        with pytest.raises(ConstraintError):
            FrequencyConstraint("F4")

    def test_value_constraint(self):
        constraint = ValueConstraint("V1", object_type="Flag", values=("Y", "N"))
        assert constraint.values == ("Y", "N")

    def test_value_requires_values(self):
        with pytest.raises(ConstraintError):
            ValueConstraint("V2", object_type="Flag", values=())


class TestKinds:
    def test_kind_tags(self):
        assert UniquenessConstraint("a", roles=(R1,)).kind == "uniqueness"
        assert TotalUnionConstraint("b", object_type="X", items=(R1,)).kind == "totalunion"
        assert ExclusionConstraint("c", items=(R1, R2)).kind == "exclusion"

    def test_empty_name_rejected(self):
        with pytest.raises(ConstraintError):
            UniquenessConstraint("", roles=(R1,))
