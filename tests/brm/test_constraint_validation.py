"""Property sweep over constraint ``__post_init__`` validation edges.

Every constraint kind is driven across well-formed and malformed
field combinations: malformed fields must raise ``ConstraintError``
at construction, well-formed ones must round-trip their items
through their ``items``.  Two validation fixes get explicit
regressions: ``ValueConstraint`` dedupes duplicate values preserving
order, and ``FrequencyConstraint`` accepts the ``(0, 0)`` "never
plays" bound while still rejecting genuinely empty intervals.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
)
role_ids = st.builds(RoleId, fact=names, role=names)
sublink_refs = st.builds(SublinkRef, sublink=names)
items = st.one_of(role_ids, sublink_refs)


class TestEveryKindRejectsBlankName:
    @given(role=role_ids)
    def test_blank_names_raise(self, role):
        for build in (
            lambda: UniquenessConstraint("", roles=(role,)),
            lambda: TotalUnionConstraint(
                "", object_type="T", items=(role,)
            ),
            lambda: ExclusionConstraint(
                "", items=(role, RoleId("other", "r"))
            ),
            lambda: SubsetConstraint(
                "", subset=role, superset=RoleId("other", "r")
            ),
            lambda: EqualityConstraint(
                "", items=(role, RoleId("other", "r"))
            ),
            lambda: FrequencyConstraint("", role=role),
            lambda: ValueConstraint("", object_type="T", values=("a",)),
        ):
            with pytest.raises(ConstraintError):
                build()


class TestUniquenessEdges:
    def test_no_roles_raises(self):
        with pytest.raises(ConstraintError):
            UniquenessConstraint("U")

    @given(roles=st.lists(role_ids, min_size=1, max_size=4, unique=True))
    def test_well_formed_round_trips(self, roles):
        constraint = UniquenessConstraint("U", roles=tuple(roles))
        assert constraint.items == tuple(roles)

    @given(role=role_ids)
    def test_duplicate_roles_raise(self, role):
        with pytest.raises(ConstraintError):
            UniquenessConstraint("U", roles=(role, role))


class TestSetAlgebraicEdges:
    @given(item=items)
    def test_exclusion_needs_two_distinct_items(self, item):
        with pytest.raises(ConstraintError):
            ExclusionConstraint("X", items=(item,))
        with pytest.raises(ConstraintError):
            ExclusionConstraint("X", items=(item, item))

    @given(item=items)
    def test_equality_needs_two_distinct_items(self, item):
        with pytest.raises(ConstraintError):
            EqualityConstraint("E", items=(item,))
        with pytest.raises(ConstraintError):
            EqualityConstraint("E", items=(item, item))

    @given(item=items)
    def test_subset_rejects_reflexive_pair(self, item):
        with pytest.raises(ConstraintError):
            SubsetConstraint("S", subset=item, superset=item)

    @given(pair=st.lists(items, min_size=2, max_size=2, unique=True))
    def test_well_formed_pairs_round_trip(self, pair):
        first, second = pair
        for constraint in (
            ExclusionConstraint("X", items=(first, second)),
            EqualityConstraint("E", items=(first, second)),
            SubsetConstraint("S", subset=first, superset=second),
        ):
            assert constraint.items == (first, second)

    @given(
        object_type=names,
        members=st.lists(items, min_size=1, max_size=4, unique=True),
    )
    def test_total_union_round_trips(self, object_type, members):
        constraint = TotalUnionConstraint(
            "T", object_type=object_type, items=tuple(members)
        )
        assert constraint.items == tuple(members)

    def test_total_union_needs_object_type_and_items(self):
        with pytest.raises(ConstraintError):
            TotalUnionConstraint("T", object_type="", items=(R1,))
        with pytest.raises(ConstraintError):
            TotalUnionConstraint("T", object_type="P", items=())


R1 = RoleId("f1", "a")


class TestFrequencyEdges:
    @given(
        role=role_ids,
        minimum=st.integers(min_value=0, max_value=50),
        span=st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
    )
    def test_any_nonempty_interval_is_accepted(self, role, minimum, span):
        maximum = None if span is None else minimum + span
        constraint = FrequencyConstraint(
            "F", role=role, minimum=minimum, maximum=maximum
        )
        assert constraint.items == (role,)

    @given(
        role=role_ids,
        maximum=st.integers(min_value=0, max_value=50),
        gap=st.integers(min_value=1, max_value=50),
    )
    def test_empty_intervals_raise(self, role, maximum, gap):
        with pytest.raises(ConstraintError):
            FrequencyConstraint(
                "F", role=role, minimum=maximum + gap, maximum=maximum
            )

    @given(role=role_ids, minimum=st.integers(max_value=-1))
    def test_negative_minimum_raises(self, role, minimum):
        with pytest.raises(ConstraintError):
            FrequencyConstraint("F", role=role, minimum=minimum)

    def test_missing_role_raises(self):
        with pytest.raises(ConstraintError):
            FrequencyConstraint("F", minimum=1)

    def test_never_plays_bound_is_legal(self):
        # Regression: (0, 0) used to be rejected by the over-strict
        # ``maximum >= max(minimum, 1)`` check.
        constraint = FrequencyConstraint(
            "F", role=R1, minimum=0, maximum=0
        )
        assert constraint.minimum == 0
        assert constraint.maximum == 0


class TestValueEdges:
    @given(
        object_type=names,
        values=st.lists(
            st.text(max_size=4), min_size=1, max_size=6, unique=True
        ),
    )
    def test_well_formed_keeps_values_in_order(self, object_type, values):
        constraint = ValueConstraint(
            "V", object_type=object_type, values=tuple(values)
        )
        assert constraint.values == tuple(values)

    def test_missing_object_type_or_values_raise(self):
        with pytest.raises(ConstraintError):
            ValueConstraint("V", object_type="", values=("a",))
        with pytest.raises(ConstraintError):
            ValueConstraint("V", object_type="T", values=())

    def test_duplicate_values_dedupe_preserving_order(self):
        # Regression: duplicates used to be silently kept, poisoning
        # domain comparisons and SQL IN-lists.
        constraint = ValueConstraint(
            "V", object_type="T", values=("b", "a", "b", "c", "a")
        )
        assert constraint.values == ("b", "a", "c")

    @given(
        values=st.lists(
            st.text(max_size=3), min_size=1, max_size=8, unique=True
        )
    )
    def test_doubling_any_value_list_dedupes_back(self, values):
        constraint = ValueConstraint(
            "V", object_type="T", values=tuple(values) + tuple(values)
        )
        assert constraint.values == tuple(values)
