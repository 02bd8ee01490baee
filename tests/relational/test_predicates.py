"""Tests for the CHECK-constraint predicate language."""

import pytest

from repro.relational import (
    And,
    Compare,
    InValues,
    IsNull,
    Not,
    NotNull,
    Or,
    and_,
    dependent_existence,
    equal_existence,
    or_,
    render_literal,
)


class TestAtoms:
    def test_is_null(self):
        assert IsNull("a").evaluate({"a": None})
        assert not IsNull("a").evaluate({"a": 1})
        assert IsNull("a").evaluate({})  # absent column counts as NULL

    def test_not_null(self):
        assert NotNull("a").evaluate({"a": 0})
        assert not NotNull("a").evaluate({"a": None})

    def test_compare_operators(self):
        row = {"n": 5}
        assert Compare("n", "=", 5).evaluate(row)
        assert Compare("n", "<>", 4).evaluate(row)
        assert Compare("n", "<", 6).evaluate(row)
        assert Compare("n", "<=", 5).evaluate(row)
        assert Compare("n", ">", 4).evaluate(row)
        assert Compare("n", ">=", 5).evaluate(row)

    def test_compare_null_never_matches(self):
        assert not Compare("n", "=", None and 0).evaluate({"n": None})
        assert not Compare("n", "<>", 5).evaluate({"n": None})

    def test_compare_rejects_bad_operator(self):
        with pytest.raises(ValueError):
            Compare("n", "!=", 5)

    def test_in_values(self):
        pred = InValues("flag", ("Y", "N"))
        assert pred.evaluate({"flag": "Y"})
        assert not pred.evaluate({"flag": "X"})
        assert not pred.evaluate({"flag": None})

    def test_in_values_requires_values(self):
        with pytest.raises(ValueError):
            InValues("flag", ())


class TestCombinators:
    def test_and_or_not(self):
        pred = And((NotNull("a"), Or((IsNull("b"), Compare("b", "=", 1)))))
        assert pred.evaluate({"a": 1, "b": None})
        assert pred.evaluate({"a": 1, "b": 1})
        assert not pred.evaluate({"a": None, "b": None})
        assert not pred.evaluate({"a": 1, "b": 2})
        assert Not(IsNull("a")).evaluate({"a": 1})

    def test_binary_combinators_require_two_operands(self):
        with pytest.raises(ValueError):
            And((IsNull("a"),))
        with pytest.raises(ValueError):
            Or((IsNull("a"),))

    def test_lowercase_helpers_collapse_singletons(self):
        single = and_(IsNull("a"))
        assert isinstance(single, IsNull)
        assert isinstance(or_(IsNull("a"), IsNull("b")), Or)

    def test_columns_collects_all(self):
        pred = And((NotNull("a"), Or((IsNull("b"), Compare("c", "=", 1)))))
        assert pred.columns() == {"a", "b", "c"}


class TestPaperShapes:
    def test_dependent_existence_matches_paper(self):
        # C_DE$_8: Person_presenting requires Paper_ProgramId_with.
        pred = dependent_existence(
            NotNull("Person_presenting"), NotNull("Paper_ProgramId_with")
        )
        assert pred.evaluate({"Person_presenting": None, "Paper_ProgramId_with": None})
        assert pred.evaluate({"Person_presenting": None, "Paper_ProgramId_with": "P1"})
        assert pred.evaluate({"Person_presenting": "Ann", "Paper_ProgramId_with": "P1"})
        assert not pred.evaluate(
            {"Person_presenting": "Ann", "Paper_ProgramId_with": None}
        )

    def test_dependent_existence_rendering(self):
        text = dependent_existence(NotNull("a"), NotNull("b")).render()
        assert "( a IS NOT NULL )" in text
        assert "( a IS NULL )" in text
        assert " OR " in text

    def test_equal_existence_matches_paper(self):
        # C_EE$_6: Paper_ProgramId_with and Session_comprising together.
        pred = equal_existence(
            (NotNull("Paper_ProgramId_with"), NotNull("Session_comprising"))
        )
        assert pred.evaluate(
            {"Paper_ProgramId_with": None, "Session_comprising": None}
        )
        assert pred.evaluate({"Paper_ProgramId_with": "P1", "Session_comprising": 3})
        assert not pred.evaluate(
            {"Paper_ProgramId_with": "P1", "Session_comprising": None}
        )

    def test_equal_existence_needs_two_columns(self):
        with pytest.raises(ValueError):
            equal_existence((NotNull("only"),))


class TestRendering:
    def test_literals(self):
        assert render_literal(None) == "NULL"
        assert render_literal(5) == "5"
        assert render_literal("O'Hara") == "'O''Hara'"
        assert render_literal(True) == "'Y'"
        assert render_literal(False) == "'N'"

    def test_nested_render(self):
        pred = Or((And((IsNull("a"), IsNull("b"))), NotNull("a")))
        assert pred.render() == (
            "( ( ( a IS NULL ) AND ( b IS NULL ) ) OR ( a IS NOT NULL ) )"
        )

    def test_str_is_render(self):
        assert str(IsNull("a")) == IsNull("a").render()
