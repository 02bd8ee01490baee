"""Tests for the textual schema DSL (lexer, parser, serializer)."""

import pytest

from repro.brm import RoleId, SublinkRef, char
from repro.cris import cris_schema, figure6_schema
from repro.dsl import parse, to_dsl, tokenize
from repro.dsl.lexer import TokenKind
from repro.errors import DslSyntaxError


class TestLexer:
    def test_words_numbers_punct(self):
        tokens = tokenize("lot K : char(6)")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            TokenKind.WORD,
            TokenKind.WORD,
            TokenKind.PUNCT,
            TokenKind.WORD,
            TokenKind.PUNCT,
            TokenKind.NUMBER,
            TokenKind.PUNCT,
            TokenKind.NEWLINE,
            TokenKind.EOF,
        ]

    def test_hyphenated_keyword(self):
        tokens = tokenize("lot-nolot Person : char(30)")
        assert tokens[0].text == "lot-nolot"

    def test_comments_stripped(self):
        tokens = tokenize("nolot A -- a comment\nnolot B # another")
        words = [t.text for t in tokens if t.kind is TokenKind.WORD]
        assert words == ["nolot", "A", "nolot", "B"]

    def test_string_literal(self):
        tokens = tokenize("constraint V1 values S : 'A -- not a comment'")
        strings = [t.text for t in tokens if t.kind is TokenKind.STRING]
        assert strings == ["A -- not a comment"]

    def test_unterminated_string(self):
        with pytest.raises(DslSyntaxError):
            tokenize("values S : 'oops")

    def test_range_token(self):
        tokens = tokenize("frequency f.x 2 .. 5")
        assert any(t.text == ".." for t in tokens)

    def test_positions_reported(self):
        with pytest.raises(DslSyntaxError) as excinfo:
            tokenize("nolot A\nnolot @")
        assert excinfo.value.line == 2


class TestParser:
    def test_minimal_schema(self):
        schema = parse("schema S\nnolot A\n")
        assert schema.name == "S"
        assert schema.has_object_type("A")

    def test_fact_with_inline_flags(self):
        schema = parse(
            "schema S\nlot K : char(3)\nnolot A\n"
            "fact f ( A x [unique, total], K y [unique] )\n"
        )
        assert schema.is_unique(RoleId("f", "x"))
        assert schema.is_total(RoleId("f", "x"))
        assert schema.is_unique(RoleId("f", "y"))

    def test_pair_unique(self):
        schema = parse(
            "schema S\nnolot A\nnolot B\n"
            "fact f ( A x, B y ) [pair-unique]\n"
        )
        constraints = schema.uniqueness_constraints()
        assert len(constraints) == 1
        assert len(constraints[0].roles) == 2

    def test_identifier_and_attribute_sugar(self):
        schema = parse(
            "schema S\nnolot Paper\nlot Paper_Id : char(6)\n"
            "lot Title : char(50)\n"
            "identifier Paper by Paper_Id as has_id\n"
            "attribute Paper has Title as titled [total]\n"
        )
        assert schema.has_fact_type("has_id")
        assert schema.is_total(RoleId("titled", "with"))
        reference = [
            c for c in schema.uniqueness_constraints() if c.is_reference
        ]
        assert len(reference) == 1

    def test_subtype_with_link_name(self):
        schema = parse(
            "schema S\nnolot A\nnolot B\nsubtype B of A as B_under_A\n"
        )
        assert schema.has_sublink("B_under_A")

    def test_constraint_statements(self):
        schema = parse(
            "schema S\nnolot P\nlot K : char(3)\nlot L : char(3)\n"
            "fact f ( P x, K y )\nfact g ( P x, L y )\n"
            "constraint U1 unique f.x\n"
            "constraint total g.x\n"
            "constraint X1 exclusion : f.x, g.x\n"
            "constraint E1 equality : f.x, g.x\n"
            "constraint S1 subset f.x in g.x\n"
            "constraint F1 frequency f.y 1 .. 3\n"
            "constraint V1 values K : 'A', 'B'\n"
        )
        assert schema.has_constraint("U1")
        assert schema.has_constraint("X1")
        assert schema.has_constraint("S1")
        assert schema.has_constraint("F1")
        assert schema.has_constraint("V1")
        assert len(schema.totals()) == 1

    def test_sublink_items(self):
        schema = parse(
            "schema S\nnolot A\nnolot B\nnolot C\n"
            "subtype B of A\nsubtype C of A\n"
            "constraint X1 exclusion : sublink B_IS_A, sublink C_IS_A\n"
        )
        constraint = schema.constraint("X1")
        assert SublinkRef("B_IS_A") in constraint.items

    def test_numeric_with_scale(self):
        schema = parse("schema S\nlot Price : numeric(7, 2)\n")
        datatype = schema.object_type("Price").datatype
        assert datatype.length == 7
        assert datatype.scale == 2

    def test_errors_carry_position(self):
        with pytest.raises(DslSyntaxError) as excinfo:
            parse("schema S\nnolot\n")
        assert excinfo.value.line == 2

    def test_unknown_statement(self):
        with pytest.raises(DslSyntaxError):
            parse("widget A\n")

    def test_unknown_datatype(self):
        with pytest.raises(DslSyntaxError):
            parse("lot K : blob(4)\n")

    def test_unique_rejects_sublink_items(self):
        with pytest.raises(DslSyntaxError):
            parse(
                "schema S\nnolot A\nnolot B\nsubtype B of A\n"
                "constraint unique sublink B_IS_A\n"
            )

    def test_trailing_junk_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse("nolot A B\n")


class TestModelErrorsCarryLines:
    """Errors the schema model raises while a statement is applied
    surface as :class:`DslSyntaxError` at the statement keyword."""

    HEADER = "schema S\nnolot Paper\nlot Title : char(20)\n"

    @pytest.mark.parametrize(
        "statement, line, message",
        [
            ("identifier Paper by Title\nsubtype Paper of Paper\n", 5,
             "cannot be its own subtype"),
            ("attribute Paper has Title\nattribute Book has Title\n", 5,
             "no object type named 'Book'"),
            ("nolot Paper\n", 4, "'Paper' already exists"),
        ],
        ids=["self-subtype", "undeclared-player", "duplicate-name"],
    )
    def test_reported_at_the_statement(self, statement, line, message):
        with pytest.raises(DslSyntaxError) as excinfo:
            parse(self.HEADER + statement)
        assert (excinfo.value.line, excinfo.value.column) == (line, 1)
        assert message in str(excinfo.value)
        assert excinfo.value.__cause__ is not None


class TestRoundTrip:
    @pytest.mark.parametrize(
        "make", [figure6_schema, cris_schema], ids=["figure6", "cris"]
    )
    def test_exact_round_trip(self, make):
        schema = make()
        assert parse(to_dsl(schema)) == schema

    def test_round_trip_with_every_constraint_kind(self):
        source = (
            "schema Full\nnolot P\nnolot Q\nlot K : char(3)\n"
            "lot L : numeric(4)\nlot_free : date\n"
        )
        # Build programmatically instead (the DSL rejects odd names).
        from repro.brm import SchemaBuilder, date

        b = SchemaBuilder("Full")
        b.nolot("P").nolot("Q").lot("K", char(3)).lot_nolot("D", date())
        b.identifier("P", "K")
        b.subtype("Q", "P")
        b.attribute("Q", "D", fact="qd", total=True)
        b.fact("m", ("P", "x"), ("D", "y"), unique="pair")
        b.frequency(("m", "x"), 1, 4)
        b.values("K", ("A", "B"))
        b.exclusion(("qd", "with"), ("m", "x"))
        schema = b.build()
        assert parse(to_dsl(schema)) == schema
