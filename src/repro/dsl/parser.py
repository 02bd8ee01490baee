"""Parser and serializer for the textual schema DSL.

One statement per line::

    schema Conference
    lot Paper_Id : char(6)
    lot-nolot Person : char(30)
    nolot Paper
    fact submission ( Paper submitted_at [unique], Date of_submission )
    fact authors ( Paper written_by, Person author_of ) [pair-unique]
    subtype Program_Paper of Paper as PP_IS_Paper
    identifier Paper by Paper_Id as Paper_has_Paper_Id
    attribute Paper has Title as titled [total]
    constraint X1 exclusion : sublink A_IS_Paper, sublink B_IS_Paper
    constraint E1 equality : presents.presented_by, scheduled.presented_during
    constraint S1 subset presents.presented_by in scheduled.presented_during
    constraint F1 frequency member.having 2 .. 5
    constraint V1 values Status : 'A', 'R'
    constraint U9 unique on.of, at.of

Comments run from ``--`` or ``#`` to end of line.  ``parse`` returns
a :class:`~repro.brm.schema.BinarySchema`; ``to_dsl`` serializes a
schema back to an equivalent script (an exact parse/serialize round
trip, used by the meta-database for storage and diffing).
"""

from __future__ import annotations

from repro.brm.builder import SchemaBuilder
from repro.brm.constraints import (
    EqualityConstraint,
    ExclusionConstraint,
    FrequencyConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
)
from repro.brm.datatypes import DataType, DataTypeKind
from repro.brm.facts import RoleId
from repro.brm.objects import ObjectKind
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkRef
from repro.dsl.lexer import Token, TokenKind, tokenize
from repro.errors import DslSyntaxError, SchemaError

_CONSTRAINT_KINDS = {
    "unique",
    "total",
    "total-union",
    "exclusion",
    "equality",
    "subset",
    "frequency",
    "values",
}


class _Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.position = 0
        self.builder = SchemaBuilder()

    # -- token plumbing -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind is not TokenKind.EOF:
            self.position += 1
        return token

    def fail(self, message: str, token: Token | None = None) -> DslSyntaxError:
        token = token or self.peek()
        return DslSyntaxError(message, token.line, token.column)

    def expect_word(self, *expected: str) -> Token:
        token = self.advance()
        if token.kind is not TokenKind.WORD or (
            expected and token.text not in expected
        ):
            what = " or ".join(repr(e) for e in expected) or "a name"
            raise self.fail(f"expected {what}, found {token}", token)
        return token

    def expect_punct(self, text: str) -> Token:
        token = self.advance()
        if token.kind is not TokenKind.PUNCT or token.text != text:
            raise self.fail(f"expected {text!r}, found {token}", token)
        return token

    def at_punct(self, text: str) -> bool:
        token = self.peek()
        return token.kind is TokenKind.PUNCT and token.text == text

    def at_word(self, text: str) -> bool:
        token = self.peek()
        return token.kind is TokenKind.WORD and token.text == text

    def end_statement(self) -> None:
        token = self.advance()
        if token.kind not in (TokenKind.NEWLINE, TokenKind.EOF):
            raise self.fail(f"unexpected {token} at end of statement", token)

    # -- grammar --------------------------------------------------------

    def parse(self) -> BinarySchema:
        while True:
            token = self.peek()
            if token.kind is TokenKind.EOF:
                return self.builder.build()
            if token.kind is TokenKind.NEWLINE:
                self.advance()
                continue
            self.statement()

    def statement(self) -> None:
        keyword = self.expect_word()
        handler = {
            "schema": self.schema_statement,
            "lot": self.lot_statement,
            "lot-nolot": self.lot_nolot_statement,
            "nolot": self.nolot_statement,
            "fact": self.fact_statement,
            "subtype": self.subtype_statement,
            "identifier": self.identifier_statement,
            "attribute": self.attribute_statement,
            "constraint": self.constraint_statement,
        }.get(keyword.text)
        if handler is None:
            raise self.fail(f"unknown statement {keyword.text!r}", keyword)
        try:
            handler()
        except (SchemaError, ValueError) as exc:
            # Model errors (a duplicate or undeclared name, a type
            # that subtypes itself) surface at the statement keyword.
            raise self.fail(str(exc), keyword) from exc
        self.end_statement()

    def schema_statement(self) -> None:
        name = self.expect_word().text
        self.builder.schema.name = name

    def datatype(self) -> DataType:
        word = self.expect_word()
        try:
            kind = DataTypeKind(word.text.upper())
        except ValueError:
            raise self.fail(f"unknown data type {word.text!r}", word) from None
        length = scale = None
        if self.at_punct("("):
            self.advance()
            length = int(self.number())
            if self.at_punct(","):
                self.advance()
                scale = int(self.number())
            self.expect_punct(")")
        try:
            return DataType(kind, length, scale)
        except ValueError as exc:
            raise self.fail(str(exc), word) from None

    def number(self) -> str:
        token = self.advance()
        if token.kind is not TokenKind.NUMBER:
            raise self.fail(f"expected a number, found {token}", token)
        return token.text

    def lot_statement(self) -> None:
        name = self.expect_word().text
        self.expect_punct(":")
        self.builder.lot(name, self.datatype())

    def lot_nolot_statement(self) -> None:
        name = self.expect_word().text
        self.expect_punct(":")
        self.builder.lot_nolot(name, self.datatype())

    def nolot_statement(self) -> None:
        self.builder.nolot(self.expect_word().text)

    def fact_statement(self) -> None:
        name = self.expect_word().text
        self.expect_punct("(")
        first, first_flags = self.role_spec()
        self.expect_punct(",")
        second, second_flags = self.role_spec()
        self.expect_punct(")")
        pair_unique = False
        if self.at_punct("["):
            self.advance()
            self.expect_word("pair-unique")
            self.expect_punct("]")
            pair_unique = True
        self.builder.fact(name, first, second)
        fact_type = self.builder.schema.fact_type(name)
        first_id, second_id = fact_type.role_ids
        if pair_unique:
            self.builder.unique(first_id, second_id)
        for role_id, flags in ((first_id, first_flags), (second_id, second_flags)):
            if "unique" in flags:
                self.builder.unique(role_id)
            if "total" in flags:
                self.builder.total(role_id)

    def role_spec(self) -> tuple[tuple[str, str], set[str]]:
        player = self.expect_word().text
        role_name = self.expect_word().text
        flags: set[str] = set()
        if self.at_punct("["):
            self.advance()
            while True:
                flag = self.expect_word("unique", "total").text
                flags.add(flag)
                if self.at_punct(","):
                    self.advance()
                    continue
                break
            self.expect_punct("]")
        return (player, role_name), flags

    def subtype_statement(self) -> None:
        subtype = self.expect_word().text
        self.expect_word("of")
        supertype = self.expect_word().text
        name = None
        if self.at_word("as"):
            self.advance()
            name = self.expect_word().text
        self.builder.subtype(subtype, supertype, name=name)

    def identifier_statement(self) -> None:
        owner = self.expect_word().text
        self.expect_word("by")
        target = self.expect_word().text
        fact = None
        if self.at_word("as"):
            self.advance()
            fact = self.expect_word().text
        self.builder.identifier(owner, target, fact=fact)

    def attribute_statement(self) -> None:
        owner = self.expect_word().text
        self.expect_word("has")
        target = self.expect_word().text
        fact = None
        if self.at_word("as"):
            self.advance()
            fact = self.expect_word().text
        total = False
        one_to_one = False
        if self.at_punct("["):
            self.advance()
            while True:
                flag = self.expect_word("total", "one-to-one").text
                if flag == "total":
                    total = True
                else:
                    one_to_one = True
                if self.at_punct(","):
                    self.advance()
                    continue
                break
            self.expect_punct("]")
        self.builder.attribute(
            owner, target, fact=fact, total=total, unique_target=one_to_one
        )

    def item(self):
        if self.at_word("sublink"):
            self.advance()
            return SublinkRef(self.expect_word().text)
        fact = self.expect_word().text
        self.expect_punct(".")
        role = self.expect_word().text
        return RoleId(fact, role)

    def items(self) -> list:
        found = [self.item()]
        while self.at_punct(","):
            self.advance()
            found.append(self.item())
        return found

    def constraint_statement(self) -> None:
        token = self.peek()
        name = None
        if token.kind is TokenKind.WORD and token.text not in _CONSTRAINT_KINDS:
            name = self.advance().text
        kind = self.expect_word(*sorted(_CONSTRAINT_KINDS)).text
        if kind == "unique":
            roles = self.items()
            reference = False
            if self.at_word("reference"):
                self.advance()
                reference = True
            if any(isinstance(item, SublinkRef) for item in roles):
                raise self.fail("uniqueness ranges over roles, not sublinks")
            if reference:
                self.builder.reference_unique(*roles, name=name)
            else:
                self.builder.unique(*roles, name=name)
        elif kind == "total":
            role = self.item()
            if isinstance(role, SublinkRef):
                raise self.fail("a total role constraint needs a role")
            self.builder.total(role, name=name)
        elif kind == "total-union":
            object_type = self.expect_word().text
            self.expect_punct(":")
            self.builder.total_union(object_type, *self.items(), name=name)
        elif kind == "exclusion":
            self.expect_punct(":")
            self.builder.exclusion(*self.items(), name=name)
        elif kind == "equality":
            self.expect_punct(":")
            self.builder.equality(*self.items(), name=name)
        elif kind == "subset":
            subset = self.item()
            self.expect_word("in")
            superset = self.item()
            self.builder.subset(subset, superset, name=name)
        elif kind == "frequency":
            role = self.item()
            minimum = int(self.number())
            maximum = None
            if self.at_punct(".."):
                self.advance()
                maximum = int(self.number())
            self.builder.frequency(role, minimum, maximum, name=name)
        elif kind == "values":
            object_type = self.expect_word().text
            self.expect_punct(":")
            values = [self.value()]
            while self.at_punct(","):
                self.advance()
                values.append(self.value())
            self.builder.values(object_type, values, name=name)

    def value(self):
        token = self.advance()
        if token.kind is TokenKind.STRING:
            return token.text
        if token.kind is TokenKind.NUMBER:
            return int(token.text)
        raise self.fail(f"expected a value, found {token}", token)


def parse(source: str) -> BinarySchema:
    """Parse DSL source into a binary schema."""
    return _Parser(source).parse()


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def to_dsl(schema: BinarySchema) -> str:
    """Serialize a schema to DSL source (exact parse round trip)."""
    lines = [f"schema {schema.name}", ""]
    for object_type in schema.object_types:
        if object_type.kind is ObjectKind.LOT:
            lines.append(f"lot {object_type.name} : {_type(object_type.datatype)}")
        elif object_type.kind is ObjectKind.LOT_NOLOT:
            lines.append(
                f"lot-nolot {object_type.name} : {_type(object_type.datatype)}"
            )
        else:
            lines.append(f"nolot {object_type.name}")
    lines.append("")
    for fact in schema.fact_types:
        lines.append(
            f"fact {fact.name} ( {fact.first.player} {fact.first.name}, "
            f"{fact.second.player} {fact.second.name} )"
        )
    if schema.sublinks:
        lines.append("")
    for sublink in schema.sublinks:
        lines.append(
            f"subtype {sublink.subtype} of {sublink.supertype} as {sublink.name}"
        )
    if schema.constraints:
        lines.append("")
    for constraint in schema.constraints:
        lines.append(_constraint(constraint))
    return "\n".join(lines) + "\n"


def _type(datatype: DataType) -> str:
    return datatype.render().lower()


def _item(item) -> str:
    if isinstance(item, SublinkRef):
        return f"sublink {item.sublink}"
    return f"{item.fact}.{item.role}"


def _constraint(constraint) -> str:
    name = constraint.name
    if isinstance(constraint, UniquenessConstraint):
        roles = ", ".join(_item(r) for r in constraint.roles)
        suffix = " reference" if constraint.is_reference else ""
        return f"constraint {name} unique {roles}{suffix}"
    if isinstance(constraint, TotalUnionConstraint):
        if constraint.is_total_role:
            return f"constraint {name} total {_item(constraint.items[0])}"
        items = ", ".join(_item(i) for i in constraint.items)
        return (
            f"constraint {name} total-union {constraint.object_type} : {items}"
        )
    if isinstance(constraint, ExclusionConstraint):
        items = ", ".join(_item(i) for i in constraint.items)
        return f"constraint {name} exclusion : {items}"
    if isinstance(constraint, EqualityConstraint):
        items = ", ".join(_item(i) for i in constraint.items)
        return f"constraint {name} equality : {items}"
    if isinstance(constraint, SubsetConstraint):
        return (
            f"constraint {name} subset {_item(constraint.subset)} in "
            f"{_item(constraint.superset)}"
        )
    if isinstance(constraint, FrequencyConstraint):
        upper = (
            f" .. {constraint.maximum}"
            if constraint.maximum is not None
            else ""
        )
        return (
            f"constraint {name} frequency {_item(constraint.role)} "
            f"{constraint.minimum}{upper}"
        )
    if isinstance(constraint, ValueConstraint):
        values = ", ".join(
            f"'{v}'" if isinstance(v, str) else str(v) for v in constraint.values
        )
        return f"constraint {name} values {constraint.object_type} : {values}"
    raise TypeError(f"cannot serialize constraint {constraint!r}")
