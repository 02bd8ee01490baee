"""A DDL parser: the exact inverse of :class:`DdlEmitter`.

Reverse engineering (the MatBase direction, see ``docs/REVERSE.md``)
starts from a DDL script.  This parser reads the scripts our own
emitter produces — one :class:`DialectProfile` at a time — back into
a :class:`RelationalSchema`, including the commented view-constraint
trailers and the per-dialect quirks:

* ``-- CONSTRAINT name`` comments on dialects without named
  constraints (INGRES) are honoured, and table-level clauses that
  lose their names entirely get fresh, never-printed names;
* ``-- REFERENCES ... CONSTRAINT name`` single-line comments on
  dialects without declarative foreign keys (INGRES, SYBASE) are
  parsed back into real :class:`ForeignKey` constraints, and so are
  the commented ``FOREIGN KEY`` blocks those dialects write in the
  table's trailer for multi-column foreign keys;
* dialect type overrides are inverted (``NUMBER(10)`` on ORACLE is
  read back as ``INTEGER``); ambiguous spellings resolve to the
  override, which is byte-stable on re-emission.

The contract, enforced by ``tests/sql/test_parse.py``: for every
profile ``p`` and every mapped schema ``R``,
``emit(parse(emit(R, p)).schema, p)`` is byte-identical to
``emit(R, p)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.brm.datatypes import DataType, DataTypeKind
from repro.errors import RidlError, SchemaError
from repro.relational.constraints import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    PrimaryKey,
    RelationalConstraint,
    SelectSpec,
    SubsetViewConstraint,
)
from repro.relational.predicates import (
    CONDITIONAL_EQUALITY,
    And,
    Compare,
    InValues,
    IsNull,
    Not,
    NotNull,
    Or,
    Predicate,
    indicator_flag,
)
from repro.relational.schema import (
    Attribute,
    Domain,
    Relation,
    RelationalSchema,
)
from repro.sql.dialects import DUCKDB, PROFILES
from repro.sql.emitter import DialectProfile

_BANNER = "-- " + "-" * 60
_TITLE_RE = re.compile(
    r"^-- (?P<dialect>.+) schema definition for "
    r"'(?P<name>[^']*)' \(generated by RIDL-M\)$"
)
_DOMAIN_RE = re.compile(r"^CREATE DOMAIN (?P<name>\S+) (?P<type>.+);$")
_REFS_RE = re.compile(
    r"^REFERENCES (?P<rel>\S+) \( (?P<cols>.*) \)$"
)
_REFS_COMMENT_RE = re.compile(
    r"^-- REFERENCES (?P<rel>\S+) \( (?P<cols>.*) \)"
    r" CONSTRAINT (?P<cname>\S+)$"
)
_TABLE_PK_RE = re.compile(
    r"^PRIMARY KEY \( (?P<cols>.*) \)(?: CONSTRAINT (?P<cname>\S+))?$"
)
_TABLE_UNIQUE_RE = re.compile(
    r"^UNIQUE \( (?P<cols>.*) \)(?: CONSTRAINT (?P<cname>\S+))?$"
)
_TABLE_FK_RE = re.compile(
    r"^FOREIGN KEY \( (?P<cols>.*) \) REFERENCES (?P<rel>\S+) "
    r"\( (?P<rcols>.*) \)(?: CONSTRAINT (?P<cname>\S+))?$"
)
_TRAILER_FK_RE = re.compile(
    r"^FOREIGN KEY (?P<rel>\S+) \( (?P<cols>.*) \) REFERENCES (?P<ref>\S+) "
    r"\( (?P<rcols>.*) \) CONSTRAINT (?P<cname>\S+)$"
)
_PSEUDO_NAME_RE = re.compile(r"^-- (?P<name>[A-Za-z0-9_$.]+):")


class DdlParseError(RidlError):
    """The DDL text deviates from the emitter's grammar."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Provenance:
    """Where in the DDL text a schema element came from."""

    element: str  # "relation" | "column" | "constraint" | "domain"
    name: str
    relation: str | None
    line: int
    clause: str


@dataclass(frozen=True)
class ParseResult:
    """A parsed DDL script: the schema plus per-element provenance."""

    schema: RelationalSchema
    dialect: str
    provenance: tuple[Provenance, ...] = ()
    dropped: tuple[str, ...] = field(default=())

    def provenance_of(self, name: str) -> Provenance | None:
        """The provenance record for one named element, if any."""
        for record in self.provenance:
            if record.name == name:
                return record
        return None


def resolve_profile(dialect: str | DialectProfile) -> DialectProfile:
    """A profile from a CLI-style dialect key (or pass one through)."""
    if isinstance(dialect, DialectProfile):
        return dialect
    if dialect == "duckdb":
        return DUCKDB
    try:
        return PROFILES[dialect]
    except KeyError:
        raise RidlError(
            f"unknown dialect {dialect!r}; choose from "
            f"{', '.join(sorted(PROFILES) + ['duckdb'])}"
        ) from None


# ----------------------------------------------------------------------
# Data type inversion


def invert_type(
    profile: DialectProfile, text: str, line: int | None = None
) -> DataType:
    """The canonical :class:`DataType` behind a dialect spelling.

    Exact non-parameterized override spellings win first (``CHAR(1)``
    on ORACLE is BOOLEAN), then parameterized override prefixes
    (``VARCHAR2(n)`` is VARCHAR), then the canonical renderings.
    Ambiguous spellings resolve to the override: re-rendering the
    chosen kind reproduces the input text byte-for-byte.
    """
    parameterized = (
        DataTypeKind.CHAR,
        DataTypeKind.VARCHAR,
        DataTypeKind.NUMERIC,
    )
    for kind, spelling in profile.type_overrides:
        if kind not in parameterized and text == spelling:
            return DataType(kind)
    for kind, spelling in profile.type_overrides:
        if kind in parameterized and text.startswith(spelling + "("):
            return _parameterized(kind, text[len(spelling) + 1 : -1], text, line)
    for kind in parameterized:
        if text.startswith(kind.value + "("):
            return _parameterized(kind, text[len(kind.value) + 1 : -1], text, line)
    for kind in DataTypeKind:
        if kind not in parameterized and text == kind.value:
            return DataType(kind)
    raise DdlParseError(f"cannot invert data type spelling {text!r}", line)


def _parameterized(
    kind: DataTypeKind, suffix: str, text: str, line: int | None
) -> DataType:
    try:
        if "," in suffix:
            length, scale = suffix.split(",", 1)
            return DataType(kind, int(length), int(scale))
        return DataType(kind, int(suffix))
    except ValueError:
        raise DdlParseError(
            f"bad length in data type spelling {text!r}", line
        ) from None


# ----------------------------------------------------------------------
# Predicate parsing (the inverse of Predicate.render)


class _PredicateParser:
    """Recursive descent over the single-line rendered grammar."""

    _TOKEN_RE = re.compile(
        r"\(|\)|,|'(?:[^']|'')*'|[^\s(),']+"
    )

    def __init__(self, text: str, line: int) -> None:
        self.tokens = self._TOKEN_RE.findall(text)
        self.position = 0
        self.line = line

    def parse(self) -> Predicate:
        predicate = self._predicate()
        if self.position != len(self.tokens):
            raise DdlParseError(
                f"trailing tokens in predicate: {self.tokens[self.position:]}",
                self.line,
            )
        return predicate

    # -- token helpers

    def _peek(self, offset: int = 0) -> str | None:
        index = self.position + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _take(self, expected: str | None = None) -> str:
        token = self._peek()
        if token is None:
            raise DdlParseError("predicate ended unexpectedly", self.line)
        if expected is not None and token != expected:
            raise DdlParseError(
                f"expected {expected!r}, found {token!r} in predicate",
                self.line,
            )
        self.position += 1
        return token

    # -- grammar

    def _predicate(self) -> Predicate:
        self._take("(")
        if self._peek() == "NOT":
            self._take()
            operand = self._predicate()
            self._take(")")
            return Not(operand)
        if self._peek() == "(":
            # A connective: ( p AND p ... ) or ( p OR p ... ).
            operands = [self._predicate()]
            connective = self._take()
            if connective not in ("AND", "OR"):
                raise DdlParseError(
                    f"expected AND/OR, found {connective!r}", self.line
                )
            operands.append(self._predicate())
            while self._peek() == connective:
                self._take()
                operands.append(self._predicate())
            self._take(")")
            cls = And if connective == "AND" else Or
            return cls(tuple(operands))
        return self._atom()

    def _atom(self) -> Predicate:
        column = self._take()
        token = self._take()
        if token == "IS":
            if self._peek() == "NOT":
                self._take()
                self._take("NULL")
                self._take(")")
                return NotNull(column)
            self._take("NULL")
            self._take(")")
            return IsNull(column)
        if token == "IN":
            self._take("(")
            values = [self._literal(self._take())]
            while self._peek() == ",":
                self._take()
                values.append(self._literal(self._take()))
            self._take(")")
            self._take(")")
            return InValues(column, tuple(values))
        if token in Compare._OPS:
            value = self._literal(self._take())
            if value is None:
                # SQL finds such a comparison unknown on every row; the
                # engine's two-valued evaluation would disagree.
                raise DdlParseError(
                    f"comparison {column} {token} NULL in predicate; "
                    "use IS [NOT] NULL",
                    self.line,
                )
            self._take(")")
            return Compare(column, token, value)
        raise DdlParseError(
            f"unexpected token {token!r} after column {column!r}", self.line
        )

    def _literal(self, token: str) -> object:
        if token == "NULL":
            return None
        if token.startswith("'") and token.endswith("'"):
            return token[1:-1].replace("''", "'")
        if re.fullmatch(r"-?\d+", token):
            return int(token)
        if re.fullmatch(r"-?\d+\.\d+", token):
            return float(token)
        raise DdlParseError(f"bad literal {token!r} in predicate", self.line)


def parse_predicate(text: str, line: int = 0) -> Predicate:
    """Parse one rendered predicate back into its tree."""
    return _PredicateParser(text, line).parse()


# ----------------------------------------------------------------------
# The parser proper


class _PendingSchema:
    """Everything collected from the text, assembled into a schema
    only at the end (a table may reference a later table)."""

    def __init__(self) -> None:
        self.name = "schema"
        self.domains: dict[str, Domain] = {}
        self.domain_order: list[str] = []
        self.relations: list[Relation] = []
        self.constraints: list[RelationalConstraint] = []
        self.provenance: list[Provenance] = []
        self.dropped: list[str] = []
        self.explicit_names: set[str] = set()
        self._fresh_serial: dict[str, int] = {}

    def add_domain(self, domain: Domain, line: int) -> None:
        existing = self.domains.get(domain.name)
        if existing is None:
            self.domains[domain.name] = domain
            self.domain_order.append(domain.name)
            self.provenance.append(
                Provenance(
                    "domain", domain.name, None, line,
                    domain.datatype.render(),
                )
            )
        elif existing.datatype != domain.datatype:
            raise DdlParseError(
                f"domain {domain.name!r} redefined with a different "
                f"data type", line,
            )

    def fresh_name(self, stem: str) -> str:
        """A never-printed name for an anonymous table-level clause.

        Avoids every name spelled anywhere in the file so a later
        explicit ``CONSTRAINT`` comment cannot collide with it.
        """
        serial = self._fresh_serial.get(stem, 0) + 1
        while f"{stem}_{serial}" in self.explicit_names:
            serial += 1
        self._fresh_serial[stem] = serial
        return f"{stem}_{serial}"

    def build(self, dialect: str) -> ParseResult:
        schema = RelationalSchema(self.name)
        for name in self.domain_order:
            schema.add_domain(self.domains[name])
        for relation in self.relations:
            schema.add_relation(relation)
        line_of = {p.name: p.line for p in self.provenance if p.element == "constraint"}
        for constraint in self.constraints:
            try:
                schema.add_constraint(constraint)
            except SchemaError as exc:  # e.g. an unknown relation or column
                raise DdlParseError(
                    str(exc), line_of.get(constraint.name)
                ) from exc
        return ParseResult(
            schema=schema,
            dialect=dialect,
            provenance=tuple(self.provenance),
            dropped=tuple(self.dropped),
        )


def parse_ddl(text: str, dialect: str | DialectProfile = "sql2") -> ParseResult:
    """Parse one emitted DDL script back into a relational schema."""
    profile = resolve_profile(dialect)
    pending = _PendingSchema()
    _collect_explicit_names(text, pending)
    parts = _split_parts(text)
    if not parts:
        raise DdlParseError("empty DDL text", 1)
    title_part, *rest = parts
    pending.name = _parse_title(title_part, profile)
    for lines, start in rest:
        first = lines[0]
        second = lines[1] if len(lines) > 1 else ""
        try:
            if first.startswith("CREATE DOMAIN "):
                _parse_domains(lines, start, pending)
            elif first == _BANNER and second.startswith("-- TABLE "):
                _parse_table(lines, start, profile, pending)
            elif first == _BANNER and second.startswith(
                "--            View Constraints For Table "
            ):
                _parse_trailer(lines, start, pending)
            elif first == _BANNER and second.startswith(
                "--            Constraints Without Relational Counterpart"
            ):
                _parse_pseudo(lines, pending)
            elif profile.header and "\n".join(lines) == profile.header:
                continue  # pragma: no cover - no bundled profile has a header
            else:
                raise DdlParseError(
                    f"unrecognized section starting {first!r}", start
                )
        except SchemaError as exc:  # an element refused its name
            raise DdlParseError(str(exc), start) from exc
    return pending.build(profile.name)


def _collect_explicit_names(text: str, pending: _PendingSchema) -> None:
    for match in re.finditer(r"CONSTRAINT (\S+)", text):
        pending.explicit_names.add(match.group(1))


def _split_parts(text: str) -> list[tuple[list[str], int]]:
    """The blank-line separated sections, with 1-based start lines."""
    parts: list[tuple[list[str], int]] = []
    current: list[str] = []
    start = 1
    for number, line in enumerate(text.splitlines(), start=1):
        if line:
            if not current:
                start = number
            current.append(line)
        elif current:
            parts.append((current, start))
            current = []
    if current:
        parts.append((current, start))
    return parts


def _parse_title(part: tuple[list[str], int], profile: DialectProfile) -> str:
    lines, start = part
    match = _TITLE_RE.match(lines[0])
    if match is None:
        raise DdlParseError(
            f"missing title line, found {lines[0]!r}", start
        )
    if match.group("dialect") != profile.name:
        raise DdlParseError(
            f"DDL was generated for dialect {match.group('dialect')!r}, "
            f"not {profile.name!r}", start,
        )
    if not match.group("name"):
        raise DdlParseError("the title names no schema", start)
    return match.group("name")


def _parse_domains(
    lines: list[str], start: int, pending: _PendingSchema
) -> None:
    for offset, line in enumerate(lines):
        match = _DOMAIN_RE.match(line)
        if match is None:
            raise DdlParseError(f"bad CREATE DOMAIN line {line!r}", start + offset)
        datatype = invert_type(
            resolve_profile("sql2"), match.group("type"), start + offset
        )
        pending.add_domain(
            Domain(match.group("name"), datatype), start + offset
        )


def _split_columns(cols: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in cols.split(","))


def _parse_table(
    lines: list[str],
    start: int,
    profile: DialectProfile,
    pending: _PendingSchema,
) -> None:
    relation_name = lines[1][len("-- TABLE ") :]
    if len(lines) < 4 or lines[3] != f"CREATE TABLE {relation_name}":
        raise DdlParseError(
            f"banner/CREATE TABLE mismatch for {relation_name!r}",
            start + min(3, len(lines) - 1),
        )
    pending.provenance.append(
        Provenance("relation", relation_name, relation_name, start + 1, lines[3])
    )
    attributes: list[Attribute] = []
    # Constraints are buffered per kind so their insertion order
    # matches the emitter's query order (keys, then foreign keys,
    # then checks) regardless of how the text interleaves them.
    state = _TableState(relation_name, profile, pending, start)
    index = 4
    while index < len(lines):
        line = lines[index]
        if line == " );":
            break
        if line.startswith(" ( ") or line.startswith(" , "):
            content = line[3:]
            if _is_table_level(content):
                index = state.parse_table_level(lines, index)
                index += 1
                continue
            # A new column block.
            index = state.parse_column(lines, index, attributes)
            continue
        raise DdlParseError(
            f"unexpected line {line!r} in table {relation_name!r}",
            start + index,
        )
    else:
        raise DdlParseError(
            f"table {relation_name!r} never closed with ' );'", start
        )
    pending.relations.append(Relation(relation_name, tuple(attributes)))
    pending.constraints.extend(state.finished())


def _is_table_level(content: str) -> bool:
    return content.startswith(
        ("PRIMARY KEY ( ", "UNIQUE ( ", "FOREIGN KEY ( ", "CHECK(")
    )


class _TableState:
    """Accumulates one table's constraints in emitter order."""

    def __init__(
        self,
        relation: str,
        profile: DialectProfile,
        pending: _PendingSchema,
        start: int,
    ) -> None:
        self.relation = relation
        self.profile = profile
        self.pending = pending
        self.start = start
        self.primary: PrimaryKey | None = None
        self.candidates: list[CandidateKey] = []
        self.foreign: list[ForeignKey] = []
        self.checks: list[CheckConstraint] = []

    def finished(self) -> list[RelationalConstraint]:
        ordered: list[RelationalConstraint] = []
        if self.primary is not None:
            ordered.append(self.primary)
        ordered.extend(self.candidates)
        ordered.extend(self.foreign)
        ordered.extend(self.checks)
        return ordered

    def _record(self, constraint: RelationalConstraint, line: int, clause: str):
        self.pending.provenance.append(
            Provenance("constraint", constraint.name, self.relation, line, clause)
        )

    def _set_primary(self, primary: PrimaryKey, line: int, clause: str) -> None:
        if self.primary is not None:
            raise DdlParseError(
                f"table {self.relation!r} declares two primary keys", line
            )
        self.primary = primary
        self._record(primary, line, clause)

    # -- column blocks

    def parse_column(
        self, lines: list[str], index: int, attributes: list[Attribute]
    ) -> int:
        column = lines[index][3:]
        column_line = self.start + index
        index += 1
        if index + 1 >= len(lines):
            raise DdlParseError(f"column {column!r} is cut short", column_line)
        type_line = lines[index]
        domain_name, datatype = self._parse_type_line(type_line, index)
        index += 1
        null_line = lines[index]
        if null_line == "      -- NULL":
            nullable = True
        elif null_line == "      NOT NULL":
            nullable = False
        else:
            raise DdlParseError(
                f"expected a NULL marker for column {column!r}, found "
                f"{null_line!r}", self.start + index,
            )
        index += 1
        attributes.append(Attribute(column, domain_name, nullable))
        self.pending.provenance.append(
            Provenance(
                "column", f"{self.relation}.{column}", self.relation,
                column_line, type_line.strip(),
            )
        )
        # Inline clause lines until the next column / table level / close.
        pending_kind: str | None = None
        pending_refs: tuple[str, tuple[str, ...]] | None = None
        while index < len(lines):
            line = lines[index]
            if not line.startswith("      "):
                self._flush_inline(pending_kind, pending_refs, column, None, index)
                return index
            content = line[6:]
            if content.startswith("CONSTRAINT ") or content.startswith(
                "-- CONSTRAINT "
            ):
                name = content.split("CONSTRAINT ", 1)[1]
                self._flush_inline(pending_kind, pending_refs, column, name, index)
                pending_kind = pending_refs = None
            elif content == "PRIMARY KEY":
                self._flush_inline(pending_kind, pending_refs, column, None, index)
                pending_kind, pending_refs = "primary", None
            elif content == "UNIQUE":
                self._flush_inline(pending_kind, pending_refs, column, None, index)
                pending_kind, pending_refs = "unique", None
            elif _REFS_RE.match(content):
                self._flush_inline(pending_kind, pending_refs, column, None, index)
                match = _REFS_RE.match(content)
                pending_kind = "references"
                pending_refs = (
                    match.group("rel"),
                    _split_columns(match.group("cols")),
                )
            elif _REFS_COMMENT_RE.match(content):
                self._flush_inline(pending_kind, pending_refs, column, None, index)
                pending_kind = pending_refs = None
                match = _REFS_COMMENT_RE.match(content)
                foreign = ForeignKey(
                    match.group("cname"),
                    self.relation,
                    (column,),
                    match.group("rel"),
                    _split_columns(match.group("cols")),
                )
                self.foreign.append(foreign)
                self._record(foreign, self.start + index, content)
            else:
                raise DdlParseError(
                    f"unexpected clause {content!r} on column {column!r}",
                    self.start + index,
                )
            index += 1
        raise DdlParseError(
            f"table {self.relation!r} never closed with ' );'", self.start
        )

    def _parse_type_line(self, line: str, index: int) -> tuple[str, DataType]:
        if not line.startswith("      "):
            raise DdlParseError(
                f"expected a type line, found {line!r}", self.start + index
            )
        content = line[6:]
        if self.profile.supports_domains:
            separator = " -- DATA TYPE "
        else:
            separator = " -- DOMAIN "
        if separator not in content:
            raise DdlParseError(
                f"type line {line!r} lacks {separator.strip()!r}",
                self.start + index,
            )
        left, right = content.split(separator, 1)
        if self.profile.supports_domains:
            domain_name, rendered = left, right
        else:
            rendered, domain_name = left, right
        datatype = invert_type(self.profile, rendered, self.start + index)
        self.pending.add_domain(
            Domain(domain_name, datatype), self.start + index
        )
        return domain_name, datatype

    def _flush_inline(
        self,
        kind: str | None,
        refs: tuple[str, tuple[str, ...]] | None,
        column: str,
        name: str | None,
        index: int,
    ) -> None:
        if kind is None:
            if name is not None:
                raise DdlParseError(
                    f"dangling CONSTRAINT {name!r} on column {column!r}",
                    self.start + index,
                )
            return
        line = self.start + index
        if name is None:
            name = self.pending.fresh_name(
                {"primary": "C_KEY$", "unique": "C_KEY$", "references": "C_FKEY$"}[kind]
            )
        if kind == "primary":
            self._set_primary(
                PrimaryKey(name, self.relation, (column,)), line, "PRIMARY KEY"
            )
        elif kind == "unique":
            candidate = CandidateKey(name, self.relation, (column,))
            self.candidates.append(candidate)
            self._record(candidate, line, "UNIQUE")
        else:
            assert refs is not None
            foreign = ForeignKey(name, self.relation, (column,), refs[0], refs[1])
            self.foreign.append(foreign)
            self._record(foreign, line, f"REFERENCES {refs[0]}")

    # -- table-level clauses

    def parse_table_level(self, lines: list[str], index: int) -> int:
        content = lines[index][3:]
        line = self.start + index
        if content.startswith("CHECK("):
            return self._parse_check(lines, index)
        match = _TABLE_PK_RE.match(content)
        if match is not None:
            name = match.group("cname") or self.pending.fresh_name("C_KEY$")
            self._set_primary(
                PrimaryKey(
                    name, self.relation, _split_columns(match.group("cols"))
                ),
                line,
                content,
            )
            return index
        match = _TABLE_UNIQUE_RE.match(content)
        if match is not None:
            name = match.group("cname") or self.pending.fresh_name("C_KEY$")
            candidate = CandidateKey(
                name, self.relation, _split_columns(match.group("cols"))
            )
            self.candidates.append(candidate)
            self._record(candidate, line, content)
            return index
        match = _TABLE_FK_RE.match(content)
        if match is not None:
            name = match.group("cname") or self.pending.fresh_name("C_FKEY$")
            foreign = ForeignKey(
                name,
                self.relation,
                _split_columns(match.group("cols")),
                match.group("rel"),
                _split_columns(match.group("rcols")),
            )
            self.foreign.append(foreign)
            self._record(foreign, line, content)
            return index
        raise DdlParseError(
            f"bad table-level clause {content!r}", line
        )

    def _parse_check(self, lines: list[str], index: int) -> int:
        # " , CHECK( -- comment" / "      pred" / "   ) CONSTRAINT n"
        head = lines[index][3:]
        comment = head[len("CHECK(") :].strip()
        if comment.startswith("-- "):
            comment = comment[3:]
        predicate_line = lines[index + 1]
        if not predicate_line.startswith("      "):
            raise DdlParseError(
                f"expected a CHECK predicate line, found {predicate_line!r}",
                self.start + index + 1,
            )
        predicate = parse_predicate(
            predicate_line.strip(), self.start + index + 1
        )
        close = lines[index + 2]
        if not close.startswith("   )"):
            raise DdlParseError(
                f"CHECK clause never closed, found {close!r}",
                self.start + index + 2,
            )
        trailer = close[len("   )") :].strip()
        if trailer.startswith("CONSTRAINT "):
            name = trailer[len("CONSTRAINT ") :]
        elif trailer:
            raise DdlParseError(
                f"bad CHECK close {close!r}", self.start + index + 2
            )
        else:
            name = self.pending.fresh_name("C_CHK$")
        check = CheckConstraint(name, self.relation, predicate, comment)
        self.checks.append(check)
        self._record(check, self.start + index, f"CHECK -- {comment}")
        return index + 2


# ----------------------------------------------------------------------
# Trailer blocks (commented checks and view constraints)


def _parse_trailer(
    lines: list[str], start: int, pending: _PendingSchema
) -> None:
    # Blocks after the three banner lines, separated by bare "--".
    blocks: list[tuple[list[str], int]] = []
    current: list[str] = []
    block_start = start + 3
    for offset, line in enumerate(lines[3:], start=3):
        if line == "--":
            if current:
                blocks.append((current, block_start))
            current = []
            block_start = start + offset + 1
            continue
        if not line.startswith("-- "):
            raise DdlParseError(
                f"bad trailer line {line!r}", start + offset
            )
        current.append(line[3:])
    if current:
        blocks.append((current, block_start))
    for block, block_line in blocks:
        try:
            _parse_trailer_block(block, block_line, pending)
        except IndexError:  # the block ends before its grammar does
            raise DdlParseError(
                "trailer block ends early", block_line + len(block) - 1
            ) from None


def _parse_trailer_block(
    block: list[str], line: int, pending: _PendingSchema
) -> None:
    head = block[0]
    if head.startswith("CHECK("):
        _parse_trailer_check(block, line, pending)
    elif head.startswith("FOREIGN KEY "):
        _parse_trailer_foreign_key(block, line, pending)
    elif head == "EQUALITY VIEW CONSTRAINT :":
        _parse_view(block, line, pending, equality=True)
    elif head == "SUBSET VIEW CONSTRAINT :":
        _parse_view(block, line, pending, equality=False)
    else:
        raise DdlParseError(f"unrecognized trailer block {head!r}", line)


def _parse_trailer_check(
    block: list[str], line: int, pending: _PendingSchema
) -> None:
    # CHECK( -- comment / "  pred" / ")" / "   ON rel" / "CONSTRAINT n"
    comment = block[0][len("CHECK(") :].strip()
    if comment.startswith("-- "):
        comment = comment[3:]
    if len(block) != 5 or block[2] != ")":
        raise DdlParseError("malformed commented CHECK block", line)
    predicate = parse_predicate(block[1].strip(), line + 1)
    if not block[3].startswith("   ON "):
        raise DdlParseError(f"bad ON line {block[3]!r}", line + 3)
    relation = block[3][len("   ON ") :]
    if not block[4].startswith("CONSTRAINT "):
        raise DdlParseError(f"bad CONSTRAINT line {block[4]!r}", line + 4)
    name = block[4][len("CONSTRAINT ") :]
    check = CheckConstraint(name, relation, predicate, comment)
    pending.constraints.append(check)
    pending.provenance.append(
        Provenance("constraint", name, relation, line, f"CHECK -- {comment}")
    )


def _parse_trailer_foreign_key(
    block: list[str], line: int, pending: _PendingSchema
) -> None:
    # FOREIGN KEY rel ( cols ) / REFERENCES rel ( cols ) / CONSTRAINT n
    text = " ".join(block)
    match = _TRAILER_FK_RE.match(text)
    if len(block) != 3 or match is None:
        raise DdlParseError("malformed commented FOREIGN KEY block", line)
    foreign = ForeignKey(
        match.group("cname"),
        match.group("rel"),
        _split_columns(match.group("cols")),
        match.group("ref"),
        _split_columns(match.group("rcols")),
    )
    pending.constraints.append(foreign)
    pending.provenance.append(
        Provenance("constraint", foreign.name, foreign.relation, line, block[0])
    )


def _parse_select(
    block: list[str], index: int, line: int
) -> tuple[SelectSpec, int]:
    head = block[index]
    if not head.startswith("    ( SELECT "):
        raise DdlParseError(f"bad SELECT line {head!r}", line + index)
    columns = _split_columns(head[len("    ( SELECT ") :])
    index += 1
    from_line = block[index]
    if not from_line.startswith("      FROM "):
        raise DdlParseError(f"bad FROM line {from_line!r}", line + index)
    relation = from_line[len("      FROM ") :]
    index += 1
    where = None
    if block[index].startswith("      WHERE "):
        where = parse_predicate(
            block[index][len("      WHERE ") :], line + index
        )
        index += 1
    if block[index] != "    )":
        raise DdlParseError(
            f"SELECT never closed, found {block[index]!r}", line + index
        )
    return SelectSpec(relation, columns, where), index + 1


def _parse_view(
    block: list[str], line: int, pending: _PendingSchema, *, equality: bool
) -> None:
    left, index = _parse_select(block, 1, line)
    keyword = "    IS EQUAL TO" if equality else "    IS CONTAINED IN"
    if block[index] != keyword:
        raise DdlParseError(
            f"expected {keyword.strip()!r}, found {block[index]!r}",
            line + index,
        )
    right, index = _parse_select(block, index + 1, line)
    if not block[index].startswith("CONSTRAINT "):
        raise DdlParseError(
            f"bad CONSTRAINT line {block[index]!r}", line + index
        )
    name = block[index][len("CONSTRAINT ") :]
    # The emitter does not print view-constraint comments; recover the
    # paper's annotation from the shape so the lift can dispatch on it.
    if equality:
        constraint: RelationalConstraint = EqualityViewConstraint(
            name, left, right, _view_comment(left, right, equality=True)
        )
    else:
        constraint = SubsetViewConstraint(
            name, left, right, _view_comment(left, right, equality=False)
        )
    pending.constraints.append(constraint)
    pending.provenance.append(
        Provenance(
            "constraint", name, min(constraint.relations_used()), line, block[0]
        )
    )


def _view_comment(
    left: SelectSpec, right: SelectSpec, *, equality: bool
) -> str:
    """Reconstruct the mapper's comment annotation from the shape.

    Comments never reach the DDL text (only the views' ``render()``
    bodies do).  An equality view with an indicator test on either side
    is a conditional equality; one that filters only its right side is
    the sublink-membership equality; any other is a "role equality".
    Every subset view reads back as "role subset": the mapper's "total
    role" subset views are not told apart, and nothing reads view
    comments (the lift dispatches views on their select structure).
    """
    if equality:
        if indicator_flag(right.where) or indicator_flag(left.where):
            return CONDITIONAL_EQUALITY
        if right.where is not None and left.where is None:
            return "sub-relation membership equals the non-NULL sublink attribute"
        return "role equality"
    return "role subset"


def _parse_pseudo(lines: list[str], pending: _PendingSchema) -> None:
    for line in lines[3:]:
        match = _PSEUDO_NAME_RE.match(line)
        if match is not None:
            pending.dropped.append(match.group("name"))
