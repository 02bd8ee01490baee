"""The DDL parser: the byte-exact inverse of the emitter.

``parse_ddl`` recovers a :class:`RelationalSchema` from emitted DDL.
The defining contract, checked here per dialect: re-emitting the
parsed schema through ``DdlEmitter`` reproduces the input text
byte-for-byte, and every parsed element carries provenance (line
number plus the clause that produced it).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cris import cris_schema, figure6_schema
from repro.mapper import MappingOptions, SublinkPolicy, map_schema
from repro.sql import DdlEmitter, PROFILES
from repro.sql.parse import (
    DdlParseError,
    invert_type,
    parse_ddl,
    parse_predicate,
    resolve_profile,
)
from repro.relational.predicates import (
    Compare,
    InValues,
    IsNull,
    Not,
    NotNull,
    and_,
    dependent_existence,
    equal_existence,
    or_,
)
from repro.workloads import generate_schema

from tests.strategies import FULL_SHAPE, OPTION_SETS

DIALECTS = sorted(PROFILES)


def emitted(schema, options=MappingOptions(), dialect="sql2"):
    return map_schema(schema, options).sql(dialect)


class TestByteRoundTrip:
    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_cris_reemits_identically(self, dialect):
        ddl = emitted(cris_schema(), dialect=dialect)
        parsed = parse_ddl(ddl, dialect)
        assert DdlEmitter(PROFILES[dialect]).emit(parsed.schema, ()) == ddl
        assert parsed.dropped == ()

    @pytest.mark.parametrize("dialect", DIALECTS)
    @pytest.mark.parametrize("options", OPTION_SETS)
    def test_generated_schema_reemits_identically(self, dialect, options):
        schema = generate_schema(FULL_SHAPE, seed=13)
        ddl = emitted(schema, options, dialect)
        parsed = parse_ddl(ddl, dialect)
        assert DdlEmitter(PROFILES[dialect]).emit(parsed.schema, ()) == ddl

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=100),
        dialect=st.sampled_from(DIALECTS),
    )
    def test_random_schemas_reemit_identically(self, seed, dialect):
        schema = generate_schema(FULL_SHAPE, seed=seed)
        result = map_schema(schema, MappingOptions())
        emitter = DdlEmitter(PROFILES[dialect])
        parsed = parse_ddl(result.sql(dialect), dialect)
        # Pseudo constraints have no relational counterpart; the
        # parser records their names as dropped and the comparison
        # runs on the emitted schema proper.
        assert emitter.emit(parsed.schema, ()) == emitter.emit(
            result.relational, ()
        )
        assert set(parsed.dropped) == {
            p.name for p in result.pseudo_constraints
        }


class TestStructure:
    def test_relations_and_keys_recovered(self):
        result = map_schema(cris_schema(), MappingOptions())
        parsed = parse_ddl(result.sql("sql2"), "sql2")
        source = result.relational
        assert [r.name for r in parsed.schema.relations] == [
            r.name for r in source.relations
        ]
        for relation in source.relations:
            got = parsed.schema.relation(relation.name)
            assert got.attribute_names == relation.attribute_names
            for ours, theirs in zip(got.attributes, relation.attributes):
                assert ours.nullable == theirs.nullable
            pk = parsed.schema.primary_key(relation.name)
            assert pk is not None
            assert pk.columns == source.primary_key(relation.name).columns
            assert {
                (fk.columns, fk.referenced_relation)
                for fk in parsed.schema.foreign_keys(relation.name)
            } == {
                (fk.columns, fk.referenced_relation)
                for fk in source.foreign_keys(relation.name)
            }

    def test_provenance_lines_and_clauses(self):
        ddl = emitted(cris_schema())
        parsed = parse_ddl(ddl, "sql2")
        lines = ddl.splitlines()
        relations = [p for p in parsed.provenance if p.element == "relation"]
        assert relations, "no relation provenance recorded"
        for record in relations:
            # The recorded line is 1-based and names the relation.
            assert record.name in lines[record.line - 1]
        named = {p.name for p in parsed.provenance if p.element == "constraint"}
        for constraint in parsed.schema.constraints:
            assert constraint.name in named


class TestTypeInversion:
    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_every_rendered_type_inverts(self, dialect):
        profile = PROFILES[dialect]
        result = map_schema(cris_schema(), MappingOptions())
        for domain in result.relational.domains:
            rendered = profile.render_type(domain.datatype)
            assert invert_type(profile, rendered) == domain.datatype

    def test_unknown_spelling_rejected(self):
        with pytest.raises(DdlParseError):
            invert_type(PROFILES["sql2"], "blob(16)")


class TestPredicates:
    @pytest.mark.parametrize(
        "predicate",
        [
            IsNull("A"),
            NotNull("A"),
            InValues("A", ("x", "y")),
            or_(IsNull("A"), NotNull("B")),
            and_(NotNull("A"), NotNull("B")),
            Not(IsNull("A")),
            Compare("A", "=", "Y"),
            dependent_existence(NotNull("Dep"), NotNull("Ref")),
            equal_existence((NotNull("A"), NotNull("B"))),
        ],
    )
    def test_round_trips_through_render(self, predicate):
        assert parse_predicate(predicate.render()) == predicate

    def test_bad_predicate_reports_line(self):
        with pytest.raises(DdlParseError):
            parse_predicate("A FROB 3", line=7)

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_comparison_with_null_is_rejected(self, op):
        # SQL finds `A <> NULL` unknown on every row, where the
        # engine's two-valued evaluation would call it true.
        with pytest.raises(DdlParseError, match=r"use IS \[NOT\] NULL") as caught:
            parse_predicate(f"( A {op} NULL )", line=7)
        assert caught.value.line == 7

    def test_null_comparison_in_ddl_reports_its_line(self):
        ddl = emitted(
            figure6_schema(),
            MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
        )
        lines = ddl.splitlines(keepends=True)
        (index,) = [
            i for i, line in enumerate(lines)
            if line.startswith("      ( ( ( Paper_ProgramId_with IS NULL )")
        ]
        lines[index] = "      ( Session_comprising <> NULL )\n"
        with pytest.raises(DdlParseError, match="Session_comprising <> NULL") as caught:
            parse_ddl("".join(lines), "sql2")
        assert caught.value.line == index + 1


class TestErrors:
    def test_empty_text(self):
        with pytest.raises(DdlParseError):
            parse_ddl("", "sql2")

    def test_garbage_reports_line(self):
        ddl = emitted(cris_schema())
        broken = ddl.replace("CREATE TABLE", "CREATE RUBBLE", 1)
        with pytest.raises(DdlParseError):
            parse_ddl(broken, "sql2")

    def test_unknown_dialect(self):
        with pytest.raises(Exception):
            resolve_profile("cobol")

    def test_wrong_dialect_grammar(self):
        # Oracle DDL fed to the db2 grammar must not silently parse
        # into a different schema: either it fails, or it reproduces
        # the same structure (dialects share the core grammar).
        ddl = emitted(cris_schema(), dialect="oracle")
        try:
            parsed = parse_ddl(ddl, "db2")
        except DdlParseError:
            return
        reference = parse_ddl(ddl, "oracle")
        assert [r.name for r in parsed.schema.relations] == [
            r.name for r in reference.schema.relations
        ]

    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_every_line_prefix_parses_or_reports_a_line(self, dialect):
        # Truncated scripts (a copy cut short, an editor buffer) must
        # end in a DdlParseError pointing into the text, never in an
        # IndexError or a line-less schema error.
        lines = emitted(cris_schema(), dialect=dialect).splitlines(
            keepends=True
        )
        for count in range(len(lines) + 1):
            try:
                parse_ddl("".join(lines[:count]), dialect)
            except DdlParseError as exc:
                assert exc.line is not None, (count, str(exc))
