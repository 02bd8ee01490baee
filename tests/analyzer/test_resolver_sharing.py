"""One reference resolution per schema version and lexical preferences.

``resolver_for`` memoizes the :class:`ReferenceResolver` beside the
other analyzer memos, keyed by (schema name, version, preferences), on
its own copy of the schema.  RIDL-A's referability pass and every plan
phase ask it, so an advise op resolves each distinct input once, and
the answers are those of a fresh resolver.
"""

import random
from pathlib import Path

import pytest

from repro.analyzer import analyze
from repro.analyzer import referability
from repro.analyzer.cache import clear_all_caches
from repro.analyzer.referability import resolver_for
from repro.brm import ReferenceResolver
from repro.brm import reference as reference_module
from repro.cris import cris_schema, figure6_schema
from repro.dsl import parse
from repro.errors import SchemaError
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    SublinkPolicy,
    advise,
    discover_space,
    map_schema,
)
from repro.mapper import synthesis
from repro.observability import Tracer
from repro.workloads import generate_schema

from tests.brm.test_reference_oracle import ADVISE_SHAPE

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "conference.ridl"


def advise_draws(count: int) -> list:
    """The first draws of the advise workload's seed-1 input pool."""
    rng = random.Random(1)
    return [generate_schema(ADVISE_SHAPE, seed=rng.randrange(2**31))
            for _ in range(count)]


def fresh_resolvers(monkeypatch) -> None:
    """Resolve afresh on every request, as before the memo."""
    def fresh(schema, preferences=None):
        return ReferenceResolver(schema, preferences=preferences)

    monkeypatch.setattr(referability, "resolver_for", fresh)
    monkeypatch.setattr(synthesis, "resolver_for", fresh)


def answers(resolver: ReferenceResolver) -> tuple:
    referable = sorted(
        t.name for t in resolver.schema.object_types
        if t.is_nolot and resolver.is_referable(t.name)
    )
    return (
        sorted(resolver.non_referable()),
        [(name, resolver.chosen_scheme(name), resolver.leaves(name))
         for name in referable],
    )


class TestSharedResolution:
    def test_an_advise_op_resolves_each_distinct_input_once(self, monkeypatch):
        constructed = []
        requested = []
        original_init = ReferenceResolver.__init__

        def counting_init(self, schema, preferences=None):
            constructed.append((schema.name, schema.version,
                                tuple((preferences or {}).items())))
            original_init(self, schema, preferences)

        def counting(fn):
            def wrapper(schema, preferences=None):
                requested.append(schema.version)
                return fn(schema, preferences)
            return wrapper

        monkeypatch.setattr(reference_module.ReferenceResolver, "__init__",
                            counting_init)
        monkeypatch.setattr(referability, "resolver_for",
                            counting(referability.resolver_for))
        monkeypatch.setattr(synthesis, "resolver_for",
                            counting(synthesis.resolver_for))
        for schema in advise_draws(3):
            clear_all_caches()
            constructed.clear()
            requested.clear()
            tracer = Tracer("resolvers")
            with tracer.activate():
                advise(schema, workers=1)
            # The gate's analysis, the discover_space probe and nine
            # plan phases ask; five inputs differ.
            assert len(requested) == 11
            assert len(constructed) == len(set(constructed)) == 5
            spans, fills = list(tracer.roots), 0
            while spans:
                span = spans.pop()
                spans.extend(span.children)
                fills += span.name == "analyzer.compute:_resolve"
            assert fills == 5

    @pytest.mark.parametrize("name", ["conference", "cris", "figure6", "advise"])
    def test_reports_and_plans_equal_fresh_resolutions(self, name, monkeypatch):
        schema = {
            "conference": lambda: parse(EXAMPLE.read_text()),
            "cris": cris_schema,
            "figure6": figure6_schema,
            "advise": lambda: advise_draws(1)[0],
        }[name]()

        def outputs():
            clear_all_caches()
            rendered = [analyze(schema).render()]
            for sublinks in SublinkPolicy:
                for nulls in (NullPolicy.DEFAULT, NullPolicy.NOT_ALLOWED):
                    options = MappingOptions(sublink_policy=sublinks,
                                             null_policy=nulls)
                    result = map_schema(schema, options)
                    rendered += [result.sql("sql2"), result.map_report()]
            space = discover_space(schema, max_override_axes=1)
            rendered.append(advise(schema, space, workers=1).to_json())
            return rendered

        shared = outputs()
        fresh_resolvers(monkeypatch)
        assert outputs() == shared


class TestMemo:
    def test_copies_share_and_clear_all_caches_drops(self):
        schema = cris_schema()
        clear_all_caches()
        first = resolver_for(schema)
        assert resolver_for(schema.copy()) is first
        assert resolver_for(schema, {}) is first
        clear_all_caches()
        assert resolver_for(schema) is not first

    def test_map_schema_and_advise_drop_their_resolutions(self):
        schema = figure6_schema()
        clear_all_caches()
        map_schema(schema)
        assert not referability._resolve.cache
        kept = resolver_for(schema)
        advise(schema, workers=1)
        assert not referability._resolve.cache
        assert resolver_for(schema) is not kept

    def test_preferences_key_the_memo(self):
        schema = figure6_schema()
        clear_all_caches()
        plain = resolver_for(schema)
        preferred = resolver_for(
            schema, {"Program_Paper": ("via:Program_Paper_IS_Paper",)}
        )
        assert preferred is not plain
        assert preferred is resolver_for(
            schema, {"Program_Paper": ["via:Program_Paper_IS_Paper"]}
        )
        assert preferred.chosen_scheme("Program_Paper").key == (
            "via:Program_Paper_IS_Paper",
        )

    def test_a_later_mutation_leaves_the_shared_answers(self):
        schema = cris_schema()
        clear_all_caches()
        resolver = resolver_for(schema)
        before = answers(resolver)
        assert not before[0]
        identifier = next(
            c for c in schema.uniqueness_constraints()
            if c.is_simple and schema.player_name(c.roles[0]) == "Person"
            and schema.is_total(c.roles[0])
            and schema.is_unique(schema.co_role_id(c.roles[0]))
        )
        for constraint in schema.uniqueness_constraints():
            if constraint.roles == (schema.co_role_id(identifier.roles[0]),):
                schema.remove_constraint(constraint.name)
        schema.remove_constraint(identifier.name)
        assert answers(resolver) == before
        assert resolver.schema is not schema
        assert "Person" in resolver_for(schema).non_referable()

    def test_an_ungrounded_preference_raises_on_every_call(self):
        schema = figure6_schema()
        clear_all_caches()
        preferences = {"Paper": ("no_such_fact",)}
        for _ in range(2):
            with pytest.raises(SchemaError, match="no grounded reference scheme"):
                resolver_for(schema, preferences)
        assert resolver_for(schema) is resolver_for(schema)
