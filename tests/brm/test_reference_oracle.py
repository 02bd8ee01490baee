"""The semi-naive reference resolver against the naive fix-point.

:class:`~repro.brm.reference.ReferenceResolver` re-expands, after its
first pass, only the schemes that read a type whose chosen expansion
moved; ``tests.oracles.brm.NaiveReferenceResolver`` re-expands every
candidate on every pass.  Both must reach the identical state — each
type's expansions in the same order, the same choices — and report an
ungrounded preference with the same error text.  Each schema runs
without preferences, preferring the last grounded scheme of every type
that has several, and with the ``via:<sublink>`` preferences the
NOT_ALLOWED null policy builds.
"""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.brm import ReferenceResolver, SchemaBuilder, char, numeric
from repro.cris import cris_schema, figure6_schema
from repro.dsl import parse
from repro.errors import SchemaError
from repro.workloads import generate_schema

from tests.executor.test_memory_kernels import INDUSTRIAL_SHAPE
from tests.oracles.brm import NaiveReferenceResolver
from tests.strategies import shaped_schemas

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "conference.ridl"

#: The advise workload's shape: the industrial mix at a third of the
#: entity types.
ADVISE_SHAPE = dataclasses.replace(INDUSTRIAL_SHAPE, entity_types=30)


def room_schema(*, subtype: bool = True):
    """A ``Room`` whose chosen expansion moves in the third pass.

    The three-LOT compound identifier grounds in pass 2; the 1:1
    identifier through ``Badge`` grounds in pass 3 and is smaller, so
    the inherited expansion of the subtype ``Suite`` (grounded in pass
    3 on the compound) must be refreshed in pass 4.
    """
    b = SchemaBuilder("rooms")
    b.nolot("Room").nolot("Badge")
    b.lot("Street", char(20)).lot("Nr", numeric(4)).lot("Level", numeric(2))
    b.lot("Badge_Id", char(2))
    b.attribute("Room", "Street", fact="on", total=True)
    b.attribute("Room", "Nr", fact="at", total=True)
    b.attribute("Room", "Level", fact="lvl", total=True)
    b.unique(("on", "of"), ("at", "of"), ("lvl", "of"))
    b.identifier("Badge", "Badge_Id")
    b.identifier("Room", "Badge")
    if subtype:
        b.nolot("Suite")
        b.subtype("Suite", "Room")
    return b.build()


def last_grounded_preferences(schema):
    """Prefer the last-grounded scheme of every type with several."""
    expansions = NaiveReferenceResolver(schema)._expansions
    return {
        name: stored[-1].scheme.key
        for name, stored in expansions.items()
        if len(stored) > 1
    }


def via_preferences(schema):
    """The inherited-reference preferences NOT_ALLOWED builds."""
    preferences = {}
    for sublink in schema.sublinks:
        if sublink.subtype not in preferences:
            preferences[sublink.subtype] = (f"via:{sublink.name}",)
    return preferences


def resolve(resolver_class, schema, preferences):
    try:
        return resolver_class(schema, preferences=preferences)
    except SchemaError as exc:
        return str(exc)


def assert_resolvers_agree(schema, preferences=None):
    resolver = resolve(ReferenceResolver, schema, preferences)
    oracle = resolve(NaiveReferenceResolver, schema, preferences)
    if isinstance(oracle, str):
        assert resolver == oracle
        return
    assert not isinstance(resolver, str), resolver
    assert list(resolver._expansions.items()) == list(oracle._expansions.items())
    assert list(resolver._chosen.items()) == list(oracle._chosen.items())
    assert resolver.non_referable() == oracle.non_referable()
    for name in oracle._chosen:
        assert resolver.chosen_scheme(name) == oracle.chosen_scheme(name)
        assert resolver.leaves(name) == oracle.leaves(name)
        assert resolver.representation_cost(name) == (
            oracle.representation_cost(name)
        )


def assert_agree_under_every_preference(schema):
    assert_resolvers_agree(schema)
    assert_resolvers_agree(schema, last_grounded_preferences(schema))
    assert_resolvers_agree(schema, via_preferences(schema))


FIXTURES = {
    "cris": cris_schema,
    "figure6": figure6_schema,
    "conference": lambda: parse(EXAMPLE.read_text()),
    "rooms": room_schema,
    "industrial-1989": lambda: generate_schema(INDUSTRIAL_SHAPE, seed=1989),
    "industrial-21": lambda: generate_schema(INDUSTRIAL_SHAPE, seed=21),
    "advise-3": lambda: generate_schema(ADVISE_SHAPE, seed=3),
    "advise-33": lambda: generate_schema(ADVISE_SHAPE, seed=33),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_schemas(name):
    assert_agree_under_every_preference(FIXTURES[name]())


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schema=shaped_schemas())
def test_random_shapes(schema):
    assert_agree_under_every_preference(schema)


class TestRooms:
    def test_late_move_refreshes_the_inherited_expansion(self):
        resolver = ReferenceResolver(room_schema())
        assert resolver.chosen_scheme("Room").key == ("Room_has_Badge",)
        assert [leaf.lot for leaf in resolver.leaves("Suite")] == ["Badge_Id"]
        assert resolver.representation_cost("Suite") == (3, 2)

    def test_grounded_schemes_are_cheapest_first(self):
        resolver = ReferenceResolver(room_schema(subtype=False))
        assert [s.key for s in resolver.grounded_schemes("Room")] == [
            ("Room_has_Badge",),
            ("on", "at", "lvl"),
        ]

    def test_ungrounded_preference_lists_schemes_in_grounding_order(self):
        preferences = {"Room": ("nope",)}
        message = resolve(ReferenceResolver, room_schema(), preferences)
        assert message == resolve(NaiveReferenceResolver, room_schema(), preferences)
        assert message.endswith(
            "grounded schemes: [('on', 'at', 'lvl'), ('Room_has_Badge',)]"
        )

    def test_preferred_compound_holds_when_a_smaller_scheme_grounds(self):
        # Room's expansion list grows in pass 3 but its choice stays.
        preferences = {"Room": ("on", "at", "lvl")}
        assert_resolvers_agree(room_schema(), preferences)
        resolver = ReferenceResolver(room_schema(), preferences=preferences)
        assert [leaf.lot for leaf in resolver.leaves("Suite")] == [
            "Street",
            "Nr",
            "Level",
        ]
