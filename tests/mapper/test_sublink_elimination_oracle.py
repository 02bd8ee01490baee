"""The in-place TOGETHER elimination against the rebuild oracle.

``eliminate_sublink`` edits one copy of the working schema: it deletes
the subtype and the sublink and replaces, in their positions, only the
elements that name them.  The oracle in ``tests/oracles/mapper.py``
rebuilds the whole schema for every sublink.  Both run under
``apply_sublink_policies`` (deepest subtype first) and must leave the
same elements in the same insertion order, the same steps, hints and
pseudo constraints, and population maps with the same images.
"""

from pathlib import Path

import pytest

from repro.brm import Population, RoleId, SchemaBuilder, char, numeric
from repro.cris import cris_schema, figure6_schema
from repro.dsl import parse
from repro.errors import MappingError, SchemaError
from repro.mapper import MappingOptions, MappingState, SublinkPolicy
from repro.mapper.transformations import binary_binary
from repro.workloads import generate_population, generate_schema

from tests.mapper.test_binary_seam import SUBLINK_SHAPE
from tests.oracles import mapper as oracle

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "conference.ridl"
TOGETHER = MappingOptions(sublink_policy=SublinkPolicy.TOGETHER)


def paper_schema(*, total=True):
    """Paper with subtypes PP (identified, optionally also scheduled)
    and Invited; PP's roles are total unless ``total`` is False."""
    b = SchemaBuilder("s")
    b.nolot("Paper").nolot("PP").nolot("Invited")
    b.lot("Paper_Id", char(6)).lot("PP_Id", char(2))
    b.lot_nolot("Session", numeric(3)).lot_nolot("Person", char(30))
    b.identifier("Paper", "Paper_Id")
    b.subtype("PP", "Paper").subtype("Invited", "Paper")
    b.fact("PP_has_PP_Id", ("PP", "with"), ("PP_Id", "of"), unique="both",
           total="first" if total else None)
    b.attribute("PP", "Session", fact="scheduled", total=total)
    b.attribute("PP", "Person", fact="presents")
    b.attribute("Paper", "Person", fact="submits")
    return b


def chain_schema():
    b = SchemaBuilder("chain")
    b.nolot("A").nolot("B").nolot("C").nolot("D")
    b.lot("AK", char(3)).lot_nolot("V", char(3)).lot_nolot("W", numeric(2))
    b.identifier("A", "AK")
    b.subtype("B", "A").subtype("C", "B").subtype("D", "C")
    b.attribute("B", "V", fact="bf", total=True)
    b.attribute("C", "W", fact="cf", total=True)
    b.attribute("C", "V", fact="cg")
    b.lot("CK", char(2))
    b.identifier("C", "CK")  # total like cf, but the reference: the anchor
    b.attribute("D", "W", fact="df")
    b.subset("df.with", "cf.with")
    b.exclusion("sublink:D_IS_C", "cg.with")
    return b.build()


def constrained_schema(*, total):
    """Subset, equality, exclusion and total-union constraints over the
    PP sublink, and a total union on PP itself."""
    b = paper_schema(total=total)
    b.subset("presents.with", "sublink:PP_IS_Paper", name="S_in")
    b.subset("sublink:PP_IS_Paper", "submits.with", name="S_out")
    b.equality("sublink:PP_IS_Paper", "PP_has_PP_Id.with", name="E_id")
    b.exclusion("sublink:PP_IS_Paper", "sublink:Invited_IS_Paper", name="X_subs")
    b.total_union("Paper", "sublink:PP_IS_Paper", "sublink:Invited_IS_Paper",
                  "submits.with", name="TU_Paper")
    b.total_union("PP", "scheduled.with", "presents.with", name="TU_PP")
    return b.build()


def two_supertypes_schema():
    b = SchemaBuilder("two")
    b.nolot("A").nolot("B").nolot("X")
    b.lot("AK", char(3)).lot("BK", char(3))
    b.identifier("A", "AK")
    b.identifier("B", "BK")
    b.subtype("X", "A", name="X_IS_A").subtype("X", "B", name="X_IS_B")
    return b.build()


FIXED = {
    "figure6": figure6_schema,
    "cris": cris_schema,
    "conference": lambda: parse(EXAMPLE.read_text()),
    "chain": chain_schema,
    "factless": lambda: paper_schema().build(),
    "constrained-anchored": lambda: constrained_schema(total=True),
    "constrained-unanchored": lambda: constrained_schema(total=False),
}
GENERATED = {
    f"generated-{seed}": (lambda seed=seed: generate_schema(SUBLINK_SHAPE, seed))
    for seed in range(24)
}
SCHEMAS = {**FIXED, **GENERATED}


def together(schema, eliminate, monkeypatch) -> MappingState:
    """``apply_sublink_policies`` under TOGETHER with ``eliminate``."""
    state = MappingState(schema=schema.copy(), options=TOGETHER, original=schema)
    with monkeypatch.context() as patch:
        patch.setattr(binary_binary, "eliminate_sublink", eliminate)
        binary_binary.apply_sublink_policies(state)
    return state


def image(state: MappingState) -> tuple:
    schema, hints = state.schema, state.hints
    return (
        list(schema.object_types),
        list(schema.fact_types),
        list(schema.sublinks),
        list(schema.constraints),
        state.steps,
        list(hints.column_overrides.items()),
        list(hints.indicator_sublinks.items()),
        list(hints.eliminations.items()),
        state.pseudo_constraints,
        state.flags,
        len(state.forward_maps),
    )


def populations(schema) -> list[Population]:
    return [
        generate_population(schema, instances_per_type=3, seed=seed)
        for seed in (1, 2)
    ]


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_in_place_elimination_equals_the_rebuild(name, monkeypatch):
    schema = SCHEMAS[name]()
    assert schema.sublinks
    try:
        expected = together(schema, oracle.eliminate_sublink, monkeypatch)
    except MappingError as exc:
        with pytest.raises(MappingError) as raised:
            together(schema, binary_binary.eliminate_sublink, monkeypatch)
        assert str(raised.value) == str(exc)
        return
    state = together(schema, binary_binary.eliminate_sublink, monkeypatch)
    assert state.hints.eliminations
    assert image(state) == image(expected)
    for population in populations(schema):
        forward = state.to_canonical(population)
        assert forward.as_dict() == expected.to_canonical(population).as_dict()
        assert forward == expected.to_canonical(population)
        backward = state.from_canonical(forward)
        assert backward == expected.from_canonical(forward)
        assert backward == population


def test_chains_are_eliminated_deepest_first(monkeypatch):
    state = together(chain_schema(), binary_binary.eliminate_sublink, monkeypatch)
    assert [s.target for s in state.steps] == ["D_IS_C", "C_IS_B", "B_IS_A"]
    assert [t.name for t in state.schema.object_types if t.is_nolot] == ["A"]
    # D has no total role: its indicator fact is re-played with the rest.
    assert state.hints.eliminations["D_IS_C"].indicator_fact == "Is_D_fact"
    assert state.hints.eliminations["C_IS_B"].anchor == RoleId("C_has_CK", "with")
    assert {f.first.player for f in state.schema.fact_types} == {"A"}


def test_factless_subtype_gets_an_indicator_fact(monkeypatch):
    state = together(paper_schema().build(), binary_binary.eliminate_sublink,
                     monkeypatch)
    record = state.hints.eliminations["Invited_IS_Paper"]
    assert record.anchor is None
    assert state.schema.fact_type(record.indicator_fact).first.player == "Paper"
    assert state.steps[-1].lossless_rules == (record.indicator_fact,)


@pytest.mark.parametrize("total", [True, False])
def test_constraints_over_the_sublink(total):
    """One elimination, PP's: Invited's sublink stays, so the rewritten
    constraints can be read back."""
    schema = constrained_schema(total=total)
    states = []
    for eliminate in (oracle.eliminate_sublink, binary_binary.eliminate_sublink):
        state = MappingState(schema=schema.copy(), options=TOGETHER, original=schema)
        eliminate(state, "PP_IS_Paper")
        states.append(state)
    expected, state = states
    assert image(state) == image(expected)
    record = state.hints.eliminations["PP_IS_Paper"]
    pseudo = {p.name for p in state.pseudo_constraints}
    if total:
        anchor = record.anchor
        assert not state.schema.has_constraint("E_id")  # equal to the anchor
        assert state.schema.constraint("S_in").superset == anchor
        assert state.schema.constraint("S_out").subset == anchor
        assert state.schema.constraint("X_subs").items[0] == anchor
        assert anchor in state.schema.constraint("TU_Paper").items
        # The total union on the subtype itself degrades.
        assert pseudo == {"TU_PP"}
    else:
        assert record.anchor is None
        assert pseudo == {"S_in", "S_out", "E_id", "X_subs", "TU_Paper", "TU_PP"}
    assert [c.name for c in state.schema.constraints] == [
        c.name for c in expected.schema.constraints
    ]


def test_two_supertypes_raise_the_same_error(monkeypatch):
    schema = two_supertypes_schema()
    errors = []
    for eliminate in (oracle.eliminate_sublink, binary_binary.eliminate_sublink):
        with pytest.raises(MappingError) as raised:
            together(schema, eliminate, monkeypatch)
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
    assert "multiple supertypes" in errors[0]


def test_what_cannot_fold_still_fails_with_a_schema_error(monkeypatch):
    """A second sublink to the same supertype, or a value constraint on
    a LOT-NOLOT subtype, cannot be folded away.  The rebuild failed
    re-adding it ("no object type named 'B'"); the in-place edit fails
    removing the subtype, naming what still refers to it."""
    parallel = SchemaBuilder("parallel")
    parallel.nolot("A").nolot("B").lot("AK", char(3))
    parallel.identifier("A", "AK")
    parallel.subtype("B", "A", name="s1").subtype("B", "A", name="s2")
    valued = SchemaBuilder("valued")
    valued.nolot("A").lot_nolot("B", char(1)).lot("AK", char(3))
    valued.identifier("A", "AK")
    valued.subtype("B", "A", name="s1").values("B", ("x", "y"), name="V1")
    for builder, names in ((parallel, "sublink 's2'"), (valued, "'V1'")):
        schema = builder.build()
        for eliminate in (oracle.eliminate_sublink, binary_binary.eliminate_sublink):
            state = MappingState(schema=schema.copy(), options=TOGETHER,
                                 original=schema)
            with pytest.raises(SchemaError) as raised:
                eliminate(state, "s1")
        assert names in str(raised.value)


def test_the_working_schema_before_the_elimination_is_left_alone(monkeypatch):
    schema = constrained_schema(total=True)
    state = MappingState(schema=schema.copy(), options=TOGETHER, original=schema)
    before = state.schema
    elements = image(state)[:4]
    binary_binary.eliminate_sublink(state, "PP_IS_Paper")
    assert state.schema is not before
    assert (list(before.object_types), list(before.fact_types),
            list(before.sublinks), list(before.constraints)) == elements
