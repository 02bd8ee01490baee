"""The binary seam: the advisor runs the binary phase once per binary key.

The binary phase reads only the scope and the effective sublink
policies, so ``binary_key`` may group option sets coarser than
``prefix_key``.  These tests check that claim on the states themselves,
check the two-level advisor against the one-``map_prefix``-per-prefix-
group oracle, and check that expert rules, which may read any option,
get no shared binary phase.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.brm.reference import candidate_schemes
from repro.cris import cris_schema, figure6_schema
from repro.dsl import parse
from repro.errors import MappingError
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    OptionSpace,
    Rule,
    SublinkPolicy,
    advise,
    discover_space,
    enumerate_options,
    map_prefix,
)
from repro.mapper.engine import binary_key, map_binary, prefix_from_binary
from repro.mapper.transformations.binary_binary import add_indicator_fact
from repro.observability import Tracer
from repro.workloads import SchemaShape, generate_schema

from tests.brm.test_reference_oracle import ADVISE_SHAPE
from tests.oracles.mapper import prefix_group_advise

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "conference.ridl"

#: Small draws with several sublinks and alternative identifiers.
SUBLINK_SHAPE = SchemaShape(
    entity_types=8,
    subtype_ratio=0.4,
    subtype_own_identifier_ratio=0.5,
    alternate_identifier_ratio=0.4,
    rich_constraints=True,
)

FIXED = {
    "figure6": figure6_schema,
    "cris": cris_schema,
    "conference": lambda: parse(EXAMPLE.read_text()),
}
GENERATED = {
    f"generated-{seed}": (lambda seed=seed: generate_schema(SUBLINK_SHAPE, seed))
    for seed in range(24)
}
SCHEMAS = {**FIXED, **GENERATED}


def soundness_space(schema) -> OptionSpace:
    """Every null policy, every global sublink policy, override axes on
    two sublinks, and a lexical axis on a NOLOT with two schemes."""
    lexical = ()
    for object_type in schema.object_types:
        if object_type.is_nolot:
            keys = tuple(s.key for s in candidate_schemes(schema, object_type.name))
            if len(keys) >= 2:
                lexical = ((object_type.name, keys),)
                break
    names = sorted(s.name for s in schema.sublinks)[:2]
    return OptionSpace(
        null_policies=tuple(NullPolicy),
        sublink_override_axes=tuple(
            (name, (None,) + tuple(SublinkPolicy)) for name in names
        ),
        lexical_axes=lexical,
        max_candidates=100_000,
    )


def post_binary(schema, options) -> tuple:
    """The post-binary state, element by element, or the error."""
    try:
        binary = map_binary(schema, options)
    except Exception as exc:  # an inadmissible corner must fail alike
        return ("error", type(exc).__name__, str(exc))
    snapshot = binary.snapshot
    hints = snapshot.hints
    return (
        list(snapshot.schema.object_types),
        list(snapshot.schema.fact_types),
        list(snapshot.schema.sublinks),
        list(snapshot.schema.constraints),
        snapshot.steps,
        list(hints.column_overrides.items()),
        list(hints.indicator_sublinks.items()),
        list(hints.eliminations.items()),
        snapshot.pseudo_constraints,
        snapshot.flags,
        len(snapshot.forward_maps),
        len(snapshot.backward_maps),
        binary.health.completed_phases,
        binary.health.quarantined_rule_names(),
    )


class TestBinaryKeySoundness:
    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_equal_binary_keys_give_equal_post_binary_states(self, name):
        schema = SCHEMAS[name]()
        assert schema.sublinks
        groups: dict[tuple, list[MappingOptions]] = {}
        for options in enumerate_options(soundness_space(schema)):
            groups.setdefault(binary_key(schema, options), []).append(options)
        shared = [members for members in groups.values() if len(members) > 1]
        assert shared
        for members in shared:
            first, last = members[0], members[-1]
            assert first.prefix_key() != last.prefix_key()
            assert post_binary(schema, first) == post_binary(schema, last), (
                first.describe(),
                last.describe(),
            )

    def test_scope_order_and_duplicates_share_a_key(self):
        schema = figure6_schema()
        names = [t.name for t in schema.object_types]
        ordered = MappingOptions(scope=tuple(names[:-1]))
        shuffled = MappingOptions(
            scope=tuple(reversed(names[:-1])) + (names[0],),
            null_policy=NullPolicy.NOT_ALLOWED,
        )
        assert binary_key(schema, ordered) == binary_key(schema, shuffled)
        assert post_binary(schema, ordered) == post_binary(schema, shuffled)
        assert binary_key(schema, ordered) != binary_key(schema, MappingOptions())
        assert post_binary(schema, ordered) != post_binary(
            schema, MappingOptions()
        )

    def test_plan_half_refuses_another_binary_key(self):
        schema = figure6_schema()
        binary = map_binary(schema, MappingOptions())
        prefix_from_binary(
            binary, MappingOptions(null_policy=NullPolicy.NOT_ALLOWED)
        )
        with pytest.raises(MappingError, match="binary phase"):
            prefix_from_binary(
                binary, MappingOptions(sublink_policy=SublinkPolicy.TOGETHER)
            )

    def test_map_prefix_is_the_two_halves(self):
        schema = figure6_schema()
        options = MappingOptions(null_policy=NullPolicy.NOT_IN_KEYS)
        whole = map_prefix(schema, options)
        halves = prefix_from_binary(
            map_binary(schema, MappingOptions()), options
        )
        assert whole.options == halves.options
        assert whole.plan.plans == halves.plan.plans
        assert whole.snapshot.steps == halves.snapshot.steps
        assert whole.health.completed_phases == ["binary", "plan"]
        assert halves.health.completed_phases == ["binary", "plan"]


def oracle_cases():
    for name in sorted(FIXED):
        for mode in ("strict", "best-effort"):
            yield pytest.param(name, mode, id=f"{name}-{mode}")
    yield pytest.param("generated-2", "strict", id="generated-2-strict")


class TestAgainstOracle:
    @pytest.mark.parametrize(("name", "mode"), oracle_cases())
    def test_report_equals_one_prefix_run_per_group(self, name, mode):
        """With two sublink override axes, in both robustness modes."""
        schema = SCHEMAS[name]()
        space = discover_space(schema, max_override_axes=2)
        report = advise(schema, space, workers=1, robustness=mode)
        oracle = prefix_group_advise(schema, space, robustness=mode)
        assert report.to_json() == oracle.to_json()
        assert report.render() == oracle.render()

    def test_advise_shape_draw(self):
        schema = generate_schema(ADVISE_SHAPE, seed=3)
        report = advise(schema, workers=1)
        assert report.to_json() == prefix_group_advise(schema).to_json()


def _null_not_allowed(state) -> bool:
    return (
        state.options.null_policy is NullPolicy.NOT_ALLOWED
        and "fired:indicate-invited" not in state.flags
    )


def _indicate_invited(state) -> None:
    add_indicator_fact(state, "Invited_Paper_IS_Paper", keep_sublink=True)


#: An expert rule that reads the null policy in the binary phase
#: (module-level functions, so it pickles for the process pool).
INDICATE_WHEN_NOT_ALLOWED = Rule(
    "indicate-invited", _null_not_allowed, _indicate_invited
)


class TestExpertRules:
    SPACE = OptionSpace(
        null_policies=(NullPolicy.DEFAULT, NullPolicy.NOT_ALLOWED),
        sublink_policies=(SublinkPolicy.SEPARATE,),
        omit_toggles=("Invited_Paper",),
    )

    def test_binary_phase_not_shared(self):
        schema = figure6_schema()
        rules = (INDICATE_WHEN_NOT_ALLOWED,)
        tracer = Tracer("expert")
        with tracer.activate():
            report = advise(schema, self.SPACE, workers=1, extra_rules=rules)
        assert tracer.metrics.counter("advisor.groups") == 2
        assert tracer.metrics.counter("advisor.binary_groups") == 2
        oracle = prefix_group_advise(schema, self.SPACE, extra_rules=rules)
        assert report.to_json() == oracle.to_json()
        # The rule changed the NOT_ALLOWED designs, so a binary phase
        # shared with DEFAULT would have reported them wrongly.
        plain = advise(schema, self.SPACE, workers=1)
        assert report.to_json() != plain.to_json()

    def test_expert_report_is_worker_count_independent(self):
        schema = figure6_schema()
        rules = (INDICATE_WHEN_NOT_ALLOWED,)
        serial = advise(schema, self.SPACE, workers=1, extra_rules=rules)
        pooled = advise(schema, self.SPACE, workers=2, extra_rules=rules)
        assert serial.to_json() == pooled.to_json()


def walk(span):
    yield span
    for child in span.children:
        yield from walk(child)


def traced_advise(schema, space=None) -> tuple:
    """A serial advise run, its span names counted, and its metrics."""
    tracer = Tracer("advise")
    with tracer.activate():
        report = advise(schema, space, workers=1)
    spans = Counter(span.name for root in tracer.roots for span in walk(root))
    return report, spans, tracer.metrics


class TestAdvisorTrace:
    def test_one_binary_phase_per_binary_group(self):
        schema = generate_schema(ADVISE_SHAPE, seed=3)
        report, spans, metrics = traced_advise(schema)
        assert metrics.counter("advisor.binary_groups") == 3
        assert metrics.counter("advisor.groups") == 9
        assert report.prefix_groups == 9
        assert spans["advisor.binary_group"] == 3
        assert spans["advisor.group"] == 9
        # One binary phase per binary group, plus discover_space's probe.
        assert spans["phase:binary"] == 3 + 1
        assert spans["phase:plan"] == 9 + 1
        assert metrics.counter("rules.fired") == 3 * (3 + 1)


class TestFailedGroups:
    def test_failed_gate_never_runs_the_binary_phase(self):
        """A NOT_REFERABLE type passes only the NULL ALLOWED gate."""
        schema = parse("schema Bad\nnolot Ghost\n")
        for nulls, phases in (
            ((NullPolicy.DEFAULT,), 0),
            ((NullPolicy.DEFAULT, NullPolicy.ALLOWED), 1),
            ((NullPolicy.ALLOWED, NullPolicy.NOT_ALLOWED), 1),
        ):
            space = OptionSpace(
                null_policies=nulls, sublink_policies=(SublinkPolicy.SEPARATE,)
            )
            report, spans, _ = traced_advise(schema, space)
            assert spans["phase:binary"] == phases
            assert report.to_json() == prefix_group_advise(schema, space).to_json()
            assert all(o.error.startswith("prefix failed:") for o in report.ranked)

    def test_failed_binary_phase_is_reported_by_every_group(self):
        space = OptionSpace(
            base=MappingOptions(scope=("Paper", "Nope")),
            null_policies=(NullPolicy.DEFAULT, NullPolicy.NOT_IN_KEYS),
            sublink_policies=(SublinkPolicy.SEPARATE,),
        )
        schema = figure6_schema()
        report, spans, _ = traced_advise(schema, space)
        assert spans["phase:binary"] == 1
        assert len(report.failures) == 2
        assert all("Nope" in o.error for o in report.failures)
        assert report.to_json() == prefix_group_advise(schema, space).to_json()
