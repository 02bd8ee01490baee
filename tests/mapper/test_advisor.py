"""The parallel mapping-option advisor."""

import pytest

from repro.cris import cris_schema, figure6_schema
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    OptionSpace,
    SublinkPolicy,
    advise,
    map_from_prefix,
    map_prefix,
    map_schema,
    plan_from_prefix,
    score_plan,
)
from repro.observability.fanout import resolve_workers
from repro.workloads.statistics import WorkloadProfile, plan_statistics


@pytest.fixture(scope="module")
def schema():
    return figure6_schema()


SMALL_SPACE = OptionSpace(
    null_policies=(NullPolicy.DEFAULT, NullPolicy.NOT_IN_KEYS),
    sublink_policies=(SublinkPolicy.SEPARATE, SublinkPolicy.TOGETHER),
    omit_toggles=("Invited_Paper",),
)


class TestPrefixSeam:
    def test_forked_suffix_equals_direct_mapping(self, schema):
        options = MappingOptions(
            null_policy=NullPolicy.NOT_IN_KEYS,
            combine_tables=(("Paper", "Program_Paper"),),
        )
        prefix = map_prefix(schema, options)
        forked = map_from_prefix(prefix, options)
        direct = map_schema(schema, options)
        assert forked.sql("sql2") == direct.sql("sql2")
        assert {r.name for r in forked.relational.relations} == {
            r.name for r in direct.relational.relations
        }

    def test_one_prefix_many_suffixes(self, schema):
        base = MappingOptions(null_policy=NullPolicy.NOT_IN_KEYS)
        prefix = map_prefix(schema, base)
        plain = map_from_prefix(prefix, base)
        omitted = map_from_prefix(
            prefix, base.with_overrides(omit_tables=("Invited_Paper",))
        )
        names = {r.name for r in plain.relational.relations}
        assert "Invited_Paper" in names
        assert "Invited_Paper" not in {
            r.name for r in omitted.relational.relations
        }
        # The prefix is not consumed: a third fork still works.
        again = map_from_prefix(prefix, base)
        assert again.sql("sql2") == plain.sql("sql2")

    def test_mismatched_prefix_refused(self, schema):
        from repro.errors import MappingError

        prefix = map_prefix(schema, MappingOptions())
        with pytest.raises(MappingError, match="prefix"):
            map_from_prefix(
                prefix,
                MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
            )

    def test_plan_from_prefix_matches_materialized_plan(self, schema):
        options = MappingOptions(omit_tables=("Invited_Paper",))
        prefix = map_prefix(schema, options)
        plan, health = plan_from_prefix(prefix, options)
        full = map_from_prefix(prefix, options)
        assert sorted(plan.plans) == sorted(full.plan.plans)
        assert health.ok


class TestScoring:
    def test_score_components(self, schema):
        prefix = map_prefix(schema, MappingOptions())
        plan, _ = plan_from_prefix(prefix)
        score = score_plan(plan)
        assert score.tables == len(plan.plans)
        assert score.storage_pages > 0
        assert score.entity_fetch_pages > 0
        assert score.total > 0

    def test_fragmentation_scores_worse(self, schema):
        """NULL NOT ALLOWED splits optional facts into satellites —
        the paper's 'large number of small tables' — which must cost
        more to fetch an entity from."""
        compact = plan_from_prefix(
            map_prefix(schema, MappingOptions())
        )[0]
        fragmented = plan_from_prefix(
            map_prefix(
                schema,
                MappingOptions(null_policy=NullPolicy.NOT_ALLOWED),
            )
        )[0]
        assert (
            score_plan(fragmented).entity_fetch_pages
            > score_plan(compact).entity_fetch_pages
        )
        assert score_plan(fragmented).tables > score_plan(compact).tables

    def test_profile_drives_row_estimates(self, schema):
        prefix = map_prefix(schema, MappingOptions())
        plan, _ = plan_from_prefix(prefix)
        small = plan_statistics(plan, WorkloadProfile(default_instances=100))
        large = plan_statistics(
            plan, WorkloadProfile(default_instances=1_000_000)
        )
        assert small.row_count("Paper") == 100
        assert large.row_count("Paper") == 1_000_000
        assert (
            score_plan(plan, WorkloadProfile(default_instances=1_000_000)).total
            > score_plan(plan, WorkloadProfile(default_instances=100)).total
        )


class TestAdvise:
    def test_ranked_report(self, schema):
        report = advise(schema, SMALL_SPACE, workers=1)
        assert len(report.ranked) == 8  # 2 nulls x 2 sublinks x omit on/off
        assert report.prefix_groups == 4
        totals = [o.score.total for o in report.ranked if o.score]
        assert totals == sorted(totals)
        assert report.winner is report.ranked[0]
        assert report.winner_options is not None

    def test_serial_and_parallel_reports_identical(self, schema):
        serial = advise(schema, SMALL_SPACE, workers=1)
        parallel = advise(schema, SMALL_SPACE, workers=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.render() == parallel.render()

    def test_failed_candidates_reported_not_raised(self, schema):
        space = OptionSpace(
            null_policies=(NullPolicy.DEFAULT,),
            sublink_policies=(SublinkPolicy.SEPARATE,),
            combine_toggles=(("Paper", "Nope"),),
        )
        report = advise(schema, space, workers=1)
        assert len(report.ranked) == 2
        assert len(report.failures) == 1
        failed = report.failures[0]
        assert "Nope" in failed.error
        assert failed is report.ranked[-1]  # failures rank last
        assert report.winner is not None  # the clean corner still wins

    def test_prune_shrinks_exploration(self, schema):
        report = advise(
            schema,
            SMALL_SPACE,
            workers=1,
            prune=lambda c: not c.omit_tables,
        )
        assert len(report.ranked) == 4
        assert all(not o.options.omit_tables for o in report.ranked)

    def test_winner_options_map_cleanly(self, schema):
        report = advise(schema, SMALL_SPACE, workers=1)
        result = map_schema(schema, report.winner_options)
        assert result.health.ok
        assert (
            len(result.relational.relations) == report.winner.score.tables
        )

    def test_health_carried_per_candidate(self, schema):
        # Under TOGETHER the Invited_Paper relation is folded away, so
        # the omit toggle legitimately fails those corners.
        report = advise(schema, SMALL_SPACE, workers=1)
        scored = [o for o in report.ranked if not o.failed]
        assert scored
        for outcome in scored:
            assert outcome.health is not None
            assert outcome.health.ok
            assert "materialize" not in outcome.health.completed_phases
        for outcome in report.failures:
            assert outcome.health is None
            assert "Invited_Paper" in outcome.error

    def test_implied_constraint_counts_surface(self, schema):
        report = advise(schema, SMALL_SPACE, workers=1)
        for outcome in report.ranked:
            if outcome.failed:
                assert outcome.implied_constraints is None
            else:
                assert isinstance(outcome.implied_constraints, int)
                assert outcome.implied_constraints >= 0
            assert "implied_constraints" in outcome.as_dict()
        assert "impl" in report.render()

    def test_json_shape(self, schema):
        import json

        report = advise(schema, SMALL_SPACE, workers=1)
        payload = json.loads(report.to_json(top_k=3))
        assert payload["candidates"] == 8
        assert payload["prefix_groups"] == 4
        assert len(payload["ranked"]) == 3
        assert payload["ranked"][0]["rank"] == 1
        assert payload["winner"] == report.winner.label

    def test_discovered_space_on_cris(self):
        schema = cris_schema()
        report = advise(schema, workers=1)
        assert report.winner is not None
        # 3 nulls x 3 sublinks prefixes, omit toggles fan the rest out.
        assert report.prefix_groups == 9
        assert len(report.ranked) == 36


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(4, tasks=8) == 4

    def test_capped_by_groups(self):
        assert resolve_workers(8, tasks=3) == 3

    def test_floor_of_one(self):
        assert resolve_workers(0, tasks=5) == 1
        assert resolve_workers(None, tasks=0) == 1

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert resolve_workers(None, tasks=100) == 6
