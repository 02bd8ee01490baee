"""Implied-rule pruning: ``prunable_rules`` soundness and the
``prune_implied`` harness/CLI path."""

import pytest

from repro.brm import SchemaBuilder, char
from repro.errors import UnknownElementError
from repro.executor import run_validation
from repro.executor.compile import compile_rules, prunable_rules
from repro.mapper import map_schema
from repro.mapper.options import MappingOptions


def redundant_subset_schema():
    b = SchemaBuilder("Redundant")
    b.nolot("P")
    b.lot("Id", char(4)).identifier("P", "Id")
    b.lot("K", char(3)).lot("L", char(3)).lot("M", char(3))
    b.fact("f", ("P", "x"), ("K", "y"))
    b.fact("g", ("P", "x"), ("L", "y"))
    b.fact("h", ("P", "x"), ("M", "y"))
    b.unique(("f", "x")).unique(("g", "x")).unique(("h", "x"))
    b.subset(("h", "x"), ("g", "x"), name="S1")
    b.subset(("g", "x"), ("f", "x"), name="S2")
    b.subset(("h", "x"), ("f", "x"), name="S3")
    return b.build()


class TestPrunableRules:
    def test_transitively_implied_subset_rule_is_pruned(self):
        result = map_schema(redundant_subset_schema(), MappingOptions())
        pruned = prunable_rules(result)
        assert len(pruned) == 1
        (reason,) = pruned.values()
        assert "S3" in reason and "S1" in reason and "S2" in reason
        # The premises' own rules survive.
        kept = compile_rules(
            result.relational, prune_implied=True, mapping=result
        )
        assert set(pruned).isdisjoint(rule.name for rule in kept)
        full = compile_rules(result.relational)
        assert len(full) - len(kept) == len(pruned)

    def test_mutually_implied_triangle_is_not_fully_pruned(self):
        # E1, E2 and E3 each follow from the other two: a greedy
        # prune must keep enough of the cycle enforced to ground
        # every pruned proof — never all three.
        b = SchemaBuilder("Mutual")
        b.nolot("P")
        b.lot("Id", char(4)).identifier("P", "Id")
        b.lot("K", char(3)).lot("L", char(3)).lot("M", char(3))
        b.fact("f", ("P", "x"), ("K", "y"))
        b.fact("g", ("P", "x"), ("L", "y"))
        b.fact("h", ("P", "x"), ("M", "y"))
        b.unique(("f", "x")).unique(("g", "x")).unique(("h", "x"))
        b.equality(("f", "x"), ("g", "x"), name="E1")
        b.equality(("g", "x"), ("h", "x"), name="E2")
        b.equality(("f", "x"), ("h", "x"), name="E3")
        result = map_schema(b.build(), MappingOptions())
        pruned = prunable_rules(result)
        assert len(pruned) == 1  # E1's view rule; E2/E3 keep running
        (reason,) = pruned.values()
        assert "E1" in reason
        kept_names = {
            rule.name
            for rule in compile_rules(
                result.relational, prune_implied=True, mapping=result
            )
        }
        full_names = {
            rule.name for rule in compile_rules(result.relational)
        }
        assert kept_names == full_names - set(pruned)
        # Two of the three equality-view checkers survive.
        assert (
            len([n for n in kept_names if n.startswith("C_EE$")]) == 2
        )

    def test_pseudo_only_premise_blocks_pruning(self):
        # U1 is implied by the 1..1 frequency bound, but frequency
        # constraints only become pseudo-SQL — never a relational
        # rule — so the key rule for U1 must keep running.
        b = SchemaBuilder("Freq")
        b.nolot("P")
        b.lot("Id", char(4)).identifier("P", "Id")
        b.lot("K", char(3))
        b.fact("f", ("P", "x"), ("K", "y"))
        b.unique(("f", "x"), name="UQ1")
        b.frequency(("f", "x"), 1, 1, name="F1")
        result = map_schema(b.build(), MappingOptions())
        assert prunable_rules(result) == {}

    def test_clean_schema_prunes_nothing(self):
        from repro.cris.schema import cris_schema

        result = map_schema(cris_schema(), MappingOptions())
        assert prunable_rules(result) == {}

    def test_missing_canonical_constraint_is_skipped(self, monkeypatch):
        result = map_schema(redundant_subset_schema(), MappingOptions())

        def missing(name):
            raise UnknownElementError("constraint", name)

        monkeypatch.setattr(result.canonical, "constraint", missing)
        assert prunable_rules(result) == {}

    def test_other_lookup_errors_propagate(self, monkeypatch):
        # Only a missing constraint means "not in the canonical form";
        # any other failure is a bug and must not silently change
        # which rules are enforced.
        result = map_schema(redundant_subset_schema(), MappingOptions())

        def broken(name):
            raise RuntimeError(f"lookup of {name} failed")

        monkeypatch.setattr(result.canonical, "constraint", broken)
        with pytest.raises(RuntimeError, match="lookup of"):
            prunable_rules(result)

    def test_compile_rules_requires_mapping_for_pruning(self):
        result = map_schema(redundant_subset_schema(), MappingOptions())
        with pytest.raises(ValueError, match="MappingResult"):
            compile_rules(result.relational, prune_implied=True)


class TestHarnessPruning:
    def test_pruned_matrix_matches_unpruned_modulo_pruned_rows(self):
        schema = redundant_subset_schema()
        pruned_report = run_validation(
            schema, backend="memory", scale=300, prune_implied=True
        )
        full_report = run_validation(schema, backend="memory", scale=300)
        assert pruned_report.ok and full_report.ok
        assert pruned_report.pruned_rules
        pruned_names = set(pruned_report.pruned_rules)
        full_rows = {
            (row.kind, row.rule): row.detected
            for row in full_report.matrix.rows
            if row.rule not in pruned_names
        }
        pruned_rows = {
            (row.kind, row.rule): row.detected
            for row in pruned_report.matrix.rows
        }
        assert pruned_rows == full_rows
        assert sum(
            pruned_report.rule_counts.values()
        ) + len(pruned_names) == sum(full_report.rule_counts.values())

    def test_report_dict_records_pruned_rules_with_proofs(self):
        report = run_validation(
            redundant_subset_schema(),
            backend="memory",
            scale=200,
            inject=False,
            prune_implied=True,
        )
        payload = report.as_dict()
        assert payload["pruned_rules"] == report.pruned_rules
        assert all(
            "proof" in reason or "implied" in reason
            for reason in payload["pruned_rules"].values()
        )
        assert "pruned" in report.render()

    def test_pruning_off_by_default(self):
        report = run_validation(
            redundant_subset_schema(),
            backend="memory",
            scale=200,
            inject=False,
        )
        assert report.pruned_rules == {}
        assert "pruned" not in report.render()


class TestCliFlag:
    def test_validate_accepts_prune_implied(self, tmp_path, capsys):
        from repro.cli import main
        from repro.dsl import to_dsl

        source = tmp_path / "redundant.ridl"
        source.write_text(to_dsl(redundant_subset_schema()))
        code = main(
            [
                "validate",
                str(source),
                "--backend",
                "memory",
                "--scale",
                "200",
                "--no-inject",
                "--prune-implied",
                "--format",
                "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert '"pruned_rules"' in out
