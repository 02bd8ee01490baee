"""Kill-shot: static ``IMPLIED`` verdicts vs. dynamic counterexamples.

For every ``IMPLIED`` verdict the engine produces on CRIS, the
shipped examples and a synthetic redundancy-rich schema, the
injection machinery must be *unable* to construct a surgical
violation of the implied rule that leaves all of its implying rules
satisfied.  Every candidate mutation that breaks an implied rule's
checker must also break at least one premise's checker — the static
proof discharged by exhaustive dynamic search.
"""

import itertools
import random
from pathlib import Path

from repro.analyzer.implication import check_implications
from repro.brm import SchemaBuilder, char
from repro.cris.schema import cris_schema
from repro.dsl import parse
from repro.executor.compile import compile_rules
from repro.executor.harness import dataset_of
from repro.mapper import map_schema
from repro.mapper.options import MappingOptions
from repro.mapper.trace import KIND_RELATIONAL
from repro.robustness.violations import (
    MAX_CANDIDATES,
    MUTATOR_KINDS,
    MUTATORS,
    default_verifier,
    known_values,
)
from repro.workloads import generate_bulk_population

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SEED = 11


def synthetic_redundant_schema():
    b = SchemaBuilder("Redundant")
    b.nolot("P")
    b.lot("Id", char(4)).identifier("P", "Id")
    b.lot("K", char(3)).lot("L", char(3)).lot("M", char(3))
    b.fact("f", ("P", "x"), ("K", "y"))
    b.fact("g", ("P", "x"), ("L", "y"))
    b.fact("h", ("P", "x"), ("M", "y"))
    b.unique(("f", "x")).unique(("g", "x")).unique(("h", "x"))
    # S3 is implied by the S1;S2 chain.
    b.subset(("h", "x"), ("g", "x"), name="S1")
    b.subset(("g", "x"), ("f", "x"), name="S2")
    b.subset(("h", "x"), ("f", "x"), name="S3")
    return b.build()


def schemas_under_test():
    yield "cris", cris_schema()
    yield "conference", parse(
        (EXAMPLES / "conference.ridl").read_text()
    )
    yield "synthetic", synthetic_redundant_schema()


def relational_rules_for(result, constraint_name):
    """The relational checker rules the trace generated for one
    canonical-schema constraint."""
    names = set()
    for step in result.steps:
        if step.kind == KIND_RELATIONAL and step.target == constraint_name:
            names.update(step.lossless_rules)
    return names


def test_no_surgical_violation_of_any_implied_rule():
    exercised = 0
    for schema_name, schema in schemas_under_test():
        result = map_schema(schema, MappingOptions())
        implications = check_implications(result.canonical)
        if not implications.implied:
            continue
        rules = compile_rules(result.relational)
        by_name = {rule.name: rule for rule in rules}
        population = generate_bulk_population(
            schema, target_rows=150, seed=SEED
        )
        canonical = result.canonicalize(
            result.state.to_canonical(population)
        )
        dataset = dataset_of(result.state_map.forward(canonical))
        known = known_values(dataset)
        for verdict in implications.implied:
            implied_rules = relational_rules_for(
                result, verdict.subject
            ) & set(by_name)
            if not implied_rules:
                continue  # constraint never relationally enforced
            premise_rules = set()
            for premise in verdict.proof.premises:
                premise_rules |= relational_rules_for(result, premise)
            premise_rules &= set(by_name)
            subset = tuple(
                by_name[name]
                for name in sorted(implied_rules | premise_rules)
            )
            verify = default_verifier(result.relational, subset, dataset)
            for rule_name in sorted(implied_rules):
                rule = by_name[rule_name]
                kinds = [
                    kind
                    for kind, rule_kinds in MUTATOR_KINDS.items()
                    if rule.kind in rule_kinds
                ]
                for kind in kinds:
                    rng = random.Random(
                        (SEED, kind, rule.name).__repr__()
                    )
                    candidates = MUTATORS[kind](
                        result.relational, rule, dataset, known, rng
                    )
                    for delta, description in itertools.islice(
                        candidates, MAX_CANDIDATES
                    ):
                        violated = verify(delta)
                        if rule.name not in violated:
                            continue
                        exercised += 1
                        assert violated & premise_rules, (
                            f"{schema_name}: surgical violation of "
                            f"implied rule {rule.name} "
                            f"({verdict.subject}) passed all implying "
                            f"rules — {description}; proof: "
                            f"{verdict.proof.render_inline()}"
                        )
    # The sweep must not be vacuous: the synthetic schema guarantees
    # implied rules with violating candidates to discharge.
    assert exercised > 0
