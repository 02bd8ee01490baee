"""Reference oracles: the implementations production code replaced.

Each oracle answers the same questions as a production path, the way
that path answered them before it was indexed or made columnar: the
linear-scan schema and relational-schema queries (``brm``,
``relational``), the row-at-a-time population (``brm.RowPopulation``),
the row-at-a-time backward state map (``mapper.row_backward``), the
value-level canonicalizer and generator (``mapper.value_canonicalize``,
``workloads.value_generate``), the expert recommender's pricing of a
query workload on a materialized design
(``mapper.materialized_workload_cost``), the ``row.get`` reference
checker and full-reload detection matrix, and the ``isinstance``
chain of a compiled rule's dependency relations (``executor``), and
the per-kind ``isinstance`` ladders that rendered constraints and
compiled their checker SQL (``constraints``), and the injection
planner's whole-relation verifier, which re-ran every rule reading a
candidate's relation on a spliced fork of the clean database
(``robustness.whole_relation_verifier``), and the consistency check's
own condensed subset graph and emptiness propagation, which the
shared inclusion graph and solver replaced (``analyzer``), and the
advisor's one ``map_prefix`` per prefix group, which the shared binary
phase per binary group replaced (``mapper.prefix_group_advise``), and
the TOGETHER elimination that rebuilt the whole schema per sublink,
which the in-place edit replaced (``mapper.eliminate_sublink``), and
the SQL205 lint rule body that compiled and scanned every checker
query before it knew whether any identifier was unportable
(``lint.checker_identifier_unportable``), and the six per-kind
``isinstance`` ladders over the BRM constraint classes (items,
verdicts, both duplicate keys, map-report descriptions and DSL
statements) that each class's own faces replaced (``brm_constraints``),
and the lifter's hand-written predicate-tree recognisers of the
lossless-rule CHECKs and presence tests, which each form's exact
inverse replaced (``relational``).
The property suites compare each pair after randomized construction
and mutation sequences; no production path imports this package.
"""
