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
compiled their checker SQL (``constraints``).
The property suites compare each pair after randomized construction
and mutation sequences; no production path imports this package.
"""
