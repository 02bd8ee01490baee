"""Reference oracles: the implementations production code replaced.

Each oracle answers the same questions as a production path, the way
that path answered them before it was indexed or made columnar: the
linear-scan schema and relational-schema queries (``brm``,
``relational``), the row-at-a-time population (``brm.RowPopulation``),
the row-at-a-time backward state map (``mapper.row_backward``), and
the ``row.get`` reference checker and full-reload detection matrix
(``executor``).
The property suites compare each pair after randomized construction
and mutation sequences; no production path imports this package.
"""
