"""Reference oracles: the pre-index linear-scan query implementations.

Each oracle answers the same questions as an indexed production query
by scanning the schema's elements, exactly as the production code did
before its index layer.  The property suites compare the two after
randomized mutation sequences; no production path imports this
package.
"""
