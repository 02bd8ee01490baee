"""RIDL-A function 4 — detection of non-referable object types.

"It detects non-referable object types in the conceptual schema, i.e.
object types for which it is not possible to refer uniquely and
unambiguously (one-to-one) to all of their instances.  This
one-to-one property should be inferable from constraints in the
binary schema" (section 3.2).  Without a lexical reference an object
type cannot be stored relationally, so these findings are errors.

Beyond the bare verdict the diagnostics explain *what is missing*:
either the type has no identifying fact shape at all (no 1:1
mandatory fact, compound identifier or supertype), or it has
candidate schemes whose targets are themselves non-referable.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.analyzer.cache import memoized_on_schema_version
from repro.analyzer.diagnostics import Diagnostic, Severity
from repro.brm.reference import ReferenceResolver, candidate_schemes
from repro.brm.schema import BinarySchema


def resolver_for(
    schema: BinarySchema,
    preferences: dict[str, tuple[str, ...]] | None = None,
) -> ReferenceResolver:
    """The (shared, read-only) reference resolution of this schema
    version under these lexical preferences.

    The resolver is built on its own copy of the schema, so a caller
    that mutates its schema afterwards cannot change the answers it
    shares.  A construction that raises (an ungrounded preference) is
    not memoized: every call raises again.
    """
    key = tuple(
        (type_name, tuple(scheme))
        for type_name, scheme in (preferences or {}).items()
    )
    return _resolve(schema, key)


# An advise op reuses a resolution within the next request or two: the
# gate's in the probe and the first plan phase, then each binary
# group's preferences in its next prefix group.  Two entries suffice,
# and a resolver of an industrial-size design holds about ten thousand
# small objects, which every full garbage collection walks while the
# memo keeps it alive.
@memoized_on_schema_version(maxsize=2)
def _resolve(
    schema: BinarySchema, preferences: tuple[tuple[str, tuple[str, ...]], ...]
) -> ReferenceResolver:
    return ReferenceResolver(schema.copy(), preferences=dict(preferences))


@contextmanager
def resolution_scope() -> Iterator[None]:
    """Drop the memoized resolutions when the block ends.

    ``map_schema`` and ``advise`` each run in one scope: their requests
    share resolutions, and a resolver kept after the call would only
    shift the garbage collections of every later call in a process
    that keeps mapping.
    """
    try:
        yield
    finally:
        _resolve.cache_clear()


def check_referability(schema: BinarySchema) -> list[Diagnostic]:
    """Findings of the referability analysis (one per NOLOT)."""
    resolver = resolver_for(schema)
    diagnostics = []
    for type_name in sorted(resolver.non_referable()):
        candidates = candidate_schemes(schema, type_name)
        if not candidates:
            message = (
                "no candidate naming convention: add a mandatory 1:1 fact "
                "type to a lexical or referable type (uniqueness on both "
                "roles, total on this type's role), a compound external "
                "identifier, or a sublink to a referable supertype"
            )
        else:
            blockers = sorted(
                {
                    target
                    for scheme in candidates
                    for target in scheme.targets
                    if not resolver.is_referable(target)
                }
                | {
                    schema.sublink(scheme.via_sublink).supertype
                    for scheme in candidates
                    if scheme.via_sublink is not None
                    and not resolver.is_referable(
                        schema.sublink(scheme.via_sublink).supertype
                    )
                }
            )
            message = (
                f"{len(candidates)} candidate naming convention(s) exist "
                f"but none grounds in lexical types; blocked by "
                f"non-referable type(s) {blockers!r}"
            )
        diagnostics.append(
            Diagnostic(Severity.ERROR, "NOT_REFERABLE", type_name, message)
        )
    for type_name in sorted(
        t.name
        for t in schema.object_types
        if t.is_nolot and resolver.is_referable(t.name)
    ):
        scheme = resolver.chosen_scheme(type_name)
        leaves = resolver.leaves(type_name)
        diagnostics.append(
            Diagnostic(
                Severity.INFO,
                "REFERENCE_SCHEME",
                type_name,
                f"referable via {scheme.kind} scheme "
                f"{'/'.join(scheme.key)} -> "
                f"({', '.join(leaf.lot for leaf in leaves)})",
            )
        )
    return diagnostics
