"""Execution backends: where the compiled checker queries run.

Three interchangeable backends execute the validation harness:

* :class:`DuckDBBackend` — the scale target.  ``duckdb`` is an
  *optional* dependency: the module never imports it at the top
  level, and :func:`resolve_backend` falls back when it is missing.
* :class:`SqliteBackend` — the stdlib middle tier.  Always available,
  runs the same SQL, so the compiled-query path is exercised on every
  machine (and in the no-duckdb CI leg) without any install.
* :class:`MemoryBackend` — the reference semantics.  Interprets each
  compiled rule against :class:`repro.engine.database.Database`
  exactly the way ``Database.check()`` would, which is what the
  backend-parity property tests pin the SQL backends against.

All backends report violations in the same normal form
(:class:`Violation`: rule name, kind, violating-tuple count), so
"identical violation sets" is a plain equality.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.engine.database import Database
from repro.errors import RidlError
from repro.executor.compile import CompiledRule
from repro.executor.ddl import create_table_statements, index_statements
from repro.relational.schema import RelationalSchema

#: Preference order for ``--backend auto`` and for graceful fallback
#: when an explicitly requested backend is unavailable.
FALLBACK_ORDER = ("duckdb", "sqlite", "memory")

#: Rows per ``executemany`` batch during bulk loads.  Bounds the peak
#: size of the materialized parameter list: at 1e6+ rows a single
#: all-at-once list of tuples costs hundreds of MB before the driver
#: sees the first row, while chunks stream at a constant footprint.
INSERT_CHUNK_ROWS = 20_000


class BackendUnavailableError(RidlError):
    """The requested backend cannot run on this machine."""


@dataclass(frozen=True)
class Violation:
    """One violated rule, in the cross-backend normal form."""

    rule: str
    kind: str
    relation: str
    count: int
    sample: tuple[str, ...] = ()

    def __str__(self) -> str:
        shown = f" e.g. {self.sample[0]}" if self.sample else ""
        return (
            f"{self.rule} [{self.kind}] on {self.relation}: "
            f"{self.count} violating tuple(s){shown}"
        )


def _sample(items: list) -> tuple[str, ...]:
    return tuple(repr(item) for item in items[:3])


class Backend:
    """The backend interface the harness drives."""

    name = "abstract"
    #: How the last :meth:`fetch_columns` read its data: ``"arrow"``
    #: when DuckDB handed whole Arrow columns back, ``"native"`` for
    #: direct column extraction, ``"fallback"`` when the default
    #: :meth:`fetch_columns` transposed :meth:`rows`, ``None`` before
    #: any bulk read.
    read_path: str | None = None

    def load_schema(
        self, schema: RelationalSchema, *, enforce: bool = False
    ) -> None:
        """Create the relations (dropping any previous state)."""
        raise NotImplementedError

    def insert_rows(self, relation: str, rows: list[dict]) -> None:
        raise NotImplementedError

    def delete_rows(self, relation: str, rows: list[dict]) -> None:
        """Delete one stored row equal to each of ``rows``.

        The injection replay's half-step: a one-row delta is applied
        by deleting the clean row it replaces and inserting the new
        one, and undone the other way round.  Equality is NULL-safe,
        since both the clean rows (nullable columns) and the injected
        ones (a NULL breach) can hold NULLs.
        """
        raise NotImplementedError

    def finish_load(self) -> None:
        """Called once after the last ``insert_rows`` of a bulk load."""

    def snapshot_to(self, path: str) -> bool:
        """Persist the loaded state to ``path`` for worker processes.

        Returns False when the backend cannot snapshot — the check
        phase then runs serially regardless of ``--check-workers``.
        """
        return False

    def rows(self, relation: str) -> list[dict]:
        """All rows of a relation as attribute dicts."""
        raise NotImplementedError

    def fetch_columns(
        self, relation: str, columns: tuple[str, ...]
    ) -> dict[str, list]:
        """Bulk-read a relation as parallel, row-aligned value columns.

        The read side of the round trip: one list per requested
        column, in the backend's row order.  Backends override it to
        skip row dicts entirely; this default transposes :meth:`rows`
        and records ``read_path = "fallback"``.
        """
        rows = self.rows(relation)
        self.read_path = "fallback"
        return {
            column: [row.get(column) for row in rows] for column in columns
        }

    def count_rows(self, relation: str) -> int:
        raise NotImplementedError

    def run_rule(self, rule: CompiledRule) -> Violation | None:
        """Execute one checker; ``None`` when the rule holds."""
        raise NotImplementedError

    def check(self, rules: tuple[CompiledRule, ...]) -> list[Violation]:
        """Run every checker, returning the violated ones in order."""
        found = []
        for rule in rules:
            violation = self.run_rule(rule)
            if violation is not None:
                found.append(violation)
        return found

    def close(self) -> None:
        """Release any resources (idempotent)."""


class MemoryBackend(Backend):
    """The in-memory ``repro.engine`` executor as a backend.

    Compiled rules are *interpreted* over the engine's tables with
    the engine's own two-valued semantics — no SQL involved — so this
    backend is the semantic reference the SQL backends must match.
    """

    name = "memory"

    def __init__(self) -> None:
        self.database: Database | None = None

    def load_schema(
        self, schema: RelationalSchema, *, enforce: bool = False
    ) -> None:
        self.database = Database(schema)

    def insert_rows(self, relation: str, rows: list[dict]) -> None:
        self.database.insert_many(relation, rows)

    def delete_rows(self, relation: str, rows: list[dict]) -> None:
        for row in rows:
            self.database.remove(relation, row)

    def rows(self, relation: str) -> list[dict]:
        return self.database.rows(relation)

    def fetch_columns(
        self, relation: str, columns: tuple[str, ...]
    ) -> dict[str, list]:
        self.read_path = "native"
        return self.database.fetch_columns(relation, columns)

    def count_rows(self, relation: str) -> int:
        return self.database.count(relation)

    def run_rule(self, rule: CompiledRule) -> Violation | None:
        # Read-only interpretation through the engine's checking
        # kernels, which scan the live rows without copying them — the
        # injection planner runs this checker for every candidate.
        database = self.database
        constraint = rule.constraint
        if rule.kind == "not-null":
            bad = [
                row
                for row, _ in database.null_cells(rule.relation, (rule.column,))
            ]
        elif rule.kind in ("primary-key", "candidate-key"):
            bad = database.duplicate_keys(rule.relation, constraint.columns)
        elif rule.kind == "foreign-key":
            bad = database.unmatched_rows(constraint)
        elif rule.kind == "check":
            bad = [
                row
                for row in database.iter_rows(rule.relation)
                if not constraint.predicate.evaluate(row)
            ]
        elif rule.kind == "equality-view":
            left = database.evaluate_select(constraint.left)
            right = database.evaluate_select(constraint.right)
            bad = sorted(left ^ right, key=repr)
        else:  # subset-view
            subset = database.evaluate_select(constraint.subset)
            superset = database.evaluate_select(constraint.superset)
            bad = sorted(subset - superset, key=repr)
        if not bad:
            return None
        return Violation(
            rule.name, rule.kind, rule.relation, len(bad), _sample(bad)
        )


class _SqlBackend(Backend):
    """Shared machinery for the DB-API backends (``?`` placeholders)."""

    #: The dialect's NULL-safe equality operator (NULL matches NULL).
    null_safe_equals = "IS"

    def __init__(self) -> None:
        self._connection = None
        self._schema: RelationalSchema | None = None

    def _connect(self):
        raise NotImplementedError

    def load_schema(
        self, schema: RelationalSchema, *, enforce: bool = False
    ) -> None:
        self.close()
        self._schema = schema
        self._connection = self._connect()
        for statement in create_table_statements(schema, enforce=enforce):
            self._connection.execute(statement)

    def insert_rows(self, relation: str, rows: list[dict]) -> None:
        if not rows:
            return
        columns = self._schema.relation(relation).attribute_names
        placeholders = ", ".join("?" for _ in columns)
        statement = (
            f"INSERT INTO {relation} ({', '.join(columns)}) "
            f"VALUES ({placeholders})"
        )
        for start in range(0, len(rows), INSERT_CHUNK_ROWS):
            chunk = rows[start:start + INSERT_CHUNK_ROWS]
            self._connection.executemany(
                statement,
                [tuple(row.get(column) for column in columns) for row in chunk],
            )

    def delete_rows(self, relation: str, rows: list[dict]) -> None:
        columns = self._schema.relation(relation).attribute_names
        match = " AND ".join(
            f"{column} {self.null_safe_equals} ?" for column in columns
        )
        statement = (
            f"DELETE FROM {relation} WHERE rowid = "
            f"(SELECT rowid FROM {relation} WHERE {match} LIMIT 1)"
        )
        for row in rows:
            self._connection.execute(
                statement, tuple(row.get(column) for column in columns)
            )

    def finish_load(self) -> None:
        # Index every declared key after the bulk load: the FK
        # checkers' correlated NOT EXISTS probes are table scans
        # without them (quadratic at harness scales).
        for statement in index_statements(self._schema):
            self._connection.execute(statement)

    def rows(self, relation: str) -> list[dict]:
        columns = self._schema.relation(relation).attribute_names
        cursor = self._connection.execute(
            f"SELECT {', '.join(columns)} FROM {relation}"
        )
        return [dict(zip(columns, values)) for values in cursor.fetchall()]

    def fetch_columns(
        self, relation: str, columns: tuple[str, ...]
    ) -> dict[str, list]:
        cursor = self._connection.execute(
            f"SELECT {', '.join(columns)} FROM {relation}"
        )
        fetched = cursor.fetchall()
        self.read_path = "native"
        if not fetched:
            return {column: [] for column in columns}
        # itemgetter beats a zip(*rows) transpose ~5x at 1e6 rows: one
        # C-level pass per column, no intermediate row re-packing.
        return {
            column: list(map(operator.itemgetter(index), fetched))
            for index, column in enumerate(columns)
        }

    def count_rows(self, relation: str) -> int:
        cursor = self._connection.execute(
            f"SELECT COUNT(*) FROM {relation}"
        )
        return cursor.fetchall()[0][0]

    def run_rule(self, rule: CompiledRule) -> Violation | None:
        cursor = self._connection.execute(rule.sql)
        bad = cursor.fetchall()
        if not bad:
            return None
        return Violation(
            rule.name, rule.kind, rule.relation, len(bad), _sample(bad)
        )

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class SqliteBackend(_SqlBackend):
    """In-memory SQLite (stdlib ``sqlite3``)."""

    name = "sqlite"

    def _connect(self):
        import sqlite3

        return sqlite3.connect(":memory:")

    def snapshot_to(self, path: str) -> bool:
        """Persist the in-memory database (with its indexes) to a
        file for read-only worker use.

        Uses ``Connection.serialize`` (Python 3.11+) and writes the
        resulting image with plain file I/O: workers rehydrate it
        into their own ``:memory:`` connection, so no sqlite file
        locking is ever involved.  On interpreters without
        ``serialize`` this returns ``False`` and the caller falls
        back to a serial check.
        """
        if not hasattr(self._connection, "serialize"):
            return False
        with open(path, "wb") as handle:
            handle.write(self._connection.serialize())
        return True

    @classmethod
    def open_snapshot(cls, path: str) -> "SqliteBackend":
        """A backend over a snapshot image written by
        :meth:`snapshot_to`.

        Check-phase workers each deserialize the image into a private
        in-memory database; ``run_rule`` and ``check`` then work
        unchanged.
        """
        import sqlite3

        with open(path, "rb") as handle:
            image = handle.read()
        backend = cls()
        backend._connection = sqlite3.connect(":memory:")
        backend._connection.deserialize(image)
        return backend


def pyarrow_available() -> bool:
    """True when the optional ``pyarrow`` package can be imported."""
    try:
        import pyarrow  # noqa: F401
    except ImportError:
        return False
    return True


class DuckDBBackend(_SqlBackend):
    """In-memory DuckDB — the 1e5+-row scale target."""

    name = "duckdb"
    null_safe_equals = "IS NOT DISTINCT FROM"

    def _connect(self):
        try:
            import duckdb
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise BackendUnavailableError(
                "the duckdb package is not installed"
            ) from exc
        return duckdb.connect(":memory:")

    def insert_rows(self, relation: str, rows: list[dict]) -> None:
        # Arrow ingestion when pyarrow is around: one zero-copy
        # ``register`` + INSERT..SELECT per relation instead of a
        # Python-tuple round trip per row.  Both packages are
        # optional, so any failure on this path falls back to the
        # chunked executemany loader.
        if rows and pyarrow_available():
            try:
                self._insert_rows_arrow(relation, rows)
                return
            except Exception:  # pragma: no cover - env-dependent
                pass
        super().insert_rows(relation, rows)

    def fetch_columns(
        self, relation: str, columns: tuple[str, ...]
    ) -> dict[str, list]:
        # Arrow bulk read when pyarrow is around: DuckDB hands whole
        # columns back and ``to_pylist`` converts each once, instead
        # of a Python tuple per row.  Falls back to the shared DB-API
        # fetchall/transpose path on any failure.
        if pyarrow_available():
            try:
                table = self._connection.execute(
                    f"SELECT {', '.join(columns)} FROM {relation}"
                ).fetch_arrow_table()
            except Exception:  # pragma: no cover - env-dependent
                pass
            else:
                self.read_path = "arrow"
                return {
                    column: table.column(column).to_pylist()
                    for column in columns
                }
        return super().fetch_columns(relation, columns)

    def _insert_rows_arrow(self, relation: str, rows: list[dict]) -> None:
        import pyarrow as pa

        columns = self._schema.relation(relation).attribute_names
        table = pa.table(
            {
                column: [row.get(column) for row in rows]
                for column in columns
            }
        )
        view = f"_bulk_{relation}"
        self._connection.register(view, table)
        try:
            self._connection.execute(
                f"INSERT INTO {relation} ({', '.join(columns)}) "
                f"SELECT {', '.join(columns)} FROM {view}"
            )
        finally:
            self._connection.unregister(view)


BACKENDS: dict[str, type[Backend]] = {
    "memory": MemoryBackend,
    "sqlite": SqliteBackend,
    "duckdb": DuckDBBackend,
}


def duckdb_available() -> bool:
    """True when the optional ``duckdb`` package can be imported."""
    try:
        import duckdb  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> tuple[str, ...]:
    """The backend names that can run on this machine."""
    return tuple(
        name
        for name in FALLBACK_ORDER
        if name != "duckdb" or duckdb_available()
    )


@dataclass(frozen=True)
class ResolvedBackend:
    """What :func:`resolve_backend` decided, for the report."""

    backend: Backend
    requested: str
    used: str
    note: str | None = None


def resolve_backend(name: str = "auto") -> ResolvedBackend:
    """Instantiate a backend, falling back gracefully.

    ``auto`` picks the first available of :data:`FALLBACK_ORDER`.  An
    explicitly requested but unavailable backend degrades to the next
    available one with an explanatory note — the harness still runs,
    the report records what actually executed.
    """
    if name != "auto" and name not in BACKENDS:
        raise RidlError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(('auto',) + tuple(BACKENDS))}"
        )
    usable = available_backends()
    if name == "auto":
        used = usable[0]
        note = None
    elif name in usable:
        used = name
        note = None
    else:
        used = usable[0]
        note = (
            f"backend {name!r} is unavailable "
            f"(duckdb not installed); fell back to {used!r}"
        )
    return ResolvedBackend(BACKENDS[used](), name, used, note)
